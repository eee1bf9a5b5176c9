"""Size-4 mixed resolving witnesses for torus graphs C_m x C_n and the
numeric verification that their mixed metric dimension equals 4.

For every parity combination of (m, n) there is a fixed 4-vertex pattern
that resolves all vertices and edges; combined with the degree bound
1 + ceil(log2(4+1)) = 4 for 4-regular graphs this pins the dimension at 4.
The patterns are checked by direct distance computation rather than by
symbolic coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bounds import lb_n1
from .dims import GraphAnalysis, mixed_metric_dimension
from .families import generate_named
from .graphs import (
    DistanceOracle,
    Graph,
    GraphError,
    MixedItem,
    all_items,
    distances,
    item_to_flat,
)

CASE_ODD_ODD = "odd-odd"
CASE_ODD_EVEN = "odd-even"
CASE_EVEN_ODD = "even-odd"
CASE_EVEN_EVEN = "even-even"


@dataclass(frozen=True)
class TorusCase:
    """Candidate witness for T_{m,n}: four torus coordinates (i, j) with
    i on the m-cycle and j on the n-cycle; vertex id = i*n + j."""

    m: int
    n: int
    case: str
    half_m: int
    half_n: int
    coords: tuple[tuple[int, int], ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(i * self.n + j for i, j in self.coords)


def torus_candidate(m: int, n: int) -> TorusCase:
    """The parity-matched 4-coordinate witness pattern for T_{m,n}."""
    if m < 3 or n < 3:
        raise GraphError(f"torus needs m, n >= 3, got ({m},{n})")
    k = m // 2
    l = n // 2
    if m % 2 and n % 2:
        case = CASE_ODD_ODD
        coords = ((0, 0), (0, l), (1, l + 1), (k + 1, l + 1))
    elif m % 2:
        case = CASE_ODD_EVEN
        coords = ((0, 0), (0, l), (1, 0), (k + 1, 1))
    elif n % 2:
        case = CASE_EVEN_ODD
        coords = ((0, 0), (k, 0), (0, 1), (1, l + 1))
    else:
        case = CASE_EVEN_EVEN
        coords = ((0, 0), (0, 1), (1, l), (k, 0))
    coords = tuple((i % m, j % n) for i, j in coords)
    if len(set(coords)) != 4:
        raise RuntimeError(f"internal error: degenerate witness pattern for ({m},{n})")
    return TorusCase(m, n, case, k, l, coords)


def verify_mixed_resolving(
    G: Graph,
    landmarks,
    oracle: DistanceOracle | None = None,
) -> tuple[MixedItem, MixedItem] | None:
    """None when every vertex and edge has a distinct distance vector over
    the landmarks; otherwise the first colliding item pair in canonical
    item order."""
    S = list(landmarks)
    if not S:
        raise GraphError("landmark set must be nonempty")
    oracle = oracle if oracle is not None else distances(G)
    seen: dict[tuple[int, ...], MixedItem] = {}
    for item in all_items(G):
        col = item_to_flat(G, item)
        vec = tuple(int(oracle.dmix[w, col]) for w in S)
        if vec in seen:
            return (seen[vec], item)
        seen[vec] = item
    return None


@dataclass(frozen=True)
class TorusReport:
    m: int
    n: int
    case: str
    witness: tuple[int, ...]
    candidate_valid: bool
    collision: tuple[MixedItem, MixedItem] | None
    degree_bound: int
    exact: int | None

    @property
    def verdict(self) -> int | None:
        """4 when upper and lower bound meet (and the exact solve agrees)."""
        if not self.candidate_valid:
            return None
        if self.exact is not None:
            return self.exact
        return max(4, self.degree_bound) if self.degree_bound <= 4 else None


def torus_theorem_check(m: int, n: int, exact: bool = False, timeout: float | None = None) -> TorusReport:
    """Check that T_{m,n} has mixed metric dimension 4.

    Upper bound: the parity-case witness verifies as a mixed resolving set.
    Lower bound: 4-regularity gives 1 + ceil(log2(5)) = 4.  With exact=True
    the dimension is also recomputed by the exact solver.
    """
    cand = torus_candidate(m, n)
    G = generate_named("torus", m, n)
    oracle = distances(G)
    collision = verify_mixed_resolving(G, cand.vertices, oracle)
    degree_bound = lb_n1(G, oracle)  # 4-regular, so 1 + ceil(log2(5)) = 4
    exact_val = None
    if exact:
        exact_val, _ = mixed_metric_dimension(G, timeout=timeout, analysis=GraphAnalysis(G, oracle))
    return TorusReport(
        m=m,
        n=n,
        case=cand.case,
        witness=cand.vertices,
        candidate_valid=collision is None,
        collision=collision,
        degree_bound=degree_bound,
        exact=exact_val,
    )
