"""Seven lower bounds for the mixed metric dimension.

Four from the literature: L1 = ceil(log2(max degree)) and
L2 = 1 + ceil(log2(min degree)) (both bound the edge dimension, hence the
mixed one), L3 = the least size of a vertex set holding the forced
vertices and meeting every false-twin pair (a closed form), L4 = ceiling
of the covering-LP relaxation of the mixed pair-cover instance.  Three
newer ones: N1 = 1 + ceil(log2(min degree + 1)), N2 = the exact minimum
hitting set of the per-edge side sets, and N3 = the smallest k with
|V|+|E| <= D^k + k*(max degree + 1), counting how many distance vectors k
landmarks can tell apart.  N2 bounds betaM because the side set of u in
the edge e = uv, the vertices strictly closer to u than to v, is the set
of vertices that tell v from e: the mixed pair (v, e).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from ._cover_py import greedy_cover
from .cover import OPTIMAL, CoverInstance, _check_deadline, deadline_after, min_hitting_set
from .dims import GraphAnalysis, _ceil_log2, exact_dimensions
from .graphs import Graph, GraphError
from .lp import CoveringLP, LPError, _packing_lower_bound, solve_covering_lp


def lb_l1(G: Graph) -> int:
    """ceil(log2(max degree)); evaluates to 0 on K2."""
    return _ceil_log2(G.max_degree)


def lb_l2(G: Graph) -> int:
    """1 + ceil(log2(min degree))."""
    return 1 + _ceil_log2(G.min_degree)


def lb_l3(G: Graph) -> int:
    """Exact minimum of a set containing all forced vertices and meeting
    every false-twin pair, in closed form."""
    return GraphAnalysis(G).forced_lower_bound


def lb_l4(G: Graph) -> int:
    """Ceiling of the LP relaxation of the mixed pair-cover program, solved
    over the graph's automorphism orbits unless bounds on both sides of
    the LP already fix it (_lp_bound)."""
    a = GraphAnalysis(G)
    return _lp_bound(a.mixed, a.symmetry.orbits())


# programs with more rows go straight to the simplex: the bracket decides
# none of the 16 such programs of the order 5-7 census and perfbench's
# exact-corpus (seeds 1 and 11), and costs up to 15 times their simplex,
# 21 ms against 1.4 ms over the orbits on rook(6)'s 2,748 rows
_BRACKET_MAX_ROWS = 32


def _lp_bound(inst: CoverInstance, orbits: list[int] | None, deadline: float | None = None) -> int:
    """L4 from the reduced mixed pair-cover instance, whose rows are the
    covering program's: ceil(lb) when ceil(lb) = ceil(ub) for the value lb
    of a feasible packing and ub of a feasible cover (weak duality), first
    for lp._packing_lower_bound and the greedy cover on at most
    _BRACKET_MAX_ROWS rows, then for lp.solve_covering_lp's exact pair over
    orbits (automorphism orbits or None).  Undecided raises LPError; the
    simplex raises SolveTimeout within a batch of pivots past the absolute
    time.monotonic() deadline."""
    masks = inst.masks
    if masks[:1] == (0,):
        raise GraphError("mixed pair instance has an undistinguished pair")
    if len(masks) <= _BRACKET_MAX_ROWS:
        g = greedy_cover(list(masks))[0]
        if math.ceil(_packing_lower_bound(masks, inst.universe_size)) == g:
            return g
    lb, ub = solve_covering_lp(CoveringLP(inst.universe_size, masks), orbits, partial(_check_deadline, deadline))
    if math.ceil(lb) != math.ceil(ub):
        program = f"rows {list(masks)} over {inst.universe_size} variables, orbits {orbits}"
        raise LPError(f"packing {lb} and cover {ub} leave L4 undecided on {program}")
    return math.ceil(lb)


def lb_n1(G: Graph) -> int:
    """1 + ceil(log2(min degree + 1))."""
    return 1 + _ceil_log2(G.min_degree + 1)


def lb_n2(
    G: Graph,
    analysis: GraphAnalysis | None = None,
    deadline: float | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Exact minimum hitting set over the 2m edge side sets, with its
    lex-min witness; the size is proved with the graph's automorphism
    orbits.  The side set of u in e = uv is the mixed pair (v, e), so the
    family is analysis.edge_sides.  Raises SolveTimeout past the absolute
    time.monotonic() deadline.  analysis, when given, must belong to G."""
    a = analysis or GraphAnalysis(G)
    res = min_hitting_set(a.edge_sides, deadline=deadline, sym=a.symmetry)
    assert res.status == OPTIMAL
    return res.size, res.witness


def lb_n3(G: Graph, analysis: GraphAnalysis | None = None) -> int:
    """Smallest k such that D^k + k*(max degree + 1) reaches |V|+|E|.
    analysis, when given, must belong to G."""
    if G.n < 2:
        raise GraphError("bound needs at least 2 vertices")
    items = G.n + G.m
    D = int((analysis or GraphAnalysis(G)).table.max())  # the diameter
    cap = G.max_degree + 1
    k = 1
    while D ** k + k * cap < items:
        k += 1
    return k


@dataclass(frozen=True)
class BoundsReport:
    """All seven lower bounds for one graph, optional exact dimensions."""

    label: str
    n: int
    m: int
    l1: int
    l2: int
    l3: int
    l4: int
    n1: int
    n2: int
    n3: int
    n2_witness: tuple[int, ...]
    beta: int | None = None
    beta_e: int | None = None
    beta_m: int | None = None
    beta_m_witness: tuple[int, ...] | None = None

    def bound_tuple(self) -> tuple[int, int, int, int, int, int, int]:
        return (self.l1, self.l2, self.l3, self.l4, self.n1, self.n2, self.n3)


def bounds_report(
    G: Graph,
    compute_exact: bool = False,
    label: str = "",
    timeout: float | None = None,
) -> BoundsReport:
    """Compute all seven bounds; optionally also the three exact dimensions.

    One GraphAnalysis serves every bound and solve, and timeout is one
    deadline for the whole call.  The mixed deepening starts at the best
    bound already proven: N1, L3, L4, N2, beta or betaE."""
    deadline = deadline_after(timeout)
    a = GraphAnalysis(G)
    n2_val, n2_wit = lb_n2(G, a, deadline=deadline)
    l3 = a.forced_lower_bound
    # past 64 vertices the mixed family's reduction and L4 take seconds each
    mixed = a.mixed
    _check_deadline(deadline)
    # the orbits that the N2 proof found, if it looked for them: finding
    # them for every graph would cost the many graphs without symmetry
    l4 = _lp_bound(mixed, a.symmetry.found_orbits(), deadline)
    _check_deadline(deadline)
    n1 = lb_n1(G)
    beta = beta_e = beta_m = None
    beta_m_witness = None
    if compute_exact:
        beta, beta_e, beta_m, beta_m_witness = exact_dimensions(
            G, analysis=a, deadline=deadline, lower_bound=max(n1, l3, l4, n2_val)
        )
    return BoundsReport(
        label=label,
        n=G.n,
        m=G.m,
        l1=lb_l1(G),
        l2=lb_l2(G),
        l3=l3,
        l4=l4,
        n1=n1,
        n2=n2_val,
        n3=lb_n3(G, a),
        n2_witness=n2_wit,
        beta=beta,
        beta_e=beta_e,
        beta_m=beta_m,
        beta_m_witness=beta_m_witness,
    )
