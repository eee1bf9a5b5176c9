"""Seven lower bounds for the mixed metric dimension.

Four from the literature: L1 = ceil(log2(max degree)) and
L2 = 1 + ceil(log2(min degree)) (both bound the edge dimension, hence the
mixed one), L3 = the exact optimum of the forced-vertex / twin-pair
structure, L4 = ceiling of the covering-LP relaxation of the mixed
pair-cover instance.  Three newer ones: N1 = 1 + ceil(log2(min degree + 1)),
N2 = the exact minimum hitting set of the per-edge side sets, and N3 = the
smallest k with |V|+|E| <= D^k + k*(max degree + 1), counting how many
distance vectors k landmarks can tell apart.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cover import OPTIMAL, TIMEOUT, CoverInstance, _mask_of, _sets_of, deadline_after, min_hitting_set
from .dims import (
    EDGE_PAIRS,
    MIXED_PAIRS,
    VERTEX_PAIRS,
    GraphAnalysis,
    SolveTimeout,
    forced_structure_lower_bound,
    mixed_metric_dimension,
    pair_cover_instance,
    pair_dimension,
)
from .graphs import DistanceOracle, Graph, GraphError, distances
from .lp import CoveringLP, ceil_with_tolerance, solve_covering_lp


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def _oracle(G: Graph, oracle: DistanceOracle | None) -> DistanceOracle:
    return oracle if oracle is not None else distances(G)


def lb_l1(G: Graph, oracle: DistanceOracle | None = None) -> int:
    """ceil(log2(max degree)); evaluates to 0 on K2."""
    return _ceil_log2(_oracle(G, oracle).max_degree)


def lb_l2(G: Graph, oracle: DistanceOracle | None = None) -> int:
    """1 + ceil(log2(min degree))."""
    return 1 + _ceil_log2(_oracle(G, oracle).min_degree)


def lb_l3(G: Graph) -> int:
    """Exact minimum of a set containing all forced vertices and meeting
    every false-twin pair."""
    return forced_structure_lower_bound(G)


def lb_l4(G: Graph, oracle: DistanceOracle | None = None) -> int:
    """Ceiling of the LP relaxation of the mixed pair-cover program."""
    return _lp_bound(pair_cover_instance(_oracle(G, oracle), MIXED_PAIRS))


def _lp_bound(inst: CoverInstance) -> int:
    """L4 from the reduced mixed pair-cover instance: its rows are the
    covering program's rows, already reduced."""
    if inst.masks[:1] == (0,):
        raise GraphError("mixed pair instance has an undistinguished pair")
    lp = CoveringLP(inst.universe_size, inst.masks, inst.masks)
    return ceil_with_tolerance(solve_covering_lp(lp))


def lb_n1(G: Graph, oracle: DistanceOracle | None = None) -> int:
    """1 + ceil(log2(min degree + 1))."""
    return 1 + _ceil_log2(_oracle(G, oracle).min_degree + 1)


@dataclass(frozen=True)
class SideSets:
    """Per edge uv (u < v): the vertices strictly closer to u and strictly
    closer to v.  u always sits in the first set and v in the second."""

    edges: tuple[tuple[int, int], ...]
    closer_to_u: tuple[frozenset[int], ...]
    closer_to_v: tuple[frozenset[int], ...]


def edge_side_sets(oracle: DistanceOracle) -> SideSets:
    closer_u, closer_v = _side_masks(oracle)
    return SideSets(oracle.graph.edges, _sets_of(closer_u), _sets_of(closer_v))


def _side_masks(oracle: DistanceOracle) -> tuple[list[int], list[int]]:
    """The side sets of every edge as bitmasks: (closer to u, closer to v)."""
    G = oracle.graph
    dv = oracle.dv
    less = []
    greater = []
    for u, v in G.edges:
        du = dv[u]
        dw = dv[v]
        less.append(_mask_of((du < dw).nonzero()[0].tolist()))
        greater.append(_mask_of((du > dw).nonzero()[0].tolist()))
    return less, greater


def lb_n2(
    G: Graph,
    oracle: DistanceOracle | None = None,
    timeout: float | None = None,
    deadline: float | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Exact minimum hitting set over the 2m edge side sets, with witness.

    deadline, an absolute time.monotonic() value, replaces timeout when a
    caller shares one budget across several solves."""
    closer_u, closer_v = _side_masks(_oracle(G, oracle))
    inst = CoverInstance.build(G.n, masks=closer_u + closer_v)
    res = min_hitting_set(inst, timeout=timeout, deadline=deadline)
    if res.status == TIMEOUT:
        raise SolveTimeout("side-set hitting set timed out")
    assert res.status == OPTIMAL
    return res.size, res.witness


def lb_n3(G: Graph, oracle: DistanceOracle | None = None) -> int:
    """Smallest k such that D^k + k*(max degree + 1) reaches |V|+|E|."""
    if G.n < 2:
        raise GraphError("bound needs at least 2 vertices")
    oracle = _oracle(G, oracle)
    items = G.n + G.m
    D = oracle.diameter
    cap = oracle.max_degree + 1
    k = 1
    while D ** k + k * cap < items:
        k += 1
    return k


@dataclass(frozen=True)
class BoundsReport:
    """All seven lower bounds for one graph, optional exact dimensions.

    best is the max of the seven bounds; it is a convenience of this tool,
    not a quantity from the comparison tables.
    """

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

    @property
    def best(self) -> int:
        return max(self.l1, self.l2, self.l3, self.l4, self.n1, self.n2, self.n3)

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
    bound already proven."""
    deadline = deadline_after(timeout)
    a = GraphAnalysis(G)
    oracle = a.oracle
    n2_val, n2_wit = lb_n2(G, oracle, deadline=deadline)
    l3 = a.forced_lower_bound
    l4 = _lp_bound(a.mixed)
    n1 = lb_n1(G, oracle)
    beta = beta_e = beta_m = None
    beta_m_witness = None
    if compute_exact:
        beta, _ = pair_dimension(a.instance(VERTEX_PAIRS), VERTEX_PAIRS, deadline)
        beta_e, _ = pair_dimension(a.instance(EDGE_PAIRS), EDGE_PAIRS, deadline)
        beta_m, beta_m_witness = mixed_metric_dimension(
            G, analysis=a, deadline=deadline, lower_bound=max(n1, l3, l4, n2_val)
        )
        if beta_m < max(beta, beta_e):
            raise RuntimeError("internal error: mixed dimension below max(beta, beta_e)")
    return BoundsReport(
        label=label,
        n=G.n,
        m=G.m,
        l1=lb_l1(G, oracle),
        l2=lb_l2(G, oracle),
        l3=l3,
        l4=l4,
        n1=n1,
        n2=n2_val,
        n3=lb_n3(G, oracle),
        n2_witness=n2_wit,
        beta=beta,
        beta_e=beta_e,
        beta_m=beta_m,
        beta_m_witness=beta_m_witness,
    )
