"""Independent checks of the answers the benchmark gets from mixdim.

Nothing here imports mixdim: distances come from this module's own
breadth-first search, exact values from brute force over vertex subsets or
from scipy's HiGHS solvers, graph classes from networkx's graph atlas, and
the selected graphs' dimensions from the values the paper publishes.  Every
check raises CheckError with a message naming what disagreed; the caller
counts the operation whose answer it was as failed.

A graph is handed in as (n, edges) with edges a sorted list of (u, v),
u < v: the same vertex labels and edge order mixdim uses, so a witness or
an item index means the same thing on both sides.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings

import numpy as np

# beta, betaE, betaM as the paper publishes them for the selected graphs
PUBLISHED_DIMENSIONS = {
    "Rook's graph": (7, 8, 9),
    "9-triangular graph": (6, 32, 32),
    "Clebsch graph": (4, 9, 9),
    "Generalized quadrangle": (5, 18, 18),
    "Hypercube Q5": (4, 4, 4),
    "Kneser (7,2)": (5, 12, 12),
    "Mobius-Kantor": (4, 4, 4),
    "Paley graph": (4, 6, 6),
    "Petersen graph": (3, 4, 6),
    "Hamming H(2,6)": (7, 8, 9),
    "Hamming H(3,3)": (4, 5, 6),
}

# connected graphs of order 5, 6, 7 up to isomorphism
CONNECTED_CLASSES = {5: 21, 6: 112, 7: 853}

# the degree bound of a 4-regular graph, 1 + ceil(log2(4 + 1))
TORUS_DEGREE_BOUND = 4
TORUS_EXACT_MAX = 6

BRUTE_FORCE_MAX_N = 7
# what brute force decides on graphs of order <= BRUTE_FORCE_MAX_N
BRUTE_FORCE_KEYS = ("beta", "beta_e", "beta_m", "beta_m_witness", "n2", "n2_witness", "l3")


class CheckError(AssertionError):
    """An answer from the program disagrees with the independent computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# distances and pair masks
# ---------------------------------------------------------------------------

def bfs_distances(n: int, edges) -> np.ndarray:
    """All-pairs hop distances by a breadth-first search run from every
    source at once over a boolean adjacency matrix."""
    adj = np.zeros((n, n), dtype=np.int32)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    dist = np.full((n, n), -1, dtype=np.int32)
    reached = np.eye(n, dtype=bool)
    frontier = reached.copy()
    dist[reached] = 0
    d = 0
    while frontier.any():
        d += 1
        frontier = ((frontier.astype(np.int32) @ adj) > 0) & ~reached
        dist[frontier] = d
        reached |= frontier
    _require(bool(reached.all()), "graph is not connected")
    return dist


def item_distances(n: int, edges, dist: np.ndarray | None = None) -> np.ndarray:
    """dist from each vertex to every item: the n vertices, then the edges
    in list order, with d(w, uv) = min(d(w, u), d(w, v))."""
    dist = bfs_distances(n, edges) if dist is None else dist
    cols = [dist] + [np.minimum(dist[:, [u]], dist[:, [v]]) for u, v in edges]
    return np.hstack(cols) if edges else dist


def resolves(dmix: np.ndarray, landmarks) -> bool:
    """Do the landmarks give every vertex and edge its own distance vector?"""
    S = sorted(landmarks)
    if not S:
        return False
    cols = dmix[S]
    return np.unique(cols.T, axis=0).shape[0] == cols.shape[1]


def pair_masks(dmix: np.ndarray, universe: str) -> np.ndarray:
    """For every unordered item pair, the bitmask of vertices whose
    distances to the two items differ."""
    n = dmix.shape[0]
    _require(n <= 62, "pair masks are int64 bitmasks, n <= 62")
    D = dmix[:, {"vertex": slice(0, n), "edge": slice(n, None), "mixed": slice(None)}[universe]]
    k = D.shape[1]
    if k < 2:
        return np.zeros(0, dtype=np.int64)
    i, j = np.triu_indices(k, 1)
    diff = D[:, i] != D[:, j]
    weights = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
    return diff.T.astype(np.int64) @ weights


def side_set_masks(n: int, dist: np.ndarray, edges) -> np.ndarray:
    """Per edge uv: the vertices strictly closer to u, then those strictly
    closer to v, as bitmasks."""
    weights = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
    out = []
    for u, v in edges:
        out.append(int((dist[u] < dist[v]).astype(np.int64) @ weights))
        out.append(int((dist[u] > dist[v]).astype(np.int64) @ weights))
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# brute force over vertex subsets (n <= 7)
# ---------------------------------------------------------------------------

@functools.cache
def _subsets_by_size(n: int) -> list[np.ndarray]:
    """For k = 0..n, the k-subsets of range(n) as bitmasks, in the
    lexicographic order of their sorted member tuples."""
    return [
        np.array([sum(1 << v for v in comb) for comb in itertools.combinations(range(n), k)], dtype=np.int64)
        for k in range(n + 1)
    ]


def min_hitting(n: int, masks: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Size and lexicographically smallest member tuple of a minimum vertex
    set meeting every mask.  No masks: the one-vertex set (0,), the
    convention that a resolving set is nonempty."""
    if masks.size == 0:
        return 1, (0,)
    for k, subsets in enumerate(_subsets_by_size(n)):
        if k == 0:
            continue
        hits = ((subsets[:, None] & masks[None, :]) != 0).all(axis=1)
        idx = np.flatnonzero(hits)
        if idx.size:
            s = int(subsets[idx[0]])
            return k, tuple(v for v in range(n) if s >> v & 1)
    raise CheckError("no vertex subset meets every mask")


def brute_force_row(n: int, edges) -> dict:
    """beta, betaE, betaM, the lex-min betaM witness, N2 and L3 by
    exhaustive search over vertex subsets."""
    _require(n <= BRUTE_FORCE_MAX_N, f"brute force is limited to n <= {BRUTE_FORCE_MAX_N}")
    dist = bfs_distances(n, edges)
    dmix = item_distances(n, edges, dist)
    beta_m, witness = min_hitting(n, pair_masks(dmix, "mixed"))
    n2, n2_witness = min_hitting(n, side_set_masks(n, dist, edges))
    l3_rows = _l3_rows(n, edges)
    return {
        "beta": min_hitting(n, pair_masks(dmix, "vertex"))[0],
        "beta_e": min_hitting(n, pair_masks(dmix, "edge"))[0],
        "beta_m": beta_m,
        "beta_m_witness": witness,
        "n2": n2,
        "n2_witness": n2_witness,
        "l3": min_hitting(n, l3_rows)[0] if l3_rows.size else 0,
    }


def _l3_rows(n: int, edges) -> np.ndarray:
    """L3 as a hitting set: a singleton for every true twin and simplicial
    vertex, and every false-twin pair."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    forced = set()
    rows = []
    for u, v in itertools.combinations(range(n), 2):
        if nbrs[u] == nbrs[v]:
            rows.append((1 << u) | (1 << v))
        elif nbrs[u] | {u} == nbrs[v] | {v}:
            forced |= {u, v}
    forced |= {v for v in range(n) if all(b in nbrs[a] for a, b in itertools.combinations(nbrs[v], 2))}
    return np.array(rows + [1 << v for v in sorted(forced)], dtype=np.int64)


# ---------------------------------------------------------------------------
# scipy HiGHS
# ---------------------------------------------------------------------------

def minimal_rows(masks) -> np.ndarray:
    """The distinct masks that contain no other mask: the covering rows
    that are not implied by a smaller one."""
    rows = np.unique(np.asarray(masks, dtype=np.int64))
    size = np.array([int(r).bit_count() for r in rows])
    kept = np.zeros(0, dtype=np.int64)
    for k in np.unique(size):
        level = rows[size == k]
        implied = ((level[:, None] & kept[None, :]) == kept[None, :]).any(axis=1)
        kept = np.concatenate([kept, level[~implied]])
    return kept


def _block_incidence(problems):
    """One sparse 0/1 matrix holding, block by block, the minimal rows of
    every (n, masks) problem; and each block's first column."""
    from scipy.sparse import coo_matrix

    rows, cols, offsets = [], [], [0]
    nrows = 0
    for n, masks in problems:
        block = minimal_rows(masks)
        r, c = np.nonzero((block[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1)
        rows.append(r + nrows)
        cols.append(c + offsets[-1])
        nrows += block.size
        offsets.append(offsets[-1] + n)
    r, c = np.concatenate(rows), np.concatenate(cols)
    return coo_matrix((np.ones(r.size), (r, c)), shape=(nrows, offsets[-1])).tocsr(), offsets


def _block_sums(x: np.ndarray, offsets: list[int]) -> list[float]:
    return [float(x[a:b].sum()) for a, b in zip(offsets, offsets[1:])]


def lp_bounds(problems) -> list[int]:
    """L4 for every (n, masks) problem: the ceiling of its covering LP.
    All problems go to linprog as one block-diagonal program; an optimum
    of that is an optimum of every block."""
    from scipy.optimize import linprog

    if not problems:
        return []
    A, offsets = _block_incidence(problems)
    res = linprog(np.ones(A.shape[1]), A_ub=-A, b_ub=-np.ones(A.shape[0]), bounds=(0, 1), method="highs")
    _require(bool(res.success), f"linprog failed: {res.message}")
    return [math.ceil(v - 1e-6) for v in _block_sums(res.x, offsets)]


def milp_optima(problems) -> list[int]:
    """Minimum hitting set size of every (n, masks) problem, by scipy's
    milp solved to a zero gap.  Problems on at most BRUTE_FORCE_MAX_N
    vertices go to milp together as one block-diagonal program, which
    saves a solver start per graph; larger ones go one by one, because a
    branch and bound over many hard blocks at once multiplies its search."""
    small = [p for p in problems if p[0] <= BRUTE_FORCE_MAX_N]
    out = iter(_milp_blocks(small) if small else [])
    return [next(out) if n <= BRUTE_FORCE_MAX_N else _milp_blocks([(n, masks)])[0] for n, masks in problems]


def _milp_blocks(problems) -> list[int]:
    from scipy.optimize import Bounds, LinearConstraint, milp

    A, offsets = _block_incidence(problems)
    res = milp(
        np.ones(A.shape[1]),
        constraints=LinearConstraint(A, lb=1.0),
        integrality=np.ones(A.shape[1]),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0} if len(problems) > 1 else {},
    )
    _require(res.status == 0, f"milp did not reach an optimum: {res.message}")
    return [round(v) for v in _block_sums(res.x, offsets)]


# ---------------------------------------------------------------------------
# per-answer checks
# ---------------------------------------------------------------------------

def check_witness(dmix: np.ndarray, witness, size: int) -> None:
    """witness is a mixed resolving set of the given size."""
    _require(witness is not None, "no witness returned")
    _require(len(witness) == size, f"witness {tuple(witness)} does not have the reported size {size}")
    _require(len(set(witness)) == len(witness), f"witness {tuple(witness)} repeats a vertex")
    _require(all(0 <= w < dmix.shape[0] for w in witness), f"witness {tuple(witness)} leaves the graph")
    _require(resolves(dmix, witness), f"witness {tuple(witness)} does not resolve every vertex and edge")


def check_report_order(report: dict) -> None:
    """Every bound <= betaM, and max(beta, betaE) <= betaM."""
    bm = report["beta_m"]
    for name in ("l1", "l2", "l3", "l4", "n1", "n2", "n3"):
        _require(report[name] <= bm, f"bound {name.upper()}={report[name]} exceeds betaM={bm}")
    _require(max(report["beta"], report["beta_e"]) <= bm, "max(beta, betaE) exceeds betaM")


def formula_bounds(n: int, edges, dist: np.ndarray) -> dict:
    """L1, L2, N1 and N3 from degrees and the diameter."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    clog2 = lambda x: (x - 1).bit_length()  # noqa: E731
    diameter = int(dist.max())
    k = 1
    while diameter**k + k * (max(deg) + 1) < n + len(edges):
        k += 1
    return {"l1": clog2(max(deg)), "l2": 1 + clog2(min(deg)), "n1": 1 + clog2(min(deg) + 1), "n3": k}


class ReportChecker:
    """Checks bounds_report answers.  prepare() computes the independent
    values of all graphs at once and keeps them, so a graph seen in several
    rounds costs its brute force and HiGHS solves once."""

    def __init__(self):
        self._expected: dict[tuple, dict] = {}

    def prepare(self, graphs) -> None:
        """graphs: (n, edges, milp_beta_m) triples; milp_beta_m asks for
        betaM from milp on a graph too large for brute force."""
        todo = {}
        for n, edges, milp_beta_m in graphs:
            todo.setdefault((n, tuple(edges)), milp_beta_m)
        todo = {key: flag for key, flag in todo.items() if key not in self._expected}
        new = []
        for (n, edges), milp_beta_m in todo.items():
            dist = bfs_distances(n, edges)
            exp = formula_bounds(n, edges, dist)
            exp["dmix"] = item_distances(n, edges, dist)
            exp["mixed"] = pair_masks(exp["dmix"], "mixed")
            exp["sides"] = side_set_masks(n, dist, edges)
            exp["l3_rows"] = _l3_rows(n, edges)
            exp["milp_beta_m"] = milp_beta_m and n > BRUTE_FORCE_MAX_N
            if n <= BRUTE_FORCE_MAX_N:
                exp["brute"] = brute_force_row(n, edges)
            self._expected[(n, edges)] = exp
            new.append((n, exp))
        for (n, exp), l4 in zip(new, lp_bounds([(n, exp["mixed"]) for n, exp in new])):
            exp["l4"] = l4
        for (n, exp), n2 in zip(new, milp_optima([(n, exp["sides"]) for n, exp in new])):
            exp["n2"] = n2
        for n, exp in new:
            exp["l3"] = 0  # nothing forced and no false twins
        with_l3 = [(n, exp) for n, exp in new if exp["l3_rows"].size]
        for (n, exp), l3 in zip(with_l3, milp_optima([(n, exp["l3_rows"]) for n, exp in with_l3])):
            exp["l3"] = l3
        big = [(n, exp) for n, exp in new if exp["milp_beta_m"]]
        for (n, exp), bm in zip(big, milp_optima([(n, exp["mixed"]) for n, exp in big])):
            exp["beta_m"] = bm
        for n, exp in new:
            bf = exp.pop("brute", None)
            if bf is not None:
                _require((bf["n2"], bf["l3"]) == (exp["n2"], exp["l3"]), "brute force and milp disagree on N2 or L3")
                exp.update(bf)

    def check(self, n: int, edges, report: dict, published=None, milp_beta_m: bool = True) -> None:
        """report holds the BoundsReport fields by name; published is the
        paper's (beta, betaE, betaM), if it has one for this graph."""
        self.prepare([(n, edges, milp_beta_m)])
        exp = self._expected[(n, tuple(edges))]
        label = report.get("label") or f"graph n={n} m={len(edges)}"
        for key in BRUTE_FORCE_KEYS + ("l1", "l2", "l4", "n1", "n3"):
            if key in exp and report[key] != exp[key]:
                raise CheckError(f"{label}: {key} = {report[key]!r}, independent value {exp[key]!r}")
        check_witness(exp["dmix"], report["beta_m_witness"], report["beta_m"])
        n2w = report["n2_witness"]
        _require(len(set(n2w)) == len(n2w) == report["n2"], f"{label}: N2 witness {n2w} does not have N2 members")
        hit = exp["sides"] & np.int64(sum(1 << w for w in n2w))
        _require(bool((hit != 0).all()), f"{label}: N2 witness {n2w} misses a side set")
        check_report_order(report)
        if published is not None:
            got = (report["beta"], report["beta_e"], report["beta_m"])
            _require(got == published, f"{label}: (beta, betaE, betaM) = {got}, published {published}")


# ---------------------------------------------------------------------------
# enumeration and torus
# ---------------------------------------------------------------------------

def atlas_classes(k: int) -> list:
    """networkx graphs of the connected classes of order k (graph atlas)."""
    import networkx as nx

    return [g for g in nx.graph_atlas_g() if g.number_of_nodes() == k and nx.is_connected(g)]


def _wl_hash(g) -> str:
    import networkx as nx

    with warnings.catch_warnings():
        # networkx 3.5 notes that these hashes changed; both sides use the same version
        warnings.simplefilter("ignore", UserWarning)
        return nx.weisfeiler_lehman_graph_hash(g)


def check_enumeration(k: int, graphs) -> None:
    """graphs: list of (n, edges).  They must be connected, of order k,
    pairwise non-isomorphic and match the atlas classes one to one."""
    import networkx as nx

    _require(len(graphs) == CONNECTED_CLASSES[k], f"order {k}: {len(graphs)} classes, expected {CONNECTED_CLASSES[k]}")
    buckets: dict[str, list] = {}
    for g in atlas_classes(k):
        buckets.setdefault(_wl_hash(g), []).append(g)
    for n, edges in graphs:
        _require(n == k, f"order {k}: enumerated graph has {n} vertices")
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        _require(nx.is_connected(h), f"order {k}: enumerated graph {edges} is disconnected")
        bucket = buckets.get(_wl_hash(h), [])
        match = next((i for i, g in enumerate(bucket) if nx.is_isomorphic(g, h)), None)
        _require(match is not None, f"order {k}: {edges} matches no unused atlas class")
        bucket.pop(match)
    left = sum(len(b) for b in buckets.values())
    _require(left == 0, f"order {k}: {left} atlas classes missing from the enumeration")


def torus_edges(m: int, n: int) -> list[tuple[int, int]]:
    """C_m x C_n with vertex (i, j) numbered i*n + j."""
    edges = set()
    for i in range(m):
        for j in range(n):
            v = i * n + j
            for w in (((i + 1) % m) * n + j, i * n + (j + 1) % n):
                edges.add((min(v, w), max(v, w)))
    return sorted(edges)


class TorusChecker:
    def __init__(self):
        self._dmix: dict[tuple[int, int], np.ndarray] = {}

    def check(self, m: int, n: int, report: dict) -> None:
        where = f"torus({m},{n})"
        if (m, n) not in self._dmix:
            edges = torus_edges(m, n)
            self._dmix[(m, n)] = item_distances(m * n, edges)
        dmix = self._dmix[(m, n)]
        _require(report["degree_bound"] == TORUS_DEGREE_BOUND, f"{where}: degree bound {report['degree_bound']}, expected 4")
        _require(report["candidate_valid"] and report["collision"] is None, f"{where}: candidate witness reported invalid")
        check_witness(dmix, report["witness"], 4)
        if m <= TORUS_EXACT_MAX and n <= TORUS_EXACT_MAX:
            _require(report["exact"] == 4, f"{where}: exact betaM {report['exact']}, expected 4")
        _require(report["verdict"] == 4, f"{where}: verdict {report['verdict']}, expected 4")
