"""Independent brute-force oracles for the test suite.

Everything here recomputes from scratch with dict-based BFS and exhaustive
subset enumeration; nothing below imports solver code from the package, so
these stay valid as cross-checks no matter how the package evolves.
"""
from __future__ import annotations

import itertools
from collections import deque


def masks(sets):
    """Element sets as the int masks mixdim takes: bit e for element e."""
    return [sum(1 << e for e in s) for s in sets]


def bfs_distances(n, edges):
    """dist[u][v] by BFS over an adjacency dict; None when unreachable."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    dist = []
    for src in range(n):
        d = {src: 0}
        q = deque([src])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in d:
                    d[y] = d[x] + 1
                    q.append(y)
        dist.append([d.get(v) for v in range(n)])
    return dist


def is_connected(n, edges):
    return all(x is not None for x in bfs_distances(n, edges)[0])


def item_vectors(n, edges, landmarks):
    """Distance vector per item (vertices then edges) over the landmarks."""
    dist = bfs_distances(n, edges)
    vecs = [tuple(dist[w][v] for w in landmarks) for v in range(n)]
    for u, v in edges:
        vecs.append(tuple(min(dist[w][u], dist[w][v]) for w in landmarks))
    return vecs


def _universe_vectors(n, edges, landmarks, universe):
    vecs = item_vectors(n, edges, landmarks)
    if universe == "vertex":
        return vecs[:n]
    if universe == "edge":
        return vecs[n:]
    return vecs


def is_resolving(n, edges, landmarks, universe="mixed"):
    vecs = _universe_vectors(n, edges, list(landmarks), universe)
    return len(set(vecs)) == len(vecs)


def min_dimension(n, edges, universe="mixed"):
    """(dimension, all optimal witnesses) by exhaustive subset enumeration."""
    for size in range(1, n + 1):
        found = [
            comb
            for comb in itertools.combinations(range(n), size)
            if is_resolving(n, edges, comb, universe)
        ]
        if found:
            return size, found
    raise AssertionError("no resolving set found")


def min_hitting_set(universe_size, sets, forced=frozenset(), excluded=frozenset()):
    """(size, lexicographically smallest witness) or None if infeasible."""
    sets = [frozenset(s) for s in sets]
    for size in range(universe_size + 1):
        best = None
        for comb in itertools.combinations(range(universe_size), size):
            w = set(comb)
            if not set(forced) <= w or w & set(excluded):
                continue
            if all(s & w for s in sets):
                best = tuple(sorted(w))
                break  # combinations are emitted in lexicographic order
        if best is not None:
            return size, best
    return None


def side_sets(n, edges):
    """Per edge (u,v), u < v: ({w closer to u}, {w closer to v})."""
    dist = bfs_distances(n, edges)
    out = []
    for u, v in sorted((min(e), max(e)) for e in edges):
        out.append(
            (
                frozenset(w for w in range(n) if dist[u][w] < dist[v][w]),
                frozenset(w for w in range(n) if dist[u][w] > dist[v][w]),
            )
        )
    return out


def canonical_codes_of_order(k):
    """Canonical code set of all connected graphs on k vertices by scanning
    every labeled graph; the code is the minimum packed upper-triangle
    bit string over all k! permutations (row-major pair order)."""
    import numpy as np

    pairs = list(itertools.combinations(range(k), 2))
    t = len(pairs)
    perms = list(itertools.permutations(range(k)))
    # position map: applying perm p sends pair bit i to position permuted_index[p][i]
    pair_index = {p: i for i, p in enumerate(pairs)}
    maps = np.array(
        [
            [pair_index[tuple(sorted((p[a], p[b])))] for (a, b) in pairs]
            for p in perms
        ],
        dtype=np.intp,
    )
    weights = np.left_shift(np.int64(1), np.arange(t - 1, -1, -1, dtype=np.int64))
    codes = set()
    for code in range(1 << t):
        edges = [pairs[i] for i in range(t) if (code >> (t - 1 - i)) & 1]
        if len(edges) < k - 1 or not is_connected(k, edges):
            continue
        bits = np.array([(code >> (t - 1 - i)) & 1 for i in range(t)], dtype=np.int64)
        permuted = bits[maps]  # (perms, t): bit j of permuted graph = original bit maps[p][j]
        codes.add(int((permuted @ weights).min()))
    return codes


def random_connected_graph(rng, n, extra_edge_prob=0.3):
    """Random spanning tree plus random extra edges; always connected."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[rng.randrange(i)]
        b = order[i]
        edges.add((min(a, b), max(a, b)))
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < extra_edge_prob:
            edges.add((u, v))
    return sorted(edges)


def degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def forced_structure(n, edges):
    """(forced vertex set, false twin pairs) recomputed from raw adjacency."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    false_pairs = []
    forced = set()
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] == adj[v]:
                false_pairs.append((u, v))
            elif adj[u] | {u} == adj[v] | {v}:
                forced.update((u, v))
    for v in range(n):
        nb = sorted(adj[v])
        if all(b in adj[a] for i, a in enumerate(nb) for b in nb[i + 1 :]):
            forced.add(v)
    return forced, false_pairs


def reference_forced_vertices(n, edges):
    """(forced, true-twin pairs, false-twin pairs, simplicial, leaves) by
    comparing the neighbourhoods of every vertex pair, as
    mixdim.dims.forced_vertices did before it grouped vertices by
    neighbourhood mask; the vertex sets as masks, as mixdim gives them."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    true_pairs = []
    false_pairs = []
    for u, v in itertools.combinations(range(n), 2):
        if adj[u] == adj[v]:
            false_pairs.append((u, v))
        elif adj[u] | {u} == adj[v] | {v}:
            true_pairs.append((u, v))
    simplicial = frozenset(
        v for v in range(n) if all(b in adj[a] for a, b in itertools.combinations(sorted(adj[v]), 2))
    )
    leaves = frozenset(v for v in range(n) if len(adj[v]) == 1)
    forced = frozenset(itertools.chain.from_iterable(true_pairs)) | simplicial
    forced_mask, simplicial_mask, leaves_mask = masks([forced, simplicial, leaves])
    return forced_mask, tuple(true_pairs), tuple(false_pairs), simplicial_mask, leaves_mask


def l3_value(n, edges):
    forced, false_pairs = forced_structure(n, edges)
    for size in range(n + 1):
        for comb in itertools.combinations(range(n), size):
            w = set(comb)
            if forced <= w and all(set(p) & w for p in false_pairs):
                return size
    raise AssertionError("unreachable")


def _ceil_log2(x):
    import math

    return math.ceil(math.log2(x)) if x > 1 else 0


def mixed_pair_rows(n, edges):
    """The vertices that distinguish each mixed item pair, as lists, pairs
    (i, j), i < j, in canonical item order."""
    vecs = item_vectors(n, edges, list(range(n)))
    return [
        [w for w in range(n) if vecs[i][w] != vecs[j][w]]
        for i, j in itertools.combinations(range(len(vecs)), 2)
    ]


def lp_optimum_scipy(num_vars, rows):
    """Optimum of the covering LP over rows (iterables of variables), via
    scipy's HiGHS."""
    import numpy as np
    from scipy.optimize import linprog

    A = np.zeros((len(rows), num_vars))
    for r, row in enumerate(rows):
        for v in row:
            A[r, v] = 1.0
    res = linprog(
        c=np.ones(num_vars), A_ub=-A, b_ub=-np.ones(len(rows)), bounds=[(0, 1)] * num_vars, method="highs"
    )
    assert res.success
    return res.fun


def lp_bound_scipy(n, edges):
    """Ceiling of the covering-LP optimum over mixed pair rows, via scipy."""
    import math

    return math.ceil(lp_optimum_scipy(n, mixed_pair_rows(n, edges)) - 1e-6)


def bounds_row(n, edges):
    """Full comparison row (E, beta, betaE, L1..N3, betaM) from scratch."""
    deg = degrees(n, edges)
    dist = bfs_distances(n, edges)
    diameter = max(max(row) for row in dist)
    beta = min_dimension(n, edges, "vertex")[0]
    beta_e = min_dimension(n, edges, "edge")[0] if len(edges) > 1 else 1
    beta_m = min_dimension(n, edges, "mixed")[0]
    l1 = _ceil_log2(max(deg))
    l2 = 1 + _ceil_log2(min(deg))
    l3 = l3_value(n, edges)
    l4 = lp_bound_scipy(n, edges)
    n1 = 1 + _ceil_log2(min(deg) + 1)
    family = [s for pair in side_sets(n, edges) for s in pair]
    n2 = min_hitting_set(n, family)[0]
    items = n + len(edges)
    k = 1
    while diameter ** k + k * (max(deg) + 1) < items:
        k += 1
    return (len(edges), beta, beta_e, l1, l2, l3, l4, n1, n2, k, beta_m)


# -- reference branch-and-bound for the hitting-set kernel ------------------
#
# The search of mixdim._cover_py as it was when each node applied a banned
# mask to every set, kept here so the kernel's search tree (branch order,
# tie-breaking, bounds and node count) can be compared with it.  No
# deadline: it always runs to the end.


def reference_greedy_cover(masks):
    """(size, mask) of the max-coverage greedy cover, ties broken by the
    smallest element, counting each element's sets in a dict."""
    remaining = list(masks)
    chosen = 0
    size = 0
    while remaining:
        counts = {}
        for m in remaining:
            x = m
            while x:
                b = x & -x
                e = b.bit_length() - 1
                counts[e] = counts.get(e, 0) + 1
                x ^= b
        best_e = -1
        best_c = 0
        for e in sorted(counts):
            if counts[e] > best_c:
                best_c = counts[e]
                best_e = e
        bit = 1 << best_e
        chosen |= bit
        size += 1
        remaining = [m for m in remaining if not m & bit]
    return size, chosen


class _ReferenceSearch:
    """The kernels' search tree, written plainly: each node tests its sets
    for an empty set, takes its forced picks, then counts the disjoint-set
    bound over what is left.

    It also counts two paths, so tests can check that their cases take
    them.  sibling_refuted counts nodes the bound refutes after an earlier
    sibling lowered the best size below what their parent started with.
    bound_before_forced counts nodes whose disjoint sets, counted in list
    order before the forced picks, fill the room below the best size before
    a later singleton or empty set; forced_rescued counts those among them
    that the bound after the picks does not refute, where a search that
    stopped at that point would cut the tree."""

    def __init__(self, best_size, stop_size):
        self.best_size = best_size
        self.best_mask = -1
        self.stop_size = stop_size
        self.nodes = 0
        self.sibling_refuted = 0
        self.bound_before_forced = 0
        self.forced_rescued = 0

    def _bound_before_forced(self, masks, count, banned):
        room = self.best_size - count
        avail = [m & ~banned for m in masks]
        lb = 0
        acc = 0
        for i, a in enumerate(avail):
            if not a & acc:
                lb += 1
                acc |= a
                if lb >= room:
                    return any(b & (b - 1) == 0 for b in avail[i + 1 :])
        return False

    def run(self, masks, chosen, count, banned, parent_best=None):
        self.nodes += 1
        early = self._bound_before_forced(masks, count, banned)
        self.bound_before_forced += early
        while True:
            picks = 0
            for m in masks:
                avail = m & ~banned
                if avail == 0:
                    return False
                if avail & (avail - 1) == 0:
                    picks |= avail
            if not picks:
                break
            chosen |= picks
            count += picks.bit_count()
            masks = [m for m in masks if not m & chosen]
            if count >= self.best_size:
                return self._refuted(parent_best)
            if not masks:
                break

        if count >= self.best_size:
            return self._refuted(parent_best)
        lb = 0
        acc = 0
        for m in masks:
            avail = m & ~banned
            if not avail & acc:
                lb += 1
                acc |= avail
        if count + lb >= self.best_size:
            return self._refuted(parent_best)
        self.forced_rescued += early
        if not masks:
            self.best_size = count
            self.best_mask = chosen
            return count <= self.stop_size

        pick = -1
        pick_pc = 1 << 62
        for m in masks:
            avail = m & ~banned
            pc = avail.bit_count()
            if pc < pick_pc or (pc == pick_pc and avail < pick):
                pick = avail
                pick_pc = pc
        entry_best = self.best_size
        local_banned = banned
        x = pick
        while x:
            bit = x & -x
            x ^= bit
            child = [m for m in masks if not m & bit]
            if self.run(child, chosen | bit, count + 1, local_banned, entry_best):
                return True
            local_banned |= bit
        return False

    def _refuted(self, parent_best):
        if parent_best is not None and self.best_size < parent_best:
            self.sibling_refuted += 1
        return False


def reference_cover_search(universe, masks, cutoff, stop_size, paths=None):
    """(status, size, mask, nodes) with the kernel's status codes
    (0 optimal, 1 above cutoff); nodes is 0 when greedy already met
    stop_size and no search ran.  masks must be nonzero; the package
    passes reduced families, and the kernels give this tree on any family.
    paths, a collections.Counter, gains the search's path counts."""
    if not masks:
        return 0, 0, 0, 0
    sentinel = (cutoff + 1) if cutoff is not None else universe + 1
    g_size, g_mask = reference_greedy_cover(masks)
    search = _ReferenceSearch(sentinel, stop_size)
    if g_size < sentinel:
        search.best_size = g_size
        search.best_mask = g_mask
        if g_size <= stop_size:
            return 0, g_size, g_mask, 0
    search.run(masks, 0, 0, 0)
    if paths is not None:
        paths.update(
            sibling_refuted=search.sibling_refuted,
            bound_before_forced=search.bound_before_forced,
            forced_rescued=search.forced_rescued,
        )
    if search.best_mask < 0 or (cutoff is not None and search.best_size > cutoff):
        return 1, 0, 0, search.nodes
    return 0, search.best_size, search.best_mask, search.nodes


def lex_min_resolving_set(n, edges, universe="mixed"):
    """(dimension, lexicographically smallest optimal witness) by
    exhaustive subset enumeration, like min_dimension, with every item's
    distance vector computed once."""
    vecs = _universe_vectors(n, edges, list(range(n)), universe)
    for size in range(1, n + 1):
        for comb in itertools.combinations(range(n), size):
            if len({tuple(v[w] for w in comb) for v in vecs}) == len(vecs):
                return size, comb  # combinations come in lexicographic order
    raise AssertionError("no resolving set found")


# -- reference copies of numpy loops that the package rewrote ---------------
#
# The pair masks and the colour refinement as they were written before
# they were rewritten for speed, kept so the rewrites can be compared with
# them: the same masks in the same order, the same colours and traces.


def _column_masks(bits):
    """Column j of a boolean matrix as an int: bit i set when bits[i, j]."""
    import numpy as np

    packed = np.packbits(bits, axis=0, bitorder="little")
    return [int.from_bytes(packed[:, j].tobytes(), "little") for j in range(bits.shape[1])]


def reference_distinguisher_masks(dmix, columns):
    """Distinguisher mask of every pair of the item columns of dmix,
    row by row of the first item: one comparison per item row."""
    dm = dmix[:, columns]
    out = []
    for a in range(dm.shape[1] - 1):
        out.extend(_column_masks(dm[:, a + 1 :] != dm[:, a : a + 1]))
    return out


def reference_refine(dv, colors):
    """(equitable colouring, trace) as the package's colour refinement
    computed them with a 2-d splitmix64 weight table and np.unique."""
    import numpy as np

    n = dv.shape[0]
    shape = (int(dv.max(initial=0)) + 1, n + 1)
    x = np.arange(1, shape[0] * shape[1] + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ x >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ x >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    weights = (x ^ x >> np.uint64(31)).reshape(shape)
    k = int(colors.max()) + 1
    trace = []
    while True:
        sums = weights[dv, colors[None, :]].sum(axis=1, dtype=np.uint64)
        keys, new = np.unique(sums, return_inverse=True)
        trace.append(keys.tobytes())
        if len(keys) == k:
            trace.append(np.bincount(colors).tobytes())
            return colors, b"".join(trace)
        colors, k = new.reshape(-1), len(keys)
