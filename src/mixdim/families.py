"""Named graph family generators, the graph6 codec, and exhaustive
enumeration of small connected graphs up to isomorphism, grown from
connected parents only: every connected graph on two or more vertices has
a vertex whose removal leaves it connected (a leaf of a spanning tree).

Every generator documents its vertex labeling so downstream results are
reproducible.  All generators are deterministic and verify connectivity.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, build_graph, is_connected

MAX_ENUM_ORDER = 7
GRAPH6_MAX_N = 62


# ---------------------------------------------------------------------------
# family generators
# ---------------------------------------------------------------------------

def _path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return build_graph(n, itertools.combinations(range(n), 2))


def _complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError("complete bipartite graph needs both part sizes >= 1")
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _star(leaves: int) -> Graph:
    # center is vertex 0, leaves are 1..leaves
    if leaves < 1:
        raise GraphError("star needs >= 1 leaf")
    return _complete_bipartite(1, leaves)


def _torus(m: int, n: int) -> Graph:
    """Cartesian product of cycles C_m and C_n; vertex (i,j) has id i*n + j."""
    if m < 3 or n < 3:
        raise GraphError("torus needs m, n >= 3")
    edges = []
    for i in range(m):
        for j in range(n):
            edges.append((i * n + j, ((i + 1) % m) * n + j))
            edges.append((i * n + j, i * n + (j + 1) % n))
    return build_graph(m * n, edges)


def _hypercube(d: int) -> Graph:
    """Vertex id = d-bit pattern; adjacency iff the patterns differ in one bit."""
    if d < 1:
        raise GraphError("hypercube needs dimension >= 1")
    edges = []
    for v in range(1 << d):
        for t in range(d):
            u = v ^ (1 << t)
            if u > v:
                edges.append((v, u))
    return build_graph(1 << d, edges)


def _hamming(d: int, q: int) -> Graph:
    """Vertex id = base-q word a_0..a_{d-1} read as a numeral (a_0 most
    significant); adjacency iff the words differ in exactly one position."""
    if d < 1 or q < 2:
        raise GraphError("hamming graph needs d >= 1 and q >= 2")
    pows = [q ** (d - 1 - i) for i in range(d)]
    edges = []
    for word in itertools.product(range(q), repeat=d):
        vid = sum(a * p for a, p in zip(word, pows))
        for pos in range(d):
            for other in range(q):
                if other == word[pos]:
                    continue
                uid = vid + (other - word[pos]) * pows[pos]
                if uid > vid:
                    edges.append((vid, uid))
    return build_graph(q ** d, edges)


def _rook(n: int) -> Graph:
    if n < 2:
        raise GraphError("rook graph needs n >= 2")
    return _hamming(2, n)


def _gen_petersen(n: int, k: int) -> Graph:
    """Outer cycle u_0..u_{n-1} = ids 0..n-1, inner vertices v_i = ids n+i;
    edges u_i u_{i+1}, u_i v_i, v_i v_{i+k} (indices mod n)."""
    if n < 3 or not 1 <= k or 2 * k >= n:
        raise GraphError("generalized Petersen graph needs n >= 3 and 1 <= k < n/2")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return build_graph(2 * n, edges)


def _ksubsets(n: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(n), k))


def _kneser(n: int, k: int) -> Graph:
    """Vertices = k-subsets of {0..n-1} in lexicographic order; adjacency iff disjoint."""
    if k < 1 or n < 2 * k + 1:
        raise GraphError("kneser graph needs k >= 1 and n >= 2k+1 for connectivity")
    subsets = _ksubsets(n, k)
    edges = []
    for a, b in itertools.combinations(range(len(subsets)), 2):
        if not set(subsets[a]) & set(subsets[b]):
            edges.append((a, b))
    return build_graph(len(subsets), edges)


def _johnson(n: int, k: int) -> Graph:
    """Vertices = k-subsets in lexicographic order; adjacency iff the subsets
    share exactly k-1 elements."""
    if k < 1 or n <= k:
        raise GraphError("johnson graph needs 1 <= k < n")
    subsets = _ksubsets(n, k)
    edges = []
    for a, b in itertools.combinations(range(len(subsets)), 2):
        if len(set(subsets[a]) & set(subsets[b])) == k - 1:
            edges.append((a, b))
    return build_graph(len(subsets), edges)


def _paley(q: int) -> Graph:
    """Vertices 0..q-1; adjacency iff the difference is a nonzero quadratic
    residue mod q.  Only prime q with q = 1 (mod 4) is supported."""
    if q < 5 or any(q % p == 0 for p in range(2, int(q ** 0.5) + 1)):
        raise GraphError(f"paley graph needs a prime modulus >= 5, got {q}")
    if q % 4 != 1:
        raise GraphError(f"paley graph needs q = 1 (mod 4), got {q}")
    residues = {(x * x) % q for x in range(1, q)}
    edges = [(u, v) for u, v in itertools.combinations(range(q), 2) if (v - u) % q in residues]
    return build_graph(q, edges)


def _clebsch() -> Graph:
    """Folded 5-cube: vertices = 4-bit words, adjacent iff the words differ
    in exactly one or in all four bits."""
    edges = []
    for v in range(16):
        for u in range(v + 1, 16):
            if (u ^ v).bit_count() in (1, 4):
                edges.append((v, u))
    return build_graph(16, edges)


def _gq24() -> Graph:
    """Line-intersection graph of a double six plus fifteen diagonals:
    vertices a_0..a_5 (ids 0-5), b_0..b_5 (ids 6-11) and c_P for the 15
    unordered pairs P of {0..5} (ids 12-26, pairs in lexicographic order).
    a_i ~ b_j iff i != j; a_i ~ c_P and b_i ~ c_P iff i in P;
    c_P ~ c_Q iff P and Q are disjoint.  This is srg(27,10,1,5), which is
    unique, so the srg parameter check pins the construction down.
    """
    pairs = _ksubsets(6, 2)
    cid = {p: 12 + i for i, p in enumerate(pairs)}
    edges = []
    for i in range(6):
        for j in range(6):
            if i != j:
                edges.append((i, 6 + j))
    for p in pairs:
        for i in p:
            edges.append((i, cid[p]))
            edges.append((6 + i, cid[p]))
    for p, q in itertools.combinations(pairs, 2):
        if not set(p) & set(q):
            edges.append((cid[p], cid[q]))
    return build_graph(27, [(u, v) if u < v else (v, u) for u, v in edges if u != v])


_FAMILIES = {
    "path": (1, _path),
    "cycle": (1, _cycle),
    "complete": (1, _complete),
    "complete_bipartite": (2, _complete_bipartite),
    "star": (1, _star),
    "torus": (2, _torus),
    "hypercube": (1, _hypercube),
    "hamming": (2, _hamming),
    "gen_petersen": (2, _gen_petersen),
    "kneser": (2, _kneser),
    "johnson": (2, _johnson),
    "paley": (1, _paley),
    "clebsch": (0, _clebsch),
    "rook": (1, _rook),
    "gq24": (0, _gq24),
}

FAMILY_NAMES = tuple(sorted(_FAMILIES))


@dataclass(frozen=True)
class FamilySpec:
    name: str
    params: tuple[int, ...] = ()

    def label(self) -> str:
        # "-" keeps multi-parameter labels comma-free for CSV output
        if not self.params:
            return self.name
        return self.name + ":" + "-".join(str(p) for p in self.params)


def _generator(name: str, params: tuple[int, ...]):
    """The generator of the family name, once name is known and params has
    its arity; GraphError otherwise."""
    if name not in _FAMILIES:
        raise GraphError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    arity, fn = _FAMILIES[name]
    if len(params) != arity:
        raise GraphError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return fn


def parse_family_spec(text: str) -> FamilySpec:
    """Parse "name" or "name:p1,p2,..." into a validated FamilySpec."""
    name, _, rest = text.partition(":")
    name = name.strip()
    params: tuple[int, ...] = ()
    if rest:
        try:
            params = tuple(int(p) for p in rest.split(","))
        except ValueError:
            raise GraphError(f"family parameters must be integers, got {rest!r}") from None
    _generator(name, params)
    return FamilySpec(name, params)


def generate(spec: FamilySpec) -> Graph:
    """Build the named family member; validates the name, the parameters
    and connectivity."""
    G = _generator(spec.name, spec.params)(*spec.params)
    if not is_connected(G):
        raise GraphError(f"family {spec.label()!r} produced a disconnected graph")
    return G


def generate_named(name: str, *params: int) -> Graph:
    return generate(FamilySpec(name, tuple(params)))


# ---------------------------------------------------------------------------
# graph6 codec (short form, n <= 62)
# ---------------------------------------------------------------------------

def encode_graph6(G: Graph) -> str:
    """Short-form graph6: byte0 = n+63, then the upper adjacency triangle in
    column-major order, 6 bits per byte, each byte offset by 63."""
    n = G.n
    if n > GRAPH6_MAX_N:
        raise GraphError(f"graph6 short form supports n <= {GRAPH6_MAX_N}, got {n}")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if G.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)]
    for t in range(0, len(bits), 6):
        word = 0
        for b in bits[t : t + 6]:
            word = (word << 1) | b
        out.append(chr(word + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 line; errors report the offending byte offset."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphError("graph6 parse error: empty input")
    for off, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise GraphError(f"graph6 parse error: byte {ord(ch)} out of range 63..126 at offset {off}")
    if ord(s[0]) == 126:
        raise GraphError("graph6 parse error: long form (n > 62) not supported, offset 0")
    n = ord(s[0]) - 63
    need = (n * (n - 1) // 2 + 5) // 6
    payload = s[1:]
    if len(payload) != need:
        raise GraphError(
            f"graph6 parse error: expected {need} payload bytes for n={n}, got {len(payload)}"
            f" (offset {min(len(s), need + 1)})"
        )
    bits = []
    for ch in payload:
        word = ord(ch) - 63
        bits.extend((word >> (5 - t)) & 1 for t in range(6))
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    if any(bits[pos:]):
        raise GraphError("graph6 parse error: nonzero padding bits")
    return build_graph(n, edges)


# ---------------------------------------------------------------------------
# enumeration of connected graphs up to isomorphism
# ---------------------------------------------------------------------------

_PERM_CACHE: dict[int, np.ndarray] = {}


def _perms(n: int) -> np.ndarray:
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    return _PERM_CACHE[n]


def _pair_weights(n: int) -> np.ndarray:
    t = n * (n - 1) // 2
    return np.left_shift(np.int64(1), np.arange(t - 1, -1, -1, dtype=np.int64))


def canonical_code_of_matrix(A: np.ndarray) -> int:
    """Lexicographically smallest upper-triangle bit string (row-major pair
    order, first pair most significant) over all vertex permutations,
    packed into an integer."""
    n = A.shape[0]
    if n == 1:
        return 0
    P = _perms(n)
    B = A[P[:, :, None], P[:, None, :]]
    iu = np.triu_indices(n, 1)
    bits = B[:, iu[0], iu[1]].astype(np.int64)
    return int((bits @ _pair_weights(n)).min())


def _adjacency(G: Graph) -> np.ndarray:
    A = np.zeros((G.n, G.n), dtype=bool)
    for u, v in G.edges:
        A[u, v] = A[v, u] = True
    return A


def canonical_code(G: Graph) -> int:
    return canonical_code_of_matrix(_adjacency(G))


def graph_from_code(n: int, code: int) -> Graph:
    """Inverse of the packing used by canonical_code (row-major pair order)."""
    t = n * (n - 1) // 2
    edges = []
    pos = t - 1
    for i in range(n):
        for j in range(i + 1, n):
            if (code >> pos) & 1:
                edges.append((i, j))
            pos -= 1
    return build_graph(n, edges)


def connected_graphs_of_order(k: int) -> list[Graph]:
    """One canonical representative per isomorphism class of connected graphs
    on k vertices, sorted by (edge count, canonical code).

    Classes are grown by vertex augmentation.  A connected graph on r >= 2
    vertices has a non-cut vertex, such as a leaf of a spanning tree, so it
    arises by attaching a new vertex to a nonempty set of vertices of a
    connected order-(r-1) graph.  Carrying only the connected classes level
    by level is therefore exhaustive, and every attachment is connected.
    """
    if not 1 <= k <= MAX_ENUM_ORDER:
        raise GraphError(f"enumeration supports orders 1..{MAX_ENUM_ORDER}, got {k}")
    codes = {0}  # the single graph on one vertex
    for order in range(2, k + 1):
        nxt: set[int] = set()
        for code in codes:
            A = np.zeros((order, order), dtype=bool)
            A[: order - 1, : order - 1] = _adjacency(graph_from_code(order - 1, code))
            for mask in range(1, 1 << (order - 1)):
                nbrs = [i for i in range(order - 1) if (mask >> i) & 1]
                A[order - 1, :] = False
                A[:, order - 1] = False
                for i in nbrs:
                    A[order - 1, i] = A[i, order - 1] = True
                nxt.add(canonical_code_of_matrix(A))
        codes = nxt
    # each code is the minimum of its class, so it is the canonical code of
    # the graph it decodes to, and its set bits are that graph's edges
    return [graph_from_code(k, c) for c in sorted(codes, key=lambda c: (c.bit_count(), c))]
