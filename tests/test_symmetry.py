"""Automorphism orbits against networkx, orbital branching against the
plain kernel call on every family the exact solves prove values on, and
the witness pass with symmetry against the plain pass and brute force."""
import json
import time
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

import mixdim._cover_py as _cover_py
import mixdim.cover as cover
import mixdim.symmetry as symmetry
from mixdim.bounds import bounds_report, lb_n2
from mixdim.cover import (
    CUTOFF_EXCEEDED,
    OPTIMAL,
    SolveTimeout,
    min_hitting_set,
    min_hitting_set_size,
)
from mixdim.dims import GraphAnalysis, excluded_vertices
from mixdim.families import generate, generate_named, parse_graph6
from mixdim.graphs import build_graph, distances
from mixdim.masks import bits_of
from mixdim.symmetry import GraphSymmetry, _individualize, is_automorphism
from mixdim.tables import SELECTED_GRAPHS

from bruteforce import (
    lex_min_resolving_set,
    min_dimension,
    min_hitting_set as brute_hitting_set,
    reference_refine,
    side_sets,
)
from make_golden import GOLDEN_PATH


def _nx(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    return H


def nx_orbits(G, fixed=(), autos=None):
    """Orbits of the automorphisms of G that fix every vertex of fixed, as
    sorted vertex tuples, from networkx's enumeration of all automorphisms
    (or from autos, that enumeration made earlier)."""
    if autos is None:
        autos = list(GraphMatcher(_nx(G), _nx(G)).isomorphisms_iter())
    orbit = {v: {v} for v in range(G.n)}
    for perm in autos:
        if all(perm[f] == f for f in fixed):
            for v, w in perm.items():
                orbit[v].add(w)
    return sorted({tuple(sorted(o)) for o in orbit.values()})


def orbits(G, fixed=()):
    return sorted(tuple(b for b in range(G.n) if m >> b & 1) for m in GraphAnalysis(G).symmetry.orbits(fixed))


@pytest.mark.parametrize("order", range(1, 8))
def test_orbits_match_networkx(order):
    # networkx's atlas holds every graph of order at most 7
    atlas = [H for H in nx.graph_atlas_g() if H.number_of_nodes() == order and nx.is_connected(H)]
    assert len(atlas) == [1, 1, 2, 6, 21, 112, 853][order - 1]
    for H in atlas:
        G = build_graph(order, H.edges)
        autos = list(GraphMatcher(H, H).isomorphisms_iter())
        assert orbits(G) == nx_orbits(G, (), autos), G.edges
        assert orbits(G, (0,)) == nx_orbits(G, (0,), autos), G.edges


@st.composite
def connected_graphs(draw, max_n=8, min_n=2):
    n = draw(st.integers(min_n, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in tree + extra])


def _refine_graphs():
    for H in nx.graph_atlas_g():
        if H.number_of_nodes() and nx.is_connected(H):
            yield build_graph(H.number_of_nodes(), H.edges)
    for sel in SELECTED_GRAPHS:
        if sel.family is not None:
            yield generate(sel.family)


def test_refine_matches_reference():
    # colours and traces of every connected atlas graph and selected graph,
    # from the uniform colouring, from each of its single-vertex
    # individualizations and from each of those of the equitable colouring
    for G in _refine_graphs():
        sym = GraphAnalysis(G).symmetry
        uniform = np.zeros(G.n, dtype=np.intp)
        base = sym.cells()
        starts = [uniform, *(_individualize(c, v) for c in (uniform, base) for v in range(G.n))]
        for colors in starts:
            got_colors, got_trace = sym._refine(colors)
            want_colors, want_trace = reference_refine(sym._dv, colors)
            assert got_colors.dtype == want_colors.dtype, G.edges
            assert got_colors.tolist() == want_colors.tolist(), G.edges
            assert got_trace == want_trace, G.edges


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(connected_graphs(), st.integers(0, 7))
def test_every_merge_lies_in_one_networkx_orbit(G, vertex):
    fixed = (vertex % G.n,)
    for found, truth in ((orbits(G), nx_orbits(G)), (orbits(G, fixed), nx_orbits(G, fixed))):
        where = {v: i for i, o in enumerate(truth) for v in o}
        assert all(len({where[v] for v in o}) == 1 for o in found)


def nx_coloured_orbits(G, colour):
    """Orbits of the automorphisms of G that keep colour[v] for every v, as
    sorted vertex tuples, from networkx's enumeration."""
    H = _nx(G)
    nx.set_node_attributes(H, dict(enumerate(colour)), "c")
    matcher = GraphMatcher(H, H, node_match=lambda a, b: a["c"] == b["c"])
    orbit = {v: {v} for v in range(G.n)}
    for perm in matcher.isomorphisms_iter():
        for v, w in perm.items():
            orbit[v].add(w)
    return sorted({tuple(sorted(o)) for o in orbit.values()})


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(connected_graphs(), st.lists(st.integers(0, 2), min_size=8, max_size=8), st.integers(0, 7))
def test_every_colour_preserving_merge_lies_in_one_networkx_orbit(G, labels, vertex):
    # the witness pass's classes: a prefix and the other vertices below a
    # candidate, here any two disjoint vertex sets, with or without one
    # vertex fixed as well
    classes = tuple(sum(1 << v for v in range(G.n) if labels[v] == c) for c in (1, 2))
    for fixed in ((), (vertex % G.n,)):
        colour = [labels[v] if v not in fixed else 3 for v in range(G.n)]
        truth = nx_coloured_orbits(G, colour)
        where = {v: i for i, o in enumerate(truth) for v in o}
        found = GraphAnalysis(G).symmetry.orbits(fixed, classes)
        assert sum(found) == (1 << G.n) - 1
        assert all(len({where[v] for v in range(G.n) if o >> v & 1}) == 1 for o in found), (fixed, classes)


def test_colour_classes_of_the_hypercube():
    # Q3 with the prefix {0} and the vertices {1, 2} below a candidate: the
    # automorphisms fixing 0 and mapping {1, 2} onto itself fix or swap the
    # two lowest coordinates, so 3, 4 and 7 stay alone and 5, 6 share an
    # orbit
    sym = GraphAnalysis(generate_named("hypercube", 3)).symmetry
    assert sym.orbits(classes=(0b1, 0b110)) == [0b1, 0b110, 0b1000, 0b10000, 0b1100000, 0b10000000]
    assert sym.orbits(classes=(0b1, 0b110)) == sym.orbits((0,), (0b110,))


@pytest.mark.parametrize("sel", [s for s in SELECTED_GRAPHS if s.family is not None], ids=lambda s: s.name)
def test_selected_graphs_are_vertex_transitive(sel):
    G = generate(sel.family)
    assert GraphAnalysis(G).symmetry.orbits() == [(1 << G.n) - 1]


def test_rook_stabilizer_orbits():
    G = generate_named("rook", 6)
    neighbours = tuple(sorted(G.adj[0]))
    rest = tuple(v for v in range(1, G.n) if v not in G.adj[0])
    assert orbits(G, (0,)) == sorted([(0,), neighbours, rest])


def test_frucht_graph_has_trivial_orbits():
    H = nx.frucht_graph()
    G = build_graph(H.number_of_nodes(), H.edges)
    assert all(G.degree(v) == 3 for v in range(G.n))
    assert orbits(G) == [(v,) for v in range(G.n)]


def test_checker_rejects_non_automorphisms():
    P4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_automorphism(P4, [0, 1, 2, 3])
    assert is_automorphism(P4, [3, 2, 1, 0])
    assert not is_automorphism(P4, [1, 0, 2, 3])  # maps edge 1-2 onto 0-2
    assert not is_automorphism(P4, [0, 0, 2, 3])  # not a permutation
    assert not is_automorphism(P4, [0, 1, 2])


def _counting(monkeypatch):
    """Every node solved without a split (cover._leaf) from here on, as its
    (residual family, forced mask)."""
    calls = []
    leaf = cover._leaf

    def counted(universe, masks, forced, *args):
        calls.append((masks, forced))
        return leaf(universe, masks, forced, *args)

    monkeypatch.setattr(cover, "_leaf", counted)
    return calls


def _count_searches(monkeypatch):
    """The (fixed, classes) key of every automorphism search from here on."""
    keys = []
    find = GraphSymmetry._find_orbits

    def counted(self, fixed, classes, known):
        keys.append((fixed, classes))
        return find(self, fixed, classes, known)

    monkeypatch.setattr(GraphSymmetry, "_find_orbits", counted)
    return keys


def _dropping(monkeypatch):
    """The forced vertices, as a tuple, of every branch that _split drops
    from here on because its excluded orbits empty a set."""
    dropped = []
    parent = [0]
    split, child = cover._split, cover._child

    def recorded_split(masks, forced, *args):
        parent[0] = forced  # _child runs inside _split, which does not recurse
        return split(masks, forced, *args)

    def recorded_child(masks, element, passed):
        out = child(masks, element, passed)
        if out is None:
            dropped.append(bits_of(parent[0] | 1 << element))
        return out

    monkeypatch.setattr(cover, "_split", recorded_split)
    monkeypatch.setattr(cover, "_child", recorded_child)
    return dropped


def _refuting(monkeypatch):
    """The forced vertices, as a tuple, of every node that _search refutes
    at its root from here on: it neither splits nor solves the node."""
    refuted = []
    reached = [0]  # the _split and _leaf calls so far
    search = cover._search

    def reaching(fn):
        def counted(*args):
            reached[0] += 1
            return fn(*args)

        return counted

    def recorded(universe, masks, forced, *args):
        before = reached[0]
        out = search(universe, masks, forced, *args)
        if reached[0] == before:
            refuted.append(bits_of(forced))
        return out

    monkeypatch.setattr(cover, "_split", reaching(cover._split))
    monkeypatch.setattr(cover, "_leaf", reaching(cover._leaf))
    monkeypatch.setattr(cover, "_search", recorded)
    return refuted


def test_symmetric_instance_is_split(monkeypatch):
    G = generate_named("rook", 6)
    a = GraphAnalysis(G)
    calls = _counting(monkeypatch)
    dropped = _dropping(monkeypatch)
    refuted = _refuting(monkeypatch)
    assert min_hitting_set_size(a.vertex_pairs, sym=a.symmetry).size == 7
    # one orbit, so vertex 0 is forced; then every branch splits again under
    # the stabilizer of the vertices it forces, while the split rule holds.
    # The leaves that reach the kernel:
    assert tuple(bits_of(forced) for _masks, forced in calls) == (
        (0, 4, 7, 14, 21), (0, 7, 10, 14, 21),
        (0, 3, 7, 14), (0, 7, 9, 14),
        (0, 2, 7), (0, 7, 8),
        (0, 1),
    )
    # and the nodes whose residual family holds more pairwise-disjoint sets
    # than the cutoff leaves room for, refuted at their root
    assert tuple(refuted) == ((0, 7, 14, 16, 21), (0, 7, 14, 21, 22), (0, 7, 14, 21, 28), (0, 7, 14, 15))
    # the other branches of those levels exclude orbits that empty a set:
    # each is dropped where it is built, without a _leaf call
    assert sorted(dropped) == sorted((
        (0, 1, 7, 14, 21), (0, 2, 7, 14, 21), (0, 3, 7, 14, 21), (0, 7, 8, 14, 21),
        (0, 7, 9, 14, 21), (0, 7, 14, 15, 21),
        (0, 1, 7, 14), (0, 2, 7, 14), (0, 7, 8, 14),
        (0, 1, 7),
    ))


def test_branch_stays_whole_where_the_orbits_are_cut(monkeypatch):
    # one refinement per vertex cuts the automorphism search on Kneser(7,2):
    # its orbits come out as a 15-orbit and a 6-orbit, finer than its
    # transitive group.  The 6-orbit's branch excludes the 15-orbit, which
    # the stabilizer of its representative does not map onto itself, so
    # that branch is not split again
    monkeypatch.setattr(symmetry, "_SEARCH_BUDGET_PER_VERTEX", 1)
    monkeypatch.setattr(cover, "_MIN_SPLIT_ELEMENTS", 0)
    G = generate_named("kneser", 7, 2)
    a = GraphAnalysis(G)
    sym = GraphSymmetry(G, a.table)
    inst = a.vertex_pairs
    plain = min_hitting_set_size(inst)
    calls = _counting(monkeypatch)
    assert min_hitting_set_size(inst, sym=sym) == plain
    big, small = sorted(sym.orbits(), key=int.bit_count, reverse=True)
    assert (big.bit_count(), small.bit_count()) == (15, 6)
    first, rep = ((o & -o).bit_length() - 1 for o in (big, small))
    whole = replace(inst, forced=1 << rep, excluded=big)
    assert [c for c in calls if not c[1] >> first & 1] == [(whole._prepared, whole.forced)]


@pytest.mark.parametrize(
    ("name", "params", "nodes"),
    [("rook", (6,), 2430), ("gq24", (), 20808), ("johnson", (9, 2), 7255), ("clebsch", (), 781)],
)
def test_exact_report_node_counts(name, params, nodes, monkeypatch):
    # every Python-kernel node of an exact report: value proofs, orbital
    # branches and witness passes.  Splitting fewer branches, testing
    # candidates the witness pass can skip, or refuting one candidate of an
    # orbit more than once, raises the count
    monkeypatch.setattr(cover, "_cover_c", None)
    solve = _cover_py.solve
    total = [0]

    def counted(*args):
        out = solve(*args)
        total[0] += out[3]
        return out

    monkeypatch.setattr(_cover_py, "solve", counted)
    bounds_report(generate_named(name, *params), compute_exact=True)
    assert total[0] == nodes


def test_witness_trial_branches_refuted_at_their_root_call_no_kernel(monkeypatch):
    # Clebsch's exact report splits witness-pass trials into orbital
    # branches; the kernel is handed none whose residual family its own root
    # test refutes (two such calls of one node each before the search made
    # that test at every node)
    monkeypatch.setattr(cover, "_cover_c", None)
    kernel, witness = cover._kernel, cover._lex_min_witness
    inside = [False]
    trials = []

    def recorded_kernel(universe):
        solve = kernel(universe)

        def recorded(u, masks, cutoff, *args):
            if inside[0]:
                trials.append((masks, cutoff))
            return solve(u, masks, cutoff, *args)

        return recorded

    def marked(*args):
        inside[0] = True
        try:
            return witness(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(cover, "_kernel", recorded_kernel)
    monkeypatch.setattr(cover, "_lex_min_witness", marked)
    bounds_report(generate_named("clebsch"), compute_exact=True)
    assert trials
    assert [len(masks) for masks, cutoff in trials if cover._exceeds(masks, cutoff)] == []


@pytest.mark.parametrize(
    ("name", "params", "searches"),
    [("rook", (6,), 1), ("gq24", (), 1), ("johnson", (9, 2), 1)],
)
def test_exact_report_search_counts(name, params, searches, monkeypatch):
    # the keys of an exact report that still search for automorphisms: the
    # root's, while every later key takes its orbits from the automorphisms
    # found there (13, 7 and 11 searches when each key searched)
    monkeypatch.setattr(cover, "_cover_c", None)
    keys = _count_searches(monkeypatch)
    bounds_report(generate_named(name, *params), compute_exact=True)
    assert len(keys) == searches


def test_hypercube_n2_search_count(monkeypatch):
    # the 7-cube's N2 proof splits through many stabilizers, each of whose
    # orbits took its own search (404) before they came from the root's
    keys = _count_searches(monkeypatch)
    assert lb_n2(generate_named("hypercube", 7)) == (2, (0, 127))
    assert keys == [((), ())]


def test_hypercube_n2_builds_branches_as_it_reaches_them(monkeypatch):
    # each branch is split only when the proof reaches it, and a level ends
    # at its first branch that forces more vertices than the cutoff: the
    # whole tree, built before any branch was solved, took 9,169 branches
    # and 8,766 size calls, nearly all of them refuted by the cutoff at once
    made = {"branches": 0, "solves": 0}
    branch = cover._child
    solve = cover._leaf

    def counted_branch(*args):
        made["branches"] += 1
        return branch(*args)

    def counted_solve(*args):
        made["solves"] += 1
        return solve(*args)

    monkeypatch.setattr(cover, "_child", counted_branch)
    monkeypatch.setattr(cover, "_leaf", counted_solve)
    assert lb_n2(generate_named("hypercube", 7)) == (2, (0, 127))
    assert made["branches"] <= 694
    assert made["solves"] <= 6


@pytest.mark.parametrize(("name", "params"), [("rook", (6,)), ("gq24", ())])
def test_split_below_the_top_takes_the_smaller_level(name, params, monkeypatch):
    # below the top, a node whose stabilizer has more orbits than its
    # smallest set has members still splits by orbital branches when they
    # are no more than the kernel's branching set leaves, one per orbit
    # that meets that set, and no split there leaves more branches than
    # that; no split below the top leaves more than the set has members
    splits = []
    split = cover._split

    def recorded(masks, forced, excluded, sym, fixed):
        out = split(masks, forced, excluded, sym, fixed)
        if fixed and out is not None:
            free = 0
            for m in masks:
                free |= m
            # the guard has computed these orbits, so no search is added
            orbits = [o for o in sym.orbits(fixed) if o & free]
            meeting = sum(1 for o in orbits if o & masks[0])
            splits.append((masks[0].bit_count(), len(orbits), meeting, out))
        return out

    monkeypatch.setattr(cover, "_split", recorded)
    bounds_report(generate_named(name, *params), compute_exact=True)
    assert splits
    assert all(len(out) <= (pick if orbits <= pick else meeting) for pick, orbits, meeting, out in splits)
    assert any(
        orbits > pick + 1 and out and all(below is not None for *_node, below in out)
        for pick, orbits, _meeting, out in splits
    )


def test_trivial_group_is_one_plain_call(monkeypatch):
    H = nx.frucht_graph()
    G = build_graph(H.number_of_nodes(), H.edges)
    a = GraphAnalysis(G)
    calls = _counting(monkeypatch)
    res = min_hitting_set_size(a.edge_pairs, sym=a.symmetry)
    assert calls == [(a.edge_pairs._prepared, 0)]
    assert res == min_hitting_set_size(a.edge_pairs)


# --- orbital verdicts against plain ones -----------------------------------


def _golden_symmetric():
    """The golden graphs with a nontrivial group, up to order 16: every
    graph of order 2..6 that has one, Petersen, Moebius-Kantor, Paley(13)
    and Clebsch.  The plain proofs on the larger golden graphs take seconds
    each with the Python kernel."""
    for i, row in enumerate(json.loads(GOLDEN_PATH.read_text())):
        G = parse_graph6(row["graph6"])
        if G.n <= 16 and len(nx_orbits(G)) < G.n:
            yield pytest.param(G, id=row["label"] if row["label"] != row["graph6"] else f"g6-{i}")


VERDICT_GRAPHS = [
    *_golden_symmetric(),
    *(pytest.param(generate_named("torus", m, n), id=f"torus({m},{n})") for m in range(3, 6) for n in range(3, 6)),
]


def _families(G):
    """(name, instance) for every family the exact solves prove on: vertex
    and edge pairs, the N2 side sets and each mixed level up to betaM with
    its forced and excluded sets."""
    a = GraphAnalysis(G)
    yield "vertex", a.vertex_pairs
    yield "edge", a.edge_pairs
    yield "n2", a.edge_sides
    forced = a.forced.forced
    for k in range(2, G.n + 1):
        excl = excluded_vertices(G, k)
        if forced & excl:
            continue
        inst = replace(a.mixed, forced=forced, excluded=excl)
        yield f"mixed level {k}", inst
        if min_hitting_set_size(inst, cutoff=k).status == OPTIMAL:
            break


@pytest.mark.parametrize("G", VERDICT_GRAPHS)
def test_orbital_verdicts_match_plain(G, backend, monkeypatch):
    # split every instance, however small, so the golden graphs of order
    # at most 6 take the orbital path too, and split on the kernel's
    # branching set wherever there are too many orbits
    monkeypatch.setattr(cover, "_MIN_SPLIT_ELEMENTS", 0)
    monkeypatch.setattr(cover, "_SPLIT_MIN_SETS", 0)
    sym = GraphSymmetry(G, distances(G))
    for name, inst in _families(G):
        plain = min_hitting_set_size(inst)
        assert min_hitting_set_size(inst, sym=sym) == plain, name
        if plain.status != OPTIMAL:
            continue
        for cutoff in range(plain.size - 2, plain.size + 1):
            for lower_bound in {0, max(cutoff, 0)}:
                expect = min_hitting_set_size(inst, cutoff, lower_bound)
                got = min_hitting_set_size(inst, cutoff, lower_bound, sym=sym)
                assert got == expect, (name, cutoff, lower_bound)
                assert got.status == (CUTOFF_EXCEEDED if cutoff < plain.size else OPTIMAL)


@pytest.mark.parametrize(
    ("name", "params"),
    [("gq24", ()), ("rook", (6,)), ("kneser", (7, 2)), ("clebsch", ()), ("johnson", (9, 2))],
)
def test_selected_value_proofs_match_plain(name, params, backend):
    # the value proofs of the larger selected graphs at the default gates,
    # where the orbital and kernel-set splits compete below the top,
    # against one plain kernel call each
    a = GraphAnalysis(generate_named(name, *params))
    mixed = replace(a.mixed, forced=a.forced.forced)
    for family, inst in (("vertex", a.vertex_pairs), ("edge", a.edge_pairs), ("mixed", mixed)):
        plain = min_hitting_set_size(inst)
        assert plain.status == OPTIMAL
        assert min_hitting_set_size(inst, sym=a.symmetry) == plain, family


@pytest.mark.parametrize("G", VERDICT_GRAPHS)
def test_no_branch_past_the_cutoff_is_solved(G, monkeypatch):
    # every branch of a level forces one vertex more than the instance it
    # splits, so the search ends a level at its first branch that forces more
    # vertices than the cutoff, which only falls as sizes are found
    monkeypatch.setattr(cover, "_MIN_SPLIT_ELEMENTS", 0)
    monkeypatch.setattr(cover, "_SPLIT_MIN_SETS", 0)
    sym = GraphSymmetry(G, distances(G))
    handed = []
    solve = cover._leaf

    def recorded(universe, masks, forced, cutoff, *args):
        handed.append((forced.bit_count(), cutoff))
        return solve(universe, masks, forced, cutoff, *args)

    # the plain solves run unrecorded, before the hook
    cases = [(inst, min_hitting_set_size(inst)) for _name, inst in _families(G)]
    monkeypatch.setattr(cover, "_leaf", recorded)
    for inst, plain in cases:
        base = inst.forced.bit_count()
        cutoffs = [None] + ([] if plain.status != OPTIMAL else list(range(max(plain.size - 2, base), plain.size + 1)))
        for cutoff in cutoffs:
            min_hitting_set_size(inst, cutoff, sym=sym)
    assert handed
    assert all(cutoff is None or forced <= cutoff for forced, cutoff in handed)


# --- orbits from the automorphisms already known ---------------------------


def _chains(n):
    """For each vertex v, the vertices v, v + 1 and v + 3 (mod n), without
    repeats."""
    return sorted({tuple(dict.fromkeys((v, (v + 1) % n, (v + 3) % n))) for v in range(n)})


@pytest.mark.parametrize("G", list(_golden_symmetric()))
def test_derived_orbits_match_networkx(G, monkeypatch):
    # after the root's search, a chain of 1 to 3 fixed vertices takes its
    # orbits from the automorphisms known so far (one Schreier step per
    # added vertex) wherever the cells certify them, and so does each
    # witness-pass classes key (a prefix, and the other vertices below a
    # candidate) from the stored automorphisms that keep it; each must
    # equal networkx's, and every stored row must be an automorphism that
    # keeps its key
    autos = list(GraphMatcher(_nx(G), _nx(G)).isomorphisms_iter())
    sym = GraphSymmetry(G, distances(G))
    assert sorted(map(bits_of, sym.orbits())) == nx_orbits(G, (), autos)
    searches = _count_searches(monkeypatch)
    keys = []
    for chain in _chains(G.n):
        for i in range(1, len(chain) + 1):
            keys.append((chain[:i], ()))
            assert sorted(map(bits_of, sym.orbits(chain[:i]))) == nx_orbits(G, chain[:i], autos), chain[:i]
        for i in range(len(chain)):
            chosen = sum(1 << v for v in chain[:i])
            classes = (chosen, (1 << chain[i]) - 1 & ~chosen)
            keys.append(((), classes))
            keep = [p for p in autos if all(c >> p[v] & 1 for c in classes for v in bits_of(c))]
            assert sorted(map(bits_of, sym.orbits(classes=classes))) == nx_orbits(G, (), keep), classes
    assert len(searches) < len(keys)
    for (fixed, classes), rows in sym._gens.items():
        colour = sym._initial(fixed, classes)
        for perm in rows.tolist():
            assert is_automorphism(G, perm) and all(colour[perm[v]] == colour[v] for v in range(G.n))


def test_search_runs_where_the_certificate_fails(monkeypatch):
    # one refinement per vertex cuts the root's search on Kneser(7,2) (see
    # test_branch_stays_whole_where_the_orbits_are_cut): the stabilizers
    # of the automorphisms it found have more orbits than a vertex
    # stabilizer's 3 cells, so each stabilizer's search runs from their
    # merges, and every orbit it gives lies in one networkx orbit
    monkeypatch.setattr(symmetry, "_SEARCH_BUDGET_PER_VERTEX", 1)
    G = generate_named("kneser", 7, 2)
    H = _nx(G)
    autos = list(nx.vf2pp_all_isomorphisms(H, H))
    sym = GraphSymmetry(G, distances(G))
    assert sorted(o.bit_count() for o in sym.orbits()) == [6, 15]
    searches = _count_searches(monkeypatch)
    for v in range(G.n):
        known = symmetry._orbit_roots(sym._known((v,), ()))
        assert len(set(known.tolist())) > int(sym.cells((v,)).max()) + 1
        truth = nx_orbits(G, (v,), autos)
        where = {w: i for i, o in enumerate(truth) for w in o}
        found = sym.orbits((v,))
        assert all(len({where[w] for w in bits_of(o)}) == 1 for o in found)
        # the search started from the known merges
        orbit_of = {w: i for i, o in enumerate(found) for w in bits_of(o)}
        assert all(orbit_of[w] == orbit_of[r] for w, r in enumerate(known.tolist()))
    assert searches == [((v,), ()) for v in range(G.n)]


# --- the witness pass's orbit rule -----------------------------------------


def _all_gates_open(monkeypatch):
    """Look for orbits after every kernel refutation, split every instance
    and every witness-pass trial, and split on the kernel's branching set
    wherever there are too many orbits: the small graphs then take every
    symmetric path."""
    monkeypatch.setattr(cover, "_ORBIT_MIN_NODES", 0)
    monkeypatch.setattr(cover, "_SPLIT_MIN_SETS", 0)
    monkeypatch.setattr(cover, "_MIN_SPLIT_ELEMENTS", 0)


def _assert_witnesses_match_plain(G):
    sym = GraphSymmetry(G, distances(G))
    for name, inst in _families(G):
        plain = min_hitting_set_size(inst)
        if plain.status == OPTIMAL:
            assert min_hitting_set(inst, sym=sym) == min_hitting_set(inst), name


@pytest.mark.parametrize("G", VERDICT_GRAPHS)
def test_symmetric_witness_matches_plain(G, backend, monkeypatch):
    _all_gates_open(monkeypatch)
    _assert_witnesses_match_plain(G)


@settings(
    max_examples=120,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(connected_graphs(max_n=8))
def test_small_graph_witnesses_match_plain(backend, monkeypatch, G):
    _all_gates_open(monkeypatch)
    _assert_witnesses_match_plain(G)


def _split_counts(monkeypatch):
    """How many nodes _split_set split, and how many witness-pass trials
    were split, from here on.  A trial is the one node split under a
    nonempty fixed tuple that forces nothing: each orbital branch forces
    its representative."""
    counts = {"set": 0, "trial": 0}
    split_set = cover._split_set
    split = cover._split

    def counted_set(*args):
        out = split_set(*args)
        counts["set"] += out is not None
        return out

    def counted_split(masks, forced, excluded, sym, fixed):
        out = split(masks, forced, excluded, sym, fixed)
        counts["trial"] += bool(fixed) and not forced and out is not None
        return out

    monkeypatch.setattr(cover, "_split_set", counted_set)
    monkeypatch.setattr(cover, "_split", counted_split)
    return counts


# the selected graphs whose exact reports split on the kernel's branching
# set at the default gates, each with whether they split witness-pass
# trials too: GQ(2,4)'s passes, started from the proofs' covers, reach no
# trial large enough to split
SPLIT_AT_DEFAULT_GATES = {
    "Rook's graph": True,
    "Hamming H(2,6)": True,
    "9-triangular graph": True,
    "Generalized quadrangle": False,
}


@pytest.mark.parametrize("sel", [s for s in SELECTED_GRAPHS if s.family is not None], ids=lambda s: s.name)
def test_selected_graph_witnesses_match_plain(sel, backend, monkeypatch):
    # every exact-report witness of the selected graphs, the lex-min
    # witness of the N2 family and of the mixed level at betaM: with the
    # symmetric pass at its default gates, and with the plain pass
    counts = _split_counts(monkeypatch)
    G = generate(sel.family)
    a = GraphAnalysis(G)
    sym = a.symmetry
    rep = bounds_report(G, compute_exact=True)
    excl = excluded_vertices(G, rep.beta_m)
    mixed = replace(a.mixed, forced=a.forced.forced, excluded=excl)
    families = [
        (a.edge_sides, rep.n2, rep.n2_witness),
        (mixed, rep.beta_m, rep.beta_m_witness),
    ]
    for inst, size, witness in families:
        for res in (min_hitting_set(inst, sym=sym), min_hitting_set(inst)):
            assert (res.status, res.size, res.witness) == (OPTIMAL, size, witness)
    if sel.name in SPLIT_AT_DEFAULT_GATES:
        assert counts["set"]
        assert bool(counts["trial"]) == SPLIT_AT_DEFAULT_GATES[sel.name]


def test_small_graphs_take_the_new_paths(monkeypatch):
    # the gates that the tests above open do reach both new splits
    _all_gates_open(monkeypatch)
    counts = _split_counts(monkeypatch)
    for G in (generate_named("gen_petersen", 5, 2), generate_named("torus", 3, 4)):
        _assert_witnesses_match_plain(G)
    assert counts["set"] and counts["trial"]


@pytest.fixture(scope="module")
def johnson_n2():
    """(graph, its orbits, its N2 side-set instance)."""
    G = generate_named("johnson", 9, 2)
    a = GraphAnalysis(G)
    return G, a.symmetry, a.edge_sides


def _proof_cover(inst, sym):
    """The minimum cover that min_hitting_set's size proof finds, less the
    forced elements: where its witness pass starts."""
    top = None if sym is None else ()
    found = cover._search(inst.universe_size, inst._prepared, inst.forced, inst.excluded, sym, top, None, 0, None)[1]
    return found & ~inst.forced


@pytest.mark.parametrize(("with_sym", "calls", "nodes"), [(False, 26, 38696), (True, 12, 5257)])
def test_johnson_n2_witness_pass(johnson_n2, backend, with_sym, calls, nodes, monkeypatch):
    # with symmetry, a refuted candidate refutes its orbit under the
    # automorphisms that keep the prefix and the rest below it, and the
    # trials of at least _SPLIT_MIN_SETS sets are split by orbital
    # branching, each branch one kernel call
    G, sym, inst = johnson_n2
    sym = sym if with_sym else None
    proof = _proof_cover(inst, sym)
    kernel = cover._kernel(G.n)
    made = []

    def counted(*args):
        out = kernel(*args)
        made.append(out[3])
        return out

    monkeypatch.setattr(cover, "_kernel", lambda universe: counted)
    masks = inst._prepared
    chosen = cover._lex_min_witness(masks, proof, G.n, None, sym)
    assert bits_of(chosen) == (0, 1, 8, 21, 22, 26, 33, 34, 35)
    assert (len(made), sum(made)) == (calls, nodes)


def test_witness_pass_times_out_after_costly_refutation(johnson_n2, backend, monkeypatch):
    # the clock jumps past the deadline as soon as a trial refutes a
    # candidate at a cost that starts an orbit search: the pass searches
    # the orbit and still raises at the next candidate
    offset = [0.0]
    real = time.monotonic
    monkeypatch.setattr(time, "monotonic", lambda: real() + offset[0])
    G, _sym, inst = johnson_n2
    sym = GraphSymmetry(G, distances(G))
    proof = _proof_cover(inst, sym)
    search = cover._search
    depth = [0]

    def late_search(*args):
        # _search calls itself on the branches of a split trial: only the
        # witness pass's own call, one per trial, moves the clock
        depth[0] += 1
        try:
            out = search(*args)
        finally:
            depth[0] -= 1
        if not depth[0] and out[0] is None and out[2] >= cover._ORBIT_MIN_NODES:
            offset[0] += 120.0
        return out

    monkeypatch.setattr(cover, "_search", late_search)
    searched = []
    mates = cover._orbit_mates
    monkeypatch.setattr(cover, "_orbit_mates", lambda *args: searched.append(args[1]) or mates(*args))
    masks = inst._prepared
    with pytest.raises(SolveTimeout):
        cover._lex_min_witness(masks, proof, G.n, time.monotonic() + 60.0, sym)
    assert len(searched) == 1


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(connected_graphs(max_n=7))
def test_report_matches_brute_force(monkeypatch, G):
    # many graphs of order <= 7 have a nontrivial group: with the gates at
    # 0 their witness passes and value proofs use it wherever they can
    _all_gates_open(monkeypatch)
    rep = bounds_report(G, compute_exact=True)
    edges = list(G.edges)
    assert rep.beta == min_dimension(G.n, edges, "vertex")[0]
    assert rep.beta_e == (min_dimension(G.n, edges, "edge")[0] if len(edges) > 1 else 1)
    # combinations come in lexicographic order, so the first is the lex-min
    assert rep.beta_m_witness == min_dimension(G.n, edges, "mixed")[1][0]
    family = [s for pair in side_sets(G.n, edges) for s in pair]
    assert rep.n2_witness == brute_hitting_set(G.n, family)[1]


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    # no shrinking: each step would rerun an exact report and the brute
    # force on a graph of up to 12 vertices, so a failure took minutes to
    # report; the failing example is reported as generated
    phases=[p for p in Phase if p != Phase.shrink],
)
@given(connected_graphs(max_n=12, min_n=8))
def test_random_graph_report_matches_brute_force(backend, G):
    # graphs of order 8 to 12 under both kernels, at the default gates
    rep = bounds_report(G, compute_exact=True)
    edges = list(G.edges)
    assert rep.beta == lex_min_resolving_set(G.n, edges, "vertex")[0]
    assert rep.beta_e == lex_min_resolving_set(G.n, edges, "edge")[0]
    assert (rep.beta_m, rep.beta_m_witness) == lex_min_resolving_set(G.n, edges, "mixed")
    family = [s for pair in side_sets(G.n, edges) for s in pair]
    assert rep.n2_witness == brute_hitting_set(G.n, family)[1]
