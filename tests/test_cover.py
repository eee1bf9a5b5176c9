import collections
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mixdim._cover_py as _cover_py
import mixdim.cover as cover
from mixdim.cover import (
    CUTOFF_EXCEEDED,
    INFEASIBLE,
    OPTIMAL,
    CoverInstance,
    SolveTimeout,
    min_hitting_set,
    min_hitting_set_size,
)
from mixdim.dims import GraphAnalysis
from mixdim.masks import _VECTOR_REDUCE_MIN, _masks_of_words, reduce_family

from bruteforce import (
    masks,
    min_hitting_set as brute_hitting_set,
    reference_cover_search,
    reference_greedy_cover,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


# side sets of the 5-vertex/7-edge reference graph, deduplicated by hand
FIG1_SIDE_SETS = [
    {0}, {1, 3, 4}, {2, 3, 4}, {1}, {2}, {0, 1, 4}, {3}, {0, 1, 3}, {4},
    {0, 2, 4}, {0, 2, 3},
]


def test_two_sets_share_element():
    res = min_hitting_set(CoverInstance.build(3, masks([{0, 1}, {1, 2}])))
    assert (res.size, res.witness) == (1, (1,))


def test_path3_side_set_instance():
    res = min_hitting_set(CoverInstance.build(3, masks([{0}, {1, 2}, {0, 1}, {2}])))
    assert (res.size, res.witness) == (2, (0, 2))


def test_fig1_side_set_instance():
    res = min_hitting_set(CoverInstance.build(5, masks(FIG1_SIDE_SETS)))
    assert res.size == 5


def test_greedy_examples():
    # the kernels' greedy start: (size, mask of the chosen elements)
    assert _cover_py.greedy_cover(CoverInstance.build(3, masks([{0, 1}, {1, 2}]))._prepared) == (1, 0b010)
    assert _cover_py.greedy_cover(CoverInstance.build(3, masks([{0}, {1}, {2}]))._prepared) == (3, 0b111)


def test_greedy_never_beats_optimum():
    rng = random.Random(31337)
    for _ in range(100):
        u = rng.randint(2, 10)
        sets = [frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 12))]
        inst = CoverInstance.build(u, masks(sets))
        size, chosen = _cover_py.greedy_cover(inst._prepared)
        assert size == chosen.bit_count() and all(m & chosen for m in inst.original_masks)
        assert size >= min_hitting_set(inst).size


@pytest.mark.parametrize("width", range(1, 131))
def test_greedy_matches_reference(width):
    # the bit-sliced counts pick what per-element counting picks; masks
    # wider than 64 bits reach only the Python kernel
    rng = random.Random(width)
    for _ in range(4):
        fam = [rng.getrandbits(width) | 1 << rng.randrange(width) for _ in range(rng.randint(1, 3 * width))]
        fam += [sum(1 << b for b in rng.sample(range(width), rng.randint(1, min(width, 3)))) for _ in range(width)]
        assert _cover_py.greedy_cover(fam) == reference_greedy_cover(fam)


def test_infeasible_names_a_set():
    # every solve gives the same verdict, at any cutoff too
    inst = CoverInstance.build(3, masks([{0, 1}, {2}]), excluded=0b100)
    res = min_hitting_set(inst)
    assert res.status == INFEASIBLE
    assert res.infeasible_set == 0b100
    assert min_hitting_set(inst, cutoff=0) == res
    assert min_hitting_set_size(inst) == res


def test_empty_input_set_is_infeasible():
    res = min_hitting_set(CoverInstance.build(3, masks([{0}, set()])))
    assert res.status == INFEASIBLE


def test_no_sets_means_empty_solution():
    res = min_hitting_set(CoverInstance.build(4, []))
    assert (res.size, res.witness) == (0, ())


def test_forced_and_excluded_validation():
    # masks, like the sets
    inst = CoverInstance.build(6, masks([{0, 1}, {2, 5}]), forced=0b100010, excluded=0b1001)
    assert (inst.forced, inst.excluded) == (0b100010, 0b1001)
    with pytest.raises(ValueError):
        CoverInstance.build(3, masks([{0}]), forced=0b1000)
    with pytest.raises(ValueError):
        CoverInstance.build(3, masks([{0}]), excluded=-1)
    with pytest.raises(ValueError):
        CoverInstance.build(3, masks([{0}]), forced=-2, excluded=0b1)
    with pytest.raises(ValueError):
        CoverInstance.build(3, masks([{0}]), forced=0b10, excluded=0b10)
    with pytest.raises(ValueError):
        CoverInstance.build(2, masks([{0, 5}]))


def test_cutoff_verdict():
    inst = CoverInstance.build(4, masks([{0}, {1}, {2}, {3}]))
    assert min_hitting_set(inst, cutoff=3).status == CUTOFF_EXCEEDED
    res = min_hitting_set(inst, cutoff=4)
    assert (res.size, res.witness) == (4, (0, 1, 2, 3))


def test_node_refuted_at_its_root_calls_no_kernel(monkeypatch):
    # three pairwise-disjoint sets need three elements: with cutoff 2 the
    # search refutes the node at its root, and with cutoff 3 the kernel
    # solves it.  A forced element takes one unit of the cutoff's room
    family = masks([{0, 1}, {2, 3}, {4, 5}])
    pick = cover._kernel
    calls = []

    def counted_kernel(universe):
        calls.append(universe)
        return pick(universe)

    monkeypatch.setattr(cover, "_kernel", counted_kernel)
    assert cover._search(7, family, 0, 0, None, (), 2, 0, None) == (None, 0, 0)
    assert cover._search(7, family, 1 << 6, 0, None, (), 3, 0, None) == (None, 0, 0)
    assert min_hitting_set(CoverInstance.build(6, family), cutoff=2).status == CUTOFF_EXCEEDED
    assert calls == []
    assert cover._search(7, family, 0, 0, None, (), 3, 0, None)[0] == 3
    assert cover._search(7, family, 1 << 6, 0, None, (), 4, 0, None)[0] == 4
    assert len(calls) == 2


def test_exactness_vs_enumeration(backend):
    rng = random.Random(987654)
    for _ in range(150):
        u = rng.randint(1, 12)
        sets = [frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 20))]
        forced = frozenset(rng.sample(range(u), 1)) if rng.random() < 0.25 else frozenset()
        pool = sorted(set(range(u)) - forced)
        excluded = (
            frozenset(rng.sample(pool, min(len(pool), 2))) if rng.random() < 0.25 else frozenset()
        )
        fmask, xmask = masks([forced, excluded])
        inst = CoverInstance.build(u, masks(sets), forced=fmask, excluded=xmask)
        res = min_hitting_set(inst)
        if any(not (s - excluded) for s in sets):
            assert res.status == INFEASIBLE
            continue
        expected = brute_hitting_set(u, sets, forced, excluded)
        assert res.status == OPTIMAL
        assert (res.size, res.witness) == expected


@st.composite
def cover_instances(draw):
    """(universe, sets, forced, excluded): up to 12 elements, nonempty
    sets, and disjoint forced and excluded elements."""
    u = draw(st.integers(1, 12))
    element_sets = st.frozensets(st.integers(0, u - 1), min_size=1)
    sets = draw(st.lists(element_sets, min_size=1, max_size=20))
    forced = draw(st.frozensets(st.integers(0, u - 1), max_size=2))
    excluded = draw(st.frozensets(st.integers(0, u - 1), max_size=3)) - forced
    return u, sets, forced, excluded


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cover_instances(), st.data())
def test_lex_min_witness_matches_brute_force(backend, case, data):
    u, sets, forced, excluded = case
    fmask, xmask = masks([forced, excluded])
    inst = CoverInstance.build(u, masks(sets), forced=fmask, excluded=xmask)
    expected = brute_hitting_set(u, sets, forced, excluded)
    if any(not s - excluded for s in sets):
        assert (min_hitting_set(inst).status, expected) == (INFEASIBLE, None)
        return
    # a valid lower bound or a cutoff the optimum meets can stop the proof
    # at another minimum cover, from which the witness pass starts
    size = expected[0]
    lower_bound = data.draw(st.integers(0, size), label="lower_bound")
    cutoff = data.draw(st.none() | st.integers(size, size + 2), label="cutoff")
    res = min_hitting_set(inst, cutoff, lower_bound)
    assert (res.status, res.size, res.witness) == (OPTIMAL, *expected)


def test_proof_cover_spares_the_witness_pass(backend, monkeypatch):
    # the edges of the path 3-2-0-1-4: greedy takes 0 first and needs three
    # vertices, while the size proof's kernel call finds {1, 2}, already the
    # lex-min cover, so the witness pass starting from it calls no kernel
    inst = CoverInstance.build(5, masks([{0, 1}, {0, 2}, {1, 4}, {2, 3}]))
    assert _cover_py.greedy_cover(inst._prepared)[0] == 3
    pick = cover._kernel
    calls = []

    def counted_kernel(universe):
        solve = pick(universe)

        def counted(*args):
            calls.append(args)
            return solve(*args)

        return counted

    monkeypatch.setattr(cover, "_kernel", counted_kernel)
    assert min_hitting_set_size(inst).size == 2
    assert len(calls) == 1
    assert min_hitting_set(inst).witness == (1, 2)
    assert len(calls) == 2


def test_monotone_in_sets():
    rng = random.Random(2024)
    for _ in range(60):
        u = rng.randint(2, 10)
        sets = [frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 10))]
        extra = frozenset(rng.sample(range(u), rng.randint(1, u)))
        base = min_hitting_set(CoverInstance.build(u, masks(sets))).size
        more = min_hitting_set(CoverInstance.build(u, masks(sets + [extra]))).size
        assert more >= base


def test_result_independent_of_set_order():
    rng = random.Random(5)
    sets = [frozenset(rng.sample(range(9), rng.randint(1, 9))) for _ in range(12)]
    a = min_hitting_set(CoverInstance.build(9, masks(sets)))
    shuffled = sets[:]
    rng.shuffle(shuffled)
    b = min_hitting_set(CoverInstance.build(9, masks(shuffled)))
    assert a == b


def test_witness_validated_against_original_family():
    # duplicates and supersets are dropped internally but still get checked
    sets = [{0, 1}, {0, 1}, {0, 1, 2}, {2}]
    res = min_hitting_set(CoverInstance.build(3, masks(sets)))
    assert res.witness == (0, 2)
    for s in sets:
        assert set(s) & set(res.witness)


def test_backend_timeout(backend):
    sets = [{2 * i, 2 * i + 1} for i in range(20)]
    inst = CoverInstance.build(40, masks(sets))
    with pytest.raises(SolveTimeout):
        min_hitting_set(inst, deadline=time.monotonic() - 1.0)


def test_python_search_raises_past_deadline(monkeypatch):
    # the clock passes the deadline right after min_hitting_set's own check,
    # and the kernel reads it at every node, so the search itself raises
    monkeypatch.setattr(cover, "_cover_c", None)
    monkeypatch.setattr(_cover_py, "_TIME_CHECK_MASK", 0)
    reads = [0]
    real = time.monotonic

    def clock():
        reads[0] += 1
        return real() + (0.0 if reads[0] == 1 else 120.0)

    deadline = real() + 60.0
    monkeypatch.setattr(time, "monotonic", clock)
    with pytest.raises(SolveTimeout):
        min_hitting_set(CoverInstance.build(5, masks(FIG1_SIDE_SETS)), deadline=deadline)
    assert reads[0] == 2


def test_witness_raises_past_deadline(backend, monkeypatch):
    # the clock jumps past the deadline once the search has returned, so
    # the search succeeds and the lex-min witness search must raise
    offset = [0.0]
    real = time.monotonic
    monkeypatch.setattr(time, "monotonic", lambda: real() + offset[0])
    witness = cover._lex_min_witness
    entered = []

    def late_witness(*args, **kwargs):
        entered.append(True)
        offset[0] += 120.0
        return witness(*args, **kwargs)

    monkeypatch.setattr(cover, "_lex_min_witness", late_witness)
    inst = CoverInstance.build(5, masks(FIG1_SIDE_SETS))
    with pytest.raises(SolveTimeout):
        min_hitting_set(inst, deadline=time.monotonic() + 60.0)
    assert entered


# cyclic windows {i, i+1, i+3} mod 40: about 200,000 search nodes, so the
# kernel reads the clock at nodes 4096, 8192, ...
WINDOWS_40 = reduce_family(1 << i | 1 << (i + 1) % 40 | 1 << (i + 3) % 40 for i in range(40))


def test_kernel_times_out(backend, monkeypatch):
    # min_hitting_set checks the deadline before the kernel runs; here the
    # kernel's own check must see the patched time.monotonic
    reads = []

    def clock():
        reads.append(True)
        return 0.0 if len(reads) == 1 else 120.0

    monkeypatch.setattr(time, "monotonic", clock)
    result = cover._kernel(40)(40, WINDOWS_40, None, 0, 60.0)
    assert result == (_cover_py.STATUS_TIMEOUT, 0, 0, 8192)
    assert len(reads) == 2


def test_kernel_clock_error_propagates(backend, monkeypatch):
    def clock():
        raise OSError("clock failed")

    monkeypatch.setattr(time, "monotonic", clock)
    with pytest.raises(OSError, match="clock failed"):
        cover._kernel(40)(40, WINDOWS_40, None, 0, 60.0)


def test_backends_agree(compiled_kernel, monkeypatch):
    with pytest.raises(ValueError):
        compiled_kernel.solve(65, [1 << 64], None, 0, None)
    # cutoffs far outside any cover size, which the C kernel clamps
    for cutoff in (-(2**40), -1, 0, 2, 3, 2**40):
        args = (6, [0b11, 0b1100, 0b110000], cutoff, 0, None)
        assert compiled_kernel.solve(*args) == _cover_py.solve(*args)
    rng = random.Random(11)
    cases = []
    for _ in range(120):
        u = rng.randint(1, 14)
        sets = [frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 18))]
        cases.append((CoverInstance.build(u, masks(sets)), rng.choice([None, rng.randint(1, u)])))
    compiled = [min_hitting_set(inst, cutoff=cutoff) for inst, cutoff in cases]
    monkeypatch.setattr(cover, "_cover_c", None)
    assert [min_hitting_set(inst, cutoff=cutoff) for inst, cutoff in cases] == compiled


def test_python_backend_handles_wide_universe():
    # beyond the 64-element compiled limit; {70} absorbs the pair {6, 70}
    sets = [{i, 64 + i} for i in range(10)] + [{70}]
    inst = CoverInstance.build(80, masks(sets))
    res = min_hitting_set(inst)
    assert res.status == OPTIMAL
    assert (res.size, res.witness) == (10, (0, 1, 2, 3, 4, 5, 7, 8, 9, 70))


def _kernel_case(rng, universe):
    """A reduced random family with singletons mixed in, a cutoff (or None)
    and a stop size."""
    sets = []
    for _ in range(rng.randint(1, 3 * universe)):
        k = 1 if rng.random() < 0.1 else rng.randint(2, min(universe, 6))
        sets.append(sum(1 << b for b in rng.sample(range(universe), k)))
    cutoff = rng.choice([None, rng.randint(1, universe)])
    stop_size = rng.choice([0, 0, rng.randint(1, universe)])
    return reduce_family(sets), cutoff, stop_size


def _unreduced_case(rng):
    """A universe and a family of 2 to 4 elements a set, a few singletons
    among them, with no supersets removed: a singleton then shares its
    element with larger sets, as forced picks below the root do."""
    universe = rng.randint(6, 20)
    sets = []
    for _ in range(rng.randint(universe, 3 * universe)):
        k = 1 if rng.random() < 0.05 else rng.randint(2, 4)
        sets.append(sum(1 << b for b in rng.sample(range(universe), k)))
    return universe, list(dict.fromkeys(sets))


def test_python_search_matches_reference_tree():
    # both kernels return the reference's answers and node counts; the
    # reference bans elements per node instead of stripping them from the
    # sets, and takes each node's forced picks before its bound in plain
    # steps.  The cases take the paths that the reference counts: nodes
    # refuted after an earlier sibling lowered the best size, and nodes
    # whose disjoint sets fill the room before a later singleton, a few of
    # which the count after the forced picks keeps.  The unreduced cases,
    # which the kernels take as well, reach those most often.  The compiled
    # kernel, when built, takes universes up to 64
    compiled = cover._cover_c
    rng = random.Random(5)
    universes = [rng.randint(2, 16) for _ in range(200)] + [70, 90]
    cases = [(universe, *_kernel_case(rng, universe)) for universe in universes]
    rng = random.Random(2)
    cases += [(*_unreduced_case(rng), None, 0) for _ in range(400)]
    # {0, 1} {1, 2, 3} {2, 4} {3, 5} {0}, greedy cover 3: before the forced
    # pick of 0, three sets are disjoint and would refute the root; after
    # it, {1, 2, 3} meets both others, and the root branches (3 nodes)
    cases.append((6, [0b11, 0b1110, 0b10100, 0b101000, 0b1], None, 0))
    statuses = set()
    total_nodes = 0
    paths = collections.Counter()
    for universe, masks, cutoff, stop_size in cases:
        want = reference_cover_search(universe, masks, cutoff, stop_size, paths)
        assert _cover_py.solve(universe, masks, cutoff, stop_size, None) == want
        if compiled is not None and universe <= 64:
            assert compiled.solve(universe, masks, cutoff, stop_size, None) == want
        statuses.add(want[0])
        total_nodes += want[3]
    assert statuses == {_cover_py.STATUS_OPTIMAL, _cover_py.STATUS_CUTOFF}
    assert total_nodes > 1000
    assert paths["sibling_refuted"] > 100
    assert paths["bound_before_forced"] > 100
    assert paths["forced_rescued"] > 0


def _reference_reduction(masks):
    """The masks of which no other mask of the family is a subset, in
    (popcount, value) order.  The masks within m are the family indices
    that every element outside m leaves out: one big-int set of indices
    per element, so that families of tens of thousands stay quick."""
    uniq = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    width = max(uniq, default=0).bit_length()
    # lacking[e]: bit i set when uniq[i] lacks element e
    lacking = [
        int("".join("0" if m >> e & 1 else "1" for m in reversed(uniq)), 2) for e in range(width)
    ]
    kept = []
    for i, m in enumerate(uniq):
        within = (1 << len(uniq)) - 1
        for e in range(width):
            if not m >> e & 1:
                within &= lacking[e]
        if within == 1 << i:
            kept.append(m)
    return kept


def test_reference_reduction_is_the_definition():
    rng = random.Random(11)
    for universe in (1, 5, 63, 64, 65, 130):
        for size in (1, 10, 40):
            fam = _random_family(rng, universe, size)
            if size == 40:
                fam.append(0)  # the empty set, a subset of every mask
            uniq = sorted(set(fam), key=lambda m: (bin(m).count("1"), m))
            want = [m for m in uniq if not any(o != m and o & m == o for o in uniq)]
            assert _reference_reduction(fam) == want


def _random_family(rng, universe, size):
    """Nonzero masks with duplicates and nested chains mixed in."""
    fam = []
    while len(fam) < size:
        kind = rng.random()
        if kind < 0.2 and fam:
            fam.append(rng.choice(fam))  # duplicate
        elif kind < 0.4:
            chain = rng.getrandbits(universe) | 1 << rng.randrange(universe)
            while chain and len(fam) < size:
                fam.append(chain)  # nested chain: each link a proper subset
                chain &= chain - 1
        else:
            bits = rng.sample(range(universe), rng.randint(1, min(universe, 8)))
            fam.append(sum(1 << b for b in bits))
    rng.shuffle(fam)
    return fam


@pytest.mark.parametrize("universe", [5, 20, 63, 64, 65, 100, 128, 256])
@pytest.mark.parametrize("size", [1, 10, 63, 64, 300])
def test_reduce_family_matches_reference(universe, size):
    rng = random.Random(universe * 1000 + size)
    for _ in range(5):
        fam = _random_family(rng, universe, size)
        assert reduce_family(fam) == _reference_reduction(fam)
        assert reduce_family(iter(fam)) == _reference_reduction(fam)


def _wide_family(rng, universe, size):
    """_random_family's masks, masks that share one of a few low words and
    differ only above bit 63, and few-bit patterns moved whole into a
    random word, so that equal popcounts fall in different words."""
    lows = [rng.getrandbits(64) & rng.getrandbits(64) for _ in range(4)]
    fam = _random_family(rng, universe, size // 3)
    while len(fam) < size:
        pattern = sum(1 << b for b in rng.sample(range(min(universe, 64)), rng.randint(1, 6)))
        fam.append(pattern << rng.choice([lo for lo in range(0, universe, 64) if pattern << lo >> universe == 0]))
        high = rng.getrandbits(universe) & rng.getrandbits(universe) & rng.getrandbits(universe)
        fam.append(rng.choice(lows) | high >> 64 << 64)
    rng.shuffle(fam)
    return fam[:size]


@pytest.mark.parametrize("universe", [64, 65, 128, 200, 256])
@pytest.mark.parametrize("size", [1000, 3000])
def test_reduce_family_sweep_matches_reference(universe, size):
    rng = random.Random(universe * 1000 + size)
    for _ in range(2):
        fam = _wide_family(rng, universe, size)
        assert len(set(fam)) >= _VECTOR_REDUCE_MIN  # the sweep runs
        assert max(fam).bit_length() == universe
        assert reduce_family(fam) == _reference_reduction(fam)


def test_reduce_family_wide_mixed_family():
    # 43,956 mixed pairs over 66 vertices, 3,844 of them minimal
    rows = GraphAnalysis(workloads.random_connected_graph(random.Random(5), 66)).mixed_masks
    family = _masks_of_words(rows.T)
    assert reduce_family(rows) == reduce_family(family) == _reference_reduction(family)


def test_reduce_family_top_bit():
    # bit 63 is the sign bit of int64: it must survive the 64-bit sweep
    top = 1 << 63
    fam = [top | 1 << i for i in range(63)] + [top]
    assert reduce_family(fam) == [top]
    fam = [(top | 1 << i) for i in range(63)] + [1 << i for i in range(1, 63)]
    assert reduce_family(fam) == _reference_reduction(fam)
