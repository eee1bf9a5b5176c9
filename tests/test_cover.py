import random

import pytest

from mixdim.cover import (
    CUTOFF_EXCEEDED,
    INFEASIBLE,
    OPTIMAL,
    TIMEOUT,
    CoverInstance,
    _reduce_family,
    available_backends,
    greedy_hitting_set,
    min_hitting_set,
)

from bruteforce import min_hitting_set as brute_hitting_set

BACKENDS = available_backends()

# side sets of the 5-vertex/7-edge reference graph, deduplicated by hand
FIG1_SIDE_SETS = [
    {0}, {1, 3, 4}, {2, 3, 4}, {1}, {2}, {0, 1, 4}, {3}, {0, 1, 3}, {4},
    {0, 2, 4}, {0, 2, 3},
]


def test_two_sets_share_element():
    res = min_hitting_set(CoverInstance.build(3, [{0, 1}, {1, 2}]))
    assert (res.size, res.witness) == (1, (1,))


def test_path3_side_set_instance():
    res = min_hitting_set(CoverInstance.build(3, [{0}, {1, 2}, {0, 1}, {2}]))
    assert (res.size, res.witness) == (2, (0, 2))


def test_fig1_side_set_instance():
    res = min_hitting_set(CoverInstance.build(5, FIG1_SIDE_SETS))
    assert res.size == 5


def test_greedy_examples():
    assert greedy_hitting_set(CoverInstance.build(3, [{0, 1}, {1, 2}])).witness == (1,)
    res = greedy_hitting_set(CoverInstance.build(3, [{0}, {1}, {2}]))
    assert (res.size, res.witness) == (3, (0, 1, 2))


def test_greedy_never_beats_optimum():
    rng = random.Random(31337)
    for _ in range(100):
        u = rng.randint(2, 10)
        sets = [frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 12))]
        inst = CoverInstance.build(u, sets)
        assert greedy_hitting_set(inst).size >= min_hitting_set(inst).size


def test_infeasible_names_a_set():
    res = min_hitting_set(CoverInstance.build(3, [{0, 1}, {2}], excluded={2}))
    assert res.status == INFEASIBLE
    assert res.infeasible_set == frozenset({2})


def test_empty_input_set_is_infeasible():
    res = min_hitting_set(CoverInstance.build(3, [{0}, set()]))
    assert res.status == INFEASIBLE


def test_no_sets_means_empty_solution():
    res = min_hitting_set(CoverInstance.build(4, []))
    assert (res.size, res.witness) == (0, ())


def test_forced_and_excluded_validation():
    with pytest.raises(ValueError):
        CoverInstance.build(3, [{0}], forced={1}, excluded={1})
    with pytest.raises(ValueError):
        CoverInstance.build(2, [{0, 5}])


def test_cutoff_verdict():
    inst = CoverInstance.build(4, [{0}, {1}, {2}, {3}])
    assert min_hitting_set(inst, cutoff=3).status == CUTOFF_EXCEEDED
    res = min_hitting_set(inst, cutoff=4)
    assert (res.size, res.witness) == (4, (0, 1, 2, 3))


@pytest.mark.parametrize("backend", BACKENDS)
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
        inst = CoverInstance.build(u, sets, forced=forced, excluded=excluded)
        res = min_hitting_set(inst, backend=backend)
        if any(not (s - excluded) for s in sets):
            assert res.status == INFEASIBLE
            continue
        expected = brute_hitting_set(u, sets, forced, excluded)
        assert res.status == OPTIMAL
        assert (res.size, res.witness) == expected


def test_monotone_in_sets():
    rng = random.Random(2024)
    for _ in range(60):
        u = rng.randint(2, 10)
        sets = [frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 10))]
        extra = frozenset(rng.sample(range(u), rng.randint(1, u)))
        base = min_hitting_set(CoverInstance.build(u, sets)).size
        more = min_hitting_set(CoverInstance.build(u, sets + [extra])).size
        assert more >= base


def test_result_independent_of_set_order():
    rng = random.Random(5)
    sets = [frozenset(rng.sample(range(9), rng.randint(1, 9))) for _ in range(12)]
    a = min_hitting_set(CoverInstance.build(9, sets))
    shuffled = sets[:]
    rng.shuffle(shuffled)
    b = min_hitting_set(CoverInstance.build(9, shuffled))
    assert a == b


def test_witness_validated_against_original_family():
    # duplicates and supersets are dropped internally but still get checked
    sets = [{0, 1}, {0, 1}, {0, 1, 2}, {2}]
    res = min_hitting_set(CoverInstance.build(3, sets))
    assert res.witness == (0, 2)
    for s in sets:
        assert set(s) & set(res.witness)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_timeout(backend):
    # 20 disjoint pairs force a 2^20-leaf search; a zero budget must trip
    sets = [{2 * i, 2 * i + 1} for i in range(20)]
    inst = CoverInstance.build(40, sets)
    res = min_hitting_set(inst, timeout=0.0, backend=backend)
    assert res.status == TIMEOUT


def test_backends_agree():
    if len(BACKENDS) < 2:
        pytest.skip("compiled backend not built")
    rng = random.Random(11)
    for _ in range(120):
        u = rng.randint(1, 14)
        sets = [frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 18))]
        inst = CoverInstance.build(u, sets)
        cutoff = rng.choice([None, rng.randint(1, u)])
        assert min_hitting_set(inst, cutoff=cutoff, backend="python") == min_hitting_set(
            inst, cutoff=cutoff, backend="compiled"
        )


def test_python_backend_handles_wide_universe():
    # beyond the 64-element compiled limit; {70} absorbs the pair {6, 70}
    sets = [{i, 64 + i} for i in range(10)] + [{70}]
    inst = CoverInstance.build(80, sets)
    res = min_hitting_set(inst)
    assert res.status == OPTIMAL
    assert (res.size, res.witness) == (10, (0, 1, 2, 3, 4, 5, 7, 8, 9, 70))


def _reference_reduction(masks):
    uniq = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    return [m for m in uniq if not any(o != m and o & m == o for o in uniq)]


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


@pytest.mark.parametrize("universe", [5, 20, 63, 64, 65, 100])
@pytest.mark.parametrize("size", [1, 10, 63, 64, 300])
def test_reduce_family_matches_reference(universe, size):
    rng = random.Random(universe * 1000 + size)
    for _ in range(5):
        fam = _random_family(rng, universe, size)
        assert _reduce_family(fam) == _reference_reduction(fam)
        assert _reduce_family(iter(fam)) == _reference_reduction(fam)


def test_reduce_family_top_bit():
    # bit 63 is the sign bit of int64: it must survive the 64-bit sweep
    top = 1 << 63
    fam = [top | 1 << i for i in range(63)] + [top]
    assert _reduce_family(fam) == [top]
    fam = [(top | 1 << i) for i in range(63)] + [1 << i for i in range(1, 63)]
    assert _reduce_family(fam) == _reference_reduction(fam)
