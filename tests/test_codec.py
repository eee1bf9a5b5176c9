"""The mask codec of mixdim.masks, and the families built with it, at every
width: below, at and above one 64-bit word, and below and above 63 bits."""
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import mixdim.dims as dims
from mixdim.cover import CoverInstance, _validate_witness
from mixdim.dims import GraphAnalysis, distinguisher_masks
from mixdim.graphs import build_graph
from mixdim.masks import (
    _first_missed,
    _masks_of_words,
    _words_of_masks,
    _words_of_rows,
    bits_of,
    reduce_family,
    rows_of_masks,
)

from bruteforce import item_vectors, masks, random_connected_graph, reference_distinguisher_masks, side_sets


@st.composite
def mask_families(draw):
    width = draw(st.one_of(st.sampled_from([62, 63, 64, 65, 126, 127, 128, 129]), st.integers(1, 130)))
    return width, draw(st.lists(st.integers(0, (1 << width) - 1), max_size=12))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mask_families())
@example((62, [(1 << 62) - 1, 1 << 61, 0]))
@example((63, [(1 << 63) - 1, 1 << 62]))
@example((64, [(1 << 64) - 1, 1 << 63, 1 << 62]))
@example((65, [(1 << 65) - 1, 1 << 64, 1 << 63]))
@example((129, [(1 << 129) - 1, 1 << 128, 1 << 127, 1 << 64]))
def test_masks_rows_masks_round_trip(case):
    width, family = case
    rows = rows_of_masks(family, width)
    assert rows.dtype == bool and rows.shape == (len(family), width)
    assert [[bool(m >> e & 1) for e in range(width)] for m in family] == rows.tolist()
    assert _masks_of_words(_words_of_rows(rows).T) == family
    assert _masks_of_words(_words_of_masks(family).T) == family


def test_codec_empty_shapes():
    assert rows_of_masks([], 5).shape == (0, 5)
    assert rows_of_masks([0, 0], 0).shape == (2, 0)
    assert _masks_of_words(_words_of_rows(rows_of_masks([0, 0], 0)).T) == [0, 0]


def _wide_graph(n):
    """A sparse connected graph on n vertices, with sorted edges."""
    return build_graph(n, random_connected_graph(random.Random(n), n, extra_edge_prob=0.02))


def _pair_instances(analysis):
    """Each pair-cover instance of the analysis with its items: the
    vertices, the edges, then both."""
    n, m = analysis.graph.n, analysis.graph.m
    yield analysis.vertex_pairs, range(n)
    yield analysis.edge_pairs, range(n, n + m)
    yield analysis.mixed, range(n + m)


@pytest.mark.parametrize("n", range(63, 71))
def test_wide_graph_families_match_brute_force(n):
    g = _wide_graph(n)
    analysis = GraphAnalysis(g)
    vecs = item_vectors(n, g.edges, range(n))
    for inst, cols in _pair_instances(analysis):
        want = masks(
            [w for w in range(n) if vecs[a][w] != vecs[b][w]] for a, b in itertools.combinations(cols, 2)
        )
        assert _masks_of_words(inst.original_masks.T) == want, cols
    closer_u, closer_v = zip(*side_sets(n, g.edges))
    assert _masks_of_words(analysis.edge_sides.original_masks.T) == masks(closer_u) + masks(closer_v)


@pytest.mark.parametrize("n", [2, 5, 16, 30, *range(63, 71)])
def test_pair_mask_blocks_match_row_by_row_reference(n, monkeypatch):
    # at the default block size n = 16 fits every mixed pair in one block,
    # n = 30 and n >= 63 take several; the patched sizes put block ends one
    # pair before, at and after the last pair, and every few pairs
    if n >= 63:
        g = _wide_graph(n)
    else:
        g = build_graph(n, random_connected_graph(random.Random(n), n))
    analysis = GraphAnalysis(g)
    dmix = analysis.table
    for inst, cols in _pair_instances(analysis):
        want = reference_distinguisher_masks(dmix, list(cols))
        assert _masks_of_words(inst.original_masks.T) == want, cols
    total = len(want)  # the mixed pairs
    sizes = {1, 2, 7} if total < 3000 else {97}
    for pairs in sorted(sizes | {max(total - 1, 1), max(total, 1), total + 1}):
        monkeypatch.setattr(dims, "_PAIR_BLOCK_ENTRIES", pairs * n)
        assert _masks_of_words(distinguisher_masks(analysis.table).T) == want, pairs


def _family_graphs(n):
    """Seeded graphs on n vertices: a sparse random one, and one whose last
    vertices are twins of each other (false twins: two leaves at vertex 0;
    true twins: an adjacent pair with the same neighbours), so that many
    pairs share a mask."""
    rng = random.Random(1000 + n)
    yield build_graph(n, random_connected_graph(rng, n, extra_edge_prob=min(0.3, 1 / n)))
    if n >= 4:
        core = n - 2
        edges = random_connected_graph(rng, core, extra_edge_prob=min(0.3, 1 / core))
        if n % 2:
            edges += [(0, core), (0, core + 1)]
        else:
            edges += [(0, core), (0, core + 1), (1, core), (1, core + 1), (core, core + 1)]
        yield build_graph(n, edges)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 10, 16, 24, 40, 63, 64, 65, 100, 128, 129, 130])
def test_reduced_families_match_reference_reduction(n):
    # each pair-cover instance's reduced family, below and past
    # _VECTOR_REDUCE_MIN mixed pairs and at one to three mask words, is
    # reduce_family of its pairs' masks computed row by row
    for g in _family_graphs(n):
        analysis = GraphAnalysis(g)
        dmix = analysis.table
        for inst, cols in _pair_instances(analysis):
            assert list(inst.masks) == reduce_family(reference_distinguisher_masks(dmix, list(cols))), cols
        closer_u, closer_v = zip(*side_sets(n, g.edges))
        assert list(analysis.edge_sides.masks) == reduce_family(masks(closer_u) + masks(closer_v))


@pytest.mark.parametrize("width", [7, 63, 64, 65, 128, 129])
def test_build_rejects_word_rows_outside_the_universe(width):
    # word rows are range-checked as int masks are, in every word
    rows = _words_of_masks([1, (1 << width) - 1])
    assert CoverInstance.build(width, rows).masks == (1,)
    with pytest.raises(ValueError, match="outside universe"):
        CoverInstance.build(width - 1, rows)


@pytest.mark.parametrize("width", [7, 63, 64, 65, 128, 130])
def test_witness_check_finds_the_first_missed_set(width):
    # the witness check's numpy test over word rows (and over int masks)
    # finds the first set a witness misses, as a loop over the masks does
    rng = random.Random(width)
    family = [rng.getrandbits(width) & rng.getrandbits(width) | 1 << rng.randrange(width) for _ in range(300)]
    inst = CoverInstance.build(width, _words_of_masks(family))
    for _ in range(100):
        witness = sum(1 << rng.randrange(width) for _ in range(rng.randint(1, 4)))
        want = next((m for m in family if not m & witness), None)
        assert _first_missed(inst.original_masks, witness) == _first_missed(family, witness) == want
        if want is None:
            _validate_witness(inst, witness)
        else:
            with pytest.raises(RuntimeError, match=re.escape(f"fails to hit {list(bits_of(want))}")):
                _validate_witness(inst, witness)
    assert _first_missed(inst.original_masks, (1 << width) - 1) is None
