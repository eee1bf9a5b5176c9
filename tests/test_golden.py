"""Exact reports match the golden file frozen before the mask-native
refactor (see make_golden.py): every value, witness and bound."""
import json

import pytest

from mixdim.bounds import bounds_report
from mixdim.families import parse_graph6

from make_golden import BOUND_FIELDS, GOLDEN_PATH, golden_graphs

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_its_graphs():
    assert [r["label"] for r in GOLDEN] == [label for label, _g in golden_graphs()]
    assert len(GOLDEN) == 1 + 2 + 6 + 21 + 112 + 4


def _id(i, row):
    # graph6 strings hold characters such as backslash and brackets
    return row["label"] if row["label"] != row["graph6"] else f"g6-{i}"


@pytest.mark.parametrize("row", GOLDEN, ids=[_id(i, r) for i, r in enumerate(GOLDEN)])
def test_report_matches_golden(row):
    rep = bounds_report(parse_graph6(row["graph6"]), compute_exact=True)
    assert rep.beta == row["beta"]
    assert rep.beta_e == row["beta_e"]
    assert rep.beta_m == row["beta_m"]
    assert rep.beta_m_witness == tuple(row["beta_m_witness"])
    assert rep.n2_witness == tuple(row["n2_witness"])
    for f in BOUND_FIELDS:
        assert getattr(rep, f) == row[f], f
