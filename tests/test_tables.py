from dataclasses import replace

import mixdim.tables as tables
from mixdim.bounds import BoundsReport
from mixdim.tables import SELECTED_GRAPHS, selected_rows


def test_equal_selected_graphs_are_solved_once(monkeypatch):
    calls = []

    def stub(G, compute_exact=False, label="", timeout=None):
        calls.append(label)
        zero = BoundsReport(label, G.n, G.m, 0, 0, 0, 0, 0, 0, 0, ())
        return replace(zero, beta_m=G.m) if compute_exact else zero

    monkeypatch.setattr(tables, "bounds_report", stub)
    rows = selected_rows(exact_all=True)
    with_adjacency = [sel.name for sel in SELECTED_GRAPHS if sel.family is not None]
    assert len(with_adjacency) == 11
    assert len(calls) == 10
    assert "Hamming H(2,6)" not in calls
    by_label = {r.label: r for r in rows}
    assert [r.label for r in rows] == [sel.name for sel in SELECTED_GRAPHS]
    rook, hamming = by_label["Rook's graph"], by_label["Hamming H(2,6)"]
    assert hamming.report == replace(rook.report, label="Hamming H(2,6)")
    assert hamming.status == rook.status == "ok"


def test_selected_rows_survive_timed_out_bounds():
    # past the deadline from the start, every exact report and every
    # bounds-only fallback times out: each row is kept, with no report
    rows = selected_rows(timeout=1e-9)
    assert [r.label for r in rows] == [sel.name for sel in SELECTED_GRAPHS]
    for row in rows:
        if row.status != "unavailable":
            assert (row.status, row.report, row.cell_flags) == ("timeout", None, ())
