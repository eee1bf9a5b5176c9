from dataclasses import replace

import mixdim.tables as tables
from mixdim.bounds import BoundsReport, bounds_report
from mixdim.cover import SolveTimeout
from mixdim.families import parse_graph6
from mixdim.tables import SELECTED_GRAPHS, compare_order5, order5_rows, selected_rows


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


def test_order5_rows_survive_timed_out_bounds():
    # past the deadline from the start, every row times out with no
    # report, stays unpaired in the comparison and is flagged
    rows = order5_rows(timeout=1e-9)
    assert len(rows) == 21
    assert {(r.status, r.report) for r in rows} == {("timeout", None)}
    matches, annotated = compare_order5(rows)
    assert (matches, len(annotated)) == (0, 21)
    assert all(r.expected is None and len(r.cell_flags) == 1 for r in annotated)


def test_order5_row_keeps_its_bounds_after_a_timeout(monkeypatch):
    # one graph's exact solve times out: its row keeps the bounds, and the
    # other 20 rows pair with the published ones as without the timeout
    def stub(G, compute_exact=False, label="", timeout=None):
        if compute_exact and label == "DFw":
            raise SolveTimeout("exact solve ran past its deadline")
        return bounds_report(G, compute_exact=compute_exact, label=label, timeout=timeout)

    monkeypatch.setattr(tables, "bounds_report", stub)
    matches, annotated = compare_order5(order5_rows())
    row = next(r for r in annotated if r.label == "DFw")
    assert (row.status, row.beta) == ("timeout", None)
    assert row.report == bounds_report(parse_graph6("DFw"), label="DFw")
    assert row.expected is None and len(row.cell_flags) == 1
    assert matches == 20
    assert all(r.status == "ok" and not r.cell_flags for r in annotated if r is not row)


def test_timed_out_bounds_are_not_run_again(monkeypatch):
    # every report times out: an exact one falls back to the bounds once,
    # and a bounds-only one (the n = 36 rows under skip_large) is not rerun
    calls = []

    def stub(G, compute_exact=False, label="", timeout=None):
        calls.append((label, compute_exact))
        raise SolveTimeout("exact solve ran past its deadline")

    monkeypatch.setattr(tables, "bounds_report", stub)
    rows = selected_rows(skip_large=True)
    assert len(calls) == len(set(calls))
    assert ("Rook's graph", False) in calls and ("Rook's graph", True) not in calls
    assert {r.status for r in rows} == {"timeout", "unavailable"}
