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
    rows = selected_rows()
    with_adjacency = [sel.name for sel in SELECTED_GRAPHS if sel.family is not None]
    assert len(with_adjacency) == 11
    assert len(calls) == 10
    assert "Hamming H(2,6)" not in calls
    by_label = {r.label: r for r in rows}
    assert [r.label for r in rows] == [sel.name for sel in SELECTED_GRAPHS]
    rook, hamming = by_label["Rook's graph"], by_label["Hamming H(2,6)"]
    assert hamming.values == rook.values == (180, None, None, 0, 0, 0, 0, 0, 0, 0, 180)
    assert hamming.status == rook.status == "ok"


def test_selected_rows_survive_timed_out_bounds():
    # past the deadline from the start, every exact report and every
    # bounds-only fallback times out: each row is kept with |E| alone
    rows = selected_rows(timeout=1e-9)
    assert [r.label for r in rows] == [sel.name for sel in SELECTED_GRAPHS]
    for row, sel in zip(rows, SELECTED_GRAPHS):
        if row.status != "unavailable":
            assert (row.status, row.values, row.cell_flags) == ("timeout", (sel.m,) + (None,) * 10, ())


def test_selected_rows_flag_the_published_cells():
    # every selected row is solved exactly; the flags name the published
    # cells that disagree with the stated definitions, and nothing else
    rows = selected_rows()
    flags = {r.label: r.cell_flags for r in rows if r.cell_flags}
    assert flags == {
        "Generalized quadrangle": ("L4: computed 7 vs published 4", "N3: computed 7 vs published 8"),
        "Kneser (7,2)": ("L4: computed 6 vs published 4",),
        "Small graph 6 vert.": ("unavailable: adjacency unspecified in the published source",),
    }
    assert sum(r.status == "ok" and not r.cell_flags for r in rows) == 9
    assert all(None not in r.values for r in rows if r.status == "ok")


def test_selected_beta_mismatch_is_flagged_per_cell(monkeypatch):
    # a computed beta that disagrees with the published one is flagged in
    # its own cell, like any other column
    def stub(G, compute_exact=False, label="", timeout=None):
        if label != "Petersen graph":
            raise SolveTimeout("exact solve ran past its deadline")
        rep = bounds_report(G, compute_exact=compute_exact, label=label, timeout=timeout)
        return replace(rep, beta=rep.beta + 1)

    monkeypatch.setattr(tables, "bounds_report", stub)
    row = next(r for r in selected_rows() if r.label == "Petersen graph")
    assert row.status == "ok"
    assert row.cell_flags == ("beta: computed 4 vs published 3",)


def test_order5_rows_survive_timed_out_bounds():
    # past the deadline from the start, every row times out with |E| alone,
    # stays unpaired in the comparison and is flagged
    rows = order5_rows(timeout=1e-9)
    assert len(rows) == 21
    assert {(r.status, r.values[1:]) for r in rows} == {("timeout", (None,) * 10)}
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
    rep = bounds_report(parse_graph6("DFw"), label="DFw")
    assert row.status == "timeout"
    assert row.values == (rep.m, None, None, *rep.bound_tuple(), None)
    assert row.expected is None and len(row.cell_flags) == 1
    assert matches == 20
    assert all(r.status == "ok" and not r.cell_flags for r in annotated if r is not row)


def test_timed_out_bounds_are_not_run_again(monkeypatch):
    # every report times out: each distinct graph's exact report falls back
    # to the bounds once, and neither is rerun for an equal graph
    calls = []

    def stub(G, compute_exact=False, label="", timeout=None):
        calls.append((label, compute_exact))
        raise SolveTimeout("exact solve ran past its deadline")

    monkeypatch.setattr(tables, "bounds_report", stub)
    rows = selected_rows()
    assert len(calls) == len(set(calls)) == 20
    assert [c for c in calls if c[0] == "Rook's graph"] == [("Rook's graph", True), ("Rook's graph", False)]
    assert not any(label == "Hamming H(2,6)" for label, _ in calls)
    assert {r.status for r in rows} == {"timeout", "unavailable"}
