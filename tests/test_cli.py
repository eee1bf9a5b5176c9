import csv
import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

import mixdim.tables as tables
import mixdim.torus
from mixdim.bounds import bounds_report
from mixdim.cli import EXIT_INVALID, EXIT_OK, EXIT_UNRESOLVED as EXIT_DISCONNECTED, main
from mixdim.cover import SolveTimeout
from mixdim.torus import CASE_ODD_ODD, TorusCase


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_dims_family_path5():
    code, out, _ = run_cli("dims", "--family", "path:5")
    assert code == EXIT_OK
    assert out.splitlines() == ["graph,n,m,beta,betaE,betaM", "path:5,5,4,1,1,2"]


def test_dims_graph6_k2():
    code, out, _ = run_cli("dims", "--graph6", "A_")
    assert code == EXIT_OK
    assert out.splitlines()[1] == "A_,2,1,1,1,2"


def test_dims_family_torus():
    code, out, _ = run_cli("dims", "--family", "torus:3,3")
    assert code == EXIT_OK
    assert out.splitlines()[1].endswith(",4")


def test_bounds_petersen_exact():
    code, out, _ = run_cli("bounds", "--family", "gen_petersen:5,2", "--exact")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "graph,n,m,L1,L2,L3,L4,N1,N2,N3,betaM",
        "gen_petersen:5-2,10,15,2,3,0,4,3,4,4,6",
    ]


def test_bounds_hypercube_exact():
    code, out, _ = run_cli("bounds", "--family", "hypercube:5", "--exact")
    assert code == EXIT_OK
    row = out.splitlines()[1].split(",")
    assert row[7] == "4"  # N1
    assert row[-1] == "4"  # betaM


def test_bounds_fig1_graph6():
    code, out, _ = run_cli("bounds", "--graph6", "DzW", "--exact")
    assert code == EXIT_OK
    assert out.splitlines()[1] == "DzW,5,7,2,2,5,5,3,5,2,5"


def test_markdown_format():
    code, out, _ = run_cli("dims", "--family", "path:3", "--format", "md")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("| graph |")
    assert "| path:3 | 3 | 2 | 1 | 1 | 2 |" in lines


def test_markdown_escapes_a_bar_in_a_label():
    # 40 of the 853 order-7 graph6 codes hold "|", which would end a cell
    code, out, _ = run_cli("bounds", "--graph6", "F?@|o", "--format", "md")
    assert code == EXIT_OK
    lines = out.splitlines()
    cells = [len(re.split(r"(?<!\\)\|", line)) for line in lines]
    assert cells == [cells[0]] * len(lines)
    assert lines[2].startswith("| F?@\\|o | 7 |")
    # CSV needs no escape
    code, out, _ = run_cli("bounds", "--graph6", "F?@|o")
    assert out.splitlines()[1].startswith("F?@|o,7,")


def test_file_input(tmp_path):
    p = tmp_path / "graphs.g6"
    p.write_text("A_\nBw\n")
    code, out, _ = run_cli("dims", "--file", str(p))
    assert code == EXIT_OK
    assert len(out.splitlines()) == 3


def test_exit_invalid_on_bad_graph6():
    code, _, err = run_cli("dims", "--graph6", "A")
    assert code == EXIT_INVALID
    assert "error" in err


def test_exit_invalid_on_bad_family():
    code, _, _ = run_cli("dims", "--family", "nosuch:3")
    assert code == EXIT_INVALID


def test_exit_disconnected():
    # "A?" is two vertices and no edge
    code, _, err = run_cli("dims", "--graph6", "A?")
    assert code == EXIT_DISCONNECTED
    assert "disconnected" in err


def test_enumerate_counts_and_determinism():
    code, out3, _ = run_cli("enumerate", "--order", "3")
    assert code == EXIT_OK
    assert len(out3.splitlines()) == 2
    code, out5a, _ = run_cli("enumerate", "--order", "5")
    _, out5b, _ = run_cli("enumerate", "--order", "5")
    assert len(out5a.splitlines()) == 21
    assert out5a == out5b


def test_enumerate_rejects_large():
    code, _, _ = run_cli("enumerate", "--order", "8")
    assert code == EXIT_INVALID


def test_torus_single_pair():
    code, out, err = run_cli("torus", "--m", "5", "--n", "5")
    assert code == EXIT_OK
    assert "yes" in out
    assert "all candidates valid: True" in err


def test_torus_sweep():
    code, out, _ = run_cli("torus", "--max", "5")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 1 + 9  # header + 3..5 squared


def test_torus_prints_the_colliding_items_of_an_invalid_candidate(monkeypatch):
    # vertex 0 and the edge (0, 2) have the same vector over 0, 1, 3, 4
    square = TorusCase(3, 3, CASE_ODD_ODD, ((0, 0), (0, 1), (1, 0), (1, 1)))
    monkeypatch.setattr(mixdim.torus, "torus_candidate", lambda m, n: square)
    code, out, err = run_cli("torus", "--m", "3", "--n", "3")
    assert code == EXIT_DISCONNECTED
    assert list(csv.reader(io.StringIO(out)))[1] == ["3", "3", "odd-odd", "0/1/3/4", "NO 0 and (0, 2)", "4", "-"]
    assert "all candidates valid: False" in err


def test_torus_rejects_small():
    code, _, _ = run_cli("torus", "--m", "2", "--n", "5")
    assert code == EXIT_INVALID
    # a sweep bound below 3 would sweep nothing
    code, out, err = run_cli("torus", "--max", "2")
    assert code == EXIT_INVALID
    assert out == ""
    assert "torus needs m, n >= 3" in err


def test_torus_rejects_a_pair_with_a_sweep():
    # the sweep would check other pairs than the one asked for
    for pair in (("--m", "3", "--n", "4"), ("--m", "3"), ("--n", "4")):
        code, out, err = run_cli("torus", *pair, "--max", "3")
        assert code == EXIT_INVALID
        assert out == ""
        assert "not both" in err


def test_table_order5():
    code, out, err = run_cli("table-order5")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 22  # header + 21 rows
    assert lines[0] == "graph,n,E,beta,betaE,L1,L2,L3,L4,N1,N2,N3,betaM"
    # the 7-edge graph with dims 3/4/5 is present and carries N2=5
    assert any(l.endswith(",5,7,3,4,2,2,5,5,3,5,2,5") for l in lines[1:])
    assert all(int(l.split(",")[-1]) >= max(int(v) for v in l.split(",")[5:12]) for l in lines[1:])
    assert "rows match the published table" in err
    # determinism: a second run is byte-identical
    _, out2, _ = run_cli("table-order5")
    assert out == out2


def test_table_order5_survives_timed_out_bounds():
    code, out, err = run_cli("table-order5", "--timeout", "1e-9")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 22
    assert all(l.endswith(",-,-,-,-,-,-,-,timeout") for l in lines[1:])
    assert "0/21 rows match the published table" in err


def test_table_selected_fast_subset():
    # every row is solved exactly, each under a small guard
    code, out, err = run_cli("table-selected", "--timeout", "120")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 13
    assert "Paley graph,13,39,4,6,3,4,0,4,4,5,5,6" in lines
    assert any("Hamming H(3,3)" in l and l.endswith(",4,6") for l in lines)
    unavailable = [l for l in lines if "unavailable" in l or "Small graph" in l]
    assert unavailable


def test_table_selected_survives_timed_out_bounds():
    # the bounds-only fallback of a timed-out exact solve can time out too:
    # such a row prints "-" cells and the command still succeeds
    code, out, err = run_cli("table-selected", "--timeout", "1e-9")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 13
    assert "Petersen graph,10,15,-,-,-,-,-,-,-,-,-,timeout" in lines
    assert "Petersen graph: exact solve hit the 1e-09s guard; the bounds timed out too" in err
    assert "bounds reported" not in err


def test_table_selected_csv_has_one_field_per_column():
    # three labels hold a comma, e.g. "Kneser (7,2)": they are quoted, so a
    # CSV reader finds the header's 13 fields on every row
    code, out, _ = run_cli("table-selected", "--timeout", "1e-9")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 13
    assert {len(row) for row in rows} == {len(rows[0])} == {13}
    assert [row[0] for row in rows if "," in row[0]] == ["Kneser (7,2)", "Hamming H(2,6)", "Hamming H(3,3)"]


def test_table_selected_logs_bounds_kept_after_a_timeout(monkeypatch):
    # every exact solve times out but the bounds do not: each row prints its
    # bounds, "timeout" in the betaM cell, and the log says so
    def stub(G, compute_exact=False, label="", timeout=None):
        if compute_exact:
            raise SolveTimeout("exact solve ran past its deadline")
        return bounds_report(G, label=label, timeout=timeout)

    monkeypatch.setattr(tables, "bounds_report", stub)
    code, out, err = run_cli("table-selected", "--timeout", "5")
    assert code == EXIT_OK
    assert "Petersen graph,10,15,-,-,2,3,0,4,3,4,4,timeout" in out.splitlines()
    assert "Petersen graph: exact solve hit the 5s guard; bounds reported" in err
    assert "the bounds timed out too" not in err


def test_timeout_must_be_positive(capsys):
    # NaN never expires and 0 or less expires at once: both are rejected
    # when the arguments are parsed
    for value in ("nan", "0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["dims", "--family", "cycle:5", "--timeout", value])
        assert exc.value.code == EXIT_INVALID, value
        assert "timeout must be a positive number of seconds" in capsys.readouterr().err


def test_timeout_may_be_infinite():
    code, out, _ = run_cli("dims", "--family", "path:2", "--timeout", "inf")
    assert code == EXIT_OK
    assert out.splitlines()[1] == "path:2,2,1,1,1,2"
