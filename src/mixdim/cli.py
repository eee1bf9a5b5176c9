"""Command-line interface.

Subcommands: dims, bounds, table-order5, table-selected, torus, enumerate.
Tables go to stdout (CSV by default, Markdown with --format md), progress
and discrepancy logs to stderr.  Exit codes: 0 success, 1 invalid input,
2 a disconnected graph, or a torus witness that does not resolve (torus).
"""
from __future__ import annotations

import argparse
import csv
import sys

from .bounds import bounds_report
from .cover import SolveTimeout, deadline_after
from .dims import exact_dimensions
from .families import connected_graphs_of_order, encode_graph6, generate, parse_family_spec, parse_graph6
from .graphs import DisconnectedGraphError, Graph, GraphError
from .tables import VALUE_COLUMNS, compare_order5, order5_rows, selected_rows
from .torus import torus_theorem_check

EXIT_OK = 0
EXIT_INVALID = 1
# a disconnected graph, which no landmark set resolves, or a torus witness
# that does not resolve its torus
EXIT_UNRESOLVED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit_table(header: list[str], rows: list[list[str]], fmt: str) -> None:
    if fmt == "csv":
        # a label may hold a comma (Kneser (7,2)): the writer quotes it
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join("---" for _ in header) + "|")
        for row in rows:
            # a graph6 label may hold "|", which would end its cell
            print("| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |")


def _input_graphs(args) -> list[tuple[str, Graph]]:
    if args.graph6:
        return [(args.graph6, parse_graph6(args.graph6))]
    if args.family:
        spec = parse_family_spec(args.family)
        return [(spec.label(), generate(spec))]
    out = []
    with open(args.file, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append((line, parse_graph6(line)))
    if not out:
        raise GraphError(f"no graphs found in {args.file}")
    return out


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", help="one graph6 string")
    src.add_argument("--file", help="file with one graph6 string per line")
    src.add_argument("--family", help="family spec, e.g. torus:4,5 or paley:13")
    p.add_argument("--format", choices=("csv", "md"), default="csv")


def cmd_dims(args) -> int:
    rows = []
    for label, G in _input_graphs(args):
        b, be, bm, _ = exact_dimensions(G, deadline=deadline_after(args.timeout))
        rows.append([label, str(G.n), str(G.m), str(b), str(be), str(bm)])
    _emit_table(["graph", "n", "m", "beta", "betaE", "betaM"], rows, args.format)
    return EXIT_OK


def cmd_bounds(args) -> int:
    header = ["graph", "n", "m", "L1", "L2", "L3", "L4", "N1", "N2", "N3"]
    if args.exact:
        header.append("betaM")
    rows = []
    for label, G in _input_graphs(args):
        rep = bounds_report(G, compute_exact=args.exact, label=label, timeout=args.timeout)
        row = [label, str(G.n), str(G.m)] + [str(v) for v in rep.bound_tuple()]
        if args.exact:
            row.append(str(rep.beta_m))
        rows.append(row)
    _emit_table(header, rows, args.format)
    return EXIT_OK


_TABLE_HEADER = ["graph", "n"] + list(VALUE_COLUMNS)


def _table_row_cells(row) -> list[str]:
    cells = [row.label, str(row.n)] + [_opt(v) for v in row.values]
    if row.status != "ok":  # "timeout" or "unavailable" in place of betaM
        cells[-1] = row.status
    return cells


def _opt(v) -> str:
    return "-" if v is None else str(v)


def cmd_table_order5(args) -> int:
    rows = order5_rows(timeout=args.timeout)
    matches, annotated = compare_order5(rows)
    _emit_table(_TABLE_HEADER, [_table_row_cells(r) for r in annotated], args.format)
    _log(f"order-5 comparison: {matches}/21 rows match the published table exactly")
    for r in annotated:
        for flag in r.cell_flags:
            _log(f"  {r.label}: {flag}")
    return EXIT_OK


def cmd_table_selected(args) -> int:
    rows = selected_rows(timeout=args.timeout)
    _emit_table(_TABLE_HEADER, [_table_row_cells(r) for r in rows], args.format)
    clean = sum(1 for r in rows if not r.cell_flags and r.status == "ok")
    _log(f"selected-graphs comparison: {clean}/{len(rows)} fully clean rows")
    for r in rows:
        if r.status == "timeout":  # values[3] is L1, None when the bounds timed out
            shown = "bounds reported" if r.values[3] is not None else "the bounds timed out too"
            _log(f"  {r.label}: exact solve hit the {args.timeout:g}s guard; {shown}")
        for flag in r.cell_flags:
            _log(f"  {r.label}: {flag}")
    return EXIT_OK


def cmd_torus(args) -> int:
    if args.max is not None:
        if args.m is not None or args.n is not None:
            raise GraphError("torus takes --m and --n, or --max for a sweep, not both")
        if args.max < 3:
            raise GraphError(f"torus needs m, n >= 3, got --max {args.max}")
        pairs = [(m, n) for m in range(3, args.max + 1) for n in range(3, args.max + 1)]
    else:
        if args.m is None or args.n is None:
            raise GraphError("torus needs --m and --n, or --max for a sweep")
        pairs = [(args.m, args.n)]
    header = ["m", "n", "case", "witness", "candidate_valid", "N1", "betaM"]
    rows = []
    all_valid = True
    for m, n in pairs:
        rep = torus_theorem_check(m, n, exact=args.exact, timeout=args.timeout)
        all_valid &= rep.candidate_valid
        rows.append(
            [
                str(m),
                str(n),
                rep.case,
                "/".join(str(v) for v in rep.witness),
                "yes" if rep.candidate_valid else "NO {} and {}".format(*rep.collision),
                str(rep.degree_bound),
                _opt(rep.exact),
            ]
        )
    _emit_table(header, rows, args.format)
    _log(f"torus check: {len(pairs)} pair(s), all candidates valid: {all_valid}")
    return EXIT_OK if all_valid else EXIT_UNRESOLVED


def cmd_enumerate(args) -> int:
    for g in connected_graphs_of_order(args.order):
        print(encode_graph6(g))
    return EXIT_OK


def _seconds(text: str) -> float:
    """Seconds > 0, inf included: a NaN deadline never passes, one <= 0 has passed."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"timeout must be a positive number of seconds, got {text}")
    return value


def _add_timeout(p: argparse.ArgumentParser, help: str = "seconds for each graph, one deadline for the whole call") -> None:
    p.add_argument("--timeout", type=_seconds, default=1800.0, help=help)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mixdim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dims", help="exact beta, betaE, betaM for input graphs")
    _add_input_flags(d)
    _add_timeout(d, "seconds for each graph, one deadline for its beta, betaE and betaM")
    d.set_defaults(fn=cmd_dims)

    b = sub.add_parser("bounds", help="the seven lower bounds, optionally exact betaM")
    _add_input_flags(b)
    b.add_argument("--exact", action="store_true", help="also compute exact dimensions")
    _add_timeout(b)
    b.set_defaults(fn=cmd_bounds)

    for name, fn, text in (
        ("table-order5", cmd_table_order5, "recompute the 21-graph order-5 comparison"),
        ("table-selected", cmd_table_selected, "recompute the selected-graphs comparison, every row solved exactly"),
    ):
        t = sub.add_parser(name, help=text)
        t.add_argument("--format", choices=("csv", "md"), default="csv")
        # a row whose exact report times out reruns its bounds alone
        _add_timeout(t, "seconds for each graph's exact report, and as many again for its bounds when it times out")
        t.set_defaults(fn=fn)

    to = sub.add_parser("torus", help="verify the size-4 torus witnesses")
    to.add_argument("--m", type=int)
    to.add_argument("--n", type=int)
    to.add_argument("--max", type=int, help="sweep all 3 <= m,n <= max, in place of --m and --n")
    to.add_argument("--exact", action="store_true")
    _add_timeout(to, "seconds for each graph's --exact solve, from the start of its check; unused without --exact")
    to.add_argument("--format", choices=("csv", "md"), default="csv")
    to.set_defaults(fn=cmd_torus)

    en = sub.add_parser("enumerate", help="graph6 lines for connected graphs of one order")
    en.add_argument("--order", type=int, required=True)
    en.set_defaults(fn=cmd_enumerate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except DisconnectedGraphError as exc:
        _log(f"error: {exc}")
        return EXIT_UNRESOLVED
    except (ValueError, OSError, SolveTimeout) as exc:  # GraphError is a ValueError
        _log(f"error: {exc}")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
