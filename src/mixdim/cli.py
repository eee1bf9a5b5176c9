"""Command-line interface.

Subcommands: dims, bounds, table-order5, table-selected, torus, enumerate.
Tables go to stdout (CSV by default, Markdown with --format md), progress
and discrepancy logs to stderr.  Exit codes: 0 success, 1 invalid input,
2 disconnected graph or infeasible instance.
"""
from __future__ import annotations

import argparse
import sys

from .bounds import bounds_report
from .dims import SolveTimeout, edge_metric_dimension, metric_dimension, mixed_metric_dimension
from .families import connected_graphs_of_order, encode_graph6, generate, parse_family_spec, parse_graph6
from .graphs import DisconnectedGraphError, Graph, GraphError
from .tables import VALUE_COLUMNS, compare_order5, order5_rows, selected_rows
from .torus import torus_theorem_check

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DISCONNECTED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit_table(header: list[str], rows: list[list[str]], fmt: str) -> None:
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    else:
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join("---" for _ in header) + "|")
        for row in rows:
            print("| " + " | ".join(row) + " |")


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
        b, _ = metric_dimension(G)
        be, _ = edge_metric_dimension(G)
        bm, _ = mixed_metric_dimension(G, timeout=args.timeout)
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
    vals = row.value_tuple()
    if vals is not None:
        return [row.label, str(row.n)] + [str(v) for v in vals]
    cells = [row.label, str(row.n), str(row.m), _opt(row.beta), _opt(row.beta_e)]
    if row.report is not None:
        cells += [str(v) for v in row.report.bound_tuple()]
    else:
        cells += ["-"] * 7
    if row.status == "timeout":
        cells.append("timeout")
    elif row.status == "unavailable":
        cells.append("unavailable")
    else:
        cells.append(_opt(row.beta_m))
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
    rows = selected_rows(
        timeout=args.timeout,
        skip_large=args.skip_large,
        exact_all=args.exact_all,
    )
    _emit_table(_TABLE_HEADER, [_table_row_cells(r) for r in rows], args.format)
    clean = sum(1 for r in rows if not r.cell_flags and r.status == "ok")
    _log(f"selected-graphs comparison: {clean}/{len(rows)} fully clean rows")
    for r in rows:
        if r.status == "timeout":
            _log(f"  {r.label}: exact solve hit the {args.timeout:.0f}s guard; bounds reported")
        for flag in r.cell_flags:
            _log(f"  {r.label}: {flag}")
    return EXIT_OK


def cmd_torus(args) -> int:
    pairs = []
    if args.max is not None:
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
                "yes" if rep.candidate_valid else f"NO {rep.collision}",
                str(rep.degree_bound),
                _opt(rep.exact),
            ]
        )
    _emit_table(header, rows, args.format)
    _log(f"torus check: {sum(1 for _ in pairs)} pair(s), all candidates valid: {all_valid}")
    return EXIT_OK if all_valid else EXIT_DISCONNECTED


def cmd_enumerate(args) -> int:
    for g in connected_graphs_of_order(args.order):
        print(encode_graph6(g))
    return EXIT_OK


def _add_timeout(p: argparse.ArgumentParser, help: str = "seconds for each graph, one deadline for the whole call") -> None:
    p.add_argument("--timeout", type=float, default=1800.0, help=help)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mixdim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dims", help="exact beta, betaE, betaM for input graphs")
    _add_input_flags(d)
    _add_timeout(d, "seconds for each graph's betaM, one deadline for the whole call")
    d.set_defaults(fn=cmd_dims)

    b = sub.add_parser("bounds", help="the seven lower bounds, optionally exact betaM")
    _add_input_flags(b)
    b.add_argument("--exact", action="store_true", help="also compute exact dimensions")
    _add_timeout(b)
    b.set_defaults(fn=cmd_bounds)

    t5 = sub.add_parser("table-order5", help="recompute the 21-graph order-5 comparison")
    t5.add_argument("--format", choices=("csv", "md"), default="csv")
    _add_timeout(t5)
    t5.set_defaults(fn=cmd_table_order5)

    ts = sub.add_parser("table-selected", help="recompute the selected-graphs comparison")
    ts.add_argument("--format", choices=("csv", "md"), default="csv")
    ts.add_argument("--skip-large", action="store_true", help="never solve n = 36 rows exactly")
    ts.add_argument("--exact-all", action="store_true", help="attempt exact dimensions on every row")
    _add_timeout(ts)
    ts.set_defaults(fn=cmd_table_selected)

    to = sub.add_parser("torus", help="verify the size-4 torus witnesses")
    to.add_argument("--m", type=int)
    to.add_argument("--n", type=int)
    to.add_argument("--max", type=int, help="sweep all 3 <= m,n <= max")
    to.add_argument("--exact", action="store_true")
    _add_timeout(to)
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
        return EXIT_DISCONNECTED
    except (ValueError, OSError, SolveTimeout) as exc:  # GraphError is a ValueError
        _log(f"error: {exc}")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
