"""Published comparison-table values and the machinery to recompute and
diff them.

ORDER5_EXPECTED holds the 21-row order-5 comparison, SELECTED_GRAPHS the
characteristics of the twelve selected graphs, SELECTED_BOUNDS_EXPECTED
their bound comparison.  The published row order for order 5 follows an
external catalogue, so the order-5 comparison is by multiset of value
rows; leftover rows are paired by minimal cell distance for the
discrepancy log.  A few published cells are inconsistent with the stated
definitions (see the discrepancy log output); comparisons flag them
instead of failing.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .bounds import BoundsReport, bounds_report
from .dims import SolveTimeout
from .families import FamilySpec, connected_graphs_of_order, encode_graph6, generate
from .graphs import Graph

# (num, |E|, beta, beta_e, L1, L2, L3, L4, N1, N2, N3, beta_m) as printed
ORDER5_EXPECTED: tuple[tuple[int, ...], ...] = (
    (1, 4, 3, 3, 2, 1, 4, 4, 2, 4, 2, 4),
    (2, 4, 2, 2, 2, 1, 3, 3, 2, 3, 2, 3),
    (3, 5, 2, 3, 2, 1, 4, 4, 2, 4, 2, 4),
    (4, 5, 2, 2, 2, 1, 3, 3, 2, 3, 2, 3),
    (5, 5, 2, 2, 2, 1, 2, 3, 2, 2, 2, 3),
    (6, 6, 2, 3, 2, 1, 3, 4, 2, 4, 2, 4),
    (7, 6, 3, 3, 2, 2, 2, 3, 3, 2, 2, 4),
    (8, 7, 3, 4, 2, 2, 5, 5, 3, 5, 2, 5),
    (9, 4, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2),
    (10, 5, 2, 2, 2, 1, 3, 3, 2, 3, 2, 3),
    (11, 6, 2, 3, 2, 2, 4, 4, 3, 4, 2, 4),
    (12, 6, 2, 3, 2, 1, 4, 4, 2, 4, 2, 4),
    (13, 7, 3, 3, 2, 1, 4, 4, 2, 4, 2, 4),
    (14, 5, 2, 2, 1, 2, 0, 3, 3, 3, 2, 3),
    (15, 6, 2, 2, 2, 2, 1, 3, 3, 3, 2, 3),
    (16, 7, 2, 3, 2, 2, 2, 4, 3, 4, 2, 4),
    (17, 8, 3, 4, 2, 2, 5, 5, 3, 5, 2, 5),
    (18, 7, 2, 3, 2, 2, 3, 4, 3, 3, 2, 4),
    (19, 8, 2, 4, 2, 3, 2, 4, 3, 4, 2, 4),
    (20, 9, 3, 4, 2, 3, 5, 5, 3, 5, 2, 5),
    (21, 10, 4, 4, 2, 3, 5, 5, 4, 5, 3, 5),
)

VALUE_COLUMNS = ("E", "beta", "betaE", "L1", "L2", "L3", "L4", "N1", "N2", "N3", "betaM")


@dataclass(frozen=True)
class SelectedGraph:
    num: int
    name: str
    family: FamilySpec | None  # None: the published row gives no adjacency
    n: int
    m: int
    beta: int
    beta_e: int
    note: str


# characteristics (published |V|, |E|, beta, beta_e) of the selected graphs
SELECTED_GRAPHS: tuple[SelectedGraph, ...] = (
    SelectedGraph(1, "Rook's graph", FamilySpec("rook", (6,)), 36, 180, 7, 8, "srg(36,10,4,2)"),
    SelectedGraph(2, "9-triangular graph", FamilySpec("johnson", (9, 2)), 36, 252, 6, 32, "srg(36,14,7,4)"),
    SelectedGraph(3, "Clebsch graph", FamilySpec("clebsch"), 16, 40, 4, 9, "srg(16,5,0,2)"),
    SelectedGraph(4, "Generalized quadrangle", FamilySpec("gq24"), 27, 135, 5, 18, "srg(27,10,1,5)"),
    SelectedGraph(5, "Hypercube Q5", FamilySpec("hypercube", (5,)), 32, 80, 4, 4, "5-cube"),
    SelectedGraph(6, "Kneser (7,2)", FamilySpec("kneser", (7, 2)), 21, 105, 5, 12, "srg(21,10,3,6)"),
    SelectedGraph(7, "Mobius-Kantor", FamilySpec("gen_petersen", (8, 3)), 16, 24, 4, 4, "GP(8,3)"),
    SelectedGraph(8, "Paley graph", FamilySpec("paley", (13,)), 13, 39, 4, 6, "srg(13,6,2,3)"),
    SelectedGraph(9, "Petersen graph", FamilySpec("gen_petersen", (5, 2)), 10, 15, 3, 4, "GP(5,2)"),
    SelectedGraph(10, "Small graph 6 vert.", None, 6, 11, 3, 4, "adjacency unspecified"),
    SelectedGraph(11, "Hamming H(2,6)", FamilySpec("hamming", (2, 6)), 36, 180, 7, 8, "K6 x K6"),
    SelectedGraph(12, "Hamming H(3,3)", FamilySpec("hamming", (3, 3)), 27, 81, 4, 5, "K3 x K3 x K3"),
)

# (num, L1, L2, L3, L4, N1, N2, N3, beta_m) as printed
SELECTED_BOUNDS_EXPECTED: tuple[tuple[int, ...], ...] = (
    (1, 4, 5, 0, 6, 5, 6, 8, 9),
    (2, 4, 5, 0, 18, 5, 9, 8, 32),
    (3, 3, 4, 0, 4, 4, 5, 5, 9),
    (4, 4, 5, 0, 4, 5, 6, 8, 18),
    (5, 3, 4, 0, 2, 4, 2, 3, 4),
    (6, 4, 5, 0, 4, 5, 6, 6, 12),
    (7, 2, 3, 0, 2, 3, 3, 3, 4),
    (8, 3, 4, 0, 4, 4, 5, 5, 6),
    (9, 2, 3, 0, 4, 3, 4, 4, 6),
    (10, 2, 2, 5, 5, 3, 4, 3, 5),
    (11, 4, 5, 0, 6, 5, 6, 8, 9),
    (12, 3, 4, 0, 3, 4, 3, 4, 6),
)


@dataclass(frozen=True)
class TableRow:
    """One computed comparison row plus its per-cell diff against the
    published values (empty flags = clean match)."""

    label: str
    n: int
    m: int
    report: BoundsReport | None
    beta: int | None
    beta_e: int | None
    beta_m: int | None
    status: str  # "ok" | "timeout" | "unavailable"
    expected: tuple[int, ...] | None = None
    cell_flags: tuple[str, ...] = ()

    def value_tuple(self) -> tuple[int, ...] | None:
        if self.report is None or self.beta is None:
            return None
        return (self.m, self.beta, self.beta_e) + self.report.bound_tuple() + (self.beta_m,)


def _diff_cells(computed: tuple[int, ...], expected: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(
        f"{col}: computed {c} vs published {e}"
        for col, c, e in zip(VALUE_COLUMNS, computed, expected)
        if c != e
    )


def order5_rows(timeout: float | None = None) -> list[TableRow]:
    """Recompute every Table-7 column for the 21 connected order-5 graphs."""
    rows = []
    for g in connected_graphs_of_order(5):
        rep = bounds_report(g, compute_exact=True, label=encode_graph6(g), timeout=timeout)
        rows.append(
            TableRow(
                label=rep.label,
                n=g.n,
                m=g.m,
                report=rep,
                beta=rep.beta,
                beta_e=rep.beta_e,
                beta_m=rep.beta_m,
                status="ok",
            )
        )
    return rows


def compare_order5(rows: list[TableRow]) -> tuple[int, list[TableRow]]:
    """Multiset comparison against ORDER5_EXPECTED.

    Exactly matching rows pair up first; leftovers pair greedily by minimal
    number of differing cells so each discrepancy names concrete cells.
    Returns (number of exact row matches, annotated rows).
    """
    expected = [t[1:] for t in ORDER5_EXPECTED]
    unmatched_exp = list(range(len(expected)))
    annotated: list[TableRow | None] = [None] * len(rows)
    leftovers = []
    for i, row in enumerate(rows):
        values = row.value_tuple()
        hit = next((j for j in unmatched_exp if expected[j] == values), None)
        if hit is not None:
            unmatched_exp.remove(hit)
            annotated[i] = replace(row, expected=expected[hit])
        else:
            leftovers.append(i)
    matches = len(rows) - len(leftovers)
    for i in leftovers:
        values = rows[i].value_tuple()
        best = min(unmatched_exp, key=lambda j: sum(a != b for a, b in zip(values, expected[j])))
        unmatched_exp.remove(best)
        annotated[i] = replace(
            rows[i], expected=expected[best], cell_flags=_diff_cells(values, expected[best])
        )
    return matches, [r for r in annotated if r is not None]


def selected_rows(
    exact_max_n: int = 27,
    timeout: float | None = 1800.0,
    skip_large: bool = False,
    exact_all: bool = False,
) -> list[TableRow]:
    """Recompute the selected-graphs comparison (Tables 8 and 9).

    Exact dimensions run for graphs with n <= exact_max_n (everything when
    exact_all is set); skip_large drops the n = 36 rows from exact solving
    no matter what.  Rows that exceed the per-graph timeout carry status
    "timeout"; the unavailable published row has no graph to compute.  A
    graph equal to one computed before is not solved again.
    """
    out = []
    # Hamming H(2,6) is generated with the very edge list of Rook's graph 6:
    # an equal graph reuses the report computed first, under its own label
    done: dict[tuple[Graph, bool], tuple[BoundsReport, str]] = {}
    for sel, t9 in zip(SELECTED_GRAPHS, SELECTED_BOUNDS_EXPECTED):
        expected = t9[1:]
        if sel.family is None:
            out.append(
                TableRow(
                    label=sel.name,
                    n=sel.n,
                    m=sel.m,
                    report=None,
                    beta=sel.beta,
                    beta_e=sel.beta_e,
                    beta_m=None,
                    status="unavailable",
                    expected=expected,
                    cell_flags=("unavailable: adjacency unspecified in the published source",),
                )
            )
            continue
        G = generate(sel.family)
        want_exact = exact_all or G.n <= exact_max_n
        if skip_large and G.n >= 36:
            want_exact = False
        if (G, want_exact) in done:
            rep, status = done[G, want_exact]
            rep = replace(rep, label=sel.name)
        else:
            status = "ok"
            try:
                rep = bounds_report(G, compute_exact=want_exact, label=sel.name, timeout=timeout)
            except SolveTimeout:
                rep = bounds_report(G, compute_exact=False, label=sel.name, timeout=timeout)
                status = "timeout"
            done[G, want_exact] = rep, status
        computed = rep.bound_tuple() + (rep.beta_m if rep.beta_m is not None else -1,)
        flags = tuple(
            f"{col}: computed {c} vs published {e}"
            for col, c, e in zip(VALUE_COLUMNS[3:], computed, expected)
            if c != e and not (col == "betaM" and rep.beta_m is None)
        )
        if rep.beta is not None and (rep.beta, rep.beta_e) != (sel.beta, sel.beta_e):
            flags += (
                f"beta/betaE: computed {rep.beta}/{rep.beta_e} vs published {sel.beta}/{sel.beta_e}",
            )
        out.append(
            TableRow(
                label=sel.name,
                n=G.n,
                m=G.m,
                report=rep,
                beta=rep.beta,
                beta_e=rep.beta_e,
                beta_m=rep.beta_m,
                status=status,
                expected=expected,
                cell_flags=flags,
            )
        )
    return out
