"""The benchmark's workloads: their inputs and the public calls they time.

Each workload builds its inputs once (the set-up) and then yields one
round of operations.  An operation is one public mixdim call; the runner
times it, keeps its answer and later hands the answer to the operation's
check.  Calls look their function up in its module at call time, so the
tracer's wrappers are the ones called when tracing is on.
"""
from __future__ import annotations

import dataclasses
import random
from typing import Callable, Iterator

import mixdim.bounds
import mixdim.families
import mixdim.torus
from mixdim import build_graph
from mixdim.tables import SELECTED_GRAPHS

import checks

NAMES = ("exact-corpus", "order7-census", "torus-sweep")

# exact-corpus: seeded random connected graphs next to the selected ones.
# Graph i has 16 + i % 9 vertices and a fixed share of extra edges, so the
# seed changes which graphs are solved but not how large they are.
RANDOM_GRAPHS = 100
RANDOM_ORDERS = range(16, 25)
RANDOM_EXTRA_EDGE_SHARE = 0.08
# Hamming H(2,6) is K6 x K6, generated with the very edge list of Rook's
# graph 6: solving it again would time the same call twice
SKIPPED_SELECTED = ("Hamming H(2,6)",)
# milp takes seconds on these two (3.7 s and 7 s on the reference host),
# so their betaM is checked against the published value alone
MILP_BETA_M_SKIPPED = ("Rook's graph", "Generalized quadrangle")

ENUMERATED_ORDERS = (5, 6, 7)
TORUS_RANGE = range(3, 16)


@dataclasses.dataclass
class Op:
    """One public call.  result is filled in by the runner."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    # (n, edges, milp_beta_m) for ReportChecker.prepare, on bounds_report calls
    graph: tuple | None = None
    result: object = None


def _graph(G) -> tuple[int, list[tuple[int, int]]]:
    return G.n, list(G.edges)


def random_connected_graph(rng: random.Random, n: int):
    """A random spanning tree on n vertices plus a random
    RANDOM_EXTRA_EDGE_SHARE of the other vertex pairs as edges."""
    order = list(range(n))
    rng.shuffle(order)
    tree = set()
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        tree.add((min(a, b), max(a, b)))
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = rng.sample(others, round(RANDOM_EXTRA_EDGE_SHARE * len(others)))
    return build_graph(n, sorted(tree) + extra)


def _report_op(G, label: str, checker: checks.ReportChecker, published=None) -> Op:
    n, edges = _graph(G)
    milp_beta_m = label not in MILP_BETA_M_SKIPPED

    def check(rep):
        checker.check(n, edges, dataclasses.asdict(rep), published, milp_beta_m)

    call = lambda: mixdim.bounds.bounds_report(G, compute_exact=True, label=label)  # noqa: E731
    return Op(label, call, check, (n, edges, milp_beta_m))


class ExactCorpus:
    """bounds_report(G, compute_exact=True) on every selected graph with an
    adjacency, then on RANDOM_GRAPHS seeded random graphs."""

    def __init__(self, seed: int):
        self.checker = checks.ReportChecker()
        self.inputs = [
            (sel.name, mixdim.families.generate(sel.family), checks.PUBLISHED_DIMENSIONS[sel.name])
            for sel in SELECTED_GRAPHS
            if sel.family is not None and sel.name not in SKIPPED_SELECTED
        ]
        rng = random.Random(seed)
        for i in range(RANDOM_GRAPHS):
            n = RANDOM_ORDERS[i % len(RANDOM_ORDERS)]
            self.inputs.append((f"random-{seed}-{i}", random_connected_graph(rng, n), None))

    def round(self) -> Iterator[Op]:
        for label, G, published in self.inputs:
            yield _report_op(G, label, self.checker, published)


class Order7Census:
    """connected_graphs_of_order(k) for k = 5, 6, 7, then an exact
    bounds_report on each graph they return."""

    def __init__(self, seed: int):
        self.checker = checks.ReportChecker()

    def round(self) -> Iterator[Op]:
        enumerations = []
        for k in ENUMERATED_ORDERS:
            op = Op(
                f"connected_graphs_of_order({k})",
                lambda k=k: mixdim.families.connected_graphs_of_order(k),
                lambda graphs, k=k: checks.check_enumeration(k, [_graph(g) for g in graphs]),
            )
            yield op
            enumerations.append(op)
        for op in enumerations:
            for G in op.result or ():
                yield _report_op(G, mixdim.families.encode_graph6(G), self.checker)


class TorusSweep:
    """torus_theorem_check(m, n, exact=(m <= 6 and n <= 6)) for 3 <= m, n <= 15."""

    def __init__(self, seed: int):
        self.checker = checks.TorusChecker()
        self.inputs = [(m, n) for m in TORUS_RANGE for n in TORUS_RANGE]

    def round(self) -> Iterator[Op]:
        for m, n in self.inputs:
            exact = m <= checks.TORUS_EXACT_MAX and n <= checks.TORUS_EXACT_MAX

            def check(rep, m=m, n=n):
                self.checker.check(m, n, dict(dataclasses.asdict(rep), verdict=rep.verdict))

            yield Op(
                f"torus({m},{n})",
                lambda m=m, n=n, exact=exact: mixdim.torus.torus_theorem_check(m, n, exact=exact),
                check,
            )


def build(name: str, seed: int):
    """The workload's inputs: everything that happens before its first timed call."""
    return {"exact-corpus": ExactCorpus, "order7-census": Order7Census, "torus-sweep": TorusSweep}[name](seed)
