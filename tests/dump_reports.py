"""Write every answer of one round of the benchmark's workloads as JSON
lines, so that two commits can be checked for identical answers with one
command each and a diff:

    PYTHONPATH=src python tests/dump_reports.py --kernel python > python.jsonl
    PYTHONPATH=src python tests/dump_reports.py --kernel compiled > compiled.jsonl

The inputs are those perfbench/workloads.py builds: exact-corpus for seeds
7 and 3 (an exact bounds_report on 110 graphs each), order7-census (the
enumerations of orders 5 to 7, then an exact bounds_report on each of their
986 graphs) and torus-sweep (169 torus_theorem_check calls).  A last run,
named, makes a bounds_report without exact values on the graphs whose N2
proofs split deepest (NAMED): the workloads barely reach those splits.  It
also reports on random graphs past 64 vertices (NAMED_RANDOM), whose mixed
families keep thousands of minimal sets of two mask words.
The standalone run calls each public function that no workload calls
alone (STANDALONE) on every selected graph that has an adjacency.
Each line holds the workload, the seed, the call's label and its answer: a
report as dataclasses.asdict, an enumeration as its graphs' graph6 codes,
any other value as it is.
It also holds the call's search effort: kernel_calls and kernel_nodes count
the calls of every solve that cover._kernel hands out, and their nodes, so
one diff shows a change in effort as well as in answers.

--kernel compiled builds mixdim._cover_c the way the test session does
(tests/conftest.py) and stops if it cannot; --kernel python hides it.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from pathlib import Path

import mixdim.cover as cover
from mixdim.bounds import bounds_report, lb_l3, lb_l4, lb_n2, lb_n3
from mixdim.dims import edge_metric_dimension, metric_dimension
from mixdim.families import encode_graph6, generate, generate_named
from mixdim.tables import SELECTED_GRAPHS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

RUNS = (("exact-corpus", 7), ("exact-corpus", 3), ("order7-census", 1), ("torus-sweep", 1))
NAMED = (
    ("hypercube", 6),
    ("hypercube", 7),
    ("kneser", 8, 2),
    ("paley", 29),
    ("johnson", 8, 3),
    ("torus", 8, 8),
    ("hamming", 3, 4),
)
# (seed, n): workloads.random_connected_graph(random.Random(seed), n)
NAMED_RANDOM = ((5, 66), (5, 72))
STANDALONE = (metric_dimension, edge_metric_dimension, lb_l3, lb_l4, lb_n2, lb_n3)


def _answer(result):
    if dataclasses.is_dataclass(result):
        return dataclasses.asdict(result)
    if isinstance(result, list):
        return [encode_graph6(G) for G in result]
    return result


def _count_kernel_calls() -> dict[str, int]:
    """Wrap each solve that cover._kernel returns so that it adds its call
    and its nodes to the dict returned, under either kernel."""
    counts = {"kernel_calls": 0, "kernel_nodes": 0}
    pick = cover._kernel

    def counted_kernel(universe):
        solve = pick(universe)

        def counted(*args):
            out = solve(*args)
            counts["kernel_calls"] += 1
            counts["kernel_nodes"] += out[3]
            return out

        return counted

    cover._kernel = counted_kernel
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernel", choices=("compiled", "python"), required=True)
    args = parser.parse_args(argv)
    if args.kernel == "compiled":
        import conftest  # builds the extension and attaches it to mixdim.cover

        if cover._cover_c is None:
            print(f"compiled kernel not built: {conftest.BUILD_ERROR}", file=sys.stderr)
            return 1
    else:
        cover._cover_c = None
    counts = _count_kernel_calls()

    def emit(line, result):
        print(json.dumps({**line, "answer": _answer(result), **counts}, sort_keys=True))
        counts.update(kernel_calls=0, kernel_nodes=0)

    for name, seed in RUNS:
        for op in workloads.build(name, seed).round():
            # order7-census makes its report calls from the enumerations' results
            op.result = op.call()
            emit({"workload": name, "seed": seed, "label": op.label}, op.result)
    for name, *params in NAMED:
        label = f"{name}:{','.join(map(str, params))}"
        emit({"workload": "named", "label": label}, bounds_report(generate_named(name, *params), label=label))
    for seed, n in NAMED_RANDOM:
        label = f"random:{seed},{n}"
        G = workloads.random_connected_graph(random.Random(seed), n)
        emit({"workload": "named", "label": label}, bounds_report(G, label=label))
    for sel in SELECTED_GRAPHS:
        if sel.family is not None:
            G = generate(sel.family)
            for fn in STANDALONE:
                emit({"workload": "standalone", "label": f"{sel.family.label()}:{fn.__name__}"}, fn(G))
    return 0


if __name__ == "__main__":
    sys.exit(main())
