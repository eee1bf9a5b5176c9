"""Compare the search effort of two tests/dump_reports.py outputs, call by
call, and print it as Markdown:

    python tests/effort_diff.py base.jsonl head.jsonl

Lines pair up by workload, seed and label.  The first table gives each
workload's kernel calls and nodes on both sides; the second lists the calls
whose kernel_calls or kernel_nodes changed, the largest node change first.
A change that keeps the search tree shows no row there, and one that
changes it shows where the effort moved.  Answers are not compared: the
pull-request check does that with cmp.
"""
from __future__ import annotations

import json
import sys
from collections import Counter

MAX_ROWS = 40


def _effort(path: str) -> dict[tuple, tuple[int, int]]:
    """(workload, seed, label, occurrence) -> (kernel_calls, kernel_nodes)."""
    out = {}
    seen: Counter = Counter()
    with open(path) as lines:
        for line in lines:
            row = json.loads(line)
            key = (row["workload"], row.get("seed"), row["label"])
            out[(*key, seen[key])] = (row["kernel_calls"], row["kernel_nodes"])
            seen[key] += 1
    return out


def summary(base_path: str, head_path: str) -> str:
    base, head = _effort(base_path), _effort(head_path)
    workloads: dict[str, list[int]] = {}
    for side, effort in enumerate((base, head)):
        for (workload, *_), (calls, nodes) in effort.items():
            totals = workloads.setdefault(workload, [0, 0, 0, 0])
            totals[side] += calls
            totals[2 + side] += nodes
    out = [
        "### Kernel effort against the base commit",
        "",
        "| workload | calls, base | calls, head | nodes, base | nodes, head |",
        "|---|---:|---:|---:|---:|",
    ]
    out += [f"| {w} | {t[0]:,} | {t[1]:,} | {t[2]:,} | {t[3]:,} |" for w, t in workloads.items()]
    changed = sorted(
        (key for key in base.keys() | head.keys() if base.get(key) != head.get(key)),
        key=lambda key: -abs((head.get(key) or (0, 0))[1] - (base.get(key) or (0, 0))[1]),
    )
    out += ["", f"{len(changed)} of {len(base.keys() | head.keys())} calls changed their effort."]
    if changed:
        out += ["", "| workload | seed | label | kernel calls | kernel nodes |", "|---|---|---|---|---|"]
        for key in changed[:MAX_ROWS]:
            b, h = base.get(key, ("-", "-")), head.get(key, ("-", "-"))
            out.append(f"| {key[0]} | {key[1] if key[1] is not None else ''} | {key[2]} | {b[0]} → {h[0]} | {b[1]} → {h[1]} |")
        if len(changed) > MAX_ROWS:
            out.append(f"| … {len(changed) - MAX_ROWS} more | | | | |")
    return "\n".join(out)


if __name__ == "__main__":
    print(summary(*sys.argv[1:3]))
