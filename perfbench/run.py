#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of mixdim.

    python3 perfbench/run.py --workload exact-corpus --seed 1 --seconds 20 --trace 0

--trace 0 times whole rounds of the workload's public calls and prints
the end-to-end metrics.  --trace 1 runs one round with every layer traced
and one without, and prints the per-layer metrics and the tracing
overhead.  Every answer is checked against an independent computation
after the timed rounds.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 when every
operation succeeded and passed its check, 1 when one did not, 2 when the
benchmark could not run at all.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import env

try:
    import mixdim
except ImportError as exc:
    print(f"perfbench: cannot import mixdim from {env.SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if env.SRC not in Path(mixdim.__file__).resolve().parents:
    print(f"perfbench: mixdim was imported from {mixdim.__file__}, not from {env.SRC}", file=sys.stderr)
    sys.exit(2)

import checks  # noqa: E402
import layers  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[section]}


def measure_setup(workload: str, seed: int) -> list[float]:
    """SETUP_REPEATS set-ups in fresh processes, each in reference seconds."""
    out = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(env.BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        ready, probe_s = (float(x) for x in proc.stdout.split())
        out.append((ready - start) * timing.REFERENCE_PROBE_S / probe_s)
    return out


def run_round(wl, speed: timing.HostSpeed) -> list[dict]:
    """One round; each record holds the op, its raw and scaled seconds and
    the exception it raised, if any."""
    records = []
    for op in wl.round():
        error = None
        start = speed.clock()
        try:
            op.result = op.call()
        except Exception:  # a raising call is a failed operation, not the end of the run
            error = traceback.format_exc()
        end = speed.clock()
        speed.between_calls()
        records.append({"op": op, "raw_s": end - start, "start": start, "end": end, "error": error})
    for rec in records:
        rec["s"] = rec["raw_s"] * speed.scale(rec["start"], rec["end"])
    return records


def check_records(wl, records: list[dict]) -> int:
    """Checks every answer; returns the number of failed operations."""
    graphs = [rec["op"].graph for rec in records if rec["error"] is None and rec["op"].graph]
    if graphs:
        wl.checker.prepare(graphs)
    failed = 0
    for rec in records:
        op = rec["op"]
        if rec["error"] is None:
            try:
                op.check(op.result)
            except checks.CheckError as exc:
                rec["error"] = f"check failed: {exc}"
        if rec["error"] is not None:
            failed += 1
            print(f"perfbench: {op.label}: {rec['error']}", file=sys.stderr)
    return failed


def end_to_end(args, wl) -> tuple[dict, list[list[dict]], dict]:
    setup = measure_setup(args.workload, args.seed)
    rounds = []
    with timing.HostSpeed() as speed:
        first = speed.clock()
        while True:
            rounds.append(run_round(wl, speed))
            elapsed = speed.clock() - first
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calls_ms = [rec["s"] * 1e3 for r in rounds for rec in r]
    deciles = statistics.quantiles(calls_ms, n=10)
    metrics = {
        "wall_s": statistics.median(sum(rec["s"] for rec in r) for r in rounds),
        "setup_s": statistics.median(setup),
        "call_p50_ms": statistics.median(calls_ms),
        "call_p90_ms": deciles[8],
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "rounds": len(rounds),
        "wall_raw_s": [sum(rec["raw_s"] for rec in r) for r in rounds],
        "setup_s_samples": setup,
        "median_probe_s": speed.median_probe_s(),
        "calls_beyond_p90": sum(1 for c in calls_ms if c > deciles[8]),
        "call_spans_s": [[rec["start"], rec["end"]] for r in rounds for rec in r],
        "probes_s": speed.samples,
    }
    return metrics, rounds, raw


def per_layer(args) -> tuple[object, dict, list[list[dict]], dict, layers.Tracer]:
    speed = timing.HostSpeed()
    tracer = layers.Tracer(speed.clock)
    tracer.install()
    try:
        wl = workloads.build(args.workload, args.seed)
        with speed:
            traced = run_round(wl, speed)
    finally:
        tracer.uninstall()
    with timing.HostSpeed() as plain_speed:
        plain = run_round(wl, plain_speed)
    traced_s = sum(rec["s"] for rec in traced)
    plain_s = sum(rec["s"] for rec in plain)
    scale = traced_s / sum(rec["raw_s"] for rec in traced)
    metrics = tracer.metrics(scale)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    raw = {"traced_s": traced_s, "untraced_s": plain_s, "backends": list(mixdim.available_backends())}
    return wl, metrics, [traced, plain], raw, tracer


def git_sha() -> str:
    """HEAD of the repository this checkout is the root of, else "unversioned"."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=env.ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unversioned"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != env.ROOT:
        return "unversioned"
    return lines[1]


def write_result(args, summary: dict, raw: dict, tracer) -> None:
    """Per-run result (and span) files under perfbench/results/<git sha>/."""
    out = env.BENCH_DIR / "results" / git_sha()
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(dict(summary, raw=raw), indent=1) + "\n")
    if tracer is not None:
        (out / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0, help="stop starting rounds once they would end after this")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        wl, metrics, rounds, raw, tracer = per_layer(args)
    else:
        wl = workloads.build(args.workload, args.seed)
        metrics, rounds, raw = end_to_end(args, wl)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    records = [rec for r in rounds for rec in r]
    failed = check_records(wl, records)
    summary = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    write_result(args, summary, raw, tracer)
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
