"""Per-layer tracing of mixdim from outside the package.

Tracer.install() replaces each traced function, wherever a mixdim module
holds it under a name (so at the names the calling modules look up), with
a wrapper that records a span: name, start, end and the enclosing span.
Counters are taken at the same boundaries.  uninstall() puts the original
functions back.  Nothing in src/mixdim is edited.

A span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict

# span name -> (module, attribute) of the traced function
SPANS = {
    "graphs.distances": ("mixdim.graphs", "distances"),
    "families.enumerate": ("mixdim.families", "connected_graphs_of_order"),
    "families.generate": ("mixdim.families", "generate"),
    "dims.masks": ("mixdim.dims", "distinguisher_masks"),
    "dims.forced": ("mixdim.dims", "forced_vertices"),
    "cover.search": ("mixdim.cover", "min_hitting_set"),
    "cover.witness": ("mixdim.cover", "_lex_min_witness"),
    "lp.simplex": ("mixdim.lp", "solve_covering_lp"),
    "bounds.n2": ("mixdim.bounds", "lb_n2"),
    "bounds.report": ("mixdim.bounds", "bounds_report"),
    "torus.verify": ("mixdim.torus", "verify_mixed_resolving"),
}

# every per-layer metric, in the order they are reported
METRICS = (
    "graphs.distances.calls",
    "graphs.distances.ms",
    "families.enumerate.ms",
    "families.generate.ms",
    "dims.masks.calls",
    "dims.masks.ms",
    "dims.forced.calls",
    "dims.forced.ms",
    "dims.levels_tried",
    "dims.levels_useful_ratio",
    "cover.build.calls",
    "cover.build.ms",
    "cover.build.sets_in",
    "cover.build.sets_kept",
    "cover.search.calls",
    "cover.search.ms",
    "cover.search.nodes",
    "cover.witness.ms",
    "cover.witness.kernel_calls",
    "lp.simplex.calls",
    "lp.simplex.ms",
    "lp.rows",
    "bounds.n2.ms",
    "bounds.report.ms",
    "torus.verify.ms",
)


def _mixdim_modules():
    return [m for name, m in sys.modules.items() if name == "mixdim" or name.startswith("mixdim.")]


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []  # (name, start, end, parent index)
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans: [name, start, child seconds, index]
        self._undo: list[tuple[object, str, object]] = []
        self._searches: list = []

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        frame = [name, self.clock(), 0.0, index]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            dur = end - frame[1]
            self.spans[index] = (name, frame[1], end, parent)
            self.self_s[name] += dur - frame[2]
            self.counts[name + ".calls"] += 1
            if self._stack:
                self._stack[-1][2] += dur

    def _in(self, name: str) -> bool:
        return any(f[0] == name for f in self._stack)

    # -- installing -------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in _mixdim_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        import mixdim._cover_py as kernel_mod
        import mixdim.cover as cover_mod
        import mixdim.dims as dims_mod

        for name, (mod_name, attr) in SPANS.items():
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._spanning(name, original))

        # CoverInstance.build: a span plus the family sizes in and out
        build = cover_mod.CoverInstance.__dict__["build"].__func__

        def traced_build(cls, *args, **kwargs):
            inst = self._span("cover.build", build, cls, *args, **kwargs)
            self.counts["cover.build.sets_in"] += len(inst.original_sets)
            self.counts["cover.build.sets_kept"] += len(inst.sets)
            return inst

        self._set(cover_mod.CoverInstance, "build", classmethod(traced_build))

        # deepening levels: one excluded_vertices call per level tried, one
        # mixed_metric_dimension return per level that found the optimum
        excluded = dims_mod.excluded_vertices

        def traced_excluded(*args, **kwargs):
            self.counts["dims.levels_tried"] += 1
            return excluded(*args, **kwargs)

        self._replace_everywhere(excluded, traced_excluded)
        mixed = dims_mod.mixed_metric_dimension

        def traced_mixed(*args, **kwargs):
            out = mixed(*args, **kwargs)
            self.counts["dims.levels_useful"] += 1
            return out

        self._replace_everywhere(mixed, traced_mixed)

        # kernel: calls made from inside the witness search, and the
        # search's recursive steps, read off each _Search object it makes
        solve = kernel_mod.solve
        search_init = kernel_mod._Search.__init__

        def traced_init(obj, *args, **kwargs):
            search_init(obj, *args, **kwargs)
            self._searches.append(obj)

        def traced_solve(*args, **kwargs):
            out = solve(*args, **kwargs)
            if self._in("cover.witness"):
                self.counts["cover.witness.kernel_calls"] += 1
            self.counts["cover.search.nodes"] += sum(s.nodes for s in self._searches)
            self._searches.clear()
            return out

        self._set(kernel_mod._Search, "__init__", traced_init)
        self._set(kernel_mod, "solve", traced_solve)

    def _spanning(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "lp.simplex":
                # rows left after the covering program's own reduction
                self.counts["lp.rows"] += len(args[0].rows)
            return self._span(name, fn, *args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, scale: float) -> dict[str, float]:
        """Every per-layer metric; self times in ms, multiplied by scale
        (the run's reference-seconds factor)."""
        c = self.counts
        out = {}
        for metric in METRICS:
            if metric.endswith(".ms"):
                out[metric] = self.self_s[metric[:-3]] * 1e3 * scale
            elif metric == "dims.levels_useful_ratio":
                tried = c["dims.levels_tried"]
                out[metric] = c["dims.levels_useful"] / tried if tried else 0.0
            else:
                out[metric] = c[metric]
        return out
