"""The benchmark's per-layer tracer (perfbench/layers.py) still finds every
function it wraps and every counter it reads, so a refactor that renames
or moves one fails here rather than in `perfbench/run.py --trace 1`."""
import sys
import time
from pathlib import Path

import mixdim.bounds as bounds
import mixdim.cover as cover
import mixdim.families as families
import mixdim.torus as torus
from mixdim.cover import CoverInstance
from mixdim.lp import CoveringLP

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402

COUNTERS = ("cover.build.sets_in", "cover.search.nodes", "lp.rows", "dims.levels_tried", "cover.witness.kernel_calls")


def test_tracer_records_every_layer(monkeypatch):
    # the tracer counts kernel nodes off the Python kernel's search objects
    monkeypatch.setattr(cover, "_cover_c", None)
    tracer = layers.Tracer(time.perf_counter)
    tracer.install()
    try:
        # through the module attributes, which install() replaces
        families.connected_graphs_of_order(4)
        bounds.bounds_report(families.generate_named("clebsch"), compute_exact=True)
        torus.torus_theorem_check(3, 4)
    finally:
        tracer.uninstall()
    assert [name for name in layers.SPANS if not tracer.counts[name + ".calls"]] == []
    assert [name for name in COUNTERS if tracer.counts[name] <= 0] == []


def test_tracer_views_are_the_masks():
    # the tracer only counts the sets and rows it reads: its views are the
    # mask tuples themselves, so a traced run builds nothing the untraced
    # run does not
    inst = CoverInstance.build(4, [0b0011, 0b0111, 0b1100, 0b0011])
    assert inst.sets is inst.masks
    assert inst.original_sets is inst.original_masks
    assert (len(inst.sets), len(inst.original_sets)) == (2, 4)
    lp = CoveringLP.build(4, [0b0011, 0b0111, 0b1100])
    assert lp.rows is lp.masks
    assert len(lp.rows) == 2
