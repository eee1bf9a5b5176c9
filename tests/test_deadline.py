"""A timeout is one deadline for the whole public call.

A fake monotonic clock makes every hitting-set solve take STEP seconds, so
each solve fits the budget alone while the call's solves together do not.
The clock runs ahead of the real one, so no deadline expires early.
"""
import time

import pytest

import mixdim.bounds as bounds
import mixdim.dims as dims
from mixdim.bounds import bounds_report
from mixdim.cover import min_hitting_set
from mixdim.dims import SolveTimeout, mixed_metric_dimension
from mixdim.families import generate_named

STEP = 10.0
BUDGET = 25.0  # two solves fit, three do not


@pytest.fixture
def solves(monkeypatch):
    """Each min_hitting_set call advances the clock by STEP; returns the
    list of calls made."""
    calls = []
    offset = [0.0]
    real = time.monotonic
    monkeypatch.setattr(time, "monotonic", lambda: real() + offset[0])

    def slow(*args, **kwargs):
        offset[0] += STEP
        calls.append(args[0])
        return min_hitting_set(*args, **kwargs)

    for mod in (dims, bounds):
        monkeypatch.setattr(mod, "min_hitting_set", slow)
    return calls


def petersen():
    return generate_named("gen_petersen", 5, 2)


def test_each_solve_fits_alone(solves):
    # deepening from 3 to 6: four levels plus the forced-structure bound
    assert mixed_metric_dimension(petersen(), timeout=10 * BUDGET)[0] == 6
    assert len(solves) >= 3


def test_mixed_levels_share_one_deadline(solves):
    with pytest.raises(SolveTimeout):
        mixed_metric_dimension(petersen(), timeout=BUDGET)
    assert len(solves) <= 3  # stops at the first solve past the deadline


def test_bounds_report_solves_share_one_deadline(solves):
    with pytest.raises(SolveTimeout):
        bounds_report(petersen(), compute_exact=True, timeout=BUDGET)
    assert len(solves) <= 3  # stops at the first solve past the deadline
