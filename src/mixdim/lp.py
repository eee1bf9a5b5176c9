"""Covering linear program: minimize sum(y) subject to sum(y[v] for v in row) >= 1,
0 <= y <= 1, solved exactly enough for integral lower bounds.

The upper bounds y <= 1 are dropped: with 0/1 constraint coefficients any
optimum can be capped at 1 without losing feasibility, so the value is
unchanged.  The solver runs a dense tableau simplex on the packing dual
(maximize sum(x), incidence^T x <= 1, x >= 0), whose all-slack basis is
feasible from the start; the covering solution is recovered from the
reduced costs of the slack columns and re-verified by substitution.
Dantzig pivoting with a permanent switch to Bland's rule after a run of
degenerate pivots guarantees termination.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .cover import _bits_of, _mask_of, _reduce_family, _sets_of

ABS_TOL = 1e-7
CEIL_TOL = 1e-6
_PIVOT_EPS = 1e-9
_DEGENERATE_STREAK = 64


class LPError(RuntimeError):
    """Infeasible covering program (empty row) or solver failure."""


@dataclass(frozen=True)
class CoveringLP:
    """Normalized covering program over bitmask rows (bit v for variable v):
    rows deduplicated, dominated rows (supersets) removed, every row
    nonempty.  original_masks are the rows handed in, against which the
    solution is re-verified; rows and original_rows are the same families
    as frozensets."""

    num_vars: int
    masks: tuple[int, ...]
    original_masks: tuple[int, ...]

    @classmethod
    def build(cls, num_vars: int, rows: Iterable[Iterable[int]]) -> "CoveringLP":
        original = []
        for r in rows:
            r = frozenset(r)
            if not r:
                raise LPError("covering program has an empty row (infeasible)")
            for v in r:
                if not 0 <= v < num_vars:
                    raise LPError(f"row element {v} outside variable range 0..{num_vars - 1}")
            original.append(_mask_of(r))
        return cls(num_vars, tuple(_reduce_family(original)), tuple(original))

    @cached_property
    def rows(self) -> tuple[frozenset[int], ...]:
        return _sets_of(self.masks)

    @cached_property
    def original_rows(self) -> tuple[frozenset[int], ...]:
        return _sets_of(self.original_masks)


def solve_covering_lp_primal(lp: CoveringLP) -> tuple[float, np.ndarray]:
    """Optimal objective and an optimal fractional selection vector y."""
    m = lp.num_vars
    R = len(lp.masks)
    if R == 0:
        return 0.0, np.zeros(m)
    # packing dual: maximize 1.x  s.t.  incidence^T x + s = 1
    D = _incidence(lp.masks, m).T
    ncols = R + m
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :R] = D
    T[:m, R : R + m] = np.eye(m)
    T[:m, ncols] = 1.0
    T[m, :R] = -1.0  # reduced costs z_j - c_j with the all-slack basis
    basis = list(range(R, R + m))

    bland = False
    degenerate_run = 0
    max_iter = 2000 + 40 * (m + R)
    for _ in range(max_iter):
        obj = T[m, :ncols]
        if bland:
            negs = np.nonzero(obj < -_PIVOT_EPS)[0]
            if negs.size == 0:
                break
            enter = int(negs[0])
        else:
            enter = int(np.argmin(obj))
            if obj[enter] >= -_PIVOT_EPS:
                break
        col = T[:m, enter]
        pos = np.nonzero(col > _PIVOT_EPS)[0]
        if pos.size == 0:
            raise LPError("packing dual is unbounded; covering program malformed")
        ratios = T[pos, ncols] / col[pos]
        best = ratios.min()
        cand = pos[ratios <= best + _PIVOT_EPS]
        leave = int(min(cand, key=lambda i: basis[i]))
        if best <= _PIVOT_EPS:
            degenerate_run += 1
            if degenerate_run >= _DEGENERATE_STREAK:
                bland = True
        else:
            degenerate_run = 0
        piv = T[leave, enter]
        T[leave] /= piv
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        T -= np.outer(factors, T[leave])
        basis[leave] = enter
    else:
        raise LPError("simplex iteration limit exceeded")

    value = float(T[m, ncols])
    y = np.clip(T[m, R : R + m].copy(), 0.0, None)
    total = float(y.sum())
    if abs(total - value) > 1e-6 * max(1.0, abs(value)):
        raise LPError(f"primal recovery mismatch: sum(y)={total} vs optimum {value}")
    cover = _incidence(lp.original_masks, m) @ y
    bad = np.nonzero(cover < 1.0 - ABS_TOL)[0]
    if bad.size:
        raise LPError(f"recovered selection violates row {list(_bits_of(lp.original_masks[bad[0]]))}")
    return value, y


def _incidence(masks, num_vars: int) -> np.ndarray:
    """0/1 float matrix with one row per mask and one column per variable."""
    out = np.zeros((len(masks), num_vars))
    for j, mask in enumerate(masks):
        out[j, list(_bits_of(mask))] = 1.0
    return out


def solve_covering_lp(lp: CoveringLP) -> float:
    """Optimal objective of the covering program, within 1e-7."""
    return solve_covering_lp_primal(lp)[0]


def ceil_with_tolerance(x: float) -> int:
    """Smallest integer >= x - 1e-6; guards against float noise like 3.0000001."""
    if x < 0:
        raise ValueError(f"expected a nonnegative value, got {x}")
    return math.ceil(x - CEIL_TOL)
