"""Covering linear program: minimize sum(y) subject to sum(y[v] for v in row) >= 1,
0 <= y <= 1, solved exactly enough for integral lower bounds.

Rows are int masks, bit v for variable v, as everywhere in the package;
masks.rows_of_masks expands them into the 0/1 constraint matrix, which
also serves the final check when the rows handed in are the reduced ones.
The upper bounds y <= 1 are dropped: with 0/1 constraint coefficients any
optimum can be capped at 1 without losing feasibility, so the value is
unchanged.  The solver runs a dense tableau simplex on the packing dual
(maximize sum(x), incidence^T x <= 1, x >= 0), whose all-slack basis is
feasible from the start; the covering solution is recovered from the
reduced costs of the slack columns and re-verified by substitution.
Dantzig pivoting with a permanent switch to Bland's rule after a run of
degenerate pivots guarantees termination.

The program is solved over the orbits of a group that maps the rows onto
themselves, such as a graph's automorphism orbits on its pair-cover rows:
one variable per orbit, weighted by the orbit's size, and one row per
distinct vector of per-orbit counts.  The value is the same, and the
7-cube's 560 rows over 128 variables, where the dense tableau stalls,
become one row over one variable.  With no group given the orbits are the
single variables, whose program is the plain one: its rows are the
incidence rows in order and its costs are all ones.

Many programs need no tableau at all.  _packing_lower_bound returns the
better of two feasible packings, a lower bound on the optimum by weak
duality, and any integer cover is an upper bound: bounds._lp_bound returns
the cover's size for L4 when the two leave it the only integer the
ceiling can take, and runs the simplex otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .masks import bits_of, reduce_family, rows_of_masks, sets_of

ABS_TOL = 1e-7
CEIL_TOL = 1e-6
_PIVOT_EPS = 1e-9
_DEGENERATE_STREAK = 64
_UPDATE_ELEMENTS = 1 << 15


class LPError(RuntimeError):
    """Infeasible covering program (empty row) or solver failure."""


@dataclass(frozen=True)
class CoveringLP:
    """Normalized covering program over bitmask rows (bit v for variable v):
    rows deduplicated, dominated rows (supersets) removed, every row
    nonempty.  original_masks are the rows handed in, against which the
    solution is re-verified."""

    num_vars: int
    masks: tuple[int, ...]
    original_masks: tuple[int, ...]

    @classmethod
    def build(cls, num_vars: int, masks: Iterable[int]) -> "CoveringLP":
        original = tuple(masks)
        if 0 in original:
            raise LPError("covering program has an empty row (infeasible)")
        if original and (min(original) < 0 or max(original) >> num_vars):
            raise LPError(f"row mask outside variable range 0..{num_vars - 1}")
        return cls(num_vars, tuple(reduce_family(original)), original)

    @cached_property
    def rows(self) -> tuple[frozenset[int], ...]:
        """masks as frozensets; read only by perfbench's tracer."""
        return sets_of(self.masks)


def solve_covering_lp_primal(lp: CoveringLP, orbits: Sequence[int] | None = None) -> tuple[float, np.ndarray]:
    """Optimal objective and an optimal fractional selection vector y.

    orbits are the orbits (variable masks that partition 0 .. num_vars - 1)
    of a group of permutations that maps the rows onto themselves; None
    stands for the trivial group, whose orbits are the single variables.
    Averaging an optimum over the group keeps it optimal, so some optimum
    is constant on each orbit, and the program is solved with one variable
    per orbit: y is that optimum."""
    m = lp.num_vars
    if not lp.masks:
        return 0.0, np.zeros(m)
    if orbits is None:
        orbits = [1 << v for v in range(m)]
    # members lists the variables orbit by orbit
    members = np.array([v for o in orbits for v in bits_of(o)])
    sizes = np.array([o.bit_count() for o in orbits])
    incidence = rows_of_masks(lp.masks, m)
    rows = incidence[:, members]
    if len(orbits) < m:  # over single variables both steps change nothing
        # row r becomes r's number of variables in each orbit, the sum of
        # y over r when y is constant on each orbit; a count is at most m,
        # so below 256 variables it takes a byte, as an incidence entry does
        rows = np.add.reduceat(rows, np.cumsum(sizes) - sizes, axis=1, dtype=np.min_scalar_type(m))
        # rows that the group relates become equal; the first of each stays,
        # told apart by its bytes, since np.unique(axis=0) loads numpy.ma
        keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
        rows = rows[np.sort(np.unique(keys, return_index=True)[1])]
    value, z = _packing_dual_simplex(rows, sizes.astype(float))
    y = np.empty(m)
    y[members] = np.repeat(z, sizes)
    total = float(y.sum())
    if abs(total - value) > 1e-6 * max(1.0, abs(value)):
        raise LPError(f"primal recovery mismatch: sum(y)={total} vs optimum {value}")
    if lp.original_masks is not lp.masks:
        incidence = rows_of_masks(lp.original_masks, m)
    bad = (incidence @ y < 1.0 - ABS_TOL).nonzero()[0]
    if bad.size:
        raise LPError(f"recovered selection violates row {list(bits_of(lp.original_masks[bad[0]]))}")
    return value, y


def _packing_lower_bound(masks: Sequence[int], num_vars: int) -> float:
    """A lower bound on the covering optimum over rows masks: the larger of
    two feasible solutions of its packing dual (weak duality).  The
    disjoint packing puts 1 on each row that misses the rows taken before
    it, in the order given; the degree packing puts 1/max(f(e) for e in r)
    on row r, where f(e) counts the rows that hold variable e, so the rows
    that hold e weigh at most f(e) * 1/f(e) = 1 in all."""
    taken = disjoint = 0
    for r in masks:
        if not r & taken:
            taken |= r
            disjoint += 1
    rows = [bits_of(r) for r in masks]
    f = [0] * num_vars
    for row in rows:
        for v in row:
            f[v] += 1
    degree = sum(1.0 / max(f[v] for v in row) for row in rows)
    return max(disjoint, degree)


def _packing_dual_simplex(incidence: np.ndarray, costs: np.ndarray) -> tuple[float, np.ndarray]:
    """Optimum of the packing dual of the covering program min costs.y,
    incidence y >= 1, y >= 0, and the covering solution y read off its
    slack columns.  The tableau lives only here, so it is freed before the
    caller checks y."""
    R, m = incidence.shape
    # packing dual: maximize 1.x  s.t.  incidence^T x + s = costs
    ncols = R + m
    T = np.zeros((m + 1, ncols + 1))
    basis = np.arange(R, R + m)
    T[:m, :R] = incidence.T
    T[basis - R, basis] = 1.0  # the slack columns, an identity
    T[:m, ncols] = costs
    T[m, :R] = -1.0  # reduced costs z_j - c_j with the all-slack basis
    # views that follow the pivots
    obj, rhs = T[m, :ncols], T[:m, ncols]
    no_ratio = np.full(m, np.inf)
    # rows per block of each pivot's rank-one update: the update's
    # temporary is one block, about _UPDATE_ELEMENTS entries on wide
    # tableaus, which bounds the solve's peak memory
    step = max(1, _UPDATE_ELEMENTS // (ncols + 1))

    bland = False
    degenerate_run = 0
    max_iter = 2000 + 40 * (m + R)
    for _ in range(max_iter):
        if bland:
            negs = (obj < -_PIVOT_EPS).nonzero()[0]
            if negs.size == 0:
                break
            enter = int(negs[0])
        else:
            enter = int(obj.argmin())
            if obj[enter] >= -_PIVOT_EPS:
                break
        col = T[:m, enter]
        # rows without a positive entry keep an infinite ratio
        ratios = np.divide(rhs, col, out=no_ratio.copy(), where=col > _PIVOT_EPS)
        best = ratios.min()
        if best == np.inf:
            raise LPError("packing dual is unbounded; covering program malformed")
        # ties among the minimum ratios go to the lowest basis index
        leave = int(np.where(ratios <= best + _PIVOT_EPS, basis, ncols).argmin())
        if best <= _PIVOT_EPS:
            degenerate_run += 1
            if degenerate_run >= _DEGENERATE_STREAK:
                bland = True
        else:
            degenerate_run = 0
        row = T[leave] / T[leave, enter]
        for lo in range(0, m + 1, step):
            block = T[lo : lo + step]
            block -= block[:, enter, None] * row
        T[leave] = row  # the pivot row's own update cancelled it
        basis[leave] = enter
    else:
        raise LPError("simplex iteration limit exceeded")
    return float(T[m, ncols]), np.clip(T[m, R : R + m].copy(), 0.0, None)


def solve_covering_lp(lp: CoveringLP, orbits: Sequence[int] | None = None) -> float:
    """Optimal objective of the covering program, within 1e-7; orbits as
    in solve_covering_lp_primal."""
    return solve_covering_lp_primal(lp, orbits)[0]


def ceil_with_tolerance(x: float) -> int:
    """Smallest integer >= x - 1e-6; guards against float noise like 3.0000001."""
    if x < 0:
        raise ValueError(f"expected a nonnegative value, got {x}")
    return math.ceil(x - CEIL_TOL)
