"""Covering linear program: minimize sum(y) subject to sum(y[v] for v in row) >= 1,
0 <= y <= 1, bounded on both sides in exact arithmetic.

Rows are int masks, bit v for variable v, as everywhere in the package;
masks.rows_of_masks expands them into the 0/1 constraint matrix.  The
upper bounds y <= 1 are dropped: with 0/1 constraint coefficients any
optimum can be capped at 1 without losing feasibility, so the value is
unchanged.  The solver runs a dense tableau simplex on the packing dual
(maximize sum(x), incidence^T x <= 1, x >= 0), whose all-slack basis is
feasible from the start.  Dantzig pivoting with a permanent switch to
Bland's rule after a run of degenerate pivots guarantees termination.

No float is trusted.  The packing is read off the final basis B and the
cover off the reduced costs of the slack columns; by Cramer's rule both
are integer vectors over |det B|, the product of the pivots.  Integer
products check them, and scale each until it is feasible, so
solve_covering_lp returns values lb <= optimum <= ub exactly; L4 is
their common ceiling (bounds._lp_bound), which _packing_lower_bound and
a greedy cover often fix without a tableau.

The program is solved over the orbits of a group that maps the rows onto
themselves, such as a graph's automorphism orbits on its pair-cover rows:
one variable per orbit, weighted by the orbit's size, and one row per
distinct vector of per-orbit counts.  The value is the same, and the
7-cube's 560 rows over 128 variables, where the dense tableau stalls,
become one row over one variable.  With no group given the orbits are the
single variables, whose program is the plain one: its rows are the
incidence rows in order and its costs are all ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .masks import bits_of, reduce_family, rows_of_masks

_PIVOT_EPS = 1e-9
_DEGENERATE_STREAK = 64
_UPDATE_ELEMENTS = 1 << 15
# common denominators below this keep every checked product inside int64
_INT64_DENOMINATOR = 1 << 31


class LPError(RuntimeError):
    """Infeasible covering program (empty row), solver failure, or a
    packing and a cover whose ceilings differ, so that L4 is undecided."""


@dataclass(frozen=True)
class CoveringLP:
    """Normalized covering program over bitmask rows (bit v for variable v):
    rows deduplicated, dominated rows (supersets) removed, every row
    nonempty."""

    num_vars: int
    masks: tuple[int, ...]

    @classmethod
    def build(cls, num_vars: int, masks: Iterable[int]) -> "CoveringLP":
        original = tuple(masks)
        if 0 in original:
            raise LPError("covering program has an empty row (infeasible)")
        if original and (min(original) < 0 or max(original) >> num_vars):
            raise LPError(f"row mask outside variable range 0..{num_vars - 1}")
        return cls(num_vars, tuple(reduce_family(original)))

    @property
    def rows(self) -> tuple[int, ...]:
        """masks itself; read only by perfbench's tracer, for its length."""
        return self.masks


def solve_covering_lp(lp: CoveringLP, orbits: Sequence[int] | None = None) -> tuple[Fraction, Fraction]:
    """Exact bounds lb <= optimum <= ub: lb the value of a checked packing
    and ub that of a checked cover, both read off the simplex's final basis.

    orbits are the orbits (variable masks that partition 0 .. num_vars - 1)
    of a group of permutations that maps the rows onto themselves; None
    stands for the trivial group, whose orbits are the single variables.
    Averaging an optimum over the group keeps it optimal, so some optimum
    is constant on each orbit, and the program is solved with one variable
    per orbit."""
    m = lp.num_vars
    if not lp.masks:
        return Fraction(0), Fraction(0)
    rows = rows_of_masks(lp.masks, m)
    sizes = np.ones(m, dtype=np.int64)
    if orbits is not None and len(orbits) < m:  # over single variables this changes nothing
        # members lists the variables orbit by orbit
        members = np.array([v for o in orbits for v in bits_of(o)])
        sizes = np.array([o.bit_count() for o in orbits])
        # row r becomes r's number of variables in each orbit, the sum of
        # y over r when y is constant on each orbit; a count is at most m,
        # so below 256 variables it takes a byte, as an incidence entry does
        rows = np.add.reduceat(rows[:, members], np.cumsum(sizes) - sizes, axis=1, dtype=np.min_scalar_type(m))
        # rows that the group relates become equal; the first of each stays,
        # told apart by its bytes, since np.unique(axis=0) loads numpy.ma
        keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
        rows = rows[np.sort(np.unique(keys, return_index=True)[1])]
    d, solution = _over_one_denominator(*_packing_dual_simplex(rows, sizes))
    x, y = solution[: len(rows)], solution[len(rows) :]
    # the packing, scaled down until no orbit holds more than its size
    caps, load = np.multiply(sizes, d, dtype=x.dtype), x @ rows
    over = load > caps
    lb = Fraction(int(x.sum()), d)
    if over.any():
        lb *= min(Fraction(int(c), int(f)) for c, f in zip(caps[over], load[over]))
    # the cover, scaled up until every row sums to at least 1
    worst = int((rows @ y).min())
    if worst <= 0:
        raise LPError(f"the simplex's cover misses a row of the program over {m} variables")
    return lb, Fraction(int(sizes @ y), min(worst, d))


def _over_one_denominator(solution: np.ndarray, det: float) -> tuple[int, np.ndarray]:
    """d and the integer vector d*solution for d = |det|, the basis
    determinant; from 2**31 on, the lcm of the entries' denominators under
    Fraction.limit_denominator(10**6), with Python ints past 2**31 too."""
    solution = solution.clip(0)
    if 0.5 <= abs(det) < _INT64_DENOMINATOR:
        d = round(abs(det))
        return d, np.rint(solution * d).astype(np.int64)
    snapped = [Fraction(float(v)).limit_denominator(10**6) for v in solution]
    d = math.lcm(*(f.denominator for f in snapped))
    dtype = np.int64 if d < _INT64_DENOMINATOR else object
    return d, np.array([f.numerator * (d // f.denominator) for f in snapped], dtype=dtype)


def _packing_lower_bound(masks: Sequence[int], num_vars: int) -> Fraction:
    """A lower bound on the covering optimum over rows masks, exactly: the
    larger of two feasible solutions of its packing dual (weak duality).  The
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
    peaks = [max(f[v] for v in row) for row in rows]
    common = math.lcm(*peaks)
    return Fraction(max(disjoint * common, sum(common // p for p in peaks)), common)


def _packing_dual_simplex(incidence: np.ndarray, costs: np.ndarray) -> tuple[np.ndarray, float]:
    """An optimal basic packing x, dual to min costs.y, incidence y >= 1,
    y >= 0, followed by the cover y read off its slack columns, and the
    final basis's determinant, the product of the pivots.  The tableau
    lives only here, so it is freed before the caller checks x and y."""
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
    det = 1.0
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
        det *= float(T[leave, enter])
        row = T[leave] / T[leave, enter]
        for lo in range(0, m + 1, step):
            block = T[lo : lo + step]
            block -= block[:, enter, None] * row
        T[leave] = row  # the pivot row's own update cancelled it
        basis[leave] = enter
    else:
        raise LPError("simplex iteration limit exceeded")
    solution = np.zeros(ncols)
    solution[basis] = rhs
    solution[R:] = T[m, R:ncols]  # the slacks' places hold the cover
    return solution, det
