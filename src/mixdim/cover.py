"""Exact minimum hitting set / set cover engine.

A CoverInstance is a family of subsets of a small integer universe, kept
as bitmasks, plus optional forced and excluded elements.  min_hitting_set returns the exact
optimum together with the lexicographically smallest minimum witness, a
"greater than cutoff" verdict, an infeasibility verdict naming a set that
cannot be hit, or a timeout.

Two interchangeable kernels do the search: a compiled extension
(mixdim._cover_cy, universes up to 64 elements) and a pure-Python twin.
The compiled one is picked automatically when available; results are
identical by construction.  perfbench/README.md describes the end-to-end
benchmark that times this module as one layer of the exact solves.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from . import _cover_py

try:
    from . import _cover_cy  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - build without the extension
    _cover_cy = None

OPTIMAL = "optimal"
CUTOFF_EXCEEDED = "cutoff_exceeded"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"

_COMPILED_MAX_UNIVERSE = 64


def available_backends() -> tuple[str, ...]:
    return ("compiled", "python") if _cover_cy is not None else ("python",)


def _kernel(universe: int, backend: str | None):
    if backend in (None, "auto"):
        backend = "compiled" if (_cover_cy is not None and universe <= _COMPILED_MAX_UNIVERSE) else "python"
    if backend == "compiled":
        if _cover_cy is None:
            raise RuntimeError("compiled cover kernel is not available")
        if universe > _COMPILED_MAX_UNIVERSE:
            raise ValueError(f"compiled cover kernel supports universes up to {_COMPILED_MAX_UNIVERSE}")
        return _cover_cy.solve
    if backend == "python":
        return _cover_py.solve
    raise ValueError(f"unknown backend {backend!r}")


def _mask_of(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def _bits_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def _sets_of(masks: Iterable[int]) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(_bits_of(m)) for m in masks)


# below this many distinct masks the plain loop beats numpy's call overhead
_VECTOR_REDUCE_MIN = 64


def _reduce_family(masks: Iterable[int]) -> list[int]:
    """Deduplicate and drop supersets (hitting a subset hits its supersets).

    Deterministic output order: ascending (popcount, mask value).  Masks
    must be nonnegative.
    """
    uniq = set(masks)
    if len(uniq) >= _VECTOR_REDUCE_MIN and max(uniq) < 1 << 64:
        return _reduce_family_uint64(uniq)
    kept: list[int] = []
    for m in sorted(uniq, key=lambda m: (m.bit_count(), m)):
        if not any(km & m == km for km in kept):
            kept.append(m)
    return kept


def _reduce_family_uint64(uniq: set[int]) -> list[int]:
    """_reduce_family for 64-bit masks: the front mask of the sorted array
    is always kept (nothing before it is its subset) and drops its
    supersets from the rest in one vector operation."""
    arr = np.fromiter(uniq, dtype=np.uint64, count=len(uniq))
    arr.sort()
    arr = arr[np.argsort(np.bitwise_count(arr), kind="stable")]
    kept = []
    while arr.size:
        m = arr[0]
        kept.append(m)
        rest = arr[1:]
        arr = rest[(rest & m) != m]
    return [int(m) for m in kept]


@dataclass(frozen=True)
class CoverInstance:
    """Normalized hitting-set instance over bitmask sets.

    masks holds the reduced family (deduplicated, no supersets, ascending
    popcount then value, with 0 first when some input set was empty); the
    family handed in is kept in original_masks for post-hoc witness checks.
    The reduction ignores forced and excluded, so instances that differ only
    in those share their family (dataclasses.replace).  Empty input sets are
    legal at construction and surface as an infeasibility verdict when
    solving.  sets and original_sets are the same families as frozensets.
    """

    universe_size: int
    masks: tuple[int, ...]
    forced: frozenset[int] = frozenset()
    excluded: frozenset[int] = frozenset()
    original_masks: tuple[int, ...] = field(default=(), compare=False, repr=False)

    @classmethod
    def build(
        cls,
        universe_size: int,
        sets: Iterable[Iterable[int]] = (),
        forced: Iterable[int] = (),
        excluded: Iterable[int] = (),
        *,
        masks: Iterable[int] | None = None,
    ) -> "CoverInstance":
        """Reduce a family given as element sets or, with masks, as bitmasks
        (bit e set for element e); give one of the two."""
        if universe_size < 0:
            raise ValueError("universe size must be nonnegative")
        if masks is None:
            original = []
            for s in sets:
                s = frozenset(s)
                for e in s:
                    if not 0 <= e < universe_size:
                        raise ValueError(f"set element {e} outside universe 0..{universe_size - 1}")
                original.append(_mask_of(s))
        else:
            original = list(masks)
            if original and (min(original) < 0 or max(original) >> universe_size):
                raise ValueError(f"set mask outside universe 0..{universe_size - 1}")
        fset = frozenset(forced)
        xset = frozenset(excluded)
        for e in fset | xset:
            if not 0 <= e < universe_size:
                raise ValueError(f"element {e} outside universe 0..{universe_size - 1}")
        if fset & xset:
            raise ValueError(f"forced and excluded overlap: {sorted(fset & xset)}")
        reduced = _reduce_family(m for m in original if m)
        if 0 in original:
            reduced.insert(0, 0)
        return cls(universe_size, tuple(reduced), fset, xset, tuple(original))

    @cached_property
    def sets(self) -> tuple[frozenset[int], ...]:
        return _sets_of(self.masks)

    @cached_property
    def original_sets(self) -> tuple[frozenset[int], ...]:
        return _sets_of(self.original_masks)

    @property
    def num_sets(self) -> int:
        return len(self.masks)


@dataclass(frozen=True)
class CoverResult:
    status: str
    size: int | None = None
    witness: tuple[int, ...] | None = None
    infeasible_set: frozenset[int] | None = None

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def deadline_after(timeout: float | None) -> float | None:
    """Absolute time.monotonic() deadline timeout seconds from now."""
    return None if timeout is None else time.monotonic() + timeout


def deadline_passed(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() > deadline


def _prepare(inst: CoverInstance) -> tuple[list[int], int, int] | CoverResult:
    """Apply excluded/forced to the reduced family.

    Returns (residual masks, forced_mask, excluded_mask) or an infeasibility
    verdict if some set has no hittable element left.
    """
    xmask = _mask_of(inst.excluded)
    fmask = _mask_of(inst.forced)
    residual = []
    for m in inst.masks:
        r = m & ~xmask
        if r == 0:
            return CoverResult(INFEASIBLE, infeasible_set=frozenset(_bits_of(m)))
        if not r & fmask:
            residual.append(r)
    # dropping sets keeps a reduced family reduced; trimming elements may not
    return (_reduce_family(residual) if xmask else residual), fmask, xmask


def _validate_witness(inst: CoverInstance, witness: tuple[int, ...]) -> None:
    wmask = _mask_of(witness)
    fmask = _mask_of(inst.forced)
    if fmask & ~wmask:
        raise RuntimeError("internal error: witness misses forced elements")
    if wmask & _mask_of(inst.excluded):
        raise RuntimeError("internal error: witness touches excluded elements")
    for m in inst.original_masks or inst.masks:
        if m and not m & wmask:
            raise RuntimeError(f"internal error: witness fails to hit {list(_bits_of(m))}")


def min_hitting_set(
    inst: CoverInstance,
    cutoff: int | None = None,
    lower_bound: int = 0,
    timeout: float | None = None,
    backend: str | None = None,
    deadline: float | None = None,
) -> CoverResult:
    """Exact minimum hitting set honoring forced and excluded elements.

    The witness is the lexicographically smallest among all minimum-size
    solutions.  lower_bound, when given, must be a valid bound for the
    instance; the search then stops as soon as a matching solution is
    found.  With a cutoff c, an optimum above c yields CUTOFF_EXCEEDED.
    The search and the witness share one deadline: timeout seconds from
    now, or the absolute time.monotonic() value deadline that a caller
    shares across several solves.
    """
    if deadline is None:
        deadline = deadline_after(timeout)
    prep = _prepare(inst)
    if isinstance(prep, CoverResult):
        return prep
    if deadline_passed(deadline):
        return CoverResult(TIMEOUT)
    masks, fmask, xmask = prep
    kernel = _kernel(inst.universe_size, backend)
    base = len(inst.forced)
    if cutoff is not None and base > cutoff:
        return CoverResult(CUTOFF_EXCEEDED)
    if not masks:
        return CoverResult(OPTIMAL, base, tuple(sorted(inst.forced)))

    res_cutoff = None if cutoff is None else cutoff - base
    res_stop = max(lower_bound - base, 0)
    status, size, _mask = kernel(inst.universe_size, masks, res_cutoff, res_stop, deadline)
    if status == _cover_py.STATUS_TIMEOUT:
        return CoverResult(TIMEOUT)
    if status == _cover_py.STATUS_CUTOFF:
        return CoverResult(CUTOFF_EXCEEDED)
    total = base + size

    witness = _lex_min_witness(inst, masks, fmask, xmask, total, kernel, deadline)
    if witness is None:
        return CoverResult(TIMEOUT)
    _validate_witness(inst, witness)
    return CoverResult(OPTIMAL, total, witness)


def _lex_min_witness(
    inst: CoverInstance,
    masks: list[int],
    fmask: int,
    xmask: int,
    total: int,
    kernel,
    deadline: float | None,
) -> tuple[int, ...] | None:
    """Build the lexicographically smallest solution of the known optimal size.

    Fixes members left to right: a candidate v extends the prefix iff a
    solution of the optimal size exists that contains the prefix, v and the
    forced elements while avoiding everything smaller that was passed over.
    Rejected candidates can never appear in the lex-minimum, so each element
    is tested at most once overall.
    """
    u = inst.universe_size
    chosen = 0
    banned = xmask
    count = 0
    forced_left = fmask
    while count < total:
        lo = chosen.bit_length()  # candidates must exceed the largest chosen
        hi = u - 1
        if forced_left:
            hi = min(hi, (forced_left & -forced_left).bit_length() - 1)
        found = None
        for v in range(lo, hi + 1):
            bit = 1 << v
            if banned & bit:
                continue
            if deadline_passed(deadline):
                return None
            trial_banned = banned | (((bit - 1) & ~chosen) & ~banned)
            residual = [m & ~trial_banned for m in masks if not m & (chosen | bit)]
            if any(m == 0 for m in residual):
                banned |= bit
                continue
            budget = total - count - 1 - bin(forced_left & ~bit).count("1")
            if budget < 0:
                banned |= bit
                continue
            # remaining forced elements stay mandatory: hand them to the
            # kernel as singleton sets so the decision includes them
            fam = residual + [1 << f for f in _bits_of(forced_left & ~bit)]
            fam = _reduce_family(fam)
            status, size, _m = kernel(u, fam, total - count - 1, total - count - 1, deadline)
            if status == _cover_py.STATUS_TIMEOUT:
                return None
            if status == _cover_py.STATUS_OPTIMAL and size <= total - count - 1:
                found = v
                break
            banned |= bit
        if found is None:
            raise RuntimeError("internal error: no lexicographic completion found")
        bit = 1 << found
        chosen |= bit
        count += 1
        forced_left &= ~bit
        banned |= ((bit - 1) & ~chosen) & ~banned
        masks = [m for m in masks if not m & chosen]
    return _bits_of(chosen)


def greedy_hitting_set(inst: CoverInstance) -> CoverResult:
    """Valid (not necessarily minimum) hitting set by max-coverage greedy,
    ties broken by smallest element index.  Honors forced and excluded."""
    prep = _prepare(inst)
    if isinstance(prep, CoverResult):
        return prep
    masks, _f, _x = prep
    if not masks:
        witness = tuple(sorted(inst.forced))
        return CoverResult(OPTIMAL, len(witness), witness)
    size, mask = _cover_py.greedy_cover(masks)
    witness = _bits_of(mask | _mask_of(inst.forced))
    _validate_witness(inst, witness)
    return CoverResult(OPTIMAL, len(witness), witness)
