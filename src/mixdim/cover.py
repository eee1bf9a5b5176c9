"""Exact minimum hitting set / set cover engine.

Every set passed between the package's modules is an int mask, bit e set
for element e (bit v for vertex v in a graph), and every family of sets a
list of masks; only the witnesses that answers return are sorted tuples.
This module owns that format.  _masks_of_columns and _rows_of_masks
convert between masks and boolean matrices, for every width.

A CoverInstance is a family of masks over a small integer universe, plus
optional forced and excluded elements, also masks.  min_hitting_set
returns the exact optimum together with the lexicographically smallest
minimum witness, a "greater than cutoff" verdict or an infeasibility
verdict holding the mask of a set that cannot be hit, and raises
SolveTimeout once its deadline has passed.  It proves the optimum with a
minimum cover (or the verdict), then turns that cover into the lex-min
witness (_lex_min_witness); min_hitting_set_size is the proof alone.

One search, _search, proves every size: the optimum, and each trial of the
witness pass.  Given the automorphism group of a graph on the universe
(sym=, a symmetry.GraphSymmetry), it splits an instance into orbital
branches one level at a time, as it reaches them (_split), and solves each
instance it does not split by one kernel call (_leaf); without sym it makes
that one call.  Every automorphism maps each pair-cover family of the graph
(vertex, edge and mixed pairs, the N2 side sets) onto itself, and the
forced and degree-excluded vertices of the mixed search are unions of
orbits.  So a cover of size <= k exists if and only if, for some i, one
exists that contains the representative of orbit O_i and avoids
O_1 .. O_{i-1} (Ostrowski, Linderoth, Rossi and Smriglio, "Orbital
branching", Math. Prog. 2011).  Branch i forces a representative and
excludes orbits of a larger group, which the representative's stabilizer
maps onto themselves, so each branch splits again by the orbits of that
stabilizer.  The witness pass also rules out candidates by the same
orbits.  This module does not import symmetry: it only calls the cells,
orbits and orbits_within methods of the object it is given.

Two interchangeable kernels do the search: a compiled extension
(mixdim._cover_c, hand-written C, universes up to 64 elements) and a
pure-Python twin.  The compiled one runs whenever it is built and the
universe fits; both return the same results and node counts.
perfbench/README.md describes the end-to-end benchmark that times this
module as one layer of the exact solves.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import _cover_py

try:
    from . import _cover_c  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - build without the extension
    _cover_c = None

OPTIMAL = "optimal"
CUTOFF_EXCEEDED = "cutoff_exceeded"
INFEASIBLE = "infeasible"

_COMPILED_MAX_UNIVERSE = 64


class SolveTimeout(RuntimeError):
    """An exact solve ran past its deadline."""


def available_backends() -> tuple[str, ...]:
    return ("compiled", "python") if _cover_c is not None else ("python",)


def _kernel(universe: int):
    if _cover_c is not None and universe <= _COMPILED_MAX_UNIVERSE:
        return _cover_c.solve
    return _cover_py.solve


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


# bits per word of the codec: one little-endian uint64
_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


def _masks_of_columns(bits: np.ndarray) -> list[int]:
    """Column j of a boolean matrix as a mask: bit i set when bits[i, j].

    The columns are packed eight rows to a byte, so the temporaries take
    one bit per entry, and each block of 64 rows is read as one uint64
    word per column; wider columns shift the later words into place."""
    n, cols = bits.shape
    words = max(1, -(-n // _WORD_BITS))
    octets = np.zeros((cols, 8 * words), dtype=np.uint8)
    octets[:, : -(-n // 8)] = np.packbits(bits, axis=0, bitorder="little").T
    packed = octets.view("<u8")
    masks = packed[:, 0].tolist()
    for k in range(1, words):
        lo = k * _WORD_BITS
        masks = [m | w << lo for m, w in zip(masks, packed[:, k].tolist())]
    return masks


def _rows_of_masks(masks: Sequence[int], width: int) -> np.ndarray:
    """Boolean matrix with one row per mask: row j holds bits 0..width-1
    of masks[j].  Each word's bits are unpacked from its eight bytes, so
    the temporaries take one byte per bit."""
    rows = np.zeros((len(masks), width), dtype=bool)
    for lo in range(0, width, _WORD_BITS):
        words = np.array([m >> lo & _WORD_MASK for m in masks], dtype="<u8")
        count = min(width - lo, _WORD_BITS)
        octets = words.view(np.uint8).reshape(-1, 8)
        rows[:, lo : lo + count] = np.unpackbits(octets, axis=1, count=count, bitorder="little")
    return rows


# below this many distinct masks the plain loop beats numpy's call overhead:
# replayed benchmark families cross over between 256 and 400 masks
_VECTOR_REDUCE_MIN = 256


def _reduce_family(masks: Iterable[int]) -> list[int]:
    """Deduplicate and drop supersets (hitting a subset hits its supersets).

    Deterministic output order: ascending (popcount, mask value).  Masks
    must be nonnegative.  Families of 64-bit masks are deduplicated in a
    uint64 array, a fraction of the memory of a set of ints.
    """
    masks = masks if isinstance(masks, (list, tuple)) else list(masks)
    uniq = None
    if len(masks) >= _VECTOR_REDUCE_MIN:
        try:
            arr = np.fromiter(masks, dtype=np.uint64, count=len(masks))
        except OverflowError:  # a mask wider than 64 bits
            pass
        else:
            arr.sort()
            arr = arr[np.concatenate(([True], arr[1:] != arr[:-1]))]
            if arr.size >= _VECTOR_REDUCE_MIN:
                return _reduce_family_uint64(arr)
            uniq = arr.tolist()
    kept: list[int] = []
    # a stable sort by popcount of the ascending masks: (popcount, value) order
    for m in sorted(sorted(set(masks)) if uniq is None else uniq, key=int.bit_count):
        for km in kept:
            if km & m == km:
                break
        else:
            kept.append(m)
    return kept


def _reduce_family_uint64(arr: np.ndarray) -> list[int]:
    """_reduce_family for distinct 64-bit masks in ascending order: the
    front mask of the array in (popcount, value) order is always kept
    (nothing before it is its subset) and drops its supersets from the
    rest in one vector operation."""
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
    forced and excluded are element masks, like the sets.  The reduction
    ignores them, so instances that differ only in those share their family
    (dataclasses.replace).  Empty input sets are legal at construction and
    surface as an infeasibility verdict when solving.
    """

    universe_size: int
    masks: tuple[int, ...]
    forced: int = 0
    excluded: int = 0
    original_masks: tuple[int, ...] = field(default=(), compare=False, repr=False)

    @classmethod
    def build(
        cls,
        universe_size: int,
        masks: Iterable[int],
        forced: int = 0,
        excluded: int = 0,
    ) -> "CoverInstance":
        """Reduce a family of bitmasks (bit e set for element e); forced and excluded are element masks."""
        if universe_size < 0:
            raise ValueError("universe size must be nonnegative")
        original = tuple(masks)
        if original and (min(original) < 0 or max(original) >> universe_size):
            raise ValueError(f"set mask outside universe 0..{universe_size - 1}")
        if min(forced, excluded) < 0 or (forced | excluded) >> universe_size:
            raise ValueError(f"forced or excluded mask outside universe 0..{universe_size - 1}")
        if forced & excluded:
            raise ValueError(f"forced and excluded overlap: {list(_bits_of(forced & excluded))}")
        if 0 in original:  # reduce the rest: 0 is a subset of every set
            reduced = [0, *_reduce_family([m for m in original if m])]
        else:
            reduced = _reduce_family(original)
        return cls(universe_size, tuple(reduced), forced, excluded, original)

    @cached_property
    def _prepared(self) -> list[int] | CoverResult:
        """The residual masks: forced and excluded applied to the reduced
        family, or an infeasibility verdict if some set has no hittable
        element left.  Callers must not mutate the residual list."""
        fmask, xmask = self.forced, self.excluded
        residual = []
        for m in self.masks:
            r = m & ~xmask
            if r == 0:
                return CoverResult(INFEASIBLE, infeasible_set=m)
            if not r & fmask:
                residual.append(r)
        # dropping sets keeps a reduced family reduced; trimming elements may not
        return _reduce_family(residual) if xmask else residual

    def _branch(self, residual: list[int], element: int, passed: int) -> "CoverInstance":
        """self with element forced and the elements of passed excluded.
        residual must be self's residual masks (_prepared), from which the
        branch's are worked out instead of from the whole family: the
        minimal masks of one family, so, reduced, the same list.  A branch
        that leaves a mask empty works them out from the family, so that
        its verdict names a set of the family."""
        bit = 1 << element
        branch = replace(self, forced=self.forced | bit, excluded=self.excluded | passed)
        masks = [m & ~passed for m in residual if not m & bit]
        if passed:
            if 0 in masks:
                return branch
            masks = _reduce_family(masks)
        branch.__dict__["_prepared"] = masks  # the cached_property's slot
        return branch

    @cached_property
    def sets(self) -> tuple[frozenset[int], ...]:
        """masks as frozensets; read only by perfbench's tracer."""
        return _sets_of(self.masks)

    @cached_property
    def original_sets(self) -> tuple[frozenset[int], ...]:
        """original_masks as frozensets; read only by perfbench's tracer."""
        return _sets_of(self.original_masks)

    @property
    def num_sets(self) -> int:
        return len(self.masks)


@dataclass(frozen=True)
class CoverResult:
    status: str
    size: int | None = None
    witness: tuple[int, ...] | None = None
    infeasible_set: int | None = None  # the mask of a set no element can hit

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def deadline_after(timeout: float | None) -> float | None:
    """Absolute time.monotonic() deadline timeout seconds from now."""
    return None if timeout is None else time.monotonic() + timeout


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise SolveTimeout("exact solve ran past its deadline")


def _validate_witness(inst: CoverInstance, wmask: int) -> None:
    if inst.forced & ~wmask:
        raise RuntimeError("internal error: witness misses forced elements")
    if wmask & inst.excluded:
        raise RuntimeError("internal error: witness touches excluded elements")
    for m in inst.original_masks or inst.masks:
        if m and not m & wmask:
            raise RuntimeError(f"internal error: witness fails to hit {list(_bits_of(m))}")


def min_hitting_set_size(
    inst: CoverInstance,
    cutoff: int | None = None,
    lower_bound: int = 0,
    deadline: float | None = None,
    sym=None,
) -> CoverResult:
    """min_hitting_set without the witness: the same status and size, with
    witness None.  Raises SolveTimeout past the absolute time.monotonic()
    deadline.  With sym (see min_hitting_set) the size is proved by
    orbital branching (_search)."""
    return _search(inst, sym, None if sym is None else (), cutoff, lower_bound, deadline)[0]


def min_hitting_set(
    inst: CoverInstance,
    cutoff: int | None = None,
    lower_bound: int = 0,
    deadline: float | None = None,
    sym=None,
) -> CoverResult:
    """Exact minimum hitting set honoring forced and excluded elements.

    The witness is the lexicographically smallest among all minimum-size
    solutions.  lower_bound, when given, must be a valid bound for the
    instance; the search then stops as soon as a matching solution is
    found.  With a cutoff c, an optimum above c yields CUTOFF_EXCEEDED.
    The search and the witness share deadline, an absolute
    time.monotonic() value; past it SolveTimeout is raised.

    sym, when given, holds the automorphism orbits of a graph on inst's
    universe (a symmetry.GraphSymmetry); every automorphism must map inst's
    family, forced set and excluded set onto themselves.  The search
    branches on its orbits, and the witness pass rules out candidates by
    them and splits large trials (_lex_min_witness); sym never changes the
    result.
    """
    res, found, _ = _search(inst, sym, None if sym is None else (), cutoff, lower_bound, deadline)
    if not res.ok:
        return res
    rest = _lex_min_witness(inst._prepared, found & ~inst.forced, inst.universe_size, deadline, sym)
    witness = rest | inst.forced
    _validate_witness(inst, witness)
    return CoverResult(OPTIMAL, res.size, _bits_of(witness))


def _search(inst: CoverInstance, sym, fixed, cutoff, lower_bound, deadline) -> tuple[CoverResult, int, int]:
    """(min_hitting_set_size's verdict, a cover of that size as a mask, or
    0 when there is none; the kernel nodes spent).

    fixed is None, or a tuple under whose stabilizer _split splits inst
    one level into orbital branches, each solved the same way when the
    search reaches it; an instance not split is one _leaf.  Every branch of
    a level forces one element more than inst, so a level ends at its
    first branch that forces more elements than the cutoff.  After each
    branch that finds a cover the cutoff falls to one below its size, so
    the last size found is the optimum; the search stops once a size is at
    most lower_bound."""
    branches = None if fixed is None else _split(inst, sym, fixed)
    if branches is None:
        return _leaf(inst, cutoff, lower_bound, deadline)
    best, found, nodes = None, 0, 0
    for branch, below in branches:
        if cutoff is not None and branch.forced.bit_count() > cutoff:
            break
        res, mask, spent = _search(branch, sym, below, cutoff, lower_bound, deadline)
        nodes += spent
        if res.ok:
            best, found = res.size, mask
            if best <= lower_bound:
                break
            cutoff = best - 1
    return (CoverResult(CUTOFF_EXCEEDED) if best is None else CoverResult(OPTIMAL, best)), found, nodes


# below this many free elements the kernel's search is cheaper than finding
# orbits, so _split keeps such an instance whole: splitting every instance
# of the connected graphs of order 5 to 7 raised their p90 exact-report
# time by about a quarter
_MIN_SPLIT_ELEMENTS = 12
# _split searches for orbits to split on the kernel's branching set, and
# the witness pass splits a trial at all, only when at least this many sets
# are left: on the selected graphs, smaller families took the kernel a few
# hundred nodes at most, fewer than a split saved in the time of its orbit
# search
_SPLIT_MIN_SETS = 32


def _split(inst: CoverInstance, sym, fixed: tuple[int, ...]) -> list[tuple[CoverInstance, tuple | None]] | None:
    """One level of orbital branches of inst under the stabilizer of fixed
    in sym's group, each paired with the fixed tuple under which it may
    split again (None where it may not), or None to keep inst whole.

    The branches split on the orbits of the free elements (those in some
    set of inst left unhit by its forced elements) when there are at most
    as many orbits as the kernel's first branching has children (the size
    of the smallest of those sets): the i-th forces the representative
    (lowest vertex) rep of orbit O_i, excludes O_1 .. O_{i-1} and may split
    again under the stabilizer of (*fixed, rep).  When there are more
    orbits, the branches split on the kernel's own branching set instead
    (_split_set), and are not split again: splitting those again cost more
    orbit searches than their kernel calls saved.  For that split the
    orbits are searched for only below the top (fixed not empty) and with
    at least _SPLIT_MIN_SETS sets left; at the top they serve it only when
    the orbital split's own check found them.

    None when inst is infeasible or has no set left unhit, and unless
    there are at least _MIN_SPLIT_ELEMENTS free elements, the orbits were
    found, and the forced and excluded sets are unions of the orbits found
    under the stabilizer of fixed.  The last condition holds when the
    orbits found are exact, because each excluded orbit came from a larger
    group.  A cut-off automorphism search can leave them finer, and then
    the automorphisms found need not map an excluded set onto itself.
    """
    masks = inst._prepared
    if isinstance(masks, CoverResult) or not masks:
        return None
    free = 0
    for m in masks:
        free |= m
    if free.bit_count() < _MIN_SPLIT_ELEMENTS:
        return None
    pick = masks[0]  # the kernel's: masks are in _reduce_family's order
    limit = pick.bit_count() + 1
    orbits = sym.orbits_within(free, fixed, limit)
    if orbits is None:
        # too many orbits for an orbital split.  Below the top the group
        # is not trivial, so the orbits are searched for unless the
        # cheap invariants tell pick's elements apart; at the top, where
        # most graphs have a trivial group, they are not
        if not fixed or len(masks) < _SPLIT_MIN_SETS:
            return None
        if sym.orbits_within(pick, fixed, pick.bit_count()) is None:
            return None
    if any(o & inst.forced not in (0, o) or o & inst.excluded not in (0, o) for o in sym.orbits(fixed)):
        return None
    if orbits is None or len(orbits) >= limit:
        return _split_set(inst, masks, sym.orbits(fixed))
    branches = []
    passed = 0
    for orbit in orbits:
        rep = (orbit & -orbit).bit_length() - 1
        branches.append((inst._branch(masks, rep, passed), (*fixed, rep)))
        passed |= orbit
    return branches


def _split_set(inst: CoverInstance, masks: list[int], orbits: list[int]) -> list[tuple[CoverInstance, None]] | None:
    """The kernel's first branching of inst, whose sets left unhit by its
    forced elements are masks, less the children that an automorphism maps
    into an earlier one, or None when it drops none; each child is paired
    with None, as it is not split again.

    The kernel branches on S, the first of masks: child i forces s_i, the
    i-th element of S in ascending order, and excludes s_1 .. s_{i-1}.
    orbits are those of a group that maps inst's family, forced set and
    excluded set onto themselves.  A cover in child j, whose s_j shares an
    orbit with an earlier s_i, is mapped by an automorphism that takes s_j
    to s_i onto an equally small cover holding s_i, which lies in child i
    or an earlier one, and so on while that child is dropped too; so child
    j goes.
    """
    branches = []
    seen = 0  # the orbits of the elements passed so far
    passed = 0
    for e in _bits_of(masks[0]):
        if not seen >> e & 1:
            branches.append((inst._branch(masks, e, passed), None))
        seen |= next(o for o in orbits if o >> e & 1)
        passed |= 1 << e
    return branches if len(branches) < masks[0].bit_count() else None


def _leaf(inst: CoverInstance, cutoff, lower_bound, deadline) -> tuple[CoverResult, int, int]:
    """_search on an instance that is not split: one kernel call on its
    residual, or none when it is infeasible, its forced elements exceed
    the cutoff or they hit every set."""
    masks = inst._prepared
    if isinstance(masks, CoverResult):
        return masks, 0, 0
    _check_deadline(deadline)
    base = inst.forced.bit_count()
    if cutoff is not None and base > cutoff:
        return CoverResult(CUTOFF_EXCEEDED), 0, 0
    if not masks:
        return CoverResult(OPTIMAL, base), inst.forced, 0
    res_cutoff = None if cutoff is None else cutoff - base
    res_stop = max(lower_bound - base, 0)
    kernel = _kernel(inst.universe_size)
    status, size, mask, nodes = kernel(inst.universe_size, masks, res_cutoff, res_stop, deadline)
    if status == _cover_py.STATUS_TIMEOUT:
        raise SolveTimeout("exact solve ran past its deadline")
    if status == _cover_py.STATUS_CUTOFF:
        return CoverResult(CUTOFF_EXCEEDED), 0, nodes
    return CoverResult(OPTIMAL, base + size), mask | inst.forced, nodes


# the witness pass looks for a refuted candidate's orbit only after a
# kernel call of at least this many nodes: an orbit search costs about as
# much as a few hundred nodes.  Searching after every refutation raised
# exact-corpus wall_s by 2.3% and call_p50_ms by 3.2% (seed 1, medians of
# 3 alternating pairs, pure-Python kernel, 2-core shared x86-64 host)
_ORBIT_MIN_NODES = 256


def _exceeds(masks: list[int], left: int) -> bool:
    """True when every hitting set of masks has more than left elements:
    some mask is empty, or the singleton masks force more than left
    elements, or the masks those leave unhit hold more pairwise-disjoint
    masks, collected greedily in list order, than the room that remains.
    On a reduced family this is the kernel's test at its root node."""
    picks = 0
    if min(map(int.bit_count, masks), default=2) < 2:
        for m in masks:
            if m & (m - 1) == 0:
                if not m:
                    return True
                picks |= m
        left -= picks.bit_count()
        if left < 0:
            return True
    count = 0
    acc = picks  # a mask that meets acc is hit or meets a counted one
    for m in masks:
        if not m & acc:
            count += 1
            acc |= m
    return count > left


def _orbit_mates(sym, bit: int, chosen: int, candidates: int) -> int:
    """The members of candidates in the orbit of element bit under the
    automorphisms of sym's graph that map the prefix chosen, and the other
    elements below bit, each onto itself.  The equitable cells, each a union
    of such orbits, are checked first, so the automorphism search runs only
    when some candidate shares bit's cell."""
    classes = (chosen, (bit - 1) & ~chosen)
    cells = sym.cells(classes=classes)
    c = bit.bit_length() - 1
    if all(cells[v] != cells[c] for v in _bits_of(candidates)):
        return 0
    orbit = next(o for o in sym.orbits(classes=classes) if o & bit)
    return orbit & candidates


def _lex_min_witness(
    masks: list[int],
    witness: int,
    universe: int,
    deadline: float | None,
    sym=None,
) -> int:
    """The lexicographically smallest hitting set of the reduced family
    masks among those of its optimal size, as a mask; witness is a minimum
    hitting set of masks, the size proof's own cover.

    For equal-size sets R1 and R2 disjoint from the forced set F,
    sorted(F | R1) < sorted(F | R2) exactly when sorted(R1) < sorted(R2):
    so the residual family's lex-min witness plus F is the instance's.

    Fixes members left to right: a candidate v extends the prefix iff a
    solution of the optimal size exists that contains the prefix and v
    while avoiding everything smaller that was passed over.  Rejected
    candidates can never appear in the lex-minimum, so each element is
    tested at most once overall.  Only members of sets still unhit are
    candidates: those sets need one more member than remain to be fixed,
    so an element that hits none of them cannot extend the prefix.  A
    candidate is rejected without a kernel call when its trial family's
    singleton sets force more members than remain, or when the sets those
    leave unhit hold more pairwise-disjoint sets than the members left
    (_exceeds).  The test runs on the trial family as built, which spares
    its reduction, and again once it is reduced, where it is the kernel's
    own test at its root node, which spares the greedy start and the call.

    The known witness, a minimum cover whose smallest members are the
    prefix, spares the kernel call for its next member: that member extends
    the prefix, so only the smaller candidates need a test.  It starts as
    the proof's cover, and each kernel call that finds a completion
    replaces it.

    With sym (see min_hitting_set), a rejected candidate c also rejects,
    for the rest of the pass, every candidate c' in its orbit under the
    automorphisms that map the prefix P, and the other elements below c,
    each onto itself.  If the lex-minimum W held such a c', an automorphism
    s with s(c) = c' would give the minimum cover s^-1(W), which agrees
    with W below c and holds c where W, c being rejected, does not: a
    smaller one.  The orbits are looked for only after a refutation that
    took the kernel at least _ORBIT_MIN_NODES nodes; both kernels count
    nodes alike, so they reject the same candidates.  A trial whose reduced
    family has at least _SPLIT_MIN_SETS sets is proved by orbital branching
    (_search, as the value proofs are) under the automorphisms that fix
    each element of the prefix, the candidate and the elements banned from
    the trial: those map the trial family onto itself.
    """
    chosen = 0
    banned = 0  # elements passed over, which no completion may use
    for left in range(witness.bit_count() - 1, -1, -1):  # members still to fix after this one
        live = 0
        for m in masks:
            live |= m
        rest = witness & ~chosen
        known = rest & -rest  # the witness's next member
        # every element below the largest chosen is chosen (in no unhit
        # set) or banned, so the candidates exceed the largest chosen
        candidates = live & ~banned
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            _check_deadline(deadline)
            if bit == known:
                break
            trial_banned = banned | (bit - 1) & ~chosen
            residual = [m & ~trial_banned for m in masks if not m & bit]
            if _exceeds(residual, left):
                banned |= bit
                continue
            residual = _reduce_family(residual)
            # the kernel would refute at its root, after a greedy start
            if _exceeds(residual, left):
                banned |= bit
                continue
            trial = CoverInstance(universe, tuple(residual))
            trial.__dict__["_prepared"] = residual  # the cached_property's slot
            fixed = None
            if sym is not None and len(residual) >= _SPLIT_MIN_SETS:
                fixed = _bits_of(chosen | bit | trial_banned)
            res, completion, nodes = _search(trial, sym, fixed, left, left, deadline)
            if res.ok:
                witness = chosen | bit | completion
                break
            banned |= bit
            if sym is not None and nodes >= _ORBIT_MIN_NODES and candidates:
                mates = _orbit_mates(sym, bit, chosen, candidates)
                banned |= mates
                candidates ^= mates
        else:
            raise RuntimeError("internal error: no lexicographic completion found")
        chosen |= bit
        banned |= (bit - 1) & ~chosen
        masks = [m for m in masks if not m & bit]
    return chosen


def greedy_hitting_set(inst: CoverInstance) -> CoverResult:
    """Valid (not necessarily minimum) hitting set by max-coverage greedy,
    ties broken by smallest element index.  Honors forced and excluded."""
    masks = inst._prepared
    if isinstance(masks, CoverResult):
        return masks
    mask = (_cover_py.greedy_cover(masks)[1] if masks else 0) | inst.forced
    _validate_witness(inst, mask)
    witness = _bits_of(mask)
    return CoverResult(OPTIMAL, len(witness), witness)
