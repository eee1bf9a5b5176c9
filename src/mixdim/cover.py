"""Exact minimum hitting set / set cover engine.

Sets and families are int masks and lists of masks, in the format of
mixdim.masks.

A CoverInstance is a family of masks over a small integer universe, plus
optional forced and excluded elements, also masks.  min_hitting_set
returns the exact optimum together with the lexicographically smallest
minimum witness, a "greater than cutoff" verdict or an infeasibility
verdict holding the mask of a set that cannot be hit, and raises
SolveTimeout once its deadline has passed.  It proves the optimum with a
minimum cover (or the verdict), then turns that cover into the lex-min
witness (_lex_min_witness); min_hitting_set_size is the proof alone.

One search, _search, proves every size: the optimum, and each trial of the
witness pass.  A search node is its residual family (the sets its forced
elements leave unhit, less its excluded elements) with its forced and
excluded masks.  Given the automorphism group of a graph on the universe
(sym=, a symmetry.GraphSymmetry), the search splits a node into orbital
branches one level at a time, as it reaches them (_split), and solves each
node it does not split by one kernel call (_leaf); without sym it makes
that one call.  Below the top, a node with many orbits splits by
whichever has fewer branches: its orbital level, or the kernel's own
first branching less the children an automorphism maps into earlier
ones.  Each node with a cutoff meets one root test first, the kernel's
own (_exceeds): a residual family holding more pairwise-disjoint sets
than the room its cutoff leaves has no cover within the cutoff, so the
node is refuted with no split and no kernel call.  Every automorphism
maps each pair-cover family of the graph (vertex, edge and mixed pairs,
the N2 side sets) onto itself, and the forced and degree-excluded
vertices of the mixed search are unions of orbits.  So a cover of size
<= k exists if and only if, for some i, one exists that contains the
representative of orbit O_i and avoids O_1 .. O_{i-1} (Ostrowski,
Linderoth, Rossi and Smriglio, "Orbital branching", Math. Prog. 2011).
Branch i forces a representative and excludes orbits of a larger group,
which the representative's stabilizer maps onto themselves, so each
branch splits again by the orbits of that stabilizer.  The witness pass
also rules out candidates by the same orbits.  This module does not
import symmetry: it only calls the cells, orbits and orbits_within
methods of the object it is given.

Two interchangeable kernels do the search: a compiled extension
(mixdim._cover_c, hand-written C, universes up to 64 elements) and a
pure-Python twin.  The compiled one runs whenever it is built and the
universe fits; both return the same results and node counts.
perfbench/README.md describes the end-to-end benchmark that times this
module as one layer of the exact solves.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from . import _cover_py
from .masks import bits_of, reduce_family

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


@dataclass(frozen=True)
class CoverInstance:
    """Normalized hitting-set instance over bitmask sets.

    masks holds the reduced family (deduplicated, no supersets, ascending
    popcount then value, so just (0,) when some input set was empty); the
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
            raise ValueError(f"forced and excluded overlap: {list(bits_of(forced & excluded))}")
        return cls(universe_size, tuple(reduce_family(original)), forced, excluded, original)

    @cached_property
    def _prepared(self) -> list[int] | int:
        """The residual masks: forced and excluded applied to the reduced
        family, or, when some set has no hittable element left, that set's
        mask.  Callers must not mutate the residual list."""
        fmask, xmask = self.forced, self.excluded
        residual = []
        for m in self.masks:
            r = m & ~xmask
            if r == 0:
                return m
            if not r & fmask:
                residual.append(r)
        # dropping sets keeps a reduced family reduced; trimming elements may not
        return reduce_family(residual) if xmask else residual

    @property
    def sets(self) -> tuple[int, ...]:
        """masks itself; read only by perfbench's tracer, for its length."""
        return self.masks

    @property
    def original_sets(self) -> tuple[int, ...]:
        """original_masks itself; read only by perfbench's tracer, for its length."""
        return self.original_masks


@dataclass(frozen=True)
class CoverResult:
    status: str
    size: int | None = None
    witness: tuple[int, ...] | None = None
    infeasible_set: int | None = None  # the mask of a set no element can hit


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
            raise RuntimeError(f"internal error: witness fails to hit {list(bits_of(m))}")


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
    residual = inst._prepared
    if isinstance(residual, int):
        return CoverResult(INFEASIBLE, infeasible_set=residual)
    size = _search(inst.universe_size, residual, inst.forced, inst.excluded, sym, (), cutoff, lower_bound, deadline)[0]
    return CoverResult(CUTOFF_EXCEEDED) if size is None else CoverResult(OPTIMAL, size)


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
    residual = inst._prepared
    if isinstance(residual, int):
        return CoverResult(INFEASIBLE, infeasible_set=residual)
    size, found, _ = _search(
        inst.universe_size, residual, inst.forced, inst.excluded, sym, (), cutoff, lower_bound, deadline
    )
    if size is None:
        return CoverResult(CUTOFF_EXCEEDED)
    rest = _lex_min_witness(residual, found & ~inst.forced, inst.universe_size, deadline, sym)
    witness = rest | inst.forced
    _validate_witness(inst, witness)
    return CoverResult(OPTIMAL, size, bits_of(witness))


def _search(universe: int, masks: list[int], forced: int, excluded: int, sym, fixed, cutoff, lower_bound, deadline):
    """(the minimum size of a cover of the node, or None above cutoff; such
    a cover as a mask, or 0 when there is none; the kernel nodes spent).
    The node is its residual family masks (reduced, no set empty) with its
    forced and excluded masks; its covers hold every forced element.

    With sym, and fixed not None, _split splits the node one level into
    orbital branches under the stabilizer of fixed, each solved the same
    way when the search reaches it; a node not split is one _leaf.  Every
    branch of a level forces one element more than the node, so a level
    ends at its first branch that forces more elements than the cutoff.
    After each branch that finds a cover the cutoff falls to one below its
    size, so the last size found is the optimum; the search stops once a
    size is at most lower_bound.  A node with a cutoff is first tested at
    its root (_exceeds), with the room left past its forced elements."""
    if cutoff is not None and _exceeds(masks, cutoff - forced.bit_count()):
        return None, 0, 0
    branches = None if sym is None or fixed is None else _split(masks, forced, excluded, sym, fixed)
    if branches is None:
        return _leaf(universe, masks, forced, cutoff, lower_bound, deadline)
    best, found, nodes = None, 0, 0
    for child, child_forced, child_excluded, below in branches:
        if cutoff is not None and child_forced.bit_count() > cutoff:
            break
        size, mask, spent = _search(
            universe, child, child_forced, child_excluded, sym, below, cutoff, lower_bound, deadline
        )
        nodes += spent
        if size is not None:
            best, found = size, mask
            if best <= lower_bound:
                break
            cutoff = best - 1
    return best, found, nodes


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


def _split(masks: list[int], forced: int, excluded: int, sym, fixed: tuple[int, ...]) -> list[tuple] | None:
    """One level of orbital branches of the node (masks, forced, excluded;
    see _search) under the stabilizer of fixed in sym's group, or None to
    keep it whole.  Each branch is a node, then the fixed tuple under
    which it may split again (None where it may not).

    The branches split on the orbits of the free elements (those in some
    set of masks), largest first, when there are at most as many orbits as
    the kernel's first branching has children (the size of the smallest
    set, pick): the i-th forces the representative (lowest vertex) rep of
    orbit O_i, excludes O_1 .. O_{i-1} and may split again under the
    stabilizer of (*fixed, rep).  A branch whose excluded orbits empty a
    set has no cover and is dropped.  When there are more orbits, the
    branches split on the kernel's own branching set instead (_split_set),
    and are not split again: splitting those again cost more orbit
    searches than their kernel calls saved.  Below the top (fixed not
    empty) the orbital branches still win when, once the dropped ones are
    left out, they are no more than _split_set keeps, one per orbit that
    meets pick: the orbit count only bounds the branches a split leaves.
    For the set split the orbits are searched for only below the top and
    with at least _SPLIT_MIN_SETS sets left; at the top they serve it only
    when the orbital split's own check found them.

    None when masks is empty, and unless there are at least
    _MIN_SPLIT_ELEMENTS free elements, the orbits were found, and the
    forced and excluded sets are unions of the orbits found under the
    stabilizer of fixed.  The last condition holds when the orbits found
    are exact, because each excluded orbit came from a larger group.  A
    cut-off automorphism search can leave them finer, and then the
    automorphisms found need not map an excluded set onto itself.
    """
    if not masks:
        return None
    free = 0
    for m in masks:
        free |= m
    if free.bit_count() < _MIN_SPLIT_ELEMENTS:
        return None
    pick = masks[0]  # the kernel's: masks are in reduce_family's order
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
    stabilizer_orbits = sym.orbits(fixed)
    if any(o & forced not in (0, o) or o & excluded not in (0, o) for o in stabilizer_orbits):
        return None
    set_branches, most = None, limit
    if orbits is None or len(orbits) >= limit:
        set_branches = _split_set(masks, forced, excluded, stabilizer_orbits)
        if not fixed:
            return set_branches
        # below the top, the orbital level when it has no more branches
        orbits = sorted((o for o in stabilizer_orbits if o & free), key=lambda m: (-m.bit_count(), m & -m))
        most = pick.bit_count() if set_branches is None else len(set_branches)
    branches = []
    passed = 0
    for orbit in orbits:
        rep = (orbit & -orbit).bit_length() - 1
        child = _child(masks, rep, passed)
        if child is not None:
            if len(branches) == most:
                return set_branches
            branches.append((child, forced | 1 << rep, excluded | passed, (*fixed, rep)))
        passed |= orbit
    return branches


def _split_set(masks: list[int], forced: int, excluded: int, orbits: list[int]) -> list[tuple] | None:
    """The kernel's first branching of the node (masks, forced, excluded),
    less the children that an automorphism maps into an earlier one, or
    None when it drops none; each child as in _split, not split again.

    The kernel branches on S, the first of masks: child i forces s_i, the
    i-th element of S in ascending order, and excludes s_1 .. s_{i-1},
    which, S being a minimal set of the reduced family, hold no set
    whole.  orbits are those of a group that maps the node's family,
    forced set and excluded set onto themselves.  A cover in child j,
    whose s_j shares an orbit with an earlier s_i, is mapped by an
    automorphism that takes s_j to s_i onto an equally small cover holding
    s_i, which lies in child i or an earlier one, and so on while that
    child is dropped too; so child j goes.
    """
    branches = []
    seen = 0  # the orbits of the elements passed so far
    passed = 0
    for e in bits_of(masks[0]):
        if not seen >> e & 1:
            branches.append((_child(masks, e, passed), forced | 1 << e, excluded | passed, None))
        seen |= next(o for o in orbits if o >> e & 1)
        passed |= 1 << e
    return branches if len(branches) < masks[0].bit_count() else None


def _child(masks: list[int], element: int, passed: int) -> list[int] | None:
    """The residual family of a branch of the node whose residual family is
    masks that forces element and excludes passed, or None when passed
    empties a set: the same list as from the whole family, reduced."""
    bit = 1 << element
    child = [m & ~passed for m in masks if not m & bit]
    if not passed:
        return child  # dropping sets keeps a reduced family reduced
    return None if 0 in child else reduce_family(child)


def _leaf(universe: int, masks: list[int], forced: int, cutoff, lower_bound, deadline) -> tuple[int | None, int, int]:
    """_search on a node that is neither split nor refuted at its root:
    one kernel call on its residual family masks, or none when its forced
    elements hit every set."""
    _check_deadline(deadline)
    base = forced.bit_count()
    if not masks:
        return base, forced, 0
    res_cutoff = None if cutoff is None else cutoff - base
    res_stop = max(lower_bound - base, 0)
    status, size, mask, nodes = _kernel(universe)(universe, masks, res_cutoff, res_stop, deadline)
    if status == _cover_py.STATUS_TIMEOUT:
        raise SolveTimeout("exact solve ran past its deadline")
    if status == _cover_py.STATUS_CUTOFF:
        return None, 0, nodes
    return base + size, mask | forced, nodes


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
    if all(cells[v] != cells[c] for v in bits_of(candidates)):
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
    its reduction, and _search's root test repeats it once it is reduced.

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
            residual = reduce_family(residual)
            fixed = bits_of(chosen | bit | trial_banned) if len(residual) >= _SPLIT_MIN_SETS else None
            size, completion, nodes = _search(universe, residual, 0, 0, sym, fixed, left, left, deadline)
            if size is not None:
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

