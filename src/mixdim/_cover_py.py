"""Pure-Python branch-and-bound kernel for minimum hitting set.

This is the reference implementation of the search; the compiled extension
in _cover_c.c mirrors it exactly (same branching, same tie-breaking), so
both backends return identical results and node counts.  Sets are
bitmasks over a universe of small integers; this module accepts
arbitrary-width Python ints, the compiled twin is limited to 64-bit
universes.

Branching: take the uncovered set with the fewest available elements and
split on its elements in ascending index order, banning each element in
the later branches.  Lower bound: size of a greedily collected family of
pairwise-disjoint uncovered sets.  Singleton sets force their element.

Each node reads its sets in one scan that finds all of these at once: an
empty set, the singletons, the disjoint-set bound and the set to branch
on.  Only forced picks, which drop the sets they hit, make it scan again.
"""
from __future__ import annotations

import time

STATUS_OPTIMAL = 0
STATUS_CUTOFF = 1
STATUS_TIMEOUT = 2

_TIME_CHECK_MASK = 0xFFF


def greedy_cover(masks: list[int]) -> tuple[int, int]:
    """Max-coverage greedy hitting set; ties broken by smallest element.

    Returns (size, chosen_mask).  masks must be nonempty bitmasks.

    Element counts are bit-sliced: bit e of planes[k] is bit k of the
    number of remaining sets that contain e, so adding a set is a ripple
    carry over a few ints.  The most frequent elements are then those that
    survive a filter by the planes from the highest down.
    """
    remaining = list(masks)
    chosen = 0
    size = 0
    while remaining:
        planes: list[int] = []
        seen = 0
        for m in remaining:
            seen |= m
            carry = m
            for k, plane in enumerate(planes):
                planes[k] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
        best = seen
        for plane in reversed(planes):
            if best & plane:
                best &= plane
        bit = best & -best
        chosen |= bit
        size += 1
        remaining = [m for m in remaining if not m & bit]
    return size, chosen


class _Search:
    __slots__ = ("best_size", "best_mask", "stop_size", "deadline", "nodes", "timed_out")

    def __init__(self, best_size: int, stop_size: int, deadline: float | None):
        self.best_size = best_size
        self.best_mask = -1
        self.stop_size = stop_size
        self.deadline = deadline
        self.nodes = 0
        self.timed_out = False

    def run(self, masks: list[int], chosen: int, count: int) -> bool:
        """DFS; returns True when the search should unwind (stop or timeout).

        masks hold only available elements: the caller strips the elements
        banned on this path (earlier siblings of each branch taken), so a
        set's mask is what the compiled twin computes as m & ~banned.
        """
        self.nodes += 1
        if self.deadline is not None and not self.nodes & _TIME_CHECK_MASK:
            if time.monotonic() > self.deadline:
                self.timed_out = True
                return True

        # one scan of masks finds a zero set (smallest size 0), forced picks
        # (size 1), the disjoint-set bound and the set to branch on; only
        # forced picks, which shrink masks, make it scan again
        while True:
            lb = 0
            acc = 0
            pick = -1
            pick_pc = 1 << 62
            for m in masks:
                if not m & acc:
                    lb += 1
                    acc |= m
                pc = m.bit_count()
                if pc < pick_pc or (pc == pick_pc and m < pick):
                    pick = m
                    pick_pc = pc
            if pick_pc > 1:
                break
            if pick_pc == 0:
                return False  # this branch cannot hit that set
            picks = 0
            for m in masks:
                if m & (m - 1) == 0:
                    picks |= m
            chosen |= picks
            count += picks.bit_count()
            # masks never meet chosen: each branch dropped the sets it hit
            masks = [m for m in masks if not m & picks]
            if count >= self.best_size:
                return False
            if not masks:
                break

        if count >= self.best_size:
            return False
        if not masks:
            self.best_size = count
            self.best_mask = chosen
            return count <= self.stop_size
        # lb counts pairwise-disjoint sets, each needing its own element
        if count + lb >= self.best_size:
            return False

        # branch on the smallest set (ties: smallest mask value), banning
        # each element in its later siblings: keep clears the banned ones,
        # so the first child needs no clearing
        bit = pick & -pick
        if self.run([m for m in masks if not m & bit], chosen | bit, count + 1):
            return True
        keep = ~bit
        x = pick ^ bit
        while x:
            bit = x & -x
            x ^= bit
            child = [m & keep for m in masks if not m & bit]
            if self.run(child, chosen | bit, count + 1):
                return True
            keep ^= bit
        return False


def solve(
    universe: int,
    masks: list[int],
    cutoff: int | None,
    stop_size: int,
    deadline: float | None,
) -> tuple[int, int, int, int]:
    """Exact minimum hitting set over bitmask sets.

    masks must be nonempty and reduced (no set a superset of another).
    Returns (status, size, witness_mask, nodes), nodes being the search
    nodes visited (0 when the greedy start already met stop_size).  With a
    cutoff, sizes above it are reported as STATUS_CUTOFF.  A solution of
    size <= stop_size ends the search immediately (callers pass a proven
    lower bound, so the result is still optimal).
    """
    if not masks:
        return STATUS_OPTIMAL, 0, 0, 0
    sentinel = (cutoff + 1) if cutoff is not None else universe + 1
    g_size, g_mask = greedy_cover(masks)
    search = _Search(best_size=sentinel, stop_size=stop_size, deadline=deadline)
    if g_size < sentinel:
        search.best_size = g_size
        search.best_mask = g_mask
        if g_size <= stop_size:
            return STATUS_OPTIMAL, g_size, g_mask, 0
    search.run(masks, 0, 0)
    if search.timed_out:
        return STATUS_TIMEOUT, 0, 0, search.nodes
    if search.best_mask < 0 or (cutoff is not None and search.best_size > cutoff):
        return STATUS_CUTOFF, 0, 0, search.nodes
    return STATUS_OPTIMAL, search.best_size, search.best_mask, search.nodes
