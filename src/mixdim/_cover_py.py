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

A node is entered with its parent's sets, the elements its branch takes
(hit) and the elements still allowed (keep), and makes one pass over them:
it drops the sets that hit meets, strips the rest to keep, collects them as
its own sets and finds the set to branch on.  The disjoint-set bound counts
in the same pass and refutes the node as soon as it reaches the room below
the best size (best_size - count), so a refuted node never finishes its
scan or its list.  The compiled twin runs the same test in the parent,
before it copies the child's sets.

The bound counts after the forced picks, never before them: a count over
the sets before the picks can reach the room where the count after them
does not, and would cut a node the tree holds.  The root's singletons are
taken before the search starts.  Below the root only a node's last child
meets singletons: every set holds at least as many elements as the set
branched on, and only the last child bans all of that set but one element.
Its singletons come from the parent's other sets of that size that hold
all the banned elements, so the parent adds their remaining elements to
that child's hit.  No node's own sets hold an empty set or a singleton.
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

    def run(self, masks: list[int], hit: int, keep: int, chosen: int, count: int) -> bool:
        """Visit one node; returns True when the search should unwind (stop
        or timeout).

        The node's sets are m & keep for the masks m of its parent that miss
        hit; chosen holds the count elements taken on the way here, hit
        included.  keep clears the elements banned on this path (earlier
        siblings of each branch taken), which the compiled twin computes as
        m & ~banned.
        """
        self.nodes += 1
        if self.deadline is not None and not self.nodes & _TIME_CHECK_MASK:
            if time.monotonic() > self.deadline:
                self.timed_out = True
                return True

        # one pass builds the node's sets, finds the set to branch on
        # (fewest elements, ties to the smallest mask) with all the sets of
        # its size, and counts pairwise-disjoint sets, each needing its own
        # element: room of them refute the node where the pass stands
        room = self.best_size - count
        if room <= 0:
            return False
        lb = 0
        acc = 0
        pick = -1
        pick_pc = 1 << 62
        ties: list[int] = []
        sets: list[int] = []
        for m in masks:
            if not m & hit:
                m &= keep
                sets.append(m)
                if not m & acc:
                    lb += 1
                    if lb >= room:
                        return False
                    acc |= m
                pc = m.bit_count()
                if pc <= pick_pc:
                    if pc < pick_pc:
                        pick = m
                        pick_pc = pc
                        ties = [m]
                    else:
                        ties.append(m)
                        if m < pick:
                            pick = m
        if not sets:
            self.best_size = count
            self.best_mask = chosen
            return count <= self.stop_size

        # branch on pick, banning each element in its later siblings: keep
        # clears the banned ones.  The last child bans all of pick but its
        # own element, so each other set of pick's size that holds the
        # banned ones keeps one element there, which that child must take
        keep = -1
        x = pick
        while x:
            bit = x & -x
            x ^= bit
            hit = bit
            if not x:
                banned = pick ^ bit
                for t in ties:
                    if t & banned == banned and t != pick:
                        hit |= t ^ banned
            if self.run(sets, hit, keep, chosen | hit, count + hit.bit_count()):
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
    # the root's singletons are its forced picks
    picks = 0
    for m in masks:
        if m & (m - 1) == 0:
            picks |= m
    search.run(masks, picks, -1, picks, picks.bit_count())
    if search.timed_out:
        return STATUS_TIMEOUT, 0, 0, search.nodes
    if search.best_mask < 0 or (cutoff is not None and search.best_size > cutoff):
        return STATUS_CUTOFF, 0, 0, search.nodes
    return STATUS_OPTIMAL, search.best_size, search.best_mask, search.nodes
