"""The int-mask format of every set that passes between the package's modules.

A set is an int mask, bit e set for element e (bit v for vertex v in a
graph), and a family of sets a list of masks; only the witnesses that
answers return are sorted tuples.  mask_of and bits_of convert one set,
rows_of_masks expands masks into a boolean matrix, for every width, and
reduce_family keeps a family's minimal sets.  Inside numpy a mask is
held as uint64 words, word k holding bits 64k to 64k + 63, and a family
as word rows, one row of words per mask.  A graph's pair masks are
packed from its distance comparisons straight into word rows
(_words_of_rows), sorted and deduplicated once as rows (_distinct), and
reduced as one uint64 array per word (_sweep), so that only the kept
masks and the sweep's short tail become ints (_masks_of_words).  This
module imports nothing from the rest of the package.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def mask_of(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def bits_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


# bits per word of the codec: one little-endian uint64
_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


def _masks_of_words(words: Sequence[np.ndarray]) -> list[int]:
    """The masks whose word k is words[k], one uint64 array per word; the
    masks of word rows are _masks_of_words(rows.T)."""
    masks = words[0].tolist()
    for k in range(1, len(words)):
        lo = k * _WORD_BITS
        masks = [m | w << lo for m, w in zip(masks, words[k].tolist())]
    return masks


def _zero_words(count: int, width: int) -> np.ndarray:
    """Word rows of count empty masks of width bits: at least one word."""
    return np.zeros((count, max(1, -(-width // _WORD_BITS))), dtype="<u8")


def _words_of_rows(bits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row j of a boolean matrix as word row j: bit i of the mask set when
    bits[j, i].  The rows are packed eight columns to a byte, straight into
    the bytes of out when given (_zero_words, one row per row of bits)."""
    if out is None:
        out = _zero_words(*bits.shape)
    out.view(np.uint8)[:, : -(-bits.shape[1] // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return out


def _words_of_masks(masks: Sequence[int]) -> np.ndarray:
    """The word rows of nonnegative int masks: one row per mask, with as
    many words as the widest mask needs, and at least one."""
    try:
        return np.fromiter(masks, dtype=np.uint64, count=len(masks))[:, None]
    except OverflowError:  # a mask wider than 64 bits
        count = -(-max(masks).bit_length() // _WORD_BITS)
        data = b"".join(m.to_bytes(8 * count, "little") for m in masks)
        return np.frombuffer(data, dtype="<u8").reshape(-1, count)


def rows_of_masks(masks: Sequence[int], width: int) -> np.ndarray:
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
# the sweep hands its last masks to the plain loop once fewer than this are
# left, and that loop tests them only against each other: on one
# exact-corpus round's random-graph families a tail of 64 took about a
# fifth less time than a tail of 256 or than sweeping to the end
_SWEEP_TAIL = 64
# at most this many (kept mask, mask) subset tests per block of the sweep,
# so its largest temporary, one uint64 per test, takes at most 128 KB:
# blocks of 2^16 tests were up to 2x faster past 64 bits, but they left an
# exact-corpus process 0.3 MB more resident after the same rounds
_SWEEP_ENTRIES = 1 << 14


def reduce_family(masks: Iterable[int] | np.ndarray) -> list[int]:
    """Deduplicate and drop supersets (hitting a subset hits its supersets).

    masks are nonnegative int masks, or a uint64 array of word rows, one
    row per mask (_words_of_rows).  Deterministic output order: ascending
    (popcount, mask value).  A family of fewer than _VECTOR_REDUCE_MIN
    masks runs the plain loop over the kept masks.  A larger one, at any
    width, is sorted and deduplicated as word rows (_distinct) and swept a
    popcount level at a time in numpy (_reduce_distinct).
    """
    if isinstance(masks, np.ndarray):
        if len(masks) >= _VECTOR_REDUCE_MIN:
            return _reduce_distinct(*_distinct(masks)[:2])
        masks = _masks_of_words(masks.T)
    masks = masks if isinstance(masks, (list, tuple)) else list(masks)
    if len(masks) < _VECTOR_REDUCE_MIN:
        # a stable sort by popcount of the ascending masks: (popcount, value) order
        return _minimal(sorted(sorted(set(masks)), key=int.bit_count))
    return _reduce_distinct(*_distinct(_words_of_masks(masks))[:2])


def _reduce_distinct(words: list[np.ndarray], pop: np.ndarray) -> list[int]:
    """reduce_family of distinct masks in (popcount, value) order, given as
    one uint64 array per word with their popcounts: the numpy sweep
    (_sweep) until fewer than _SWEEP_TAIL masks are left for the plain
    loop.  Only the kept masks and the sweep's tail become ints."""
    if pop.size < _SWEEP_TAIL:
        return _minimal(_masks_of_words(words))
    kept, rest = _sweep(words, pop)
    # no mask of the rest is a superset of a kept one
    return _masks_of_words(kept) + _minimal(_masks_of_words(rest))


def _minimal(ordered: list[int]) -> list[int]:
    """The masks of a distinct (popcount, value) ordered list that contain
    no mask kept before them."""
    kept: list[int] = []
    for m in ordered:
        for km in kept:
            if km & m == km:
                break
        else:
            kept.append(m)
    return kept


def _distinct(
    rows: np.ndarray, tags: np.ndarray | None = None
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray | None]:
    """The distinct word rows in (popcount, value) order as one uint64
    array per word, word k holding bits 64k to 64k + 63 of every mask,
    their popcounts and, given a uint8 tag below 8 per row, a uint8 mask
    per distinct row of the tags its copies carry.  Only arrays of the
    distinct rows outlive the call."""
    cols = rows.T
    if tags is None and len(cols) == 1:
        words = [np.sort(cols[0])]
    else:
        # value order: the last word is the primary key
        order = np.argsort(cols[0]) if len(cols) == 1 else np.lexsort(cols)
        words = [w[order] for w in cols]
        if tags is not None:
            tags = np.left_shift(1, tags[order], dtype=np.uint8)
        del order
    first = np.zeros(len(words[0]), dtype=bool)  # the first copy of each row
    first[:1] = True
    for w in words:
        first[1:] |= w[1:] != w[:-1]
    starts = first.nonzero()[0]
    del first
    words = [w[starts] for w in words]
    members = None if tags is None or not starts.size else np.bitwise_or.reduceat(tags, starts)
    # 16-bit popcounts (masks narrower than 2^16 bits) take numpy's radix sort
    pop = np.zeros(len(starts), dtype=np.uint16)
    for w in words:
        pop += np.bitwise_count(w)
    order = np.argsort(pop, kind="stable")
    return [w[order] for w in words], pop[order], None if members is None else members[order]


def _fits(family: Sequence[int] | np.ndarray, width: int) -> bool:
    """True when every mask of family (int masks or word rows) is
    nonnegative and has no bit from width on."""
    if not len(family):
        return True
    if isinstance(family, np.ndarray):
        # the mask of the largest words: word k as long as the longest word k
        return not int.from_bytes(family.max(axis=0).astype("<u8").tobytes(), "little") >> width
    return min(family) >= 0 and not max(family) >> width


def _first_missed(family: Sequence[int] | np.ndarray, mask: int) -> int | None:
    """The first mask of family (int masks or word rows) that has no
    element of mask, or None; one numpy test over the family."""
    rows = family if isinstance(family, np.ndarray) else _words_of_masks(family)
    if not len(rows):
        return None
    missed = None
    for k, w in enumerate(rows.T):
        word_missed = (w & np.uint64(mask >> k * _WORD_BITS & _WORD_MASK)) == 0
        missed = word_missed if missed is None else missed & word_missed
    first = int(missed.argmax())
    return _masks_of_words(rows[first : first + 1].T)[0] if missed[first] else None


def _sweep(words: list[np.ndarray], pop: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split distinct masks in (popcount, value) order, as word arrays with
    their popcounts, into minimal masks (kept) and a rest of fewer than
    _SWEEP_TAIL masks, none of them a superset of a kept mask; both stay in
    that order.

    The lowest popcount level is kept whole: distinct masks of equal
    popcount are never nested, and the supersets of the earlier levels
    are already gone.  Its supersets are then dropped from the rest in
    blocks of at most _SWEEP_ENTRIES subset tests, k & m == k on every
    word, and the rest shrinks after every block, so later blocks test
    fewer masks and take more of the level at once."""
    levels = [[w[:0] for w in words]]
    while pop.size >= _SWEEP_TAIL:
        end = int(np.searchsorted(pop, pop[0], side="right"))
        level, words, pop = [w[:end] for w in words], [w[end:] for w in words], pop[end:]
        levels.append(level)
        start = 0
        while start < end and pop.size:
            stop = start + max(1, _SWEEP_ENTRIES // pop.size)
            miss = None  # miss[i, j]: level mask start + i is not within mask j
            for lw, w in zip(level, words):
                k = lw[start:stop, None]
                word_miss = (k & w) != k
                miss = word_miss if miss is None else miss | word_miss
            keep = miss.all(axis=0)
            words, pop = [w[keep] for w in words], pop[keep]
            start = stop
    return [np.concatenate(level_words) for level_words in zip(*levels)], words
