"""The int-mask format of every set that passes between the package's modules.

A set is an int mask, bit e set for element e (bit v for vertex v in a
graph), and a family of sets a list of masks; only the witnesses that
answers return are sorted tuples.  mask_of and bits_of convert one set,
masks_of_columns and rows_of_masks convert between masks and boolean
matrices, for every width, and reduce_family keeps a family's minimal
sets.  Inside numpy a wide mask is held as uint64 words, word k holding
bits 64k to 64k + 63: the boolean matrices are packed a word at a time,
and a large family is reduced as one uint64 array per word, at any
width.  This module imports nothing from the rest of the package.
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
    """The masks whose word k is words[k], one uint64 array per word."""
    masks = words[0].tolist()
    for k in range(1, len(words)):
        lo = k * _WORD_BITS
        masks = [m | w << lo for m, w in zip(masks, words[k].tolist())]
    return masks


def masks_of_columns(bits: np.ndarray) -> list[int]:
    """Column j of a boolean matrix as a mask: bit i set when bits[i, j].

    The columns are packed eight rows to a byte, so the temporaries take
    one bit per entry, and each block of 64 rows is read as one uint64
    word per column; wider columns shift the later words into place."""
    n, cols = bits.shape
    words = max(1, -(-n // _WORD_BITS))
    octets = np.zeros((cols, 8 * words), dtype=np.uint8)
    octets[:, : -(-n // 8)] = np.packbits(bits, axis=0, bitorder="little").T
    return _masks_of_words(octets.view("<u8").T)


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


def reduce_family(masks: Iterable[int]) -> list[int]:
    """Deduplicate and drop supersets (hitting a subset hits its supersets).

    Deterministic output order: ascending (popcount, mask value).  Masks
    must be nonnegative.  A family of fewer than _VECTOR_REDUCE_MIN
    distinct masks runs the plain loop over the kept masks.  A larger one,
    at any width, is packed as uint64 words (one word below 2^64) and
    swept a popcount level at a time in numpy (_sweep) until fewer than
    _SWEEP_TAIL masks are left for the plain loop.
    """
    masks = masks if isinstance(masks, (list, tuple)) else list(masks)
    if len(masks) >= _VECTOR_REDUCE_MIN:
        words, pop = _distinct_words(masks)
        if pop.size >= _VECTOR_REDUCE_MIN:
            kept, rest = _sweep(words, pop)
            # no mask of the rest is a superset of a kept one
            return _masks_of_words(kept) + _minimal(_masks_of_words(rest))
        ordered = _masks_of_words(words)
    else:
        # a stable sort by popcount of the ascending masks: (popcount, value) order
        ordered = sorted(sorted(set(masks)), key=int.bit_count)
    return _minimal(ordered)


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


def _distinct_words(masks: Sequence[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct masks in (popcount, value) order as uint64 word arrays,
    word k holding bits 64k to 64k + 63 of every mask, and their popcounts."""
    try:
        words = [np.sort(np.fromiter(masks, dtype=np.uint64, count=len(masks)))]
    except OverflowError:  # a mask wider than 64 bits
        count = -(-max(masks).bit_length() // _WORD_BITS)
        data = b"".join(m.to_bytes(8 * count, "little") for m in masks)
        cols = np.frombuffer(data, dtype="<u8").reshape(-1, count).T
        # value order: the last word is the primary key
        words = list(cols.take(np.lexsort(cols), axis=1))
    new = np.zeros(len(masks), dtype=bool)
    new[0] = True
    for w in words:
        new[1:] |= w[1:] != w[:-1]
    words = [w[new] for w in words]
    # 16-bit popcounts (masks narrower than 2^16 bits) take numpy's radix sort
    pop = np.zeros(len(words[0]), dtype=np.uint16)
    for w in words:
        pop += np.bitwise_count(w)
    order = np.argsort(pop, kind="stable")
    return [w[order] for w in words], pop[order]


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
