"""The int-mask format of every set that passes between the package's modules.

A set is an int mask, bit e set for element e (bit v for vertex v in a
graph), and a family of sets a list of masks; only the witnesses that
answers return are sorted tuples.  mask_of and bits_of convert one set,
masks_of_columns and rows_of_masks convert between masks and boolean
matrices, for every width, and reduce_family keeps a family's minimal
sets.  This module imports nothing from the rest of the package.
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


def masks_of_columns(bits: np.ndarray) -> list[int]:
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


def reduce_family(masks: Iterable[int]) -> list[int]:
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
    """reduce_family for distinct 64-bit masks in ascending order: the
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
