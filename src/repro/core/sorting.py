"""Stable sorting and permutation-map helpers.

Every BUILD algorithm in the paper that reorders points returns a ``map``
vector "recording the original index in sorting ``b_coor``" (Algorithm 1
line 4, Algorithm 2 line 4).  The benchmark WRITE then reorganizes the value
buffer with that map (Algorithm 3 line 5).  This module centralizes the sort
and the permutation algebra so every format treats ``map`` identically:

``map`` is the *gather* permutation: ``sorted_buffer[i] = original[map[i]]``.

Every sort is stable: :func:`stable_argsort` returns exactly
``np.argsort(keys, kind="stable")``, bit for bit, but picks its method
from one O(n) pass that counts descents in integer keys:

* no descents (pre-sorted keys): the identity, at O(n);
* two sorted runs (fewer than :data:`FEW_RUNS`): NumPy's timsort,
  which merges them in O(n);
* otherwise one ``np.sort`` of words packing ``(key - lo) << b | index``
  with ``b = (n - 1).bit_length()`` and ``lo`` the minimum key (0 for
  unsigned keys that fit without it).  Ties break on the index, so the
  order is the stable one, and NumPy's unstable sort of plain integers
  is far faster than its stable argsort.  The word is ``uint32`` when
  the packed width fits 32 bits (about twice as fast again), else
  ``uint64``;
* ``np.argsort`` itself for keys wider than 64 packed bits, for keys
  narrower than 32 bits that do not fit a ``uint32`` word (NumPy
  radix-sorts those), for other dtypes, and below
  :data:`PACK_MIN_KEYS` keys.

So pre-sorted keys cost O(n) and scattered keys cost a full sort, which
is the mechanism behind the paper's GCSR++-vs-GCSC++ asymmetry: row keys
derived from a row-major input buffer are already non-decreasing, column
keys are scattered (Table III discussion).
"""

from __future__ import annotations

import numpy as np

from .dtypes import POINTER_DTYPE, as_index_array
from .errors import ShapeError


# Cut-offs measured on x86-64 with NumPy 2.4, timing a fresh key vector
# per call (repeating one vector lets the branch predictor learn it and
# flatters the comparison sorts several-fold below ~10k keys).

#: Below this many keys ``np.argsort`` beats the packed sort's fixed
#: cost (random keys: 14 µs each at 256, 21 vs 15 µs at 384).
PACK_MIN_KEYS = 256
#: Timsort merges fewer than this many sorted runs faster than the packed
#: sort (two runs: 1.1-1.4x faster from 1k to 64k keys; three runs: a tie
#: or slower).
FEW_RUNS = 3


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of a 1D key vector; returns the gather permutation.

    Identical to ``np.argsort(keys, kind="stable")``; the method follows
    the keys' presortedness (see the module docstring).
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ShapeError("keys must be 1D")
    n = keys.shape[0]
    if n < PACK_MIN_KEYS or keys.dtype.kind not in "iu":
        return np.argsort(keys, kind="stable")
    descents = np.count_nonzero(keys[1:] < keys[:-1])
    if descents == 0:
        return np.arange(n, dtype=np.intp)
    if descents + 1 < FEW_RUNS:
        return np.argsort(keys, kind="stable")
    bits = (n - 1).bit_length()
    hi = int(keys.max())
    lo = 0
    if keys.dtype.kind == "i" or hi.bit_length() + bits > 32:
        lo = int(keys.min())
    width = (hi - lo).bit_length() + bits
    if width <= 32:
        word = np.uint32
    elif width <= 64 and keys.dtype.itemsize >= 4:
        word = np.uint64
    else:
        return np.argsort(keys, kind="stable")
    packed = keys.astype(word)
    if lo:
        # Modular arithmetic in the word: ``key - lo`` is exact because
        # the span fits, even for negative or truncated keys.
        packed -= word(lo % (1 << (8 * packed.itemsize)))
    packed <<= word(bits)
    packed |= np.arange(n, dtype=word)
    packed.sort()
    packed &= word((1 << bits) - 1)
    if word is np.uint64:
        packed = packed.view(np.int64)
    return packed.astype(np.intp, copy=False)


def lexsort_rows(coords: np.ndarray) -> np.ndarray:
    """Lexicographic stable argsort of ``(n, d)`` rows, dim 0 most significant.

    ``numpy.lexsort`` treats its *last* key as primary, so columns are passed
    in reverse order.
    """
    coords = as_index_array(coords)
    if coords.ndim != 2:
        raise ShapeError("coords must be (n, d)")
    if coords.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    if coords.shape[1] == 1:
        return stable_argsort(coords[:, 0])
    return np.lexsort(tuple(coords[:, i] for i in range(coords.shape[1] - 1, -1, -1)))


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    """Inverse permutation: ``inv[perm[i]] = i``.

    Converts a gather map into a scatter map, i.e. answers "where did
    original point ``j`` land after the sort?"
    """
    perm = np.asarray(perm)
    if perm.ndim != 1:
        raise ShapeError("permutation must be 1D")
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0], dtype=perm.dtype)
    return inv


def is_permutation(perm: np.ndarray) -> bool:
    """Whether ``perm`` is a permutation of ``0..len-1``."""
    perm = np.asarray(perm)
    if perm.ndim != 1:
        return False
    n = perm.shape[0]
    if n == 0:
        return True
    if perm.min() < 0 or perm.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    return bool(seen.all())


def apply_map(buffer: np.ndarray, perm: np.ndarray | None) -> np.ndarray:
    """Reorganize a value buffer by a gather map (Algorithm 3 line 5).

    ``perm is None`` means the format did not reorder points (COO, LINEAR in
    unsorted mode) and the buffer is returned as-is (no copy).
    """
    if perm is None:
        return buffer
    buffer = np.asarray(buffer)
    if buffer.shape[0] != perm.shape[0]:
        raise ShapeError(
            f"map length {perm.shape[0]} != buffer length {buffer.shape[0]}"
        )
    return np.take(buffer, perm, axis=0)


def counts_to_pointer(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: per-bucket counts -> CSR-style pointer array.

    ``pointer`` has ``len(counts) + 1`` entries with ``pointer[0] == 0`` and
    ``pointer[-1] == counts.sum()``.
    """
    counts = np.asarray(counts)
    ptr = np.zeros(counts.shape[0] + 1, dtype=POINTER_DTYPE)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def segment_boundaries(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length structure of a sorted key vector.

    Returns ``(unique_keys, start_offsets)`` where ``start_offsets`` has one
    extra trailing entry equal to ``len(sorted_keys)`` — i.e. segment ``i``
    spans ``[start_offsets[i], start_offsets[i+1])``.
    """
    sorted_keys = np.asarray(sorted_keys)
    n = sorted_keys.shape[0]
    if n == 0:
        return sorted_keys[:0], np.zeros(1, dtype=POINTER_DTYPE)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    uniq = sorted_keys[starts]
    offsets = np.empty(starts.shape[0] + 1, dtype=POINTER_DTYPE)
    offsets[:-1] = starts
    offsets[-1] = n
    return uniq, offsets
