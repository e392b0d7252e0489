"""Merge of already-sorted fragment payloads (compaction without decode).

``FragmentStore.compact()`` used to reconstruct every fragment into a
full ``SparseTensor`` (decode + delinearize), concatenate, dedup, and
rebuild from scratch — paying the global linearize + sort the fragments
already paid at write time.  This module replaces that with a k-way
merge over per-fragment *sorted address runs*:

1. each fragment contributes ``(sorted_addresses, value_order)`` via its
   format's :meth:`SparseFormat.extract_addresses` — for LINEAR that is
   a plain argsort of the stored address buffer (no delinearize), for
   COO-SORTED/identity-CSF it is free;
2. the runs are concatenated in fragment order and stably argsorted by
   :func:`~repro.core.sorting.stable_argsort` (timsort merges two runs in
   one pass; more runs take its packed integer sort);
3. duplicate addresses resolve to the *last* occurrence in
   (fragment, stored-position) order — exactly the store's newest-wins
   overwrite rule (:data:`repro.build.canonical.DUPLICATE_POLICY`);
4. the surviving points are re-expressed in concatenation order with
   their sort permutation *derived* (not re-sorted), so the output
   fragment is bit-identical to what the legacy decode-and-rebuild
   compaction produced, while sorted target formats still skip their
   build sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.sorting import invert_permutation, stable_argsort
from ..obs import counter_add
from .canonical import CanonicalCoords


@dataclass
class SortedRun:
    """One fragment's contribution to a merge.

    ``addresses`` are ascending global linear addresses; ``values`` is
    the aligned value buffer (already gathered into address order);
    ``positions`` maps each entry back to its stored position inside the
    source fragment (used to reconstruct newest-wins order across runs).
    """

    addresses: np.ndarray
    values: np.ndarray
    positions: np.ndarray


@dataclass
class MergedPoints:
    """Result of a newest-wins merge, in legacy concatenation order.

    ``canonical`` carries the merged addresses *plus* their known sort
    permutation, so a follow-up :meth:`SparseFormat.build_canonical`
    never re-sorts; ``values`` is aligned with ``canonical``'s input
    order.  The point order matches what decode-and-rebuild compaction
    produced (concatenated stored order, duplicates collapsed to the
    newest), which keeps the two strategies bit-identical.
    """

    canonical: CanonicalCoords
    values: np.ndarray


def merge_sorted_runs(
    runs: list[SortedRun],
    shape: tuple[int, ...],
    *,
    addr_order: str = "row_major",
) -> MergedPoints:
    """Newest-wins k-way merge of sorted address runs.

    Runs must be given oldest-first (fragment commit order); within a
    run, entries with equal addresses must be in stored order — both are
    what :meth:`SparseFormat.extract_addresses` yields.  ``addr_order``
    names the address space the runs are sorted in (every run must
    already be expressed in it — mixed-order sources convert before
    merging); the merged canonical inherits it.
    """
    counter_add("build.merge.runs", len(runs))
    if not runs:
        return MergedPoints(
            canonical=CanonicalCoords.from_addresses(
                np.empty(0, dtype=np.uint64), shape, is_sorted=True,
                addr_order=addr_order,
            ),
            values=np.empty(0, dtype=np.float64),
        )
    addresses = np.concatenate([r.addresses for r in runs])
    values = np.concatenate([r.values for r in runs])
    # Global stored position of every entry: fragment offset + position
    # inside the fragment.  Equal addresses resolve to the max position,
    # i.e. the newest fragment's latest occurrence.
    offsets = np.cumsum([0] + [r.positions.shape[0] for r in runs[:-1]])
    gpos = np.concatenate(
        [r.positions.astype(np.int64) + off
         for r, off in zip(runs, offsets)]
    )
    counter_add("build.merge.points", int(addresses.shape[0]))
    # Stable argsort over concatenated sorted runs == the k-way merge.
    order = stable_argsort(addresses)
    merged = addresses[order]
    if merged.shape[0] == 0:
        return MergedPoints(
            canonical=CanonicalCoords.from_addresses(
                merged, shape, is_sorted=True, addr_order=addr_order
            ),
            values=values,
        )
    is_last = np.empty(merged.shape[0], dtype=bool)
    is_last[-1] = True
    np.not_equal(merged[1:], merged[:-1], out=is_last[:-1])
    # Within an equal-address group entries arrive in ascending global
    # stored position (runs are concatenated oldest-first and are stable
    # within themselves), so the last entry is the newest write.
    survivors = order[is_last]
    addr_sorted = merged[is_last]
    surv_gpos = gpos[survivors]
    surv_values = values[survivors]
    # Re-express in legacy concatenation order (what decode-and-rebuild
    # produced: deduplicated keep-last, selection indices ascending),
    # deriving the sort permutation instead of re-sorting addresses.
    # Global positions are distinct and below the entry count, so their
    # ascending order comes from one scatter instead of a sort.
    slot = np.full(gpos.shape[0], -1, dtype=np.intp)
    slot[surv_gpos] = np.arange(surv_gpos.shape[0])
    to_concat_order = slot[slot >= 0]
    sort_perm = invert_permutation(to_concat_order).astype(np.intp)
    return MergedPoints(
        canonical=CanonicalCoords.from_addresses(
            addr_sorted[to_concat_order],
            shape,
            sort_perm=sort_perm,
            sorted_addresses=addr_sorted,
            addr_order=addr_order,
        ),
        values=surv_values[to_concat_order],
    )
