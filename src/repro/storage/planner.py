"""Read-side query planner: zone maps + spatial fragment index.

Algorithm 3's READ must "discover fragments overlapping the query box".
The seed implementation is a linear ``bbox.intersects`` scan over every
manifest entry followed by an unconditional load + decode of every
overlapping fragment.  This module supplies the two metadata structures
the store composes into a :class:`QueryPlan` before any fragment file is
touched:

:class:`ZoneMap`
    Per-fragment range metadata over the *global* row-major linear address
    space (ALTO's observation: the linearized address is a total order, so
    cheap range metadata over it prunes work before any decode).  A zone
    map records ``addr_min`` / ``addr_max`` plus a coarse fixed-width
    address histogram (:data:`ZONE_HIST_BUCKETS` buckets).  Point queries
    linearize once and drop every fragment whose zone map provably
    excludes all query addresses; box queries drop fragments whose address
    range misses the box's ``[lin(origin), lin(end - 1)]`` envelope
    (row-major addresses are monotone in every coordinate, so the envelope
    bounds every cell of *any* box — soundness does not require the box to
    be axis-contained).

:class:`FragmentIndex`
    Per-dimension sorted interval arrays over the manifest bounding boxes
    (classic searchsorted stabbing).  ``candidates(box)`` returns exactly
    the fragments ``Box.intersects`` would keep — bit-identical pruning —
    in O(d·(log F + F/8)) vectorized work instead of an O(F) Python loop.
    The index is rebuilt lazily on every manifest generation bump
    (:class:`QueryPlanner` caches one index per generation).

Both structures are *sound* (they never prune a fragment that could hold
a result) but deliberately lossy in the other direction: a fragment that
survives the plan may still contain none of the queried points.  The
format READ kernels remain the ground truth.

The WAL tail overlay reuses :class:`ZoneMap` outside the plan proper:
:func:`repro.storage.wal.build_tail_run` attaches one to the merged
unpacked-append run, and the store consults it (``may_contain_any`` /
``overlaps_range``) before the tail joins a read — so unpacked appends
get the same address-range pruning as committed fragments.

Planner decisions are observable (see :mod:`repro.obs`):

``store.plan.fragments_pruned_index``
    fragments dropped by the bbox interval index,
``store.plan.fragments_pruned_zonemap``
    fragments dropped by zone-map address pruning,
``store.plan.index_rebuilds``
    fragment-index rebuilds (one per generation actually queried),
``store.plan.zone_backfilled``
    zone maps lazily computed for pre-zone-map manifests,
``store.plan.lazy_bytes_avoided``
    bytes served through zero-copy mapped views instead of read copies,
``store.plan.crc_memo_hits``
    whole-file CRC checks skipped by ``crc_mode="once"`` memoization.

``FragmentStore.explain(query)`` returns the :class:`QueryPlan` a read
would use without executing it; ``repro stats --plan`` renders the
counters above.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from ..core.boundary import Box
from ..core.dtypes import INDEX_DTYPE
from ..core.linearize import (
    alto_box_ranges,
    fits_addr_order,
    linearize_order,
)
from ..obs import counter_add

#: Number of fixed-width buckets in a zone map's coarse address histogram.
#: 16 buckets cost ~130 bytes of JSON per fragment and already separate
#: disjoint row bands well; the histogram only ever needs to answer
#: "is this bucket provably empty?".
ZONE_HIST_BUCKETS = 16


@dataclass(frozen=True)
class ZoneMap:
    """Linear-address range metadata for one fragment.

    ``addr_min`` / ``addr_max`` are the smallest and largest *global*
    row-major addresses stored in the fragment (inclusive).  ``hist``
    counts points per fixed-width address bucket over that span; bucket
    ``i`` covers ``[addr_min + i*width, addr_min + (i+1)*width)`` with
    ``width = ceil(span / ZONE_HIST_BUCKETS)``.  Counts are informational
    (``explain`` output); pruning only consults zero vs non-zero.
    """

    addr_min: int
    addr_max: int
    hist: tuple[int, ...]

    @property
    def bucket_width(self) -> int:
        """Width of one histogram bucket in address units (Python int —
        the span of a near-full uint64 shape overflows ``np.uint64``
        arithmetic, arbitrary precision does not)."""
        span = self.addr_max - self.addr_min + 1
        return -(-span // max(1, len(self.hist)))

    @classmethod
    def from_addresses(
        cls, addresses: np.ndarray, *, assume_sorted: bool = False
    ) -> "ZoneMap | None":
        """Build a zone map from a fragment's global address vector.

        ``assume_sorted=True`` (the write path — ``CanonicalCoords``
        hands over the canonical sort) takes min/max from the ends
        instead of scanning.  Returns ``None`` for an empty vector: an
        empty fragment has no address range to prune on.
        """
        a = np.asarray(addresses)
        if a.size == 0:
            return None
        if assume_sorted:
            amin, amax = int(a[0]), int(a[-1])
        else:
            amin, amax = int(a.min()), int(a.max())
        span = amax - amin + 1
        width = -(-span // ZONE_HIST_BUCKETS)
        n_buckets = -(-span // width)
        buckets = (
            (a.astype(INDEX_DTYPE) - INDEX_DTYPE.type(amin))
            // INDEX_DTYPE.type(width)
        ).astype(np.intp)
        hist = np.bincount(buckets, minlength=n_buckets)
        return cls(amin, amax, tuple(int(c) for c in hist))

    # -- manifest (de)serialization ------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "addr_min": self.addr_min,
            "addr_max": self.addr_max,
            "hist": list(self.hist),
        }

    @classmethod
    def from_json(cls, obj: Any) -> "ZoneMap | None":
        """Parse a manifest ``"zone"`` entry; tolerant of ``None`` and of
        malformed entries (a damaged zone map degrades to "no pruning",
        never to a failed open)."""
        if not isinstance(obj, dict):
            return None
        try:
            return cls(
                addr_min=int(obj["addr_min"]),
                addr_max=int(obj["addr_max"]),
                hist=tuple(int(c) for c in obj.get("hist", ())),
            )
        except (KeyError, TypeError, ValueError):
            return None

    # -- pruning predicates --------------------------------------------

    def overlaps_range(self, lo: int, hi: int) -> bool:
        """Whether any stored address *may* fall in ``[lo, hi]``.

        Consults the range first, then the histogram buckets the range
        touches — a box whose address envelope straddles an empty middle
        bucket is still pruned.
        """
        lo, hi = int(lo), int(hi)
        if hi < self.addr_min or lo > self.addr_max:
            return False
        if not self.hist:
            return True
        width = self.bucket_width
        b_lo = max(0, (max(lo, self.addr_min) - self.addr_min) // width)
        b_hi = min(
            len(self.hist) - 1,
            (min(hi, self.addr_max) - self.addr_min) // width,
        )
        return any(self.hist[b_lo:b_hi + 1])

    def overlaps_any(self, ranges: Sequence[tuple[int, int]]) -> bool:
        """Whether any of ``ranges`` *may* hold a stored address.

        ``ranges`` are ascending, disjoint inclusive intervals (what
        :class:`QueryKeys` yields), so only those from the one holding
        ``addr_min`` up to ``addr_max`` are tested — an interleaved box
        decomposes into dozens of intervals, and a fragment spans few.
        """
        start = bisect_right(ranges, self.addr_min, key=itemgetter(0))
        for lo, hi in islice(ranges, max(start - 1, 0), None):
            if lo > self.addr_max:
                return False
            if self.overlaps_range(lo, hi):
                return True
        return False

    def may_contain_any(self, sorted_addresses: np.ndarray) -> bool:
        """Whether any of the (ascending) query addresses *may* be stored.

        Clips the query vector to ``[addr_min, addr_max]`` with two
        binary searches, then tests the surviving addresses against the
        histogram's non-empty buckets.
        """
        if sorted_addresses.size == 0:
            return False
        lo = int(sorted_addresses.searchsorted(self.addr_min, side="left"))
        hi = int(sorted_addresses.searchsorted(self.addr_max, side="right"))
        if lo >= hi:
            return False
        if all(self.hist):
            return True
        window = sorted_addresses[lo:hi].astype(INDEX_DTYPE, copy=False)
        buckets = (
            (window - INDEX_DTYPE.type(self.addr_min))
            // INDEX_DTYPE.type(self.bucket_width)
        ).astype(np.intp)
        return bool(
            self._occupancy[np.minimum(buckets, len(self.hist) - 1)].any()
        )

    @cached_property
    def _occupancy(self) -> np.ndarray:
        """Non-empty histogram buckets, built once per zone map."""
        return np.asarray(self.hist, dtype=np.int64) > 0


class QueryKeys:
    """Per-address-order query keys, computed lazily and memoized.

    A mixed-order store prunes each fragment in the address space its
    zone map was built over (the fragment's ``addr_order`` tag).  One
    instance is built per READ; the planner pulls the keys for each
    fragment's order on demand, so a single-order store pays exactly one
    linearize (points) or one box decomposition (boxes):

    * point queries linearize the query coordinates once per distinct
      order and sort them;
    * box queries reduce to address intervals — one ``[lin(origin),
      lin(end - 1)]`` envelope in row-major order (per-coordinate
      monotonicity makes it sound), or O(address bits) contiguous
      BIGMIN-style ranges in ALTO order (:func:`repro.core.linearize.
      alto_box_ranges`), each pruned against the zone map separately so
      an interleaved box does not degrade to one giant span.

    ``addresses`` seeds the memo with keys the caller already holds
    (``{order: ascending addresses of points}``), so a sharded parent
    hands each band its slice of one sort instead of re-linearizing.
    """

    def __init__(
        self,
        shape: Sequence[int],
        *,
        points: np.ndarray | None = None,
        box: Box | None = None,
        max_ranges: int = 64,
        addresses: dict[str, np.ndarray] | None = None,
    ) -> None:
        self.shape = tuple(int(m) for m in shape)
        self._points = points
        self._box = box
        self._max_ranges = int(max_ranges)
        self._addresses: dict[str, np.ndarray | None] = dict(addresses or {})
        self._ranges: dict[str, list[tuple[int, int]] | None] = {}

    def addresses(self, order: str) -> np.ndarray | None:
        """Ascending query addresses in ``order``'s space (``None`` when
        the shape does not fit that order or this is a box query)."""
        if self._points is None:
            return None
        if order not in self._addresses:
            if not fits_addr_order(self.shape, order):
                self._addresses[order] = None
            else:
                self._addresses[order] = np.sort(
                    linearize_order(
                        self._points, self.shape, order, validate=False
                    )
                )
        return self._addresses[order]

    def ranges(self, order: str) -> "list[tuple[int, int]] | None":
        """Inclusive address intervals covering the box in ``order``'s
        space (``None`` when unavailable; ``[]`` for an empty box)."""
        if self._box is None:
            return None
        if order not in self._ranges:
            self._ranges[order] = self._compute_ranges(order)
        return self._ranges[order]

    def _compute_ranges(self, order: str) -> "list[tuple[int, int]] | None":
        if not fits_addr_order(self.shape, order):
            return None
        box = self._box
        origin = np.maximum(np.asarray(box.origin, dtype=np.int64), 0)
        end = np.minimum(
            np.asarray(box.end, dtype=np.int64),
            np.asarray(self.shape, dtype=np.int64),
        )
        if bool(np.any(end <= origin)):
            return []
        if order == "alto":
            return alto_box_ranges(
                origin, end, self.shape, max_ranges=self._max_ranges
            )
        lo = int(
            linearize_order(
                origin[None, :].astype(np.uint64), self.shape, order,
                validate=False,
            )[0]
        )
        hi = int(
            linearize_order(
                (end - 1)[None, :].astype(np.uint64), self.shape, order,
                validate=False,
            )[0]
        )
        return [(lo, hi)]

    def interval_count(self) -> int:
        """Total address intervals materialized so far (explain output)."""
        return sum(
            len(r) for r in self._ranges.values() if r is not None
        )


class FragmentIndex:
    """Searchsorted interval stabbing over the manifest bounding boxes.

    For each dimension the fragment origins and (exclusive) ends are kept
    in two sorted arrays with their argsort permutations.  A query box
    *excludes* fragment ``f`` in dimension ``j`` iff
    ``f.origin[j] >= q.end[j]`` or ``f.end[j] <= q.origin[j]`` — each a
    contiguous suffix/prefix of the sorted arrays, located by one binary
    search and cleared from a boolean survivor mask.  What remains is
    exactly the ``Box.intersects`` survivor set (empty fragment boxes are
    masked out up front, matching ``intersects`` returning ``False`` for
    them), so swapping the linear scan for the index can never change
    query results.
    """

    def __init__(self, fragments: Sequence[Any]):
        self.fragments = tuple(fragments)
        n = len(self.fragments)
        self.ndim = self.fragments[0].bbox.ndim if n else 0
        #: Fragments lacking a zone map despite holding points — the
        #: store's lazy-backfill trigger for pre-zone-map manifests.
        self.stale_zone_count = sum(
            1
            for f in self.fragments
            if f.nnz and getattr(f, "zone", None) is None
        )
        self._alive = np.ones(n, dtype=bool)
        self._starts: list[list[int]] = []
        self._ends: list[list[int]] = []
        self._start_order: list[np.ndarray] = []
        self._end_order: list[np.ndarray] = []
        for f_i, f in enumerate(self.fragments):
            if f.bbox.is_empty():
                self._alive[f_i] = False
        for j in range(self.ndim):
            starts = np.fromiter(
                (f.bbox.origin[j] for f in self.fragments),
                dtype=np.int64,
                count=n,
            )
            ends = np.fromiter(
                (f.bbox.end[j] for f in self.fragments),
                dtype=np.int64,
                count=n,
            )
            s_order = np.argsort(starts, kind="stable")
            e_order = np.argsort(ends, kind="stable")
            # Python lists: one bisect on a list costs a fraction of a
            # NumPy call, and candidates() runs on every read.
            self._starts.append(starts[s_order].tolist())
            self._ends.append(ends[e_order].tolist())
            self._start_order.append(s_order)
            self._end_order.append(e_order)

    def __len__(self) -> int:
        return len(self.fragments)

    def candidates(self, query_box: Box) -> np.ndarray:
        """Indices (ascending) of fragments whose bbox intersects the box."""
        if not self.fragments or query_box.is_empty():
            return np.empty(0, dtype=np.intp)
        n = len(self.fragments)
        alive = self._alive.copy()
        for j in range(self.ndim):
            q_origin = int(query_box.origin[j])
            q_end = q_origin + int(query_box.size[j])
            # Fragments starting at/after the query's end cannot overlap.
            k = bisect_left(self._starts[j], q_end)
            if k < n:
                alive[self._start_order[j][k:]] = False
            # Fragments ending at/before the query's origin cannot overlap.
            k = bisect_right(self._ends[j], q_origin)
            if k:
                alive[self._end_order[j][:k]] = False
        return np.flatnonzero(alive)


@dataclass
class QueryPlan:
    """One READ's fragment visit decision, stage by stage.

    ``fragments`` is the visit list in manifest (append) order — the
    merge relies on that order for newest-wins duplicate semantics.
    ``pruned_bbox`` counts fragments dropped because their bounding box
    misses the query box (the seed's only pruning — the pre-existing
    ``store.fragments_pruned`` counter keeps exactly this meaning);
    ``pruned_zonemap`` counts fragments additionally dropped by
    zone-map address pruning, which only exists with the planner on.
    ``codec_bytes`` maps stored codec chain tags to the bytes-on-disk
    the visit list will touch per chain (filled by
    ``FragmentStore.explain`` from the manifest's per-fragment codec
    records) — pruned fragments contribute nothing, which is exactly
    the "pruned fragments never decompress" guarantee made visible.
    """

    kind: str  # "points" | "box"
    total_fragments: int
    fragments: list[Any] = field(default_factory=list)
    pruned_bbox: int = 0
    pruned_zonemap: int = 0
    used_index: bool = False
    used_zonemaps: bool = False
    codec_bytes: dict[str, int] | None = None
    #: The store's active address order (``None`` on legacy call paths).
    addr_order: str | None = None
    #: Address intervals the query decomposed into, per order actually
    #: consulted (box queries; ``{"alto": 7, "row_major": 1}``-shaped).
    intervals: dict[str, int] | None = None

    def summary(self) -> str:
        """Human-readable plan rendering (``FragmentStore.explain``)."""
        after_bbox = self.total_fragments - self.pruned_bbox
        stage1 = "bbox-index" if self.used_index else "bbox-scan"
        lines = [
            f"plan: {self.kind} query over "
            f"{self.total_fragments} fragment(s)",
        ]
        if self.addr_order is not None:
            order_line = f"  {'order':>10s}: {self.addr_order}"
            if self.intervals:
                per_order = ", ".join(
                    f"{order}={n}"
                    for order, n in sorted(self.intervals.items())
                )
                order_line += f" (intervals: {per_order})"
            lines.append(order_line)
        lines.append(
            f"  {stage1:>10s}: {self.total_fragments} -> {after_bbox} "
            f"({self.pruned_bbox} pruned)"
        )
        if self.used_zonemaps:
            lines.append(
                f"  {'zone-map':>10s}: {after_bbox} -> "
                f"{len(self.fragments)} ({self.pruned_zonemap} pruned)"
            )
        names = ", ".join(f.path.name for f in self.fragments[:8])
        if len(self.fragments) > 8:
            names += f", ... (+{len(self.fragments) - 8} more)"
        lines.append(f"  visit: {names or '(none)'}")
        if self.codec_bytes:
            per_codec = ", ".join(
                f"{tag}={nbytes}B"
                for tag, nbytes in sorted(self.codec_bytes.items())
            )
            lines.append(f"  codecs: {per_codec}")
        return "\n".join(lines)


class QueryPlanner:
    """Per-store planner state: one cached :class:`FragmentIndex`.

    The index is derived purely from the manifest fragment list, which
    only changes under a generation bump, so caching per generation makes
    rebuilds O(mutations) rather than O(reads).  Thread-safe: concurrent
    readers share one build under an internal lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._index: FragmentIndex | None = None
        self._generation: int | None = None

    def index_for(
        self, fragments: Sequence[Any], generation: int
    ) -> FragmentIndex:
        """The interval index for ``fragments`` at ``generation``."""
        with self._lock:
            if self._index is None or self._generation != generation:
                self._index = FragmentIndex(fragments)
                self._generation = generation
                counter_add("store.plan.index_rebuilds")
            return self._index

    def plan(
        self,
        fragments: Sequence[Any],
        generation: int,
        query_box: Box,
        *,
        kind: str,
        enabled: bool = True,
        keys: QueryKeys | None = None,
        addr_order: str | None = None,
    ) -> QueryPlan:
        """Build the visit plan for one READ.

        With ``enabled=False`` this is exactly the seed's linear
        ``bbox.intersects`` scan (the plan-off reference the differential
        harness compares against).  Otherwise the interval index supplies
        the bbox survivors and, when the caller provides ``keys`` (a
        :class:`QueryKeys`), zone maps prune further.  Fragments without
        a zone map are never pruned by the zone stage.

        Every surviving fragment is pruned against the query keys
        expressed in *its own* address order (``frag.addr_order``), so
        mixed-order stores prune correctly — and ALTO box queries prune
        per contiguous interval instead of one giant span.  ``addr_order`` is the store's active order,
        carried into the plan for ``explain``.
        """
        total = len(fragments)
        if not enabled:
            keep = [f for f in fragments if f.bbox.intersects(query_box)]
            return QueryPlan(
                kind=kind,
                total_fragments=total,
                fragments=keep,
                pruned_bbox=total - len(keep),
                addr_order=addr_order,
            )
        index = self.index_for(fragments, generation)
        cand = index.candidates(query_box)
        keep = []
        pruned_zone = 0
        used_zone = False
        for i in cand:
            frag = index.fragments[i]
            zone = getattr(frag, "zone", None)
            if zone is not None and keys is not None:
                forder = getattr(frag, "addr_order", "row_major")
                sa = keys.addresses(forder)
                if sa is not None:
                    used_zone = True
                    if not zone.may_contain_any(sa):
                        pruned_zone += 1
                        continue
                else:
                    ranges = keys.ranges(forder)
                    if ranges is not None:
                        used_zone = True
                        if not zone.overlaps_any(ranges):
                            pruned_zone += 1
                            continue
            keep.append(frag)
        intervals = None
        if keys is not None:
            counted = {
                order: len(r)
                for order, r in keys._ranges.items()
                if r is not None
            }
            intervals = counted or None
        return QueryPlan(
            kind=kind,
            total_fragments=total,
            fragments=keep,
            pruned_bbox=total - len(cand),
            pruned_zonemap=pruned_zone,
            used_index=True,
            used_zonemaps=used_zone,
            addr_order=addr_order,
            intervals=intervals,
        )
