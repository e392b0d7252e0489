"""The READ path: one executor, decoded-fragment cache, bounded fan-out.

Algorithm 3's READ is embarrassingly parallel across fragments — each
overlapping fragment is loaded, decoded, and queried independently, and
only the final address-sorted merge is sequential.  This module holds
the executor every store and snapshot read runs, and the pieces it is
built from:

:class:`FragmentCache`
    A bytes-bounded, thread-safe LRU of *decoded* fragment payloads.  The
    sequential READ re-reads and re-decodes every overlapping fragment on
    every query; under read-heavy traffic (the ROADMAP's north star) the
    decode cost dominates, and a warm cache turns it into a dictionary
    lookup.  The cache is invalidated wholesale on every manifest
    generation change (``write`` / ``compact`` / ``rescan`` / quarantine),
    so a hit can never serve pre-compaction data.  Hits, misses,
    evictions, and resident bytes are mirrored into :mod:`repro.obs`
    (``store.cache.hits`` / ``.misses`` / ``.evictions`` /
    ``store.cache.bytes``).

:func:`map_fragments_ordered`
    Fan a per-fragment task out over the shared bounded
    :class:`~concurrent.futures.ThreadPoolExecutor` and return results in
    *input order* with per-item exceptions captured, so the caller can
    apply the store's ``on_corruption`` policy fragment-by-fragment exactly
    as the sequential loop does.  NumPy releases the GIL for the heavy
    decode kernels, so thread-level parallelism is real parallelism here.

:class:`RWLock`
    A reader-writer lock (concurrent readers, exclusive reentrant writers)
    that makes one store safe under mixed concurrent
    ``read_points`` / ``read_box`` / ``write`` / ``compact`` traffic: reads
    share the lock, mutations exclude reads, and a compaction can never
    delete fragment files out from under an in-flight read.

The executor:

:class:`ReadView`
    What one READ runs over: the fragment tuple in commit (newest-wins)
    order, the optional WAL :class:`~repro.storage.wal.TailRun`, the
    manifest generation, a :class:`~repro.storage.planner.QueryPlanner`
    and the ``on_corruption`` policy.  A live
    :class:`~repro.storage.store.FragmentStore` captures one under its
    read lock per call; a :class:`~repro.storage.store.StoreSnapshot`
    holds one pinned view with a planner of its own and ``"raise"``.
:func:`execute_points` / :func:`execute_box` / :func:`explain_read`
    Algorithm 3's READ over a view, once: plan (interval index +
    zone maps, see :mod:`repro.storage.planner`), run each surviving
    fragment's organization READ (inline or on the shared pool), overlay
    the WAL tail, merge.  Stores and snapshots differ only in the view
    they pass, so they plan, fan out, count and trace identically; the
    plan's fragment list feeds both the sequential loop and the parallel
    fan-out, so the two modes visit the same fragments and merge the
    same results.

See ``docs/READ_PATH.md`` for the full pipeline description and guidance
on when ``parallel="thread"`` helps (fragment count × per-fragment decode
cost).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from ..core.boundary import Box, extract_boundary
from ..core.costmodel import OpCounter
from ..core.dtypes import as_index_array, fits_index_dtype
from ..core.errors import FragmentError, ShapeError
from ..core.linearize import linearize
from ..core.tensor import SparseTensor
from ..obs import counter_add, gauge_set, span
from ..readapi import ReadOutcome
from .options import ReadOptions
from .planner import QueryPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .planner import QueryKeys, QueryPlanner
    from .wal import TailRun

#: Read-side parallelism modes (``ReadOptions.parallel``).
PARALLEL_MODES = ("none", "thread")

#: Upper bound on the shared read pool (per process).
MAX_READ_WORKERS = min(32, 4 * (os.cpu_count() or 1))

#: Fixed per-entry bookkeeping estimate (dict slots, header, bbox tuples).
_ENTRY_OVERHEAD = 512

T = TypeVar("T")
R = TypeVar("R")

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def validate_parallel(parallel: str) -> str:
    """Validate a ``ReadOptions.parallel`` value."""
    if parallel not in PARALLEL_MODES:
        raise ValueError(
            f"parallel must be one of {PARALLEL_MODES}, got {parallel!r}"
        )
    return parallel


def get_read_executor() -> ThreadPoolExecutor:
    """The process-wide read pool (created lazily, bounded, shared).

    One bounded pool serves every store in the process so concurrent
    queries against many stores cannot multiply thread counts — the same
    discipline a server would apply to its I/O pool.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=MAX_READ_WORKERS,
                thread_name_prefix="repro-read",
            )
        return _pool


def shutdown_read_executor() -> None:
    """Tear down the shared pool (tests; safe to call when never created)."""
    global _pool
    with _pool_lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=True)


def map_fragments_ordered(
    items: Sequence[T],
    task: Callable[[T], R],
    *,
    max_workers: int | None = None,
) -> list[tuple[R | None, BaseException | None]]:
    """Run ``task`` over ``items`` on the shared pool; ordered results.

    Returns one ``(result, exception)`` pair per item, in input order —
    exceptions are captured, never raised, so the caller can apply its
    corruption policy in deterministic fragment order (identical to the
    sequential loop).  ``max_workers`` bounds *this call's* in-flight tasks
    with a sliding submission window over the shared pool; ``None`` uses
    the pool's own bound.
    """
    limit = MAX_READ_WORKERS if max_workers is None else max(1, int(max_workers))
    out: list[tuple[R | None, BaseException | None]] = [
        (None, None) for _ in items
    ]
    if not items:
        return out
    pool = get_read_executor()
    pending: dict[Any, int] = {}
    next_index = 0
    while next_index < len(items) or pending:
        while next_index < len(items) and len(pending) < limit:
            fut = pool.submit(task, items[next_index])
            pending[fut] = next_index
            next_index += 1
        done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
        for fut in done:
            idx = pending.pop(fut)
            exc = fut.exception()
            if exc is not None:
                out[idx] = (None, exc)
            else:
                out[idx] = (fut.result(), None)
    return out


def payload_nbytes(payload) -> int:
    """Resident-size estimate of one decoded fragment payload.

    Counts the index buffers, the value buffer, and a fixed bookkeeping
    constant.  Read memos the format stashes on ``payload.runtime`` after
    caching (sorted orders etc., up to ~2x the index bytes) ride outside
    this estimate — the budget bounds *decoded data*, and the memos die
    with the entry either way.
    """
    total = _ENTRY_OVERHEAD + int(payload.values.nbytes)
    for buf in payload.buffers.values():
        total += int(buf.nbytes)
    return total


class FragmentCache:
    """Bytes-bounded LRU over decoded fragment payloads (thread-safe).

    Keys are fragment file names — unique within a store directory, and
    never reused across a store's lifetime (:meth:`FragmentStore.
    _scan_next_seq` only counts upward).  ``max_bytes=0`` disables the
    cache entirely: every lookup misses without recording metrics, so the
    default-off store pays one predicate per read.

    Invalidation is wholesale (:meth:`invalidate`) and hooked to the store
    manifest's generation counter: any committed mutation — ``write``,
    ``compact``, ``rescan``, a quarantine during a degraded read — clears
    the cache, so stale post-compaction hits are impossible.  Cumulative
    counters survive invalidation; resident bytes reset.
    """

    def __init__(self, max_bytes: int = 0):
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[Any, int]] = OrderedDict()
        self._bytes = 0
        #: Cumulative totals (mirrored into ``store.cache.*`` obs metrics).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    @property
    def current_bytes(self) -> int:
        """Resident decoded bytes (always ``<= max_bytes``)."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str):
        """The cached payload for ``key``, or ``None`` (recorded as a miss)."""
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                counter_add("store.cache.hits")
                return entry[0]
            self.misses += 1
        counter_add("store.cache.misses")
        return None

    def put(self, key: str, payload) -> None:
        """Insert ``payload``; evicts LRU entries to respect ``max_bytes``.

        A payload larger than the whole budget is not cached (it would
        evict everything and then be evicted by the next insert anyway).
        """
        if not self.enabled:
            return
        nbytes = payload_nbytes(payload)
        if nbytes > self.max_bytes:
            return
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            while self._bytes + nbytes > self.max_bytes and self._entries:
                _, (_, old_nbytes) = self._entries.popitem(last=False)
                self._bytes -= old_nbytes
                self.evictions += 1
                evicted += 1
            self._entries[key] = (payload, nbytes)
            self._bytes += nbytes
            resident = self._bytes
        if evicted:
            counter_add("store.cache.evictions", evicted)
        gauge_set("store.cache.bytes", resident)

    def invalidate(self) -> None:
        """Drop every entry (generation change); totals are preserved."""
        with self._lock:
            had = bool(self._entries)
            self._entries.clear()
            self._bytes = 0
            if had:
                self.invalidations += 1
        if had:
            counter_add("store.cache.invalidations")
            gauge_set("store.cache.bytes", 0)

    def stats(self) -> dict[str, int]:
        """Snapshot for reporting (``repro stats`` cache section)."""
        with self._lock:
            return {
                "enabled": int(self.enabled),
                "max_bytes": self.max_bytes,
                "bytes": self._bytes,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }


class RWLock:
    """Reader-writer lock: shared readers, exclusive *reentrant* writer.

    The writer side is reentrant (``compact`` calls ``write`` internally)
    and a thread holding the write lock may also take the read lock (a
    mutation that reads its own store).  Fairness is writer-preferring
    enough for storage use: once a writer is waiting, new readers queue
    behind it, so a compaction cannot be starved by a read storm.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: int | None = None
        self._writer_depth = 0
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # Write lock already held by this thread: reads are allowed.
                self._writer_depth += 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth -= 1
                return
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        with self._cond:
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    def read_locked(self) -> "_Held":
        return _Held(self.acquire_read, self.release_read)

    def write_locked(self) -> "_Held":
        return _Held(self.acquire_write, self.release_write)


class _Held:
    """Tiny context manager binding an acquire/release pair."""

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire: Callable[[], None], release: Callable[[], None]):
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, *exc: object) -> None:
        self._release()


class ReadView(NamedTuple):
    """What one READ runs over (see the module docstring)."""

    #: Fragments in commit order — the merge's newest-wins order.
    fragments: tuple
    tail: "TailRun | None"
    generation: int
    planner: "QueryPlanner"
    #: ``"raise"`` / ``"skip"`` / ``"quarantine"``.
    on_corruption: str


def _plan_view(
    store, view: ReadView, query_box: Box, kind: str,
    keys: "QueryKeys | None",
) -> QueryPlan:
    """The visit plan of one READ over ``view`` (never loads a fragment)."""
    return view.planner.plan(
        view.fragments,
        view.generation,
        query_box,
        kind=kind,
        enabled=store.use_planner,
        keys=keys,
        addr_order=store.addr_order,
    )


def _run_fragment_tasks(
    store,
    policy: str,
    frags: list,
    task: Callable[[Any], object],
    options: ReadOptions,
) -> list[tuple[Any, object]]:
    """Run one read task per fragment; corruption policy applied in order.

    Sequentially (``parallel="none"``) each task runs — and its
    corruption is handled — as soon as it is reached.  With
    ``parallel="thread"`` all tasks fan out over the shared read pool and
    the results are *merged in fragment order*, with the policy applied
    in that same order, so the outcome (raise / skip / quarantine,
    counters, warnings) is identical to the sequential path.  Skipped
    fragments yield ``None`` results.
    """
    out: list[tuple[Any, object]] = []
    if options.parallel != "thread" or len(frags) <= 1:
        # Inline: a corrupt fragment is handled (or raises) the moment
        # it is reached, before any later fragment is touched.
        for frag in frags:
            try:
                out.append((frag, task(frag)))
            except FragmentError as exc:
                store._note_corruption(frag, exc, policy)
                if policy == "raise":
                    raise
                out.append((frag, None))
        return out
    results = map_fragments_ordered(
        frags, task, max_workers=options.max_workers
    )
    for frag, (result, exc) in zip(frags, results):
        if exc is None:
            out.append((frag, result))
            continue
        if not isinstance(exc, FragmentError):
            raise exc
        store._note_corruption(frag, exc, policy)
        if policy == "raise":
            raise exc
        out.append((frag, None))
    return out


def _record_pruning(plan: QueryPlan) -> None:
    """Account one READ fan-out's pruning, stage by stage.

    ``store.fragments_pruned`` keeps its pre-planner meaning — bbox
    overlap prunes only — so dashboards built on it read unchanged;
    planner-specific prunes land exclusively in the ``store.plan.*``
    counters.
    """
    counter_add("store.fragments_visited", len(plan.fragments))
    counter_add("store.fragments_pruned", plan.pruned_bbox)
    if plan.used_index and plan.pruned_bbox:
        counter_add("store.plan.fragments_pruned_index", plan.pruned_bbox)
    if plan.pruned_zonemap:
        counter_add(
            "store.plan.fragments_pruned_zonemap", plan.pruned_zonemap
        )


def check_query(query_coords, shape) -> np.ndarray:
    """A point query as a ``(q, d)`` index array matching ``shape``."""
    query = as_index_array(query_coords)
    if query.ndim != 2 or query.shape[1] != len(shape):
        raise ShapeError("query coords must be (q, d) matching the store")
    return query


def execute_points(
    store,
    view: ReadView,
    query_coords: np.ndarray,
    options: ReadOptions | None = None,
    keys: "QueryKeys | None" = None,
) -> ReadOutcome:
    """Algorithm 3 READ of a point query over ``view``.

    ``store`` is the :class:`~repro.storage.store.FragmentStore` that
    owns the view's fragments (its cache, retry policy, rebasing and
    workload ledger).  Later fragments win on duplicate coordinates and
    the WAL tail wins over every fragment; results come back aligned
    with the query buffer.  ``keys`` are the planner keys of exactly
    ``query_coords`` when the caller already holds them (a sharded
    parent passes each band its slice of one sort).
    """
    ropts = ReadOptions() if options is None else options
    query = check_query(query_coords, store.shape)
    q = query.shape[0]
    found = np.zeros(q, dtype=bool)
    if q == 0:
        return ReadOutcome(found, np.empty(0), 0, 0)
    use_threads = ropts.parallel == "thread"
    query_box = extract_boundary(query)
    if keys is None:
        keys = store._query_keys(points=query)
    out_values: np.ndarray | None = None

    def point_task(frag):
        payload = store._load_payload(frag, check_crc=ropts.check_crc)
        # ``rows is None``: the fragment's box covers the whole query.
        rows = None
        sub = query
        if not frag.bbox.covers(query_box):
            rows = frag.bbox.contains_points(query).nonzero()[0]
            if rows.size == 0:
                return None
            sub = np.take(query, rows, axis=0)
        # Worker threads charge a private counter, folded into the
        # span's counter at merge time (OpCounter is lock-free).
        ops = OpCounter() if use_threads else sp.ops
        res, vals = store._fragment_points(
            frag, payload, sub, faithful=ropts.faithful, counter=ops
        )
        return rows, res, vals, ops

    with span("store.read_points", format=store.format_name) as sp:
        plan = _plan_view(store, view, query_box, "points", keys)
        for frag, result in _run_fragment_tasks(
            store, view.on_corruption, plan.fragments, point_task, ropts
        ):
            if result is None:
                continue
            rows, res, vals, ops = result
            if use_threads:
                sp.ops.absorb(ops)
            if out_values is None:
                out_values = np.zeros(q, dtype=vals.dtype)
            idx = res.found.nonzero()[0]
            if rows is not None:
                idx = rows[idx]
            found[idx] = True
            out_values[idx] = vals
            store.workload_ledger.record_point_read(
                frag.path.name,
                queried=q if rows is None else int(rows.size),
                matched=int(idx.size),
            )
        # WAL tail overlay: the unpacked tail is newer than every
        # committed fragment, so its hits overwrite — exactly as if the
        # tail were one final appended fragment.  It lives in row-major
        # address space whatever the store's order (appends must not pay
        # an interleave), so its keys are row-major too.
        tail = view.tail
        if tail is not None and tail.n:
            qaddrs = linearize(query, store.shape, validate=False)
            if tail.zone is None or tail.zone.may_contain_any(
                np.sort(qaddrs)
            ):
                pos = np.searchsorted(tail.addresses, qaddrs)
                in_range = pos < tail.addresses.shape[0]
                hit = np.zeros(q, dtype=bool)
                hit[in_range] = (
                    tail.addresses[pos[in_range]] == qaddrs[in_range]
                )
                if hit.any():
                    vals = tail.values[pos[hit]]
                    if out_values is None:
                        out_values = np.zeros(q, dtype=vals.dtype)
                    found[hit] = True
                    out_values[hit] = vals
        matched = int(np.count_nonzero(found))
        sp.add_nnz(matched)
    _record_pruning(plan)
    counter_add("store.points_queried", q)
    counter_add("store.points_matched", matched)
    if out_values is None:
        out_values = np.zeros(q, dtype=float)
    return ReadOutcome(
        found=found,
        values=out_values[found],
        fragments_visited=len(plan.fragments),
        points_matched=matched,
    )


def execute_box(
    store,
    view: ReadView,
    box: Box,
    options: ReadOptions | None = None,
    keys: "QueryKeys | None" = None,
) -> SparseTensor:
    """Algorithm 3 READ of ``box`` over ``view``, merged and sorted.

    Uses each organization's structural range read, so work scales with
    stored points, not box volume.  Later fragments (and the WAL tail
    after all of them) win on duplicate coordinates; see
    :func:`merge_box_parts` for the result order.  ``faithful`` does not
    apply: box reads are always structural.
    """
    ropts = ReadOptions() if options is None else options
    if keys is None:
        keys = store._query_keys(box=box)

    def box_task(frag):
        payload = store._load_payload(frag, check_crc=ropts.check_crc)
        return store._fragment_box(frag, payload, box)

    all_coords: list[np.ndarray] = []
    all_values: list[np.ndarray] = []
    with span("store.read_box", format=store.format_name) as sp:
        plan = _plan_view(store, view, box, "box", keys)
        for frag, result in _run_fragment_tasks(
            store, view.on_corruption, plan.fragments, box_task, ropts
        ):
            if result is None:
                continue
            coords, values = result
            all_coords.append(coords)
            all_values.append(values)
            store.workload_ledger.record_box_read(
                frag.path.name, matched=int(values.shape[0])
            )
        # WAL tail overlay, appended last: the keep-last dedup of the
        # merge then gives the tail's points the same newest-wins
        # priority an appended fragment would have.
        tail = view.tail
        if tail is not None and tail.n:
            envelope = store._box_envelope(box)
            if (
                tail.zone is None or envelope is None
                or tail.zone.overlaps_range(*envelope)
            ):
                mask = box.contains_points(tail.coords)
                if mask.any():
                    all_coords.append(tail.coords[mask])
                    all_values.append(tail.values[mask])
        sp.add_nnz(sum(c.shape[0] for c in all_coords))
    _record_pruning(plan)
    return merge_box_parts(store.shape, all_coords, all_values)


def explain_read(
    store,
    view: ReadView,
    query,
    options: ReadOptions | None = None,
    keys: "QueryKeys | None" = None,
) -> QueryPlan:
    """The plan :func:`execute_points` / :func:`execute_box` would use
    for ``query`` (a coordinate buffer or a :class:`Box`), with the
    per-codec bytes the visit list touches — nothing is loaded."""
    if isinstance(query, Box):
        if keys is None:
            keys = store._query_keys(box=query)
        plan = _plan_view(store, view, query, "box", keys)
    else:
        query = check_query(query, store.shape)
        if query.shape[0] == 0:
            return QueryPlan(
                kind="points",
                total_fragments=len(view.fragments),
                addr_order=store.addr_order,
            )
        if keys is None:
            keys = store._query_keys(points=query)
        plan = _plan_view(
            store, view, extract_boundary(query), "points", keys
        )
    plan.codec_bytes = store._aggregate_codecs(plan.fragments)
    return plan


def merge_box_parts(
    shape, all_coords: list[np.ndarray], all_values: list[np.ndarray]
) -> SparseTensor:
    """One box read's result: per-fragment parts in commit order (WAL tail
    last) merged newest-wins and sorted row-major (Algorithm 3 line 12).

    Shapes whose addresses overflow uint64 sort lexicographically.
    """
    if not all_coords:
        return SparseTensor.empty(shape)
    tensor = SparseTensor(
        shape, np.vstack(all_coords), np.concatenate(all_values)
    )
    # Later parts override earlier ones on the same coordinate.
    if fits_index_dtype(shape):
        return tensor.deduplicated(keep="last", sort=True)
    return tensor.deduplicated(keep="last").sorted_lexicographic()


__all__ = [
    "FragmentCache",
    "MAX_READ_WORKERS",
    "PARALLEL_MODES",
    "RWLock",
    "ReadView",
    "check_query",
    "execute_box",
    "execute_points",
    "explain_read",
    "get_read_executor",
    "map_fragments_ordered",
    "merge_box_parts",
    "payload_nbytes",
    "shutdown_read_executor",
    "validate_parallel",
]
