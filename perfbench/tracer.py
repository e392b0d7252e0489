"""In-memory span tracer that wraps the store's layer boundaries from outside.

Tracing lives in the benchmark, not in the program: :meth:`Tracer.install`
replaces each function named in :data:`BOUNDARIES` at the module or class
attribute its caller resolves with a wrapper that calls through unchanged
and records ``[name, start, end, parent, request]``.  Spans stay in memory
until the run ends; :meth:`Tracer.dump` writes them as JSON lines.

A span's *self time* is its duration minus the part of it that its child
spans cover (the union of their intervals, so children running on the
worker threads of ``ShardedStore.compact`` are not counted twice).
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from pathlib import Path

#: ``(owner, attribute, span name)``.  ``owner`` is ``module`` or
#: ``module:Class``; the attribute is the one the calling code resolves at
#: call time (``from x import f`` binds ``f`` in the importing module, so
#: that module's attribute is the one wrapped).
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    # storage.store / storage.sharded: the public calls.
    ("repro.storage.store:FragmentStore", "read_points", "store.read_points"),
    ("repro.storage.store:FragmentStore", "read_box", "store.read_box"),
    ("repro.storage.store:StoreSnapshot", "read_points", "store.read_points"),
    ("repro.storage.store:StoreSnapshot", "read_box", "store.read_box"),
    ("repro.storage.store:FragmentStore", "write", "store.write"),
    ("repro.storage.store:FragmentStore", "append", "store.append"),
    ("repro.storage.store:FragmentStore", "pack_wal", "store.pack_wal"),
    ("repro.storage.store:FragmentStore", "compact", "store.compact"),
    ("repro.storage.store:FragmentStore", "snapshot", "store.snapshot"),
    ("repro.storage.sharded:ShardedStore", "read_points", "sharded.read_points"),
    ("repro.storage.sharded:ShardedStore", "read_box", "sharded.read_box"),
    ("repro.storage.sharded:ShardedSnapshot", "read_points",
     "sharded.read_points"),
    ("repro.storage.sharded:ShardedSnapshot", "read_box", "sharded.read_box"),
    ("repro.storage.sharded:ShardedStore", "append", "sharded.append"),
    ("repro.storage.sharded:ShardedStore", "pack_wal", "sharded.pack_wal"),
    ("repro.storage.sharded:ShardedStore", "compact", "sharded.compact"),
    ("repro.storage.sharded:ShardedStore", "snapshot", "sharded.snapshot"),
    # storage.planner
    ("repro.storage.planner:QueryPlanner", "plan", "planner.plan"),
    # storage.fragment + storage.durability (read side)
    ("repro.storage.store", "load_fragment", "fragment.load"),
    ("repro.storage.fragment", "read_bytes", "fragment.io"),
    ("repro.storage.fragment", "read_view", "fragment.io"),
    # storage.serialization
    ("repro.storage.serialization", "verify_crc", "serialization.crc"),
    ("repro.storage.fragment", "unpack_fragment", "serialization.unpack"),
    # storage.compression (resolved inside the serializer at call time)
    ("repro.storage.compression", "decode_buffer", "compression.decode"),
    ("repro.storage.compression", "encode_buffer", "compression.encode"),
    # formats
    ("repro.storage.store", "query_fragment", "formats.read"),
    ("repro.storage.store", "query_fragment_box", "formats.box"),
    ("repro.formats.base:SparseFormat", "build_canonical", "formats.build"),
    ("repro.formats.linear:LinearFormat", "build_canonical", "formats.build"),
    ("repro.formats.coo_sorted:SortedCOOFormat", "build_canonical",
     "formats.build"),
    ("repro.formats.gcsr:GCSRFormat", "build_canonical", "formats.build"),
    ("repro.formats.csf:CSFFormat", "build_canonical", "formats.build"),
    # core: the box merge
    ("repro.core.tensor:SparseTensor", "deduplicated", "core.dedup"),
    ("repro.core.tensor:SparseTensor", "sorted_by_linear", "core.sort"),
    ("repro.core.tensor:SparseTensor", "sorted_lexicographic", "core.sort"),
    # build
    ("repro.build.canonical:CanonicalCoords", "from_coords", "build.canonical"),
    ("repro.storage.store", "merge_chunks", "build.merge_chunks"),
    ("repro.storage.wal", "merge_chunks", "build.merge_chunks"),
    ("repro.storage.store", "merge_sorted_runs", "build.merge_runs"),
    ("repro.storage.wal", "merge_sorted_runs", "build.merge_runs"),
    # storage.wal
    ("repro.storage.wal:WriteAheadLog", "append", "wal.append"),
    ("repro.storage.store", "build_tail_run", "wal.tail_build"),
    # storage.durability (write side)
    ("repro.storage.fragment", "write_bytes_atomic", "durability.write"),
    ("repro.storage.store", "write_bytes_atomic", "durability.write"),
    ("repro.storage.sharded", "write_bytes_atomic", "durability.write"),
    ("repro.storage.wal", "append_bytes", "durability.write"),
)


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls_name) if cls_name else module


class Tracer:
    """Records spans for one traced phase; one request id per public call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.bytes_written = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request_root = -1
        self._request_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- request boundary (called by the request loop in run.py) ---------

    def begin_request(self, request_id: int, op: str) -> None:
        self._request_id = request_id
        self._request_root = len(self.spans)
        self.spans.append([f"request.{op}", time.perf_counter(), 0.0, -1,
                           request_id])

    def end_request(self) -> None:
        self.spans[self._request_root][2] = time.perf_counter()
        self._request_root = -1

    # -- wrapping -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        tracer = self
        # Format reads are labelled by the payload's format; writes count
        # the bytes handed to the durability layer.
        label = name == "formats.read"
        count_bytes = name == "durability.write"

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._request_root
            if parent < 0:
                # Outside any request (between-request bookkeeping).
                return fn(*args, **kwargs)
            span_name = name
            if label:
                span_name = f"{name}.{args[0].format_name}"
            rec = [span_name, 0.0, 0.0, parent, tracer._request_id]
            # Compaction worker threads record concurrently.
            with tracer._lock:
                if count_bytes:
                    tracer.bytes_written += len(args[1])
                stack.append(len(tracer.spans))
                tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner_name, attr, name in BOUNDARIES:
            owner = _resolve(owner_name)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name))
            else:
                replacement = self._wrap(original, name)
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def _children(self) -> dict[int, list[int]]:
        children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                children.setdefault(s[3], []).append(i)
        return children

    def _covered(self, i: int, children: dict[int, list[int]]) -> float:
        """Seconds of span ``i`` covered by the union of its children."""
        covered, end = 0.0, self.spans[i][1]
        for c in sorted(children.get(i, ()), key=lambda j: self.spans[j][1]):
            c0, c1 = max(self.spans[c][1], end), self.spans[c][2]
            if c1 > c0:
                covered += c1 - c0
                end = c1
        return covered

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds.

        Inclusive time counts only outermost occurrences of a name, so a
        function that reaches itself through a wrapped subclass or helper
        is not counted twice.
        """
        children = self._children()
        out: dict[str, dict[str, float]] = {}
        for i, (name, t0, t1, _parent, _req) in enumerate(self.spans):
            agg = out.setdefault(
                name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
            )
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - self._covered(i, children)
            if not self._has_ancestor(i, {name}):
                agg["inclusive_s"] += t1 - t0
        return out

    def accounted_frac(self) -> float:
        """Share of request wall time inside the wrapped public calls."""
        children = self._children()
        wall = covered = 0.0
        for i, (_name, t0, t1, parent, _req) in enumerate(self.spans):
            if parent < 0:
                wall += t1 - t0
                covered += self._covered(i, children)
        return covered / wall if wall else 0.0

    def under(self, names: set[str], ancestors: set[str]) -> float:
        """Seconds in outermost spans of ``names`` below any of ``ancestors``."""
        total = 0.0
        for i, (name, t0, t1, parent, _req) in enumerate(self.spans):
            if name not in names or self._has_ancestor(i, names):
                continue
            if self._has_ancestor(i, ancestors):
                total += t1 - t0
        return total

    def _has_ancestor(self, i: int, names: set[str]) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def dump(self, path: Path, header: dict) -> None:
        """Write the spans as JSON lines, times in µs from the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, t0, t1, parent, req in self.spans:
                fh.write(json.dumps([
                    name, round((t0 - base) * 1e6, 3),
                    round((t1 - base) * 1e6, 3), parent, req,
                ]) + "\n")
