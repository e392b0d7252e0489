"""The benchmark's three seeded workloads.

Each workload builds its stores in :meth:`Workload.setup` and then yields
an endless, seed-determined sequence of :class:`Request` objects from
:meth:`Workload.requests`.  A request wraps exactly one public store call;
its ``check`` compares the response with the brute-force
:class:`~oracle.Oracle` (and advances the oracle after a write) and runs
outside the timed interval.  Why each workload exists, and which layer it
loads, is in ``README.md`` next to this file.

Every workload issues every operation type the end-to-end metrics name,
so every run reports every metric: the read-only workloads carry a small
ingest stream on a store of their own (:class:`SideIngest`), configured
like the workload's main store, that never touches the stores being read.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from oracle import Oracle, box_matches, points_match

from repro.core import Box
from repro.patterns import make_pattern
from repro.storage import FragmentStore, StoreOptions
from repro.storage.sharded import ShardedStore

NPROC = os.cpu_count() or 1
BATCH_POINTS = 10_000
CHUNK_POINTS = 2_000
ABSENT_FRAC = 0.1


@dataclass
class Request:
    """One public store call plus the oracle check of its response."""

    op: str  # point | batch | box | append | pack | compact | snapshot
    call: Callable[[], object]
    check: Callable[[object], bool]
    points: int = 0
    #: Requests of one stratum do the same work (same store, same size);
    #: medians are taken per stratum (see ``run.stratified_median``).
    stratum: str = ""
    #: Filled in by the request loop after the call, for follow-up requests.
    result: object = None


def _point_request(target, oracle: Oracle, query: np.ndarray, op="point",
                   stratum=""):
    return Request(
        op, lambda: target.read_points(query),
        lambda out: points_match(oracle, query, out), points=len(query),
        stratum=stratum,
    )


def _box_request(target, oracle: Oracle, origin, size, stratum=""):
    box = Box(tuple(int(v) for v in origin), tuple(int(v) for v in size))
    return Request(
        "box", lambda: target.read_box(box),
        lambda out: box_matches(oracle, box.origin, box.size, out),
        stratum=stratum,
    )


def _mixed_keys(rng, oracle: Oracle, keys: np.ndarray, n: int) -> np.ndarray:
    """``n`` query points: stored ``keys`` with ~10% absent coordinates."""
    absent = rng.random(n) < ABSENT_FRAC
    out = np.empty((n, len(oracle.shape)), dtype=np.uint64)
    out[~absent] = keys[: int((~absent).sum())]
    out[absent] = oracle.absent_coords(rng, int(absent.sum()))
    return out


def _bands(n: int, count: int) -> list[np.ndarray]:
    return np.array_split(np.arange(n), count)


def _sorted_on_mode0(tensor):
    order = np.argsort(tensor.coords[:, 0], kind="stable")
    return tensor.coords[order], tensor.values[order]


def _interleave(counts: dict[str, int]) -> list[str]:
    """A fixed block with each kind spread evenly through it."""
    slots = []
    for kind, count in counts.items():
        slots += [((i + 0.5) / count, kind) for i in range(count)]
    return [kind for _, kind in sorted(slots)]


def _warm(requests: Iterator[Request]) -> None:
    """Run requests untimed during set-up; a failure aborts the run."""
    for req in requests:
        req.result = req.call()
        if not req.check(req.result):
            raise RuntimeError(f"set-up {req.op} returned a wrong result")


class SideIngest:
    """Append / pack / compact stream on a store of its own.

    Laps over four fixed 2 000-point key sets with new values each lap, so
    after the warm-up lap every compaction merges the same amount of data
    however many laps a run completes.
    """

    def __init__(self, store: FragmentStore, rng: np.random.Generator):
        self.store = store
        self.oracle = Oracle(store.shape)
        size = int(np.prod(store.shape))
        self.keys = [
            np.stack(np.unravel_index(
                rng.choice(size, CHUNK_POINTS, replace=False), store.shape
            ), axis=1).astype(np.uint64)
            for _ in range(4)
        ]
        _warm(self.lap(rng))

    def lap(self, rng: np.random.Generator) -> Iterator[Request]:
        store, oracle = self.store, self.oracle
        for j, keys in enumerate(self.keys):
            values = rng.random(CHUNK_POINTS)
            yield Request(
                "append", lambda k=keys, v=values: store.append(k, v),
                lambda n, k=keys, v=values: (
                    oracle.upsert(k, v), n == CHUNK_POINTS)[1],
                points=CHUNK_POINTS,
            )
            if j % 2 == 1:
                yield Request("pack", store.pack_wal,
                              lambda r: r is not None)
        yield Request("compact", store.compact,
                      lambda r: r.info.nnz == oracle.nnz)

    def requests(self, rng: np.random.Generator) -> Iterator[Request]:
        while True:
            yield from self.lap(rng)


class Workload:
    """Seeded stores + an endless request stream against them."""

    name = ""

    def __init__(self, root: Path, seed: int):
        self.root = Path(root)
        self.seed = int(seed)
        self.rng: np.random.Generator | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def requests(self) -> Iterator[Request]:
        raise NotImplementedError

    def stores(self) -> list:
        """Every store the workload owns (for byte and WAL accounting)."""
        raise NotImplementedError

    def live_nnz(self) -> int:
        raise NotImplementedError

    def flush_policy(self) -> dict:
        store = self.stores()[0]
        return {
            "fsync": store.options.fsync,
            "wal_fsync": store.options.wal_fsync,
            "wal_pack_interval": store.options.wal_pack_interval,
        }

    def cache_stats(self) -> dict[str, int]:
        totals = {"hits": 0, "misses": 0, "evictions": 0}
        for store in self.stores():
            cache = getattr(store, "cache", None)
            if cache is None:
                continue
            stats = cache.stats()
            for key in totals:
                totals[key] += stats[key]
        return totals

    def wal_stats(self) -> dict[str, int]:
        totals = {"bytes": 0, "points": 0}
        for store in self.stores():
            stats = store.wal_stats()
            for key in totals:
                totals[key] += stats[key]
        return totals

    def disk_bytes(self) -> int:
        total = 0
        for store in self.stores():
            if isinstance(store, ShardedStore):
                total += sum(row["nbytes"] for row in store.stats())
            else:
                total += store.total_file_nbytes
            total += store.wal_stats()["bytes"]
        return total

    def close(self) -> None:
        for store in self.stores():
            store.close()
        shutil.rmtree(self.root, ignore_errors=True)


class HotPoints(Workload):
    """Table II 3D GSP at 512^3 in four fully cached single stores."""

    name = "hot_points"
    SHAPE = (512, 512, 512)
    FORMATS = ("LINEAR", "COO-SORTED", "GCSR++", "CSF")
    BANDS = 64
    BLOCK = _interleave({"point": 32, "box": 8, "batch": 1, "side": 14})

    def setup(self) -> None:
        rng = self.rng = np.random.default_rng(self.seed)
        tensor = make_pattern("GSP", self.SHAPE).generate(rng)
        coords, values = _sorted_on_mode0(tensor)
        self.oracle = Oracle(self.SHAPE)
        self.oracle.upsert(coords, values)
        bands = _bands(coords.shape[0], self.BANDS)
        # Twice the raw coordinate + value bytes: every fragment fits.
        budget = 2 * coords.shape[0] * (8 * len(self.SHAPE) + 8)
        self.main = []
        for fmt in self.FORMATS:
            store = FragmentStore(
                self.root / fmt, self.SHAPE, fmt,
                options=StoreOptions(cache_bytes=budget),
            )
            for band in bands:
                store.write(coords[band], values[band])
            store.read_points(coords[[band[0] for band in bands]])
            stats = store.cache.stats()
            if stats["entries"] != self.BANDS or stats["evictions"]:
                raise RuntimeError(f"{fmt} cache does not hold every fragment")
            self.main.append(store)
        # Zipf(1) popularity over a seeded ranking of the stored keys.
        self.ranking = rng.permutation(coords.shape[0])
        weights = 1.0 / np.arange(1, coords.shape[0] + 1)
        self.cdf = np.cumsum(weights) / weights.sum()
        self.side = SideIngest(
            FragmentStore(self.root / "ingest", self.SHAPE, "LINEAR"), rng
        )

    def _zipf_keys(self, n: int) -> np.ndarray:
        ranks = np.searchsorted(self.cdf, self.rng.random(n))
        rows = self.ranking[np.minimum(ranks, self.ranking.shape[0] - 1)]
        return self.oracle.coords[rows]

    def requests(self) -> Iterator[Request]:
        rng, oracle = self.rng, self.oracle
        side = self.side.requests(rng)
        turn = {"point": 0, "box": 0, "batch": 0}
        while True:
            for kind in self.BLOCK:
                if kind == "side":
                    yield next(side)
                    continue
                # Each kind rotates over the stores; sizes cycle with it so
                # every run sees the same mix of sizes on every store.
                k = turn[kind]
                turn[kind] += 1
                store = self.main[k % len(self.main)]
                fmt = self.FORMATS[k % len(self.main)]
                if kind == "box":
                    edge = 2 + (k // len(self.main)) % 7
                    size = np.full(3, edge)
                    centre = self._zipf_keys(1)[0].astype(np.int64)
                    origin = np.clip(centre - size // 2, 0,
                                     np.array(self.SHAPE) - size)
                    yield _box_request(store, oracle, origin, size,
                                       stratum=f"{fmt}/{edge}")
                    continue
                n = (BATCH_POINTS if kind == "batch"
                     else 1 + (k // len(self.main)) % 8)
                query = _mixed_keys(rng, oracle, self._zipf_keys(n), n)
                yield _point_request(store, oracle, query, op=kind,
                                     stratum=f"{fmt}/{n}")

    def stores(self) -> list:
        return [*self.main, self.side.store]

    def live_nnz(self) -> int:
        return len(self.main) * self.oracle.nnz + self.side.oracle.nnz


class ColdScan(Workload):
    """Table II 3D TSP at 256^3, cascade + ALTO, no fragment cache."""

    name = "cold_scan"
    SHAPE = (256, 256, 256)
    BANDS = 48
    UPDATES = 16
    UPDATE_FRAC = 0.02
    OPTIONS = StoreOptions(codec="cascade", addr_order="alto")
    BLOCK = _interleave({"box": 14, "point": 6, "batch": 1, "side": 21})

    def setup(self) -> None:
        rng = self.rng = np.random.default_rng(self.seed)
        tensor = make_pattern("TSP", self.SHAPE).generate(rng)
        coords, values = _sorted_on_mode0(tensor)
        self.oracle = Oracle(self.SHAPE)
        self.oracle.upsert(coords, values)
        self.store = FragmentStore(
            self.root / "cold", self.SHAPE, "LINEAR", options=self.OPTIONS
        )
        for band in _bands(coords.shape[0], self.BANDS):
            self.store.write(coords[band], values[band])
        n_update = int(coords.shape[0] * self.UPDATE_FRAC)
        for _ in range(self.UPDATES):
            pick = rng.choice(coords.shape[0], n_update, replace=False)
            fresh = rng.random(n_update)
            self.store.write(coords[pick], fresh)
            self.oracle.upsert(coords[pick], fresh)
        self.snapshot = self.store.snapshot()
        self.side = SideIngest(
            FragmentStore(self.root / "ingest", self.SHAPE, "LINEAR",
                          options=self.OPTIONS),
            rng,
        )

    def requests(self) -> Iterator[Request]:
        rng, oracle = self.rng, self.oracle
        side = self.side.requests(rng)
        turn = {"point": 0, "box": 0, "batch": 0}
        shape = np.array(self.SHAPE)
        while True:
            for kind in self.BLOCK:
                if kind == "side":
                    yield next(side)
                    continue
                # Alternate the live store and the snapshot taken at start.
                k = turn[kind]
                turn[kind] += 1
                target = self.snapshot if k % 2 else self.store
                via = "snapshot" if k % 2 else "store"
                if kind == "box":
                    # Sides 8..64 cycle per mode, out of phase across modes.
                    size = 8 + 4 * ((7 * k + np.array([0, 5, 10])) % 15)
                    centre = int(rng.integers(0, self.SHAPE[0]))
                    jitter = rng.integers(-4, 5, size=3)
                    origin = np.clip(centre - size // 2 + jitter, 0,
                                     shape - size)
                    # k mod 30 fixes both the target and the box shape.
                    yield _box_request(target, oracle, origin, size,
                                       stratum=f"{via}/{k % 30}")
                    continue
                n = BATCH_POINTS if kind == "batch" else 1
                stored = oracle.coords[rng.integers(0, oracle.nnz, size=n)]
                query = _mixed_keys(rng, oracle, stored, n)
                yield _point_request(target, oracle, query, op=kind,
                                     stratum=via)

    def stores(self) -> list:
        return [self.store, self.side.store]

    def live_nnz(self) -> int:
        return self.oracle.nnz + self.side.oracle.nnz

    def close(self) -> None:
        self.snapshot.close()
        super().close()


class IngestSharded(Workload):
    """Appends beside reads on a 4-shard CSF store (WAL, pack, compact)."""

    name = "ingest_sharded"
    SHAPE = (256, 256, 256)
    SHARDS = 4
    HOT = 32
    LAP = 64  # appends per lap; one lap = one compaction cycle
    PACK_EVERY = 16
    OVERWRITE_FRAC = 0.2

    def setup(self) -> None:
        rng = self.rng = np.random.default_rng(self.seed)
        tensor = make_pattern("GSP", self.SHAPE).generate(rng)
        self.oracle = Oracle(self.SHAPE)
        self.store = ShardedStore(
            self.root / "sharded", self.SHAPE, "CSF", n_shards=self.SHARDS
        )
        self.store.write(tensor.coords, tensor.values)
        self.oracle.upsert(tensor.coords, tensor.values)
        self._plan_lap(rng)
        # One untimed lap writes every lap key once, so every timed lap
        # overwrites the same keys and each compaction merges equal data.
        _warm(self._lap())

    def _plan_lap(self, rng: np.random.Generator) -> None:
        """The moving hotspot's path and each chunk's fixed key set."""
        limit = self.SHAPE[0] - self.HOT
        origin = rng.integers(0, limit + 1, size=3)
        fresh_n = int(CHUNK_POINTS * (1 - self.OVERWRITE_FRAC))
        self.origins, fresh = [], []
        for j in range(self.LAP):
            # Mode 0 sweeps every band once a lap, so each seed splits its
            # chunks over the shards alike; modes 1 and 2 random-walk.
            origin = np.clip(origin + rng.integers(-8, 9, size=3), 0, limit)
            origin[0] = round(j * limit / (self.LAP - 1))
            self.origins.append(origin)
            cells = rng.choice(self.HOT ** 3, fresh_n, replace=False)
            local = np.stack(np.unravel_index(cells, (self.HOT,) * 3), axis=1)
            fresh.append((local + origin).astype(np.uint64))
        self.chunks = []
        for j in range(self.LAP):
            recent = np.concatenate([fresh[(j - k) % self.LAP]
                                     for k in range(1, 5)])
            again = recent[rng.choice(recent.shape[0],
                                      CHUNK_POINTS - fresh_n, replace=False)]
            chunk = np.concatenate([fresh[j], again])
            self.chunks.append(chunk[rng.permutation(CHUNK_POINTS)])

    def _lap(self) -> Iterator[Request]:
        rng, oracle, store = self.rng, self.oracle, self.store
        for j, keys in enumerate(self.chunks):
            # Reads after the i-th append of a pack cycle overlay a WAL
            # tail of i chunks.
            tail = f"tail{j % self.PACK_EVERY}"
            values = rng.random(CHUNK_POINTS)
            yield Request(
                "append", lambda k=keys, v=values: store.append(k, v),
                lambda n, k=keys, v=values: (
                    oracle.upsert(k, v), n == CHUNK_POINTS)[1],
                points=CHUNK_POINTS,
            )
            query = keys[rng.choice(CHUNK_POINTS, 4, replace=False)]
            yield _point_request(store, oracle, query, stratum=tail)
            box_origin = self.origins[j] + rng.integers(0, self.HOT - 8,
                                                        size=3)
            yield _box_request(store, oracle, box_origin, (8, 8, 8),
                               stratum=tail)
            if (j + 1) % self.PACK_EVERY:
                continue
            stored = oracle.coords[rng.integers(0, oracle.nnz,
                                                size=BATCH_POINTS)]
            batch = _mixed_keys(rng, oracle, stored, BATCH_POINTS)
            yield _point_request(store, oracle, batch, op="batch")
            yield Request("pack", store.pack_wal, lambda r: len(r) > 0)
            if j + 1 < self.LAP:
                continue
            snap = Request("snapshot", store.snapshot,
                           lambda s: s.nnz >= oracle.nnz)
            yield snap
            yield Request(
                "compact",
                lambda: store.compact(max_workers=min(2, NPROC)),
                lambda r: store.nnz == oracle.nnz,
            )
            if snap.result is not None:
                yield _point_request(snap.result, oracle, query,
                                     stratum="snapshot")
                yield _box_request(snap.result, oracle, box_origin,
                                   (8, 8, 8), stratum="snapshot")
                snap.result.close()
            store.gc()

    def requests(self) -> Iterator[Request]:
        while True:
            yield from self._lap()

    def stores(self) -> list:
        return [self.store]

    def live_nnz(self) -> int:
        return self.oracle.nnz


WORKLOADS = {w.name: w for w in (HotPoints, ColdScan, IngestSharded)}
