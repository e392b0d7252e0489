"""End-to-end and layer-by-layer benchmark of the fragment store.

Run from the repository root::

    python3 perfbench/run.py --workload hot_points --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload in three parts, one process each, one
after another: each part sets the workload up (``setup_s`` is the median
of the three) and then issues requests in one closed loop until their
summed latency reaches a third of ``--seconds``.  The end-to-end metrics
pool the parts' samples and are reported at a reference machine speed
(see :class:`Calibration`).
``--trace 1`` sets up once and splits ``--seconds`` between three
interleaved phases: untraced, untraced with observability disabled, and
traced; it reports the per-layer metrics and writes the spans to
``perfbench/.work/trace-<workload>.jsonl``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import bisect
import copy
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import NPROC, WORKLOADS  # noqa: E402

#: Untraced runs are made of this many parts (see ``untraced_run``).
PARTS = 3
#: A run ends within this many seconds or fails.
RUN_LIMIT_S = 170
#: Seconds of requests between two timings of the calibration kernel.
CALIBRATE_EVERY_S = 0.025
#: Calibration samples taken just before set-up, and again just after.
CALIBRATE_AT_SETUP = 8
#: The machine speed at a moment is read from this many kernel timings
#: nearest to it.
CALIBRATE_NEAREST = 9
#: Median time of the calibration kernel at the reference speed: a
#: 2-vCPU x86-64 VM, Python 3.11, NumPy 2.4.
CALIBRATION_REFERENCE_S = 1.0e-3
TRACE_SLICES = 5
WORK_DIR = HERE / ".work"
READ_OPS = ("point", "batch", "box")
WRITE_OPS = ("append", "pack", "compact")
FORMAT_KEYS = {"LINEAR": "linear", "COO-SORTED": "coo_sorted",
               "GCSR++": "gcsr", "CSF": "csf"}
COUNTERS = ("store.fragments_visited", "store.fragments_pruned",
            "store.plan.fragments_pruned_zonemap", "fragment.bytes_read")


class Calibration:
    """Machine speed over time, from a fixed kernel timed between requests.

    The host is shared: its speed swings by tens of percent within a
    second as other tenants load it.  The kernel calls no program code,
    so a change to the program does not move it.  It mixes the three
    kinds of work the program does: NumPy sort and search over a few
    thousand keys, many NumPy calls on tiny arrays, and plain Python
    calls and dict lookups; a mix tracks the program's speed across
    processes better than any one of them.  The speed at a moment is the
    reference time over the median of the kernel timings nearest to it;
    each measured time is multiplied by the speed at its midpoint, which
    reports it at the reference speed.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.keys = rng.integers(0, 1 << 40, 6_000, dtype=np.uint64)
        self.tiny = [self.keys[i:i + 48] for i in range(0, 2_400, 48)]
        self.table = {i: i for i in range(64)}
        self.mids: list[float] = []
        self.seconds: list[float] = []

    def _kernel(self) -> int:
        table = np.sort(self.keys[:5_000], kind="stable")
        hits = np.searchsorted(table, self.keys[5_000:])
        acc = 0
        for a in self.tiny:
            order = np.argsort(a, kind="stable")
            merged = np.concatenate((a[order], a[:4]))
            acc += int(np.searchsorted(merged, a[0]))
        for h in hits[::2].tolist():
            acc += _Pair(h, h & 63).look(self.table)
        return acc

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.mids.append(t0 + dt / 2)
        self.seconds.append(dt)
        return dt

    def speed_at(self, t: float) -> float:
        i = bisect.bisect_left(self.mids, t)
        lo = max(0, min(i - CALIBRATE_NEAREST // 2,
                        len(self.mids) - CALIBRATE_NEAREST))
        near = self.seconds[lo:lo + CALIBRATE_NEAREST]
        return CALIBRATION_REFERENCE_S / statistics.median(near)


class _Pair:
    """The calibration kernel's plain-Python work."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def look(self, table: dict[int, int]) -> int:
        return self.a + table.get(self.b, 0)


class Entry(NamedTuple):
    op: str
    seconds: float
    points: int
    stratum: str
    start: float


class Phase:
    """Every request of one measured phase, in issue order."""

    def __init__(self) -> None:
        self.log: list[Entry] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wal_samples: list[dict[str, int]] = []
        #: On-disk bytes per live nnz after each write-side request.
        self.bytes_per_nnz: list[float] = []

    def latencies(self, op: str) -> list[float]:
        return [e.seconds for e in self.log if e.op == op]

    def by_stratum(self, op: str) -> dict[str, list[Entry]]:
        out: dict[str, list[Entry]] = defaultdict(list)
        for e in self.log:
            if e.op == op:
                out[e.stratum].append(e)
        return out

    def at_reference_speed(self, calibration: Calibration) -> "Phase":
        """A copy whose request times are scaled to the reference speed."""
        scaled = copy.copy(self)
        scaled.log = [
            e._replace(seconds=e.seconds
                       * calibration.speed_at(e.start + e.seconds / 2))
            for e in self.log
        ]
        return scaled


def run_phase(workload, requests, budget_s, *, phase=None,
              tracer=None, calibration=None) -> Phase:
    """Closed loop, one client: issue requests until their time sums to
    ``budget_s``; each check runs after its request's timer stops.  With
    ``calibration``, its kernel runs after every ``CALIBRATE_EVERY_S`` of
    requests, and its time counts towards ``budget_s``."""
    if phase is None:
        phase = Phase()
    spent = since_calibration = 0.0
    while spent < budget_s:
        if calibration is not None and since_calibration >= CALIBRATE_EVERY_S:
            spent += calibration.sample()
            since_calibration = 0.0
        req = next(requests)
        if tracer is not None:
            if req.op == "pack":
                phase.wal_samples.append(workload.wal_stats())
            tracer.begin_request(phase.attempted, req.op)
        error = None
        t0 = time.perf_counter()
        try:
            req.result = req.call()
        except Exception as exc:  # a raised request is a failed request
            error = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_request()
        spent += dt
        since_calibration += dt
        phase.attempted += 1
        phase.log.append(Entry(req.op, dt, req.points, req.stratum, t0))
        if error is None:
            try:
                ok = bool(req.check(req.result))
            except Exception as exc:  # a check that cannot run is a mismatch
                ok, error = False, exc
        else:
            ok = False
        if req.op in WRITE_OPS:
            phase.bytes_per_nnz.append(
                workload.disk_bytes() / workload.live_nnz())
        if not ok:
            phase.failed += 1
            if len(phase.failures) < 5:
                phase.failures.append(
                    f"{req.op}: {error!r}" if error else f"{req.op}: mismatch"
                )
    return phase


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def stratified_median(strata: dict[str, list[float]]) -> float:
    """Geometric mean of the strata's medians, weighted by sample count.

    The requests of one kind mix strata whose latencies differ several
    times over (four formats, 1 to 8 points); the median of the mix
    jumps between them when their shares shift a little.  Within a
    stratum every request does the same work.
    """
    logs, weights = [], []
    for values in strata.values():
        if values:
            logs.append(np.log(statistics.median(values)))
            weights.append(len(values))
    if not weights:
        return float("nan")
    return float(np.exp(np.average(logs, weights=weights)))


def p50_seconds(phase: Phase, op: str) -> float:
    return stratified_median({k: [e.seconds for e in v]
                              for k, v in phase.by_stratum(op).items()})


def ingest_rates(phase: Phase) -> list[float]:
    """Appended points / (append + pack time) of each pack cycle."""
    rates, points, seconds = [], 0, 0.0
    for e in phase.log:
        if e.op == "append":
            points += e.points
            seconds += e.seconds
        elif e.op == "pack":
            seconds += e.seconds
            rates.append(points / seconds)
            points, seconds = 0, 0.0
    return rates


def end_to_end(parts: list[Phase], setup_times: list[float],
               peak_rss_mb: float) -> dict:
    """The end-to-end metrics over the samples of every part."""
    pooled = Phase()
    for part in parts:
        pooled.log += part.log
        pooled.bytes_per_nnz += part.bytes_per_nnz

    batch = {k: [e.points / e.seconds for e in v]
             for k, v in pooled.by_stratum("batch").items()}
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "point_p50_us": (p50_seconds(pooled, "point") * 1e6, "us"),
        "point_p99_us": (_pct(pooled.latencies("point"), 99) * 1e6, "us"),
        "batch_pts_per_s": (stratified_median(batch), "points/s"),
        "box_p50_ms": (p50_seconds(pooled, "box") * 1e3, "ms"),
        "box_p95_ms": (_pct(pooled.latencies("box"), 95) * 1e3, "ms"),
        "ingest_pts_per_s": (
            _median([r for part in parts for r in ingest_rates(part)]),
            "points/s"),
        "compact_s": (_median(pooled.latencies("compact")), "s"),
        "bytes_per_nnz": (_median(pooled.bytes_per_nnz), "B"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    missing = [k for k, (v, _) in values.items() if not np.isfinite(v)]
    if missing:
        raise RuntimeError(f"too few samples for {missing}; raise --seconds")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _counter_totals() -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for c in obs.snapshot()["counters"]:
        totals[c["name"]] += c["value"]
    return {name: totals.get(name, 0.0) for name in COUNTERS}


def per_layer(workload, untraced: Phase, obs_off: Phase, traced: Phase,
              tracer: Tracer, counts: dict, cache: dict) -> dict:
    summary = tracer.summarize()
    requests = max(traced.attempted, 1)
    reads = max(sum(1 for e in traced.log if e.op in READ_OPS), 1)

    def per_request(*names) -> float:
        return sum(summary.get(n, {}).get("inclusive_s", 0.0)
                   for n in names) / requests

    def mean_us(names, key) -> float:
        calls = sum(summary.get(n, {}).get("calls", 0) for n in names)
        total = sum(summary.get(n, {}).get(key, 0.0) for n in names)
        return total / calls * 1e6 if calls else 0.0

    store_plans = sum(
        1 for name, _, _, parent, _ in tracer.spans
        if name == "planner.plan" and parent >= 0
        and tracer.spans[parent][0] in ("store.read_points", "store.read_box")
    )
    visited = counts["store.fragments_visited"]
    pruned = (counts["store.fragments_pruned"]
              + counts["store.plan.fragments_pruned_zonemap"])
    lookups = cache["hits"] + cache["misses"]
    wal_points = sum(s["points"] for s in traced.wal_samples)
    user_bytes = sum(e.points for e in traced.log if e.op == "append") * (
        8 * len(workload.SHAPE) + 8)
    p50 = {name: p50_seconds(ph, "point")
           for name, ph in (("on", untraced), ("off", obs_off),
                            ("traced", traced))}
    attempted = untraced.attempted + obs_off.attempted + traced.attempted
    failed = untraced.failed + obs_off.failed + traced.failed
    values = {
        "store.read_points.self_us": (
            mean_us(["store.read_points"], "self_s"), "us"),
        "store.read_box.self_us": (mean_us(["store.read_box"], "self_s"), "us"),
        "sharded.fanout.self_us": (
            mean_us(["sharded.read_points", "sharded.read_box"], "self_s"),
            "us"),
        "planner.plan_us": (mean_us(["planner.plan"], "inclusive_s"), "us"),
        "planner.visited_per_query": (
            visited / store_plans if store_plans else 0.0, "count"),
        "planner.prune_frac": (
            pruned / (visited + pruned) if visited + pruned else 0.0, "ratio"),
        "cache.hit_frac": (cache["hits"] / lookups if lookups else 0.0,
                           "ratio"),
        "cache.evictions": (cache["evictions"], "count"),
        "fragment.load_s": (per_request("fragment.load"), "s/op"),
        "fragment.io_s": (per_request("fragment.io"), "s/op"),
        "fragment.bytes_read_per_op": (
            counts["fragment.bytes_read"] / reads, "B/op"),
        "serialization.crc_s": (per_request("serialization.crc"), "s/op"),
        "serialization.unpack_s": (
            summary.get("serialization.unpack", {}).get("self_s", 0.0)
            / requests, "s/op"),
        "compression.decode_s": (per_request("compression.decode"), "s/op"),
        "compression.encode_s": (per_request("compression.encode"), "s/op"),
        **{
            f"formats.read_s.{key}": (
                per_request(f"formats.read.{fmt}"), "s/op")
            for fmt, key in FORMAT_KEYS.items()
        },
        "formats.box_s": (per_request("formats.box"), "s/op"),
        "formats.build_s": (per_request("formats.build"), "s/op"),
        "merge.dedup_sort_s": (
            tracer.under({"core.dedup", "core.sort"}, {"store.read_box"})
            / requests, "s/op"),
        "build.canonical_s": (per_request("build.canonical"), "s/op"),
        "build.merge_chunks_s": (per_request("build.merge_chunks"), "s/op"),
        "build.merge_runs_s": (per_request("build.merge_runs"), "s/op"),
        "wal.append_s": (per_request("wal.append"), "s/op"),
        "wal.tail_build_s": (per_request("wal.tail_build"), "s/op"),
        "wal.bytes_per_point": (
            sum(s["bytes"] for s in traced.wal_samples) / wal_points
            if wal_points else 0.0, "B"),
        "durability.write_s": (per_request("durability.write"), "s/op"),
        "durability.write_amp": (
            tracer.bytes_written / user_bytes if user_bytes else 0.0,
            "ratio"),
        "obs.overhead_frac": (p50["on"] / p50["off"] - 1, "ratio"),
        "trace.overhead_frac": (p50["traced"] / p50["on"] - 1, "ratio"),
        "trace.accounted_frac": (tracer.accounted_frac(), "ratio"),
        "ops_failed_frac": (failed / attempted, "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def environment(workload) -> dict:
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "flush_policy": workload.flush_policy(),
        "clients": 1,
        "loop": "closed",
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def flush_to_disk(root: Path) -> None:
    """Write the set-up's files out before timing starts.

    Stores do not fsync, so set-up leaves up to ~100 MB of dirty pages
    whose writeback would otherwise start in the middle of the timed
    phase and stall its writes.
    """
    for path in sorted(root.rglob("*")):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def measure_part(cls, seed: int, seconds: float, run_dir: Path) -> dict:
    """One part of an untraced run: set up, then measure ``seconds``."""
    calibration = Calibration()
    for _ in range(CALIBRATE_AT_SETUP):
        calibration.sample()
    workload = cls(run_dir / "store", seed)
    try:
        t0 = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - t0
        flush_to_disk(workload.root)
        for _ in range(CALIBRATE_AT_SETUP):
            calibration.sample()
        # The kernel timings nearest to set-up's midpoint are the ones
        # just before and just after it.
        reference_setup_s = setup_s * calibration.speed_at(t0 + setup_s / 2)
        phase = run_phase(workload, workload.requests(), seconds,
                          calibration=calibration)
        env = environment(workload)
    finally:
        workload.close()
    return {
        "env": env,
        "setup_s": setup_s,
        "reference_setup_s": reference_setup_s,
        "log": phase.log,
        "reference_log": phase.at_reference_speed(calibration).log,
        "bytes_per_nnz": phase.bytes_per_nnz,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "failures": phase.failures,
        "kernel_s": statistics.median(calibration.seconds),
        "kernel_timings": len(calibration.seconds),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _phase(part: dict, key: str) -> Phase:
    phase = Phase()
    phase.log = [Entry(*row) for row in part[key]]
    phase.bytes_per_nnz = part["bytes_per_nnz"]
    phase.attempted, phase.failed = part["attempted"], part["failed"]
    phase.failures = part["failures"]
    return phase


def untraced_run(args, deadline: float) -> tuple[list[Phase], dict, list[str]]:
    """``PARTS`` parts, each in a process of its own, one after
    another: on a shared host a process keeps its own speed for its
    lifetime, so the parts' pooled samples average it out.  Each part
    sets up once (``setup_s`` is the median) and measures an equal share
    of ``--seconds``."""
    parts = []
    for i in range(PARTS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds / PARTS),
             "--trace", "0", "--part", str(i)],
            capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise RuntimeError(f"part {i} exited with {out.returncode}")
        parts.append(json.loads(out.stdout.strip().splitlines()[-1]))
    peak = max(p["peak_rss_mb"] for p in parts)
    measured = end_to_end([_phase(p, "log") for p in parts],
                          [p["setup_s"] for p in parts], peak)
    phases = [_phase(p, "reference_log") for p in parts]
    metrics = end_to_end(phases, [p["reference_setup_s"] for p in parts],
                         peak)
    notes = ["env " + json.dumps(parts[0]["env"])]
    for i, p in enumerate(parts):
        notes.append(f"part {i}: set-up {p['setup_s']:.4f} s, "
                     f"{p['attempted']} requests, calibration kernel "
                     f"median {p['kernel_s'] * 1e3:.4f} ms over "
                     f"{p['kernel_timings']} timings (reference "
                     f"{CALIBRATION_REFERENCE_S * 1e3:g} ms)")
    counts = defaultdict(int)
    for phase in phases:
        for e in phase.log:
            counts[e.op] += 1
        counts["pack cycles"] += len(ingest_rates(phase))
    notes.append("samples: " + ", ".join(f"{op} {counts[op]}" for op in (
        "point", "box", "batch", "pack cycles", "compact")))
    for name, m in measured.items():
        notes.append(f"measured {name} = {m['value']:.6g} {m['unit']}")
    return phases, metrics, notes


def traced_run(args, run_dir: Path) -> tuple[list[Phase], dict, list[str]]:
    """Set up once; untraced, obs-off and traced phases of the same
    request stream alternate in short slices, so a change in machine
    speed during the run hits all three alike."""
    workload = WORKLOADS[args.workload](run_dir / "store", args.seed)
    try:
        workload.setup()
        flush_to_disk(workload.root)
        requests = workload.requests()
        untraced, obs_off, traced = Phase(), Phase(), Phase()
        tracer = Tracer()
        counts = dict.fromkeys(COUNTERS, 0.0)
        cache = dict.fromkeys(workload.cache_stats(), 0)
        budget = args.seconds / 3 / TRACE_SLICES
        for _ in range(TRACE_SLICES):
            run_phase(workload, requests, budget, phase=untraced)
            obs.disable()
            try:
                run_phase(workload, requests, budget, phase=obs_off)
            finally:
                obs.enable()
            counts0, cache0 = _counter_totals(), workload.cache_stats()
            tracer.install()
            try:
                run_phase(workload, requests, budget, phase=traced,
                          tracer=tracer)
            finally:
                tracer.uninstall()
            counts1, cache1 = _counter_totals(), workload.cache_stats()
            for k in counts:
                counts[k] += counts1[k] - counts0[k]
            for k in cache:
                cache[k] += cache1[k] - cache0[k]
        metrics = per_layer(workload, untraced, obs_off, traced, tracer,
                            counts, cache)
        env = environment(workload)
        tracer.dump(WORK_DIR / f"trace-{args.workload}.jsonl", env)
    finally:
        workload.close()
    return [untraced, obs_off, traced], metrics, ["env " + json.dumps(env)]


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        if args.part is not None:
            part = measure_part(WORKLOADS[args.workload], args.seed,
                                args.seconds, run_dir)
            print(json.dumps(part))
            return 0
        if args.trace:
            phases, metrics, notes = traced_run(args, run_dir)
        else:
            phases, metrics, notes = untraced_run(args, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for note in notes:
        print("# " + note)
    for p in phases:
        for failure in p.failures:
            print("# failure " + failure)
    print(f"# ops_failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
