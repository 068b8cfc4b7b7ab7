"""The timing protocol: set-up, warm-up, identical timed rounds, a traced pass.

One workload runs in one process, closed loop, one client, one driver
thread, pinned to one CPU where the platform allows it.  Work is a fixed
list of operations per round; ``--seconds`` only decides how many rounds
beyond the third are timed, so the simulated-clock numbers (taken from the
first three timed rounds) repeat exactly for a given seed while the host
numbers are medians over every timed round.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Rounds whose simulated numbers define ``sim_s``, ``wire_bytes``, the tail and the digest.
SIM_ROUNDS = 3
#: Set-up is repeated for its median: at least 3 times and until 1 s is spent
#: (at most 15 times) — or twice, once 8 s are spent (the durable workload).
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 15
SETUP_LONG_SECONDS = 8.0
#: Percentiles the host tail may be reported at (highest with >= 10 samples beyond it).
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Host time between two calibration readings inside a round.
CALIBRATE_EVERY_S = 0.05
#: The calibration kernel's duration at reference speed (this sandbox's fast mode).
REFERENCE_KERNEL_S = 0.0021

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
#: Scratch space for the durable workload; inside the checkout, ignored by git.
WORK_DIR = os.path.join(REPO_ROOT, ".bench_work")


# -- speed calibration ----------------------------------------------------------------------
#
# This sandbox switches, every few seconds, between two execution speeds about
# 27 % apart (CPU time moves with wall time, so it is not preemption).  A run of
# a few seconds lands in either, which alone would spread host timings by more
# than any bound worth setting.  Every host duration is therefore divided by
# the speed factor of its moment: the duration of a fixed pure-Python kernel —
# heap, dict, generator and small-object traffic like the simulator's own
# loop — measured right before and after, relative to REFERENCE_KERNEL_S.
# Host metrics read "at reference speed"; the raw readings and the factor are
# reported per layer (``ops.raw_host_ops_per_s``, ``ops.speed_factor``).


class _Event:
    __slots__ = ("time", "callback")

    def __init__(self, time_: int, callback: Any) -> None:
        self.time = time_
        self.callback = callback


def _count(limit: int) -> Any:
    for index in range(limit):
        yield index


def _calibration_kernel() -> None:
    queue: List[tuple] = []
    table: Dict[int, int] = {}
    total = 0
    for index in _count(3000):
        heapq.heappush(queue, (index * 7 % 13, index, _Event(index, None)))
        table[index] = queue[0][2].time
        total += index * index % 7
    while queue:
        _key, index, _event = heapq.heappop(queue)
        table.pop(index, None)


def speed_factor() -> float:
    """How much slower than the reference the machine runs right now (1.0 = reference)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - started)
    return best / REFERENCE_KERNEL_S


@dataclass
class Sample:
    """What one verified operation reported (simulated clock and layer counters)."""

    sim_s: float = 0.0
    bytes_down: int = 0
    bytes_up: int = 0
    messages_down: int = 0
    messages_up: int = 0
    rows: int = 0
    #: Simulated latencies that count towards ``sim_tail_latency_s``; the
    #: operation's own elapsed time unless the workload says otherwise.
    tail_latencies: Optional[Sequence[float]] = None
    #: Sub-operations attempted / failed (a tenancy run carries 100 queries).
    attempted: int = 1
    failed: int = 0
    #: Summable layer counters, keyed by per-layer metric name.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Layer values that combine by max / last-seen instead of summing.
    peaks: Dict[str, float] = field(default_factory=dict)
    detail: str = ""

    def fail(self, detail: str) -> None:
        """Count the whole operation as failed (wrong rows, wrong count, exception)."""
        self.failed = self.attempted
        self.detail = detail


class Op(NamedTuple):
    """One operation: ``call`` is timed, ``verify`` checks its result afterwards."""

    kind: str
    call: Callable[[], Any]
    verify: Callable[[Any], Sample]


def sample_from_result(result: Any, expected_rows: List[tuple]) -> Sample:
    """The :class:`Sample` of one ``Database.execute`` result checked against the oracle."""
    metrics = result.metrics
    counters = {
        "execution.remote_operations": metrics.remote_operations,
        "execution.input_rows": metrics.input_rows,
        "execution.send_stall_sim_s": metrics.send_stall_seconds,
        "client.udf_invocations": metrics.udf_invocations,
        "client.cache_hits": metrics.client_cache_hits,
        "client.compute_sim_s": metrics.client_compute_seconds,
        "adaptive.strategy_switches": metrics.strategy_switches,
        "adaptive.replan_attempts": metrics.replan_attempts,
        "adaptive.plan_migrations": metrics.plan_migrations,
    }
    peaks = {"execution.peak_in_flight_batches": metrics.peak_in_flight_batches}
    if metrics.converged_batch_size is not None:
        peaks["adaptive.converged_batch_size"] = metrics.converged_batch_size
    sample = Sample(
        sim_s=metrics.elapsed_seconds,
        bytes_down=metrics.downlink_bytes,
        bytes_up=metrics.uplink_bytes,
        messages_down=metrics.downlink_messages,
        messages_up=metrics.uplink_messages,
        rows=metrics.rows_returned,
        counters=counters,
        peaks=peaks,
    )
    actual = sorted(tuple(row) for row in result.rows)
    if actual != expected_rows:
        sample.fail(f"expected {len(expected_rows)} rows, got {len(actual)} (or different values)")
    return sample


class Workload:
    """Interface every workload implements (see the five ``wl_*`` modules)."""

    name = ""
    #: Operation kinds in a stable order (one ``kind.<kind>.host_p50_ms`` each).
    kinds: Tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool) -> None:
        """Generate inputs and the oracle from ``seed``; touch no program state."""
        self.seed = seed
        self.smoke = smoke

    def config(self) -> Dict[str, Any]:
        """Sizes that identify the run (rows, pages, ops per round)."""
        return {}

    def setup(self) -> Dict[str, float]:
        """Build the program's state; returns named sub-timings in seconds."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (files, handles)."""

    def round_ops(self) -> List[Op]:
        """The operation list of the next round."""
        raise NotImplementedError

    def udf_registries(self) -> List[Any]:
        """UDF registries whose callables the traced pass wraps."""
        return []

    def after_sim_rounds(self) -> Dict[str, float]:
        """Measurements taken right after the last simulated-clock round."""
        return {}

    def layer_metrics(self, traced: "RoundLog", spans: Dict[str, Any]) -> Dict[str, float]:
        """Workload-specific per-layer metrics and probes (traced process only).

        ``spans`` are the traced round's per-name totals (:meth:`trace.Tracer.totals`).
        """
        return {}


@dataclass
class RoundLog:
    """Everything one round recorded, operation by operation."""

    kinds: List[str] = field(default_factory=list)
    #: Per-operation host seconds at reference speed, and as read off the clock.
    host_s: List[float] = field(default_factory=list)
    raw_host_s: List[float] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)

    @property
    def total_host_s(self) -> float:
        return sum(self.host_s)

    @property
    def total_raw_host_s(self) -> float:
        return sum(self.raw_host_s)

    @property
    def speed_factor(self) -> float:
        return self.total_raw_host_s / self.total_host_s

    @property
    def sim_s_total(self) -> float:
        return sum(sample.sim_s for sample in self.samples)

    @property
    def attempted(self) -> int:
        return sum(sample.attempted for sample in self.samples)

    @property
    def failed(self) -> int:
        return sum(sample.failed for sample in self.samples)

    def counter(self, name: str) -> float:
        return sum(sample.counters.get(name, 0) for sample in self.samples)

    def peak(self, name: str) -> float:
        return max((sample.peaks.get(name, 0) for sample in self.samples), default=0)

    def last(self, name: str) -> float:
        for sample in reversed(self.samples):
            if name in sample.peaks:
                return sample.peaks[name]
        return 0


def run_round(ops: Sequence[Op], tracer: Any = None) -> RoundLog:
    """Run one round: time each call, verify it afterwards, count every failure."""
    log = RoundLog()
    clock = time.perf_counter
    factor = speed_factor()
    pending_s = 0.0

    def calibrate() -> None:
        # Operations since the last reading ran between two known speeds.
        nonlocal factor, pending_s
        now = speed_factor()
        mean = (factor + now) / 2.0
        log.host_s.extend(raw / mean for raw in log.raw_host_s[len(log.host_s) :])
        factor, pending_s = now, 0.0

    for op_id, op in enumerate(ops):
        root = tracer.begin_op(op_id, op.kind) if tracer is not None else None
        error: Optional[BaseException] = None
        raw = None
        started = clock()
        try:
            raw = op.call()
        except Exception as exc:  # noqa: BLE001 - a failed operation is a counted outcome
            error = exc
        elapsed = clock() - started
        if root is not None:
            tracer.end_op(root)
        if error is None:
            try:
                sample = op.verify(raw)
            except Exception as exc:  # noqa: BLE001 - an unverifiable result is a failure
                error = exc
        if error is not None:
            sample = Sample()
            sample.fail(f"{type(error).__name__}: {error}")
        if sample.failed:
            print(f"  FAILED op {op_id} [{op.kind}]: {sample.detail}", file=sys.stderr)
        log.kinds.append(op.kind)
        log.raw_host_s.append(elapsed)
        log.samples.append(sample)
        pending_s += elapsed
        if pending_s >= CALIBRATE_EVERY_S:
            calibrate()
    calibrate()
    return log


# -- statistics ---------------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def host_tail(latencies_s: Sequence[float]) -> Tuple[float, float, int]:
    """(percentile, value in ms, samples): the highest ladder rung with >= 10 samples beyond."""
    count = len(latencies_s)
    chosen = TAIL_LADDER[0]
    for rung in TAIL_LADDER:
        if count * (1.0 - rung / 100.0) >= 10:
            chosen = rung
    return chosen, percentile(latencies_s, chosen) * 1e3, count


def sim_digest(rounds: Sequence[RoundLog]) -> str:
    """Hash of the ordered per-op ``(sim_s, bytes, messages, rows)`` of the given rounds."""
    digest = hashlib.sha256()
    for log in rounds:
        for sample in log.samples:
            digest.update(
                repr(
                    (
                        sample.sim_s,
                        sample.bytes_down + sample.bytes_up,
                        sample.messages_down + sample.messages_up,
                        sample.rows,
                    )
                ).encode("ascii")
            )
    return digest.hexdigest()


# -- environment --------------------------------------------------------------------------


def pin_to_one_cpu() -> Optional[int]:
    """Pin the process to the highest-numbered allowed CPU; None where unsupported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


def environment(pinned_cpu: Optional[int]) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    commit = "unknown"
    head = os.path.join(REPO_ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as handle:
            commit = handle.read().strip()
        if commit.startswith("ref: "):
            ref = os.path.join(REPO_ROOT, ".git", commit[5:])
            if os.path.exists(ref):
                with open(ref, encoding="utf-8") as handle:
                    commit = handle.read().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()) if hasattr(os, "getloadavg") else None,
        "pinned_cpu": pinned_cpu,
        "git_commit": commit,
        "gc_thresholds": list(gc.get_threshold()),
    }


def run_id(workload: str, seed: int, config: Dict[str, Any]) -> str:
    """Deterministic id of a run: a fingerprint of workload, sizes and seed."""
    payload = json.dumps({"workload": workload, "seed": seed, "config": config}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def peak_rss_mib() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


# -- the protocol -------------------------------------------------------------------------


def timed_setup(workload: Workload, repeats: bool) -> Tuple[float, Dict[str, float]]:
    """Set up (several times when ``repeats``); median seconds and last sub-timings."""
    durations: List[float] = []
    parts: Dict[str, float] = {}
    spent = 0.0
    while True:
        before = speed_factor()
        started = time.perf_counter()
        parts = workload.setup()
        raw = time.perf_counter() - started
        durations.append(raw / ((before + speed_factor()) / 2.0))
        spent += raw
        done = (
            not repeats
            or (len(durations) >= 2 and spent >= SETUP_LONG_SECONDS)
            or (
                len(durations) >= SETUP_REPEATS
                and (spent >= SETUP_MIN_SECONDS or len(durations) >= SETUP_MAX_REPEATS)
            )
        )
        if done:
            return statistics.median(durations), parts
        workload.teardown()


def sim_metrics(rounds: Sequence[RoundLog]) -> Dict[str, float]:
    """Simulated-clock end-to-end numbers over the first :data:`SIM_ROUNDS` rounds."""
    sim_total = 0.0
    wire = 0
    tails: List[float] = []
    for log in rounds:
        round_tail: List[float] = []
        for sample in log.samples:
            sim_total += sample.sim_s
            wire += sample.bytes_down + sample.bytes_up
            if sample.tail_latencies is None:
                round_tail.append(sample.sim_s)
            else:
                # A tenancy run is its own population: its p99 is one reading.
                tails.append(percentile(sample.tail_latencies, 99.0))
        if round_tail:
            tails.append(percentile(round_tail, 99.0))
    return {
        "sim_s": sim_total,
        "wire_bytes": float(wire),
        "sim_tail_latency_s": statistics.median(tails) if tails else 0.0,
    }


def end_to_end(setup_s: float, rounds: Sequence[RoundLog]) -> Dict[str, Tuple[float, str]]:
    ops_per_s = [len(log.host_s) / log.total_host_s for log in rounds]
    p50s = [percentile(log.host_s, 50.0) * 1e3 for log in rounds]
    sims = sim_metrics(rounds[:SIM_ROUNDS])
    metrics = {
        "setup_s": (setup_s, "s"),
        "host_ops_per_s": (statistics.median(ops_per_s), "operations/s"),
        "host_op_p50_ms": (statistics.median(p50s), "ms"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "sim_s": (sims["sim_s"], "sim_s"),
        "wire_bytes": (sims["wire_bytes"], "bytes"),
        "sim_tail_latency_s": (sims["sim_tail_latency_s"], "sim_s"),
    }
    return metrics
