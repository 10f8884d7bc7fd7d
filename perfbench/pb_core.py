"""Measurement plumbing: operation records, set-up timing, layer tracing."""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy

#: Environment variables the program reads; every workload process and the
#: server subprocess get them cleared or pinned, so a stray value in the
#: caller's shell cannot change which program is measured.
PINNED_ENV = {
    "REPRO_ILP_BACKEND": None,
    "REPRO_EXECUTOR": None,
    "REPRO_WORKERS": None,
    "REPRO_TRACE": None,
    "REPRO_MAX_PENDING": None,
    "REPRO_EVENT_LOG": None,
    "REPRO_HDL_SIM": "none",
}

#: Machine-speed calibration: every timed operation is bracketed by runs of a
#: fixed kernel, and its latency is scaled by ``CALIBRATION_SECONDS / kernel
#: time``, i.e. to a machine on which the kernel takes 10 ms.  On a shared
#: machine whose speed swings by 25-40% over seconds this keeps run-to-run
#: spreads within the metrics' bounds.
CALIBRATION_SECONDS = 0.010

#: Fresh interpreters (or server spawns) timed per run for ``setup_s``.
SETUP_REPEATS = 5

#: The tiny fixed target every set-up measurement compiles first.
TINY_TARGET = ("cat:xcorr-m", 64, 48, False)


def pin_environment(env: dict) -> dict:
    for name, value in PINNED_ENV.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def pin_to_one_cpu() -> None:
    """Run this process, its threads and its children (the server) on one CPU.

    The machine's speed swings per core; on one core the calibration kernel
    measures the core that does all of the workload's work.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env(root: Path, scratch: Path) -> dict:
    """Environment of a subprocess: pinned, with ``src`` importable and
    temporary files kept inside the checkout."""
    env = pin_environment(dict(os.environ))
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(scratch)
    return env


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mib(pid: int) -> float | None:
    """Peak resident set (``VmHWM``) of another live process, when readable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def calibration_kernel() -> float:
    """Seconds one fixed workload takes right now.

    Half interpreter work (dictionary updates), half NumPy work (array
    arithmetic and a sort), like the program: a pure-Python kernel tracked
    compiles but not the NumPy-heavy verify replays.
    """
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(10000):
        table[i % 997] = table.get(i % 997, 0) + i * 3 // 7
    values = numpy.arange(200_000, dtype=numpy.int64)
    for _ in range(2):
        mixed = (values * 3 + 7) % 251
        mixed.sort()
    return time.perf_counter() - started


def speed_between(before: float, after: float) -> float:
    """Machine-speed factor of an interval bracketed by two kernel runs."""
    return CALIBRATION_SECONDS / ((before + after) / 2)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ------------------------------------------------------------------ operations
@dataclass
class Ops:
    """Closed-loop operation records of one run: ``(tag, key, seconds, speed)``.

    ``key`` names the operation's input class (a target, a check on an
    algorithm); ``speed`` is the calibration factor measured around it.
    """

    records: list[tuple[str, str, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(
        self, tag: str, seconds: float, failure: str | None = None, key: str = "", speed: float = 1.0
    ) -> None:
        self.attempted += 1
        self.records.append((tag, key, seconds, speed))
        if failure is not None:
            self.fail(failure, counted=True)

    def fail(self, reason: str, *, counted: bool = False) -> None:
        """Count a failed operation; ``counted`` when it was already attempted."""
        if not counted:
            self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def latencies(self, tag: str | None = None) -> list[float]:
        """Calibrated, smoothed latencies: each latency is scaled by its speed
        and then replaced by the median over its key's repetitions in the
        run, which filters bursts of interference from other processes on
        the machine out of the end-to-end figures."""
        records = [r for r in self.records if tag is None or r[0] == tag]
        by_key: dict[tuple[str, str], list[float]] = {}
        for tag_, key, seconds, speed in records:
            by_key.setdefault((tag_, key), []).append(seconds * speed)
        medians = {key: statistics.median(values) for key, values in by_key.items()}
        return [medians[(tag_, key)] for tag_, key, _, _ in records]

    def samples(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for tag, *_ in self.records:
            counts[tag] = counts.get(tag, 0) + 1
        return counts

    def calibrated_busy(self, start: int = 0) -> float:
        """Summed calibrated latency of the records from index ``start`` on."""
        return sum(seconds * speed for _, _, seconds, speed in self.records[start:])


# --------------------------------------------------------------------- set-up
SETUP_SNIPPET = """
import sys
sys.path.insert(0, {bench!r})
import pb_inputs
from repro.core.compiler import compile_target
spec = {spec!r}
compile_target(pb_inputs.make_target(pb_inputs.build_dag(spec[0]), *spec[1:]))
print("compiled", flush=True)
import pb_core
print(min(pb_core.calibration_kernel() for _ in range(3)), flush=True)
"""


def time_fresh_interpreter(root: Path, scratch: Path) -> float:
    """Seconds from spawning an interpreter until its first compile returns,
    calibrated by the kernel the interpreter runs right afterwards."""
    code = SETUP_SNIPPET.format(bench=str(Path(__file__).parent), spec=TINY_TARGET)
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        env=child_env(root, scratch),
        cwd=root,
        text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        kernel = child.stdout.read()
    finally:
        child.stdout.close()
        code = child.wait(timeout=120)
    if line.strip() != "compiled" or code != 0:
        raise RuntimeError(f"set-up interpreter failed (exit {code})")
    return elapsed * CALIBRATION_SECONDS / float(kernel)


def median_setup(measure) -> float:
    return statistics.median(measure() for _ in range(SETUP_REPEATS))


# -------------------------------------------------------------------- tracing
@dataclass(frozen=True)
class LayerTimer:
    """One wrapped entry point: ``owner`` is ``module`` or ``module:Class``.

    ``count`` optionally maps the call's return value to extra counters
    (``{metric name: amount}``) recorded in the traced run.
    """

    layer: str
    owner: str
    attr: str
    count: object = None


class Tracer:
    """Span recorder around the program's public entry points.

    :meth:`install` replaces each entry point, at the module (or class)
    attribute its caller looks up, with a timed wrapper; :meth:`uninstall`
    restores the originals.  Spans are recorded only inside a benchmark
    operation (:meth:`op`), kept in memory, and written out by :meth:`dump`.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op index)
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op_index: int | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else (0, -1)
        span_id = next(self._ids)
        index = parent[1] if op_index is None else op_index
        stack.append((span_id, index))
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, started, ended, parent[0], index))

    def op(self, index: int):
        """The root span of one benchmark operation."""
        return self.span("op", op_index=index)

    def count(self, deltas: dict) -> None:
        with self._lock:
            for name, amount in deltas.items():
                self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, timer: LayerTimer, original):
        @functools.wraps(original)
        def timed(*args, **kwargs):
            if not self._stack():
                return original(*args, **kwargs)
            with self.span(timer.layer):
                result = original(*args, **kwargs)
            if timer.count is not None:
                self.count(timer.count(result))
            return result

        return timed

    def install(self, timers) -> None:
        for timer in timers:
            module_name, _, class_name = timer.owner.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[timer.attr] if class_name else getattr(owner, timer.attr)
            self._patched.append((owner, timer.attr, original))
            setattr(owner, timer.attr, self._wrap(timer, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        children: dict[int, float] = {}
        for _, _, started, ended, parent, _ in self.spans:
            children[parent] = children.get(parent, 0.0) + (ended - started)
        return {
            span_id: (ended - started) - children.get(span_id, 0.0)
            for span_id, _, started, ended, _, _ in self.spans
        }

    def layer_summary(self) -> dict[str, list[float]]:
        """Layer name -> per-call self times (seconds); ``op`` is the root."""
        selves = self.self_times()
        summary: dict[str, list[float]] = {}
        for span_id, name, *_ in self.spans:
            summary.setdefault(name, []).append(selves[span_id])
        return summary

    def op_wall(self) -> float:
        return sum(ended - started for _, name, started, ended, _, _ in self.spans if name == "op")

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, name, started, ended, parent, index in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": started,
                            "end": ended,
                            "parent": parent,
                            "workload": self.workload,
                            "op": index,
                        }
                    )
                    + "\n"
                )
