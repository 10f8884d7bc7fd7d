"""The four workloads.

Every workload is a closed loop: the next operation starts when the previous
one returns.  The in-process workloads run whole passes (a fixed mix drawn
from the seed) until ``seconds`` have elapsed, so every run measures the
same mix.  ``run(ctx)`` returns the operation records, the end-to-end
metrics (untraced run) or per-layer metrics (traced run), and info lines.

In the traced run a workload first runs untraced for half the time, then
replays the same operations with the layer timers installed; the difference
of the two walls is the tracing overhead.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from pathlib import Path

import pb_core
import pb_inputs
import pb_layers
import pb_oracles
from pb_core import Ops, Tracer, quantile


@dataclass
class Context:
    root: Path
    scratch: Path
    seed: int
    seconds: float
    trace: bool


@dataclass
class Outcome:
    ops: Ops
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: list[str] = field(default_factory=list)


def _per_s(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


class InProcess:
    """A single-thread in-process workload made of whole passes."""

    name = ""
    tag = ""
    #: Passes that together draw a balanced sample; runs stop on a whole cycle.
    cycle = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.pass_sram: list[float] = []

    # Hooks ------------------------------------------------------------------
    def prepare(self) -> None:
        """Set-up after the warm-up compile (pre-warming, references)."""

    def passes(self, rng: random.Random):
        """Endless seeded passes (lists of operation specs)."""
        raise NotImplementedError

    def before(self, spec):
        """Untimed preparation of one operation's input."""
        return spec

    def call(self, prepared):
        raise NotImplementedError

    def check(self, spec, prepared, output) -> str | None:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop program state before the traced replay of the same passes."""

    def key(self, spec) -> str:
        """The input class of one operation (repetitions share a key)."""
        return pb_inputs.target_key(*spec)

    def points(self, ops: Ops) -> int:
        """Work items completed (compiles, verdicts or design points)."""
        return len(ops.records)

    def named(self, ops: Ops) -> dict[str, float]:
        raise NotImplementedError

    # Driver -----------------------------------------------------------------
    def run_pass(self, specs, ops: Ops, tracer: Tracer | None = None) -> None:
        self.sram = 0.0
        calibration = pb_core.calibration_kernel()
        for index, spec in enumerate(specs):
            prepared = self.before(spec)
            scope = tracer.op(index) if tracer is not None else nullcontext()
            started = time.perf_counter()
            try:
                with scope:
                    output = self.call(prepared)
            except Exception as exc:  # noqa: BLE001 - a failed operation, not an aborted run
                output, failure = None, f"{spec}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            before, calibration = calibration, pb_core.calibration_kernel()
            if output is not None:
                try:
                    failure = self.check(spec, prepared, output)
                except Exception as exc:  # noqa: BLE001 - a malformed output, not an aborted run
                    failure = f"{spec}: oracle raised {type(exc).__name__}: {exc}"
            speed = pb_core.speed_between(before, calibration)
            ops.record(self.tag, elapsed, failure, self.key(spec), speed)
        self.pass_sram.append(self.sram)

    def loop(self, seconds: float, passes, ops: Ops) -> list:
        """Run whole cycles of passes until ``seconds`` are (about) used up:
        stop once less than half a cycle's time remains."""
        done = []
        started = time.perf_counter()
        while True:
            for _ in range(self.cycle):
                specs = next(passes)
                done.append(specs)
                self.run_pass(specs, ops)
            elapsed = time.perf_counter() - started
            if elapsed >= seconds - elapsed / (len(done) / self.cycle) / 2:
                return done

    def run(self) -> Outcome:
        ctx = self.ctx
        setup = None
        if not ctx.trace:
            setup = pb_core.median_setup(lambda: pb_core.time_fresh_interpreter(ctx.root, ctx.scratch))
        _warm_up()
        self.prepare()
        passes = self.passes(random.Random(ctx.seed))
        ops = Ops()
        if not ctx.trace:
            self.loop(ctx.seconds, passes, ops)
            latencies = ops.latencies()
            metrics = {
                "setup_s": (setup, "s"),
                "ops_per_s": (_per_s(self.points(ops), sum(latencies)), "1/s"),
                "op_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
                "peak_rss_mib": (pb_core.peak_rss_mib(), "MiB"),
                "design_sram_kb": (statistics.median(self.pass_sram), "KB"),
            }
            return Outcome(ops, metrics, _named_lines(self.named(ops), ops))

        done = self.loop(ctx.seconds / 2, passes, ops)
        split = len(ops.records)
        untraced = ops.calibrated_busy()
        named = self.named(ops)
        self.reset()
        tracer = Tracer(self.name)
        tracer.install(pb_layers.TIMERS)
        try:
            for specs in done:
                self.run_pass(specs, ops, tracer)
        finally:
            tracer.uninstall()
        traced = ops.calibrated_busy(split)
        return _traced_outcome(self.name, ctx, ops, tracer, (untraced, traced), named, {})


def _warm_up() -> None:
    """Compile the tiny set-up target once, so lazy imports are not timed."""
    from repro.core.compiler import compile_target

    spec = pb_core.TINY_TARGET
    compile_target(pb_inputs.make_target(pb_inputs.build_dag(spec[0]), *spec[1:]))


def _named_lines(named: dict[str, float], ops: Ops) -> list[str]:
    units = pb_layers.WORKLOAD_METRICS
    return [f"{name} = {value:.4f} {units[name]}" for name, value in named.items()] + [
        f"samples: {ops.samples()}"
    ]


def _timing(ops: Ops, tag: str, count: int | None = None) -> tuple[float, float, float]:
    """(items per second, p50 ms, p90 ms) of one tag, over smoothed latencies."""
    latencies = ops.latencies(tag)
    if not latencies:
        return 0.0, 0.0, 0.0
    rate = _per_s(len(latencies) if count is None else count, sum(latencies))
    return rate, quantile(latencies, 0.5) * 1e3, quantile(latencies, 0.9) * 1e3


def _traced_outcome(name, ctx, ops, tracer, walls, named, derived) -> Outcome:
    """Per-layer metrics of a traced run; ``walls`` are the calibrated
    untraced and traced walls of the same operations."""
    untraced, traced = walls
    values = {metric: 0.0 for metric in pb_layers.per_layer_units()}
    values.update(pb_layers.layer_metrics(tracer))
    values.update(derived)
    values.update(named)
    share = pb_layers.attribution(tracer)
    values["trace.overhead_ms"] = (traced - untraced) * 1e3
    values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced if untraced else 0.0
    values["trace.attribution"] = share
    info = [f"tracing overhead: {(traced - untraced) * 1e3:.1f} ms over {untraced:.3f} s untraced"]
    if name in pb_layers.ATTRIBUTED_WORKLOADS:
        low = share < pb_layers.ATTRIBUTION_FLOOR
        values["trace.attribution_low"] = int(low)
        info.append(
            f"attribution: layer timers cover {share:.1%} of {name} wall"
            + (f" -- BELOW {pb_layers.ATTRIBUTION_FLOOR:.0%}" if low else "")
        )
    tracer.dump(ctx.root / "perfbench" / ".out" / f"spans-{name}-seed{ctx.seed}.jsonl")
    units = pb_layers.per_layer_units()
    return Outcome(ops, {metric: (values[metric], units[metric]) for metric in units}, info)


# ---------------------------------------------------------------- compile-cold
class CompileCold(InProcess):
    """Cold in-process compiles: catalog, DSL texts and a synthetic draw."""

    name = "compile-cold"
    tag = "compile"
    cycle = pb_inputs.COMPILE_CYCLE

    def prepare(self) -> None:
        self.objectives = pb_oracles.load_expected()["objectives"]

    def passes(self, rng):
        return pb_inputs.compile_passes(rng)

    def key(self, spec) -> str:
        # Synthetic DAGs of one stage band share a key: a cycle compiles the
        # same counts of every band on every seed, so the band median is
        # comparable across seeds while single draws are not.
        dag_key, width, height, coalescing = spec
        if dag_key.startswith("syn:"):
            stages = int(dag_key.split(":")[1])
            band = next(i for i, counts in enumerate(pb_inputs.SYNTHETIC_BANDS) if stages in counts)
            dag_key = f"syn-band{band}"
        return pb_inputs.target_key(dag_key, width, height, coalescing)

    def before(self, spec):
        # DSL texts are parsed inside the timed operation; other DAGs are
        # built outside it.
        dag = None if spec[0].startswith("dsl:") else pb_inputs.build_dag(spec[0])
        return spec, dag

    def call(self, prepared):
        from repro.core.compiler import compile_target
        from repro.estimate import report

        spec, dag = prepared
        if dag is None:
            dag = pb_inputs.build_dag(spec[0])
        accelerator = compile_target(pb_inputs.make_target(dag, *spec[1:]))
        accelerator.generate_verilog()
        return accelerator, report.accelerator_report(accelerator)

    def check(self, spec, prepared, output):
        accelerator, report = output
        self.sram += report.sram_kbytes
        return pb_oracles.check_compile(pb_inputs.target_key(*spec), accelerator.schedule, self.objectives)

    def named(self, ops):
        rate, p50, p90 = _timing(ops, self.tag)
        return {"compile_per_s": rate, "compile_p50_ms": p50, "compile_p90_ms": p90}


# ------------------------------------------------------------------ verify-mix
class VerifyMix(InProcess):
    """Fresh verify verdicts of every check kind over the catalog at 480x320."""

    name = "verify-mix"
    tag = "verify"

    def prepare(self) -> None:
        from repro.service.engine import CompileEngine

        self.engine = CompileEngine(executor="inline", tracing=False)
        self.targets = {}
        self.design_sram = 0.0
        for name in pb_inputs.catalog_names():
            target = pb_inputs.make_target(pb_inputs.build_dag(f"cat:{name}"), *pb_inputs.SMALL, False)
            result = self.engine.submit(target)
            self.targets[name] = target
            self.design_sram += _sram(result)
        self.reset()
        self.pinned_failures = self._check_pinned_digests()
        self.replays: dict[tuple[str, int], str] = {}

    def _check_pinned_digests(self) -> list[str]:
        """RTL-sim digests of the catalog at the pinned size and seed must equal
        ``tests/data/rtl_digests.json``."""
        from repro.service.verify import VerifyEngine, VerifyRequest

        pins = json.loads((self.ctx.root / "tests" / "data" / "rtl_digests.json").read_text())
        meta = pins["_meta"]
        engine = VerifyEngine(self.engine)
        failures = []
        for name in pb_inputs.catalog_names():
            expected = pins.get(name, {}).get("rtl_digest:imagen")
            if expected is None:
                continue
            target = pb_inputs.make_target(
                pb_inputs.build_dag(f"cat:{name}"), meta["image_width"], meta["image_height"], False
            )
            result = engine.submit(
                VerifyRequest(target=target, check="rtl", frames=meta["frames"], seed=meta["seed"])
            )
            if not result.passed or (result.rtl or {}).get("rtl_digest") != expected:
                failures.append(f"{name}: RTL digest differs from tests/data/rtl_digests.json")
        return failures

    def reset(self) -> None:
        from repro.service.verify import VerifyEngine

        self.verifier = VerifyEngine(self.engine)

    def passes(self, rng):
        return pb_inputs.verify_rounds(rng)

    def before(self, spec):
        from repro.service.verify import VerifyRequest

        name, check, seed = spec
        return VerifyRequest(
            target=self.targets[name], check=check, frames=pb_inputs.VERIFY_FRAMES, seed=seed
        )

    def call(self, request):
        return self.verifier.submit(request)

    def check(self, spec, request, result):
        from repro.sim.batch import replay_frames

        name, check, seed = spec
        key = (name, seed)
        if key not in self.replays:
            target = self.targets[name]
            self.replays[key] = replay_frames(
                target.dag, target.image_width, target.image_height,
                frames=pb_inputs.VERIFY_FRAMES, seed=seed,
            ).digest
        payload = {"passed": result.passed, "error": result.error, check: getattr(result, check)}
        return pb_oracles.check_verdict(check, payload, self.replays[key])

    def run_pass(self, specs, ops, tracer=None):
        super().run_pass(specs, ops, tracer)
        self.pass_sram[-1] = self.design_sram

    def run(self) -> Outcome:
        outcome = super().run()
        for failure in self.pinned_failures:
            outcome.ops.fail(failure)
        if self.ctx.trace:
            stats = self.verifier.stats()
            served = stats["served_from_memory"] + stats["served_from_disk"]
            ratio = served / stats["requests"] if stats["requests"] else 0.0
            outcome.metrics["verify.verdict_hit_ratio"] = (ratio, "ratio")
        return outcome

    def key(self, spec) -> str:
        return f"{spec[0]}:{spec[1]}"

    def named(self, ops):
        rate, p50, p90 = _timing(ops, self.tag)
        return {"verify_per_s": rate, "verify_p50_ms": p50, "verify_p90_ms": p90}


def _sram(result) -> float:
    from repro.estimate.report import accelerator_report

    return accelerator_report(result.unwrap()).sram_kbytes


# ------------------------------------------------------------------- dse-sweep
class DseSweep(InProcess):
    """Serial compound Fig. 10 sweeps, each on a fresh engine and cache."""

    name = "dse-sweep"
    tag = "sweep"

    def prepare(self) -> None:
        self.sweeps = pb_oracles.load_expected()["sweeps"]
        self.point_count = 0

    def passes(self, rng):
        return pb_inputs.sweep_passes(rng)

    def before(self, spec):
        from repro.service.engine import CompileEngine

        target = pb_inputs.make_target(pb_inputs.build_dag(spec[0]), *spec[1:], False)
        return target, CompileEngine(executor="inline", tracing=False)

    def call(self, prepared):
        from repro.dse.sweep import sweep_memory_configurations

        target, engine = prepared
        return sweep_memory_configurations(target, engine=engine, compound=True)

    def check(self, spec, prepared, points):
        self.point_count += len(points)
        self.sram += sum(point.report.sram_kbytes for point in points)
        return pb_oracles.check_sweep(pb_inputs.target_key(*spec, False), points, self.sweeps)

    def key(self, spec) -> str:
        return pb_inputs.target_key(*spec, False)

    def points(self, ops):
        return self.point_count

    def named(self, ops):
        return {"sweep_points_per_s": _timing(ops, self.tag, self.point_count)[0]}


# ------------------------------------------------------------------ http-serve
class Server:
    """``python -m repro.service.http`` as a subprocess with a private cache."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.workdir = Path(tempfile.mkdtemp(prefix="http-", dir=ctx.scratch))
        self.log_path = self.workdir / "access.log"
        before = pb_core.calibration_kernel()
        started = time.perf_counter()
        with self.log_path.open("w") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.service.http",
                    "--host", "127.0.0.1", "--port", "0",
                    "--cache-dir", str(self.workdir / "cache"),
                    "--access-log", "json", "--workers", "2", "--executor", "thread",
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                env=pb_core.child_env(ctx.root, ctx.scratch),
                cwd=ctx.root,
                text=True,
            )
        banner = self.process.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(match.group(1))
        from repro.service.http import ServiceClient

        self.client = ServiceClient("127.0.0.1", self.port, timeout=60)
        spec = pb_core.TINY_TARGET
        self.client.compile(pb_inputs.make_target(pb_inputs.build_dag(spec[0]), *spec[1:]))
        elapsed = time.perf_counter() - started
        self.setup_seconds = elapsed * pb_core.speed_between(before, pb_core.calibration_kernel())

    def access_log(self, offset: int = 0) -> list[dict]:
        with self.log_path.open("rb") as handle:
            handle.seek(offset)
            lines = handle.read().decode("utf-8", "replace").splitlines()
        records = []
        for line in lines:
            if line.startswith("{"):
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue
        return records

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self.process.stdout.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


class HttpServe:
    """Two closed-loop clients against the HTTP front.

    Lane 0 sends on one persistent keep-alive connection; lane 1 uses
    ``ServiceClient``, which opens a fresh connection per request.  About 95%
    of requests hit the pre-warmed catalog working set; the rest are misses.
    """

    name = "http-serve"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def run(self) -> Outcome:
        ctx = self.ctx
        server, setups = None, []
        try:
            for _ in range(1 if ctx.trace else pb_core.SETUP_REPEATS):
                if server is not None:
                    server.stop()
                server = Server(ctx)
                setups.append(server.setup_seconds)
            return self._run(server, statistics.median(setups))
        finally:
            if server is not None:
                server.stop()

    def _references(self) -> dict[str, dict]:
        from repro.core.compiler import compile_target
        from repro.estimate.report import accelerator_report

        references = {}
        for spec in pb_inputs.http_warm_specs():
            accelerator = compile_target(pb_inputs.make_target(pb_inputs.build_dag(spec[0]), *spec[1:]))
            references[pb_inputs.target_key(*spec)] = {
                "fingerprint": accelerator.fingerprint,
                "report": accelerator_report(accelerator).row(),
            }
        return references

    def _run(self, server: Server, setup: float) -> Outcome:
        from repro.service.wire import target_to_wire

        ctx = self.ctx
        ops = Ops()
        self.bodies = {}
        for spec in pb_inputs.http_warm_specs():
            target = pb_inputs.make_target(pb_inputs.build_dag(spec[0]), *spec[1:])
            self.bodies[pb_inputs.target_key(*spec)] = json.dumps(target_to_wire(target)).encode()
            server.client.compile(target)
        _warm_up()
        references = self._references()
        stats_before = server.client.cache_stats()
        offset = server.log_path.stat().st_size
        seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
        log = self._load(server, seconds, ops, references)
        stats_after = server.client.cache_stats()
        rss = pb_core.process_peak_rss_mib(server.process.pid) or pb_core.peak_rss_mib()
        records = server.access_log(offset)
        self._check_misses(log, ops)
        named = self._named(ops)
        info = _named_lines(named, ops)
        design_sram = sum(reference["report"]["sram_kb"] for reference in references.values())
        if not ctx.trace:
            metrics = {
                "setup_s": (setup, "s"),
                "ops_per_s": (named["http_rps"], "1/s"),
                "op_p50_ms": (quantile(ops.latencies(), 0.5) * 1e3, "ms"),
                "peak_rss_mib": (rss, "MiB"),
                "design_sram_kb": (design_sram, "KB"),
            }
            return Outcome(ops, metrics, info)
        derived = self._server_layers(log, records, stats_before, stats_after)
        return self._traced_replay(log, ops, named, derived)

    def _load(self, server: Server, seconds: float, ops: Ops, references) -> list[dict]:
        """Run both lanes for ``seconds``, in slices of about a second with a
        calibration run between slices (the lanes pause there).  The request
        rate is the median of the slices' calibrated rates, so a slice that
        an expensive miss or a burst of interference stalls does not move it."""
        log: list[dict] = []
        self.slice_rates: list[float] = []
        streams = [pb_inputs.http_requests(random.Random(self.ctx.seed * 2 + lane), lane) for lane in (0, 1)]
        self.connection = None
        deadline = time.perf_counter() + seconds
        calibration = pb_core.calibration_kernel()
        while time.perf_counter() < deadline:
            slice_end = min(deadline, time.perf_counter() + HTTP_SLICE_SECONDS)
            done: list[tuple] = []
            lanes = [
                threading.Thread(target=self._lane, args=(lane, streams[lane], server, slice_end, references, done, log))
                for lane in (0, 1)
            ]
            started = time.perf_counter()
            for lane in lanes:
                lane.start()
            for lane in lanes:
                lane.join()
            wall = time.perf_counter() - started
            before, calibration = calibration, pb_core.calibration_kernel()
            speed = pb_core.speed_between(before, calibration)
            self.slice_rates.append(_per_s(len(done), wall * speed))
            for tag, elapsed, failure, key in done:
                ops.record(tag, elapsed, failure, key, speed)
        if self.connection is not None:
            self.connection.close()
        return log

    def _lane(self, lane, stream, server, deadline, references, done, log) -> None:
        try:
            self._requests(lane, stream, server, deadline, references, done, log)
        except Exception as exc:  # noqa: BLE001 - a lane that dies is a failed request
            done.append(("error", 0.0, f"lane {lane} stopped: {type(exc).__name__}: {exc}", f"{lane}|"))

    def _requests(self, lane, stream, server, deadline, references, done, log) -> None:
        from repro.service.http import ServiceClient, ServiceError

        client = ServiceClient("127.0.0.1", server.port, timeout=60)
        while time.perf_counter() < deadline:
            kind, spec = next(stream)
            key = pb_inputs.target_key(*spec)
            target = None
            if kind == "miss" or lane == 1:
                target = pb_inputs.make_target(pb_inputs.build_dag(spec[0]), *spec[1:])
            if lane == 0:
                body = self.bodies.get(key) or _wire_body(target)
            tag = "cold" if kind == "miss" else ("warm" if lane == 0 else "fresh")
            # Every miss is a new target; misses share one key per lane, so
            # their median, not the seed's particular draw, enters the rates.
            ops_key = f"{lane}|{'miss' if kind == 'miss' else key}"
            started = time.perf_counter()
            try:
                if lane == 0:
                    if self.connection is None:
                        self.connection = HTTPConnection("127.0.0.1", server.port, timeout=60)
                    self.connection.request(
                        "POST", "/v1/compile", body=body, headers={"Content-Type": "application/json"}
                    )
                    response = self.connection.getresponse()
                    data = response.read()
                    if response.status != 200:
                        raise ServiceError(f"HTTP {response.status}", status=response.status)
                    payload = json.loads(data)
                else:
                    payload = client.compile(target)
            except (OSError, HTTPException, ServiceError, ValueError) as exc:
                if lane == 0 and self.connection is not None:
                    self.connection.close()
                    self.connection = None
                done.append((tag, time.perf_counter() - started, f"{key}: {type(exc).__name__}: {exc}", ops_key))
                continue
            elapsed = time.perf_counter() - started
            failure = None if kind == "miss" else pb_oracles.check_http(payload, references[key])
            done.append((tag, elapsed, failure, ops_key))
            log.append({"tag": tag, "spec": spec, "seconds": elapsed, "payload": payload})

    def _check_misses(self, log, ops) -> None:
        """Every miss must equal an in-process cold compile of its target."""
        from repro.core.compiler import compile_target
        from repro.estimate.report import accelerator_report

        for entry in log:
            if entry["tag"] != "cold":
                continue
            spec = entry["spec"]
            try:
                accelerator = compile_target(pb_inputs.make_target(pb_inputs.build_dag(spec[0]), *spec[1:]))
                reference = {"fingerprint": accelerator.fingerprint, "report": accelerator_report(accelerator).row()}
                failure = pb_oracles.check_http(entry["payload"], reference)
            except Exception as exc:  # noqa: BLE001 - a wrong answer, not an aborted run
                failure = f"in-process reference raised {type(exc).__name__}: {exc}"
            if failure is not None:
                ops.fail(f"{pb_inputs.target_key(*spec)}: {failure}", counted=True)

    def _named(self, ops: Ops) -> dict[str, float]:
        _, warm_p50, warm_p90 = _timing(ops, "warm")
        return {
            "http_warm_p50_ms": warm_p50,
            "http_warm_p90_ms": warm_p90,
            "http_fresh_p50_ms": _timing(ops, "fresh")[1],
            "http_cold_p50_ms": _timing(ops, "cold")[1],
            "http_rps": statistics.median(self.slice_rates),
        }

    def _server_layers(self, log, records, before, after) -> dict[str, float]:
        warm = {entry["payload"]["fingerprint"] for entry in log if entry["tag"] != "cold"}
        server = [r["seconds"] for r in records if r.get("path") == "/v1/compile" and r.get("fingerprint") in warm]
        # The keep-alive lane's latency beyond the server's own time is
        # transport: connection handling, buffering and acknowledgement delays.
        client = [entry["seconds"] for entry in log if entry["tag"] == "warm"]
        server_ms = quantile(server, 0.5) * 1e3 if server else 0.0
        client_ms = quantile(client, 0.5) * 1e3 if client else 0.0

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        lookups = delta("hits") + delta("misses")
        neighbor = delta("neighbor_hits") + delta("neighbor_misses")
        return {
            "http.server_ms": server_ms,
            "http.transport_ms": client_ms - server_ms,
            "cache.hit_ratio": delta("hits") / lookups if lookups else 0.0,
            "cache.neighbor_hit_ratio": delta("neighbor_hits") / neighbor if neighbor else 0.0,
        }

    def _traced_replay(self, log, ops, named, derived) -> Outcome:
        """Replay the load's requests in process: wire decode, fingerprint,
        engine submit (cache, solve on a miss) and result encode, once
        untraced and once with the layer timers."""
        from repro.service import wire
        from repro.service.engine import CompileEngine

        bodies = []
        for entry in log[:REPLAY_LIMIT]:
            key = pb_inputs.target_key(*entry["spec"])
            bodies.append(self.bodies.get(key) or _wire_body(
                pb_inputs.make_target(pb_inputs.build_dag(entry["spec"][0]), *entry["spec"][1:])
            ))

        def replay(tracer):
            cache_dir = Path(tempfile.mkdtemp(prefix="replay-", dir=self.ctx.scratch))
            engine = CompileEngine(executor="inline", cache_dir=cache_dir, tracing=False)
            try:
                for body in self.bodies.values():
                    engine.submit(wire.target_from_wire(json.loads(body)))
                wall = 0.0
                before = pb_core.calibration_kernel()
                for index, body in enumerate(bodies):
                    payload = json.loads(body)
                    scope = tracer.op(index) if tracer is not None else nullcontext()
                    started = time.perf_counter()
                    with scope:
                        result = engine.submit(wire.target_from_wire(payload))
                        wire.result_to_wire(result)
                    wall += time.perf_counter() - started
                    if not result.ok:
                        ops.fail(f"in-process replay: {result.error}")
                return wall * pb_core.speed_between(before, pb_core.calibration_kernel())
            finally:
                engine.shutdown()
                shutil.rmtree(cache_dir, ignore_errors=True)

        untraced = replay(None)
        tracer = Tracer(self.name)
        tracer.install(pb_layers.TIMERS)
        try:
            traced = replay(tracer)
        finally:
            tracer.uninstall()
        return _traced_outcome(self.name, self.ctx, ops, tracer, (untraced, traced), named, derived)


#: Length of one http-serve load slice between calibration runs.
HTTP_SLICE_SECONDS = 1.0

#: Requests of the load replayed in process by the traced http-serve run.
REPLAY_LIMIT = 800


def _wire_body(target) -> bytes:
    from repro.service.wire import target_to_wire

    return json.dumps(target_to_wire(target)).encode()


WORKLOADS = {
    "compile-cold": CompileCold,
    "verify-mix": VerifyMix,
    "http-serve": HttpServe,
    "dse-sweep": DseSweep,
}
