"""Tests of the benchmark itself: seeded inputs, oracles and the layer tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import pb_core  # noqa: E402
import pb_inputs  # noqa: E402
import pb_oracles  # noqa: E402


def _draws(seed: int):
    rng = random.Random(seed)
    compile_passes = list(itertools.islice(pb_inputs.compile_passes(rng), 6))
    verify_rounds = list(itertools.islice(pb_inputs.verify_rounds(rng), 2))
    sweeps = next(pb_inputs.sweep_passes(rng))
    http = [list(itertools.islice(pb_inputs.http_requests(random.Random(seed * 2 + lane), lane), 400)) for lane in (0, 1)]
    return compile_passes, verify_rounds, sweeps, http


def _misses(http):
    return [spec for lane in http for kind, spec in lane if kind == "miss"]


def test_same_seed_same_inputs():
    assert _draws(7) == _draws(7)


def test_different_seed_different_draws():
    first, second = _draws(7), _draws(8)
    synthetic = lambda draw: [s for p in draw[0] for s in p if s[0].startswith("syn:")]  # noqa: E731
    assert synthetic(first) != synthetic(second)
    assert _misses(first[3]) != _misses(second[3])
    assert first[1] != second[1]


def test_every_drawn_compile_has_an_expected_objective():
    expected = pb_oracles.load_expected()
    for seed in range(5):
        for specs in _draws(seed)[0]:
            for spec in specs:
                assert pb_inputs.target_key(*spec) in expected["objectives"]
    for spec in pb_inputs.sweep_specs():
        assert pb_inputs.target_key(*spec, False) in expected["sweeps"]


def test_http_misses_are_distinct_and_never_warm():
    for seed in range(3):
        misses = _misses(_draws(seed)[3])
        keys = [pb_inputs.target_key(*spec) for spec in misses]
        assert misses and len(keys) == len(set(keys))
        assert not set(keys) & {pb_inputs.target_key(*spec) for spec in pb_inputs.http_warm_specs()}


def _compile(spec):
    from repro.core.compiler import compile_target

    return compile_target(pb_inputs.make_target(pb_inputs.build_dag(spec[0]), *spec[1:]))


def test_compile_oracle_catches_a_padded_start_cycle():
    spec = ("cat:unsharp-m", *pb_inputs.SMALL, False)
    key = pb_inputs.target_key(*spec)
    objectives = pb_oracles.load_expected()["objectives"]
    schedule = _compile(spec).schedule
    assert pb_oracles.check_compile(key, schedule, objectives) is None
    output = schedule.dag.output_stages()[0].name
    padded = dict(schedule.start_cycles, **{output: schedule.start_cycles[output] + 1})
    assert pb_oracles.check_compile(key, dataclasses.replace(schedule, start_cycles=padded), objectives)
    wrong = dict(objectives, **{key: objectives[key] + 1})
    assert pb_oracles.check_compile(key, schedule, wrong)


def _verdict(check: str, seed: int = 3):
    from repro.service.engine import CompileEngine
    from repro.service.verify import VerifyEngine, VerifyRequest
    from repro.sim.batch import replay_frames

    target = pb_inputs.make_target(pb_inputs.build_dag("cat:xcorr-m"), 64, 48, False)
    engine = CompileEngine(executor="inline", tracing=False)
    result = VerifyEngine(engine).submit(VerifyRequest(target=target, check=check, frames=1, seed=seed))
    digest = replay_frames(target.dag, 64, 48, frames=1, seed=seed)
    payload = {"passed": result.passed, "error": result.error, check: dict(getattr(result, check))}
    return payload, digest


def test_verify_oracle_catches_a_flipped_output_pixel():
    from repro.sim.batch import output_digest

    for check in ("golden", "rtl"):
        payload, replay = _verdict(check)
        assert pb_oracles.check_verdict(check, payload, replay.digest) is None
        outputs = {name: array.copy() for name, array in replay.outputs.items()}
        first = next(iter(outputs))
        outputs[first].flat[0] += 1
        flipped = output_digest(outputs)
        field = "rtl_digest" if check == "rtl" else "digest"
        corrupted = dict(payload, **{check: dict(payload[check], **{field: flipped})})
        assert pb_oracles.check_verdict(check, corrupted, replay.digest)


def test_verify_oracle_catches_cycle_and_perf_failures():
    payload, replay = _verdict("perf")
    assert pb_oracles.check_verdict("perf", payload, replay.digest) is None
    part = payload["perf"]
    slow = dict(part, cycles_per_frame=part["bound_cycles_per_frame"] + 1)
    assert pb_oracles.check_verdict("perf", dict(payload, perf=slow), replay.digest)
    payload, replay = _verdict("cycle")
    assert pb_oracles.check_verdict("cycle", payload, replay.digest) is None
    broken = dict(payload["cycle"], violations=[{"rule": "R3"}])
    assert pb_oracles.check_verdict("cycle", dict(payload, cycle=broken), replay.digest)
    assert pb_oracles.check_verdict("cycle", dict(payload, passed=False), replay.digest)


def test_http_oracle_catches_a_changed_report():
    from repro.estimate.report import accelerator_report
    from repro.service.engine import CompileEngine
    from repro.service.wire import result_to_wire

    spec = ("cat:harris-m", *pb_inputs.SMALL, True)
    accelerator = _compile(spec)
    reference = {"fingerprint": accelerator.fingerprint, "report": accelerator_report(accelerator).row()}
    engine = CompileEngine(executor="inline", tracing=False)
    payload = result_to_wire(engine.submit(pb_inputs.make_target(pb_inputs.build_dag(spec[0]), *spec[1:])))
    assert pb_oracles.check_http(payload, reference) is None
    more_sram = dict(payload["report"], sram_kb=payload["report"]["sram_kb"] + 0.01)
    assert pb_oracles.check_http(dict(payload, report=more_sram), reference)
    assert pb_oracles.check_http(dict(payload, fingerprint="0" * 64), reference)
    assert pb_oracles.check_http(dict(payload, ok=False), reference)


def test_sweep_oracle_catches_a_lost_point():
    from repro.dse.sweep import sweep_memory_configurations

    spec = ("cat:denoise-m", *pb_inputs.SMALL)
    key = pb_inputs.target_key(*spec, False)
    sweeps = pb_oracles.load_expected()["sweeps"]
    points = sweep_memory_configurations(pb_inputs.make_target(pb_inputs.build_dag(spec[0]), *spec[1:], False))
    assert pb_oracles.check_sweep(key, points, sweeps) is None
    assert pb_oracles.check_sweep(key, points[1:], sweeps)
    renamed = [dataclasses.replace(point, label=f"x{point.label}") for point in points]
    assert pb_oracles.check_sweep(key, renamed, sweeps)


def test_tracer_wraps_restores_and_subtracts_children():
    import repro.core.scheduler as scheduler

    original = scheduler.realize_line_buffers
    tracer = pb_core.Tracer("test")
    tracer.install([
        pb_core.LayerTimer("scheduler.schedule", "repro.core.compiler", "schedule_pipeline"),
        pb_core.LayerTimer("memory.allocate", "repro.core.scheduler", "realize_line_buffers",
                           lambda buffers: {"memory.buffers": len(buffers)}),
    ])
    try:
        assert scheduler.realize_line_buffers is not original
        _compile(("cat:canny-s", 64, 48, False))  # outside an operation: not recorded
        assert tracer.spans == []
        with tracer.op(0):
            _compile(("cat:canny-s", 64, 48, False))
    finally:
        tracer.uninstall()
    assert scheduler.realize_line_buffers is original
    summary = tracer.layer_summary()
    assert len(summary["memory.allocate"]) == 1 and tracer.counters["memory.buffers"] > 0
    (op,) = [s for s in tracer.spans if s[1] == "op"]
    total = sum(sum(values) for values in summary.values())
    assert total == pytest.approx(op[3] - op[2])


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-cold", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_benchmark_json_lists_what_the_runs_print():
    import json

    import pb_layers
    from pb_workloads import WORKLOADS

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == pb_layers.per_layer_units()


def test_compile_cycle_deals_every_stage_count_once():
    passes = list(itertools.islice(pb_inputs.compile_passes(random.Random(3)), pb_inputs.COMPILE_CYCLE))
    stages = sorted(int(s[0].split(":")[1]) for p in passes for s in p if s[0].startswith("syn:") and not s[3])
    assert stages == sorted(n for band in pb_inputs.SYNTHETIC_BANDS for n in band)
