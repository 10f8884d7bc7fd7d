"""Autoscaler acceptance guard: ``process:auto`` must reach fixed-fleet speed.

The autoscaling executor exists so fleet deployments can size for peak load
without paying for idle workers off-peak.  That only works if a grown-to-size
auto fleet is as fast as a fixed fleet of the same width — scale-up decisions
happen on the submission path, so this is worth pinning, not assuming.

The guard compiles a catalog sweep (pure-Python solver backend, all cold
fingerprints) through a fixed ``process`` engine and through a
``process:auto`` engine with the same ceiling, both with pre-warmed pools
(startup is an engine-lifetime cost a serving deployment pays once), and
asserts the auto fleet's per-job throughput is within 10% of the fixed
fleet's.  Single-core runners skip (there is no fleet to scale).
"""

from __future__ import annotations

import gc
import os
import time

import pytest

from repro.algorithms import algorithm_names, build_algorithm
from repro.api import CompileTarget
from repro.core.scheduler import SchedulerOptions
from repro.service import CompileEngine

#: Distinct widths (disjoint from the executor-scaling guard's) keep every
#: fingerprint cold in both engines.
RESOLUTIONS = ((500, 320), (502, 320), (504, 320))


def _targets() -> list[CompileTarget]:
    options = SchedulerOptions(backend="python", coalescing=True)
    return [
        CompileTarget(
            build_algorithm(name),
            image_width=width,
            image_height=height,
            options=options,
            label=f"{name}@{width}",
        )
        for width, height in RESOLUTIONS
        for name in algorithm_names()
    ]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="autoscaling needs at least two cores to have a fleet to grow",
)
def test_process_auto_reaches_fixed_fleet_throughput(benchmark):
    def race():
        targets = _targets()
        workers = min(4, os.cpu_count() or 1)

        with CompileEngine(workers=workers, executor="process") as fixed:
            fixed.submit_batch(targets[:workers])  # spawn + import, once
            # A full garbage collection over a whole test session's heap
            # takes about as long as one timed window (~100 ms); start both
            # windows with none due, so it cannot land in just one of them.
            gc.collect()
            start = time.perf_counter()
            fixed_batch = fixed.submit_batch(targets[workers:])
            fixed_seconds = time.perf_counter() - start

        with CompileEngine(workers=workers, executor="process:auto") as auto:
            # The warm batch is also what grows the fleet: `workers`
            # concurrent cold jobs scale it to the ceiling.
            auto.submit_batch(targets[:workers])
            grown = auto.executor_stats()["workers"]
            gc.collect()
            start = time.perf_counter()
            auto_batch = auto.submit_batch(targets[workers:])
            auto_seconds = time.perf_counter() - start
            stats = auto.executor_stats()

        jobs = len(targets) - workers
        return (
            fixed_batch,
            auto_batch,
            fixed_seconds / jobs,
            auto_seconds / jobs,
            grown,
            stats,
            workers,
        )

    fixed_batch, auto_batch, fixed_rate, auto_rate, grown, stats, workers = (
        benchmark.pedantic(race, rounds=1, iterations=1)
    )
    assert all(result.ok for result in fixed_batch.results)
    assert all(result.ok for result in auto_batch.results)
    # The warm-up fan-out must have grown the fleet to (at least near) the
    # ceiling, and scaling may never overshoot it.
    assert grown >= 2
    assert stats["workers"] <= stats["max_workers"] == workers
    assert stats["scale_ups"] >= grown
    print(
        f"\nCatalog sweep (python solver backend): fixed process fleet "
        f"{fixed_rate * 1000:.2f} ms/job, process:auto ({grown} grown workers) "
        f"{auto_rate * 1000:.2f} ms/job ({fixed_rate / auto_rate:.2f}x)"
    )
    # Acceptance: within 10% of fixed-fleet throughput on the batch sweep.
    assert auto_rate <= fixed_rate * 1.10, (
        f"process:auto {auto_rate * 1000:.2f} ms/job vs fixed fleet "
        f"{fixed_rate * 1000:.2f} ms/job"
    )
