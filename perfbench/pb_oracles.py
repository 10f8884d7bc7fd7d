"""Correctness oracles of the benchmark.

Each check returns ``None`` when an output is correct and a one-line reason
when it is not; the workloads count a reason as a failed operation instead of
aborting the run.  The reference values come from outside the program's own
answer: ``expected.json`` (cross-checked between the two ILP backends, see
``make_expected.py``), an independent recomputation, or an in-process compile
of the same target.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def recomputed_objective(schedule) -> int:
    """Eq. 1a recomputed from the start cycles: per producer, the largest
    producer-to-consumer delay, summed."""
    dag, cycles = schedule.dag, schedule.start_cycles
    return sum(
        max(cycles[consumer] - cycles[producer] for consumer in consumers)
        for producer in dag.stage_names()
        if (consumers := dag.consumers_of(producer))
    )


def check_compile(key: str, schedule, objectives: dict[str, float]) -> str | None:
    """The ILP objective must equal the expected file and the start cycles."""
    expected = objectives.get(key)
    if expected is None:
        return f"{key}: no expected objective"
    reported = schedule.solver_stats.get("objective")
    recomputed = recomputed_objective(schedule)
    if reported != expected or recomputed != expected:
        return f"{key}: objective {reported} (start cycles give {recomputed}), expected {expected}"
    return None


def check_verdict(check: str, payload: dict, replay_digest: str) -> str | None:
    """A verify verdict must pass, and every digest must equal the replay.

    ``payload`` is the wire form of the verdict; ``replay_digest`` is the
    benchmark's own ``replay_frames`` digest of the same DAG, size and seed.
    """
    if payload.get("error"):
        return f"{check}: error {payload['error']}"
    if payload.get("passed") is not True:
        return f"{check}: verdict did not pass"
    part = payload.get(check)
    if not part or part.get("passed") is not True:
        return f"{check}: no passing {check} section"
    if check == "golden" and part.get("digest") != replay_digest:
        return "golden: digest differs from the replay"
    if check == "rtl" and not (part.get("rtl_digest") == part.get("digest") == replay_digest):
        return "rtl: RTL-sim digest differs from the replay"
    if check == "cycle" and part.get("violations"):
        return "cycle: legality violations reported"
    if check == "perf" and not part.get("cycles_per_frame", 0) <= part.get("bound_cycles_per_frame", -1):
        return "perf: cycles per frame above the bound"
    return None


def check_http(payload: dict, reference: dict) -> str | None:
    """An HTTP compile result must equal an in-process compile of its target."""
    if payload.get("ok") is not True:
        return f"http: not ok ({payload.get('error')})"
    if payload.get("fingerprint") != reference["fingerprint"]:
        return "http: fingerprint differs from the in-process compile"
    if payload.get("report") != reference["report"]:
        return "http: report row differs from the in-process compile"
    return None


def pareto_labels(points) -> list[str]:
    """Labels of the (memory area, memory power) Pareto-optimal points."""
    values = [(p.report.memory_area_mm2, p.report.memory_power_mw) for p in points]
    front = []
    for index, point in enumerate(points):
        mine = values[index]
        dominated = any(
            other[0] <= mine[0] and other[1] <= mine[1] and other != mine
            for other in values
        )
        if not dominated:
            front.append(point.label)
    return sorted(front)


def check_sweep(key: str, points, expected: dict) -> str | None:
    """Point count and Pareto set must equal the expected file."""
    reference = expected.get(key)
    if reference is None:
        return f"{key}: no expected sweep"
    if len(points) != reference["points"]:
        return f"{key}: {len(points)} points, expected {reference['points']}"
    if pareto_labels(points) != reference["pareto"]:
        return f"{key}: Pareto set differs from the expected file"
    return None
