"""Regenerate ``expected.json``, the reference values of the correctness oracles.

Every ILP objective the compile-cold workload can produce is solved twice,
once by each independent backend (HiGHS and the pure-Python
branch-and-bound), and written only when the two agree.  Every dse-sweep
reference (point count and Pareto set) is computed by the compound sweep and
by the per-variant serial sweep, and written only when they agree.  The SRAM
of each backend's design is recorded beside the objective for the notes; it
is not an oracle, because equal objectives may allocate differently.

Run from the repository root (takes several minutes: the Python backend is
slow on the 60-stage pipelines)::

    PYTHONPATH=src python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pb_inputs  # noqa: E402
from pb_oracles import EXPECTED_PATH, pareto_labels, recomputed_objective  # noqa: E402


def compile_specs():
    specs = pb_inputs.catalog_specs() + pb_inputs.dsl_specs()
    for dag_key in pb_inputs.synthetic_pool():
        specs += [(dag_key, *pb_inputs.LARGE, False), (dag_key, *pb_inputs.LARGE, True)]
    return specs


def solve_both(spec) -> dict:
    from repro.core.compiler import compile_target
    from repro.estimate.report import accelerator_report

    dag = pb_inputs.build_dag(spec[0])
    row = {}
    for backend in ("highs", "python"):
        target = pb_inputs.make_target(dag, *spec[1:]).with_options(backend=backend)
        started = time.perf_counter()
        schedule = compile_target(target).schedule
        objective = schedule.solver_stats["objective"]
        if recomputed_objective(schedule) != objective:
            raise SystemExit(f"{spec}: {backend} objective disagrees with its start cycles")
        row[backend] = {
            "objective": objective,
            "sram_kb": round(accelerator_report(schedule).sram_kbytes, 2),
            "seconds": round(time.perf_counter() - started, 3),
        }
    if row["highs"]["objective"] != row["python"]["objective"]:
        raise SystemExit(f"{spec}: backends disagree: {row}")
    return row


def sweep_reference(spec) -> dict:
    from repro.dse.sweep import sweep_memory_configurations

    target = pb_inputs.make_target(pb_inputs.build_dag(spec[0]), *spec[1:], False)
    compound = sweep_memory_configurations(target, compound=True)
    serial = sweep_memory_configurations(target, compound=False)
    reference = {"points": len(compound), "pareto": pareto_labels(compound)}
    if reference != {"points": len(serial), "pareto": pareto_labels(serial)}:
        raise SystemExit(f"{spec}: compound and serial sweeps disagree")
    return reference


def main() -> None:
    objectives, backends = {}, {}
    for spec in compile_specs():
        key = pb_inputs.target_key(*spec)
        row = solve_both(spec)
        objectives[key] = row["highs"]["objective"]
        backends[key] = row
        print(key, row, flush=True)
    sweeps = {}
    for spec in pb_inputs.sweep_specs():
        key = pb_inputs.target_key(*spec, False)
        sweeps[key] = sweep_reference(spec)
        print(key, sweeps[key], flush=True)
    payload = {"objectives": objectives, "sweeps": sweeps, "backends": backends}
    EXPECTED_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")


if __name__ == "__main__":
    main()
