"""Benchmark of the ImaGen reproduction: one seeded workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 10 --trace 0

Workloads: ``compile-cold``, ``verify-mix``, ``http-serve``, ``dse-sweep``
(see ``BENCHMARK.json`` and ``perfbench/NOTES.md``).  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a
traced run.  Human-readable lines come first; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Traced runs also write their spans to
``perfbench/.out/``.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(BENCH_DIR))
    import pb_core

    pb_core.pin_environment(os.environ)
    pb_core.pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    from pb_workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out = BENCH_DIR / ".out"
    out.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out))
    tempfile.tempdir = str(scratch)
    try:
        ctx = Context(ROOT, scratch, args.seed, args.seconds, bool(args.trace))
        outcome = WORKLOADS[args.workload](ctx).run()
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)

    import numpy
    import scipy
    from repro.ilp.solver import resolve_backend

    ops = outcome.ops
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"ilp backend {resolve_backend('auto')}, numpy {numpy.__version__}, scipy {scipy.__version__}")
    for line in outcome.info:
        print(line)
    for name, (value, unit) in outcome.metrics.items():
        if value:
            print(f"  {name} = {value:.6g} {unit}")
    for failure in ops.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
