"""The layer timers of the traced run and the per-layer metrics they yield.

Each timer wraps one public entry point at the attribute its caller looks
up (``module`` or ``module:Class``), so the program itself is unchanged.
``MEDIAN_UNIT`` names the per-call median of each layer: ``<layer>_ms`` or
``<layer>_us``.  Besides the median every layer reports ``<layer>.calls``
and ``<layer>.busy_ms`` (total self time: span time minus the benchmark's
child timers inside it).
"""

from __future__ import annotations

from pb_core import LayerTimer, quantile


def _solve_counts(result) -> dict:
    return {"ilp.lp_iterations": result.iterations or 0, "ilp.solves": 1}


def _fetch_counts(result) -> dict:
    return {"cache.fetch_hits": int(result[0] is not None)}


def _neighbor_counts(result) -> dict:
    return {"cache.neighbor_hits": int(result is not None)}


def _warm_counts(result) -> dict:
    return {"warmstart.hinted": 1, "warmstart.certified": int(result[1] is not None)}


TIMERS = (
    LayerTimer("dsl.parse", "repro.dsl.parser", "parse_pipeline"),
    LayerTimer("api.fingerprint", "repro.api.fingerprint", "compile_fingerprint"),
    LayerTimer("wire.decode", "repro.service.wire", "target_from_wire"),
    LayerTimer("wire.encode", "repro.service.wire", "target_to_wire"),
    LayerTimer("wire.encode", "repro.service.wire", "result_to_wire"),
    LayerTimer("wire.encode", "repro.service.http", "target_to_wire"),
    LayerTimer("cache.fetch", "repro.service.cache:CompileCache", "fetch", _fetch_counts),
    LayerTimer("cache.neighbor", "repro.service.cache:CompileCache", "fetch_neighbor", _neighbor_counts),
    LayerTimer("cache.put", "repro.service.cache:CompileCache", "put"),
    LayerTimer("cache.disk_write", "repro.service.cache:DiskCacheStore", "save"),
    LayerTimer("engine.submit", "repro.service.engine:CompileEngine", "submit"),
    LayerTimer("scheduler.schedule", "repro.core.compiler", "schedule_pipeline"),
    LayerTimer(
        "constraints.prologue", "repro.core.scheduler", "_constraint_prologue",
        lambda prologue: {"constraints.disjunctions": len(prologue.disjunctions)},
    ),
    LayerTimer("warmstart.transfer", "repro.core.scheduler", "_attempt_warm_start", _warm_counts),
    LayerTimer("ilp.build", "repro.core.scheduler", "_build_big_m"),
    LayerTimer("ilp.solve", "repro.core.scheduler", "solve", _solve_counts),
    LayerTimer("ilp.solve", "repro.ilp.compound", "solve", _solve_counts),
    LayerTimer("ilp.compound", "repro.core.scheduler", "solve_compound"),
    LayerTimer("dse.compound", "repro.core.scheduler", "schedule_compound"),
    LayerTimer(
        "memory.allocate", "repro.core.scheduler", "realize_line_buffers",
        lambda buffers: {"memory.buffers": len(buffers)},
    ),
    LayerTimer(
        "memory.allocate", "repro.service.cache", "realize_line_buffers",
        lambda buffers: {"memory.buffers": len(buffers)},
    ),
    LayerTimer("estimate.report", "repro.estimate.report", "accelerator_report"),
    LayerTimer("estimate.report", "repro.dse.sweep", "accelerator_report"),
    LayerTimer("estimate.report", "repro.service.wire", "accelerator_report"),
    LayerTimer(
        "rtl.generate", "repro.rtl.generator", "generate_verilog",
        lambda source: {"rtl.verilog_lines": source.count("\n") + 1},
    ),
    LayerTimer("rtlsim.elaborate", "repro.rtl.sim", "elaborate_design"),
    LayerTimer("rtlsim.simulate", "repro.rtl.sim", "simulate_design"),
    LayerTimer("rtlsim.measure", "repro.rtl.sim", "measure_performance"),
    LayerTimer("replay.golden", "repro.service.verify", "golden_frames"),
    LayerTimer("replay.replay", "repro.service.verify", "replay_frames"),
    LayerTimer("legality.check", "repro.service.verify", "check_schedule_legality"),
    LayerTimer("verify.body", "repro.service.verify:VerifyEngine", "_execute"),
)

#: Per-call median unit of each layer (microseconds for the sub-millisecond
#: request-path layers).
MEDIAN_UNIT = {
    layer: ("us" if layer in {
        "api.fingerprint", "wire.decode", "wire.encode", "cache.fetch",
        "cache.neighbor", "cache.put", "engine.submit",
    } else "ms")
    for layer in dict.fromkeys(timer.layer for timer in TIMERS)
}

#: Counters and ratios derived from the timers' return values (or, on
#: http-serve, from the server).
DERIVED = {
    "cache.hit_ratio": "ratio",
    "cache.neighbor_hit_ratio": "ratio",
    "constraints.disjunctions": "count",
    "ilp.lp_iterations": "count",
    "ilp.solves": "count",
    "warmstart.certified_ratio": "ratio",
    "memory.buffers": "count",
    "rtl.verilog_lines": "count",
    "verify.verdict_hit_ratio": "ratio",
    "http.server_ms": "ms",
    "http.transport_ms": "ms",
}

#: The traced run's own figures.
TRACE_METRICS = {
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.attribution": "ratio",
    "trace.attribution_low": "count",
}

#: Workload-specific end-to-end figures under their own names, measured in
#: the untraced half of the traced run (zero on other workloads).
WORKLOAD_METRICS = {
    "compile_per_s": "1/s",
    "compile_p50_ms": "ms",
    "compile_p90_ms": "ms",
    "verify_per_s": "1/s",
    "verify_p50_ms": "ms",
    "verify_p90_ms": "ms",
    "http_warm_p50_ms": "ms",
    "http_warm_p90_ms": "ms",
    "http_fresh_p50_ms": "ms",
    "http_cold_p50_ms": "ms",
    "http_rps": "1/s",
    "sweep_points_per_s": "1/s",
}

#: Workloads whose layer timers must cover at least this share of the
#: operations' wall time.
ATTRIBUTION_FLOOR = 0.9
ATTRIBUTED_WORKLOADS = ("compile-cold", "verify-mix", "dse-sweep")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in reporting order."""
    units = {}
    for layer, unit in MEDIAN_UNIT.items():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_ms"] = "ms"
        units[f"{layer}_{unit}"] = unit
    units.update(DERIVED)
    units.update(TRACE_METRICS)
    units.update(WORKLOAD_METRICS)
    return units


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer values from one traced run (layers never called read 0)."""
    summary = tracer.layer_summary()
    counters = tracer.counters
    values: dict[str, float] = {}
    for layer, unit in MEDIAN_UNIT.items():
        selves = summary.get(layer, [])
        scale = 1e6 if unit == "us" else 1e3
        values[f"{layer}.calls"] = len(selves)
        values[f"{layer}.busy_ms"] = sum(selves) * 1e3
        values[f"{layer}_{unit}"] = quantile(selves, 0.5) * scale if selves else 0.0
    values["cache.hit_ratio"] = _ratio(counters.get("cache.fetch_hits", 0), len(summary.get("cache.fetch", [])))
    values["cache.neighbor_hit_ratio"] = _ratio(
        counters.get("cache.neighbor_hits", 0), len(summary.get("cache.neighbor", []))
    )
    values["warmstart.certified_ratio"] = _ratio(
        counters.get("warmstart.certified", 0), counters.get("warmstart.hinted", 0)
    )
    for name in ("constraints.disjunctions", "ilp.lp_iterations", "ilp.solves", "memory.buffers", "rtl.verilog_lines"):
        values[name] = counters.get(name, 0)
    return values


def attribution(tracer) -> float:
    """Share of the operations' wall time that layer timers cover."""
    summary = tracer.layer_summary()
    wall = tracer.op_wall()
    return _ratio(wall - sum(summary.get("op", [])), wall)
