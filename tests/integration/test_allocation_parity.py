"""Allocation parity pin: the segment contention check allocates byte-identically.

Every catalog algorithm is compiled at 480x320 and 1080p, with and without
line coalescing.  Its line buffers are then re-derived with
:func:`realize_line_buffers`, once as shipped and once with the per-cycle
reference walk swapped in for the contention check.  The payloads must be
equal, so design SRAM, wire bytes and cache entries cannot move.
"""

from __future__ import annotations

import pytest

from repro.algorithms import algorithm_names, build_algorithm
from repro.api.target import CompileTarget
from repro.core import access
from repro.core.compiler import compile_pipeline
from repro.core.scheduler import realize_line_buffers
from tests.conftest import period_is_legal_by_cycle


def _payloads(schedule) -> dict[str, dict]:
    line_buffers = realize_line_buffers(
        schedule.dag,
        schedule.image_width,
        schedule.memory_spec,
        schedule.start_cycles,
        schedule.coalesce_factors,
        schedule.solver_stats["ports"],
    )
    return {name: config.to_payload() for name, config in line_buffers.items()}


@pytest.mark.parametrize("coalescing", [False, True], ids=["imagen", "imagen+lc"])
@pytest.mark.parametrize("size", [(480, 320), (1920, 1080)], ids=["480x320", "1080p"])
@pytest.mark.parametrize("name", algorithm_names())
def test_line_buffers_match_reference_walk(name, size, coalescing, monkeypatch):
    width, height = size
    target = CompileTarget(build_algorithm(name), image_width=width, image_height=height)
    schedule = compile_pipeline(target.with_options(coalescing=coalescing)).schedule
    assert schedule.generator == ("imagen+lc" if coalescing else "imagen")

    shipped = _payloads(schedule)
    assert shipped == {p: c.to_payload() for p, c in schedule.line_buffers.items()}
    monkeypatch.setattr(access, "_period_is_legal", period_is_legal_by_cycle)
    assert _payloads(schedule) == shipped
