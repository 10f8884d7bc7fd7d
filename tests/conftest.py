"""Shared fixtures for the test suite.

Tests use deliberately small image sizes (width 32-64) so cycle-level
simulation stays fast; the scheduling math is width-generic, so nothing is
lost relative to 320p/1080p other than absolute KB numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsl import ast
from repro.dsl.builder import PipelineBuilder, window_sum
from repro.ir.dag import PipelineDAG
from repro.memory.spec import asic_dual_port, asic_fifo, asic_single_port

TEST_WIDTH = 64
TEST_HEIGHT = 48


@pytest.fixture
def image_size() -> tuple[int, int]:
    return TEST_WIDTH, TEST_HEIGHT


@pytest.fixture
def dual_port_spec():
    return asic_dual_port()

@pytest.fixture
def single_port_spec():
    return asic_single_port()


@pytest.fixture
def fifo_spec():
    return asic_fifo()


def build_chain(num_stages: int = 3, stencil: int = 3, name: str = "chain") -> PipelineDAG:
    """A single-consumer chain: K0 -> K1 -> ... with `stencil`x`stencil` windows."""
    builder = PipelineBuilder(name)
    handle = builder.input("K0")
    for index in range(1, num_stages):
        handle = builder.stage(f"K{index}", window_sum(handle, stencil, stencil))
    builder.dag.stage(handle.name).is_output = True
    return builder.dag.validated()


def build_paper_example() -> PipelineDAG:
    """The 3-stage example of the paper's Sec. 4 listing.

    K1 reads a 3x3 window of K0; K2 reads a 2x2 window of K0 and a 3x3 window
    of K1 (so K0 is a multi-consumer stage).
    """
    builder = PipelineBuilder("paper-example")
    k0 = builder.input("K0")
    k1 = builder.stage("K1", window_sum(k0, 3, 3))
    k2_expr = (
        k0(0, 0)
        + k0(1, 0)
        + k0(0, 1)
        + k0(1, 1)
        + window_sum(k1, 3, 3)
    )
    builder.output("K2", k2_expr)
    return builder.build()


def build_two_consumer(stencil_a: int = 3, stencil_b: int = 3) -> PipelineDAG:
    """A producer read by two independent consumers merged at the output."""
    builder = PipelineBuilder("two-consumer")
    k0 = builder.input("K0")
    a = builder.stage("A", window_sum(k0, stencil_a, stencil_a))
    b = builder.stage("B", window_sum(k0, stencil_b, stencil_b))
    builder.output("OUT", a(0, 0) + b(0, 0))
    return builder.build()


def period_is_legal_by_cycle(
    width: int,
    ports: int,
    accessors: list[tuple[int, int]],
    slots: int,
    factor: int,
    t0: int,
) -> bool:
    """Reference port-contention check: walk every cycle of ``[t0, t0 + width)``.

    The test oracle for :func:`repro.core.access._period_is_legal`, which
    probes one cycle per access segment instead.  Same arguments, same
    verdict; its cost grows with ``width``.
    """
    for t in range(t0, t0 + width):
        block_accesses: dict[int, int] = {}
        for delay, height in accessors:
            n = t - delay
            if n < 0:
                continue
            row = n // width
            for k in range(height):
                block = ((row + k) % slots) // factor
                block_accesses[block] = block_accesses.get(block, 0) + 1
        if any(count > ports for count in block_accesses.values()):
            return False
    return True


@pytest.fixture
def chain_dag() -> PipelineDAG:
    return build_chain()


@pytest.fixture
def paper_example_dag() -> PipelineDAG:
    return build_paper_example()


@pytest.fixture
def two_consumer_dag() -> PipelineDAG:
    return build_two_consumer()


@pytest.fixture
def small_image() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.integers(0, 256, size=(TEST_HEIGHT, TEST_WIDTH)).astype(np.float64)
