"""Access-set arithmetic (paper Sec. 5.3, Eq. 3-4).

The scheduler's contention constraints and the cycle-level simulator's
legality checks both reason about *which lines of a line buffer a stage
touches at a given cycle*.  This module centralises that arithmetic so the
optimizer and the verifier cannot drift apart.

Conventions
-----------
* A stage ``i`` with start cycle ``S_i`` is *active* at cycles
  ``S_i <= t < S_i + W*H``.
* At cycle ``t`` the first line accessed is ``L_i(t) = ceil((t - S_i) / W)``
  (Eq. 3) and the access set is ``{L_i(t), ..., L_i(t) + SH_i - 1}`` (Eq. 4),
  where ``SH_i`` is 1 for the stage writing the buffer.
* Under line coalescing with factor ``F``, the same formulas apply at block
  granularity with ``W -> F*W`` and ``SH -> ceil(SH / F)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import AllocationError


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division for non-negative denominators."""
    return -(-numerator // denominator)


def first_line(t: int, start_cycle: int, width: int) -> int:
    """Eq. 3: the first (lowest-indexed) line a stage touches at cycle ``t``."""
    if t < start_cycle:
        raise ValueError(f"Stage is not active at cycle {t} (starts at {start_cycle})")
    return ceil_div(t - start_cycle, width)


def access_set(t: int, start_cycle: int, width: int, stencil_height: int) -> range:
    """Eq. 4: the set of line indices a stage accesses at cycle ``t``."""
    start = first_line(t, start_cycle, width)
    return range(start, start + stencil_height)


@dataclass(frozen=True)
class Accessor:
    """One stage accessing a particular line buffer.

    ``stencil_height`` is expressed in *row units* of that buffer: image lines
    normally, blocks of ``coalesce_factor`` lines when coalescing is applied.
    ``is_writer`` marks the producer (its stencil height is always 1).
    """

    stage: str
    stencil_height: int
    is_writer: bool = False


def separation_requirement(trailing_height: int, row_cycles: int) -> int:
    """Minimum start-cycle gap for two accessors' access sets to stay disjoint.

    If stage ``i`` (reading ``trailing_height`` row units) trails stage ``j``,
    then ``S_i - S_j >= row_cycles * trailing_height`` guarantees
    ``max(A_i,t) < min(A_j,t)`` for every cycle ``t`` (Eq. 9 -> Eq. 12, with
    the trailing stage's stencil height; see DESIGN.md for the index note).
    """
    return row_cycles * trailing_height


def sets_disjoint(
    t: int,
    trailing_start: int,
    trailing_height: int,
    leading_start: int,
    leading_height: int,
    width: int,
) -> bool:
    """Direct (set-based) disjointness check used in tests against Eq. 12."""
    if t < max(trailing_start, leading_start):
        return True
    trailing = access_set(t, trailing_start, width, trailing_height)
    leading = access_set(t, leading_start, width, leading_height)
    return trailing.stop <= leading.start or leading.stop <= trailing.start


def required_line_slots(max_delay: int, width: int) -> int:
    """Physical line slots needed for a producer whose slowest consumer lags ``max_delay``.

    Equation (2) of the paper sizes the buffer as ``ceil(delay / W)`` lines.
    Physically the buffer must simultaneously hold every line from the oldest
    one still needed by a consumer up to the line being written, which is
    ``floor(delay / W) + 1`` lines; the two coincide except when the delay is
    an exact multiple of ``W`` (see DESIGN.md).  We allocate the physical
    count and report the model count separately.
    """
    if max_delay < 0:
        raise ValueError("Delay cannot be negative")
    if max_delay == 0:
        return 1
    return max_delay // width + 1


def model_line_slots(max_delay: int, width: int) -> int:
    """Eq. 2 exactly: ``ceil(delay / W)`` lines (the paper's reported size)."""
    if max_delay <= 0:
        return 0
    return math.ceil(max_delay / width)


def frame_buffer_pixels(depth: int, image_width: int, image_height: int) -> int:
    """Pixels a producer's frame buffer must retain for ``depth`` past frames.

    Temporal consumers read the producer at frame offsets down to ``-depth``;
    the temporal reuse distance of such a read is ``depth`` *whole frames*, so
    unlike line buffers (which hold ``O(delay / W)`` lines) the frame buffer
    must hold ``depth x H x W`` pixels.  The size is independent of start
    cycles — frame history is carried across frame boundaries, not across the
    raster scan — which is why frame buffers sit outside the ILP and are added
    to the SRAM total as a constant.
    """
    if depth < 0:
        raise ValueError(f"Frame-buffer depth cannot be negative, got {depth}")
    if image_width < 1 or image_height < 1:
        raise ValueError(f"Image extent must be positive, got {image_width}x{image_height}")
    return depth * image_width * image_height


def minimal_slot_count(
    width: int,
    ports: int,
    accessors: list[tuple[int, int]],
    *,
    coalesce_factor: int = 1,
    max_extra: int = 4,
) -> int:
    """Smallest number of line slots that keeps every block within its port budget.

    ``accessors`` is a list of ``(delay, stencil_height)`` pairs relative to the
    buffer's writer (the writer itself is ``(0, 1)`` and is added
    automatically).  Starting from the capacity bound
    ``floor(max_delay / W) + 1`` (the lines that must coexist), the function
    checks one steady-state period of ``W`` cycles: logical lines wrap onto
    ``B`` physical slots (grouped ``coalesce_factor`` per block), and no block
    may collect more accesses in a cycle than it has ports.  Within the period
    each accessor's row steps exactly once, so the per-block counts are
    piecewise constant over at most ``len(accessors) + 1`` access segments and
    one cycle per segment decides the period, whatever ``W`` is.  Slot-count
    aliasing between the writer's newest line and a slow consumer's oldest
    line occasionally needs one extra slot; the search tries up to
    ``max_extra`` lines more, each count rounded up to whole blocks so the
    line-to-block grouping stays stable as the buffer wraps (a buffer
    smaller than one block is a single block), and raises
    :class:`AllocationError` if none fits (which would indicate a scheduling
    bug).  The count returned is the one checked.
    """
    if not accessors:
        return 0
    max_delay = max(delay for delay, _ in accessors)
    base = required_line_slots(max_delay, width)
    all_accessors = [(0, 1)] + list(accessors)
    factor = max(1, coalesce_factor)

    # Steady state starts once every accessor is active; one period of W cycles
    # covers every relative column phase.
    t0 = (max_delay // width + 2) * width
    candidates = sorted({s + -s % min(factor, s) for s in range(base, base + max_extra + 1)})
    for slots in candidates:
        if _period_is_legal(width, ports, all_accessors, slots, factor, t0):
            return slots
    raise AllocationError(
        f"No slot count in {candidates} keeps a width-{width} buffer "
        f"within {ports} port(s) per block for accessors {accessors}"
    )


def _period_is_legal(
    width: int,
    ports: int,
    accessors: list[tuple[int, int]],
    slots: int,
    factor: int,
    t0: int,
) -> bool:
    # Accessor (delay, height) reads rows from (t - delay) // width, which
    # changes only at cycles t = delay (mod width); one probe cycle per access
    # segment of [t0, t0 + width) sees every distinct set of block counts.
    for t in {t0} | {t0 + (delay - t0) % width for delay, _ in accessors}:
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
