"""Property-based tests for access-set arithmetic and buffer sizing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.access import (
    _period_is_legal,
    access_set,
    minimal_slot_count,
    required_line_slots,
    separation_requirement,
    sets_disjoint,
)
from repro.errors import AllocationError
from tests.conftest import period_is_legal_by_cycle

widths = st.integers(8, 256)
heights = st.integers(1, 8)


class TestSeparationProperties:
    @settings(max_examples=200, deadline=None)
    @given(widths, heights, st.integers(0, 3000), st.integers(0, 4 * 256))
    def test_separation_gap_guarantees_disjoint_sets(self, width, height, t_offset, extra):
        """Eq. 12: a gap of SH*W (or more) keeps the trailing stage's lines
        strictly behind the leading stage's lines at every cycle."""
        gap = separation_requirement(height, width) + extra
        leading_start = 0
        trailing_start = gap
        t = trailing_start + t_offset
        assert sets_disjoint(t, trailing_start, height, leading_start, 1, width)

    @settings(max_examples=200, deadline=None)
    @given(widths, st.integers(2, 8))
    def test_gap_one_line_short_eventually_conflicts(self, width, height):
        gap = separation_requirement(height, width) - width
        conflict = any(
            not sets_disjoint(t, gap, height, 0, 1, width) for t in range(gap, gap + 3 * width)
        )
        assert conflict

    @settings(max_examples=200, deadline=None)
    @given(widths, heights, st.integers(0, 5000), st.integers(0, 5000))
    def test_access_set_size_is_stencil_height(self, width, height, start, offset):
        lines = access_set(start + offset, start, width, height)
        assert len(lines) == height
        assert lines.start >= 0


class TestSizingProperties:
    @settings(max_examples=200, deadline=None)
    @given(widths, st.integers(0, 5000), st.integers(0, 500))
    def test_required_slots_monotonic_in_delay(self, width, delay, extra):
        assert required_line_slots(delay + extra, width) >= required_line_slots(delay, width)

    @settings(max_examples=200, deadline=None)
    @given(widths, st.integers(1, 5000))
    def test_required_slots_cover_the_delay(self, width, delay):
        slots = required_line_slots(delay, width)
        assert slots * width >= delay
        assert (slots - 1) * width <= delay

    @settings(max_examples=100, deadline=None)
    @given(widths, st.integers(1, 2), st.integers(1, 6))
    def test_minimal_slot_count_at_least_capacity(self, width, ports, height):
        delay = separation_requirement(height, width)
        slots = minimal_slot_count(width, ports, [(delay, height)])
        assert slots >= required_line_slots(delay, width)
        assert slots <= required_line_slots(delay, width) + 4


@st.composite
def slot_problems(draw):
    """A line buffer's access pattern: width, ports, accessors, factor, slots.

    Widths 1 and 2 and delays that are exact multiples of the width are
    drawn on purpose: there several accessors step on the same cycle, or on
    the period's first cycle.
    """
    width = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 200)))
    ports = draw(st.integers(1, 4))
    accessors = []
    for _ in range(draw(st.integers(1, 6))):
        rows = draw(st.integers(0, 8))
        phase = draw(st.one_of(st.just(0), st.integers(0, width - 1)))
        accessors.append((max(1, rows * width + phase), draw(st.integers(1, 7))))
    factor = draw(st.integers(1, 4))
    base = required_line_slots(max(delay for delay, _ in accessors), width)
    slots = base + draw(st.integers(0, 5))
    return width, ports, accessors, factor, slots


class TestSegmentCheckMatchesCycleWalk:
    @settings(max_examples=600, deadline=None)
    @given(slot_problems())
    def test_period_verdict_equals_reference(self, problem):
        width, ports, accessors, factor, slots = problem
        max_delay = max(delay for delay, _ in accessors)
        t0 = (max_delay // width + 2) * width
        everyone = [(0, 1)] + accessors
        assert _period_is_legal(width, ports, everyone, slots, factor, t0) == (
            period_is_legal_by_cycle(width, ports, everyone, slots, factor, t0)
        )

    @settings(max_examples=150, deadline=None)
    @given(slot_problems())
    def test_slot_count_equals_reference_search(self, problem):
        width, ports, accessors, factor, _ = problem
        max_delay = max(delay for delay, _ in accessors)
        base = required_line_slots(max_delay, width)
        t0 = (max_delay // width + 2) * width
        everyone = [(0, 1)] + accessors
        # Each count rounded up to whole blocks of `factor` lines, as allocated.
        rounded = sorted({s + -s % min(factor, s) for s in range(base, base + 5)})
        expected = next(
            (
                slots
                for slots in rounded
                if period_is_legal_by_cycle(width, ports, everyone, slots, factor, t0)
            ),
            None,
        )
        if expected is None:
            with pytest.raises(AllocationError):
                minimal_slot_count(width, ports, accessors, coalesce_factor=factor)
        else:
            assert minimal_slot_count(width, ports, accessors, coalesce_factor=factor) == expected
