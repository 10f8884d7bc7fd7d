"""Unit tests for access-set arithmetic (Eq. 3/4, Eq. 12, buffer sizing)."""

import itertools

import pytest

from repro.core.access import (
    _period_is_legal,
    access_set,
    ceil_div,
    first_line,
    minimal_slot_count,
    model_line_slots,
    required_line_slots,
    separation_requirement,
    sets_disjoint,
)
from repro.errors import AllocationError
from tests.conftest import period_is_legal_by_cycle

W = 64


class TestLineFormulas:
    def test_ceil_div(self):
        assert ceil_div(0, 4) == 0
        assert ceil_div(1, 4) == 1
        assert ceil_div(4, 4) == 1
        assert ceil_div(5, 4) == 2

    def test_first_line_matches_eq3(self):
        assert first_line(10, 10, W) == 0
        assert first_line(10 + 1, 10, W) == 1
        assert first_line(10 + W, 10, W) == 1
        assert first_line(10 + W + 1, 10, W) == 2

    def test_first_line_before_start_raises(self):
        with pytest.raises(ValueError):
            first_line(5, 10, W)

    def test_access_set_height(self):
        lines = access_set(100, 0, W, 3)
        assert len(lines) == 3
        assert lines.start == first_line(100, 0, W)


class TestSeparation:
    def test_separation_requirement_matches_eq12(self):
        assert separation_requirement(3, W) == 3 * W
        assert separation_requirement(1, 2 * W) == 2 * W

    def test_separation_implies_disjoint_sets(self):
        # Trailing stage with SH=3 behind a writer (SH=1) by exactly 3W.
        gap = separation_requirement(3, W)
        for t in range(gap, gap + 4 * W):
            assert sets_disjoint(t, gap, 3, 0, 1, W)

    def test_smaller_gap_eventually_conflicts(self):
        gap = separation_requirement(3, W) - W  # one line too close
        conflict = any(not sets_disjoint(t, gap, 3, 0, 1, W) for t in range(gap, gap + 4 * W))
        assert conflict

    def test_sets_disjoint_before_start_is_true(self):
        assert sets_disjoint(5, 10, 3, 20, 1, W)


class TestBufferSizing:
    def test_required_slots_classic_case(self):
        # Dual-port 3x3: delay (SH-1)*W + 1 -> 3 line slots (Fig. 1).
        assert required_line_slots(2 * W + 1, W) == 3

    def test_required_slots_exact_multiple(self):
        # Single-port 3x3: delay SH*W -> 4 line slots.
        assert required_line_slots(3 * W, W) == 4

    def test_required_slots_small_delays(self):
        assert required_line_slots(0, W) == 1
        assert required_line_slots(1, W) == 1
        assert required_line_slots(W - 1, W) == 1
        assert required_line_slots(W, W) == 2

    def test_required_slots_negative_rejected(self):
        with pytest.raises(ValueError):
            required_line_slots(-1, W)

    def test_model_line_slots_matches_eq2(self):
        assert model_line_slots(2 * W + 1, W) == 3
        assert model_line_slots(3 * W, W) == 3
        assert model_line_slots(0, W) == 0


class TestMinimalSlotCount:
    def test_classic_dual_port_needs_three(self):
        slots = minimal_slot_count(W, 2, [(2 * W + 1, 3)])
        assert slots == 3

    def test_single_port_needs_stencil_plus_one(self):
        slots = minimal_slot_count(W, 1, [(3 * W, 3)])
        assert slots == 4

    def test_empty_accessors(self):
        assert minimal_slot_count(W, 2, []) == 0

    def test_multi_consumer_may_need_extra_slot(self):
        # Two consumers plus the writer on a dual-port buffer: the capacity
        # bound alone can alias the writer with the slowest reader.
        delays = [(2 * W + 1, 3), (4 * W + 2, 2)]
        slots = minimal_slot_count(W, 2, delays)
        assert slots >= required_line_slots(4 * W + 2, W)
        # And the returned count must actually be contention-free.
        t0 = ((4 * W + 2) // W + 2) * W
        assert _period_is_legal(W, 2, [(0, 1)] + delays, slots, 1, t0)
        assert period_is_legal_by_cycle(W, 2, [(0, 1)] + delays, slots, 1, t0)

    def test_no_legal_count_raises_instead_of_guessing(self):
        # The case above needs one slot beyond the capacity bound; forbidding
        # any extra slot must fail loudly, not return an unchecked count.
        delays = [(2 * W + 1, 3), (4 * W + 2, 2)]
        assert minimal_slot_count(W, 2, delays) == required_line_slots(4 * W + 2, W) + 1
        with pytest.raises(AllocationError, match=r"width-64 .* 2 port\(s\)"):
            minimal_slot_count(W, 2, delays, max_extra=0)

    def test_cost_does_not_grow_with_width(self):
        # A per-cycle walk of this period would visit 10**9 cycles per candidate.
        assert minimal_slot_count(10**9, 2, [(2 * 10**9 + 1, 3)]) == 3

    def test_coalesced_grouping(self):
        slots = minimal_slot_count(W, 2, [(3 * W, 3)], coalesce_factor=2)
        assert slots >= 4

    def test_coalesced_count_is_whole_blocks_and_checked(self):
        # 5 lines are the fewest that pass the port check, but 5 is not whole
        # blocks of 2: the count allocated (6) must be the one checked.
        delays = [(2 * W + 1, 1)]
        t0 = ((2 * W + 1) // W + 2) * W
        everyone = [(0, 1)] + delays
        assert [
            period_is_legal_by_cycle(W, 1, everyone, slots, 2, t0) for slots in (3, 4, 5, 6)
        ] == [False, False, True, True]
        assert minimal_slot_count(W, 1, delays, coalesce_factor=2) == 6

    def test_whole_blocks_that_break_the_port_budget_raise(self):
        # 5 lines fit two ports (the odd fifth line is a block of its own);
        # no count of whole 2-line blocks does, so nothing legal is left.
        delays = [(176, 4)]
        t0 = (176 // 59 + 2) * 59
        assert period_is_legal_by_cycle(59, 2, [(0, 1)] + delays, 5, 2, t0)
        with pytest.raises(AllocationError, match=r"\[4, 6, 8\]"):
            minimal_slot_count(59, 2, delays, coalesce_factor=2)

    def test_buffer_smaller_than_a_block_is_one_block(self):
        assert minimal_slot_count(W, 2, [(W + 1, 1)], coalesce_factor=4) == 2


class TestSegmentCheck:
    def test_matches_cycle_walk_exhaustively_on_small_widths(self):
        # Every pair of consumer delays up to 3W: covers steps on the period's
        # first cycle, two accessors stepping on one cycle, and one-cycle
        # segments between adjacent steps.
        for width in (1, 2, 3, 5):
            for near, far in itertools.combinations(range(1, 3 * width + 1), 2):
                t0 = (far // width + 2) * width
                base = required_line_slots(far, width)
                for h1, h2, ports, factor in itertools.product((1, 3), (2, 3), (1, 2), (1, 2)):
                    accessors = [(0, 1), (near, h1), (far, h2)]
                    for slots in (base, base + 1):
                        case = (width, ports, accessors, slots, factor, t0)
                        assert _period_is_legal(*case) == period_is_legal_by_cycle(*case), case
