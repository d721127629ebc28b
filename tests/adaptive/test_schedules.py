"""Tests for layer-subset tuning schedules."""

import numpy as np
import pytest

from repro.adaptive import (
    FixedShallowSchedule,
    FullDepthSchedule,
    ImportanceSchedule,
    RandomExitSchedule,
    RoundRobinSchedule,
    make_schedule,
)

EXITS = [2, 4, 6]
RNG = np.random.default_rng(0)


class TestWindows:
    def test_window_geometry(self):
        sched = RoundRobinSchedule(EXITS, window=2)
        w = sched.select(0, RNG)
        assert w.exit_point == 2
        assert w.stop == 2
        assert w.start == 0
        assert w.depth == 2

    def test_window_clamped_at_bottom(self):
        sched = RoundRobinSchedule([1], window=4)
        w = sched.select(0, RNG)
        assert w.start == 0 and w.depth == 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            RoundRobinSchedule([], window=2)
        with pytest.raises(ValueError):
            RoundRobinSchedule(EXITS, window=0)


class TestRoundRobin:
    def test_cycles_through_exits(self):
        sched = RoundRobinSchedule(EXITS, window=2)
        picks = [sched.select(i, RNG).exit_point for i in range(6)]
        assert picks == [2, 4, 6, 2, 4, 6]


class TestRandomExit:
    def test_covers_all_exits(self):
        sched = RandomExitSchedule(EXITS, window=2)
        rng = np.random.default_rng(1)
        picks = {sched.select(i, rng).exit_point for i in range(60)}
        assert picks == set(EXITS)

    def test_reproducible_with_seeded_rng(self):
        sched = RandomExitSchedule(EXITS, window=2)
        a = [sched.select(i, np.random.default_rng(5)).exit_point for i in range(5)]
        b = [sched.select(i, np.random.default_rng(5)).exit_point for i in range(5)]
        assert a == b


class TestImportance:
    def test_unvisited_exits_prioritized(self):
        sched = ImportanceSchedule(EXITS, window=2)
        sched.update(2, 1.0)
        rng = np.random.default_rng(0)
        picks = {sched.select(i, rng).exit_point for i in range(30)}
        assert 2 not in picks  # only unvisited exits until all seen

    def test_high_loss_exit_sampled_more(self):
        sched = ImportanceSchedule(EXITS, window=2, temperature=0.1)
        sched.update(2, 5.0)
        sched.update(4, 1.0)
        sched.update(6, 1.0)
        rng = np.random.default_rng(0)
        picks = [sched.select(i, rng).exit_point for i in range(100)]
        assert picks.count(2) > 60

    def test_ema_smoothing(self):
        sched = ImportanceSchedule(EXITS, window=2, ema=0.5)
        sched.update(2, 4.0)
        sched.update(2, 0.0)
        assert sched._losses[2] == pytest.approx(2.0)

    def test_invalid_ema(self):
        with pytest.raises(ValueError):
            ImportanceSchedule(EXITS, window=2, ema=1.0)


class TestFixedAndFull:
    def test_fixed_shallow_constant(self):
        sched = FixedShallowSchedule(EXITS, window=2)
        picks = {sched.select(i, RNG).exit_point for i in range(5)}
        assert picks == {2}

    def test_full_depth_covers_everything(self):
        sched = FullDepthSchedule(num_layers=6)
        w = sched.select(0, RNG)
        assert w.start == 0 and w.stop == 6 and w.depth == 6


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("round_robin", RoundRobinSchedule),
            ("random", RandomExitSchedule),
            ("importance", ImportanceSchedule),
            ("fixed_shallow", FixedShallowSchedule),
        ],
    )
    def test_make_schedule(self, name, cls):
        assert isinstance(make_schedule(name, EXITS, 2), cls)

    def test_full_needs_num_layers(self):
        with pytest.raises(ValueError):
            make_schedule("full", EXITS, 2)
        assert isinstance(make_schedule("full", EXITS, 2, num_layers=6),
                          FullDepthSchedule)

    def test_window_wider_than_the_model_raises(self):
        with pytest.raises(ValueError, match="window 7"):
            make_schedule("round_robin", EXITS, 7, num_layers=6)
        assert make_schedule("round_robin", EXITS, 6, num_layers=6).window == 6

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            make_schedule("bogus", EXITS, 2)
