"""Layer-subset schedules: which blocks (and which exit) to tune each
iteration.

Each schedule yields a :class:`TuningWindow` — blocks ``[start, stop)``
receive gradients, everything below runs forward-only, and the exit head
at depth ``stop`` provides the loss.  The window size bounds activation
memory; the schedule determines coverage of the depth dimension.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np


@dataclasses.dataclass(frozen=True)
class TuningWindow:
    """One iteration's gradient scope."""

    start: int  # first block with gradients
    stop: int   # one past the last block; also the exit depth
    exit_point: int

    @property
    def depth(self) -> int:
        return self.stop - self.start


class LayerSchedule:
    """Base: maps iteration number to a TuningWindow."""

    def __init__(self, exit_points: Sequence[int], window: int):
        points = sorted(set(int(p) for p in exit_points))
        if not points:
            raise ValueError("need at least one exit point")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.exit_points: List[int] = points
        self.window = window

    def _window_for_exit(self, exit_point: int) -> TuningWindow:
        start = max(exit_point - self.window, 0)
        return TuningWindow(start=start, stop=exit_point, exit_point=exit_point)

    def select(self, iteration: int, rng: np.random.Generator) -> TuningWindow:
        raise NotImplementedError


class RoundRobinSchedule(LayerSchedule):
    """Cycle deterministically through the exit points (the default)."""

    def select(self, iteration: int, rng: np.random.Generator) -> TuningWindow:
        point = self.exit_points[iteration % len(self.exit_points)]
        return self._window_for_exit(point)


class RandomExitSchedule(LayerSchedule):
    """Sample the exit uniformly each iteration."""

    def select(self, iteration: int, rng: np.random.Generator) -> TuningWindow:
        point = self.exit_points[int(rng.integers(len(self.exit_points)))]
        return self._window_for_exit(point)


class ImportanceSchedule(LayerSchedule):
    """Sample exits proportionally to their recent loss (adaptive focus).

    Exits that currently perform worst get tuned more often.  Losses are
    tracked with an EMA updated via :meth:`update`.
    """

    def __init__(
        self,
        exit_points: Sequence[int],
        window: int,
        ema: float = 0.9,
        temperature: float = 1.0,
    ):
        super().__init__(exit_points, window)
        if not 0.0 <= ema < 1.0:
            raise ValueError("ema must be in [0, 1)")
        self.ema = ema
        self.temperature = temperature
        self._losses = {p: None for p in self.exit_points}

    def update(self, exit_point: int, loss: float) -> None:
        prev = self._losses[exit_point]
        self._losses[exit_point] = (
            loss if prev is None else self.ema * prev + (1 - self.ema) * loss
        )

    def _probabilities(self) -> np.ndarray:
        raw = np.array(
            [
                self._losses[p] if self._losses[p] is not None else np.inf
                for p in self.exit_points
            ]
        )
        if np.isinf(raw).any():
            # Unvisited exits get priority until every exit has a loss.
            probs = np.where(np.isinf(raw), 1.0, 0.0)
            return probs / probs.sum()
        logits = raw / max(self.temperature, 1e-6)
        logits -= logits.max()
        exp = np.exp(logits)
        return exp / exp.sum()

    def select(self, iteration: int, rng: np.random.Generator) -> TuningWindow:
        probs = self._probabilities()
        point = self.exit_points[int(rng.choice(len(self.exit_points), p=probs))]
        return self._window_for_exit(point)


class FixedShallowSchedule(LayerSchedule):
    """Always tune the same shallow window (the naive depth-truncation
    baseline the voting scheme is compared against)."""

    def select(self, iteration: int, rng: np.random.Generator) -> TuningWindow:
        return self._window_for_exit(self.exit_points[0])


class FullDepthSchedule(LayerSchedule):
    """Vanilla tuning: every block in the gradient path, final exit."""

    def __init__(self, num_layers: int):
        super().__init__([num_layers], window=num_layers)

    def select(self, iteration: int, rng: np.random.Generator) -> TuningWindow:
        point = self.exit_points[0]
        return TuningWindow(start=0, stop=point, exit_point=point)


def make_schedule(
    name: str,
    exit_points: Sequence[int],
    window: int,
    num_layers: Optional[int] = None,
    **kwargs,
) -> LayerSchedule:
    """Build a schedule by name (round_robin | random | importance |
    fixed_shallow | full).

    With ``num_layers`` given, every exit point must lie in
    ``[1, num_layers]``; a deeper one would only fail once the schedule
    first selected it, mid-run.
    """
    if num_layers is not None:
        bad = sorted({int(p) for p in exit_points if not 1 <= p <= num_layers})
        if bad:
            raise ValueError(
                f"exit points {bad} lie outside the model's [1, {num_layers}]"
            )
    if name == "round_robin":
        return RoundRobinSchedule(exit_points, window)
    if name == "random":
        return RandomExitSchedule(exit_points, window)
    if name == "importance":
        return ImportanceSchedule(exit_points, window, **kwargs)
    if name == "fixed_shallow":
        return FixedShallowSchedule(exit_points, window)
    if name == "full":
        if num_layers is None:
            raise ValueError("full schedule needs num_layers")
        return FullDepthSchedule(num_layers)
    raise ValueError(f"unknown schedule {name!r}")
