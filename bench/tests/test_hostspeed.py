"""Conversion of wall time into reference-host time."""

import pytest

from bench import hostspeed
from bench.hostspeed import HostSpeed


@pytest.fixture
def speed(monkeypatch):
    """A HostSpeed whose kernel takes 2, 4, 6, ... ms in turn."""
    times = iter(2e-3 * k for k in range(1, 1000))
    speed = HostSpeed("serve")
    speed.samples.clear()
    monkeypatch.setattr(speed, "_kernel", lambda: next(times))
    return speed


def test_tick_scales_by_the_recent_kernel_median(speed):
    speed.settle()  # 2, 4, 6 ms
    # Scaled by the nominal kernel time over the window's median, 4 ms.
    assert speed.tick(0.001) == pytest.approx(0.001 * speed.nominal_s / 4e-3)
    assert len(speed.samples) == hostspeed.WINDOW  # too little work to resample


def test_tick_resamples_after_enough_workload_time(speed):
    speed.settle()
    small = hostspeed.SAMPLE_EVERY_S / 4
    for _ in range(3):
        speed.tick(small)
    assert len(speed.samples) == hostspeed.WINDOW
    speed.tick(small)
    assert len(speed.samples) == hostspeed.WINDOW + 1
    # The next conversion uses the window that ends with the new sample.
    assert speed.scale() == pytest.approx(speed.nominal_s / 6e-3)


def test_slowdown_is_the_median_kernel_time_over_nominal(speed):
    speed.settle()
    assert speed.slowdown() == pytest.approx(4e-3 / speed.nominal_s)
    assert speed.slowdown(since=1) == pytest.approx(5e-3 / speed.nominal_s)


@pytest.mark.parametrize("kernel", sorted(hostspeed.KERNELS))
def test_the_real_kernel_is_timed(kernel):
    speed = HostSpeed(kernel)
    speed.settle()
    assert len(speed.samples) == hostspeed.WINDOW
    assert all(s > 0 for s in speed.samples)
    assert speed.spent >= sum(speed.samples)
    assert speed.nominal_s == hostspeed.NOMINAL_S[kernel]
