import numpy as np
import pytest

from ringleader.core.params import InvalidSizeError
from ringleader.core.scheduler import SchedulerStream


def test_determinism():
    a = SchedulerStream(16, 42)
    b = SchedulerStream(16, 42)
    assert a.draw(5000) == b.draw(5000)


def test_single_draws_match_one_block():
    a = SchedulerStream(10, 7)
    b = SchedulerStream(10, 7)
    got = []
    for _ in range(20_000):
        got += a.draw(1)
    assert got == b.draw(20_000)


def test_mixed_consumption_is_one_stream():
    a = SchedulerStream(10, 9)
    b = SchedulerStream(10, 9)
    got = a.draw(3) + a.draw(0) + a.draw(1) + a.draw(10_000) + a.draw(0)
    assert got == b.draw(10_004)


@pytest.mark.parametrize(
    "count", [-10, -1, 2.5, True, None, pytest.param(np.int64(3), id="int64")]
)
def test_draw_rejects_a_count_that_is_not_an_int_of_at_least_zero(count):
    s = SchedulerStream(10, 4)
    head = s.draw(5)
    with pytest.raises(InvalidSizeError):
        s.draw(count)
    assert head + s.draw(100) == SchedulerStream(10, 4).draw(105)  # nothing consumed


def test_range():
    s = SchedulerStream(5, 0)
    assert all(0 <= i < 5 for i in s.draw(10_000))


def test_uniformity_five_sigma():
    # 10^6 draws at n=16: every index frequency within 5 sigma of 1/16
    s = SchedulerStream(16, 123)
    counts = np.bincount(s.draw(1_000_000), minlength=16)
    p = 1 / 16
    sigma = np.sqrt(p * (1 - p) / 1_000_000)
    freqs = counts / 1_000_000
    assert np.all(np.abs(freqs - p) < 5 * sigma), freqs


def test_chi_square_sane():
    s = SchedulerStream(8, 2024)
    n_draws = 200_000
    counts = np.bincount(s.draw(n_draws), minlength=8)
    expected = n_draws / 8
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # 7 degrees of freedom: 0.999 quantile is ~24.3
    assert chi2 < 24.3, chi2


def test_rejects_tiny_ring():
    with pytest.raises(ValueError):
        SchedulerStream(1, 0)


class _CountingGenerator:
    """Wraps a numpy Generator and counts its ``integers`` calls."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("n", [3, 10, 32, 100])
def test_draw_is_served_from_chunks(n):
    s = SchedulerStream(n, 17)
    s._rng = counting = _CountingGenerator(s._rng)
    got = []
    for size in [1, n, 0, 7, 8191, 1, 8192, 8193, 0, 20_000, 3, n, 100, 1] * 3:
        got += s.draw(size)
    total = len(got)
    assert counting.calls <= total // 8192 + 1
    one_call = np.random.Generator(np.random.PCG64(17)).integers(0, n, size=total)
    assert got == one_call.tolist()
