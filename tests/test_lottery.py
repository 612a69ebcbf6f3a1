import numpy as np
import pytest

from ringleader.lottery import (
    SAMPLING_SLACK,
    Bound,
    LotteryOutcome,
    _count_rounds,
    bound_probability,
    estimate_bound,
    play_lottery,
)


def brute_force_rounds(heads, k):
    """Literal flip-by-flip replay of the game rules."""
    played = won = streak = 0
    for h in heads:
        if h:
            streak += 1
            if streak == k:
                played += 1
                won += 1
                streak = 0
        else:
            played += 1
            streak = 0
    return played, won


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_counting_matches_brute_force(k):
    rng = np.random.Generator(np.random.PCG64(k))
    for _ in range(40):
        heads = rng.integers(0, 2, size=int(rng.integers(0, 400)))
        assert _count_rounds(heads, k) == brute_force_rounds(heads, k)


def test_zero_flips():
    out = play_lottery(3, 0, 1)
    assert (out.rounds_played, out.rounds_won) == (0, 0)


def test_deterministic_in_seed():
    assert play_lottery(4, 10_000, 7) == play_lottery(4, 10_000, 7)
    assert play_lottery(4, 10_000, 7) != play_lottery(4, 10_000, 8)


def test_k1_win_rate_is_half():
    out = play_lottery(1, 100_000, 3)
    assert out.rounds_played == 100_000  # every flip ends a round at k=1
    assert abs(out.rounds_won / out.rounds_played - 0.5) < 0.01


def test_k4_round_win_rate():
    out = play_lottery(4, 300_000, 5)
    rate = out.rounds_won / out.rounds_played
    assert abs(rate - 2**-4) < 0.005


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_win_rate_within_three_sigma(k):
    out = play_lottery(k, 300_000, 11 + k)
    assert out.rounds_played >= 100_000
    p = 2.0**-k
    sigma = (p * (1 - p) / out.rounds_played) ** 0.5
    assert abs(out.rounds_won / out.rounds_played - p) < 3 * sigma


def test_unfinished_round_not_counted():
    # all-heads prefixes: only completed k-streaks count
    assert _count_rounds(np.ones(7, dtype=int), 3) == (2, 2)
    assert _count_rounds(np.ones(2, dtype=int), 3) == (0, 0)


def test_wins_monotone_in_budget():
    rng = np.random.Generator(np.random.PCG64(21))
    heads = rng.integers(0, 2, size=5000)
    prev = 0
    for m in range(0, 5001, 50):
        _, won = _count_rounds(heads[:m], 3)
        assert won >= prev
        prev = won


def test_outcome_invariant_enforced():
    with pytest.raises(ValueError):
        LotteryOutcome(flips=5, rounds_played=6, rounds_won=0)
    with pytest.raises(ValueError):
        LotteryOutcome(flips=5, rounds_played=2, rounds_won=3)


def test_bad_args_rejected():
    with pytest.raises(ValueError):
        play_lottery(0, 10, 1)
    with pytest.raises(ValueError):
        play_lottery(2, -1, 1)
    with pytest.raises(ValueError):
        estimate_bound(1, 1, Bound.LOWER, 10, 0)


def test_upper_bound_quick():
    rate = estimate_bound(4, 1, Bound.UPPER, 2000, 1)
    assert rate <= bound_probability(4, 1) + SAMPLING_SLACK


def test_lower_bound_quick():
    rate = estimate_bound(4, 1, Bound.LOWER, 2000, 2)
    assert rate <= bound_probability(4, 1) + SAMPLING_SLACK


def test_alternate_parameters_quick():
    rate = estimate_bound(2, 2, Bound.UPPER, 2000, 3)
    assert rate <= bound_probability(2, 2) + SAMPLING_SLACK
