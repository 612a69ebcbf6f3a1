"""The consecutive-heads lottery game.

One round of the game ends at the first tail (a loss) or at the k-th
consecutive head (a win).  The clock/TTL machinery of the ring protocol
paces itself with exactly this game -- an agent's hit counter filling up is
a win -- so the empirical win statistics double as a cross-check of that
machinery's timing assumptions.
"""
from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np

from .core.params import require_count, require_member


# Added to ``bound_probability`` when an empirical failure rate from a few
# thousand trials is held against it, to absorb the sampling error.
SAMPLING_SLACK = 0.03


class Bound(enum.Enum):
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class LotteryOutcome:
    flips: int
    rounds_played: int
    rounds_won: int

    def __post_init__(self) -> None:
        if not 0 <= self.rounds_won <= self.rounds_played <= self.flips:
            raise ValueError("need rounds_won <= rounds_played <= flips")


def _count_rounds(heads: np.ndarray, k: int) -> tuple[int, int]:
    """(rounds played, rounds won) over a 0/1 flip array; 1 is a head.

    Within a maximal head run of length m, every k-th head completes a
    winning round, so the run contributes ``m // k`` wins; each tail
    completes one losing round.  A round still open at the end of the
    array counts neither way.
    """
    flips = heads.size
    tails = np.flatnonzero(heads == 0)
    if tails.size == 0:
        won = flips // k
        return won, won
    run_lengths = np.diff(tails, prepend=-1) - 1  # head run before each tail
    final_run = flips - int(tails[-1]) - 1
    won = int(np.sum(run_lengths // k)) + final_run // k
    played = int(tails.size) + won
    return played, won


def play_lottery(k: int, flips: int, seed: int) -> LotteryOutcome:
    """Play with a budget of ``flips`` fair coin flips, deterministic in seed.

    Raises InvalidSizeError for ``k`` < 1, ``flips`` < 0 or a negative
    ``seed``, or any of them not an int.
    """
    require_count("k", k, 1)
    require_count("flips", flips, 0)
    require_count("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    heads = rng.integers(0, 2, size=flips)
    played, won = _count_rounds(heads, k)
    return LotteryOutcome(flips=flips, rounds_played=played, rounds_won=won)


def estimate_bound(
    k: int, c: int, which: Bound, trials: int, seed: int
) -> float:
    """Empirical probability of violating the stated win-count event.

    UPPER: with a budget of ``4*c*k*2**k`` flips, the event is
    ``wins <= 8*c*k``; a violation is ``wins > 8*c*k``.
    LOWER: with a budget of ``64*c*k*2**k`` flips, the event is
    ``wins >= 16*c*k``; a violation is ``wins < 16*c*k``.
    Either violation has probability at most ``2**(-c*k)``.  Raises
    InvalidSizeError for a ``which`` that is not a :class:`Bound`, for ``k``
    < 1 (< 2 for LOWER), ``c`` < 1, ``trials`` < 1 or a negative ``seed``, or
    any of them not an int.
    """
    require_member("which", which, Bound)
    require_count("k", k, 2 if which is Bound.LOWER else 1)  # LOWER needs k >= 2
    require_count("c", c, 1)
    require_count("trials", trials, 1)
    require_count("seed", seed, 0)
    seeds = np.random.SeedSequence(seed).generate_state(trials)
    if which is Bound.UPPER:
        flips, threshold, violated = 4 * c * k * (1 << k), 8 * c * k, operator.gt
    else:
        flips, threshold, violated = 64 * c * k * (1 << k), 16 * c * k, operator.lt
    failures = sum(
        violated(play_lottery(k, flips, int(s)).rounds_won, threshold) for s in seeds
    )
    return failures / trials


def bound_probability(k: int, c: int) -> float:
    """The stated ceiling on either violation probability, ``2**(-c*k)``."""
    return 2.0 ** (-c * k)
