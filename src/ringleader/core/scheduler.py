"""Seeded uniformly random interaction scheduler.

Each step one arc ``(u_i, u_{i+1 mod n})`` is chosen uniformly; the stream
yields the initiator index ``i``.  The generator is numpy's PCG64, so a seed
fully determines the interaction sequence on any platform.
"""
from __future__ import annotations

import numpy as np

from .params import require_count

_CHUNK = 8192


class SchedulerStream:
    """Deterministic stream of interaction indices, uniform over [0, n).

    Raises InvalidSizeError unless ``n`` >= 2 and ``seed`` >= 0 are ints."""

    def __init__(self, n: int, seed: int):
        require_count("n", n, 2)
        require_count("seed", seed, 0)
        self.n = n
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._buf: list[int] = []
        self._pos = 0

    def draw(self, count: int) -> list[int]:
        """Consume and return the next ``count`` indices.

        Served from a buffer refilled ``_CHUNK`` indices at a time.  The
        stream does not depend on how it is cut into draws or chunks: PCG64
        keeps the unused half of a 64-bit output in the bit generator between
        ``integers`` calls.  Raises InvalidSizeError, and consumes nothing,
        unless ``count`` is an int >= 0.
        """
        require_count("count", count, 0)
        out = self._buf[self._pos : self._pos + count]
        self._pos += len(out)
        while len(out) < count:
            self._buf = self._rng.integers(0, self.n, size=_CHUNK).tolist()
            self._pos = min(_CHUNK, count - len(out))
            out.extend(self._buf[: self._pos])
        return out
