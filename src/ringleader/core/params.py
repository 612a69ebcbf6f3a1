"""Protocol sizing parameters.

All sizing derives from two numbers: the ring size ``n`` and the knowledge
parameter ``psi`` (an upper bound on ``log2 n`` known to every agent).
Everything else -- the distance modulus ``2*psi``, the clock ceiling
``kappa_max`` and the segment count ``zeta`` -- is computed here and nowhere
else.
"""
from __future__ import annotations

from dataclasses import dataclass


class InvalidSizeError(ValueError):
    """Raised for ring or parameter sizes the protocol does not support."""


KAPPA_FACTOR = 32  # minimum clock ceiling is 32*psi


def require_int(name: str, value: object) -> None:
    """Raise InvalidSizeError unless ``value`` is an ``int`` (``bool`` is not)."""
    if type(value) is not int:
        raise InvalidSizeError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True, slots=True)
class ProtocolParams:
    """Sizing truth for one ring: agent count and derived quantities.

    Invariants enforced at construction:

    * ``psi >= 2``
    * ``2**psi >= n`` (segment IDs must be able to count all segments)
    * ``kappa_max >= 32 * psi``
    * ``zeta == ceil(n / psi)``
    """

    n: int
    psi: int
    kappa_max: int
    zeta: int

    def __post_init__(self) -> None:
        for name in ("n", "psi", "kappa_max", "zeta"):
            require_int(name, getattr(self, name))
        if self.n < 2:
            raise InvalidSizeError(f"ring size must be >= 2, got {self.n}")
        if self.psi < 2:
            raise InvalidSizeError(f"psi must be >= 2, got {self.psi}")
        if 2**self.psi < self.n:
            raise InvalidSizeError(
                f"psi={self.psi} too small for n={self.n}: need 2**psi >= n"
            )
        if self.kappa_max < KAPPA_FACTOR * self.psi:
            raise InvalidSizeError(
                f"kappa_max={self.kappa_max} below minimum {KAPPA_FACTOR * self.psi}"
            )
        if self.zeta != -(-self.n // self.psi):
            raise InvalidSizeError(
                f"zeta={self.zeta} inconsistent, expected ceil(n/psi)"
            )

    @property
    def two_psi(self) -> int:
        return 2 * self.psi


def make_params(n: int, kappa_max: int | None = None) -> ProtocolParams:
    """Build parameters for a ring of ``n`` agents.

    ``psi`` is the smallest legal value, ``max(2, ceil(log2 n))``, computed in
    integers as ``(n - 1).bit_length()`` so that it stays exact for any n.
    ``kappa_max`` defaults to ``32*psi`` and may only be raised, not lowered.
    """
    require_int("n", n)
    if n < 2:
        raise InvalidSizeError(f"ring size must be >= 2, got {n}")
    psi = max(2, (n - 1).bit_length())
    floor_kappa = KAPPA_FACTOR * psi
    if kappa_max is None:
        kappa_max = floor_kappa
    else:
        require_int("kappa_max", kappa_max)
        if kappa_max < floor_kappa:
            raise InvalidSizeError(
                f"kappa_max={kappa_max} below minimum {floor_kappa} for n={n}"
            )
    zeta = -(-n // psi)
    return ProtocolParams(n=n, psi=psi, kappa_max=kappa_max, zeta=zeta)
