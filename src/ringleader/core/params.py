"""Protocol sizing parameters and the checks on outside values.

All sizing derives from two numbers: the ring size ``n`` and the knowledge
parameter ``psi`` (an upper bound on ``log2 n`` known to every agent).
Everything else -- the distance modulus ``2*psi``, the clock ceiling
``kappa_max`` and the segment count ``zeta`` -- is computed here and nowhere
else.

The ``require_*`` helpers are the one place where a size, count, seed,
agent index, multiplier, drawable clock ceiling or enum choice coming from
outside the library is checked; every public entry point calls them before
it does any work.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from numbers import Real


class InvalidSizeError(ValueError):
    """Raised for an outside value the library does not accept: a ring or
    parameter size, a count, a seed, an agent index, a multiplier or an enum
    choice."""


KAPPA_FACTOR = 32  # minimum clock ceiling is 32*psi


def require_int(name: str, value: object) -> None:
    """Raise InvalidSizeError unless ``value`` is an ``int`` (``bool`` is not)."""
    if type(value) is not int:
        raise InvalidSizeError(f"{name} must be an int, got {value!r}")


def require_count(name: str, value: object, least: int) -> None:
    """Raise InvalidSizeError unless ``value`` is an ``int`` >= ``least``.

    Seeds are counts with ``least=0``: the values ``SeedSequence`` and
    ``PCG64`` take.
    """
    require_int(name, value)
    if value < least:
        raise InvalidSizeError(f"{name} must be >= {least}, got {value}")


def require_index(name: str, value: object, n: int) -> None:
    """Raise InvalidSizeError unless ``value`` is an ``int`` in ``[0, n)``:
    no negative index wraps round the ring."""
    require_int(name, value)
    if not 0 <= value < n:
        raise InvalidSizeError(f"{name} must be in [0, {n}), got {value}")


def require_sizes(protocol: str, n_values: tuple[int, ...], least: int) -> None:
    """Raise InvalidSizeError unless ``n_values`` is a non-empty sequence of
    ints >= ``least``."""
    if not n_values:
        raise InvalidSizeError("need at least one ring size")
    for n in n_values:
        require_count(f"{protocol} ring size", n, least)


def require_member(name: str, value: object, kind: type[enum.Enum]) -> None:
    """Raise InvalidSizeError unless ``value`` is a member of the enum ``kind``
    (its value, such as the string ``"upper"``, is not)."""
    if not isinstance(value, kind):
        raise InvalidSizeError(f"{name} must be a {kind.__name__}, got {value!r}")


def require_multiplier(name: str, value: object) -> None:
    """Raise InvalidSizeError unless ``value`` is a finite real number > 0."""
    if isinstance(value, bool) or not isinstance(value, Real) or not (
        math.isfinite(value) and value > 0
    ):
        raise InvalidSizeError(f"{name} must be a finite number > 0, got {value!r}")


def require_drawable(params: ProtocolParams) -> None:
    """Raise InvalidSizeError unless one int64 draw covers every field's
    values: the clock and ``signal_r`` each take ``kappa_max + 1`` values,
    and numpy's bounded draws stop at ``2**63 - 1``.  Only a random start
    needs this; rings built field by field take any ``kappa_max``."""
    if params.kappa_max > 2**63 - 2:
        raise InvalidSizeError(
            f"kappa_max must be <= {2**63 - 2} for a random draw, got {params.kappa_max}"
        )


@dataclass(frozen=True, slots=True)
class ProtocolParams:
    """Sizing truth for one ring: agent count and derived quantities.

    Invariants enforced at construction:

    * ``psi >= 2``
    * ``2**psi >= n`` (segment IDs must be able to count all segments)
    * ``kappa_max >= 32 * psi``
    """

    n: int
    psi: int
    kappa_max: int

    def __post_init__(self) -> None:
        require_count("n", self.n, 2)
        require_count("psi", self.psi, 2)
        require_int("kappa_max", self.kappa_max)
        if 2**self.psi < self.n:
            raise InvalidSizeError(
                f"psi={self.psi} too small for n={self.n}: need 2**psi >= n"
            )
        if self.kappa_max < KAPPA_FACTOR * self.psi:
            raise InvalidSizeError(
                f"kappa_max={self.kappa_max} below minimum {KAPPA_FACTOR * self.psi}"
            )

    @property
    def two_psi(self) -> int:
        return 2 * self.psi

    @property
    def zeta(self) -> int:
        """Segment count ``ceil(n / psi)``."""
        return -(-self.n // self.psi)


def make_params(n: int, kappa_max: int | None = None) -> ProtocolParams:
    """Build parameters for a ring of ``n`` agents.

    ``psi`` is the smallest legal value, ``max(2, ceil(log2 n))``, computed in
    integers as ``(n - 1).bit_length()`` so that it stays exact for any n.
    ``kappa_max`` defaults to ``32*psi`` and may only be raised, not lowered.
    """
    require_count("n", n, 2)
    psi = max(2, (n - 1).bit_length())
    if kappa_max is None:
        kappa_max = KAPPA_FACTOR * psi
    return ProtocolParams(n=n, psi=psi, kappa_max=kappa_max)
