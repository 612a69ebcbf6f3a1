"""Agent state, tokens and ring configurations.

An agent carries thirteen variables.  ``leader`` is the output bit.  The
``b``/``dist``/``last`` trio plus the two token slots implement the segment-ID
chain; ``mode``/``clock``/``hits``/``signal_r`` implement leader-absence
detection; ``bullet``/``shield``/``signal_b`` implement leader elimination.
:func:`field_values` is the one statement of the values each field may hold:
``validate`` checks against it, ``random_configuration`` draws from it, and
the state space ``Q`` is its product.

States are plain mutable objects so the simulation loop can update them in
place; every public operation that promises purity copies first.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .params import ProtocolParams, require_count, require_drawable, require_int

# mode values; an agent is in detection mode exactly when its clock is full,
# except transiently in adversarial initial states (repaired on first contact)
CONSTRUCT = 0
DETECT = 1

MODE_NAMES = {CONSTRUCT: "Construct", DETECT: "Detect"}
MODE_VALUES = {v: k for k, v in MODE_NAMES.items()}


def token(offset: int, value_bit: int, carry_bit: int) -> int:
    """A segment-ID relay token: ``4*offset + 2*value_bit + carry_bit``.

    ``offset`` is the signed relative index of the agent the token is moving
    toward (positive = rightward).  ``value_bit`` is the ID bit being carried
    to the target; ``carry_bit`` is the running carry of the +1 addition.
    Raises ValueError unless ``offset`` is an ``int`` and both bits are the
    ``int`` 0 or 1, so no triple packs into another's token.  The legal
    tokens for a given psi are :func:`legal_tokens`.
    """
    _check_bit("value_bit", value_bit)
    _check_bit("carry_bit", carry_bit)
    if type(offset) is not int:
        raise ValueError(f"offset: {offset!r} is not an int")
    return 4 * offset + 2 * value_bit + carry_bit


def token_fields(t: int) -> tuple[int, int, int]:
    """The ``(offset, value_bit, carry_bit)`` that :func:`token` packed."""
    return t >> 2, (t >> 1) & 1, t & 1


@functools.cache
def legal_tokens(psi: int) -> tuple[int, ...]:
    """Every legal token for ``psi``, each once: offsets ``1-psi .. -1`` then
    ``1 .. psi``, each with (value, carry) 00, 01, 10, 11.

    The one list of legal tokens: validation, the random draw, the
    transition and the safe-set predicate all take it from here.
    """
    return tuple(
        token(offset, payload >> 1, payload & 1)
        for offset in (*range(1 - psi, 0), *range(1, psi + 1))
        for payload in range(4)
    )


@functools.lru_cache(maxsize=64)
def field_values(params: ProtocolParams) -> tuple[tuple[str, range | tuple], ...]:
    """Every :class:`AgentState` field, in field order, with the values it
    may hold: a ``range`` from 0 for an int field, so each value is its own
    index, and ``None`` plus :func:`legal_tokens` for a token slot.

    The one statement of the state space: ``validate`` checks against it,
    ``random_configuration`` draws from it, and the number of agent states
    is the product of its lengths.  Cached per parameters.
    """
    psi, kmax = params.psi, params.kappa_max
    bit, tokens = range(2), (None, *legal_tokens(psi))
    return (
        ("leader", bit), ("b", bit), ("dist", range(2 * psi)), ("last", bit),
        ("token_b", tokens), ("token_w", tokens), ("mode", range(CONSTRUCT, DETECT + 1)),
        ("clock", range(kmax + 1)), ("hits", range(psi + 1)), ("signal_r", range(kmax + 1)),
        ("bullet", range(3)), ("shield", bit), ("signal_b", bit),
    )


@dataclass(slots=True)
class AgentState:
    """One agent's full variable block.

    Mutable and compared by value, so not hashable."""

    leader: int = 0
    b: int = 0
    dist: int = 0
    last: int = 0
    token_b: int | None = None
    token_w: int | None = None
    # ``mode`` is a function of ``clock`` once an interaction has written
    # it, but it stays a stored field: the reference blocks that
    # ``interact_traced`` runs after mode determination read the mode it
    # wrote, and the snapshot format and :func:`field_values` both include
    # it.
    mode: int = CONSTRUCT
    clock: int = 0
    hits: int = 0
    signal_r: int = 0
    bullet: int = 0
    shield: int = 0
    signal_b: int = 0

    def copy(self) -> "AgentState":
        new = AgentState.__new__(AgentState)
        new.leader = self.leader
        new.b = self.b
        new.dist = self.dist
        new.last = self.last
        new.token_b = self.token_b
        new.token_w = self.token_w
        new.mode = self.mode
        new.clock = self.clock
        new.hits = self.hits
        new.signal_r = self.signal_r
        new.bullet = self.bullet
        new.shield = self.shield
        new.signal_b = self.signal_b
        return new

    def validate(self, params: ProtocolParams) -> None:
        """Raise ValueError, naming the field, unless each field holds one of
        its :func:`field_values`: an ``int`` (no ``bool``), or a ``None`` token."""
        for name, values in field_values(params):
            value = getattr(self, name)
            # the type test comes first: ``x in range`` scans for a non-int x
            if type(value) is int and value in values:
                continue
            if isinstance(values, range):
                raise ValueError(f"{name}: {value!r} out of range [0, {values.stop - 1}]")
            if value is not None:
                raise ValueError(f"{name}: {value!r} is not a legal token for psi={params.psi}")


def _check_bit(name: str, value: int) -> None:
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"{name}: {value!r} is not a bit")


def is_legal_token(t: object, psi: int) -> bool:
    """True iff ``t`` is an ``int`` in :func:`legal_tokens`: as in every
    field, a bool or float is no int."""
    return type(t) is int and t in legal_tokens(psi)


class Configuration:
    """The ring: a cyclic sequence of agent states plus its parameters.

    Index ``i``'s left neighbor is ``i-1 mod n`` and right neighbor
    ``i+1 mod n``; interactions run left-to-right (clockwise).
    """

    __slots__ = ("params", "agents")

    def __init__(self, params: ProtocolParams, agents: Iterable[AgentState]):
        self.params = params
        self.agents = list(agents)
        if len(self.agents) != params.n:
            raise ValueError(
                f"expected {params.n} agents, got {len(self.agents)}"
            )

    def copy(self) -> "Configuration":
        clone = Configuration.__new__(Configuration)
        clone.params = self.params
        clone.agents = [a.copy() for a in self.agents]
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.params == other.params and self.agents == other.agents

    def __len__(self) -> int:
        return self.params.n

    def validate(self) -> None:
        for i, agent in enumerate(self.agents):
            try:
                agent.validate(self.params)
            except ValueError as exc:
                raise ValueError(f"agents[{i}].{exc}") from None

    # --- snapshot format: plain dicts, JSON-ready ------------------------

    def to_snapshot(self) -> dict:
        return {
            "n": self.params.n,
            "psi": self.params.psi,
            "kappa_max": self.params.kappa_max,
            "agents": [_agent_to_dict(a) for a in self.agents],
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "Configuration":
        if not isinstance(data, dict):
            raise ValueError(f"snapshot must be a JSON object, got {type(data).__name__}")
        _require_keys("snapshot", data, ("n", "psi", "kappa_max", "agents"))
        n = data["n"]
        params = ProtocolParams(n=n, psi=data["psi"], kappa_max=data["kappa_max"])
        raw_agents = data["agents"]
        if not isinstance(raw_agents, list) or len(raw_agents) != n:
            raise ValueError(f"agents: expected a list of {n} entries")
        agents = []
        for i, entry in enumerate(raw_agents):
            try:
                agents.append(_agent_from_dict(entry))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"agents[{i}]: {exc}") from None
        config = cls(params, agents)
        config.validate()
        return config


def _agent_to_dict(a: AgentState) -> dict:
    """Every field in field order; a token as ``[offset, value, carry]`` or
    None, the mode by its name, any other field as its int."""
    entry = {f: getattr(a, f) for f in AgentState.__slots__}
    for name in ("token_b", "token_w"):
        if entry[name] is not None:
            entry[name] = list(token_fields(entry[name]))
    entry["mode"] = MODE_NAMES[a.mode]
    return entry


_INT_FIELDS = tuple(
    f for f in AgentState.__slots__ if f not in ("token_b", "token_w", "mode")
)


def _require_keys(what: str, data: dict, keys: tuple[str, ...]) -> None:
    """Raise ValueError unless ``data`` has exactly the keys ``keys``."""
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} missing field {key!r}")
    for key in data:
        if key not in keys:
            raise ValueError(f"{what} has unknown field {key!r}")


def _agent_from_dict(entry: dict) -> AgentState:
    if not isinstance(entry, dict):
        raise ValueError("agent entry is not an object")
    _require_keys("agent", entry, AgentState.__slots__)
    mode = entry["mode"]
    if mode not in MODE_VALUES:
        raise ValueError(f"mode: unknown value {mode!r}")

    def read_token(name: str) -> int | None:
        raw = entry[name]
        if raw is None:
            return None
        if not isinstance(raw, (list, tuple)) or len(raw) != 3:
            raise ValueError(f"{name}: expected null or [offset, value, carry]")
        for k, value in enumerate(raw):
            require_int(f"{name}[{k}]", value)
        try:
            return token(*raw)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None

    # no coercion: 1.7, "3" and true are errors, not 1, 3 and 1
    for f in _INT_FIELDS:
        require_int(f, entry[f])
    return AgentState(
        token_b=read_token("token_b"),
        token_w=read_token("token_w"),
        mode=MODE_VALUES[mode],
        **{f: entry[f] for f in _INT_FIELDS},
    )


def random_configuration(params: ProtocolParams, seed: int) -> Configuration:
    """Draw every field of every agent uniformly from its :func:`field_values`.

    This is the adversary: the draw includes inconsistent combinations
    (no leader, many leaders, stray tokens and signals, clocks out of step
    with modes).  Deterministic in ``seed``; raises InvalidSizeError, before
    any draw, for a seed that is not an int >= 0 and for a ``kappa_max``
    above ``2**63 - 2`` (see ``require_drawable``).
    """
    require_count("seed", seed, 0)
    require_drawable(params)
    rng = np.random.Generator(np.random.PCG64(seed))
    table = field_values(params)
    # one draw for the whole ring, agent by agent and field by field, read
    # back column by column; an int field's index is its value
    draw = rng.integers(0, [len(values) for _, values in table] * params.n)
    columns = draw.reshape(params.n, len(table)).T.tolist()
    for k, (_, values) in enumerate(table):
        if isinstance(values, tuple):
            columns[k] = list(map(values.__getitem__, columns[k]))
    return Configuration(params, map(AgentState, *columns))
