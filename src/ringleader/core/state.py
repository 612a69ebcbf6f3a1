"""Agent state, tokens and ring configurations.

An agent carries thirteen variables.  ``leader`` is the output bit.  The
``b``/``dist``/``last`` trio plus the two token slots implement the segment-ID
chain; ``mode``/``clock``/``hits``/``signal_r`` implement leader-absence
detection; ``bullet``/``shield``/``signal_b`` implement leader elimination.

States are plain mutable objects so the simulation loop can update them in
place; every public operation that promises purity copies first.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .params import ProtocolParams, require_count, require_int

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
    # wrote, and the snapshot format and ``random_configuration``'s draw
    # order both include it.
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
        """Raise ValueError unless each field is an ``int`` (no ``bool``) in range."""
        psi, kmax = params.psi, params.kappa_max
        _check_bit("leader", self.leader)
        _check_bit("b", self.b)
        _check_range("dist", self.dist, 0, 2 * psi - 1)
        _check_bit("last", self.last)
        _check_token("token_b", self.token_b, psi)
        _check_token("token_w", self.token_w, psi)
        _check_range("mode", self.mode, CONSTRUCT, DETECT)
        _check_range("clock", self.clock, 0, kmax)
        _check_range("hits", self.hits, 0, psi)
        _check_range("signal_r", self.signal_r, 0, kmax)
        _check_range("bullet", self.bullet, 0, 2)
        _check_bit("shield", self.shield)
        _check_bit("signal_b", self.signal_b)


def _check_bit(name: str, value: int) -> None:
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"{name}: {value!r} is not a bit")


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if type(value) is not int or not lo <= value <= hi:
        raise ValueError(f"{name}: {value!r} out of range [{lo}, {hi}]")


def is_legal_token(t: object, psi: int) -> bool:
    """True iff ``t`` is an ``int`` in :func:`legal_tokens`: as in every
    field, a bool or float is no int."""
    return type(t) is int and t in legal_tokens(psi)


def _check_token(name: str, t: int | None, psi: int) -> None:
    if t is not None and not is_legal_token(t, psi):
        raise ValueError(f"{name}: {t!r} is not a legal token for psi={psi}")


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
    return {
        "leader": a.leader,
        "b": a.b,
        "dist": a.dist,
        "last": a.last,
        "token_b": None if a.token_b is None else list(token_fields(a.token_b)),
        "token_w": None if a.token_w is None else list(token_fields(a.token_w)),
        "mode": MODE_NAMES[a.mode],
        "clock": a.clock,
        "hits": a.hits,
        "signal_r": a.signal_r,
        "bullet": a.bullet,
        "shield": a.shield,
        "signal_b": a.signal_b,
    }


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
    """Draw every field of every agent uniformly from its declared range.

    This is the adversary: the draw includes inconsistent combinations
    (no leader, many leaders, stray tokens and signals, clocks out of step
    with modes).  Deterministic in ``seed``; raises InvalidSizeError for a
    seed that is not an int >= 0.
    """
    require_count("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    n, psi, kmax = params.n, params.psi, params.kappa_max
    tokens = (None, *legal_tokens(psi))
    # one exclusive bound per field, in AgentState's field order
    highs = [2, 2, 2 * psi, 2, len(tokens), len(tokens), 2,
             kmax + 1, psi + 1, kmax + 1, 3, 2, 2]

    # one draw for the whole ring, agent by agent and field by field
    agents = []
    for row in rng.integers(0, highs * n).reshape(n, len(highs)).tolist():
        row[4:6] = tokens[row[4]], tokens[row[5]]
        agents.append(AgentState(*row))
    return Configuration(params, agents)
