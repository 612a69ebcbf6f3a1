"""Executable configuration predicates and quantities.

Everything here is read-only over a :class:`Configuration`: leader distances,
the border/segment decomposition and segment IDs, perfection of the embedded
distance/ID chain, token validity and correctness, peaceful bullets, and the
nested configuration sets ``C_PB`` (every live bullet peaceful), ``C_DL``
(unique leader with fully settled dist/last) and ``S_PL`` (the safe set:
``C_DL`` plus valid correct tokens plus the segment-ID chain).

The ``C_DL``/``S_PL`` predicates rotate indices so the unique leader sits at
position 0; they are rotation-invariant by construction.

``in_S_PL`` judges a ring in one pass per field: it reads each field of the
agents, rotated to the unique leader, into a plain list and compares it with
a list it already holds.  Those lists sit in one cached entry, keyed by the
parameters and the b bits of S_0 (the starting ID x0): the b bits the full
segments carry on the +1 chain from x0, the settled dist and last values,
and for each color and each distance from the leader the set of correct
token ints plus ``None``, so one set lookup per agent decides legality,
validity, working pair and payload at once.  The parameters match by
equality, tested after identity: a check on the entry's own parameters
object makes no equality test, and a fresh object equal to it takes the
entry over without a rebuild.  Any other key rebuilds the entry; a run
checks one starting ID for its whole length, so a second entry would only
serve a re-run of the same seeds.  A token's offset is read through
``core.state.token_fields`` and a correct token built with
``core.state.token``.  ``token_is_correct`` applies the same rule
(``_correct_token``) to its one token and builds no table.  Nothing here is
built for each of the 2**psi possible IDs.  The entry depends only on the
parameters and x0, never on a configuration, so a configuration changed in
place is judged afresh.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core.params import ProtocolParams, require_count, require_index, require_member
from .core.state import (
    AgentState,
    Configuration,
    is_legal_token,
    legal_tokens,
    token,
    token_fields,
)
from .transition import _off_track


class NoBorderError(ValueError):
    """No agent has dist in {0, psi}; the ring has no segment structure."""


class NoTokenError(ValueError):
    """The addressed agent holds no token of the requested color."""


class NoLiveBulletError(ValueError):
    """The addressed agent holds no live bullet."""


class PreconditionError(ValueError):
    """A predicate was called outside its stated precondition."""


# --------------------------------------------------------------------------
# leader distances and counts
# --------------------------------------------------------------------------

def leader_count(config: Configuration) -> int:
    return sum(1 for a in config.agents if a.leader)


def nearest_leader_distances(
    config: Configuration, i: int
) -> tuple[int | float, int | float]:
    """Distances from agent i to the nearest leader leftward and rightward.

    Both are 0 at a leader and both are ``inf`` in a leaderless ring.
    """
    n = config.params.n
    require_index("i", i, n)
    agents = config.agents
    d_ll: int | float = math.inf
    d_rl: int | float = math.inf
    for j in range(n):
        if agents[(i - j) % n].leader:
            d_ll = j
            break
    for j in range(n):
        if agents[(i + j) % n].leader:
            d_rl = j
            break
    return d_ll, d_rl


# --------------------------------------------------------------------------
# segments and segment IDs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """A maximal border-to-border run: agents start..start+length-1 mod n."""

    start: int
    length: int


def segments(config: Configuration) -> list[Segment]:
    """Cyclic partition of the ring into border-to-border runs.

    A border is an agent with dist in {0, psi}.  Raises
    :class:`NoBorderError` on rings without any border (possible in
    adversarial configurations; such rings are never perfect).
    """
    psi = config.params.psi
    n = config.params.n
    borders = [
        i for i, a in enumerate(config.agents) if a.dist == 0 or a.dist == psi
    ]
    if not borders:
        raise NoBorderError("no agent has dist in {0, psi}")
    if len(borders) == 1:
        return [Segment(borders[0], n)]
    out = []
    for k, b in enumerate(borders):
        nxt = borders[(k + 1) % len(borders)]
        out.append(Segment(b, (nxt - b) % n))
    return out


def segment_id(config: Configuration, s: Segment) -> int:
    """Base-2 value of the segment's b bits, least significant at the border."""
    n = config.params.n
    agents = config.agents
    return sum(
        agents[(s.start + j) % n].b << j for j in range(s.length)
    )


def is_perfect(config: Configuration) -> bool:
    """True iff the distance chain and the segment-ID chain both hold.

    Distance chain: a leader has dist 0, any other agent has its left
    neighbor's dist plus one (mod 2*psi).  ID chain: every segment's ID is
    its predecessor's plus one (mod 2**psi) unless the segment starts at a
    leader or ends just before one.
    """
    p = config.params
    n, two_psi = p.n, p.two_psi
    agents = config.agents
    for i in range(n):
        a = agents[i]
        required = 0 if a.leader else (agents[(i - 1) % n].dist + 1) % two_psi
        if a.dist != required:
            return False
    # a passed chain has a border: a leader at dist 0, or, leaderless, every dist value
    segs = segments(config)
    modulus = 1 << p.psi
    ids = [segment_id(config, s) for s in segs]
    for k, s in enumerate(segs):
        following = (s.start + s.length) % n
        if agents[s.start].leader or agents[following].leader:
            continue
        if ids[k] != (ids[k - 1] + 1) % modulus:
            return False
    return True


# --------------------------------------------------------------------------
# token validity and correctness
# --------------------------------------------------------------------------

class TokenColor(enum.Enum):
    BLACK = "black"
    WHITE = "white"


def _token_of(agent: AgentState, which: TokenColor) -> int | None:
    require_member("which", which, TokenColor)
    return agent.token_b if which is TokenColor.BLACK else agent.token_w


def _color_d(which: TokenColor, psi: int) -> int:
    return 0 if which is TokenColor.BLACK else psi


def token_is_valid(config: Configuration, i: int, which: TokenColor) -> bool:
    """True iff the token at agent i is legal, by the rule of
    ``AgentState.validate`` (:func:`~ringleader.core.state.is_legal_token`),
    and still on its shuttle trajectory.

    Raises InvalidSizeError for a ``which`` that is not a
    :class:`TokenColor`.
    """
    require_index("i", i, config.params.n)
    agent = config.agents[i]
    t = _token_of(agent, which)
    if t is None:
        raise NoTokenError(f"agent {i} holds no {which.value} token")
    p = config.params
    return is_legal_token(t, p.psi) and not _off_track(
        agent.dist, token_fields(t)[0], _color_d(which, p.psi), p.two_psi, p.psi
    )


def token_is_correct(config: Configuration, i: int, which: TokenColor) -> bool:
    """Check a token's carry/value payload against its home segment's ID.

    Requires the configuration to be in ``C_DL`` and the token to be valid
    and working for a segment pair; anything else raises
    :class:`PreconditionError`.  Raises InvalidSizeError for a ``which``
    that is not a :class:`TokenColor`.
    """
    require_index("i", i, config.params.n)
    agent = config.agents[i]
    t = _token_of(agent, which)
    if t is None:
        raise NoTokenError(f"agent {i} holds no {which.value} token")
    if not in_C_DL(config):
        raise PreconditionError("configuration is not in C_DL")
    if not token_is_valid(config, i, which):
        raise PreconditionError("token is not valid")
    p = config.params
    layout = _layout(p)
    leader = _leader_at(config.agents)
    row = (layout.black if which is TokenColor.BLACK else layout.white)[(i - leader) % p.n]
    offset = token_fields(t)[0]
    slot = row.get(offset)
    if slot is None:
        raise PreconditionError("token is not working for any segment pair")
    seg, x = slot
    home_id = segment_id(config, Segment((leader + seg * p.psi) % p.n, p.psi))
    return t == _correct_token(home_id, x, offset)


# --------------------------------------------------------------------------
# peaceful bullets and the nested configuration sets
# --------------------------------------------------------------------------

def is_peaceful(config: Configuration, i: int) -> bool:
    """A live bullet is peaceful when its nearest left leader is shielded
    and no bullet-absence signal sits between that leader and the bullet
    (both ends included): :func:`_bullets_peaceful` on the run from that
    leader to agent ``i``.  False in a leaderless ring."""
    n = config.params.n
    require_index("i", i, n)
    agents = config.agents
    if agents[i].bullet != 2:
        raise NoLiveBulletError(f"agent {i} holds no live bullet")
    back = next((k for k in range(n) if agents[i - k].leader), None)  # i - k < 0 wraps
    if back is None:
        return False
    run = agents[i - back : i + 1] if back <= i else agents[i - back :] + agents[: i + 1]
    return _bullets_peaceful(run)


def in_C_PB(config: Configuration) -> bool:
    """At least one leader, and every live bullet is peaceful: one
    :func:`_bullets_peaceful` call per gap from a leader to the next."""
    agents = config.agents
    leaders = [i for i, a in enumerate(agents) if a.leader]
    if not leaders:
        return False
    ring = agents + agents
    ends = leaders[1:] + [leaders[0] + len(agents)]
    return all(_bullets_peaceful(ring[start:end]) for start, end in zip(leaders, ends))


class _Layout(NamedTuple):
    """The fixed shape of a ``C_DL`` ring, by distance k from its leader.

    Built once per :class:`ProtocolParams` and shared: do not modify.
    """

    dist: list[int]  # settled dist values
    last: list[int]  # settled last flags
    black: list[dict[int, tuple[int, int]]]  # token targets, see _targets
    white: list[dict[int, tuple[int, int]]]


def _targets(p: ProtocolParams, d: int) -> list[dict[int, tuple[int, int]]]:
    """Where each token of one color may work, in a ``C_DL`` ring.

    ``d`` is the color's home border (0 black, psi white).  For a token held
    ``k`` agents right of the leader, ``table[k][offset]`` is ``(seg, x)``:
    its home segment S_seg and the index x of the ID bit it carries.  The
    offset is missing when it is not a legal token's, or the token is
    invalid, anchored outside S_0 .. S_{zeta-2}, or targeting past the
    ring's end.
    """
    n, psi, two_psi = p.n, p.psi, p.two_psi
    offsets = {token_fields(t)[0] for t in legal_tokens(psi)}
    table = []
    for k in range(n):
        row: dict[int, tuple[int, int]] = {}
        rel = (k + d) % two_psi  # position within the two-segment window
        anchor = k - rel  # home border, a multiple of psi
        if 0 <= anchor <= psi * (p.zeta - 2):
            for offset in offsets:
                # an on-track token targets bit window - psi of the next
                # segment (rightward) or bit window - 1 of its own (leftward)
                window = rel + offset
                if anchor + window < n and not _off_track(k % two_psi, offset, d, two_psi, psi):
                    row[offset] = (anchor // psi, window - (psi if offset > 0 else 1))
        table.append(row)
    return table


def _settled_run(psi: int, length: int) -> tuple[list[int], list[int]]:
    """The settled dist and last values of ``length`` agents that start at
    a leader and end just left of the next leader (the same one when it is
    the only one): dist counts k mod 2*psi, and last marks the final
    segment, which starts at the last border."""
    last_from = psi * ((length - 1) // psi)
    return [k % (2 * psi) for k in range(length)], [int(k >= last_from) for k in range(length)]


@functools.lru_cache(maxsize=64)
def _layout(p: ProtocolParams) -> _Layout:
    return _Layout(*_settled_run(p.psi, p.n), _targets(p, 0), _targets(p, p.psi))


def _correct_token(sid: int, x: int, offset: int) -> int:
    """The token with ``offset`` whose payload is correct for ID bit ``x``
    of a home segment with ID ``sid``: ``value`` is bit x of sid plus one
    and ``carry`` the carry into bit x + 1."""
    # the +1 addition flips ID bits 0..j, where j is the lowest zero bit
    j = (~sid & (sid + 1)).bit_length() - 1
    return token(offset, ((sid >> x) & 1) ^ (x <= j), int(x < j))


_TokenSets = tuple[frozenset[int | None], ...]


def _leader_at(agents: list[AgentState]) -> int | None:
    """The index of the one agent whose ``leader`` is truthy, or None when
    there is no such agent or more than one."""
    leaders = [a.leader for a in agents]
    n = len(leaders)
    zeros = leaders.count(0)
    if zeros == n:
        return None
    if zeros == n - 1 and 1 in leaders:
        return leaders.index(1)
    if zeros + leaders.count(1) == n:  # several leaders
        return None
    # leader values other than 0 and 1 count by their truth
    found = [i for i, v in enumerate(leaders) if v]
    return found[0] if len(found) == 1 else None


def _bullets_peaceful(ring: list[AgentState]) -> bool:
    """The one peaceful-bullet rule, for a run of agents that starts at a
    leader and holds no other leader: every live bullet in the run is
    peaceful when the leader is shielded and no bullet-absence signal sits
    between it and the rightmost live bullet (both ends included)."""
    bullets = [a.bullet for a in ring]
    if 2 not in bullets:
        return True
    rightmost = len(bullets) - 1 - bullets[::-1].index(2)
    return ring[0].shield == 1 and not any([a.signal_b for a in ring[: rightmost + 1]])


def in_C_DL(config: Configuration) -> bool:
    """Unique leader, every live bullet peaceful, dist/last fully settled."""
    agents = config.agents
    pos = _leader_at(agents)
    if pos is None:
        return False
    ring = agents[pos:] + agents[:pos] if pos else agents
    layout = _layout(config.params)
    return (
        [a.dist for a in ring] == layout.dist
        and [a.last for a in ring] == layout.last
        and _bullets_peaceful(ring)
    )


class _Chain(NamedTuple):
    """What a ring in ``S_PL`` holds, for one set of parameters and one
    starting ID; see the module docstring.  Shared: do not modify."""

    params: ProtocolParams | None  # the key with x0_bits, matched by equality
    x0_bits: list[int]  # the b bits of S_0
    bits: list[int]  # the full segments' b bits
    dist: list[int]
    last: list[int]
    black: _TokenSets  # the correct tokens by distance from the leader
    white: _TokenSets


def _chain_bits(p: ProtocolParams, x0: int) -> list[int]:
    """The b bits of the full segments S_0 .. S_{zeta-2} on the +1 chain
    from ID ``x0``, least significant bit at each segment's border."""
    mask = (1 << p.psi) - 1
    return [((x0 + s) & mask) >> j & 1 for s in range(p.zeta - 1) for j in range(p.psi)]


def _build_chain(p: ProtocolParams, x0_bits: list[int]) -> _Chain:
    """The entry for parameters ``p`` and S_0's b bits ``x0_bits``.

    Its token set at distance k holds ``None`` and, for each offset in the
    color's :func:`_targets` row k, the one token with that offset whose
    carry and value bits are correct for its home segment's ID: a token at
    distance k is legal, valid, working and correct exactly when it is in
    the set.
    """
    mask = (1 << p.psi) - 1
    x0 = sum(bit << j for j, bit in enumerate(x0_bits)) & mask
    layout = _layout(p)

    def correct(row: dict[int, tuple[int, int]]) -> frozenset[int | None]:
        return frozenset(
            [None] + [_correct_token((x0 + seg) & mask, x, off) for off, (seg, x) in row.items()]
        )

    return _Chain(
        p, x0_bits, _chain_bits(p, x0), layout.dist, layout.last,
        tuple(map(correct, layout.black)), tuple(map(correct, layout.white)),
    )


_NO_CHAIN = _Chain(None, [], [], [], [], (), ())
# the latest entry, for equal parameters and S_0's b bits; a call reads it
# once, so another thread's rebuild cannot mix two entries in one check
_chain = _NO_CHAIN


def in_S_PL(config: Configuration) -> bool:
    """The safe set: ``C_DL``, all tokens valid and correct, and consecutive
    full segments carrying consecutive IDs.

    It reads the leader field, then the full segments' b bits, dist, last,
    both token fields and the bullets, each as one list compared with the
    cached entry for the ring's parameters and starting ID, and stops at
    the first that fails.  It judges tokens by value, in set lookups, so it
    assumes tokens as ``AgentState.validate`` admits them: a ``float``
    equal to a correct token passes here, though ``validate`` and
    :func:`token_is_valid` reject it.
    """
    global _chain
    agents = config.agents
    pos = _leader_at(agents)
    if pos is None:
        return False
    ring = agents[pos:] + agents[:pos] if pos else agents
    p = config.params
    psi = p.psi
    bits = [a.b for a in ring[: psi * (p.zeta - 1)]]
    chain = _chain
    if chain.params is not p or bits != chain.bits:
        x0_bits = bits[:psi]
        if x0_bits != chain.x0_bits or (chain.params is not p and chain.params != p):
            chain = _chain = _build_chain(p, x0_bits)
        elif chain.params is not p:  # equal parameters take the entry over
            chain = _chain = chain._replace(params=p)
        if bits != chain.bits:
            return False  # the entry is this ring's, and its ID chain is broken
    return (
        [a.dist for a in ring] == chain.dist
        and [a.last for a in ring] == chain.last
        and all(map(frozenset.__contains__, chain.black, [a.token_b for a in ring]))
        and all(map(frozenset.__contains__, chain.white, [a.token_w for a in ring]))
        and _bullets_peaceful(ring)
    )


# --------------------------------------------------------------------------
# safe-configuration constructor
# --------------------------------------------------------------------------

def construct_S_PL(params: ProtocolParams, seed: int) -> Configuration:
    """Build a configuration in the safe set, from the layout that
    :func:`in_C_DL` and :func:`in_S_PL` check.

    Leader at index 0, settled distance chain and last flags, segment IDs
    forming the +1 chain from a seed-chosen starting ID, no tokens, bullets
    or signals, all clocks zero and all agents constructing.  The final
    (unconstrained) segment gets seed-drawn bits.  Raises InvalidSizeError
    for a seed that is not an int >= 0.
    """
    require_count("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = _chain_bits(params, int(rng.integers(0, 1 << params.psi)))
    bits += rng.integers(0, 2, size=params.n - len(bits)).tolist()
    layout = _layout(params)
    agents = [AgentState(b=b, dist=d, last=l) for b, d, l in zip(bits, layout.dist, layout.last)]
    agents[0].leader = agents[0].shield = 1
    return Configuration(params, agents)


def leaderless_settled(params: ProtocolParams, seed: int) -> Configuration:
    """:func:`construct_S_PL` with its leader's ``leader`` and ``shield``
    bits cleared.

    The dist, last and b fields are the safe ring's, but no leader, signal
    or bullet is left, so the ring must detect the missing leader (a full
    clock, then a chain mismatch) before it can make one.  Without its
    leader the chain is not settled (``transition._settled`` is False):
    the final segment keeps ``last = 1``, which says it precedes a leader,
    and unless ``two_psi`` divides n, agent 0's dist 0 no longer follows
    its left neighbour's, so the first interactions there rewrite them.
    This is the start family whose convergence time shows the log n factor
    of O(n^2 log n).  Raises InvalidSizeError for a seed that is not an
    int >= 0.
    """
    config = construct_S_PL(params, seed)
    for agent in config.agents:
        if agent.leader:
            agent.leader = 0
            agent.shield = 0
    return config
