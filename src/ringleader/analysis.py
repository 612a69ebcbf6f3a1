"""Executable configuration predicates and quantities.

Everything here is read-only over a :class:`Configuration`: leader distances,
the border/segment decomposition and segment IDs, perfection of the embedded
distance/ID chain, token validity and correctness, peaceful bullets, and the
nested configuration sets ``C_PB`` (every live bullet peaceful), ``C_DL``
(unique leader with fully settled dist/last) and ``S_PL`` (the safe set:
``C_DL`` plus valid correct tokens plus the segment-ID chain).

The ``C_DL``/``S_PL`` predicates rotate indices so the unique leader sits at
position 0; they are rotation-invariant by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core.params import ProtocolParams
from .core.state import CONSTRUCT, AgentState, Configuration, Token
from .transition import TokenColor, _off_track


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
    return sum(a.leader for a in config.agents)


def nearest_leader_distances(
    config: Configuration, i: int
) -> tuple[int | float, int | float]:
    """Distances from agent i to the nearest leader leftward and rightward.

    Both are 0 at a leader and both are ``inf`` in a leaderless ring.
    """
    n = config.params.n
    if not 0 <= i < n:
        raise ValueError(f"index {i} out of range [0, {n})")
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
    try:
        segs = segments(config)
    except NoBorderError:
        return False
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

def _token_of(agent: AgentState, which: TokenColor) -> Token | None:
    return agent.token_b if which is TokenColor.BLACK else agent.token_w


def _color_d(which: TokenColor, psi: int) -> int:
    return 0 if which is TokenColor.BLACK else psi


def token_is_valid(config: Configuration, i: int, which: TokenColor) -> bool:
    """True iff the token at agent i is still on its shuttle trajectory."""
    agent = config.agents[i]
    token = _token_of(agent, which)
    if token is None:
        raise NoTokenError(f"agent {i} holds no {which.value} token")
    p = config.params
    return not _off_track(
        agent.dist, token.offset, _color_d(which, p.psi), p.two_psi, p.psi
    )


def _token_correct_rel(
    config: Configuration, leader_pos: int, k_abs: int, which: TokenColor
) -> bool:
    """Validity + working-pair + correctness for one token, leader at rel 0.

    Returns False for tokens that are invalid, anchored outside the segment
    range, or targeting past the ring's end; otherwise evaluates the carry
    and value bits against the home segment's ID.
    """
    p = config.params
    n, psi, two_psi = p.n, p.psi, p.two_psi
    agents = config.agents
    agent = agents[k_abs]
    token = _token_of(agent, which)
    d = _color_d(which, psi)
    offset = token.offset

    k_rel = (k_abs - leader_pos) % n
    rel = (agent.dist + d) % two_psi  # position within the two-segment window
    anchor = k_rel - rel  # home border, relative to the leader
    if anchor < 0 or anchor % psi != 0:
        return False
    seg_index = anchor // psi
    if seg_index > p.zeta - 2:
        return False

    window = rel + offset  # target position within the window, unwrapped
    if offset > 0:
        if not psi <= window <= two_psi - 1:
            return False  # off its trajectory
        x = window - psi
    else:
        if not 1 <= window <= psi - 1:
            return False
        x = window - 1
    if anchor + window >= n:
        return False  # target past the ring's end: not working for any pair

    base = leader_pos + anchor
    j = psi
    for jj in range(psi):
        if agents[(base + jj) % n].b == 0:
            j = jj
            break
    carry_expected = 1 if x < j else 0
    if token.carry_bit != carry_expected:
        return False
    b_x = agents[(base + x) % n].b
    value_expected = b_x ^ (1 if x <= j else 0)
    return token.value_bit == value_expected


def token_is_correct(config: Configuration, i: int, which: TokenColor) -> bool:
    """Check a token's carry/value payload against its home segment's ID.

    Requires the configuration to be in ``C_DL`` and the token to be valid
    and working for a segment pair; anything else raises
    :class:`PreconditionError`.
    """
    agent = config.agents[i]
    token = _token_of(agent, which)
    if token is None:
        raise NoTokenError(f"agent {i} holds no {which.value} token")
    if not in_C_DL(config):
        raise PreconditionError("configuration is not in C_DL")
    if not token_is_valid(config, i, which):
        raise PreconditionError("token is not valid")
    leader_pos = next(k for k, a in enumerate(config.agents) if a.leader)
    p = config.params
    k_rel = (i - leader_pos) % p.n
    rel = (agent.dist + _color_d(which, p.psi)) % p.two_psi
    anchor = k_rel - rel
    if anchor < 0 or anchor % p.psi != 0 or anchor // p.psi > p.zeta - 2:
        raise PreconditionError("token is not working for any segment pair")
    if anchor + rel + token.offset >= p.n:
        raise PreconditionError("token is not working for any segment pair")
    return _token_correct_rel(config, leader_pos, i, which)


# --------------------------------------------------------------------------
# peaceful bullets and the nested configuration sets
# --------------------------------------------------------------------------

def is_peaceful(config: Configuration, i: int) -> bool:
    """A live bullet is peaceful when its nearest left leader is shielded
    and no bullet-absence signal sits between that leader and the bullet."""
    agents = config.agents
    if agents[i].bullet != 2:
        raise NoLiveBulletError(f"agent {i} holds no live bullet")
    n = config.params.n
    for j in range(n):
        a = agents[(i - j) % n]
        if a.signal_b:
            return False
        if a.leader:
            return a.shield == 1
    return False  # no leader anywhere


def in_C_PB(config: Configuration) -> bool:
    """At least one leader, and every live bullet is peaceful."""
    if leader_count(config) == 0:
        return False
    for i, a in enumerate(config.agents):
        if a.bullet == 2 and not is_peaceful(config, i):
            return False
    return True


def _unique_leader(config: Configuration) -> int | None:
    pos = None
    for i, a in enumerate(config.agents):
        if a.leader:
            if pos is not None:
                return None
            pos = i
    return pos


def _dist_last_settled(config: Configuration, leader_pos: int) -> bool:
    p = config.params
    n, two_psi = p.n, p.two_psi
    last_from = p.psi * (p.zeta - 1)
    agents = config.agents
    for i in range(n):
        a = agents[(leader_pos + i) % n]
        if a.dist != i % two_psi:
            return False
        if a.last != (1 if i >= last_from else 0):
            return False
    return True


def in_C_DL(config: Configuration) -> bool:
    """Unique leader, every live bullet peaceful, dist/last fully settled."""
    leader_pos = _unique_leader(config)
    if leader_pos is None:
        return False
    if not _dist_last_settled(config, leader_pos):
        return False
    return in_C_PB(config)


def in_S_PL(config: Configuration) -> bool:
    """The safe set: ``C_DL``, all tokens valid and correct, and consecutive
    full segments carrying consecutive IDs."""
    leader_pos = _unique_leader(config)
    if leader_pos is None:
        return False
    if not _dist_last_settled(config, leader_pos):
        return False
    p = config.params
    agents = config.agents
    modulus = 1 << p.psi
    chain = []
    for s in range(p.zeta - 1):  # IDs of the full segments S_0 .. S_{zeta-2}
        base = leader_pos + s * p.psi
        sid = 0
        for j in range(p.psi):
            sid |= agents[(base + j) % p.n].b << j
        chain.append(sid)
    for i in range(p.zeta - 2):  # consecutive pairs up to (S_{zeta-3}, S_{zeta-2})
        if chain[i + 1] != (chain[i] + 1) % modulus:
            return False
    for k in range(p.n):
        a = agents[k]
        if a.token_b is not None and not _token_correct_rel(
            config, leader_pos, k, TokenColor.BLACK
        ):
            return False
        if a.token_w is not None and not _token_correct_rel(
            config, leader_pos, k, TokenColor.WHITE
        ):
            return False
    return in_C_PB(config)


# --------------------------------------------------------------------------
# safe-configuration constructor
# --------------------------------------------------------------------------

def construct_S_PL(params: ProtocolParams, seed: int) -> Configuration:
    """Build a configuration in the safe set.

    Leader at index 0, settled distance chain and last flags, segment IDs
    forming the +1 chain from a seed-chosen starting ID, no tokens, bullets
    or signals, all clocks zero and all agents constructing.  The final
    (unconstrained) segment gets seed-drawn bits.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n, psi, two_psi, zeta = params.n, params.psi, params.two_psi, params.zeta
    iota0 = int(rng.integers(0, 1 << psi))
    bits = [0] * n
    for s in range(zeta - 1):
        sid = (iota0 + s) % (1 << psi)
        for j in range(psi):
            bits[s * psi + j] = (sid >> j) & 1
    for i in range(psi * (zeta - 1), n):
        bits[i] = int(rng.integers(0, 2))
    last_from = psi * (zeta - 1)
    agents = [
        AgentState(
            leader=1 if i == 0 else 0,
            b=bits[i],
            dist=i % two_psi,
            last=1 if i >= last_from else 0,
            mode=CONSTRUCT,
            shield=1 if i == 0 else 0,
        )
        for i in range(n)
    ]
    return Configuration(params, agents)


# --------------------------------------------------------------------------
# interaction-sequence predicates
# --------------------------------------------------------------------------

def sequence_occurs(trace: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff ``pattern`` is a subsequence of ``trace`` (order, not runs)."""
    it = iter(trace)
    return all(any(seen == want for seen in it) for want in pattern)


def seq_r(i: int, length: int, n: int) -> list[int]:
    """Consecutive rightward interaction indices i, i+1, ... (mod n)."""
    return [(i + j) % n for j in range(length)]


def seq_l(i: int, length: int, n: int) -> list[int]:
    """Consecutive leftward interaction indices i-1, i-2, ... (mod n)."""
    return [(i - 1 - j) % n for j in range(length)]
