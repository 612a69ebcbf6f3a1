"""The pairwise transition function for the leader-election protocol.

The transition maps (initiator state, responder state) to successor states.
It runs five blocks in a fixed order, and later statements observe earlier
statements' writes:

1. mode determination -- resetting-signal and clock bookkeeping,
2. the distance-chain block -- dist/last maintenance, leader creation on a
   distance mismatch in detection mode,
3. black token relay, 4. white token relay -- segment-ID construction and
   checking, leader creation on an ID-bit mismatch in detection mode,
5. leader elimination -- bullets, shields and bullet-absence signals.

The block order is load-bearing (e.g. a freshly created leader has its
bullet-absence signal cleared before the elimination block runs) and must not
be rearranged.

Two implementations exist.  The five standalone blocks below are the
reference, and ``interact_traced`` is their one composition: it runs them in
order in place and records events.  The fused ``interact_block`` runs the
whole transition over a block of scheduler indices in one call, records no
events, and short-circuits the token blocks when no token activity is
possible; ``run`` uses it unless an ``on_step`` hook asks for events, in
which case the run goes through ``interact_traced``.  The acceptance suite
asserts the fused form and ``interact_traced`` are bit-identical on random
state pairs.  These two are the module's only public functions.
"""
from __future__ import annotations

import functools
from typing import Iterable, Sequence

from .core.state import CONSTRUCT, DETECT, AgentState, Token, legal_tokens


# --------------------------------------------------------------------------
# block 1: mode determination
# --------------------------------------------------------------------------

def _determine_mode_inplace(l: AgentState, r: AgentState, psi: int, kappa_max: int) -> None:
    # a leader seeds a fresh resetting signal; it cascades to r below
    if l.leader:
        l.signal_r = kappa_max
    # hits counts consecutive interactions as responder, capped at psi
    l.hits = 0
    rh = r.hits + 1
    if rh > psi:
        rh = psi
    ls = l.signal_r
    rs = r.signal_r
    if ls > 0 or rs > 0:
        # any signal on the pair keeps both clocks at zero
        l.clock = 0
        r.clock = 0
        if rs > 0 and ls >= rs:
            # the left signal absorbs the right one; the merged signal's
            # hit counter restarts
            rh = 0
        merged = ls if ls > rs else rs
        l.signal_r = 0
        if rh == psi:
            # a full hit counter costs the signal one TTL unit
            r.signal_r = merged - 1
            rh = 0
        else:
            r.signal_r = merged
    elif rh == psi:
        # no signal in sight: a full hit counter advances the clock
        if r.clock < kappa_max:
            r.clock = r.clock + 1
        rh = 0
    r.hits = rh
    l.mode = DETECT if l.clock == kappa_max else CONSTRUCT
    r.mode = DETECT if r.clock == kappa_max else CONSTRUCT


# --------------------------------------------------------------------------
# block 2: distance chain, last flag, mismatch-triggered leader creation
# --------------------------------------------------------------------------

def _dist_last_inplace(l: AgentState, r: AgentState, psi: int, two_psi: int) -> None:
    tmp = 0 if r.leader else (l.dist + 1) % two_psi
    if r.mode == DETECT:
        if tmp != r.dist:
            # the embedded distance chain is broken: r becomes a leader,
            # shielded and holding a live bullet
            r.leader = 1
            r.bullet = 2
            r.shield = 1
            r.signal_b = 0
    else:
        r.dist = tmp
    # l learns whether it sits in the segment that precedes a leader
    if r.leader:
        l.last = 1
    elif r.dist == 0 or r.dist == psi:
        l.last = 0
    else:
        l.last = r.last


# --------------------------------------------------------------------------
# blocks 3-4: token relay
# --------------------------------------------------------------------------

def _off_track(dist: int, offset: int, d: int, two_psi: int, psi: int) -> bool:
    """True when a token has left its legal shuttle trajectory.

    ``(dist + offset + d) mod 2*psi`` is the target's position relative to
    the token's home border.  Rightward tokens must target the next segment
    (relative positions ``[psi, 2*psi-1]``); leftward tokens must target the
    interior of their home segment (``[1, psi-1]``).  Anything else --
    including the turn-around produced at the final target -- is destroyed
    by the sweep.
    """
    target_rel = (dist + offset + d) % two_psi
    if offset > 0:
        return target_rel < psi
    return target_rel == 0 or target_rel >= psi


@functools.cache
def _token_table(psi: int) -> list[Token | None]:
    """The tokens of :func:`legal_tokens`, indexed for the moves.

    ``table[4*offset + 2*value_bit + carry_bit]`` is
    ``Token(offset, value_bit, carry_bit)``.  Negative offsets index from the
    end; at length ``8*psi`` the two offset ranges do not overlap.
    """
    table: list[Token | None] = [None] * (8 * psi)
    for token in legal_tokens(psi):
        offset, value, carry = token
        table[4 * offset + 2 * value + carry] = token
    return table


def _relay_inplace(l, r, lt, rt, d, psi, two_psi, trace, color):
    """One color's token block.  Returns the pair's new token fields.

    ``lt``/``rt`` are the current token values of this color at l and r;
    other agent fields are read and written through ``l``/``r`` directly.
    """
    tokens = _token_table(psi)
    # an idle border (not in the final segment) arms a fresh token carrying
    # the first bit of its segment ID plus one: value 1-b, carry b
    if lt is None and l.dist == d and l.last == 0:
        b = l.b
        lt = tokens[4 * psi + 2 * (1 - b) + b]  # Token(psi, 1 - b, b)
        trace.append(("tgen", color))
    # a token never moves onto an occupied agent or into the final segment;
    # the left token is destroyed instead
    if lt is not None and (rt is not None or r.last == 1):
        lt = None
        trace.append(("tdel", color, "l"))
    if lt is not None and lt.offset == 1:
        # rightward arrival: construction writes the carried bit, detection
        # checks it and creates a leader on mismatch; then the token turns
        # around toward the matching agent of its home segment
        _, value, carry = lt
        if r.mode == DETECT:
            if value != r.b:
                if r.bullet > 0:
                    trace.append(("bdel", "r"))
                r.leader = 1
                r.bullet = 2
                r.shield = 1
                r.signal_b = 0
                trace.append(("bfire", "r", 2))
        else:
            r.b = value
        rt = tokens[4 * (1 - psi) + 2 * value + carry]  # Token(1 - psi, value, carry)
        lt = None
        trace.append(("tmove", color, "lr"))
    elif lt is not None and lt.offset >= 2:
        offset, value, carry = lt
        rt = tokens[4 * (offset - 1) + 2 * value + carry]
        lt = None
        trace.append(("tmove", color, "lr"))
    elif rt is not None and rt.offset == -1:
        # leftward arrival: fold l's bit into the running +1 addition and
        # re-arm for the next round
        b = l.b
        if rt.carry_bit == 1:
            lt = tokens[4 * psi + 2 * (1 - b) + b]  # Token(psi, 1 - b, b)
        else:
            lt = tokens[4 * psi + 2 * b]  # Token(psi, b, 0)
        rt = None
        trace.append(("tmove", color, "rl"))
    elif rt is not None and rt.offset <= -2:
        offset, value, carry = rt
        lt = tokens[4 * (offset + 1) + 2 * value + carry]
        rt = None
        trace.append(("tmove", color, "rl"))
    # sweep: final-segment residents and off-track tokens are destroyed
    if lt is not None and (l.last == 1 or _off_track(l.dist, lt.offset, d, two_psi, psi)):
        lt = None
        trace.append(("tdel", color, "l"))
    if rt is not None and (r.last == 1 or _off_track(r.dist, rt.offset, d, two_psi, psi)):
        rt = None
        trace.append(("tdel", color, "r"))
    return lt, rt


# --------------------------------------------------------------------------
# block 5: leader elimination
# --------------------------------------------------------------------------

def _eliminate_inplace(l: AgentState, r: AgentState, trace: list) -> None:
    # a leader that has learned its previous bullet is gone fires again;
    # firing as initiator means live + shield up, firing as responder means
    # dummy + shield down (the scheduler supplies the coin flip)
    if l.leader and l.signal_b:
        if l.bullet > 0:
            trace.append(("bdel", "l"))
        l.bullet = 2
        l.shield = 1
        l.signal_b = 0
        trace.append(("bfire", "l", 2))
    if r.leader and r.signal_b:
        if r.bullet > 0:
            trace.append(("bdel", "r"))
        r.bullet = 1
        r.shield = 0
        r.signal_b = 0
        trace.append(("bfire", "r", 1))
    lb = l.bullet
    if lb > 0:
        if r.leader:
            # a bullet reaching a leader vanishes; it kills iff it is live
            # and the leader is unshielded
            killed = lb == 2 and r.shield == 0
            if killed:
                r.leader = 0
            l.bullet = 0
            trace.append(("bhit", killed))
        else:
            # advance onto an empty follower, disappear against an occupied
            # one; either way the follower's bullet-absence signal dies
            if r.bullet == 0:
                r.bullet = lb
                trace.append(("bmove",))
            else:
                trace.append(("bdel", "l"))
            l.bullet = 0
            r.signal_b = 0
    # the bullet-absence signal spreads right to left, sourced at leaders
    sb = l.signal_b
    if r.signal_b > sb:
        sb = r.signal_b
    if r.leader > sb:
        sb = r.leader
    l.signal_b = sb


def interact_traced(
    l: AgentState, r: AgentState, psi: int, two_psi: int, kappa_max: int, trace: list
) -> None:
    """The five blocks in order, in place, appending their events to ``trace``."""
    _determine_mode_inplace(l, r, psi, kappa_max)
    _dist_last_inplace(l, r, psi, two_psi)
    l.token_b, r.token_b = _relay_inplace(
        l, r, l.token_b, r.token_b, 0, psi, two_psi, trace, "B"
    )
    l.token_w, r.token_w = _relay_inplace(
        l, r, l.token_w, r.token_w, psi, psi, two_psi, trace, "W"
    )
    _eliminate_inplace(l, r, trace)


# --------------------------------------------------------------------------
# fused block loop
# --------------------------------------------------------------------------

def interact_block(
    agents: Sequence[AgentState],
    indices: Iterable[int],
    nxt: Sequence[int],
    psi: int,
    two_psi: int,
    kappa_max: int,
) -> None:
    """Apply the full transition on arc ``(i, nxt[i])`` for each ``i`` in turn.

    Semantically identical to ``interact_traced`` for every index, but
    records no events.  Both token colors are written out inline and skipped
    outright when neither agent holds a token of that color and the
    initiator cannot arm one; the off-track sweep inlines ``_off_track``.
    """
    tokens = _token_table(psi)
    arm = 4 * psi  # tokens[arm + 2*value + carry] is Token(psi, value, carry)
    back = 4 * (1 - psi)  # tokens[back + ...] is Token(1 - psi, value, carry)
    for i in indices:
        l = agents[i]
        r = agents[nxt[i]]

        # mode determination
        if l.leader:
            l.signal_r = kappa_max
        l.hits = 0
        rh = r.hits + 1
        if rh > psi:
            rh = psi
        ls = l.signal_r
        rs = r.signal_r
        if ls > 0 or rs > 0:
            l.clock = 0
            r.clock = 0
            if rs > 0 and ls >= rs:
                rh = 0
            merged = ls if ls > rs else rs
            l.signal_r = 0
            if rh == psi:
                r.signal_r = merged - 1
                rh = 0
            else:
                r.signal_r = merged
        elif rh == psi:
            if r.clock < kappa_max:
                r.clock = r.clock + 1
            rh = 0
        r.hits = rh
        l.mode = DETECT if l.clock == kappa_max else CONSTRUCT
        rmode = DETECT if r.clock == kappa_max else CONSTRUCT
        r.mode = rmode

        # distance chain
        ld = l.dist
        if rmode == DETECT:
            rd = r.dist
            if (0 if r.leader else (ld + 1) % two_psi) != rd:
                r.leader = 1
                r.bullet = 2
                r.shield = 1
                r.signal_b = 0
        else:
            rd = 0 if r.leader else (ld + 1) % two_psi
            r.dist = rd
        rlast = r.last
        if r.leader:
            llast = 1
        elif rd == 0 or rd == psi:
            llast = 0
        else:
            llast = rlast
        l.last = llast

        # black token relay: home border at relative 0
        lt = l.token_b
        rt = r.token_b
        if lt is None and ld == 0 and llast == 0:
            b = l.b
            lt = tokens[arm + 2 - b]  # Token(psi, 1 - b, b)
        if lt is not None or rt is not None:
            if lt is not None and (rt is not None or rlast == 1):
                lt = None
            if lt is not None:  # then rt is None: at most one token moves
                offset, value, carry = lt
                if offset == 1:
                    if rmode == DETECT:
                        if value != r.b:
                            r.leader = 1
                            r.bullet = 2
                            r.shield = 1
                            r.signal_b = 0
                    else:
                        r.b = value
                    rt = tokens[back + 2 * value + carry]
                    lt = None
                elif offset > 1:
                    rt = tokens[4 * offset - 4 + 2 * value + carry]
                    lt = None
            elif rt is not None:
                offset, value, carry = rt
                if offset == -1:
                    b = l.b
                    lt = tokens[arm + 2 - b if carry else arm + 2 * b]
                    rt = None
                elif offset < -1:
                    lt = tokens[4 * offset + 4 + 2 * value + carry]
                    rt = None
            if lt is not None:
                if llast == 1:
                    lt = None
                else:
                    offset = lt[0]
                    t = (ld + offset) % two_psi
                    if (t < psi) if offset > 0 else (t == 0 or t >= psi):
                        lt = None
            if rt is not None:
                if rlast == 1:
                    rt = None
                else:
                    offset = rt[0]
                    t = (rd + offset) % two_psi
                    if (t < psi) if offset > 0 else (t == 0 or t >= psi):
                        rt = None
            l.token_b = lt
            r.token_b = rt

        # white token relay: home border at relative psi
        lt = l.token_w
        rt = r.token_w
        if lt is None and ld == psi and llast == 0:
            b = l.b
            lt = tokens[arm + 2 - b]  # Token(psi, 1 - b, b)
        if lt is not None or rt is not None:
            if lt is not None and (rt is not None or rlast == 1):
                lt = None
            if lt is not None:  # then rt is None: at most one token moves
                offset, value, carry = lt
                if offset == 1:
                    if rmode == DETECT:
                        if value != r.b:
                            r.leader = 1
                            r.bullet = 2
                            r.shield = 1
                            r.signal_b = 0
                    else:
                        r.b = value
                    rt = tokens[back + 2 * value + carry]
                    lt = None
                elif offset > 1:
                    rt = tokens[4 * offset - 4 + 2 * value + carry]
                    lt = None
            elif rt is not None:
                offset, value, carry = rt
                if offset == -1:
                    b = l.b
                    lt = tokens[arm + 2 - b if carry else arm + 2 * b]
                    rt = None
                elif offset < -1:
                    lt = tokens[4 * offset + 4 + 2 * value + carry]
                    rt = None
            if lt is not None:
                if llast == 1:
                    lt = None
                else:
                    offset = lt[0]
                    t = (ld + offset + psi) % two_psi
                    if (t < psi) if offset > 0 else (t == 0 or t >= psi):
                        lt = None
            if rt is not None:
                if rlast == 1:
                    rt = None
                else:
                    offset = rt[0]
                    t = (rd + offset + psi) % two_psi
                    if (t < psi) if offset > 0 else (t == 0 or t >= psi):
                        rt = None
            l.token_w = lt
            r.token_w = rt

        # leader elimination
        if l.leader and l.signal_b:
            l.bullet = 2
            l.shield = 1
            l.signal_b = 0
        if r.leader and r.signal_b:
            r.bullet = 1
            r.shield = 0
            r.signal_b = 0
        lb = l.bullet
        if lb > 0:
            if r.leader:
                if lb == 2 and r.shield == 0:
                    r.leader = 0
            else:
                if r.bullet == 0:
                    r.bullet = lb
                r.signal_b = 0
            l.bullet = 0
        sb = l.signal_b
        if r.signal_b > sb:
            sb = r.signal_b
        if r.leader > sb:
            sb = r.leader
        l.signal_b = sb
