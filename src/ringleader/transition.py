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
which case the run goes through ``interact_traced``.  Its token relays are
lookups in per-psi relay tables (``_relay_tables``, built once per psi),
lists indexed by the token int of ``core.state.token``: where a moving
token lands after the sweep, the bit a rightward arrival carries, and
which tokens stay on track at each dist.  An int outside ``legal_tokens``
reads another token's entry, so the input must pass ``validate``, as
``run`` enforces.  The reference blocks read a token's fields through
``token_fields``.  Each move entry of the tables is one reference
``_relay_inplace`` call on its own pair, and each on-track entry one
``_off_track`` call, so the fused loop holds no second copy of the move and
sweep rules; arming, destruction and an arrival's construct/detect write
stay inline.  Both paths load every bullet through ``_fire``, the one
firing rule: a leader's fire when its bullet-absence signal is back, and a
new leader's live bullet (the fused loop's trace keeps nothing).  Bullet
travel and the bullet-absence signal stay inline in the fused loop.

The fused loop has two shortcuts, each behind a flag.  The first is for
quiet rings: no agent holds a leader, a resetting signal, a bullet or a
bullet-absence signal, every agent constructs, and no clock is full
(``_quiet``).  In such a ring the signal and mode writes, every DETECT
branch and the whole elimination block change nothing, so a quiet step only
moves the hit counters and ticks a clock before the shared distance and
relay code.  A quiet ring stays quiet until a tick fills a clock to
``kappa_max``; from that step on the call runs the full blocks.  Leaderless
rings spend most of their convergence time quiet, waiting for that clock.

The second is for settled chains: every arc already holds the ``dist`` and
``last`` values the distance block computes (``_settled``).  There that
block writes what the agents hold and its DETECT check finds no mismatch,
so a settled step reads ``dist`` and ``last`` and skips it.  Mode
determination, the relays and elimination write no ``dist`` or ``last``, so
only a change to a leader bit can break the property: the ID-bit creations
and the kill end the settled stretch for the rest of the call.  Every step
of a safe ring runs settled.  ``run`` carries both flags from block to
block.

The tests assert the fused form and ``interact_traced`` are bit-identical on
random state pairs, on quiet pairs one tick from a full clock, on settled
blocks whose leader bit changes mid-block, and on every pre-state of one
color's relay at psi = 2 and 3.  These two are the module's only public
functions.
"""
from __future__ import annotations

import collections
import functools
from typing import Iterable, Sequence

from .core.state import CONSTRUCT, DETECT, AgentState, legal_tokens, token, token_fields


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

def _dist_last_inplace(
    l: AgentState, r: AgentState, psi: int, two_psi: int, trace: list
) -> None:
    tmp = 0 if r.leader else (l.dist + 1) % two_psi
    if r.mode == DETECT:
        if tmp != r.dist:
            # the embedded distance chain is broken: r becomes a leader and
            # fires a live bullet
            r.leader = 1
            _fire(r, 2, "r", trace)
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


def _relay_inplace(l, r, lt, rt, d, psi, two_psi, trace, color):
    """One color's token block.  Returns the pair's new token fields.

    ``lt``/``rt`` are the current token values of this color at l and r;
    other agent fields are read and written through ``l``/``r`` directly.
    """
    # an idle border (not in the final segment) arms a fresh token carrying
    # the first bit of its segment ID plus one: value 1-b, carry b
    if lt is None and l.dist == d and l.last == 0:
        b = l.b
        lt = token(psi, 1 - b, b)
        trace.append(("tgen", color))
    # a token never moves onto an occupied agent or into the final segment;
    # the left token is destroyed instead
    if lt is not None and (rt is not None or r.last == 1):
        lt = None
        trace.append(("tdel", color, "l"))
    if lt is not None and token_fields(lt)[0] > 0:
        offset, value, carry = token_fields(lt)
        if offset == 1:
            # rightward arrival: construction writes the carried bit,
            # detection checks it and creates a leader on mismatch; then the
            # token turns around toward the matching agent of its home segment
            if r.mode == DETECT:
                if value != r.b:
                    r.leader = 1
                    _fire(r, 2, "r", trace)
            else:
                r.b = value
            rt = token(1 - psi, value, carry)
        else:
            rt = token(offset - 1, value, carry)
        lt = None
        trace.append(("tmove", color, "lr"))
    elif rt is not None and token_fields(rt)[0] < 0:
        offset, value, carry = token_fields(rt)
        if offset == -1:
            # leftward arrival: fold l's bit into the running +1 addition and
            # re-arm for the next round
            b = l.b
            lt = token(psi, 1 - b, b) if carry == 1 else token(psi, b, 0)
        else:
            lt = token(offset + 1, value, carry)
        rt = None
        trace.append(("tmove", color, "rl"))
    # sweep: final-segment residents and off-track tokens are destroyed
    if lt is not None and (l.last == 1 or _off_track(l.dist, token_fields(lt)[0], d, two_psi, psi)):
        lt = None
        trace.append(("tdel", color, "l"))
    if rt is not None and (r.last == 1 or _off_track(r.dist, token_fields(rt)[0], d, two_psi, psi)):
        rt = None
        trace.append(("tdel", color, "r"))
    return lt, rt


# --------------------------------------------------------------------------
# block 5: leader elimination
# --------------------------------------------------------------------------

def _fire(agent: AgentState, bullet: int, side: str, trace) -> None:
    """The one firing rule: ``agent`` loads ``bullet``, live (2) with its
    shield up or dummy (1) with its shield down, and its bullet-absence
    signal clears.  A bullet it already held is deleted."""
    if agent.bullet > 0:
        trace.append(("bdel", side))
    agent.bullet = bullet
    agent.shield = 1 if bullet == 2 else 0
    agent.signal_b = 0
    trace.append(("bfire", side, bullet))


def _eliminate_inplace(l: AgentState, r: AgentState, trace: list) -> None:
    # a leader that has learned its previous bullet is gone fires again:
    # live as initiator, dummy as responder (the scheduler supplies the
    # coin flip)
    if l.leader and l.signal_b:
        _fire(l, 2, "l", trace)
    if r.leader and r.signal_b:
        _fire(r, 1, "r", trace)
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
    _dist_last_inplace(l, r, psi, two_psi, trace)
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

def _color_tables(psi: int, d: int) -> tuple[tuple, tuple, tuple]:
    """One color's relay as lookups, indexed by dist, then by legal token.

    Each row is a list of length ``8*psi`` indexed by the token itself;
    negative tokens index from the end, and at that length the rightward
    and the leftward tokens do not overlap.  ``right[x][t]`` is
    ``(successor, value)`` when ``t`` moves right from an initiator onto an
    empty responder with dist ``x`` outside the final segment: the token
    the responder holds after the sweep (None if swept), and the bit its
    arrival writes or checks (None if it passes through).  ``left[x][t]``
    is, by the initiator's ``b``, the token an initiator with dist ``x``
    outside the final segment holds after ``t`` moved onto it from the
    responder and the sweep.  Either entry is None for a token that does
    not move that way.  Each entry is one reference ``_relay_inplace`` call
    on its pair (``left`` one per bit), so the fused loop holds no second
    copy of the move and sweep rules.  ``on_track[x][t]`` is whether
    ``_off_track`` keeps ``t`` at dist ``x``.
    """
    two_psi = 2 * psi
    tokens = legal_tokens(psi)
    rows = range(two_psi)
    on_track = tuple([False] * (8 * psi) for _ in rows)
    right = tuple([None] * (8 * psi) for _ in rows)
    left = tuple([None] * (8 * psi) for _ in rows)
    responder = AgentState()
    initiators = AgentState(b=0), AgentState(b=1)

    def relay(l, lt, rt, trace):
        return _relay_inplace(l, responder, lt, rt, d, psi, two_psi, trace, None)

    for x in rows:
        responder.dist = initiators[0].dist = initiators[1].dist = x
        for t in tokens:
            on_track[x][t] = not _off_track(x, token_fields(t)[0], d, two_psi, psi)
            trace: list = []
            responder.b = -1  # stays -1 unless an arrival writes it
            moved = relay(initiators[0], t, None, trace)[1]
            if ("tmove", None, "lr") in trace:
                right[x][t] = moved, None if responder.b == -1 else responder.b
            trace = []
            moved = relay(initiators[0], None, t, trace)[0]
            if ("tmove", None, "rl") in trace:
                left[x][t] = moved, relay(initiators[1], None, t, [])[0]
    return right, left, on_track


@functools.cache
def _relay_tables(psi: int) -> tuple:
    """``interact_block``'s relay tables for ``psi``, built once per ``psi``:
    the token an idle border arms, indexed by its ``b``, then the black and
    the white :func:`_color_tables`."""
    armed = (token(psi, 1, 0), token(psi, 0, 1))  # value 1 - b, carry b
    return armed, _color_tables(psi, 0), _color_tables(psi, psi)


_NO_TRACE = collections.deque(maxlen=0)  # the fused loop's trace: keeps nothing


def _quiet(agents: Iterable[AgentState], kappa_max: int) -> bool:
    """True when no agent holds a leader, a resetting signal, a bullet or a
    bullet-absence signal, every agent constructs and no clock is full: the
    ring :func:`interact_block` may run in its quiet branch.  Stops at the
    first agent that is not quiet."""
    for a in agents:
        if a.leader or a.signal_r or a.bullet or a.signal_b or a.mode or a.clock >= kappa_max:
            return False
    return True


def _settled(agents: Sequence[AgentState], psi: int, two_psi: int) -> bool:
    """True when every arc ``(l, r)`` of the ring already holds what the
    distance block would write there: ``r.dist`` is 0 at a leader and
    ``l.dist + 1`` (mod ``two_psi``) elsewhere, and ``l.last`` is 1 at a
    leader, 0 when ``r.dist`` is 0 or ``psi``, and ``r.last`` otherwise.
    Then :func:`interact_block` may run in its settled branch.  Stops at the
    first arc that is not settled."""
    l = agents[-1]
    for r in agents:
        if r.leader:
            if r.dist or l.last != 1:
                return False
        else:
            rd = r.dist
            if rd != (l.dist + 1) % two_psi:
                return False
            if l.last != (0 if rd == 0 or rd == psi else r.last):
                return False
        l = r
    return True


def interact_block(
    agents: Sequence[AgentState],
    indices: Iterable[int],
    nxt: Sequence[int],
    psi: int,
    two_psi: int,
    kappa_max: int,
    quiet: bool,
    settled: bool,
) -> tuple[bool, bool]:
    """Apply the full transition on arc ``(i, nxt[i])`` for each ``i`` in turn.

    Semantically identical to ``interact_traced`` for every index on
    agents that ``AgentState.validate`` accepts, but records no events.
    Each token color's relay is a lookup in its :func:`_relay_tables`
    entries and is skipped outright when neither agent holds a token of that
    color and the initiator cannot arm one.  A token outside
    ``legal_tokens`` reads another token's entry or raises IndexError, so
    ``agents`` must pass ``AgentState.validate``, as ``run`` checks.

    ``quiet`` may be True only when :func:`_quiet` holds for ``agents``.  In
    a quiet ring no leader seeds a resetting signal, no signal resets a
    clock, every mode stays CONSTRUCT (so no DETECT branch creates a
    leader), and elimination finds no leader, bullet or signal to act on.
    A quiet step therefore only moves the hit counters and ticks a clock,
    then builds the distance chain and relays tokens as usual, and the ring
    stays quiet -- until a tick fills a clock to ``kappa_max``.  That step
    turns its responder to DETECT and runs the rest of its blocks, and every
    later step of the call, in full.

    ``settled`` may be True only when :func:`_settled` holds for
    ``agents``.  A settled step reads ``dist`` and ``last`` and skips the
    rest of the distance block, which would rewrite the same values and,
    in DETECT, find no mismatch.  No other block writes ``dist`` or
    ``last``, so the chain stays settled until a leader bit changes: an
    ID-bit creation or a kill ends the settled stretch for the rest of the
    call.  Returns ``(quiet, settled)``: whether each still holds.
    """
    armed, (right_b, left_b, on_b), (right_w, left_w, on_w) = _relay_tables(psi)
    for i in indices:
        l = agents[i]
        r = agents[nxt[i]]

        # mode determination
        if quiet:  # no leader, signal or full clock: only hits and a tick
            l.hits = 0
            rmode = CONSTRUCT
            rh = r.hits + 1
            if rh >= psi:
                rh = 0
                clock = r.clock + 1
                r.clock = clock
                if clock == kappa_max:  # the ring leaves quiet here
                    r.mode = rmode = DETECT
                    quiet = False
            r.hits = rh
        else:
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
        rlast = r.last
        if settled:  # every arc holds its chain values: nothing to write
            rd = r.dist
            llast = l.last
        else:
            if rmode == DETECT:
                rd = r.dist
                if (0 if r.leader else (ld + 1) % two_psi) != rd:
                    r.leader = 1
                    _fire(r, 2, "r", _NO_TRACE)
            else:
                rd = 0 if r.leader else (ld + 1) % two_psi
                r.dist = rd
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
            lt = armed[l.b]
        if lt is not None:
            if rt is None and rlast == 0:
                move = right_b[rd][lt]
                if move is None:  # a leftward token stays, swept at l
                    if llast == 1 or not on_b[ld][lt]:
                        l.token_b = None
                else:
                    nt, value = move
                    if value is not None:
                        if rmode == DETECT:
                            if value != r.b:
                                r.leader = 1
                                _fire(r, 2, "r", _NO_TRACE)
                                settled = False
                        else:
                            r.b = value
                    l.token_b = None
                    r.token_b = nt
            else:  # no move onto an occupied agent or into the final segment
                l.token_b = None
        if rt is not None:
            move = left_b[ld][rt]
            if move is None:  # a rightward token stays, swept at r
                if rlast == 1 or not on_b[rd][rt]:
                    r.token_b = None
            else:
                l.token_b = None if llast == 1 else move[l.b]
                r.token_b = None

        # white token relay: home border at relative psi
        lt = l.token_w
        rt = r.token_w
        if lt is None and ld == psi and llast == 0:
            lt = armed[l.b]
        if lt is not None:
            if rt is None and rlast == 0:
                move = right_w[rd][lt]
                if move is None:  # a leftward token stays, swept at l
                    if llast == 1 or not on_w[ld][lt]:
                        l.token_w = None
                else:
                    nt, value = move
                    if value is not None:
                        if rmode == DETECT:
                            if value != r.b:
                                r.leader = 1
                                _fire(r, 2, "r", _NO_TRACE)
                                settled = False
                        else:
                            r.b = value
                    l.token_w = None
                    r.token_w = nt
            else:  # no move onto an occupied agent or into the final segment
                l.token_w = None
        if rt is not None:
            move = left_w[ld][rt]
            if move is None:  # a rightward token stays, swept at r
                if rlast == 1 or not on_w[rd][rt]:
                    r.token_w = None
            else:
                l.token_w = None if llast == 1 else move[l.b]
                r.token_w = None

        # leader elimination: nothing to act on in a quiet ring
        if quiet:
            continue
        if l.leader and l.signal_b:
            _fire(l, 2, "l", _NO_TRACE)
        if r.leader and r.signal_b:
            _fire(r, 1, "r", _NO_TRACE)
        lb = l.bullet
        if lb > 0:
            if r.leader:
                if lb == 2 and r.shield == 0:
                    r.leader = 0
                    settled = False
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
    return quiet, settled
