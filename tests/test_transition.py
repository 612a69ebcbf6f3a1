"""Transition-function unit tests.

The token-validity oracle here enumerates the legal shuttle trajectory
directly (every round's rightward and leftward leg, plus the turn-around
states) and is kept independent of the arithmetic formula it checks.
"""
import hashlib
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringleader
from ringleader import transition
from ringleader.analysis import construct_S_PL
from ringleader.core.params import ProtocolParams, make_params
from ringleader.core.scheduler import SchedulerStream
from ringleader.core.sim import run
from ringleader.core.state import (
    CONSTRUCT,
    DETECT,
    AgentState,
    legal_tokens,
    random_configuration,
    token,
    token_fields,
)
from ringleader.transition import (
    _determine_mode_inplace,
    _dist_last_inplace,
    _eliminate_inplace,
    _off_track,
    _relay_inplace,
    interact_traced,
)

from conftest import chain_settled, fused_pair, random_state_pairs, reference_pair

P4 = make_params(16)  # psi=4, kappa_max=128


def relay(l: AgentState, r: AgentState, color: str) -> None:
    """Run one color's token block (``"B"`` or ``"W"``) on l and r in place."""
    if color == "B":
        l.token_b, r.token_b = _relay_inplace(
            l, r, l.token_b, r.token_b, 0, P4.psi, P4.two_psi, [], "B"
        )
    else:
        l.token_w, r.token_w = _relay_inplace(
            l, r, l.token_w, r.token_w, P4.psi, P4.psi, P4.two_psi, [], "W"
        )


# --------------------------------------------------------------------------
# token trajectory oracle
# --------------------------------------------------------------------------

def legal_shuttle_states(psi: int) -> set[tuple[int, int]]:
    """All (position, offset) pairs a token legitimately occupies.

    Positions are relative to the home border.  Round x of the shuttle walks
    right from position x to position psi+x (offsets psi..1), turns around,
    and walks left back to position x+1 (offsets 1-psi..-1); the final
    round's turn-around state is destroyed in the same interaction it is
    created, so it never rests anywhere.
    """
    states = set()
    for x in range(psi):
        for j in range(x, x + psi):  # rightward leg, stored at j until handoff
            states.add((j, psi + x - j))
    for x in range(psi - 1):
        for j in range(x + 2, psi + x + 1):  # leftward leg including turn-around
            states.add((j, x + 1 - j))
    return states


@pytest.mark.parametrize("psi", [2, 3, 4, 5])
def test_off_track_matches_trajectory_enumeration(psi):
    legal = legal_shuttle_states(psi)
    two_psi = 2 * psi
    offsets = list(range(-psi + 1, 0)) + list(range(1, psi + 1))
    for rel in range(two_psi):
        for off in offsets:
            expected_off_track = (rel, off) not in legal
            # black token: home border at dist 0, so rel == dist
            assert _off_track(rel, off, 0, two_psi, psi) == expected_off_track
            # white token: home border at dist psi
            dist = (rel + psi) % two_psi
            assert _off_track(dist, off, psi, two_psi, psi) == expected_off_track


def test_fresh_token_is_on_track():
    # a border's fresh token (offset psi) and its whole first leg are legal
    for psi in (2, 3, 4):
        legal = legal_shuttle_states(psi)
        for j in range(psi):
            assert (j, psi - j) in legal


def test_final_turnaround_is_off_track():
    # after the last-round arrival at position 2*psi-1 the turn-around state
    # (offset 1-psi) must be swept: its implied target is the next border
    for psi in (2, 3, 4, 5):
        assert _off_track(2 * psi - 1, 1 - psi, 0, 2 * psi, psi)


# --------------------------------------------------------------------------
# mode determination
# --------------------------------------------------------------------------

def test_left_signal_absorbs_right():
    l = AgentState(signal_r=5)
    r = AgentState(signal_r=3, hits=2)
    _determine_mode_inplace(l, r, P4.psi, P4.kappa_max)
    assert (l.signal_r, r.signal_r) == (0, 5)
    assert r.hits == 0
    assert (l.clock, r.clock) == (0, 0)


def test_weaker_left_signal_is_absorbed_rightward():
    l = AgentState(signal_r=2)
    r = AgentState(signal_r=9, hits=0)
    _determine_mode_inplace(l, r, P4.psi, P4.kappa_max)
    assert (l.signal_r, r.signal_r) == (0, 9)
    assert r.hits == 1  # no absorption by the left: hit counter keeps counting


def test_full_hits_advance_clock_when_no_signal():
    l = AgentState()
    r = AgentState(hits=P4.psi - 1, clock=17)
    _determine_mode_inplace(l, r, P4.psi, P4.kappa_max)
    assert r.clock == 18
    assert r.hits == 0
    assert l.hits == 0


def test_clock_is_capped():
    r = AgentState(hits=P4.psi - 1, clock=P4.kappa_max)
    _determine_mode_inplace(AgentState(), r, P4.psi, P4.kappa_max)
    assert r.clock == P4.kappa_max
    assert r.mode == DETECT


def test_full_hits_cost_signal_ttl():
    l = AgentState(signal_r=7)
    r = AgentState(signal_r=0, hits=P4.psi - 1)
    _determine_mode_inplace(l, r, P4.psi, P4.kappa_max)
    # no absorption (right had no signal), so the incremented counter fills
    assert r.signal_r == 6
    assert r.hits == 0
    assert l.signal_r == 0


def test_mode_follows_clock_both_agents():
    l = AgentState(clock=P4.kappa_max, mode=CONSTRUCT)
    r = AgentState(clock=0, mode=DETECT)
    _determine_mode_inplace(l, r, P4.psi, P4.kappa_max)
    assert l.mode == DETECT and r.mode == CONSTRUCT


def test_leader_seeds_signal_on_right_neighbor():
    l = AgentState(leader=1)
    r = AgentState()
    _determine_mode_inplace(l, r, P4.psi, P4.kappa_max)
    # the fresh signal cascades one hop in the same interaction
    assert l.signal_r == 0
    assert r.signal_r in (P4.kappa_max, P4.kappa_max - 1)
    assert r.signal_r == P4.kappa_max  # hits could not have filled here
    assert (l.clock, r.clock) == (0, 0)


# --------------------------------------------------------------------------
# distance chain block
# --------------------------------------------------------------------------

def test_detect_mismatch_creates_shielded_leader():
    l = AgentState(dist=0)
    r = AgentState(dist=5, mode=DETECT, bullet=0, shield=0, signal_b=1)
    _dist_last_inplace(l, r, P4.psi, P4.two_psi, [])
    assert (r.leader, r.bullet, r.shield, r.signal_b) == (1, 2, 1, 0)
    assert r.dist == 5  # detection mode never rewrites dist
    assert l.last == 1  # the new leader is visible to the same statement


def test_construct_copies_incremented_dist():
    l = AgentState(dist=3)
    r = AgentState(dist=7, mode=CONSTRUCT)
    _dist_last_inplace(l, r, P4.psi, P4.two_psi, [])
    assert r.dist == 4


def test_construct_wraps_mod_two_psi():
    l = AgentState(dist=2 * P4.psi - 1)
    r = AgentState(mode=CONSTRUCT, dist=1)
    _dist_last_inplace(l, r, P4.psi, P4.two_psi, [])
    assert r.dist == 0


def test_detect_match_stays_follower():
    l = AgentState(dist=4)
    r = AgentState(dist=5, mode=DETECT)
    _dist_last_inplace(l, r, P4.psi, P4.two_psi, [])
    assert r.leader == 0


def test_last_cleared_at_border_responder():
    l = AgentState(dist=P4.psi - 1, last=1)
    r = AgentState(dist=2, mode=CONSTRUCT, last=1)
    _dist_last_inplace(l, r, P4.psi, P4.two_psi, [])
    assert r.dist == P4.psi
    assert l.last == 0


def test_last_copied_from_interior_responder():
    l = AgentState(dist=1, last=0)
    r = AgentState(dist=9, mode=CONSTRUCT, last=1)
    _dist_last_inplace(l, r, P4.psi, P4.two_psi, [])
    assert r.dist == 2
    assert l.last == 1


def test_leader_responder_resets_dist_and_sets_last():
    l = AgentState(dist=6)
    r = AgentState(leader=1, dist=3, mode=CONSTRUCT)
    _dist_last_inplace(l, r, P4.psi, P4.two_psi, [])
    assert r.dist == 0
    assert l.last == 1


# --------------------------------------------------------------------------
# token relay block
# --------------------------------------------------------------------------

def test_border_generates_and_forwards_token():
    l = AgentState(dist=0, last=0, b=1)
    r = AgentState(dist=1)
    relay(l, r, "B")
    # payload rule: value 1-b, carry b; the fresh token advances immediately
    assert l.token_b is None
    assert r.token_b == token(P4.psi - 1, 0, 1)


def test_no_generation_in_final_segment():
    l = AgentState(dist=0, last=1, b=1)
    r = AgentState(dist=1)
    relay(l, r, "B")
    assert l.token_b is None and r.token_b is None


def test_white_border_generates_white():
    l = AgentState(dist=P4.psi, last=0, b=0)
    r = AgentState(dist=P4.psi + 1)
    relay(l, r, "W")
    assert r.token_w == token(P4.psi - 1, 1, 0)
    assert l.token_w is None


def test_left_token_dies_against_occupied_right():
    l = AgentState(dist=1, token_b=token(3, 1, 0))
    r = AgentState(dist=2, token_b=token(2, 0, 1))
    relay(l, r, "B")
    assert l.token_b is None
    assert r.token_b == token(2, 0, 1)


def test_left_token_dies_entering_final_segment():
    l = AgentState(dist=1, token_b=token(3, 1, 0))
    r = AgentState(dist=2, last=1)
    relay(l, r, "B")
    assert l.token_b is None and r.token_b is None


def test_arrival_writes_bit_in_construction():
    l = AgentState(dist=P4.psi - 1, token_b=token(1, 1, 0))
    r = AgentState(dist=P4.psi, b=0, mode=CONSTRUCT)
    relay(l, r, "B")
    assert r.b == 1
    assert r.token_b == token(1 - P4.psi, 1, 0)
    assert l.token_b is None


def test_arrival_mismatch_in_detection_creates_leader():
    l = AgentState(dist=P4.psi - 1, token_b=token(1, 0, 1))
    r = AgentState(dist=P4.psi, b=1, mode=DETECT)
    relay(l, r, "B")
    assert (r.leader, r.bullet, r.shield, r.signal_b) == (1, 2, 1, 0)
    assert r.b == 1  # detection never writes the bit
    assert r.token_b == token(1 - P4.psi, 0, 1)


@pytest.mark.parametrize("cause", ["distance", "id_bit"])
def test_leader_creation_records_a_live_fire_over_the_held_bullet(cause):
    # r detects and holds a dummy bullet; l breaks either the distance chain
    # or, with a rightward token, the ID bit r holds
    id_bit = cause == "id_bit"
    l = AgentState(dist=P4.psi - 1, token_b=token(1, 0, 1) if id_bit else None)
    r = AgentState(
        dist=P4.psi if id_bit else 0, b=1, bullet=1, clock=P4.kappa_max, mode=DETECT
    )
    trace: list = []
    interact_traced(l, r, P4.psi, P4.two_psi, P4.kappa_max, trace)
    assert (r.leader, r.bullet, r.shield, r.signal_b) == (1, 2, 1, 0)
    bullet_events = [ev for ev in trace if ev[0] in ("bdel", "bfire")]
    assert bullet_events == [("bdel", "r"), ("bfire", "r", 2)]


def test_arrival_match_in_detection_is_quiet():
    l = AgentState(dist=P4.psi - 1, token_b=token(1, 1, 1))
    r = AgentState(dist=P4.psi, b=1, mode=DETECT)
    relay(l, r, "B")
    assert r.leader == 0
    assert r.token_b == token(1 - P4.psi, 1, 1)


def test_rightward_move_decrements_offset():
    l = AgentState(dist=2, token_b=token(3, 1, 1))
    r = AgentState(dist=3)
    relay(l, r, "B")
    assert l.token_b is None
    assert r.token_b == token(2, 1, 1)


def test_rearm_with_carry_set():
    l = AgentState(dist=1, b=0)
    r = AgentState(dist=2, token_b=token(-1, 0, 1))
    relay(l, r, "B")
    assert l.token_b == token(P4.psi, 1, 0)
    assert r.token_b is None


def test_rearm_with_carry_clear():
    l = AgentState(dist=1, b=1)
    r = AgentState(dist=2, token_b=token(-1, 0, 0))
    relay(l, r, "B")
    assert l.token_b == token(P4.psi, 1, 0)
    assert r.token_b is None


def test_leftward_move_keeps_payload():
    # the moving token's own bits ride along with it
    l = AgentState(dist=2)
    r = AgentState(dist=3, token_b=token(-2, 1, 0))
    relay(l, r, "B")
    assert l.token_b == token(-1, 1, 0)
    assert r.token_b is None


@pytest.mark.parametrize("psi", range(2, 10))
def test_token_table_holds_every_legal_token_once(psi):
    # the fused loop's relay tables are lists of length 8*psi indexed by
    # the token itself, negative tokens from the end: every legal token
    # must own one slot, and read back as the fields it was built from
    offsets = [*range(1 - psi, 0), *range(1, psi + 1)]
    triples = [(o, v, c) for o in offsets for v in (0, 1) for c in (0, 1)]
    legal = [token(*fields) for fields in triples]
    assert legal_tokens(psi) == tuple(legal)  # in random_configuration's draw order
    assert [token_fields(t) for t in legal] == triples
    table = [None] * (8 * psi)
    for t in legal:
        assert table[t] is None
        table[t] = t
    assert sorted(t for t in table if t is not None) == sorted(legal)


def test_sweep_deletes_off_track_rightward_token():
    # a rightward token whose implied target is inside its own segment is
    # off its trajectory and gets swept after the move
    l = AgentState(dist=2 * P4.psi - 1, token_b=token(2, 0, 0))
    r = AgentState(dist=0)
    relay(l, r, "B")
    assert l.token_b is None and r.token_b is None


def test_sweep_deletes_off_track_leftward_token():
    # a leftward token targeting its home border exactly is off-track
    l = AgentState(dist=1)
    r = AgentState(dist=2, token_b=token(-2, 1, 1))
    relay(l, r, "B")
    assert l.token_b is None and r.token_b is None


def test_branch_chain_runs_before_sweep():
    # an off-track arrival still acts (writes the bit) before the sweep
    # removes its turn-around remnant
    l = AgentState(dist=2 * P4.psi - 1, token_b=token(1, 0, 0))
    r = AgentState(dist=0, mode=CONSTRUCT, b=1)
    relay(l, r, "B")
    assert r.b == 0
    assert l.token_b is None and r.token_b is None


def test_on_track_midleg_token_survives():
    # position 2 offset 3 is round 1's rightward leg: it must not be swept
    l = AgentState(dist=2, token_b=token(3, 1, 0))
    r = AgentState(dist=3)
    relay(l, r, "B")
    assert r.token_b == token(2, 1, 0)


def test_white_relay_ignores_black_slots():
    l = AgentState(dist=0, last=0, b=1, token_w=token(2, 1, 1))
    r = AgentState(dist=1, token_b=token(3, 0, 0))
    relay(l, r, "W")
    assert r.token_b == token(3, 0, 0)  # untouched by the white pass
    assert l.token_b is None  # black slot at l untouched (was empty)


# --------------------------------------------------------------------------
# leader elimination block
# --------------------------------------------------------------------------

def test_live_bullet_kills_unshielded_leader():
    l = AgentState(bullet=2)
    r = AgentState(leader=1, shield=0)
    _eliminate_inplace(l, r, [])
    assert r.leader == 0
    assert l.bullet == 0


def test_live_bullet_stopped_by_shield():
    l = AgentState(bullet=2)
    r = AgentState(leader=1, shield=1)
    _eliminate_inplace(l, r, [])
    assert r.leader == 1
    assert l.bullet == 0


def test_dummy_bullet_never_kills():
    l = AgentState(bullet=1)
    r = AgentState(leader=1, shield=0)
    _eliminate_inplace(l, r, [])
    assert r.leader == 1
    assert l.bullet == 0


def test_moving_bullet_blocked_by_existing_bullet():
    l = AgentState(bullet=1)
    r = AgentState(leader=0, bullet=2, signal_b=1)
    _eliminate_inplace(l, r, [])
    assert r.bullet == 2
    assert l.bullet == 0
    assert r.signal_b == 0


def test_bullet_advances_onto_empty_follower():
    l = AgentState(bullet=2)
    r = AgentState(leader=0, bullet=0, signal_b=1)
    _eliminate_inplace(l, r, [])
    assert (l.bullet, r.bullet) == (0, 2)
    assert r.signal_b == 0


def test_leader_seeds_bullet_absence_signal():
    l = AgentState()
    r = AgentState(leader=1)
    _eliminate_inplace(l, r, [])
    assert l.signal_b == 1


def test_signal_spreads_leftward():
    l = AgentState(signal_b=0)
    r = AgentState(signal_b=1)
    _eliminate_inplace(l, r, [])
    assert l.signal_b == 1
    assert r.signal_b == 1  # the signal copies left; the right keeps its own


def test_initiator_leader_fires_live_and_shields():
    l = AgentState(leader=1, signal_b=1, shield=0)
    r = AgentState()
    _eliminate_inplace(l, r, [])
    # fired live, shield up, signal consumed; the bullet moved onto r
    assert (l.shield, l.signal_b) == (1, 0)
    assert l.bullet == 0 and r.bullet == 2


def test_responder_leader_fires_dummy_and_unshields():
    l = AgentState()
    r = AgentState(leader=1, signal_b=1, shield=1)
    _eliminate_inplace(l, r, [])
    assert (r.bullet, r.shield, r.signal_b) == (1, 0, 0)
    assert l.signal_b == 1  # the leader reseeds its absence signal at l


def test_dummy_fire_opens_leader_to_incoming_live_bullet():
    l = AgentState(bullet=2)
    r = AgentState(leader=1, signal_b=1, shield=1)
    _eliminate_inplace(l, r, [])
    assert r.leader == 0  # unshielded by its own dummy fire, then hit


# --------------------------------------------------------------------------
# full transition
# --------------------------------------------------------------------------

def test_leader_initiator_signal_end_state():
    l = AgentState(leader=1)
    r = AgentState()
    l2, r2 = fused_pair(l, r, P4)
    assert l2.signal_r == 0
    assert r2.signal_r == P4.kappa_max


def test_construct_responder_takes_incremented_dist():
    l = AgentState(dist=3)
    r = AgentState(leader=0, mode=CONSTRUCT)
    _, r2 = fused_pair(l, r, P4)
    assert r2.dist == 4


def test_leader_responder_marks_last():
    l = AgentState(dist=2)
    r = AgentState(leader=1)
    l2, _ = fused_pair(l, r, P4)
    assert l2.last == 1


def test_initiator_never_gains_leadership():
    for l, r in random_state_pairs(11, 5000, P4.psi, P4.kappa_max):
        was = l.leader
        l2, _ = fused_pair(l, r, P4)
        if was == 0:
            assert l2.leader == 0


def _pairs_reaching_detection(seed: int, count: int):
    """Random pairs plus a biased stream where the responder can actually
    end mode determination detecting (full clock, no signals in sight)."""
    for k, (l, r) in enumerate(random_state_pairs(seed, count, P4.psi, P4.kappa_max)):
        if k % 2:
            l.signal_r = 0
            l.leader = 0
            r.signal_r = 0
            r.clock = P4.kappa_max
        yield l, r


def test_leader_creation_requires_detection_mode():
    # if the responder ends mode determination constructing, no creation path
    created = 0
    for l, r in _pairs_reaching_detection(13, 20_000):
        l_dm, r_dm = l.copy(), r.copy()
        _determine_mode_inplace(l_dm, r_dm, P4.psi, P4.kappa_max)
        l2, r2 = fused_pair(l, r, P4)
        if r.leader == 0 and r2.leader == 1:
            created += 1
            assert r_dm.mode == DETECT
    assert created > 100


def test_new_leader_is_shielded_with_live_bullet():
    seen = 0
    for l, r in _pairs_reaching_detection(17, 20_000):
        l2, r2 = fused_pair(l, r, P4)
        if r.leader == 0 and r2.leader == 1:
            seen += 1
            assert (r2.bullet, r2.shield, r2.signal_b) == (2, 1, 0)
    assert seen > 100  # the sampled space must actually hit creation


def test_bullets_increase_only_by_firing_or_creation():
    for l, r in random_state_pairs(19, 20_000, P4.psi, P4.kappa_max):
        before = (l.bullet > 0) + (r.bullet > 0)
        l2, r2 = fused_pair(l, r, P4)
        after = (l2.bullet > 0) + (r2.bullet > 0)
        if after > before:
            fired_l = l.leader == 1 and l.signal_b == 1
            fired_r = r.leader == 1 and r.signal_b == 1
            created = r.leader == 0 and r2.leader == 1
            assert fired_l or fired_r or created


def test_fused_equals_chained_sample():
    for l, r in random_state_pairs(23, 20_000, P4.psi, P4.kappa_max):
        assert fused_pair(l, r, P4) == reference_pair(l, r, P4)


@pytest.mark.parametrize("n", [2, 5, 100])
def test_fused_equals_chained_other_sizes(n):
    p = make_params(n)
    for l, r in random_state_pairs(29 + n, 3000, p.psi, p.kappa_max):
        assert fused_pair(l, r, p) == reference_pair(l, r, p)


def test_range_preservation_bulk():
    for l, r in random_state_pairs(31, 20_000, P4.psi, P4.kappa_max):
        l2, r2 = fused_pair(l, r, P4)
        l2.validate(P4)
        r2.validate(P4)


def test_mode_matches_clock_after_any_interaction():
    # adversarial starts may decouple mode from clock; one interaction
    # repairs it on both participants
    for l, r in random_state_pairs(41, 20_000, P4.psi, P4.kappa_max):
        for a in fused_pair(l, r, P4):
            assert a.mode == (DETECT if a.clock == P4.kappa_max else CONSTRUCT)


@st.composite
def agent_states(draw, psi=4, kappa_max=128):
    def token():
        if draw(st.booleans()):
            return None
        return draw(st.sampled_from(legal_tokens(psi)))

    return AgentState(
        leader=draw(st.integers(0, 1)),
        b=draw(st.integers(0, 1)),
        dist=draw(st.integers(0, 2 * psi - 1)),
        last=draw(st.integers(0, 1)),
        token_b=token(),
        token_w=token(),
        mode=draw(st.integers(0, 1)),
        clock=draw(st.integers(0, kappa_max)),
        hits=draw(st.integers(0, psi)),
        signal_r=draw(st.integers(0, kappa_max)),
        bullet=draw(st.integers(0, 2)),
        shield=draw(st.integers(0, 1)),
        signal_b=draw(st.integers(0, 1)),
    )


@settings(max_examples=300, deadline=None)
@given(agent_states(), agent_states())
def test_range_preservation_property(l, r):
    l2, r2 = fused_pair(l, r, P4)
    l2.validate(P4)
    r2.validate(P4)


@settings(max_examples=300, deadline=None)
@given(agent_states(), agent_states())
def test_fused_equals_chained_property(l, r):
    assert fused_pair(l, r, P4) == reference_pair(l, r, P4)


def test_valid_tokens_with_consistent_dists_stay_valid():
    # a locally settled distance chain never lets the relay emit an
    # off-track token (it may still delete tokens)
    rng = np.random.Generator(np.random.PCG64(37))
    psi, two_psi = P4.psi, P4.two_psi
    legal = legal_shuttle_states(psi)
    legal_by_rel = {}
    for rel, off in legal:
        legal_by_rel.setdefault(rel, []).append(off)

    def sample_token(dist, d):
        rel = (dist + d) % two_psi
        offs = legal_by_rel.get(rel)
        if offs is None or rng.integers(0, 3) == 0:
            return None
        return token(
            int(offs[rng.integers(0, len(offs))]),
            int(rng.integers(0, 2)),
            int(rng.integers(0, 2)),
        )

    checked = 0
    for _ in range(20_000):
        ld = int(rng.integers(0, two_psi))
        rd = (ld + 1) % two_psi
        l = AgentState(
            dist=ld,
            b=int(rng.integers(0, 2)),
            mode=CONSTRUCT,
            token_b=sample_token(ld, 0),
            token_w=sample_token(ld, psi),
        )
        r = AgentState(
            dist=rd,
            b=int(rng.integers(0, 2)),
            mode=int(rng.integers(0, 2)),
            token_b=sample_token(rd, 0),
            token_w=sample_token(rd, psi),
        )
        for color, d in (("B", 0), ("W", psi)):
            l2, r2 = l.copy(), r.copy()
            relay(l2, r2, color)
            for holder in (l2, r2):
                tok = holder.token_b if color == "B" else holder.token_w
                if tok is not None:
                    checked += 1
                    assert not _off_track(holder.dist, token_fields(tok)[0], d, two_psi, psi)
    assert checked > 10_000


# --------------------------------------------------------------------------
# the fused loop's relay tables
# --------------------------------------------------------------------------

@pytest.mark.parametrize("slot", ["token_b", "token_w"])
@pytest.mark.parametrize("psi", [2, 3])
def test_fused_relay_equals_reference_on_every_prestate(psi, slot):
    # every pre-state of one color's relay, the other color's slots empty:
    # random pairs may miss a wrong table entry for a rare (token, dist),
    # this cannot.  A responder clock of 0 or kappa_max makes it construct
    # or detect.  At psi = 3, where offsets -2 and 3 first appear, two bits
    # stay 0 to fit the time: l.last, which the distance block rewrites
    # before the relays read it, and r.b, which only an arrival's value bit
    # meets; a constructing responder takes that bit, so a wrong one shows.
    p = ProtocolParams(n=2**psi, psi=psi, kappa_max=32 * psi)
    slots = (None, *legal_tokens(psi))
    dists = range(p.two_psi)
    bits = (0, 1)
    pinned = bits if psi == 2 else (0,)  # l.last and r.b
    checked = 0
    for lt, rt, ld, rd, llast, rlast, lb, rb, clock, leader in itertools.product(
        slots, slots, dists, dists, pinned, bits, bits, pinned, (0, p.kappa_max), bits
    ):
        l = AgentState(b=lb, dist=ld, last=llast)
        r = AgentState(leader=leader, b=rb, dist=rd, last=rlast, clock=clock)
        setattr(l, slot, lt)
        setattr(r, slot, rt)
        assert fused_pair(l, r, p) == reference_pair(l, r, p)
        checked += 1
    assert checked == len(slots) ** 2 * p.two_psi**2 * 2**4 * len(pinned) ** 2


# SHA-256 of repr(_relay_tables(psi)), as built by the earlier builder that
# searched the dists for one that keeps a moved token: the prestate test
# above covers psi = 2 and 3 only, and C8 draws random pairs
_RELAY_TABLE_DIGESTS = {
    2: "2926e18fbbbd8e1771867d131bac12e70234634774c9cc6d158c98aedc89c760",
    3: "7b3267deb9f199eed6b0b88ac6f681fa8a233988472f7f7331e9350eacd4048b",
    4: "e8758f6ac4202a5d652d12a72a03729c58fc498b576370ca7f4a72157ad1515c",
    5: "f473a067565461121edfdb12a55315a41947d0817d1b87480ab526fe1419a9e5",
    6: "fa874f5f222b36023d45d1a848a3aac79c6ecaf8fe2a03090f8601919532df10",
    7: "16ba5bd4d66af3d47bc768560c8173de7891d75583bb4dc51e1159a6879ac1c5",
    8: "4f7e669d0a949fc6aafcce4ae9ef07aad9846c1ebdf129ad70290d87b73ca8bc",
    12: "70c837c16de18bff10d925e79422ee482073baf4328e1c500a8c518c5aa15a04",
}


@pytest.mark.parametrize("psi", sorted(_RELAY_TABLE_DIGESTS))
def test_relay_tables_match_pinned_digest(psi):
    digest = hashlib.sha256(repr(transition._relay_tables(psi)).encode()).hexdigest()
    assert digest == _RELAY_TABLE_DIGESTS[psi]


@pytest.mark.parametrize("n", [8, 64])
def test_relay_tables_are_built_once_per_psi(n):
    # psi far above log2 n: the tables hold O(psi^2) entries, so a build
    # per run or per block would show in the time and in the cache misses
    p = ProtocolParams(n=n, psi=40, kappa_max=1280)
    cfg = random_configuration(p, 5)
    transition._relay_tables.cache_clear()
    start = time.perf_counter()
    fused = run(cfg, SchedulerStream(n, 6), 10 * n, lambda c: False)
    assert time.perf_counter() - start < 1.0
    assert run(cfg, SchedulerStream(n, 6), 10 * n, lambda c: False) == fused
    assert transition._relay_tables.cache_info().misses == 1
    reference = run(
        cfg, SchedulerStream(n, 6), 10 * n, lambda c: False, on_step=lambda *args: None
    )
    assert fused == reference


# --------------------------------------------------------------------------
# the fused loop's quiet branch
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 16, 64])
def test_fused_equals_reference_on_quiet_pairs_near_a_full_clock(n):
    # random pairs are almost never quiet (no leader, signal or bullet),
    # so draw quiet ones whose clocks sit one or two ticks below full: the
    # fused loop takes its quiet branch on every pair and leaves it on
    # those whose tick fills the responder's clock
    p = make_params(n)
    rng = np.random.Generator(np.random.PCG64(n))
    filled = 0
    for l, r in random_state_pairs(53 + n, 3000, p.psi, p.kappa_max):
        for a in (l, r):
            a.leader = a.signal_r = a.bullet = a.signal_b = 0
            a.mode = CONSTRUCT
            a.clock = p.kappa_max - int(rng.integers(1, 3))
        assert transition._quiet((l, r), p.kappa_max)
        expected = reference_pair(l, r, p)
        assert fused_pair(l, r, p) == expected
        filled += expected[1].mode == DETECT
    assert filled > 300


def test_quiet_holds_only_without_leader_signal_bullet_or_full_clock():
    kmax = P4.kappa_max
    assert transition._quiet([AgentState(), AgentState(clock=kmax - 1)], kmax)
    for field, value in [("leader", 1), ("signal_r", 1), ("bullet", 1), ("signal_b", 1),
                         ("mode", DETECT), ("clock", kmax)]:
        agents = [AgentState(), AgentState(**{field: value})]
        assert not transition._quiet(agents, kmax), field


# --------------------------------------------------------------------------
# the fused loop's settled branch
# --------------------------------------------------------------------------

def _settle_chain(agents, params) -> None:
    """Write the distance chain the leaders determine: the reference
    distance block, run in construction mode over every arc twice left to
    right (dist) and twice right to left (last).  Modes are restored."""
    n = len(agents)
    modes = [a.mode for a in agents]
    for a in agents:
        a.mode = CONSTRUCT
    for i in [*range(n), *range(n), *range(n - 1, -1, -1), *range(n - 1, -1, -1)]:
        _dist_last_inplace(agents[i], agents[(i + 1) % n], params.psi, params.two_psi, [])
    for a, mode in zip(agents, modes):
        a.mode = mode


@pytest.mark.parametrize("n", [2, 3, 5, 16, 17])
def test_settled_agrees_with_the_distance_block_on_random_rings(n):
    # uniform rings are almost never settled, so most rings get the chain
    # their leaders (or, with none, their dists) determine, and then at
    # most one dist, last or leader bit is changed
    p = make_params(n)
    rng = np.random.Generator(np.random.PCG64(n))
    verdicts = []
    for seed in range(300):
        agents = random_configuration(p, seed).agents
        if seed % 4 == 0:
            for a in agents:
                a.leader = 0
        if seed % 8 != 7:
            _settle_chain(agents, p)
        a = agents[int(rng.integers(0, n))]
        field = ("dist", "last", "leader", None)[int(rng.integers(0, 4))]
        if field == "dist":
            a.dist = (a.dist + int(rng.integers(1, p.two_psi))) % p.two_psi
        elif field is not None:
            setattr(a, field, 1 - getattr(a, field))
        expected = chain_settled(agents, p)
        assert transition._settled(agents, p.psi, p.two_psi) == expected, seed
        verdicts.append(expected)
    assert 30 < sum(verdicts) < 270


def _detecting_safe_ring(n: int):
    """A safe ring with every clock full and every agent detecting, leader
    at agent 0: a step whose initiator is not the leader keeps it so."""
    p = make_params(n)
    cfg = construct_S_PL(p, 1)
    for a in cfg.agents:
        a.clock = p.kappa_max
        a.mode = DETECT
    return p, cfg


def _kill_mid_block():
    # a live bullet left of the unshielded leader kills it on the second
    # step; on the third the old leader's arc no longer matches its chain
    p, cfg = _detecting_safe_ring(12)
    cfg.agents[11].bullet = 2
    cfg.agents[0].shield = 0
    return p, cfg, [5, 11, 11, 10, 0, 1], ("bhit", True)


def _id_bit_creation_mid_block(slot):
    # a rightward token one step from its target carries the wrong bit to a
    # detecting agent on the second step, which becomes a leader; on the
    # third its chain no longer matches
    p, cfg = _detecting_safe_ring(12)
    setattr(cfg.agents[2], slot, token(1, 1 - cfg.agents[3].b, 0))
    return p, cfg, [5, 2, 2, 1, 3, 4], ("bfire", "r", 2)


@pytest.mark.parametrize(
    "build",
    [_kill_mid_block, lambda: _id_bit_creation_mid_block("token_b"),
     lambda: _id_bit_creation_mid_block("token_w")],
    ids=["kill", "black_id_bit", "white_id_bit"],
)
def test_leader_change_mid_block_leaves_the_settled_branch(build):
    # the block starts settled and a leader bit changes on its second step:
    # every prefix of the block, run in one fused call with the flags run
    # derives, must equal the reference applied step by step
    p, cfg, indices, event = build()
    assert transition._settled(cfg.agents, p.psi, p.two_psi)
    assert not transition._quiet(cfg.agents, p.kappa_max)
    n = p.n
    reference = cfg.copy()
    for k, i in enumerate(indices, start=1):
        trace = []
        interact_traced(
            reference.agents[i], reference.agents[(i + 1) % n],
            p.psi, p.two_psi, p.kappa_max, trace,
        )
        if k == 2:
            assert event in trace
        fused = cfg.copy()
        flags = transition.interact_block(
            fused.agents, indices[:k], [(j + 1) % n for j in range(n)],
            p.psi, p.two_psi, p.kappa_max, False, True,
        )
        assert fused == reference, k
        assert flags == (False, k < 2)


# --------------------------------------------------------------------------
# public surface
# --------------------------------------------------------------------------

def test_transition_exports_one_reference_and_one_fast_path():
    public = {
        name
        for name, obj in vars(transition).items()
        if not name.startswith("_")
        and callable(obj)
        and getattr(obj, "__module__", None) == transition.__name__
    }
    assert public == {"interact_traced", "interact_block"}
    deleted = ("interact_ppl", "determine_mode", "create_leader_diststep",
               "move_token", "eliminate_leaders")
    assert [name for name in deleted if hasattr(ringleader, name)] == []
