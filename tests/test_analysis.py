"""Predicate tests, including the exhaustive leaderless-imperfection oracle
and an increment-arithmetic oracle for token correctness."""
import hashlib
import math
import time

import numpy as np
import pytest

from ringleader import analysis, transition
from ringleader.analysis import (
    NoBorderError,
    NoLiveBulletError,
    NoTokenError,
    PreconditionError,
    Segment,
    TokenColor,
    construct_S_PL,
    in_C_DL,
    in_C_PB,
    in_S_PL,
    is_peaceful,
    is_perfect,
    leader_count,
    leaderless_settled,
    nearest_leader_distances,
    segment_id,
    segments,
    token_is_correct,
    token_is_valid,
)
from ringleader.core.params import InvalidSizeError, ProtocolParams, make_params
from ringleader.core.scheduler import SchedulerStream
from ringleader.core.sim import run, step
from ringleader.core.state import AgentState, Configuration, legal_tokens, token, token_fields
from ringleader.core.state import random_configuration
from ringleader.harness import multi_leader_configuration

from conftest import chain_settled
from test_transition import legal_shuttle_states


def ring(params, overrides_by_index=None):
    """All-default agents with per-index field overrides."""
    agents = [AgentState() for _ in range(params.n)]
    for idx, fields in (overrides_by_index or {}).items():
        for name, value in fields.items():
            setattr(agents[idx], name, value)
    return Configuration(params, agents)


P16 = make_params(16)  # psi=4
P8 = make_params(8)  # psi=3
P4 = make_params(4)  # psi=2


# --------------------------------------------------------------------------
# leader distances
# --------------------------------------------------------------------------

def test_distances_at_leader():
    cfg = ring(P4, {0: {"leader": 1}})
    assert nearest_leader_distances(cfg, 0) == (0, 0)


def test_distances_counting():
    cfg = ring(P4, {0: {"leader": 1}})
    assert nearest_leader_distances(cfg, 1) == (1, 3)
    assert nearest_leader_distances(cfg, 3) == (3, 1)


def test_distances_no_leader():
    cfg = ring(P4)
    assert nearest_leader_distances(cfg, 2) == (math.inf, math.inf)


# --------------------------------------------------------------------------
# segments
# --------------------------------------------------------------------------

def test_two_segments_on_four_ring():
    cfg = ring(P4)
    for i, d in enumerate((0, 1, 2, 3)):
        cfg.agents[i].dist = d
    assert segments(cfg) == [Segment(0, 2), Segment(2, 2)]


def test_three_equal_segments():
    p6 = ProtocolParams(n=6, psi=3, kappa_max=96)
    cfg = ring(p6)
    for i, d in enumerate((0, 1, 3, 4, 0, 1)):
        cfg.agents[i].dist = d
    assert segments(cfg) == [Segment(0, 2), Segment(2, 2), Segment(4, 2)]


def test_no_border_error():
    cfg = ring(P4)
    for a in cfg.agents:
        a.dist = 1
    with pytest.raises(NoBorderError):
        segments(cfg)


def test_single_border_spans_ring():
    cfg = ring(P4, {2: {"dist": 0}})
    for i in (0, 1, 3):
        cfg.agents[i].dist = 1
    assert segments(cfg) == [Segment(2, 4)]


def test_segment_id_lsb_at_border():
    cfg = ring(P16)
    for i, d in enumerate(range(16)):
        cfg.agents[i].dist = d % 8
    for i, bit in zip(range(4), (1, 0, 0, 1)):
        cfg.agents[i].b = bit
    seg = segments(cfg)[0]
    assert seg == Segment(0, 4)
    assert segment_id(cfg, seg) == 9


def test_segment_id_all_zero_and_all_one():
    cfg = ring(P16)
    for i in range(16):
        cfg.agents[i].dist = i % 8
    segs = segments(cfg)
    assert segment_id(cfg, segs[0]) == 0
    for j in range(4, 8):
        cfg.agents[j].b = 1
    assert segment_id(cfg, segs[1]) == 15


# --------------------------------------------------------------------------
# perfection and the leaderless oracle
# --------------------------------------------------------------------------

def test_perfect_single_leader_four_ring_any_bits():
    for bits in range(16):
        cfg = ring(P4, {0: {"leader": 1}})
        for i in range(4):
            cfg.agents[i].dist = i
            cfg.agents[i].b = (bits >> i) & 1
        assert is_perfect(cfg)


def test_leaderless_consistent_rings_never_perfect_exhaustive():
    # every leaderless ring with a cyclically consistent distance chain at
    # n=4, psi=2: two distinct border phases x 16 bit vectors = 32 cases
    cases = 0
    for phase in range(2):
        for bits in range(16):
            cfg = ring(P4)
            for i in range(4):
                cfg.agents[i].dist = (i + phase) % 4
                cfg.agents[i].b = (bits >> i) & 1
            assert not is_perfect(cfg)
            cases += 1
    assert cases == 32


def test_leaderless_consistent_rings_never_perfect_sampled_n16():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(200):
        cfg = ring(P16)
        phase = int(rng.integers(0, 8))
        for i in range(16):
            cfg.agents[i].dist = (i + phase) % 8
            cfg.agents[i].b = int(rng.integers(0, 2))
        assert not is_perfect(cfg)


def test_broken_id_chain_detected():
    # psi=7 ring, adjacent full segments carrying 15 then 8, no leader flank
    p = ProtocolParams(n=28, psi=7, kappa_max=224)
    cfg = ring(p, {0: {"leader": 1}})
    for i in range(28):
        cfg.agents[i].dist = i % 14
    def set_segment(start, value):
        for j in range(7):
            cfg.agents[start + j].b = (value >> j) & 1
    set_segment(0, 14)
    set_segment(7, 15)
    set_segment(14, 8)
    assert not is_perfect(cfg)
    set_segment(14, 16)  # the correct successor ID repairs perfection
    assert is_perfect(cfg)


def test_imperfect_when_leader_dist_nonzero():
    cfg = ring(P4, {0: {"leader": 1, "dist": 1}})
    for i in range(1, 4):
        cfg.agents[i].dist = (1 + i) % 4
    assert not is_perfect(cfg)


def test_borderless_ring_not_perfect():
    cfg = ring(P4)
    for a in cfg.agents:
        a.dist = 1
    assert not is_perfect(cfg)


# --------------------------------------------------------------------------
# token validity
# --------------------------------------------------------------------------

def test_validity_matches_trajectory_oracle_exhaustively():
    for params in (P4, P8, P16):
        psi, two_psi = params.psi, params.two_psi
        legal = legal_shuttle_states(psi)
        offsets = list(range(-psi + 1, 0)) + list(range(1, psi + 1))
        cfg = ring(params)
        for dist in range(two_psi):
            for off in offsets:
                cfg.agents[0].dist = dist
                cfg.agents[0].token_b = token(off, 0, 0)
                cfg.agents[0].token_w = token(off, 0, 0)
                assert token_is_valid(cfg, 0, TokenColor.BLACK) == (
                    (dist, off) in legal
                )
                rel = (dist + psi) % two_psi
                assert token_is_valid(cfg, 0, TokenColor.WHITE) == (
                    (rel, off) in legal
                )


def test_fresh_border_token_is_valid():
    cfg = ring(P16, {0: {"dist": 0, "token_b": token(4, 0, 1)}})
    assert token_is_valid(cfg, 0, TokenColor.BLACK)


def test_midleg_tokens_are_valid():
    # both of these sit on legal legs (rounds 0 and 1 of the shuttle)
    cfg = ring(P16, {0: {"dist": 2, "token_b": token(2, 0, 0)}})
    assert token_is_valid(cfg, 0, TokenColor.BLACK)
    cfg.agents[0].token_b = token(3, 0, 0)
    assert token_is_valid(cfg, 0, TokenColor.BLACK)


def test_border_targeting_tokens_are_invalid():
    cfg = ring(P16, {0: {"dist": 7, "token_b": token(1, 0, 0)}})
    assert not token_is_valid(cfg, 0, TokenColor.BLACK)
    cfg.agents[0].dist = 2
    cfg.agents[0].token_b = token(-2, 0, 0)
    assert not token_is_valid(cfg, 0, TokenColor.BLACK)


def test_no_token_error():
    cfg = ring(P16)
    with pytest.raises(NoTokenError):
        token_is_valid(cfg, 3, TokenColor.BLACK)


@pytest.mark.parametrize("which", ["black", "white", None])
@pytest.mark.parametrize("check", [token_is_valid, token_is_correct])
def test_token_color_must_be_a_token_color(check, which):
    # agent 0 holds a valid, correct black token and no white one
    work = construct_S_PL(P16, 1).copy()
    b0 = work.agents[0].b
    work.agents[0].token_b = token(P16.psi, 1 - b0, b0)
    with pytest.raises(InvalidSizeError):
        check(work, 0, which)


# --------------------------------------------------------------------------
# token correctness against the increment oracle
# --------------------------------------------------------------------------

def shuttle_payload_oracle(bits: list[int]) -> list[tuple[int, int]]:
    """Per-round (value, carry) payload of a token relaying bits+1.

    Round x carries the x-th result bit of the binary increment of the home
    segment's ID and the carry going out of position x.
    """
    out = []
    c = 1
    for b in bits:
        out.append((b ^ c, b & c))
        c = b & c
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("pair_index", [0, 1, 2])
def test_correctness_accepts_exactly_the_oracle_payload(seed, pair_index):
    cfg = construct_S_PL(P16, seed)
    psi = P16.psi
    anchor = pair_index * psi
    color = TokenColor.BLACK if pair_index % 2 == 0 else TokenColor.WHITE
    bits = [cfg.agents[anchor + j].b for j in range(psi)]
    expected = shuttle_payload_oracle(bits)
    # verify the oracle against plain integer arithmetic as well
    home_id = sum(b << j for j, b in enumerate(bits))
    incremented = (home_id + 1) % (1 << psi)
    for x, (value, _) in enumerate(expected):
        assert value == (incremented >> x) & 1

    legal = legal_shuttle_states(psi)
    for x in range(psi):
        states = [(j, off) for (j, off) in legal if
                  (off > 0 and j + off == psi + x) or (off < 0 and j + off == x + 1)]
        assert states
        for j, off in states:
            pos = anchor + j
            for value in (0, 1):
                for carry in (0, 1):
                    work = cfg.copy()
                    tok = token(off, value, carry)
                    if color is TokenColor.BLACK:
                        work.agents[pos].token_b = tok
                    else:
                        work.agents[pos].token_w = tok
                    want = (value, carry) == expected[x]
                    assert token_is_correct(work, pos, color) == want


def test_fresh_token_at_all_ones_segment_is_correct():
    p2 = make_params(4)  # psi=2
    cfg = construct_S_PL(p2, 0)
    for j in range(2):
        cfg.agents[j].b = 1  # home segment reads 3: increment wraps to 0
    work = cfg.copy()
    work.agents[0].token_b = token(2, 0, 1)  # the generation payload for b=1
    assert token_is_correct(work, 0, TokenColor.BLACK)
    work.agents[0].token_b = token(2, 0, 0)  # flipped carry
    assert not token_is_correct(work, 0, TokenColor.BLACK)


def test_mutating_home_bits_invalidates_correctness():
    cfg = construct_S_PL(P16, 9)
    work = cfg.copy()
    work.agents[0].token_b = token(P16.psi, 1 - work.agents[0].b, work.agents[0].b)
    assert token_is_correct(work, 0, TokenColor.BLACK)
    work.agents[1].b ^= 1  # the home segment's ID changed under the token
    before = token_is_correct(work, 0, TokenColor.BLACK)
    work.agents[0].b ^= 1
    after = token_is_correct(work, 0, TokenColor.BLACK)
    assert not (before and after)  # at least one flip must break it


def test_correctness_requires_settled_ring():
    cfg = random_configuration(P16, 1)
    cfg.agents[0].token_b = token(4, 0, 1)
    with pytest.raises(PreconditionError):
        token_is_correct(cfg, 0, TokenColor.BLACK)


def test_correctness_rejects_invalid_token():
    cfg = construct_S_PL(P16, 2)
    work = cfg.copy()
    work.agents[7].token_b = token(1, 0, 0)  # dist 7, targets the border
    with pytest.raises(PreconditionError):
        token_is_correct(work, 7, TokenColor.BLACK)


def test_correctness_rejects_token_without_working_pair():
    cfg = construct_S_PL(P16, 3)
    work = cfg.copy()
    # white token anchored at the final segment's border: no working pair
    work.agents[13].token_w = token(3, 0, 1)
    with pytest.raises(PreconditionError):
        token_is_correct(work, 13, TokenColor.WHITE)


def _out_of_range_frame():
    """A safe frame whose leader holds the black token ``token(5, 0, 1)``:
    offset psi + 1, which no legal token has."""
    cfg = construct_S_PL(P16, 1).copy()
    cfg.agents[0].token_b = token(P16.psi + 1, 0, 1)
    with pytest.raises(ValueError, match=r"agents\[0\]\.token_b"):
        cfg.validate()
    return cfg


def test_out_of_range_token_is_not_valid():
    assert not token_is_valid(_out_of_range_frame(), 0, TokenColor.BLACK)


def test_out_of_range_token_is_not_correct():
    with pytest.raises(PreconditionError):
        token_is_correct(_out_of_range_frame(), 0, TokenColor.BLACK)


def _float_token_frame():
    """A safe frame whose leader holds its fresh black token as a ``float``,
    which ``validate`` rejects; the int twin is correct.  A token cannot be
    built from ``bool`` or non-bit parts at all."""
    for parts in ((4, True, False), (1, 2, 0)):
        with pytest.raises(ValueError, match="is not a bit"):
            token(*parts)
    cfg = construct_S_PL(P16, 9).copy()
    b0 = cfg.agents[0].b
    cfg.agents[0].token_b = token(P16.psi, 1 - b0, b0)
    assert token_is_correct(cfg, 0, TokenColor.BLACK)
    cfg.agents[0].token_b = float(cfg.agents[0].token_b)
    with pytest.raises(ValueError, match=r"agents\[0\]\.token_b"):
        cfg.validate()
    return cfg


def test_float_token_is_not_valid():
    assert not token_is_valid(_float_token_frame(), 0, TokenColor.BLACK)


def test_float_token_is_not_correct():
    with pytest.raises(PreconditionError):
        token_is_correct(_float_token_frame(), 0, TokenColor.BLACK)


def test_out_of_range_token_is_not_safe():
    assert not in_S_PL(_out_of_range_frame())


def test_no_single_out_of_range_token_is_safe():
    # every offset in [-2psi, 2psi] outside the legal range, at every
    # position, in either slot, with every payload
    base = construct_S_PL(P16, 1)
    assert in_S_PL(base)
    psi = P16.psi
    legal = {token_fields(t)[0] for t in legal_tokens(psi)}
    safe = []
    for offset in set(range(-2 * psi, 2 * psi + 1)) - legal:
        for i in range(P16.n):
            for slot in ("token_b", "token_w"):
                for value in (0, 1):
                    for carry in (0, 1):
                        work = base.copy()
                        setattr(work.agents[i], slot, token(offset, value, carry))
                        if in_S_PL(work):
                            safe.append((i, slot, offset, value, carry))
    assert safe == []


# --------------------------------------------------------------------------
# peaceful bullets
# --------------------------------------------------------------------------

def test_peaceful_basic():
    cfg = ring(P4, {0: {"leader": 1, "shield": 1}, 2: {"bullet": 2}})
    assert is_peaceful(cfg, 2)


def test_not_peaceful_without_any_leader():
    cfg = ring(P4, {2: {"bullet": 2}})
    assert not is_peaceful(cfg, 2)


def test_not_peaceful_with_signal_on_path():
    cfg = ring(
        P4, {0: {"leader": 1, "shield": 1}, 1: {"signal_b": 1}, 2: {"bullet": 2}}
    )
    assert not is_peaceful(cfg, 2)


def test_not_peaceful_unshielded_leader():
    cfg = ring(P4, {0: {"leader": 1, "shield": 0}, 2: {"bullet": 2}})
    assert not is_peaceful(cfg, 2)


def test_signal_behind_leader_is_harmless():
    cfg = ring(
        P4, {0: {"leader": 1, "shield": 1}, 3: {"signal_b": 1}, 2: {"bullet": 2}}
    )
    assert is_peaceful(cfg, 2)


def test_signal_on_bullet_agent_breaks_peace():
    cfg = ring(
        P4, {0: {"leader": 1, "shield": 1}, 2: {"bullet": 2, "signal_b": 1}}
    )
    assert not is_peaceful(cfg, 2)


def test_no_live_bullet_error():
    cfg = ring(P4, {2: {"bullet": 1}})
    with pytest.raises(NoLiveBulletError):
        is_peaceful(cfg, 2)


# --------------------------------------------------------------------------
# configuration sets
# --------------------------------------------------------------------------

def test_zero_leader_fails_all_sets():
    cfg = ring(P8)
    assert not in_C_PB(cfg)
    assert not in_C_DL(cfg)
    assert not in_S_PL(cfg)


def test_constructed_safe_set_member(params16):
    cfg = construct_S_PL(params16, 0)
    assert in_C_PB(cfg) and in_C_DL(cfg) and in_S_PL(cfg)
    assert leader_count(cfg) == 1


def test_two_peaceful_leaders_in_cpb_not_cdl():
    cfg = multi_leader_configuration(make_params(32), 2, seed=4)
    assert in_C_PB(cfg)
    assert not in_C_DL(cfg)
    assert not in_S_PL(cfg)


def test_rotation_invariance():
    base = construct_S_PL(P16, 11)
    for shift in (1, 5, 9):
        rotated = Configuration(
            P16, [base.agents[(i - shift) % 16].copy() for i in range(16)]
        )
        assert in_S_PL(rotated)
        assert in_C_DL(rotated)


def test_unpeaceful_bullet_fails_cpb():
    cfg = construct_S_PL(P16, 1)
    work = cfg.copy()
    work.agents[5].bullet = 2
    work.agents[3].signal_b = 1  # between the leader and the bullet
    assert not in_C_PB(work)
    assert not in_S_PL(work)


def test_broken_dist_fails_cdl():
    cfg = construct_S_PL(P16, 1)
    work = cfg.copy()
    work.agents[6].dist = (work.agents[6].dist + 1) % P16.two_psi
    assert not in_C_DL(work)
    assert not in_S_PL(work)


def test_broken_last_fails_cdl():
    cfg = construct_S_PL(P16, 1)
    work = cfg.copy()
    work.agents[2].last = 1
    assert not in_C_DL(work)


def test_broken_chain_fails_s_pl():
    cfg = construct_S_PL(P16, 1)
    work = cfg.copy()
    work.agents[5].b ^= 1  # S_1 sits in the constrained chain
    assert in_C_DL(work)
    assert not in_S_PL(work)


def test_final_segment_bits_unconstrained():
    cfg = construct_S_PL(P16, 1)
    work = cfg.copy()
    work.agents[13].b ^= 1  # S_3 is the final segment
    assert in_S_PL(work)


def test_invalid_token_fails_s_pl():
    cfg = construct_S_PL(P16, 1)
    work = cfg.copy()
    work.agents[7].token_b = token(1, 0, 0)
    assert not in_S_PL(work)


def test_wrong_payload_token_fails_s_pl():
    cfg = construct_S_PL(P16, 1)
    work = cfg.copy()
    b0 = work.agents[0].b
    work.agents[0].token_b = token(P16.psi, b0, b0)  # value should be 1-b0
    assert not in_S_PL(work)


def test_correct_fresh_token_keeps_s_pl():
    cfg = construct_S_PL(P16, 1)
    work = cfg.copy()
    b0 = work.agents[0].b
    work.agents[0].token_b = token(P16.psi, 1 - b0, b0)
    assert in_S_PL(work)


def _safe_with_tokens(n, seed):
    """A safe configuration reached by a run from a safe start, holding at
    least one black and one white token."""
    def holds_both(work):
        agents = work.agents
        return any(a.token_b for a in agents) and any(a.token_w for a in agents)

    final, _, stopped = run(
        construct_S_PL(make_params(n), seed), SchedulerStream(n, seed + 1), 1000 * n, holds_both
    )
    assert stopped and in_S_PL(final)
    return final


@pytest.mark.parametrize("mutation", ["full-segment b", "token value", "leader moved"])
def test_s_pl_verdict_follows_in_place_mutation(mutation):
    # the same object is checked before and after the change, so a cache
    # keyed on anything but the ring's current contents would miss it
    cfg = _safe_with_tokens(16, 4)
    agents = cfg.agents
    lead = next(i for i, a in enumerate(agents) if a.leader)
    before = [a.copy() for a in agents]
    assert in_S_PL(cfg)
    if mutation == "full-segment b":
        agents[(lead + P16.psi) % 16].b ^= 1  # bit 0 of S_1's ID
    elif mutation == "token value":
        i = next(i for i, a in enumerate(agents) if a.token_w is not None)
        offset, value, carry = token_fields(agents[i].token_w)
        agents[i].token_w = token(offset, 1 - value, carry)
    else:
        agents[lead].leader = 0
        agents[(lead + 1) % 16].leader = 1
    assert not in_S_PL(cfg)
    cfg.agents[:] = before
    assert in_S_PL(cfg)


def _fresh_s_pl(cfg):
    """``in_S_PL`` with the cached chain entry and both tables emptied first."""
    analysis._chain = analysis._NO_CHAIN
    analysis._layout.cache_clear()
    return in_S_PL(cfg)


@pytest.mark.parametrize("value", [True, 2])
def test_leader_field_counts_by_its_truth(value):
    # validate admits only 0 and 1, but the predicates read the field as
    # ``if a.leader`` does
    cfg = construct_S_PL(P16, 1)
    cfg.agents[0].leader = value
    assert in_C_DL(cfg) and in_S_PL(cfg)
    cfg.agents[3].leader = value
    assert not in_C_DL(cfg) and not in_S_PL(cfg)
    cfg.agents[3].leader = None
    assert in_C_DL(cfg) and in_S_PL(cfg)


def test_s_pl_interleaved_frames_match_fresh_calls():
    """Two safe frames with different starting IDs at each of two ring sizes,
    the same two IDs at both sizes.  Each frame also carries a fresh black
    token at its leader that is correct for its own ID or for the other
    frame's, or a wrong one at a later black border.  Checked in turn, every
    verdict must be the one a call with no cached entry or table gives."""
    configs = []
    # (n, seeds whose S_0 IDs are 12 and 13, a black border past agent 7)
    for n, seeds, far in ((16, (3, 0), 8), (32, (24, 9), 20)):
        p = make_params(n)
        frames = [construct_S_PL(p, seed) for seed in seeds]
        assert [segment_id(f, Segment(0, p.psi)) for f in frames] == [12, 13]
        for frame in frames:
            configs.append((frame, True))
            for other in frames:
                b0 = other.agents[0].b
                work = frame.copy()
                work.agents[0].token_b = token(p.psi, 1 - b0, b0)
                configs.append((work, other is frame))
            work = frame.copy()
            b = work.agents[far].b
            work.agents[far].token_b = token(p.psi, b, b)  # value should be 1-b
            configs.append((work, False))
    order = configs[::2] + configs[1::2]  # alternate sizes and frames
    for cfg, want in order:
        assert _fresh_s_pl(cfg) == want
    for _ in range(3):
        for cfg, want in order:
            assert in_S_PL(cfg) == want


def test_s_pl_cache_keys_match_fresh_calls():
    """Safe frames and variants of them, checked in a seeded shuffled order:
    frames whose parameters are equal but distinct objects, frames with
    different starting IDs under one parameters object, and frames at
    psi = 40.  Every verdict must be the one a call with empty caches gives."""
    def variants(frame):
        p = frame.params
        b0 = frame.agents[0].b
        out = [frame]
        for k, tok in ((p.psi, None), (0, None), (0, token(p.psi, 1 - b0, b0)), (0, token(p.psi, b0, b0))):
            work = frame.copy()
            if tok is None:
                work.agents[k].b ^= 1  # bit 0 of S_1's ID, or of S_0's (a new key)
            else:
                work.agents[k].token_b = tok  # a correct or a wrong fresh token
            out.append(work)
        return out

    configs = []
    # n = 15 and 16 share psi = 4 and the full-segment length, not the layout
    makes = (
        lambda: make_params(16),
        lambda: make_params(15),
        lambda: ProtocolParams(n=64, psi=40, kappa_max=1280),
    )
    for make in makes:
        shared = make()
        for seed in range(3):
            for p in (shared, make()):  # one object for every seed, then a fresh equal one
                configs += variants(construct_S_PL(p, seed))
    fresh = [_fresh_s_pl(cfg) for cfg in configs]
    assert 0 < sum(fresh) < len(fresh)
    rng = np.random.Generator(np.random.PCG64(25))
    for _ in range(3):
        for k in rng.permutation(len(configs)).tolist():
            assert in_S_PL(configs[k]) == fresh[k], k


def test_equal_parameters_take_the_cached_entry_over(monkeypatch):
    # the entry is keyed by equal parameters: a copy of a safe ring under a
    # fresh make_params(n) is judged without a rebuild, and only a new
    # starting ID under that object builds a new entry
    builds = []
    build = analysis._build_chain

    def counting_build(p, x0_bits):
        builds.append(x0_bits)
        return build(p, x0_bits)

    monkeypatch.setattr(analysis, "_build_chain", counting_build)
    safe = construct_S_PL(make_params(32), 0)
    assert in_S_PL(safe)
    builds.clear()
    fresh = make_params(32)
    assert fresh is not safe.params
    assert in_S_PL(Configuration(fresh, [a.copy() for a in safe.agents]))
    assert builds == []
    x0 = segment_id(safe, Segment(0, fresh.psi))
    other = next(
        c for c in (construct_S_PL(fresh, seed) for seed in range(1, 20))
        if segment_id(c, Segment(0, fresh.psi)) != x0
    )
    assert in_S_PL(other)
    assert len(builds) == 1


@pytest.mark.parametrize("n", [8, 64])
def test_checks_build_nothing_per_possible_id(n):
    # psi may be far above log2 n; a check that built anything for each of
    # the 2**psi starting IDs would not return
    p = ProtocolParams(n=n, psi=40, kappa_max=1280)
    cfg = construct_S_PL(p, 3)
    work = cfg.copy()
    b0 = work.agents[0].b
    work.agents[0].token_b = token(p.psi, 1 - b0, b0)
    start = time.perf_counter()
    assert in_C_DL(cfg) and in_S_PL(cfg)
    # the leader's token works only when S_0 is a full segment
    assert in_S_PL(work) == (n > p.psi)
    if n > p.psi:
        assert token_is_correct(work, 0, TokenColor.BLACK)
        work.agents[0].token_b = token(p.psi, b0, b0)
        assert not in_S_PL(work)
    assert time.perf_counter() - start < 1.0


def test_peaceful_bullet_set_is_closed():
    # rejection-sample adversarial configurations that happen to have every
    # live bullet peaceful: runs from them must stay that way and never
    # lose the last leader
    from ringleader.core.scheduler import SchedulerStream
    from ringleader.core.sim import run

    p = P8
    sampled = []
    seed = 0
    while len(sampled) < 20 and seed < 20_000:
        cfg = random_configuration(p, seed)
        if in_C_PB(cfg):
            sampled.append((seed, cfg))
        seed += 1
    assert len(sampled) == 20
    for seed, cfg in sampled:
        failures = []

        def check(work):
            if leader_count(work) < 1:
                failures.append("lost all leaders")
            elif not in_C_PB(work):
                failures.append("left the peaceful set")
            return bool(failures)

        sched = SchedulerStream(p.n, seed + 1_000_000)
        _, steps, _ = run(cfg, sched, 100_000 // p.n * p.n, check)
        assert not failures, f"seed {seed} {failures[0]} by step {steps}"


@pytest.mark.parametrize("n", [8, 16, 32])
def test_every_arc_keeps_a_sampled_safe_ring_safe(n):
    # one-step closure: C2 checks a safe walk every n steps; here every arc's
    # step from each of those checks must stay in S_PL with the same leader
    for seed in range(3):
        start = construct_S_PL(make_params(n), seed)
        home = next(i for i, a in enumerate(start.agents) if a.leader)
        samples = []

        def sample(work):
            samples.append(work.copy())
            return False

        run(start, SchedulerStream(n, seed + 1), 200 * n, sample)
        assert len(samples) == 201
        for k, c in enumerate(samples):
            assert in_S_PL(c) and c.agents[home].leader, (seed, k)
            for i in range(n):
                after = step(c, i)
                assert in_S_PL(after) and after.agents[home].leader, (seed, k, i)


_MUTABLE_FIELDS = (
    "leader", "b", "dist", "last", "bullet", "shield", "signal_b", "token",
)


def _mutate_one_field(cfg, rng):
    """A copy of ``cfg`` with one field of one agent set to another legal value."""
    p = cfg.params
    work = cfg.copy()
    agent = work.agents[int(rng.integers(0, p.n))]
    field = _MUTABLE_FIELDS[int(rng.integers(0, len(_MUTABLE_FIELDS)))]
    if field == "dist":
        agent.dist = (agent.dist + int(rng.integers(1, p.two_psi))) % p.two_psi
    elif field == "bullet":
        agent.bullet = (agent.bullet + int(rng.integers(1, 3))) % 3
    elif field == "token":
        tokens = (None, *legal_tokens(p.psi))
        token = tokens[int(rng.integers(0, len(tokens)))]
        setattr(agent, "token_b" if rng.integers(0, 2) else "token_w", token)
    else:
        setattr(agent, field, 1 - getattr(agent, field))
    return work


def _predicate_corpus(n):
    """Seeded configurations at ring size n from three sources: states along
    safe runs (rotated so the leader sits anywhere), uniform-random
    configurations, and the safe states with one field of one agent mutated."""
    from ringleader.core.scheduler import SchedulerStream
    from ringleader.core.sim import run

    params = make_params(n)
    rng = np.random.Generator(np.random.PCG64(n))
    safe = []

    def sample(work):
        shift = int(rng.integers(0, n))
        rotated = work.copy()
        rotated.agents = rotated.agents[shift:] + rotated.agents[:shift]
        safe.append(rotated)
        return False

    for seed in range(3):
        start = construct_S_PL(params, seed)
        run(start, SchedulerStream(n, seed + 100), 200 * n, sample)
    uniform = [random_configuration(params, 1000 + seed) for seed in range(50)]
    mutated = [_mutate_one_field(c, rng) for c in safe for _ in range(4)]
    return safe + uniform + mutated


# (corpus size, in_S_PL-true, in_C_DL-true) per ring size, as evaluated by
# the predicates' earlier agent-by-agent implementation
_CORPUS_COUNTS = {
    2: (3065, 1646, 1947),
    3: (3065, 1597, 1930),
    5: (3065, 1569, 1888),
    8: (3065, 1474, 1950),
    16: (3065, 1461, 1918),
    32: (3065, 1405, 1957),
}


@pytest.mark.parametrize("n", sorted(_CORPUS_COUNTS))
def test_predicate_corpus_counts(n):
    corpus = _predicate_corpus(n)
    safe = [c for c in corpus if in_S_PL(c)]
    dl = [c for c in corpus if in_C_DL(c)]
    assert (len(corpus), len(safe), len(dl)) == _CORPUS_COUNTS[n]
    assert all(in_C_DL(c) for c in safe)
    for cfg in safe:
        for i, a in enumerate(cfg.agents):
            if a.token_b is not None:
                assert token_is_correct(cfg, i, TokenColor.BLACK)
            if a.token_w is not None:
                assert token_is_correct(cfg, i, TokenColor.WHITE)


# SHA-256 of the per-configuration verdicts of in_S_PL and in_C_DL over
# _predicate_corpus(n), one "01"-style pair per configuration, as evaluated
# by the predicates that read the b bits as one word through bytes
_CORPUS_DIGESTS = {
    2: "03c13cf306527fbbea059ca59cc4f9ed939fbd226bbdd361e9ab4f8426213c70",
    3: "6fa88ef7eb46318426d3d41f9ca0459f417672cd77a39568fd2902081d27d515",
    5: "1debba3ec27e595fd778d25d68b9c89dce0ff66eb0d9f9f2d9980907752da5b7",
    8: "b49e35efed50259fe8f9b7397121843a1c3c3975bc819f0fc02c4e6d198647c8",
    16: "964573cd583c646b32915daca4b523a23857d6651afacc447ed0c614f5939678",
    32: "39f639bdf4c9d5ec794feb0b0a65c2f8ddbe2d330fee4b1fd9b87fd44b0b9927",
}


@pytest.mark.parametrize("n", sorted(_CORPUS_COUNTS))
def test_predicate_corpus_verdicts_match_pinned_digest(n):
    verdicts = "".join(f"{int(in_S_PL(c))}{int(in_C_DL(c))}" for c in _predicate_corpus(n))
    assert hashlib.sha256(verdicts.encode()).hexdigest() == _CORPUS_DIGESTS[n]


# per ring size: (in_C_PB-true, live bullets, peaceful live bullets) over
# _predicate_corpus(n), and the SHA-256 of one "v:bits;" entry per
# configuration -- v the in_C_PB verdict, bits is_peaceful at each live
# bullet, left to right -- as evaluated by the is_peaceful that walked left
# from each bullet and the in_C_PB that called it once per live bullet
_PEACEFUL_VERDICTS = {
    2: (2704, 645, 412, "3226ebc11eb7380536f295b0d86d09805d7f4edec35de0d80e82339b22338064"),
    3: (2737, 723, 478, "20cfac4c5d2a4fdec1d7fb4077ac95454c1ab1cc31e4cfcb9b5d6037eea3cddc"),
    5: (2730, 1017, 699, "f7ffbc26f57632f24ef949634618db6536be15982e7c8e39b5179934229681cf"),
    8: (2806, 886, 578, "f36207e9eb6ca4c2a1e48058e972ed6bd23795bb109a34b512397590ca245554"),
    16: (2802, 1174, 763, "8e2fc1a0877825807643a9c050b99e1ac2e63f3d2ee485afd33607a8fedcf83b"),
    32: (2826, 1368, 777, "bac9622c0ad3aa95dc3648e065be49324dbc3b78bd4cd4b4d505b7205c15b538"),
}


@pytest.mark.parametrize("n", sorted(_PEACEFUL_VERDICTS))
def test_c_pb_and_peaceful_verdicts_match_pinned_digest(n):
    entries, in_pb, live, peaceful = [], 0, 0, 0
    for cfg in _predicate_corpus(n):
        bits = [int(is_peaceful(cfg, i)) for i, a in enumerate(cfg.agents) if a.bullet == 2]
        verdict = in_C_PB(cfg)
        in_pb, live, peaceful = in_pb + verdict, live + len(bits), peaceful + sum(bits)
        entries.append(f"{int(verdict)}:{''.join(map(str, bits))};")
    digest = hashlib.sha256("".join(entries).encode()).hexdigest()
    assert (in_pb, live, peaceful, digest) == _PEACEFUL_VERDICTS[n]


@pytest.mark.parametrize("n", sorted(_CORPUS_COUNTS))
def test_settled_agrees_with_the_distance_block_on_the_corpus(n):
    # the fused loop's settled branch skips the distance block: its scan
    # must say so exactly when that block would change or fire nothing, and
    # every configuration in C_DL has such a chain
    params = make_params(n)
    verdicts = []
    for cfg in _predicate_corpus(n):
        settled = transition._settled(cfg.agents, params.psi, params.two_psi)
        assert settled == chain_settled(cfg.agents, params)
        assert settled or not in_C_DL(cfg)
        verdicts.append(settled)
    assert 0 < sum(verdicts) < len(verdicts)


# --------------------------------------------------------------------------
# safe-set constructor details
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 4, 5, 8, 16, 33, 64])
def test_construct_all_sizes(n):
    p = make_params(n)
    for seed in (0, 1, 2):
        cfg = construct_S_PL(p, seed)
        cfg.validate()
        assert leader_count(cfg) == 1
        assert cfg.agents[0].leader == 1
        assert in_S_PL(cfg)
        assert is_perfect(cfg)


def test_construct_deterministic():
    assert construct_S_PL(P16, 5) == construct_S_PL(P16, 5)
    assert construct_S_PL(P16, 5) != construct_S_PL(P16, 6)


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_leaderless_settled_is_the_safe_ring_without_its_leader(n):
    params = make_params(n)
    safe, leaderless = construct_S_PL(params, 7), leaderless_settled(params, 7)
    leaderless.validate()
    assert leader_count(leaderless) == 0 and not in_S_PL(leaderless)
    assert transition._quiet(leaderless.agents, params.kappa_max)
    leaderless.agents[0].leader = leaderless.agents[0].shield = 1
    assert leaderless == safe
    with pytest.raises(InvalidSizeError):
        leaderless_settled(params, -1)


@pytest.mark.parametrize("start", ["safe", "leaderless"])
@pytest.mark.parametrize("n", [2, 3, 5, 16, 17, 64])
def test_only_the_safe_start_has_a_settled_chain(n, start):
    # the leaderless start keeps the safe ring's last flags, so its final
    # segment still says it precedes a leader; unless two_psi divides n, the
    # old leader's dist 0 also no longer follows its left neighbour's
    params = make_params(n)
    build = construct_S_PL if start == "safe" else leaderless_settled
    cfg = build(params, 7)
    assert transition._settled(cfg.agents, params.psi, params.two_psi) == (start == "safe")


def test_construct_chain_values():
    cfg = construct_S_PL(P16, 7)
    segs = segments(cfg)
    ids = [segment_id(cfg, s) for s in segs]
    assert ids[1] == (ids[0] + 1) % 16
    assert ids[2] == (ids[1] + 1) % 16


def test_leader_count_monte_carlo(params8):
    total = sum(
        leader_count(random_configuration(params8, seed)) for seed in range(10_000)
    )
    assert abs(total / 10_000 - 4.0) < 0.1


# agent-index entry points, and ``run``'s step budget: no value wraps round
# the ring, runs an arc or reaches the scheduler unchecked
BAD_ARGUMENTS = {
    "step": step,
    "nearest_leader_distances": nearest_leader_distances,
    "is_peaceful": is_peaceful,
    "token_is_valid": lambda c, i: token_is_valid(c, i, TokenColor.BLACK),
    "token_is_correct": lambda c, i: token_is_correct(c, i, TokenColor.BLACK),
    "run": lambda c, steps: run(c, SchedulerStream(c.params.n, 0), steps, lambda w: False),
}


@pytest.mark.parametrize(
    "entry, value",
    [(e, v) for e in BAD_ARGUMENTS if e != "run" for v in (-1, 16, True, 1.5)]
    + [("run", v) for v in (-1, True, 1.5)],
)
def test_entry_points_reject_bad_indices_and_budgets(entry, value):
    cfg = construct_S_PL(make_params(16), 3)
    with pytest.raises(InvalidSizeError):
        BAD_ARGUMENTS[entry](cfg, value)
