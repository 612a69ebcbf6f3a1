import hashlib
import json
import math
from decimal import Decimal

import numpy as np
import pytest

from conftest import random_agent
from ringleader.analysis import construct_S_PL
from ringleader.core.params import make_params
from ringleader.core.state import (
    CONSTRUCT,
    DETECT,
    AgentState,
    Configuration,
    field_values,
    legal_tokens,
    random_configuration,
    token,
    token_fields,
)


def test_same_seed_same_configuration(params8):
    assert random_configuration(params8, 1) == random_configuration(params8, 1)


def test_different_seeds_differ(params8):
    assert random_configuration(params8, 1) != random_configuration(params8, 2)


# sha256 prefixes of the sorted-key JSON snapshots of seeds 0..19, pinned
# from the builds that drew one scalar per field; keyed by (n, kappa_max)
PINNED_DIGESTS = {
    random_configuration: {
        (2, None): "cd92b0874d588cc8",
        (3, None): "cb4a50069eff3e97",
        (8, None): "c872a8219e25f12d",
        (16, None): "da50bf66b3b773e2",
        (64, None): "60d91ec47a68a50e",
        (128, None): "770fd23c96a2ceb4",
        (256, None): "216ec3b6564102fa",
        (16, 1 << 40): "a0e1b164e92e3712",
    },
    construct_S_PL: {
        (2, None): "2244604567810638",
        (3, None): "d9b3477622aa6175",
        (8, None): "937a00e10a07b5e9",
        (16, None): "e4cfa68c0a6df8e3",
        (64, None): "8f0e1c8fa2133d33",
        (128, None): "0466530cca2ccfa8",
        (256, None): "d77060edd6e74479",
        (16, 1 << 40): "2651a9e5a1925607",
    },
}


@pytest.mark.parametrize(
    "build, n, kappa_max",
    [(b, *key) for b, digests in PINNED_DIGESTS.items() for key in digests],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_builds_match_pinned_digests(build, n, kappa_max):
    h = hashlib.sha256()
    for seed in range(20):
        snap = build(make_params(n, kappa_max), seed).to_snapshot()
        h.update(json.dumps(snap, sort_keys=True).encode())
    assert h.hexdigest()[:16] == PINNED_DIGESTS[build][n, kappa_max]


@pytest.mark.parametrize("n, kappa_max", [(2, None), (9, None), (64, None), (16, 1 << 40)])
def test_random_configuration_is_the_per_field_draw(n, kappa_max):
    # one array draw gives what one scalar draw per field, in field order, gives
    params = make_params(n, kappa_max)
    for seed in (0, 1, 2**63 + 5):
        rng = np.random.Generator(np.random.PCG64(seed))
        agents = [random_agent(rng, params.psi, params.kappa_max) for _ in range(n)]
        assert random_configuration(params, seed) == Configuration(params, agents)


def test_all_fields_in_range(params16):
    for seed in range(50):
        random_configuration(params16, seed).validate()


def test_leader_bit_frequency(params8):
    # 10^4 samples: each agent's leader bit should be a fair coin
    hits = np.zeros(8)
    for seed in range(10_000):
        cfg = random_configuration(params8, seed)
        hits += [a.leader for a in cfg.agents]
    freqs = hits / 10_000
    assert np.all(np.abs(freqs - 0.5) < 0.02), freqs


def test_copy_is_deep(params8):
    cfg = random_configuration(params8, 3)
    clone = cfg.copy()
    clone.agents[0].leader ^= 1
    clone.agents[1].token_b = token(2, 1, 0)
    assert cfg != clone
    assert cfg == random_configuration(params8, 3)


def test_agent_state_is_unhashable():
    # mutable and compared by value, so it must not sit in a set or dict
    with pytest.raises(TypeError):
        {AgentState()}


def test_snapshot_round_trip(params16):
    for seed in (0, 7, 31):
        cfg = random_configuration(params16, seed)
        blob = json.dumps(cfg.to_snapshot())
        assert Configuration.from_snapshot(json.loads(blob)) == cfg


def test_snapshot_agent_keys_follow_field_order(params8):
    # the dumped JSON lists each agent's fields in this order
    for cfg in (random_configuration(params8, 3), construct_S_PL(params8, 3)):
        for entry in cfg.to_snapshot()["agents"]:
            assert list(entry) == list(AgentState.__slots__)


def test_snapshot_mode_strings(params8):
    cfg = random_configuration(params8, 5)
    snap = cfg.to_snapshot()
    assert {a["mode"] for a in snap["agents"]} <= {"Construct", "Detect"}
    assert snap["n"] == 8 and snap["psi"] == 3


def test_snapshot_rejects_bad_fields(params8):
    snap = random_configuration(params8, 1).to_snapshot()
    snap["agents"][2]["dist"] = 99
    with pytest.raises(ValueError, match=r"agents\[2\]"):
        Configuration.from_snapshot(snap)
    snap = random_configuration(params8, 1).to_snapshot()
    snap["agents"][0]["token_b"] = [0, 1, 1]  # offset 0 does not exist
    with pytest.raises(ValueError, match="token_b"):
        Configuration.from_snapshot(snap)
    snap = random_configuration(params8, 1).to_snapshot()
    del snap["agents"]
    with pytest.raises(ValueError, match="agents"):
        Configuration.from_snapshot(snap)


@pytest.mark.parametrize(
    "field, value",
    [("leader", 1.7), ("dist", "3"), ("leader", True), ("token_b", [1.9, 0, 0]),
     # without a bit check the first two would pack into the legal tokens
     # (2, 0, 0) and (1, 1, 1)
     ("token_b", [1, 2, 0]), ("token_b", [2, -1, 1]), ("token_b", [1, True, 0])],
)
def test_snapshot_rejects_coercible_values(params8, field, value):
    snap = random_configuration(params8, 1).to_snapshot()
    snap["agents"][4][field] = value
    with pytest.raises(ValueError, match=rf"agents\[4\]: {field}"):
        Configuration.from_snapshot(snap)


@pytest.mark.parametrize("agent", [None, 3])
def test_snapshot_rejects_unknown_fields(params8, agent):
    # a misspelt field is an error, not a default
    snap = random_configuration(params8, 1).to_snapshot()
    entry = snap if agent is None else snap["agents"][agent]
    entry["sheild"] = 1
    where = "" if agent is None else rf"agents\[{agent}\]: .*"
    with pytest.raises(ValueError, match=rf"{where}unknown field 'sheild'"):
        Configuration.from_snapshot(snap)


@pytest.mark.parametrize(
    "field, value, message",
    [("n", 8.0, "n must be an int"), ("psi", 3.0, "psi must be an int"),
     ("psi", 0, "psi must be >= 2")],
)
def test_snapshot_rejects_bad_sizes(params8, field, value, message):
    snap = random_configuration(params8, 1).to_snapshot()
    snap[field] = value
    with pytest.raises(ValueError, match=message):
        Configuration.from_snapshot(snap)


def test_validate_catches_mode_and_token(params8):
    cfg = random_configuration(params8, 1)
    cfg.agents[4].mode = 7
    with pytest.raises(ValueError, match="mode"):
        cfg.validate()
    cfg = random_configuration(params8, 1)
    cfg.agents[0].token_w = token(-params8.psi, 0, 0)  # -psi is out of range
    with pytest.raises(ValueError, match="token_w"):
        cfg.validate()


@pytest.mark.parametrize(
    "field, value",
    [("leader", True), ("leader", 1.0), ("dist", True), ("mode", 1.0),
     # a token is an int: a number equal to a legal token's int, or its
     # fields as a list or tuple, is not a token
     ("token_b", np.int64(token(1, 0, 0))), ("token_b", Decimal(token(1, 0, 0))),
     ("token_b", [1, 0, 0]), ("token_w", (1, 0, 0)), ("token_b", float(token(1, 0, 0)))],
)
def test_validate_requires_plain_ints(params8, field, value):
    cfg = random_configuration(params8, 1)
    setattr(cfg.agents[4], field, value)
    with pytest.raises(ValueError, match=rf"agents\[4\]\.{field}"):
        cfg.validate()


@pytest.mark.parametrize("psi", [2, 3, 4, 5])
def test_validate_accepts_exactly_the_legal_tokens(psi):
    params = make_params(1 << psi)
    assert params.psi == psi
    legal = set(legal_tokens(psi))
    assert len(legal) == 4 * (2 * psi - 1)
    cfg = Configuration(params, [AgentState() for _ in range(params.n)])
    for offset in range(-2 * psi, 2 * psi + 1):
        for value in (0, 1):
            for carry in (0, 1):
                t = token(offset, value, carry)
                for slot in ("token_b", "token_w"):
                    setattr(cfg.agents[1], slot, t)
                    try:
                        cfg.validate()
                        accepted = True
                    except ValueError as exc:
                        assert f"agents[1].{slot}" in str(exc)
                        accepted = False
                    setattr(cfg.agents[1], slot, None)
                    assert accepted == (t in legal), (slot, t)


# each field's lowest and highest legal value at n = 8 (psi = 3, kappa_max = 96)
FIELD_ENDS = {
    "leader": (0, 1), "b": (0, 1), "dist": (0, 5), "last": (0, 1),
    "token_b": (token(-2, 0, 0), token(3, 1, 1)), "token_w": (token(-2, 0, 0), token(3, 1, 1)),
    "mode": (0, 1), "clock": (0, 96), "hits": (0, 3), "signal_r": (0, 96),
    "bullet": (0, 2), "shield": (0, 1), "signal_b": (0, 1),
}


@pytest.mark.parametrize("field", FIELD_ENDS)
def test_validate_accepts_both_ends_and_rejects_one_past(params8, field):
    assert [name for name, _ in field_values(params8)] == list(FIELD_ENDS)
    lo, hi = FIELD_ENDS[field]
    cfg = Configuration(params8, [AgentState() for _ in range(8)])
    # one below the lowest is -1 for an int field and token(-3, 1, 1) for a token
    for value, legal in ((lo, True), (hi, True), (lo - 1, False), (hi + 1, False)):
        setattr(cfg.agents[3], field, value)
        if legal:
            cfg.validate()
        else:
            with pytest.raises(ValueError, match=rf"agents\[3\]\.{field}: {value}"):
                cfg.validate()


@pytest.mark.parametrize("psi", [2, 3, 4, 8, 16, 32, 64])
def test_state_count_is_polylog(psi):
    # the abstract's claim of polylog(n) states: with 8*psi - 3 values per
    # token slot (None and 4 per offset), the field table's product is
    # 2*2*2psi*2*(8psi-3)^2*2*(kmax+1)^2*(psi+1)*3*2*2
    for kappa_max in (None, 1 << 40):
        params = make_params(1 << psi, kappa_max)
        assert params.psi == psi
        kmax = params.kappa_max
        count = math.prod(len(values) for _, values in field_values(params))
        assert count == 384 * psi * (psi + 1) * (8 * psi - 3) ** 2 * (kmax + 1) ** 2
        if kappa_max is None:  # kmax = 32 psi: |Q| is about 2.6e7 psi^6
            assert 2.5e7 <= count / psi**6 <= 2.7e7


def test_token_field_distribution(params8):
    # every legal token offset (and the empty slot) is actually drawn
    seen = set()
    for seed in range(300):
        for a in random_configuration(params8, seed).agents:
            seen.add(None if a.token_b is None else token_fields(a.token_b)[0])
    psi = params8.psi
    expected = {None} | set(range(-psi + 1, 0)) | set(range(1, psi + 1))
    assert seen == expected


def test_wrong_agent_count_rejected(params8):
    with pytest.raises(ValueError):
        Configuration(params8, [AgentState() for _ in range(7)])


def test_mode_constants_distinct():
    assert CONSTRUCT != DETECT
