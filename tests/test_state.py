import json

import numpy as np
import pytest

from ringleader.core.state import (
    CONSTRUCT,
    DETECT,
    AgentState,
    Configuration,
    Token,
    random_configuration,
)


def test_same_seed_same_configuration(params8):
    assert random_configuration(params8, 1) == random_configuration(params8, 1)


def test_different_seeds_differ(params8):
    assert random_configuration(params8, 1) != random_configuration(params8, 2)


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
    clone.agents[1].token_b = Token(2, 1, 0)
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
    [("leader", 1.7), ("dist", "3"), ("leader", True), ("token_b", [1.9, 0, 0])],
)
def test_snapshot_rejects_coercible_values(params8, field, value):
    snap = random_configuration(params8, 1).to_snapshot()
    snap["agents"][4][field] = value
    with pytest.raises(ValueError, match=rf"agents\[4\]: {field}"):
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
    cfg.agents[0].token_w = Token(-params8.psi, 0, 0)  # -psi is out of range
    with pytest.raises(ValueError, match="token_w"):
        cfg.validate()


def test_token_field_distribution(params8):
    # every legal token offset (and the empty slot) is actually drawn
    seen = set()
    for seed in range(300):
        for a in random_configuration(params8, seed).agents:
            seen.add(None if a.token_b is None else a.token_b.offset)
    psi = params8.psi
    expected = {None} | set(range(-psi + 1, 0)) | set(range(1, psi + 1))
    assert seen == expected


def test_wrong_agent_count_rejected(params8):
    with pytest.raises(ValueError):
        Configuration(params8, [AgentState() for _ in range(7)])


def test_mode_constants_distinct():
    assert CONSTRUCT != DETECT
