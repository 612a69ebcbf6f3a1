import pytest

from ringleader.analysis import construct_S_PL, in_S_PL, leader_count, leaderless_settled
from ringleader.core import sim
from ringleader.core.params import make_params
from ringleader.core.scheduler import SchedulerStream
from ringleader.core.sim import run, step
from ringleader.core.state import CONSTRUCT, AgentState, Configuration, token
from ringleader.core.state import random_configuration
from ringleader.transition import _quiet, _settled

P16 = make_params(16)
P8 = make_params(8)


def test_step_is_local():
    cfg = random_configuration(P16, 3)
    for index in (0, 5, 15):
        out = step(cfg, index)
        for i in range(16):
            if i not in (index, (index + 1) % 16):
                assert out.agents[i] == cfg.agents[i]


def test_step_is_pure():
    cfg = random_configuration(P16, 4)
    snapshot = cfg.copy()
    step(cfg, 7)
    assert cfg == snapshot


def test_step_rejects_bad_index():
    cfg = random_configuration(P16, 4)
    with pytest.raises(ValueError):
        step(cfg, 16)
    with pytest.raises(ValueError):
        step(cfg, -1)


def test_step_wraps_at_ring_end():
    cfg = random_configuration(P16, 5)
    out = step(cfg, 15)  # touches agents 15 and 0
    for i in range(1, 15):
        assert out.agents[i] == cfg.agents[i]


def test_safe_set_preserved_by_steps():
    cfg = construct_S_PL(P16, 0)
    sched = SchedulerStream(16, 1)
    for idx in sched.draw(2000):
        cfg = step(cfg, idx)
    assert in_S_PL(cfg)
    assert cfg.agents[0].leader == 1


def test_dist_propagates_rightward():
    # all-follower, all-construct, signal-free ring: stepping the same arc
    # twice leaves the responder one past the initiator
    agents = [AgentState(dist=5, mode=CONSTRUCT) for _ in range(8)]
    cfg = Configuration(P8, agents)
    cfg = step(cfg, 2)
    cfg = step(cfg, 2)
    assert cfg.agents[3].dist == (cfg.agents[2].dist + 1) % P8.two_psi


def test_run_stop_immediately():
    cfg = random_configuration(P8, 1)
    final, steps, stopped = run(cfg, SchedulerStream(8, 2), 1000, lambda c: True)
    assert (steps, stopped) == (0, True)
    assert final == cfg


def test_run_hits_cutoff():
    cfg = random_configuration(P8, 1)
    final, steps, stopped = run(cfg, SchedulerStream(8, 2), 100, lambda c: False)
    assert (steps, stopped) == (100, False)


def test_run_zero_budget():
    cfg = random_configuration(P8, 1)
    final, steps, stopped = run(cfg, SchedulerStream(8, 2), 0, lambda c: False)
    assert (steps, stopped) == (0, False)
    assert final == cfg


def test_run_does_not_mutate_input():
    cfg = random_configuration(P8, 6)
    snapshot = cfg.copy()
    run(cfg, SchedulerStream(8, 3), 5000, lambda c: False)
    assert cfg == snapshot


def test_run_deterministic():
    cfg = random_configuration(P8, 7)
    a = run(cfg, SchedulerStream(8, 9), 4000, lambda c: False)
    b = run(cfg, SchedulerStream(8, 9), 4000, lambda c: False)
    assert a[0] == b[0] and a[1:] == b[1:]


def test_run_reports_check_interval_multiple():
    cfg = random_configuration(P8, 8)
    final, steps, stopped = run(cfg, SchedulerStream(8, 4), 100_000, in_S_PL)
    assert stopped
    assert steps % 8 == 0


@pytest.mark.parametrize("n", [2, 3, 16])
def test_run_matches_step_by_step(n):
    # at n = 2 both arcs join the same two agents, so nxt wraps at once
    cfg = random_configuration(make_params(n), 10)
    sched = SchedulerStream(n, 11)
    indices = SchedulerStream(n, 11).draw(500)
    final, steps, stopped = run(cfg, sched, 500, lambda c: False)
    manual = cfg
    for idx in indices:
        manual = step(manual, idx)
    assert final == manual


def test_on_step_sees_every_interaction():
    cfg = random_configuration(P16, 14)
    seen = []
    run(cfg, SchedulerStream(16, 15), 1000, lambda c: False,
        on_step=lambda work, i, trace: seen.append(i))
    assert seen == SchedulerStream(16, 15).draw(1000)


_STARTS = {
    # start -> (configuration builder, stop predicate)
    "random": (random_configuration, in_S_PL),
    "safe": (construct_S_PL, lambda c: not in_S_PL(c)),
    "leaderless": (leaderless_settled, in_S_PL),
}


@pytest.mark.parametrize("start", sorted(_STARTS))
@pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
def test_on_step_does_not_change_the_run(n, start):
    # the hooked run goes through the reference blocks, the plain run
    # through the fused block loop: both must compute the same run
    build, stop = _STARTS[start]
    cfg = build(make_params(n), 16)
    plain = run(cfg, SchedulerStream(n, 17), 3000, stop)
    events = []

    def hook(work, i, trace):
        assert 0 <= i < n
        events.extend(trace)

    hooked = run(cfg, SchedulerStream(n, 17), 3000, stop, on_step=hook)
    assert hooked[0] == plain[0] and hooked[1:] == plain[1:]
    assert events  # every start fires tokens or bullets


@pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
def test_quiet_stretch_ends_as_the_reference_run_does(n, monkeypatch):
    # leaderless settled rings are quiet until a clock fills; with every
    # clock one or two ticks short, the fused loop enters its quiet branch
    # and must leave it inside a block.  Both runs are compared at every
    # stop check, not only at the end.
    params = make_params(n)
    cfg = leaderless_settled(params, n)
    for i, agent in enumerate(cfg.agents):
        agent.clock = params.kappa_max - 1 - i % 2
    calls = []
    original = sim.interact_block

    def spy(agents, indices, nxt, psi, two_psi, kappa_max, quiet, settled):
        still = original(agents, indices, nxt, psi, two_psi, kappa_max, quiet, settled)
        calls.append((quiet, still[0]))
        return still

    def recording(frames):
        def stop(config):
            frames.append(config.copy())
            return in_S_PL(config)
        return stop

    monkeypatch.setattr(sim, "interact_block", spy)
    plain_frames, hooked_frames = [], []
    plain = run(cfg, SchedulerStream(n, 7), 400 * n * n, recording(plain_frames))
    hooked = run(
        cfg, SchedulerStream(n, 7), 400 * n * n, recording(hooked_frames),
        on_step=lambda *args: None,
    )
    assert (True, False) in calls  # the quiet branch ran and was left
    assert plain[1:] == hooked[1:] and plain[2]
    assert plain_frames == hooked_frames


@pytest.mark.parametrize("start", sorted(_STARTS))
@pytest.mark.parametrize("n", [2, 3, 16, 17, 32])
def test_settled_stretch_runs_as_the_reference_run_does(n, start, monkeypatch):
    # safe rings are settled from the start; random rings settle once their
    # chain does; leaderless rings, with clocks one or two ticks short of
    # full, settle after the detected leader's chain does.  At n = 16,
    # 2 psi divides n, so the leaderless ring is settled and quiet at once
    # after its last flags clear.  Both runs go the whole budget and are
    # compared at every stop check, and the fused one must have run settled
    # blocks.
    params = make_params(n)
    build = _STARTS[start][0]
    cfg = build(params, 5)
    if start == "leaderless":
        for i, agent in enumerate(cfg.agents):
            agent.clock = params.kappa_max - 1 - i % 2
    flags = []
    original = sim.interact_block

    def spy(agents, indices, nxt, psi, two_psi, kappa_max, quiet, settled):
        flags.append(settled)
        return original(agents, indices, nxt, psi, two_psi, kappa_max, quiet, settled)

    def recording(frames):
        def stopped(config):
            frames.append(config.copy())
            return False
        return stopped

    monkeypatch.setattr(sim, "interact_block", spy)
    plain_frames, hooked_frames = [], []
    budget = 64 * n * n
    plain = run(cfg, SchedulerStream(n, 9), budget, recording(plain_frames))
    hooked = run(cfg, SchedulerStream(n, 9), budget, recording(hooked_frames),
                 on_step=lambda *args: None)
    assert plain[1:] == hooked[1:]
    assert plain_frames == hooked_frames
    assert any(flags), flags
    if (n, start) == (16, "leaderless"):
        assert any(
            _quiet(f.agents, params.kappa_max) and _settled(f.agents, params.psi, params.two_psi)
            for f in plain_frames
        )


def _quiet_exit_replay(n: int, psi: int, kappa_max: int, seed: int) -> int:
    """The first step at which a clock of a leaderless settled ring is full,
    from the scheduler stream alone: while the ring is quiet, agent j's hit
    counter gains 1 on arc j - 1 and resets on arc j, and when it reaches
    psi it resets and ticks j's clock.  Shares no code with the transition."""
    hits, clocks = [0] * n, [0] * n
    stream = SchedulerStream(n, seed)
    step = 0
    while True:
        for i in stream.draw(n):
            step += 1
            j = (i + 1) % n
            hits[i] = 0
            hits[j] += 1
            if hits[j] == psi:
                hits[j] = 0
                clocks[j] += 1
                if clocks[j] == kappa_max:
                    return step


@pytest.mark.parametrize("n", [2, 3, 9, 16, 17, 64])
def test_quiet_exit_step_matches_the_scheduler_replay(n):
    # pins the quiet branch's hit counters and clock ticks, step by step,
    # to an oracle outside the transition; seeds fixed before the first run
    p = make_params(n)
    start = leaderless_settled(p, n)
    seed = 1000 + n
    exit_step = _quiet_exit_replay(n, p.psi, p.kappa_max, seed)
    assert exit_step > n * p.kappa_max  # every tick needs psi hits in a row

    def full_clock(config):
        return any(a.clock == p.kappa_max for a in config.agents)

    def never(config):
        return False

    before, _, _ = run(start, SchedulerStream(n, seed), exit_step - 1, never)
    at, _, _ = run(start, SchedulerStream(n, seed), exit_step, never)
    assert not full_clock(before) and full_clock(at)

    steps, first = [0], []

    def hook(work, i, trace):
        steps[0] += 1
        agents = work.agents
        if not first and p.kappa_max in (agents[i].clock, agents[(i + 1) % n].clock):
            first.append(steps[0])

    run(start, SchedulerStream(n, seed), exit_step + n, lambda c: bool(first), on_step=hook)
    assert first == [exit_step]


@pytest.mark.parametrize(
    "field, value",
    [("token_b", token(5, 0, 1)), ("clock", 129), ("mode", 2)],
)
@pytest.mark.parametrize("hooked", [False, True])
def test_run_rejects_an_invalid_start(field, value, hooked):
    # both paths reject it: the fused loop would otherwise read a relay
    # table slot that belongs to another token (offset 5 at psi = 4 indexes
    # as offset -3), and could take a ring whose clock or mode is out of
    # range for quiet
    cfg = construct_S_PL(P16, 1)
    setattr(cfg.agents[0], field, value)
    on_step = (lambda *args: None) if hooked else None
    with pytest.raises(ValueError, match=f"agents\\[0\\].{field}"):
        run(cfg, SchedulerStream(16, 2), 64, lambda c: False, on_step=on_step)


class _CountingScheduler(SchedulerStream):
    def __init__(self, n, seed):
        super().__init__(n, seed)
        self.sizes = []

    def draw(self, count):
        self.sizes.append(count)
        return super().draw(count)


@pytest.mark.parametrize("hooked", [False, True])
def test_run_draws_once_per_block(hooked):
    # timing layers outside the library split a run at each draw, so run
    # must call draw exactly once per check block, remainder last
    sched = _CountingScheduler(8, 3)
    on_step = (lambda work, i, trace: None) if hooked else None
    _, steps, _ = run(random_configuration(P8, 2), sched, 45, lambda c: False,
                      on_step=on_step)
    assert steps == 45
    assert sched.sizes == [8, 8, 8, 8, 8, 5]


def test_range_preserved_along_run():
    cfg = random_configuration(P16, 12)
    final, _, _ = run(cfg, SchedulerStream(16, 13), 20_000, lambda c: False)
    final.validate()


def test_converges_to_safe_set_small():
    # quick end-to-end: a handful of adversarial starts all stabilize
    for seed in range(5):
        cfg = random_configuration(P8, seed)
        final, steps, stopped = run(
            cfg, SchedulerStream(8, seed + 100), 3_000_000, in_S_PL
        )
        assert stopped, f"seed {seed} did not stabilize"
        assert leader_count(final) == 1


def test_scheduler_size_mismatch_rejected():
    cfg = random_configuration(P8, 1)
    with pytest.raises(ValueError):
        run(cfg, SchedulerStream(16, 0), 10, lambda c: False)
