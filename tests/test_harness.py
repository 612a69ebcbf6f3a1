import concurrent.futures
import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ringleader import analysis, harness, orientation
from ringleader.cli import main as cli_main
from ringleader.core import sim
from ringleader.core.params import InvalidSizeError, make_params
from ringleader.core.scheduler import SchedulerStream
from ringleader.core.state import random_configuration
from ringleader.harness import (
    ConfigFormatError,
    ExperimentSpec,
    Protocol,
    TrialRecord,
    _map,
    dump_config,
    export_csv,
    load_config,
    multi_leader_configuration,
    run_closure_suite,
    run_convergence_sweep,
    run_elimination_suite,
    run_orientation_sweep,
    run_peaceful_audit,
    run_token_audit,
    step_cutoff,
    trial_seed,
)
from ringleader.lottery import Bound, estimate_bound, play_lottery
from ringleader.orientation import generate_two_hop_coloring

P16 = make_params(16)
P8 = make_params(8)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def small_spec(**overrides):
    base = dict(
        protocol=Protocol.PPL,
        n_values=(8,),
        trials_per_n=3,
        base_seed=7,
        max_steps_multiplier=1e4,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_sweep_deterministic():
    a = run_convergence_sweep(small_spec())
    b = run_convergence_sweep(small_spec())
    assert a == b


def test_sweep_converges_small():
    records = run_convergence_sweep(small_spec())
    assert all(r.converged for r in records)
    assert all(r.final_leader_count == 1 for r in records)
    assert all(r.violations == 0 for r in records)
    assert all(r.psi == 3 and r.kappa_max == 96 for r in records)


def test_sweep_workers_match_inline():
    inline = run_convergence_sweep(small_spec())
    pooled = run_convergence_sweep(small_spec(workers=2))
    assert inline == pooled


def test_sweep_kappa_override():
    records = run_convergence_sweep(small_spec(kappa_max_override=200, trials_per_n=1))
    assert records[0].kappa_max == 200
    assert records[0].converged


def test_sweep_range_instrumented():
    records = run_convergence_sweep(small_spec(trials_per_n=1, range_check=True))
    assert records[0].converged
    assert records[0].violations == 0
    # the check observes the run without changing it
    assert records == run_convergence_sweep(small_spec(trials_per_n=1))


def test_sweep_por():
    records = run_convergence_sweep(
        small_spec(protocol=Protocol.POR, n_values=(8, 12), trials_per_n=2)
    )
    assert len(records) == 4
    assert all(r.converged and r.violations == 0 for r in records)
    assert all(r.psi is None and r.final_leader_count is None for r in records)
    # rows are the orientation sweep's trials; the seed column is the trial
    # seed, one below the run's scheduler seed
    trials = run_orientation_sweep((8, 12), 2, seed=7)
    assert [r.seed for r in records] == [
        trial_seed(7, n, t) for n in (8, 12) for t in range(2)
    ]
    assert [(r.seed + 1, r.n, r.steps, r.violations) for r in records] == [
        (t.seed, t.n, t.steps_to_oriented, t.monotone_violations) for t in trials
    ]


def test_sweep_por_reports_cutoff_when_not_oriented():
    spec = small_spec(protocol=Protocol.POR, n_values=(16,), max_steps_multiplier=1e-3)
    cutoff = step_cutoff(16, 1e-3)
    assert [(r.converged, r.steps) for r in run_convergence_sweep(spec)] == [(False, cutoff)] * 3


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_values=()),
        dict(n_values=(8, 1)),
        dict(protocol=Protocol.POR, n_values=(2,)),
        dict(workers=0),
        dict(workers=-1),
        dict(trials_per_n=0),
        dict(max_steps_multiplier=0),
        dict(n_values=(8.5,)),
        dict(n_values=(8, 16.0)),
        dict(trials_per_n=1.5),
        dict(trials_per_n=True),
        dict(workers=2.0),
        dict(kappa_max_override=300.5),
        dict(base_seed=1.5),
        dict(base_seed=-1),
        dict(base_seed=True),
        dict(max_steps_multiplier=float("nan")),
        dict(max_steps_multiplier=float("inf")),
        dict(max_steps_multiplier=-1e4),
        dict(max_steps_multiplier=True),
        dict(kappa_max_override=5),  # below 32 * psi = 96 at n = 8
        dict(n_values=(8, 1024), kappa_max_override=100),  # 320 at n = 1024
        dict(protocol=Protocol.POR, kappa_max_override=200),
        dict(protocol=Protocol.POR, range_check=True),
        dict(protocol="ppl"),
        dict(n_values=(8, 64), max_steps_multiplier=1e308),  # the budget overflows
        dict(kappa_max_override=10**20),  # no int64 draw covers the clock
    ],
)
def test_spec_rejects_bad_input(overrides):
    with pytest.raises(ValueError):
        small_spec(**overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_values=()),
        dict(n_values=(8, 2)),
        dict(n_values=(8.0,)),
        dict(trials=0),
        dict(trials=2.5),
        dict(post_steps=-1),
        dict(seed=1.5),
        dict(seed=-1),
        dict(seed=True),
        dict(multiplier=float("nan")),
        dict(multiplier=float("inf")),
        dict(multiplier=0),
        dict(workers=0),
        dict(n_values=(8, 64), multiplier=1e308),
    ],
)
def test_orientation_sweep_rejects_bad_input_before_any_trial(monkeypatch, overrides):
    def no_trial(args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_orientation_task", no_trial)
    args = dict(n_values=(8,), trials=2, seed=3, multiplier=1e4, post_steps=10)
    args.update(overrides)
    with pytest.raises(ValueError):
        run_orientation_sweep(**args)


CLOSURE_ARGS = dict(protocol=Protocol.PPL, n=8, trials=2, seed=3, steps=100)
ELIMINATION_ARGS = dict(n=8, initial_leaders=2, trials=2, seed=3, multiplier=1.0)


@pytest.mark.parametrize(
    "suite, overrides",
    [("closure", o) for o in (
        dict(seed=True),
        dict(seed=1.5),
        dict(seed=-1),
        dict(trials=0),
        dict(trials=2.0),
        dict(steps=-1),
        dict(n=1),
        dict(n=8.0),
        dict(protocol=Protocol.POR, n=2),
    )] + [("elimination", o) for o in (
        dict(seed=True),
        dict(seed=1.5),
        dict(seed=-1),
        dict(trials=0),
        dict(multiplier=float("nan")),
        dict(multiplier=float("inf")),
        dict(multiplier=0),
        dict(n=1, initial_leaders=1),
        dict(n=8.5),
        dict(workers=0),
    )] + [("closure", o) for o in (
        dict(workers=0),
        dict(steps=2.5),
        dict(workers=True),
        dict(protocol="por"),
        dict(steps=0),
    )] + [("elimination", dict(n=64, multiplier=1e308))],
)
def test_suites_reject_bad_input_before_any_trial(monkeypatch, suite, overrides):
    def no_trial(args):
        raise AssertionError("a trial ran")

    for task in ("_ppl_closure_task", "_por_closure_task", "_elimination_task"):
        monkeypatch.setattr(harness, task, no_trial)
    run, args = {
        "closure": (run_closure_suite, CLOSURE_ARGS),
        "elimination": (run_elimination_suite, ELIMINATION_ARGS),
    }[suite]
    with pytest.raises(ValueError):
        run(**{**args, **overrides})


REJECTED_CALLS = {
    "spec seed": lambda: small_spec(base_seed=-1),
    "spec por kappa": lambda: small_spec(protocol=Protocol.POR, kappa_max_override=200),
    "spec por range check": lambda: small_spec(protocol=Protocol.POR, range_check=True),
    "spec string protocol": lambda: small_spec(protocol="ppl"),
    "closure string protocol": lambda: run_closure_suite(**{**CLOSURE_ARGS, "protocol": "ppl"}),
    "elimination leaders": lambda: run_elimination_suite(
        **{**ELIMINATION_ARGS, "initial_leaders": 9}
    ),
    "orientation sweep workers": lambda: run_orientation_sweep((8,), 1, 0, workers=0),
    "step cutoff overflow": lambda: step_cutoff(64, 1e308),
    "spec budget overflow": lambda: small_spec(n_values=(64,), max_steps_multiplier=1e308),
    "orientation sweep budget overflow": lambda: run_orientation_sweep((64,), 1, 0, 1e308),
    "elimination budget overflow": lambda: run_elimination_suite(
        **{**ELIMINATION_ARGS, "n": 64, "multiplier": 1e308}
    ),
    "trial seed": lambda: trial_seed(-1, 8, 0),
    "random seed": lambda: random_configuration(P16, -1),
    "safe seed": lambda: analysis.construct_S_PL(P16, -1),
    "lottery seed": lambda: estimate_bound(4, 1, Bound.UPPER, 10, -1),
    "lottery lower k": lambda: estimate_bound(1, 1, Bound.LOWER, 10, 0),
    "lottery string bound": lambda: estimate_bound(1, 1, "upper", 20, 0),
    "lottery no bound": lambda: estimate_bound(4, 1, None, 20, 0),
    "coloring float n": lambda: generate_two_hop_coloring(8.0, 0),
    "coloring seed": lambda: generate_two_hop_coloring(8, -1),
    "params kappa": lambda: make_params(8, 3),
    "lottery float k": lambda: play_lottery(2.5, 10, 1),
    "lottery zero k": lambda: play_lottery(0, 10, 1),
    "lottery negative flips": lambda: play_lottery(2, -1, 1),
    "lottery negative play seed": lambda: play_lottery(2, 10, -1),
    "lottery float play seed": lambda: play_lottery(2, 10, 1.5),
    "multi-leader zero": lambda: multi_leader_configuration(P8, 0, 1),
    "multi-leader above n": lambda: multi_leader_configuration(P8, 9, 1),
    "multi-leader float": lambda: multi_leader_configuration(P8, 2.0, 1),
    "multi-leader negative seed": lambda: multi_leader_configuration(P8, 2, -1),
    "multi-leader float seed": lambda: multi_leader_configuration(P8, 2, 1.5),
    "scheduler float n": lambda: SchedulerStream(8.0, 1),
    "scheduler tiny n": lambda: SchedulerStream(1, 1),
    "scheduler negative seed": lambda: SchedulerStream(8, -1),
    "scheduler float seed": lambda: SchedulerStream(8, 1.5),
    "random kappa overflow": lambda: random_configuration(make_params(8, 10**20), 0),
}


@pytest.mark.parametrize("call", REJECTED_CALLS.values(), ids=REJECTED_CALLS.keys())
def test_library_rejects_outside_values_with_invalid_size_error(call):
    with pytest.raises(InvalidSizeError):
        call()


def test_spec_accepts_smallest_rings():
    small_spec(n_values=(2,))
    small_spec(protocol=Protocol.POR, n_values=(3,))


def test_map_rejects_bad_worker_count():
    assert _map(abs, [-1, 2], 1) == [1, 2]
    for workers in (0, -1):
        with pytest.raises(ValueError):
            _map(abs, [-1, 2], workers)


def test_map_caps_pool_at_task_count(monkeypatch):
    # under fork every worker starts at the first submit, so an uncapped
    # ``--workers 64 --trials 2`` would fork 64 processes; the stub starts none
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert _map(abs, [-1, 2], 64) == [1, 2]
    assert _map(abs, [-1, 2, -3], 2) == [1, 2, 3]
    assert _map(abs, [], 4) == []
    assert len(run_orientation_sweep((8,), 2, 0, workers=64)) == 2
    assert sizes == [2, 2, 1, 2]


def test_import_loads_no_pool_csv_or_json():
    # these load on first use, so a CLI call or a one-worker sweep skips them
    src = Path(harness.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import ringleader, ringleader.harness; "
        "print([m for m in ('concurrent.futures', 'multiprocessing', 'csv', 'json') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_trial_seed_stability():
    assert trial_seed(1, 8, 0) == trial_seed(1, 8, 0)
    assert trial_seed(1, 8, 0) != trial_seed(1, 8, 1)
    assert trial_seed(1, 8, 0) != trial_seed(1, 16, 0)
    assert trial_seed(1, 8, 0) != trial_seed(2, 8, 0)


def test_step_cutoff_formula():
    assert step_cutoff(16, 1e4) == 10_000 * 256 * 4


@pytest.mark.parametrize(
    "n, multiplier",
    [(1, 3.0), (True, 3.0), (0, 3.0), (8.0, 3.0), (8, -1.0), (8, 0), (8, float("nan")),
     (8, float("inf")), (8, True)],
)
def test_step_cutoff_rejects_a_bad_size_or_multiplier(n, multiplier):
    # before the check, step_cutoff(1, 3.0) and (True, 3.0) returned 0 and
    # step_cutoff(8, -1.0) returned -192
    with pytest.raises(InvalidSizeError):
        step_cutoff(n, multiplier)


def test_cutoff_honesty():
    # a budget too small to stabilize must never be reported as convergence
    records = run_convergence_sweep(
        small_spec(n_values=(16,), trials_per_n=3, max_steps_multiplier=1e-4)
    )
    cutoff = step_cutoff(16, 1e-4)
    for r in records:
        assert not r.converged
        assert r.steps == cutoff


# --------------------------------------------------------------------------
# closure suite
# --------------------------------------------------------------------------

def test_closure_ppl_small():
    report = run_closure_suite(Protocol.PPL, n=8, trials=4, seed=3, steps=4000)
    assert report.passed
    assert not report.rejected_trials


def test_closure_ppl_workers_match():
    a = run_closure_suite(Protocol.PPL, n=8, trials=4, seed=3, steps=2000)
    b = run_closure_suite(Protocol.PPL, n=8, trials=4, seed=3, steps=2000, workers=2)
    assert a == b


def _shift_one_distance(config):
    agent = config.agents[5]
    agent.dist = (agent.dist + 1) % config.params.two_psi


def _turn_one_head_back(config):
    config.agents[0].dir = config.agents[-1].color  # agents 0 and n-1 now face each other


@pytest.mark.parametrize(
    "protocol, module, builder, spoil",
    [
        (Protocol.PPL, analysis, "construct_S_PL", _shift_one_distance),
        (Protocol.POR, harness, "oriented_configuration", _turn_one_head_back),
    ],
    ids=["ppl", "por"],
)
def test_closure_rejects_start_failing_precheck(monkeypatch, protocol, module, builder, spoil):
    original = getattr(module, builder)

    def spoiled(*args):
        config = original(*args)
        spoil(config)
        return config

    monkeypatch.setattr(module, builder, spoiled)
    report = run_closure_suite(protocol, n=12, trials=3, seed=5, steps=1000)
    assert report.rejected_trials == [trial_seed(5, 12, t) for t in range(3)]
    assert report.violations == []
    assert not report.passed  # the suite built the start, so a rejection is a fault


def test_closure_por_small():
    report = run_closure_suite(Protocol.POR, n=12, trials=3, seed=5, steps=20_000)
    assert report.passed


def test_closure_por_workers():
    with pytest.raises(ValueError):
        run_closure_suite(Protocol.POR, n=8, trials=1, seed=0, steps=10, workers=0)
    a = run_closure_suite(Protocol.POR, n=8, trials=3, seed=2, steps=500)
    b = run_closure_suite(Protocol.POR, n=8, trials=3, seed=2, steps=500, workers=2)
    assert a == b


# --------------------------------------------------------------------------
# elimination suite
# --------------------------------------------------------------------------

def test_multi_leader_configuration_shape():
    params = make_params(32)
    cfg = multi_leader_configuration(params, 4, seed=2)
    cfg.validate()
    assert analysis.leader_count(cfg) == 4
    assert analysis.in_C_PB(cfg)
    assert all(a.bullet == 0 and a.signal_r == 0 and a.signal_b == 0 for a in cfg.agents)
    leaders = [i for i, a in enumerate(cfg.agents) if a.leader]
    assert all(cfg.agents[i].shield == 1 for i in leaders)
    assert all(cfg.agents[i].dist == 0 for i in leaders)


def test_single_leader_returns_immediately():
    report = run_elimination_suite(n=16, initial_leaders=1, trials=2, seed=0)
    assert report.passed
    assert report.steps == [0, 0]


def test_elimination_two_leaders_small():
    report = run_elimination_suite(n=16, initial_leaders=2, trials=5, seed=1)
    assert report.passed
    assert report.zero_leader_events == 0
    assert all(s > 0 for s in report.steps)


def test_elimination_cutoff_honesty():
    # a budget that is not a multiple of n must not be overshot
    cutoff = step_cutoff(12, 0.05)
    assert cutoff % 12 != 0
    report = run_elimination_suite(
        n=12, initial_leaders=2, trials=3, seed=1, multiplier=0.05
    )
    assert all(s <= cutoff for s in report.steps)


def test_elimination_rejects_bad_args():
    with pytest.raises(ValueError):
        run_elimination_suite(n=16, initial_leaders=0, trials=1, seed=0)
    with pytest.raises(ValueError):
        run_elimination_suite(n=16, initial_leaders=17, trials=1, seed=0)


# --------------------------------------------------------------------------
# audits
# --------------------------------------------------------------------------

def test_token_audit_counts_moves():
    cfg = analysis.construct_S_PL(P16, 0)
    report = run_token_audit(cfg, seed=5, steps=50_000)
    assert report.passed
    assert report.births > 100
    bound = 2 * P16.psi**2 - 2 * P16.psi + 1
    assert report.moves_bound == bound
    assert 0 < report.max_moves_seen <= bound


def test_token_audit_sees_full_trajectories():
    cfg = analysis.construct_S_PL(P16, 1)
    report = run_token_audit(cfg, seed=6, steps=200_000)
    # some token must complete the whole shuttle (25 moves at psi=4)
    assert report.max_moves_seen == report.moves_bound


def test_peaceful_audit_from_multi_leader():
    cfg = multi_leader_configuration(make_params(16), 3, seed=3)
    report = run_peaceful_audit(cfg, seed=4, steps=30_000)
    assert report.passed
    assert report.bullets_tracked > 0


def test_peaceful_audit_from_random():
    cfg = random_configuration(P16, 3)
    report = run_peaceful_audit(cfg, seed=5, steps=20_000)
    assert report.passed


# --------------------------------------------------------------------------
# every check fires on a broken transition
# --------------------------------------------------------------------------

def _break_traced(monkeypatch, spoil):
    """Make hooked runs apply ``spoil(l, r, psi, trace)`` after every step."""
    original = sim.interact_traced

    def broken(l, r, psi, two_psi, kappa_max, trace):
        original(l, r, psi, two_psi, kappa_max, trace)
        spoil(l, r, psi, trace)

    monkeypatch.setattr(sim, "interact_traced", broken)


def _break_block(monkeypatch, spoil):
    """Make unhooked runs apply ``spoil(agent)`` to every touched agent."""
    original = sim.interact_block

    def broken(agents, indices, nxt, psi, two_psi, kappa_max, quiet, settled):
        indices = list(indices)
        quiet, _ = original(agents, indices, nxt, psi, two_psi, kappa_max, quiet, settled)
        for i in indices:
            spoil(agents[i])
        return quiet, False  # spoil may break the chain the flag vouches for

    monkeypatch.setattr(sim, "interact_block", broken)


def test_range_check_reports_out_of_range_fields(monkeypatch):
    def overfill_hits(l, r, psi, trace):
        r.hits = psi + 1

    _break_traced(monkeypatch, overfill_hits)
    (record,) = run_convergence_sweep(small_spec(trials_per_n=1, range_check=True))
    assert record.violations == record.steps > 0


def _flip_b(agent):
    agent.b ^= 1


def _kill(agent):
    agent.leader = 0


@pytest.mark.parametrize(
    "spoil, message", [(_flip_b, "left the safe set"), (_kill, "leader moved or died")]
)
def test_closure_reports_broken_steps(monkeypatch, spoil, message):
    _break_block(monkeypatch, spoil)
    returned = []  # the step count of each trial's run

    def spy(*args):
        final, done, stopped = sim.run(*args)
        returned.append(done)
        return final, done, stopped

    monkeypatch.setattr(harness, "run", spy)
    report = run_closure_suite(Protocol.PPL, n=8, trials=2, seed=3, steps=1000)
    assert not report.passed and not report.rejected_trials
    # each trial stops at its first failing check and reports it at that step
    steps_by_seed: dict[str, set[int]] = {}
    for v in report.violations:
        seed, step = re.match(r"seed=(\d+) step=(\d+): ", v).groups()
        steps_by_seed.setdefault(seed, set()).add(int(step))
    assert sorted(step for (step,) in steps_by_seed.values()) == sorted(returned)
    assert len(returned) == 2 and max(returned) < 1000
    assert any(message in v for v in report.violations)


def _turn_demoted_responder_back(u, v):
    if v.dir == u.color and u.dir != v.color:
        v.dir = v.c1 if v.c1 != u.color else v.c2


def _point_initiator_at_no_neighbor(u, v):
    if u.dir == v.color:
        u.dir = next(c for c in range(orientation.XI) if c not in (u.c1, u.c2))


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_turn_demoted_responder_back, "direction changes after orientation"),
        (_point_initiator_at_no_neighbor, "segment count increased"),
    ],
)
def test_por_closure_reports_broken_steps(monkeypatch, spoil, message):
    original = orientation._interact_or_inplace

    def broken(u, v):
        original(u, v)
        spoil(u, v)

    monkeypatch.setattr(orientation, "_interact_or_inplace", broken)
    report = run_closure_suite(Protocol.POR, n=12, trials=3, seed=5, steps=20_000)
    assert not report.passed
    assert sum(message in v for v in report.violations) == 3  # one per trial


def test_token_audit_reports_overlong_trajectories(monkeypatch):
    def shuttle(l, r, psi, trace):
        # every moved token also goes back and forth once more
        for ev in list(trace):
            if ev[0] == "tmove":
                trace += [("tmove", ev[1], "rl" if ev[2] == "lr" else "lr"), ev]

    _break_traced(monkeypatch, shuttle)
    report = run_token_audit(analysis.construct_S_PL(P16, 0), seed=5, steps=20_000)
    assert report.violations > 0 and report.max_moves_seen > report.moves_bound
    assert not report.passed


def test_token_audit_reports_off_track_moves(monkeypatch):
    def shift_dist(l, r, psi, trace):
        if any(ev[0] == "tmove" for ev in trace):
            l.dist = (l.dist + 1) % (2 * psi)
            r.dist = (r.dist + 1) % (2 * psi)

    _break_traced(monkeypatch, shift_dist)
    report = run_token_audit(analysis.construct_S_PL(P16, 0), seed=5, steps=20_000)
    assert report.invalid_moves > 0
    assert not report.passed


def test_peaceful_audit_reports_signal_behind_bullet(monkeypatch):
    def signal_behind(l, r, psi, trace):
        if ("bmove",) in trace:
            l.signal_b = 1  # between the moved bullet and its leader

    _break_traced(monkeypatch, signal_behind)
    cfg = multi_leader_configuration(make_params(16), 3, seed=3)
    report = run_peaceful_audit(cfg, seed=4, steps=30_000)
    assert report.violations > 0
    assert not report.passed


# --------------------------------------------------------------------------
# CSV and snapshots
# --------------------------------------------------------------------------

def test_csv_header_and_rows(tmp_path):
    records = run_convergence_sweep(small_spec())
    out = tmp_path / "results.csv"
    export_csv(records, out)
    lines = out.read_text().strip().split("\n")
    assert len(lines) == len(records) + 1
    assert lines[0] == (
        "protocol,n,psi,kappa_max,seed,steps,converged,final_leader_count,violations"
    )


def test_csv_por_blank_columns(tmp_path):
    records = [
        TrialRecord(
            protocol="por", n=8, psi=None, kappa_max=None, seed=1, steps=10,
            converged=True, final_leader_count=None, violations=0,
        )
    ]
    out = tmp_path / "por.csv"
    export_csv(records, out)
    assert out.read_text().strip().split("\n")[1] == "por,8,,,1,10,1,,0"


def test_dump_load_round_trip(tmp_path):
    cfg = random_configuration(P16, 9)
    path = tmp_path / "cfg.json"
    dump_config(cfg, path)
    assert load_config(path) == cfg


def test_load_truncated_file(tmp_path):
    cfg = random_configuration(P16, 9)
    path = tmp_path / "cfg.json"
    dump_config(cfg, path)
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(ConfigFormatError, match="line"):
        load_config(path)


@pytest.mark.parametrize("blob", ["5", '["n", "psi", "kappa_max", "agents"]'])
@pytest.mark.parametrize("command", [["load"], ["check", "s-pl"]])
def test_snapshot_that_is_not_an_object_is_a_format_error(tmp_path, capsys, blob, command):
    path = tmp_path / "cfg.json"
    path.write_text(blob)
    with pytest.raises(ConfigFormatError, match="JSON object"):
        load_config(path)
    assert cli_main([*command, str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_load_bad_field(tmp_path):
    cfg = random_configuration(P16, 9)
    path = tmp_path / "cfg.json"
    dump_config(cfg, path)
    data = json.loads(path.read_text())
    data["agents"][3]["clock"] = -1
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigFormatError, match=r"agents\[3\]"):
        load_config(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda agents: agents.pop(), r"agents: expected a list of 16 entries"),
        (lambda agents: agents.__setitem__(3, list(agents[3].values())),
         r"agents\[3\]: agent entry is not an object"),
        (lambda agents: agents[3].update(mode="Sleep"), r"agents\[3\]: mode: unknown value 'Sleep'"),
        (lambda agents: agents[3].update(token_b=[1, 0]), r"agents\[3\]: token_b: expected null"),
        (lambda agents: agents[3].update(token_b=1), r"agents\[3\]: token_b: expected null"),
    ],
    ids=["one-short", "entry-is-a-list", "mode-sleep", "token-pair", "token-int"],
)
def test_load_names_the_agent_and_field_of_a_malformed_entry(tmp_path, edit, message):
    path = tmp_path / "cfg.json"
    dump_config(random_configuration(P16, 9), path)
    data = json.loads(path.read_text())
    edit(data["agents"])
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigFormatError, match=message):
        load_config(path)


@pytest.mark.parametrize(
    "name, blob",
    [("missing.json", None), (".", None), ("utf16.json", b"\xff\xfe")],
    ids=["missing", "directory", "not-utf8"],
)
@pytest.mark.parametrize("command", [["load"], ["check", "s-pl"]])
def test_unreadable_snapshot_is_a_format_error(tmp_path, capsys, name, blob, command):
    path = tmp_path / name
    if blob is not None:
        path.write_bytes(blob)
    with pytest.raises(ConfigFormatError, match=re.escape(str(path))):
        load_config(path)
    assert cli_main([*command, str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def test_cli_dump_check_load(tmp_path, capsys):
    snap = tmp_path / "safe.json"
    assert cli_main(["dump", "--kind", "safe", "--n", "16", "--seed", "3",
                     "--out", str(snap)]) == 0
    assert cli_main(["check", "s-pl", str(snap)]) == 0
    assert cli_main(["check", "leader-count", str(snap)]) == 0
    assert cli_main(["load", str(snap)]) == 0
    out = capsys.readouterr().out
    assert "true" in out and "valid snapshot" in out


def test_cli_dumps_a_leaderless_settled_ring(tmp_path, capsys):
    snap = tmp_path / "leaderless.json"
    assert cli_main(["dump", "--kind", "leaderless", "--n", "16", "--seed", "3",
                     "--out", str(snap)]) == 0
    assert load_config(snap) == analysis.leaderless_settled(P16, 3)
    assert cli_main(["load", str(snap)]) == 0
    assert "leaders=0" in capsys.readouterr().out
    assert cli_main(["check", "s-pl", str(snap)]) == 1


@pytest.mark.parametrize("kind", ["safe", "leaderless"])
def test_cli_built_rings_take_a_kappa_max_no_draw_covers(tmp_path, capsys, kind):
    # only a random start draws the clocks; ``dump --kind random`` exits 2
    snap = tmp_path / f"{kind}.json"
    assert cli_main(["dump", "--kind", kind, "--n", "8", "--kappa-max", str(10**20),
                     "--out", str(snap)]) == 0
    assert cli_main(["load", str(snap)]) == 0
    assert f"kappa_max={10**20}" in capsys.readouterr().out


def test_cli_check_random_not_safe(tmp_path):
    snap = tmp_path / "rand.json"
    assert cli_main(["dump", "--kind", "random", "--n", "8", "--seed", "1",
                     "--out", str(snap)]) == 0
    assert cli_main(["check", "s-pl", str(snap)]) == 1


def test_cli_load_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["load", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("leader", 1.7), ("dist", "3"), ("leader", True), ("token_b", [1.9, 0, 0])],
)
@pytest.mark.parametrize("command", [["load"], ["check", "s-pl"]])
def test_cli_rejects_coercible_snapshot_values(tmp_path, capsys, field, value, command):
    snap = tmp_path / "safe.json"
    dump_config(analysis.construct_S_PL(P16, 3), snap)
    data = json.loads(snap.read_text())
    data["agents"][5][field] = value
    snap.write_text(json.dumps(data))
    assert cli_main([*command, str(snap)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def test_cli_lottery(capsys):
    assert cli_main(["lottery", "--k", "3", "--c", "1", "--trials", "500",
                     "--seed", "2"]) == 0
    assert "empirical failure rate" in capsys.readouterr().out


def test_cli_sweep_and_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = cli_main([
        "sweep", "--protocol", "ppl", "--n", "8", "--trials", "2",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    assert "converged 2/2" in capsys.readouterr().out


def test_cli_sweep_prints_step_quantiles_per_n(tmp_path, capsys):
    out = tmp_path / "r.csv"
    argv = ["sweep", "--n", "8,16", "--trials", "11", "--seed", "3", "--out", str(out)]
    assert cli_main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    for n in (8, 16):
        steps = sorted(int(r["steps"]) for r in rows if r["n"] == str(n))
        assert len(steps) == 11
        # nearest rank of 11: p50 is the 6th, p90 the 10th, p99 the 11th
        want = (
            f"n={n}: converged 11/11, violations 0, "
            f"steps p50 {steps[5]} p90 {steps[9]} p99 {steps[10]} max {steps[10]}"
        )
        assert want in lines
    assert lines[-1] == "converged 22/22, violations 0"


def test_cli_sweep_writes_no_csv_without_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["sweep", "--n", "8", "--trials", "1", "--seed", "5"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert "wrote" not in capsys.readouterr().out


def test_cli_sweep_range_check(capsys):
    code = cli_main(["sweep", "--n", "8", "--trials", "1", "--range-check"])
    assert code == 0
    assert "converged 1/1, violations 0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n", ""],
        ["sweep", "--n", "8,1"],
        ["sweep", "--n", "eight"],
        ["sweep", "--workers", "0"],
        ["closure", "--workers", "-1"],
        ["eliminate", "--workers", "0"],
        ["closure", "--n", "1"],
        ["eliminate", "--n", "1"],
        ["closure", "--n", "8", "--trials", "0"],
        ["closure", "--steps", "0"],
        ["eliminate", "--trials", "0"],
        ["sweep", "--trials", "0"],
        ["dump", "--n", "1"],
        ["lottery", "--k", "0"],
        ["lottery", "--c", "0"],
        ["lottery", "--trials", "0"],
        ["sweep", "--seed", "-1"],
        ["closure", "--seed", "-1"],
        ["eliminate", "--seed", "-1"],
        ["dump", "--seed", "-1"],
        ["dump", "--kind", "leaderless", "--seed", "-1"],
        ["lottery", "--seed", "-1"],
        ["sweep", "--seed", "1.5"],
        ["sweep", "--multiplier", "inf"],
        ["sweep", "--multiplier", "nan"],
        ["sweep", "--multiplier", "0"],
        ["sweep", "--multiplier", "-3"],
        ["sweep", "--n", "8", "--kappa-max", "5"],
        ["sweep", "--n", "8,1024", "--kappa-max", "100"],
        ["sweep", "--protocol", "por", "--n", "8", "--kappa-max", "200"],
        ["sweep", "--protocol", "por", "--n", "2"],
        ["closure", "--protocol", "por", "--n", "2", "--trials", "1"],
        ["eliminate", "--n", "8", "--leaders", "9"],
        ["eliminate", "--n", "8", "--leaders", ","],
        ["dump", "--n", "8", "--kappa-max", "3"],
        ["lottery", "--bound", "lower", "--k", "1"],
        ["sweep", "--protocol", "por", "--n", "8", "--range-check"],
        ["sweep", "--n", "64", "--trials", "1", "--multiplier", "1e308"],
        ["dump", "--kind", "random", "--n", "8", "--kappa-max", "100000000000000000000"],
        ["sweep", "--n", "8", "--trials", "1", "--kappa-max", "100000000000000000000"],
    ],
)
def test_cli_rejects_bad_sizes_and_workers(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"usage: ringleader {argv[0]}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [["dump"], ["sweep", "--n", "8", "--trials", "1"]])
def test_cli_reports_unwritable_out_path_before_running(tmp_path, monkeypatch, capsys, command):
    def no_sweep(spec):
        raise AssertionError("the sweep ran before its output path was checked")

    monkeypatch.setattr(harness, "run_convergence_sweep", no_sweep)
    assert cli_main([*command, "--out", str(tmp_path / "missing" / "out")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_lets_other_errors_through(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("not an input error")

    monkeypatch.setattr(harness, "run_closure_suite", broken)
    with pytest.raises(ValueError, match="not an input error"):
        cli_main(["closure", "--n", "8"])


def test_cli_eliminate(capsys):
    code = cli_main([
        "eliminate", "--n", "16", "--leaders", "2", "--trials", "3", "--seed", "1",
    ])
    assert code == 0
    assert "3/3 converged" in capsys.readouterr().out


def test_cli_orient(tmp_path, capsys):
    # orientation trials run as ``sweep --protocol por``; these rows are what
    # the removed ``orient --n 8 --seeds 3 --seed 4`` subcommand printed
    with pytest.raises(SystemExit) as exc:
        cli_main(["orient", "--n", "8"])
    assert exc.value.code == 2 and "invalid choice: 'orient'" in capsys.readouterr().err
    out = tmp_path / "por.csv"
    code = cli_main([
        "sweep", "--protocol", "por", "--n", "8", "--trials", "3", "--seed", "4",
        "--out", str(out),
    ])
    assert code == 0
    assert "converged 3/3, violations 0" in capsys.readouterr().out
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [(int(r[4]), int(r[5]), int(r[8])) for r in rows] == [
        (13477386951567418959, 47, 0),
        (14066876966315643796, 144, 0),
        (10863165097352399703, 48, 0),
    ]


def test_cli_closure(capsys):
    code = cli_main([
        "closure", "--protocol", "ppl", "--n", "8", "--trials", "2",
        "--seed", "3", "--steps", "2000",
    ])
    assert code == 0
    assert "0 violations" in capsys.readouterr().out


CLOSURE_ARGV = ["closure", "--protocol", "ppl", "--n", "8", "--trials", "2",
                "--seed", "3", "--steps", "2000"]


def test_cli_closure_prints_rejected_starts(monkeypatch, capsys):
    seeds = [trial_seed(3, 8, t) for t in range(2)]
    # built first: leaderless_settled itself calls construct_S_PL
    starts = {seed: analysis.leaderless_settled(P8, seed) for seed in seeds}
    monkeypatch.setattr(harness.analysis, "construct_S_PL", lambda params, seed: starts[seed])
    assert cli_main(CLOSURE_ARGV) == 1
    out = capsys.readouterr().out
    assert f"rejected by precheck: {seeds}\n" in out
    assert "0 violations" in out and "VIOLATION" not in out


def test_cli_closure_prints_violations(monkeypatch, capsys):
    # each trial's precheck passes and its first stop check, at step 0, fails
    calls = []

    def in_S_PL(config):
        calls.append(config)
        return len(calls) % 2 == 1

    monkeypatch.setattr(harness.analysis, "in_S_PL", in_S_PL)
    assert cli_main(CLOSURE_ARGV) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        f"VIOLATION seed={trial_seed(3, 8, t)} step=0: left the safe set" for t in range(2)
    ]
    assert len(calls) == 4 and "2 violations" in lines[-1]
    assert not any(line.startswith("rejected") for line in lines)
