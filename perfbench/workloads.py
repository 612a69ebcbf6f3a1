"""The benchmark's workloads: seeded trial sets, their two drives, and the
output check of every trial.

A workload is a list of units, one trial each.  A unit is driven three ways:

* ``suite()`` goes through the harness function the CLI uses, with
  ``workers=1``; it is ``None`` for a start family the harness has no entry
  for (the leaderless-settled starts);
* ``direct(hooks)`` builds the same start and drives it through
  ``ringleader.run`` (or ``run_orientation``), calling every layer through
  ``hooks`` so that the traced run can time them;
* ``timed(clock)`` is the drive the untraced run times: ``direct`` for the
  PPL units, whose scheduler lets the clock split a trial into stretches,
  and ``suite`` as one stretch for orientation, which draws its own
  interactions.

Both return an :class:`Outcome` whose ``key`` must be equal between the two
drives and between repeats: the simulation is a pure function of the seeds.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple

from ringleader import (
    ExperimentSpec,
    Protocol,
    construct_S_PL,
    generate_two_hop_coloring,
    in_S_PL,
    leader_count,
    make_params,
    random_configuration,
    run,
    run_closure_suite,
    run_convergence_sweep,
)
from ringleader.harness import (
    DEFAULT_MULTIPLIER,
    run_orientation_sweep,
    step_cutoff,
    trial_seed,
)
from ringleader.orientation import run_orientation

@dataclasses.dataclass(frozen=True)
class Sizes:
    random_n: int = 128
    random_trials: int = 8
    leaderless_n: int = 64
    leaderless_trials: int = 2
    closure_n: int = 32
    closure_trials: int = 4
    closure_steps: int = 100_000
    orient_n: int = 256
    orient_trials: int = 48
    orient_post_steps: int = 100_000


FULL = Sizes()
SMOKE = Sizes(
    random_n=16,
    random_trials=2,
    leaderless_n=8,
    leaderless_trials=1,
    closure_n=8,
    closure_trials=2,
    closure_steps=2_000,
    orient_n=16,
    orient_trials=2,
    orient_post_steps=2_000,
)


class Outcome(NamedTuple):
    steps: int  # simulated interactions of the trial
    ok: bool  # the trial passed its output check
    key: tuple  # everything the trial reported, for equality checks


def _base(seed: int, family: int, k: int) -> int:
    """Base seed of trial ``k`` of a start family; distinct per (seed, family, k)."""
    return (seed * 8 + family) * 1000 + k


# --------------------------------------------------------------------------
# converge: uniform-random starts (harness sweep) and leaderless-settled
# starts (no harness entry)
# --------------------------------------------------------------------------

def _converge_outcome(final, steps, stopped) -> Outcome:
    leaders = leader_count(final)
    ok = stopped and leaders == 1 and in_S_PL(final)
    return Outcome(steps, ok, (steps, stopped, leaders))


class RandomStart:
    layer = "transition"

    def __init__(self, n: int, base: int):
        self.n = n
        self.base = base
        self.seed = trial_seed(base, n, 0)  # the seed the sweep gives trial 0

    def suite(self) -> Outcome:
        spec = ExperimentSpec(Protocol.PPL, (self.n,), 1, self.base, workers=1)
        (rec,) = run_convergence_sweep(spec)
        ok = rec.converged and rec.final_leader_count == 1 and rec.violations == 0
        return Outcome(rec.steps, ok, (rec.steps, rec.converged, rec.final_leader_count))

    def timed(self, clock) -> Outcome:
        return self.direct(clock)

    def direct(self, hooks) -> Outcome:
        n = self.n
        with hooks.trial():
            params = make_params(n)
            config = hooks.call("state.build", random_configuration, params, self.seed)
            result = hooks.call(
                "run", run, config, hooks.scheduler(n, self.seed + 1),
                step_cutoff(n, DEFAULT_MULTIPLIER), hooks.stop(in_S_PL),
            )
        return _converge_outcome(*result)


def leaderless_settled(params, seed: int):
    """A safe configuration with its leader's ``leader`` and ``shield`` bits
    cleared: the settled chain must detect the missing leader and make one."""
    config = construct_S_PL(params, seed)
    for agent in config.agents:
        if agent.leader:
            agent.leader = 0
            agent.shield = 0
    return config


class Leaderless(RandomStart):
    suite = None

    def direct(self, hooks) -> Outcome:
        n = self.n
        with hooks.trial():
            params = make_params(n)
            config = hooks.call("state.build", leaderless_settled, params, self.seed)
            result = hooks.call(
                "run", run, config, hooks.scheduler(n, self.seed + 1),
                step_cutoff(n, DEFAULT_MULTIPLIER), hooks.stop(in_S_PL),
            )
        return _converge_outcome(*result)


# --------------------------------------------------------------------------
# closure: safe starts must stay in S_PL with the same leader
# --------------------------------------------------------------------------

class Closure:
    layer = "transition"

    def __init__(self, n: int, base: int, steps: int):
        self.n = n
        self.base = base
        self.steps = steps
        self.seed = trial_seed(base, n, 0)

    def suite(self) -> Outcome:
        rep = run_closure_suite(Protocol.PPL, self.n, 1, self.base, steps=self.steps, workers=1)
        ok = not rep.violations and not rep.rejected_trials
        key = (len(rep.violations), len(rep.rejected_trials))
        return Outcome(self.steps if ok else 0, ok, key)

    def timed(self, clock) -> Outcome:
        return self.direct(clock)

    def direct(self, hooks) -> Outcome:
        n = self.n
        with hooks.trial():
            config = hooks.call("state.build", construct_S_PL, make_params(n), self.seed)
            if not in_S_PL(config):
                return Outcome(0, False, (0, 1))
            home = next(i for i, a in enumerate(config.agents) if a.leader)

            def left_safety(c) -> bool:
                return not in_S_PL(c) or not c.agents[home].leader

            _, done, stopped = hooks.call(
                "run", run, config, hooks.scheduler(n, self.seed + 1),
                self.steps, hooks.stop(left_safety),
            )
        ok = not stopped and done == self.steps
        return Outcome(done, ok, (int(stopped), 0))


# --------------------------------------------------------------------------
# orient: ring orientation, no PPL code at all
# --------------------------------------------------------------------------

def _orient_outcome(trial, post_steps: int) -> Outcome:
    ok = (
        trial.converged
        and trial.monotone_violations == 0
        and trial.post_dir_changes == 0
        and trial.final_segment_count == 1
    )
    steps = (trial.steps_to_oriented or 0) + (post_steps if trial.converged else 0)
    return Outcome(steps, ok, dataclasses.astuple(trial))


class Orient:
    layer = "orientation"

    def __init__(self, n: int, base: int, post_steps: int):
        self.n = n
        self.base = base
        self.post_steps = post_steps
        self.seed = trial_seed(base, n, 0)

    def suite(self) -> Outcome:
        (trial,) = run_orientation_sweep((self.n,), 1, self.base, post_steps=self.post_steps)
        return _orient_outcome(trial, self.post_steps)

    def timed(self, clock) -> Outcome:
        with clock.trial():
            return self.suite()

    def direct(self, hooks) -> Outcome:
        n = self.n
        with hooks.trial():
            coloring = hooks.call("orientation.coloring", generate_two_hop_coloring, n, self.seed)
            trial = hooks.call(
                "orientation.run", run_orientation, coloring, self.seed + 1,
                step_cutoff(n, DEFAULT_MULTIPLIER), self.post_steps,
            )
        return _orient_outcome(trial, self.post_steps)


# --------------------------------------------------------------------------
# trial sets and the two-worker pool measurement
# --------------------------------------------------------------------------

def units(workload: str, seed: int, sizes: Sizes) -> list:
    """The fixed trial set of ``workload`` at ``seed``."""
    if workload == "converge":
        return [
            RandomStart(sizes.random_n, _base(seed, 0, k)) for k in range(sizes.random_trials)
        ] + [
            Leaderless(sizes.leaderless_n, _base(seed, 1, k))
            for k in range(sizes.leaderless_trials)
        ]
    if workload == "closure":
        return [
            Closure(sizes.closure_n, _base(seed, 2, k), sizes.closure_steps)
            for k in range(sizes.closure_trials)
        ]
    if workload == "orient":
        return [
            Orient(sizes.orient_n, _base(seed, 3, k), sizes.orient_post_steps)
            for k in range(sizes.orient_trials)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def pool_set(workload: str, seed: int, sizes: Sizes) -> Callable[[int], list[Outcome]]:
    """The workload's suite over one multi-trial set, at a given worker count.

    On ``converge`` this is the uniform-random start set; the leaderless
    family has no harness entry and so no pool.
    """
    base = _base(seed, 4, 0)

    def converge(workers: int) -> list[Outcome]:
        spec = ExperimentSpec(
            Protocol.PPL, (sizes.random_n,), sizes.random_trials, base, workers=workers
        )
        return [
            Outcome(
                r.steps,
                r.converged and r.final_leader_count == 1 and r.violations == 0,
                (r.steps, r.converged, r.final_leader_count),
            )
            for r in run_convergence_sweep(spec)
        ]

    def closure(workers: int) -> list[Outcome]:
        trials = max(1, sizes.closure_trials // 2)
        rep = run_closure_suite(
            Protocol.PPL, sizes.closure_n, trials, base,
            steps=sizes.closure_steps, workers=workers,
        )
        ok = not rep.violations and not rep.rejected_trials
        key = (len(rep.violations), len(rep.rejected_trials))
        return [Outcome(sizes.closure_steps * trials if ok else 0, ok, key)]

    def orient(workers: int) -> list[Outcome]:
        trials = run_orientation_sweep(
            (sizes.orient_n,), max(1, sizes.orient_trials // 2), base,
            post_steps=sizes.orient_post_steps, workers=workers,
        )
        return [_orient_outcome(t, sizes.orient_post_steps) for t in trials]

    return {"converge": converge, "closure": closure, "orient": orient}[workload]
