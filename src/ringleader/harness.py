"""Experiment orchestration: sweeps, closure and elimination suites, audits.

Every run in here is a pure function of its seed arguments.  Per-trial seeds
derive from ``(base_seed, n, trial_index)`` through numpy's SeedSequence, so
any single trial can be reproduced in isolation and trials can execute in
any order or process without changing the merged results.  ``_trials`` is
the one loop that builds a suite's trials and maps them through ``_map``.
"""
from __future__ import annotations

import enum
import math
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import analysis
from .core.params import (
    InvalidSizeError,
    ProtocolParams,
    make_params,
    require_count,
    require_drawable,
    require_member,
    require_multiplier,
    require_sizes,
)
from .core.scheduler import SchedulerStream
from .core.sim import run
from .core.state import AgentState, Configuration, random_configuration, token_fields
from .orientation import (
    OrientationTrial,
    generate_two_hop_coloring,
    oriented_configuration,
    run_orientation,
    run_orientation_reference,
)
from .transition import _off_track

DEFAULT_MULTIPLIER = 1e4
CLOSURE_STEPS = 100_000


class Protocol(enum.Enum):
    PPL = "ppl"
    POR = "por"


def _require_sizes(protocol: Protocol, n_values: tuple) -> None:
    """Raises InvalidSizeError unless ``protocol`` is a ``Protocol`` and every
    ring size is an int >= 2, or >= 3 for POR (a two-hop coloring needs 3)."""
    require_member("protocol", protocol, Protocol)
    require_sizes(protocol.value, n_values, 3 if protocol is Protocol.POR else 2)


@dataclass(frozen=True)
class ExperimentSpec:
    protocol: Protocol
    n_values: tuple[int, ...]
    trials_per_n: int
    base_seed: int
    max_steps_multiplier: float = DEFAULT_MULTIPLIER
    kappa_max_override: int | None = None
    range_check: bool = False  # ppl only: validate both touched agents after every step
    workers: int = 1

    def __post_init__(self) -> None:
        _require_sizes(self.protocol, self.n_values)
        require_count("trials_per_n", self.trials_per_n, 1)
        require_count("base_seed", self.base_seed, 0)
        require_multiplier("max_steps_multiplier", self.max_steps_multiplier)
        for n in self.n_values:
            step_cutoff(n, self.max_steps_multiplier)  # raises if the budget overflows
        require_count("workers", self.workers, 1)
        if self.range_check and self.protocol is not Protocol.PPL:
            raise InvalidSizeError("range_check applies to the ppl protocol only")
        if self.kappa_max_override is not None:
            if self.protocol is not Protocol.PPL:
                raise InvalidSizeError("kappa_max_override applies to the ppl protocol only")
            for n in self.n_values:
                # raises if unusable at n, or too large for a random start
                require_drawable(make_params(n, self.kappa_max_override))


@dataclass(frozen=True)
class TrialRecord:
    protocol: str
    n: int
    psi: int | None
    kappa_max: int | None
    seed: int
    steps: int
    converged: bool
    final_leader_count: int | None
    violations: int


def trial_seed(base_seed: int, n: int, trial_index: int) -> int:
    """Stable per-trial seed; two related streams hang off it (seed, seed+1).

    ``_trials`` derives every suite's trial seeds here while it builds its
    task list, before any trial runs, so this is where a base seed is
    checked: raises InvalidSizeError unless ``base_seed`` is an int >= 0.
    """
    require_count("seed", base_seed, 0)
    ss = np.random.SeedSequence([base_seed, n, trial_index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def step_cutoff(n: int, multiplier: float) -> int:
    """The step budget ``ceil(multiplier * n^2 * log2 n)``.  Raises
    InvalidSizeError unless ``n`` is an int >= 2, ``multiplier`` a finite
    number > 0 and the budget finite."""
    require_count("n", n, 2)
    require_multiplier("multiplier", multiplier)
    budget = multiplier * n * n * math.log2(n)
    if not math.isfinite(budget):
        raise InvalidSizeError(
            f"multiplier {multiplier!r} makes the step budget at n = {n} overflow"
        )
    return math.ceil(budget)


def _map(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, in a process pool when ``workers > 1``.

    The pool gets at most one worker per task: under fork, CPython starts
    every worker at the first submit.  The pool is imported here, so a
    process that never pools never loads multiprocessing."""
    if workers == 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks) or 1)) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def _trials(task, n_values: tuple, trials: int, seed: int, workers: int, *args) -> list:
    """``task((n, trial_seed(seed, n, t), *args))`` for each n in ``n_values``
    and each t < ``trials``, in (n, t) order, through ``_map``: the one
    place a suite builds its trials.  Raises InvalidSizeError, before any
    trial runs, unless ``trials`` and ``workers`` are ints >= 1 and ``seed``
    an int >= 0."""
    require_count("trials", trials, 1)
    require_count("workers", workers, 1)
    tasks = [(n, trial_seed(seed, n, t), *args) for n in n_values for t in range(trials)]
    return _map(task, tasks, workers)


# --------------------------------------------------------------------------
# convergence sweep
# --------------------------------------------------------------------------

def _ppl_trial(args) -> TrialRecord:
    n, seed, spec = args
    params = make_params(n, spec.kappa_max_override)
    config = random_configuration(params, seed)
    scheduler = SchedulerStream(n, seed + 1)
    cutoff = step_cutoff(n, spec.max_steps_multiplier)
    violations = 0

    def check_range(work: Configuration, i: int, trace: list) -> None:
        nonlocal violations
        try:
            work.agents[i].validate(params)
            work.agents[(i + 1) % n].validate(params)
        except ValueError:
            violations += 1

    final, steps, stopped = run(
        config, scheduler, cutoff, analysis.in_S_PL,
        on_step=check_range if spec.range_check else None,
    )
    return TrialRecord(
        protocol=Protocol.PPL.value,
        n=n,
        psi=params.psi,
        kappa_max=params.kappa_max,
        seed=seed,
        steps=steps,
        converged=stopped,
        final_leader_count=analysis.leader_count(final),
        violations=violations,
    )


def _orientation_task(args) -> OrientationTrial:
    n, seed, multiplier, post_steps = args
    coloring = generate_two_hop_coloring(n, seed)
    return run_orientation(coloring, seed + 1, step_cutoff(n, multiplier), post_steps=post_steps)


def _por_trial(args) -> TrialRecord:
    n, seed, spec = args
    trial = _orientation_task((n, seed, spec.max_steps_multiplier, 0))
    return TrialRecord(
        protocol=Protocol.POR.value, n=n, psi=None, kappa_max=None, seed=seed,
        steps=step_cutoff(n, spec.max_steps_multiplier) if trial.steps_to_oriented is None
        else trial.steps_to_oriented,
        converged=trial.converged, final_leader_count=None, violations=trial.monotone_violations,
    )


def run_orientation_sweep(
    n_values: tuple[int, ...],
    trials: int,
    seed: int,
    multiplier: float = DEFAULT_MULTIPLIER,
    post_steps: int = 0,
    workers: int = 1,
) -> list[OrientationTrial]:
    """Instrumented orientation trials over several ring sizes.

    Raises InvalidSizeError, before any trial runs, for ring sizes below 3
    or not ints, ``trials`` < 1, ``post_steps`` < 0, a bad ``seed`` or
    ``multiplier`` (see ``ExperimentSpec``; ``step_cutoff`` checks every
    n's budget) or ``workers`` < 1.
    """
    _require_sizes(Protocol.POR, n_values)
    require_count("post_steps", post_steps, 0)
    for n in n_values:
        step_cutoff(n, multiplier)
    return _trials(_orientation_task, n_values, trials, seed, workers, multiplier, post_steps)


def run_convergence_sweep(spec: ExperimentSpec) -> list[TrialRecord]:
    """Run every (n, trial) cell of the spec; deterministic in the spec.

    Each trial builds its row from its own seed: a PPL trial runs a
    uniform-random start to ``S_PL``, a POR trial runs ``run_orientation``
    on a two-hop coloring, as ``run_orientation_sweep``'s trials do, and
    reports its cutoff as ``steps`` when the ring does not orient."""
    task = _ppl_trial if spec.protocol is Protocol.PPL else _por_trial
    return _trials(task, spec.n_values, spec.trials_per_n, spec.base_seed, spec.workers, spec)


# --------------------------------------------------------------------------
# closure suite
# --------------------------------------------------------------------------

@dataclass
class ClosureReport:
    protocol: str
    n: int
    trials: int
    steps_per_trial: int
    violations: list[str] = field(default_factory=list)
    rejected_trials: list[int] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.rejected_trials


def _ppl_closure_task(args) -> tuple[int, list[str], bool]:
    n, seed, steps = args
    config = analysis.construct_S_PL(make_params(n), seed)
    if not analysis.in_S_PL(config):
        return seed, [], True  # rejected by the precheck, not a violation
    leader_home = next(i for i, a in enumerate(config.agents) if a.leader)
    failed: list[str] = []  # what the first failing check found

    def check(work: Configuration) -> bool:
        if not analysis.in_S_PL(work):
            failed.append("left the safe set")
        if not work.agents[leader_home].leader:
            failed.append("leader moved or died")
        return bool(failed)

    _, done, _ = run(config, SchedulerStream(n, seed + 1), steps, check)
    return seed, [f"seed={seed} step={done}: {what}" for what in failed], False


def _por_closure_task(args) -> tuple[int, list[str], bool]:
    n, seed, steps = args
    config = oriented_configuration(n, seed)
    trial = run_orientation_reference(config, seed + 1, max_steps=0, post_steps=steps)
    if not trial.converged:  # with no steps allowed: not oriented at step 0
        return seed, [], True
    violations = []
    if trial.post_dir_changes:
        violations.append(
            f"seed={seed}: {trial.post_dir_changes} direction changes after orientation"
        )
    if trial.monotone_violations:
        violations.append(f"seed={seed}: segment count increased")
    return seed, violations, False


def run_closure_suite(
    protocol: Protocol,
    n: int,
    trials: int,
    seed: int,
    steps: int = CLOSURE_STEPS,
    workers: int = 1,
) -> ClosureReport:
    """Start from safe configurations and verify safety never degrades.

    Each trial builds its own start from its seed: ``construct_S_PL`` for
    PPL, ``oriented_configuration`` for POR.  PPL trials assert membership
    in the safe set and a fixed leader identity at each of ``run``'s stop
    checks; a trial stops at the first check that fails and reports what
    failed there at the step ``run`` returned.
    POR trials drive oriented starts through ``run_orientation_reference``,
    one transition call per step, and assert that no step changes a
    direction or raises the segment count.  A start that fails its precheck
    (not in the safe set, or not oriented at step 0) runs no step and is
    reported as rejected; the suite built it, so the report does not pass.
    Raises InvalidSizeError, before any trial runs, for a ``protocol`` that
    is not a ``Protocol``, a ring size below its minimum (2 for PPL, 3 for
    POR), ``trials`` < 1, ``steps`` < 1, a bad ``seed`` (see
    ``ExperimentSpec``) or ``workers`` < 1.
    """
    _require_sizes(protocol, (n,))
    require_count("steps", steps, 1)
    task = _ppl_closure_task if protocol is Protocol.PPL else _por_closure_task
    results = _trials(task, (n,), trials, seed, workers, steps)
    report = ClosureReport(
        protocol=protocol.value, n=n, trials=trials, steps_per_trial=steps
    )
    for tseed, violations, rejected in results:
        report.violations.extend(violations)
        if rejected:
            report.rejected_trials.append(tseed)
    return report


# --------------------------------------------------------------------------
# elimination suite
# --------------------------------------------------------------------------

@dataclass
class EliminationReport:
    n: int
    initial_leaders: int
    trials: int
    steps: list[int] = field(default_factory=list)
    converged: list[bool] = field(default_factory=list)
    zero_leader_events: int = 0

    @property
    def passed(self) -> bool:
        return self.zero_leader_events == 0 and all(self.converged)

    @property
    def median_steps(self) -> float:
        return float(np.median(self.steps)) if self.steps else math.nan


def _require_leaders(name: str, leaders: int, n: int) -> None:
    require_count(name, leaders, 1)
    if leaders > n:
        raise InvalidSizeError(f"{name} must be <= n = {n}, got {leaders}")


def multi_leader_configuration(
    params: ProtocolParams, leaders: int, seed: int
) -> Configuration:
    """Evenly spaced shielded leaders, no bullets or signals, and each gap
    from one leader to the next laid out as a safe ring lays out its whole
    length: settled dist and last, seed-drawn b bits.  Every live-bullet
    condition is vacuous, so the configuration sits in the peaceful-bullet
    set by construction.  Raises InvalidSizeError for ``leaders`` outside
    [1, n] or a negative ``seed``, or either not an int."""
    n = params.n
    _require_leaders("leaders", leaders, n)
    require_count("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    positions = [(j * n) // leaders for j in range(leaders)]  # the first is 0
    agents = [AgentState(b=int(rng.integers(0, 2))) for _ in range(n)]
    for start, end in zip(positions, positions[1:] + [n]):
        agents[start].leader = agents[start].shield = 1
        dist, last = analysis._settled_run(params.psi, end - start)
        for a, d, l in zip(agents[start:end], dist, last):
            a.dist, a.last = d, l
    return Configuration(params, agents)


def _elimination_task(args) -> tuple[int, bool, int]:
    n, tseed, leaders, cutoff = args
    params = make_params(n)
    config = multi_leader_configuration(params, leaders, tseed)
    final, done, _ = run(
        config, SchedulerStream(n, tseed + 1), cutoff,
        lambda c: analysis.leader_count(c) <= 1,
    )
    count = analysis.leader_count(final)
    return done, count == 1, int(count == 0)


def run_elimination_suite(
    n: int,
    initial_leaders: int,
    trials: int,
    seed: int,
    multiplier: float = DEFAULT_MULTIPLIER,
    workers: int = 1,
) -> EliminationReport:
    """From peaceful multi-leader starts, run until exactly one leader.

    The leader count is asserted at every check interval; observing zero
    leaders is recorded as a hard failure (it would contradict closure of
    the peaceful-bullet set).  Raises InvalidSizeError, before any trial
    runs, for ``n`` < 2, ``trials`` < 1, a bad ``seed`` or ``multiplier``
    (see ``ExperimentSpec``), ``workers`` < 1 or ``initial_leaders``
    outside [1, n]."""
    _require_sizes(Protocol.PPL, (n,))
    _require_leaders("initial_leaders", initial_leaders, n)
    cutoff = step_cutoff(n, multiplier)
    results = _trials(_elimination_task, (n,), trials, seed, workers, initial_leaders, cutoff)
    report = EliminationReport(n=n, initial_leaders=initial_leaders, trials=trials)
    for done, converged, zero_events in results:
        report.steps.append(done)
        report.converged.append(converged)
        report.zero_leader_events += zero_events
    return report


# --------------------------------------------------------------------------
# instrumented audits
# --------------------------------------------------------------------------

def _never(config: Configuration) -> bool:
    return False


@dataclass
class TokenAuditReport:
    steps: int
    births: int
    moves_bound: int
    max_moves_seen: int
    violations: int
    invalid_moves: int

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.invalid_moves == 0


def run_token_audit(config: Configuration, seed: int, steps: int) -> TokenAuditReport:
    """Track every token born at a border and count its moves.

    Requires a start whose distance chain stays settled (a safe-set start
    qualifies); each tracked token must stay on its trajectory and must not
    move more than ``2*psi**2 - 2*psi + 1`` times before disappearing.
    """
    p = config.params
    n, psi, two_psi = p.n, p.psi, p.two_psi
    bound = 2 * psi * psi - 2 * psi + 1
    tracked: dict[tuple[str, int], int] = {}
    births = 0
    max_moves = 0
    violations = 0
    invalid_moves = 0

    def follow_tokens(work: Configuration, i: int, trace: list) -> None:
        nonlocal births, max_moves, violations, invalid_moves
        j = (i + 1) % n
        for ev in trace:
            kind = ev[0]
            if kind == "tgen":
                tracked[(ev[1], i)] = 0
                births += 1
            elif kind == "tdel":
                tracked.pop((ev[1], i if ev[2] == "l" else j), None)
            elif kind == "tmove":
                color = ev[1]
                src, dst = (i, j) if ev[2] == "lr" else (j, i)
                moves = tracked.pop((color, src), None)
                if moves is None:
                    continue  # token predates the audit
                moves += 1
                if moves > bound:
                    violations += 1
                if moves > max_moves:
                    max_moves = moves
                tracked[(color, dst)] = moves
                holder = work.agents[dst]
                t = holder.token_b if color == "B" else holder.token_w
                if t is not None and _off_track(
                    holder.dist, token_fields(t)[0], 0 if color == "B" else psi, two_psi, psi
                ):
                    invalid_moves += 1

    run(config, SchedulerStream(n, seed), steps, _never, on_step=follow_tokens)
    return TokenAuditReport(
        steps=steps,
        births=births,
        moves_bound=bound,
        max_moves_seen=max_moves,
        violations=violations,
        invalid_moves=invalid_moves,
    )


@dataclass
class PeacefulAuditReport:
    steps: int
    bullets_tracked: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def run_peaceful_audit(
    config: Configuration, seed: int, steps: int
) -> PeacefulAuditReport:
    """Check that live bullets, once peaceful, stay peaceful until they die."""
    n = config.params.n
    live: dict[int, bool] = {}  # position -> has been seen peaceful
    for pos, a in enumerate(config.agents):
        if a.bullet == 2:
            live[pos] = analysis.is_peaceful(config, pos)
    tracked_total = len(live)
    violations = 0

    def follow_bullets(work: Configuration, i: int, trace: list) -> None:
        nonlocal tracked_total, violations
        j = (i + 1) % n
        moved: list[tuple[int, int]] = []
        for ev in trace:
            kind = ev[0]
            if kind == "bfire":
                pos = i if ev[1] == "l" else j
                if ev[2] == 2:
                    live[pos] = False
                    tracked_total += 1
                else:
                    live.pop(pos, None)
            elif kind == "bdel":
                live.pop(i if ev[1] == "l" else j, None)
            elif kind == "bhit":
                live.pop(i, None)
            elif kind == "bmove":
                if i in live:
                    moved.append((i, j))
        for src, dst in moved:
            live[dst] = live.pop(src)
        for pos in list(live):
            peaceful_now = analysis.is_peaceful(work, pos)
            if live[pos] and not peaceful_now:
                violations += 1
            live[pos] = live[pos] or peaceful_now

    run(config, SchedulerStream(n, seed), steps, _never, on_step=follow_bullets)
    return PeacefulAuditReport(
        steps=steps, bullets_tracked=tracked_total, violations=violations
    )


# --------------------------------------------------------------------------
# CSV / snapshot I/O (csv and json load on first use, not with the package)
# --------------------------------------------------------------------------

def export_csv(records: list[TrialRecord], path: str | Path) -> None:
    """One header row of ``TrialRecord``'s field names, then one row per
    record: ``None`` is a blank cell and a bool is 0 or 1."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # writes None as the empty string
        writer.writerow(f.name for f in fields(TrialRecord))
        for r in records:
            writer.writerow(int(v) if type(v) is bool else v for v in astuple(r))


class ConfigFormatError(ValueError):
    """A snapshot file failed to parse or validate."""


def dump_config(config: Configuration, path: str | Path) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(config.to_snapshot(), fh, indent=1)
        fh.write("\n")


def load_config(path: str | Path) -> Configuration:
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigFormatError(f"{path}: {exc}") from None
    try:
        return Configuration.from_snapshot(data)
    except ValueError as exc:
        raise ConfigFormatError(f"{path}: {exc}") from None
