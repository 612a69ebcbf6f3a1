"""ringleader benchmark: host time for a fixed, seeded set of simulated
interactions, with every trial's output checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload converge --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``):

* ``converge``: uniform-random starts at n=128 (the convergence sweep's
  trials) plus leaderless-settled starts at n=64; bound by the transition and
  the run loop;
* ``closure``: safe starts at n=32 held for 10^5 steps (the closure suite's
  trials); the ``in_S_PL`` check passes every n steps and pays its full cost;
* ``orient``: ring orientation at n=256 with post-orientation steps; runs no
  transition, analysis or scheduler code, so PPL-side changes must leave it
  unchanged.

All load comes from this one process as a closed loop: one trial after the
other with ``workers=1``.  The only exception is ``harness.pool_speedup`` in
the traced run, which also runs the workload's suite with two workers.

``--trace 0`` reports the end-to-end metrics.  It drives each trial once
through its harness entry point (directly where there is none), as a warm-up
and as the reference every later result must equal, then repeats the set in
rounds that end within ``--seconds`` of the start (at least three rounds).
A PPL trial is timed as one ``ringleader.run`` call whose scheduler reads the
clock at every ``draw`` (once every n steps); an orientation trial, which
draws its own interactions, is timed as one ``run_orientation_sweep`` call.
Readings split a PPL trial into stretches of ``STRETCH_STEPS`` simulated
steps, a few milliseconds each, which are the same work in every round.
On a shared host, co-tenants slow single-thread speed by up to 1.5x for
seconds to minutes, and a time only ever grows with that contention, so the
best time of a short stretch varies far less than a middle time: on a 2-core
shared VM, over 35 ten-second windows of the same pure-Python loop, the best
of 4 ms of work stayed within 8 % of its lowest value in 26 windows (33 %
above it at worst), where the median of 40 ms moved by 44 %.  After a
trial, once ``PROBE_EVERY_S`` have passed since the last one, a fresh
interpreter (``setup_probe.py``) is timed to its first trial, on a fresh
copy of the source tree and of the user cache dirs (see ``_setup_probe``).

A slow spell can outlast a whole run, so after each trial the run also
times a fixed piece of reference work that runs no ringleader code
(``hostspeed.py``), once per ``STRETCHES_PER_SAMPLE`` stretches and once
more; the host's speed is ``hostspeed.REFERENCE_S`` over the mean of each
sample slot's best time over the rounds.  ``wall_s`` is the sum over all
stretches of each stretch's best time over the rounds, and ``setup_s`` the
best set-up probe, each times the host's speed: seconds on the reference
host.  The speed and the times as measured are printed too.

``--trace 1`` reports the per-layer metrics.  Each round drives every trial
through its suite, directly, and directly with spans around the scheduler's
``draw``, the stop predicate, the start-state build and the run loop
(``tracing.py``), for at least two rounds.  Layer times come from each
trial's round with the best traced time; ``harness.overhead_s`` and
``trace.overhead_frac`` compare best times too.  Spans go to
``.perfbench/spans-<workload>-seed<n>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric with its unit, plus ``failed_frac``.  ``--smoke`` runs the
same code at tiny sizes.  The exit code is 2 when the ringleader source tree
is missing, and 1 when two repeats of the same seeded trial disagree on an
exact count.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2  # the determinism check needs two
STRETCH_STEPS = 4096  # simulated steps per timed stretch of a PPL trial: a few ms
STRETCHES_PER_SAMPLE = 8  # one host-speed sample per this many stretches, and per trial
PROBE_EVERY_S = 2.0  # least time between two set-up probes, so about 20 per run
SAMPLE_PER_TRIAL = 8  # checkpoint configurations kept per trial for the *_us costs

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "scheduler.draw_calls": "count",
    "scheduler.draw_s": "s",
    "scheduler.indices_per_s": "1/s",
    "transition.steps": "count",
    "transition.self_s": "s",
    "transition.steps_per_s": "1/s",
    "analysis.stop_evals": "count",
    "analysis.stop_s": "s",
    "analysis.us_per_eval": "us",
    "analysis.stop_share": "ratio",
    "analysis.stop_hit_ratio": "ratio",
    "analysis.in_S_PL_us": "us",
    "analysis.in_C_DL_us": "us",
    "analysis.is_perfect_us": "us",
    "state.builds": "count",
    "state.build_s": "s",
    "harness.overhead_s": "s",
    "harness.pool_speedup": "ratio",
    "orientation.steps": "count",
    "orientation.self_s": "s",
    "orientation.steps_per_s": "1/s",
    "orientation.coloring_s": "s",
    "trace.overhead_frac": "ratio",
}


class DeterminismError(RuntimeError):
    """Two repeats of one seeded trial reported different exact counts."""


class Tally:
    """Trials attempted and trials that failed their output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, outcome, reference=None):
        self.attempted += 1
        if not outcome.ok or (reference is not None and outcome.key != reference.key):
            self.failed += 1
        return outcome


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return out, perf_counter() - start


def _rounds(seconds: float, minimum: int, start: float | None = None):
    """Round numbers: at least ``minimum``, then as long as one more round of
    average length still ends within ``seconds`` of ``start`` (default: now)."""
    first = perf_counter()
    start = first if start is None else start
    done = 0
    while done < minimum or perf_counter() + (perf_counter() - first) / done <= start + seconds:
        yield done
        done += 1


def _stretches(marks: list[float], per: int) -> list[float]:
    """Times between every ``per``-th clock reading, and up to the last one."""
    cuts = marks[::per]
    if (len(marks) - 1) % per:
        cuts.append(marks[-1])
    return [b - a for a, b in zip(cuts, cuts[1:])]


def _setup_probe(workload: str, sizes):
    """A function that spawns a fresh interpreter and returns the time from
    the spawn to its first trial starting.

    Every spawn imports a fresh copy of the ``src`` tree, with ``HOME``,
    ``XDG_CACHE_HOME`` and ``TMPDIR`` in a fresh directory, so that a
    first-use build cached next to the package or in a user cache dir runs
    in every probe.  The copy has no bytecode cache either, so every probe
    compiles ringleader's modules, whether or not bytecode gets written.
    """
    n = {"converge": sizes.random_n, "closure": sizes.closure_n, "orient": sizes.orient_n}[workload]
    cold = SPAN_DIR / "probe"
    env = dict(
        os.environ,
        HOME=str(cold / "home"),
        XDG_CACHE_HOME=str(cold / "home" / ".cache"),
        TMPDIR=str(cold / "tmp"),
    )
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(cold / "src"), workload, str(n)]

    def spawn() -> float:
        shutil.rmtree(cold, ignore_errors=True)
        shutil.copytree(SRC, cold / "src", ignore=shutil.ignore_patterns("__pycache__"))
        for sub in ("home", "tmp"):
            (cold / sub).mkdir()
        start = perf_counter()
        done = subprocess.run(
            cmd, capture_output=True, text=True, check=True, timeout=120, cwd=cold, env=env
        )
        return float(done.stdout.split()[-1]) - start

    return spawn


def _best(rounds: list[list[float]]) -> list[float]:
    """Each slot's best time over the rounds, which must have equal slots."""
    return [min(slot) for slot in zip(*rounds)]


def untraced(workload: str, seed: int, seconds: float, sizes) -> tuple[Tally, dict]:
    import hostspeed
    from tracing import PLAIN, Stopwatch
    from workloads import units

    start = perf_counter()
    setup = _setup_probe(workload, sizes)
    setup_times = []
    trials = units(workload, seed, sizes)
    tally = Tally()
    # warm-up: each trial through its harness entry point where it has one;
    # every timed drive must report the same
    reference = [
        tally.check(unit.direct(PLAIN) if unit.suite is None else unit.suite()) for unit in trials
    ]
    stretches: list[list[list[float]]] = [[] for _ in trials]  # [trial][round][stretch]
    host: list[list[float]] = []  # [round][slot]: reference samples after each trial
    last_probe = float("-inf")
    for _ in _rounds(seconds, MIN_ROUNDS, start):
        host.append([])
        for i, (unit, ref) in enumerate(zip(trials, reference)):
            watch = Stopwatch()
            tally.check(unit.timed(watch), ref)
            times = _stretches(watch.marks, max(1, STRETCH_STEPS // unit.n))
            if stretches[i] and len(times) != len(stretches[i][0]):
                raise DeterminismError(
                    f"{workload} trial {i} at seed {seed}: {len(times)} timed stretches, "
                    f"{len(stretches[i][0])} in the first round"
                )
            stretches[i].append(times)
            host[-1].extend(
                hostspeed.sample() for _ in range(1 + len(times) // STRETCHES_PER_SAMPLE)
            )
            if perf_counter() - last_probe >= PROBE_EVERY_S:
                setup_times.append(setup())
                last_probe = perf_counter()
    measured_s = sum(sum(_best(rounds)) for rounds in stretches)
    speed = hostspeed.REFERENCE_S / statistics.mean(_best(host))
    wall_s = measured_s * speed
    steps = sum(r.steps for r in reference)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(
        f"{workload} host speed = {speed:.6g} of the reference host; as measured: "
        f"wall {measured_s:.6g} s, set-up {min(setup_times):.6g} s"
    )
    return tally, {
        "setup_s": min(setup_times) * speed,
        "wall_s": wall_s,
        "steps_per_s": steps / wall_s,
        "peak_rss_mb": peak_kib / 1024,
    }


def _predicate_us(samples: list) -> dict:
    """Per-evaluation cost of each predicate on the kept checkpoint sample."""
    from ringleader import in_C_DL, in_S_PL, is_perfect

    out = {}
    for name, predicate in (("in_S_PL", in_S_PL), ("in_C_DL", in_C_DL), ("is_perfect", is_perfect)):
        if not samples:
            out[f"analysis.{name}_us"] = 0.0
            continue
        passes: list[float] = []
        while len(passes) < 5 or sum(passes) < 0.2:
            start = perf_counter()
            for config in samples:
                predicate(config)
            passes.append(perf_counter() - start)
        out[f"analysis.{name}_us"] = statistics.median(passes) / len(samples) * 1e6
    return out


def _pool_speedup(workload: str, seed: int, sizes, tally: Tally) -> float:
    """Wall time of one suite set at one worker over the same set at two."""
    from workloads import pool_set

    drive = pool_set(workload, seed, sizes)
    single, t1 = _timed(drive, 1)
    pooled, t2 = _timed(drive, 2)
    for one, two in zip(single, pooled):
        tally.check(one)
        tally.check(two, one)
    return t1 / t2


def _exact_counts(rec: dict) -> tuple:
    counts = rec["tracer"].counts
    return (
        rec["steps"],
        counts["analysis.stop"],
        counts["scheduler.draw"],
        counts["scheduler.indices"],
    )


def _write_spans(path: Path, per_unit: list, t0: float) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        fh.write('["trial","id","name","start_s","end_s","parent"]\n')
        for u, recs in enumerate(per_unit):
            for r, rec in enumerate(recs):
                for sid, name, start, end, parent in rec["tracer"].spans:
                    parent_s = "null" if parent is None else parent
                    fh.write(
                        f'["r{r}u{u}",{sid},"{name}",{start - t0:.9f},{end - t0:.9f},{parent_s}]\n'
                    )


def traced(workload: str, seed: int, seconds: float, sizes) -> tuple[Tally, dict]:
    from tracing import PLAIN, Tracer
    from workloads import units

    t0 = perf_counter()
    trials = units(workload, seed, sizes)
    tally = Tally()
    reference: list = [None] * len(trials)
    per_unit: list[list[dict]] = [[] for _ in trials]
    samples: list = []
    for round_no in _rounds(seconds, MIN_TRACED_ROUNDS):
        for i, unit in enumerate(trials):
            rec: dict = {}
            drives = [("plain", unit.direct, (PLAIN,))]
            if unit.suite is not None:
                drives.append(("suite", unit.suite, ()))
            if round_no % 2:
                drives.reverse()
            for name, fn, args in drives:
                out, rec[name] = _timed(fn, *args)
                if reference[i] is None:
                    reference[i] = out
                tally.check(out, reference[i])
            sample_at = frozenset()
            if round_no == 1:
                # evenly spaced over the evaluations counted in round 0
                evals = per_unit[i][0]["tracer"].counts["analysis.stop"]
                sample_at = frozenset(k * evals // SAMPLE_PER_TRIAL for k in range(SAMPLE_PER_TRIAL))
            tracer = Tracer(sample_at)
            out, rec["traced"] = _timed(unit.direct, tracer)
            tally.check(out, reference[i])
            rec["tracer"], rec["steps"] = tracer, out.steps
            samples.extend(tracer.sample)
            per_unit[i].append(rec)

    for i, recs in enumerate(per_unit):
        counts = {_exact_counts(rec) for rec in recs}
        if len(counts) != 1:
            raise DeterminismError(
                f"{workload} trial {i} at seed {seed}: (steps, stop evals, draws, indices) "
                f"differ between repeats: {sorted(counts)}"
            )

    # per trial, take every layer time from the round with the best traced
    # time, as wall_s does, so that draw + stop + transition self time add up
    # to the run time
    chosen = [min(recs, key=lambda rec: rec["traced"])["tracer"] for recs in per_unit]
    first = [recs[0] for recs in per_unit]

    def busy(name: str) -> float:
        return sum(t.busy[name] for t in chosen)

    def count(name: str) -> int:
        return sum(rec["tracer"].counts[name] for rec in first)

    def best(i: int, name: str) -> float:
        return min(rec[name] for rec in per_unit[i])

    ppl_steps = sum(rec["steps"] for u, rec in zip(trials, first) if u.layer == "transition")
    orient_steps = sum(rec["steps"] for u, rec in zip(trials, first) if u.layer == "orientation")
    run_s, draw_s, stop_s = busy("run"), busy("scheduler.draw"), busy("analysis.stop")
    self_s = run_s - draw_s - stop_s
    evals = count("analysis.stop")
    plain_s = sum(best(i, "plain") for i in range(len(trials)))
    traced_s = sum(best(i, "traced") for i in range(len(trials)))
    overhead_s = sum(
        best(i, "suite") - best(i, "plain")
        for i, u in enumerate(trials)
        if u.suite is not None
    )
    metrics = {
        "scheduler.draw_calls": count("scheduler.draw"),
        "scheduler.draw_s": draw_s,
        "scheduler.indices_per_s": _ratio(count("scheduler.indices"), draw_s),
        "transition.steps": ppl_steps,
        "transition.self_s": self_s,
        "transition.steps_per_s": _ratio(ppl_steps, self_s),
        "analysis.stop_evals": evals,
        "analysis.stop_s": stop_s,
        "analysis.us_per_eval": _ratio(stop_s, evals) * 1e6,
        "analysis.stop_share": _ratio(stop_s, run_s),
        "analysis.stop_hit_ratio": _ratio(count("analysis.stop_hits"), evals),
        **_predicate_us(samples),
        "state.builds": count("state.build"),
        "state.build_s": busy("state.build"),
        "harness.overhead_s": overhead_s,
        "harness.pool_speedup": _pool_speedup(workload, seed, sizes, tally),
        "orientation.steps": orient_steps,
        "orientation.self_s": busy("orientation.run"),
        "orientation.steps_per_s": _ratio(orient_steps, busy("orientation.run")),
        "orientation.coloring_s": busy("orientation.coloring"),
        "trace.overhead_frac": traced_s / plain_s - 1,
    }
    _write_spans(SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl", per_unit, t0)
    if run_s:
        print(
            f"{workload} inside run: {run_s:.6f} s = draw {draw_s:.6f} + stop {stop_s:.6f}"
            f" + transition self {self_s:.6f}"
        )
    return tally, metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("converge", "closure", "orient"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ringleader" / "__init__.py").is_file():
        print(f"perfbench: ringleader source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ringleader

    if Path(ringleader.__file__).resolve().parent != SRC / "ringleader":
        print(f"perfbench: ringleader came from {ringleader.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import FULL, SMOKE

    sizes = SMOKE if args.smoke else FULL
    measure, units = (traced, PER_LAYER_UNITS) if args.trace else (untraced, END_TO_END_UNITS)
    try:
        tally, values = measure(args.workload, args.seed, args.seconds, sizes)
    except DeterminismError as exc:
        print(f"perfbench: determinism check failed: {exc}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    print(f"{args.workload} failed_frac = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} trials)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
