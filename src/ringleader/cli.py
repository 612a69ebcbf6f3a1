"""Command-line front end.

Subcommands: sweep (``--protocol por`` for orientation), closure, eliminate,
lottery, check, dump, load.
Exit code 0 means zero invariant violations and (for suites) full
convergence; anything else exits 1, as does a snapshot that cannot be read,
parsed or validated (``ConfigFormatError``) or an output file that cannot be
written.  Input values are checked by the library only: a value it rejects
with ``InvalidSizeError`` exits 2 with the subcommand's usage line, like a
flag argparse cannot parse.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import analysis, harness, lottery
from .core.params import InvalidSizeError, make_params
from .core.state import random_configuration
from .harness import ConfigFormatError, ExperimentSpec, Protocol


def _int_list(text: str) -> tuple[int, ...]:
    values = tuple(int(x) for x in text.split(",") if x)
    if not values:
        raise argparse.ArgumentTypeError(f"need comma-separated ints, got {text!r}")
    return values


def _summary(records) -> str:
    converged = sum(r.converged for r in records)
    violations = sum(r.violations for r in records)
    return f"converged {converged}/{len(records)}, violations {violations}"


def _step_quantiles(steps: list[int]) -> str:
    """Nearest-rank p50/p90/p99 and the max: each is a step count some trial
    took (a trial that did not converge counts with its cutoff)."""
    steps = sorted(steps)
    ranks = [steps[math.ceil(q * len(steps) / 100) - 1] for q in (50, 90, 99)]
    return "p50 {} p90 {} p99 {} max {}".format(*ranks, steps[-1])


def _cmd_sweep(args) -> int:
    spec = ExperimentSpec(
        protocol=Protocol(args.protocol),
        n_values=args.n,
        trials_per_n=args.trials,
        base_seed=args.seed,
        max_steps_multiplier=args.multiplier,
        kappa_max_override=args.kappa_max,
        range_check=args.range_check,
        workers=args.workers,
    )
    if args.out:  # an unwritable path fails here, not after the sweep
        open(args.out, "w").close()
    records = harness.run_convergence_sweep(spec)
    if args.out:
        harness.export_csv(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    by_n: dict[int, list] = {}
    for r in records:
        by_n.setdefault(r.n, []).append(r)
    for n, rows in by_n.items():
        print(f"n={n}: {_summary(rows)}, steps {_step_quantiles([r.steps for r in rows])}")
    print(_summary(records))
    return 0 if all(r.converged and not r.violations for r in records) else 1


def _cmd_closure(args) -> int:
    report = harness.run_closure_suite(
        Protocol(args.protocol),
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        steps=args.steps,
        workers=args.workers,
    )
    for line in report.violations:
        print(f"VIOLATION {line}")
    if report.rejected_trials:
        print(f"rejected by precheck: {report.rejected_trials}")
    print(
        f"closure {report.protocol} n={report.n}: {report.trials} trials x "
        f"{report.steps_per_trial} steps, {len(report.violations)} violations"
    )
    return 0 if report.passed else 1


def _cmd_eliminate(args) -> int:
    reports = [
        harness.run_elimination_suite(
            n=args.n,
            initial_leaders=leaders,
            trials=args.trials,
            seed=args.seed,
            workers=args.workers,
        )
        for leaders in args.leaders
    ]
    for report in reports:
        status = "ok" if report.passed else "FAILED"
        print(
            f"eliminate n={args.n} leaders={report.initial_leaders}: "
            f"{sum(report.converged)}/{report.trials} converged, "
            f"median {report.median_steps:.0f} steps, "
            f"zero-leader events {report.zero_leader_events} [{status}]"
        )
    return 0 if all(r.passed for r in reports) else 1


def _cmd_lottery(args) -> int:
    which = lottery.Bound(args.bound)
    rate = lottery.estimate_bound(args.k, args.c, which, args.trials, args.seed)
    ceiling = lottery.bound_probability(args.k, args.c)
    print(
        f"lottery k={args.k} c={args.c} bound={args.bound}: "
        f"empirical failure rate {rate:.5f}, stated ceiling {ceiling:.5f}"
    )
    return 0 if rate <= ceiling + lottery.SAMPLING_SLACK else 1


_PREDICATES = {
    "perfect": analysis.is_perfect,
    "c-pb": analysis.in_C_PB,
    "c-dl": analysis.in_C_DL,
    "s-pl": analysis.in_S_PL,
}


def _cmd_check(args) -> int:
    config = harness.load_config(args.snapshot)
    if args.predicate == "leader-count":
        print(analysis.leader_count(config))
        return 0
    result = _PREDICATES[args.predicate](config)
    print("true" if result else "false")
    return 0 if result else 1


_STARTS = {
    "random": random_configuration,
    "safe": analysis.construct_S_PL,
    "leaderless": analysis.leaderless_settled,
}


def _cmd_dump(args) -> int:
    params = make_params(args.n, args.kappa_max)
    config = _STARTS[args.kind](params, args.seed)
    harness.dump_config(config, args.out)
    print(f"wrote {args.kind} configuration (n={args.n}, seed={args.seed}) to {args.out}")
    return 0


def _cmd_load(args) -> int:
    config = harness.load_config(args.snapshot)
    p = config.params
    print(
        f"valid snapshot: n={p.n} psi={p.psi} kappa_max={p.kappa_max} "
        f"leaders={analysis.leader_count(config)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ringleader", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="convergence sweep from random configurations")
    p.add_argument("--protocol", choices=["ppl", "por"], default="ppl")
    p.add_argument(
        "--n", type=_int_list, default="8,16,32,64", help="comma-separated ring sizes"
    )
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--multiplier", type=float, default=harness.DEFAULT_MULTIPLIER)
    p.add_argument("--kappa-max", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--range-check", action="store_true",
        help="validate both touched agents after every step (slow)",
    )
    p.add_argument("--out", default=None, help="write the trial records as CSV")
    p.set_defaults(func=_cmd_sweep, parser=p)

    p = sub.add_parser("closure", help="safety preservation from safe starts")
    p.add_argument("--protocol", choices=["ppl", "por"], default="ppl")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=harness.CLOSURE_STEPS)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_closure, parser=p)

    p = sub.add_parser("eliminate", help="leader elimination from multi-leader starts")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--leaders", type=_int_list, default="2,4,8", help="comma-separated counts")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_eliminate, parser=p)

    p = sub.add_parser("lottery", help="lottery-game bound estimation")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--bound", choices=["upper", "lower"], default="upper")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_lottery, parser=p)

    p = sub.add_parser("check", help="evaluate a predicate on a snapshot")
    p.add_argument("predicate", choices=sorted(_PREDICATES) + ["leader-count"])
    p.add_argument("snapshot")
    p.set_defaults(func=_cmd_check, parser=p)

    p = sub.add_parser("dump", help="write a configuration snapshot")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=sorted(_STARTS), default="random")
    p.add_argument("--kappa-max", type=int, default=None)
    p.add_argument("--out", default="config.json")
    p.set_defaults(func=_cmd_dump, parser=p)

    p = sub.add_parser("load", help="validate a configuration snapshot")
    p.add_argument("snapshot")
    p.set_defaults(func=_cmd_load, parser=p)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidSizeError as exc:  # a value the library rejects: usage error, exit 2
        args.parser.error(str(exc))
    except (ConfigFormatError, OSError) as exc:  # a bad snapshot or output path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
