"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports ringleader from the given ``src`` dir, sizes the workload's ring and
makes one tiny first call through the entry point the workload uses, so that
a first-use build (a compiled kernel, a cache) counts as set-up.  ``run.py``
hands every probe a fresh copy of the source tree and of the user cache
dirs, so such a build is not cached from an earlier probe.  Then it
prints ``time.perf_counter()``: on Linux that clock is system-wide, so the
parent subtracts its own reading taken just before the spawn.

Usage: python3 perfbench/setup_probe.py <src-dir> <workload> <n>
"""
import sys
import time


def main() -> None:
    src, workload, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    import ringleader
    from ringleader.harness import run_orientation_sweep

    ringleader.make_params(n)
    if workload == "orient":
        run_orientation_sweep((8,), 1, 0, post_steps=64)
    else:
        tiny = ringleader.construct_S_PL(ringleader.make_params(8), 0)
        ringleader.run(tiny, ringleader.SchedulerStream(8, 1), 64, ringleader.in_S_PL)
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main()
