"""The host-speed reference that ``run.py`` scales its times by.

On a shared host, co-tenants change single-thread speed by up to 1.5x, and
a slow spell can outlast a whole run: in ten back-to-back runs on a 2-core
shared VM, the best times of both the workload and the set-up probes rose
by half over six minutes, while their ratio stayed within 10 % of its
median.  So the untraced run also times a fixed piece of pure-Python work,
shaped like a transition step (slotted objects, small integers, one call per
step) and running no ringleader code, in the same rounds as the trials.  Its
best time against :data:`REFERENCE_S` is the host's speed during the run.
Over ten closure runs whose host speed ranged from 0.53 to 0.94, the
quartile spread of ``wall_s`` was 0.027 scaled by it and 0.150 unscaled.
"""
from __future__ import annotations

import gc
from time import perf_counter

STEPS = 10_000  # steps of one sample: about 3 ms

# Best time of one sample on the host the baseline was measured on (2-vCPU
# Intel Xeon VM, Python 3.11.7).  It only fixes the scale of the reported
# times: they read as seconds on that host at its best speed.
REFERENCE_S = 0.00165


class _Cell:
    __slots__ = ("x", "y", "z")

    def __init__(self, k: int):
        self.x, self.y, self.z = k % 5, k % 3, 0


def _step(u: _Cell, v: _Cell, k: int) -> None:
    if u.x > v.y:
        u.z += 1
        v.x = (u.x + k) % 5
    else:
        v.z -= 1
        u.y = (v.y + k) % 3


def sample() -> float:
    """Seconds taken by one fixed run of the reference work.

    The garbage collector is off meanwhile, so that garbage the library left
    cannot add to the host's time.
    """
    cells = [_Cell(k) for k in range(64)]
    step = _step
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for k in range(STEPS):
            step(cells[k & 63], cells[(k * 5 + 1) & 63], k)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
