"""Step application and the run loop."""
from __future__ import annotations

from typing import Callable

from ..transition import _quiet, _settled, interact_block, interact_traced
from .params import require_count, require_index
from .scheduler import SchedulerStream
from .state import Configuration


def step(config: Configuration, index: int) -> Configuration:
    """Apply one interaction on arc (u_index, u_index+1); pure.

    Runs the reference composition, ``interact_traced``, so ``run``'s fused
    path can be checked against it.  All agents other than the two
    participants are returned unchanged.  Raises InvalidSizeError for an
    ``index`` that is not an int in [0, n).
    """
    n = config.params.n
    require_index("index", index, n)
    new = config.copy()
    p = config.params
    agents = new.agents
    interact_traced(
        agents[index], agents[(index + 1) % n], p.psi, p.two_psi, p.kappa_max, []
    )
    return new


def run(
    config: Configuration,
    scheduler: SchedulerStream,
    max_steps: int,
    stop: Callable[[Configuration], bool],
    on_step: Callable[[Configuration, int, list], None] | None = None,
) -> tuple[Configuration, int, bool]:
    """Drive the ring with scheduler-drawn interactions until ``stop`` or cutoff.

    ``stop`` is evaluated on the initial configuration and then once every
    n steps, so the check amortizes to constant work per step.  The
    reported step count is therefore the first multiple of n at which
    ``stop`` held -- an overcount of less than n -- and never exceeds
    ``max_steps``.  ``stop`` is a predicate: it must not modify the
    configuration it is given, because the run carries two flags about that
    configuration from one block to the next.  The input configuration is
    not mutated.

    Without ``on_step``, each block of n drawn indices runs in one call to
    the fused, event-free ``interact_block``.  While the ring is quiet (no
    leader, resetting signal, bullet or bullet-absence signal, and no full
    clock), that call skips the bookkeeping that cannot fire: the signal
    and mode writes and the elimination block.  While the distance chain is
    settled (every arc holds the ``dist`` and ``last`` values the distance
    block computes), it skips the distance block.  The run learns each flag
    from an early-exit scan before a block, made only while it does not
    already know (and, for the chain, while the ring is not quiet), and
    ``interact_block`` reports when a clock fills and the quiet stretch
    ends, or a leader bit changes and the settled one does.
    ``on_step(work, i, trace)``, when
    given, is called after every interaction with the working configuration,
    the initiator index and the list of events the transition emitted; such
    runs go through the five reference blocks (``interact_traced``) one
    interaction at a time and cost more.  The list is reused from step to step; copy it to keep it.
    Both paths compute the same run.  Raises InvalidSizeError for a
    ``max_steps`` that is not an int >= 0, and ValueError for a start
    configuration that ``Configuration.validate`` rejects.
    """
    require_count("max_steps", max_steps, 0)
    n = config.params.n
    if scheduler.n != n:
        raise ValueError(f"scheduler built for n={scheduler.n}, ring has n={n}")
    config.validate()

    work = config.copy()
    if stop(work):
        return work, 0, True

    p = config.params
    psi, two_psi, kmax = p.psi, p.two_psi, p.kappa_max
    agents = work.agents
    nxt = [(i + 1) % n for i in range(n)]
    trace: list = []
    quiet = settled = False

    done = 0
    while done < max_steps:
        block = min(n, max_steps - done)
        if on_step is None:
            if not quiet:
                quiet = _quiet(agents, kmax)
                if not quiet and not settled:
                    settled = _settled(agents, psi, two_psi)
            quiet, settled = interact_block(
                agents, scheduler.draw(block), nxt, psi, two_psi, kmax, quiet, settled
            )
        else:
            for i in scheduler.draw(block):
                interact_traced(agents[i], agents[nxt[i]], psi, two_psi, kmax, trace)
                on_step(work, i, trace)
                trace.clear()
        done += block
        if stop(work):
            return work, done, True
    return work, max_steps, False
