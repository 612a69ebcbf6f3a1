import numpy as np
import pytest

from ringleader.core.params import make_params
from ringleader.core.state import AgentState, legal_tokens
from ringleader.transition import (
    _dist_last_inplace,
    _quiet,
    _settled,
    interact_block,
    interact_traced,
)


@pytest.fixture
def params16():
    return make_params(16)


@pytest.fixture
def params8():
    return make_params(8)


def random_agent(rng: np.random.Generator, psi: int, kappa_max: int) -> AgentState:
    """One agent with every field drawn uniformly from its declared range."""
    tokens = (None, *legal_tokens(psi))

    def token():
        return tokens[int(rng.integers(0, len(tokens)))]

    return AgentState(
        leader=int(rng.integers(0, 2)),
        b=int(rng.integers(0, 2)),
        dist=int(rng.integers(0, 2 * psi)),
        last=int(rng.integers(0, 2)),
        token_b=token(),
        token_w=token(),
        mode=int(rng.integers(0, 2)),
        clock=int(rng.integers(0, kappa_max + 1)),
        hits=int(rng.integers(0, psi + 1)),
        signal_r=int(rng.integers(0, kappa_max + 1)),
        bullet=int(rng.integers(0, 3)),
        shield=int(rng.integers(0, 2)),
        signal_b=int(rng.integers(0, 2)),
    )


def random_state_pairs(seed: int, count: int, psi: int, kappa_max: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(count):
        yield random_agent(rng, psi, kappa_max), random_agent(rng, psi, kappa_max)


def reference_pair(l: AgentState, r: AgentState, params) -> tuple[AgentState, AgentState]:
    """The reference composition ``interact_traced`` applied to copies."""
    l2, r2 = l.copy(), r.copy()
    interact_traced(l2, r2, params.psi, params.two_psi, params.kappa_max, [])
    return l2, r2


def fused_pair(l: AgentState, r: AgentState, params) -> tuple[AgentState, AgentState]:
    """The fused fast path ``interact_block`` applied to copies.

    The quiet and settled flags are derived as ``run`` derives them, by scans
    of the agents the call touches read as a ring of two, so quiet pairs go
    through the quiet branch and settled ones through the settled branch."""
    l2, r2 = l.copy(), r.copy()
    quiet = _quiet((l2, r2), params.kappa_max)
    settled = not quiet and _settled((l2, r2), params.psi, params.two_psi)
    interact_block(
        [l2, r2], (0,), (1,), params.psi, params.two_psi, params.kappa_max, quiet, settled
    )
    return l2, r2


def chain_settled(agents, params) -> bool:
    """The definition ``transition._settled`` implements: the reference
    distance block, applied to copies of every arc ``(i, i + 1)``, changes
    nothing and fires nothing (a leader's fire over the same live bullet
    would change nothing, but it is not a settled chain)."""
    n = len(agents)
    for i in range(n):
        l, r = agents[i].copy(), agents[(i + 1) % n].copy()
        trace: list = []
        _dist_last_inplace(l, r, params.psi, params.two_psi, trace)
        if trace or (l, r) != (agents[i], agents[(i + 1) % n]):
            return False
    return True
