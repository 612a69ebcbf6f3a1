"""Simulation engine and verification suite for self-stabilizing leader
election and ring orientation population protocols on directed rings."""

from .analysis import (
    Segment,
    TokenColor,
    construct_S_PL,
    in_C_DL,
    in_C_PB,
    in_S_PL,
    is_peaceful,
    is_perfect,
    leader_count,
    leaderless_settled,
    nearest_leader_distances,
    segment_id,
    segments,
    token_is_correct,
    token_is_valid,
)
from .core.params import InvalidSizeError, ProtocolParams, make_params
from .core.scheduler import SchedulerStream
from .core.sim import run, step
from .core.state import AgentState, Configuration, random_configuration, token, token_fields
from .harness import (
    ExperimentSpec,
    Protocol,
    TrialRecord,
    run_closure_suite,
    run_convergence_sweep,
    run_elimination_suite,
)
from .lottery import Bound, LotteryOutcome, estimate_bound, play_lottery
from .orientation import (
    OrientAgentState,
    OrientConfiguration,
    generate_two_hop_coloring,
    interact_or,
    is_oriented,
    segment_count,
)

__version__ = "0.1.0"
