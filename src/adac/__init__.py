"""Offline traffic-signal control via pessimistic derived MDPs.

Pipeline: collect experience with a behavior policy, derive a finite MDP
over the observed next-states with per-action nearest-neighbor averaging
and distance-scaled reward penalties, solve it exactly, and act anywhere
through a one-step neighbor lookup. A theory toolbox computes the
covering-number / sampling-error inputs of the suboptimality bound.
"""

from .dataset import (Batch, BatchError, Transition, concat_batches,
                      load_batch, make_batch, save_batch)
from .derivation import (DerivedMdp, PenaltyMode, build_mdp, mdp_from_json,
                         mdp_to_json)
from .evaluation import (EvalReport, evaluate, reconstruction_batch,
                         reproduce_table2, sweep_c, sweep_k, two_flow_demo,
                         worked_example_batch, worked_example_mdp)
from .neighbors import NeighborIndex, build_index, diameter
from .planner import (ConvergenceError, Solution, greedy_action, lookup_q,
                      solution_from_json, solution_to_json, value_iteration)
from .policies import (CyclicPolicy, EpsilonNoisyPolicy, FixedCyclePolicy,
                       GreedyDerivedPolicy, ProportionalPolicy, RandomPolicy,
                       collect)
from .theory import (KWindow, PacReport, canonical_shaping, covering_number,
                     d_bar_max, k_window, pac_bound, sampling_error,
                     value_gap)
from .traffic import (EnvState, IntersectionEnvConfig, RolloutResult,
                      config_from_json, config_to_json, rollout, step,
                      two_flow_config)

__version__ = "0.1.0"
