"""Experiment harness: policy evaluation, hyperparameter sweeps, and the
bundled worked example.

The sweeps check their whole grid (every k, C, alpha, gamma, the episode
seeds and the snapshot directory) before deriving anything, then search
the core states' neighbors once per action in all. The C sweep reduces one
table at k: its rows share the landing rows, and each recomputes only its
shaped reward. The k sweep searches at the largest k, and each row keeps
its first k neighbors of every table row, which is the search at that k.
Every row is bit for bit the row of its own `build_mdp`, solved with the
module's `value_iteration`.

The worked example is a six-transition two-flow dataset small enough to
check every derived quantity by hand; reproduce_table2 recomputes its
shaped-reward table under all penalty modes and compares against the
reference values, cell by cell. One reference cell, adaptive mode at state
(2, 3) action NS, is a known arithmetic slip in the reference (printed
1.58, recomputes to 1.65 under diameter normalization) and is reported
with its computed value and a mismatch flag. The fixed-cost C=2 reference
column was produced with a different normalizer and is reported as
computed values only.
"""

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Batch, Transition, make_batch
from .derivation import (DerivedMdp, PenaltyMode, build_mdp, check_params,
                         core_tables, mdp_from_tables, mdp_to_json,
                         shaped_reward)
from .neighbors import build_index, prefix
from .planner import value_iteration
from .policies import (CyclicPolicy, FixedCyclePolicy, GreedyDerivedPolicy,
                       collect)
from .traffic import EnvState, IntersectionEnvConfig, rollout, two_flow_config


@dataclass
class EvalReport:
    policy: str
    episodes: int
    mean_return: float
    min_return: float
    max_return: float
    mean_discounted: float
    episode_returns: list[float] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)


def evaluate(config: IntersectionEnvConfig, policy, episodes: int,
             horizon: int, gamma: float = 0.99, seeds=None,
             start: EnvState | None = None) -> EvalReport:
    """Independent episode rollouts, aggregated.

    Stochastic configs require one seed per episode; deterministic configs
    ignore seeds. With a rate schedule, episode i starts its environment
    clock at i * horizon so consecutive episodes sweep the schedule.
    """
    _check_episodes(config, episodes, seeds)
    stochastic = config.arrivals == "poisson"
    queues = start.queues if start is not None else (0,) * len(config.flows)
    returns, discounted = [], []
    for ep in range(episodes):
        rng = np.random.default_rng(seeds[ep]) if stochastic else None
        t0 = ep * horizon if config.schedule is not None else 0
        result = rollout(config, EnvState(queues, t0), policy, horizon,
                         gamma=gamma, rng=rng, traj_id=ep)
        returns.append(result.cumulative_reward)
        discounted.append(result.discounted_return)
    return EvalReport(
        policy=policy.name, episodes=episodes,
        mean_return=sum(returns) / episodes,
        min_return=min(returns), max_return=max(returns),
        mean_discounted=sum(discounted) / episodes,
        episode_returns=returns,
        seeds=list(seeds) if stochastic else [],
    )


def _check_episodes(config: IntersectionEnvConfig, episodes: int,
                    seeds) -> None:
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if config.arrivals == "poisson" and (seeds is None
                                         or len(seeds) != episodes):
        raise ValueError("stochastic configs need one seed per episode")


def _greedy_policy(mdp: DerivedMdp, index, tol: float = 1e-8):
    return GreedyDerivedPolicy(mdp, value_iteration(mdp, tol=tol), index)


def sweep_c(batch: Batch, c_values, k: int, alpha: float, gamma: float,
            config: IntersectionEnvConfig, episodes: int, horizon: int,
            seeds=None, start: EnvState | None = None,
            norm: str = "euclidean", snapshot_dir=None) -> list[dict]:
    """Evaluate a fixed-cost grid plus the adaptive derivation.

    Returns one row per C value and a final row labeled "A-DAC"; when
    snapshot_dir is set, each derived MDP is written there as JSON so the
    rows can be reproduced from the snapshots alone. Every row's MDP comes
    from one core-state neighbor search per action: the rows share its
    landing rows, and only the shaped reward differs.
    """
    modes = [(f"{c:g}", PenaltyMode.fixed(c)) for c in c_values]
    if not modes:
        raise ValueError("empty C grid")
    modes.append(("A-DAC", PenaltyMode.adaptive()))
    check_params(k, alpha, gamma)
    _check_episodes(config, episodes, seeds)
    if snapshot_dir is not None and not os.path.isdir(snapshot_dir):
        raise ValueError(f"snapshot directory {snapshot_dir!r} does not exist")
    index = build_index(batch, norm)
    tables = core_tables(index, k, alpha)
    shared = mdp_from_tables(index, tables, k, alpha, gamma, modes[-1][1])
    rows = []
    for label, mode in modes:
        mdp = replace(shared, mode=mode,
                      reward=shaped_reward(index, tables, mode))
        report = evaluate(config, _greedy_policy(mdp, index), episodes,
                          horizon, gamma, seeds=seeds, start=start)
        if snapshot_dir is not None:
            path = f"{snapshot_dir}/mdp_c_{label.replace(':', '_')}.json"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(mdp_to_json(mdp))
        rows.append({"c": label, "mean_return": report.mean_return})
    return rows


def sweep_k(batch: Batch, k_values, alpha: float, gamma: float,
            config: IntersectionEnvConfig, episodes: int, horizon: int,
            seeds=None, start: EnvState | None = None,
            norm: str = "euclidean") -> list[dict]:
    """Evaluate the adaptive derivation across neighbor counts. Every row's
    MDP comes from one core-state neighbor search per action at the
    largest k, of which each row takes its first k neighbors."""
    k_values = list(k_values)
    if not k_values:
        raise ValueError("empty k grid")
    for k in k_values:
        check_params(k, alpha, gamma)
    _check_episodes(config, episodes, seeds)
    index = build_index(batch, norm)
    tables = core_tables(index, max(k_values), alpha)
    rows = []
    for k in k_values:
        mdp = mdp_from_tables(index, [prefix(t, k) for t in tables], k, alpha,
                              gamma, PenaltyMode.adaptive())
        report = evaluate(config, _greedy_policy(mdp, index), episodes,
                          horizon, gamma, seeds=seeds, start=start)
        rows.append({"k": k, "mean_return": report.mean_return})
    return rows


# ---------------------------------------------------------------------------
# Bundled worked example: the six-transition two-flow dataset, its derived
# reward table under four penalty modes, and the reference values.
# ---------------------------------------------------------------------------

NS, EW = 0, 1
ACTION_NAMES = ("NS", "EW")

_WORKED_EXAMPLE_ROWS = [
    # (s, action, s', r); three trajectories of two steps each
    ((1.0, 5.0), EW, (3.0, 3.0), 2.0),
    ((3.0, 3.0), NS, (1.0, 5.0), 2.0),
    ((6.0, 1.0), NS, (2.0, 3.0), 4.0),
    ((2.0, 3.0), EW, (6.0, 1.0), 2.0),
    ((0.0, 5.0), EW, (2.0, 3.0), 2.0),
    ((2.0, 3.0), NS, (0.0, 5.0), 2.0),
]

# reference shaped rewards, keyed by (state, action name); the adaptive
# reference for ((2, 3), NS) does not recompute (see module docstring)
_REFERENCE_STATES = [(2.0, 3.0), (6.0, 1.0), (3.0, 3.0), (1.0, 5.0), (0.0, 5.0)]
_REFERENCE = {
    "none": {s: (2.67, 2.00) for s in _REFERENCE_STATES},
    "fixed:1": {
        (2.0, 3.0): (2.41, 1.77),
        (6.0, 1.0): (2.29, 1.16),
        (3.0, 3.0): (2.45, 1.66),
        (1.0, 5.0): (2.14, 1.85),
        (0.0, 5.0): (2.03, 1.82),
    },
    "adaptive": {
        (2.0, 3.0): (1.58, 1.53),
        (6.0, 1.0): (1.17, 0.32),
        (3.0, 3.0): (1.82, 1.31),
        (1.0, 5.0): (0.55, 1.70),
        (0.0, 5.0): (0.14, 1.65),
    },
}
KNOWN_REFERENCE_SLIPS = (((2.0, 3.0), "NS", "adaptive"),)


def worked_example_batch() -> Batch:
    transitions = [
        Transition(s, a, r, sp, traj_id=i // 2, t=i % 2)
        for i, (s, a, sp, r) in enumerate(_WORKED_EXAMPLE_ROWS)
    ]
    return make_batch(transitions, action_count=2, reward_bound=4.0)


def worked_example_mdp(mode: PenaltyMode | None = None,
                       gamma: float = 0.99) -> DerivedMdp:
    return build_mdp(worked_example_batch(), k=3, alpha=math.inf,
                     gamma=gamma, mode=mode or PenaltyMode.adaptive())


@dataclass
class Table2Cell:
    state: tuple[float, float]
    action: str
    mode: str
    computed: float
    printed: float | None
    match: bool | None


def reproduce_table2(tolerance: float = 0.01) -> list[Table2Cell]:
    """Recompute the worked example's shaped-reward table under all modes.

    Cells with a reference value carry a match flag at the given absolute
    tolerance; the fixed-cost C=2 column is computed-only.
    """
    batch = worked_example_batch()
    index = build_index(batch)
    modes = [PenaltyMode.averagers(), PenaltyMode.fixed(1.0),
             PenaltyMode.fixed(2.0), PenaltyMode.adaptive()]
    cells = []
    for mode in modes:
        mdp = build_mdp(batch, k=3, alpha=math.inf, gamma=0.99, mode=mode,
                        index=index)
        core_pos = {s: i for i, s in enumerate(mdp.core)}
        reference = _REFERENCE.get(mode.label())
        for s in _REFERENCE_STATES:
            for a, aname in enumerate(ACTION_NAMES):
                computed = float(mdp.reward[core_pos[s], a])
                printed = match = None
                if reference is not None:
                    printed = reference[s][a]
                    match = abs(computed - printed) <= tolerance
                cells.append(Table2Cell(s, aname, mode.label(),
                                        computed, printed, match))
    return cells


# ---------------------------------------------------------------------------
# Two-flow experiment: cyclic behavior data, adaptive derivation, rollout
# comparison against the behavior policy and the throughput-optimal cycle.
# ---------------------------------------------------------------------------


def reconstruction_batch(collect_horizon: int = 10) -> Batch:
    """Two cyclic trajectories from queue state (1, 3), one leading with NS
    and one with EW.

    Longer trajectories let the unserved EW queue grow without bound, which
    inflates the core-cloud diameter, weakens the normalized penalties, and
    delays the learned policy's switch to NS; 10 steps per trajectory keeps
    the data inside the useful operating region.
    """
    config = two_flow_config()
    start = EnvState((1, 3))
    lead_ns = collect(config, CyclicPolicy(2), 1, collect_horizon, start)
    lead_ew = collect(config, FixedCyclePolicy([EW, NS]), 1,
                      collect_horizon, start)
    transitions = list(lead_ns.transitions)
    transitions += [replace(tr, traj_id=1) for tr in lead_ew.transitions]
    return make_batch(transitions, action_count=2,
                      reward_bound=lead_ns.reward_bound)


def two_flow_demo(collect_horizon: int = 10, horizon: int = 100,
                  k: int = 3, gamma: float = 0.99) -> dict:
    """Derive, solve, and roll out the two-flow experiment end to end."""
    config = two_flow_config()
    start = EnvState((1, 3))
    batch = reconstruction_batch(collect_horizon)
    index = build_index(batch)
    greedy = _greedy_policy(build_mdp(batch, k, math.inf, gamma,
                                      PenaltyMode.adaptive(), index=index),
                            index, tol=1e-9)
    out = {}
    for name, policy in [
        ("cyclic", CyclicPolicy(2)),
        ("adac", greedy),
        ("fixed_ew_ew_ns_ew", FixedCyclePolicy([EW, EW, NS, EW])),
    ]:
        result = rollout(config, start, policy, horizon, gamma=gamma)
        out[name] = result.cumulative_reward
    out["improvement"] = out["adac"] / out["cyclic"]
    out["batch_size"] = len(batch)
    return out
