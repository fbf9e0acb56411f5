"""Behavior and learned policies, plus batch collection.

Every policy exposes act(state, t) -> action where t is the within-episode
step index. Stochastic policies carry their own seeded generator and must
not be shared across concurrent rollouts.
"""

import math

import numpy as np

from .dataset import Batch, State, batch_from_columns
from .derivation import DerivedMdp
from .neighbors import NeighborIndex
from .planner import Solution, check_artifacts, greedy_action
from .traffic import EnvState, IntersectionEnvConfig, reward_bound, rollout


class CyclicPolicy:
    """Round-robin over all actions, one step each, in index order."""

    def __init__(self, action_count: int):
        self.action_count = action_count
        self.name = "cyclic"

    def act(self, state: State, t: int) -> int:
        return t % self.action_count


class FixedCyclePolicy:
    """Repeat an explicit action sequence."""

    def __init__(self, sequence):
        self.sequence = list(sequence)
        if not self.sequence:
            raise ValueError("empty cycle")
        self.name = "fixed-cycle[" + ",".join(str(a) for a in self.sequence) + "]"

    def act(self, state: State, t: int) -> int:
        return self.sequence[t % len(self.sequence)]


class RandomPolicy:
    def __init__(self, action_count: int, seed: int = 0):
        self.action_count = action_count
        self.rng = np.random.default_rng(seed)
        self.name = "random"

    def act(self, state: State, t: int) -> int:
        return int(self.rng.integers(0, self.action_count))


class ProportionalPolicy:
    """Serve each action for a rate-proportional share of a fixed cycle.

    Shares are apportioned by largest remainder, ties to the lower action
    index; the cycle emits each action's share as one contiguous block.
    """

    def __init__(self, rates, period: int):
        if period < 1:
            raise ValueError("period must be >= 1")
        total = float(sum(rates))
        if total <= 0:
            raise ValueError("at least one positive rate required")
        quotas = [r * period / total for r in rates]
        shares = [int(math.floor(q)) for q in quotas]
        remainders = sorted(range(len(rates)),
                            key=lambda i: (-(quotas[i] - shares[i]), i))
        for i in remainders[:period - sum(shares)]:
            shares[i] += 1
        self.schedule = [a for a, n in enumerate(shares) for _ in range(n)]
        self.name = "proportional"

    def act(self, state: State, t: int) -> int:
        return self.schedule[t % len(self.schedule)]


class GreedyDerivedPolicy:
    """Greedy one-step-lookup policy over a solved derived MDP.

    The index must be built over the batch the MDP was derived from, with
    the MDP's norm, and the solution must solve that MDP; anything else
    raises ValueError.
    """

    def __init__(self, mdp: DerivedMdp, solution: Solution,
                 index: NeighborIndex):
        check_artifacts(index, mdp, solution)
        self.mdp = mdp
        self.solution = solution
        self.index = index
        self.name = "greedy-derived"

    def act(self, state: State, t: int) -> int:
        return greedy_action(self.mdp, self.solution, self.index, state)


class EpsilonNoisyPolicy:
    """Base policy with probability 1 - epsilon, uniform random otherwise."""

    def __init__(self, base, epsilon: float, action_count: int, seed: int = 0):
        if not 0 <= epsilon <= 1:
            raise ValueError("epsilon must lie in [0, 1]")
        self.base = base
        self.epsilon = epsilon
        self.action_count = action_count
        self.rng = np.random.default_rng(seed)
        self.name = f"noisy({base.name}, eps={epsilon:g})"

    def act(self, state: State, t: int) -> int:
        if self.epsilon > 0 and self.rng.random() < self.epsilon:
            return int(self.rng.integers(0, self.action_count))
        return self.base.act(state, t)


def collect(config: IntersectionEnvConfig, policy, episodes: int,
            horizon: int, start: EnvState,
            rng: np.random.Generator | None = None) -> Batch:
    """Concatenate episode rollouts into one batch, stacking their columns.

    The reward bound is the environment ceiling (capacity times the widest
    phase), not the observed maximum.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    results = [rollout(config, start, policy, horizon, rng=rng)
               for _ in range(episodes)]
    # each episode's horizon + 1 observations: s is all but the last, s_next
    # all but the first
    states = np.array([obs for result in results
                       for obs in result.observations], dtype=float)
    states = states.reshape(episodes, horizon + 1, -1)
    dim = states.shape[2]
    return batch_from_columns(
        states[:, :-1].reshape(-1, dim),
        [a for result in results for a in result.actions],
        np.array([r for result in results for r in result.rewards]),
        states[:, 1:].reshape(-1, dim),
        np.repeat(np.arange(episodes, dtype=np.int64), horizon),
        np.tile(np.arange(horizon, dtype=np.int64), episodes),
        config.action_count, reward_bound(config))
