"""Finite pessimistic MDP derived from a batch of experience.

State set: the deduplicated next-states of the batch (core states), which
makes the MDP closed under its own transitions. For every (core state,
action) pair the k nearest same-action source pairs supply an empirical
transition distribution over core states and a shaped reward:

    averagers     mean(r_i)
    fixed cost C  mean(r_i - C * d'_i)
    adaptive      mean(r_i - r_max * d'_i),  r_max = max reward in the set

with d'_i the diameter-normalized distance to neighbor i. The averaging
divisor is the realized neighbor count, which may be below k when the
distance threshold truncates the set. Pairs with no neighbors at all get
the pessimistic fallback: reward 0 (the lower reward bound) and an
absorbing self-loop.

A derivation is two steps. `core_tables` searches the core states'
neighbors, one kernel call per action (`NeighborIndex.search`), and
`mdp_from_tables` reduces those tables with array operations: neighbor
counts and landing rows from unique (row, landing core state) keys
(`landing_rows`), then the per-row r_max and the shaped reward as a row sum
in neighbor order (`shaped_reward`). The core states, the rewards and the
landing core states come from the index. `build_mdp` is the search at k
followed by the reduction; the C and k sweeps reduce shared tables with the
same functions.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Batch, State
from .neighbors import NORMS, NeighborIndex, build_index, row_sums


@dataclass(frozen=True)
class PenaltyMode:
    kind: str           # "averagers" | "fixed" | "adaptive"
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("averagers", "fixed", "adaptive"):
            raise ValueError(f"unknown penalty mode {self.kind!r}")
        if not 0 <= self.c < math.inf:
            raise ValueError(f"cost parameter must be finite and >= 0, "
                             f"got {self.c!r}")

    @staticmethod
    def averagers() -> "PenaltyMode":
        return PenaltyMode("averagers")

    @staticmethod
    def fixed(c: float) -> "PenaltyMode":
        return PenaltyMode("fixed", float(c))

    @staticmethod
    def adaptive() -> "PenaltyMode":
        return PenaltyMode("adaptive")

    @staticmethod
    def parse(text: str) -> "PenaltyMode":
        """Parse CLI syntax: none | fixed:C | adaptive."""
        if text == "none":
            return PenaltyMode.averagers()
        if text == "adaptive":
            return PenaltyMode.adaptive()
        if text.startswith("fixed:"):
            return PenaltyMode.fixed(float(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse penalty mode {text!r}")

    def coefficient(self, rewards) -> float:
        """Penalty per unit of normalized distance, given the rewards."""
        if self.kind == "averagers":
            return 0.0
        if self.kind == "fixed":
            return self.c
        return max(rewards)

    def label(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.c:g}"
        return "none" if self.kind == "averagers" else "adaptive"


@dataclass
class DerivedMdp:
    core: tuple[State, ...]
    action_count: int
    reward: np.ndarray                       # (|core|, |actions|)
    transition: list[list[dict[int, float]]]  # [state][action] -> {core idx: p}
    gamma: float
    mode: PenaltyMode
    k: int
    alpha: float
    diameter: float
    norm: str
    empty_pairs: list[tuple[int, int]]

    def num_states(self) -> int:
        return len(self.core)


def check_params(k: int, alpha: float, gamma: float) -> None:
    """ValueError unless k, alpha and gamma can parameterize a derivation."""
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma!r}")
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0 or inf, got {alpha!r}")


def build_mdp(batch: Batch, k: int = 5, alpha: float = 0.8,
              gamma: float = 0.99, mode: PenaltyMode | None = None,
              index: NeighborIndex | None = None) -> DerivedMdp:
    """Derive the finite MDP over the batch's core states, in the norm and
    diameter of the index (by default Euclidean) built over the batch."""
    check_params(k, alpha, gamma)
    mode = mode or PenaltyMode.adaptive()
    if index is None:
        index = build_index(batch)
    elif index.batch != batch:
        raise ValueError("the index was built over another batch")
    return mdp_from_tables(index, core_tables(index, k, alpha), k, alpha,
                           gamma, mode)


def core_tables(index: NeighborIndex, k: int, alpha: float) -> list:
    """Per action, the neighbor table of the index's core states."""
    return [index.search(index.core, a, k, alpha)
            for a in range(index.action_count)]


def mdp_from_tables(index: NeighborIndex, tables: list, k: int, alpha: float,
                    gamma: float, mode: PenaltyMode) -> DerivedMdp:
    """The MDP whose pairs have the neighbors of the core tables (searched
    at k and alpha over the index): their landing rows, then their shaped
    rewards."""
    transition, empty_pairs = landing_rows(index, tables)
    return DerivedMdp(index.core, index.action_count,
                      shaped_reward(index, tables, mode), transition, gamma,
                      mode, k, alpha, index.diameter, index.norm, empty_pairs)


def shaped_reward(index: NeighborIndex, tables: list,
                  mode: PenaltyMode) -> np.ndarray:
    """(|core|, |actions|) shaped rewards of the core tables: each pair's
    sum of r_i - coef * d'_i in neighbor order over its neighbor count, 0
    for a pair with none."""
    n = len(index.core)
    reward = np.zeros((n, index.action_count))
    for a, (rows, sources, norm_dist) in enumerate(tables):
        counts = np.bincount(rows, minlength=n)
        r = index.rewards[sources]
        if mode.kind == "adaptive":     # r_max: the largest reward of each row
            coef = np.full(n, -np.inf)
            np.maximum.at(coef, rows, r)
        else:
            coef = np.full(n, mode.coefficient(r))
        total = row_sums(rows, r - coef[rows] * norm_dist, n)
        np.divide(total, counts, out=reward[:, a], where=counts > 0)
    return reward


def landing_rows(index: NeighborIndex, tables: list) -> tuple[list, list]:
    """Transition rows of the core tables, [state][action] -> {core index:
    share of the pair's neighbors landing there}, with a self-loop for
    each pair without neighbors, and the sorted list of those pairs."""
    n = len(index.core)
    targets = list(range(n))    # int objects shared by all the rows' keys
    realized = np.zeros((n, index.action_count), dtype=int)
    columns = []
    for a, (rows, sources, _) in enumerate(tables):
        realized[:, a] = counts = np.bincount(rows, minlength=n)
        # one cell per (row, landing core state), sorted by both
        keys, hits = np.unique(rows * n + index.landing[sources],
                               return_counts=True)
        row_of = keys // n
        cells = list(zip([targets[j] for j in (keys % n).tolist()],
                         (hits / counts[row_of]).tolist()))
        ends = np.searchsorted(row_of, np.arange(n + 1)).tolist()
        columns.append([dict(cells[lo:hi]) if lo < hi else {si: 1.0}
                        for si, (lo, hi) in enumerate(zip(ends, ends[1:]))])
    return ([list(per_state) for per_state in zip(*columns)],
            list(map(tuple, np.argwhere(realized == 0).tolist())))


def mdp_to_json(mdp: DerivedMdp) -> str:
    doc = {
        "core": [list(s) for s in mdp.core],
        "action_count": mdp.action_count,
        "reward": mdp.reward.tolist(),
        "transition": [
            [sorted(row.items()) for row in per_state]
            for per_state in mdp.transition
        ],
        "gamma": mdp.gamma,
        "penalty": {"kind": mdp.mode.kind, "c": mdp.mode.c},
        "k": mdp.k,
        "alpha": "inf" if mdp.alpha == math.inf else mdp.alpha,
        "diameter": mdp.diameter,
        "norm": mdp.norm,
        "empty_pairs": [list(p) for p in mdp.empty_pairs],
    }
    return json.dumps(doc)


def mdp_from_json(text: str) -> DerivedMdp:
    """Parse an MDP written by mdp_to_json; ValueError unless it is one."""
    doc = json.loads(text)
    try:
        alpha = doc["alpha"]
        mdp = DerivedMdp(
            core=tuple(tuple(float(c) for c in s) for s in doc["core"]),
            action_count=doc["action_count"],
            reward=np.asarray(doc["reward"], dtype=float),
            transition=[
                [{int(i): float(p) for i, p in row} for row in per_state]
                for per_state in doc["transition"]
            ],
            gamma=doc["gamma"],
            mode=PenaltyMode(doc["penalty"]["kind"], doc["penalty"]["c"]),
            k=doc["k"],
            alpha=math.inf if alpha == "inf" else float(alpha),
            diameter=doc["diameter"],
            norm=doc["norm"],
            empty_pairs=[(int(i), int(a)) for i, a in doc["empty_pairs"]],
        )
        _check_mdp(mdp)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed MDP JSON ({type(exc).__name__}: {exc})") from exc
    return mdp


def _check_mdp(mdp: DerivedMdp) -> None:
    """Reject anything value iteration cannot treat as a discounted MDP."""
    n, actions = mdp.num_states(), mdp.action_count
    if not 0 <= mdp.gamma < 1:
        raise ValueError(f"MDP gamma {mdp.gamma} outside [0, 1)")
    if type(actions) is not int:
        raise ValueError(f"MDP action_count {actions!r} is not an integer")
    if type(mdp.k) is not int or mdp.k < 1:
        raise ValueError(f"MDP k {mdp.k!r} is not an integer >= 1")
    if not mdp.alpha >= 0:
        raise ValueError(f"MDP alpha {mdp.alpha} is not a threshold >= 0")
    if mdp.norm not in NORMS:
        raise ValueError(f"MDP norm {mdp.norm!r} unknown")
    if mdp.reward.shape != (n, actions) or not np.all(np.isfinite(mdp.reward)):
        raise ValueError(f"MDP reward must be finite with shape {(n, actions)}, "
                         f"got shape {mdp.reward.shape}")
    if len(mdp.transition) != n or any(len(per_state) != actions
                                       for per_state in mdp.transition):
        raise ValueError(f"MDP transition must have {n} x {actions} rows")
    for si, per_state in enumerate(mdp.transition):
        for a, row in enumerate(per_state):
            if (not row or not all(0 <= j < n for j in row)
                    or not all(p >= 0 for p in row.values())
                    or abs(math.fsum(row.values()) - 1.0) > 1e-12):
                raise ValueError(
                    f"MDP transition row ({si}, {a}) is not a distribution "
                    f"over the {n} core states: {sorted(row.items())[:8]}")
