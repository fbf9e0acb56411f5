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

A derivation is two steps. One `NeighborIndex.search` finds the core
states' neighbors for every action, as one table keyed by the pair id
si * action_count + a, and `mdp_from_table` reduces it over the pairs:
neighbor counts and landing rows from unique (pair, landing core state)
keys (`landing_rows`), then the per-pair r_max and the shaped reward as a
sum in neighbor order (`shaped_reward`). The core states and the landing
core states come from the index, the rewards from its batch. `build_mdp`
is the search at k followed by the reduction; the C and k sweeps reduce a
shared table with the same functions.
"""

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .dataset import Batch, State, number_array, only, read_json
from .neighbors import NORMS, NeighborIndex, build_index, row_sums


@dataclass(frozen=True)
class PenaltyMode:
    kind: str           # "averagers" | "fixed" | "adaptive"
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("averagers", "fixed", "adaptive"):
            raise ValueError(f"unknown penalty mode {self.kind!r}")
        if not (only([self.c], (int, float)) and 0 <= self.c < math.inf):
            raise ValueError(f"cost parameter must be finite and >= 0, "
                             f"got penalty cost {self.c!r}")

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
    if not (only([gamma], (int, float)) and 0 <= gamma < 1):
        raise ValueError(f"gamma must lie in [0, 1), got gamma {gamma!r}")
    if not (only([k], int) and k >= 1):
        raise ValueError(f"k must be an integer >= 1, got k {k!r}")
    if not (only([alpha], (int, float)) and alpha >= 0):
        raise ValueError(f"alpha must be >= 0 or inf, got alpha {alpha!r}")


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
    return mdp_from_table(index, index.search(index.core, k, alpha), k, alpha,
                          gamma, mode)


def mdp_from_table(index: NeighborIndex, table: tuple, k: int, alpha: float,
                   gamma: float, mode: PenaltyMode) -> DerivedMdp:
    """The MDP whose pairs have the neighbors of the core states' table
    (searched at k and alpha over the index): their landing rows, then
    their shaped rewards."""
    transition, empty_pairs = landing_rows(index, table)
    return DerivedMdp(index.core, index.action_count,
                      shaped_reward(index, table, mode), transition, gamma,
                      mode, k, alpha, index.diameter, index.norm, empty_pairs)


def shaped_reward(index: NeighborIndex, table: tuple,
                  mode: PenaltyMode) -> np.ndarray:
    """(|core|, |actions|) shaped rewards of the core states' table: each
    pair's sum of r_i - coef * d'_i in neighbor order over its neighbor
    count, 0 for a pair with none."""
    size = len(index.core) * index.action_count
    pairs, sources, norm_dist = table
    counts = np.bincount(pairs, minlength=size)
    r = index.batch.r[sources]
    if mode.kind == "adaptive":     # r_max: the largest reward of each pair
        coef = np.full(size, -np.inf)
        np.maximum.at(coef, pairs, r)
    else:
        coef = np.full(size, mode.coefficient(r))
    total = row_sums(pairs, r - coef[pairs] * norm_dist, size)
    reward = np.zeros(size)
    np.divide(total, counts, out=reward, where=counts > 0)
    return reward.reshape(len(index.core), index.action_count)


def landing_rows(index: NeighborIndex, table: tuple) -> tuple[list, list]:
    """Transition rows of the core states' table, [state][action] -> {core
    index: share of the pair's neighbors landing there}, with a self-loop
    for each pair without neighbors, and the sorted list of those pairs."""
    n, actions = len(index.core), index.action_count
    pairs, sources, _ = table
    counts = np.bincount(pairs, minlength=n * actions)
    targets = list(range(n))    # int objects shared by all the rows' keys
    # one cell per (pair, landing core state), sorted by both
    keys, hits = np.unique(pairs * n + index.landing[sources],
                           return_counts=True)
    pair_of = keys // n
    # two lists, not one list of (key, share) tuples: fewer objects at once
    landed = [targets[j] for j in (keys % n).tolist()]
    shares = (hits / counts[pair_of]).tolist()
    ends = np.searchsorted(pair_of, np.arange(n * actions + 1)).tolist()
    rows = [dict(zip(landed[lo:hi], shares[lo:hi])) if lo < hi else
            {p // actions: 1.0} for p, (lo, hi) in enumerate(zip(ends, ends[1:]))]
    return ([rows[i:i + actions] for i in range(0, len(rows), actions)],
            [divmod(p, actions) for p in np.flatnonzero(counts == 0).tolist()])


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
    return read_json(text, "MDP", _mdp_from_doc)


def _mdp_from_doc(doc: dict) -> DerivedMdp:
    transition = [[dict(row) for row in per_state]
                  for per_state in doc["transition"]]
    rows = list(chain.from_iterable(transition))
    # every cell's index, then every cell's share: one list at a time
    number_array(list(chain.from_iterable(rows)), "transition", 1,
                 integers=True)
    number_array(list(chain.from_iterable(map(dict.values, rows))),
                 "transition", 1)
    if sum(map(len, rows)) != sum(map(len, chain.from_iterable(
            doc["transition"]))):
        raise ValueError("a transition row names a core state twice")
    alpha, pairs = doc["alpha"], doc["empty_pairs"]
    number_array(doc["core"], "core", 2)
    if pairs != []:     # [] has no second axis to check
        number_array(pairs, "empty_pairs", 2, integers=True)
    mdp = DerivedMdp(
        # the document's own numbers: copies would double them at the peak
        core=tuple(map(tuple, doc["core"])),
        action_count=doc["action_count"],
        reward=number_array(doc["reward"], "reward", 2),
        transition=transition,
        gamma=doc["gamma"],
        mode=PenaltyMode(doc["penalty"]["kind"], doc["penalty"]["c"]),
        k=doc["k"],
        alpha=math.inf if alpha == "inf" else alpha,
        diameter=doc["diameter"],
        norm=doc["norm"],
        empty_pairs=list(map(tuple, pairs)),
    )
    _check_mdp(mdp)
    return mdp


def _check_mdp(mdp: DerivedMdp) -> None:
    """Reject anything the solver cannot treat as a discounted MDP."""
    n, actions = mdp.num_states(), mdp.action_count
    check_params(mdp.k, mdp.alpha, mdp.gamma)
    if not (only([actions], int) and actions >= 1):
        raise ValueError(f"action_count {actions!r} is not an integer >= 1")
    if not (only([mdp.diameter], (int, float))
            and 0 < mdp.diameter < math.inf):
        raise ValueError(f"diameter {mdp.diameter!r} is not a finite "
                         f"number > 0")
    if mdp.norm not in NORMS:
        raise ValueError(f"norm {mdp.norm!r} unknown")
    if mdp.reward.shape != (n, actions):
        raise ValueError(f"reward must have shape {(n, actions)}, got shape "
                         f"{mdp.reward.shape}")
    if len(mdp.transition) != n or any(len(per_state) != actions
                                       for per_state in mdp.transition):
        raise ValueError(f"transition must have {n} x {actions} rows")
    if not all(len(p) == 2 and 0 <= p[0] < n and 0 <= p[1] < actions
               for p in mdp.empty_pairs):
        raise ValueError(f"empty_pairs {mdp.empty_pairs[:8]} are not all "
                         f"(state, action) pairs of the MDP")
    for si, per_state in enumerate(mdp.transition):
        for a, row in enumerate(per_state):
            if (not row or not all(0 <= j < n for j in row)
                    or not all(p >= 0 for p in row.values())
                    or abs(math.fsum(row.values()) - 1.0) > 1e-12):
                raise ValueError(
                    f"transition row ({si}, {a}) is not a distribution "
                    f"over the {n} core states: {sorted(row.items())[:8]}")
