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
keys (`landing_rows`), then the shaped reward (`shaped_reward`), each
pair's coefficient from `PenaltyMode.coefficients` and its mean from
`neighbors.row_means`, summed in neighbor order. The core states and the
landing core states come from the index, the rewards from its batch.
`build_mdp` is the search at k followed by the reduction; the C and k
sweeps reduce a shared table with the same functions, and the one-step
lookup (`planner.lookup_q`) reduces one state's query with the same two.

The transitions have one layout and one store, `DerivedMdp.stacked`: the
rows of the (A * n, n) stacked matrix as three arrays (`StackedRows`, the
compressed sparse row form), whose row a * n + s is pair (s, a)'s landing
distribution, with increasing columns. `landing_rows` builds them, the MDP
file holds them, `check_rows` checks them whenever a `DerivedMdp` is
made (derived, read or `dataclasses.replace`d) and the solver solves them.

An MDP is a value: no field can be assigned and every array is read-only,
so an edited MDP is a new one, made with `dataclasses.replace` and
checked again. `DerivedMdp.transition` reads the rows as [state][action]
-> {core index: p}. A write through it, `mdp.transition[s][a] = row`, is
the one in-place edit; it stays while the bench edits a row of its deep
copy of an MDP that way, and a written row passes `check_rows` too.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Batch, State, freeze, number_array, only, read_json
from .neighbors import NORMS, NeighborIndex, build_index, row_means


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

    def coefficients(self, groups: np.ndarray, rewards: np.ndarray,
                     n: int) -> np.ndarray:
        """Penalty per unit of normalized distance of each of n groups of
        neighbors, given each neighbor's group and reward: the group's
        largest reward under the adaptive mode (-inf for a group with
        none), C under a fixed cost and 0 for averagers."""
        if self.kind != "adaptive":
            return np.full(n, self.c if self.kind == "fixed" else 0.0)
        coef = np.full(n, -np.inf)
        np.maximum.at(coef, groups, rewards)
        return coef

    def label(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.c:g}"
        return "none" if self.kind == "averagers" else "adaptive"


@dataclass(frozen=True, eq=False)
class StackedRows:
    """The stacked transition matrix in compressed sparse row form: row r
    holds the shares data[indptr[r]:indptr[r + 1]] of landing on the core
    states indices[indptr[r]:indptr[r + 1]], increasing."""
    indptr: np.ndarray       # (|actions| * |core| + 1,) int offsets
    indices: np.ndarray      # (entries,) int core rows
    data: np.ndarray         # (entries,) float shares

    def __post_init__(self):
        freeze(self)


@dataclass(frozen=True, eq=False)
class DerivedMdp:
    core: tuple[State, ...]
    action_count: int
    reward: np.ndarray                       # (|core|, |actions|)
    # (|actions| * |core|, |core|): row a * n + s is the landing
    # distribution of pair (s, a), with sorted columns
    stacked: StackedRows
    gamma: float
    mode: PenaltyMode
    k: int
    alpha: float
    diameter: float
    norm: str
    empty_pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        """ValueError unless the solver can treat this as a discounted MDP.
        The core states and the empty pairs are kept as tuples of tuples,
        also when they come as the lists of a file."""
        number_array(self.core, "core", 2)
        if self.empty_pairs not in ([], ()):    # none has no second axis
            number_array(self.empty_pairs, "empty_pairs", 2, integers=True)
        for name in ("core", "empty_pairs"):
            object.__setattr__(self, name,
                               tuple(map(tuple, getattr(self, name))))
        n, actions = self.num_states(), self.action_count
        check_params(self.k, self.alpha, self.gamma)
        if not (only([actions], int) and actions >= 1):
            raise ValueError(f"action_count {actions!r} is not an integer "
                             ">= 1")
        if not (only([self.diameter], (int, float))
                and 0 < self.diameter < math.inf):
            raise ValueError(f"diameter {self.diameter!r} is not a finite "
                             f"number > 0")
        if self.norm not in NORMS:
            raise ValueError(f"norm {self.norm!r} unknown")
        if self.reward.shape != (n, actions):
            raise ValueError(f"reward must have shape {(n, actions)}, got "
                             f"shape {self.reward.shape}")
        if not all(len(p) == 2 and 0 <= p[0] < n and 0 <= p[1] < actions
                   for p in self.empty_pairs):
            raise ValueError(f"empty_pairs {list(self.empty_pairs[:8])} are "
                             f"not all (state, action) pairs of the MDP")
        check_rows(self.stacked, n, actions)
        freeze(self)

    def num_states(self) -> int:
        return len(self.core)

    @property
    def transition(self) -> "TransitionView":
        """The stacked rows as [state][action] -> {core index: p}."""
        return TransitionView(self)


class TransitionView:
    """mdp.transition[s][a]: pair (s, a)'s row of the stacked matrix as a
    {core index: p} dict of Python ints and floats, built on each read.
    mdp.transition[s][a] = row writes the row into the matrix, unless the
    matrix would then fail `check_rows`."""

    def __init__(self, mdp: DerivedMdp, s: int | None = None):
        self._mdp, self._s = mdp, s

    def __len__(self) -> int:
        return (self._mdp.num_states() if self._s is None
                else self._mdp.action_count)

    def __getitem__(self, i: int):
        i = range(len(self))[i]
        if self._s is None:
            return TransitionView(self._mdp, i)
        stacked, r = self._mdp.stacked, i * self._mdp.num_states() + self._s
        lo, hi = stacked.indptr[r:r + 2]
        return dict(zip(stacked.indices[lo:hi].tolist(),
                        stacked.data[lo:hi].tolist()))

    def __setitem__(self, a: int, row: dict) -> None:
        if self._s is None:
            raise TypeError("assign a row as mdp.transition[s][a] = row")
        n, stacked = self._mdp.num_states(), self._mdp.stacked
        r = range(len(self))[a] * n + self._s
        lo, hi = stacked.indptr[r:r + 2]
        cols = sorted(row)
        if not (only(cols, int) and all(0 <= j < n for j in cols)):
            raise ValueError(f"row {row!r} lands outside the {n} core states")
        indptr = stacked.indptr.copy()
        indptr[r + 1:] += len(cols) - (hi - lo)
        spliced = StackedRows(
            indptr,
            np.concatenate((stacked.indices[:lo], np.array(cols, dtype=int),
                            stacked.indices[hi:])),
            np.concatenate((stacked.data[:lo],
                            np.array([row[j] for j in cols], dtype=float),
                            stacked.data[hi:])))
        check_rows(spliced, n, self._mdp.action_count)
        object.__setattr__(self._mdp, "stacked", spliced)


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
    stacked, empty_pairs = landing_rows(index, table)
    return DerivedMdp(index.core, index.action_count,
                      shaped_reward(index, table, mode), stacked, gamma,
                      mode, k, alpha, index.diameter, index.norm, empty_pairs)


def shaped_reward(index: NeighborIndex, table: tuple,
                  mode: PenaltyMode) -> np.ndarray:
    """(|core|, |actions|) shaped rewards of the core states' table: each
    pair's mean of r_i - coef * d'_i, summed in neighbor order, 0 for a
    pair with no neighbors."""
    size = len(index.core) * index.action_count
    pairs, sources, norm_dist = table
    r = index.batch.r[sources]
    coef = mode.coefficients(pairs, r, size)
    return row_means(pairs, r - coef[pairs] * norm_dist, size).reshape(
        len(index.core), index.action_count)


def landing_rows(index: NeighborIndex,
                 table: tuple) -> tuple[StackedRows, list]:
    """The stacked transition matrix of the core states' table: row a * n +
    s holds the share of pair (s, a)'s neighbors landing on each core
    state, or a self-loop for a pair without neighbors; and the sorted list
    of those pairs."""
    n, actions = len(index.core), index.action_count
    pairs, sources, _ = table
    rows = pairs % actions * n + pairs // actions     # (s, a): row a * n + s
    counts = np.bincount(rows, minlength=n * actions)
    empty = np.flatnonzero(counts == 0)
    # one cell per (row, landing core state), sorted by both, and for each
    # empty row a self-loop: one hit over a count taken as 1
    keys, hits = np.unique(np.concatenate((rows * n + index.landing[sources],
                                           empty * n + empty % n)),
                           return_counts=True)
    row_of = keys // n
    stacked = StackedRows(np.searchsorted(row_of, np.arange(n * actions + 1)),
                          keys % n, hits / np.maximum(counts, 1)[row_of])
    return stacked, sorted((r % n, r // n) for r in empty.tolist())


def mdp_to_json(mdp: DerivedMdp) -> str:
    stacked = mdp.stacked
    doc = {
        "core": [list(s) for s in mdp.core],
        "action_count": mdp.action_count,
        "reward": mdp.reward.tolist(),
        "transition": {"indptr": stacked.indptr.tolist(),
                       "indices": stacked.indices.tolist(),
                       "data": stacked.data.tolist()},
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
    alpha, stacked = doc["alpha"], doc["transition"]
    if isinstance(stacked, list):
        raise ValueError("'transition' holds the nested rows of an older MDP "
                         "file: derive the MDP again from its batch")
    return DerivedMdp(
        # the document's own numbers: copies would double them at the peak
        core=doc["core"],
        action_count=doc["action_count"],
        reward=number_array(doc["reward"], "reward", 2),
        stacked=StackedRows(
            number_array(stacked["indptr"], "transition", 1, integers=True),
            number_array(stacked["indices"], "transition", 1, integers=True),
            number_array(stacked["data"], "transition", 1)),
        gamma=doc["gamma"],
        mode=PenaltyMode(doc["penalty"]["kind"], doc["penalty"]["c"]),
        k=doc["k"],
        alpha=math.inf if alpha == "inf" else alpha,
        diameter=doc["diameter"],
        norm=doc["norm"],
        empty_pairs=doc["empty_pairs"],
    )


def check_rows(stacked: StackedRows, n: int, actions: int) -> None:
    """ValueError unless the stacked arrays are n * actions distributions
    over the n core states, indices increasing."""
    ptr, cols, shares = stacked.indptr, stacked.indices, stacked.data
    size = n * actions
    if not (len(ptr) == size + 1 and ptr[0] == 0 and np.all(np.diff(ptr) >= 0)
            and ptr[-1] == len(cols) == len(shares)):
        raise ValueError(f"'transition' indptr is not {size + 1} offsets "
                         f"rising from 0 to {len(cols)} indices and "
                         f"{len(shares)} shares")
    rows = np.repeat(np.arange(size), np.diff(ptr))
    # a NaN share is not >= 0
    outside = np.bincount(rows, (cols < 0) | (cols >= n) | ~(shares >= 0),
                          size)
    # an empty row sums to 0
    bad = (outside > 0) | (abs(np.bincount(rows, shares, size) - 1) > 1e-12)
    if bad.any():
        r = int(np.argmax(bad))
        lo, hi = ptr[r], ptr[r + 1]
        entries = list(zip(cols[lo:hi].tolist(), shares[lo:hi].tolist()))
        raise ValueError(f"transition row ({r % n}, {r // n}) is not a "
                         f"distribution over the {n} core states: "
                         f"{entries[:8]}")
    if not np.all(np.diff(rows * n + cols) > 0):
        raise ValueError("a transition row names a core state twice or out "
                         "of order")
