"""Exact tabular solution of a derived MDP and the one-step state lookup.

Value iteration uses synchronous (Jacobi) sweeps; each is one sparse
product of the value vector with a stacked transition matrix whose row
a * n + s is the landing distribution of pair (s, a), and it writes Q, the
new values and their change into buffers made once. The stopping rule
scales the requested tolerance by (1 - gamma) / gamma so that `tol`
bounds the true sup-norm value error, not just the last sweep delta.

The lookup acts from any state: `lookup_q` gives every action's Q from
one neighbor query over all actions, and `greedy_action` takes its
argmax. Ties in action selection always resolve to the lowest action
index.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dataset import State
from .derivation import DerivedMdp
from .neighbors import NeighborIndex


class ConvergenceError(RuntimeError):
    """Value iteration did not meet its tolerance within max_iters sweeps."""


@dataclass
class Solution:
    values: np.ndarray       # (|core|,)
    q: np.ndarray            # (|core|, |actions|)
    policy: np.ndarray       # (|core|,) int
    iterations: int
    residual: float
    tol: float
    deltas: tuple[float, ...] = ()   # per-sweep max-norm changes


def value_iteration(mdp: DerivedMdp, tol: float = 1e-9,
                    max_iters: int = 200_000) -> Solution:
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters!r}")
    gamma = mdp.gamma
    n, actions = mdp.num_states(), mdp.action_count
    # row a * n + s holds the landing distribution of pair (s, a); sorted
    # columns fix the order in which every row's sum accumulates
    indptr, indices, data = [0], [], []
    for a in range(actions):
        for per_state in mdp.transition:
            row = per_state[a]
            indices.extend(row)
            data.extend(row.values())
            indptr.append(len(indices))
    stacked = sparse.csr_matrix((data, indices, indptr), shape=(actions * n, n))
    stacked.sort_indices()
    reward = np.ascontiguousarray(mdp.reward.T)
    # each sweep writes into these buffers: Q, the new values, |v_new - v|
    q, v, v_new, diff = (np.empty((actions, n)), np.zeros(n), np.empty(n),
                         np.empty(n))

    def backup(v: np.ndarray) -> np.ndarray:
        """Action-major Q of one Jacobi sweep from values v, shape (A, n)."""
        np.multiply((stacked @ v).reshape(actions, n), gamma, out=q)
        return np.add(reward, q, out=q)

    def change(v_new: np.ndarray, v: np.ndarray) -> float:
        np.subtract(v_new, v, out=diff)
        return float(np.abs(diff, out=diff).max())

    threshold = math.inf if gamma == 0.0 else tol * (1.0 - gamma) / gamma
    deltas = []
    for it in range(1, max_iters + 1):
        np.max(backup(v), axis=0, out=v_new)
        delta = change(v_new, v) if n else 0.0
        deltas.append(delta)
        v, v_new = v_new, v
        if delta <= threshold:
            q_table = q.T.copy()
            residual = change(np.max(backup(v), axis=0, out=v_new), v)
            return Solution(v, q_table, q_table.argmax(axis=1), it, residual,
                            tol, tuple(deltas))
    raise ConvergenceError(
        f"no convergence after {max_iters} sweeps (last delta {deltas[-1]:.3e})")


def lookup_q(mdp: DerivedMdp, solution: Solution, index: NeighborIndex,
             s: State) -> np.ndarray:
    """Q-values of an arbitrary state, one per action, from its neighbors'
    shaped reward plus the discounted solved values of their landing core
    states.

    The neighbors are the derivation's: the MDP's k, alpha and penalty
    mode over the index it was derived with, found for all actions in one
    `NeighborIndex.query`. An action with no neighbors looks up 0, the
    pessimistic floor used throughout the derivation. At a core state the
    shaped reward is the MDP's reward bit for bit, but the lookup is not
    the solved Q table: it uses the final values once, and an empty pair
    looks up 0 where the table holds gamma times the state's value.
    """
    actions, sources, norm_dist = index.query(s, mdp.k, mdp.alpha)
    q = np.zeros(mdp.action_count)
    rewards = index.rewards[sources].tolist()
    landing = index.landing[sources].tolist()
    ends = np.searchsorted(actions, np.arange(mdp.action_count + 1)).tolist()
    norm_dist = norm_dist.tolist()
    for a, (lo, hi) in enumerate(zip(ends, ends[1:])):
        if lo == hi:
            continue
        own = rewards[lo:hi]
        coef = mdp.mode.coefficient(own)
        total = 0.0
        for r, d in zip(own, norm_dist[lo:hi]):
            total += r - coef * d
        # the continuation sums over landings in first-occurrence order
        landings = Counter(landing[lo:hi])
        cont = sum(hits / len(own) * solution.values[j]
                   for j, hits in landings.items())
        q[a] = total / len(own) + mdp.gamma * cont
    return q


def greedy_action(mdp: DerivedMdp, solution: Solution, index: NeighborIndex,
                  s: State) -> int:
    """Argmax of lookup_q over actions, lowest index on ties."""
    return int(np.argmax(lookup_q(mdp, solution, index, s)))


def solution_to_json(solution: Solution) -> str:
    return json.dumps({
        "values": solution.values.tolist(),
        "q": solution.q.tolist(),
        "policy": solution.policy.tolist(),
        "iterations": solution.iterations,
        "residual": solution.residual,
        "tol": solution.tol,
    })


def solution_from_json(text: str) -> Solution:
    """Parse a solution written by solution_to_json; ValueError unless it is one."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("malformed solution JSON: not an object")
    values = _finite_array(doc, "values", 1).astype(float)
    q = _finite_array(doc, "q", 2).astype(float)
    policy = _finite_array(doc, "policy", 1, integers=True).astype(int)
    if len(q) != len(values) or len(policy) != len(values):
        raise ValueError(f"malformed solution JSON: {len(values)} values but "
                         f"{len(q)} q rows and {len(policy)} policy entries")
    if np.any((policy < 0) | (policy >= q.shape[1])):
        raise ValueError(f"malformed solution JSON: a policy action outside "
                         f"the {q.shape[1]} columns of q")
    iterations, residual, tol = (doc.get(key) for key in
                                 ("iterations", "residual", "tol"))
    if type(iterations) is not int or iterations < 0:
        raise ValueError(f"malformed solution JSON: iterations {iterations!r}")
    for key, x in (("residual", residual), ("tol", tol)):
        if type(x) not in (int, float) or not math.isfinite(x):
            raise ValueError(f"malformed solution JSON: {key} {x!r}")
    return Solution(values, q, policy, iterations, residual, tol)


def _finite_array(doc: dict, key: str, ndim: int,
                  integers: bool = False) -> np.ndarray:
    """doc[key] as a finite ndim-dimensional array of numbers (or integers)."""
    try:
        arr = np.asarray(doc[key])
    except KeyError:
        raise ValueError(f"malformed solution JSON: no {key!r}") from None
    except ValueError:      # ragged nesting
        arr = np.asarray(None)
    kinds, what = ("iu", "integers") if integers else ("iuf", "numbers")
    if (arr.dtype.kind not in kinds or arr.ndim != ndim
            or not np.all(np.isfinite(arr))):
        raise ValueError(f"malformed solution JSON: {key!r} is not a finite "
                         f"{ndim}-D array of {what}")
    return arr


def check_artifacts(index: NeighborIndex, mdp: DerivedMdp,
                    solution: Solution) -> None:
    """ValueError unless the MDP was derived with the index (its batch's
    core states, its norm and its diameter) and the solution has the
    MDP's shape."""
    if index.core != mdp.core:
        raise ValueError("the source batch's core states differ from the "
                         "MDP's: not the batch it was derived from")
    if (index.norm, index.diameter) != (mdp.norm, mdp.diameter):
        raise ValueError(f"index norm {index.norm} and diameter {index.diameter!r}"
                         f" differ from the MDP's {mdp.norm} and {mdp.diameter!r}")
    n, actions = mdp.num_states(), mdp.action_count
    if (solution.values.shape != (n,) or solution.q.shape != (n, actions)
            or solution.policy.shape != (n,)):
        raise ValueError(
            f"solution of values shape {solution.values.shape} and q shape "
            f"{solution.q.shape} does not fit an MDP of {n} core states and "
            f"{actions} actions")
