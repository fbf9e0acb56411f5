"""Exact tabular solution of a derived MDP and the one-step state lookup.

Value iteration uses synchronous (Jacobi) sweeps over sparse per-action
transition matrices. The stopping rule scales the requested tolerance by
(1 - gamma) / gamma so that `tol` bounds the true sup-norm value error,
not just the last sweep delta. Ties in action selection always resolve to
the lowest action index.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dataset import State
from .derivation import DerivedMdp, neighbor_estimate
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


def _action_matrices(mdp: DerivedMdp) -> list[sparse.csr_matrix]:
    n = mdp.num_states()
    mats = []
    for a in range(mdp.action_count):
        rows, cols, vals = [], [], []
        for si in range(n):
            for tj, p in mdp.transition[si][a].items():
                rows.append(si)
                cols.append(tj)
                vals.append(p)
        mats.append(sparse.csr_matrix((vals, (rows, cols)), shape=(n, n)))
    return mats


def value_iteration(mdp: DerivedMdp, tol: float = 1e-9,
                    max_iters: int = 200_000) -> Solution:
    if tol <= 0:
        raise ValueError("tol must be positive")
    gamma = mdp.gamma
    mats = _action_matrices(mdp)
    n = mdp.num_states()
    threshold = math.inf if gamma == 0.0 else tol * (1.0 - gamma) / gamma
    v = np.zeros(n)
    deltas = []
    for it in range(1, max_iters + 1):
        q = np.empty((n, mdp.action_count))
        for a, mat in enumerate(mats):
            q[:, a] = mdp.reward[:, a] + gamma * (mat @ v)
        v_new = q.max(axis=1)
        delta = float(np.max(np.abs(v_new - v))) if n else 0.0
        deltas.append(delta)
        v = v_new
        if delta <= threshold:
            residual = _bellman_residual(mdp, mats, v)
            policy = q.argmax(axis=1)
            return Solution(v, q, policy, it, residual, tol, tuple(deltas))
    raise ConvergenceError(
        f"no convergence after {max_iters} sweeps (last delta {deltas[-1]:.3e})")


def _bellman_residual(mdp: DerivedMdp, mats, v: np.ndarray) -> float:
    backup = np.full_like(v, -np.inf)
    for a, mat in enumerate(mats):
        backup = np.maximum(backup, mdp.reward[:, a] + mdp.gamma * (mat @ v))
    return float(np.max(np.abs(backup - v)))


def lookup_q(mdp: DerivedMdp, solution: Solution, index: NeighborIndex,
             s: State, a: int, k: int, alpha: float = math.inf) -> float:
    """Q-value of an arbitrary state from its neighbors' shaped reward plus
    the discounted solved values of their landing core states.

    Empty neighborhoods return 0, the pessimistic floor used throughout
    the derivation. Restricted to core states this reproduces the solved
    Q table (same k, alpha, and penalty mode as the derivation).
    """
    nn = index.query(s, a, k, alpha)
    if not nn:
        return 0.0
    r, row = neighbor_estimate(index.batch, nn, mdp.mode, mdp.core_lookup)
    cont = sum(p * solution.values[i] for i, p in row.items())
    return r + mdp.gamma * cont


def greedy_action(mdp: DerivedMdp, solution: Solution, index: NeighborIndex,
                  s: State, k: int, alpha: float = math.inf) -> int:
    """Argmax of lookup_q over actions, lowest index on ties."""
    best_a, best_q = 0, -math.inf
    for a in range(mdp.action_count):
        q = lookup_q(mdp, solution, index, s, a, k, alpha)
        if q > best_q:
            best_a, best_q = a, q
    return best_a


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
    doc = json.loads(text)
    return Solution(
        values=np.asarray(doc["values"], dtype=float),
        q=np.asarray(doc["q"], dtype=float),
        policy=np.asarray(doc["policy"], dtype=int),
        iterations=doc["iterations"],
        residual=doc["residual"],
        tol=doc["tol"],
    )
