"""Sample-complexity bound machinery for the derived MDP.

The value suboptimality gap of the greedy policy decomposes into a
sampling term (finite neighbor count, Hoeffding-style) and an estimation
term (neighbors at non-zero distance):

    gap = (2 * eps_s + d_bar_max * R_max) / (1 - gamma)

holding with probability 1 - delta when the derivation's k lies in
[ (q_max/eps_s)^2 * ln(2N/delta),  2N/delta ] for covering number N.
The covering number is estimated by a greedy net in file order; the exact
minimal-cover quantity is intractable and the greedy net is the standard
certificate-producing surrogate.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Batch
from .derivation import DerivedMdp, PenaltyMode, mdp_from_table
from .neighbors import NeighborIndex, build_index, distances, row_means
from .planner import Solution, check_artifacts, check_index


@dataclass(frozen=True)
class PacReport:
    covering_number: int
    epsilon_s: float
    k_min: int
    k_max: int
    k_window_empty: bool
    d_bar_max: float
    gap: float
    delta: float
    q_max: float
    q_max_ceiling: float
    r_max_bound: float
    gamma: float


class KWindow(NamedTuple):
    k_min: int
    k_max: int
    empty: bool


def covering_number(index: NeighborIndex, alpha: float) -> int:
    """Greedy alpha-net size over the (source state, action) pairs of the
    index's batch, in the index's norm and normalized by its diameter.

    The file-order scan: a pair becomes a center unless an earlier center
    with the same action lies within normalized distance alpha. Pairs with
    different actions are infinitely distant, and a repeated pair lies
    within alpha of whatever covered its first occurrence. So, action by
    action over the distinct points in order of first appearance, the
    first point not yet covered becomes a center and covers every point
    within alpha of it.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    count = 0
    for a in range(index.action_count):
        points = index.points(a)
        uncovered = np.ones(len(points), dtype=bool)
        while uncovered.any():
            center = points[np.argmax(uncovered), None]
            dist = distances(center, points, index.norm)[0] / index.diameter
            uncovered &= dist > alpha
            count += 1
    return count


def sampling_error(q_max: float, k: int, n_cov: int, delta: float) -> float:
    """Deviation bound from averaging k neighbors instead of the expectation."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return q_max * math.sqrt(math.log(2.0 * n_cov / delta) / k)


def k_window(q_max: float, epsilon_s: float, n_cov: int,
             delta: float) -> KWindow:
    """Range of neighbor counts for which the guarantee holds at epsilon_s."""
    if q_max <= 0 or epsilon_s <= 0 or n_cov < 1 or not 0 < delta < 1:
        raise ValueError("inputs must be positive with delta in (0, 1)")
    k_min = math.ceil((q_max / epsilon_s) ** 2 * math.log(2.0 * n_cov / delta))
    k_max = math.floor(2.0 * n_cov / delta)
    return KWindow(k_min, k_max, k_min > k_max)


def value_gap(epsilon_s: float, d_bar: float, r_max: float,
              gamma: float) -> float:
    """Suboptimality bound: (2 eps_s + d_bar * R_max) / (1 - gamma)."""
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    return (2.0 * epsilon_s + d_bar * r_max) / (1.0 - gamma)


def d_bar_max(mdp: DerivedMdp, index: NeighborIndex) -> float:
    """Worst-case mean normalized neighbor distance over derivation queries,
    with the index the MDP was derived with: ValueError unless the index's
    core states, reduced as the MDP was, give its rewards, transition
    arrays and empty pairs bit for bit."""
    check_index(index, mdp)
    table = index.search(index.core, mdp.k, mdp.alpha)
    derived = mdp_from_table(index, table, mdp.k, mdp.alpha, mdp.gamma,
                             mdp.mode)

    def arrays(m: DerivedMdp) -> tuple[np.ndarray, ...]:
        return m.reward, m.stacked.indptr, m.stacked.indices, m.stacked.data

    if not (derived.empty_pairs == mdp.empty_pairs and all(
            (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            for a, b in zip(arrays(derived), arrays(mdp)))):
        raise ValueError("the source batch's neighbors give other rewards or "
                         "transitions than the MDP's: not the batch it was "
                         "derived from")
    pairs, _, norm_dist = table
    # an empty pair's mean reads 0, which never raises the maximum
    return float(np.max(row_means(pairs, norm_dist, mdp.num_states()
                                  * index.action_count), initial=0.0))


def pac_bound(batch: Batch, mdp: DerivedMdp, solution: Solution,
              delta: float, alpha: float | None = None) -> PacReport:
    """Compose the full suboptimality report for a solved derivation.

    The MDP must be derived from the batch in its own norm and solved by
    the solution; anything else raises ValueError. alpha is the covering
    radius, by default the MDP's threshold, or 1 when that is infinite.
    """
    index = build_index(batch, mdp.norm)
    check_artifacts(index, mdp, solution)
    if alpha is None:
        alpha = mdp.alpha
    if alpha == math.inf:
        alpha = 1.0
    n_cov = covering_number(index, alpha)
    q_max = float(np.max(solution.q))
    # heavily penalized MDPs can have all-negative Q; the bound still needs
    # a non-negative scale for the sampling term
    q_scale = max(q_max, 0.0)
    eps = sampling_error(q_scale, mdp.k, n_cov, delta)
    window = (k_window(q_scale, eps, n_cov, delta)
              if q_scale > 0 else KWindow(1, 0, True))
    dbar = d_bar_max(mdp, index)
    r_max = batch.reward_bound
    gap = value_gap(eps, dbar, r_max, mdp.gamma)
    ceiling = r_max / (1.0 - mdp.gamma)
    return PacReport(
        covering_number=n_cov, epsilon_s=eps,
        k_min=window.k_min, k_max=window.k_max, k_window_empty=window.empty,
        d_bar_max=dbar, gap=gap, delta=delta,
        q_max=q_max, q_max_ceiling=ceiling,
        r_max_bound=r_max, gamma=mdp.gamma,
    )


def canonical_shaping(k: int, r_max: float, d_near: float, d_far: float,
                      mode: PenaltyMode) -> float:
    """Shaped reward of the synthetic neighborhood with k - 1 neighbors at
    normalized distance d_near carrying reward 1 and one floating neighbor
    at d_far carrying reward r_max.

    The floating neighbor sweeps from the homogeneous configuration
    (r_max = 1) to a strongly under-explored one (large r_max); under the
    adaptive mode its reward also sets the penalty scale.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if not (1 <= r_max < math.inf and 0 <= d_near < math.inf
            and 0 <= d_far < math.inf):
        raise ValueError("r_max must be finite and >= 1 and the distances "
                         f"finite and >= 0, got {(r_max, d_near, d_far)}")
    # one group holding both rewards
    coef = float(mode.coefficients(np.zeros(2, dtype=int),
                                   np.array([1.0, r_max]), 1)[0])
    total = (k - 1) * (1.0 - coef * d_near) + (r_max - coef * d_far)
    return total / k
