"""Reference computations for the benchmark's output checks.

Nothing here calls `adac.neighbors` or `adac.derivation`: the diameter,
the neighbor sets, the shaped rewards and the Q-values are recomputed
from the raw transitions, and a plain arrive-then-serve simulator replays
recorded action sequences. The Q check reads only `Solution.values`, not
the way the MDP stores its transitions.
"""

import numpy as np

# Rows of the diameter scan handled per block; bounds the scan's memory to
# a few MB on the largest batch.
_DIAMETER_BLOCK = 32


def _distances(points: np.ndarray, q, norm: str) -> np.ndarray:
    diff = points - np.asarray(q, dtype=float)
    if norm == "euclidean":
        return np.sqrt(np.sum(diff * diff, axis=-1))
    if norm == "manhattan":
        return np.sum(np.abs(diff), axis=-1)
    raise ValueError(f"unknown norm {norm!r}")


def distinct_next_states(transitions) -> list[tuple]:
    """Next-states in order of first appearance."""
    return list(dict.fromkeys(tr.s_next for tr in transitions))


def exact_diameter(transitions, norm: str = "euclidean") -> float:
    """Largest distance between two distinct next-states, by exhaustive
    scan; 1.0 for a cloud with fewer than two distinct points."""
    pts = np.asarray(distinct_next_states(transitions), dtype=float)
    best = 0.0
    for lo in range(0, len(pts), _DIAMETER_BLOCK):
        block = pts[lo:lo + _DIAMETER_BLOCK, None, :]
        best = max(best, float(_distances(block, pts[None, :, :], norm).max()))
    return best if best > 0 else 1.0


class Oracle:
    """kNN, shaped rewards and Q-values recomputed from the transitions."""

    def __init__(self, transitions, action_count: int, k: int, alpha: float,
                 diameter: float, norm: str = "euclidean"):
        self.transitions = list(transitions)
        self.k, self.alpha, self.diameter, self.norm = k, alpha, diameter, norm
        self.core = {s: i for i, s in enumerate(
            distinct_next_states(self.transitions))}
        self._by_action = []
        for a in range(action_count):
            idx = np.asarray([i for i, tr in enumerate(self.transitions)
                              if tr.a == a], dtype=int)
            pts = np.asarray([self.transitions[i].s for i in idx],
                             dtype=float).reshape(len(idx), -1)
            self._by_action.append((idx, pts))

    def neighbors(self, s, a: int) -> list[tuple[int, float]]:
        """(transition index, normalized distance) of the k nearest
        action-`a` sources, ordered by (distance, transition index), with
        sources beyond `alpha` dropped."""
        idx, pts = self._by_action[a]
        if len(idx) == 0:
            return []
        d = _distances(pts, s, self.norm)
        order = np.lexsort((idx, d))
        out = []
        for j in order:
            nd = float(d[j]) / self.diameter
            if nd > self.alpha or len(out) == self.k:
                break
            out.append((int(idx[j]), nd))
        return out

    def reward(self, s, a: int, cost=None) -> float:
        """mean(r - coef * d'), coef the neighborhood's largest reward
        (adaptive) or the fixed `cost`; 0 when there are no neighbors."""
        nn = self.neighbors(s, a)
        if not nn:
            return 0.0
        rewards = [self.transitions[i].r for i, _ in nn]
        coef = max(rewards) if cost is None else cost
        return sum(r - coef * nd for r, (_, nd) in zip(rewards, nn)) / len(nn)

    def q_value(self, s, a: int, values, gamma: float) -> float:
        """r + gamma * mean V(landing core state); an empty neighborhood is
        the pessimistic self-loop with reward 0."""
        nn = self.neighbors(s, a)
        if not nn:
            return gamma * float(values[self.core[s]])
        cont = sum(float(values[self.core[self.transitions[i].s_next]])
                   for i, _ in nn) / len(nn)
        return self.reward(s, a) + gamma * cont


def check_solved_mdp(mdp, solution, oracle: Oracle, states, tol: float,
                     greedy=None) -> list[tuple[str, bool, str]]:
    """Compare a derived MDP and its solution with the oracle on the given
    core-state indices; returns (name, passed, detail) per check.

    `greedy(s)`, when given, is the program's greedy decision at state s.
    """
    gamma = mdp.gamma
    # Solution.q is one sweep behind Solution.values; the stopping rule
    # keeps that sweep's change below tol * (1 - gamma) / gamma.
    q_bound = tol * (1.0 - gamma) + 1e-9
    worst_r = worst_q = worst_v = 0.0
    bad_greedy = []
    for si in states:
        s = mdp.core[si]
        q_oracle = []
        for a in range(mdp.action_count):
            worst_r = max(worst_r, abs(float(mdp.reward[si, a])
                                       - oracle.reward(s, a)))
            q_oracle.append(oracle.q_value(s, a, solution.values, gamma))
            worst_q = max(worst_q, abs(float(solution.q[si, a])
                                       - q_oracle[a]))
        worst_v = max(worst_v, abs(max(q_oracle)
                                   - float(solution.values[si])))
        if greedy is not None:
            q = [float(x) for x in solution.q[si]]
            best = max(q)
            # an argmax the tolerance cannot resolve may go either way;
            # exact ties must go to the lowest index
            near = [a for a in range(len(q)) if best - q[a] <= 2 * q_bound]
            pick = greedy(s)
            if pick not in near or any(q[a] == q[pick] for a in range(pick)):
                bad_greedy.append((si, pick, q))
    out = [
        ("mdp_rewards", worst_r <= 1e-9, f"max |r - oracle| = {worst_r:.3e}"),
        ("solution_q", worst_q <= q_bound,
         f"max |q - oracle| = {worst_q:.3e} (bound {q_bound:.3e})"),
        ("values_max_q", worst_v <= 2 * tol,
         f"max |max_a Q - V| = {worst_v:.3e} (bound {2 * tol:.1e})"),
    ]
    if greedy is not None:
        out.append(("greedy_argmax", not bad_greedy,
                    f"{len(bad_greedy)} of {len(states)} states disagree"))
    return out


# ---------------------------------------------------------------------------
# Arrive-then-serve simulator
# ---------------------------------------------------------------------------


def rates_at(schedule, t: int):
    """Rates of the (steps, rates) segment covering step t; the last
    segment stays in effect past the end."""
    elapsed = 0
    for steps, rates in schedule:
        elapsed += steps
        if t < elapsed:
            return rates
    return schedule[-1][1]


def simulate(schedule, phases, capacity: int, start, horizon: int,
             choose, seed=None, t0: int = 0):
    """One episode: each step every flow gains its arrivals (Poisson drawn
    per flow in flow order when `seed` is set, else the integer rate), then
    each flow of the chosen phase is served up to capacity.

    `choose(j, queues)` gives the action at within-episode step j. Returns
    (vehicles served, observations seen before each decision).
    """
    rng = None if seed is None else np.random.default_rng(seed)
    queues = list(start)
    served = 0
    seen = []
    for j in range(horizon):
        seen.append(tuple(float(x) for x in queues))
        action = choose(j, queues)
        for i, rate in enumerate(rates_at(schedule, t0 + j)):
            queues[i] += (int(rng.poisson(rate)) if rng is not None
                           else int(rate))
        for i in phases[action]:
            take = min(queues[i], capacity)
            queues[i] -= take
            served += take
    return float(served), seen


def cyclic(action_count: int):
    return lambda j, queues: j % action_count


def replay(actions):
    return lambda j, queues: actions[j]


def two_flow_reference() -> dict:
    """Cyclic and [EW, EW, NS, EW] returns on the deterministic two-flow
    intersection (NS 1, EW 3 vehicles/step, capacity 4, start (1, 3),
    100 steps)."""
    schedule = [(1, (1.0, 3.0))]
    phases = ((0,), (1,))
    cycle = [1, 1, 0, 1]
    return {
        "cyclic": simulate(schedule, phases, 4, (1, 3), 100, cyclic(2))[0],
        "fixed_ew_ew_ns_ew": simulate(schedule, phases, 4, (1, 3), 100,
                                      lambda j, q: cycle[j % 4])[0],
    }

