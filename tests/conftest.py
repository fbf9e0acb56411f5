import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as st

from adac.dataset import COLUMNS, Transition, make_batch
from adac.evaluation import worked_example_batch
from adac.planner import EVAL_SWEEPS

# any JSON document, the fuzz input of every artifact reader
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=12)
# a document nested past the recursion limit of the json decoder
DEEP_JSON = "[" * 200_000


@pytest.fixture
def table1():
    """The six-transition worked-example batch (actions 0=NS, 1=EW)."""
    return worked_example_batch()


def euclid(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def manhattan(a, b):
    return sum(abs(x - y) for x, y in zip(a, b))


def brute_force_knn(batch, s, a, k, alpha=math.inf, diam=None, dist=euclid):
    """Reference kNN: full scan, sort by (distance, transition index)."""
    if diam is None:
        diam = brute_force_diameter(batch, dist)
    cand = [(dist(s, tr.s), i) for i, tr in enumerate(batch.transitions)
            if tr.a == a]
    cand.sort()
    out = []
    for d, i in cand:
        if d / diam > alpha:
            continue
        out.append((i, d, d / diam))
        if len(out) == k:
            break
    return out


def brute_force_diameter(batch, dist=euclid):
    core = []
    for tr in batch.transitions:
        if tr.s_next not in core:
            core.append(tr.s_next)
    best = 0.0
    for i in range(len(core)):
        for j in range(i + 1, len(core)):
            best = max(best, dist(core[i], core[j]))
    return best if best > 0 else 1.0


def brute_force_cover(batch, alpha, diam, dist=euclid):
    """Reference greedy alpha-net: every transition's (source, action) pair
    in file order, repeats included, becomes a center unless a center with
    the same action lies within normalized distance alpha."""
    centers = []
    for tr in batch.transitions:
        if not any(ca == tr.a and dist(cs, tr.s) / diam <= alpha
                   for cs, ca in centers):
            centers.append((tr.s, tr.a))
    return centers


def brute_force_mdp(batch, k, alpha, mode, diam=None, dist=euclid):
    """Reference derivation in plain Python on top of brute_force_knn.

    Returns (core, reward, transition, empty), with reward[si][a] the
    shaped mean of the pair's neighbors, transition[si][a] a dict {core
    index: probability} and empty the sorted (si, a) pairs with no
    neighbors, which get reward 0 and a self-loop.
    """
    core = []
    for tr in batch.transitions:
        if tr.s_next not in core:
            core.append(tr.s_next)
    reward, transition, empty = [], [], []
    for si, s in enumerate(core):
        reward.append([])
        transition.append([])
        for a in range(batch.action_count):
            nn = brute_force_knn(batch, s, a, k, alpha, diam, dist)
            if not nn:
                empty.append((si, a))
                reward[si].append(0.0)
                transition[si].append({si: 1.0})
                continue
            sources = [batch.transitions[i] for i, _, _ in nn]
            coef = {"averagers": 0.0, "fixed": mode.c,
                    "adaptive": max(tr.r for tr in sources)}[mode.kind]
            reward[si].append(sum(tr.r - coef * nd for tr, (_, _, nd)
                                  in zip(sources, nn)) / len(nn))
            landings = Counter(core.index(tr.s_next) for tr in sources)
            transition[si].append({j: hits / len(nn)
                                   for j, hits in landings.items()})
    return core, reward, transition, empty


def mdp_rows(mdp):
    """The MDP's transition rows as nested lists, as brute_force_mdp gives
    them: mdp_rows(mdp)[si][a] is the {core index: probability} dict of
    pair (si, a)."""
    return [[mdp.transition[si][a] for a in range(mdp.action_count)]
            for si in range(mdp.num_states())]


def brute_force_value_iteration(mdp, tol, max_iters=200_000):
    """Reference modified policy iteration in plain Python over the dict rows.

    Each outer step is a full backup, stopped by the planner's rule: half
    the span of its change D against tol * (1 - gamma) / gamma. The stopping
    backup's values are shifted by gamma / (1 - gamma) * (max D + min D) / 2
    and backed up once more, which gives q, and that last backup is not
    counted. Otherwise the backup's greedy policy is evaluated by up to
    EVAL_SWEEPS sweeps, and max_iters bounds the full and the evaluation
    sweeps together. Every row sums its terms in ascending column order.
    Returns (values, q, policy, iterations, residual, deltas), with q as a
    list of per-state action lists, deltas the max-norm change of each
    counted backup and the policy's ties going to the lowest action.
    """
    n, actions, gamma = mdp.num_states(), mdp.action_count, mdp.gamma
    threshold = math.inf if gamma == 0.0 else tol * (1.0 - gamma) / gamma

    def q_value(v, si, a):
        row = mdp.transition[si][a]
        total = 0.0
        for j in sorted(row):
            total += row[j] * v[j]
        return float(mdp.reward[si, a]) + gamma * total

    def backup(v):
        return [[q_value(v, si, a) for a in range(actions)]
                for si in range(n)]

    v, deltas, sweeps = [0.0] * n, [], 0
    while sweeps < max_iters:
        sweeps += 1
        q = backup(v)
        v_new = [max(qs) for qs in q]
        change = [x - y for x, y in zip(v_new, v)]
        hi, lo = max(change), min(change)
        deltas.append(max(hi, -lo))
        v = v_new
        if (hi - lo) / 2 <= threshold:
            shift = gamma / (1.0 - gamma) * (hi + lo) / 2
            v = [x + shift for x in v]
            q = backup(v)
            values = [max(qs) for qs in q]
            residual = max(abs(x - y) for x, y in zip(values, v))
            policy = [qs.index(max(qs)) for qs in q]
            return values, q, policy, sweeps, residual, deltas
        policy = [qs.index(max(qs)) for qs in q]
        evals = 0
        while evals < EVAL_SWEEPS and sweeps < max_iters:
            evals += 1
            sweeps += 1
            v = [q_value(v, si, a) for si, a in enumerate(policy)]
    raise RuntimeError(f"no convergence after {max_iters} sweeps")


def random_batch(rng, n=30, dim=2, actions=2, coord_max=6, reward_max=5.0,
                 integer_coords=True, reward_min=0.0):
    """Random single-trajectory batch; integer coords make distance ties common."""
    transitions = []
    for t in range(n):
        if integer_coords:
            s = tuple(float(c) for c in rng.integers(0, coord_max + 1, size=dim))
            sp = tuple(float(c) for c in rng.integers(0, coord_max + 1, size=dim))
        else:
            s = tuple(float(c) for c in rng.uniform(0, coord_max, size=dim))
            sp = tuple(float(c) for c in rng.uniform(0, coord_max, size=dim))
        a = int(rng.integers(0, actions))
        r = float(np.round(rng.uniform(reward_min, reward_max), 2))
        transitions.append(Transition(s, a, r, sp, 0, t))
    return make_batch(transitions, action_count=actions,
                      reward_bound=reward_max)


def scale_batch(batch, c):
    """Multiply every state coordinate by c."""
    transitions = [
        Transition(tuple(x * c for x in tr.s), tr.a, tr.r,
                   tuple(x * c for x in tr.s_next), tr.traj_id, tr.t)
        for tr in batch.transitions
    ]
    return make_batch(transitions, batch.action_count, batch.reward_bound)


def brute_force_rates_at(config, t):
    """Reference schedule lookup: walk the segments up to env step t; past
    the end the last segment's rates stay in effect."""
    if config.schedule is None:
        return config.rates
    elapsed = 0
    for steps, seg_rates in config.schedule:
        if t < elapsed + steps:
            return tuple(seg_rates)
        elapsed += steps
    return tuple(config.schedule[-1][1])


def brute_force_step(config, queues, t, action, rng=None):
    """Reference arrive-then-serve step at env step t: each flow in order
    gains int(rng.poisson(rate)) vehicles, one scalar draw per flow (or
    int(rate) when deterministic), then each flow of the action's phase is
    served up to capacity. Returns (queues, vehicles served as a float)."""
    if not 0 <= action < len(config.phases):
        raise ValueError(f"invalid action {action}")
    queues = list(queues)
    for i, rate in enumerate(brute_force_rates_at(config, t)):
        queues[i] += (int(rng.poisson(rate)) if config.arrivals == "poisson"
                      else int(rate))
    served = 0
    for i in config.phases[action]:
        take = min(queues[i], config.capacity)
        queues[i] -= take
        served += take
    return queues, float(served)


def brute_force_rollout(config, start, policy, horizon, gamma=0.99, rng=None,
                        traj_id=0):
    """Reference rollout, one brute_force_step per step with the env clock
    at start.t + j. Returns (Transition rows, cumulative reward,
    discounted return), the returns summed in step order."""
    queues, rows = list(start.queues), []
    cumulative = discounted = 0.0
    for j in range(horizon):
        obs = tuple(float(q) for q in queues)
        action = policy.act(obs, j)
        queues, reward = brute_force_step(config, queues, start.t + j, action,
                                          rng)
        rows.append(Transition(obs, action, reward,
                               tuple(float(q) for q in queues), traj_id, j))
        cumulative += reward
        discounted += (gamma ** j) * reward
    return rows, cumulative, discounted


def brute_force_save_batch(batch, path):
    """Reference batch writer: the meta line when the declared values are
    not the ones the records imply, then one json.dumps per record."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(meta_line(batch))
        keys = ("s", "a", "r", "sp", "traj", "t")
        for values in zip(*(getattr(batch, name).tolist() for name in COLUMNS)):
            fh.write(json.dumps(dict(zip(keys, values))) + "\n")


def percent_save_batch(batch, path):
    """Reference batch writer: the meta line, then one %-format per record,
    %r for a float and %d for an int, which is how json.dumps spells
    them."""
    state = "[" + ", ".join(["%r"] * batch.dim) + "]"
    record = ('{"s": ' + state + ', "a": %d, "r": %r, "sp": ' + state
              + ', "traj": %d, "t": %d}\n')
    rows = zip(*batch.s.T.tolist(), batch.a.tolist(), batch.r.tolist(),
               *batch.s_next.T.tolist(), batch.traj.tolist(), batch.t.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(meta_line(batch) + "".join(map(record.__mod__, rows)))


def meta_line(batch):
    """The meta line of a batch file, when the declared values are not the
    ones the records imply, and otherwise nothing."""
    max_a, max_r = int(batch.a.max()), float(batch.r.max())
    if batch.action_count == max_a + 1 and batch.reward_bound == max(max_r, 0.0):
        return ""
    return json.dumps({"meta": {
        "action_count": batch.action_count,
        "reward_bound": batch.reward_bound,
        "dim": batch.dim,
    }}) + "\n"
