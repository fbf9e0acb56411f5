"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its runtime budget.

Criteria:
  1 worked-example reward table golden values
  2 worked-example one-step lookup argmax
  3 two-flow experiment returns (behavior 300, derived >= 390, optimum 400)
  4 planner equivalence with exhaustive policy enumeration
  5 derivation property suite on randomized batches
  6 bound-toolbox arithmetic and monotonicity
  7 canonical-neighborhood shaping curves
  8 sweep robustness on the multi-flow Poisson intersection
"""

import itertools
import math
import time

import numpy as np
import pytest

from adac.dataset import Transition, make_batch
from adac.derivation import PenaltyMode, build_mdp
from adac.evaluation import (reconstruction_batch, reproduce_table2,
                             sweep_c, sweep_k)
from adac.neighbors import build_index
from adac.planner import greedy_action, value_iteration
from adac.policies import CyclicPolicy, FixedCyclePolicy, GreedyDerivedPolicy
from adac.theory import canonical_shaping, covering_number, k_window, value_gap
from adac.traffic import (EnvState, IntersectionEnvConfig, rollout,
                          two_flow_config)

from conftest import mdp_rows, scale_batch


class Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.2f}s)")
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its "
                f"{self.seconds:.0f}s budget: {elapsed:.1f}s")
        else:
            print(f"ACCEPTANCE {self.criterion}: FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_1_reward_table_golden_values():
    with Budget("1 (reward table golden values)", 1.0):
        cells = {(c.mode, c.state, c.action): c for c in reproduce_table2()}
        states = [(2.0, 3.0), (6.0, 1.0), (3.0, 3.0), (1.0, 5.0), (0.0, 5.0)]

        for s in states:
            assert round(cells[("none", s, "NS")].computed, 2) == 2.67
            assert round(cells[("none", s, "EW")].computed, 2) == 2.00

        c1_expected = {
            (2.0, 3.0): (2.41, 1.77), (6.0, 1.0): (2.29, 1.16),
            (3.0, 3.0): (2.45, 1.66), (1.0, 5.0): (2.14, 1.85),
            (0.0, 5.0): (2.03, 1.82)}
        for s, (ns, ew) in c1_expected.items():
            assert abs(cells[("fixed:1", s, "NS")].computed - ns) <= 0.01
            assert abs(cells[("fixed:1", s, "EW")].computed - ew) <= 0.01

        adaptive = [cells[("adaptive", s, a)] for s in states
                    for a in ("NS", "EW")]
        matches = [c for c in adaptive if c.match]
        flagged = [c for c in adaptive if not c.match]
        assert len(matches) == 9
        assert len(flagged) == 1
        assert flagged[0].state == (2.0, 3.0) and flagged[0].action == "NS"
        assert abs(flagged[0].computed - 1.65) <= 0.01

        c2 = [cells[("fixed:2", s, a)] for s in states for a in ("NS", "EW")]
        assert all(c.printed is None for c in c2)   # computed values only
        assert all(math.isfinite(c.computed) for c in c2)


def test_criterion_2_one_step_lookup_argmax(table1):
    with Budget("2 (one-step lookup argmax)", 1.0):
        index = build_index(table1)
        adaptive = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                             mode=PenaltyMode.adaptive(), index=index)
        sol = value_iteration(adaptive, tol=1e-9)
        assert greedy_action(adaptive, sol, index, (1.0, 4.0)) == 1   # EW

        averagers = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                              mode=PenaltyMode.averagers(), index=index)
        sol0 = value_iteration(averagers, tol=1e-9)
        assert greedy_action(averagers, sol0, index, (1.0, 4.0)) == 0   # NS


def test_criterion_3_two_flow_experiment():
    with Budget("3 (two-flow experiment)", 5.0):
        config = two_flow_config()
        start = EnvState((1, 3))

        cyclic = rollout(config, start, CyclicPolicy(2), 100)
        assert cyclic.cumulative_reward == 300.0

        batch = reconstruction_batch()
        index = build_index(batch)
        mdp = build_mdp(batch, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive(), index=index)
        sol = value_iteration(mdp, tol=1e-9)
        derived = rollout(config, start,
                          GreedyDerivedPolicy(mdp, sol, index), 100)
        assert derived.cumulative_reward >= 390.0
        assert derived.cumulative_reward >= 1.30 * cyclic.cumulative_reward

        fixed = rollout(config, start, FixedCyclePolicy([1, 1, 0, 1]), 100)
        assert fixed.cumulative_reward == 400.0


def _random_small_mdp(rng):
    """Derived MDP with at most 6 core states and 2 actions."""
    m = int(rng.integers(2, 7))
    pool = [tuple(float(c) for c in rng.integers(0, 8, size=2))
            for _ in range(m)]
    pool = list(dict.fromkeys(pool))
    n = int(rng.integers(6, 26))
    rows = []
    for t in range(n):
        s = tuple(float(c) for c in rng.integers(0, 8, size=2))
        sp = pool[int(rng.integers(0, len(pool)))]
        a = int(rng.integers(0, 2))
        r = float(np.round(rng.uniform(0, 5), 2))
        rows.append(Transition(s, a, r, sp, 0, t))
    batch = make_batch(rows, action_count=2, reward_bound=5.0)
    k = int(rng.integers(1, 4))
    alpha = float(rng.choice([math.inf, 0.6]))
    gamma = float(rng.choice([0.8, 0.9, 0.95]))
    mode = [PenaltyMode.averagers(), PenaltyMode.fixed(float(rng.uniform(0, 3))),
            PenaltyMode.adaptive()][int(rng.integers(0, 3))]
    return build_mdp(batch, k=k, alpha=alpha, gamma=gamma, mode=mode)


def _policy_value(mdp, policy):
    n = mdp.num_states()
    p = np.zeros((n, n))
    r = np.zeros(n)
    for si in range(n):
        a = policy[si]
        r[si] = mdp.reward[si, a]
        for tj, prob in mdp.transition[si][a].items():
            p[si, tj] = prob
    return np.linalg.solve(np.eye(n) - mdp.gamma * p, r)


def test_criterion_4_planner_matches_policy_enumeration():
    with Budget("4 (planner vs policy enumeration)", 30.0):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 50:
            mdp = _random_small_mdp(rng)
            if mdp.num_states() > 6:
                continue
            sol = value_iteration(mdp, tol=1e-10)
            best = np.full(mdp.num_states(), -np.inf)
            for pol in itertools.product(range(2), repeat=mdp.num_states()):
                best = np.maximum(best, _policy_value(mdp, pol))
            assert np.max(np.abs(sol.values - best)) < 1e-6
            assert np.max(np.abs(_policy_value(mdp, sol.policy) - best)) < 1e-6
            checked += 1


def _random_property_batch(rng):
    n = int(rng.integers(8, 40))
    dim = int(rng.integers(1, 4))
    actions = int(rng.integers(1, 4))
    rows = []
    for t in range(n):
        s = tuple(float(c) for c in rng.integers(0, 7, size=dim))
        sp = tuple(float(c) for c in rng.integers(0, 7, size=dim))
        rows.append(Transition(s, int(rng.integers(0, actions)),
                               float(np.round(rng.uniform(0, 5), 2)),
                               sp, 0, t))
    return make_batch(rows, action_count=actions, reward_bound=5.0)


def test_criterion_5_derivation_property_suite():
    with Budget("5 (derivation property suite)", 60.0):
        rng = np.random.default_rng(77)
        for trial in range(100):
            batch = _random_property_batch(rng)
            k = int(rng.integers(1, 6))
            alpha = float(rng.choice([math.inf, 0.9, 0.5]))
            index = build_index(batch)
            gamma = 0.9

            adaptive = build_mdp(batch, k, alpha, gamma,
                                 PenaltyMode.adaptive(), index=index)
            averagers = build_mdp(batch, k, alpha, gamma,
                                  PenaltyMode.averagers(), index=index)
            fixed0 = build_mdp(batch, k, alpha, gamma, PenaltyMode.fixed(0.0),
                               index=index)

            for si in range(adaptive.num_states()):
                for a in range(adaptive.action_count):
                    total = sum(adaptive.transition[si][a].values())
                    assert abs(total - 1.0) <= 1e-12
            assert np.all(adaptive.reward <= averagers.reward + 1e-12)
            assert np.array_equal(fixed0.reward, averagers.reward)
            assert mdp_rows(fixed0) == mdp_rows(averagers)

            previous = None
            for c in (0.0, 1.0, 2.0, 4.0):
                mdp_c = build_mdp(batch, k, alpha, gamma,
                                  PenaltyMode.fixed(c), index=index)
                if previous is not None:
                    assert np.all(mdp_c.reward <= previous + 1e-12)
                previous = mdp_c.reward

            scaled = build_mdp(scale_batch(batch, 2.0), k, alpha, gamma,
                               PenaltyMode.adaptive())
            assert np.array_equal(scaled.reward, adaptive.reward)
            assert mdp_rows(scaled) == mdp_rows(adaptive)

        # all-equal-rewards neighborhoods: fixed(r) collapses onto adaptive
        for trial in range(100):
            n = int(rng.integers(5, 25))
            r = float(np.round(rng.uniform(0.5, 5), 2))
            rows = [Transition(
                tuple(float(c) for c in rng.integers(0, 6, size=2)),
                int(rng.integers(0, 2)), r,
                tuple(float(c) for c in rng.integers(0, 6, size=2)), 0, t)
                for t in range(n)]
            batch = make_batch(rows, action_count=2, reward_bound=r)
            index = build_index(batch)
            fixed_r = build_mdp(batch, 3, math.inf, 0.9, PenaltyMode.fixed(r),
                                index=index)
            adaptive = build_mdp(batch, 3, math.inf, 0.9,
                                 PenaltyMode.adaptive(), index=index)
            assert np.array_equal(fixed_r.reward, adaptive.reward)


def test_criterion_6_bound_toolbox(table1):
    with Budget("6 (bound toolbox)", 5.0):
        win = k_window(10.0, 1.0, 100, 0.1)
        assert (win.k_min, win.k_max) == (761, 2000)

        assert abs(value_gap(1.0, 0.1, 5.0, 0.9) - 25.0) <= 1e-12

        for lo, hi in [(0.5, 0.9), (0.9, 0.99)]:
            assert value_gap(1.0, 0.1, 5.0, lo) < value_gap(1.0, 0.1, 5.0, hi)
        for lo, hi in [(0.0, 0.1), (0.1, 0.5), (0.5, 1.0)]:
            assert value_gap(1.0, lo, 5.0, 0.9) <= value_gap(1.0, hi, 5.0, 0.9)
            assert value_gap(1.0, 0.1, lo * 10, 0.9) <= value_gap(
                1.0, 0.1, hi * 10, 0.9)

        assert covering_number(build_index(table1), 1e-9) == 6
        grid = [1e-9, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0]
        counts = [covering_number(build_index(table1), a) for a in grid]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 6 and counts[-1] == 2


def test_criterion_7_canonical_shaping():
    with Budget("7 (canonical shaping)", 1.0):
        k, d = 5, 0.5
        for r_max in range(1, 11):
            base = canonical_shaping(k, r_max, d, d, PenaltyMode.averagers())
            adaptive = canonical_shaping(k, r_max, d, d,
                                         PenaltyMode.adaptive())
            assert adaptive == pytest.approx(base - 0.5 * r_max, abs=1e-12)

        for c in (0.0, 1.0, 2.0, 3.0, 4.0):
            fixed = canonical_shaping(k, 10.0, d, d, PenaltyMode.fixed(c))
            adaptive = canonical_shaping(k, 10.0, d, d,
                                         PenaltyMode.adaptive())
            assert adaptive < fixed

        for c in (4.0, 5.0, 6.0, 8.0, 10.0):
            fixed = canonical_shaping(k, 1.0, d, d, PenaltyMode.fixed(c))
            adaptive = canonical_shaping(k, 1.0, d, d, PenaltyMode.adaptive())
            assert adaptive > fixed


BASE_RATES = (0.4, 0.6, 0.8, 1.0)


def _multi_flow_configs():
    flows = tuple((f"flow{i}", r) for i, r in enumerate(BASE_RATES))
    phases = ((0,), (1,), (2,), (3,))
    collect_cfg = IntersectionEnvConfig(flows=flows, phases=phases,
                                        capacity=4, arrivals="poisson",
                                        horizon=360)
    light = tuple(r * 0.5 for r in BASE_RATES)
    peak = tuple(r * 1.25 for r in BASE_RATES)
    eval_cfg = IntersectionEnvConfig(
        flows=flows, phases=phases, capacity=4, arrivals="poisson",
        horizon=360,
        schedule=((360, light), (360, light), (360, BASE_RATES),
                  (360, peak), (360, peak)))
    return collect_cfg, eval_cfg


def test_criterion_8_sweep_robustness():
    with Budget("8 (sweep robustness, multi-flow Poisson)", 600.0):
        from adac.policies import collect

        collect_cfg, eval_cfg = _multi_flow_configs()
        rng = np.random.default_rng(7)
        batch = collect(collect_cfg, CyclicPolicy(4), 28, 360,
                        EnvState((0, 0, 0, 0)), rng=rng)
        assert len(batch) == 10_080
        seeds = [101, 102, 103, 104, 105]
        start = EnvState((0, 0, 0, 0))

        k_rows = sweep_k(batch, range(2, 11), alpha=0.8, gamma=0.99,
                         config=eval_cfg, episodes=5, horizon=360,
                         seeds=seeds, start=start)
        returns = [row["mean_return"] for row in k_rows]
        mean = sum(returns) / len(returns)
        spread = (max(returns) - min(returns)) / mean
        print(f"  k-sweep returns: {[round(r, 1) for r in returns]} "
              f"spread={spread:.3f}")
        assert spread <= 0.15

        c_rows = sweep_c(batch, [0.0, 1.0, 2.0, 4.0, 8.0], k=5, alpha=0.8,
                         gamma=0.99, config=eval_cfg, episodes=5,
                         horizon=360, seeds=seeds, start=start)
        grid = [row["mean_return"] for row in c_rows if row["c"] != "A-DAC"]
        adaptive = [row["mean_return"] for row in c_rows
                    if row["c"] == "A-DAC"][0]
        print(f"  c-sweep grid best={max(grid):.1f} adaptive={adaptive:.1f}")
        assert adaptive >= 0.95 * max(grid)
