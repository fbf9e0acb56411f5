import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adac
from adac.dataset import Transition, make_batch
from adac.derivation import PenaltyMode, StackedRows, build_mdp
from adac.neighbors import build_index
from adac.planner import (EVAL_SWEEPS, ConvergenceError, RowProduct,
                          greedy_action, lookup_q, solution_from_json,
                          solution_to_json, value_iteration)
from adac.policies import CyclicPolicy, collect
from adac.traffic import EnvState, IntersectionEnvConfig

from conftest import (DEEP_JSON, brute_force_value_iteration, json_values,
                      random_batch)


def tiny_mdp(gamma=0.5):
    """One state, one action, reward 1, self-loop."""
    batch = make_batch([Transition((0.0,), 0, 1.0, (0.0,), 0, 0)])
    with pytest.warns(RuntimeWarning):
        return build_mdp(batch, k=1, alpha=math.inf, gamma=gamma,
                         mode=PenaltyMode.averagers())


def scalar_lookup_q(mdp, solution, index, table, a):
    """Q of one action the one-state-one-action way: the neighbors at pair
    id a of table, one state's search([s], mdp.k, mdp.alpha), with their
    own coefficient rule, and the sum of r - coef * d' + gamma * V(landing)
    in neighbor order over their count."""
    pairs, sources, norm_dist = table
    sources, norm_dist = sources[pairs == a], norm_dist[pairs == a]
    if not len(sources):
        return 0.0
    transitions = [index.batch.transitions[i] for i in sources.tolist()]
    coef = {"averagers": 0.0, "fixed": mdp.mode.c,
            "adaptive": max(tr.r for tr in transitions)}[mdp.mode.kind]
    total = 0.0
    for tr, d in zip(transitions, norm_dist.tolist()):
        total += (tr.r - coef * d
                  + mdp.gamma * solution.values[mdp.core.index(tr.s_next)])
    return total / len(sources)


def policy_value_by_linear_solve(mdp, policy):
    """Exact evaluation of a deterministic policy: V = (I - g P)^-1 R."""
    n = mdp.num_states()
    p = np.zeros((n, n))
    r = np.zeros(n)
    for si in range(n):
        a = policy[si]
        r[si] = mdp.reward[si, a]
        for tj, prob in mdp.transition[si][a].items():
            p[si, tj] = prob
    return np.linalg.solve(np.eye(n) - mdp.gamma * p, r)


def enumerate_optimal_values(mdp):
    """Pointwise-best values over every deterministic stationary policy."""
    n = mdp.num_states()
    best = np.full(n, -np.inf)
    for policy in itertools.product(range(mdp.action_count), repeat=n):
        best = np.maximum(best, policy_value_by_linear_solve(mdp, policy))
    return best


class TestValueIteration:
    def test_geometric_series(self):
        mdp = tiny_mdp(gamma=0.5)
        sol = value_iteration(mdp, tol=1e-12)
        assert sol.values[0] == pytest.approx(2.0, abs=1e-10)

    def test_gamma_zero_returns_rewards(self, table1):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.0,
                        mode=PenaltyMode.adaptive())
        sol = value_iteration(mdp)
        assert np.array_equal(sol.q, mdp.reward)
        assert np.array_equal(sol.policy, mdp.reward.argmax(axis=1))
        assert sol.iterations == 1

    def test_worked_example_against_linear_solve(self, table1):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        sol = value_iteration(mdp, tol=1e-9)
        assert sol.residual <= 1e-9
        exact = policy_value_by_linear_solve(mdp, sol.policy)
        assert np.max(np.abs(sol.values - exact)) < 1e-7

    def test_contraction_of_sweep_deltas(self, table1):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        sol = value_iteration(mdp, tol=1e-9)
        for before, after in zip(sol.deltas[1:], sol.deltas[2:]):
            assert after <= mdp.gamma * before + 1e-12

    def test_fixed_point(self, table1):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        sol = value_iteration(mdp, tol=1e-9)
        backup = np.full_like(sol.values, -np.inf)
        for a in range(mdp.action_count):
            col = np.array([
                mdp.reward[si, a] + mdp.gamma * sum(
                    p * sol.values[tj]
                    for tj, p in mdp.transition[si][a].items())
                for si in range(mdp.num_states())])
            backup = np.maximum(backup, col)
        assert np.max(np.abs(backup - sol.values)) <= sol.tol

    def test_solution_invariants(self, table1):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        sol = value_iteration(mdp, tol=1e-9)
        assert np.array_equal(sol.values, sol.q.max(axis=1))
        assert np.array_equal(sol.policy, sol.q.argmax(axis=1))

    def test_policy_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            batch = random_batch(rng, n=int(rng.integers(6, 20)), coord_max=3)
            mdp = build_mdp(batch, k=2, alpha=math.inf, gamma=0.9,
                            mode=PenaltyMode.adaptive())
            if mdp.num_states() > 6:
                continue
            sol = value_iteration(mdp, tol=1e-10)
            best = enumerate_optimal_values(mdp)
            assert np.max(np.abs(sol.values - best)) < 1e-6
            mine = policy_value_by_linear_solve(mdp, sol.policy)
            assert np.max(np.abs(mine - best)) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), integer_coords=st.booleans(),
           mode=st.sampled_from([PenaltyMode.averagers(), PenaltyMode.fixed(2.5),
                                 PenaltyMode.adaptive()]),
           k=st.integers(1, 8), alpha=st.sampled_from([math.inf, 0.3, 0.1]),
           gamma=st.sampled_from([0.0, 0.5, 0.9]))
    def test_matches_brute_force_bit_for_bit(self, seed, integer_coords, mode,
                                             k, alpha, gamma):
        # integer coordinates give distance ties; a finite alpha gives empty
        # pairs, whose self-loops the stacked matrix must carry too
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, n=int(rng.integers(4, 40)),
                             actions=int(rng.integers(1, 4)),
                             integer_coords=integer_coords)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mdp = build_mdp(batch, k=k, alpha=alpha, gamma=gamma, mode=mode)
        sol = value_iteration(mdp, tol=1e-9)
        values, q, policy, iterations, residual, deltas = \
            brute_force_value_iteration(mdp, tol=1e-9)
        assert sol.values.tolist() == values
        assert sol.q.tolist() == q
        assert sol.policy.tolist() == policy
        assert sol.iterations == iterations
        assert list(sol.deltas) == deltas
        assert sol.residual == residual

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("tol", [1e-2, 1e-8])
    def test_tol_bounds_the_error_of_the_values(self, seed, gamma, tol):
        # shaped rewards below 0 make the iterates from v = 0 non-monotone,
        # integer coordinates give ties, and alpha 0.3 gives empty pairs
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, n=40, actions=3, coord_max=6,
                             reward_max=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mdp = build_mdp(batch, k=3, alpha=0.3, gamma=gamma,
                            mode=PenaltyMode.fixed(8))
        assert mdp.empty_pairs and np.any(mdp.reward < 0)
        sol = value_iteration(mdp, tol=tol)
        assert len(sol.deltas) > 1      # at least one evaluation phase ran
        own = policy_value_by_linear_solve(mdp, sol.policy)
        assert np.max(np.abs(sol.values - own)) <= tol
        best = value_iteration(mdp, tol=1e-12).values
        assert np.max(np.abs(sol.values - best)) <= tol + 1e-11

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("tol", [1e-2, 1e-8])
    def test_span_stop_certifies_its_values(self, seed, gamma, tol):
        # integer coordinates give ties, rewards from -1 to 1 give shaped
        # rewards below 0, and k 3 with alpha 0.05 gives many empty pairs,
        # whose zero-reward self-loops are absorbing
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, n=40, actions=3, coord_max=6,
                             reward_min=-1.0, reward_max=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mdp = build_mdp(batch, k=3, alpha=0.05, gamma=gamma,
                            mode=PenaltyMode.fixed(8))
        assert mdp.empty_pairs and np.any(mdp.reward < 0)
        sol = value_iteration(mdp, tol=tol)
        # a stop on the sup-norm of the change would not have come sooner
        assert all(delta > tol * (1 - gamma) / gamma
                   for delta in sol.deltas[:-1])
        slack = 1e-13 * (1 + np.max(np.abs(sol.values)))
        assert sol.residual <= (1 - gamma) * tol + slack
        own = policy_value_by_linear_solve(mdp, sol.policy)
        assert np.max(np.abs(sol.values - own)) <= gamma * tol + slack

    def test_criterion_8_mdp_takes_few_full_backups(self):
        rates = (0.4, 0.6, 0.8, 1.0)
        config = IntersectionEnvConfig(
            flows=tuple((f"flow{i}", r) for i, r in enumerate(rates)),
            phases=((0,), (1,), (2,), (3,)), capacity=4, arrivals="poisson")
        batch = collect(config, CyclicPolicy(4), 28, 360,
                        EnvState((0, 0, 0, 0)), rng=np.random.default_rng(7))
        mdp = build_mdp(batch, k=5, alpha=0.8, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        # a stop on the sup-norm of the change took 49
        assert len(value_iteration(mdp, tol=1e-8).deltas) <= 20

    def test_gamma_zero_takes_one_full_backup(self):
        batch = random_batch(np.random.default_rng(3), n=30, actions=3,
                             reward_max=1.0)
        mdp = build_mdp(batch, k=3, alpha=math.inf, gamma=0.0,
                        mode=PenaltyMode.fixed(8))
        sol = value_iteration(mdp, tol=1e-12)
        assert (sol.iterations, len(sol.deltas)) == (1, 1)
        assert np.array_equal(sol.values, mdp.reward.max(axis=1))
        assert sol.residual == 0.0

    def test_every_sweep_counts_against_max_iters(self, table1):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        sol = value_iteration(mdp, tol=1e-9)
        backups = len(sol.deltas)
        assert backups > 2
        # each backup but the last is followed by a whole evaluation phase
        assert sol.iterations == backups + EVAL_SWEEPS * (backups - 1)
        assert value_iteration(mdp, tol=1e-9,
                               max_iters=sol.iterations).iterations == (
            sol.iterations)
        # one sweep short, and a budget that ends inside the first and
        # inside the last evaluation phase
        for max_iters in (sol.iterations - 1, 1 + EVAL_SWEEPS // 2,
                          sol.iterations - 1 - EVAL_SWEEPS // 2):
            with pytest.raises(ConvergenceError, match=f"{max_iters} sweeps"):
                value_iteration(mdp, tol=1e-9, max_iters=max_iters)
            with pytest.raises(RuntimeError):
                brute_force_value_iteration(mdp, tol=1e-9,
                                            max_iters=max_iters)

    def test_non_convergence_raises(self, table1):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        with pytest.raises(ConvergenceError):
            value_iteration(mdp, tol=1e-9, max_iters=3)

    def test_tol_validation(self, table1):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        with pytest.raises(ValueError):
            value_iteration(mdp, tol=0.0)

    def test_values_near_the_float64_limit_solve(self):
        """Reward 1e306 at gamma 0.99 has the value 1e308, which float64
        holds: the shift to the midpoint of the bounds halves before it
        scales by gamma / (1 - gamma), so it does not overflow."""
        mdp = dataclasses.replace(tiny_mdp(gamma=0.99),
                                  reward=np.full((1, 1), 1e306))
        sol = value_iteration(mdp)
        assert sol.q[0, 0] == pytest.approx(1e308, rel=1e-12)
        assert sol.residual <= 1e308 * 1e-12

    def test_a_tol_below_the_values_resolution_is_widened(self):
        """Values near 1e308 are only known to their float64 spacing, about
        2e292, so a tol of 1e-9 comes back as gamma / (1 - gamma) times
        that spacing, the least change the span test can resolve."""
        mdp = dataclasses.replace(tiny_mdp(gamma=0.99),
                                  reward=np.full((1, 1), 1e306))
        sol = value_iteration(mdp, tol=1e-9)
        assert sol.tol == 0.99 / (1 - 0.99) * math.ulp(sol.values[0])
        assert sol.tol == pytest.approx(1.976e294, rel=1e-3)

    def test_a_tol_the_values_resolve_is_kept(self):
        sol = value_iteration(tiny_mdp(gamma=0.5), tol=1e-12)
        assert sol.tol == 1e-12
        assert abs(sol.values[0] - 2.0) <= sol.tol

    @pytest.mark.parametrize("scale", [1e307, 1e308])
    def test_values_past_the_float64_limit_raise(self, table1, scale):
        """Values past float64's range raise, whether they overflow in the
        first backup (constant rewards) or in a later sweep."""
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        for reward in (np.full_like(mdp.reward, scale),
                       mdp.reward / mdp.reward.max() * scale):
            scaled = dataclasses.replace(mdp, reward=reward)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(ValueError, match="overflow float64"):
                    value_iteration(scaled)


def sequential_products(stacked, rows, v):
    """Each row's 0.0 + share * value + ... in column order, in Python
    floats."""
    products = []
    for r in rows:
        total = 0.0
        for j in range(stacked.indptr[r], stacked.indptr[r + 1]):
            total += float(stacked.data[j]) * float(v[stacked.indices[j]])
        products.append(total)
    return products


@st.composite
def stacked_with_values(draw):
    """Stacked rows of 1-12 increasing columns over n states and A actions,
    values of both signs and one policy's action per state."""
    n, actions = draw(st.integers(1, 16)), draw(st.integers(1, 3))
    columns = [sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                                   max_size=min(12, n))))
               for _ in range(actions * n)]
    size = sum(map(len, columns))
    shares = draw(st.lists(st.floats(0, 1), min_size=size, max_size=size))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    policy = draw(st.lists(st.integers(0, actions - 1), min_size=n,
                           max_size=n))
    stacked = StackedRows(np.cumsum([0] + list(map(len, columns))),
                          np.array(sum(columns, []), dtype=int),
                          np.array(shares))
    return stacked, np.array(values), np.array(policy) * n + np.arange(n)


class TestRowProduct:
    @settings(max_examples=100, deadline=None)
    @given(stacked_with_values())
    def test_every_row_is_the_sequential_sum(self, drawn):
        """The solver's product of all rows, and of one greedy policy's
        rows, keep the bits of each row's sum in column order; rows of 8 or
        more entries are where a pairwise or blocked sum differs."""
        stacked, v, policy_rows = drawn
        got = RowProduct(stacked)(v).tolist()
        want = sequential_products(stacked, range(len(stacked.indptr) - 1), v)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        got = RowProduct(stacked, policy_rows)(v).tolist()
        want = sequential_products(stacked, policy_rows.tolist(), v)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_padding_keeps_signed_zeros(self):
        """Rows of 1 and 9 entries in one product, over negative values, so
        the short rows' eight padded terms are 0.0 * v = -0.0. Row 0's one
        term is -0.0 too, and its sum stays the +0.0 it starts from; a sum
        that started from its first term would be -0.0."""
        v = -np.arange(1.0, 11.0)
        stacked = StackedRows(np.array([0, 1, 10, 11]),
                              np.array([0] + list(range(1, 10)) + [4]),
                              np.array([0.0] + [1 / 9] * 9 + [0.5]))
        want = sequential_products(stacked, range(3), v)
        assert [x.hex() for x in want[::2]] == [(0.0).hex(), (-2.5).hex()]
        got = RowProduct(stacked)(v).tolist()
        assert [x.hex() for x in got] == [x.hex() for x in want]
        got = RowProduct(stacked, np.array([2, 1, 0]))(v).tolist()
        assert [x.hex() for x in got] == [x.hex() for x in want[::-1]]


def test_the_pipeline_imports_no_scipy():
    """Deriving, solving and acting on the worked example import numpy
    alone."""
    src = os.path.dirname(os.path.dirname(adac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (
        "import sys\n"
        "import adac\n"
        "mdp = adac.worked_example_mdp()\n"
        "solution = adac.value_iteration(mdp)\n"
        "index = adac.build_index(adac.worked_example_batch())\n"
        "print([adac.greedy_action(mdp, solution, index, s)\n"
        "       for s in mdp.core])\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.partition('.')[0] == 'scipy'))\n")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    actions, modules = run.stdout.splitlines()
    mdp = adac.worked_example_mdp()
    solution = value_iteration(mdp)
    index = build_index(adac.worked_example_batch())
    assert json.loads(actions) == [greedy_action(mdp, solution, index, s)
                                   for s in mdp.core]
    assert modules == "[]"


class TestLookup:
    def solved(self, table1, mode, tol=1e-9):
        index = build_index(table1)
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99, mode=mode,
                        index=index)
        return mdp, value_iteration(mdp, tol=tol), index

    def test_core_state_consistency(self, table1):
        # the lookup recombines R and gamma * P @ V from the final values,
        # so agreement at 1e-12 needs the solve driven a sweep tighter
        mdp, sol, index = self.solved(table1, PenaltyMode.adaptive(),
                                      tol=1e-11)
        for si, s in enumerate(mdp.core):
            for a in range(mdp.action_count):
                got = lookup_q(mdp, sol, index, s)[a]
                assert got == pytest.approx(sol.q[si, a], abs=1e-12)

    @pytest.mark.parametrize("seed", [44, 45, 46])
    @pytest.mark.parametrize("mode, k, alpha", [
        (PenaltyMode.averagers(), 5, math.inf),
        (PenaltyMode.fixed(1.5), 5, 0.3),
        (PenaltyMode.adaptive(), 5, 0.15),
        # numpy's pairwise sum reorders at 8 or more terms
        (PenaltyMode.adaptive(), 12, math.inf)])
    @pytest.mark.parametrize("norm", ["euclidean", "manhattan"])
    def test_lookup_equals_the_per_action_formula(self, seed, mode, k, alpha,
                                                  norm):
        rng = np.random.default_rng(seed)
        drawn = random_batch(rng, n=90, dim=3, actions=3, reward_min=-2.0)
        # action 3 has no sources
        batch = make_batch(drawn.transitions, 4, drawn.reward_bound)
        index = build_index(batch, norm)
        mdp = build_mdp(batch, k=k, alpha=alpha, gamma=0.9, mode=mode,
                        index=index)
        sol = value_iteration(mdp, tol=1e-9)
        off_data = [tuple(map(float, x)) for x in rng.integers(0, 12, (40, 3))]
        empty = 0
        for s in list(mdp.core) + off_data:
            table = index.search([s], mdp.k, mdp.alpha)
            want = [scalar_lookup_q(mdp, sol, index, table, a)
                    for a in range(4)]
            got = lookup_q(mdp, sol, index, s)
            assert got.tolist() == want         # bit for bit
            assert greedy_action(mdp, sol, index, s) == want.index(max(want))
            empty += 0 not in table[0]
        assert empty > 0 or alpha == math.inf

    def test_empty_pair_looks_up_the_floor_not_the_table(self, table1):
        index = build_index(table1)
        mdp = build_mdp(table1, k=3, alpha=0.2, gamma=0.9,
                        mode=PenaltyMode.adaptive(), index=index)
        sol = value_iteration(mdp, tol=1e-9)
        assert (1, 0) in mdp.empty_pairs
        assert lookup_q(mdp, sol, index, mdp.core[1])[0] == 0.0
        assert sol.q[1, 0] == pytest.approx(0.9 * sol.values[1], abs=1e-9)
        assert sol.q[1, 0] == pytest.approx(25.4365, abs=1e-4)

    @pytest.mark.parametrize("seed", [41, 42, 43])
    @pytest.mark.parametrize("mode", [PenaltyMode.averagers(),
                                      PenaltyMode.fixed(1.5),
                                      PenaltyMode.adaptive()])
    def test_zero_values_look_up_the_mdp_reward(self, seed, mode):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, n=80, actions=3)
        index = build_index(batch)
        mdp = build_mdp(batch, k=6, alpha=0.15, gamma=0.9, mode=mode,
                        index=index)
        sol = value_iteration(mdp, tol=1e-9)
        sol = dataclasses.replace(sol, q=np.zeros_like(sol.q))
        empty = set(mdp.empty_pairs)
        assert empty and len(empty) < mdp.num_states() * mdp.action_count
        for si, s in enumerate(mdp.core):
            for a in range(mdp.action_count):
                if (si, a) not in empty:
                    assert lookup_q(mdp, sol, index, s)[a] == mdp.reward[si, a]

    @pytest.mark.parametrize("alpha, gamma", [(math.inf, 0.99), (0.2, 0.9)])
    @pytest.mark.parametrize("mode", [PenaltyMode.averagers(),
                                      PenaltyMode.fixed(1.0),
                                      PenaltyMode.adaptive()])
    def test_greedy_action_follows_the_policy_on_core_states(
            self, table1, alpha, gamma, mode):
        index = build_index(table1)
        mdp = build_mdp(table1, k=3, alpha=alpha, gamma=gamma, mode=mode,
                        index=index)
        sol = value_iteration(mdp, tol=1e-9)
        assert [greedy_action(mdp, sol, index, s) for s in mdp.core] == (
            sol.policy.tolist())

    def test_new_state_prefers_ew_under_adaptive(self, table1):
        mdp, sol, index = self.solved(table1, PenaltyMode.adaptive())
        assert greedy_action(mdp, sol, index, (1.0, 4.0)) == 1

    def test_new_state_prefers_ns_under_averagers(self, table1):
        mdp, sol, index = self.solved(table1, PenaltyMode.averagers())
        assert greedy_action(mdp, sol, index, (1.0, 4.0)) == 0

    def test_mirror_state_prefers_ns(self, table1):
        mdp, sol, index = self.solved(table1, PenaltyMode.adaptive())
        assert greedy_action(mdp, sol, index, (4.0, 1.0)) == 0

    def test_lookup_against_hand_recomputation(self, table1):
        """Q((1,4), a) from first principles, no library derivation code."""
        mdp, sol, index = self.solved(table1, PenaltyMode.adaptive())
        diam = math.sqrt(52)
        core_pos = {s: i for i, s in enumerate(mdp.core)}
        for a in (0, 1):
            rows = [(i, tr) for i, tr in enumerate(table1.transitions)
                    if tr.a == a]
            dists = sorted((math.dist(tr.s, (1.0, 4.0)), i, tr)
                           for i, tr in rows)[:3]
            r_max = max(tr.r for _, _, tr in dists)
            reward = sum(tr.r - r_max * d / diam for d, _, tr in dists) / 3
            cont = sum(sol.values[core_pos[tr.s_next]]
                       for _, _, tr in dists) / 3
            expected = reward + 0.99 * cont
            got = lookup_q(mdp, sol, index, (1.0, 4.0))[a]
            assert got == pytest.approx(expected, abs=1e-9)

    def test_tiny_alpha_returns_zero(self, table1):
        mdp, sol, index = self.solved(table1, PenaltyMode.adaptive())
        mdp = dataclasses.replace(mdp, alpha=1e-6)
        assert lookup_q(mdp, sol, index, (100.0, 100.0))[0] == 0.0

    def test_no_data_defaults_to_action_zero(self, table1):
        mdp, sol, index = self.solved(table1, PenaltyMode.adaptive())
        mdp = dataclasses.replace(mdp, alpha=1e-6)
        assert greedy_action(mdp, sol, index, (100.0, 100.0)) == 0


_numbers = st.integers(-2, 2) | st.floats(-2, 2)


@st.composite
def _solution_docs(draw):
    """A document a solve could write, up to three of whose fields are then
    replaced by arbitrary JSON or by numbers and arrays of numbers, or
    joined by an older file's 'values' or 'policy'."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = draw(st.lists(st.lists(_numbers, min_size=m, max_size=m),
                      min_size=n, max_size=n))
    doc = {"q": q, "iterations": draw(st.integers(0, 10)),
           "residual": draw(_numbers), "tol": draw(_numbers)}
    fields = st.one_of(json_values, _numbers, st.lists(_numbers, max_size=3),
                       st.lists(st.lists(_numbers, max_size=3), max_size=3))
    keys = st.sampled_from(sorted(doc) + ["policy", "values"])
    for key in draw(st.lists(keys, max_size=3)):
        doc[key] = draw(fields)
    return doc


class TestSolutionSerialization:
    def test_round_trip(self, table1):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        sol = value_iteration(mdp, tol=1e-9)
        text = solution_to_json(sol)
        assert sorted(json.loads(text)) == ["iterations", "q", "residual",
                                            "tol"]
        back = solution_from_json(text)
        assert np.array_equal(back.values, sol.values)
        assert np.array_equal(back.q, sol.q)
        assert np.array_equal(back.policy, sol.policy)
        assert back.iterations == sol.iterations
        assert back.residual == sol.residual

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("q"), "no 'q'"),
        (lambda d: d.update(q="1.0"), "'q' is not a finite 2-D"),
        (lambda d: d["q"][0].__setitem__(0, math.nan),
         "'q' is not a finite 2-D array of numbers"),
        (lambda d: d["q"][1].__setitem__(0, math.inf), "'q'"),
        (lambda d: d.update(q=[[]]), "'q' has no action columns"),
        (lambda d: d.update(iterations="12"), "iterations"),
        (lambda d: d.update(residual=None), "residual"),
        # json reads true and false as bools, which pass for 1 and 0
        (lambda d: d.update(q=[[1.0, 0.5], [2.0, True]]), "boolean in 'q'"),
        # a file that still stores q's row maxima or argmaxes is older
        (lambda d: d.update(values=[max(row) for row in d["q"]]),
         "'values' and 'policy': solve the MDP again"),
        (lambda d: d.update(policy=[row.index(max(row)) for row in d["q"]]),
         "'policy': solve the MDP again"),
        (lambda d: d.update(values=[max(row) for row in d["q"]],
                            policy=[row.index(max(row)) for row in d["q"]]),
         "an older solution file, holding 'values' and 'policy'"),
    ])
    def test_load_rejects_a_malformed_solution(self, table1, edit, message):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        doc = json.loads(solution_to_json(value_iteration(mdp, tol=1e-9)))
        edit(doc)
        with pytest.raises(ValueError, match=message):
            solution_from_json(json.dumps(doc))

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(tol=-1, residual=-5), "residual"),
        (lambda d: d.update(residual=-1e-300), "residual"),
        (lambda d: d.update(tol=0.0), "tol"),
        (lambda d: d.update(tol=-1e-9), "tol"),
        (lambda d: d.update(tol=math.inf), "tol"),
    ])
    def test_load_rejects_what_no_solve_writes(self, table1, edit, message):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        doc = json.loads(solution_to_json(value_iteration(mdp, tol=1e-9)))
        edit(doc)
        with pytest.raises(ValueError, match=message):
            solution_from_json(json.dumps(doc))

    @pytest.mark.parametrize("edit, message", [
        (lambda q: {"q": np.where(q == q[0, 0], math.nan, q)},
         "'q' is not a finite 2-D array of numbers"),
        (lambda q: {"q": q[:, 0]}, "'q' is not a finite 2-D array"),
        (lambda q: {"q": q > 0}, "'q' is not a finite 2-D array"),
        (lambda q: {"q": q[:, :0]}, "'q' has no action columns"),
        (lambda q: {"tol": 0.0}, "tol 0.0 is not a finite positive number"),
        (lambda q: {"iterations": -1}, "iterations -1 is not an integer"),
        (lambda q: {"residual": math.inf}, "residual inf is not a finite"),
    ])
    def test_construction_rejects_what_no_solve_returns(self, table1, edit,
                                                        message):
        # the reader's rules hold for a solution built or replaced in memory
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        sol = value_iteration(mdp, tol=1e-9)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(sol, **edit(sol.q))

    def test_values_and_policy_are_derived_from_q(self):
        doc = {"q": [[1, 1], [2.5, 3], [-1, -2]], "iterations": 0,
               "residual": 0, "tol": 1}
        sol = solution_from_json(json.dumps(doc))
        assert sol.values.tolist() == [1.0, 3.0, -1.0]
        assert sol.policy.tolist() == [0, 1, 0]     # ties to the lowest
        zeros = dataclasses.replace(sol, q=np.zeros((2, 3)))
        assert zeros.values.tolist() == [0.0, 0.0]
        assert zeros.policy.tolist() == [0, 0]

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(
        st.text(max_size=40),
        json_values.map(json.dumps),
        _solution_docs().map(json.dumps)))
    @example(text=DEEP_JSON)
    def test_load_of_arbitrary_json_raises_only_value_error(self, text):
        try:
            sol = solution_from_json(text)
        except ValueError:
            return
        assert np.array_equal(sol.values, sol.q.max(axis=1))
        assert np.array_equal(sol.policy, sol.q.argmax(axis=1))
        assert sol.residual >= 0 and sol.tol > 0
