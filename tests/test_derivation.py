import copy
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adac.dataset import Transition, make_batch
from adac import neighbors
from adac.derivation import PenaltyMode, build_mdp, mdp_from_json, mdp_to_json
from adac.evaluation import worked_example_batch, worked_example_mdp
from adac.neighbors import NORMS, build_index
from adac.planner import solution_from_json, solution_to_json, value_iteration

from conftest import (DEEP_JSON, brute_force_knn, brute_force_mdp,
                      brute_force_value_iteration, euclid, json_values,
                      manhattan, mdp_rows, random_batch, scale_batch)

SQRT52 = math.sqrt(52)


def derive(batch, mode, k=3, alpha=math.inf, gamma=0.99, index=None):
    return build_mdp(batch, k=k, alpha=alpha, gamma=gamma, mode=mode,
                     index=index)


class TestShapedReward:
    """Hand-verified cells of the worked example's derived reward table."""

    def cell(self, table1, s, a, mode, alpha=math.inf):
        mdp = derive(table1, mode, k=3, alpha=alpha)
        return mdp.reward[mdp.core.index(s), a]

    def test_averagers_is_plain_mean(self, table1):
        value = self.cell(table1, (2.0, 3.0), 0, PenaltyMode.averagers())
        assert value == pytest.approx((4 + 2 + 2) / 3, abs=1e-12)

    def test_fixed_cost_cell(self, table1):
        value = self.cell(table1, (6.0, 1.0), 0, PenaltyMode.fixed(1.0))
        # mean r minus mean normalized distance to {(3,3),(6,1),(2,3)}
        expected = 8 / 3 - (math.sqrt(13) + 0 + math.sqrt(20)) / 3 / SQRT52
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(2.29, abs=0.005)

    def test_adaptive_cell(self, table1):
        value = self.cell(table1, (6.0, 1.0), 0, PenaltyMode.adaptive())
        expected = 8 / 3 - 4 * (math.sqrt(13) + 0 + math.sqrt(20)) / 3 / SQRT52
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(1.17, abs=0.005)

    def test_adaptive_cell_with_documented_slip(self, table1):
        # recomputes to 1.655, not the reference table's printed 1.58
        value = self.cell(table1, (2.0, 3.0), 0, PenaltyMode.adaptive())
        expected = 8 / 3 - 4 * ((1 + 0 + math.sqrt(20)) / (3 * SQRT52))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(1.655, abs=0.001)
        assert abs(value - 1.58) > 0.01

    def test_divisor_is_realized_count(self, table1):
        # alpha 0.2 keeps 2 of the 3 neighbors, sources 5 and 1
        mdp = derive(table1, PenaltyMode.averagers(), k=3, alpha=0.2)
        si = mdp.core.index((2.0, 3.0))
        assert mdp.transition[si][0] == {mdp.core.index((0.0, 5.0)): 0.5,
                                         mdp.core.index((1.0, 5.0)): 0.5}
        assert mdp.reward[si, 0] == pytest.approx(2.0, abs=1e-12)


class TestEmpiricalTransition:
    def test_worked_example_row(self, table1):
        mdp = derive(table1, PenaltyMode.adaptive(), k=3)
        assert mdp.core == ((3.0, 3.0), (1.0, 5.0), (2.0, 3.0), (6.0, 1.0),
                            (0.0, 5.0))
        row = mdp.transition[2][0]      # (2, 3) under NS
        assert row == {1: pytest.approx(1 / 3), 2: pytest.approx(1 / 3),
                       4: pytest.approx(1 / 3)}

    def test_single_entry(self, table1):
        # (6, 1)'s nearest NS source is itself, which lands on (2, 3)
        mdp = derive(table1, PenaltyMode.adaptive(), k=1)
        assert mdp.transition[mdp.core.index((6.0, 1.0))][0] == {
            mdp.core.index((2.0, 3.0)): 1.0}

    def test_duplicate_counted_twice(self):
        rows = [Transition((0.0, 0.0), 0, 1.0, (1.0, 1.0), 0, 0),
                Transition((0.0, 0.0), 0, 1.0, (1.0, 1.0), 0, 1),
                Transition((5.0, 5.0), 0, 1.0, (2.0, 2.0), 0, 2)]
        batch = make_batch(rows)
        mdp = derive(batch, PenaltyMode.averagers(), k=3)
        pos = {s: i for i, s in enumerate(mdp.core)}
        row = mdp.transition[pos[(1.0, 1.0)]][0]
        assert row[pos[(1.0, 1.0)]] == pytest.approx(2 / 3, abs=1e-12)
        assert row[pos[(2.0, 2.0)]] == pytest.approx(1 / 3, abs=1e-12)


class TestBuildMdp:
    def test_worked_example_shape(self, table1):
        mdp = derive(table1, PenaltyMode.adaptive())
        assert mdp.num_states() == 5
        assert mdp.action_count == 2
        assert mdp.empty_pairs == ()
        assert mdp.diameter == pytest.approx(SQRT52, abs=1e-12)

    def test_adaptive_rewards_match_reference(self, table1):
        mdp = derive(table1, PenaltyMode.adaptive())
        reference = {  # ((2,3), NS) recomputes to 1.65, not the printed 1.58
            (2.0, 3.0): (1.65, 1.53), (6.0, 1.0): (1.17, 0.32),
            (3.0, 3.0): (1.82, 1.31), (1.0, 5.0): (0.55, 1.70),
            (0.0, 5.0): (0.14, 1.65)}
        pos = {s: i for i, s in enumerate(mdp.core)}
        for s, (r_ns, r_ew) in reference.items():
            assert mdp.reward[pos[s], 0] == pytest.approx(r_ns, abs=0.01)
            assert mdp.reward[pos[s], 1] == pytest.approx(r_ew, abs=0.01)

    def test_unseen_action_gets_pessimistic_fallback(self):
        rows = [Transition((float(i), 0.0), 0, 1.0, (float(i + 1), 0.0), 0, i)
                for i in range(4)]
        batch = make_batch(rows, action_count=2)
        mdp = derive(batch, PenaltyMode.adaptive())
        assert {(si, a) for si, a in mdp.empty_pairs} == {
            (si, 1) for si in range(mdp.num_states())}
        for si in range(mdp.num_states()):
            assert mdp.reward[si, 1] == 0.0
            assert mdp.transition[si][1] == {si: 1.0}

    def test_transition_targets_are_core_indices(self):
        rng = np.random.default_rng(31)
        batch = random_batch(rng, n=80, actions=3)
        mdp = derive(batch, PenaltyMode.adaptive(), k=4, alpha=0.7)
        n = mdp.num_states()
        for si in range(n):
            for a in range(mdp.action_count):
                for target, p in mdp.transition[si][a].items():
                    assert 0 <= target < n
                    assert p > 0

    def test_rows_sum_to_one_and_pessimism(self):
        rng = np.random.default_rng(32)
        batch = random_batch(rng, n=500, actions=2)
        index = build_index(batch)
        adaptive = derive(batch, PenaltyMode.adaptive(), k=5, index=index)
        averagers = derive(batch, PenaltyMode.averagers(), k=5, index=index)
        for si in range(adaptive.num_states()):
            for a in range(2):
                assert sum(adaptive.transition[si][a].values()) == pytest.approx(
                    1.0, abs=1e-12)
                assert adaptive.reward[si, a] <= averagers.reward[si, a] + 1e-12

    def test_rejects_an_index_over_another_batch(self):
        batch, other = (random_batch(np.random.default_rng(seed), n=40)
                        for seed in (34, 35))
        with pytest.raises(ValueError, match="another batch"):
            build_mdp(batch, k=3, index=build_index(other))

    def test_gamma_validation(self, table1):
        with pytest.raises(ValueError):
            derive(table1, PenaltyMode.adaptive(), gamma=1.0)
        with pytest.raises(ValueError):
            derive(table1, PenaltyMode.adaptive(), k=0)

    @pytest.mark.parametrize("alpha", [math.nan, -1.0, -math.inf, "0.5",
                                       True])
    def test_alpha_must_be_a_threshold(self, table1, alpha):
        # at NaN or below 0 every pair would be empty
        with pytest.raises(ValueError, match="alpha"):
            derive(table1, PenaltyMode.adaptive(), alpha=alpha)


class TestModeAlgebra:
    def test_fixed_zero_equals_averagers(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            batch = random_batch(rng, n=int(rng.integers(5, 60)))
            index = build_index(batch)
            a = derive(batch, PenaltyMode.fixed(0.0), index=index)
            b = derive(batch, PenaltyMode.averagers(), index=index)
            assert np.array_equal(a.reward, b.reward)
            assert mdp_rows(a) == mdp_rows(b)

    def test_fixed_monotone_in_c(self):
        rng = np.random.default_rng(34)
        batch = random_batch(rng, n=60)
        index = build_index(batch)
        grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        mdps = [derive(batch, PenaltyMode.fixed(c), index=index) for c in grid]
        for lo, hi in zip(mdps, mdps[1:]):
            assert np.all(hi.reward <= lo.reward + 1e-12)

    def test_equal_rewards_make_fixed_r_equal_adaptive(self):
        rng = np.random.default_rng(35)
        rows = []
        for t in range(40):
            s = tuple(float(c) for c in rng.integers(0, 6, size=2))
            sp = tuple(float(c) for c in rng.integers(0, 6, size=2))
            rows.append(Transition(s, int(rng.integers(0, 2)), 2.0, sp, 0, t))
        batch = make_batch(rows, reward_bound=2.0)
        index = build_index(batch)
        fixed = derive(batch, PenaltyMode.fixed(2.0), index=index)
        adaptive = derive(batch, PenaltyMode.adaptive(), index=index)
        assert np.array_equal(fixed.reward, adaptive.reward)

    def test_duplicate_saturation(self):
        # every neighbor an exact duplicate of the query pair
        rows = [Transition((2.0, 2.0), 0, 3.0, (2.0, 2.0), 0, t)
                for t in range(3)]
        rows.append(Transition((9.0, 9.0), 0, 1.0, (7.0, 7.0), 0, 3))
        batch = make_batch(rows)
        index = build_index(batch)
        for mode in (PenaltyMode.averagers(), PenaltyMode.fixed(5.0),
                     PenaltyMode.adaptive()):
            mdp = derive(batch, mode, index=index)
            pos = {s: i for i, s in enumerate(mdp.core)}
            assert mdp.reward[pos[(2.0, 2.0)], 0] == pytest.approx(3.0,
                                                                   abs=1e-12)


class TestScalingInvariance:
    def test_power_of_two_scale_bitwise(self):
        rng = np.random.default_rng(36)
        batch = random_batch(rng, n=50, integer_coords=False)
        mdp1 = derive(batch, PenaltyMode.adaptive(), k=4)
        mdp2 = derive(scale_batch(batch, 2.0), PenaltyMode.adaptive(), k=4)
        assert np.array_equal(mdp1.reward, mdp2.reward)
        assert mdp_rows(mdp1) == mdp_rows(mdp2)
        assert mdp1.empty_pairs == mdp2.empty_pairs

    def test_arbitrary_scale_close(self):
        rng = np.random.default_rng(37)
        batch = random_batch(rng, n=50, integer_coords=False)
        mdp1 = derive(batch, PenaltyMode.fixed(1.5), k=4, alpha=0.8)
        mdp2 = derive(scale_batch(batch, 3.7), PenaltyMode.fixed(1.5), k=4,
                      alpha=0.8)
        assert np.allclose(mdp1.reward, mdp2.reward, atol=1e-9)
        assert mdp_rows(mdp1) == mdp_rows(mdp2)


class TestOracleAgreement:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), integer_coords=st.booleans(),
           norm=st.sampled_from(NORMS),
           mode=st.sampled_from([PenaltyMode.averagers(), PenaltyMode.fixed(1.5),
                                 PenaltyMode.adaptive()]),
           k=st.integers(1, 12),
           alpha=st.one_of(st.just(math.inf), st.floats(0.0, 1.0),
                           st.builds(lambda p, q: min(p, q) / q,
                                     st.integers(0, 18), st.integers(1, 18))),
           # negative rewards make some rows' adaptive r_max negative
           reward_min=st.sampled_from([0.0, -5.0]))
    def test_matches_brute_force_derivation(self, seed, integer_coords, norm,
                                            mode, k, alpha, reward_min):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, n=int(rng.integers(2, 60)),
                             dim=int(rng.integers(1, 4)),
                             actions=int(rng.integers(1, 4)),
                             integer_coords=integer_coords,
                             reward_min=reward_min)
        with pytest.MonkeyPatch.context() as mp:
            # small blocks, so the neighbor rows of one call span several
            mp.setattr(neighbors, "BLOCK", 64)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                index = build_index(batch, norm)
            mdp = derive(batch, mode, k=k, alpha=alpha, index=index)
        core, reward, transition, empty = brute_force_mdp(
            batch, k, alpha, mode, diam=index.diameter,
            dist=euclid if norm == "euclidean" else manhattan)
        assert list(mdp.core) == core
        assert mdp.reward == pytest.approx(np.array(reward), abs=1e-12)
        assert mdp_rows(mdp) == transition
        assert mdp.empty_pairs == tuple(empty)

    def test_rewards_against_brute_force(self, table1):
        """Recompute every cell with an independent scan, no index code."""
        diam = SQRT52
        mdp = derive(table1, PenaltyMode.adaptive())
        pos = {s: i for i, s in enumerate(mdp.core)}
        for s in mdp.core:
            for a in (0, 1):
                nn = brute_force_knn(table1, s, a, 3, diam=diam)
                rewards = [table1.transitions[i].r for i, _, _ in nn]
                r_max = max(rewards)
                expected = sum(r - r_max * nd for (_, _, nd), r
                               in zip(nn, rewards)) / len(nn)
                assert mdp.reward[pos[s], a] == pytest.approx(expected,
                                                              abs=1e-12)


class TestTransitionView:
    def test_reads_are_dicts_of_python_numbers(self, table1):
        mdp = derive(table1, PenaltyMode.adaptive())
        assert len(mdp.transition) == mdp.num_states()
        # iteration stops at the IndexError past the last state or action
        assert len(list(mdp.transition)) == mdp.num_states()
        for per_state in mdp.transition:
            assert len(list(per_state)) == mdp.action_count
            for row in per_state:
                assert type(row) is dict and row
                assert all(type(j) is int and type(p) is float
                           for j, p in row.items())
        last = mdp.num_states() - 1
        assert mdp.transition[-1][-1] == mdp.transition[last][1]
        with pytest.raises(IndexError):
            mdp.transition[0][mdp.action_count]

    def test_a_written_row_is_solved_and_read_back(self):
        rng = np.random.default_rng(41)
        # alpha 0.3 leaves some pairs empty, with self-loops
        mdp = derive(random_batch(rng, n=40, actions=3), PenaltyMode.adaptive(),
                     alpha=0.3)
        n, keys = mdp.num_states(), ("indptr", "indices", "data")
        before = [getattr(mdp.stacked, key).copy() for key in keys]
        si, a = n // 2, 1
        edited = copy.deepcopy(mdp)
        # two landings, given out of order, where the row had some other
        # number of them
        row = {n - 1: 0.25, 0: 0.75}
        assert len(mdp.transition[si][a]) != 2
        edited.transition[si][a] = row
        assert list(edited.transition[si][a].items()) == [(0, 0.75),
                                                          (n - 1, 0.25)]
        for key, want in zip(keys, before):
            got = getattr(mdp.stacked, key)
            assert got.dtype == want.dtype and np.array_equal(got, want)

        def bits(m, s, b):
            return [(j, p.hex()) for j, p in m.transition[s][b].items()]
        for s in range(n):
            for b in range(mdp.action_count):
                if (s, b) != (si, a):
                    assert bits(edited, s, b) == bits(mdp, s, b)
        # the solver solves the edit, as the plain solver does over the view
        sol = value_iteration(edited, tol=1e-9)
        values, q, policy, iterations, _, _ = brute_force_value_iteration(
            edited, tol=1e-9)
        assert sol.values.tolist() == values
        assert sol.q.tolist() == q
        assert sol.policy.tolist() == policy
        assert sol.iterations == iterations
        assert sol.q.tolist() != value_iteration(mdp, tol=1e-9).q.tolist()
        text = mdp_to_json(edited)
        back = mdp_from_json(text)
        assert mdp_rows(back) == mdp_rows(edited)
        assert mdp_rows(back) != mdp_rows(mdp)
        assert mdp_to_json(back) == text

    def test_a_row_must_land_on_core_states(self, table1):
        mdp = derive(table1, PenaltyMode.adaptive())
        n = mdp.num_states()
        for row in ({n: 1.0}, {-1: 1.0}, {0.0: 1.0}):
            with pytest.raises(ValueError, match="lands outside the"):
                mdp.transition[0][0] = row
        with pytest.raises(TypeError):
            mdp.transition[0] = [{0: 1.0}, {0: 1.0}]

    @pytest.mark.parametrize("row", [{0: 0.5}, {0: 2.0}, {0: math.nan},
                                     {0: -0.5, 1: 1.5}, {}])
    def test_a_written_row_must_be_a_distribution(self, row):
        # a row that does not sum to 1 would void the solver's stopping
        # rule, and so tol's bound on the value error
        mdp = worked_example_mdp()
        keys = ("indptr", "indices", "data")
        before = [getattr(mdp.stacked, key).copy() for key in keys]
        with pytest.raises(ValueError, match="not a distribution"):
            mdp.transition[0][0] = row
        for key, want in zip(keys, before):
            got = getattr(mdp.stacked, key)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        mdp.transition[0][0] = {3: 1.0}
        assert mdp.transition[0][0] == {3: 1.0}


class TestDerivedMdp:
    def test_equality_is_identity(self):
        mdp, other = worked_example_mdp(), worked_example_mdp()
        assert mdp == mdp
        assert not mdp == other
        assert mdp != other
        copied = copy.deepcopy(mdp)
        assert copied is not mdp and mdp_rows(copied) == mdp_rows(mdp)
        assert np.array_equal(copied.reward, mdp.reward)

    @pytest.mark.parametrize("edit, message", [
        # a landing column outside the core states, which the solver's
        # product would clip onto the last one
        ("indices", "not a distribution over the 5 core states"),
        # rows summing to 0.5 void the solver's stopping rule
        ("data", "not a distribution over the 5 core states"),
        ("reward", r"reward must have shape \(5, 2\), got shape \(5, 1\)"),
        ("action_count", "action_count 0 is not an integer >= 1"),
    ])
    def test_a_replaced_mdp_must_be_an_mdp(self, edit, message):
        # the reader's rules hold for an MDP built or replaced in memory
        mdp = worked_example_mdp()
        stacked = copy.deepcopy(mdp.stacked)
        changes = {"stacked": stacked}
        if edit == "indices":
            stacked.indices[0] = mdp.num_states()
        elif edit == "data":
            changes = {"stacked": dataclasses.replace(
                stacked, data=stacked.data * 0.5)}
        elif edit == "reward":
            changes = {"reward": mdp.reward[:, :1]}
        else:
            changes = {"action_count": 0}
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(mdp, **changes)


def _artifact(name):
    """One of the worked example's artifacts, built or read back."""
    batch = worked_example_batch()
    index = build_index(batch)
    mdp = build_mdp(batch, k=3, alpha=math.inf, index=index)
    solution = value_iteration(mdp)
    return {"batch": batch, "index": index, "mdp": mdp,
            "stacked": mdp.stacked, "solution": solution,
            "read mdp": mdp_from_json(mdp_to_json(mdp)),
            "read solution": solution_from_json(solution_to_json(solution)),
            }[name]


ARTIFACTS = ["batch", "index", "mdp", "stacked", "solution", "read mdp",
             "read solution"]


class TestArtifactsAreValues:
    @pytest.mark.parametrize("name", ARTIFACTS)
    def test_no_array_can_be_written(self, name):
        artifact = _artifact(name)
        arrays = [getattr(artifact, f.name)
                  for f in dataclasses.fields(artifact)
                  if isinstance(getattr(artifact, f.name), np.ndarray)]
        assert arrays
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = arr

    @pytest.mark.parametrize("name", ARTIFACTS)
    def test_no_field_can_be_assigned(self, name):
        artifact = _artifact(name)
        for f in dataclasses.fields(artifact):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(artifact, f.name, getattr(artifact, f.name))

    def test_an_mdp_cannot_be_edited_into_a_non_mdp(self):
        # unchecked, the first would solve rows summing to 0.5, and the
        # second would fail only as an overflow of the values
        mdp = worked_example_mdp()
        with pytest.raises(ValueError, match="read-only"):
            mdp.stacked.data *= 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            mdp.gamma = 1.5
        assert (value_iteration(mdp).q.tobytes()
                == value_iteration(worked_example_mdp()).q.tobytes())

    @pytest.mark.parametrize("changes, message", [
        # a state of three coordinates among states of two
        (lambda m: {"core": m.core[:-1] + ((1.0, 2.0, 3.0),)},
         "'core' is not a finite 2-D array of numbers"),
        (lambda m: {"core": m.core[:-1] + ((True, 2.0),)},
         "a boolean in 'core'"),
        (lambda m: {"core": (("1", "2"),) + m.core[1:]},
         "'core' is not a finite 2-D array of numbers"),
        (lambda m: {"empty_pairs": ((0.0, 1.0),)},
         "'empty_pairs' is not a finite 2-D array of integers"),
        (lambda m: {"empty_pairs": ((0, False),)},
         "a boolean in 'empty_pairs'"),
    ], ids=["ragged core", "boolean in core", "string core", "float pairs",
            "boolean in pairs"])
    def test_a_replaced_mdp_keeps_the_readers_rules(self, changes, message):
        mdp = worked_example_mdp()
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(mdp, **changes(mdp))

    def test_lists_are_kept_as_tuples(self):
        # a list would stay mutable inside a frozen MDP
        mdp = worked_example_mdp()
        listed = dataclasses.replace(mdp, core=[list(s) for s in mdp.core],
                                     empty_pairs=[[0, 1]])
        assert listed.core == mdp.core
        assert listed.empty_pairs == ((0, 1),)

    @pytest.mark.parametrize("field", ["core", "empty_pairs"])
    def test_a_file_with_flat_states_or_pairs_names_the_field(self, field):
        doc = json.loads(mdp_to_json(worked_example_mdp()))
        doc[field] = [1, 2]
        with pytest.raises(ValueError, match=f"'{field}' is not a finite 2-D"):
            mdp_from_json(json.dumps(doc))

    @pytest.mark.parametrize("reward", [
        np.full((5, 2), np.nan), np.full((5, 2), np.inf),
        np.zeros((5, 2), dtype=int), [[0.0] * 2] * 5])
    def test_a_reward_that_is_not_finite_floats_is_rejected(self, reward):
        # a NaN reward would fail the solve only as an overflow
        with pytest.raises(ValueError, match="'reward' is not a finite 2-D "
                                             "array of numbers"):
            dataclasses.replace(worked_example_mdp(), reward=reward)

    @pytest.mark.parametrize("field", ["indices", "indptr"])
    def test_transition_indices_that_are_not_integers_are_rejected(self,
                                                                   field):
        # a float column of 1.5 lies in [0, n) and keeps its row's order,
        # and the solver's product would truncate it to 1
        mdp = worked_example_mdp()
        floats = getattr(mdp.stacked, field).astype(float)
        floats[0 if field == "indices" else 1] += 0.5
        stacked = dataclasses.replace(mdp.stacked, **{field: floats})
        with pytest.raises(ValueError, match="'transition' is not a finite "
                                             "1-D array of integers"):
            dataclasses.replace(mdp, stacked=stacked)

    def test_a_row_written_into_a_deep_copy(self):
        """The one in-place edit, as the bench's perturbation check makes
        it: a deep copy of a solved MDP, one row moved onto the core state
        whose value is farthest from that of its successors, solved
        again."""
        mdp = worked_example_mdp()
        solution = value_iteration(mdp)
        si, a = 2, 1
        row = mdp.transition[si][a]
        mean_v = sum(p * solution.values[j] for j, p in row.items())
        target = int(np.argmax(np.abs(solution.values - mean_v)))
        assert row != {target: 1.0}
        edited = copy.deepcopy(mdp)
        edited.transition[si][a] = {target: 1.0}
        assert edited.transition[si][a] == {target: 1.0}
        assert mdp.transition[si][a] == row
        resolved = value_iteration(edited)
        assert resolved.q[si, a] == pytest.approx(
            mdp.reward[si, a] + mdp.gamma * resolved.values[target],
            abs=1e-8)
        assert resolved.q[si, a] != pytest.approx(solution.q[si, a])
        # the written matrix is a checked, read-only one, and a bad row
        # leaves it as it was
        with pytest.raises(ValueError, match="read-only"):
            edited.stacked.data[0] = 1.0
        with pytest.raises(ValueError, match="not a distribution"):
            edited.transition[si][a] = {target: 0.5}
        assert edited.transition[si][a] == {target: 1.0}


_MDP_DOC = mdp_to_json(worked_example_mdp())


@st.composite
def _mdp_docs(draw):
    """The worked example's MDP document, up to three entries of whose
    transition arrays and then up to three of whose fields are replaced by
    arbitrary JSON or by small numbers and lists of them."""
    doc = json.loads(_MDP_DOC)
    values = st.one_of(json_values, st.integers(-1, 5), st.floats(-2, 2),
                       st.lists(st.integers(-1, 5), max_size=3))
    stacked = doc["transition"]
    for key in draw(st.lists(st.sampled_from(sorted(stacked)), max_size=3)):
        column = stacked[key]
        column[draw(st.integers(0, len(column) - 1))] = draw(values)
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=3)):
        doc[key] = draw(values)
    return doc


def _set_row(stacked, r, indices, data):
    """Replace row r of an MDP document's stacked transition arrays."""
    lo, hi = stacked["indptr"][r], stacked["indptr"][r + 1]
    stacked["indices"][lo:hi] = indices
    stacked["data"][lo:hi] = data
    stacked["indptr"][r + 1:] = [p + len(indices) - (hi - lo)
                                 for p in stacked["indptr"][r + 1:]]


class TestSerialization:
    def test_round_trip(self, table1):
        mdp = derive(table1, PenaltyMode.adaptive())
        back = mdp_from_json(mdp_to_json(mdp))
        assert back.core == mdp.core
        assert np.array_equal(back.reward, mdp.reward)
        assert mdp_rows(back) == mdp_rows(mdp)
        assert back.alpha == mdp.alpha and math.isinf(back.alpha)
        assert back.mode == mdp.mode
        assert back.diameter == mdp.diameter

    @pytest.mark.parametrize("alpha", [math.nan, -math.inf])
    def test_only_positive_infinity_is_written_as_inf(self, table1, alpha):
        # no MDP holds any other infinite alpha, and no file reads as one
        mdp = derive(table1, PenaltyMode.adaptive())
        with pytest.raises(ValueError, match="alpha"):
            dataclasses.replace(mdp, alpha=alpha)
        doc = json.loads(mdp_to_json(mdp))
        doc["alpha"] = alpha
        with pytest.raises(ValueError, match="alpha"):
            mdp_from_json(json.dumps(doc))

    def test_finite_alpha_round_trip(self, table1):
        mdp = derive(table1, PenaltyMode.fixed(2.0), alpha=0.5)
        back = mdp_from_json(mdp_to_json(mdp))
        assert back.alpha == 0.5
        assert back.mode.c == 2.0

    @pytest.mark.parametrize("field, value, message", [
        ("gamma", 1.5, "gamma"),
        ("gamma", -0.1, "gamma"),
        ("reward", [[1.0, 2.0]], "shape"),
        ("k", 0, "k 0"),
        ("k", 2.5, "k 2.5"),
        ("k", True, "k True"),
        ("action_count", 2.0, "action_count 2.0"),
        ("action_count", True, "action_count True"),
        ("alpha", math.nan, "alpha"),
        ("alpha", -1.0, "alpha"),
        ("alpha", "-inf", "alpha"),
        ("norm", "chebyshev", "norm"),
        ("transition", "empty row", "not a distribution"),
        ("transition", "index out of range", "not a distribution"),
        ("transition", "half a row", "not a distribution"),
        ("penalty", None, "malformed"),
        # json reads true and false as bools, which pass for 1 and 0
        ("reward", "true", "boolean in 'reward'"),
        ("transition", "true index", "boolean in 'transition'"),
        ("core", "true", "boolean in 'core'"),
        ("empty_pairs", [[0, False]], "boolean in 'empty_pairs'"),
        ("gamma", False, "gamma False"),
        ("gamma", True, "gamma True"),
        ("diameter", True, "diameter True"),
        ("diameter", -3.0, "diameter -3.0"),
        ("diameter", 0.0, "diameter 0.0"),
        ("alpha", True, "alpha True"),
        ("penalty", {"kind": "fixed", "c": True}, "penalty cost True"),
        # an integer part of each would read as a valid MDP
        ("transition", "index 1.5",
         "'transition' is not a finite 1-D array of integers"),
        ("empty_pairs", [[0.7, 1.2]],
         "'empty_pairs' is not a finite 2-D array of integers"),
        ("transition", "repeated index", "names a core state twice"),
        # numbers are JSON numbers, never strings
        ("core", "string", "'core' is not a finite 2-D array of numbers"),
        ("reward", "string", "'reward' is not a finite 2-D array of numbers"),
        ("transition", "string index", "'transition' is not a finite 1-D"),
        ("transition", "string share", "'transition' is not a finite 1-D"),
        ("alpha", "0.5", "alpha '0.5'"),
        ("core", "ragged", "'core' is not a finite 2-D array"),
        ("empty_pairs", [[99, 7]], r"empty_pairs \[\(99, 7\)\] are not"),
        ("core", "deep", "malformed MDP JSON: maximum recursion depth"),
        # the stacked arrays: each row a distribution with increasing
        # indices, and indptr n * actions + 1 offsets rising from 0 to the
        # entries
        ("transition", "negative share", "not a distribution"),
        ("transition", "false offset", "boolean in 'transition'"),
        ("transition", "row out of order", "out of order"),
        ("transition", "indptr too long", "'transition' indptr is not 11"),
        ("transition", "indptr from 1", "'transition' indptr is not 11"),
        ("transition", "indptr short of the end",
         "'transition' indptr is not 11"),
        ("transition", "indptr falls", "'transition' indptr is not 11"),
        ("transition", "share missing", "'transition' indptr is not 11"),
        ("transition", "nested rows",
         "older MDP file: derive the MDP again from its batch"),
    ])
    def test_load_rejects_a_malformed_mdp(self, table1, field, value, message):
        mdp = derive(table1, PenaltyMode.adaptive())
        doc = json.loads(mdp_to_json(mdp))
        stacked = doc["transition"]
        indptr, indices, data = (stacked[key] for key in ("indptr", "indices",
                                                          "data"))
        if value == "empty row":
            _set_row(stacked, 0, [], [])
        elif value == "index out of range":
            indices[0] = len(doc["core"])
        elif value == "half a row":
            data[:indptr[1]] = [p / 2 for p in data[:indptr[1]]]
        elif value == "negative share":
            _set_row(stacked, 0, [0, 1], [-0.5, 1.5])
        elif value == "true index":
            # True reads as core state 1, so the row still reads as a
            # distribution
            _set_row(stacked, 0, [True], [1.0])
        elif value == "false offset":
            indptr[0] = False
        elif value == "true":
            doc[field][0][0] = True
        elif value == "index 1.5":
            indices[0] += 0.5
        elif value == "repeated index":
            _set_row(stacked, 0, [0, 0], [0.5, 0.5])
        elif value == "row out of order":
            _set_row(stacked, 0, [1, 0], [0.5, 0.5])
        elif value == "indptr too long":
            indptr.append(indptr[-1])
        elif value == "indptr from 1":
            indptr[0] = 1
        elif value == "indptr short of the end":
            indptr[-1] -= 1
        elif value == "indptr falls":
            indptr[1] = indptr[2] + 1
        elif value == "share missing":
            data.pop()
        elif value == "nested rows":
            doc["transition"] = [[sorted(row.items()) for row in per_state]
                                 for per_state in mdp.transition]
        elif value == "string":
            doc[field][0][0] = str(doc[field][0][0])
        elif value == "string index":
            indices[0] = str(indices[0])
        elif value == "string share":
            data[0] = str(data[0])
        elif value == "ragged":
            doc["core"][0] = doc["core"][0][:1]
        elif value != "deep":
            doc[field] = value
        with pytest.raises(ValueError, match=message):
            mdp_from_json(DEEP_JSON if value == "deep" else json.dumps(doc))

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(
        st.text(max_size=40),
        json_values.map(json.dumps),
        _mdp_docs().map(json.dumps)))
    @example(text=DEEP_JSON)
    def test_load_of_arbitrary_json_raises_only_value_error(self, text):
        try:
            mdp = mdp_from_json(text)
        except ValueError:
            return
        n = mdp.num_states()
        assert mdp.reward.shape == (n, mdp.action_count)
        assert len(mdp.transition) == n
        for per_state in mdp.transition:
            assert len(per_state) == mdp.action_count
            for row in per_state:
                assert all(type(j) is int and 0 <= j < n for j in row)
                assert math.fsum(row.values()) == pytest.approx(1.0)

    def test_penalty_parse(self):
        assert PenaltyMode.parse("none") == PenaltyMode.averagers()
        assert PenaltyMode.parse("fixed:2.5") == PenaltyMode.fixed(2.5)
        assert PenaltyMode.parse("adaptive") == PenaltyMode.adaptive()
        with pytest.raises(ValueError):
            PenaltyMode.parse("bogus")
        with pytest.raises(ValueError):
            PenaltyMode.fixed(-1.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_penalty_rejects_a_non_finite_cost(self, c):
        with pytest.raises(ValueError, match="finite"):
            PenaltyMode.fixed(c)
        with pytest.raises(ValueError, match="finite"):
            PenaltyMode.parse(f"fixed:{c}")
