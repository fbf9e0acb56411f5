import math

import numpy as np
import pytest

from adac import evaluation
from adac.derivation import PenaltyMode, build_mdp
from adac.evaluation import (evaluate, reconstruction_batch, reproduce_table2,
                             sweep_c, sweep_k, two_flow_demo,
                             worked_example_batch, worked_example_mdp)
from adac.neighbors import NeighborIndex, build_index
from adac.planner import value_iteration
from adac.policies import (CyclicPolicy, FixedCyclePolicy, GreedyDerivedPolicy,
                           collect)
from adac.traffic import EnvState, IntersectionEnvConfig, two_flow_config


class TestEvaluate:
    def test_cyclic_two_flow(self):
        report = evaluate(two_flow_config(), CyclicPolicy(2), 1, 100,
                          start=EnvState((1, 3)))
        assert report.mean_return == 300.0
        assert report.min_return == report.max_return == 300.0

    def test_zero_rate_env(self):
        config = IntersectionEnvConfig(
            flows=(("a", 0.0), ("b", 0.0)), phases=((0,), (1,)))
        report = evaluate(config, CyclicPolicy(2), 3, 50)
        assert report.mean_return == 0.0

    def test_deterministic_run_to_run_identical(self):
        a = evaluate(two_flow_config(), CyclicPolicy(2), 2, 60,
                     start=EnvState((1, 3)))
        b = evaluate(two_flow_config(), CyclicPolicy(2), 2, 60,
                     start=EnvState((1, 3)))
        assert a.episode_returns == b.episode_returns

    def test_min_mean_max_ordering(self):
        config = IntersectionEnvConfig(
            flows=(("a", 1.2), ("b", 0.6)), phases=((0,), (1,)),
            arrivals="poisson")
        report = evaluate(config, CyclicPolicy(2), 4, 80,
                          seeds=[1, 2, 3, 4])
        assert report.min_return <= report.mean_return <= report.max_return
        assert len(report.episode_returns) == 4

    def test_stochastic_needs_matching_seeds(self):
        config = IntersectionEnvConfig(
            flows=(("a", 1.0),), phases=((0,),), arrivals="poisson")
        with pytest.raises(ValueError):
            evaluate(config, CyclicPolicy(1), 3, 10, seeds=[1])

    def test_needs_an_episode(self):
        with pytest.raises(ValueError, match="episodes"):
            evaluate(two_flow_config(), CyclicPolicy(2), 0, 10)

    def test_schedule_advances_across_episodes(self):
        config = IntersectionEnvConfig(
            flows=(("a", 2.0),), phases=((0,),), capacity=10,
            schedule=((50, (2.0,)), (50, (4.0,))))
        report = evaluate(config, CyclicPolicy(1), 2, 50)
        assert report.episode_returns == [100.0, 200.0]


class TestReproduceTable2:
    def cells_by_mode(self):
        cells = reproduce_table2()
        by_mode = {}
        for cell in cells:
            by_mode.setdefault(cell.mode, []).append(cell)
        return by_mode

    def test_averagers_column_exact(self):
        for cell in self.cells_by_mode()["none"]:
            expected = 2.67 if cell.action == "NS" else 2.00
            assert round(cell.computed, 2) == expected
            assert cell.match

    def test_fixed_one_column_all_match(self):
        cells = self.cells_by_mode()["fixed:1"]
        assert len(cells) == 10
        assert all(cell.match for cell in cells)

    def test_adaptive_column_nine_of_ten(self):
        cells = self.cells_by_mode()["adaptive"]
        mismatches = [c for c in cells if not c.match]
        assert len(mismatches) == 1
        slip = mismatches[0]
        assert slip.state == (2.0, 3.0) and slip.action == "NS"
        assert slip.computed == pytest.approx(1.65, abs=0.01)
        assert slip.printed == 1.58

    def test_fixed_two_column_computed_only(self):
        cells = self.cells_by_mode()["fixed:2"]
        assert len(cells) == 10
        assert all(cell.printed is None and cell.match is None
                   for cell in cells)

    def test_pure_function(self):
        assert reproduce_table2() == reproduce_table2()


class TestSweeps:
    def make_eval_args(self):
        return dict(config=two_flow_config(), episodes=1, horizon=60,
                    start=EnvState((1, 3)))

    def test_c_zero_row_equals_averagers_evaluation(self):
        batch = reconstruction_batch()
        args = self.make_eval_args()
        rows = sweep_c(batch, [0.0], k=3, alpha=math.inf, gamma=0.99, **args)
        index = build_index(batch)
        mdp = build_mdp(batch, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.averagers(), index=index)
        sol = value_iteration(mdp, tol=1e-8)
        expected = evaluate(args["config"],
                            GreedyDerivedPolicy(mdp, sol, index),
                            1, 60, start=args["start"])
        assert rows[0]["c"] == "0"
        assert rows[0]["mean_return"] == expected.mean_return
        assert rows[-1]["c"] == "A-DAC"

    def test_sweep_k_rows(self):
        batch = reconstruction_batch()
        rows = sweep_k(batch, [2, 3], alpha=math.inf, gamma=0.99,
                       **self.make_eval_args())
        assert [r["k"] for r in rows] == [2, 3]

    def test_snapshots_reproduce_rows(self, tmp_path):
        from adac.derivation import mdp_from_json
        batch = reconstruction_batch()
        args = self.make_eval_args()
        rows = sweep_c(batch, [1.0], k=3, alpha=math.inf, gamma=0.99,
                       snapshot_dir=str(tmp_path), **args)
        snap = mdp_from_json((tmp_path / "mdp_c_1.json").read_text())
        index = build_index(batch)
        sol = value_iteration(snap, tol=1e-8)
        report = evaluate(args["config"],
                          GreedyDerivedPolicy(snap, sol, index),
                          1, 60, start=args["start"])
        assert report.mean_return == rows[0]["mean_return"]


MULTI_FLOW = IntersectionEnvConfig(
    flows=tuple((f"flow{i}", r) for i, r in enumerate((0.4, 0.6, 0.8, 1.0))),
    phases=((0,), (1,), (2,), (3,)), capacity=4, arrivals="poisson",
    horizon=40)


def multi_flow_batch():
    """Poisson multi-flow batch whose behaviour never takes action 3; at
    alpha 0.1 some pairs of the other actions are empty too, and many
    have fewer than 8 neighbors."""
    return collect(MULTI_FLOW, FixedCyclePolicy([0, 1, 2]), 3, 40,
                   EnvState((0,) * 4), rng=np.random.default_rng(3))


class TestSharedTable:
    """The sweeps derive every row from one core-state search per action;
    each row must be the row that its own derivation gives."""
    ALPHA, GAMMA = 0.1, 0.99
    EVAL = dict(config=MULTI_FLOW, episodes=2, horizon=40, seeds=[11, 12],
                start=EnvState((0,) * 4))

    @pytest.fixture
    def solved(self, monkeypatch):
        """The MDP of every value_iteration the sweeps run."""
        mdps = []

        def recorded(mdp, **kwargs):
            mdps.append(mdp)
            return value_iteration(mdp, **kwargs)
        monkeypatch.setattr(evaluation, "value_iteration", recorded)
        return mdps

    def expected(self, batch, index, k, mode):
        mdp = build_mdp(batch, k, self.ALPHA, self.GAMMA, mode, index=index)
        policy = GreedyDerivedPolicy(mdp, value_iteration(mdp, tol=1e-8),
                                     index)
        return mdp, evaluate(gamma=self.GAMMA, policy=policy,
                             **self.EVAL).mean_return

    def check_rows(self, batch, index, rows, mdps, grid):
        assert len(rows) == len(mdps) == len(grid)
        for row, mdp, (k, mode) in zip(rows, mdps, grid):
            want, mean_return = self.expected(batch, index, k, mode)
            assert row["mean_return"] == mean_return
            assert (mdp.k, mdp.alpha, mdp.mode) == (k, self.ALPHA, mode)
            assert np.array_equal(mdp.reward, want.reward)
            assert mdp.transition == want.transition
            assert mdp.empty_pairs == want.empty_pairs

    @pytest.mark.parametrize("norm", ["euclidean", "manhattan"])
    def test_sweep_c_rows_equal_their_own_derivations(self, solved, norm):
        batch = multi_flow_batch()
        index = build_index(batch, norm)
        c_values = [0.0, 1.0, 2.5]
        rows = sweep_c(batch, c_values, 5, self.ALPHA, self.GAMMA,
                       norm=norm, **self.EVAL)
        assert [row["c"] for row in rows] == ["0", "1", "2.5", "A-DAC"]
        assert any(a != 3 for _, a in solved[0].empty_pairs)
        grid = [(5, PenaltyMode.fixed(c)) for c in c_values]
        self.check_rows(batch, index, rows, solved,
                        grid + [(5, PenaltyMode.adaptive())])

    @pytest.mark.parametrize("norm", ["euclidean", "manhattan"])
    def test_sweep_k_rows_equal_their_own_derivations(self, solved, norm):
        batch = multi_flow_batch()
        index = build_index(batch, norm)
        k_values = [3, 1, 8, 2]      # the largest k is not the last
        rows = sweep_k(batch, iter(k_values), self.ALPHA, self.GAMMA,
                       norm=norm, **self.EVAL)
        assert [row["k"] for row in rows] == k_values
        self.check_rows(batch, index, rows, solved,
                        [(k, PenaltyMode.adaptive()) for k in k_values])

    def test_one_search_per_action_per_sweep(self, monkeypatch):
        calls = []
        search = NeighborIndex.search

        def counted(self, *args, **kwargs):
            calls.append(args[1])
            return search(self, *args, **kwargs)
        monkeypatch.setattr(NeighborIndex, "search", counted)
        batch = multi_flow_batch()
        sweep_c(batch, [0.0, 1.0], 5, self.ALPHA, self.GAMMA, **self.EVAL)
        assert calls == [0, 1, 2, 3]
        calls.clear()
        sweep_k(batch, range(2, 6), self.ALPHA, self.GAMMA, **self.EVAL)
        assert calls == [0, 1, 2, 3]


class TestSweepValidation:
    """A bad grid is rejected before anything is derived or evaluated."""

    @pytest.fixture
    def untouched(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the sweep searched or evaluated")
        monkeypatch.setattr(NeighborIndex, "search", fail)
        monkeypatch.setattr(evaluation, "evaluate", fail)

    def sweep_k(self, k_values, alpha=0.8, **kwargs):
        return sweep_k(reconstruction_batch(), k_values, alpha, 0.99,
                       two_flow_config(), 1, 20, **kwargs)

    def sweep_c(self, c_values, k=3, alpha=0.8, **kwargs):
        return sweep_c(reconstruction_batch(), c_values, k, alpha, 0.99,
                       two_flow_config(), 1, 20, **kwargs)

    @pytest.mark.parametrize("k_values", [[3, 0], [3, True], [3, 2.0],
                                          [3, -1], []])
    def test_bad_k(self, untouched, k_values):
        with pytest.raises(ValueError, match="k"):
            self.sweep_k(k_values)

    @pytest.mark.parametrize("c_values", [[1.0, -1.0], [1.0, math.nan],
                                          [1.0, math.inf], []])
    def test_bad_c(self, untouched, c_values):
        with pytest.raises(ValueError, match="C|cost"):
            self.sweep_c(c_values)

    @pytest.mark.parametrize("alpha", [math.nan, -0.5])
    def test_bad_alpha(self, untouched, alpha):
        with pytest.raises(ValueError, match="alpha"):
            self.sweep_k([2, 3], alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            self.sweep_c([1.0], alpha=alpha)

    def test_bad_k_of_sweep_c(self, untouched):
        with pytest.raises(ValueError, match="k"):
            self.sweep_c([1.0], k=0)

    def test_missing_snapshot_dir(self, untouched, tmp_path):
        with pytest.raises(ValueError, match="snapshot"):
            self.sweep_c([1.0], snapshot_dir=str(tmp_path / "missing"))

    def test_missing_seeds(self, untouched):
        with pytest.raises(ValueError, match="seed"):
            sweep_k(reconstruction_batch(), [2], 0.8, 0.99, MULTI_FLOW, 2, 20)


class TestTwoFlowDemo:
    def test_headline_numbers(self):
        out = two_flow_demo()
        assert out["cyclic"] == 300.0
        assert out["fixed_ew_ew_ns_ew"] == 400.0
        assert out["adac"] >= 390.0
        assert out["improvement"] >= 1.30

    def test_batch_is_two_trajectories(self):
        batch = reconstruction_batch()
        assert sorted({tr.traj_id for tr in batch.transitions}) == [0, 1]
        leads = {}
        for tr in batch.transitions:
            leads.setdefault(tr.traj_id, tr.a)
        assert leads == {0: 0, 1: 1}   # one NS-led, one EW-led
        assert all(tr.s == (1.0, 3.0) for tr in batch.transitions
                   if tr.t == 0)


class TestWorkedExample:
    def test_batch_contents(self):
        batch = worked_example_batch()
        assert len(batch) == 6
        assert batch.reward_bound == 4.0

    def test_default_mdp_is_adaptive_k3(self):
        mdp = worked_example_mdp()
        assert mdp.k == 3 and math.isinf(mdp.alpha)
        assert mdp.mode == PenaltyMode.adaptive()
