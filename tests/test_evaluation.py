import math

import pytest

from adac.derivation import PenaltyMode, build_mdp
from adac.evaluation import (evaluate, reconstruction_batch, reproduce_table2,
                             sweep_c, sweep_k, two_flow_demo,
                             worked_example_batch, worked_example_mdp)
from adac.neighbors import build_index
from adac.planner import value_iteration
from adac.policies import CyclicPolicy, GreedyDerivedPolicy
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
