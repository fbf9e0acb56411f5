import csv
import json
import os
import subprocess
import sys

import pytest

import adac
from adac.cli import main
from adac.traffic import IntersectionEnvConfig, config_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def collect_derive_solve(tmp_path, capsys, start, horizon=20, name="batch",
                         metric="euclidean"):
    """collect -> derive -> solve on the two-flow env; returns the paths."""
    batch = tmp_path / f"{name}.jsonl"
    mdp = tmp_path / f"{name}.mdp.json"
    solution = tmp_path / f"{name}.solution.json"
    code, _, _ = run(capsys, "collect", "--policy", "cyclic",
                     "--episodes", "2", "--horizon", str(horizon),
                     "--start", start, "--out", str(batch))
    assert code == 0
    code, _, _ = run(capsys, "derive", "--batch", str(batch), "--k", "3",
                     "--alpha", "inf", "--gamma", "0.99",
                     "--penalty", "adaptive", "--metric", metric,
                     "--out", str(mdp))
    assert code == 0
    code, _, _ = run(capsys, "solve", "--mdp", str(mdp), "--tol", "1e-9",
                     "--out", str(solution))
    assert code == 0
    return batch, mdp, solution


@pytest.fixture
def pipeline(tmp_path, capsys):
    return collect_derive_solve(tmp_path, capsys, "1,3")


@pytest.fixture
def other_pipeline(tmp_path, capsys):
    """The same from start 2,6 over 25 steps: another batch, and an MDP and
    solution with another number of core states."""
    return collect_derive_solve(tmp_path, capsys, "2,6", horizon=25,
                                name="other")


def greedy_eval(capsys, mdp, solution, batch):
    return run(capsys, "eval", "--policy", "greedy", "--mdp", str(mdp),
               "--solution", str(solution), "--source-batch", str(batch),
               "--episodes", "1", "--horizon", "10", "--start", "1,3")


def bounds(capsys, mdp, solution, batch):
    return run(capsys, "bounds", "--batch", str(batch), "--mdp", str(mdp),
               "--solution", str(solution), "--delta", "0.1")


def read_csv(path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


class TestPipeline:
    def test_collect_derive_solve_eval(self, tmp_path, capsys, pipeline):
        batch, mdp, solution = pipeline
        code, out, _ = run(capsys, "eval", "--policy", "greedy",
                           "--mdp", str(mdp), "--solution", str(solution),
                           "--source-batch", str(batch),
                           "--episodes", "1", "--horizon", "100",
                           "--start", "1,3")
        assert code == 0
        report = json.loads(out)
        assert report["policy"] == "greedy-derived"
        assert report["mean_return"] > 300.0

    def test_eval_cyclic_baseline(self, capsys):
        code, out, _ = run(capsys, "eval", "--policy", "cyclic",
                           "--episodes", "1", "--horizon", "100",
                           "--start", "1,3")
        assert code == 0
        assert json.loads(out)["mean_return"] == 300.0

    def test_cover(self, tmp_path, capsys, pipeline):
        batch, _, _ = pipeline
        code, out, _ = run(capsys, "cover", "--batch", str(batch),
                           "--alpha", "0.5")
        assert code == 0
        assert int(out.strip()) >= 2

    @pytest.mark.parametrize("command", [greedy_eval, bounds])
    def test_manhattan_artifacts(self, tmp_path, capsys, command):
        batch, mdp, solution = collect_derive_solve(tmp_path, capsys, "1,3",
                                                    metric="manhattan")
        assert json.loads(mdp.read_text())["norm"] == "manhattan"
        code, out, _ = command(capsys, mdp, solution, batch)
        assert code == 0
        assert json.loads(out)

    def test_bounds(self, tmp_path, capsys, pipeline):
        batch, mdp, solution = pipeline
        out_path = tmp_path / "bounds.json"
        code, _, _ = run(capsys, "bounds", "--batch", str(batch),
                         "--mdp", str(mdp), "--solution", str(solution),
                         "--delta", "0.1", "--alpha", "0.8",
                         "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        expected = (2 * report["epsilon_s"]
                    + report["d_bar_max"] * report["r_max_bound"]) / (1 - 0.99)
        assert report["gap"] == pytest.approx(expected, rel=1e-9)
        assert report["covering_number"] >= 1


class TestExitCodes:
    def test_missing_file_is_validation_error(self, capsys):
        code, _, err = run(capsys, "derive", "--batch", "/nonexistent.jsonl",
                           "--out", "/tmp/x.json")
        assert code == 1
        assert "error" in err.lower()

    def test_bad_penalty_is_validation_error(self, tmp_path, capsys, pipeline):
        batch, _, _ = pipeline
        code, _, err = run(capsys, "derive", "--batch", str(batch),
                           "--penalty", "bogus",
                           "--out", str(tmp_path / "m.json"))
        assert code == 1

    def test_non_convergence_exits_2(self, tmp_path, capsys, pipeline):
        _, mdp, _ = pipeline
        code, _, err = run(capsys, "solve", "--mdp", str(mdp),
                           "--tol", "1e-9", "--max-iters", "2",
                           "--out", str(tmp_path / "s.json"))
        assert code == 2
        assert "convergence" in err.lower() or "sweeps" in err.lower()

    @pytest.mark.parametrize("cost", ["nan", "inf"])
    def test_derive_rejects_a_non_finite_cost(self, tmp_path, capsys,
                                              pipeline, cost):
        batch, _, _ = pipeline
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "derive", "--batch", str(batch),
                           "--penalty", f"fixed:{cost}", "--out", str(out))
        assert code == 1
        assert "finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--max-iters", "0", "max_iters"),
        ("--tol", "nan", "tol"),
        ("--tol", "inf", "tol"),
    ])
    def test_solve_rejects_a_bad_setting(self, tmp_path, capsys, pipeline,
                                         option, value, message):
        _, mdp, _ = pipeline
        code, _, err = run(capsys, "solve", "--mdp", str(mdp), option, value,
                           "--out", str(tmp_path / "s.json"))
        assert code == 1
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["nan", "-1"])
    def test_derive_rejects_a_bad_alpha(self, tmp_path, capsys, pipeline,
                                        alpha):
        batch, _, _ = pipeline
        code, _, err = run(capsys, "derive", "--batch", str(batch),
                           "--alpha", alpha, "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert "alpha" in err and "Traceback" not in err

    def test_usage_error_exits_1(self, capsys):
        code, _, _ = run(capsys, "derive")   # missing required args
        assert code == 1

    def test_removed_diameter_mode_flag_is_usage_error(self, tmp_path,
                                                       capsys, pipeline):
        batch, _, _ = pipeline
        code, _, err = run(capsys, "derive", "--batch", str(batch),
                           "--diameter-mode", "exact",
                           "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert "--diameter-mode" in err

    @pytest.mark.parametrize("edit, message", [("halve_row", "not a distribution"),
                                               ("gamma", "gamma")])
    def test_solve_rejects_a_malformed_mdp(self, tmp_path, capsys, pipeline,
                                           edit, message):
        _, mdp, _ = pipeline
        doc = json.loads(mdp.read_text())
        if edit == "halve_row":
            row = doc["transition"][0][0]
            doc["transition"][0][0] = [[j, p / 2] for j, p in row]
        else:
            doc["gamma"] = 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", "--mdp", str(bad),
                           "--out", str(tmp_path / "s.json"))
        assert code == 1
        assert message in err

    @pytest.mark.parametrize("field, value", [("k", 2.5), ("k", True),
                                              ("action_count", 2.0)])
    def test_solve_and_greedy_eval_reject_a_non_integer(
            self, tmp_path, capsys, pipeline, field, value):
        batch, mdp, solution = pipeline
        doc = json.loads(mdp.read_text())
        doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", "--mdp", str(bad),
                           "--out", str(tmp_path / "s.json"))
        assert code == 1
        assert f"{field} {value!r}" in err and "Traceback" not in err
        code, _, err = greedy_eval(capsys, bad, solution, batch)
        assert code == 1
        assert f"{field} {value!r}" in err and "Traceback" not in err

    def test_greedy_eval_rejects_another_source_batch(self, tmp_path, capsys,
                                                      pipeline):
        _, mdp, solution = pipeline
        other = tmp_path / "other.jsonl"
        code, _, _ = run(capsys, "collect", "--policy", "cyclic",
                         "--episodes", "2", "--horizon", "20",
                         "--start", "2,6", "--out", str(other))
        assert code == 0
        code, _, err = run(capsys, "eval", "--policy", "greedy",
                           "--mdp", str(mdp), "--solution", str(solution),
                           "--source-batch", str(other),
                           "--episodes", "1", "--horizon", "10",
                           "--start", "1,3")
        assert code == 1
        assert "derived from" in err

    @pytest.mark.parametrize("command", [greedy_eval, bounds])
    def test_solution_without_q_is_rejected(self, tmp_path, capsys, pipeline,
                                            command):
        batch, mdp, solution = pipeline
        doc = json.loads(solution.read_text())
        del doc["q"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = command(capsys, mdp, bad, batch)
        assert code == 1
        assert "no 'q'" in err and "Traceback" not in err

    def test_greedy_eval_rejects_a_cut_q(self, tmp_path, capsys, pipeline):
        batch, mdp, solution = pipeline
        doc = json.loads(solution.read_text())
        doc["q"] = doc["q"][:3]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = greedy_eval(capsys, mdp, bad, batch)
        assert code == 1
        assert "q rows" in err and "Traceback" not in err

    def test_bounds_rejects_another_mdps_solution(self, capsys, pipeline,
                                                  other_pipeline):
        batch, mdp, solution = pipeline
        other_solution = other_pipeline[2]
        n = len(json.loads(solution.read_text())["values"])
        assert len(json.loads(other_solution.read_text())["values"]) != n
        code, _, err = bounds(capsys, mdp, other_solution, batch)
        assert code == 1
        assert f"MDP of {n} core states" in err and "Traceback" not in err

    def test_bounds_rejects_another_source_batch(self, capsys, pipeline,
                                                 other_pipeline):
        _, mdp, solution = pipeline
        code, _, err = bounds(capsys, mdp, solution, other_pipeline[0])
        assert code == 1
        assert "derived from" in err and "Traceback" not in err

    @pytest.mark.parametrize("meta, record", [
        ("[4]", {}),
        ('{"action_count": "4"}', {}),
        ('{"action_count": -1}', {}),
        ('{"action_count": 2.5}', {}),
        ('{"action_count": true}', {}),
        ('{"reward_bound": "high"}', {}),
        ('{"reward_bound": NaN}', {}),
        (None, {"traj": True}),
        (None, {"t": True}),
    ])
    def test_malformed_batch_is_rejected(self, tmp_path, capsys, meta,
                                         record):
        rec = {"s": [1, 3], "a": 0, "r": 1, "sp": [0, 3], "traj": 0, "t": 0}
        lines = [json.dumps({**rec, **record})]
        if meta is not None:
            lines.insert(0, f'{{"meta": {meta}}}')
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "cover", "--batch", str(bad),
                           "--alpha", "0.5")
        assert code == 1
        assert "line 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "not an object"),
        ({"phases": [[0], [1]]}, "'flows'"),
        ({"flows": [{"name": "a", "rate": 1}]}, "'phases'"),
        ({"flows": [{"name": "a", "rate": 1}], "phases": [[0]],
          "schedule": [{"rates": [1]}]}, "'steps'"),
        ({"flows": [{"name": "a", "rate": 1}], "phases": [[0]],
          "schedule": [{"steps": 5}]}, "'rates'"),
    ])
    def test_malformed_env_config_is_rejected(self, tmp_path, capsys, doc,
                                              message):
        env = tmp_path / "env.json"
        env.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", "--env", str(env),
                           "--episodes", "1", "--horizon", "5")
        assert code == 1
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("start", ["1", "1,2,3", "1,-2"])
    def test_start_must_fit_the_env(self, capsys, start):
        # the default env has two flows
        code, _, err = run(capsys, "eval", "--policy", "cyclic",
                           "--episodes", "1", "--horizon", "5",
                           "--start", start)
        assert code == 1
        assert "--start" in err and "Traceback" not in err

    def test_eval_needs_an_episode(self, capsys):
        code, _, err = run(capsys, "eval", "--episodes", "0")
        assert code == 1
        assert "episodes" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, bad, shown", [
        ("sweep-k", ["--k-values", "3,0"], "k must be"),
        ("sweep-k", ["--k-values", "2.."], "'2..' is neither an integer"),
        ("sweep-k", ["--k-values", "a..3"], "'a..3' is neither an integer"),
        ("sweep-k", ["--k-values", "2,x"], "'x' is neither an integer"),
        ("sweep-c", ["--c-values", "1,-1"], "cost parameter"),
        ("sweep-c", ["--snapshot-dir", "{tmp}/missing"], "snapshot directory"),
    ])
    def test_bad_sweep_grid(self, tmp_path, capsys, pipeline, command, bad,
                            shown):
        batch, _, _ = pipeline
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(capsys, command, "--batch", str(batch),
                           *(arg.format(tmp=tmp_path) for arg in bad),
                           "--alpha", "inf", "--episodes", "1",
                           "--horizon", "20", "--out", str(out_path))
        assert code == 1
        assert shown in err and "Traceback" not in err
        assert not out_path.exists()

    def test_bad_seeds_are_named(self, tmp_path, capsys):
        env = tmp_path / "env.json"
        env.write_text(config_to_json(IntersectionEnvConfig(
            flows=(("a", 1.0), ("b", 1.0)), phases=((0,), (1,)),
            arrivals="poisson")))
        code, _, err = run(capsys, "eval", "--env", str(env),
                           "--episodes", "2", "--seeds", "1,2..")
        assert code == 1
        assert "--seeds: '2..' is neither an integer" in err
        assert "Traceback" not in err

    def test_help_exits_0(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0


class TestCsvOutputs:
    def test_sweep_c_rows(self, tmp_path, capsys, pipeline):
        batch, _, _ = pipeline
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep-c", "--batch", str(batch),
                         "--c-values", "0,1", "--k", "3", "--alpha", "inf",
                         "--episodes", "1", "--horizon", "40",
                         "--start", "1,3", "--out", str(out_path))
        assert code == 0
        rows = read_csv(out_path)
        assert [r["c"] for r in rows] == ["0", "1", "A-DAC"]
        for row in rows:
            float(row["mean_return"])

    def test_sweep_k_range_syntax(self, tmp_path, capsys, pipeline):
        batch, _, _ = pipeline
        out_path = tmp_path / "sweepk.csv"
        code, _, _ = run(capsys, "sweep-k", "--batch", str(batch),
                         "--k-values", "2..4", "--alpha", "inf",
                         "--episodes", "1", "--horizon", "40",
                         "--start", "1,3", "--out", str(out_path))
        assert code == 0
        rows = read_csv(out_path)
        assert [r["k"] for r in rows] == ["2", "3", "4"]

    def test_shaping_sweep(self, tmp_path, capsys):
        out_path = tmp_path / "shaping.csv"
        code, _, _ = run(capsys, "shaping-sweep", "--k", "5",
                         "--r-max-values", "1,10", "--d-near", "0.5",
                         "--d-far", "0.5", "--c-values", "0,4",
                         "--out", str(out_path))
        assert code == 0
        rows = read_csv(out_path)
        modes = {r["mode"] for r in rows}
        assert modes == {"none", "fixed:0", "fixed:4", "adaptive"}
        adaptive_10 = [float(r["shaped_reward"]) for r in rows
                       if r["mode"] == "adaptive" and r["r_max"] == "10"][0]
        assert adaptive_10 == pytest.approx((4 + 10) / 5 - 0.5 * 10, abs=1e-12)

    def test_reproduce_table2_csv(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "reproduce-table2", "--out", str(out_path))
        assert code == 0
        rows = read_csv(out_path)
        assert len(rows) == 40   # 4 modes x 5 states x 2 actions
        mismatches = [r for r in rows if r["match"] == "false"]
        assert len(mismatches) == 1
        assert mismatches[0]["state"] == "(2,3)"
        assert mismatches[0]["mode"] == "adaptive"


class TestDemo:
    def test_two_flow_demo_json(self, capsys):
        code, out, _ = run(capsys, "two-flow-demo")
        assert code == 0
        doc = json.loads(out)
        assert doc["cyclic"] == 300.0
        assert doc["adac"] >= 390.0
        assert doc["fixed_ew_ew_ns_ew"] == 400.0


class TestEnvConfigFile:
    def test_poisson_env_from_file(self, tmp_path, capsys):
        config = IntersectionEnvConfig(
            flows=(("a", 0.5), ("b", 1.0)), phases=((0,), (1,)),
            capacity=4, arrivals="poisson", horizon=50)
        env_path = tmp_path / "env.json"
        env_path.write_text(config_to_json(config))
        batch_path = tmp_path / "b.jsonl"
        code, out, _ = run(capsys, "--seed", "3", "collect",
                           "--env", str(env_path), "--policy", "cyclic",
                           "--episodes", "2", "--horizon", "50",
                           "--out", str(batch_path))
        assert code == 0
        assert "100 transitions" in out

    def test_adac_seed_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADAC_SEED", "42")
        from adac.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["eval", "--policy", "cyclic"])
        assert args.seed == 42


class TestModuleEntryPoint:
    def test_python_m_adac_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(adac.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

        def adac_m(*argv):
            return subprocess.run([sys.executable, "-m", "adac", *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)

        demo = adac_m("two-flow-demo")
        assert demo.returncode == 0, demo.stderr
        assert json.loads(demo.stdout)["adac"] == 400.0
        usage = adac_m("derive")     # missing required arguments
        assert usage.returncode == 1 and "Traceback" not in usage.stderr
