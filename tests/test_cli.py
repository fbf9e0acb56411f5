import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import adac
from adac.cli import main
from adac.planner import EVAL_SWEEPS
from adac.traffic import IntersectionEnvConfig, config_to_json

from conftest import DEEP_JSON


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

    def test_solve_reports_sweeps_and_policy_improvements(self, tmp_path,
                                                          capsys, pipeline):
        _, mdp, _ = pipeline
        out_path = tmp_path / "s.json"
        code, out, _ = run(capsys, "solve", "--mdp", str(mdp),
                           "--tol", "1e-9", "--out", str(out_path))
        assert code == 0
        match = re.match(r"solved in (\d+) sweeps with (\d+) policy "
                         r"improvements, residual", out)
        sweeps, improvements = map(int, match.groups())
        assert sweeps == json.loads(out_path.read_text())["iterations"]
        # the two-flow values resolve a tol of 1e-9, which is kept
        assert json.loads(out_path.read_text())["tol"] == 1e-9
        assert "widened" not in out
        # every improvement but the last is followed by a whole evaluation
        assert sweeps == improvements + EVAL_SWEEPS * (improvements - 1)
        assert improvements > 1

    def test_eval_cyclic_baseline(self, capsys):
        code, out, _ = run(capsys, "eval", "--policy", "cyclic",
                           "--episodes", "1", "--horizon", "100",
                           "--start", "1,3")
        assert code == 0
        assert json.loads(out)["mean_return"] == 300.0

    @pytest.mark.parametrize("argv, name, mean_return", [
        (["--policy", "fixed-cycle", "--cycle", "1,1,0,1"],
         "fixed-cycle[1,1,0,1]", 400.0),
        (["--policy", "proportional", "--period", "4"], "proportional", 398.0),
    ])
    def test_eval_cycle_and_period(self, capsys, argv, name, mean_return):
        code, out, _ = run(capsys, "eval", *argv, "--episodes", "1",
                           "--horizon", "100", "--start", "1,3")
        assert code == 0
        report = json.loads(out)
        assert (report["policy"], report["mean_return"]) == (name, mean_return)

    def test_eval_rejects_period_0(self, capsys):
        code, _, err = run(capsys, "eval", "--policy", "proportional",
                           "--period", "0", "--start", "1,3")
        assert code == 1
        assert "period must be >= 1" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("max_iters", [1 + EVAL_SWEEPS // 2,
                                           EVAL_SWEEPS + 1])
    def test_a_budget_spent_in_policy_evaluation_exits_2(
            self, tmp_path, capsys, pipeline, max_iters):
        _, mdp, _ = pipeline
        out = tmp_path / "s.json"
        code, _, err = run(capsys, "solve", "--mdp", str(mdp), "--tol", "1e-9",
                           "--max-iters", str(max_iters), "--out", str(out))
        assert code == 2
        assert f"no convergence after {max_iters} sweeps" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("reward, code", [(1e306, 0), (1e307, 1)])
    def test_solve_near_the_float64_limit(self, tmp_path, capsys, pipeline,
                                          reward, code):
        """Reward 1e306 at gamma 0.99 solves to values 1e308, in a file
        that reads back with the tol widened to what float64 resolves
        there; 1e307 overflows, so it exits 1 and writes nothing."""
        _, mdp, _ = pipeline
        derived = adac.mdp_from_json(mdp.read_text())
        derived = dataclasses.replace(
            derived, reward=np.full_like(derived.reward, reward))
        big, out = tmp_path / "big.mdp.json", tmp_path / "s.json"
        big.write_text(adac.mdp_to_json(derived))
        got, stdout, err = run(capsys, "solve", "--mdp", str(big), "--out",
                               str(out))
        assert got == code and "Traceback" not in err
        if code:
            assert "overflow" in err and not out.exists()
        else:
            solution = adac.solution_from_json(out.read_text())
            assert np.allclose(solution.values, 1e308, rtol=1e-12)
            assert solution.tol == pytest.approx(1.976e294, rel=1e-3)
            assert "tol widened from 1.000e-08 to 1.976e+294" in stdout

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

    @pytest.mark.parametrize("edit, message", [
        ("halve_row", "not a distribution"),
        ("gamma", "gamma"),
        # its integer part would read as a valid MDP
        ("index 1.5", "'transition' is not a finite 1-D array of integers"),
        ("indptr falls", "'transition' indptr is not"),
        ("nested rows", "derive the MDP again from its batch"),
        ("deep", "malformed MDP JSON: maximum recursion depth")])
    def test_solve_rejects_a_malformed_mdp(self, tmp_path, capsys, pipeline,
                                           edit, message):
        _, mdp, _ = pipeline
        doc = json.loads(mdp.read_text())
        stacked = doc["transition"]
        if edit == "halve_row":
            end = stacked["indptr"][1]
            stacked["data"][:end] = [p / 2 for p in stacked["data"][:end]]
        elif edit == "index 1.5":
            stacked["indices"][0] += 0.5
        elif edit == "indptr falls":
            stacked["indptr"][1] = stacked["indptr"][2] + 1
        elif edit == "nested rows":
            doc["transition"] = [[[[0, 1.0]]]]
        else:
            doc["gamma"] = 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(DEEP_JSON if edit == "deep" else json.dumps(doc))
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

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["reward"][0].__setitem__(0, True), "boolean in 'reward'"),
        # True reads as a core state, an integer index
        (lambda d: d["transition"]["indices"].__setitem__(0, True),
         "boolean in 'transition'"),
        (lambda d: d["core"][0].__setitem__(0, True), "boolean in 'core'"),
        (lambda d: d.update(gamma=False), "gamma False"),
        (lambda d: d.update(diameter=True), "diameter True"),
        (lambda d: d.update(diameter=-3.0), "diameter -3.0"),
    ])
    def test_solve_and_greedy_eval_reject_a_boolean_or_bad_number(
            self, tmp_path, capsys, pipeline, edit, message):
        batch, mdp, solution = pipeline
        doc = json.loads(mdp.read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "s.json"
        code, _, err = run(capsys, "solve", "--mdp", str(bad),
                           "--out", str(out))
        assert code == 1
        assert message in err and "Traceback" not in err
        assert not out.exists()
        code, _, err = greedy_eval(capsys, bad, solution, batch)
        assert code == 1
        assert message in err and "Traceback" not in err

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

    @pytest.mark.parametrize("command", [greedy_eval, bounds])
    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(tol=-1, residual=-5), "residual"),
        (lambda d: d.update(tol=0), "tol"),
        # json reads true and false as bools, which numpy takes for 1 and 0
        (lambda d: d["q"][0].__setitem__(0, True), "boolean in 'q'"),
        # a file that also stores q's row maxima and argmaxes
        (lambda d: d.update(values=[max(row) for row in d["q"]],
                            policy=[row.index(max(row)) for row in d["q"]]),
         "older solution file, holding 'values' and 'policy': solve the MDP "
         "again"),
        # an edit that returns text replaces the whole file
        (lambda d: DEEP_JSON, "malformed solution JSON: maximum recursion"),
    ])
    def test_solution_that_no_solve_writes_is_rejected(
            self, tmp_path, capsys, pipeline, command, edit, message):
        batch, mdp, solution = pipeline
        doc = json.loads(solution.read_text())
        text = edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc) if text is None else text)
        code, _, err = command(capsys, mdp, bad, batch)
        assert code == 1
        assert message in err and "Traceback" not in err

    def test_greedy_eval_rejects_a_cut_q(self, tmp_path, capsys, pipeline):
        batch, mdp, solution = pipeline
        doc = json.loads(solution.read_text())
        doc["q"] = doc["q"][:3]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = greedy_eval(capsys, mdp, bad, batch)
        assert code == 1
        assert "q shape (3, 2) does not fit an MDP" in err
        assert "Traceback" not in err

    def test_bounds_rejects_another_mdps_solution(self, capsys, pipeline,
                                                  other_pipeline):
        batch, mdp, solution = pipeline
        other_solution = other_pipeline[2]
        n = len(json.loads(solution.read_text())["q"])
        assert len(json.loads(other_solution.read_text())["q"]) != n
        code, _, err = bounds(capsys, mdp, other_solution, batch)
        assert code == 1
        assert f"MDP of {n} core states" in err and "Traceback" not in err

    def test_bounds_rejects_another_source_batch(self, capsys, pipeline,
                                                 other_pipeline):
        _, mdp, solution = pipeline
        code, _, err = bounds(capsys, mdp, solution, other_pipeline[0])
        assert code == 1
        assert "derived from" in err and "Traceback" not in err

    def test_bounds_rejects_a_batch_whose_sources_moved(self, tmp_path,
                                                        capsys):
        """The worked example with transition 0's source moved 3 along the
        first axis: the same core states, other rewards."""
        batch = adac.worked_example_batch()
        s = batch.s.copy()
        s[0, 0] += 3
        right, moved = tmp_path / "batch.jsonl", tmp_path / "moved.jsonl"
        adac.save_batch(batch, right)
        adac.save_batch(dataclasses.replace(batch, s=s), moved)
        mdp, solution = tmp_path / "mdp.json", tmp_path / "solution.json"
        assert run(capsys, "derive", "--batch", str(right), "--k", "3",
                   "--alpha", "inf", "--gamma", "0.9",
                   "--out", str(mdp))[0] == 0
        assert run(capsys, "solve", "--mdp", str(mdp),
                   "--out", str(solution))[0] == 0
        code, out, _ = bounds(capsys, mdp, solution, right)
        assert code == 0
        assert json.loads(out)["gap"] == pytest.approx(397.53, abs=5e-3)
        code, _, err = bounds(capsys, mdp, solution, moved)
        assert code == 1
        assert "not the batch it was derived from" in err
        assert "Traceback" not in err

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
        # numbers beyond float range, and nesting beyond the recursion limit
        pytest.param(None, {"s": [10**400, 3]}, id="huge-coordinate"),
        pytest.param(None, {"r": 10**400}, id="huge-reward"),
        pytest.param('{"reward_bound": 1' + "0" * 400 + "}", {},
                     id="huge-reward-bound"),
        pytest.param(None, "[" * 100_000, id="deep-nesting"),
        # a dimension the records do not have
        pytest.param('{"dim": 7}', {}, id="meta-dim"),
    ])
    def test_malformed_batch_is_rejected(self, tmp_path, capsys, meta,
                                         record):
        rec = {"s": [1, 3], "a": 0, "r": 1, "sp": [0, 3], "traj": 0, "t": 0}
        lines = [record if isinstance(record, str)
                 else json.dumps({**rec, **record})]
        if meta is not None:
            lines.insert(0, f'{{"meta": {meta}}}')
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "cover", "--batch", str(bad),
                           "--alpha", "0.5")
        assert code == 1
        assert "line 1" in err and "Traceback" not in err

    def test_undecodable_batch_names_its_line(self, tmp_path, capsys,
                                              pipeline):
        batch, _, _ = pipeline
        first, second, *_ = batch.read_bytes().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(first + second.replace(b"}", b', "x": "\xff"}'))
        code, _, err = run(capsys, "cover", "--batch", str(bad),
                           "--alpha", "0.5")
        assert code == 1
        assert "line 2: malformed JSON ('utf-8' codec" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "not an object"),
        ({"phases": [[0], [1]]}, "'flows'"),
        ({"flows": [{"name": "a", "rate": 1}]}, "'phases'"),
        ({"flows": [{"name": "a", "rate": 1}], "phases": [[0]],
          "schedule": [{"rates": [1]}]}, "'steps'"),
        ({"flows": [{"name": "a", "rate": 1}], "phases": [[0]],
          "schedule": [{"steps": 5}]}, "'rates'"),
        # numbers are JSON numbers, and phase flows integers
        ({"flows": [{"name": "a", "rate": "3"}], "phases": [[0]]}, "got '3'"),
        ({"flows": [{"name": "a", "rate": True}], "phases": [[0]]},
         "got True"),
        ({"flows": [{"name": "a", "rate": 1}], "phases": [[0.0]]},
         "unknown flow 0.0"),
        # beyond numpy's Poisson limit
        ({"flows": [{"name": "a", "rate": 1e300}], "phases": [[0]],
          "arrivals": "poisson"}, "numpy's 9.223372006484771e+18, got 1e+300"),
        pytest.param(DEEP_JSON, "malformed env config JSON: maximum "
                     "recursion", id="deep-nesting"),
    ])
    def test_malformed_env_config_is_rejected(self, tmp_path, capsys, doc,
                                              message):
        env = tmp_path / "env.json"
        env.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, _, err = run(capsys, "eval", "--env", str(env),
                           "--episodes", "1", "--horizon", "5")
        assert code == 1
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("arrivals", ["poisson", "deterministic"])
    @pytest.mark.parametrize("rate, shown", [("Infinity", "inf"),
                                             ("-Infinity", "-inf"),
                                             ("NaN", "nan")])
    def test_non_finite_env_rate_is_rejected(self, tmp_path, capsys,
                                             arrivals, rate, shown):
        env = tmp_path / "env.json"
        env.write_text(f'{{"flows": [{{"name": "a", "rate": 1}}, '
                       f'{{"name": "b", "rate": {rate}}}], '
                       f'"phases": [[0], [1]], "arrivals": "{arrivals}"}}')
        code, _, err = run(capsys, "collect", "--env", str(env),
                           "--policy", "cyclic", "--episodes", "1",
                           "--horizon", "5", "--out",
                           str(tmp_path / "b.jsonl"))
        assert code == 1
        assert f"arrival rates must be finite and non-negative, got {shown}" \
            in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("epsilon", ["-0.5", "nan", "1.5"])
    @pytest.mark.parametrize("command", ["eval", "collect"])
    def test_epsilon_outside_0_1_is_rejected(self, tmp_path, capsys,
                                             command, epsilon):
        out = tmp_path / "b.jsonl"
        code, _, err = run(capsys, command, "--policy", "cyclic",
                           f"--epsilon={epsilon}", "--episodes", "1",
                           "--horizon", "5", "--out", str(out))
        assert code == 1
        assert "epsilon must lie in [0, 1]" in err and "Traceback" not in err
        assert not out.exists()

    def test_epsilon_0_keeps_the_plain_policy(self, capsys):
        code, out, _ = run(capsys, "eval", "--policy", "cyclic",
                           "--epsilon", "0", "--episodes", "1",
                           "--horizon", "5")
        assert code == 0
        assert json.loads(out)["policy"] == "cyclic"

    @pytest.mark.parametrize("start", ["1", "1,2,3", "1,-2"])
    def test_start_must_fit_the_env(self, capsys, start):
        # the default env has two flows
        code, _, err = run(capsys, "eval", "--policy", "cyclic",
                           "--episodes", "1", "--horizon", "5",
                           "--start", start)
        assert code == 1
        assert "--start" in err and "Traceback" not in err

    @pytest.mark.parametrize("cycle", ["0,5", "-1,0", "2"])
    @pytest.mark.parametrize("command", ["eval", "collect"])
    def test_cycle_must_fit_the_env(self, tmp_path, capsys, command, cycle):
        # one step reaches only the first action; the check comes before it
        out = tmp_path / "out"
        code, _, err = run(capsys, command, "--policy", "fixed-cycle",
                           f"--cycle={cycle}", "--horizon", "1",
                           "--out", str(out))
        assert code == 1
        assert f"--cycle {cycle!r} names an action outside the env's 2 " \
            "phases" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["collect", "--gamma", "0.1", "--out", "{tmp}/b.jsonl"],
        ["collect", "--seeds", "5", "--out", "{tmp}/b.jsonl"],
        ["two-flow-demo", "--horizon", "50"],
        ["two-flow-demo", "--collect-horizon", "5"],
    ])
    def test_options_nothing_reads_are_usage_errors(self, tmp_path, capsys,
                                                    argv):
        code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 1
        assert "unrecognized arguments" in err
        assert not (tmp_path / "b.jsonl").exists()

    def test_bad_seeds_are_named_on_a_deterministic_env(self, capsys):
        code, _, err = run(capsys, "eval", "--episodes", "2",
                           "--horizon", "5", "--seeds", "1,x")
        assert code == 1
        assert "--seeds: 'x' is neither an integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, shown", [
        (["eval", "--episodes", "1", "--horizon", "5", "--start", "1,x"],
         "--start: 'x' is neither an integer"),
        (["shaping-sweep", "--r-max-values", "2,z"],
         "--r-max-values: 'z' is not a number"),
    ])
    def test_bad_number_names_the_option_and_part(self, capsys, argv, shown):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert shown in err and "Traceback" not in err

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
        ("sweep-c", ["--c-values", "1,y"], "--c-values: 'y' is not a number"),
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

    def test_bad_adac_seed_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("ADAC_SEED", "x")
        code, _, err = run(capsys, "eval", "--policy", "cyclic")
        assert code == 1
        assert "ADAC_SEED: 'x' is not an integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["derive", "sweep-c", "sweep-k",
                                         "bounds", "cover"])
    def test_bad_alpha_is_named(self, tmp_path, capsys, pipeline, command):
        batch, mdp, solution = pipeline
        extra = {"derive": ["--out", str(tmp_path / "m.json")],
                 "bounds": ["--mdp", str(mdp), "--solution", str(solution)]}
        code, _, err = run(capsys, command, "--batch", str(batch),
                           "--alpha", "abc", *extra.get(command, []))
        assert code == 1
        assert "--alpha: 'abc' is not a number" in err
        assert "Traceback" not in err

    def test_bad_penalty_cost_is_named(self, tmp_path, capsys, pipeline):
        batch, _, _ = pipeline
        code, _, err = run(capsys, "derive", "--batch", str(batch),
                           "--penalty", "fixed:abc",
                           "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert "--penalty: could not convert string to float: 'abc'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("gamma", ["nan", "-5", "1.5"])
    def test_eval_rejects_a_bad_gamma(self, capsys, gamma):
        code, out, err = run(capsys, "eval", "--policy", "cyclic",
                             "--gamma", gamma)
        assert code == 1
        assert "gamma must lie in [0, 1]" in err and out == ""

    @pytest.mark.parametrize("option, value", [
        ("--d-near", "nan"), ("--d-far", "-1"), ("--d-far", "inf"),
        ("--r-max-values", "nan")])
    def test_shaping_sweep_rejects_a_bad_input(self, capsys, option, value):
        code, out, err = run(capsys, "shaping-sweep", option, value)
        assert code == 1
        assert "must be finite" in err and "nan" not in out

    @pytest.mark.parametrize("c_values, shown", [
        ("", "--r-max-values: empty r_max grid"),
        ("x", "--c-values: 'x' is not a number"),
    ])
    def test_shaping_sweep_checks_both_grids(self, capsys, c_values, shown):
        # an empty r_max grid used to print only the CSV header
        code, out, err = run(capsys, "shaping-sweep", "--r-max-values", "",
                             "--c-values", c_values)
        assert code == 1 and out == ""
        assert shown in err and "Traceback" not in err

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

    def test_shaping_sweep_without_c_values(self, capsys):
        code, out, _ = run(capsys, "shaping-sweep", "--r-max-values", "1,2",
                           "--c-values", "")
        assert code == 0
        assert [line.split(",")[:2] for line in out.split()[1:]] == [
            ["1", "none"], ["1", "adaptive"], ["2", "none"], ["2", "adaptive"]]

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

    def test_config_horizon_is_the_default_horizon(self, tmp_path, capsys):
        """One flow of two vehicles a step through a capacity of one: a
        return of 1 per step, so the returns count the steps each command
        ran."""
        env = tmp_path / "env.json"
        env.write_text(json.dumps({"flows": [{"name": "a", "rate": 2}],
                                   "phases": [[0]], "capacity": 1,
                                   "horizon": 360}))
        batch = tmp_path / "b.jsonl"
        code, out, _ = run(capsys, "collect", "--env", str(env),
                           "--out", str(batch))
        assert code == 0 and "(1 episodes x 360 steps)" in out
        for argv, horizon in ((["eval"], 360), (["eval", "--horizon", "50"], 50),
                              (["sweep-c", "--batch", str(batch),
                                "--c-values", "1"], 360),
                              (["sweep-k", "--batch", str(batch),
                                "--k-values", "1"], 360)):
            code, out, err = run(capsys, *argv, "--env", str(env))
            assert code == 0, err
            if argv[0] == "eval":
                assert json.loads(out)["mean_return"] == horizon
            else:
                assert all(float(row["mean_return"]) == horizon
                           for row in csv.DictReader(out.splitlines()))

    @pytest.mark.parametrize("flows, phases, shown", [
        (2, 3, "env flow count 2 and phase count 3"),
        (3, 2, "env flow count 3 and phase count 2"),
        (2, 1, "env flow count 2 and phase count 1"),
    ])
    @pytest.mark.parametrize("command", ["eval", "collect", "sweep-c",
                                         "sweep-k"])
    def test_an_env_that_does_not_fit_exits_1(self, tmp_path, capsys,
                                              pipeline, flows, phases, shown,
                                              command):
        """The env needs one flow per state coordinate and one phase per
        action of the 2-D, 2-action batch and MDP."""
        batch, mdp, solution = pipeline
        env, out = tmp_path / "env.json", tmp_path / "out"
        env.write_text(config_to_json(IntersectionEnvConfig(
            flows=tuple((f"f{i}", 1.0) for i in range(flows)),
            phases=tuple((i % flows,) for i in range(phases)))))
        greedy = ["--policy", "greedy", "--mdp", str(mdp),
                  "--solution", str(solution), "--source-batch", str(batch)]
        extra = {"eval": greedy, "collect": greedy,
                 "sweep-c": ["--batch", str(batch), "--k", "3"],
                 "sweep-k": ["--batch", str(batch), "--k-values", "2,3"]}
        code, _, err = run(capsys, command, "--env", str(env),
                           *extra[command], "--horizon", "5",
                           "--out", str(out))
        assert code == 1 and "Traceback" not in err
        assert shown in err
        what = "MDP" if command in ("eval", "collect") else "batch"
        assert f"{what}'s state dimension 2 and action count 2" in err
        assert not out.exists()

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
