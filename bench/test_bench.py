"""Tests of the benchmark itself: the oracle, its checks and every workload
at a smoke size. Runs in seconds."""

import copy
import dataclasses
import math
import signal
import time
from collections import namedtuple

import numpy as np
import pytest

import adac.derivation
import adac.neighbors
import adac.planner
import adac.policies
import adac.traffic
import clock
import oracle
import pipeline

Row = namedtuple("Row", "s a r s_next")
NS, EW = 0, 1

# The paper's six-transition worked example and its Table 2 (shaped rewards,
# k = 3, no distance cut); each entry is (NS, EW).
TABLE1 = [
    Row((1.0, 5.0), EW, 2.0, (3.0, 3.0)),
    Row((3.0, 3.0), NS, 2.0, (1.0, 5.0)),
    Row((6.0, 1.0), NS, 4.0, (2.0, 3.0)),
    Row((2.0, 3.0), EW, 2.0, (6.0, 1.0)),
    Row((0.0, 5.0), EW, 2.0, (2.0, 3.0)),
    Row((2.0, 3.0), NS, 2.0, (0.0, 5.0)),
]
TABLE2 = {
    "none": {s: (2.67, 2.00) for s in [(2.0, 3.0), (6.0, 1.0), (3.0, 3.0),
                                       (1.0, 5.0), (0.0, 5.0)]},
    "fixed:1": {(2.0, 3.0): (2.41, 1.77), (6.0, 1.0): (2.29, 1.16),
                (3.0, 3.0): (2.45, 1.66), (1.0, 5.0): (2.14, 1.85),
                (0.0, 5.0): (2.03, 1.82)},
    "adaptive": {(2.0, 3.0): (1.58, 1.53), (6.0, 1.0): (1.17, 0.32),
                 (3.0, 3.0): (1.82, 1.31), (1.0, 5.0): (0.55, 1.70),
                 (0.0, 5.0): (0.14, 1.65)},
}
COSTS = {"none": 0.0, "fixed:1": 1.0, "adaptive": None}


def test_oracle_reproduces_table2():
    diameter = oracle.exact_diameter(TABLE1)
    ref = oracle.Oracle(TABLE1, 2, k=3, alpha=math.inf, diameter=diameter)
    for mode, table in TABLE2.items():
        for s, printed in table.items():
            for a in (NS, EW):
                got = ref.reward(s, a, cost=COSTS[mode])
                if (mode, s, a) == ("adaptive", (2.0, 3.0), NS):
                    # the printed 1.58 is an arithmetic slip in the paper
                    assert got == pytest.approx(1.65, abs=0.01)
                else:
                    assert got == pytest.approx(printed[a], abs=0.01)


def test_oracle_knn_breaks_ties_by_transition_index():
    rows = [Row((0.0, 1.0), 0, 1.0, (0.0, 0.0)),
            Row((1.0, 0.0), 0, 2.0, (1.0, 1.0)),
            Row((0.0, 0.0), 1, 3.0, (2.0, 2.0)),
            Row((1.0, 0.0), 0, 4.0, (3.0, 3.0))]
    ref = oracle.Oracle(rows, 2, k=2, alpha=math.inf, diameter=1.0)
    assert [i for i, _ in ref.neighbors((0.0, 0.0), 0)] == [0, 1]
    ref.alpha = 0.5
    assert ref.neighbors((0.0, 0.0), 0) == []
    assert ref.reward((0.0, 0.0), 0) == 0.0


def _solved(seed=3):
    w = pipeline.WORKLOADS["act_10k"]
    config = pipeline.env_config(dataclasses.replace(w, horizon=60))
    batch = adac.policies.collect(config, adac.policies.CyclicPolicy(4), 3,
                                  60, adac.traffic.EnvState((0, 0, 0, 0)),
                                  rng=np.random.default_rng(seed))
    index = adac.neighbors.build_index(batch)
    mdp = adac.derivation.build_mdp(batch, pipeline.K, pipeline.ALPHA,
                                    pipeline.GAMMA, index=index)
    solution = adac.planner.value_iteration(mdp, tol=pipeline.TOL)
    ref = oracle.Oracle(batch.transitions, batch.action_count, mdp.k,
                        mdp.alpha, oracle.exact_diameter(batch.transitions))
    return mdp, solution, ref


def _failed(mdp, solution, ref, states):
    return {name for name, ok, _ in oracle.check_solved_mdp(
        mdp, solution, ref, states, pipeline.TOL) if not ok}


def test_checks_pass_on_a_derived_mdp():
    mdp, solution, ref = _solved()
    assert _failed(mdp, solution, ref, range(mdp.num_states())) == set()


def test_perturbed_reward_fails_the_check():
    mdp, solution, ref = _solved()
    bad = copy.deepcopy(mdp)
    bad.reward[7, 2] += 1e-6
    assert "mdp_rewards" in _failed(bad, solution, ref, [7])


def test_perturbed_transition_fails_the_check():
    mdp, solution, ref = _solved()
    si, a = 7, 2
    # move the pair's probability mass onto the core state whose value is
    # farthest from that of its true successors, then solve again
    # these lines read and write how the MDP stores its transitions
    row = mdp.transition[si][a]
    mean_v = sum(p * solution.values[j] for j, p in row.items())
    target = int(np.argmax(np.abs(solution.values - mean_v)))
    bad = copy.deepcopy(mdp)
    bad.transition[si][a] = {target: 1.0}
    resolved = adac.planner.value_iteration(bad, tol=pipeline.TOL)
    assert "solution_q" in _failed(bad, resolved, ref, [si])


def test_simulator_reproduces_two_flow_reference():
    ref = oracle.two_flow_reference()
    assert ref == {"cyclic": 300.0, "fixed_ew_ew_ns_ew": 400.0}


SMOKE = dict(episodes=2, horizon=40, setup_reps=2, derive_reps=2,
             c_values=(0.0, 4.0), k_values=(3, 5))


@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_smoke(name, trace, tmp_path):
    w = dataclasses.replace(pipeline.WORKLOADS[name], **SMOKE)
    result = pipeline.run_workload(w, seed=7, seconds=0, trace=trace,
                                   rounds=2, work_parent=tmp_path)
    assert result["correct"], [c for c in result["checks"] if not c["ok"]]
    assert result["failed"] == 0 and result["rounds"] == 2
    assert set(result["metrics"]) == {
        "setup_s", "time_to_policy_s", "decide_ms_p50", "decide_ms_p95",
        "decide_ms_mean", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if trace:
        layers = result["per_layer"]
        assert set(layers) == set(pipeline.PER_LAYER_UNITS) - {
            "trace.overhead_pct"}
        assert layers["evaluation.queries_per_decision"]["value"] > 0
        cycles = len(SMOKE["c_values"]) + 1 + len(SMOKE["k_values"])
        assert layers["evaluation.cycles"]["value"] == (
            cycles if w.sweep else 0)
        assert all(v["value"] is not None for v in layers.values())
    assert not hasattr(adac.neighbors.NeighborIndex.query, "__wrapped__")
    assert not hasattr(adac.policies.greedy_action, "__wrapped__")


def test_reference_clock_leaves_out_probes_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    ref = clock.ReferenceClock(interval=0.05)
    with ref:
        first = len(ref.probes)
        start, wall = ref.now(), time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            pass
        elapsed, wall = ref.now() - start, time.perf_counter() - wall
        ticks = ref.probes[first:]
    assert len(ticks) >= 3
    rates = [clock.PROBE_REF_S / p for p in ref.probes]
    # the clock runs at a rate some probe measured, minus the probes' time
    assert elapsed <= wall * max(rates)
    assert elapsed >= 0.9 * (wall - sum(ticks)) * min(rates)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == previous
