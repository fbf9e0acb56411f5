"""One benchmark workload, end to end through adac's public API.

    python3 bench/pipeline.py --workload act_10k --seed 7 --seconds 8 \
        --trace 0 --out result.json

Phases, each timed with tracing off on the reference-speed clock of
bench/clock.py (wall time corrected for the host's own speed swings):

    setup   collect the cyclic batch and write its JSONL (repeated; median)
    derive  batch JSONL -> [C and k sweep] -> index -> MDP -> value
            iteration -> MDP and solution JSON written (repeated on
            act_10k; median)
    act     rounds of: reload the artifacts into a greedy policy, then run
            the closed-loop evaluation timing every decision; rounds repeat
            until `--seconds` have passed
    check   compare every output with the independent oracle (untimed)

Functions of adac are called through their modules (`adac.dataset.
load_batch`, not an imported name) so that the traced run's wrappers see
every call. `bench/run.py` runs this file in a fresh process per workload.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import adac.dataset
import adac.derivation
import adac.evaluation
import adac.neighbors
import adac.planner
import adac.policies
import adac.traffic

import oracle
from clock import ReferenceClock
from tracer import Tracer

BASE_RATES = (0.4, 0.6, 0.8, 1.0)
CAPACITY = 4
K, ALPHA, GAMMA, TOL = 5, 0.8, 0.99, 1e-8
# seed 7 evaluates on acceptance criterion 8's episode seeds 101-105
EVAL_SEED_OFFSET = 94
CHECK_STATES = 12       # sampled core states per oracle comparison
CHECK_DECISIONS = 50    # recorded decision states re-decided in memory


@dataclass(frozen=True)
class Workload:
    name: str
    episodes: int           # cyclic collection episodes
    setup_reps: int         # setups per run; setup_s is their median
    derive_reps: int        # derivations per run; time_to_policy_s is
                            # their median
    schedule: str           # evaluation rates: "peak" or "light_to_peak"
    eval_episodes: int
    sweep: bool = False     # run the C and k sweep before deriving
    horizon: int = 360
    c_values: tuple = (0.0, 1.0, 2.0, 4.0, 8.0)
    k_values: tuple = tuple(range(2, 11))


WORKLOADS = {
    "derive_30k": Workload("derive_30k", episodes=84, setup_reps=5,
                           derive_reps=1, schedule="peak", eval_episodes=3),
    "act_10k": Workload("act_10k", episodes=28, setup_reps=9, derive_reps=2,
                        schedule="light_to_peak", eval_episodes=5),
    "sweep_2k": Workload("sweep_2k", episodes=7, setup_reps=25,
                         derive_reps=1, schedule="peak", eval_episodes=2,
                         sweep=True),
}


def env_config(w: Workload, schedule=None):
    flows = tuple((f"flow{i}", r) for i, r in enumerate(BASE_RATES))
    phases = tuple((i,) for i in range(len(BASE_RATES)))
    return adac.traffic.IntersectionEnvConfig(
        flows=flows, phases=phases, capacity=CAPACITY, arrivals="poisson",
        horizon=w.horizon, schedule=schedule)


def eval_schedule(w: Workload):
    light = tuple(0.5 * r for r in BASE_RATES)
    peak = tuple(1.25 * r for r in BASE_RATES)
    if w.schedule == "peak":
        return ((w.horizon, peak),)
    segments = (light, light, BASE_RATES, peak, peak)
    return tuple((w.horizon, rates) for rates in segments)


class TimedPolicy:
    """Records the latency, state and action of every decision."""

    def __init__(self, policy, clock):
        self.policy, self.clock = policy, clock
        self.name = policy.name
        self.latency, self.states, self.actions = [], [], []

    def act(self, state, t):
        start = self.clock.now()
        action = self.policy.act(state, t)
        self.latency.append(self.clock.now() - start)
        self.states.append(state)
        self.actions.append(action)
        return action


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Run:
    def __init__(self, w: Workload, seed: int, seconds: float, workdir,
                 clock: ReferenceClock, tracer: Tracer | None = None,
                 rounds: int | None = None):
        self.w, self.seed, self.seconds = w, seed, seconds
        self.clock, self.tracer, self.rounds = clock, tracer, rounds
        self.batch_path = os.path.join(workdir, "batch.jsonl")
        self.mdp_path = os.path.join(workdir, "mdp.json")
        self.solution_path = os.path.join(workdir, "solution.json")
        self.eval_config = env_config(w, eval_schedule(w))
        self.eval_seeds = [seed + EVAL_SEED_OFFSET + i
                           for i in range(w.eval_episodes)]
        self.start = adac.traffic.EnvState((0,) * len(BASE_RATES))
        self.attempted = 0
        self.checks = []
        self.quality = []

    def _phase(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("bench." + name)

    def setup(self):
        """Generate the batch and write its JSONL, `setup_reps` times."""
        times, digests = [], []
        for _ in range(self.w.setup_reps):
            with self._phase("setup"):
                start = self.clock.now()
                rng = np.random.default_rng(self.seed)
                behaviour = adac.policies.CyclicPolicy(len(BASE_RATES))
                batch = adac.policies.collect(
                    env_config(self.w), behaviour, self.w.episodes,
                    self.w.horizon, self.start, rng=rng)
                adac.dataset.save_batch(batch, self.batch_path)
                times.append(self.clock.now() - start)
            digests.append(_digest(self.batch_path))
        # the generated batch itself is dropped so that it does not count
        # towards the peak memory of the later phases
        self.batch_hash = hash(batch.transitions)
        self.setup_times = times
        self.attempted += len(times)
        self._check("setup_deterministic", len(set(digests)) == 1,
                    f"{len(set(digests))} distinct batch files")

    def derive(self):
        """Batch JSONL on disk -> MDP and solution JSON on disk, repeated
        `derive_reps` times; every repetition must write the same files."""
        times, digests = [], []
        for _ in range(self.w.derive_reps):
            self.loaded_batch = self.index = self.mdp = self.solution = None
            with self._phase("derive"):
                start = self.clock.now()
                self._derive_once()
                times.append(self.clock.now() - start)
            digests.append((_digest(self.mdp_path),
                            _digest(self.solution_path)))
        self.derive_times = times
        self._check("derive_deterministic", len(set(digests)) == 1,
                    f"{len(set(digests))} distinct artifact pairs")

    def _derive_once(self):
        w = self.w
        batch = adac.dataset.load_batch(self.batch_path)
        if w.sweep:
            self.c_rows = adac.evaluation.sweep_c(
                batch, list(w.c_values), K, ALPHA, GAMMA, self.eval_config,
                w.eval_episodes, w.horizon, seeds=self.eval_seeds,
                start=self.start)
            self.k_rows = adac.evaluation.sweep_k(
                batch, list(w.k_values), ALPHA, GAMMA, self.eval_config,
                w.eval_episodes, w.horizon, seeds=self.eval_seeds,
                start=self.start)
        index = adac.neighbors.build_index(batch)
        mdp = adac.derivation.build_mdp(
            batch, K, ALPHA, GAMMA, adac.derivation.PenaltyMode.adaptive(),
            index=index)
        solution = adac.planner.value_iteration(mdp, tol=TOL)
        _write(self.mdp_path, adac.derivation.mdp_to_json(mdp))
        _write(self.solution_path, adac.planner.solution_to_json(solution))
        self.loaded_batch, self.index = batch, index
        self.mdp, self.solution = mdp, solution
        self.attempted += 1 + (len(self.c_rows) + len(self.k_rows)
                               if w.sweep else 0)

    def reload(self):
        """Artifacts on disk -> a policy ready to act."""
        batch = adac.dataset.load_batch(self.batch_path)
        index = adac.neighbors.build_index(batch)
        mdp = adac.derivation.mdp_from_json(_read(self.mdp_path))
        solution = adac.planner.solution_from_json(_read(self.solution_path))
        return adac.policies.GreedyDerivedPolicy(mdp, solution, index)

    def act(self):
        """Reload-and-evaluate rounds until `seconds` have passed, or
        exactly `rounds` rounds when given."""
        self.load_times, self.reports, self.logs = [], [], []
        queries = self._queries()
        wall_start, phase_start = time.perf_counter(), self.clock.now()
        while True:
            # a restart drops the running policy before loading the new one,
            # so memory does not grow with the number of rounds
            self.reloaded = None
            with self._phase("act"):
                start = self.clock.now()
                with self._phase("reload"):
                    self.reloaded = self.reload()
                loaded = self.clock.now()
                timed = TimedPolicy(self.reloaded, self.clock)
                report = adac.evaluation.evaluate(
                    self.eval_config, timed, self.w.eval_episodes,
                    self.w.horizon, GAMMA, seeds=self.eval_seeds,
                    start=self.start)
            timed.policy = None     # keep the decisions, not the policy
            self.load_times.append(loaded - start)
            self.reports.append(report)
            self.logs.append(timed)
            self.attempted += 1 + len(timed.actions)
            done = len(self.reports)
            if (done == self.rounds if self.rounds is not None
                    else time.perf_counter() - wall_start >= self.seconds):
                break
        self.act_s = self.clock.now() - phase_start
        self.act_queries = self._queries() - queries

    def _queries(self):
        if self.tracer is None:
            return 0
        return self.tracer.calls["neighbors.query"]

    def measure(self):
        """The timed phases, with the clock probing the host's speed; peak
        memory is read before the checks."""
        self.wall_s = {}
        with self.clock:
            for name, phase in (("setup", self.setup),
                                ("derive", self.derive), ("act", self.act)):
                start = time.perf_counter()
                phase()
                self.wall_s[name] = time.perf_counter() - start
        self.timed_s = (sum(self.setup_times) + sum(self.derive_times)
                        + self.act_s)
        self.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024)

    def result(self) -> dict:
        """Metrics, after checking every output against the oracle."""
        latency = [x for p in self.logs for x in p.latency]
        centiles = statistics.quantiles(latency, n=100)
        metrics = {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "time_to_policy_s": (statistics.median(self.derive_times), "s"),
            "decide_ms_p50": (1e3 * centiles[49], "ms"),
            "decide_ms_p95": (1e3 * centiles[94], "ms"),
            "decide_ms_mean": (1e3 * statistics.fmean(latency), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }
        self.check()
        failed = sum(1 for _, ok, _ in self.checks if not ok)
        return {
            "workload": self.w.name, "seed": self.seed,
            "correct": failed == 0, "attempted": self.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "rounds": len(self.reports), "decisions": len(latency),
            "timed_s": self.timed_s,
            # steady for a seed, but it grows faster than the core state
            # count (the diameter scan is quadratic), so it spreads over seeds
            "policy_load_s": statistics.median(self.load_times),
            "wall_s": self.wall_s,
            "host_speed": self.clock.summary(),
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in self.checks],
            "quality": self.quality,
            "returns": {
                "adac": self.reports[0].episode_returns,
                "cyclic": self.cyclic_returns,
                "eval_seeds": self.eval_seeds,
                "sweep_c": getattr(self, "c_rows", None),
                "sweep_k": getattr(self, "k_rows", None),
            },
        }

    # ------------------------------------------------------------------
    # checks against the oracle
    # ------------------------------------------------------------------

    def _check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1

    def _quality(self, name, holds, detail):
        """A claim about the method, reported but not gated: on some seeds
        the greedy policy leaves the data and stalls (see README)."""
        self.quality.append({"name": name, "holds": bool(holds),
                             "detail": detail})

    def check(self):
        batch, mdp, solution = self.loaded_batch, self.mdp, self.solution
        self._check("batch_round_trip",
                    hash(batch.transitions) == self.batch_hash)
        diameter = oracle.exact_diameter(batch.transitions, mdp.norm)
        self._check("diameter", diameter == self.index.diameter,
                    f"oracle {diameter!r}, index {self.index.diameter!r}")
        self._check("core_states", list(mdp.core)
                    == oracle.distinct_next_states(batch.transitions))

        ref = oracle.Oracle(batch.transitions, batch.action_count, mdp.k,
                            mdp.alpha, diameter, mdp.norm)
        rng = np.random.default_rng(self.seed)
        n = mdp.num_states()
        states = sorted(set(rng.choice(n, size=min(CHECK_STATES, n),
                                       replace=False).tolist())
                        | {si for si, _ in mdp.empty_pairs[:CHECK_STATES]})
        in_memory = adac.policies.GreedyDerivedPolicy(mdp, solution,
                                                      self.index)
        for name, ok, detail in oracle.check_solved_mdp(
                mdp, solution, ref, states, TOL,
                greedy=lambda s: in_memory.act(s, 0)):
            self._check(name, ok, detail)

        first = self.logs[0]
        probe = [mdp.core[si] for si in states] + first.states[
            ::max(1, len(first.states) // CHECK_DECISIONS)]
        reloaded = self.reloaded
        self._check("reload_decides_as_in_memory",
                    all(reloaded.act(s, 0) == in_memory.act(s, 0)
                        for s in probe)
                    and np.array_equal(reloaded.mdp.reward, mdp.reward)
                    and np.array_equal(reloaded.solution.q, solution.q),
                    f"{len(probe)} states")
        self._check("rounds_agree",
                    all(p.actions == first.actions for p in self.logs)
                    and all(r.episode_returns == self.reports[0].episode_returns
                            for r in self.reports),
                    f"{len(self.logs)} rounds")

        schedule = eval_schedule(self.w)
        phases = self.eval_config.phases
        h = self.w.horizon
        replayed, cyclic, seen = [], [], []
        for e, seed in enumerate(self.eval_seeds):
            actions = first.actions[e * h:(e + 1) * h]
            episode = (schedule, phases, CAPACITY, self.start.queues, h)
            served, obs = oracle.simulate(*episode, oracle.replay(actions),
                                          seed, t0=e * h)
            replayed.append(served)
            seen += obs
            cyclic.append(oracle.simulate(*episode, oracle.cyclic(len(phases)),
                                          seed, t0=e * h)[0])
        self.cyclic_returns = cyclic
        returns = self.reports[0].episode_returns
        self._check("replayed_returns", replayed == returns
                    and seen == first.states,
                    f"program {returns}, replay {replayed}")
        adac_mean, cyclic_mean = np.mean(returns), np.mean(cyclic)
        self._quality("adac_beats_cyclic", adac_mean >= cyclic_mean,
                    f"A-DAC {adac_mean:.1f}, cyclic {cyclic_mean:.1f}")

        if self.w.sweep:
            grid = [row["mean_return"] for row in self.c_rows
                    if row["c"] != "A-DAC"]
            adaptive = [row["mean_return"] for row in self.c_rows
                        if row["c"] == "A-DAC"][0]
            self._quality("sweep_adac_vs_best_c",
                          adaptive >= 0.95 * max(grid),
                          f"A-DAC {adaptive:.1f}, best C {max(grid):.1f}")
            k_returns = [row["mean_return"] for row in self.k_rows]
            spread = (max(k_returns) - min(k_returns)) / np.mean(k_returns)
            self._quality("sweep_k_spread", spread <= 0.15,
                          f"spread {spread:.3f}")
            self._check("sweep_adac_row_is_policy",
                        adaptive == self.reports[0].mean_return,
                        f"row {adaptive}, policy {self.reports[0].mean_return}")

        demo = adac.evaluation.two_flow_demo()
        ref_demo = oracle.two_flow_reference()
        self._check("two_flow_demo",
                    demo["cyclic"] == ref_demo["cyclic"] == 300.0
                    and demo["fixed_ew_ew_ns_ew"]
                    == ref_demo["fixed_ew_ew_ns_ew"] == 400.0
                    and demo["adac"] >= 390.0,
                    f"cyclic {demo['cyclic']}, A-DAC {demo['adac']}, "
                    f"cycle {demo['fixed_ew_ew_ns_ew']}")


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------

PER_LAYER_UNITS = {
    "policies.collect_s": "s",
    "traffic.env_steps": "count",
    "dataset.save_batch_s": "s",
    "dataset.load_batch_s": "s",
    "dataset.batch_mb": "MB",
    "neighbors.diameter_s": "s",
    "neighbors.build_index_self_s": "s",
    "neighbors.query_calls": "count",
    "neighbors.query_s": "s",
    "neighbors.query_us_p50": "us",
    "derivation.build_mdp_s": "s",
    "derivation.build_mdp_self_s": "s",
    "derivation.core_states": "count",
    "derivation.empty_pairs": "count",
    "derivation.mdp_to_json_s": "s",
    "derivation.mdp_from_json_s": "s",
    "derivation.mdp_json_mb": "MB",
    "planner.value_iteration_s": "s",
    "planner.sweeps": "count",
    "planner.sweep_ms": "ms",
    "planner.solution_json_s": "s",
    "planner.greedy_action_calls": "count",
    "planner.lookup_q_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.decisions": "count",
    "evaluation.distinct_states": "count",
    "evaluation.queries_per_decision": "ratio",
    "evaluation.cycles": "count",
    "trace.overhead_pct": "%",
}


def per_layer(run: Run, tr: Tracer) -> dict:
    """Per-layer figures; a metric whose traced function no longer exists
    is reported with value None."""
    def get(table, name, *more):
        if any(n not in tr.present for n in (name,) + more):
            return None
        return sum(table[n] for n in (name,) + more)

    def ratio(a, b, scale=1.0):
        return None if a is None or not b else scale * a / b

    query_times = tr.durations["neighbors.query"]
    decisions = sum(len(p.actions) for p in run.logs)
    sweeps = (tr.counts["planner.sweeps"]
              if "planner.value_iteration" in tr.present else None)
    values = {
        "policies.collect_s": get(tr.total, "policies.collect"),
        "traffic.env_steps": get(tr.calls, "traffic.step"),
        "dataset.save_batch_s": get(tr.total, "dataset.save_batch"),
        "dataset.load_batch_s": get(tr.total, "dataset.load_batch"),
        "dataset.batch_mb": os.path.getsize(run.batch_path) / 1e6,
        "neighbors.diameter_s": get(tr.total, "neighbors.diameter"),
        "neighbors.build_index_self_s": get(tr.self_time,
                                            "neighbors.build_index"),
        "neighbors.query_calls": get(tr.calls, "neighbors.query"),
        "neighbors.query_s": get(tr.total, "neighbors.query"),
        "neighbors.query_us_p50": (1e6 * statistics.median(query_times)
                                   if query_times else None),
        "derivation.build_mdp_s": get(tr.total, "derivation.build_mdp"),
        "derivation.build_mdp_self_s": get(tr.self_time,
                                           "derivation.build_mdp"),
        "derivation.core_states": run.mdp.num_states(),
        "derivation.empty_pairs": len(run.mdp.empty_pairs),
        "derivation.mdp_to_json_s": get(tr.total, "derivation.mdp_to_json"),
        "derivation.mdp_from_json_s": get(tr.total,
                                          "derivation.mdp_from_json"),
        "derivation.mdp_json_mb": os.path.getsize(run.mdp_path) / 1e6,
        "planner.value_iteration_s": get(tr.total, "planner.value_iteration"),
        "planner.sweeps": sweeps,
        "planner.sweep_ms": ratio(get(tr.total, "planner.value_iteration"),
                                  sweeps, 1e3),
        "planner.solution_json_s": get(tr.total, "planner.solution_to_json",
                                       "planner.solution_from_json"),
        "planner.greedy_action_calls": get(tr.calls, "planner.greedy_action"),
        "planner.lookup_q_s": get(tr.total, "planner.lookup_q"),
        "evaluation.evaluate_s": get(tr.total, "evaluation.evaluate"),
        "evaluation.decisions": decisions,
        "evaluation.distinct_states": len(set(run.logs[0].states)),
        "evaluation.queries_per_decision": ratio(
            run.act_queries if "neighbors.query" in tr.present else None,
            decisions),
        "evaluation.cycles": (len(run.c_rows) + len(run.k_rows)
                              if run.w.sweep else 0),
    }
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
            for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int,
                        help="act rounds to run instead of --seconds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), args.rounds,
                          os.path.dirname(os.path.abspath(args.out)))
    _write(args.out, json.dumps(result, indent=1))
    return 0


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 rounds: int | None, work_parent) -> dict:
    """Run one workload in a fresh working directory under `work_parent`;
    a traced run adds its per-layer metrics and spans to the result."""
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=work_parent)
    clock = ReferenceClock()
    tracer = Tracer(clock.now) if trace else None
    try:
        run = Run(w, seed, seconds, workdir, clock, tracer, rounds)
        if tracer is None:
            run.measure()
            return run.result()
        tracer.install()
        try:
            run.measure()
        finally:
            tracer.uninstall()
        result = run.result()
        result["per_layer"] = per_layer(run, tracer)
        result["spans"] = tracer.spans
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
