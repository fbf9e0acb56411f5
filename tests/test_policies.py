import dataclasses
import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from adac import policies
from adac.dataset import (COLUMNS, BatchError, load_batch, make_batch,
                          save_batch)
from adac.derivation import PenaltyMode, build_mdp, mdp_from_json, mdp_to_json
from adac.neighbors import build_index
from adac.planner import (greedy_action, solution_from_json, solution_to_json,
                          value_iteration)
from adac.policies import (CyclicPolicy, EpsilonNoisyPolicy, FixedCyclePolicy,
                           GreedyDerivedPolicy, ProportionalPolicy,
                           RandomPolicy, collect)
from adac.traffic import (EnvState, IntersectionEnvConfig, rollout,
                          two_flow_config)


class TestCyclic:
    def test_index_order(self):
        policy = CyclicPolicy(2)
        assert [policy.act((0.0,), t) for t in range(4)] == [0, 1, 0, 1]

    def test_histogram_uniform_within_one(self):
        policy = CyclicPolicy(3)
        counts = Counter(policy.act((0.0,), t) for t in range(100))
        assert max(counts.values()) - min(counts.values()) <= 1


class TestEpsilonNoisy:
    def test_zero_epsilon_identical_to_base(self):
        base = CyclicPolicy(2)
        noisy = EpsilonNoisyPolicy(base, 0.0, 2, seed=1)
        for t in range(1000):
            assert noisy.act((0.0,), t) == base.act((0.0,), t)

    def test_full_epsilon_roughly_uniform(self):
        noisy = EpsilonNoisyPolicy(CyclicPolicy(2), 1.0, 4, seed=2)
        counts = Counter(noisy.act((0.0,), t) for t in range(4000))
        for a in range(4):
            assert 800 <= counts[a] <= 1200

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            EpsilonNoisyPolicy(CyclicPolicy(2), 1.5, 2)


class TestRandom:
    def test_seeded_reproducibility(self):
        a = [RandomPolicy(3, seed=7).act((0.0,), t) for t in range(50)]
        b = [RandomPolicy(3, seed=7).act((0.0,), t) for t in range(50)]
        assert a == b


class TestProportional:
    def test_two_flow_shares(self):
        policy = ProportionalPolicy((1.0, 3.0), period=4)
        acts = [policy.act((0.0,), t) for t in range(4)]
        assert Counter(acts) == {0: 1, 1: 3}

    def test_largest_remainder_with_tie(self):
        policy = ProportionalPolicy((1.0, 1.0, 1.0), period=4)
        counts = Counter(policy.act((0.0,), t) for t in range(4))
        assert counts == {0: 2, 1: 1, 2: 1}   # tie resolved to lowest index

    def test_exact_shares(self):
        policy = ProportionalPolicy((2.0, 3.0, 5.0), period=10)
        counts = Counter(policy.act((0.0,), t) for t in range(10))
        assert counts == {0: 2, 1: 3, 2: 5}

    def test_total_steps_equals_period(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            rates = [float(x) for x in rng.uniform(0.1, 5, size=n)]
            period = int(rng.integers(1, 30))
            policy = ProportionalPolicy(rates, period)
            assert len(policy.schedule) == period


class TestGreedyDerived:
    def test_worked_example_action(self, table1):
        index = build_index(table1)
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive(), index=index)
        sol = value_iteration(mdp, tol=1e-9)
        policy = GreedyDerivedPolicy(mdp, sol, index)
        assert policy.act((1.0, 4.0), 0) == 1

    def test_rejects_mismatched_artifacts(self, table1):
        index = build_index(table1)
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive(), index=index)
        sol = value_iteration(mdp, tol=1e-9)
        rows = list(table1.transitions[:-1])
        other = build_index(make_batch(rows, table1.action_count,
                                       table1.reward_bound))
        with pytest.raises(ValueError, match="derived from"):
            GreedyDerivedPolicy(mdp, sol, other)
        short = dataclasses.replace(sol, q=sol.q[:-1])
        with pytest.raises(ValueError, match="solution"):
            GreedyDerivedPolicy(mdp, short, index)
        narrow = dataclasses.replace(sol, q=sol.q[:, :1])
        with pytest.raises(ValueError, match="solution"):
            GreedyDerivedPolicy(mdp, narrow, index)

    def test_rejects_an_index_of_another_norm(self, table1):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        sol = value_iteration(mdp, tol=1e-9)
        with pytest.raises(ValueError, match="manhattan"):
            GreedyDerivedPolicy(mdp, sol, build_index(table1, "manhattan"))

    def test_pure_function_of_state(self, table1):
        index = build_index(table1)
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive(), index=index)
        sol = value_iteration(mdp, tol=1e-9)
        policy = GreedyDerivedPolicy(mdp, sol, index)
        first = [policy.act((x, 4.0), t) for t, x in enumerate(range(8))]
        second = [policy.act((x, 4.0), t) for t, x in enumerate(range(8))]
        assert first == second

    def test_decides_every_step_through_greedy_action(self, monkeypatch):
        config = IntersectionEnvConfig(
            flows=(("a", 0.5), ("b", 0.8), ("c", 1.0)),
            phases=((0,), (1,), (2,)), capacity=3, arrivals="poisson",
            horizon=120)
        start = EnvState((0, 0, 0))
        batch = collect(config, CyclicPolicy(3), 3, 120, start,
                        rng=np.random.default_rng(5))
        index = build_index(batch)
        mdp = build_mdp(batch, k=5, alpha=0.8, gamma=0.99,
                        mode=PenaltyMode.adaptive(), index=index)
        sol = value_iteration(mdp, tol=1e-8)
        calls = Counter()

        def counted(*args):
            calls[tuple(args[3])] += 1
            return greedy_action(*args)

        monkeypatch.setattr(policies, "greedy_action", counted)
        episode = rollout(config, start, GreedyDerivedPolicy(mdp, sol, index),
                          240, rng=np.random.default_rng(6))
        states = episode.observations[:-1]          # the ones it acted on
        assert len(set(states)) < len(states)       # the episode revisits
        # a revisited state is looked up again: nothing is remembered
        assert calls == Counter(states)
        assert episode.actions == [
            greedy_action(mdp, sol, index, s) for s in states]


class TestCollect:
    def test_reconstruction_shape(self):
        config = two_flow_config()
        batch = collect(config, CyclicPolicy(2), 2, 20, EnvState((1, 3)))
        assert len(batch) == 40
        assert batch.action_count == 2
        assert batch.reward_bound == 4.0
        assert sorted({tr.traj_id for tr in batch.transitions}) == [0, 1]

    def test_single_step_episode(self):
        config = two_flow_config()
        batch = collect(config, CyclicPolicy(2), 1, 1, EnvState((1, 3)))
        assert len(batch) == 1

    def test_day_scale_shape(self):
        config = IntersectionEnvConfig(
            flows=tuple((f"f{i}", r) for i, r in
                        enumerate((0.4, 0.6, 0.8, 1.0))),
            phases=((0,), (1,), (2,), (3,)), capacity=4, arrivals="poisson",
            horizon=360)
        rng = np.random.default_rng(9)
        batch = collect(config, CyclicPolicy(4), 24, 360,
                        EnvState((0, 0, 0, 0)), rng=rng)
        assert len(batch) == 24 * 360
        # scaled to 28 episodes this matches the ~10k-step daily batch
        assert 28 * 360 == 10_080

    def test_reward_bound_uses_widest_phase(self):
        config = IntersectionEnvConfig(
            flows=(("a", 1.0), ("b", 1.0), ("c", 1.0)),
            phases=((0, 1), (2,)), capacity=4)
        batch = collect(config, CyclicPolicy(2), 1, 5, EnvState((0, 0, 0)))
        assert batch.reward_bound == 8.0

    def test_round_trips_through_serialization(self, tmp_path):
        config = two_flow_config()
        batch = collect(config, CyclicPolicy(2), 2, 20, EnvState((1, 3)))
        path = tmp_path / "collected.jsonl"
        save_batch(batch, path)
        assert load_batch(path) == batch

    @staticmethod
    def criterion_8_batch():
        """The criterion-8 batch: 28 cyclic episodes of 360 steps, seed 7."""
        flows = tuple((f"flow{i}", r)
                      for i, r in enumerate((0.4, 0.6, 0.8, 1.0)))
        config = IntersectionEnvConfig(
            flows=flows, phases=((0,), (1,), (2,), (3,)), capacity=4,
            arrivals="poisson", horizon=360)
        return collect(config, CyclicPolicy(4), 28, 360,
                       EnvState((0, 0, 0, 0)), rng=np.random.default_rng(7))

    def test_criterion_8_batch_file_is_pinned(self, tmp_path):
        """The criterion-8 batch as save_batch writes it: a change to the
        order of the arrival draws or to the writer's bytes shows here."""
        path = tmp_path / "criterion8.jsonl"
        save_batch(self.criterion_8_batch(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "fdd989a4b874db83ac0b877ae4609d33650632c1f939a8918efab67b43bbbf4c")

    def test_criterion_8_mdp_file_is_pinned(self):
        """The MDP derived from the criterion-8 batch (k 5, alpha 0.8, gamma
        0.99, adaptive) as mdp_to_json writes it, and its transition arrays
        are the stacked matrix that value_iteration solves."""
        mdp = build_mdp(self.criterion_8_batch(), 5, 0.8, 0.99,
                        PenaltyMode.adaptive())
        text = mdp_to_json(mdp)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0762ab6184435cbf500f8540fb96d050d1b50946bd0bc43bcc3870370b66afc1")
        stacked, written = mdp.stacked, json.loads(text)
        for key in ("indptr", "indices", "data"):
            assert written["transition"][key] == getattr(stacked, key).tolist()

    def test_criterion_8_solution_file_is_pinned(self):
        """That MDP's solution (tol 1e-8) as solution_to_json writes it: the
        Q table and how the solve stopped, and nothing derived from q."""
        mdp = build_mdp(self.criterion_8_batch(), 5, 0.8, 0.99,
                        PenaltyMode.adaptive())
        text = solution_to_json(value_iteration(mdp, tol=1e-8))
        assert sorted(json.loads(text)) == ["iterations", "q", "residual",
                                            "tol"]
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "51db568a1bdcccde07c1bb6ebdeddc3e8523e2dbff8c560f1e7173ec306b54df")

    @pytest.mark.parametrize("k, digest", [
        (10, "8dcf64e2d019ffc4dba3f2fd2538b6c5e20556d36feceaeeef371f69aa16cc7a"),
        (2, "0429c0018923e411e43bad830c3fc15e13cad2288eae27ddb284ed9baef47a6c"),
    ])
    def test_criterion_8_solution_files_at_other_k_are_pinned(self, k, digest):
        """The criterion-8 solution (alpha 0.8, gamma 0.99, adaptive, tol
        1e-8) at k 10 and k 2. At k 5 no row holds more than 5 landings; at
        k 10 rows hold up to 10, so a product that sums 8 or more terms out
        of column order changes these bytes."""
        mdp = build_mdp(self.criterion_8_batch(), k, 0.8, 0.99,
                        PenaltyMode.adaptive())
        text = solution_to_json(value_iteration(mdp, tol=1e-8))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("read_back", [False, True])
    def test_criterion_8_arrays_are_pinned(self, read_back):
        """The arrays of the criterion-8 MDP (k 5, alpha 0.8, gamma 0.99,
        adaptive) and of its solution (tol 1e-8), as derived and as read
        back from their files: dtype, shape and the sha256 of their bytes,
        which hold whatever the files' format."""
        mdp = build_mdp(self.criterion_8_batch(), 5, 0.8, 0.99,
                        PenaltyMode.adaptive())
        solution = value_iteration(mdp, tol=1e-8)
        if read_back:
            mdp = mdp_from_json(mdp_to_json(mdp))
            solution = solution_from_json(solution_to_json(solution))
        arrays = {"reward": mdp.reward, "indptr": mdp.stacked.indptr,
                  "indices": mdp.stacked.indices, "data": mdp.stacked.data,
                  "core": np.array(mdp.core, dtype=float), "q": solution.q}
        pins = {
            "reward": ("float64", (3154, 4), "0d79c466624030deeeb7594333cc5c7d"
                       "78a674deb892ae299ae700b73904786e"),
            "indptr": ("int64", (12617,), "85b2943b6224b6192b6cb835a1c657c3"
                       "04a5b2741ddd1f593447adc88d67c733"),
            "indices": ("int64", (60884,), "15babbc3e494438855663bb8cdbfcbe4"
                        "e7fd4b0fbc89e085f89b09e9fa588517"),
            "data": ("float64", (60884,), "b48fca156bf4423a01e6c24b8e698f77"
                     "2011a038fc202abb06456d27f611335a"),
            "core": ("float64", (3154, 4), "f017b20ae640663f2cc1ed1ac21c9906"
                     "160adf4ec4997497af56283de08c11e1"),
            "q": ("float64", (3154, 4), "7ae53d174e79925a119476a626eb6c1e"
                  "5809ab9b035c13ca69c7ab754401a7bc"),
        }
        assert {name: (str(arr.dtype), arr.shape,
                       hashlib.sha256(arr.tobytes()).hexdigest())
                for name, arr in arrays.items()} == pins

    def test_criterion_8_greedy_decisions_are_pinned(self):
        """The greedy policy of that MDP and solution over criterion 8's
        evaluation episodes (five of 360 steps, seeds 101-105, the clock of
        episode i at 360 i through light, base and peak rates): a change to
        the lookup that flips a decision or moves a return shows here."""
        rates = (0.4, 0.6, 0.8, 1.0)
        light, peak = (tuple(r * f for r in rates) for f in (0.5, 1.25))
        config = IntersectionEnvConfig(
            flows=tuple((f"flow{i}", r) for i, r in enumerate(rates)),
            phases=((0,), (1,), (2,), (3,)), capacity=4, arrivals="poisson",
            horizon=360, schedule=((360, light), (360, light), (360, rates),
                                   (360, peak), (360, peak)))
        batch = self.criterion_8_batch()
        mdp = build_mdp(batch, 5, 0.8, 0.99, PenaltyMode.adaptive())
        policy = GreedyDerivedPolicy(mdp, value_iteration(mdp, tol=1e-8),
                                     build_index(batch))
        episodes = [rollout(config, EnvState((0, 0, 0, 0), 360 * ep), policy,
                            360, rng=np.random.default_rng(seed))
                    for ep, seed in enumerate(range(101, 106))]
        text = json.dumps([[e.actions, e.cumulative_reward] for e in episodes])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9a7d64c769136345dfe5fd72f06b2fb593df441ad925ca5edb974399328d5e07")

    def test_criterion_8_batch_loads_in_chunks(self, tmp_path):
        """load_batch holds one chunk of parsed records at a time: its traced
        peak stays within a few times the bytes of the batch's columns (7.5
        times when it held every record at once, 3.4-3.6 times in
        chunks)."""
        batch = self.criterion_8_batch()
        path = tmp_path / "criterion8.jsonl"
        save_batch(batch, path)
        columns = sum(getattr(batch, name).nbytes for name in COLUMNS)
        tracemalloc.start()
        try:
            assert load_batch(path) == batch
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * columns

    def test_criterion_8_mdp_file_reads_into_arrays(self):
        """mdp_from_json keeps the stacked arrays, not a dict per row: what
        it leaves alive stays below twice the file's length (6.3-6.5 times
        when it kept the rows as dicts, 1.4 times as arrays)."""
        text = mdp_to_json(build_mdp(self.criterion_8_batch(), 5, 0.8, 0.99,
                                     PenaltyMode.adaptive()))
        tracemalloc.start()
        try:
            mdp = mdp_from_json(text)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert mdp.num_states() > 1000
        assert kept < 2 * len(text)

    @pytest.mark.parametrize("bad, error, message", [
        (True, BatchError, "action is not a non-negative integer"),
        (np.int64(1), BatchError, "action is not a non-negative integer"),
        (1.0, TypeError, "tuple indices must be integers"),
    ])
    @pytest.mark.parametrize("first_bad", [0, 7])
    def test_an_action_that_is_not_an_int(self, bad, error, message,
                                          first_bad):
        class Policy:
            name = "int-then-bad"
            calls = 0

            def act(self, state, t):
                self.calls += 1
                return bad if self.calls > first_bad else t % 2

        # a bad row is named by its place in the batch, across episodes
        where = f"transition {first_bad}: " if error is BatchError else ""
        with pytest.raises(error, match=where + message):
            collect(two_flow_config(), Policy(), 2, 5, EnvState((1, 3)))

    @pytest.mark.parametrize("start", [(0, 0, 7), (0,), (-5, 0)])
    def test_start_must_fit_the_env(self, start):
        with pytest.raises(ValueError, match="do not fit the env's 2 flows"):
            collect(two_flow_config(), CyclicPolicy(2), 2, 5, EnvState(start))

    def test_rewards_within_bound(self):
        config = two_flow_config()
        batch = collect(config, FixedCyclePolicy([1, 1, 0, 1]), 3, 30,
                        EnvState((1, 3)))
        assert all(0 <= tr.r <= batch.reward_bound
                   for tr in batch.transitions)
