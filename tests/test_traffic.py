import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adac.policies import CyclicPolicy, FixedCyclePolicy
from adac.traffic import (POISSON_MAX, EnvState, IntersectionEnvConfig,
                          config_from_json, config_to_json, rollout, step,
                          two_flow_config)

from conftest import (DEEP_JSON, brute_force_rollout, brute_force_step,
                      json_values)

NS, EW = 0, 1


class LongestQueueFirst:
    """Serve the phase with the most queued vehicles, ties to the lower
    action: a policy that reads the state."""

    name = "longest-queue-first"

    def __init__(self, phases):
        self.phases = phases

    def act(self, state, t):
        totals = [sum(state[i] for i in phase) for phase in self.phases]
        return totals.index(max(totals))


@st.composite
def configs(draw):
    """1-5 flows, phases that may serve several flows, zero and fractional
    Poisson rates (some past 10, where numpy switches method) or integer
    deterministic ones, and an optional schedule of 1-3 segments."""
    flows = draw(st.integers(1, 5))
    poisson = draw(st.booleans())
    rate = (st.one_of(st.just(0.0), st.floats(0, 20)) if poisson
            else st.integers(0, 4).map(float))
    rates = st.tuples(*[rate] * flows)
    phases = draw(st.lists(
        st.sets(st.integers(0, flows - 1), min_size=1).map(sorted).map(tuple),
        min_size=1, max_size=4))
    schedule = draw(st.none() | st.lists(st.tuples(st.integers(1, 20), rates),
                                         min_size=1, max_size=3).map(tuple))
    return IntersectionEnvConfig(
        flows=tuple((f"f{i}", r) for i, r in enumerate(draw(rates))),
        phases=tuple(phases), capacity=draw(st.integers(1, 5)),
        arrivals="poisson" if poisson else "deterministic", schedule=schedule)


def queues_for(config):
    n = len(config.flows)
    return st.lists(st.integers(0, 8), min_size=n, max_size=n).map(tuple)


class TestStep:
    def test_arrive_then_serve_ew(self):
        config = two_flow_config()
        nxt, reward = step(config, EnvState((1, 3)), EW)
        assert reward == 4.0
        assert nxt.queues == (2, 2)

    def test_arrive_then_serve_ns(self):
        config = two_flow_config()
        nxt, reward = step(config, EnvState((1, 3)), NS)
        assert reward == 2.0
        assert nxt.queues == (0, 6)

    def test_zero_rates_empty_queues(self):
        config = IntersectionEnvConfig(
            flows=(("a", 0.0), ("b", 0.0)), phases=((0,), (1,)), capacity=4)
        nxt, reward = step(config, EnvState((0, 0)), 0)
        assert reward == 0.0 and nxt.queues == (0, 0)

    def test_invalid_action(self):
        config = two_flow_config()
        with pytest.raises(ValueError):
            step(config, EnvState((0, 0)), 2)

    def test_poisson_requires_rng(self):
        config = IntersectionEnvConfig(
            flows=(("a", 1.0),), phases=((0,),), arrivals="poisson")
        with pytest.raises(ValueError):
            step(config, EnvState((0,)), 0)

    @pytest.mark.parametrize("queues", [(0, 0, 7), (0,), (-5, 0)])
    def test_queues_must_fit_the_env(self, queues):
        with pytest.raises(ValueError, match=re.escape(
                f"queues {queues!r} do not fit the env's 2 flows")):
            step(two_flow_config(), EnvState(queues), NS)


class TestRollout:
    def test_cyclic_cumulative_300(self):
        config = two_flow_config()
        result = rollout(config, EnvState((1, 3)), CyclicPolicy(2), 100)
        assert result.cumulative_reward == 300.0
        assert result.rewards[:6] == [2.0, 4.0, 2.0, 4.0, 2.0, 4.0]

    def test_fixed_cycle_cumulative_400_and_recurrence(self):
        config = two_flow_config()
        policy = FixedCyclePolicy([EW, EW, NS, EW])
        result = rollout(config, EnvState((1, 3)), policy, 100)
        assert result.cumulative_reward == 400.0
        # hand-verified 4-step loop: (1,3)->(2,2)->(3,1)->(0,4)->(1,3)
        states = result.observations
        assert states[:5] == [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (0.0, 4.0),
                              (1.0, 3.0)]
        for t in range(0, 96, 4):
            assert states[t] == (1.0, 3.0)

    @pytest.mark.parametrize("start", [(0, 0, 7), (0,), (-5, 0)])
    def test_start_must_fit_the_env(self, start):
        with pytest.raises(ValueError, match=re.escape(
                f"queues {start!r} do not fit the env's 2 flows")):
            rollout(two_flow_config(), EnvState(start), CyclicPolicy(2), 100)

    def test_horizon_one(self):
        config = two_flow_config()
        result = rollout(config, EnvState((1, 3)), CyclicPolicy(2), 1)
        assert result.cumulative_reward == 2.0
        assert result.discounted_return == 2.0

    def test_discounted_return_matches_series(self):
        config = two_flow_config()
        result = rollout(config, EnvState((1, 3)), CyclicPolicy(2), 50,
                         gamma=0.9)
        expected = sum((0.9 ** t) * r for t, r in enumerate(result.rewards))
        assert result.discounted_return == pytest.approx(expected, abs=1e-12)

    def test_deterministic_conservation(self):
        config = two_flow_config()
        horizon = 73
        start = EnvState((1, 3))
        result = rollout(config, start, CyclicPolicy(2), horizon)
        served = [0.0, 0.0]
        for flow, r in zip(result.actions, result.rewards):
            served[flow] += r
        final = result.observations[-1]
        for i, rate in enumerate((1.0, 3.0)):
            arrived = rate * horizon
            assert arrived == served[i] + final[i] - start.queues[i]

    def test_poisson_conservation_via_lockstep_resimulation(self):
        config = IntersectionEnvConfig(
            flows=(("a", 0.7), ("b", 1.3)), phases=((0,), (1,)),
            capacity=3, arrivals="poisson")
        start = EnvState((2, 2))
        horizon = 200
        result = rollout(config, start, CyclicPolicy(2), horizon,
                         rng=np.random.default_rng(99))
        # replay the same seed stream and re-derive arrivals independently
        rng = np.random.default_rng(99)
        queues = list(start.queues)
        arrived = [0, 0]
        served = [0.0, 0.0]
        for t in range(horizon):
            for i, rate in enumerate((0.7, 1.3)):
                n = int(rng.poisson(rate))
                arrived[i] += n
                queues[i] += n
            a = t % 2
            take = min(queues[a], 3)
            queues[a] -= take
            served[a] += take
        final = result.observations[-1]
        assert tuple(float(q) for q in queues) == final
        for i in range(2):
            assert arrived[i] == served[i] + final[i] - start.queues[i]

    def test_seeded_rollouts_bit_identical(self):
        config = IntersectionEnvConfig(
            flows=(("a", 0.5), ("b", 1.5)), phases=((0,), (1,)),
            arrivals="poisson")
        r1 = rollout(config, EnvState((0, 0)), CyclicPolicy(2), 50,
                     rng=np.random.default_rng(5))
        r2 = rollout(config, EnvState((0, 0)), CyclicPolicy(2), 50,
                     rng=np.random.default_rng(5))
        assert r1.observations == r2.observations
        assert r1.actions == r2.actions
        assert r1.rewards == r2.rewards
        assert r1.cumulative_reward == r2.cumulative_reward

    def test_poisson_mean_within_3_sigma(self):
        rate = 1.7
        n = 100_000
        rng = np.random.default_rng(6)
        config = IntersectionEnvConfig(
            flows=(("a", rate),), phases=((0,),), capacity=10**9,
            arrivals="poisson")
        state = EnvState((0,))
        total_served = 0.0
        for t in range(n):
            state, reward = step(config, state, 0, rng)
            total_served += reward
        arrivals = total_served + state.queues[0]
        mean = arrivals / n
        sigma = math.sqrt(rate / n)
        assert abs(mean - rate) <= 3 * sigma


class TestAgainstThePerStepLoop:
    # the env clock starts before, inside or past the schedule's end
    @settings(max_examples=150, deadline=None)
    @given(config=configs(), t0=st.integers(-10, 80),
           horizon=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
           state_reading=st.booleans(), gamma=st.sampled_from([0.0, 0.5, 0.99]),
           data=st.data())
    def test_rollout_is_the_per_flow_per_step_draw(self, config, t0, horizon,
                                                   seed, state_reading, gamma,
                                                   data):
        start = EnvState(data.draw(queues_for(config)), t0)

        def policy():
            return (LongestQueueFirst(config.phases) if state_reading
                    else CyclicPolicy(config.action_count))

        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result = rollout(config, start, policy(), horizon, gamma, rng=rng)
        rows, cumulative, discounted = brute_force_rollout(
            config, start, policy(), horizon, gamma, ref_rng)
        assert result.observations == [tr.s for tr in rows] + [rows[-1].s_next]
        assert result.actions == [tr.a for tr in rows]
        assert result.rewards == [tr.r for tr in rows]
        assert result.cumulative_reward.hex() == cumulative.hex()
        assert result.discounted_return.hex() == discounted.hex()
        # collect continues the stream across episodes
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(config=configs(), t=st.integers(-10, 80),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_step_is_the_per_flow_draw(self, config, t, seed, data):
        queues = data.draw(queues_for(config))
        action = data.draw(st.integers(0, config.action_count - 1))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        nxt, reward = step(config, EnvState(queues, t), action, rng)
        want, want_reward = brute_force_step(config, queues, t, action, ref_rng)
        assert nxt == EnvState(tuple(want), t + 1)
        assert reward.hex() == want_reward.hex()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestMultiFlowPhases:
    def test_phase_serves_each_member_up_to_capacity(self):
        config = IntersectionEnvConfig(
            flows=(("a", 0.0), ("b", 0.0), ("c", 0.0)),
            phases=((0, 2), (1,)), capacity=2)
        nxt, reward = step(config, EnvState((5, 5, 1)), 0)
        assert reward == 3.0           # 2 from flow a, 1 from flow c
        assert nxt.queues == (3, 5, 0)


_CONFIG_DOC = config_to_json(IntersectionEnvConfig(
    flows=(("n", 1.0), ("e", 2.0)), phases=((0,), (1,), (0, 1)),
    arrivals="poisson", schedule=((10, (2.0, 1.0)), (5, (3.0, 0.0)))))


@st.composite
def _config_docs(draw):
    """A config document, up to three of whose fields, or entries of its
    first flow, last phase and first schedule entry, are then replaced by
    arbitrary JSON or by small numbers and lists of them."""
    doc = json.loads(_CONFIG_DOC)
    values = st.one_of(json_values, st.integers(-1, 3), st.floats(-1, 3),
                       st.lists(st.integers(-1, 3), max_size=3))
    places = [(doc, key) for key in sorted(doc)] + [
        (doc["flows"][0], "rate"), (doc["phases"][2], 1),
        (doc["schedule"][0], "steps"), (doc["schedule"][0], "rates")]
    for part, key in draw(st.lists(st.sampled_from(places), max_size=3)):
        part[key] = draw(values)
    return doc


class TestConfig:
    def test_json_round_trip(self):
        config = IntersectionEnvConfig(
            flows=(("n", 0.4), ("e", 0.8)), phases=((0,), (1,), (0, 1)),
            capacity=3, arrivals="poisson",
            schedule=((100, (0.2, 0.4)), (100, (0.4, 0.8))), horizon=200)
        assert config_from_json(config_to_json(config)) == config

    @pytest.mark.parametrize("arrivals", ["poisson", "deterministic"])
    @pytest.mark.parametrize("where", ["flow", "segment"])
    # numbers are JSON numbers, never strings or booleans; a Poisson rate
    # stays within numpy's limit
    @pytest.mark.parametrize("rate", ["Infinity", "-Infinity", "NaN", '"3"',
                                      "true", "1e300"])
    def test_json_rejects_a_non_finite_rate(self, arrivals, where, rate):
        doc = json.loads(config_to_json(IntersectionEnvConfig(
            flows=(("n", 1.0), ("e", 2.0)), phases=((0,), (1,)),
            arrivals=arrivals, schedule=((10, (2.0, 1.0)), (5, (3.0, 0.0))))))
        if where == "flow":
            doc["flows"][1]["rate"] = "RATE"
        else:
            doc["schedule"][1]["rates"][0] = "RATE"
        # json reads the bare words Infinity, -Infinity and NaN as floats
        text = json.dumps(doc).replace('"RATE"', rate)
        if rate == "1e300" and arrivals == "deterministic":
            config_from_json(text)      # a whole number of vehicles a step
            return
        with pytest.raises(ValueError, match={
                "Infinity": "finite and non-negative, got inf",
                "-Infinity": "finite and non-negative, got -inf",
                "NaN": "finite and non-negative, got nan",
                '"3"': "finite and non-negative, got '3'",
                "true": "finite and non-negative, got True",
                "1e300": r"at most numpy's 9.223372006484771e\+18, got "
                         r"1e\+300"}[rate]):
            config_from_json(text)

    def test_a_poisson_rate_at_numpy_limit_draws(self):
        config = IntersectionEnvConfig(flows=(("a", POISSON_MAX),),
                                       phases=((0,),), arrivals="poisson")
        result = rollout(config, EnvState((0,)), CyclicPolicy(1), 1,
                         rng=np.random.default_rng(0))
        # about POISSON_MAX vehicles arrived, and the capacity of 4 left
        assert result.cumulative_reward == 4.0
        assert result.observations[1][0] > 0.99 * POISSON_MAX
        # the next float is beyond numpy's limit, and the config's
        above = math.nextafter(POISSON_MAX, math.inf)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(above)
        with pytest.raises(ValueError, match="at most numpy's"):
            IntersectionEnvConfig(flows=(("a", above),), phases=((0,),),
                                  arrivals="poisson")

    @pytest.mark.parametrize("key, value", [
        ("capacity", 2.7), ("capacity", True), ("capacity", "4"),
        ("steps", 2.9), ("steps", True), ("horizon", 2.9), ("horizon", True),
        # a flow index of a phase, which would index the queues
        ("phase", 0.0), ("phase", True), ("phase", "0"),
    ])
    def test_json_rejects_a_non_integer_count(self, key, value):
        doc = json.loads(config_to_json(IntersectionEnvConfig(
            flows=(("n", 1.0),), phases=((0,),), schedule=((10, (2.0,)),))))
        if key == "steps":
            doc["schedule"][0]["steps"] = value
        elif key == "phase":
            doc["phases"][0] = [value]
        else:
            doc[key] = value
        with pytest.raises(ValueError, match=f"{key} .* not an integer"):
            config_from_json(json.dumps(doc))

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(
        st.text(max_size=40),
        json_values.map(json.dumps),
        _config_docs().map(json.dumps)))
    @example(text=DEEP_JSON)
    def test_load_of_arbitrary_json_raises_only_value_error(self, text):
        try:
            config = config_from_json(text)
        except ValueError:
            return
        flows = range(len(config.flows))
        for phase in config.phases:
            assert all(type(i) is int and i in flows for i in phase)
            assert len(set(phase)) == len(phase)
        assert type(config.capacity) is int and config.capacity >= 1

    def test_schedule_lookup(self):
        # capacity above every rate serves each step's arrivals in full, so
        # the rewards are the rates in effect
        config = IntersectionEnvConfig(
            flows=(("n", 1.0),), phases=((0,),), capacity=9,
            schedule=((10, (2.0,)), (10, (5.0,))))
        rewards = rollout(config, EnvState((0,)), CyclicPolicy(1), 100).rewards
        assert rewards[0] == rewards[9] == 2.0
        assert rewards[10] == rewards[99] == 5.0   # holds past the end

    def test_validation(self):
        with pytest.raises(ValueError, match="integer rates"):
            IntersectionEnvConfig(flows=(("a", 0.5),), phases=((0,),))
        with pytest.raises(ValueError, match="unknown flow"):
            IntersectionEnvConfig(flows=(("a", 1.0),), phases=((1,),))
        with pytest.raises(ValueError, match="rate vector length"):
            IntersectionEnvConfig(flows=(("a", 1.0),), phases=((0,),),
                                  schedule=((5, (1.0, 2.0)),))
        # the flows' rates and every schedule segment's pass the same checks
        for flow, segment, message in [(-1.0, 1.0, "non-negative"),
                                       (1.0, -1.0, "non-negative"),
                                       (math.inf, 1.0, "finite"),
                                       (1.0, math.nan, "finite"),
                                       (1.0, 0.5, "integer rates")]:
            with pytest.raises(ValueError, match=message):
                IntersectionEnvConfig(flows=(("a", flow),), phases=((0,),),
                                      schedule=((5, (1.0,)), (5, (segment,))))
        with pytest.raises(ValueError, match="positive durations"):
            IntersectionEnvConfig(flows=(("a", 1.0),), phases=((0,),),
                                  schedule=((0, (1.0,)),))
        # a config built in Python passes the checks of one read from JSON
        for change, message in [
                ({"capacity": 2.5}, "capacity 2.5 is not an integer"),
                ({"horizon": True}, "horizon True is not an integer"),
                ({"phases": ((0.0,),)}, "unknown flow 0.0"),
                ({"flows": (("a", "3"),)}, "got '3'"),
                ({"flows": (("a", True),)}, "got True"),
                ({"schedule": ((2.5, (1.0,)),)}, "steps 2.5"),
                ({"schedule": ()}, "empty schedule"),
                # phases are sets of flows: (0, 0) would serve flow 0 twice
                ({"flows": (("a", 1.0), ("b", 1.0)),
                  "phases": ((0, 0), (1,))}, r"phase \(0, 0\) names a flow "
                                            "twice")]:
            with pytest.raises(ValueError, match=message):
                IntersectionEnvConfig(**{"flows": (("a", 1.0),),
                                         "phases": ((0,),), **change})
        IntersectionEnvConfig(flows=(("a", 0.5),), phases=((0,),),
                              arrivals="poisson", schedule=((5, (0.5,)),))
