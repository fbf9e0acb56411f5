"""Synthetic signalized-intersection environments.

A configuration declares traffic flows with arrival rates, phases (sets of
non-conflicting flows served together, forming the action space), a
per-flow service capacity, and optionally a piecewise-constant rate
schedule. One step is arrive-then-serve: every flow gains its arrivals,
then each flow in the chosen phase is served up to capacity. The reward is
the number of vehicles served and the observed state is the post-service
queue vector. Queues are unbounded; capacity is a service rate, not a
storage bound.

Poisson arrivals come from the generator passed in, and nothing else in
the environment draws from it (policies own their generators). A rollout
draws all its arrivals with one `rng.poisson` call over its (horizon,
flows) rate matrix; numpy draws an array argument element by element in C
order, so this is the stream of one scalar draw per flow per step, step
by step and flow by flow within a step, and the generator ends in the same
state. Episodes collected one after another continue that stream.
"""

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .dataset import State, only, read_json

# numpy's largest Poisson rate: the int64 maximum less ten of its square roots
POISSON_MAX = float(np.iinfo(np.int64).max
                    - 10 * np.sqrt(np.iinfo(np.int64).max))


@dataclass(frozen=True)
class IntersectionEnvConfig:
    flows: tuple[tuple[str, float], ...]          # (name, arrival rate per step)
    phases: tuple[tuple[int, ...], ...]           # flow indices per action
    capacity: int = 4
    arrivals: str = "deterministic"               # "deterministic" | "poisson"
    schedule: tuple[tuple[int, tuple[float, ...]], ...] | None = None
    horizon: int = 360

    def __post_init__(self):
        if not self.flows:
            raise ValueError("at least one flow required")
        if not self.phases:
            raise ValueError("at least one phase required")
        for phase in self.phases:
            if not phase:
                raise ValueError("empty phase")
            for i in phase:
                if not (only([i], int) and 0 <= i < len(self.flows)):
                    raise ValueError(f"phase references unknown flow {i!r}, "
                                     f"not an integer in [0, {len(self.flows)})")
            if len(set(phase)) != len(phase):
                raise ValueError(f"phase {phase!r} names a flow twice")
        for name, count in (("capacity", self.capacity),
                            ("horizon", self.horizon)):
            if not (only([count], int) and count >= 1):
                raise ValueError(f"{name} {count!r} is not an integer >= 1")
        if self.arrivals not in ("deterministic", "poisson"):
            raise ValueError(f"unknown arrival model {self.arrivals!r}")
        if self.schedule is not None and not self.schedule:
            raise ValueError("empty schedule")
        for steps, seg_rates in self.schedule or ():
            if not (only([steps], int) and steps >= 1):
                raise ValueError(f"schedule entries need positive durations: "
                                 f"steps {steps!r} is not an integer >= 1")
            if len(seg_rates) != len(self.flows):
                raise ValueError("schedule rate vector length mismatch")
        # the flows' rates, then every schedule segment's
        for rates in (self.rates, *(seg for _, seg in self.schedule or ())):
            for rate in rates:
                # also false for nan, and for an int beyond float range
                if not (only([rate], (int, float))
                        and 0 <= rate <= sys.float_info.max):
                    raise ValueError(f"arrival rates must be finite and "
                                     f"non-negative, got {rate!r}")
                if self.arrivals == "poisson" and rate > POISSON_MAX:
                    raise ValueError(f"Poisson arrival rates must be at most "
                                     f"numpy's {POISSON_MAX!r}, got {rate!r}")
                if self.arrivals == "deterministic" and rate != int(rate):
                    raise ValueError(
                        "deterministic arrivals require integer rates")

    @property
    def action_count(self) -> int:
        return len(self.phases)

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(rate for _, rate in self.flows)


@dataclass(frozen=True)
class EnvState:
    queues: tuple[int, ...]
    t: int = 0


@dataclass
class RolloutResult:
    """One episode as columns: the horizon + 1 observations (the start's
    first; the policy saw all but the last), the actions as the policy
    returned them and the rewards."""
    cumulative_reward: float
    discounted_return: float
    observations: list[State] = field(repr=False)
    actions: list = field(repr=False)
    rewards: list[float] = field(repr=False)


def _rates(config: IntersectionEnvConfig, t0: int,
           steps: int) -> list[tuple[float, ...]]:
    """Arrival rates in effect at environment steps t0, ..., t0 + steps - 1.

    Schedule entries cover consecutive step ranges; past the end the last
    entry's rates stay in effect.
    """
    if config.schedule is None:
        return [config.rates] * steps
    rows, elapsed = [], 0
    for seg_steps, seg_rates in config.schedule:
        elapsed += seg_steps
        # rows holds steps t0, ..., t0 + len(rows) - 1 so far
        rows += [tuple(seg_rates)] * max(
            0, min(elapsed, t0 + steps) - t0 - len(rows))
    return rows + [tuple(config.schedule[-1][1])] * (steps - len(rows))


def _arrivals(config: IntersectionEnvConfig, t0: int, steps: int,
              rng: np.random.Generator | None) -> list[list[int]]:
    """Every flow's arrivals at environment steps t0, ..., t0 + steps - 1,
    one row per step; Poisson arrivals are one draw over the rate matrix."""
    rates = _rates(config, t0, steps)
    if config.arrivals == "deterministic":
        return [list(map(int, row)) for row in rates]
    if rng is None:
        raise ValueError("poisson arrivals require an rng")
    return rng.poisson(rates).tolist()


def check_queues(config: IntersectionEnvConfig, queues) -> None:
    """ValueError unless the queues are one non-negative count per flow."""
    if len(queues) != len(config.flows) or min(queues) < 0:
        raise ValueError(f"queues {queues!r} do not fit the env's "
                         f"{len(config.flows)} flows: one non-negative count "
                         "per flow")


def _arrive_serve(config: IntersectionEnvConfig, queues: list, arrived,
                  action: int) -> int:
    """One step on `queues`, in place: every flow gains its arrivals, then
    each flow in the action's phase is served up to capacity. Returns the
    vehicles served."""
    if not 0 <= action < config.action_count:
        raise ValueError(f"invalid action {action}")
    for i, n in enumerate(arrived):
        queues[i] += n
    served = 0
    for i in config.phases[action]:
        take = min(queues[i], config.capacity)
        queues[i] -= take
        served += take
    return served


def step(config: IntersectionEnvConfig, state: EnvState, action: int,
         rng: np.random.Generator | None = None) -> tuple[EnvState, float]:
    """Arrive-then-serve transition; returns (next state, vehicles served)."""
    check_queues(config, state.queues)
    queues = list(state.queues)
    served = _arrive_serve(config, queues,
                           _arrivals(config, state.t, 1, rng)[0], action)
    return EnvState(tuple(queues), state.t + 1), float(served)


def rollout(config: IntersectionEnvConfig, start: EnvState, policy,
            horizon: int, gamma: float = 0.99,
            rng: np.random.Generator | None = None) -> RolloutResult:
    """Run `policy` for `horizon` steps from `start`.

    The policy sees the queue observation and the within-episode step
    index; the environment clock (used by rate schedules) starts at
    start.t and may be offset by the caller.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    check_queues(config, start.queues)
    queues = list(start.queues)
    obs = tuple(map(float, queues))
    observations, actions, rewards = [obs], [], []
    for j, arrived in enumerate(_arrivals(config, start.t, horizon, rng)):
        action = policy.act(obs, j)
        rewards.append(float(_arrive_serve(config, queues, arrived, action)))
        actions.append(action)
        obs = tuple(map(float, queues))
        observations.append(obs)
    cumulative = 0.0
    discounted = 0.0
    for j, reward in enumerate(rewards):
        cumulative += reward
        discounted += (gamma ** j) * reward
    return RolloutResult(cumulative, discounted, observations, actions,
                         rewards)


def two_flow_config() -> IntersectionEnvConfig:
    """The two-flow deterministic intersection: NS arrives at 1 and EW at 3
    vehicles per step, capacity 4, horizon 100; action 0 serves NS, 1
    serves EW."""
    return IntersectionEnvConfig(flows=(("NS", 1.0), ("EW", 3.0)),
                                 phases=((0,), (1,)), horizon=100)


def check_fit(config: IntersectionEnvConfig, dim: int, action_count: int,
              what: str) -> None:
    """ValueError unless the env has one flow per coordinate of the states
    and one phase per action of `what`, the artifact they are from."""
    if (len(config.flows), config.action_count) != (dim, action_count):
        raise ValueError(f"env flow count {len(config.flows)} and phase "
                         f"count {config.action_count} do not fit the "
                         f"{what}'s state dimension {dim} and action count "
                         f"{action_count}")


def reward_bound(config: IntersectionEnvConfig) -> float:
    return float(config.capacity * max(len(p) for p in config.phases))


def config_to_json(config: IntersectionEnvConfig) -> str:
    return json.dumps({
        "flows": [{"name": n, "rate": r} for n, r in config.flows],
        "phases": [list(p) for p in config.phases],
        "capacity": config.capacity,
        "arrivals": config.arrivals,
        "schedule": None if config.schedule is None else [
            {"steps": s, "rates": list(r)} for s, r in config.schedule],
        "horizon": config.horizon,
    }, indent=2)


def config_from_json(text: str) -> IntersectionEnvConfig:
    """Parse a config written by config_to_json; ValueError unless it is one."""
    return read_json(text, "env config", lambda doc: IntersectionEnvConfig(
        flows=tuple((f["name"], f["rate"]) for f in doc["flows"]),
        phases=tuple(map(tuple, doc["phases"])),
        capacity=doc.get("capacity", 4),
        arrivals=doc.get("arrivals", "deterministic"),
        schedule=None if doc.get("schedule") is None else tuple(
            (e["steps"], tuple(e["rates"])) for e in doc["schedule"]),
        horizon=doc.get("horizon", 360),
    ))
