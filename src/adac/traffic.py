"""Synthetic signalized-intersection environments.

A configuration declares traffic flows with arrival rates, phases (sets of
non-conflicting flows served together, forming the action space), a
per-flow service capacity, and optionally a piecewise-constant rate
schedule. One step is arrive-then-serve: every flow gains its arrivals,
then each flow in the chosen phase is served up to capacity. The reward is
the number of vehicles served and the observed state is the post-service
queue vector. Queues are unbounded; capacity is a service rate, not a
storage bound.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import State, Transition


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
                if not 0 <= i < len(self.flows):
                    raise ValueError(f"phase references unknown flow {i}")
        if self.capacity < 1:
            raise ValueError("capacity must be a positive integer")
        if self.arrivals not in ("deterministic", "poisson"):
            raise ValueError(f"unknown arrival model {self.arrivals!r}")
        for steps, seg_rates in self.schedule or ():
            if steps < 1:
                raise ValueError("schedule entries need positive durations")
            if len(seg_rates) != len(self.flows):
                raise ValueError("schedule rate vector length mismatch")
        # the flows' rates, then every schedule segment's
        for rates in (self.rates, *(seg for _, seg in self.schedule or ())):
            for rate in rates:
                if rate < 0:
                    raise ValueError("arrival rates must be non-negative")
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

    def observation(self) -> State:
        return tuple(float(q) for q in self.queues)


@dataclass
class RolloutResult:
    cumulative_reward: float
    discounted_return: float
    transitions: list[Transition] = field(repr=False)


def rates_at(config: IntersectionEnvConfig, t: int) -> tuple[float, ...]:
    """Arrival rates in effect at environment step t.

    Schedule entries cover consecutive step ranges; past the end the last
    entry's rates stay in effect.
    """
    if config.schedule is None:
        return config.rates
    elapsed = 0
    for steps, seg_rates in config.schedule:
        if t < elapsed + steps:
            return tuple(seg_rates)
        elapsed += steps
    return tuple(config.schedule[-1][1])


def step(config: IntersectionEnvConfig, state: EnvState, action: int,
         rng: np.random.Generator | None = None) -> tuple[EnvState, float]:
    """Arrive-then-serve transition; returns (next state, vehicles served)."""
    if not 0 <= action < config.action_count:
        raise ValueError(f"invalid action {action}")
    rates = rates_at(config, state.t)
    queues = list(state.queues)
    for i, rate in enumerate(rates):
        if config.arrivals == "poisson":
            if rng is None:
                raise ValueError("poisson arrivals require an rng")
            queues[i] += int(rng.poisson(rate))
        else:
            queues[i] += int(rate)
    served = 0
    for i in config.phases[action]:
        take = min(queues[i], config.capacity)
        queues[i] -= take
        served += take
    return EnvState(tuple(queues), state.t + 1), float(served)


def rollout(config: IntersectionEnvConfig, start: EnvState, policy,
            horizon: int, gamma: float = 0.99,
            rng: np.random.Generator | None = None,
            traj_id: int = 0) -> RolloutResult:
    """Run `policy` for `horizon` steps from `start`.

    The policy sees the queue observation and the within-episode step
    index; the environment clock (used by rate schedules) starts at
    start.t and may be offset by the caller.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    state = start
    cumulative = 0.0
    discounted = 0.0
    transitions = []
    for j in range(horizon):
        obs = state.observation()
        action = policy.act(obs, j)
        state, reward = step(config, state, action, rng)
        transitions.append(Transition(obs, action, reward,
                                      state.observation(), traj_id, j))
        cumulative += reward
        discounted += (gamma ** j) * reward
    return RolloutResult(cumulative, discounted, transitions)


def optimal_green_split(rates, cycle_time: float) -> list[float]:
    """Green durations proportional to arrival rates over one cycle."""
    total = float(sum(rates))
    if total <= 0:
        raise ValueError("at least one positive arrival rate required")
    if cycle_time <= 0:
        raise ValueError("cycle time must be positive")
    return [r * cycle_time / total for r in rates]


def alternating_return(lambda1: float, lambda2: float, gamma: float) -> float:
    """Closed-form discounted return of the idealized two-flow alternation.

    Serving flow 1 on even steps and flow 2 on odd steps, with per-step
    reward lambda_i^2 / (lambda_1 + lambda_2), sums to
    (1/(1-g^2)) * l1^2/(l1+l2) + (g/(1-g^2)) * l2^2/(l1+l2).
    """
    total = lambda1 + lambda2
    if total <= 0:
        raise ValueError("lambda1 + lambda2 must be positive")
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    first = lambda1 * lambda1 / total
    second = lambda2 * lambda2 / total
    return first / (1.0 - gamma * gamma) + gamma * second / (1.0 - gamma * gamma)


def two_flow_config(lambda_ns: int = 1, lambda_ew: int = 3,
                    capacity: int = 4) -> IntersectionEnvConfig:
    """The two-flow deterministic intersection: action 0 serves NS, 1 serves EW."""
    return IntersectionEnvConfig(
        flows=(("NS", float(lambda_ns)), ("EW", float(lambda_ew))),
        phases=((0,), (1,)),
        capacity=capacity,
        arrivals="deterministic",
        horizon=100,
    )


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
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("malformed env config JSON: not an object")
    schedule = doc.get("schedule")

    def integer(x, key: str) -> int:
        if type(x) is not int:
            raise ValueError(f"malformed env config JSON: {key} {x!r} is "
                             "not an integer")
        return x

    try:
        return IntersectionEnvConfig(
            flows=tuple((f["name"], float(f["rate"])) for f in doc["flows"]),
            phases=tuple(tuple(p) for p in doc["phases"]),
            capacity=integer(doc.get("capacity", 4), "capacity"),
            arrivals=doc.get("arrivals", "deterministic"),
            schedule=None if schedule is None else tuple(
                (integer(e["steps"], "steps"),
                 tuple(float(x) for x in e["rates"])) for e in schedule),
            horizon=integer(doc.get("horizon", 360), "horizon"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed env config JSON "
                         f"({type(exc).__name__}: {exc})") from exc
