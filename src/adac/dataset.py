"""Experience data types, batch validation, statistics, and JSONL serialization.

A batch is an ordered list of (s, a, r, s') transitions tagged with a
trajectory id and a step index. States are fixed-length vectors of
non-negative vehicle counts. Serialization is JSON Lines, one transition
per line, with an optional leading meta record carrying declared
action_count / reward_bound when they exceed the observed maxima.
"""

import json
import math
from dataclasses import dataclass

State = tuple[float, ...]


class BatchError(ValueError):
    """Raised on malformed batch files or inconsistent batch contents."""


@dataclass(frozen=True)
class Transition:
    s: State
    a: int
    r: float
    s_next: State
    traj_id: int
    t: int


@dataclass(frozen=True)
class Batch:
    transitions: tuple[Transition, ...]
    action_count: int
    dim: int
    reward_bound: float

    def __len__(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class BatchStats:
    count: int
    per_action: dict[int, int]
    reward_min: float
    reward_max: float
    reward_mean: float
    dim: int


def _check_state(coords, where: str) -> State:
    if not isinstance(coords, (list, tuple)):
        raise BatchError(f"{where}: state is not a sequence")
    out = []
    for c in coords:
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise BatchError(f"{where}: non-numeric coordinate {c!r}")
        c = float(c)
        if not math.isfinite(c) or c < 0:
            raise BatchError(f"{where}: coordinate {c} is negative or non-finite")
        out.append(c)
    if not out:
        raise BatchError(f"{where}: empty state vector")
    return tuple(out)


def make_batch(transitions, action_count: int | None = None,
               reward_bound: float | None = None) -> Batch:
    """Validate transitions and assemble a Batch.

    action_count / reward_bound default to the observed maxima. Trajectories
    must be contiguous runs of equal traj_id with strictly increasing t.
    """
    transitions = tuple(transitions)
    if not transitions:
        raise BatchError("empty batch")
    dim = len(transitions[0].s)
    seen_trajs: set[int] = set()
    prev_traj = None
    prev_t = None
    max_a = 0
    max_r = -math.inf
    for i, tr in enumerate(transitions):
        where = f"transition {i}"
        if len(tr.s) != dim or len(tr.s_next) != dim:
            raise BatchError(f"{where}: dimension mismatch (expected {dim})")
        _check_state(tr.s, where)
        _check_state(tr.s_next, where)
        if isinstance(tr.a, bool) or not isinstance(tr.a, int) or tr.a < 0:
            raise BatchError(f"{where}: action {tr.a!r} is not a non-negative integer")
        if not math.isfinite(tr.r):
            raise BatchError(f"{where}: non-finite reward")
        if tr.traj_id != prev_traj:
            if tr.traj_id in seen_trajs:
                raise BatchError(f"{where}: trajectory {tr.traj_id} is not contiguous")
            seen_trajs.add(tr.traj_id)
            prev_traj = tr.traj_id
            prev_t = tr.t
        else:
            if tr.t <= prev_t:
                raise BatchError(f"{where}: step index not strictly increasing "
                                 f"within trajectory {tr.traj_id}")
            prev_t = tr.t
        max_a = max(max_a, tr.a)
        max_r = max(max_r, tr.r)
    if action_count is None:
        action_count = max_a + 1
    elif max_a >= action_count:
        raise BatchError(f"action {max_a} out of range for action_count {action_count}")
    if reward_bound is None:
        reward_bound = max(max_r, 0.0)
    elif reward_bound < max_r:
        raise BatchError(f"reward_bound {reward_bound} below observed maximum {max_r}")
    return Batch(transitions, action_count, dim, float(reward_bound))


def load_batch(path) -> Batch:
    """Load a JSONL batch file; every malformed line reports its line number."""
    transitions = []
    meta = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BatchError(f"line {lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise BatchError(f"line {lineno}: record is not an object")
            if lineno == 1 and "meta" in rec:
                meta = rec["meta"]
                continue
            missing = [k for k in ("s", "a", "r", "sp", "traj", "t") if k not in rec]
            if missing:
                raise BatchError(f"line {lineno}: missing fields {missing}")
            where = f"line {lineno}"
            s = _check_state(rec["s"], where)
            sp = _check_state(rec["sp"], where)
            a = rec["a"]
            if isinstance(a, bool) or not isinstance(a, int) or a < 0:
                raise BatchError(f"{where}: action {a!r} is not a non-negative integer")
            r = rec["r"]
            if isinstance(r, bool) or not isinstance(r, (int, float)):
                raise BatchError(f"{where}: non-numeric reward {r!r}")
            traj, t = rec["traj"], rec["t"]
            if type(traj) is not int or type(t) is not int:
                raise BatchError(f"{where}: traj/t must be integers")
            transitions.append(Transition(s, a, float(r), sp, traj, t))
    action_count = reward_bound = None
    if meta is not None:
        if not isinstance(meta, dict):
            raise BatchError("line 1: meta record is not an object")
        action_count = meta.get("action_count")
        reward_bound = meta.get("reward_bound")
        if action_count is not None and (type(action_count) is not int
                                         or action_count < 0):
            raise BatchError(f"line 1: meta action_count {action_count!r} "
                             "is not a non-negative integer")
        if reward_bound is not None and (
                type(reward_bound) not in (int, float)
                or not math.isfinite(reward_bound)):
            raise BatchError(f"line 1: meta reward_bound {reward_bound!r} "
                             "is not a finite number")
    return make_batch(transitions, action_count, reward_bound)


def save_batch(batch: Batch, path) -> None:
    """Write JSONL; round-trips through load_batch bit-exactly.

    The meta line is emitted only when the declared action_count or
    reward_bound is not recoverable from the records alone.
    """
    max_a = max(tr.a for tr in batch.transitions)
    max_r = max(tr.r for tr in batch.transitions)
    with open(path, "w", encoding="utf-8") as fh:
        if batch.action_count != max_a + 1 or batch.reward_bound != max(max_r, 0.0):
            fh.write(json.dumps({"meta": {
                "action_count": batch.action_count,
                "reward_bound": batch.reward_bound,
                "dim": batch.dim,
            }}) + "\n")
        for tr in batch.transitions:
            fh.write(json.dumps({
                "s": list(tr.s), "a": tr.a, "r": tr.r, "sp": list(tr.s_next),
                "traj": tr.traj_id, "t": tr.t,
            }) + "\n")


def core_states(batch: Batch) -> list[State]:
    """Deduplicated next-states in order of first appearance (exact equality)."""
    seen: set[State] = set()
    out: list[State] = []
    for tr in batch.transitions:
        if tr.s_next not in seen:
            seen.add(tr.s_next)
            out.append(tr.s_next)
    return out


def batch_stats(batch: Batch) -> BatchStats:
    per_action = {a: 0 for a in range(batch.action_count)}
    rewards = []
    for tr in batch.transitions:
        per_action[tr.a] += 1
        rewards.append(tr.r)
    return BatchStats(
        count=len(batch.transitions),
        per_action=per_action,
        reward_min=min(rewards),
        reward_max=max(rewards),
        reward_mean=sum(rewards) / len(rewards),
        dim=batch.dim,
    )


def concat_batches(batches) -> Batch:
    """Concatenate batches, renumbering trajectory ids to stay distinct."""
    batches = list(batches)
    if not batches:
        raise BatchError("empty batch")
    dim = batches[0].dim
    transitions = []
    next_traj = 0
    for b in batches:
        if b.dim != dim:
            raise BatchError("dimension mismatch between batches")
        remap: dict[int, int] = {}
        for tr in b.transitions:
            if tr.traj_id not in remap:
                remap[tr.traj_id] = next_traj
                next_traj += 1
            transitions.append(Transition(tr.s, tr.a, tr.r, tr.s_next,
                                          remap[tr.traj_id], tr.t))
    action_count = max(b.action_count for b in batches)
    reward_bound = max(b.reward_bound for b in batches)
    return make_batch(transitions, action_count, reward_bound)
