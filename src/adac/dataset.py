"""Experience data types, batch validation and JSONL serialization.

A batch holds its transitions as read-only arrays, one per field: states
`s` and `s_next` (n, dim) of non-negative vehicle counts, actions `a`,
rewards `r`, trajectory ids `traj` and step indices `t`; `transitions` is
a row view of them, built on first use. Rows (`make_batch`), columns
(`batch_from_columns`) and JSON Lines files (`load_batch`: one transition
per line, after an optional meta record declaring action_count /
reward_bound, read CHUNK lines at a time into columns) pass one validator.

The reading rule of the JSON artifacts lives here too: `only` is the one
test of a JSON number, `read_json` the one decoder of an MDP, solution or
env config, and `number_array` the one reader of their arrays. So does the
spelling rule of the batch and MDP writers: `json_words` spells the numbers
of an array as json.dumps does, each distinct value once.
"""

import json
import math
import sys
from array import array
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, islice
from operator import attrgetter, itemgetter

import numpy as np

State = tuple[float, ...]

COLUMNS = ("s", "a", "r", "s_next", "traj", "t")
_KEYS = ("s", "a", "r", "sp", "traj", "t")    # the columns' keys in a file
_DTYPES = (float, np.int64, float, float, np.int64, np.int64)
_NOT_AN_ACTION = "action is not a non-negative integer"
# record lines that load_batch parses before it turns them into columns
CHUNK = 2048


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


@dataclass(frozen=True, eq=False)
class Batch:
    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s_next: np.ndarray
    traj: np.ndarray
    t: np.ndarray
    action_count: int
    reward_bound: float

    def __post_init__(self):
        freeze(self)

    def __len__(self) -> int:
        return len(self.a)

    def __eq__(self, other) -> bool:
        return isinstance(other, Batch) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in (*COLUMNS, "action_count", "reward_bound"))

    @property
    def dim(self) -> int:
        return self.s.shape[1]

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        return tuple(map(Transition, map(tuple, self.s.tolist()),
                         self.a.tolist(), self.r.tolist(),
                         map(tuple, self.s_next.tolist()),
                         self.traj.tolist(), self.t.tolist()))


def freeze(artifact) -> None:
    """Make every array field of a dataclass read-only: a write into one
    then raises ValueError."""
    for f in fields(artifact):
        value = getattr(artifact, f.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


def only(values, kinds) -> bool:
    """Whether every value is an instance of kinds and none is a bool (json
    reads true and false as bools, which pass for 1 and 0)."""
    return all(issubclass(kind, kinds) and kind is not bool
               for kind in set(map(type, values)))


def read_json(text: str, what: str, build):
    """build(doc) of the JSON object in text. ValueError, "malformed {what}
    JSON: " and the fault, unless text is an object that build takes."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("not an object")
        return build(doc)
    except KeyError as exc:
        raise ValueError(f"malformed {what} JSON: no {exc}") from None
    except (RecursionError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {what} JSON: {exc}") from None


def number_array(value, name: str, ndim: int,
                 integers: bool = False) -> np.ndarray:
    """value as a finite ndim-dimensional float array of JSON numbers, or
    int array of integers; ValueError naming it unless it is one."""
    try:
        arr = np.asarray(value)
    except ValueError:      # ragged nesting
        arr = np.asarray(None)
    # bools pass here, to be named below
    kinds, what = ("biu", "integers") if integers else ("biuf", "numbers")
    if (arr.dtype.kind not in kinds or arr.ndim != ndim
            or not np.all(np.isfinite(arr))):
        raise ValueError(f"{name!r} is not a finite {ndim}-D array of {what}")
    leaves = value
    for _ in range(ndim - 1):
        leaves = chain.from_iterable(leaves)
    if not only(leaves, (int, float)):
        raise ValueError(f"a boolean in {name!r}")
    return arr.astype(int if integers else float, copy=False)


def json_words(arr: np.ndarray) -> tuple[list[str], str]:
    """The JSON word of each element of a finite int64 or float64 array, in
    C order, and the array's nested text, which is json.dumps(arr.tolist())
    exactly.

    Each distinct value is spelled once, by repr as json.dumps spells a
    finite number, and the words are gathered through the np.unique inverse
    of the raveled array (numpy versions differ in the shape of the inverse
    of an n-D input). Floats are keyed by their bits, so -0.0 keeps its
    spelling next to 0.0."""
    flat = np.ravel(arr)
    floats = flat.dtype.kind == "f"
    distinct, inverse = np.unique(flat.view(np.int64) if floats else flat,
                                  return_inverse=True)
    if floats:
        distinct = distinct.view(np.float64)
    words = np.array(list(map(repr, distinct.tolist())),
                     dtype=object)[inverse].tolist()
    # the inner axes' lists, innermost first, then the outermost one's
    items = words
    for axis in range(arr.ndim - 1, 0, -1):
        size = arr.shape[axis]
        rows = (zip(*[iter(items)] * size) if size
                else [()] * math.prod(arr.shape[:axis]))
        items = map("[%s]".__mod__, map(", ".join, rows))
    return words, "[%s]" % ", ".join(items) if arr.ndim else words[0]


def _element_columns(rows, dim: int | None = None) -> list[np.ndarray]:
    """The rows' columns as arrays, or BatchError naming the first element
    rule they break: the types, then the dimension (dim, by default the
    first row's)."""
    s, a, r, s_next, traj, t = list(zip(*rows))
    # element types first: arrays lose bool and str
    for values, kinds, message in (
            (s + s_next, (list, tuple), "state is not a sequence"),
            (a, int, _NOT_AN_ACTION),
            (r, (int, float), "non-numeric reward"),
            (traj + t, int, "traj/t must be integers")):
        if not only(values, kinds):
            raise BatchError(message)
    if dim is None:
        dim = len(s[0])
        if dim == 0:
            raise BatchError("empty state vector")
    if set(map(len, s + s_next)) != {dim}:
        raise BatchError(f"dimension mismatch (expected {dim})")
    if not only(chain.from_iterable(s + s_next), (int, float)):
        raise BatchError("non-numeric coordinate")
    return _arrays((s, a, r, s_next, traj, t))


def _arrays(columns) -> list[np.ndarray]:
    """Columns of numbers as arrays of their dtypes; BatchError if a
    number does not fit."""
    try:
        return list(map(np.asarray, columns, _DTYPES))
    except OverflowError as exc:
        raise BatchError(f"number out of range ({exc})") from None


def _array_checked(columns, action_count, reward_bound) -> Batch:
    """Columns of numbers as a Batch, or BatchError naming the first array
    rule they break."""
    s, a, r, s_next, traj, t = _arrays(columns)
    if action_count is None:
        action_count = int(a.max()) + 1
    max_r = float(r.max())
    bound = max(max_r, 0.0) if reward_bound is None else float(reward_bound)
    # trajectories are contiguous runs of equal traj with strictly rising t
    new = np.r_[True, traj[1:] != traj[:-1]]
    if not np.all((0 <= s) & (s < np.inf) & (0 <= s_next) & (s_next < np.inf)):
        raise BatchError("coordinate is negative or non-finite")
    if not np.all(np.isfinite(r)):
        raise BatchError("non-finite reward")
    if not 0 <= a.min() <= a.max() < action_count:
        raise BatchError(f"action {a[-1]} out of range for action_count "
                         f"{action_count}")
    if len(np.unique(traj)) != new.sum():
        raise BatchError(f"trajectory {traj[-1]} is not contiguous")
    if not np.all(new[1:] | (t[1:] > t[:-1])):
        raise BatchError("step index not strictly increasing within "
                         f"trajectory {traj[-1]}")
    if bound < max_r:
        raise BatchError(f"reward_bound {bound} below observed maximum {max_r}")
    return Batch(s, a, r, s_next, traj, t, action_count, bound)


def _validated(n: int, checked, action_count, reward_bound, where,
               declared: str) -> Batch:
    """The batch validator: checked(stop) turns the first stop of n rows
    into a Batch or raises BatchError; where(i) names row i, declared the
    source of action_count/reward_bound."""
    if not n:
        raise BatchError("empty batch")
    if action_count is not None and not (only([action_count], int)
                                         and action_count >= 0):
        raise BatchError(f"{declared} action_count {action_count!r} "
                         "is not a non-negative integer")
    if reward_bound is not None and not (only([reward_bound], (int, float))
                                         and abs(reward_bound) <= sys.float_info.max):
        raise BatchError(f"{declared} reward_bound {reward_bound!r} "
                         "is not a finite number")
    try:
        return checked(n)
    except BatchError as exc:
        error, good, bad = exc, 0, n
    # every rule that a prefix breaks, a longer one breaks too: search for
    # the shortest failing prefix, which ends with the first bad row
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            checked(mid)
            good = mid
        except BatchError as exc:
            error, bad = exc, mid
    raise BatchError(f"{where(bad - 1)}: {error}")


def make_batch(transitions, action_count: int | None = None,
               reward_bound: float | None = None) -> Batch:
    """Validate rows with the fields of Transition into a Batch."""
    rows = list(map(attrgetter("s", "a", "r", "s_next", "traj_id", "t"),
                    transitions))
    return _validated(
        len(rows), lambda stop: _array_checked(_element_columns(rows[:stop]),
                                               action_count, reward_bound),
        action_count, reward_bound, "transition {}".format, "declared")


def batch_from_columns(s, a, r, s_next, traj, t, action_count: int,
                       reward_bound: float) -> Batch:
    """Validate columns into a Batch, with make_batch's rules and messages:
    states s and s_next as (n, dim) float arrays, rewards r, trajectory ids
    traj and step indices t as arrays, and the actions a as a list of the
    values given, each of which must be an int."""
    def checked(stop):
        if not only(a[:stop], int):
            raise BatchError(_NOT_AN_ACTION)
        return _array_checked(
            (s[:stop], a[:stop], r[:stop], s_next[:stop], traj[:stop],
             t[:stop]), action_count, reward_bound)
    return _validated(len(a), checked, action_count, reward_bound,
                      "transition {}".format, "declared")


def _records(fh, meta: dict):
    """(line number, fields) of each record line of a batch file, after
    putting the fields of a meta record on line 1 into meta; BatchError
    naming the first line that is not a record."""
    fields = itemgetter(*_KEYS)
    for lineno, line in enumerate(fh, start=1):
        try:
            # each line decoded alone, so that bad UTF-8 names its line
            rec = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            if not line.strip():
                continue
            raise BatchError(f"line {lineno}: malformed JSON "
                             f"({getattr(exc, 'msg', exc)})") from None
        if not isinstance(rec, dict):
            raise BatchError(f"line {lineno}: record is not an object")
        if lineno == 1 and "meta" in rec:
            if not isinstance(rec["meta"], dict):
                raise BatchError("line 1: meta record is not an object")
            meta.update(rec["meta"])
            continue
        try:
            values = fields(rec)
        except KeyError:
            missing = [k for k in _KEYS if k not in rec]
            raise BatchError(f"line {lineno}: missing fields "
                             f"{missing}") from None
        yield lineno, values


def load_batch(path) -> Batch:
    """Load a JSONL batch file; every malformed line reports its line number.

    The records are read CHUNK lines at a time, and each chunk that keeps
    the element rules becomes column arrays before the next is read. The
    first chunk that breaks one is kept as rows, and past it the lines are
    only parsed, since a line fault anywhere is named first. The validator
    then runs on the columns and those rows, in the file's order."""
    meta, parts, pending, lines, dim = {}, [], (), array("q"), None
    with open(path, "rb") as fh:
        records = _records(fh, meta)
        while chunk := list(islice(records, CHUNK)):
            if pending:
                continue
            numbers, rows = zip(*chunk)
            lines.extend(numbers)
            try:
                part = _element_columns(rows, dim)
            except BatchError:
                pending = rows
                continue
            parts.append(part)
            dim = part[0].shape[1]      # the first record's, in every chunk
    action_count, reward_bound = meta.get("action_count"), meta.get("reward_bound")
    done = sum(len(part[1]) for part in parts)

    def checked(stop):
        # the columns of the first stop records: the chunks read as
        # columns, then a prefix of the pending rows
        tail = ([_element_columns(pending[:stop - done], dim)]
                if stop > done else [])
        return _array_checked([np.concatenate(column)[:stop]
                               for column in zip(*parts, *tail)],
                              action_count, reward_bound)
    batch = _validated(done + len(pending), checked, action_count,
                       reward_bound, lambda i: f"line {lines[i]}",
                       "line 1: meta")
    dim = meta.get("dim", batch.dim)
    if not (only([dim], int) and dim == batch.dim):
        raise BatchError(f"line 1: meta dim {dim!r} is not the records' "
                         f"dimension {batch.dim}")
    return batch


def save_batch(batch: Batch, path) -> None:
    """Write JSONL; round-trips through load_batch bit-exactly. The meta line
    holds a declared action_count or reward_bound the records do not imply.

    A record is json.dumps of {"s", "a", "r", "sp", "traj", "t"}, written
    with one %-format whose every field is a word of `json_words`, taken
    column by column: a state coordinate, an action, a reward, a trajectory
    id or a step index, spelled as json.dumps spells it."""
    max_a, max_r = int(batch.a.max()), float(batch.r.max())
    meta = ""
    if batch.action_count != max_a + 1 or batch.reward_bound != max(max_r, 0.0):
        meta = json.dumps({"meta": {
            "action_count": batch.action_count,
            "reward_bound": batch.reward_bound,
            "dim": batch.dim,
        }}) + "\n"
    state = "[" + ", ".join(["%s"] * batch.dim) + "]"
    record = ('{"s": ' + state + ', "a": %s, "r": %s, "sp": ' + state
              + ', "traj": %s, "t": %s}\n')
    columns = (*batch.s.T, batch.a, batch.r, *batch.s_next.T, batch.traj,
               batch.t)
    rows = zip(*(json_words(column)[0] for column in columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(meta + "".join(map(record.__mod__, rows)))


def core_rows(batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """The core states (the distinct next states, -0.0 equal to 0.0) as
    their first transitions in order of first appearance, and each
    transition's core state row."""
    order = np.lexsort(batch.s_next.T[::-1])
    ranked = batch.s_next[order]
    new = np.r_[True, np.any(ranked[1:] != ranked[:-1], axis=1)]
    # the sort is stable: each core state's first transition comes first
    first = order[new]
    landing = np.empty(len(order), dtype=int)
    landing[order] = np.argsort(np.argsort(first))[np.cumsum(new) - 1]
    return np.sort(first), landing


def concat_batches(batches) -> Batch:
    """Concatenate batches, renumbering trajectory ids to stay distinct."""
    batches = list(batches)
    if len({b.dim for b in batches}) != 1:
        raise BatchError("dimension mismatch between batches" if batches
                         else "empty batch")
    columns = {name: np.concatenate([getattr(b, name) for b in batches])
               for name in COLUMNS}
    # each batch's trajectories are contiguous runs: number the runs
    columns["traj"] = np.cumsum(np.concatenate(
        [np.r_[True, b.traj[1:] != b.traj[:-1]] for b in batches])) - 1
    return Batch(**columns, action_count=max(b.action_count for b in batches),
                 reward_bound=max(b.reward_bound for b in batches))
