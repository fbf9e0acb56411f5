import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adac import dataset
from adac.dataset import (COLUMNS, BatchError, Transition, concat_batches,
                          load_batch, make_batch, save_batch)
from adac.neighbors import build_index

from conftest import brute_force_save_batch, random_batch

# JSON values a malformed batch file may hold where a number belongs
NUMBERS = st.one_of(
    st.integers(0, 6), st.floats(0, 6), st.booleans(), st.integers(-2, -1),
    st.integers(2**63 - 1, 10**400), st.sampled_from([math.nan, math.inf]),
    st.none(), st.text(max_size=2))


def mostly(valid, invalid):
    """valid four times in five, otherwise invalid"""
    return st.integers(0, 4).flatmap(lambda i: valid if i else invalid)


STATES = mostly(st.lists(st.integers(0, 6), min_size=2, max_size=2),
                st.one_of(st.lists(NUMBERS, max_size=3), NUMBERS,
                          st.lists(st.lists(NUMBERS, max_size=2), max_size=2)))
FIELDS = {"s": STATES, "a": mostly(st.integers(0, 2), NUMBERS),
          "r": mostly(st.floats(0, 5), NUMBERS), "sp": STATES,
          "traj": mostly(st.integers(0, 2), NUMBERS),
          "t": mostly(st.integers(0, 5), NUMBERS)}
RECORDS = mostly(st.fixed_dictionaries(FIELDS),
                 st.fixed_dictionaries({}, optional=FIELDS))
METAS = mostly(st.fixed_dictionaries({}, optional={
    "action_count": mostly(st.integers(0, 4), NUMBERS),
    "reward_bound": mostly(st.floats(0, 10), NUMBERS), "dim": NUMBERS}),
    NUMBERS)
LINES = mostly(RECORDS.map(json.dumps), st.one_of(
    st.sampled_from(["", "{", "[" * 100_000, "null"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)))

# coordinates whose shortest repr has an exponent, a sign or a fraction
COORDS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 1e300]),
                   st.integers(0, 10**6).map(float))
REWARDS = st.one_of(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 3.0]),
                    st.floats(-1e6, 1e6))


@st.composite
def valid_batches(draw):
    """A batch the validator accepts: dims 1-5, contiguous trajectories
    with rising steps, ids and steps up to 2**63 - 1, and declared values
    that the records imply (no meta line) or not (a meta line)."""
    dim, n = draw(st.integers(1, 5)), draw(st.integers(1, 30))
    state = st.tuples(*[COORDS] * dim)
    actions = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    rewards = draw(st.lists(REWARDS, min_size=n, max_size=n))
    starts = [0] + sorted(set(draw(st.lists(st.integers(1, n), max_size=4))))
    traj_base = draw(st.integers(0, 2**63 - 6))
    t_base = draw(st.integers(0, 2**63 - 1 - n))
    run = [sum(i >= s for s in starts) - 1 for i in range(n)]
    rows = [Transition(draw(state), actions[i], rewards[i], draw(state),
                       traj_base + run[i], t_base + i) for i in range(n)]
    declared = draw(st.sampled_from(["implied", "action_count",
                                     "reward_bound"]))
    action_count = max(actions) + 1 + (declared == "action_count")
    reward_bound = (max(max(rewards), 0.0)
                    + 1.5 * (declared == "reward_bound"))
    return make_batch(rows, action_count, reward_bound), declared != "implied"


TABLE1_JSONL = """\
{"s":[1,5],"a":1,"r":2,"sp":[3,3],"traj":0,"t":0}
{"s":[3,3],"a":0,"r":2,"sp":[1,5],"traj":0,"t":1}
{"s":[6,1],"a":0,"r":4,"sp":[2,3],"traj":1,"t":0}
{"s":[2,3],"a":1,"r":2,"sp":[6,1],"traj":1,"t":1}
{"s":[0,5],"a":1,"r":2,"sp":[2,3],"traj":2,"t":0}
{"s":[2,3],"a":0,"r":2,"sp":[0,5],"traj":2,"t":1}
"""


def write(tmp_path, text, name="batch.jsonl"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_chunked(path):
    """load_batch(path), after checking that a CHUNK of 1, 3 or 7 lines
    reads the same columns, bit for bit, or raises the same BatchError."""
    def outcome():
        try:
            batch = load_batch(path)
        except BatchError as exc:
            return str(exc)
        return ([getattr(batch, name).tobytes() for name in COLUMNS],
                batch.action_count, batch.reward_bound)
    want = outcome()
    for chunk in (1, 3, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "CHUNK", chunk)
            assert outcome() == want, f"CHUNK {chunk}"
    return load_batch(path)


def jsonl(records):
    return "".join(json.dumps(rec) + "\n" for rec in records)


def steps(traj, ts, dim=2, **fields):
    """Records of trajectory traj at steps ts, with the given fields."""
    return [{"s": [1] * dim, "a": 0, "r": 1, "sp": [1] * dim, "traj": traj,
             "t": t, **fields} for t in ts]


class TestLoadBatch:
    def test_worked_example_file(self, tmp_path, table1):
        batch = load_batch(write(tmp_path, TABLE1_JSONL))
        assert len(batch) == 6
        assert batch.dim == 2
        assert batch.action_count == 2
        assert batch.transitions[0].s == (1.0, 5.0)
        assert batch.transitions[2].r == 4.0
        # identical to the embedded worked example up to the declared bound
        assert batch.transitions == table1.transitions

    def test_empty_file(self, tmp_path):
        with pytest.raises(BatchError, match="empty batch"):
            load_batch(write(tmp_path, ""))

    def test_single_row(self, tmp_path):
        batch = load_batch(write(
            tmp_path, '{"s":[0,0],"a":0,"r":0,"sp":[0,0],"traj":0,"t":0}\n'))
        assert len(batch) == 1
        assert batch.action_count == 1

    def test_malformed_line_reports_number(self, tmp_path):
        text = TABLE1_JSONL + "{not json\n"
        with pytest.raises(BatchError, match="line 7"):
            load_batch(write(tmp_path, text))

    def test_missing_field(self, tmp_path):
        with pytest.raises(BatchError, match="line 1.*missing"):
            load_batch(write(tmp_path, '{"s":[1],"a":0,"r":1,"sp":[2]}\n'))

    def test_dimension_mismatch(self, tmp_path):
        text = ('{"s":[1,5],"a":0,"r":1,"sp":[1,5],"traj":0,"t":0}\n'
                '{"s":[1],"a":0,"r":1,"sp":[1,5],"traj":0,"t":1}\n')
        with pytest.raises(BatchError, match="dimension mismatch"):
            load_batch(write(tmp_path, text))

    def test_negative_coordinate(self, tmp_path):
        with pytest.raises(BatchError, match="negative"):
            load_batch(write(
                tmp_path, '{"s":[-1,0],"a":0,"r":1,"sp":[0,0],"traj":0,"t":0}\n'))

    def test_non_integer_action(self, tmp_path):
        with pytest.raises(BatchError, match="action"):
            load_batch(write(
                tmp_path, '{"s":[1,0],"a":0.5,"r":1,"sp":[0,0],"traj":0,"t":0}\n'))

    @pytest.mark.parametrize("field, value, message", [
        ("s", [1, "2"], "non-numeric coordinate"),
        ("s", [1, True], "non-numeric coordinate"),
        ("s", [1], "dimension mismatch"),
        ("sp", 1, "state is not a sequence"),
        ("s", [1, math.inf], "coordinate is negative or non-finite"),
        ("s", [1, 10**400], "number out of range"),
        ("a", True, "action"),
        ("a", -1, "action -1 out of range"),
        ("a", 2**63, "number out of range"),
        ("r", False, "non-numeric reward"),
        ("r", math.nan, "non-finite reward"),
        ("traj", 0, "trajectory 0 is not contiguous"),
        ("t", 0, "step index not strictly increasing"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, field, value, message):
        rec = {"s": [1, 1], "a": 0, "r": 1, "sp": [1, 1]}
        lines = [{**rec, "traj": 0, "t": 0}, None, {**rec, "traj": 1, "t": 0},
                 {**rec, "traj": 1, "t": 1}]
        # lines 5 and 6 break the rule; line 2 is blank
        lines += [{**rec, "traj": 1, "t": t, field: value} for t in (2, 3)]
        text = "\n".join("" if r is None else json.dumps(r) for r in lines)
        with pytest.raises(BatchError, match=f"^line 5: {message}"):
            load_chunked(write(tmp_path, text + "\n"))

    @settings(max_examples=300, deadline=None)
    @given(meta=st.none() | METAS, lines=st.lists(LINES, max_size=6))
    def test_arbitrary_lines_load_or_raise_batch_error(
            self, tmp_path_factory, meta, lines):
        if meta is not None:
            lines = [json.dumps({"meta": meta})] + lines
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            batch = load_chunked(path)
        except BatchError:
            return
        assert np.all(np.isfinite(batch.s)) and np.all(batch.s >= 0)
        assert 0 <= batch.a.min() <= batch.a.max() < batch.action_count
        assert batch.r.max() <= batch.reward_bound < math.inf

    def test_an_early_array_fault_is_named_before_a_later_element_fault(
            self, tmp_path):
        # line 101 returns to trajectory 0, line 5,001 holds a boolean
        # action: at any CHUNK the chunk of line 5,001 breaks an element
        # rule, and the columns before it break the contiguity rule first
        records = (steps(0, range(50)) + steps(1, range(50)) + steps(0, [50])
                   + steps(2, range(4899)) + steps(2, [4899], a=True))
        path = write(tmp_path, jsonl(records))
        for chunk in (64, dataset.CHUNK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dataset, "CHUNK", chunk)
                with pytest.raises(BatchError, match="^line 101: trajectory "
                                   "0 is not contiguous"):
                    load_chunked(path)

    def test_a_trajectory_across_chunks(self, tmp_path):
        # with CHUNK 3, lines 1-3 and 4-6 are two chunks of one trajectory
        path = write(tmp_path, jsonl(steps(0, range(8))))
        batch = load_chunked(path)
        assert batch.traj.tolist() == [0] * 8
        assert batch.t.tolist() == list(range(8))

    @pytest.mark.parametrize("line", [3, 4, 8])
    def test_a_falling_step_is_named_across_chunks(self, tmp_path, line):
        # with CHUNK 3 the repeated step starts, ends or follows a chunk
        ts = list(range(9))
        ts[line - 1] = ts[line - 2]
        path = write(tmp_path, jsonl(steps(0, ts)))
        with pytest.raises(BatchError, match=f"^line {line}: step index not "
                           "strictly increasing within trajectory 0"):
            load_chunked(path)

    def test_a_dimension_change_in_a_later_chunk(self, tmp_path):
        # line 10 is in the fourth chunk of three lines, the second of seven
        records = steps(0, range(9), dim=4) + steps(0, [9], dim=3)
        path = write(tmp_path, jsonl(records + steps(0, [10], dim=4)))
        with pytest.raises(BatchError, match=r"^line 10: dimension mismatch "
                           r"\(expected 4\)"):
            load_chunked(path)


class TestValidation:
    def test_non_contiguous_trajectory(self):
        rows = [Transition((0.0,), 0, 0.0, (0.0,), 0, 0),
                Transition((0.0,), 0, 0.0, (0.0,), 1, 0),
                Transition((0.0,), 0, 0.0, (0.0,), 0, 1)]
        with pytest.raises(BatchError, match="not contiguous"):
            make_batch(rows)

    def test_non_increasing_step(self):
        rows = [Transition((0.0,), 0, 0.0, (0.0,), 0, 1),
                Transition((0.0,), 0, 0.0, (0.0,), 0, 1)]
        with pytest.raises(BatchError, match="strictly increasing"):
            make_batch(rows)

    def test_action_out_of_declared_range(self):
        rows = [Transition((0.0,), 3, 0.0, (0.0,), 0, 0)]
        with pytest.raises(BatchError, match="out of range"):
            make_batch(rows, action_count=2)

    def test_reward_bound_below_observed(self):
        rows = [Transition((0.0,), 0, 5.0, (0.0,), 0, 0)]
        with pytest.raises(BatchError, match="reward_bound"):
            make_batch(rows, reward_bound=4.0)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf, True,
                                       "4", 10**400])
    def test_declared_reward_bound_must_be_a_finite_number(self, bound):
        rows = [Transition((0.0,), 0, 1.0, (0.0,), 0, 0)]
        with pytest.raises(BatchError, match="declared reward_bound"):
            make_batch(rows, reward_bound=bound)

    @pytest.mark.parametrize("count", [-1, 2.0, True, "2"])
    def test_declared_action_count_must_be_a_count(self, count):
        rows = [Transition((0.0,), 0, 1.0, (0.0,), 0, 0)]
        with pytest.raises(BatchError, match="declared action_count"):
            make_batch(rows, action_count=count)

    @pytest.mark.parametrize("field, value", [
        ("t", True), ("traj_id", False), ("r", True), ("a", True),
        ("s", (True, 0.0)), ("s_next", [0.0, "1"]), ("s", np.zeros(1)),
    ])
    def test_rows_get_the_file_rules(self, field, value):
        rows = [Transition((0.0,), 0, 1.0, (0.0,), 0, 0),
                replace(Transition((0.0,), 0, 1.0, (0.0,), 0, 1),
                        **{field: value})]
        with pytest.raises(BatchError, match="transition 1"):
            make_batch(rows)


class TestCoreStates:
    """The index's core states: the distinct next states in order of first
    appearance."""

    def test_worked_example_order(self, table1):
        assert build_index(table1).core == (
            (3.0, 3.0), (1.0, 5.0), (2.0, 3.0), (6.0, 1.0), (0.0, 5.0))

    def test_all_identical_next_states(self):
        rows = [Transition((float(t), 0.0), 0, 1.0, (9.0, 9.0), 0, t)
                for t in range(5)]
        with pytest.warns(RuntimeWarning, match="degenerate"):
            assert build_index(make_batch(rows)).core == ((9.0, 9.0),)

    def test_matches_brute_force_dedup_on_reconstruction(self):
        from adac.evaluation import reconstruction_batch
        batch = reconstruction_batch()
        expected = []
        for tr in batch.transitions:   # first-appearance scan, list membership
            if tr.s_next not in expected:
                expected.append(tr.s_next)
        core = build_index(batch).core
        assert list(core) == expected
        assert len(set(core)) == len(core)

    def test_every_core_state_is_some_next_state(self, table1):
        nexts = {tr.s_next for tr in table1.transitions}
        assert set(build_index(table1).core) == nexts


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           integer_coords=st.booleans(), negative_zero=st.booleans())
    def test_save_load_is_the_identity(self, tmp_path_factory, seed, n,
                                       integer_coords, negative_zero):
        batch = random_batch(np.random.default_rng(seed), n=n, coord_max=2,
                             integer_coords=integer_coords)
        if negative_zero:   # every other transition's zeros as -0.0
            batch = make_batch([
                replace(tr, s=tuple(x or (-0.0 if i % 2 else x) for x in tr.s),
                        s_next=tuple(x or (-0.0 if i % 2 else x)
                                     for x in tr.s_next))
                for i, tr in enumerate(batch.transitions)],
                batch.action_count, batch.reward_bound)
        first = tmp_path_factory.getbasetemp() / "first.jsonl"
        second = tmp_path_factory.getbasetemp() / "second.jsonl"
        save_batch(batch, first)
        loaded = load_chunked(first)
        save_batch(loaded, second)
        assert loaded == batch
        assert np.array_equal(np.signbit(loaded.s), np.signbit(batch.s))
        assert np.array_equal(np.signbit(loaded.s_next),
                              np.signbit(batch.s_next))
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(drawn=valid_batches())
    def test_writer_is_json_dumps_per_record(self, tmp_path_factory, drawn):
        batch, meta = drawn
        written = tmp_path_factory.getbasetemp() / "written.jsonl"
        reference = tmp_path_factory.getbasetemp() / "reference.jsonl"
        save_batch(batch, written)
        brute_force_save_batch(batch, reference)
        assert written.read_bytes() == reference.read_bytes()
        assert written.read_text().startswith('{"meta"') == meta
        loaded = load_chunked(written)
        assert loaded == batch
        for name in ("s", "r", "s_next"):      # bit for bit, -0.0 included
            assert np.array_equal(getattr(loaded, name).view(np.int64),
                                  getattr(batch, name).view(np.int64))

    def test_record_bytes(self, tmp_path, table1):
        path = tmp_path / "t1.jsonl"
        save_batch(table1, path)
        assert path.read_text().splitlines()[0] == (
            '{"s": [1.0, 5.0], "a": 1, "r": 2.0, "sp": [3.0, 3.0], '
            '"traj": 0, "t": 0}')

    def test_worked_example(self, tmp_path, table1):
        path = tmp_path / "t1.jsonl"
        save_batch(table1, path)
        assert load_batch(path) == table1

    def test_fractional_reward_verbatim(self, tmp_path):
        batch = make_batch([Transition((1.0,), 0, 2.5, (0.0,), 0, 0)])
        path = tmp_path / "b.jsonl"
        save_batch(batch, path)
        assert '"r": 2.5' in path.read_text()
        assert load_batch(path).transitions[0].r == 2.5

    def test_declared_bounds_survive(self, tmp_path):
        batch = make_batch([Transition((1.0,), 0, 1.0, (0.0,), 0, 0)],
                           action_count=4, reward_bound=10.0)
        path = tmp_path / "b.jsonl"
        save_batch(batch, path)
        loaded = load_batch(path)
        assert loaded.action_count == 4
        assert loaded.reward_bound == 10.0
        assert loaded == batch

    def test_large_batch_hash_equal(self, tmp_path):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, n=10_000, dim=3, actions=4,
                             integer_coords=False)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_batch(batch, p1)
        save_batch(load_batch(p1), p2)
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2
        assert load_batch(p2) == batch

    def test_random_batches_identity(self, tmp_path):
        rng = np.random.default_rng(12)
        for i in range(10):
            batch = random_batch(rng, n=int(rng.integers(1, 60)),
                                 integer_coords=bool(i % 2))
            path = tmp_path / f"r{i}.jsonl"
            save_batch(batch, path)
            assert load_chunked(path) == batch


class TestConcat:
    def test_renumbers_trajectories(self, table1):
        merged = concat_batches([table1, table1])
        assert len(merged) == 12
        assert sorted({tr.traj_id for tr in merged.transitions}) == list(range(6))

    def test_json_record_shape(self, tmp_path, table1):
        save_batch(table1, tmp_path / "b.jsonl")
        first = json.loads((tmp_path / "b.jsonl").read_text().splitlines()[0])
        assert set(first) == {"s", "a", "r", "sp", "traj", "t"}


class TestColumns:
    def test_columns_are_read_only(self, table1):
        assert table1.s.shape == table1.s_next.shape == (6, 2)
        for column in (table1.s, table1.a, table1.r, table1.s_next,
                       table1.traj, table1.t):
            assert len(column) == 6
            with pytest.raises(ValueError):
                column[0] = 1

    def test_row_view_matches_the_columns(self, table1):
        rows = table1.transitions
        assert rows is table1.transitions       # built once
        assert [tr.s for tr in rows] == [tuple(x) for x in table1.s.tolist()]
        assert [tr.traj_id for tr in rows] == table1.traj.tolist()
        assert make_batch(rows, table1.action_count,
                          table1.reward_bound) == table1

    def test_equality_is_over_columns_and_declared_values(self, table1):
        assert concat_batches([table1]) == table1
        assert make_batch(table1.transitions, 3, table1.reward_bound) != table1
        assert make_batch(table1.transitions[:-1]) != table1
        assert table1 != table1.transitions

    def test_derive_solve_act_and_bound_never_build_the_row_view(self):
        from adac.derivation import build_mdp
        from adac.neighbors import build_index
        from adac.planner import value_iteration
        from adac.policies import GreedyDerivedPolicy
        from adac.theory import covering_number, pac_bound
        from adac.evaluation import reconstruction_batch
        batch = reconstruction_batch()
        index = build_index(batch, "manhattan")
        mdp = build_mdp(batch, k=3, alpha=math.inf, index=index)
        solution = value_iteration(mdp, tol=1e-9)
        policy = GreedyDerivedPolicy(mdp, solution, index)
        assert policy.act((1.0, 3.0), 0) in (0, 1)
        pac_bound(batch, mdp, solution, 0.1)
        covering_number(index, 0.5)
        assert "transitions" not in vars(batch)
