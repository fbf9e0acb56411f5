import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adac import neighbors
from adac.dataset import Transition, core_states, make_batch
from adac.derivation import PenaltyMode, build_mdp
from adac.neighbors import NORMS, build_index, diameter

from conftest import (brute_force_diameter, brute_force_knn, brute_force_mdp,
                      euclid, manhattan, random_batch, scale_batch)

SQRT52 = math.sqrt(52)
# fractions hit Manhattan distances on integer coordinates exactly
ALPHAS = st.one_of(st.just(math.inf), st.floats(0.0, 1.0),
                   st.builds(lambda p, q: min(p, q) / q,
                             st.integers(0, 18), st.integers(1, 18)))
# coordinates in 0..1 or 0..2 make most sources share a point, within an
# action and across actions
COORD_MAX = st.sampled_from([1, 2, 6])


# action 0's nearest point to (0, 0) holds three transitions, and its two
# points at distance 1 hold two each, with interleaved transition indices
REPEATED = make_batch([
    Transition(s, a, r, sp, 0, t) for t, (s, a, r, sp) in enumerate([
        ((0.0, 0.0), 0, 1.0, (1.0, 0.0)), ((1.0, 0.0), 0, 2.0, (0.0, 1.0)),
        ((0.0, 0.0), 0, 3.0, (1.0, 1.0)), ((0.0, 1.0), 0, 1.5, (0.0, 0.0)),
        ((1.0, 0.0), 0, 0.5, (0.0, 0.0)), ((0.0, 0.0), 0, 2.5, (1.0, 0.0)),
        ((0.0, 1.0), 0, 4.0, (1.0, 1.0)), ((0.0, 0.0), 1, 1.0, (0.0, 0.0)),
        ((0.0, 0.0), 1, 2.0, (0.0, 1.0))])])


def groups(index):
    """Per action, each distinct source point of the index with its
    transition indices."""
    return [{tuple(index._points[p].tolist()):
             index._sources[index._starts[p]:index._starts[p + 1]].tolist()
             for p in range(lo, hi)}
            for lo, hi in zip(index._offsets, index._offsets[1:])]


def check_against_brute_force(batch, states, norm, k, alpha):
    """search and query of every action, and build_mdp, against the
    brute-force oracles."""
    dist = euclid if norm == "euclidean" else manhattan
    index = build_index(batch, norm)
    for a in range(batch.action_count):
        rows, indices, norm_dist = index.search(states, a, k, alpha)
        for row, s in enumerate(states):
            want = brute_force_knn(batch, s, a, k, alpha,
                                   diam=index.diameter, dist=dist)
            at = rows == row
            assert indices[at].tolist() == [i for i, _, _ in want]
            assert norm_dist[at].tolist() == pytest.approx(
                [nd for _, _, nd in want], rel=1e-12, abs=1e-12)
            assert found(index, s, a, k, alpha) == list(
                zip(indices[at].tolist(), norm_dist[at].tolist()))
    mode = PenaltyMode.adaptive()
    mdp = build_mdp(batch, k, alpha, mode=mode, index=index)
    core, reward, transition, empty = brute_force_mdp(
        batch, k, alpha, mode, diam=index.diameter, dist=dist)
    assert list(mdp.core) == core
    assert mdp.reward == pytest.approx(np.array(reward), abs=1e-12)
    assert mdp.transition == transition
    assert mdp.empty_pairs == empty


def found(index, s, a, k, alpha=math.inf):
    """query's neighbors of action a as a list of (transition index,
    normalized distance)."""
    actions, indices, norm_dist = index.query(s, k, alpha)
    at = actions == a
    return list(zip(indices[at].tolist(), norm_dist[at].tolist()))


class TestBuildIndex:
    def test_worked_example_subindices(self, table1):
        index = build_index(table1)
        assert index.size(0) == 3 and index.size(1) == 3
        assert groups(index) == [
            {(3.0, 3.0): [1], (6.0, 1.0): [2], (2.0, 3.0): [5]},
            {(1.0, 5.0): [0], (2.0, 3.0): [3], (0.0, 5.0): [4]}]

    def test_repeated_sources_share_one_point(self):
        index = build_index(REPEATED)
        assert index.size(0) == 7 and index.size(1) == 2
        assert groups(index) == [
            {(0.0, 0.0): [0, 2, 5], (1.0, 0.0): [1, 4], (0.0, 1.0): [3, 6]},
            {(0.0, 0.0): [7, 8]}]
        for i, tr in enumerate(REPEATED.transitions):
            assert tuple(index._points[index._point_of[i]]) == tr.s

    def test_single_transition_leaves_other_action_empty(self):
        batch = make_batch([Transition((1.0, 1.0), 0, 1.0, (2.0, 2.0), 0, 0)],
                           action_count=2)
        with pytest.warns(RuntimeWarning):   # one-point core cloud
            index = build_index(batch)
        assert index.size(0) == 1 and index.size(1) == 0
        assert found(index, (1.0, 1.0), 1, 3) == []

    def test_rejects_unknown_norm(self, table1):
        with pytest.raises(ValueError, match="unknown norm"):
            build_index(table1, "chebyshev")


class TestQuery:
    def test_worked_example_ns_query(self, table1):
        index = build_index(table1)
        result = found(index, (2.0, 3.0), 0, 3)
        assert [i for i, _ in result] == [5, 1, 2]
        assert [d for _, d in result] == pytest.approx(
            [0.0, 1.0 / SQRT52, math.sqrt(20) / SQRT52], abs=1e-12)

    def test_exact_source_at_distance_zero(self, table1):
        index = build_index(table1)
        assert found(index, (6.0, 1.0), 0, 1) == [(2, 0.0)]

    def test_alpha_truncates(self, table1):
        index = build_index(table1)
        result = found(index, (2.0, 3.0), 0, 3, alpha=0.2)
        assert [i for i, _ in result] == [5, 1]
        assert result[1][1] == pytest.approx(1 / SQRT52, abs=1e-12)

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(21)
        batch = random_batch(rng, n=10_000, dim=3, actions=3,
                             integer_coords=False)
        index = build_index(batch)
        diam = index.diameter
        for _ in range(100):
            s = tuple(float(x) for x in rng.uniform(0, 6, size=3))
            a = int(rng.integers(0, 3))
            k = int(rng.integers(1, 8))
            alpha = float(rng.choice([math.inf, 0.3, 0.1]))
            got = found(index, s, a, k, alpha)
            want = [(i, nd) for i, _, nd in
                    brute_force_knn(batch, s, a, k, alpha, diam=diam)]
            assert [i for i, _ in got] == [i for i, _ in want]
            assert [d for _, d in got] == pytest.approx(
                [d for _, d in want], rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), integer_coords=st.booleans(),
           norm=st.sampled_from(NORMS), k=st.integers(1, 12), alpha=ALPHAS,
           unused_actions=st.integers(0, 2), coord_max=COORD_MAX)
    def test_query_matches_brute_force_for_every_action(
            self, seed, integer_coords, norm, k, alpha, unused_actions,
            coord_max):
        rng = np.random.default_rng(seed)
        drawn = random_batch(rng, n=int(rng.integers(2, 60)),
                             dim=int(rng.integers(1, 4)),
                             actions=int(rng.integers(1, 4)),
                             coord_max=coord_max,
                             integer_coords=integer_coords)
        # the last unused_actions actions have no sources
        batch = make_batch(drawn.transitions,
                           drawn.action_count + unused_actions,
                           drawn.reward_bound)
        dist = euclid if norm == "euclidean" else manhattan
        extra = rng.integers(0, coord_max + 3,
                             size=(10, batch.dim)).astype(float)
        if not integer_coords:
            extra = rng.uniform(0, coord_max + 2, size=(10, batch.dim))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            index = build_index(batch, norm)
        for s in core_states(batch) + [tuple(map(float, x)) for x in extra]:
            actions, indices, norm_dist = index.query(s, k, alpha)
            assert np.all(np.diff(actions) >= 0)        # action-major
            for a in range(batch.action_count):
                at = actions == a
                want = brute_force_knn(batch, s, a, k, alpha,
                                       diam=index.diameter, dist=dist)
                assert indices[at].tolist() == [i for i, _, _ in want]
                assert norm_dist[at].tolist() == pytest.approx(
                    [nd for _, _, nd in want], rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), integer_coords=st.booleans(),
           norm=st.sampled_from(NORMS), k=st.integers(1, 12), alpha=ALPHAS,
           coord_max=COORD_MAX)
    def test_search_matches_brute_force(self, seed, integer_coords, norm, k,
                                        alpha, coord_max):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, n=int(rng.integers(2, 60)),
                             dim=int(rng.integers(1, 4)),
                             coord_max=coord_max,
                             integer_coords=integer_coords)
        dist = euclid if norm == "euclidean" else manhattan
        extra = rng.integers(0, coord_max + 1,
                             size=(10, batch.dim)).astype(float)
        if not integer_coords:
            extra = rng.uniform(0, coord_max, size=(10, batch.dim))
        states = core_states(batch) + [tuple(map(float, x)) for x in extra]
        with pytest.MonkeyPatch.context() as mp:
            # small blocks, so one call spans several of them
            mp.setattr(neighbors, "BLOCK", 64)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                index = build_index(batch, norm)
            assert index.diameter == pytest.approx(
                brute_force_diameter(batch, dist), rel=1e-12)
            for a in range(batch.action_count):
                rows, indices, norm_dist = index.search(states, a, k, alpha)
                assert np.all(np.diff(rows) >= 0)       # row-major
                for row, s in enumerate(states):
                    at = rows == row
                    got = list(zip(indices[at].tolist(),
                                   norm_dist[at].tolist()))
                    want = brute_force_knn(batch, s, a, k, alpha,
                                           diam=index.diameter, dist=dist)
                    assert [i for i, _ in got] == [i for i, _, _ in want]
                    assert [d for _, d in got] == pytest.approx(
                        [nd for _, _, nd in want], rel=1e-12, abs=1e-12)
                    assert found(index, s, a, k, alpha) == got

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), integer_coords=st.booleans(),
           norm=st.sampled_from(NORMS), k_max=st.integers(1, 12),
           alpha=ALPHAS, coord_max=COORD_MAX, data=st.data())
    def test_prefix_of_a_deeper_search(self, seed, integer_coords, norm,
                                       k_max, alpha, coord_max, data):
        k = data.draw(st.integers(1, k_max), label="k")
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, n=int(rng.integers(2, 60)),
                             dim=int(rng.integers(1, 4)),
                             coord_max=coord_max,
                             integer_coords=integer_coords)
        dist = euclid if norm == "euclidean" else manhattan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            index = build_index(batch, norm)
        for a in range(batch.action_count):
            deep = index.search(index.core, a, k_max, alpha)
            rows, indices, norm_dist = neighbors.prefix(deep, k)
            for want, got in zip(index.search(index.core, a, k, alpha),
                                 (rows, indices, norm_dist)):
                assert np.array_equal(got, want)
            for row, s in enumerate(index.core):
                assert indices[rows == row].tolist() == [
                    i for i, _, _ in brute_force_knn(
                        batch, s, a, k, alpha, diam=index.diameter,
                        dist=dist)]

    def test_determinism_on_ties(self):
        # four sources at identical distance from the query
        rows = [Transition((1.0, 0.0), 0, 1.0, (0.0, 0.0), 0, 0),
                Transition((0.0, 1.0), 0, 1.0, (1.0, 1.0), 0, 1),
                Transition((-0.0, 1.0), 0, 1.0, (0.0, 0.0), 0, 2),
                Transition((1.0, 0.0), 0, 1.0, (1.0, 1.0), 0, 3)]
        batch = make_batch(rows)
        index = build_index(batch)
        first = found(index, (0.0, 0.0), 0, 2)
        assert [i for i, _ in first] == [0, 1]
        for _ in range(5):
            assert found(index, (0.0, 0.0), 0, 2) == first

    def test_nearest_point_holds_more_than_k(self):
        index = build_index(REPEATED)
        assert found(index, (0.0, 0.0), 0, 2) == [(0, 0.0), (2, 0.0)]
        assert found(index, (0.0, 0.0), 1, 1) == [(7, 0.0)]

    def test_kth_distance_ties_across_points(self):
        index = build_index(REPEATED)
        # points (1, 0) and (0, 1) tie at distance 1: their transitions
        # 1, 4 and 3, 6 interleave by index
        assert [i for i, _ in found(index, (0.0, 0.0), 0, 5)] == [0, 2, 5, 1, 3]
        assert [i for i, _ in found(index, (1.0, 1.0), 0, 3)] == [1, 3, 4]

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("k, alpha", [(1, math.inf), (2, math.inf),
                                          (4, 0.8), (5, math.inf),
                                          (6, 0.75), (9, math.inf)])
    def test_repeated_points_match_brute_force(self, norm, k, alpha):
        states = core_states(REPEATED) + [(0.5, 0.5), (2.0, 0.0), (0.0, 3.0)]
        check_against_brute_force(REPEATED, states, norm, k, alpha)

    @pytest.mark.parametrize("norm", NORMS)
    def test_negative_zero_shares_the_point_of_zero(self, norm):
        batch = make_batch([
            Transition((-0.0, 1.0), 0, 1.0, (0.0, 2.0), 0, 0),
            Transition((1.0, 1.0), 0, 2.0, (-0.0, 1.0), 0, 1),
            Transition((0.0, 1.0), 0, 3.0, (1.0, 0.0), 0, 2),
            Transition((0.0, 2.0), 1, 4.0, (0.0, 1.0), 0, 3)],
            action_count=2)
        index = build_index(batch, norm)
        assert groups(index) == [{(-0.0, 1.0): [0, 2], (1.0, 1.0): [1]},
                                 {(0.0, 2.0): [3]}]
        for s in ((0.0, 1.0), (-0.0, 1.0), (-0.0, 0.0)):
            got = found(index, s, 0, 2)
            assert [i for i, _ in got] == [0, 2]
            assert got[0][1] == got[1][1]
        states = core_states(batch) + [(-0.0, 0.0), (0.0, -0.0), (3.0, 0.0)]
        for k in (1, 2, 3):
            check_against_brute_force(batch, states, norm, k, math.inf)

    def test_monotone_in_k_and_alpha(self, table1):
        rng = np.random.default_rng(22)
        index = build_index(table1)
        for _ in range(50):
            s = tuple(float(x) for x in rng.uniform(0, 7, size=2))
            a = int(rng.integers(0, 2))
            small = found(index, s, a, 1, 0.3)
            big_k = found(index, s, a, 3, 0.3)
            big_alpha = found(index, s, a, 1, 0.9)
            assert big_k[:len(small)] == small
            assert big_alpha[:len(small)] == small

    def test_cross_action_isolation(self, table1):
        index = build_index(table1)
        for i, _ in found(index, (2.0, 3.0), 0, 3):
            assert table1.transitions[i].a == 0

    def test_k_must_be_positive(self, table1):
        index = build_index(table1)
        with pytest.raises(ValueError):
            index.query((0.0, 0.0), 0)


class TestDiameter:
    def test_worked_example_exact(self, table1):
        assert diameter(core_states(table1)) == pytest.approx(math.sqrt(52),
                                                              abs=1e-12)

    def test_achieved_by_expected_pair(self, table1):
        assert euclid((0.0, 5.0), (6.0, 1.0)) == pytest.approx(
            diameter(core_states(table1)), abs=1e-12)

    def test_degenerate_cloud_sentinel(self):
        rows = [Transition((1.0, 1.0), 0, 1.0, (2.0, 2.0), 0, 0),
                Transition((3.0, 3.0), 0, 1.0, (2.0, 2.0), 0, 1)]
        with pytest.warns(RuntimeWarning, match="degenerate"):
            assert diameter(core_states(make_batch(rows))) == 1.0

    def test_manhattan_mode(self, table1):
        d = diameter(core_states(table1), norm="manhattan")
        best = 0.0
        core = [(3.0, 3.0), (1.0, 5.0), (2.0, 3.0), (6.0, 1.0), (0.0, 5.0)]
        for i in range(len(core)):
            for j in range(i + 1, len(core)):
                best = max(best, manhattan(core[i], core[j]))
        assert d == best


class TestRowSums:
    def test_rows_sum_in_table_order(self):
        # magnitudes far apart, so any other summation order rounds differently
        rng = np.random.default_rng(26)
        lengths = rng.integers(0, 20, size=50)
        rows = np.repeat(np.arange(50), lengths)
        values = (rng.standard_normal(len(rows))
                  * 10.0 ** rng.integers(-8, 9, size=len(rows)))
        got = neighbors.row_sums(rows, values, 52)
        for row in range(52):
            total = 0.0
            for x in values[rows == row].tolist():
                total += x
            assert got[row] == total


class TestScaling:
    def test_power_of_two_scale_is_exact(self):
        rng = np.random.default_rng(24)
        batch = random_batch(rng, n=40, integer_coords=False)
        scaled = scale_batch(batch, 4.0)
        i1, i2 = build_index(batch), build_index(scaled)
        assert i2.diameter == 4.0 * i1.diameter
        for _ in range(20):
            s = tuple(float(x) for x in rng.uniform(0, 6, size=2))
            s4 = tuple(4.0 * x for x in s)
            assert found(i1, s, 0, 3) == found(i2, s4, 0, 3)

    def test_arbitrary_scale_preserves_normalized_distance(self):
        rng = np.random.default_rng(25)
        batch = random_batch(rng, n=40, integer_coords=False)
        scaled = scale_batch(batch, 0.37)
        i1, i2 = build_index(batch), build_index(scaled)
        for _ in range(20):
            s = tuple(float(x) for x in rng.uniform(0, 6, size=2))
            sc = tuple(0.37 * x for x in s)
            r1, r2 = found(i1, s, 1, 3), found(i2, sc, 1, 3)
            assert [i for i, _ in r1] == [i for i, _ in r2]
            assert [d for _, d in r1] == pytest.approx(
                [d for _, d in r2], rel=1e-9)
