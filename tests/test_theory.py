import dataclasses
import math
import warnings

import numpy as np
import pytest

from adac.dataset import Transition, make_batch
from adac.derivation import PenaltyMode, build_mdp
from adac.evaluation import reconstruction_batch
from adac.neighbors import build_index
from adac.planner import value_iteration
from adac.theory import (canonical_shaping, covering_number, d_bar_max,
                         k_window, pac_bound, sampling_error)

from conftest import brute_force_cover, euclid, manhattan, random_batch

SQRT52 = math.sqrt(52)


class TestCoveringNumber:
    def test_alpha_one_gives_one_center_per_action(self, table1):
        assert covering_number(build_index(table1), 1.0) == 2

    def test_tiny_alpha_counts_distinct_pairs(self, table1):
        assert covering_number(build_index(table1), 1e-12) == 6

    def test_alpha_point_two(self, table1):
        got = covering_number(build_index(table1), 0.2)
        oracle = brute_force_cover(table1, 0.2, SQRT52)
        assert got == len(oracle) == 4

    def test_matches_oracle_on_random_batches(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            batch = random_batch(rng, n=int(rng.integers(5, 50)))
            diam = build_index(batch).diameter
            for alpha in (0.1, 0.3, 0.7):
                oracle = brute_force_cover(batch, alpha, diam)
                got = covering_number(build_index(batch), alpha)
                assert got == len(oracle)

    @pytest.mark.parametrize("norm, dist", [("euclidean", euclid),
                                            ("manhattan", manhattan)])
    def test_net_follows_first_appearance_not_coordinates(self, norm, dist):
        # action 0's sources at distance 1 of each other, in file order 1, 0,
        # 2: (1, 0) covers both others at radius 1 (alpha 0.25 of the
        # diameter 4), where a scan from (0, 0) in coordinate order would
        # leave (2, 0) to a second center
        rows = [((1.0, 0.0), 0, (0.0, 0.0)), ((0.0, 0.0), 0, (4.0, 0.0)),
                ((2.0, 0.0), 0, (0.0, 0.0)), ((0.0, 0.0), 1, (4.0, 0.0)),
                ((1.0, 0.0), 0, (0.0, 0.0))]

        def cover(rows):
            batch = make_batch([Transition(s, a, 1.0, sp, 0, t)
                                for t, (s, a, sp) in enumerate(rows)])
            index = build_index(batch, norm)
            assert index.diameter == 4.0
            got = covering_number(index, 0.25)
            assert got == len(brute_force_cover(batch, 0.25, 4.0, dist))
            return got

        assert cover(rows) == 2
        # the same pairs sorted by action, then coordinates
        assert cover(sorted(rows, key=lambda row: (row[1], row[0]))) == 3

    def test_matches_oracle_on_repeated_pairs(self):
        # coordinates in 0..2 repeat most (source, action) pairs, which the
        # net sees once as a distinct point and the oracle scans again
        rng = np.random.default_rng(52)
        for _ in range(8):
            batch = random_batch(rng, n=int(rng.integers(20, 120)),
                                 dim=int(rng.integers(1, 4)),
                                 actions=int(rng.integers(1, 4)),
                                 coord_max=int(rng.integers(1, 3)))
            for norm, dist in (("euclidean", euclid),
                               ("manhattan", manhattan)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    index = build_index(batch, norm)
                for alpha in (0.05, 0.2, 0.5, 1.0):
                    oracle = brute_force_cover(batch, alpha, index.diameter,
                                               dist)
                    assert covering_number(index, alpha) == len(oracle)

    def test_every_pair_within_alpha_of_a_center(self, table1):
        alpha = 0.2
        centers = brute_force_cover(table1, alpha, SQRT52)
        for tr in table1.transitions:
            assert any(ca == tr.a and euclid(cs, tr.s) / SQRT52 <= alpha
                       for cs, ca in centers)

    def test_non_increasing_in_alpha(self, table1):
        grid = [0.01, 0.05, 0.1, 0.2, 0.5, 1.0]
        counts = [covering_number(build_index(table1), a) for a in grid]
        assert counts == sorted(counts, reverse=True)

    def test_alpha_must_be_positive(self, table1):
        for alpha in (0.0, math.nan):
            with pytest.raises(ValueError):
                covering_number(build_index(table1), alpha)


class TestSamplingError:
    def test_worked_values(self):
        eps = sampling_error(10.0, 761, 100, 0.1)
        assert eps == pytest.approx(10 * math.sqrt(math.log(2000) / 761),
                                    abs=1e-12)
        assert eps == pytest.approx(0.9994, abs=5e-4)
        assert eps <= 1.0

    def test_vanishes_as_k_grows(self):
        assert sampling_error(10.0, 10**9, 100, 0.1) < 1e-3

    def test_doubling_k_divides_by_sqrt2(self):
        a = sampling_error(5.0, 100, 50, 0.2)
        b = sampling_error(5.0, 200, 50, 0.2)
        assert a / b == pytest.approx(math.sqrt(2), abs=1e-12)


class TestKWindow:
    def test_worked_values(self):
        win = k_window(10.0, 1.0, 100, 0.1)
        assert win.k_min == 761
        assert win.k_max == 2000
        assert not win.empty
        assert win.k_min == math.ceil(100 * math.log(2000))

    def test_small_case(self):
        win = k_window(1.0, 1.0, 1, 0.5)
        assert (win.k_min, win.k_max) == (2, 4)

    def test_tiny_delta_can_close_window(self):
        win = k_window(100.0, 0.001, 1, 0.9)
        assert win.empty and win.k_min > win.k_max

    def test_inversion_consistency(self):
        # eps computed at k = k_min certifies at most that eps
        win = k_window(10.0, 1.0, 100, 0.1)
        assert sampling_error(10.0, win.k_min, 100, 0.1) <= 1.0 + 1e-9


class TestDBarMax:
    def adaptive_mdp(self, table1):
        index = build_index(table1)
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive(), index=index)
        return mdp, index

    def test_worked_example_value(self, table1):
        mdp, index = self.adaptive_mdp(table1)
        got = d_bar_max(mdp, index)
        worst = (math.sqrt(41) + math.sqrt(20) + SQRT52) / 3 / SQRT52
        assert got == pytest.approx(worst, abs=1e-12)
        assert got == pytest.approx(0.836, abs=5e-4)

    def test_exhaustive_recomputation(self, table1):
        mdp, index = self.adaptive_mdp(table1)
        ns_sources = [(3.0, 3.0), (6.0, 1.0), (2.0, 3.0)]
        ew_sources = [(1.0, 5.0), (2.0, 3.0), (0.0, 5.0)]
        best = 0.0
        for s in mdp.core:
            for sources in (ns_sources, ew_sources):
                mean = sum(euclid(s, src) for src in sources) / 3 / SQRT52
                best = max(best, mean)
        assert d_bar_max(mdp, index) == pytest.approx(best, abs=1e-12)

    def test_zero_when_all_duplicates(self):
        from adac.dataset import Transition, make_batch
        rows = [Transition((1.0, 1.0), 0, 1.0, (1.0, 1.0), 0, t)
                for t in range(3)]
        batch = make_batch(rows)
        with pytest.warns(RuntimeWarning):
            index = build_index(batch)
        mdp = build_mdp(batch, k=3, alpha=math.inf, gamma=0.9,
                        mode=PenaltyMode.adaptive(), index=index)
        assert d_bar_max(mdp, index) == 0.0

    @pytest.mark.parametrize("other", ["more core states", "fewer"])
    def test_rejects_an_index_of_another_batch(self, table1, other):
        mdp, _ = self.adaptive_mdp(table1)
        batch = (reconstruction_batch() if other == "more core states"
                 else make_batch(list(table1.transitions[:-1]),
                                 table1.action_count, table1.reward_bound))
        index = build_index(batch)
        assert (len(index.core) > mdp.num_states()) == (other != "fewer")
        with pytest.raises(ValueError, match="not the batch it was derived"):
            d_bar_max(mdp, index)

    def test_bounded_by_alpha(self):
        rng = np.random.default_rng(52)
        batch = random_batch(rng, n=60)
        index = build_index(batch)
        mdp = build_mdp(batch, k=4, alpha=0.3, gamma=0.9,
                        mode=PenaltyMode.adaptive(), index=index)
        assert d_bar_max(mdp, index) <= 0.3


class TestPacBound:
    def test_gap_arithmetic(self, table1):
        index = build_index(table1)
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.9,
                        mode=PenaltyMode.adaptive(), index=index)
        sol = value_iteration(mdp, tol=1e-9)
        report = pac_bound(table1, mdp, sol, delta=0.1, alpha=1.0)
        expected = (2 * report.epsilon_s
                    + report.d_bar_max * report.r_max_bound) / (1 - 0.9)
        assert report.gap == pytest.approx(expected, abs=1e-9)
        assert report.r_max_bound == 4.0
        assert report.covering_number == 2
        # only +inf means the whole cloud; NaN is no radius
        with pytest.raises(ValueError, match="alpha"):
            pac_bound(table1, mdp, sol, delta=0.1, alpha=math.nan)

    def test_zero_error_zero_gap(self):
        # direct formula check: eps_s = 0, d_bar = 0 makes the gap vanish
        assert (2 * 0.0 + 0.0 * 5.0) / (1 - 0.0) == 0.0

    def test_worked_gap_value(self):
        gap = (2 * 1.0 + 0.1 * 5.0) / (1 - 0.9)
        assert gap == pytest.approx(25.0, abs=1e-12)

    def test_gap_decreases_with_gamma(self, table1):
        index = build_index(table1)
        gaps = []
        for gamma in (0.5, 0.9):
            mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=gamma,
                            mode=PenaltyMode.adaptive(), index=index)
            sol = value_iteration(mdp, tol=1e-9)
            gaps.append(pac_bound(table1, mdp, sol, 0.1, alpha=1.0).gap)
        assert gaps[0] < gaps[1]

    def test_report_window_consistency(self, table1):
        index = build_index(table1)
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive(), index=index)
        sol = value_iteration(mdp, tol=1e-9)
        report = pac_bound(table1, mdp, sol, 0.1, alpha=0.8)
        if not report.k_window_empty:
            assert report.k_min <= report.k_max
        assert report.q_max <= report.q_max_ceiling + 1e-9


    def test_rejects_mismatched_artifacts(self, table1):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        sol = value_iteration(mdp, tol=1e-9)
        other = make_batch(list(table1.transitions[:-1]),
                           table1.action_count, table1.reward_bound)
        with pytest.raises(ValueError, match="derived from"):
            pac_bound(other, mdp, sol, 0.1)
        short = dataclasses.replace(sol, q=sol.q[:-1])
        with pytest.raises(ValueError, match="solution"):
            pac_bound(table1, mdp, short, 0.1)

    def test_rejects_a_batch_whose_sources_moved(self, table1):
        """Transition 0's source moved 3 along the first axis keeps the core
        states (the next states) but changes the rewards: the gap would
        read 393.96 where the MDP's own batch gives 397.53."""
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.9)
        sol = value_iteration(mdp, tol=1e-9)
        assert pac_bound(table1, mdp, sol, 0.1).gap == pytest.approx(
            397.53, abs=5e-3)
        s = table1.s.copy()
        s[0, 0] += 3
        moved = dataclasses.replace(table1, s=s)
        index = build_index(moved)
        assert index.core == mdp.core
        with pytest.raises(ValueError, match="other rewards or transitions "
                           "than the MDP's: not the batch it was derived"):
            pac_bound(moved, mdp, sol, 0.1)
        with pytest.raises(ValueError, match="not the batch it was derived"):
            d_bar_max(mdp, index)

    def test_rejects_an_mdp_of_another_penalty_or_k(self, table1):
        # the index is the MDP's own, but the MDP is relabelled: reduced at
        # its stated mode or k, the table gives other rewards or rows
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.9)
        index = build_index(table1)
        for other in (dataclasses.replace(mdp, mode=PenaltyMode.averagers()),
                      dataclasses.replace(mdp, k=2)):
            with pytest.raises(ValueError, match="not the batch it was"):
                d_bar_max(other, index)

    def test_rejects_an_mdp_of_another_norm_or_diameter(self, table1):
        mdp = build_mdp(table1, k=3, alpha=math.inf, gamma=0.99,
                        mode=PenaltyMode.adaptive())
        sol = value_iteration(mdp, tol=1e-9)
        # a Euclidean derivation relabelled Manhattan: the batch's Manhattan
        # diameter is 10, not the MDP's sqrt(52)
        for other in (dataclasses.replace(mdp, norm="manhattan"),
                      dataclasses.replace(mdp, diameter=1.0)):
            with pytest.raises(ValueError, match="diameter"):
                pac_bound(table1, other, sol, 0.1)

class TestCanonicalShaping:
    def test_averagers_homogeneous(self):
        value = canonical_shaping(5, 1.0, 0.5, 0.5, PenaltyMode.averagers())
        assert value == 1.0

    def test_adaptive_equal_distances(self):
        for d in (0.1, 0.5, 0.9):
            value = canonical_shaping(5, 1.0, d, d, PenaltyMode.adaptive())
            assert value == pytest.approx(1.0 - d, abs=1e-12)

    def test_fixed_equals_averagers_minus_mean_distance_cost(self):
        for c in (0.0, 1.0, 3.0):
            for r_max in (1.0, 4.0, 9.0):
                base = canonical_shaping(5, r_max, 0.3, 0.8,
                                         PenaltyMode.averagers())
                fixed = canonical_shaping(5, r_max, 0.3, 0.8,
                                          PenaltyMode.fixed(c))
                mean_d = (4 * 0.3 + 0.8) / 5
                assert fixed == pytest.approx(base - c * mean_d, abs=1e-12)

    def test_adaptive_gap_scales_with_r_max(self):
        for r_max in (1.0, 2.0, 5.0, 10.0):
            base = canonical_shaping(5, r_max, 0.5, 0.5,
                                     PenaltyMode.averagers())
            adaptive = canonical_shaping(5, r_max, 0.5, 0.5,
                                         PenaltyMode.adaptive())
            assert adaptive - base == pytest.approx(-r_max * 0.5, abs=1e-12)

    def test_adaptive_gap_is_r_max_times_mean_distance(self):
        # holds for unequal near/far distances too, so the gap against any
        # fixed-cost curve grows without bound in r_max
        for k in (2, 4, 7):
            for d_near, d_far in ((0.1, 0.9), (0.6, 0.2), (0.5, 0.5)):
                for r_max in (1.0, 3.0, 25.0):
                    base = canonical_shaping(k, r_max, d_near, d_far,
                                             PenaltyMode.averagers())
                    adaptive = canonical_shaping(k, r_max, d_near, d_far,
                                                 PenaltyMode.adaptive())
                    mean_d = ((k - 1) * d_near + d_far) / k
                    assert adaptive - base == pytest.approx(
                        -r_max * mean_d, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            canonical_shaping(1, 2.0, 0.5, 0.5, PenaltyMode.adaptive())
        with pytest.raises(ValueError):
            canonical_shaping(5, 0.5, 0.5, 0.5, PenaltyMode.adaptive())
        for r_max, d_near, d_far in ((math.nan, 0.5, 0.5),
                                     (math.inf, 0.5, 0.5),
                                     (2.0, math.nan, 0.5),
                                     (2.0, 0.5, -0.1), (2.0, 0.5, math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                canonical_shaping(5, r_max, d_near, d_far,
                                  PenaltyMode.adaptive())
