"""Optimal value-to-curve ordering: bottleneck, total deviation, tie-breaking.

``fit_oracle`` holds the general bipartite solver (binary search with
Hopcroft-Karp, Hungarian assignment, lex-min DFS) that the 1-D solver
replaced; its primitives are tested here and it is the reference for the
differential tests.  It also holds the numpy form of the 1-D solver's
interval sweep, the reference for the list sweep, and the 1-D solver's
interval computation for one instance, the reference for the row-wise one.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from albumarc.core import EssenceSeries, Ordering, relative_positions
from albumarc.fitcurve import (
    FitResult,
    _fit_rows,
    _interval_rows,
    _lex_smallest_assignment,
    fit_ordering,
    sample_template,
)
from albumarc.spline import DEFAULT_KNOTS, build_spline, eval_curve

from fit_oracle import (
    candidate_thresholds,
    fit_ordering as oracle_fit_ordering,
    has_perfect_matching,
    lex_smallest_assignment as oracle_lex_smallest_assignment,
    max_bipartite_matching,
    min_cost_perfect_matching,
    rank_intervals as oracle_rank_intervals,
)

RISING = build_spline([0.0, 1.0], [0.0, 1.0])
FALLING = build_spline([0.0, 1.0], [1.0, 0.0])
CONSTANT = build_spline([0.0, 1.0], [0.5, 0.5])


VALUE_KINDS = ("random", "constant", "two-level", "quarter-step", "dyadic")


def make_values(kind, n, rng):
    """n values in [0, 1]; every kind but ``random`` is tie-heavy."""
    if kind == "random":
        return rng.uniform(0, 1, n)
    if kind == "constant":
        return np.full(n, rng.uniform(0, 1))
    if kind == "two-level":
        return rng.integers(0, 2, n).astype(np.float64)
    if kind == "quarter-step":
        return rng.integers(0, 5, n) / 4.0
    return rng.integers(0, 17, n) / 16.0


def random_curve(rng):
    return build_spline(DEFAULT_KNOTS, rng.uniform(0, 1, len(DEFAULT_KNOTS)))


def brute_force(y, z):
    """All-permutation reference: bottleneck minimum, then the total-deviation
    minimum and the set of permutations attaining both (ties included)."""
    n = len(y)
    best = None
    for perm in itertools.permutations(range(n)):
        dev = np.abs(y[list(perm)] - z)
        key = (dev.max(), dev.sum())
        if best is None or key[0] < best[0] - 1e-15:
            best = key
    bottleneck = best[0]
    total = min(
        np.abs(y[list(p)] - z).sum()
        for p in itertools.permutations(range(n))
        if np.abs(y[list(p)] - z).max() <= bottleneck + 1e-15
    )
    return bottleneck, total


class TestSampleTemplate:
    def test_constant_curve(self):
        np.testing.assert_allclose(sample_template(CONSTANT, 4), [0.5] * 4)

    def test_identity_line(self):
        np.testing.assert_allclose(sample_template(RISING, 3), [0.0, 0.5, 1.0])

    def test_tent_curve_in_range_untouched(self):
        tent = build_spline([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(
            sample_template(tent, 5), [0.0, 0.6875, 1.0, 0.6875, 0.0], atol=1e-12
        )

    def test_overshoot_is_sampled_as_is(self):
        # Steep control points overshoot [0,1] between knots; the targets
        # are the spline's own values there, as the GA scores them.
        wiggly = build_spline([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.0, 0.0, 1.0, 0.0])
        z = sample_template(wiggly, 41)
        np.testing.assert_array_equal(z, eval_curve(wiggly, relative_positions(41)))
        assert z.max() > 1.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            sample_template(RISING, 1)


class TestCandidateThresholds:
    def test_two_point_case(self):
        np.testing.assert_array_equal(
            candidate_thresholds([0.0, 1.0], [0.0, 1.0]), [0.0, 1.0]
        )

    def test_worked_three_point_case(self):
        got = candidate_thresholds([0.2, 0.9, 0.4], [0.0, 0.5, 1.0])
        np.testing.assert_allclose(got, [0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 0.9], atol=1e-12)

    def test_degenerate_constant_inputs(self):
        got = candidate_thresholds([0.3, 0.3], [0.7, 0.7])
        np.testing.assert_allclose(got, [0.4], atol=1e-12)
        assert len(got) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            candidate_thresholds([0.1], [0.1, 0.2])


class TestMatchingPrimitives:
    def test_max_matching_sizes(self):
        # Perfect matching exists.
        assert sum(m >= 0 for m in max_bipartite_matching([[0], [0, 1], [2]], 3)) == 3
        # Both rows compete for one column: max matching 1.
        assert sum(m >= 0 for m in max_bipartite_matching([[0], [0]], 2)) == 1
        # Isolated row caps the matching.
        assert sum(m >= 0 for m in max_bipartite_matching([[], [0, 1]], 2)) == 1

    def test_has_perfect_matching_examples(self):
        y = [0.2, 0.9, 0.4]
        z = [0.0, 0.5, 1.0]
        assert has_perfect_matching(y, z, 1.0)
        assert has_perfect_matching([0.0, 1.0], [0.0, 1.0], 0.0)
        assert not has_perfect_matching(y, z, 0.1)  # value 0.2 has no edge

    def test_min_cost_matching_agrees_with_reference(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 8, 13):
            cost = rng.uniform(0, 1, (n, n))
            row_of_col, u, v = min_cost_perfect_matching(cost)
            rows, cols = linear_sum_assignment(cost)
            ours = cost[row_of_col, np.arange(n)].sum()
            ref = cost[rows, cols].sum()
            assert ours == pytest.approx(ref, abs=1e-10)
            # Dual feasibility and complementary slackness.
            slack = cost - u[:, None] - v[None, :]
            assert slack.min() >= -1e-9
            assert np.all(np.abs(slack[row_of_col, np.arange(n)]) <= 1e-9)


class TestFitOrderingExamples:
    def test_exact_fit_is_identity(self):
        y = sample_template(RISING, 4)
        result = fit_ordering(y, RISING)
        assert result.ordering == Ordering((0, 1, 2, 3))
        assert result.bottleneck == 0.0
        assert result.total_deviation == 0.0

    def test_worked_three_value_case(self):
        result = fit_ordering([0.2, 0.9, 0.4], RISING)
        assert result.ordering.positions == (0, 2, 1)
        assert result.bottleneck == pytest.approx(0.2, abs=1e-12)
        assert result.total_deviation == pytest.approx(0.4, abs=1e-12)

    def test_constant_curve_breaks_ties_lexicographically(self):
        result = fit_ordering([0.9, 0.1, 0.5, 0.3], CONSTANT)
        assert result.ordering == Ordering((0, 1, 2, 3))

    def test_two_track_monotone_case(self):
        result = fit_ordering([0.8, 0.1], RISING)
        assert result.ordering.positions == (1, 0)

    def test_accepts_minmax_series_only(self):
        series = EssenceSeries("a", np.array([0.4, 0.2, 0.9]))
        with pytest.raises(ValueError, match="min-max"):
            fit_ordering(series, RISING)
        result = fit_ordering(series.minmax(), RISING)
        assert sorted(result.ordering.positions) == [0, 1, 2]

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match="min-max normalize"):
            fit_ordering([0.0, 1.4], RISING)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit_ordering([bad, 0.5, 0.2], RISING)

    def test_rejects_single_value(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_ordering([0.5], RISING)

    def test_result_invariants(self):
        result = fit_ordering([0.3, 0.8, 0.1, 0.6], FALLING)
        assert isinstance(result, FitResult)
        assert result.bottleneck == result.per_position_deviation.max()
        assert result.total_deviation == pytest.approx(
            result.per_position_deviation.sum(), abs=1e-12
        )


class TestFitOrderingOptimality:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            y = rng.uniform(0, 1, n)
            curve = build_spline([0.0, 0.5, 1.0], rng.uniform(0, 1, 3))
            z = sample_template(curve, n)
            result = fit_ordering(y, curve)
            bottleneck, total = brute_force(y, z)
            assert result.bottleneck == bottleneck
            assert result.total_deviation == pytest.approx(total, abs=1e-12)

    def test_total_matches_unconstrained_assignment(self):
        # On a line, one matching minimizes max and sum simultaneously, so the
        # capped minimum must equal the unconstrained assignment optimum.
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            y = rng.uniform(0, 1, n)
            z = sample_template(RISING, n)
            result = fit_ordering(y, RISING)
            dist = np.abs(y[:, None] - z[None, :])
            rows, cols = linear_sum_assignment(dist)
            assert result.total_deviation == pytest.approx(dist[rows, cols].sum(), abs=1e-10)

    def test_bottleneck_equals_sorted_matching_max(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            y = rng.uniform(0, 1, n)
            curve = build_spline([0.0, 0.4, 1.0], rng.uniform(0, 1, 3))
            z = sample_template(curve, n)
            expected = np.abs(np.sort(y) - np.sort(z)).max()
            assert fit_ordering(y, curve).bottleneck == expected

    def test_lexicographic_tiebreak_exact_on_dyadic_instances(self):
        # Dyadic values and dyadic curve samples make every deviation exact in
        # binary floating point, so tie comparison has no rounding slack and
        # the lexicographic rule can be checked literally.
        rng = np.random.default_rng(10)
        for _ in range(120):
            n = int(rng.choice([2, 3, 5]))
            y = rng.integers(0, 17, n) / 16.0
            z = sample_template(RISING, n)
            result = fit_ordering(y, RISING)
            best = None
            for perm in itertools.permutations(range(n)):
                dev = np.abs(y[list(perm)] - z)
                key = (dev.max(), dev.sum(), perm)
                if best is None or key < best:
                    best = key
            assert result.ordering.positions == best[2]
            assert result.bottleneck == best[0]
            assert result.total_deviation == best[1]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=2,
            max_size=12,
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_properties_hold_on_arbitrary_inputs(self, values, curve_seed):
        y = np.array(values)
        curve = build_spline(
            [0.0, 0.5, 1.0], np.random.default_rng(curve_seed).uniform(0, 1, 3)
        )
        result = fit_ordering(y, curve)
        n = len(y)
        # A valid permutation, with self-consistent diagnostics.
        assert sorted(result.ordering.positions) == list(range(n))
        z = sample_template(curve, n)
        np.testing.assert_allclose(
            result.per_position_deviation,
            np.abs(y[list(result.ordering.positions)] - z),
            atol=0,
        )
        # No sampled candidate ordering beats the claimed bottleneck.
        rng = np.random.default_rng(curve_seed ^ 0xA5A5)
        for _ in range(10):
            perm = rng.permutation(n)
            assert np.abs(y[perm] - z).max() >= result.bottleneck - 1e-15

    def test_monotone_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 15))
            y = rng.permutation(np.linspace(0.05, 0.95, n))
            result = fit_ordering(y, RISING)
            assert np.all(np.diff(y[list(result.ordering.positions)]) > 0)

    def test_deterministic(self):
        y = np.random.default_rng(12).uniform(0, 1, 9)
        curve = build_spline([0.0, 0.3, 1.0], [0.2, 0.9, 0.4])
        first = fit_ordering(y, curve)
        second = fit_ordering(y, curve)
        assert first.ordering == second.ordering
        assert first.bottleneck == second.bottleneck


def sorted_rows(y, z):
    """Each row of ``y`` and ``z`` sorted, and each row's sorted-matching
    bottleneck."""
    ys, zs = np.sort(y, axis=1), np.sort(z, axis=1)
    return ys, zs, np.abs(ys - zs).max(axis=1)


def assert_sweeps_agree(y, z):
    order_y = np.argsort(y, kind="stable")
    order_z = np.argsort(z, kind="stable")
    lo, hi = _interval_rows(*sorted_rows(y[None], z[None]))
    got = _lex_smallest_assignment(order_y.tolist(), order_z.tolist(), lo[0], hi[0])
    want = oracle_lex_smallest_assignment(order_y, order_z, np.array(lo[0]), np.array(hi[0]))
    assert list(got) == want.tolist()


def mixed_rows(rng, n, b):
    """b rows of n values, every kind of :func:`make_values` in turn."""
    return np.stack([make_values(VALUE_KINDS[i % len(VALUE_KINDS)], n, rng) for i in range(b)])


def row_batches(shape):
    """A (2, b, n) array: b rows of values and b rows of targets, each cell
    on a grid of ``steps`` steps (ties within and across the two sides are
    common) or, for ``steps`` 0, any float in [0, 1]."""
    b, n, steps = shape
    cell = st.floats(0.0, 1.0) if steps == 0 else st.integers(0, steps).map(lambda i: i / steps)
    return st.lists(cell, min_size=2 * b * n, max_size=2 * b * n).map(
        lambda cells: np.array(cells, dtype=np.float64).reshape(2, b, n)
    )


batches = st.tuples(st.integers(1, 6), st.integers(2, 10), st.sampled_from([0, 2, 4, 8])).flatmap(
    row_batches
)


class TestAgainstOracle:
    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_matches_oracle_exactly(self, kind):
        # 200 instances per kind, 1000 in all.
        rng = np.random.default_rng([13, VALUE_KINDS.index(kind)])
        for _ in range(200):
            n = int(rng.integers(2, 61))
            y = make_values(kind, n, rng)
            curve = random_curve(rng)
            got = fit_ordering(y, curve)
            want = oracle_fit_ordering(y, curve)
            assert got.ordering == want.ordering
            assert got.bottleneck == want.bottleneck
            assert got.total_deviation == pytest.approx(want.total_deviation, abs=1e-12)

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_sweep_matches_array_sweep(self, kind):
        # The list sweep against the numpy sweep it replaced, on the
        # instances of test_matches_oracle_exactly.
        rng = np.random.default_rng([13, VALUE_KINDS.index(kind)])
        for _ in range(200):
            n = int(rng.integers(2, 61))
            y = make_values(kind, n, rng)
            assert_sweeps_agree(y, sample_template(random_curve(rng), n))

    @pytest.mark.parametrize("n", [200, 400])
    @pytest.mark.parametrize("kind", ["constant", "two-level", "quarter-step"])
    def test_sweep_matches_array_sweep_on_large_ties(self, kind, n):
        rng = np.random.default_rng([17, n, VALUE_KINDS.index(kind)])
        for _ in range(5):
            y = make_values(kind, n, rng)
            assert_sweeps_agree(y, sample_template(random_curve(rng), n))

    def test_rank_intervals_are_monotone_and_hold_the_sorted_matching(self):
        # The sweep's feasibility test rests on these two properties.
        rng = np.random.default_rng(14)
        for kind in VALUE_KINDS:
            for _ in range(40):
                n = int(rng.integers(2, 61))
                y = make_values(kind, n, rng)[None]
                z = sample_template(random_curve(rng), n)[None]
                lo, hi = (np.array(bounds[0]) for bounds in _interval_rows(*sorted_rows(y, z)))
                assert np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0)
                assert np.all(lo <= np.arange(n)) and np.all(np.arange(n) <= hi)

    @pytest.mark.parametrize("n", [2, 3, 7, 20, 61])
    def test_interval_rows_match_one_instance_oracle(self, n):
        # Batches that mix random, tied and constant rows of one length.
        rng = np.random.default_rng([18, n])
        for _ in range(20):
            b = int(rng.integers(1, 12))
            y = mixed_rows(rng, n, b)
            z = np.stack([sample_template(random_curve(rng), n) for _ in range(b)])
            if rng.random() < 0.3:
                z = mixed_rows(rng, n, b)
            ys, zs, bottlenecks = sorted_rows(y, z)
            lo, hi = _interval_rows(ys, zs, bottlenecks)
            for i in range(b):
                want_lo, want_hi = oracle_rank_intervals(ys[i], zs[i], float(bottlenecks[i]))
                assert lo[i] == want_lo.tolist()
                assert hi[i] == want_hi.tolist()

    @settings(max_examples=200, deadline=None)
    @given(batches)
    def test_batch_equals_one_row_calls(self, yz):
        y, z = yz
        orderings, bottlenecks, deviations = _fit_rows(y, z)
        for i in range(y.shape[0]):
            (one,), (bottleneck,), (deviation,) = _fit_rows(y[i : i + 1], z[i : i + 1])
            assert orderings[i] == one
            assert bottlenecks[i] == bottleneck
            assert np.array_equal(deviations[i], deviation)
            assert deviations[i].sum() == deviation.sum()


class TestLargeFits:
    @pytest.mark.parametrize("kind", ["random", "constant", "two-level", "quarter-step"])
    def test_n1000_is_optimal_permutation(self, kind):
        rng = np.random.default_rng([15, VALUE_KINDS.index(kind)])
        n = 1000
        y = make_values(kind, n, rng)
        curve = random_curve(rng)
        result = fit_ordering(y, curve)
        assert sorted(result.ordering.positions) == list(range(n))
        sorted_dev = np.abs(np.sort(y) - np.sort(sample_template(curve, n)))
        assert result.bottleneck == sorted_dev.max()
        assert result.per_position_deviation.max() == sorted_dev.max()
        assert result.total_deviation == pytest.approx(sorted_dev.sum(), abs=1e-9)

    def test_n1000_constant_values_give_identity(self):
        curve = random_curve(np.random.default_rng(16))
        result = fit_ordering(np.full(1000, 0.3), curve)
        assert result.ordering == Ordering(tuple(range(1000)))
