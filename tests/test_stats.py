import math
import random

import numpy as np
import pytest
import scipy.stats as sps
from scipy import special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esclab.errors import (
    EmptySample,
    InsufficientRuns,
    InsufficientSample,
    ZeroBaseline,
)
from esclab.stats import (
    _binom,
    _ndtr,
    _pairwise_sum,
    _percentile,
    _std,
    ci95_per_day,
    percent_reduction,
    significance_test,
    summarize,
    t_critical,
)

from oracles import exact_mwu_p, quartiles, t_quantile, u_statistic

# Hand-computed five-number summaries under the linear-interpolation
# convention (cross-checked against statistics.quantiles "inclusive").
CANONICAL_VECTORS = [
    ([1, 2, 3, 4], (1.75, 2.5, 3.25)),
    ([5], (5.0, 5.0, 5.0)),
    ([0, 0, 0, 0, 0], (0.0, 0.0, 0.0)),
    ([1, 2, 3, 4, 5], (2.0, 3.0, 4.0)),
    ([1, 2, 3, 4, 5, 6], (2.25, 3.5, 4.75)),
    ([1, 2, 3, 4, 5, 6, 7], (2.5, 4.0, 5.5)),
    ([1, 2, 3, 4, 5, 6, 7, 8], (2.75, 4.5, 6.25)),
    ([2, 4], (2.5, 3.0, 3.5)),
    ([10, 1, 7, 3], (2.5, 5.0, 7.75)),
    ([-2, 0, 60], (-1.0, 0.0, 30.0)),
    ([1, 1, 2, 2], (1.0, 1.5, 2.0)),
    ([0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5], (2.75, 5.0, 7.25)),
]


class TestSummarize:
    @pytest.mark.parametrize("samples,expected", CANONICAL_VECTORS)
    def test_canonical_quartiles(self, samples, expected):
        stats = summarize(samples)
        q1, median, q3 = expected
        assert stats.q1 == pytest.approx(q1, abs=1e-12)
        assert stats.median == pytest.approx(median, abs=1e-12)
        assert stats.q3 == pytest.approx(q3, abs=1e-12)
        assert stats.min == min(samples)
        assert stats.max == max(samples)
        assert stats.mean == pytest.approx(sum(samples) / len(samples))
        assert stats.n == len(samples)

    @pytest.mark.parametrize("samples,expected", CANONICAL_VECTORS)
    def test_matches_independent_quantile_implementation(self, samples, expected):
        stats = summarize(samples)
        q1, median, q3 = quartiles(samples)
        assert stats.q1 == pytest.approx(q1, abs=1e-12)
        assert stats.median == pytest.approx(median, abs=1e-12)
        assert stats.q3 == pytest.approx(q3, abs=1e-12)

    def test_order_invariants(self):
        rng = random.Random(3)
        for _ in range(100):
            samples = [rng.uniform(-5, 20) for _ in range(rng.randint(1, 30))]
            stats = summarize(samples)
            assert stats.min <= stats.q1 <= stats.median <= stats.q3 <= stats.max

    def test_permutation_invariance(self):
        rng = random.Random(4)
        samples = [rng.uniform(0, 10) for _ in range(17)]
        baseline = summarize(samples)
        for _ in range(10):
            rng.shuffle(samples)
            assert summarize(samples) == baseline

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            summarize([])


class TestPercentReduction:
    # Reported means and their rounded headline reductions.
    REFERENCE = [
        ((6.37, 3.96), 38),
        ((6.37, 3.33), 48),
        ((6.37, 4.61), 28),
        ((6.37, 2.76), 57),
        ((11.1, 6.7), 40),
        ((11.1, 6.5), 42),
    ]

    @pytest.mark.parametrize("pair,expected", REFERENCE)
    def test_reference_reductions_within_one_point(self, pair, expected):
        value = percent_reduction(*pair)
        assert abs(round(value) - expected) <= 1

    def test_first_pair_value(self):
        assert percent_reduction(6.37, 3.96) == pytest.approx(37.83, abs=0.005)

    def test_no_change_is_zero(self):
        assert percent_reduction(4.2, 4.2) == 0.0

    def test_scale_invariance(self):
        rng = random.Random(8)
        for _ in range(50):
            baseline = rng.uniform(0.1, 50)
            treatmnt = rng.uniform(-10, 50)
            c = rng.uniform(0.01, 9)
            assert percent_reduction(baseline, treatmnt) == pytest.approx(
                percent_reduction(c * baseline, c * treatmnt)
            )

    def test_zero_baseline_rejected(self):
        with pytest.raises(ZeroBaseline):
            percent_reduction(0.0, 1.0)


class TestCi95:
    def test_zero_variance_collapses_to_mean(self):
        matrix = [[3.0, 5.0, 7.0]] * 6
        series = ci95_per_day(matrix)
        for day, mean in zip(series.days, [3.0, 5.0, 7.0]):
            assert day.ci_low == day.mean == day.ci_high == mean

    def test_half_width_formula_n10(self):
        rng = random.Random(11)
        matrix = [[rng.gauss(0, 1) for _ in range(14)] for _ in range(10)]
        series = ci95_per_day(matrix)
        t_exact = t_quantile(0.975, 9)
        for d, day in enumerate(series.days):
            column = [matrix[r][d] for r in range(10)]
            mean = sum(column) / 10
            s = math.sqrt(sum((x - mean) ** 2 for x in column) / 9)
            expected = t_exact * s / math.sqrt(10)
            half = (day.ci_high - day.ci_low) / 2
            assert half == pytest.approx(expected, rel=1e-9)
            assert half == pytest.approx(2.262 * s / math.sqrt(10), rel=1e-3)
            assert day.ci_low <= day.mean <= day.ci_high

    def test_t_critical_matches_table_value(self):
        assert t_critical(0.95, 9) == pytest.approx(2.2621571627, abs=1e-9)
        assert t_critical(0.95, 9) == pytest.approx(2.262, abs=1e-3)

    def test_t_critical_matches_independent_cdf_inversion(self):
        for dof in (1, 2, 5, 9, 19, 30):
            assert t_critical(0.95, dof) == pytest.approx(
                t_quantile(0.975, dof), rel=1e-9
            )

    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    def test_t_critical_is_correctly_rounded(self, confidence):
        for dof in [*range(1, 61), *range(100, 2001, 100)]:
            assert t_critical(confidence, dof) == t_quantile(0.5 + confidence / 2, dof), dof

    @pytest.mark.parametrize("dof", [1, 2, 9])
    def test_t_critical_keeps_scipy_values_where_scipy_is_correctly_rounded(self, dof):
        # The golden rows' runs (two per treatment) and both benchmark plans'.
        assert t_critical(0.95, dof) == float(sps.t.ppf(0.975, dof))

    def test_single_run_rejected(self):
        with pytest.raises(InsufficientRuns):
            ci95_per_day([[1.0, 2.0]])


class TestSignificance:
    def test_separated_samples_significant(self):
        result = significance_test(list(range(1, 11)), list(range(11, 21)))
        assert result.p_value < 0.001
        assert result.significant_at_0_05

    def test_identical_samples_not_significant(self):
        result = significance_test(list(range(1, 11)), list(range(1, 11)))
        assert result.p_value > 0.9
        assert not result.significant_at_0_05

    def test_all_ties_guard(self):
        result = significance_test([1, 1, 1], [1, 1, 1])
        assert result.p_value == 1.0
        assert not result.significant_at_0_05
        assert result.statistic == 4.5

    def test_matches_enumeration_for_all_small_pairs(self):
        rng = random.Random(17)
        for n in range(3, 7):
            for m in range(3, 7):
                for _ in range(4):
                    values = rng.sample(range(1000), n + m)
                    a, b = values[:n], values[n:]
                    ours = significance_test(a, b)
                    assert ours.p_value == pytest.approx(exact_mwu_p(a, b), abs=1e-12)
                    expected_u = max(u_statistic(a, b), u_statistic(b, a))
                    assert max(
                        ours.statistic, len(a) * len(b) - ours.statistic
                    ) == pytest.approx(expected_u)

    def test_tied_data_does_not_crash(self):
        result = significance_test([1, 1, 2, 2, 3], [2, 2, 3, 3, 4])
        assert 0.0 <= result.p_value <= 1.0

    def test_small_samples_rejected(self):
        with pytest.raises(InsufficientSample):
            significance_test([1, 2], [3, 4, 5])


@st.composite
def sample_pairs(draw):
    """Two samples of 3+ values: tie-free (exact p-value when a side has at
    most 8) or drawn from ten values (ties: normal approximation)."""
    n1, n2 = draw(st.sampled_from([(3, 40), (40, 3), (8, 30)])
                  | st.tuples(st.integers(3, 14), st.integers(3, 14)))
    if draw(st.booleans()):
        values = draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-10**5, 10**5).map(lambda v: v / 14),
            min_size=n1 + n2, max_size=n1 + n2, unique=True,
        ))
    else:
        values = draw(st.lists(st.integers(0, 9).map(float), min_size=n1 + n2, max_size=n1 + n2))
    return values[:n1], values[n1:]


class TestSignificanceMatchesScipy:
    @settings(max_examples=300, deadline=None)
    @given(sample_pairs())
    @example(([1.0, 5.0, 9.0], [2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 10.0]))  # exact
    @example(([0.5, 1.5, 3.0], [float(v) for v in range(4, 44)]))  # exact, 3 vs 40
    @example(([float(v) for v in range(0, 20, 2)], [float(v) for v in range(1, 21, 2)]))  # normal
    @example(([1.0, 1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 3.0, 3.0, 4.0]))  # tied, normal
    def test_statistic_and_p_value_equal_mannwhitneyu(self, pair):
        a, b = pair
        ours = significance_test(a, b)
        theirs = sps.mannwhitneyu(a, b, alternative="two-sided", method="auto")
        assert ours.statistic == float(theirs.statistic)
        assert ours.p_value == float(theirs.pvalue)


# --- the stdlib ports, bit for bit against numpy and scipy as oracles -------

finite = st.floats(-1e12, 1e12, allow_nan=False) | st.integers(-60, 60).map(lambda v: v / 14)


class TestPortsMatchNumpy:
    # Sizes on both sides of the pairwise sum's 8 and 128 thresholds.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=300))
    @example([0.1] * 7)
    @example([0.1] * 8)
    @example([0.1] * 129)
    @example([-0.0] * 9)
    def test_pairwise_sum_is_numpy_sum(self, values):
        column = np.array([values, values]).T[:, 0]  # strided, as a day's column
        assert _pairwise_sum(values) == float(np.sum(np.array(values)))
        assert _pairwise_sum(values) == float(np.sum(column))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite, min_size=2, max_size=300))
    def test_std_is_numpy_std_ddof_1(self, values):
        mean = _pairwise_sum(values) / len(values)
        assert _std(values, mean) == float(np.std(np.array(values), ddof=1))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=60))
    @example([1.0, 2.0, 3.0, 4.0])
    def test_quartiles_are_numpy_linear_percentiles(self, values):
        expected = np.percentile(np.array(values), [25, 50, 75], method="linear")
        ordered = sorted(values)
        assert [_percentile(ordered, q) for q in (25, 50, 75)] == [float(v) for v in expected]
        stats = summarize(values)
        assert (stats.q1, stats.median, stats.q3) == tuple(float(v) for v in expected)

    def test_daily_band_is_numpy_mean_and_std(self):
        rng = random.Random(5)
        matrix = [[rng.randint(-20, 60) / 14 for _ in range(14)] for _ in range(10)]
        array = np.asarray(matrix, dtype=float)
        critical = t_critical(0.95, 9)
        for column, day in zip(array.T, ci95_per_day(matrix).days):
            mean = float(np.sum(column)) / 10
            half_width = critical * float(np.std(column, ddof=1)) / math.sqrt(10)
            assert (day.mean, day.ci_low, day.ci_high) == (
                mean, mean - half_width, mean + half_width)


class TestPortsMatchScipy:
    def test_ndtr_on_a_grid(self):
        grid = np.concatenate([np.linspace(-40.0, 40.0, 40001),
                               [0.0, -0.0, 1e-300, -1e-300, math.inf, -math.inf,
                                math.sqrt(2), -math.sqrt(2), 8 * math.sqrt(2), -8 * math.sqrt(2),
                                37.5, -37.5, 38.5, -38.5]])
        expected = special.ndtr(grid)
        mismatches = [x for x, y in zip(grid.tolist(), expected.tolist()) if _ndtr(x) != y]
        assert mismatches == []

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(-40, 40, allow_nan=False) | st.floats(allow_nan=False))
    def test_ndtr_is_scipy_ndtr(self, x):
        assert _ndtr(x) == float(special.ndtr(x))

    def test_ndtr_of_nan_is_nan(self):
        assert math.isnan(_ndtr(math.nan))

    def test_binom_is_xsf_binom_where_the_exact_test_uses_it(self):
        # The exact U distribution takes binom(n1 + n2, min(n1, n2)), at most 8.
        for n in range(0, 1500):
            for k in range(0, min(n, 19) + 1):
                assert _binom(n, k) == float(special.binom(n, k)), (n, k)
