"""Summary statistics for replicated runs: quartiles, reductions, CIs, tests.

Quartiles use linear interpolation between order statistics (the convention
is named in report headers).  Confidence intervals are Student-t over
run-level values.  The significance test is a two-sided Mann-Whitney U: the
exact null distribution for small tie-free samples, the tie-corrected normal
approximation otherwise.

The t quantile and the U test are computed here on ``scipy.special``, with
the numpy operations of ``scipy.stats`` (1.17) in its order, so every float
equals what ``scipy.stats.t.ppf`` and ``scipy.stats.mannwhitneyu`` return;
importing ``scipy.stats`` would cost about a second and 45 MB for them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .errors import (
    EmptySample,
    InsufficientRuns,
    InsufficientSample,
    ZeroBaseline,
)

QUARTILE_CONVENTION = "linear interpolation between order statistics"
SIGNIFICANCE_TEST_NAME = "two-sided Mann-Whitney U"
SIGNIFICANCE_LEVEL = 0.05
MIN_TEST_SAMPLE = 3


@dataclass(frozen=True)
class SummaryStats:
    """Five-number summary plus mean, over per-nation-per-run scores."""

    mean: float
    median: float
    q1: float
    q3: float
    min: float
    max: float
    n: int


@dataclass(frozen=True)
class DayStats:
    mean: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class DailySeriesStats:
    """Per-day mean and 95% confidence band across runs."""

    days: tuple[DayStats, ...]

    def __len__(self) -> int:
        return len(self.days)

    def __getitem__(self, index: int) -> DayStats:
        return self.days[index]


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    significant_at_0_05: bool


def summarize(samples: Sequence[float]) -> SummaryStats:
    """Five-number summary with linearly interpolated quartiles."""
    if len(samples) == 0:
        raise EmptySample("summarize needs at least one value")
    values = np.asarray(samples, dtype=float)
    q1, median, q3 = np.percentile(values, [25, 50, 75], method="linear")
    return SummaryStats(
        mean=math.fsum(values) / len(values),
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        min=float(values.min()),
        max=float(values.max()),
        n=len(values),
    )


def percent_reduction(baseline_mean: float, treatment_mean: float) -> float:
    """100 * (baseline - treatment) / baseline."""
    if baseline_mean == 0:
        raise ZeroBaseline("percent reduction against a zero baseline is undefined")
    return 100.0 * (baseline_mean - treatment_mean) / baseline_mean


def t_critical(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value, e.g. 2.2621... for 95% and 9 dof."""
    # What scipy.stats.t.ppf computes inside its support: _ppf(q, df) * 1 + 0.
    return float(special.stdtrit(dof, 0.5 + confidence / 2.0))


def ci95_per_day(per_run_daily_means: Sequence[Sequence[float]]) -> DailySeriesStats:
    """Per day: mean +/- t(0.975, n-1) * s / sqrt(n) over run-level values."""
    n_runs = len(per_run_daily_means)
    if n_runs < 2:
        raise InsufficientRuns("confidence intervals need at least two runs")
    matrix = np.asarray(per_run_daily_means, dtype=float)
    if matrix.ndim != 2:
        raise InsufficientRuns("all runs must have the same number of days")
    critical = t_critical(0.95, n_runs - 1)
    days = []
    for column in matrix.T:
        mean = float(np.sum(column)) / n_runs
        spread = float(np.std(column, ddof=1))
        half_width = critical * spread / math.sqrt(n_runs)
        days.append(DayStats(mean=mean, ci_low=mean - half_width, ci_high=mean + half_width))
    return DailySeriesStats(days=tuple(days))


def significance_test(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sided Mann-Whitney U over run-level scores.

    ``statistic`` is U of ``a``.  The p-value is exact when a sample has at
    most 8 values and none is tied, else the tie-corrected normal
    approximation with continuity correction (scipy's ``method="auto"``).
    Degenerate all-tied input short-circuits to p = 1.0 so tie correction
    never divides by zero.
    """
    n1, n2 = len(a), len(b)
    if n1 < MIN_TEST_SAMPLE or n2 < MIN_TEST_SAMPLE:
        raise InsufficientSample(
            f"significance test needs {MIN_TEST_SAMPLE}+ values per side, "
            f"got {n1} and {n2}"
        )
    if len(set(a) | set(b)) == 1:
        return TestResult(statistic=n1 * n2 / 2.0, p_value=1.0, significant_at_0_05=False)
    ranks, ties = _average_ranks(np.concatenate((np.asarray(a, dtype=float),
                                                 np.asarray(b, dtype=float))))
    u1 = np.sum(ranks[:n1]) - n1 * (n1 + 1) / 2
    u = np.maximum(u1, n1 * n2 - u1)
    if (n1 > 8 and n2 > 8) or np.any(ties > 1):
        p = special.ndtr(-_normal_z(u, n1, n2, ties))
    else:
        p = _exact_cdf(n1 * n2 - int(u), n1, n2)
    p_value = float(np.clip(p * 2, 0.0, 1.0))
    return TestResult(
        statistic=float(u1),
        p_value=p_value,
        significant_at_0_05=p_value <= SIGNIFICANCE_LEVEL,
    )


def _average_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks with ties averaged, and tie counts: each group's size at the
    sorted position of its first member, 0 elsewhere."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.concatenate(([True], ordered[:-1] != ordered[1:]))
    counts = np.diff(np.arange(values.size)[first], append=values.size)
    group_ranks = np.arange(1, values.size + 1, dtype=float)[first] + (counts.astype(float) - 1) / 2
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(group_ranks, counts)
    ties = np.zeros(values.size)
    ties[first] = counts
    return ranks, ties


def _normal_z(u, n1: int, n2: int, ties: np.ndarray):
    """Standardised U, tie-corrected, less 0.5 for continuity (the p-value is
    the upper tail at the larger U)."""
    n = n1 + n2
    tie_term = np.sum(ties**3 - ties)
    spread = np.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
    numerator = u - n1 * n2 / 2
    numerator -= 0.5
    return numerator / spread


# The exact null distribution of U below is ported from scipy 1.17,
# scipy/stats/_mannwhitneyu.py (class _MWU, which adapts code by @toobaz and
# follows A. Loeffler, Wiss. Z. Univ. Halle XXXII'83 pp. 87-89), under
# scipy's license:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

def _exact_cdf(k: int, n1: int, n2: int) -> np.float64:
    """P(U <= k) under the null for samples of n1 and n2 tie-free values.

    By symmetry this is the upper tail at n1 * n2 - k, which is what
    ``_MWU.sf`` sums for the larger U of a two-sided test.
    """
    n1, n2 = min(n1, n2), max(n1, n2)
    return np.cumsum(_u_frequencies(k, n1, n2))[k]


def _u_frequencies(maxu: int, n1: int, n2: int) -> np.ndarray:
    """P(U = u) for u = 0..maxu, for n1 <= n2 and maxu <= n1 * n2 / 2."""
    total = special.binom(n1 + n2, n1)
    sigma = np.zeros(maxu + 1, dtype=int)
    for d in range(1, n1 + 1):
        sigma[d::d] += d
    for d in range(n2 + 1, n2 + n1 + 1):
        sigma[d::d] -= d
    sigma = sigma[1:]
    # Counted in uint64 for precision, in floats once a count overflows it.
    configurations = np.zeros(maxu + 1, dtype=np.uint64)
    configurations_is_uint = True
    uint_max = np.iinfo(np.uint64).max
    configurations[0] = 1
    for u in range(1, maxu + 1):
        new_val = np.dot(configurations[:u], sigma[u - 1::-1]) / u
        if new_val > uint_max and configurations_is_uint:
            configurations = configurations.astype(float)
            configurations_is_uint = False
        configurations[u] = new_val
    return configurations / total
