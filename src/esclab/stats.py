"""Summary statistics for replicated runs: quartiles, reductions, CIs, tests.

Quartiles use linear interpolation between order statistics (the convention
is named in report headers).  Confidence intervals are Student-t over
run-level values.  The significance test is a two-sided Mann-Whitney U: the
exact null distribution for small tie-free samples, the tie-corrected normal
approximation otherwise.

Everything here runs on the standard library, in the float operations and
order of numpy 2.4 and scipy 1.17, so every float equals theirs:
``numpy.percentile``'s ``linear`` method, numpy's pairwise summation (for
``sum`` and ``std``), ``scipy.stats.mannwhitneyu`` with cephes' ``ndtr``
and xsf's ``binom``.  Two declared differences: ``t_critical`` is the
correctly rounded quantile, which ``scipy.special.stdtrit`` misses by up
to 21 ulp at some dof (not at 1, 2, 4, 5, 9, 12 or 18); and the exact U
distribution is counted in integers, so where numpy's float dot product
rounds (its sums past 2**53, from about 8 runs against 360) these are exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import lru_cache
from typing import Sequence

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
    ordered = sorted(float(v) for v in samples)
    return SummaryStats(
        mean=math.fsum(ordered) / len(ordered),
        median=_percentile(ordered, 50),
        q1=_percentile(ordered, 25),
        q3=_percentile(ordered, 75),
        min=ordered[0],
        max=ordered[-1],
        n=len(ordered),
    )


def _percentile(ordered: list[float], q: float) -> float:
    """``numpy.percentile(values, q, method="linear")`` of sorted values: the
    virtual index ``(n - 1) * (q / 100)`` and numpy's ``_lerp``, which
    interpolates back from the upper value when the weight is 0.5 or more.
    At or past the last index numpy takes the last value for both ends (and
    a weight of index + 1, which moves nothing)."""
    last = len(ordered) - 1
    index = last * (q / 100)
    if index >= last:
        low = high = last
        weight = index + 1
    else:
        low = math.floor(index)
        high = low + 1
        weight = index - low
    a, b = ordered[low], ordered[high]
    diff = b - a
    return b - diff * (1 - weight) if weight >= 0.5 else a + diff * weight


def _pairwise_sum(values: Sequence[float], lo: int = 0, hi: int | None = None) -> float:
    """The sum of ``values[lo:hi]`` as numpy's float64 ``add.reduce`` adds
    it: onto 0.0, pairwise, with one accumulator below 8 values, eight
    interleaved ones up to 128, halving (at a multiple of 8) above."""
    if hi is None:
        return 0.0 + _pairwise_sum(values, 0, len(values))
    n = hi - lo
    if n < 8:
        total = 0.0
        for i in range(lo, hi):
            total += values[i]
        return total
    if n <= 128:
        r = list(values[lo:lo + 8])
        stop = hi - n % 8
        for i in range(lo + 8, stop, 8):
            for k in range(8):
                r[k] += values[i + k]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(stop, hi):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, lo + half) + _pairwise_sum(values, lo + half, hi)


def _std(values: Sequence[float], mean: float) -> float:
    """``numpy.std(values, ddof=1)``, given numpy's mean of ``values``."""
    return math.sqrt(_pairwise_sum([(v - mean) * (v - mean) for v in values])
                     / (len(values) - 1))


def percent_reduction(baseline_mean: float, treatment_mean: float) -> float:
    """100 * (baseline - treatment) / baseline."""
    if baseline_mean == 0:
        raise ZeroBaseline("percent reduction against a zero baseline is undefined")
    return 100.0 * (baseline_mean - treatment_mean) / baseline_mean


@lru_cache(maxsize=None)
def t_critical(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value, e.g. 2.2621... for 95% and 9 dof:
    the float nearest the quantile at ``0.5 + confidence / 2`` (that float,
    exactly) of ``dof`` degrees of freedom, a positive integer.

    Newton's method in floats comes within some ulp of it and in decimals
    far within one; the decimal CDF at the midpoints around the rounded
    result then settles which float is nearest.  Decimals hold 60 digits:
    a midpoint would have to lie within about 1e-55 of the quantile for
    their rounding to matter."""
    p = 0.5 + confidence / 2.0
    t = 0.0
    for _ in range(200):  # from the left, where the concave CDF keeps Newton
        step = (2 * p - 1 - _central_t(t, dof, *_FLOATS)) / (2 * _t_density(t, dof))
        t += step
        if abs(step) <= 4 * math.ulp(t):
            break
    with localcontext(Context(prec=60)):
        target = 2 * Decimal(p) - 1

        def below(x: Decimal) -> bool:
            return _central_t(x, dof, *_DECIMALS) < target

        exact = Decimal(t)
        for _ in range(2):
            exact += (target - _central_t(exact, dof, *_DECIMALS)) / Decimal(
                2 * _t_density(float(exact), dof))
        t = float(exact)
        while True:
            up, down = math.nextafter(t, math.inf), math.nextafter(t, 0.0)
            if below((Decimal(t) + Decimal(up)) / 2):
                t = up
            elif not below((Decimal(down) + Decimal(t)) / 2):
                t = down
            else:
                return t


def _central_t(t, dof: int, sqrt, atan, pi):
    """P(|T| <= t) for ``t >= 0`` and integer ``dof`` (A&S 26.7.3, 26.7.4),
    in the arithmetic of ``t`` (float or Decimal) and its ``sqrt``, ``atan``
    and ``pi``."""
    cos2 = dof / (dof + t * t)
    sin = t / sqrt(dof + t * t)
    if dof % 2 == 0:
        term = total = 1
        for j in range(1, dof // 2):
            term = term * cos2 * (2 * j - 1) / (2 * j)
            total += term
        return sin * total
    cos = sqrt(cos2)
    theta = atan(sin / cos)
    if dof == 1:
        return 2 * theta / pi
    term = total = cos
    for j in range(1, (dof - 1) // 2):
        term = term * cos2 * (2 * j) / (2 * j + 1)
        total += term
    return 2 * (theta + sin * total) / pi


def _t_density(t: float, dof: int) -> float:
    """Student's t density at ``t``: half the slope of ``_central_t``."""
    log_scale = math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - math.log(dof * math.pi) / 2
    return math.exp(log_scale - (dof + 1) / 2 * math.log1p(t * t / dof))


def _decimal_atan(x: Decimal) -> Decimal:
    """arctan(x) for x >= 0 in the current decimal context: the angle halved
    (``atan(x) = 2 atan(x / (1 + sqrt(1 + x*x)))``) until x is below 0.05,
    then its Taylor series."""
    halvings = 0
    while x > _ATAN_SERIES_BELOW:
        x = x / (1 + (1 + x * x).sqrt())
        halvings += 1
    square, power, total, k = x * x, x, x, 1
    while True:
        power *= -square
        k += 2
        grown = total + power / k
        if grown == total:
            return total * 2**halvings
        total = grown


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459230781640628621")
_ATAN_SERIES_BELOW = Decimal("0.05")
_FLOATS = (math.sqrt, math.atan, math.pi)
_DECIMALS = (Decimal.sqrt, _decimal_atan, _PI)


def ci95_per_day(per_run_daily_means: Sequence[Sequence[float]]) -> DailySeriesStats:
    """Per day: mean +/- t(0.975, n-1) * s / sqrt(n) over run-level values."""
    n_runs = len(per_run_daily_means)
    if n_runs < 2:
        raise InsufficientRuns("confidence intervals need at least two runs")
    if len({len(run) for run in per_run_daily_means}) != 1:
        raise InsufficientRuns("all runs must have the same number of days")
    critical = t_critical(0.95, n_runs - 1)
    days = []
    for day_values in zip(*per_run_daily_means):
        values = [float(v) for v in day_values]
        mean = _pairwise_sum(values) / n_runs
        half_width = critical * _std(values, mean) / math.sqrt(n_runs)
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
    ranks, ties = _average_ranks([float(v) for v in (*a, *b)])
    u1 = _pairwise_sum(ranks[:n1]) - n1 * (n1 + 1) / 2
    u = max(u1, n1 * n2 - u1)
    if (n1 > 8 and n2 > 8) or max(ties) > 1:
        p = _ndtr(-_normal_z(u, n1, n2, ties))
    else:
        p = _exact_cdf(n1 * n2 - int(u), n1, n2)
    p_value = min(max(p * 2, 0.0), 1.0)
    return TestResult(
        statistic=u1,
        p_value=p_value,
        significant_at_0_05=p_value <= SIGNIFICANCE_LEVEL,
    )


def _average_ranks(values: list[float]) -> tuple[list[float], list[int]]:
    """Ranks with ties averaged (a stable sort's places), and the size of
    each group of tied values."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    ties = []
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and values[order[end]] == values[order[start]]:
            end += 1
        rank = float(start + 1) + (float(end - start) - 1) / 2
        for i in order[start:end]:
            ranks[i] = rank
        ties.append(end - start)
        start = end
    return ranks, ties


def _normal_z(u: float, n1: int, n2: int, ties: list[int]) -> float:
    """Standardised U, tie-corrected, less 0.5 for continuity (the p-value is
    the upper tail at the larger U)."""
    n = n1 + n2
    tie_term = float(sum(t**3 - t for t in ties))  # integers: exact in any order
    spread = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
    numerator = u - n1 * n2 / 2
    numerator -= 0.5
    return numerator / spread


# The normal CDF below is ported from cephes' ndtr.c, as scipy 1.17 ships it
# (in xsf), by Stephen L. Moshier: "Cephes Math Library Release 2.8: June,
# 2000.  Copyright 1984, 1987, 1988, 1992, 2000 by Stephen L. Moshier",
# distributed with scipy under its BSD license (below).  Horner's rule in the
# same order and ``math.exp`` (the C library's) give its floats.

_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_NDTR_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
           7.00332514112805075473E3, 5.55923013010394962768E4)
_NDTR_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
           2.26290000613890934246E4, 4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 7.07106781186547524401E-1


def _polevl(x: float, coef: tuple) -> float:
    total = coef[0]
    for c in coef[1:]:
        total = total * x + c
    return total


def _p1evl(x: float, coef: tuple) -> float:
    """``_polevl`` with a leading coefficient of 1 left out of ``coef``."""
    total = x + coef[0]
    for c in coef[1:]:
        total = total * x + c
    return total


def _ndtr(a: float) -> float:
    """The standard normal CDF, as cephes' ``ndtr``."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _NDTR_T) / _p1evl(z, _NDTR_U)


def _erfc(a: float) -> float:
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z >= -_MAXLOG:
        if x < 8.0:
            p, q = _polevl(x, _NDTR_P), _p1evl(x, _NDTR_Q)
        else:
            p, q = _polevl(x, _NDTR_R), _p1evl(x, _NDTR_S)
        y = (math.exp(z) * p) / q
        if a < 0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0 else 0.0  # underflow


def _binom(n: int, k: int) -> float:
    """xsf's ``binom(n, k)`` for integers with ``min(k, n - k) < 20``: its
    product loop in floats, rescaled as it does past 1e50."""
    if k > n / 2:
        k = n - k
    num = den = 1.0
    for i in range(1, k + 1):
        num *= i + n - k
        den *= i
        if abs(num) > 1E50:
            num /= den
            den = 1.0
    return num / den


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

def _exact_cdf(k: int, n1: int, n2: int) -> float:
    """P(U <= k) under the null for samples of n1 and n2 tie-free values.

    By symmetry this is the upper tail at n1 * n2 - k, which is what
    ``_MWU.sf`` sums for the larger U of a two-sided test.
    """
    n1, n2 = min(n1, n2), max(n1, n2)
    total = 0.0
    for frequency in _u_frequencies(k, n1, n2):  # numpy's cumsum, to its last term
        total += frequency
    return total


def _u_frequencies(maxu: int, n1: int, n2: int) -> list[float]:
    """P(U = u) for u = 0..maxu, for n1 <= n2 and maxu <= n1 * n2 / 2.

    scipy counts the configurations in uint64 through a float dot product;
    integers give the same counts while its sums stay below 2**53, and
    exact ones past it."""
    total = _binom(n1 + n2, n1)
    sigma = [0] * (maxu + 1)
    for d in range(1, n1 + 1):
        for u in range(d, maxu + 1, d):
            sigma[u] += d
    for d in range(n2 + 1, n2 + n1 + 1):
        for u in range(d, maxu + 1, d):
            sigma[u] -= d
    sigma = sigma[1:]
    configurations = [1]
    for u in range(1, maxu + 1):
        configurations.append(
            sum(c * s for c, s in zip(configurations, reversed(sigma[:u]))) // u)
    return [c / total for c in configurations]
