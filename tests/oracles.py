"""Independent brute-force oracles used to check the package's metrics.

Everything here is deliberately implemented from first principles with no
imports from the code paths under test: scoring recomputation walks raw
transcript JSON, quantiles come from the stdlib, the Mann-Whitney p-value is
an exhaustive enumeration over rank arrangements, and the Student-t quantile
is found by bisecting a CDF built on the regularized incomplete beta
function, to the float nearest it.
"""
from __future__ import annotations

import itertools
import json
import math
import statistics
from fractions import Fraction
from pathlib import Path

import mpmath
from scipy import special


# --- scoring straight from transcript JSON ---------------------------------

def _lines(path: str | Path) -> list[str]:
    """A transcript's lines: records end in "\n" only, so a reply holding
    U+2028 or U+0085 stays on its line (str.splitlines would split it)."""
    return Path(path).read_text(encoding="utf-8").split("\n")


def transcript_scores(path: str | Path, score_table: dict[str, int]) -> dict:
    """Recompute all metrics of one run directly from its transcript file.

    Returns daily score maps, per-nation mean/cumulative values (as exact
    Fractions) and per-category action counts, using nothing but the raw
    JSON lines and a plain id -> score table.
    """
    turns: dict[int, dict[str, list[dict]]] = {}
    summaries: dict[int, str] = {}
    for line in _lines(path):
        if not line.strip():
            continue
        record = json.loads(line)
        if record["type"] == "turn":
            day = record["day"]
            turns.setdefault(day, {})[record["nation"]] = record["payload"]["actions"]
        elif record["type"] == "day":
            summaries[record["day"]] = record["payload"]["summary"]
    days = sorted(turns)
    daily: dict[int, dict[str, int]] = {}
    for day in days:
        scores = {}
        for nation, actions in turns[day].items():
            total = 0
            for action in actions:
                total += score_table[action["action"]]
            scores[nation] = total
        daily[day] = scores
    nations = sorted({n for scores in daily.values() for n in scores})
    mean_daily = {
        nation: Fraction(sum(daily[day][nation] for day in days), len(days))
        for nation in nations
    }
    cumulative = {nation: sum(daily[day][nation] for day in days) for nation in nations}
    return {"daily": daily, "mean_daily": mean_daily, "cumulative": cumulative,
            "days": days, "nations": nations}


def transcript_category_counts(
    paths: list[str | Path], category_table: dict[str, str]
) -> dict[str, Fraction]:
    """Per-category actions per nation averaged across runs, from raw JSON."""
    totals: dict[str, int] = {}
    nations: set[str] = set()
    for path in paths:
        for line in _lines(path):
            if not line.strip():
                continue
            record = json.loads(line)
            if record["type"] != "turn":
                continue
            nations.add(record["nation"])
            for action in record["payload"]["actions"]:
                category = category_table[action["action"]]
                totals[category] = totals.get(category, 0) + 1
    denominator = len(nations) * len(paths)
    return {cat: Fraction(count, denominator) for cat, count in totals.items()}


# --- quantiles ---------------------------------------------------------------

def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """q1, median, q3 with the inclusive linear-interpolation convention."""
    if len(samples) == 1:
        value = float(samples[0])
        return value, value, value
    q = statistics.quantiles(samples, n=4, method="inclusive")
    return q[0], q[1], q[2]


# --- Mann-Whitney U by exhaustive enumeration --------------------------------

def u_statistic(xs, ys) -> float:
    """Pair-count U for xs: wins count 1, ties count one half."""
    u = 0.0
    for x in xs:
        for y in ys:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def exact_mwu_p(a, b) -> float:
    """Two-sided p by enumerating every assignment of the pooled values."""
    n, m = len(a), len(b)
    pooled = list(a) + list(b)
    u_obs = u_statistic(a, b)
    count_ge = count_le = total = 0
    indices = range(n + m)
    for combo in itertools.combinations(indices, n):
        chosen = set(combo)
        xs = [pooled[i] for i in combo]
        ys = [pooled[i] for i in indices if i not in chosen]
        u = u_statistic(xs, ys)
        total += 1
        if u >= u_obs - 1e-12:
            count_ge += 1
        if u <= u_obs + 1e-12:
            count_le += 1
    return min(1.0, 2.0 * min(count_ge, count_le) / total)


# --- Student-t quantile by bisection on an independent CDF -------------------

T_DPS = 40  # decimal digits of the CDF: far more than a float's gap needs


def t_cdf(x: float, dof: int) -> mpmath.mpf:
    """CDF of Student's t via the regularized incomplete beta function, at
    ``x`` taken exactly, in the current mpmath precision."""
    x = mpmath.mpf(x)
    if x == 0:
        return mpmath.mpf("0.5")
    z = dof / (dof + x * x)
    tail = mpmath.betainc(mpmath.mpf(dof) / 2, mpmath.mpf(1) / 2, 0, z, regularized=True) / 2
    return 1 - tail if x > 0 else tail


def t_quantile(p: float, dof: int) -> float:
    """The float nearest the quantile at ``p >= 0.5`` (taken exactly): bisect
    on floats until two neighbours bracket it, then round at their midpoint.
    scipy's ``stdtrit``, a few ulp off at worst, only seeds the bracket."""
    assert p >= 0.5
    with mpmath.workdps(T_DPS):
        target = mpmath.mpf(p)
        lo = hi = float(special.stdtrit(dof, p))
        step = math.ulp(lo)
        while t_cdf(lo, dof) >= target:
            lo, step = lo - step, 2 * step
        step = math.ulp(hi)
        while t_cdf(hi, dof) < target:
            hi, step = hi + step, 2 * step
        # t_cdf(lo) < target <= t_cdf(hi)
        while math.nextafter(lo, math.inf) < hi:
            mid = lo + (hi - lo) / 2
            if t_cdf(mid, dof) < target:
                lo = mid
            else:
                hi = mid
        midpoint = (mpmath.mpf(lo) + mpmath.mpf(hi)) / 2
        return hi if t_cdf(midpoint, dof) < target else lo
