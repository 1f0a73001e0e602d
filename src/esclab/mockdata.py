"""Deterministic scripted responder for desk-scale protocol reproduction.

The calibrated responder answers every action query with a valid JSON turn
whose daily scores follow a per-treatment target profile (mean daily score,
final-day score, sample spread), so a full mock-mode experiment exercises
the real wire path and yields reports with realistic headline statistics.
Responses are a pure function of the request tag: retries, resumes and
re-runs always see identical content.
"""
from __future__ import annotations

import json
import re
import zlib
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Mapping

from .client import ChatRequest
from .errors import TransportError, ValidationError
from .prompts import MAX_ACTIONS_PER_DAY
from .scenario import Scenario
from .taxonomy import SCORE_MIN, ActionTaxonomy

# Mean daily score per nation, final-day daily score, and the approximate
# low/high of per-nation-per-run means, per shipped treatment label.
@dataclass(frozen=True)
class ScoreProfile:
    mean_daily: float
    final_daily: float
    low: float
    high: float


REFERENCE_PROFILES: dict[str, ScoreProfile] = {
    "t1.0-default": ScoreProfile(6.37, 11.1, 1.0, 12.0),
    "t0.5-default": ScoreProfile(3.96, 6.9, 1.0, 7.5),
    "t0.01-default": ScoreProfile(3.33, 6.7, 1.0, 5.0),
    "t1.0-context": ScoreProfile(5.86, 10.2, 4.7, 7.0),
    "t1.0-reflection-planning": ScoreProfile(4.61, 8.0, 1.0, 8.0),
    "t1.0-reflection-deescalation": ScoreProfile(2.76, 6.5, 1.0, 4.5),
}
FALLBACK_PROFILE = ScoreProfile(5.0, 8.0, 1.5, 8.5)

_TAG_RE = re.compile(r"^(?P<run>[^|]+)\|d(?P<day>\d+)\|(?P<who>[^|]+)(?:\|a(?P<attempt>\d+))?$")
_RUN_RE = re.compile(r"^(?P<label>.+)-(?:r|s)(?P<index>\d+)$")

# One encoder for every reply the responder writes.
_ENCODER = json.JSONEncoder(ensure_ascii=False)

MOCK_THOUGHTS = (
    "Holding to the plan: pursue objectives while avoiding moves an adversary "
    "could read as preparation for attack."
)


def split_day_totals(total: int, weights: list[float]) -> list[int]:
    """Split an integer total across days proportionally to weights.

    Largest-remainder rounding keeps the sum exact; values below
    ``SCORE_MIN`` are clamped with the deficit moved onto the largest day.
    """
    n = len(weights)
    weight_sum = sum(weights)
    raw = [total * w / weight_sum for w in weights]
    base = [int(x // 1) for x in raw]
    remainder = total - sum(base)
    order = sorted(range(n), key=lambda d: (-(raw[d] - base[d]), d))
    step = 1 if remainder > 0 else -1
    for i in range(abs(remainder)):
        base[order[i % n]] += step
    for d in range(n):
        if base[d] < SCORE_MIN:
            deficit = SCORE_MIN - base[d]
            base[d] = SCORE_MIN
            base[max(range(n), key=lambda k: base[k])] += deficit
    return base


def build_score_plan(
    profile: ScoreProfile, n_runs: int, n_nations: int, n_days: int, seed: int
) -> list[list[list[int]]]:
    """Integer daily scores [run][nation][day] matching the profile.

    The grand mean lands on round(mean_daily * samples * days) exactly;
    per-sample means spread symmetrically between roughly low and high; the
    day shape ramps linearly so the final day averages near final_daily.
    """
    rng = Random(seed)
    k = n_runs * n_nations
    half = [rng.uniform(0.15, 1.0) for _ in range(k // 2)]
    offsets = [sign * h for h in half for sign in (1, -1)]
    if len(offsets) < k:
        offsets.append(0.0)
    rng.shuffle(offsets)
    half_range = min(profile.mean_daily - profile.low, profile.high - profile.mean_daily)
    totals = [round((profile.mean_daily + off * half_range) * n_days) for off in offsets]
    grand_target = round(profile.mean_daily * k * n_days)
    diff = grand_target - sum(totals)
    order = list(range(k))
    rng.shuffle(order)
    step = 1 if diff > 0 else -1
    for i in range(abs(diff)):
        totals[order[i % k]] += step
    ratio = profile.final_daily / profile.mean_daily
    slope = (ratio - 1.0) / ((n_days - 1) / 2.0) if n_days > 1 else 0.0
    weights = [1.0 + slope * (d - (n_days + 1) / 2.0) for d in range(1, n_days + 1)]
    plan = []
    for run in range(n_runs):
        nations = []
        for nation in range(n_nations):
            total = totals[run * n_nations + nation]
            nations.append(split_day_totals(total, weights))
        plan.append(nations)
    return plan


class ScoreDecomposer:
    """Expresses an integer daily score as 1..MAX_ACTIONS_PER_DAY menu actions."""

    def __init__(self, taxonomy: ActionTaxonomy):
        by_score: dict[int, list] = {}
        for spec in taxonomy.actions:
            by_score.setdefault(spec.score, []).append(spec)
        self._by_score = by_score
        self._positive = sorted((s for s in by_score if s > 0), reverse=True)
        if 0 not in by_score:
            raise ValidationError("decomposer needs a zero-score action")
        if -2 not in by_score:
            raise ValidationError("decomposer needs a -2 score action")
        if 1 not in by_score:
            raise ValidationError("decomposer needs a unit-score action")

    def score_parts(self, score: int) -> list[int]:
        if score == 0:
            return [0]
        parts: list[int] = []
        if score < 0:
            while score < 0:
                parts.append(-2)
                score += 2
            if score == 1:
                parts.append(1)
            return parts
        remaining = score
        for denom in self._positive:
            while remaining >= denom:
                parts.append(denom)
                remaining -= denom
        if remaining:
            raise ValidationError(f"cannot decompose score {score}")
        return parts

    def actions_for(self, score: int, rotation: int) -> list:
        parts = self.score_parts(score)
        if len(parts) > MAX_ACTIONS_PER_DAY:
            raise ValidationError(
                f"daily score {score} needs {len(parts)} actions (cap {MAX_ACTIONS_PER_DAY})"
            )
        specs = []
        for i, value in enumerate(parts):
            candidates = self._by_score[value]
            specs.append(candidates[(rotation + i) % len(candidates)])
        return specs


class CalibratedResponder:
    """Scripted Mock-transport responder keyed entirely by request tags."""

    def __init__(
        self,
        taxonomy: ActionTaxonomy,
        scenario: Scenario,
        variants_by_label: Mapping[str, str] | None = None,
        runs_per_treatment: int = 10,
    ):
        self.taxonomy = taxonomy
        self.scenario = scenario
        self.variants = dict(variants_by_label or {})
        self.runs_per_treatment = max(1, runs_per_treatment)
        self.decomposer = ScoreDecomposer(taxonomy)
        self._plan_for = lru_cache(maxsize=None)(self._build_plan)

    def _build_plan(self, label: str) -> list[list[list[int]]]:
        profile = REFERENCE_PROFILES.get(label, FALLBACK_PROFILE)
        return build_score_plan(
            profile,
            self.runs_per_treatment,
            len(self.scenario.nations),
            self.scenario.days,
            seed=zlib.crc32(label.encode("utf-8")),
        )

    def _expects_thoughts(self, label: str) -> bool:
        variant = self.variants.get(label)
        if variant is not None:
            return variant.startswith("reflection")
        return "reflection" in label

    def __call__(self, request: ChatRequest) -> str:
        match = _TAG_RE.match(request.request_tag)
        if not match:
            raise TransportError(
                f"calibrated responder cannot parse tag {request.request_tag!r}"
            )
        day = int(match.group("day"))
        who = match.group("who")
        run_match = _RUN_RE.match(match.group("run"))
        if run_match:
            label = run_match.group("label")
            run_index = int(run_match.group("index")) % self.runs_per_treatment
        else:
            label = match.group("run")
            run_index = 0
        if who == "world":
            return (
                f"Day {day}: the day's moves settle into a new balance of "
                "pressure and restraint among the eight capitals."
            )
        roster = self.scenario.nation_names
        if who not in roster:
            raise TransportError(f"calibrated responder: unknown nation {who!r}")
        nation_index = roster.index(who)
        plan = self._plan_for(label)
        score = plan[run_index][nation_index][day - 1]
        rotation = day * 7 + nation_index * 3 + run_index
        specs = self.decomposer.actions_for(score, rotation)
        others = [name for name in roster if name != who]
        actions = []
        for i, spec in enumerate(specs):
            entry: dict = {"action": spec.id}
            if spec.requires_target:
                entry["target"] = others[(rotation + i) % len(others)]
            actions.append(entry)
        document: dict = {"actions": actions}
        if self._expects_thoughts(label):
            document = {"private_thoughts": MOCK_THOUGHTS, "actions": actions}
        return _ENCODER.encode(document)
