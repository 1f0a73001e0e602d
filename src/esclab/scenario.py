"""Scenario definitions and the evolving day-by-day world state.

The world is exactly a text summary plus the public action log, as in the
base design: no geography, economy or force-structure modeling.  WorldState
is an immutable value; advancing a day returns a new state.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import yaml

from .errors import ParseError, SequenceError, ValidationError

_NATION_KEYS = {"name", "background", "objectives"}
_TOP_KEYS = {"name", "days", "initial_summary", "nations"}


@dataclass(frozen=True)
class NationProfile:
    """One nation agent's identity: name, assigned history, objectives."""

    name: str
    background: str
    objectives: tuple[str, ...]


@dataclass(frozen=True)
class Scenario:
    """Starting conditions: nations, opening world summary, game length."""

    name: str
    nations: tuple[NationProfile, ...]
    initial_summary: str
    days: int = 14

    @cached_property
    def nation_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nations)

    def nation(self, name: str) -> NationProfile:
        for profile in self.nations:
            if profile.name == name:
                return profile
        raise ValidationError(f"no nation named {name!r} in scenario {self.name!r}")


@dataclass(frozen=True)
class ChosenAction:
    """One selected menu action, optionally aimed at another nation."""

    action_id: str
    target: str | None = None
    raw_text: str = ""


def _frozen_map(mapping: Mapping) -> Mapping:
    return MappingProxyType(dict(mapping))


@dataclass(frozen=True)
class DailyRecord:
    """Everything that happened on one simulated day."""

    day: int
    actions_by_nation: Mapping[str, tuple[ChosenAction, ...]]
    daily_score_by_nation: Mapping[str, int]
    world_summary_after: str

    def __post_init__(self):
        object.__setattr__(self, "actions_by_nation", _frozen_map(self.actions_by_nation))
        object.__setattr__(
            self, "daily_score_by_nation", _frozen_map(self.daily_score_by_nation)
        )


@dataclass(frozen=True)
class WorldState:
    """Current day, latest world summary and the full history of records."""

    scenario: Scenario
    current_day: int = 0
    summary: str = ""
    history: tuple[DailyRecord, ...] = field(default_factory=tuple)

    @cached_property
    def action_log(self) -> str:
        """The public action log: one line per action, by day, in roster order.

        Rendered once per state, since every nation's prompt on a day shows
        the same log.  Two threads reading it first may both render it; the
        texts are equal.
        """
        return "\n".join(
            f"Day {record.day}: {nation} chose {action.action_id}"
            + (f" targeting {action.target}" if action.target else "")
            for record in self.history
            for nation in self.scenario.nation_names
            for action in record.actions_by_nation.get(nation, ())
        )


def initial_world(scenario: Scenario) -> WorldState:
    """Day-0 state: summary is the scenario's opening text, history empty."""
    return WorldState(scenario=scenario, current_day=0, summary=scenario.initial_summary)


def advance_day(world: WorldState, record: DailyRecord) -> WorldState:
    """Apply one completed day; returns a new state, the input is unchanged."""
    if record.day != world.current_day + 1:
        raise SequenceError(
            f"expected day {world.current_day + 1}, got record for day {record.day}"
        )
    missing = set(world.scenario.nation_names) - set(record.actions_by_nation)
    if missing:
        raise ValidationError(f"day {record.day}: no actions recorded for {sorted(missing)}")
    if not record.world_summary_after:
        raise ValidationError(f"day {record.day}: empty world summary")
    return WorldState(
        scenario=world.scenario,
        current_day=record.day,
        summary=record.world_summary_after,
        history=world.history + (record,),
    )


def _parse_nation(entry: object, index: int) -> NationProfile:
    where = f"nations[{index}]"
    if not isinstance(entry, dict):
        raise ParseError(f"{where}: expected a mapping")
    unknown = set(entry) - _NATION_KEYS
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    missing = _NATION_KEYS - set(entry)
    if missing:
        raise ParseError(f"{where}: missing keys {sorted(missing)}")
    name = entry["name"]
    if not isinstance(name, str) or not name:
        raise ParseError(f"{where}: name must be a nonempty string")
    background = entry["background"]
    if not isinstance(background, str):
        raise ParseError(f"{where} ({name}): background must be a string")
    objectives = entry["objectives"]
    if not isinstance(objectives, list) or not all(isinstance(o, str) for o in objectives):
        raise ParseError(f"{where} ({name}): objectives must be a list of strings")
    return NationProfile(name=name, background=background.strip(), objectives=tuple(objectives))


def parse_scenario(document: object) -> Scenario:
    """Build and validate a scenario from a deserialized document."""
    if not isinstance(document, dict):
        raise ParseError("scenario document must be a mapping")
    unknown = set(document) - _TOP_KEYS
    if unknown:
        raise ParseError(f"scenario: unknown keys {sorted(unknown)}")
    missing = _TOP_KEYS - set(document)
    if missing:
        raise ParseError(f"scenario: missing keys {sorted(missing)}")
    name = document["name"]
    if not isinstance(name, str) or not name:
        raise ParseError("scenario: name must be a nonempty string")
    days = document["days"]
    if isinstance(days, bool) or not isinstance(days, int):
        raise ParseError("scenario: days must be an integer")
    if days < 1:
        raise ValidationError(f"scenario {name!r}: days must be positive, got {days}")
    summary = document["initial_summary"]
    if not isinstance(summary, str) or not summary.strip():
        raise ParseError("scenario: initial_summary must be a nonempty string")
    raw_nations = document["nations"]
    if not isinstance(raw_nations, list) or not raw_nations:
        raise ParseError("scenario: nations must be a nonempty list")
    nations = tuple(_parse_nation(entry, i) for i, entry in enumerate(raw_nations))
    seen: set[str] = set()
    for profile in nations:
        if profile.name in seen:
            raise ValidationError(f"duplicate nation name: {profile.name!r}")
        seen.add(profile.name)
    return Scenario(name=name, nations=nations, initial_summary=summary.strip(), days=days)


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed scenario file {path}: {exc}") from exc
    return parse_scenario(document)


def default_scenario_path() -> Path:
    """Path of the shipped neutral scenario (8 nations, 14 days)."""
    return Path(str(resources.files("esclab").joinpath("data/neutral_scenario.yaml")))


def load_default_scenario() -> Scenario:
    return load_scenario(default_scenario_path())
