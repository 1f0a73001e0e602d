"""Scenario definitions and the evolving day-by-day world state.

The world is exactly a text summary plus the public action log, as in the
base design: no geography, economy or force-structure modeling.  WorldState
is an immutable value; advancing a day returns a new state.

Every data file (scenario, taxonomy, plan, script) is read with
``load_yaml_file`` and checked with ``require_keys`` and ``require_type``.
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

# libyaml's loader where pyyaml was built with it: the same documents, parsed
# about ten times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(text: str) -> object:
    """``yaml.safe_load``, on libyaml when it is there."""
    return yaml.load(text, Loader=_YAML_LOADER)


def load_yaml_file(path: str | Path, kind: str) -> object:
    """The document of a ``kind`` data file; ``ParseError`` if it cannot be
    read, is not UTF-8 or is not YAML."""
    try:
        return _load_yaml(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {kind} file {path}: {exc}") from exc
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ParseError(f"malformed {kind} file {path}: {exc}") from exc


def require_keys(value: object, where: str, allowed, required=()) -> dict:
    """``value`` if it is a mapping with only ``allowed`` keys and every
    ``required`` one; ``ParseError`` otherwise."""
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected a mapping, got {type(value).__name__}")
    unknown = set(value) - set(allowed)
    if unknown:
        # key=str: YAML keys need not all be strings, nor comparable.
        raise ParseError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    missing = set(required) - set(value)
    if missing:
        raise ParseError(f"{where}: missing keys {sorted(missing)}")
    return value


_KIND_NAMES = {
    str: "string", int: "integer", float: "number", bool: "boolean (true or false)",
    list: "list", dict: "mapping",
}


def require_type(value: object, kind: type, where: str, nonempty: bool = False):
    """``value`` if it is a ``kind`` (and, with ``nonempty``, not empty or
    blank); ``ParseError`` otherwise.

    A bool is never an int or a number (``float``); an int is a number.
    """
    types = (int, float) if kind is float else kind
    ok = isinstance(value, types) and (kind is bool or not isinstance(value, bool))
    if ok and nonempty:
        ok = bool(value.strip() if isinstance(value, str) else value)
    if not ok:
        name = ("nonempty " if nonempty else "") + _KIND_NAMES[kind]
        article = "an" if name[0] in "aeiou" else "a"
        raise ParseError(f"{where} must be {article} {name}, got {value!r}")
    return value


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


def action_text(nation: str, action: ChosenAction) -> str:
    """One action as the action log and the world updater word it."""
    return f"{nation} chose {action.action_id}" + (
        f" targeting {action.target}" if action.target else ""
    )


@dataclass(frozen=True)
class WorldState:
    """Current day, latest world summary and the full history of records.

    ``action_log`` is the public action log: one line per action of
    ``history``, by day, in roster order.  ``advance_day`` extends it with
    the new record's lines.
    """

    scenario: Scenario
    current_day: int = 0
    summary: str = ""
    history: tuple[DailyRecord, ...] = field(default_factory=tuple)
    action_log: str = ""


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
    lines = [
        f"Day {record.day}: {action_text(nation, action)}"
        for nation in world.scenario.nation_names
        for action in record.actions_by_nation[nation]
    ]
    if world.action_log:
        lines.insert(0, world.action_log)
    return WorldState(
        scenario=world.scenario,
        current_day=record.day,
        summary=record.world_summary_after,
        history=world.history + (record,),
        action_log="\n".join(lines),
    )


def _parse_nation(entry: object, index: int) -> NationProfile:
    where = f"nations[{index}]"
    require_keys(entry, where, _NATION_KEYS, _NATION_KEYS)
    name = require_type(entry["name"], str, f"{where}: name", nonempty=True)
    where = f"{where} ({name})"
    background = require_type(entry["background"], str, f"{where}: background")
    objectives = require_type(entry["objectives"], list, f"{where}: objectives")
    for i, objective in enumerate(objectives):
        require_type(objective, str, f"{where}: objectives[{i}]")
    return NationProfile(name=name, background=background.strip(), objectives=tuple(objectives))


def parse_scenario(document: object) -> Scenario:
    """Build and validate a scenario from a deserialized document."""
    require_keys(document, "scenario", _TOP_KEYS, _TOP_KEYS)
    name = require_type(document["name"], str, "scenario: name", nonempty=True)
    days = require_type(document["days"], int, "scenario: days")
    if days < 1:
        raise ValidationError(f"scenario {name!r}: days must be positive, got {days}")
    summary = require_type(
        document["initial_summary"], str, "scenario: initial_summary", nonempty=True
    )
    raw_nations = require_type(document["nations"], list, "scenario: nations", nonempty=True)
    nations = tuple(_parse_nation(entry, i) for i, entry in enumerate(raw_nations))
    seen: set[str] = set()
    for profile in nations:
        if profile.name in seen:
            raise ValidationError(f"duplicate nation name: {profile.name!r}")
        seen.add(profile.name)
    return Scenario(name=name, nations=nations, initial_summary=summary.strip(), days=days)


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file."""
    return parse_scenario(load_yaml_file(path, "scenario"))


def default_scenario_path() -> Path:
    """Path of the shipped neutral scenario (8 nations, 14 days)."""
    return Path(str(resources.files("esclab").joinpath("data/neutral_scenario.yaml")))


def load_default_scenario() -> Scenario:
    return load_scenario(default_scenario_path())
