"""Escalation action menu: categories, per-action scores, loading and lookup.

The menu lives in a data file so the engine stays correct regardless of which
action set a study uses.  The shipped default has 27 actions scored from -2
(de-escalation) to 60 (nuclear use); the loader accepts other counts for
research variants but warns.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from importlib import resources
from pathlib import Path

import yaml

from .errors import ParseError, UnknownAction, ValidationError
from .scenario import load_yaml_file, require_keys, require_type

log = logging.getLogger("esclab.taxonomy")

EXPECTED_ACTION_COUNT = 27
SCORE_MIN = -2
SCORE_MAX = 60
NUCLEAR_SCORE = 60

_ACTION_KEYS = {"id", "name", "category", "score", "requires_target"}
_TOP_KEYS = {"version", "actions"}


class ActionCategory(Enum):
    """The six behavior buckets used for frequency analysis."""

    DE_ESCALATION = "de_escalation"
    STATUS_QUO = "status_quo"
    POSTURING = "posturing"
    NON_VIOLENT_ESCALATION = "non_violent_escalation"
    VIOLENT_ESCALATION = "violent_escalation"
    NUCLEAR = "nuclear"


@dataclass(frozen=True)
class ActionSpec:
    """One menu entry: stable id, display name, category, score, targeting."""

    id: str
    display_name: str
    category: ActionCategory
    score: int
    requires_target: bool


@dataclass(frozen=True)
class ActionTaxonomy:
    """Validated, immutable action menu; safe to share across runs."""

    actions: tuple[ActionSpec, ...]
    version: str

    @cached_property
    def _by_id(self) -> dict[str, ActionSpec]:
        return {spec.id: spec for spec in self.actions}

    def __contains__(self, action_id: str) -> bool:
        return action_id in self._by_id

    @cached_property
    def menu_text(self) -> str:
        """The menu as the system prompt lists it, one line per action.

        Rendered once per object: prompt caches key on this text, so they
        never compare two equal taxonomies spec by spec.
        """
        return "\n".join(
            f"{spec.id} | {spec.category.value} | score {spec.score} | "
            f"target: {'yes' if spec.requires_target else 'no'} | {spec.display_name}"
            for spec in self.actions
        )

    @cached_property
    def fallback(self) -> ActionSpec:
        """The designated zero-score status-quo action used for malformed turns."""
        for spec in self.actions:
            if spec.category is ActionCategory.STATUS_QUO and spec.score == 0:
                return spec
        raise ValidationError("taxonomy has no zero-score status_quo action")


def lookup_action(taxonomy: ActionTaxonomy, action_id: str) -> ActionSpec:
    """Return the ActionSpec for ``action_id`` or raise UnknownAction."""
    try:
        return taxonomy._by_id[action_id]
    except (KeyError, TypeError):  # TypeError: an id read back as a list, say
        raise UnknownAction(f"unknown action id: {action_id!r}") from None


def _parse_action(entry: object, index: int) -> ActionSpec:
    where = f"actions[{index}]"
    require_keys(entry, where, _ACTION_KEYS, _ACTION_KEYS)
    action_id = require_type(entry["id"], str, f"{where}: id", nonempty=True)
    where = f"{where} ({action_id})"
    name = require_type(entry["name"], str, f"{where}: name", nonempty=True)
    try:
        category = ActionCategory(entry["category"])
    except ValueError:
        raise ParseError(
            f"{where}: category must be one of "
            f"{[c.value for c in ActionCategory]}, got {entry['category']!r}"
        ) from None
    return ActionSpec(
        id=action_id,
        display_name=name,
        category=category,
        score=require_type(entry["score"], int, f"{where}: score"),
        requires_target=require_type(entry["requires_target"], bool, f"{where}: requires_target"),
    )


def _validate(taxonomy: ActionTaxonomy) -> ActionTaxonomy:
    seen: set[str] = set()
    for spec in taxonomy.actions:
        if spec.id in seen:
            raise ValidationError(f"duplicate action id: {spec.id!r}")
        seen.add(spec.id)
        if not SCORE_MIN <= spec.score <= SCORE_MAX:
            raise ValidationError(
                f"action {spec.id!r}: score {spec.score} outside [{SCORE_MIN}, {SCORE_MAX}]"
            )
        if spec.category is ActionCategory.DE_ESCALATION and spec.score >= 0:
            raise ValidationError(
                f"action {spec.id!r}: de_escalation actions must score below 0"
            )
        if spec.category is ActionCategory.NUCLEAR and spec.score != NUCLEAR_SCORE:
            raise ValidationError(
                f"action {spec.id!r}: nuclear actions must score exactly {NUCLEAR_SCORE}"
            )
    if not any(
        s.category is ActionCategory.STATUS_QUO and s.score == 0 for s in taxonomy.actions
    ):
        raise ValidationError("taxonomy needs at least one zero-score status_quo action")
    if len(taxonomy.actions) != EXPECTED_ACTION_COUNT:
        log.warning(
            "taxonomy %r has %d actions (default design uses %d)",
            taxonomy.version,
            len(taxonomy.actions),
            EXPECTED_ACTION_COUNT,
        )
    return taxonomy


def parse_taxonomy(document: object) -> ActionTaxonomy:
    """Build and validate a taxonomy from an already-deserialized document."""
    require_keys(document, "taxonomy", _TOP_KEYS, _TOP_KEYS)
    version = require_type(document["version"], str, "taxonomy: version", nonempty=True)
    raw_actions = require_type(document["actions"], list, "taxonomy: actions", nonempty=True)
    actions = tuple(_parse_action(entry, i) for i, entry in enumerate(raw_actions))
    return _validate(ActionTaxonomy(actions=actions, version=version))


def load_taxonomy(path: str | Path) -> ActionTaxonomy:
    """Load and validate a taxonomy file (YAML key/value tree)."""
    return parse_taxonomy(load_yaml_file(path, "taxonomy"))


def serialize_taxonomy(taxonomy: ActionTaxonomy) -> str:
    """Render a taxonomy back to the file schema; inverse of load_taxonomy."""
    document = {
        "version": taxonomy.version,
        "actions": [
            {
                "id": spec.id,
                "name": spec.display_name,
                "category": spec.category.value,
                "score": spec.score,
                "requires_target": spec.requires_target,
            }
            for spec in taxonomy.actions
        ],
    }
    return yaml.safe_dump(document, sort_keys=False, allow_unicode=True)


def default_taxonomy_path() -> Path:
    """Path of the shipped 27-action menu."""
    return Path(str(resources.files("esclab").joinpath("data/default_taxonomy.yaml")))


def load_default_taxonomy() -> ActionTaxonomy:
    return load_taxonomy(default_taxonomy_path())
