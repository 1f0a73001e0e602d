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

    def __hash__(self) -> int:
        # Prompt caches key on the taxonomy once per query, and hashing all
        # 27 specs would cost more than the cached work.  Equal taxonomies
        # share a version, so this agrees with equality.
        return hash(self.version)

    @cached_property
    def _by_id(self) -> dict[str, ActionSpec]:
        return {spec.id: spec for spec in self.actions}

    def __contains__(self, action_id: str) -> bool:
        return action_id in self._by_id

    @cached_property
    def fallback(self) -> ActionSpec:
        """The designated zero-score status-quo action used for malformed turns."""
        for spec in self.actions:
            if spec.category is ActionCategory.STATUS_QUO and spec.score == 0:
                return spec
        raise ValidationError("taxonomy has no zero-score status_quo action")

    def score_of(self, action_id: str) -> int:
        return lookup_action(self, action_id).score


def lookup_action(taxonomy: ActionTaxonomy, action_id: str) -> ActionSpec:
    """Return the ActionSpec for ``action_id`` or raise UnknownAction."""
    try:
        return taxonomy._by_id[action_id]
    except KeyError:
        raise UnknownAction(f"unknown action id: {action_id!r}") from None


def _require_keys(mapping: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(mapping)
    if missing:
        raise ParseError(f"{where}: missing keys {sorted(missing)}")


def _parse_action(entry: object, index: int) -> ActionSpec:
    where = f"actions[{index}]"
    if not isinstance(entry, dict):
        raise ParseError(f"{where}: expected a mapping, got {type(entry).__name__}")
    _require_keys(entry, _ACTION_KEYS, _ACTION_KEYS, where)
    action_id = entry["id"]
    name = entry["name"]
    if not isinstance(action_id, str) or not action_id:
        raise ParseError(f"{where}: id must be a nonempty string")
    if not isinstance(name, str) or not name:
        raise ParseError(f"{where} ({action_id}): name must be a nonempty string")
    try:
        category = ActionCategory(entry["category"])
    except ValueError:
        raise ParseError(
            f"{where} ({action_id}): category must be one of "
            f"{[c.value for c in ActionCategory]}, got {entry['category']!r}"
        ) from None
    score = entry["score"]
    if isinstance(score, bool) or not isinstance(score, int):
        raise ParseError(f"{where} ({action_id}): score must be an integer")
    requires_target = entry["requires_target"]
    if not isinstance(requires_target, bool):
        raise ParseError(f"{where} ({action_id}): requires_target must be a boolean")
    return ActionSpec(
        id=action_id,
        display_name=name,
        category=category,
        score=score,
        requires_target=requires_target,
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
    if not isinstance(document, dict):
        raise ParseError("taxonomy document must be a mapping")
    _require_keys(document, _TOP_KEYS, _TOP_KEYS, "taxonomy")
    version = document["version"]
    if not isinstance(version, str) or not version:
        raise ParseError("taxonomy: version must be a nonempty string")
    raw_actions = document["actions"]
    if not isinstance(raw_actions, list) or not raw_actions:
        raise ParseError("taxonomy: actions must be a nonempty list")
    actions = tuple(_parse_action(entry, i) for i, entry in enumerate(raw_actions))
    return _validate(ActionTaxonomy(actions=actions, version=version))


def load_taxonomy(path: str | Path) -> ActionTaxonomy:
    """Load and validate a taxonomy file (YAML key/value tree)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read taxonomy file {path}: {exc}") from exc
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed taxonomy file {path}: {exc}") from exc
    return parse_taxonomy(document)


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
