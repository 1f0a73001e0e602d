"""Turning prompts into validated action turns via pluggable policies.

LlmPolicy queries a transport with the assembled prompts and parses the
untrusted reply; ScriptedPolicy plays a fixed day-to-actions table;
ReplayPolicy re-issues the turns stored in a prior transcript.  All of them
produce AgentTurn values whose action ids are guaranteed to resolve in the
taxonomy: model replies and script entries pass the same action validator,
and replayed turns are decoded by the transcript module that wrote them.
The ``llm_call`` record of each request is written by ``client.complete``.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from . import transcript as ts
from .client import DEFAULT_MAX_TOKENS, Transport, chat_request, complete
from .errors import ParseError, ValidationError
from .prompts import (
    MAX_ACTIONS_PER_DAY,
    PromptTemplates,
    PromptVariant,
    build_prompts,
)
from .scenario import ChosenAction, Scenario, WorldState
from .taxonomy import ActionTaxonomy

log = logging.getLogger("esclab.agents")

DEFAULT_PARSE_RETRIES = 3
THOUGHTS_WORD_LIMIT = 250


@dataclass(frozen=True)
class AgentTurn:
    """One nation's validated decisions for one day."""

    nation: str
    actions: tuple[ChosenAction, ...]
    private_thoughts: str | None = None
    parse_attempts: int = 1
    fallback: bool = False
    deviations: tuple[str, ...] = ()


@dataclass(frozen=True)
class ParseFailure:
    """Machine-readable reason a model reply could not become a turn."""

    reason: str
    detail: str = ""


def _first_json_object(text: str) -> dict | None:
    """Locate the first well-formed JSON object in free text, if any."""
    decoder = json.JSONDecoder()
    start = text.find("{")
    while start != -1:
        try:
            document, _ = decoder.raw_decode(text, start)
        except RecursionError:
            # Nested too deeply to decode: treated as no document at all.
            return None
        except ValueError:
            start = text.find("{", start + 1)
            continue
        if isinstance(document, dict):
            return document
        start = text.find("{", start + 1)
    return None


def _validate_action_entry(
    entry: object,
    taxonomy: ActionTaxonomy,
    scenario: Scenario,
    nation: str,
) -> ChosenAction | ParseFailure:
    if not isinstance(entry, dict):
        return ParseFailure("bad_action_entry", f"expected an object, got {entry!r}")
    action_id = entry.get("action")
    if not isinstance(action_id, str):
        return ParseFailure("bad_action_entry", f"missing 'action' key in {entry!r}")
    if action_id not in taxonomy:
        return ParseFailure("unknown_action", action_id)
    spec = taxonomy._by_id[action_id]
    target = entry.get("target")
    if target in ("", None):
        target = None
    if spec.requires_target:
        if target is None:
            return ParseFailure("missing_target", action_id)
        if not isinstance(target, str) or target not in scenario.nation_names:
            return ParseFailure("unknown_target", f"{action_id} -> {target!r}")
        if target == nation:
            return ParseFailure("self_target", action_id)
    elif target is not None:
        return ParseFailure("unexpected_target", f"{action_id} -> {target!r}")
    return ChosenAction(
        action_id=action_id,
        target=target if spec.requires_target else None,
        raw_text=json.dumps(entry, ensure_ascii=False, sort_keys=True),
    )


def parse_agent_response(
    content: str | None,
    taxonomy: ActionTaxonomy,
    scenario: Scenario,
    nation: str,
    expects_private_thoughts: bool,
) -> AgentTurn | ParseFailure:
    """Validate untrusted model output into an AgentTurn.

    Extraction tolerates surrounding prose by locating the first well-formed
    JSON object in the text.  A missing private-thoughts field under a
    reflection variant is a logged protocol deviation, not a failure.
    Content that is not text (endpoints send ``null`` on refusals) is an
    ``empty_reply`` failure.
    """
    if not isinstance(content, str):
        return ParseFailure("empty_reply", f"reply content is {type(content).__name__}, not text")
    document = _first_json_object(content)
    if document is None:
        return ParseFailure("no_document", "no JSON object found in response")
    raw_actions = document.get("actions")
    if raw_actions is None:
        return ParseFailure("missing_actions", "response object has no 'actions' key")
    if not isinstance(raw_actions, list):
        return ParseFailure("bad_actions", f"'actions' is not a list: {raw_actions!r}")
    if not raw_actions:
        return ParseFailure("empty_actions", "'actions' list is empty")
    if len(raw_actions) > MAX_ACTIONS_PER_DAY:
        return ParseFailure(
            "too_many_actions", f"{len(raw_actions)} > {MAX_ACTIONS_PER_DAY}"
        )
    actions: list[ChosenAction] = []
    for entry in raw_actions:
        outcome = _validate_action_entry(entry, taxonomy, scenario, nation)
        if isinstance(outcome, ParseFailure):
            return outcome
        actions.append(outcome)

    deviations: list[str] = []
    thoughts = document.get("private_thoughts")
    if thoughts is not None and not isinstance(thoughts, str):
        return ParseFailure("bad_private_thoughts", f"not a string: {thoughts!r}")
    if expects_private_thoughts:
        if thoughts is None:
            deviations.append("missing_private_thoughts")
        elif len(thoughts.split()) > THOUGHTS_WORD_LIMIT:
            deviations.append("overlong_private_thoughts")
    elif thoughts is not None:
        deviations.append("unexpected_private_thoughts")
        thoughts = None
    return AgentTurn(
        nation=nation,
        actions=tuple(actions),
        private_thoughts=thoughts,
        deviations=tuple(deviations),
    )


def fallback_turn(taxonomy: ActionTaxonomy, nation: str, attempts: int) -> AgentTurn:
    """The zero-score status-quo turn injected after parse exhaustion."""
    spec = taxonomy.fallback
    return AgentTurn(
        nation=nation,
        actions=(ChosenAction(action_id=spec.id, raw_text="(fallback)"),),
        parse_attempts=attempts,
        fallback=True,
    )


class AgentPolicy:
    """Behavior contract: produce a turn (or a parse failure) for one query."""

    def decide(
        self,
        scenario: Scenario,
        taxonomy: ActionTaxonomy,
        world: WorldState,
        nation: str,
        variant: PromptVariant,
        attempt: int = 1,
        request_tag: str = "",
        recorder: ts.Recorder | None = None,
    ) -> AgentTurn | ParseFailure:
        raise NotImplementedError


class LlmPolicy(AgentPolicy):
    """Prompt the model through a transport and parse the reply."""

    def __init__(
        self,
        transport: Transport,
        model: str,
        temperature: float,
        max_tokens: int = DEFAULT_MAX_TOKENS,
        templates: PromptTemplates | None = None,
    ):
        self.transport = transport
        self.model = model
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.templates = templates

    def decide(
        self,
        scenario: Scenario,
        taxonomy: ActionTaxonomy,
        world: WorldState,
        nation: str,
        variant: PromptVariant,
        attempt: int = 1,
        request_tag: str = "",
        recorder: ts.Recorder | None = None,
    ) -> AgentTurn | ParseFailure:
        bundle = build_prompts(
            scenario, taxonomy, world, nation, variant, templates=self.templates
        )
        if recorder is not None and attempt == 1:
            recorder(
                ts.PROMPT,
                {"user_text": bundle.user_text, "system_sha256": bundle.system_sha256},
            )
        request = chat_request(
            model=self.model,
            system_text=bundle.system_text,
            user_text=bundle.user_text,
            temperature=self.temperature,
            max_tokens=self.max_tokens,
            request_tag=f"{request_tag}|a{attempt}",
        )
        response = complete(self.transport, request, recorder=recorder)
        result = parse_agent_response(
            response.content,
            taxonomy,
            scenario,
            nation,
            bundle.expects_private_thoughts,
        )
        if isinstance(result, ParseFailure) and recorder is not None:
            recorder(
                ts.PARSE_FAILURE,
                {
                    "nation": nation,
                    "attempt": attempt,
                    "reason": result.reason,
                    "detail": result.detail,
                    "content": response.content,
                },
            )
        return result


class ScriptedPolicy(AgentPolicy):
    """Deterministic table of (nation, day) -> actions; never touches a model."""

    def __init__(
        self,
        table: Mapping[str, Mapping[int, Sequence[ChosenAction]]],
        default: Sequence[ChosenAction] | None = None,
    ):
        self.table = {
            nation: {int(day): tuple(actions) for day, actions in days.items()}
            for nation, days in table.items()
        }
        self.default = tuple(default) if default is not None else None

    def decide(
        self,
        scenario: Scenario,
        taxonomy: ActionTaxonomy,
        world: WorldState,
        nation: str,
        variant: PromptVariant,
        attempt: int = 1,
        request_tag: str = "",
        recorder: ts.Recorder | None = None,
    ) -> AgentTurn:
        day = world.current_day + 1
        actions = self.table.get(nation, {}).get(day, self.default)
        if actions is None:
            actions = (ChosenAction(action_id=taxonomy.fallback.id, raw_text="(script default)"),)
        validated = []
        for action in actions:
            outcome = _validate_action_entry(
                {"action": action.action_id, "target": action.target},
                taxonomy,
                scenario,
                nation,
            )
            if isinstance(outcome, ParseFailure):
                raise ValidationError(
                    f"scripted action {action.action_id!r} for {nation} day {day}: "
                    f"{outcome.reason.replace('_', '-')} ({outcome.detail})"
                )
            validated.append(replace(outcome, raw_text=action.raw_text))
        return AgentTurn(nation=nation, actions=tuple(validated))


class ReplayPolicy(AgentPolicy):
    """Re-issues the turns recorded in a prior transcript (one run only)."""

    def __init__(self, transcript_path: str | Path):
        self._turns: dict[tuple[int, str], AgentTurn] = {}
        for record in ts.read_records(transcript_path):
            if record.get("type") != ts.TURN:
                continue
            payload = record["payload"]
            turn = AgentTurn(
                nation=payload["nation"],
                actions=ts.turn_actions(payload),
                private_thoughts=payload.get("private_thoughts"),
                parse_attempts=payload.get("parse_attempts", 1),
                fallback=payload.get("fallback", False),
                deviations=tuple(payload.get("deviations", ())),
            )
            self._turns[(record["day"], payload["nation"])] = turn

    def decide(
        self,
        scenario: Scenario,
        taxonomy: ActionTaxonomy,
        world: WorldState,
        nation: str,
        variant: PromptVariant,
        attempt: int = 1,
        request_tag: str = "",
        recorder: ts.Recorder | None = None,
    ) -> AgentTurn:
        day = world.current_day + 1
        try:
            return self._turns[(day, nation)]
        except KeyError:
            raise ValidationError(
                f"transcript has no turn for nation {nation!r} on day {day}"
            ) from None


def decide_with_retry(
    policy: AgentPolicy,
    scenario: Scenario,
    taxonomy: ActionTaxonomy,
    world: WorldState,
    nation: str,
    variant: PromptVariant,
    max_parse_retries: int = DEFAULT_PARSE_RETRIES,
    request_tag: str = "",
    recorder: ts.Recorder | None = None,
) -> AgentTurn:
    """Obtain a turn, retrying parse failures, falling back to status quo.

    Transport-level errors propagate; only ParseFailure results are retried.
    Every failure reason is persisted through the recorder by the policy.
    """
    if max_parse_retries < 0:
        raise ValidationError("max_parse_retries must be >= 0")
    attempts = 0
    for attempt in range(1, max_parse_retries + 2):
        attempts = attempt
        result = policy.decide(
            scenario,
            taxonomy,
            world,
            nation,
            variant,
            attempt=attempt,
            request_tag=request_tag,
            recorder=recorder,
        )
        if isinstance(result, AgentTurn):
            if result.deviations:
                log.info("protocol deviation for %s: %s", nation, result.deviations)
            # Stamp the attempt count unless the policy already carries one
            # (ReplayPolicy preserves the original run's value).
            if result.parse_attempts == 1 and attempt > 1:
                result = replace(result, parse_attempts=attempt)
            return result
    log.warning(
        "falling back to %s for %s after %d parse attempts",
        taxonomy.fallback.id,
        nation,
        attempts,
    )
    return fallback_turn(taxonomy, nation, attempts)


def _parse_script_actions(entries: object, where: str) -> tuple[ChosenAction, ...]:
    if not isinstance(entries, list):
        raise ParseError(f"{where}: expected a list of actions")
    actions = []
    for entry in entries:
        if not isinstance(entry, dict) or "action" not in entry:
            raise ParseError(f"{where}: each action needs an 'action' key")
        unknown = set(entry) - {"action", "target"}
        if unknown:
            raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
        actions.append(
            ChosenAction(
                action_id=str(entry["action"]),
                target=entry.get("target"),
                raw_text="(scripted)",
            )
        )
    return tuple(actions)


def load_script(path: str | Path) -> ScriptedPolicy:
    """Load a scripted-policy file: per-nation day -> action list tables."""
    try:
        document = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read script file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed script file {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError("script document must be a mapping")
    unknown = set(document) - {"nations", "default"}
    if unknown:
        raise ParseError(f"script: unknown keys {sorted(unknown)}")
    raw_nations = document.get("nations", {})
    if not isinstance(raw_nations, dict):
        raise ParseError("script: nations must be a mapping")
    table: dict[str, dict[int, tuple[ChosenAction, ...]]] = {}
    for nation, days in raw_nations.items():
        if not isinstance(days, dict):
            raise ParseError(f"script nation {nation!r}: expected day -> actions mapping")
        table[str(nation)] = {
            int(day): _parse_script_actions(entries, f"{nation} day {day}")
            for day, entries in days.items()
        }
    default = None
    if "default" in document:
        default = _parse_script_actions(document["default"], "default")
    return ScriptedPolicy(table, default=default)
