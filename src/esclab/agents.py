"""Turning prompts into validated action turns via pluggable policies.

LlmPolicy queries a transport with the assembled prompts and parses the
untrusted reply; ScriptedPolicy plays a fixed day-to-actions table.  Both
produce AgentTurn values whose action ids are guaranteed to resolve in the
taxonomy: model replies and script entries pass the same action validator;
a script entry that fails it is refused naming the run, day and nation.
``esclab inspect`` replays a recorded model run under LlmPolicy, answering
its requests from its own transcript (``experiments.ReplayTransport``), and
a scripted run under a ScriptedPolicy of its own turns.  The ``llm_call``
record of each request is written by ``client.complete``.

A policy holds only how to reach a model: the run's treatment and taxonomy
arrive with each call and the scenario with the world, so every request
carries the treatment its run records.  What the policy is (``describe``)
and the model it calls are recorded in the run header.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from . import transcript as ts
from .client import DEFAULT_MAX_TOKENS, Transport, chat_request, complete
from .errors import ValidationError
from .prompts import MAX_ACTIONS_PER_DAY, PromptTemplates, build_prompts, text_sha256
from .scenario import (
    ChosenAction,
    Scenario,
    WorldState,
    load_yaml_file,
    require_keys,
    require_type,
)
from .taxonomy import ActionTaxonomy

if TYPE_CHECKING:
    from .orchestrator import Treatment

log = logging.getLogger("esclab.agents")

DEFAULT_PARSE_RETRIES = 3
THOUGHTS_WORD_LIMIT = 250

# Built once and shared by every query, also across threads: it keeps no
# state from one call to the next.
_DECODER = json.JSONDecoder()


@dataclass(frozen=True)
class AgentTurn:
    """One nation's validated decisions for one day."""

    nation: str
    actions: tuple[ChosenAction, ...]
    fallback: bool = False
    deviations: tuple[str, ...] = ()


@dataclass(frozen=True)
class ParseFailure:
    """Machine-readable reason a model reply could not become a turn."""

    reason: str
    detail: str = ""


def _first_json_object(text: str) -> dict | None:
    """Locate the first well-formed JSON object in free text, if any."""
    start = text.find("{")
    while start != -1:
        try:
            document, _ = _DECODER.raw_decode(text, start)
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
    return ChosenAction(action_id=action_id, target=target)


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
    return AgentTurn(nation=nation, actions=tuple(actions), deviations=tuple(deviations))


def fallback_turn(taxonomy: ActionTaxonomy, nation: str) -> AgentTurn:
    """The zero-score status-quo turn injected after parse exhaustion."""
    return AgentTurn(nation=nation, actions=(ChosenAction(taxonomy.fallback.id),),
                     fallback=True)


class AgentPolicy:
    """Behavior contract: produce a turn (or a parse failure) for one query."""

    # The prompt templates the policy renders; None means the shipped ones.
    templates: PromptTemplates | None = None
    # False when ``decide`` waits on an endpoint: only then do threads gain.
    in_process = True
    # The model its requests name and their max_tokens; None if it calls none.
    model: str | None = None
    max_tokens: int | None = None

    def describe(self) -> dict:
        """What the run header records of the policy besides its model."""
        return {"kind": type(self).__name__}

    def decide(
        self,
        world: WorldState,
        nation: str,
        treatment: Treatment,
        taxonomy: ActionTaxonomy,
        attempt: int = 1,
        run_id: str = "",
        recorder: ts.Recorder | None = None,
    ) -> AgentTurn | ParseFailure:
        raise NotImplementedError


class LlmPolicy(AgentPolicy):
    """Prompt the model through a transport and parse the reply."""

    max_tokens = DEFAULT_MAX_TOKENS

    def __init__(
        self,
        transport: Transport,
        model: str,
        templates: PromptTemplates | None = None,
    ):
        self.transport = transport
        self.model = model
        self.templates = templates
        self.in_process = transport.in_process

    def describe(self) -> dict:
        return {"kind": "llm"}

    def decide(
        self,
        world: WorldState,
        nation: str,
        treatment: Treatment,
        taxonomy: ActionTaxonomy,
        attempt: int = 1,
        run_id: str = "",
        recorder: ts.Recorder | None = None,
    ) -> AgentTurn | ParseFailure:
        bundle = build_prompts(
            world.scenario, taxonomy, world, nation, treatment.variant, templates=self.templates
        )
        request = chat_request(
            model=self.model,
            system_text=bundle.system_text,
            user_text=bundle.user_text,
            temperature=treatment.temperature,
            max_tokens=self.max_tokens,
            request_tag=ts.request_tag(run_id, world.current_day + 1, nation, attempt),
        )
        response = complete(self.transport, request, recorder=recorder,
                            user_sha256=bundle.user_sha256 if attempt == 1 else None)
        result = parse_agent_response(
            response.content,
            taxonomy,
            world.scenario,
            nation,
            bundle.expects_private_thoughts,
        )
        if isinstance(result, ParseFailure) and response.finish_reason == "length":
            # A reply cut at max_tokens would fail as whatever its cut JSON does.
            result = ParseFailure("truncated", f"cut at max_tokens: {result.reason}: "
                                               f"{result.detail}")
        if isinstance(result, ParseFailure) and recorder is not None:
            # The llm_call just recorded holds the reply and, by its place, the attempt.
            recorder(ts.PARSE_FAILURE, {"reason": result.reason, "detail": result.detail})
        return result


class ScriptedPolicy(AgentPolicy):
    """Deterministic table of (nation, day) -> actions; never touches a model."""

    def __init__(
        self,
        table: Mapping[str, Mapping[int, Sequence[ChosenAction]]],
        default: Sequence[ChosenAction] | None = None,
    ):
        self.table = {
            nation: {day: tuple(actions) for day, actions in days.items()}
            for nation, days in table.items()
        }
        self.default = tuple(default) if default is not None else None
        script = {
            "nations": {nation: {day: [[a.action_id, a.target] for a in actions]
                                 for day, actions in days.items()}
                        for nation, days in self.table.items()},
            "default": None if self.default is None
            else [[a.action_id, a.target] for a in self.default],
        }
        self.script_sha256 = text_sha256(
            json.dumps(script, sort_keys=True, ensure_ascii=False, separators=(",", ":"),
                       default=repr)
        )

    def describe(self) -> dict:
        return {"kind": "scripted", "script_sha256": self.script_sha256}

    def decide(
        self,
        world: WorldState,
        nation: str,
        treatment: Treatment,
        taxonomy: ActionTaxonomy,
        attempt: int = 1,
        run_id: str = "",
        recorder: ts.Recorder | None = None,
    ) -> AgentTurn:
        day = world.current_day + 1
        actions = self.table.get(nation, {}).get(day, self.default)
        if actions is None:
            actions = (ChosenAction(action_id=taxonomy.fallback.id),)
        validated = []
        for action in actions:
            outcome = _validate_action_entry(
                {"action": action.action_id, "target": action.target},
                taxonomy,
                world.scenario,
                nation,
            )
            if isinstance(outcome, ParseFailure):
                raise ValidationError(
                    f"transcript {run_id!r} day {day} {nation}: scripted action "
                    f"{action.action_id!r}: {outcome.reason.replace('_', '-')} ({outcome.detail})"
                )
            validated.append(outcome)
        return AgentTurn(nation=nation, actions=tuple(validated))


def decide_with_retry(
    policy: AgentPolicy,
    world: WorldState,
    nation: str,
    treatment: Treatment,
    taxonomy: ActionTaxonomy,
    max_parse_retries: int = DEFAULT_PARSE_RETRIES,
    run_id: str = "",
    recorder: ts.Recorder | None = None,
) -> AgentTurn:
    """Obtain a turn, retrying parse failures, falling back to status quo.

    Transport-level errors propagate; only ParseFailure results are retried.
    Every failure reason is persisted through the recorder by the policy.
    """
    if max_parse_retries < 0:
        raise ValidationError("max_parse_retries must be >= 0")
    attempts = max_parse_retries + 1
    for attempt in range(1, attempts + 1):
        result = policy.decide(
            world,
            nation,
            treatment,
            taxonomy,
            attempt=attempt,
            run_id=run_id,
            recorder=recorder,
        )
        if isinstance(result, AgentTurn):
            if result.deviations:
                log.info("protocol deviation for %s: %s", nation, result.deviations)
            return result
    log.warning(
        "falling back to %s for %s after %d parse attempts",
        taxonomy.fallback.id,
        nation,
        attempts,
    )
    return fallback_turn(taxonomy, nation)


def _parse_script_actions(entries: object, where: str) -> tuple[ChosenAction, ...]:
    actions = []
    for entry in require_type(entries, list, where):
        require_keys(entry, where, ("action", "target"), ("action",))
        actions.append(
            ChosenAction(
                action_id=require_type(entry["action"], str, f"{where}: action", nonempty=True),
                target=entry.get("target"),
            )
        )
    return tuple(actions)


def load_script(path: str | Path) -> ScriptedPolicy:
    """Load a scripted-policy file: per-nation day -> action list tables."""
    document = require_keys(load_yaml_file(path, "script"), "script", ("nations", "default"))
    raw_nations = require_type(document.get("nations", {}), dict, "script: nations")
    table: dict[str, dict[int, tuple[ChosenAction, ...]]] = {}
    for nation, days in raw_nations.items():
        where = f"script nation {nation!r}"
        require_type(nation, str, f"{where}: name")
        table[nation] = {}
        for day, entries in require_type(days, dict, f"{where}: days").items():
            require_type(day, int, f"{where}: day key")
            table[nation][day] = _parse_script_actions(entries, f"{nation} day {day}")
    default = None
    if "default" in document:
        default = _parse_script_actions(document["default"], "default")
    return ScriptedPolicy(table, default=default)
