import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esclab.agents import (
    AgentTurn,
    LlmPolicy,
    ParseFailure,
    ScriptedPolicy,
    decide_with_retry,
    fallback_turn,
    load_script,
    parse_agent_response,
)
from esclab.client import ChatResponse, MockTransport, Transport
from esclab.errors import ParseError, ValidationError
from esclab.orchestrator import Treatment
from esclab.prompts import PromptVariant
from esclab.scenario import ChosenAction, initial_world
from esclab.scoring import daily_score


DEFAULT = Treatment("t1.0-default", 1.0, PromptVariant.DEFAULT)
REFLECTION = Treatment("t1.0-reflection-planning", 1.0, PromptVariant.REFLECTION_PLANNING)


def parse(content, taxonomy, scenario, nation="Blue", expects=False):
    return parse_agent_response(content, taxonomy, scenario, nation, expects)


class TestParse:
    def test_single_wait_action(self, taxonomy, scenario):
        turn = parse('{"actions": [{"action": "wait"}]}', taxonomy, scenario)
        assert isinstance(turn, AgentTurn)
        assert turn.actions[0].action_id == "wait"
        assert daily_score([turn], taxonomy) == {"Blue": 0}

    def test_prose_around_document_tolerated(self, taxonomy, scenario):
        content = (
            'As the leader of Blue, I have weighed my options.\n'
            'Here is my decision: {"actions": [{"action": "increase_military_capacities"}]}'
            "\nThank you."
        )
        turn = parse(content, taxonomy, scenario)
        assert isinstance(turn, AgentTurn)
        assert turn.actions[0].action_id == "increase_military_capacities"

    def test_refusal_is_no_document(self, taxonomy, scenario):
        failure = parse("I refuse to answer.", taxonomy, scenario)
        assert isinstance(failure, ParseFailure)
        assert failure.reason == "no_document"

    def test_self_target_rejected(self, taxonomy, scenario):
        failure = parse(
            '{"actions": [{"action": "execute_targeted_attack", "target": "Blue"}]}',
            taxonomy, scenario,
        )
        assert isinstance(failure, ParseFailure)
        assert failure.reason == "self_target"

    def test_unknown_action_rejected(self, taxonomy, scenario):
        failure = parse('{"actions": [{"action": "summon_dragon"}]}', taxonomy, scenario)
        assert failure.reason == "unknown_action"

    def test_unknown_target_rejected(self, taxonomy, scenario):
        failure = parse(
            '{"actions": [{"action": "form_alliance", "target": "Atlantis"}]}',
            taxonomy, scenario,
        )
        assert failure.reason == "unknown_target"

    def test_missing_target_rejected(self, taxonomy, scenario):
        failure = parse('{"actions": [{"action": "form_alliance"}]}', taxonomy, scenario)
        assert failure.reason == "missing_target"

    def test_unexpected_target_rejected(self, taxonomy, scenario):
        failure = parse(
            '{"actions": [{"action": "wait", "target": "Red"}]}', taxonomy, scenario
        )
        assert failure.reason == "unexpected_target"

    def test_empty_actions_rejected(self, taxonomy, scenario):
        assert parse('{"actions": []}', taxonomy, scenario).reason == "empty_actions"

    def test_more_than_five_actions_rejected(self, taxonomy, scenario):
        content = json.dumps({"actions": [{"action": "wait"}] * 6})
        assert parse(content, taxonomy, scenario).reason == "too_many_actions"

    def test_thoughts_kept_under_reflection(self, taxonomy, scenario):
        content = json.dumps({
            "private_thoughts": "Stay calm.",
            "actions": [{"action": "wait"}],
        })
        events = []
        turn = decide_with_retry(
            LlmPolicy(MockTransport(content), model="m"), initial_world(scenario), "Blue",
            REFLECTION, taxonomy, run_id="run",
            recorder=lambda kind, payload: events.append((kind, payload)),
        )
        assert turn.deviations == ()
        # The thoughts stay in the accepted reply the llm_call record holds.
        [(kind, payload)] = events
        assert kind == "llm_call"
        assert json.loads(payload["content"])["private_thoughts"] == "Stay calm."

    def test_missing_thoughts_is_deviation_not_error(self, taxonomy, scenario):
        turn = parse('{"actions": [{"action": "wait"}]}', taxonomy, scenario, expects=True)
        assert isinstance(turn, AgentTurn)
        assert "missing_private_thoughts" in turn.deviations

    def test_unexpected_thoughts_dropped_and_logged(self, taxonomy, scenario):
        content = json.dumps({
            "private_thoughts": "should not be here",
            "actions": [{"action": "wait"}],
        })
        turn = parse(content, taxonomy, scenario, expects=False)
        assert "unexpected_private_thoughts" in turn.deviations

    def test_overlong_thoughts_logged_not_rejected(self, taxonomy, scenario):
        content = json.dumps({
            "private_thoughts": "word " * 300,
            "actions": [{"action": "wait"}],
        })
        turn = parse(content, taxonomy, scenario, expects=True)
        assert isinstance(turn, AgentTurn)
        assert "overlong_private_thoughts" in turn.deviations

    def test_fuzzed_mutations_parse_or_fail_cleanly(self, taxonomy, scenario):
        rng = random.Random(99)
        valid = json.dumps({
            "actions": [
                {"action": "wait"},
                {"action": "execute_targeted_attack", "target": "Red"},
            ]
        })
        alphabet = '{}[]",:abcdefwait '
        for _ in range(500):
            text = list(valid)
            for _ in range(rng.randint(1, 6)):
                op = rng.randrange(3)
                pos = rng.randrange(len(text))
                if op == 0:
                    text[pos] = rng.choice(alphabet)
                elif op == 1 and len(text) > 2:
                    del text[pos]
                else:
                    text.insert(pos, rng.choice(alphabet))
            outcome = parse("".join(text), taxonomy, scenario)
            if isinstance(outcome, AgentTurn):
                for action in outcome.actions:
                    assert action.action_id in taxonomy
            else:
                assert isinstance(outcome, ParseFailure)
                assert outcome.reason


class TestDecideWithRetry:
    def test_always_malformed_falls_back_after_retries(self, taxonomy, scenario):
        policy = LlmPolicy(MockTransport("not json"), model="m")
        world = initial_world(scenario)
        events = []
        turn = decide_with_retry(
            policy, world, "Blue", DEFAULT, taxonomy,
            max_parse_retries=3, run_id="run",
            recorder=lambda kind, payload: events.append((kind, payload)),
        )
        assert turn.fallback
        assert turn.actions[0].action_id == taxonomy.fallback.id
        assert daily_score([turn], taxonomy) == {"Blue": 0}
        # Each parse failure follows the llm_call holding the reply it refuses.
        assert [kind for kind, _ in events] == ["llm_call", "parse_failure"] * 4
        assert all(payload["content"] == "not json" for kind, payload in events
                   if kind == "llm_call")

    def test_null_reply_content_retries_then_falls_back(self, taxonomy, scenario):
        policy = LlmPolicy(MockTransport(lambda r: None), model="m")
        events = []
        turn = decide_with_retry(
            policy, initial_world(scenario), "Blue", DEFAULT, taxonomy,
            max_parse_retries=2, run_id="run",
            recorder=lambda kind, payload: events.append((kind, payload)),
        )
        assert turn.fallback
        assert [(kind, payload.get("content"), payload.get("reason"))
                for kind, payload in events] == [
            ("llm_call", None, None), ("parse_failure", None, "empty_reply")] * 3

    @pytest.mark.parametrize("finish_reason,reason", [
        ("length", "truncated"), ("stop", "no_document"),
    ])
    def test_reply_cut_at_max_tokens_fails_as_truncated(
        self, taxonomy, scenario, finish_reason, reason
    ):
        cut = '{"actions": [{"action": "wa'
        replies = {"run|d01|Blue|a1": cut, "run|d01|Blue|a2": '{"actions": [{"action": "wait"}]}'}

        class Endpoint(Transport):
            def send_once(self, request):
                return ChatResponse(replies[request.request_tag], finish_reason=finish_reason)

        policy = LlmPolicy(Endpoint(), model="m")
        events = []
        turn = decide_with_retry(
            policy, initial_world(scenario), "Blue", DEFAULT, taxonomy,
            run_id="run",
            recorder=lambda kind, payload: events.append((kind, payload)),
        )
        # A reply that parses is a turn whatever its finish reason.
        assert turn.actions[0].action_id == "wait"
        assert [(kind, payload.get("content"), payload.get("reason"))
                for kind, payload in events] == [
            ("llm_call", cut, None), ("parse_failure", None, reason),
            ("llm_call", replies["run|d01|Blue|a2"], None)]

    def test_valid_on_second_attempt(self, taxonomy, scenario):
        def responder(request):
            if request.request_tag.endswith("|a1"):
                return "garbage"
            return '{"actions": [{"action": "wait"}]}'

        policy = LlmPolicy(MockTransport(responder), model="m")
        world = initial_world(scenario)
        events = []
        turn = decide_with_retry(
            policy, world, "Blue", DEFAULT, taxonomy,
            run_id="run",
            recorder=lambda kind, payload: events.append((kind, payload)),
        )
        assert not turn.fallback
        assert [kind for kind, _ in events] == ["llm_call", "parse_failure", "llm_call"]

    def test_scripted_policy_always_one_attempt(self, taxonomy, scenario):
        policy = ScriptedPolicy({}, default=(ChosenAction("wait"),))
        world = initial_world(scenario)
        events = []
        turn = decide_with_retry(
            policy, world, "Blue", DEFAULT, taxonomy,
            recorder=lambda kind, payload: events.append((kind, payload)),
        )
        assert events == []
        assert not turn.fallback


class TestPolicies:
    def test_scripted_is_pure_function_of_nation_and_day(self, taxonomy, scenario):
        policy = ScriptedPolicy(
            {"Blue": {1: (ChosenAction("increase_military_capacities"),)}},
            default=(ChosenAction("wait"),),
        )
        world = initial_world(scenario)
        first = policy.decide(world, "Blue", DEFAULT, taxonomy)
        second = policy.decide(world, "Blue", DEFAULT, taxonomy)
        assert first == second
        other = policy.decide(world, "Red", DEFAULT, taxonomy)
        assert other.actions[0].action_id == "wait"

    def test_scripted_validates_targets(self, taxonomy, scenario):
        policy = ScriptedPolicy(
            {"Blue": {1: (ChosenAction("form_alliance", target="Blue"),)}}
        )
        world = initial_world(scenario)
        with pytest.raises(ValidationError, match="self-target"):
            policy.decide(world, "Blue", DEFAULT, taxonomy)

    def test_scripted_rejects_unknown_action(self, taxonomy, scenario):
        policy = ScriptedPolicy({"Blue": {1: (ChosenAction("not_real"),)}})
        world = initial_world(scenario)
        with pytest.raises(ValidationError, match="not_real"):
            policy.decide(world, "Blue", DEFAULT, taxonomy)

    def test_load_script_round_trip(self, taxonomy, scenario, tmp_path):
        path = tmp_path / "script.yaml"
        path.write_text(
            "nations:\n"
            "  Blue:\n"
            "    1:\n"
            "      - {action: share_intelligence, target: Red}\n"
            "default:\n"
            "  - {action: wait}\n",
            encoding="utf-8",
        )
        policy = load_script(path)
        world = initial_world(scenario)
        turn = policy.decide(world, "Blue", DEFAULT, taxonomy)
        assert turn.actions[0].action_id == "share_intelligence"
        assert turn.actions[0].target == "Red"

    @pytest.mark.parametrize("body,match", [
        ("nations:\n  Blue:\n    first:\n      - {action: wait}\n", "day key must be an integer"),
        ("nations:\n  Blue:\n    '1':\n      - {action: wait}\n", "day key must be an integer"),
        ("nations:\n  Blue:\n    1:\n      - {action: 5}\n", "action must be a nonempty string"),
        ("nations:\n  7:\n    1:\n      - {action: wait}\n", "name must be a string"),
    ])
    def test_bad_script_is_a_parse_error(self, tmp_path, body, match):
        path = tmp_path / "script.yaml"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ParseError, match=match):
            load_script(path)

    def test_fallback_turn_scores_zero(self, taxonomy):
        turn = fallback_turn(taxonomy, "Blue")
        assert daily_score([turn], taxonomy)["Blue"] == 0


DEEPLY_NESTED = '{"a":' + "[" * 100000 + "]" * 100000 + "}"

# Prose, then an object head, then `depth` openers, optionally closed again.
_OPENERS = {"[": "]", "{": "}", '{"a":': "}", '[{"action":': "}]"}
NESTED_REPLIES = st.builds(
    lambda prose, head, opener, depth, closed, tail: (
        prose + head + opener * depth + (_OPENERS[opener] * depth if closed else "") + tail
    ),
    st.text(max_size=20),
    st.sampled_from(["", "{", '{"actions":', '{"actions": [', '{"private_thoughts":']),
    st.sampled_from(sorted(_OPENERS)),
    st.integers(min_value=0, max_value=5000),
    st.booleans(),
    st.text(max_size=20),
)


class TestUntrustedNesting:
    def test_deeply_nested_reply_is_no_document(self, taxonomy, scenario):
        outcome = parse(DEEPLY_NESTED, taxonomy, scenario)
        assert isinstance(outcome, ParseFailure)
        assert outcome.reason == "no_document"

    def test_deeply_nested_reply_retries_then_falls_back(self, taxonomy, scenario):
        policy = LlmPolicy(MockTransport(DEEPLY_NESTED), model="m")
        events = []
        turn = decide_with_retry(
            policy, initial_world(scenario), "Blue", DEFAULT, taxonomy,
            max_parse_retries=1, run_id="run",
            recorder=lambda kind, payload: events.append((kind, payload)),
        )
        assert turn.fallback
        assert [kind for kind, _ in events].count("llm_call") == 2
        reasons = [payload["reason"] for kind, payload in events if kind == "parse_failure"]
        assert reasons == ["no_document", "no_document"]

    @settings(max_examples=300, deadline=None)
    @given(content=st.one_of(st.text(), NESTED_REPLIES))
    def test_parse_never_raises(self, taxonomy, scenario, content):
        outcome = parse(content, taxonomy, scenario)
        assert isinstance(outcome, (AgentTurn, ParseFailure))


class TestScriptedValidation:
    def test_unexpected_target_names_reason_and_action(self, taxonomy, scenario):
        policy = ScriptedPolicy({"Blue": {1: (ChosenAction("wait", target="Red"),)}})
        world = initial_world(scenario)
        with pytest.raises(ValidationError, match="unexpected-target.*wait"):
            policy.decide(world, "Blue", DEFAULT, taxonomy)

    def test_unknown_target_rejected(self, taxonomy, scenario):
        policy = ScriptedPolicy(
            {"Blue": {1: (ChosenAction("form_alliance", target="Atlantis"),)}}
        )
        world = initial_world(scenario)
        with pytest.raises(ValidationError, match="unknown-target.*Atlantis"):
            policy.decide(world, "Blue", DEFAULT, taxonomy)

