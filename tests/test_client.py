import json

import pytest

from esclab.client import (
    MockTransport,
    RecordingTransport,
    ReplayTransport,
    RequestBudget,
    chat_request,
    complete,
    read_cassette,
    wire_body,
)
from esclab.errors import BudgetExceeded, TransportError, ValidationError


def request(tag="t", temperature=1.0, **kwargs):
    return chat_request(
        model="test-model",
        system_text="system",
        user_text="user",
        temperature=temperature,
        request_tag=tag,
        **kwargs,
    )


class TestChatRequest:
    def test_temperature_bounds(self):
        with pytest.raises(ValidationError):
            request(temperature=-0.1)
        with pytest.raises(ValidationError):
            request(temperature=2.5)

    def test_first_message_must_be_system(self):
        from esclab.client import ChatMessage, ChatRequest
        with pytest.raises(ValidationError):
            ChatRequest(model="m", messages=(ChatMessage("user", "hi"),), temperature=1.0)

    def test_messages_nonempty(self):
        from esclab.client import ChatRequest
        with pytest.raises(ValidationError):
            ChatRequest(model="m", messages=(), temperature=1.0)


class TestMockTransport:
    def test_scripted_echo(self):
        transport = MockTransport('{"actions":[]}')
        response = complete(transport, request())
        assert response.content == '{"actions":[]}'
        assert response.attempt_count == 1
        assert transport.request_count == 1

    def test_tag_table_and_miss(self):
        transport = MockTransport({"known": "ok"})
        assert complete(transport, request(tag="known")).content == "ok"
        with pytest.raises(TransportError, match="unknown-tag"):
            complete(transport, request(tag="unknown-tag"))

    @pytest.mark.parametrize("temperature", [0.01, 0.5, 1.0])
    def test_temperature_passthrough_exact(self, temperature):
        transport = MockTransport("x", capture=True)
        complete(transport, request(temperature=temperature))
        body = transport.captured[0]
        assert body["temperature"] == temperature
        # and survives JSON serialization without re-quantization
        assert json.loads(json.dumps(body))["temperature"] == temperature

    def test_wire_body_fields(self):
        body = wire_body(request(tag="x", temperature=0.5))
        assert set(body) == {"model", "messages", "temperature", "max_tokens"}
        assert body["messages"][0] == {"role": "system", "content": "system"}


class TestRetries:
    def test_transient_failures_retried_with_backoff(self):
        attempts = []

        class Flaky(MockTransport):
            def send_once(self, req):
                attempts.append(req.request_tag)
                if len(attempts) < 3:
                    raise TransportError("boom", transient=True)
                return super().send_once(req)

        sleeps = []
        transport = Flaky("fine")
        response = complete(transport, request(), sleep=sleeps.append)
        assert response.content == "fine"
        assert response.attempt_count == 3
        assert sleeps == [1.0, 4.0]

    def test_exhaustion_raises_after_all_backoffs(self):
        class Dead(MockTransport):
            def send_once(self, req):
                raise TransportError("down", transient=True)

        sleeps = []
        with pytest.raises(TransportError, match="failed after 4 attempts"):
            complete(Dead("x"), request(), sleep=sleeps.append)
        assert sleeps == [1.0, 4.0, 16.0]

    def test_non_transient_not_retried(self):
        calls = []

        class Hard(MockTransport):
            def send_once(self, req):
                calls.append(1)
                raise TransportError("nope", transient=False)

        with pytest.raises(TransportError, match="nope"):
            complete(Hard("x"), request(), sleep=lambda s: None)
        assert len(calls) == 1


class TestBudget:
    def test_budget_exceeded(self):
        budget = RequestBudget(limit=2)
        transport = MockTransport("x", budget=budget)
        complete(transport, request())
        complete(transport, request())
        with pytest.raises(BudgetExceeded):
            complete(transport, request())
        assert budget.count == 2

    def test_budget_shared_across_transports(self):
        budget = RequestBudget(limit=3)
        a = MockTransport("x", budget=budget)
        b = MockTransport("y", budget=budget)
        complete(a, request())
        complete(b, request())
        complete(a, request())
        with pytest.raises(BudgetExceeded):
            complete(b, request())


class TestCassettes:
    def test_record_then_strict_replay(self, tmp_path):
        cassette = tmp_path / "session.jsonl"
        recorder = RecordingTransport(MockTransport("answer-1"), cassette)
        first = complete(recorder, request(tag="q1"))
        assert first.content == "answer-1"

        replay = ReplayTransport(cassette, mode="strict")
        again = complete(replay, request(tag="q1"))
        assert again.content == "answer-1"

    def test_strict_replay_rejects_changed_body(self, tmp_path):
        cassette = tmp_path / "session.jsonl"
        recorder = RecordingTransport(MockTransport("a"), cassette)
        complete(recorder, request(tag="q1", temperature=1.0))
        replay = ReplayTransport(cassette, mode="strict")
        with pytest.raises(TransportError, match="q1"):
            complete(replay, request(tag="q1", temperature=0.5))

    def test_strict_replay_unmatched_tag_names_tag(self, tmp_path):
        cassette = tmp_path / "session.jsonl"
        recorder = RecordingTransport(MockTransport("a"), cassette)
        complete(recorder, request(tag="recorded"))
        replay = ReplayTransport(cassette, mode="strict")
        with pytest.raises(TransportError, match="never-recorded"):
            complete(replay, request(tag="never-recorded"))

    def test_fuzzy_replay_matches_tag_only(self, tmp_path):
        cassette = tmp_path / "session.jsonl"
        recorder = RecordingTransport(MockTransport("a"), cassette)
        complete(recorder, request(tag="q1", temperature=1.0))
        replay = ReplayTransport(cassette, mode="fuzzy")
        assert complete(replay, request(tag="q1", temperature=0.3)).content == "a"

    def test_each_record_consumed_once(self, tmp_path):
        cassette = tmp_path / "session.jsonl"
        recorder = RecordingTransport(MockTransport("a"), cassette)
        complete(recorder, request(tag="q1"))
        replay = ReplayTransport(cassette, mode="fuzzy")
        complete(replay, request(tag="q1"))
        with pytest.raises(TransportError):
            complete(replay, request(tag="q1"))

    def test_cassette_lines_carry_full_exchange(self, tmp_path):
        cassette = tmp_path / "session.jsonl"
        recorder = RecordingTransport(MockTransport("payload"), cassette)
        complete(recorder, request(tag="q9", temperature=0.01))
        entry = json.loads(cassette.read_text(encoding="utf-8").splitlines()[0])
        assert entry["tag"] == "q9"
        assert entry["request"]["temperature"] == 0.01
        assert entry["response"]["content"] == "payload"
        assert entry["request_sha"]


class StubResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload or {
            "choices": [{"message": {"content": "hello"}, "finish_reason": "stop"}]
        }

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class StubSession:
    """Stands in for requests.Session; scripted by a list of outcomes."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestLiveTransport:
    def _transport(self, outcomes, **kwargs):
        from esclab.client import LiveTransport

        return LiveTransport(
            base_url="https://gateway.invalid/v1",
            api_key="secret",
            session=StubSession(outcomes),
            **kwargs,
        )

    def test_parses_first_choice(self):
        transport = self._transport([StubResponse()])
        response = complete(transport, request())
        assert response.content == "hello"
        assert response.finish_reason == "stop"
        assert response.latency >= 0.0

    def test_sends_bearer_auth_and_exact_body(self):
        transport = self._transport([StubResponse()])
        complete(transport, request(temperature=0.01))
        call = transport._session.calls[0]
        assert call["headers"]["Authorization"] == "Bearer secret"
        assert call["json"]["temperature"] == 0.01
        assert call["url"].endswith("/chat/completions")

    def test_401_raises_auth_error_without_retry(self):
        from esclab.errors import AuthError

        transport = self._transport([StubResponse(status_code=401)])
        with pytest.raises(AuthError):
            complete(transport, request(), sleep=lambda s: None)
        assert len(transport._session.calls) == 1

    def test_5xx_retried_then_succeeds(self):
        transport = self._transport(
            [StubResponse(status_code=503), StubResponse(status_code=429),
             StubResponse()]
        )
        response = complete(transport, request(), sleep=lambda s: None)
        assert response.content == "hello"
        assert response.attempt_count == 3

    def test_timeout_is_transient(self):
        import requests as requests_lib

        transport = self._transport(
            [requests_lib.Timeout("slow"), StubResponse()]
        )
        response = complete(transport, request(), sleep=lambda s: None)
        assert response.attempt_count == 2

    def test_malformed_body_is_hard_failure(self):
        transport = self._transport([StubResponse(payload={"nope": True})])
        with pytest.raises(TransportError, match="unparseable"):
            complete(transport, request(), sleep=lambda s: None)

    def test_other_4xx_is_hard_failure(self):
        transport = self._transport([StubResponse(status_code=404)])
        with pytest.raises(TransportError, match="404"):
            complete(transport, request(), sleep=lambda s: None)


class TestFullRunReplay:
    def test_recorded_run_replays_to_identical_scores(self, tmp_path):
        from esclab.agents import LlmPolicy
        from esclab.mockdata import CalibratedResponder
        from esclab.orchestrator import LlmUpdater, Treatment, run_simulation
        from esclab.prompts import PromptVariant
        from esclab.scenario import load_default_scenario
        from esclab.taxonomy import load_default_taxonomy

        scenario = load_default_scenario()
        taxonomy = load_default_taxonomy()
        treatment = Treatment("t1.0-default", 1.0, PromptVariant.DEFAULT)
        cassette = tmp_path / "live-session.jsonl"
        kwargs = dict(seed=2, run_id="t1.0-default-r00")

        recorded = RecordingTransport(
            MockTransport(CalibratedResponder(taxonomy, scenario)), cassette
        )
        original = run_simulation(
            scenario, taxonomy, treatment,
            LlmPolicy(recorded, model="m", temperature=1.0),
            LlmUpdater(recorded, model="m"),
            transcript_path=tmp_path / "original.jsonl", **kwargs,
        )

        replayed_transport = ReplayTransport(cassette, mode="strict")
        replayed = run_simulation(
            scenario, taxonomy, treatment,
            LlmPolicy(replayed_transport, model="m", temperature=1.0),
            LlmUpdater(replayed_transport, model="m"),
            transcript_path=tmp_path / "replayed.jsonl", **kwargs,
        )
        assert replayed.completed
        for a, b in zip(original.days, replayed.days):
            assert dict(a.daily_score_by_nation) == dict(b.daily_score_by_nation)
        assert (tmp_path / "original.jsonl").read_bytes() == (
            tmp_path / "replayed.jsonl"
        ).read_bytes()


class TestTornCassette:
    def _recorded(self, tmp_path, tags=("q1", "q2")):
        cassette = tmp_path / "session.jsonl"
        recorder = RecordingTransport(
            MockTransport(lambda r: f"answer-{r.request_tag}"), cassette
        )
        for tag in tags:
            complete(recorder, request(tag=tag))
        return cassette

    def test_torn_final_line_dropped_and_prefix_replays_strictly(self, tmp_path):
        cassette = self._recorded(tmp_path)
        whole = cassette.read_text(encoding="utf-8")
        last = whole.splitlines()[-1]
        with cassette.open("a", encoding="utf-8") as handle:
            handle.write(last[: len(last) // 2])
        assert len(read_cassette(cassette)) == 2
        replay = ReplayTransport(cassette, mode="strict")
        assert complete(replay, request(tag="q1")).content == "answer-q1"
        assert complete(replay, request(tag="q2")).content == "answer-q2"
        with pytest.raises(TransportError, match="q2"):
            complete(replay, request(tag="q2"))

    def test_bad_line_before_the_end_still_rejected(self, tmp_path):
        cassette = self._recorded(tmp_path)
        first, second = cassette.read_text(encoding="utf-8").splitlines()
        cassette.write_text(first[: len(first) // 2] + "\n" + second + "\n", encoding="utf-8")
        with pytest.raises(TransportError, match="bad cassette line 1"):
            read_cassette(cassette)

    def test_complete_final_line_missing_keys_rejected(self, tmp_path):
        cassette = self._recorded(tmp_path, tags=("q1",))
        with cassette.open("a", encoding="utf-8") as handle:
            handle.write('{"tag": "q2"}\n')
        with pytest.raises(TransportError, match="bad cassette line 2"):
            read_cassette(cassette)
