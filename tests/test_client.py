import contextlib
import gc
import json
import os
import sys
import threading
import time

import pytest

from esclab.client import MockTransport, chat_request, complete, wire_body
from esclab.errors import BudgetExceeded, TransportError, ValidationError


def recorded(transport, req, **kwargs):
    """The response to ``req`` and the ``llm_call`` payload ``complete`` records."""
    records = []
    response = complete(transport, req, recorder=lambda *record: records.append(record),
                        **kwargs)
    [(kind, payload)] = records
    assert kind == "llm_call"
    return response, payload


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
        response, payload = recorded(transport, request())
        assert response.content == '{"actions":[]}'
        assert (payload["tag"], payload["attempts"]) == ("t", 1)
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
        response, payload = recorded(transport, request(), sleep=sleeps.append)
        assert response.content == "fine"
        assert payload["attempts"] == 3
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
        transport = MockTransport("x", max_requests=2)
        complete(transport, request())
        complete(transport, request())
        with pytest.raises(BudgetExceeded, match="request budget of 2 exhausted"):
            complete(transport, request())
        assert transport.request_count == 2

    def test_cap_holds_across_threads(self):
        # Each round, eight threads released together race for four requests.
        transports = [MockTransport("x", max_requests=4) for _ in range(200)]
        barrier = threading.Barrier(8, timeout=30)
        one = request()
        sent = []

        def worker():
            for round_index, transport in enumerate(transports):
                barrier.wait()
                try:
                    transport.send_once(one)
                except BudgetExceeded:
                    continue
                sent.append(round_index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(sent) == [r for r in range(len(transports)) for _ in range(4)]
        assert all(transport.request_count == 4 for transport in transports)

    def test_cap_holds_across_forked_processes(self):
        # Three processes, one more than the host's two cores, race for a
        # budget below what they ask for; a lost update would let more
        # requests through than the budget, or count fewer than were sent.
        transport, one = MockTransport("x", max_requests=30_000), request()
        read, write = os.pipe()
        pids = []

        def race() -> int:
            sent = 0
            for _ in range(15_000):
                with contextlib.suppress(BudgetExceeded):
                    transport.send_once(one)
                    sent += 1
            return sent

        for _ in range(2):
            pid = os.fork()
            if pid == 0:
                try:
                    os.write(write, f"{race()}\n".encode())
                finally:
                    os._exit(0)
            pids.append(pid)
        os.close(write)
        sent = race()
        deadline = time.monotonic() + 60
        while pids and time.monotonic() < deadline:
            pids = [pid for pid in pids if os.waitpid(pid, os.WNOHANG) == (0, 0)]
            time.sleep(0.01)
        assert pids == []
        with os.fdopen(read) as reports:
            sent += sum(map(int, reports.read().split()))
        assert sent == transport.request_count == 30_000
        with pytest.raises(BudgetExceeded):
            transport.send_once(one)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_dropped_transports_leak_no_file_descriptor(self):
        # Each transport's lock is a pipe; it closes when the transport goes.
        before = len(os.listdir("/proc/self/fd"))
        transports = [MockTransport("x", max_requests=1) for _ in range(300)]
        for transport in transports:
            transport.send_once(request())
        assert len(os.listdir("/proc/self/fd")) == before + 2 * 300
        del transports, transport
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before


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

    @pytest.mark.parametrize("setting", [
        {"max_in_flight": 0}, {"max_in_flight": -1}, {"max_in_flight": 65},
        {"requests_per_minute": 0},
        {"timeout": 0}, {"timeout": -1.5},
    ])
    def test_out_of_range_setting_is_refused(self, setting):
        with pytest.raises(ValidationError, match="live transport needs"):
            self._transport([], **setting)

    def test_parses_first_choice(self):
        transport = self._transport([StubResponse()])
        response, payload = recorded(transport, request())
        assert response.content == "hello"
        assert response.finish_reason == "stop"
        assert payload["latency"] >= 0.0

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
        response, payload = recorded(transport, request(), sleep=lambda s: None)
        assert response.content == "hello"
        assert payload["attempts"] == 3

    def test_timeout_is_transient(self):
        import requests as requests_lib

        transport = self._transport(
            [requests_lib.Timeout("slow"), StubResponse()]
        )
        _, payload = recorded(transport, request(), sleep=lambda s: None)
        assert payload["attempts"] == 2

    def test_malformed_body_is_hard_failure(self):
        transport = self._transport([StubResponse(payload={"nope": True})])
        with pytest.raises(TransportError, match="unparseable"):
            complete(transport, request(), sleep=lambda s: None)

    def test_deeply_nested_body_is_hard_failure(self):
        transport = self._transport([StubResponse(payload=RecursionError("too deep"))])
        with pytest.raises(TransportError, match="unparseable response body: too deep"):
            complete(transport, request(), sleep=lambda s: None)

    def test_other_4xx_is_hard_failure(self):
        transport = self._transport([StubResponse(status_code=404)])
        with pytest.raises(TransportError, match="404"):
            complete(transport, request(), sleep=lambda s: None)
