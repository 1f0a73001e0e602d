import contextlib
import gc
import json
import os
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from esclab.agents import LlmPolicy, ParseFailure
from esclab.client import LiveTransport, MockTransport, chat_request, complete, wire_body
from esclab.errors import AuthError, BudgetExceeded, TransportError, ValidationError
from esclab.experiments import ExperimentPlan
from esclab.orchestrator import Treatment
from esclab.prompts import PromptVariant
from esclab.scenario import initial_world

from standins import WAIT, ChatEndpoint, Outcome, chat_reply


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


@contextlib.contextmanager
def live(outcomes=(), then=Outcome(), **kwargs):
    """A ``LiveTransport`` to a ``ChatEndpoint`` serving ``outcomes``, then ``then``."""
    with ChatEndpoint(outcomes, then) as endpoint:
        yield LiveTransport(endpoint.url, "secret", **kwargs), endpoint


def refused_url():
    """A loopback URL whose port is bound but not listening: a connection
    to it is refused while the socket lives."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    return sock, f"http://127.0.0.1:{sock.getsockname()[1]}/v1"


class TestLiveTransport:
    @pytest.mark.parametrize("setting", [
        {"max_in_flight": 0}, {"max_in_flight": -1}, {"max_in_flight": 65},
        {"requests_per_minute": 0},
        {"timeout": 0}, {"timeout": -1.5},
    ])
    def test_out_of_range_setting_is_refused(self, setting):
        with pytest.raises(ValidationError, match="live transport needs"):
            LiveTransport("http://127.0.0.1:9/v1", "secret", **setting)

    @pytest.mark.parametrize("url,key,message", [
        ("http://127.0.0.1:9/v1", "sk-abc\u2026", "API key cannot be an HTTP header value"),
        ("http://127.0.0.1:9/v1", "sk-abc\r\nX-Admin: 1", "API key cannot be an HTTP header value"),
        ("http://127.0.0.1:9/v\u00fc1", "secret", "base_url must be ASCII"),
    ], ids=["key-not-latin-1", "key-line-break", "url-not-ascii"])
    def test_what_http_cannot_carry_is_refused_before_any_request(self, url, key, message):
        with pytest.raises(ValidationError, match=message) as refused:
            LiveTransport(url, key)
        assert key not in str(refused.value)

    def test_parses_first_choice(self):
        with live() as (transport, _):
            response, payload = recorded(transport, request())
        assert response.content == WAIT
        assert response.finish_reason == "stop"
        assert payload["latency"] >= 0.0

    def test_sends_bearer_auth_and_exact_body(self):
        with live() as (transport, endpoint):
            complete(transport, request(temperature=0.01))
        [(headers, body)] = endpoint.received
        assert headers["Authorization"] == "Bearer secret"
        assert headers["Content-Type"] == "application/json"
        assert body == wire_body(request(temperature=0.01))
        assert transport.url == endpoint.url + "/chat/completions"

    @pytest.mark.parametrize("no_proxy,via_proxy", [("", True), ("127.0.0.1", False)])
    def test_honours_http_proxy_and_no_proxy(self, monkeypatch, no_proxy, via_proxy):
        for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        with ChatEndpoint() as proxy, ChatEndpoint() as endpoint:
            monkeypatch.setenv("http_proxy", proxy.url.removesuffix("/v1"))
            monkeypatch.setenv("no_proxy", no_proxy)
            complete(LiveTransport(endpoint.url, "secret"), request())
        assert (len(proxy.received), len(endpoint.received)) == (via_proxy, not via_proxy)

    def test_401_raises_auth_error_without_retry(self):
        with live([Outcome(status=401)]) as (transport, endpoint):
            with pytest.raises(AuthError):
                complete(transport, request(), sleep=lambda s: None)
        assert len(endpoint.received) == 1

    def test_5xx_retried_then_succeeds(self):
        with live([Outcome(status=503), Outcome(status=429)]) as (transport, _):
            response, payload = recorded(transport, request(), sleep=lambda s: None)
        assert response.content == WAIT
        assert payload["attempts"] == 3

    def test_timeout_is_transient(self):
        with live([Outcome(delay_s=5.0)], timeout=0.5) as (transport, _):
            _, payload = recorded(transport, request(), sleep=lambda s: None)
        assert payload["attempts"] == 2


# URLs that no request can reach, each refused where it is first given.
UNREQUESTABLE_URLS = {
    "unclosed-ipv6": "http://[::1/v1",
    "space-in-host": "http://127.0 .0.1/v1",  # http.client would refuse each attempt
    "space-in-path": "http://127.0.0.1/v 1",
    "port-too-high": "http://h:99999/v1",
    "no-host": "http:///v1",
    "ftp": "ftp://x/v1",
    "no-scheme": "example.com/v1",
    "empty": "",
    "non-ascii": "http://ex\u00e4mple.com/v1",  # http.client sends the URL as ASCII
}


@pytest.mark.parametrize("url", UNREQUESTABLE_URLS.values(), ids=UNREQUESTABLE_URLS)
@pytest.mark.parametrize("where", ["plan", "transport"])
def test_unrequestable_base_url_is_refused_at_construction(where, url):
    """Not one attempt, and no sleep between attempts, goes to such a URL."""
    refusal = ("base_url must be an http:// or https:// URL" if url.isascii()
               else "base_url must be ASCII")
    with pytest.raises(ValidationError, match=refusal):
        if where == "plan":
            ExperimentPlan(Path("s.yaml"), Path("t.yaml"),
                           (Treatment("t1.0-default", 1.0, PromptVariant.DEFAULT),), 1,
                           transport={"kind": "live", "base_url": url})
        else:
            LiveTransport(url, "secret")


class TestLoopbackFaults:
    """Whatever goes wrong on the wire, ``complete`` ends in an ``EsclabError``."""

    @pytest.mark.parametrize("fault", [
        Outcome(delay_s=5.0), Outcome(drop=True), Outcome(cut=True), "refused",
    ], ids=["read-timeout", "dropped", "cut-short", "refused"])
    def test_transient_faults_use_every_attempt(self, fault):
        sleeps = []
        with contextlib.ExitStack() as stack:
            endpoint = None
            if fault == "refused":
                sock, url = refused_url()
                stack.callback(sock.close)
            else:
                endpoint = stack.enter_context(ChatEndpoint([fault] * 4))
                url = endpoint.url
            transport = LiveTransport(url, "secret", timeout=0.2)
            with pytest.raises(TransportError, match="failed after 4 attempts") as failed:
                complete(transport, request(), sleep=sleeps.append)
        assert sleeps == [1.0, 4.0, 16.0]
        assert transport.request_count == 4
        if endpoint is not None:
            assert len(endpoint.received) == 4

    @pytest.mark.parametrize("fault,message", [
        (Outcome(status=404), "HTTP 404 from"),
        # No redirect is followed, not even to the same endpoint.
        (Outcome(status=302, location="/v1/chat/completions"), "HTTP 302 from"),
        (Outcome(body=b'{"nope": true}'), "unparseable response body"),
        (Outcome(body=b"[" * 100_000), "unparseable response body"),
    ], ids=["404", "redirect", "malformed", "deep-body"])
    def test_hard_faults_use_one_attempt(self, fault, message):
        """401 is ``TestLiveTransport.test_401_raises_auth_error_without_retry``."""
        with live([fault]) as (transport, endpoint):
            with pytest.raises(TransportError, match=message) as failed:
                complete(transport, request(), sleep=lambda s: None)
        assert type(failed.value) is TransportError and not failed.value.transient
        assert transport.request_count == len(endpoint.received) == 1

    @pytest.mark.parametrize("reply,reason", [
        (chat_reply(content=None), "empty_reply"),
        (chat_reply(content='{"actions": [{"act', finish_reason="length"), "truncated"),
    ], ids=["null-content", "cut-at-max-tokens"])
    def test_a_policy_records_a_bad_reply_as_a_parse_failure(self, scenario, taxonomy, reply,
                                                             reason):
        events = []
        with live([Outcome(body=reply)]) as (transport, _):
            result = LlmPolicy(transport, model="m").decide(
                initial_world(scenario), scenario.nation_names[0],
                Treatment("t", 1.0, PromptVariant.DEFAULT), taxonomy,
                recorder=lambda kind, payload: events.append((kind, payload)),
            )
        assert isinstance(result, ParseFailure) and result.reason == reason
        assert [kind for kind, _ in events] == ["llm_call", "parse_failure"]
