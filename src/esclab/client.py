"""Wire-level client for OpenAI-compatible chat-completion endpoints.

Transports share one request/response contract: Live (HTTP or HTTPS, on
``urllib.request``) and Mock (scripted responder, used for desk-scale runs
and tests) live here, and are the two kinds a plan names; the replay that
``esclab inspect`` plays from recorded transcripts is
``experiments.ReplayTransport``.  This module reads and writes no file, and
``check_base_url`` is the one check of an endpoint URL, for a plan and the
Live transport alike.  Temperature is serialized into the request body
exactly as given; the Mock transport can capture bodies so tests can verify
that.
"""
from __future__ import annotations

import json
import os
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable
from urllib.parse import urlsplit  # pathlib loads it anyway

from .errors import AuthError, BudgetExceeded, EsclabError, TransportError, ValidationError
from .transcript import LLM_CALL, Recorder

TEMPERATURE_MIN = 0.0
TEMPERATURE_MAX = 2.0
DEFAULT_MAX_TOKENS = 1024
DEFAULT_TIMEOUT = 60.0
MAX_IN_FLIGHT = 64  # an experiment runs one thread per request in flight
DEFAULT_EXPERIMENT_BUDGET = 10_000
# Initial attempt plus one retry per backoff value, transient failures only.
RETRY_BACKOFFS = (1.0, 4.0, 16.0)
RETRYABLE_STATUS = {408, 429, 500, 502, 503, 504}

ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion call: model, messages, sampling parameters."""

    model: str
    messages: tuple[ChatMessage, ...]
    temperature: float
    max_tokens: int = DEFAULT_MAX_TOKENS
    request_tag: str = ""

    def __post_init__(self):
        if not self.messages:
            raise ValidationError("chat request needs at least one message")
        if self.messages[0].role != "system":
            raise ValidationError("first message must have role 'system'")
        for message in self.messages:
            if message.role not in ROLES:
                raise ValidationError(f"unknown message role {message.role!r}")
        if not TEMPERATURE_MIN <= self.temperature <= TEMPERATURE_MAX:
            raise ValidationError(
                f"temperature {self.temperature} outside "
                f"[{TEMPERATURE_MIN}, {TEMPERATURE_MAX}]"
            )
        if self.max_tokens < 1:
            raise ValidationError("max_tokens must be positive")


@dataclass(frozen=True)
class ChatResponse:
    content: str
    finish_reason: str = "stop"


def chat_request(
    model: str,
    system_text: str,
    user_text: str,
    temperature: float,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    request_tag: str = "",
) -> ChatRequest:
    """Convenience constructor for the usual system+user message pair."""
    return ChatRequest(
        model=model,
        messages=(ChatMessage("system", system_text), ChatMessage("user", user_text)),
        temperature=temperature,
        max_tokens=max_tokens,
        request_tag=request_tag,
    )


def wire_body(request: ChatRequest) -> dict:
    """The JSON body sent over the wire; shared by every transport."""
    return {
        "model": request.model,
        "messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
    }


def check_base_url(base_url: str, where: str) -> str:
    """``base_url`` if a request can go to it: an ASCII http:// or https://
    URL with a host, no whitespace or control character, and a port, if any,
    in 1-65535.  Otherwise a ``ValidationError`` naming ``where``, before any
    request: sent, such a URL would fail only after every retry."""
    # http.client sends the URL as ASCII.
    if not base_url.isascii():
        raise ValidationError(
            f"{where}: base_url must be ASCII (percent-encode the path, write an "
            f"international host name in its xn-- form), got {base_url!r}"
        )
    try:
        parts = urlsplit(base_url)
        problem = (
            "the scheme is not http or https" if parts.scheme not in ("http", "https")
            else "it names no host" if not parts.hostname
            else "it holds whitespace or a control character"
            if any(c.isspace() or not c.isprintable() for c in base_url)
            else "its port is 0" if parts.port == 0  # above 65535 raises ValueError
            else None
        )
    except ValueError as exc:  # an unclosed IPv6 bracket or a bad port, say
        problem = str(exc)
    if problem is not None:
        raise ValidationError(f"{where}: base_url must be an http:// or https:// URL with a "
                              f"host, got {base_url!r}: {problem}")
    return base_url


class Transport:
    """Base transport: request counting and an optional cap on requests.

    The count lives, from construction on, in shared memory, guarded by a
    pipe that holds one token byte: a process reads the byte to take the
    lock and writes it back to release it.  So every process forked from
    the transport counts against its one ``max_requests``, and its count
    holds their requests too.  The pipe closes with the transport.  A
    wrapper whose ``request_count`` is another transport's shares that
    one's count.

    ``in_process`` is true when ``send_once`` only computes in this process
    and never waits on a remote endpoint; callers then gain nothing from
    issuing requests on several threads.  An experiment over such a
    transport plays its runs on every usable CPU instead
    (``orchestrator.play_runs``), in processes it forks.  What a transport
    keeps on the Python side (``MockTransport.captured``, say) is then kept
    in the process that made the request, and the caller sees only its own.
    """

    in_process = False
    max_in_flight: int | None = None  # the most requests at once; None: no cap

    def __init__(self, max_requests: int | None = None):
        import mmap  # here: ``import esclab`` does not need it

        self.max_requests = max_requests
        try:
            # The requests made, in anonymous memory that forked processes share.
            self._count = memoryview(mmap.mmap(-1, 8)).cast("q")
            self._token = os.pipe()
        except OSError as exc:  # EMFILE when out of file descriptors, say
            raise EsclabError(f"cannot make a transport's request counter: {exc}") from exc
        for fd in self._token:
            weakref.finalize(self, os.close, fd)
        os.write(self._token[1], b"\0")

    @property
    def request_count(self) -> int:
        os.read(self._token[0], 1)
        try:
            return self._count[0]
        finally:
            os.write(self._token[1], b"\0")

    def _note_request(self) -> None:
        os.read(self._token[0], 1)
        try:
            count = self._count[0]
            if self.max_requests is not None and count >= self.max_requests:
                raise BudgetExceeded(f"request budget of {self.max_requests} exhausted")
            self._count[0] = count + 1
        finally:
            os.write(self._token[1], b"\0")

    def send_once(self, request: ChatRequest) -> ChatResponse:
        raise NotImplementedError


class MockTransport(Transport):
    """Scripted responder; deterministic stand-in for the live endpoint.

    ``responder`` maps a ChatRequest to the response content.  Plain strings
    and per-tag mappings are accepted for convenience.  With ``capture``,
    every wire body sent is kept in ``captured``.
    """

    in_process = True

    def __init__(
        self,
        responder: Callable[[ChatRequest], str] | dict[str, str] | str,
        max_requests: int | None = None,
        capture: bool = False,
    ):
        super().__init__(max_requests=max_requests)
        self.capture = capture
        self.captured: list[dict] = []
        if isinstance(responder, str):
            text = responder
            self._responder = lambda request: text
        elif isinstance(responder, dict):
            table = dict(responder)

            def _lookup(request: ChatRequest) -> str:
                try:
                    return table[request.request_tag]
                except KeyError:
                    raise TransportError(
                        f"mock has no response scripted for tag {request.request_tag!r}"
                    ) from None

            self._responder = _lookup
        else:
            self._responder = responder

    def send_once(self, request: ChatRequest) -> ChatResponse:
        self._note_request()
        if self.capture:
            self.captured.append(wire_body(request))
        return ChatResponse(content=self._responder(request))


class LiveTransport(Transport):
    """HTTP(S) chat-completions client with rate limiting, on ``urllib.request``.

    The API key comes from the environment (see cli module); the endpoint URL
    is configuration.  A global in-flight semaphore and a per-minute window
    bound request pressure on shared gateways.  ``urllib.request`` is
    imported here, not with the module: only a live endpoint needs it.

    Each request opens its own connection and closes it (``Connection:
    close``).  TLS verifies against the system's trust store (``SSL_CERT_FILE``
    and ``SSL_CERT_DIR`` name another), and ``http_proxy``, ``https_proxy``
    and ``no_proxy`` are honoured.  No redirect is followed: a 3xx reply is a
    hard ``TransportError``, so neither the key nor the body is sent on to
    another address.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str,
        max_requests: int | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_in_flight: int = 4,
        requests_per_minute: int = 60,
    ):
        # ``not 0 < timeout`` also refuses NaN; above TIMEOUT_MAX the socket
        # layer would refuse every request instead.
        if (not 1 <= max_in_flight <= MAX_IN_FLIGHT or requests_per_minute < 1
                or not 0 < timeout <= threading.TIMEOUT_MAX):
            raise ValidationError(
                f"live transport needs 1 <= max_in_flight <= {MAX_IN_FLIGHT}, requests_per_minute"
                f" >= 1 and 0 < timeout <= {threading.TIMEOUT_MAX:g}, got {max_in_flight}, "
                f"{requests_per_minute} and {timeout}"
            )
        check_base_url(base_url, "live transport")
        # http.client sends header values as Latin-1 and refuses a line break
        # in one; the message leaves the key out.
        if any(ord(c) > 0xFF or c in "\r\n" for c in api_key):
            raise ValidationError(
                "live transport: the API key cannot be an HTTP header value: "
                "it must be Latin-1 text without CR or LF"
            )
        import urllib.request

        super().__init__(max_requests=max_requests)
        self.url = base_url.rstrip("/") + "/chat/completions"
        self._headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
        }
        self.timeout = timeout
        self.max_in_flight = max_in_flight
        self._in_flight = threading.BoundedSemaphore(max_in_flight)
        self._rpm = requests_per_minute
        self._recent: deque[float] = deque()
        self._rate_lock = threading.Lock()
        # Proxies and HTTP(S) only: with no error processor every status
        # comes back as a reply, and no redirect is followed.
        self._opener = urllib.request.OpenerDirector()
        for handler in (urllib.request.ProxyHandler(), urllib.request.HTTPHandler(),
                        urllib.request.HTTPSHandler()):
            self._opener.add_handler(handler)

    def _respect_rate_limit(self) -> None:
        while True:
            with self._rate_lock:
                now = time.monotonic()
                while self._recent and now - self._recent[0] > 60.0:
                    self._recent.popleft()
                if len(self._recent) < self._rpm:
                    self._recent.append(now)
                    return
                wait = 60.0 - (now - self._recent[0])
            time.sleep(max(wait, 0.05))

    def send_once(self, request: ChatRequest) -> ChatResponse:
        # Loaded by ``__init__``; these only look the modules up.
        from http.client import HTTPException
        from urllib.request import Request

        post = Request(self.url, data=json.dumps(wire_body(request)).encode(),
                       headers=self._headers, method="POST")
        self._note_request()
        self._respect_rate_limit()
        with self._in_flight:
            try:
                with self._opener.open(post, timeout=self.timeout) as reply:
                    status, body = reply.status, reply.read()
            except (OSError, HTTPException) as exc:
                # A timeout, a refused or dropped connection, a body cut short.
                raise TransportError(f"network failure calling {self.url}: {exc!r}",
                                     transient=True)
        if status in (401, 403):
            raise AuthError(f"endpoint rejected credential (HTTP {status})")
        if status in RETRYABLE_STATUS:
            raise TransportError(f"HTTP {status} from {self.url}", transient=True)
        if status != 200:
            raise TransportError(f"HTTP {status} from {self.url}")
        try:
            payload = json.loads(body)
            choice = payload["choices"][0]
            content = choice["message"]["content"]
            finish = choice.get("finish_reason", "stop")
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise TransportError(f"unparseable response body: {exc}")
        return ChatResponse(content=content, finish_reason=finish or "stop")


def _joined_surrogates(content):
    """Reply text with each high surrogate just before a low one joined into
    the one character they form, as a JSON decoder joins their escapes, so
    the transcript reads back as the text the run used; lone surrogates
    stay.  Anything else is returned as it is."""
    if isinstance(content, str):
        try:
            content.encode("utf-8")
        except UnicodeEncodeError:  # it holds a surrogate
            return content.encode("utf-16-le", "surrogatepass").decode(
                "utf-16-le", "surrogatepass")
    return content


def complete(
    transport: Transport,
    request: ChatRequest,
    recorder: Recorder | None = None,
    sleep: Callable[[float], None] = time.sleep,
    user_sha256: str | None = None,
) -> ChatResponse:
    """Send one request, retrying transient transport failures after each
    wait of ``RETRY_BACKOFFS`` in turn, through ``sleep``.

    Retries never re-run on well-formed model output; only TransportError
    marked transient triggers another attempt.  The optional transcript
    recorder receives one ``llm_call`` record for the answered request: the
    reply, ``user_sha256`` when given (an agent query's first attempt, or a
    world update), and the transport facts that ``transcript.TranscriptWriter``
    moves to the run's metrics sidecar (``transcript.TRANSPORT_FACTS``): the
    request tag, the seconds the answering attempt took and the attempts.
    The model and ``max_tokens`` are the run header's.
    """
    attempts = 0
    last_error: TransportError | None = None
    for wait in (None,) + RETRY_BACKOFFS:
        if wait is not None:
            sleep(wait)
        attempts += 1
        started = time.monotonic()
        try:
            response = transport.send_once(request)
        except TransportError as exc:
            last_error = exc
            if not exc.transient:
                raise
            continue
        latency = time.monotonic() - started
        content = _joined_surrogates(response.content)
        if content is not response.content:
            response = replace(response, content=content)
        if recorder is not None:
            payload = {
                "content": response.content,
                "finish_reason": response.finish_reason,
                "tag": request.request_tag,
                "latency": latency,
                "attempts": attempts,
            }
            if user_sha256 is not None:
                payload["user_sha256"] = user_sha256
            recorder(LLM_CALL, payload)
        return response
    raise TransportError(
        f"request {request.request_tag!r} failed after {attempts} attempts: {last_error}"
    )
