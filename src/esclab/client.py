"""Wire-level client for OpenAI-compatible chat-completion endpoints.

Three transports share one request/response contract: Live (HTTPS), Mock
(scripted responder, used for desk-scale runs and tests) and Replay (cassette
playback).  A RecordingTransport wraps any other transport and writes a
cassette.  Temperature is serialized into the request body exactly as given;
the Mock transport can capture bodies so tests can verify that.
"""
from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import AuthError, BudgetExceeded, ParseError, TransportError, ValidationError
from .scenario import require_type
from .transcript import LLM_CALL, Recorder, split_lines, utf8

if TYPE_CHECKING:
    import requests

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
    latency: float = 0.0
    attempt_count: int = 1


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


def body_digest(body: dict) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8", "surrogatepass")).hexdigest()


class Transport:
    """Base transport: request counting and an optional cap on requests.

    ``in_process`` is true when ``send_once`` only computes in this process
    and never waits on a remote endpoint; callers then gain nothing from
    issuing requests on several threads.
    """

    in_process = False
    max_in_flight: int | None = None  # the most requests at once; None: no cap

    def __init__(self, max_requests: int | None = None):
        self.max_requests = max_requests
        self._count = 0
        self._lock = threading.Lock()

    @property
    def request_count(self) -> int:
        with self._lock:
            return self._count

    def _note_request(self) -> None:
        with self._lock:
            if self.max_requests is not None and self._count >= self.max_requests:
                raise BudgetExceeded(f"request budget of {self.max_requests} exhausted")
            self._count += 1

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
    """HTTPS chat-completions client with rate limiting.

    The API key comes from the environment (see cli module); the endpoint URL
    is configuration.  A global in-flight semaphore and a per-minute window
    bound request pressure on shared gateways.  ``requests`` is imported
    here, not with the module: only a live endpoint needs it.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str,
        max_requests: int | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_in_flight: int = 4,
        requests_per_minute: int = 60,
        session: requests.Session | None = None,
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
        import requests

        super().__init__(max_requests=max_requests)
        self._requests = requests
        self.url = base_url.rstrip("/") + "/chat/completions"
        self._api_key = api_key
        self.timeout = timeout
        self.max_in_flight = max_in_flight
        self._in_flight = threading.BoundedSemaphore(max_in_flight)
        self._rpm = requests_per_minute
        self._recent: deque[float] = deque()
        self._rate_lock = threading.Lock()
        self._session = session or requests.Session()

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
        body = wire_body(request)
        self._note_request()
        self._respect_rate_limit()
        headers = {
            "Authorization": f"Bearer {self._api_key}",
            "Content-Type": "application/json",
        }
        started = time.monotonic()
        with self._in_flight:
            try:
                http = self._session.post(
                    self.url, json=body, headers=headers, timeout=self.timeout
                )
            except self._requests.Timeout as exc:
                raise TransportError(f"timeout calling {self.url}: {exc}", transient=True)
            except self._requests.RequestException as exc:
                raise TransportError(f"network failure calling {self.url}: {exc}", transient=True)
        latency = time.monotonic() - started
        if http.status_code in (401, 403):
            raise AuthError(f"endpoint rejected credential (HTTP {http.status_code})")
        if http.status_code in RETRYABLE_STATUS:
            raise TransportError(f"HTTP {http.status_code} from {self.url}", transient=True)
        if http.status_code != 200:
            raise TransportError(f"HTTP {http.status_code} from {self.url}")
        try:
            payload = http.json()
            choice = payload["choices"][0]
            content = choice["message"]["content"]
            finish = choice.get("finish_reason", "stop")
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise TransportError(f"unparseable response body: {exc}")
        return ChatResponse(content=content, finish_reason=finish or "stop", latency=latency)


@dataclass(frozen=True)
class CassetteRecord:
    tag: str
    request_sha: str
    request: dict
    response: dict


def read_cassette(path: str | Path) -> list[CassetteRecord]:
    """Read a cassette; a torn final line (crashed recorder) is dropped.

    A final line that lacks only its newline is whole and kept, as
    ``RecordingTransport`` keeps it.
    """
    try:
        lines, tail = split_lines(Path(path).read_bytes())
    except OSError as exc:
        raise TransportError(f"cannot read cassette {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TransportError(f"cassette {path} is not UTF-8: {exc}")
    entries = []
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            entries.append((line_no, json.loads(line)))
        except (ValueError, RecursionError) as exc:
            raise TransportError(f"bad cassette line {line_no} in {path}: {exc}")
    try:
        entries.append((len(lines) + 1, json.loads(tail.decode("utf-8"))))
    except ValueError:
        pass  # no tail, or a torn one
    except RecursionError as exc:
        raise TransportError(f"bad cassette line {len(lines) + 1} in {path}: {exc}")
    records = []
    for line_no, entry in entries:
        try:
            records.append(_exchange(entry))
        except (KeyError, ParseError) as exc:
            raise TransportError(f"bad cassette line {line_no} in {path}: {exc}")
    return records


def _exchange(entry: object) -> CassetteRecord:
    """The exchange on one decoded cassette line; ``KeyError`` or
    ``ParseError`` unless ``ReplayTransport`` can play it."""
    require_type(entry, dict, "the line")
    response = require_type(entry["response"], dict, "response")
    if response["content"] is not None:
        require_type(response["content"], str, "response content")
    for key, kind in (("finish_reason", str), ("latency", float)):
        if key in response:
            require_type(response[key], kind, f"response {key}")
    try:
        latency = float(response.get("latency", 0.0))
    except OverflowError:  # an int too large for a float
        raise ParseError("response latency is out of range") from None
    return CassetteRecord(
        tag=require_type(entry["tag"], str, "tag"),
        request_sha=require_type(entry["request_sha"], str, "request_sha"),
        request=entry["request"],
        response={**response, "latency": latency},
    )


class ReplayTransport(Transport):
    """Plays back a recorded cassette.

    A request is matched on (tag, request body hash); one not present fails.
    Each record is consumed at most once, in file order per key.
    """

    in_process = True

    def __init__(self, path: str | Path, max_requests: int | None = None):
        super().__init__(max_requests=max_requests)
        self._queues: dict[tuple[str, str], deque[CassetteRecord]] = {}
        for record in read_cassette(path):
            self._queues.setdefault((record.tag, record.request_sha), deque()).append(record)

    def send_once(self, request: ChatRequest) -> ChatResponse:
        self._note_request()
        key = (request.request_tag, body_digest(wire_body(request)))
        try:
            # popleft is atomic: of two threads after one last record, one
            # gets it and the other an IndexError.
            record = self._queues[key].popleft()
        except (KeyError, IndexError):
            raise TransportError(
                f"replay cassette has no response for tag {request.request_tag!r}"
                " (strict match on request body)"
            ) from None
        response = record.response
        return ChatResponse(
            content=response["content"],
            finish_reason=response.get("finish_reason", "stop"),
            latency=response["latency"],
        )


def _end_on_whole_line(path: Path) -> None:
    """Make a cassette end with a newline before it is appended to.

    A final line that is not JSON is cut off, the fragment that
    ``read_cassette`` drops; a whole final line only lacks its newline.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return
    if not data or data.endswith(b"\n"):
        return
    keep = data.rfind(b"\n") + 1
    try:
        json.loads(data[keep:])
    except (ValueError, RecursionError):
        with path.open("r+b") as handle:
            handle.truncate(keep)
    else:
        with path.open("ab") as handle:
            handle.write(b"\n")


class RecordingTransport(Transport):
    """Wraps another transport and appends every exchange to a cassette.

    A torn last line left by a crashed recorder is dropped before the first
    append, so the next exchange starts a line of its own.
    """

    def __init__(self, inner: Transport, path: str | Path):
        # No Transport.__init__: the inner transport counts and caps requests.
        self.inner = inner
        self.max_in_flight = inner.max_in_flight
        self.path = Path(path)
        self._write_lock = threading.Lock()
        self._tail_checked = False

    @property
    def in_process(self) -> bool:
        return self.inner.in_process

    def send_once(self, request: ChatRequest) -> ChatResponse:
        response = self.inner.send_once(request)
        body = wire_body(request)
        line = json.dumps(
            {
                "tag": request.request_tag,
                "request_sha": body_digest(body),
                "request": body,
                "response": {
                    "content": response.content,
                    "finish_reason": response.finish_reason,
                    "latency": response.latency,
                },
            },
            ensure_ascii=False,
        )
        with self._write_lock:
            if not self._tail_checked:
                _end_on_whole_line(self.path)
                self._tail_checked = True
            with self.path.open("ab") as handle:
                handle.write(utf8(line + "\n"))
        return response

    @property
    def request_count(self) -> int:
        return self.inner.request_count


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
    backoffs: Iterable[float] = RETRY_BACKOFFS,
    user_sha256: str | None = None,
) -> ChatResponse:
    """Send one request, retrying transient transport failures with backoff.

    Retries never re-run on well-formed model output; only TransportError
    marked transient triggers another attempt.  The optional transcript
    recorder receives one ``llm_call`` record for the final request/response;
    the model and ``max_tokens`` are the run header's, the request tag is
    rebuilt from the record's place (``transcript.request_tag``), and
    ``user_sha256``, when given, is recorded with it (an agent query's first
    attempt).
    """
    backoffs = tuple(backoffs)
    attempts = 0
    last_error: TransportError | None = None
    for wait in (None,) + backoffs:
        if wait is not None:
            sleep(wait)
        attempts += 1
        try:
            response = transport.send_once(request)
        except AuthError:
            raise
        except TransportError as exc:
            last_error = exc
            if not exc.transient:
                raise
            continue
        content = _joined_surrogates(response.content)
        if response.attempt_count != attempts or content is not response.content:
            response = replace(response, content=content, attempt_count=attempts)
        if recorder is not None:
            payload = {
                "content": response.content,
                "finish_reason": response.finish_reason,
                "latency": response.latency,
                "attempt_count": response.attempt_count,
            }
            if user_sha256 is not None:
                payload["user_sha256"] = user_sha256
            recorder(LLM_CALL, payload)
        return response
    raise TransportError(
        f"request {request.request_tag!r} failed after {attempts} attempts: {last_error}"
    )
