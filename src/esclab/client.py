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
from .transcript import LLM_CALL, Recorder, split_lines

if TYPE_CHECKING:
    import requests

TEMPERATURE_MIN = 0.0
TEMPERATURE_MAX = 2.0
DEFAULT_MAX_TOKENS = 1024
DEFAULT_TIMEOUT = 60.0
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
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RequestBudget:
    """Thread-safe request cap shared by every run of one experiment."""

    def __init__(self, limit: int = DEFAULT_EXPERIMENT_BUDGET):
        self.limit = limit
        self._count = 0
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def charge(self) -> None:
        with self._lock:
            if self._count >= self.limit:
                raise BudgetExceeded(
                    f"request budget of {self.limit} exhausted"
                )
            self._count += 1


class Transport:
    """Base transport: request counting and an optional budget.

    ``in_process`` is true when ``send_once`` only computes in this process
    and never waits on a remote endpoint; callers then gain nothing from
    issuing requests on several threads.
    """

    in_process = False

    def __init__(self, budget: RequestBudget | None = None):
        self.budget = budget
        self._count = 0
        self._lock = threading.Lock()

    @property
    def request_count(self) -> int:
        with self._lock:
            return self._count

    def _note_request(self) -> None:
        if self.budget is not None:
            self.budget.charge()
        with self._lock:
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
        budget: RequestBudget | None = None,
        capture: bool = False,
    ):
        super().__init__(budget=budget)
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
        budget: RequestBudget | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_in_flight: int = 4,
        requests_per_minute: int = 60,
        session: requests.Session | None = None,
    ):
        if max_in_flight < 1 or requests_per_minute < 1 or timeout <= 0:
            raise ValidationError(
                "live transport needs max_in_flight >= 1, requests_per_minute >= 1 and "
                f"timeout > 0, got {max_in_flight}, {requests_per_minute} and {timeout}"
            )
        import requests

        super().__init__(budget=budget)
        self._requests = requests
        self.url = base_url.rstrip("/") + "/chat/completions"
        self._api_key = api_key
        self.timeout = timeout
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
        except (ValueError, KeyError, IndexError, TypeError) as exc:
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
    return CassetteRecord(
        tag=require_type(entry["tag"], str, "tag"),
        request_sha=require_type(entry["request_sha"], str, "request_sha"),
        request=entry["request"],
        response=response,
    )


class ReplayTransport(Transport):
    """Plays back a recorded cassette.

    Strict mode matches on (tag, request body hash) and fails on any request
    not present; fuzzy mode matches on tag alone.  Each record is consumed at
    most once, in file order per key.
    """

    in_process = True

    def __init__(
        self,
        path: str | Path,
        mode: str = "strict",
        budget: RequestBudget | None = None,
    ):
        super().__init__(budget=budget)
        if mode not in ("strict", "fuzzy"):
            raise ValidationError(f"replay mode must be 'strict' or 'fuzzy', got {mode!r}")
        self.mode = mode
        self._queues: dict[object, deque[CassetteRecord]] = {}
        for record in read_cassette(path):
            key = (record.tag, record.request_sha) if mode == "strict" else record.tag
            self._queues.setdefault(key, deque()).append(record)
        self._replay_lock = threading.Lock()

    def send_once(self, request: ChatRequest) -> ChatResponse:
        self._note_request()
        key: object
        if self.mode == "strict":
            key = (request.request_tag, body_digest(wire_body(request)))
        else:
            key = request.request_tag
        with self._replay_lock:
            queue = self._queues.get(key)
            if not queue:
                raise TransportError(
                    f"replay cassette has no response for tag {request.request_tag!r}"
                    + (" (strict match on request body)" if self.mode == "strict" else "")
                )
            record = queue.popleft()
        response = record.response
        return ChatResponse(
            content=response["content"],
            finish_reason=response.get("finish_reason", "stop"),
            latency=float(response.get("latency", 0.0)),
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
        super().__init__()
        self.inner = inner
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
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        return response

    @property
    def request_count(self) -> int:
        return self.inner.request_count


def complete(
    transport: Transport,
    request: ChatRequest,
    recorder: Recorder | None = None,
    sleep: Callable[[float], None] = time.sleep,
    backoffs: Iterable[float] = RETRY_BACKOFFS,
) -> ChatResponse:
    """Send one request, retrying transient transport failures with backoff.

    Retries never re-run on well-formed model output; only TransportError
    marked transient triggers another attempt.  The optional transcript
    recorder receives one ``llm_call`` record for the final request/response.
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
        if response.attempt_count != attempts:
            response = replace(response, attempt_count=attempts)
        if recorder is not None:
            recorder(
                LLM_CALL,
                {
                    "tag": request.request_tag,
                    "model": request.model,
                    "temperature": request.temperature,
                    "max_tokens": request.max_tokens,
                    "content": response.content,
                    "finish_reason": response.finish_reason,
                    "latency": response.latency,
                    "attempt_count": response.attempt_count,
                },
            )
        return response
    raise TransportError(
        f"request {request.request_tag!r} failed after {attempts} attempts: {last_error}"
    )
