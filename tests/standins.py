"""Stand-ins for a remote endpoint in tests: a transport that waits like
one, and a chat-completions endpoint on a loopback socket."""
import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from esclab.client import Transport
from esclab.errors import TransportError

WAIT = '{"actions": [{"action": "wait"}]}'


class EndpointStandIn(Transport):
    """Wraps a transport.  With a ``step_s``, it waits like a remote
    endpoint, longest for the first nation in the roster, so a day's queries
    complete in reverse roster order; it is then not ``in_process``, so
    runs are played in overlap, on ``max_in_flight`` threads if it is set.
    With ``step_s=0`` it waits for nothing and is ``in_process``.

    A request whose tag holds ``fail_tag`` fails with a non-transient
    ``TransportError``; the first request tagged ``busy_tag`` fails with a
    transient one, which ``complete`` retries after its first backoff.
    ``completed`` lists the other requests' tags in the order they
    completed, and ``threads`` the threads that sent them: in a forked
    process's runs, that process's own.  The inner transport counts every
    request, forked processes' included.
    """

    def __init__(self, inner, roster, step_s=0.004, fail_tag=None, max_in_flight=None,
                 busy_tag=None):
        super().__init__()
        self.inner = inner
        self.roster = roster
        self.step_s = step_s
        self.fail_tag = fail_tag
        self.busy_tag = busy_tag
        self.in_process = not step_s
        self.max_in_flight = max_in_flight
        self.completed = []
        self.threads = set()
        self._seen = threading.Lock()

    @property
    def request_count(self):
        return self.inner.request_count

    def send_once(self, request):
        if self.fail_tag and self.fail_tag in request.request_tag:
            raise TransportError("endpoint outage")
        with self._seen:
            busy = request.request_tag == self.busy_tag
            if busy:
                self.busy_tag = None  # it fails once
        if busy:
            raise TransportError("endpoint busy", transient=True)
        who = request.request_tag.split("|")[2]
        if self.step_s and who in self.roster:
            time.sleep(self.step_s * (len(self.roster) - self.roster.index(who)))
        with self._seen:
            self.threads.add(threading.get_ident())
            self.completed.append(request.request_tag)
        return self.inner.send_once(request)


def first_attempts(tags, day, run_id=""):
    """The nations whose first attempt on ``day`` is in ``tags``, in order;
    with ``run_id``, only that run's."""
    return [
        tag.split("|")[2] for tag in tags
        if f"{run_id}|d{day:02d}|" in tag and tag.endswith("|a1")
    ]


def chat_reply(content=WAIT, finish_reason="stop") -> bytes:
    """A chat-completions body whose one choice says ``content``."""
    return json.dumps({"choices": [{"message": {"content": content},
                                    "finish_reason": finish_reason}]}).encode()


@dataclass(frozen=True)
class Outcome:
    """What ``ChatEndpoint`` does with one request: wait ``delay_s``, then
    answer ``status`` with ``body`` (and a ``location`` header, if given).
    With ``drop`` it closes the connection without a reply; with ``cut`` it
    sends only the first half of ``body`` under a Content-Length for all
    of it."""

    status: int = 200
    body: bytes = chat_reply()
    location: str | None = None
    delay_s: float = 0.0
    drop: bool = False
    cut: bool = False


class ChatEndpoint:
    """An OpenAI-compatible chat-completions endpoint on a free port of
    127.0.0.1, for use as a context manager.  A ``ThreadingHTTPServer``
    handles each connection on a daemon thread and speaks HTTP/1.0, so a
    connection carries one request; the client's ``max_in_flight`` (at most
    64) bounds its threads.

    It serves ``outcomes`` in order, then ``then`` to every later request.
    ``received`` holds each request's headers and JSON body in arrival
    order, and ``peak`` the most requests it handled at once: a request is
    handled from its body's arrival until its reply's last byte is about to
    be sent, so a client that waits for a reply before sending again is
    never counted twice.  Leaving the context wakes every delayed reply and
    joins every handler thread.
    """

    def __init__(self, outcomes=(), then=Outcome()):
        self._script = deque(outcomes)
        self._then = then
        self.received = []
        self.peak = self._handling = 0
        self._lock = threading.Lock()
        self._closed = threading.Event()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                endpoint._serve(self)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A client that timed out or gave up leaves a broken pipe behind.
        self._server.handle_error = lambda request, address: None
        self.url = f"http://127.0.0.1:{self._server.server_port}/v1"
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._closed.set()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()

    def _serve(self, handler):
        body = handler.rfile.read(int(handler.headers["Content-Length"]))
        with self._lock:
            self.received.append((dict(handler.headers), json.loads(body)))
            outcome = self._script.popleft() if self._script else self._then
            self._handling += 1
            self.peak = max(self.peak, self._handling)
        try:
            self._closed.wait(outcome.delay_s)
            if outcome.drop:
                return
            handler.send_response(outcome.status)
            handler.send_header("Content-Type", "application/json")
            handler.send_header("Content-Length", str(len(outcome.body)))
            if outcome.location:
                handler.send_header("Location", outcome.location)
            handler.end_headers()
        finally:
            with self._lock:
                self._handling -= 1
        handler.wfile.write(outcome.body[:len(outcome.body) // 2] if outcome.cut else outcome.body)
