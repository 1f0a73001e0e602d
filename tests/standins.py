"""A transport that stands in for a remote endpoint in tests."""
import threading
import time

from esclab.client import Transport
from esclab.errors import TransportError


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
