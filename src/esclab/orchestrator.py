"""Seeded simulation runs: query policies, score days, update the world.

Within a day every nation sees the same start-of-day world (simultaneous-move
semantics); the daily world update is the only inter-day information carrier.
The day's nation queries are therefore independent, and so are the runs.
When the policy waits on an endpoint (its ``in_process`` is false: a model
policy on anything but the in-process mock or a replay), ``play_runs``
overlaps the pending runs on as many threads as the transport lets requests
be in flight, and writes a day's records in roster order once its last query
settles, so the bytes depend on neither completion order nor overlap.  Every
other policy, unless its transport waits, plays the runs on every usable
CPU, in processes the caller forks, each its share of the runs one by one,
asking the nations one by one.
The transcript is written incrementally and a crashed run resumes from its
last completed day, reproducing the uninterrupted bytes exactly.

A run's treatment and taxonomy come only from the arguments of
``run_simulation`` (or of ``play_runs``, which plays on from what
``transcript.stored_run`` read) and reach the policy and the world updater
with every call.  ``run_simulation`` is the library's single-run call;
``esclab simulate`` plays its run as a one-run experiment instead, so that
its transcript is the ``-r00`` run of the matching plan.

A run comes back as ``transcript.TranscriptRun``, the record that reading
its transcript gives: built from memory for a run played here, read back for
one the transcript already holds completed or that a forked process played.
``transcript`` also owns the turn record in both directions.
"""
from __future__ import annotations

import json
import logging
import os
import sys
import threading
from contextlib import closing, suppress
from dataclasses import dataclass
from pathlib import Path

from . import transcript as ts
from .agents import DEFAULT_PARSE_RETRIES, AgentPolicy, AgentTurn, decide_with_retry
from .client import (
    DEFAULT_MAX_TOKENS,
    TEMPERATURE_MAX,
    TEMPERATURE_MIN,
    Transport,
    chat_request,
    complete,
)
from .errors import (
    BudgetExceeded,
    EsclabError,
    ParseError,
    TransportError,
    ValidationError,
)
from .prompts import (
    PromptVariant,
    action_lines,
    default_templates,
    render_system_text,
    render_update_text,
    text_sha256,
)
from .scenario import DailyRecord, Scenario, WorldState, advance_day, initial_world
from .scoring import daily_score
from .taxonomy import ActionTaxonomy

log = logging.getLogger("esclab.orchestrator")


@dataclass(frozen=True)
class Treatment:
    """One experiment cell: a sampling temperature and a prompt variant."""

    label: str
    temperature: float
    variant: PromptVariant

    def __post_init__(self):
        # The label names transcript files and is a field of request tags.
        if "/" in self.label or "|" in self.label or not self.label.isprintable():
            raise ValidationError(
                f"treatment label {self.label!r} must be one file-name component: "
                "no '/', '|' or unprintable characters"
            )
        if not TEMPERATURE_MIN <= self.temperature <= TEMPERATURE_MAX:
            raise ValidationError(
                f"treatment {self.label!r}: temperature {self.temperature} "
                f"outside [{TEMPERATURE_MIN}, {TEMPERATURE_MAX}]"
            )
        # A float, so that an integer temperature records as its float does.
        object.__setattr__(self, "temperature", float(self.temperature))

    def as_record(self) -> dict:
        """The treatment as run headers, manifests and plan digests store it."""
        return {
            "label": self.label,
            "temperature": self.temperature,
            "variant": self.variant.value,
        }


class WorldUpdater:
    """Behavior contract: produce the end-of-day world summary text."""

    # The model its requests name and their max_tokens; None if it calls none.
    model: str | None = None
    max_tokens: int | None = None

    @property
    def kind(self) -> str:
        """What the run header records of the updater besides its model."""
        return type(self).__name__

    def update(
        self,
        world: WorldState,
        turns: dict[str, AgentTurn],
        treatment: Treatment,
        run_id: str = "",
        recorder=None,
    ) -> str:
        raise NotImplementedError


class TemplateUpdater(WorldUpdater):
    """Deterministic summary: day header plus one line per recorded action."""

    kind = "template"

    def update(
        self,
        world: WorldState,
        turns: dict[str, AgentTurn],
        treatment: Treatment,
        run_id: str = "",
        recorder=None,
    ) -> str:
        day = world.current_day + 1
        previous = world.summary.splitlines()[0][:80] if world.summary else ""
        header = f"Day {day} of {world.scenario.days}. Previously: {previous}"
        actions = {nation: turn.actions for nation, turn in turns.items()}
        return "\n".join([header] + action_lines(world, actions))


class LlmUpdater(WorldUpdater):
    """Summarization query over the previous summary and the day's actions."""

    SYSTEM_TEXT = (
        "You are the impartial narrator of a turn-based strategic wargame. "
        "Summarize the new state of the world in plain prose, under 300 words, "
        "based on the previous state and the actions every nation just took. "
        "Do not invent actions that did not happen."
    )

    kind = "llm"
    max_tokens = DEFAULT_MAX_TOKENS

    def __init__(self, transport: Transport, model: str):
        self.transport = transport
        self.model = model
        self._fallback = TemplateUpdater()

    def update(
        self,
        world: WorldState,
        turns: dict[str, AgentTurn],
        treatment: Treatment,
        run_id: str = "",
        recorder=None,
    ) -> str:
        day = world.current_day + 1
        user_text = render_update_text(
            world, {nation: turn.actions for nation, turn in turns.items()})
        request = chat_request(
            model=self.model,
            system_text=self.SYSTEM_TEXT,
            user_text=user_text,
            temperature=treatment.temperature,
            max_tokens=self.max_tokens,
            request_tag=ts.request_tag(run_id, day, None),
        )
        response = complete(self.transport, request, recorder=recorder,
                            user_sha256=text_sha256(user_text))
        text = response.content.strip() if isinstance(response.content, str) else ""
        if not text:
            log.warning("world updater returned empty text on day %d; using template", day)
            return self._fallback.update(world, turns, treatment)
        return text


def run_header(scenario: Scenario, taxonomy: ActionTaxonomy, treatment: Treatment,
               seed: int, run_id: str, policy: AgentPolicy, world_updater: WorldUpdater,
               max_parse_retries: int) -> dict:
    """The ``run_start`` payload of a run: a transcript holds the run only if
    its header equals this.  It names what produced the run: the model and
    ``max_tokens`` of the components that call one (null if none does), the
    retry count, the policy and the world updater."""
    called = {(c.model, c.max_tokens) for c in (policy, world_updater) if c.model is not None}
    if len(called) > 1:
        raise ValidationError(
            f"the policy and the world updater call different models: {sorted(called)}"
        )
    model, max_tokens = called.pop() if called else (None, None)
    return {
        "transcript_format": ts.TRANSCRIPT_FORMAT,
        "run_id": run_id,
        "scenario_name": scenario.name,
        "days": scenario.days,
        "seed": seed,
        "treatment": treatment.as_record(),
        "taxonomy_version": taxonomy.version,
        "model": model,
        "max_tokens": max_tokens,
        "max_parse_retries": max_parse_retries,
        "policy": policy.describe(),
        "world_updater": world_updater.kind,
    }


def run_simulation(
    scenario: Scenario,
    taxonomy: ActionTaxonomy,
    treatment: Treatment,
    policy: AgentPolicy,
    world_updater: WorldUpdater,
    seed: int,
    transcript_path,
    run_id: str | None = None,
    max_parse_retries: int = DEFAULT_PARSE_RETRIES,
) -> ts.TranscriptRun:
    """Play one seeded game of scenario.days days and persist the transcript.

    ``transcript.stored_run`` decides what the transcript already holds: a
    completed run is returned as-is, a partial one is cut back to its last
    completed day and continued, and a transcript of a different run is
    refused with ``ValidationError``.  Transport failures abort the run
    (partial transcript retained) rather than skipping nations, so no biased
    partial days enter the statistics.  The run plays in the calling process.
    """
    if max_parse_retries < 0:
        raise ValidationError("max_parse_retries must be >= 0")
    transcript_path = Path(transcript_path)
    run_id = run_id or f"{treatment.label}-s{seed}"
    header = run_header(scenario, taxonomy, treatment, seed, run_id, policy, world_updater,
                        max_parse_retries)

    prior, kept = ts.stored_run(transcript_path, header)
    if prior is not None and prior.completed:
        return prior
    return play_runs(scenario, taxonomy, policy, world_updater,
                     [(treatment, header, transcript_path, prior, kept)], {})[run_id]


def _play(scenario: Scenario, taxonomy: ActionTaxonomy, policy: AgentPolicy,
          world_updater: WorldUpdater, metrics_dir: Path | None, treatment: Treatment,
          header: dict, transcript_path: Path, prior: ts.TranscriptRun | None,
          kept: list[dict]):
    """Play the run whose ``run_start`` payload is ``header`` onward from the
    partial run ``prior`` and its records ``kept``, as ``transcript.stored_run``
    gave them (None and none: from the start, replacing any file there), and
    persist its transcript, and with ``metrics_dir`` its model calls' transport
    facts in ``<run_id>.jsonl`` there.  A generator: it yields ``ask`` for each
    day, is sent its outcomes for the nations in roster order, and returns the
    run."""
    run_id = header["run_id"]
    metrics = None if metrics_dir is None else metrics_dir / f"{run_id}.jsonl"

    def ask(nation: str) -> tuple[list, AgentTurn | Exception]:
        """``nation``'s query on the day's world: its records, and its turn or exception."""
        records: list = []
        try:
            return records, decide_with_retry(
                policy, world, nation, treatment, taxonomy, run_id=run_id,
                max_parse_retries=header["max_parse_retries"],
                recorder=lambda *record: records.append(record))
        except Exception as exc:
            return records, exc

    days, fallbacks = (list(prior.days), prior.fallbacks) if prior else ([], 0)
    world = initial_world(scenario)
    for record in days:
        world = advance_day(world, record)
    status, abort_reason = "completed", None
    # Replaces any file there with the kept records: none when no day
    # completed (perhaps a single torn line).
    with closing(ts.TranscriptWriter(transcript_path, kept, metrics)) as writer:
        if not kept:
            writer.write(ts.RUN_START, header)
            templates = policy.templates or default_templates()
            text, sha256 = render_system_text(scenario, taxonomy, treatment.variant,
                                              templates.system)
            writer.write(ts.SYSTEM_PROMPT,
                         {"sha256": sha256, "text": text, "user_template": templates.user})
        try:
            while world.current_day < scenario.days:
                day = world.current_day + 1
                turns: dict[str, AgentTurn] = {}
                for nation, (records, turn) in zip(scenario.nation_names, (yield ask)):
                    # A failing query still leaves its records; later nations'
                    # are dropped (one by one, they are never asked).
                    for type_, payload in records:
                        writer.write(type_, payload, day=day, nation=nation)
                    if isinstance(turn, Exception):
                        raise turn
                    fallbacks += turn.fallback
                    turns[nation] = turn
                    writer.write(ts.TURN, ts.turn_payload(turn), day=day, nation=nation)
                scores = daily_score(turns.values(), taxonomy)
                summary = world_updater.update(
                    world, turns, treatment, run_id=run_id,
                    recorder=lambda type_, payload: writer.write(type_, payload, day=day))
                record = DailyRecord(day, {n: t.actions for n, t in turns.items()}, scores,
                                     summary)
                writer.write(ts.DAY, {"scores": scores, "summary": summary}, day=day)
                world = advance_day(world, record)
                days.append(record)
        except (TransportError, BudgetExceeded) as exc:
            status, abort_reason = "aborted", f"{type(exc).__name__}: {exc}"
            log.error("run %s aborted on day %d: %s", run_id, day, exc)
        writer.write(ts.RUN_END, {"status": status, "reason": abort_reason})
    return ts.run_from_header(header, status, abort_reason, days, fallbacks)


def play_runs(scenario: Scenario, taxonomy: ActionTaxonomy, policy: AgentPolicy,
              world_updater: WorldUpdater, pending: list[tuple],
              results: dict[str, ts.TranscriptRun], transport: Transport | None = None,
              metrics_dir: Path | None = None) -> dict:
    """Play each pending ``(treatment, header, transcript_path, prior, kept)``
    as ``_play`` does into ``results``, by run id, and return it.

    ``transport`` is the one the policy and the world updater send through,
    if any; one test, whether it waits (it is given and not ``in_process``),
    decides the rest.  In process, unless it waits, the runs are dealt over
    P processes, one per usable CPU and at most one per run (``_processes``):
    the caller plays ``pending[0::P]`` and forks P - 1 others to play the
    rest, each its share one by one, asking the nations one by one.  Every
    process forked from the transport shares its count, so a budget that
    runs out aborts whichever runs ask after it, not the last runs in plan
    order.  The caller reads the runs the others report ended back from
    their transcripts: a completed one as a skipped run, its days when first
    used.  A forked process ends, at the start of its next day, once the
    caller is gone without killing it.  At P = 1 (over a transport that
    waits, with a single run, with another thread in the caller or without
    ``os.fork``) the caller plays every run in plan order: an in-process
    policy whose world updater waits on an endpoint sends from the caller
    alone, so the transport's rate and in-flight limits hold.  A policy,
    updater or transport keeps what it holds on the Python side in the
    process that played the run.

    With ``metrics_dir``, the runs write their transport facts to
    ``<run_id>.jsonl`` there when the transport waits; otherwise they write
    none and remove the file, which an earlier waiting pass may have left
    and which would not match the transcript.

    Waiting, the runs play in twice the transport's in-flight cap of lanes
    (twice the roster size if it sets none), each its runs one by one, all
    on that many threads.  A task is one nation's query; the one that
    settles a day's last query plays the day and queues the lane's next day,
    so no task waits for another.

    An exception other than an abort, in any process or thread, is raised
    here once the others have stopped; ``results`` then holds every run that
    ended."""
    roster = scenario.nation_names
    waits = transport is not None and not transport.in_process
    if not waits and metrics_dir is not None:
        for _, header, *_ in pending:
            _remove(metrics_dir / f"{header['run_id']}.jsonl")
    sidecars = metrics_dir if waits else None

    def lane(indices, ended):
        """The runs ``pending[i]`` for ``i`` in ``indices``, one by one, a
        generator as ``_play`` is; ``ended(i, run)`` is called as each ends."""
        for i in indices:
            ended(i, (yield from _play(scenario, taxonomy, policy, world_updater, sidecars,
                                       *pending[i])))

    def keep(i: int, run: ts.TranscriptRun) -> None:
        results[run.run_id] = run

    if policy.in_process:
        # Forked processes would each keep their own rate and in-flight limits.
        _play_in_processes(lane, pending, 1 if waits else _processes(len(pending)), roster,
                           keep)
        return results
    import queue  # here, not with the module: only a waiting policy needs them
    from concurrent.futures import ThreadPoolExecutor

    width = (transport.max_in_flight if transport else None) or len(roster)
    lanes = [lane(range(k, len(pending), 2 * width), keep)
             for k in range(min(2 * width, len(pending)))]
    lock, done = threading.Lock(), queue.SimpleQueue()

    def step(game, outcomes: list | None) -> None:
        """Send ``game`` a day's outcomes and queue its next day's queries."""
        try:
            ask = game.send(outcomes)
        except StopIteration:  # the lane's runs have all ended
            done.put(None)
            return
        outcomes = {}
        for nation in roster:
            pool.submit(settle, game, ask, nation, outcomes)

    def settle(game, ask, nation: str, outcomes: dict) -> None:
        try:
            outcome = ask(nation)
            with lock:
                outcomes[nation] = outcome
                if len(outcomes) < len(roster):
                    return
            step(game, [outcomes[n] for n in roster])
        except BaseException as exc:
            done.put(exc)

    pool = ThreadPoolExecutor(width)
    try:
        for game in lanes:
            step(game, None)
        for _ in lanes:
            if (failure := done.get()) is not None:
                raise failure
    finally:  # queued tasks are dropped, those in flight finish
        pool.shutdown(cancel_futures=True)
        for game in lanes:
            game.close()
    return results


def _inline(game, roster: list[str], caller: int | None = None) -> None:
    """Play the runs of the lane ``game`` on the calling thread, asking the
    nations one by one as each day reads their outcomes.  With ``caller``,
    the pid of the process that forked this one, leave through ``os._exit``
    before a day once that process is gone (SIGTERM or SIGKILL end it without
    killing this one), and so release what it held, the manifest lock say."""
    outcomes = None
    with suppress(StopIteration):
        while True:
            outcomes = map(game.send(outcomes), roster)
            if caller is not None and os.getppid() != caller:
                os._exit(1)


def _processes(pending: int) -> int:
    """How many processes play ``pending`` runs in process: one per CPU this
    process may use, at most one per run; one where the caller runs another
    thread (a fork copies only the calling one) or cannot fork."""
    if pending < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, pending)


def _play_in_processes(lane, pending: list[tuple], processes: int, roster: list[str],
                       keep) -> None:
    """Play ``pending`` in ``processes`` processes, the k-th playing
    ``lane(range(k, len(pending), processes), ...)``: the caller is the first
    and forks the others, none at P = 1, where it plays every run in plan
    order.  Each reports its ended runs on a pipe of its own, one JSON line
    ``[index, status, abort_reason]`` per run, and an exception other than
    an abort as ``[null, pickled exception in hex or null, its name]``, then
    leaves through ``os._exit``.  The caller reads the pipes
    after each of its own runs and at the end, hands ``keep`` each reported
    run as its transcript holds it, and raises a reported exception at once.
    When the caller stops on an exception, it kills the others first and
    still keeps the runs they reported."""
    import select  # here, not with the module: a waiting policy needs neither
    import signal

    pipes: dict[int, bytes] = {}  # read end -> what came after its last whole line
    pids: list[int] = []
    poller = select.poll()
    failures: list[BaseException] = []

    def receive(fd: int) -> None:
        data = os.read(fd, 1 << 16)
        if not data:  # the process closed its pipe: it has ended
            poller.unregister(fd)
            os.close(fd)
            del pipes[fd]
            return
        *lines, pipes[fd] = (pipes[fd] + data).split(b"\n")
        for line in lines:
            index, status, reason = json.loads(line)
            if index is None:
                failures.append(_unpickled(status, reason))
            else:
                keep(index, _read_back(pending[index], status, reason))

    def gather(timeout: float | None) -> None:
        """Receive what the others wrote, waiting up to ``timeout`` ms for it."""
        for fd, _ in poller.poll(timeout):
            receive(fd)
        if failures:
            raise failures[0]

    def ended(i: int, run: ts.TranscriptRun) -> None:
        keep(i, run)
        gather(0)

    caller = os.getpid()
    try:
        for k in range(1, processes):
            read, write = os.pipe()
            for stream in (sys.stdout, sys.stderr):  # or a child would write it again
                stream.flush()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for fd in (read, *pipes):
                        os.close(fd)
                    code = _play_child(lane(range(k, len(pending), processes),
                                            lambda i, run: _send(write, i, run.status,
                                                                 run.abort_reason)),
                                       roster, write, caller)
                finally:  # no frame of the caller's runs here
                    os._exit(code)
            pids.append(pid)
            os.close(write)
            pipes[read] = b""
            poller.register(read, select.POLLIN)
        _inline(lane(range(0, len(pending), processes), ended), roster)
        while pipes:
            gather(None)
    except BaseException:
        for pid in pids:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        while pipes:  # the runs they reported before they died
            for fd, _ in poller.poll():
                receive(fd)
        raise
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):  # one ended without a word: killed, say
        raise EsclabError(f"processes playing runs ended with codes {codes} "
                          "(negative: the signal that killed one)")


def _play_child(game, roster: list[str], write: int, caller: int) -> int:
    """A forked process's part: play ``game``'s runs and return 0, or report
    the exception that stopped them and return 1; leave before a day once
    ``caller`` is gone."""
    import pickle

    try:
        _inline(game, roster, caller)
        return 0
    except BaseException as exc:
        try:
            pickled = pickle.dumps(exc).hex()
        except Exception:
            pickled = None
        _send(write, None, pickled, f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}")
        return 1


def _remove(path: Path) -> None:
    try:
        path.unlink(missing_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot remove {path}: {exc}") from exc


def _send(write: int, *message) -> None:
    os.write(write, json.dumps(message).encode("utf-8") + b"\n")


def _unpickled(pickled: str | None, name: str) -> BaseException:
    """The exception a forked process reported: itself if it pickles, else
    an ``EsclabError`` that names it."""
    import pickle

    with suppress(Exception):
        return pickle.loads(bytes.fromhex(pickled))
    return EsclabError(f"a forked process playing runs raised {name}")


def _read_back(item: tuple, status: str, reason: str | None) -> ts.TranscriptRun:
    """The run ``item`` that a forked process reported ended with ``status``
    and ``reason``, as its transcript holds it: a completed one as
    ``transcript.stored_run`` gives a skipped run, an aborted one read whole."""
    _, header, path, *_ = item
    run = ts.stored_run(path, header)[0] if status == "completed" else ts.load_run(path)
    if run is None or (run.status, run.abort_reason) != (status, reason):
        raise ValidationError(f"transcript {path} does not hold the {status} run "
                              "that a forked process reported")
    return run
