"""Pinned bytes of a tiny calibrated-mock experiment, by every execution path.

The shipped reference plan cut to two treatments (the default prompt and a
reflection variant) with two runs each.  Every transcript, the manifest
(with the data directory's path replaced by a placeholder, so the digest
holds wherever the checkout lives) and every report CSV must hash to the
digests below, so a change meant to leave the output alone is checked byte
for byte.  A change that means to alter the output re-pins them and says why.

Each row of the matrix plays the plan by one path and checks evidence that
the path was taken: in process on the calling thread, in plan order or
dealt over two processes, with the runs in overlap on the transport's
in-flight cap of threads, or replayed from the transcripts of a recording.
Rows that assert which runs a budget or an error cuts in plan order play in
one process.  Every other in-process row plays on as many processes as
``play_runs`` picks here.  ``plan_digest`` leaves out the
transport and ``max_requests``, so one manifest digest holds on every row.
Not rows: ``esclab simulate``, whose one-run plan gets other calibrated
replies (``test_cli.py`` pins it), and ``perfbench``'s ``LatencyTransport``,
which garbles replies (``perfbench/expected.json`` pins it).
"""
import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from functools import cache, partial
from pathlib import Path

import pytest

from esclab import experiments, orchestrator
from esclab import transcript as ts
from esclab.client import MockTransport
from esclab.errors import EsclabError
from esclab.experiments import METRICS_DIR, load_plan, run_experiment
from esclab.report import build_report

from conftest import force_processes
from standins import EndpointStandIn, first_attempts

DATA = Path(__file__).resolve().parent.parent / "src" / "esclab" / "data"

TRANSCRIPT_SHA256 = {
    "t1.0-default-r00.jsonl":
        "d7f6c3369e7ab977de4a25b11ea110c5c3bc49390cd5ba00d34e43a13cf1bf68",
    "t1.0-default-r01.jsonl":
        "3884835ad65928bb68608f651eee927b41a4deff82311b6da82beb74bfea2f9b",
    "t1.0-reflection-planning-r00.jsonl":
        "784e163cf4c76d306ec07de59f997d7f1fe08694d010b79b1b875ab4924ffc64",
    "t1.0-reflection-planning-r01.jsonl":
        "b83e3741300746aebcf9a02e90982d7f6f7f4768d530ace2eebb6b1b7f574b06",
}
MANIFEST_SHA256 = "0389189414ce60e311347af7dcd3a12d31181f12417a75da58cc753df870ed1a"
REPORT_SHA256 = {
    "categories.csv": "440df591f65d424e864b3f467b35ef73a43e013cce05ff0dc31bf98f293496c0",
    "daily.csv": "91e0fc8e9bae115f43e2c9b13a19bbb63217f3896844dc9815d79f652692a0da",
    "reductions.csv": "d2153fead1d6996bb90d63cfd5346e109762f7f16badcaaee0dc77f2e52b14f1",
    "summary.csv": "51249394a6fa3f0b5505105c1c379df1634c8b79c9c52e14516ae5e9fa0c8a86",
}

RUN_IDS = [name.removesuffix(".jsonl") for name in TRANSCRIPT_SHA256]
DAYS = 14
DAY_REQUESTS = 8 + 1  # one query per nation, one world update
RUN_REQUESTS = DAYS * DAY_REQUESTS
REQUESTS = len(RUN_IDS) * RUN_REQUESTS
STEP_S = 0.001  # the stand-in's wait per roster place
OUTAGE_TAG = "t1.0-default-r01|d04|Purple|"
BUSY_TAG = "t1.0-default-r00|d02|Purple|a1"  # fails once, transiently
BUDGET = 300
BUILD_TRANSPORT = experiments.build_transport


def tiny_plan(**changes) -> experiments.ExperimentPlan:
    plan = load_plan(DATA / "plan_reference.yaml")
    labels = ("t1.0-default", "t1.0-reflection-planning")
    return dataclasses.replace(
        plan,
        treatments=tuple(t for t in plan.treatments if t.label in labels),
        runs_per_treatment=2,
        **changes,
    )


def digests(directory: Path, pattern: str) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob(pattern))
    }


def assert_pinned(out: Path, report: Path | None = None) -> None:
    """The experiment in ``out`` has the pinned transcripts and manifest;
    with ``report``, a report built there has the pinned CSVs."""
    assert digests(out / "transcripts", "*.jsonl") == TRANSCRIPT_SHA256
    manifest = (out / "manifest.json").read_text(encoding="utf-8")
    data_dir = json.dumps(str(DATA), ensure_ascii=False)[1:-1]  # as the manifest spells it
    assert data_dir in manifest
    manifest = manifest.replace(data_dir, "<data>")
    assert hashlib.sha256(manifest.encode("utf-8")).hexdigest() == MANIFEST_SHA256
    if report is not None:
        build_report(out / "manifest.json", report, include_timestamp=False)
        assert digests(report, "*.csv") == REPORT_SHA256


def wrap_transport(monkeypatch, concurrent: bool, fail_tag=None, max_in_flight=None,
                   busy_tag=None) -> list:
    """Make ``run_experiment`` wrap the transport it builds in an
    ``EndpointStandIn``, which waits when ``concurrent``; returns the list
    the stand-ins are appended to."""
    built = []

    def build_transport(plan, taxonomy, scenario, *args, **kwargs):
        transport = BUILD_TRANSPORT(plan, taxonomy, scenario, *args, **kwargs)
        step_s = STEP_S if concurrent else 0
        built.append(EndpointStandIn(transport, scenario.nation_names, step_s, fail_tag,
                                     max_in_flight, busy_tag))
        return built[-1]

    monkeypatch.setattr(experiments, "build_transport", build_transport)
    return built


def out_of_roster_order(tags, roster) -> bool:
    """Whether the first run's day-1 first attempts completed out of roster order."""
    attempts = first_attempts(tags, 1, RUN_IDS[0])
    return sorted(attempts) == sorted(roster) and attempts != list(roster)


def assert_threads(stand_in, concurrent: bool) -> None:
    """Waiting, the runs overlapped on the stand-in's in-flight cap of
    threads (the roster size if it sets none), none of them the caller's:
    with a cap above one, on more than one thread, a day's queries completing
    out of roster order; with a cap of one, on exactly one thread.  In
    process, the runs went one after another on the calling thread."""
    runs = [tag.split("|")[0] for tag in stand_in.completed]
    switches = sum(a != b for a, b in zip(runs, runs[1:]))
    assert (switches > len(set(runs)) - 1) == concurrent
    if concurrent:
        width = stand_in.max_in_flight or len(stand_in.roster)
        assert threading.get_ident() not in stand_in.threads
        if width > 1:
            assert 1 < len(stand_in.threads) <= width
            assert out_of_roster_order(stand_in.completed, stand_in.roster)
        else:
            assert len(stand_in.threads) == 1
    else:
        assert stand_in.threads == {threading.get_ident()}


def assert_forked(stand_in, requests: int) -> None:
    """In process on two processes, the caller sent only requests of its
    share, the first and third runs, and fewer than all ``requests``."""
    assert {tag.split("|")[0] for tag in stand_in.completed} <= set(RUN_IDS[0::2])
    assert 0 < len(stand_in.completed) < requests


# --- the rows: each plays the tiny plan into ``out`` and checks its evidence

def play_forked(out, tmp_path, monkeypatch):
    """The calibrated mock, its runs dealt over two processes; the
    responder notes the process that answered each request."""
    force_processes(monkeypatch, 2)
    answered = tmp_path / "pids.txt"

    def build_transport(plan, taxonomy, scenario, *args, **kwargs):
        inner = BUILD_TRANSPORT(plan, taxonomy, scenario, *args, **kwargs)

        def respond(request):
            with answered.open("a", encoding="utf-8") as lines:
                lines.write(f"{os.getpid()} {request.request_tag}\n")
            return inner.send_once(request).content

        return MockTransport(respond, max_requests=plan.max_requests)

    monkeypatch.setattr(experiments, "build_transport", build_transport)
    assert run_experiment(tiny_plan(), out).new_requests == REQUESTS
    pids = [line.split()[0] for line in answered.read_text("utf-8").splitlines()]
    assert len(pids) == REQUESTS
    assert len(set(pids)) == 2 and str(os.getpid()) in pids


def play_straight(out, tmp_path, monkeypatch, concurrent, max_in_flight=None):
    if not concurrent:
        force_processes(monkeypatch, 1)
    built = wrap_transport(monkeypatch, concurrent, max_in_flight=max_in_flight)
    # Threads switch as often as they can, so a lost update would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_experiment(tiny_plan(), out).new_requests == REQUESTS
    finally:
        sys.setswitchinterval(interval)
    assert_threads(built[0], concurrent)
    assert len(built[0].completed) == REQUESTS  # all of them in this process


def replay_plan(recorded: Path):
    return tiny_plan(transport={"kind": "replay", "manifest": str(recorded / "manifest.json")})


def play_record_replay(out, tmp_path, monkeypatch, busy_tag=None):
    """Record through the waiting stand-in, where one request may fail once
    and be retried, then replay from the recording's own transcripts.  The
    waiting recording leaves a metrics sidecar per run, which alone tells
    of the retry; the in-process replay leaves none."""
    recorded = tmp_path / "recorded"
    built = wrap_transport(monkeypatch, concurrent=True, busy_tag=busy_tag)
    assert run_experiment(tiny_plan(), recorded).new_requests == REQUESTS
    assert_pinned(recorded)
    assert_threads(built[0], concurrent=True)
    sidecars = [recorded / METRICS_DIR / f"{run_id}.jsonl" for run_id in RUN_IDS]
    calls = [json.loads(line) for path in sidecars
             for line in path.read_text("utf-8").split("\n") if line]
    assert sorted(call["tag"] for call in calls) == sorted(built[0].completed)
    assert {call["tag"]: call["attempts"] for call in calls if call["attempts"] != 1} == (
        {busy_tag: 2} if busy_tag else {})
    monkeypatch.undo()
    assert run_experiment(replay_plan(recorded), out).new_requests == REQUESTS
    assert not (out / METRICS_DIR).exists()


def play_abort_resume(out, tmp_path, monkeypatch, concurrent, replay=False, processes=1):
    """One run aborts on a transport error on day 4, then a re-run plays
    its lost days.  With ``replay``, the first pass is also replayed from
    its transcripts into a fresh directory, the abort included, byte for
    byte.  Waiting, every run's metrics sidecar ends with one line per
    ``llm_call`` of its transcript, in order: the aborted run's lost day is
    gone from both.  In process, on ``processes`` processes: the request
    tag drives the abort, so the statuses are exact on any number."""
    if not concurrent:
        force_processes(monkeypatch, processes)
    built = wrap_transport(monkeypatch, concurrent, fail_tag=OUTAGE_TAG)
    first = run_experiment(tiny_plan(), out)
    assert [run.status for run in first.runs] == ["completed", "aborted", "completed", "completed"]
    aborted = first.runs[1]
    assert aborted.abort_reason == "TransportError: endpoint outage"
    assert len(aborted.days) == 3
    assert_threads(built[0], concurrent)
    if processes > 1:
        assert_forked(built[0], first.new_requests)
    if replay:
        monkeypatch.setattr(experiments, "build_transport", BUILD_TRANSPORT)
        replayed = tmp_path / "replayed"
        again = run_experiment(replay_plan(out), replayed)
        assert [(run.status, run.abort_reason) for run in again.runs] == [
            (run.status, run.abort_reason) for run in first.runs]
        assert digests(replayed / "transcripts", "*.jsonl") == digests(
            out / "transcripts", "*.jsonl")
        assert (replayed / "manifest.json").read_bytes() == (out / "manifest.json").read_bytes()
    wrap_transport(monkeypatch, concurrent)
    again = run_experiment(tiny_plan(), out)
    assert again.new_requests == (DAYS - 3) * DAY_REQUESTS
    assert again.skipped == 3
    if concurrent:  # waiting, each run leaves a sidecar; the lost day leaves it too
        for run_id in RUN_IDS:
            lines = (out / METRICS_DIR / f"{run_id}.jsonl").read_text("utf-8").split("\n")
            assert lines.pop() == ""
            tags = list(ts.read_recording(out / "transcripts" / f"{run_id}.jsonl").calls)
            assert [json.loads(line)["tag"] for line in lines] == tags


def play_budget_resume(out, tmp_path, monkeypatch, concurrent, processes=1):
    """In one process the runs exhaust the budget in order.  In overlap,
    or on ``processes`` processes, which runs it cuts depends on timing, so
    the row checks what holds whatever the order: every run that did not
    complete aborted on the budget with only whole days kept, and the re-run
    makes the requests of the days the first pass did not keep."""
    if not concurrent:
        force_processes(monkeypatch, processes)
    built = wrap_transport(monkeypatch, concurrent)
    first = run_experiment(tiny_plan(max_requests=BUDGET), out)
    assert_threads(built[0], concurrent)
    assert first.new_requests == BUDGET
    if processes > 1:
        assert_forked(built[0], BUDGET)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["runs"]
    statuses = [run["status"] for run in manifest]
    if not concurrent and processes == 1:
        assert statuses == ["completed", "completed", "aborted", "aborted"]
        kept = (BUDGET - 2 * RUN_REQUESTS) // DAY_REQUESTS  # the third run's whole days
        assert len(first.runs[2].days) == kept
    assert "aborted" in statuses
    for entry, run in zip(manifest, first.runs):
        assert (entry["transcript"], entry["status"]) == (f"transcripts/{run.run_id}.jsonl",
                                                          run.status)
        if run.status != "completed":
            assert run.status == "aborted" and "BudgetExceeded" in entry["abort_reason"]
            on_disk = ts.load_run(out / entry["transcript"])
            assert on_disk.days == run.days and len(run.days) < DAYS
    lost_days = sum(DAYS - len(run.days) for run in first.runs)
    again = run_experiment(tiny_plan(), out)
    assert again.new_requests == lost_days * DAY_REQUESTS


def play_kill_resume(out, tmp_path, monkeypatch):
    """A kill leaves a transcript cut at a record boundary and no manifest.
    Cut the last run at each boundary, then the first run after each day
    with the later runs absent; every re-run ends at the pinned bytes and
    makes only the requests of the days it lost."""
    # The 270 re-runs load the same scenario and taxonomy files: parse them once.
    for name in ("load_scenario", "load_taxonomy"):
        monkeypatch.setattr(experiments, name, cache(getattr(experiments, name)))
    plan = tiny_plan()
    run_experiment(plan, out)
    transcripts = out / "transcripts"
    whole = {name: (transcripts / name).read_bytes() for name in TRANSCRIPT_SHA256}

    def resume(run_id: str, lines: list[bytes], later: list[str]) -> None:
        (transcripts / f"{run_id}.jsonl").write_bytes(b"".join(line + b"\n" for line in lines))
        for name in later:
            (transcripts / f"{name}.jsonl").unlink()
        (out / "manifest.json").unlink()
        lost_days = DAYS - sum(b'"type":"day"' in line for line in lines)
        result = run_experiment(plan, out)
        assert result.new_requests == lost_days * DAY_REQUESTS + len(later) * RUN_REQUESTS
        assert_pinned(out)

    last = whole[f"{RUN_IDS[-1]}.jsonl"].split(b"\n")[:-1]
    assert len(last) == 255
    for cut in range(len(last) + 1):
        resume(RUN_IDS[-1], last[:cut], [])
    first = whole[f"{RUN_IDS[0]}.jsonl"].split(b"\n")[:-1]
    day_ends = [i + 1 for i, line in enumerate(first) if b'"type":"day"' in line]
    assert len(day_ends) == DAYS
    for cut in day_ends:
        resume(RUN_IDS[0], first[:cut], RUN_IDS[1:])


ROWS = {
    "inline": partial(play_straight, concurrent=False),
    "fork": play_forked,
    "concurrent-days": partial(play_straight, concurrent=True),
    "overlap-width-1": partial(play_straight, concurrent=True, max_in_flight=1),
    "record-replay": play_record_replay,
    "record-replay+transient-retry": partial(play_record_replay, busy_tag=BUSY_TAG),
    "abort-resume": partial(play_abort_resume, concurrent=False),
    "abort-resume+concurrent-days": partial(play_abort_resume, concurrent=True),
    "abort-replay+concurrent-days": partial(play_abort_resume, concurrent=True, replay=True),
    "fork+abort-resume": partial(play_abort_resume, concurrent=False, processes=2),
    "budget-resume": partial(play_budget_resume, concurrent=False),
    "budget-resume+concurrent-days": partial(play_budget_resume, concurrent=True),
    "fork+budget-resume": partial(play_budget_resume, concurrent=False, processes=2),
    "kill-resume": play_kill_resume,
}


@pytest.mark.parametrize("path", ROWS)
def test_tiny_reference_experiment_bytes_are_pinned(path, tmp_path, monkeypatch):
    out = tmp_path / "experiment"
    ROWS[path](out, tmp_path, monkeypatch)
    assert_pinned(out, tmp_path / "report")


# --- the forked path when something goes wrong, and sidecars left behind

class TwoPartError(Exception):
    """An error that pickles but does not unpickle: its one ``args`` entry
    is not both of the arguments its ``__init__`` needs."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def ended_runs(out: Path) -> set[str]:
    """The runs whose transcripts in ``out`` hold a ``run_end`` record."""
    return {
        path.stem for path in (out / "transcripts").glob("*.jsonl")
        if any(record["type"] == ts.RUN_END
               for record in ts.read_records(path, tolerate_partial_tail=True))
    }


@pytest.mark.parametrize("error, raised, match", [
    (RuntimeError("disk on fire"), RuntimeError, "disk on fire"),
    (TwoPartError("disk", "r01"), EsclabError, "TwoPartError: disk at r01"),
])
def test_an_error_in_a_forked_run_is_raised_in_the_caller(error, raised, match, tmp_path,
                                                          monkeypatch):
    """The second process's first run raises while the caller plays its
    first: the caller raises it once that run ends (as an ``EsclabError``
    naming it if it does not unpickle), lists in the manifest exactly the
    runs that ended, and leaves no process behind."""
    force_processes(monkeypatch, 2)
    original = orchestrator.decide_with_retry
    failed = tmp_path / "failed"

    def failing(*args, run_id, **kwargs):
        if run_id.endswith("-r01"):
            failed.touch()
            raise error
        deadline = time.monotonic() + 10
        while not failed.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return original(*args, run_id=run_id, **kwargs)

    monkeypatch.setattr(orchestrator, "decide_with_retry", failing)
    out = tmp_path / "experiment"
    with pytest.raises(raised, match=match):
        run_experiment(tiny_plan(), out)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    runs = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["runs"]
    assert [(Path(entry["transcript"]).stem, entry["status"]) for entry in runs] == [
        (RUN_IDS[0], "completed")]
    assert ended_runs(out) == {RUN_IDS[0]}


def test_a_forked_process_killed_without_a_word_is_an_error(tmp_path, monkeypatch):
    """The second process dies of SIGKILL in its first run: the caller plays
    its own runs to their end, then raises an ``EsclabError`` naming the
    signal; the manifest lists the caller's runs."""
    force_processes(monkeypatch, 2)
    original = orchestrator.decide_with_retry

    def dying(*args, run_id, **kwargs):
        if run_id.endswith("-r01"):
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, run_id=run_id, **kwargs)

    monkeypatch.setattr(orchestrator, "decide_with_retry", dying)
    out = tmp_path / "experiment"
    with pytest.raises(EsclabError, match=r"ended with codes \[-9\]"):
        run_experiment(tiny_plan(), out)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    runs = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["runs"]
    assert [Path(entry["transcript"]).stem for entry in runs] == RUN_IDS[0::2]
    assert ended_runs(out) == set(RUN_IDS[0::2])


# Plays the tiny plan through ``esclab experiment`` on two processes, each
# query slowed to 20 ms (about 4.5 s in all), and notes each forked pid.
SLOW_FORKED_EXPERIMENT = """
import os, sys, time
from esclab import orchestrator
from esclab.cli import main

pids, plan, out = sys.argv[1:]
orchestrator._processes = lambda pending: min(2, pending)
fork, decide = os.fork, orchestrator.decide_with_retry

def noted_fork():
    pid = fork()
    if pid:
        with open(pids, "a") as lines:
            lines.write(f"{pid}\\n")
    return pid

def slow_decide(*args, **kwargs):
    time.sleep(0.02)
    return decide(*args, **kwargs)

os.fork, orchestrator.decide_with_retry = noted_fork, slow_decide
sys.exit(main(["experiment", "--plan", plan, "--out", out]))
"""


def tiny_plan_file(tmp_path) -> Path:
    """``tiny_plan`` as a plan file."""
    labels = ("t1.0-default", "t1.0-reflection-planning")
    lines = [
        line for line in (DATA / "plan_reference.yaml").read_text("utf-8").splitlines()
        if not line.startswith("  - {label:") or line.split()[2].rstrip(",") in labels
    ]
    text = "\n".join(lines).replace("runs_per_treatment: 10", "runs_per_treatment: 2")
    for name in ("scenario", "taxonomy"):
        key = f"{name}: "
        start = text.index(key) + len(key)
        end = text.index("\n", start)
        text = text[:start] + str(DATA / text[start:end]) + text[end:]
    path = tmp_path / "tiny_plan.yaml"
    path.write_text(text + "\n", encoding="utf-8")
    assert load_plan(path) == tiny_plan()
    return path


def test_sigint_ends_every_process_of_a_forked_experiment(tmp_path):
    """A SIGINT to the caller of a forked ``esclab experiment`` ends it and
    its other process at once, before the runs end, and a re-run ends at the
    pinned bytes."""
    pids, out = tmp_path / "pids.txt", tmp_path / "experiment"
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    caller = subprocess.Popen(
        [sys.executable, "-c", SLOW_FORKED_EXPERIMENT, str(pids), str(tiny_plan_file(tmp_path)),
         str(out)], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while len(list(out.glob("transcripts/*.jsonl"))) < 2:  # both processes play
            assert caller.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        caller.send_signal(signal.SIGINT)
        started = time.monotonic()
        stderr = caller.communicate(timeout=30)[1].decode("utf-8")
    finally:
        caller.kill()
    assert time.monotonic() - started < 2.0
    assert caller.returncode != 0 and "KeyboardInterrupt" in stderr
    (child,) = map(int, pids.read_text("utf-8").split())
    with pytest.raises(ProcessLookupError):
        os.kill(child, 0)
    assert len(ended_runs(out)) < len(RUN_IDS)
    assert run_experiment(tiny_plan(), out).new_requests > 0
    assert_pinned(out, tmp_path / "report")


def gone(pid: int) -> bool:
    """Whether process ``pid`` has ended (a zombie no one reaped included)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    with open(f"/proc/{pid}/stat", encoding="utf-8") as stat:
        return stat.read().rsplit(")", 1)[1].split()[0] == "Z"


def test_a_forked_process_leaves_once_its_caller_is_killed(tmp_path):
    """A SIGKILL to the caller of a forked ``esclab experiment`` kills it
    alone; its other process leaves before its next day, releasing the
    manifest lock, so a re-run at once is not refused and ends at the
    pinned bytes."""
    pids, out = tmp_path / "pids.txt", tmp_path / "experiment"
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    caller = subprocess.Popen(
        [sys.executable, "-c", SLOW_FORKED_EXPERIMENT, str(pids), str(tiny_plan_file(tmp_path)),
         str(out)], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while len(list(out.glob("transcripts/*.jsonl"))) < 2:  # both processes play
            assert caller.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        (child,) = map(int, pids.read_text("utf-8").split())
        caller.kill()
        caller.wait(timeout=30)
        deadline = time.monotonic() + 2.0  # a day of 8 queries takes about 0.2 s
        while not gone(child):
            assert time.monotonic() < deadline, "the forked process outlived its caller"
            time.sleep(0.01)
    finally:
        caller.kill()
    assert len(ended_runs(out)) < len(RUN_IDS)
    assert run_experiment(tiny_plan(), out).new_requests > 0
    assert_pinned(out, tmp_path / "report")


def test_a_run_resumed_in_process_leaves_no_sidecar(tmp_path, monkeypatch):
    """A run aborted behind the waiting stand-in, then resumed on the mock,
    has no sidecar left: the mock writes none, and the old one would not
    match the transcript.  The other runs' sidecars stay: they do."""
    out = tmp_path / "experiment"
    wrap_transport(monkeypatch, concurrent=True, fail_tag=OUTAGE_TAG)
    run_experiment(tiny_plan(), out)
    sidecars = {path.stem for path in (out / METRICS_DIR).iterdir()}
    assert sidecars == set(RUN_IDS)
    monkeypatch.setattr(experiments, "build_transport", BUILD_TRANSPORT)
    assert run_experiment(tiny_plan(), out).new_requests == (DAYS - 3) * DAY_REQUESTS
    assert {path.stem for path in (out / METRICS_DIR).iterdir()} == sidecars - {RUN_IDS[1]}
    assert_pinned(out, tmp_path / "report")
