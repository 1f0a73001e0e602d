"""Pinned bytes of a tiny calibrated-mock experiment, by every execution path.

The shipped reference plan cut to two treatments (the default prompt and a
reflection variant) with two runs each.  Every transcript, the manifest
(with the data directory's path replaced by a placeholder, so the digest
holds wherever the checkout lives) and every report CSV must hash to the
digests below, so a change meant to leave the output alone is checked byte
for byte.  A change that means to alter the output re-pins them and says why.

Each row of the matrix plays the plan by one path and checks evidence that
the path was taken: on the calling thread, with the runs in overlap on
the transport's in-flight cap of threads, or replayed from the transcripts
of a recording.  ``plan_digest`` leaves out the
transport and ``max_requests``, so one manifest digest holds on every row.
Not rows: ``esclab simulate``, whose one-run plan gets other calibrated
replies (``test_cli.py`` pins it), and ``perfbench``'s ``LatencyTransport``,
which garbles replies (``perfbench/expected.json`` pins it).
"""
import dataclasses
import hashlib
import json
import sys
import threading
from functools import cache, partial
from pathlib import Path

import pytest

from esclab import experiments
from esclab import transcript as ts
from esclab.experiments import METRICS_DIR, load_plan, run_experiment
from esclab.report import build_report

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


# --- the rows: each plays the tiny plan into ``out`` and checks its evidence

def play_straight(out, tmp_path, monkeypatch, concurrent, max_in_flight=None):
    built = wrap_transport(monkeypatch, concurrent, max_in_flight=max_in_flight)
    # Threads switch as often as they can, so a lost update would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_experiment(tiny_plan(), out).new_requests == REQUESTS
    finally:
        sys.setswitchinterval(interval)
    assert_threads(built[0], concurrent)


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


def play_abort_resume(out, tmp_path, monkeypatch, concurrent, replay=False):
    """One run aborts on a transport error on day 4, then a re-run plays
    its lost days.  With ``replay``, the first pass is also replayed from
    its transcripts into a fresh directory, the abort included, byte for
    byte.  Waiting, every run's metrics sidecar ends with one line per
    ``llm_call`` of its transcript, in order: the aborted run's lost day is
    gone from both."""
    built = wrap_transport(monkeypatch, concurrent, fail_tag=OUTAGE_TAG)
    first = run_experiment(tiny_plan(), out)
    assert [run.status for run in first.runs] == ["completed", "aborted", "completed", "completed"]
    aborted = first.runs[1]
    assert aborted.abort_reason == "TransportError: endpoint outage"
    assert len(aborted.days) == 3
    assert_threads(built[0], concurrent)
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


def play_budget_resume(out, tmp_path, monkeypatch, concurrent):
    """In process the runs exhaust the budget in order.  In overlap which
    runs it cuts depends on timing, so the row checks what holds whatever
    the order: every run that did not complete aborted on the budget with
    only whole days kept, and the re-run makes the requests of the days
    the first pass did not keep."""
    built = wrap_transport(monkeypatch, concurrent)
    first = run_experiment(tiny_plan(max_requests=BUDGET), out)
    assert_threads(built[0], concurrent)
    assert first.new_requests == BUDGET
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["runs"]
    statuses = [run["status"] for run in manifest]
    if not concurrent:
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
    "concurrent-days": partial(play_straight, concurrent=True),
    "overlap-width-1": partial(play_straight, concurrent=True, max_in_flight=1),
    "record-replay": play_record_replay,
    "record-replay+transient-retry": partial(play_record_replay, busy_tag=BUSY_TAG),
    "abort-resume": partial(play_abort_resume, concurrent=False),
    "abort-resume+concurrent-days": partial(play_abort_resume, concurrent=True),
    "abort-replay+concurrent-days": partial(play_abort_resume, concurrent=True, replay=True),
    "budget-resume": partial(play_budget_resume, concurrent=False),
    "budget-resume+concurrent-days": partial(play_budget_resume, concurrent=True),
    "kill-resume": play_kill_resume,
}


@pytest.mark.parametrize("path", ROWS)
def test_tiny_reference_experiment_bytes_are_pinned(path, tmp_path, monkeypatch):
    out = tmp_path / "experiment"
    ROWS[path](out, tmp_path, monkeypatch)
    assert_pinned(out, tmp_path / "report")
