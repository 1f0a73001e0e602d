"""Replay from transcripts: ``ReplayTransport`` answers each request with
the reply recorded at the place its tag names, and a request that differs
from its recording (a changed scenario, template, world-update prompt,
temperature or model) or that no transcript holds aborts its run with a
``TransportError`` naming the tag, never passing silently.  ``inspect``
replays every run of an experiment that way."""
import dataclasses
import json
import re
import shutil
from pathlib import Path

import pytest

from esclab import experiments, orchestrator
from esclab import transcript as ts
from esclab.agents import LlmPolicy
from esclab.cli import main
from esclab.client import MockTransport, chat_request, complete
from esclab.errors import AuthError, BudgetExceeded, ParseError, TransportError, ValidationError
from esclab.experiments import (
    METRICS_DIR,
    ReplayTransport,
    inspect_experiment,
    load_plan,
    run_experiment,
)
from esclab.mockdata import CalibratedResponder
from esclab.orchestrator import LlmUpdater, Treatment, run_simulation
from esclab.prompts import PromptVariant, default_templates

from test_corrupt_transcripts import without_day
from test_transcript_format import reseal

DATA = Path(__file__).parent.parent / "src" / "esclab" / "data"
RUN_ID = "t1.0-default-r00"
FIRST_TAG = f"{RUN_ID}|d01|Blue|a1"  # the first request of an inline run
TRANSCRIPT = f"transcripts/{RUN_ID}.jsonl"


def write_plan(root: Path, extra="") -> Path:
    """A one-run LLM plan on the neutral scenario and the mock, in ``root``."""
    path = root / "plan.yaml"
    path.write_text(
        f"scenario: {DATA / 'neutral_scenario.yaml'}\n"
        f"taxonomy: {DATA / 'default_taxonomy.yaml'}\n"
        "base_seed: 5\nruns_per_treatment: 1\npolicy: llm\nworld_updater: llm\n"
        "transport: {kind: mock}\n"
        "treatments: [{label: t1.0-default, temperature: 1.0, variant: default}]\n"
        f"{extra}",
        encoding="utf-8",
    )
    return path


@pytest.fixture(scope="module")
def recorded(tmp_path_factory) -> Path:
    """The output directory of the one-run plan played on the mock."""
    root = tmp_path_factory.mktemp("recorded")
    run_experiment(load_plan(write_plan(root)), root / "out")
    return root / "out"


@pytest.fixture
def source(recorded, tmp_path) -> Path:
    """A copy of ``recorded`` to edit."""
    shutil.copytree(recorded, tmp_path / "source")
    return tmp_path / "source"


@pytest.fixture
def unplayed(monkeypatch):
    """Make ``inspect`` fail the test if it plays a run."""
    monkeypatch.setattr(experiments, "play_runs", lambda *args: pytest.fail("a run was played"))


class TestReplay:
    def test_experiment_replays_every_request_to_the_same_bytes(self, recorded):
        inspected = inspect_experiment(recorded / "manifest.json")
        assert (inspected.runs, inspected.requests, inspected.mismatches) == (1, 14 * 9, [])
        assert not (recorded / METRICS_DIR).exists()  # an in-process transport's run

    def test_changed_scenario_text_is_named_with_the_replays_abort(self, source, capsys):
        scenario = source / "scenario.yaml"
        text = (DATA / "neutral_scenario.yaml").read_text(encoding="utf-8")
        scenario.write_text(text.replace("No armed conflict", "No open conflict"),
                            encoding="utf-8")
        manifest = json.loads((source / "manifest.json").read_text(encoding="utf-8"))
        (source / "manifest.json").write_text(
            json.dumps({**manifest, "scenario_path": str(scenario)}), encoding="utf-8")
        # The replay ends on its first request: run_start, system_prompt, run_end.
        mismatch = (f"{TRANSCRIPT}: seq 2 (day None, nation None, run_end) differs from its "
                    f"replay; its replay aborted: TransportError: replay: request "
                    f"{FIRST_TAG!r} differs from its recording in user prompt")
        assert inspect_experiment(source / "manifest.json").mismatches == [mismatch]
        assert main(["inspect", "--manifest", str(source / "manifest.json")]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValidationError", "message": (
            f"1 of 1 transcripts differ from their replay; first: {mismatch}")}

    def test_torn_source_transcript_is_refused_before_any_request(self, source, unplayed):
        path = source / TRANSCRIPT
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ParseError, match=f"{RUN_ID}.jsonl"):
            inspect_experiment(source / "manifest.json")

    def test_source_transcript_without_a_day_is_refused_before_any_request(self, source,
                                                                          unplayed):
        path = source / TRANSCRIPT
        kept = without_day(ts.read_records(path), 5)
        reseal(path, [{**record, "seq": seq} for seq, record in enumerate(kept)])
        with pytest.raises(ValidationError, match=f"{RUN_ID}.jsonl day 5: "):
            inspect_experiment(source / "manifest.json")

    def test_request_no_transcript_holds_names_its_tag(self, recorded):
        transport = ReplayTransport([recorded / TRANSCRIPT])
        for tag in (f"{RUN_ID}|d15|Blue|a1", f"{RUN_ID}|d01|Blue|a9", "other-r00|d01|Blue|a1"):
            with pytest.raises(TransportError, match=re.escape(
                    f"no recorded transcript holds a call tagged {tag!r}")):
                complete(transport, chat_request("m", "s", "u", 1.0, request_tag=tag))


    def test_budget_aborted_experiment_replays_to_its_own_aborts(self, tmp_path, caplog,
                                                                 one_process):
        """A two-run plan whose budget runs out: ``inspect`` ends each run
        where and as it ended, answering each of the requests made, and logs
        none of the aborts it replays (in one process, where the test sees
        the log)."""
        plan = write_plan(tmp_path, "max_requests: 200\n")
        text = plan.read_text(encoding="utf-8")
        plan.write_text(text.replace("runs_per_treatment: 1", "runs_per_treatment: 2")
                        .replace("world_updater: llm", "world_updater: template"),
                        encoding="utf-8")
        first = run_experiment(load_plan(plan), tmp_path / "out")
        assert [(run.status, run.abort_reason) for run in first.runs] == [
            ("completed", None), ("aborted", "BudgetExceeded: request budget of 200 exhausted")]
        caplog.clear()
        inspected = inspect_experiment(tmp_path / "out" / "manifest.json")
        assert (inspected.requests, inspected.mismatches) == (first.new_requests, [])
        assert caplog.records == []


@pytest.mark.parametrize("error", [
    TransportError("endpoint down"), AuthError("endpoint rejected credential"),
    BudgetExceeded("request budget of 20 exhausted"),
], ids=["transport", "auth", "budget"])
def test_aborted_run_replays_to_its_own_abort(scenario, taxonomy, tmp_path, error):
    """On the day a run aborted, the replay raises the error that its
    run_end names again, so the run ends with the same bytes."""
    short = dataclasses.replace(scenario, days=2)
    calibrated = CalibratedResponder(taxonomy, short)

    def respond(request):
        if request.request_tag == f"{RUN_ID}|d02|Green|a1":
            raise error
        return calibrated(request)

    def play(transport, name):
        return run_simulation(short, taxonomy, Treatment("t1.0-default", 1.0,
                                                         PromptVariant.DEFAULT),
                              LlmPolicy(transport, model="m"), LlmUpdater(transport, model="m"),
                              seed=1, transcript_path=tmp_path / name, run_id=RUN_ID)

    run = play(MockTransport(respond), "recorded.jsonl")
    assert (run.status, run.abort_reason) == ("aborted", f"{type(error).__name__}: {error}")
    assert play(ReplayTransport([tmp_path / "recorded.jsonl"]), "replayed.jsonl") == run
    assert (tmp_path / "replayed.jsonl").read_bytes() == (tmp_path / "recorded.jsonl").read_bytes()


class TestChangedPrompts:
    """A prompt the code renders otherwise than at the recording: the
    replayed run aborts at the first request it changes."""

    @pytest.fixture
    def played(self, scenario, taxonomy, tmp_path):
        short = dataclasses.replace(scenario, days=2)

        def play(transport, path, templates=None, temperature=1.0, model="m"):
            return run_simulation(short, taxonomy,
                                  Treatment("t1.0-default", temperature, PromptVariant.DEFAULT),
                                  LlmPolicy(transport, model=model, templates=templates),
                                  LlmUpdater(transport, model=model), seed=1,
                                  transcript_path=tmp_path / path, run_id=RUN_ID)

        transport = MockTransport(CalibratedResponder(taxonomy, short))
        assert play(transport, "recorded.jsonl").completed
        return lambda **kwargs: play(ReplayTransport([tmp_path / "recorded.jsonl"]),
                                     "replayed.jsonl", **kwargs)

    @pytest.mark.parametrize("part", ["user", "system"])
    def test_changed_template(self, played, part):
        shipped = default_templates()
        templates = dataclasses.replace(
            shipped, **{part: getattr(shipped, part) + "\nAnswer in one line."})
        run = played(templates=templates)
        assert (run.status, len(run.days)) == ("aborted", 0)
        assert run.abort_reason == (f"TransportError: replay: request {FIRST_TAG!r} differs "
                                    f"from its recording in {part} prompt")

    @pytest.mark.parametrize("sampling, differs", [
        ({"temperature": 0.5}, "temperature"),
        ({"model": "another-model"}, "model"),
    ], ids=["temperature", "model"])
    def test_other_sampling_or_model(self, played, sampling, differs):
        run = played(**sampling)
        assert (run.status, len(run.days)) == ("aborted", 0)
        assert run.abort_reason == (f"TransportError: replay: request {FIRST_TAG!r} differs "
                                    f"from its recording in {differs}")

    def test_changed_world_update_prompt(self, played, monkeypatch):
        render = orchestrator.render_update_text
        monkeypatch.setattr(orchestrator, "render_update_text",
                            lambda *args: render(*args) + " Be brief.")
        run = played()
        assert (run.status, len(run.days)) == ("aborted", 0)
        assert run.abort_reason == (f"TransportError: replay: request '{RUN_ID}|d01|world' "
                                    "differs from its recording in user prompt")

    def test_unchanged_code_replays_the_same_bytes(self, played, tmp_path):
        assert played().completed
        assert (tmp_path / "replayed.jsonl").read_bytes() == (
            tmp_path / "recorded.jsonl").read_bytes()


def test_reply_with_unicode_line_breaks_replays(scenario, taxonomy, tmp_path):
    short = dataclasses.replace(scenario, days=2)
    calibrated = CalibratedResponder(taxonomy, short)

    def respond(request):
        if request.request_tag.endswith("|world"):
            return "Calm.\u2028Tense.\u2029Calm.\x85Calm."
        return calibrated(request)

    def play(transport, name):
        return run_simulation(short, taxonomy, Treatment("t1.0-default", 1.0,
                                                         PromptVariant.DEFAULT),
                              LlmPolicy(transport, model="m"), LlmUpdater(transport, model="m"),
                              seed=1, transcript_path=tmp_path / name, run_id=RUN_ID)

    run = play(MockTransport(respond), "recorded.jsonl")
    assert run.days[0].world_summary_after == "Calm.\u2028Tense.\u2029Calm.\x85Calm."
    assert play(ReplayTransport([tmp_path / "recorded.jsonl"]), "replayed.jsonl") == run
    assert (tmp_path / "replayed.jsonl").read_bytes() == (tmp_path / "recorded.jsonl").read_bytes()
