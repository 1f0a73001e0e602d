"""Digest prompt records: `inspect` re-derives them, and format-1 transcripts
(which stored each user prompt in full) still load, skip and report."""
import json
import shutil
from pathlib import Path

import pytest

from esclab import transcript as ts
from esclab.agents import LlmPolicy
from esclab.cli import main
from esclab.client import MockTransport
from esclab.errors import ParseError, ValidationError
from esclab.experiments import inspect_experiment, load_plan, run_experiment
from esclab.mockdata import CalibratedResponder
from esclab.orchestrator import LlmUpdater, Treatment, run_simulation
from esclab.prompts import PromptTemplates, PromptVariant, default_templates, text_sha256
from esclab.report import build_report

DATA = Path(__file__).parent.parent / "src" / "esclab" / "data"
REPORT_FILES = ("summary.csv", "reductions.csv", "daily.csv", "categories.csv", "provenance.json")


def llm_plan(tmp_path, runs=2, extra=""):
    path = tmp_path / "plan.yaml"
    path.write_text(
        f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 3
runs_per_treatment: {runs}
policy: llm
world_updater: llm
transport:
  kind: mock
treatments:
  - {{label: t1.0-default, temperature: 1.0, variant: default}}
  - {{label: t1.0-context, temperature: 1.0, variant: context}}
{extra}
""",
        encoding="utf-8",
    )
    return load_plan(path)


def to_format_1(path: Path) -> None:
    """Rewrite a transcript as format 1 wrote it: no format or visibility in
    the header, no user template, the user text in every prompt record."""
    records = ts.read_records(path)
    for record in records:
        payload = record["payload"]
        if record["type"] == ts.RUN_START:
            del payload["transcript_format"], payload["intra_day_visibility"]
        elif record["type"] == ts.SYSTEM_PROMPT:
            del payload["user_template"]
        elif record["type"] == ts.PROMPT:
            record["payload"] = {
                "user_text": f"Day {record['day']}: the prompt {record['nation']} saw.",
                "system_sha256": payload["system_sha256"],
            }
    ts.rewrite(path, records)


def edit_record(path: Path, match, change) -> None:
    records = ts.read_records(path)
    record = next(r for r in records if match(r))
    change(record["payload"])
    ts.rewrite(path, records)


def report_bytes(manifest: Path, out: Path) -> dict[str, bytes]:
    build_report(manifest, out, include_timestamp=False)
    return {name: (out / name).read_bytes() for name in REPORT_FILES}


@pytest.fixture(scope="module")
def small_experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("digest")
    plan = llm_plan(root)
    run_experiment(plan, root / "out")
    return plan, root / "out"


@pytest.fixture
def experiment_copy(small_experiment, tmp_path):
    plan, out = small_experiment
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return plan, copy


class TestDigestRecords:
    def test_prompt_records_hold_digests_and_header_holds_format(self, small_experiment):
        _, out = small_experiment
        records = ts.read_records(out / "transcripts" / "t1.0-context-r00.jsonl")
        header = records[0]["payload"]
        assert header["transcript_format"] == ts.TRANSCRIPT_FORMAT == 2
        assert header["intra_day_visibility"] is False
        system = records[1]["payload"]
        assert system["user_template"] == default_templates().user
        prompts = [r["payload"] for r in records if r["type"] == ts.PROMPT]
        assert len(prompts) == 14 * 8
        assert all(set(p) == {"user_sha256", "system_sha256"} for p in prompts)
        assert {p["system_sha256"] for p in prompts} == {system["sha256"]}

    def test_custom_templates_are_the_recorded_ones(self, scenario, taxonomy, tmp_path):
        shipped = default_templates()
        templates = PromptTemplates(
            system="CUSTOM " + shipped.system, user="Custom user prompt.\n" + shipped.user
        )
        transport = MockTransport(CalibratedResponder(taxonomy, scenario))
        path = tmp_path / "run.jsonl"
        run_simulation(
            scenario, taxonomy,
            Treatment("t1.0-default", 1.0, PromptVariant.DEFAULT),
            LlmPolicy(transport, model="m", templates=templates),
            LlmUpdater(transport, model="m"),
            seed=0, transcript_path=path,
        )
        records = ts.read_records(path)
        system = records[1]["payload"]
        assert system["text"].startswith("CUSTOM ")
        assert system["sha256"] == text_sha256(system["text"])
        assert system["user_template"] == templates.user
        prompts = [r["payload"] for r in records if r["type"] == ts.PROMPT]
        assert {p["system_sha256"] for p in prompts} == {system["sha256"]}
        assert ts.verify_prompts(path, scenario) == (14 * 8, [])


class TestInspect:
    def test_reference_plan_verifies_every_prompt(self, tmp_path, capsys):
        run_experiment(load_plan(DATA / "plan_reference.yaml"), tmp_path)
        manifest = str(tmp_path / "manifest.json")
        assert main(["inspect", "--manifest", manifest]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"manifest": manifest, "runs": 60, "prompts_verified": 6720}

    def test_intra_day_visibility_prompts_verify(self, tmp_path):
        plan = llm_plan(tmp_path, runs=1, extra="intra_day_visibility: true")
        run_experiment(plan, tmp_path / "out")
        manifest = tmp_path / "out" / "manifest.json"
        result = inspect_experiment(manifest)
        assert (result.runs, result.prompts, result.mismatches) == (2, 224, [])
        # The check sees the visibility: rendered without it, every prompt
        # after each day's first nation differs.
        path = tmp_path / "out" / "transcripts" / "t1.0-default-r00.jsonl"
        edit_record(path, lambda r: r["type"] == ts.RUN_START,
                    lambda p: p.update(intra_day_visibility=False))
        assert len(inspect_experiment(manifest).mismatches) == 14 * 7

    def test_edited_day_summary_fails(self, experiment_copy, capsys):
        _, out = experiment_copy
        path = out / "transcripts" / "t1.0-default-r01.jsonl"
        edit_record(path, lambda r: r["type"] == ts.DAY and r["day"] == 3,
                    lambda p: p.update(summary=p["summary"] + " Edited."))
        result = inspect_experiment(out / "manifest.json")
        assert len(result.mismatches) == 8
        assert all(line.startswith("transcripts/t1.0-default-r01.jsonl seq ")
                   and "(day 4, " in line and "user_sha256 not re-derived" in line
                   for line in result.mismatches)
        assert main(["inspect", "--manifest", str(out / "manifest.json")]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "ValidationError"
        assert error["message"].startswith("8 prompt digest mismatches in 448 prompts of 4 runs")

    def test_edited_user_digest_fails(self, experiment_copy):
        _, out = experiment_copy
        path = out / "transcripts" / "t1.0-context-r00.jsonl"
        edit_record(path, lambda r: r["type"] == ts.PROMPT and r["day"] == 9
                    and r["nation"] == "Purple",
                    lambda p: p.update(user_sha256="0" * 64))
        seq = next(r["seq"] for r in ts.read_records(path)
                   if r["type"] == ts.PROMPT and r["day"] == 9 and r["nation"] == "Purple")
        result = inspect_experiment(out / "manifest.json")
        assert result.mismatches == [
            f"transcripts/t1.0-context-r00.jsonl seq {seq} (day 9, Purple): "
            "user_sha256 not re-derived"
        ]

    def test_format_1_transcript_is_not_passed_unchecked(self, experiment_copy):
        _, out = experiment_copy
        to_format_1(out / "transcripts" / "t1.0-default-r00.jsonl")
        with pytest.raises(ValidationError, match="t1.0-default-r00.jsonl is in format 1"):
            inspect_experiment(out / "manifest.json")

    def test_missing_digest_is_a_mismatch_and_missing_template_an_error(
        self, experiment_copy
    ):
        _, out = experiment_copy
        path = out / "transcripts" / "t1.0-default-r00.jsonl"
        edit_record(path, lambda r: r["type"] == ts.PROMPT, lambda p: p.pop("user_sha256"))
        assert len(inspect_experiment(out / "manifest.json").mismatches) == 1
        edit_record(path, lambda r: r["type"] == ts.SYSTEM_PROMPT,
                    lambda p: p.pop("user_template"))
        with pytest.raises(ParseError, match="lacks the field 'user_template'"):
            inspect_experiment(out / "manifest.json")


class TestFormat1Transcripts:
    def test_completed_format_1_runs_load_skip_and_report_identically(
        self, experiment_copy, tmp_path
    ):
        plan, out = experiment_copy
        paths = sorted((out / "transcripts").iterdir())
        runs = [ts.load_run(path) for path in paths]
        manifest = out / "manifest.json"
        manifest_bytes = manifest.read_bytes()
        before = report_bytes(manifest, tmp_path / "report-2")
        for path in paths:
            to_format_1(path)
        old_bytes = [path.read_bytes() for path in paths]
        assert [ts.load_run(path) for path in paths] == runs

        again = run_experiment(plan, out)
        assert (again.skipped, again.new_requests) == (4, 0)
        assert [path.read_bytes() for path in paths] == old_bytes
        assert manifest.read_bytes() == manifest_bytes
        assert report_bytes(manifest, tmp_path / "report-1") == before

    def test_completed_format_1_run_is_returned_by_run_simulation(
        self, experiment_copy, scenario, taxonomy
    ):
        _, out = experiment_copy
        path = out / "transcripts" / "t1.0-default-r00.jsonl"
        to_format_1(path)
        old = path.read_bytes()
        transport = MockTransport("unused")
        run = run_simulation(
            scenario, taxonomy,
            Treatment("t1.0-default", 1.0, PromptVariant.DEFAULT),
            LlmPolicy(transport, model="m"),
            LlmUpdater(transport, model="m"),
            seed=ts.load_run(path).seed, transcript_path=path, run_id="t1.0-default-r00",
        )
        assert run == ts.load_run(path)
        assert transport.request_count == 0
        assert path.read_bytes() == old

    def test_partial_format_1_transcript_is_refused_not_resumed(self, experiment_copy):
        plan, out = experiment_copy
        path = out / "transcripts" / "t1.0-context-r01.jsonl"
        to_format_1(path)
        records = ts.read_records(path)
        day_3 = max(i for i, r in enumerate(records) if r["type"] == ts.DAY and r["day"] == 3)
        ts.rewrite(path, records[: day_3 + 5])
        partial = path.read_bytes()
        with pytest.raises(ValidationError, match="format 1, not 2"):
            run_experiment(plan, out)
        assert path.read_bytes() == partial
