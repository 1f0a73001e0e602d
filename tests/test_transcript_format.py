"""Format 3 stores each fact once: every record type holds exactly its pinned
payload keys, `inspect` re-derives each prompt digest, and a transcript in an
older format (format 1 stored each user prompt in full, format 2 copied six
fields) is refused by every reader, completed or partial, and left as it is."""
import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from esclab import transcript as ts
from esclab.agents import LlmPolicy, load_script
from esclab.cli import main
from esclab.client import MockTransport
from esclab.errors import ParseError, TransportError, ValidationError
from esclab.experiments import inspect_experiment, load_plan, run_experiment, run_seed
from esclab.mockdata import CalibratedResponder
from esclab.orchestrator import LlmUpdater, TemplateUpdater, Treatment, run_simulation
from esclab.prompts import PromptTemplates, PromptVariant, default_templates, text_sha256
from esclab.report import build_report

DATA = Path(__file__).parent.parent / "src" / "esclab" / "data"


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


def to_format_2(path: Path) -> None:
    """Rewrite a transcript as format 2 wrote it, with the six fields format 3
    no longer copies."""
    records = ts.read_records(path)
    header = records[0]["payload"]
    header["transcript_format"] = 2
    treatment = header["treatment"]
    system_sha256 = next(r["payload"]["sha256"] for r in records if r["type"] == ts.SYSTEM_PROMPT)
    for record in records:
        payload = record["payload"]
        if record["type"] == ts.SYSTEM_PROMPT:
            payload["variant"] = treatment["variant"]
        elif record["type"] == ts.PROMPT:
            payload["system_sha256"] = system_sha256
        elif record["type"] == ts.LLM_CALL:
            payload["temperature"] = treatment["temperature"]
        elif record["type"] == ts.TURN:
            payload["nation"] = record["nation"]
            for action in payload["actions"]:
                action["raw_text"] = json.dumps(action, sort_keys=True)
        elif record["type"] == ts.RUN_END:
            payload["days_completed"] = sum(r["type"] == ts.DAY for r in records)
    ts.rewrite(path, records)


def to_format_1(path: Path) -> None:
    """Rewrite a transcript as format 1 wrote it: format 2 without a format or
    visibility in the header or a user template, and with the user text in
    every prompt record."""
    to_format_2(path)
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


# The payload keys of each record type, and of each action of a turn.
PAYLOAD_KEYS = {
    ts.RUN_START: {"transcript_format", "run_id", "scenario_name", "days", "seed", "treatment",
                   "taxonomy_version", "intra_day_visibility"},
    ts.SYSTEM_PROMPT: {"sha256", "text", "user_template"},
    ts.PROMPT: {"user_sha256"},
    ts.LLM_CALL: {"tag", "model", "max_tokens", "content", "finish_reason", "latency",
                  "attempt_count"},
    ts.PARSE_FAILURE: {"nation", "attempt", "reason", "detail", "content"},
    ts.TURN: {"actions", "private_thoughts", "parse_attempts", "fallback", "deviations"},
    ts.DAY: {"scores", "summary"},
    ts.RUN_END: {"status", "reason"},
}
ACTION_KEYS = {"action", "target"}


class TestPayloadKeys:
    def _key_sets(self, path: Path) -> dict[str, set[frozenset]]:
        key_sets: dict[str, set[frozenset]] = {}
        for record in ts.read_records(path):
            key_sets.setdefault(record["type"], set()).add(frozenset(record["payload"]))
            if record["type"] == ts.TURN:
                key_sets.setdefault("action", set()).update(
                    frozenset(action) for action in record["payload"]["actions"]
                )
        return key_sets

    def test_every_record_type_holds_exactly_its_keys(self, scenario, taxonomy, tmp_path):
        short = dataclasses.replace(scenario, days=3)
        calibrated = CalibratedResponder(taxonomy, short)

        def respond(request):
            if "|d03|Purple|" in request.request_tag:
                raise TransportError("endpoint outage")
            if "|Red|a1" in request.request_tag:
                return "no decision today"
            return calibrated(request)

        transport = MockTransport(respond)
        llm = tmp_path / "llm.jsonl"
        run = run_simulation(
            short, taxonomy, Treatment("t1.0-default", 1.0, PromptVariant.DEFAULT),
            LlmPolicy(transport, model="m"), LlmUpdater(transport, model="m"),
            seed=5, transcript_path=llm,
        )
        assert run.status == "aborted"
        scripted = tmp_path / "scripted.jsonl"
        run_simulation(
            short, taxonomy, Treatment("t0.5-context", 0.5, PromptVariant.CONTEXT),
            load_script(DATA / "demo_script.yaml"), TemplateUpdater(),
            seed=5, transcript_path=scripted,
        )
        expected = {type_: {frozenset(keys)} for type_, keys in PAYLOAD_KEYS.items()}
        expected["action"] = {frozenset(ACTION_KEYS)}
        assert self._key_sets(llm) == expected
        scripted_types = {ts.RUN_START, ts.SYSTEM_PROMPT, ts.TURN, ts.DAY, ts.RUN_END, "action"}
        assert self._key_sets(scripted) == {type_: expected[type_] for type_ in scripted_types}


class TestDigestRecords:
    def test_prompt_records_hold_digests_and_header_holds_format(self, small_experiment):
        _, out = small_experiment
        records = ts.read_records(out / "transcripts" / "t1.0-context-r00.jsonl")
        header = records[0]["payload"]
        assert header["transcript_format"] == ts.TRANSCRIPT_FORMAT == 3
        assert header["intra_day_visibility"] is False
        system = records[1]["payload"]
        assert system["user_template"] == default_templates().user
        prompts = [r["payload"] for r in records if r["type"] == ts.PROMPT]
        assert len(prompts) == 14 * 8
        assert all(set(p) == {"user_sha256"} for p in prompts)

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


class TestOlderFormats:
    @pytest.mark.parametrize(
        "reader", ["load_run", "build_report", "run_experiment", "run_simulation", "inspect"]
    )
    @pytest.mark.parametrize("state", ["completed", "partial"])
    @pytest.mark.parametrize("version", [1, 2])
    def test_transcript_is_refused_and_left_as_it_is(
        self, experiment_copy, tmp_path, scenario, taxonomy, version, state, reader
    ):
        plan, out = experiment_copy
        path = out / "transcripts" / "t1.0-default-r00.jsonl"
        manifest = out / "manifest.json"
        if state == "partial":
            records = ts.read_records(path)
            day_3 = max(i for i, r in enumerate(records) if r["type"] == ts.DAY and r["day"] == 3)
            ts.rewrite(path, records[: day_3 + 5])
        {1: to_format_1, 2: to_format_2}[version](path)
        before = {file: file.read_bytes() for file in (path, manifest)}
        transport = MockTransport("unused")
        read = {
            "load_run": lambda: ts.load_run(path),
            "build_report": lambda: build_report(manifest, tmp_path / "report"),
            "run_experiment": lambda: run_experiment(plan, out),
            "run_simulation": lambda: run_simulation(
                scenario, taxonomy,
                Treatment("t1.0-default", 1.0, PromptVariant.DEFAULT),
                LlmPolicy(transport, model="m"),
                LlmUpdater(transport, model="m"),
                seed=run_seed(3, "t1.0-default", 0), transcript_path=path,
                run_id="t1.0-default-r00",
            ),
            "inspect": lambda: inspect_experiment(manifest),
        }[reader]
        with pytest.raises(
            ValidationError, match=f"t1.0-default-r00.jsonl is in format {version}, not 3"
        ):
            read()
        assert transport.request_count == 0
        assert {file: file.read_bytes() for file in before} == before
