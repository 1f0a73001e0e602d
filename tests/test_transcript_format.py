"""Format 8 stores each fact once and only what the model said, names in
its header what produced the run, writes one record per model call and
seals a finished transcript:
every record type holds exactly its pinned payload keys, the records alone
rebuild what a record's place gives (request tags, attempts, the reply a
parse failure refuses and a turn's private thoughts), a re-run by
another model, policy, script, world updater or retry count is refused
before any request, `inspect` re-derives each prompt digest and lists the
transcripts whose bytes no longer match their seal, a sealed transcript is
read as a broken-seal one is while only the records a reader uses are
decoded, a no-op re-run decodes two lines of a sealed completed transcript
and its skipped run reads the days later, only from the file the skip saw,
and a transcript in an older format (format 1 stored each user prompt in
full, format 2 copied six fields, format 3 had no seal, format 4 named no
producer in its header and wrote a prompt record per query, format 5 had a
flag for sequential moves in its header, format 6 copied five fields that a
record's place gives, format 7 held each call's latency and attempt count
and no world update digest) is refused by every reader, the replay loader
among them, completed or partial, and left as it is."""
import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from conftest import force_processes, small_scenario
from esclab import experiments, orchestrator
from esclab import transcript as ts
from esclab.agents import LlmPolicy, _first_json_object, load_script
from esclab.cli import main
from esclab.client import MockTransport
from esclab.errors import ParseError, TransportError, ValidationError
from esclab.experiments import inspect_experiment, load_plan, run_experiment, run_seed
from esclab.mockdata import CalibratedResponder
from esclab.orchestrator import LlmUpdater, TemplateUpdater, Treatment, run_simulation
from esclab.prompts import (
    REFLECTION_VARIANTS,
    PromptTemplates,
    PromptVariant,
    default_templates,
    text_sha256,
)
from esclab.report import build_report
from esclab.scenario import load_scenario
from esclab.taxonomy import load_taxonomy

from standins import EndpointStandIn

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


# What format 5 added to the run header.
PRODUCER_KEYS = ("model", "max_tokens", "max_parse_retries", "policy", "world_updater")


def reseal(path: Path, records: list[dict]) -> None:
    """Write ``records`` to ``path``, sealed if they end in a run_end."""
    end = records.pop()["payload"] if records[-1]["type"] == ts.RUN_END else None
    writer = ts.TranscriptWriter(path, records)
    if end is not None:
        writer.write(ts.RUN_END, {"status": end["status"], "reason": end["reason"]})
    writer.close()


def dropped_fields(records: list[dict]) -> dict[int, dict]:
    """What format 7 does not write, rebuilt from the records alone, by seq:
    each ``llm_call``'s ``tag``, each parse failure's ``attempt`` and the
    ``content`` it refuses, and each turn's ``parse_attempts`` and
    ``private_thoughts``.  A nation's calls of a day are its attempts in
    order; a parse failure follows the call it refuses, a turn the call it
    accepts (none for a fallback or a scripted turn), whose JSON holds the
    thoughts under a reflection variant."""
    header = records[0]["payload"]
    expects = PromptVariant(header["treatment"]["variant"]) in REFLECTION_VARIANTS
    calls: dict[tuple, list[dict]] = {}
    fields = {}
    for record in records:
        key = (record["day"], record["nation"])
        here = calls.setdefault(key, [])
        if record["type"] == ts.LLM_CALL:
            here.append(record)
            fields[record["seq"]] = {"tag": ts.request_tag(header["run_id"], *key, len(here))}
        elif record["type"] == ts.PARSE_FAILURE:
            fields[record["seq"]] = {"attempt": len(here),
                                     "content": here[-1]["payload"]["content"]}
        elif record["type"] == ts.TURN:
            thoughts = None
            if expects and here and not record["payload"]["fallback"]:
                reply = _first_json_object(here[-1]["payload"]["content"])
                thoughts = reply.get("private_thoughts")
            fields[record["seq"]] = {"parse_attempts": len(here) or 1,
                                     "private_thoughts": thoughts}
    return fields


def to_format_7(path: Path) -> None:
    """Rewrite a transcript as format 7 wrote it: each llm_call with the
    latency and attempt count that the mock gives, and no world update with
    a user digest."""
    records = ts.read_records(path)
    records[0]["payload"]["transcript_format"] = 7
    for record in records:
        if record["type"] == ts.LLM_CALL:
            record["payload"].update(latency=0.0, attempt_count=1)
            if record["nation"] is None:
                del record["payload"]["user_sha256"]
    reseal(path, records)


def to_format_6(path: Path) -> None:
    """Rewrite a transcript as format 6 wrote it: format 7 with the five
    fields that a record's place gives copied into its payload."""
    to_format_7(path)
    records = ts.read_records(path)
    records[0]["payload"]["transcript_format"] = 6
    fields = dropped_fields(records)
    for record in records:
        record["payload"].update(fields.get(record["seq"], {}))
    reseal(path, records)


def to_format_5(path: Path) -> None:
    """Rewrite a transcript as format 5 wrote it: format 6 with
    ``intra_day_visibility`` false in the header."""
    to_format_6(path)
    records = ts.read_records(path)
    records[0]["payload"].update(transcript_format=5, intra_day_visibility=False)
    reseal(path, records)


def to_format_4(path: Path) -> None:
    """Rewrite a transcript as format 4 wrote it: format 5 with no producer in
    the header, the model and max_tokens in every llm_call, and a query's user
    digest in a prompt record before its first attempt's call."""
    to_format_5(path)
    records = ts.read_records(path)
    header = records[0]["payload"]
    old = []
    for record in records:
        payload = record["payload"]
        if record["type"] == ts.LLM_CALL:
            if "user_sha256" in payload:
                digest = {"user_sha256": payload.pop("user_sha256")}
                old.append({**record, "type": "prompt", "payload": digest})
            payload.update(model=header["model"], max_tokens=header["max_tokens"])
        old.append(record)
    for key in PRODUCER_KEYS:
        del header[key]
    header["transcript_format"] = 4
    for seq, record in enumerate(old):
        record["seq"] = seq
    reseal(path, old)


def to_format_3(path: Path) -> None:
    """Rewrite a transcript as format 3 wrote it: format 4 without a seal,
    and with each parse failure's nation in its payload."""
    to_format_4(path)
    records = ts.read_records(path)
    records[0]["payload"]["transcript_format"] = 3
    for record in records:
        if record["type"] == ts.RUN_END:
            del record["payload"]["sha256"]
        elif record["type"] == ts.PARSE_FAILURE:
            record["payload"]["nation"] = record["nation"]
    ts.rewrite(path, records)


def to_format_2(path: Path) -> None:
    """Rewrite a transcript as format 2 wrote it, with the six fields format 3
    no longer copies."""
    to_format_3(path)
    records = ts.read_records(path)
    header = records[0]["payload"]
    header["transcript_format"] = 2
    treatment = header["treatment"]
    system_sha256 = next(r["payload"]["sha256"] for r in records if r["type"] == ts.SYSTEM_PROMPT)
    for record in records:
        payload = record["payload"]
        if record["type"] == ts.SYSTEM_PROMPT:
            payload["variant"] = treatment["variant"]
        elif record["type"] == "prompt":
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
        elif record["type"] == "prompt":
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


# The payload keys of each record type, and of each action of a turn.  Only
# the llm_call of an agent query's first attempt or of a world update holds
# ``user_sha256``.
PAYLOAD_KEYS = {
    ts.RUN_START: {"transcript_format", "run_id", "scenario_name", "days", "seed", "treatment",
                   "taxonomy_version", *PRODUCER_KEYS},
    ts.SYSTEM_PROMPT: {"sha256", "text", "user_template"},
    ts.LLM_CALL: {"content", "finish_reason", "user_sha256"},
    ts.PARSE_FAILURE: {"reason", "detail"},
    ts.TURN: {"actions", "fallback", "deviations"},
    ts.DAY: {"scores", "summary"},
    ts.RUN_END: {"status", "reason", "sha256"},
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
        expected[ts.LLM_CALL].add(frozenset(PAYLOAD_KEYS[ts.LLM_CALL] - {"user_sha256"}))
        expected["action"] = {frozenset(ACTION_KEYS)}
        assert self._key_sets(llm) == expected
        scripted_types = {ts.RUN_START, ts.SYSTEM_PROMPT, ts.TURN, ts.DAY, ts.RUN_END, "action"}
        assert self._key_sets(scripted) == {type_: expected[type_] for type_ in scripted_types}


# The attempts whose replies are garbled: d01 Alpha retries once, d02 Beta
# falls back after three attempts, d03 Gamma succeeds on its third.
GARBLED = {"d01|Alpha|a1": "no decision", "d02|Beta|a1": '{"actions": [',
           "d02|Beta|a2": '{"actions": [{"action": "unlisted_action"}]}',
           "d02|Beta|a3": "later", "d03|Gamma|a1": "[]", "d03|Gamma|a2": "{}"}


class TestRecordsRebuildWhatIsNotWritten:
    def test_tags_attempts_replies_and_fallbacks(self, taxonomy, tmp_path, monkeypatch):
        scenario = small_scenario(n_nations=3, days=3)
        replies = {}

        def respond(request):
            tag = request.request_tag
            reply = GARBLED.get(tag.split("|", 1)[1]) or json.dumps(
                {"private_thoughts": f"Thoughts for {tag}.", "actions": [{"action": "wait"}]})
            replies[tag] = reply
            return reply

        decide = orchestrator.decide_with_retry
        turns, replies_by_turn = {}, {}

        def recording(policy, world, nation, *args, recorder, **kwargs):
            key = world.current_day + 1, nation
            replies = replies_by_turn[key] = []

            def record(type_, payload):
                if type_ == ts.LLM_CALL:
                    replies.append(payload["content"])
                recorder(type_, payload)

            turn = turns[key] = decide(policy, world, nation, *args, recorder=record, **kwargs)
            return turn

        monkeypatch.setattr(orchestrator, "decide_with_retry", recording)
        endpoint = EndpointStandIn(MockTransport(respond), scenario.nation_names)
        path = tmp_path / "run.jsonl"
        run = run_simulation(
            scenario, taxonomy,
            Treatment("t1.0-reflection-planning", 1.0, PromptVariant.REFLECTION_PLANNING),
            LlmPolicy(endpoint, model="m"), LlmUpdater(endpoint, model="m"),
            seed=3, transcript_path=path, max_parse_retries=2,
        )
        assert run.completed and len(endpoint.threads) > 1
        records = ts.read_records(path)
        fields = dropped_fields(records)

        def by_nation_day(tags):
            grouped = {}
            for tag in tags:
                grouped.setdefault(tuple(tag.split("|")[1:3]), []).append(tag)
            return grouped

        calls = [r for r in records if r["type"] == ts.LLM_CALL]
        assert by_nation_day(fields[r["seq"]]["tag"] for r in calls) == by_nation_day(
            endpoint.completed)
        failures = [(fields[records[i - 1]["seq"]]["tag"], fields[r["seq"]])
                    for i, r in enumerate(records) if r["type"] == ts.PARSE_FAILURE]
        assert sorted(tag.split("|", 1)[1] for tag, _ in failures) == sorted(GARBLED)
        for tag, failure in failures:
            assert (failure["attempt"], failure["content"]) == (
                int(tag.rsplit("|a", 1)[1]), replies[tag])
        rebuilt = {(r["day"], r["nation"]): (fields[r["seq"]], r["payload"]["fallback"])
                   for r in records if r["type"] == ts.TURN}
        assert rebuilt == {
            key: ({"parse_attempts": len(replies_by_turn[key]),
                   "private_thoughts": None if turn.fallback
                   else json.loads(replies_by_turn[key][-1])["private_thoughts"]},
                  turn.fallback)
            for key, turn in turns.items()
        }
        assert {key: attempts["parse_attempts"] for key, (attempts, _) in rebuilt.items()
                if attempts["parse_attempts"] != 1} == {
            (1, "Alpha"): 2, (2, "Beta"): 3, (3, "Gamma"): 3}
        fallbacks = [key for key, (_, fallback) in rebuilt.items() if fallback]
        assert fallbacks == [(2, "Beta")]
        assert len(fallbacks) == run.fallbacks == ts.load_run(path).fallbacks


class TestDigestRecords:
    def test_first_attempts_hold_digests_and_header_holds_producer(self, small_experiment):
        _, out = small_experiment
        records = ts.read_records(out / "transcripts" / "t1.0-context-r00.jsonl")
        header = records[0]["payload"]
        assert header["transcript_format"] == ts.TRANSCRIPT_FORMAT == 8
        assert {key: header[key] for key in PRODUCER_KEYS} == {
            "model": experiments.DEFAULT_MODEL, "max_tokens": 1024, "max_parse_retries": 3,
            "policy": {"kind": "llm"}, "world_updater": "llm",
        }
        system = records[1]["payload"]
        assert system["user_template"] == default_templates().user
        calls = [r for r in records if r["type"] == ts.LLM_CALL]
        assert sum(r["nation"] is None and "user_sha256" in r["payload"] for r in calls) == 14
        first = [r for r in calls if r["nation"] is not None and "user_sha256" in r["payload"]]
        assert len(first) == 14 * 8
        tags = dropped_fields(records)
        assert all(tags[r["seq"]]["tag"].endswith("|a1") for r in first)
        assert not any(tags[r["seq"]]["tag"].endswith("|a1") for r in calls if r not in first)
        assert "prompt" not in {r["type"] for r in records}

    def test_scripted_header_names_no_model(self, scenario, taxonomy, tmp_path):
        path = tmp_path / "run.jsonl"
        policy = load_script(DATA / "demo_script.yaml")
        run_simulation(scenario, taxonomy, Treatment("t0.5-context", 0.5, PromptVariant.CONTEXT),
                       policy, TemplateUpdater(), seed=5, transcript_path=path,
                       max_parse_retries=1)
        header = ts.read_records(path)[0]["payload"]
        assert {key: header[key] for key in PRODUCER_KEYS} == {
            "model": None, "max_tokens": None, "max_parse_retries": 1,
            "policy": {"kind": "scripted", "script_sha256": policy.script_sha256},
            "world_updater": "template",
        }

    def test_run_end_seals_every_byte_before_it(self, small_experiment):
        _, out = small_experiment
        for path in sorted((out / "transcripts").glob("*.jsonl")):
            data = path.read_bytes()
            start = data.rfind(b"\n", 0, -1) + 1
            end = json.loads(data[start:])
            assert end["type"] == ts.RUN_END
            assert end["payload"]["sha256"] == hashlib.sha256(data[:start]).hexdigest()
            assert ts.is_sealed(path)

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
        assert ts.verify_prompts(path, scenario) == (14 * 9, [], True)


def producer_plan(root: Path, **keys) -> Path:
    """A one-treatment, two-run plan on the mock by ``model-A``, with ``keys``
    set; a scripted policy plays ``root/script.yaml``."""
    lines = {
        "scenario": DATA / "neutral_scenario.yaml",
        "taxonomy": DATA / "default_taxonomy.yaml",
        "base_seed": 3, "runs_per_treatment": 2, "model": "model-A",
        "policy": "llm", "world_updater": "llm",
        "treatments": "[{label: t1.0-default, temperature: 1.0}]",
        **keys,
    }
    path = root / "plan.yaml"
    path.write_text("".join(f"{key}: {value}\n" for key, value in lines.items()),
                    encoding="utf-8")
    return path


SCRIPTED = "{kind: scripted, script: script.yaml}"


class TestHeaderNamesTheProducer:
    """A transcript made by another model, policy, script, world updater or
    retry count is another run's: a re-run refuses it before any request."""

    @pytest.mark.parametrize("first,second,script", [
        ({}, {"model": "model-B"}, None),
        ({}, {"world_updater": "template"}, None),
        ({}, {"model": "model-B", "world_updater": "template"}, None),
        ({}, {"policy": SCRIPTED}, None),
        ({"policy": SCRIPTED}, {"policy": SCRIPTED}, "default:\n  - {action: wait}\n"),
        ({}, {"max_parse_retries": 1}, None),
    ], ids=["model", "world_updater", "model_and_world_updater", "policy_kind", "script",
            "max_parse_retries"])
    def test_rerun_by_another_producer_is_refused(self, tmp_path, monkeypatch, first,
                                                  second, script):
        shutil.copyfile(DATA / "demo_script.yaml", tmp_path / "script.yaml")
        out = tmp_path / "out"
        result = run_experiment(load_plan(producer_plan(tmp_path, **first)), out)
        assert [run.status for run in result.runs] == ["completed"] * 2
        files = [out / "manifest.json", *sorted((out / "transcripts").glob("*.jsonl"))]
        before = {path: path.read_bytes() for path in files}
        if script is not None:
            (tmp_path / "script.yaml").write_text(script, encoding="utf-8")
        plan = load_plan(producer_plan(tmp_path, **{**first, **second}))
        transports = []

        def build_transport(*args, **kwargs):
            transports.append(original(*args, **kwargs))
            return transports[-1]

        original = experiments.build_transport
        monkeypatch.setattr(experiments, "build_transport", build_transport)
        with pytest.raises(ValidationError,
                           match="t1.0-default-r00.jsonl belongs to a different run"):
            run_experiment(plan, out)
        assert [transport.request_count for transport in transports] == [0]
        assert {path: path.read_bytes() for path in files} == before

    def test_run_simulation_writes_the_header_of_the_experiment(self, tmp_path):
        for keys in ({}, {"policy": SCRIPTED, "world_updater": "template",
                          "max_parse_retries": 1}):
            shutil.copyfile(DATA / "demo_script.yaml", tmp_path / "script.yaml")
            plan = load_plan(producer_plan(tmp_path, runs_per_treatment=1, **keys))
            out = tmp_path / f"out-{len(keys)}"
            run_experiment(plan, out)
            scenario = load_scenario(plan.scenario_path)
            taxonomy = load_taxonomy(plan.taxonomy_path)
            transport = experiments.build_transport(plan, taxonomy, scenario)
            (treatment,) = plan.treatments
            path = tmp_path / f"sim-{len(keys)}.jsonl"
            run_simulation(
                scenario, taxonomy, treatment, experiments.build_policy(plan, transport),
                experiments.build_updater(plan, transport),
                seed=run_seed(plan.base_seed, treatment.label, 0), transcript_path=path,
                run_id=f"{treatment.label}-r00", max_parse_retries=plan.max_parse_retries,
            )
            played = ts.read_records(out / "transcripts" / "t1.0-default-r00.jsonl")[0]
            assert ts.read_records(path)[0] == played

    def test_components_calling_two_models_are_refused(self, scenario, taxonomy, tmp_path):
        transport = MockTransport("unused")
        with pytest.raises(ValidationError, match="call different models"):
            run_simulation(
                scenario, taxonomy, Treatment("t1.0-default", 1.0, PromptVariant.DEFAULT),
                LlmPolicy(transport, model="a"), LlmUpdater(transport, model="b"),
                seed=1, transcript_path=tmp_path / "run.jsonl",
            )
        assert transport.request_count == 0
        assert not (tmp_path / "run.jsonl").exists()


class TestInspect:
    def test_reference_plan_verifies_every_prompt(self, tmp_path, capsys):
        run_experiment(load_plan(DATA / "plan_reference.yaml"), tmp_path)
        manifest = str(tmp_path / "manifest.json")
        assert main(["inspect", "--manifest", manifest]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"manifest": manifest, "runs": 60, "prompts_verified": 7560}

    def test_edited_day_summary_fails(self, experiment_copy, capsys):
        _, out = experiment_copy
        path = out / "transcripts" / "t1.0-default-r01.jsonl"
        edit_record(path, lambda r: r["type"] == ts.DAY and r["day"] == 3,
                    lambda p: p.update(summary=p["summary"] + " Edited."))
        result = inspect_experiment(out / "manifest.json")
        # Day 4's eight agent prompts and its world update start from it.
        assert len(result.mismatches) == 9
        assert all(line.startswith("transcripts/t1.0-default-r01.jsonl seq ")
                   and "(day 4, " in line and "user_sha256 not re-derived" in line
                   for line in result.mismatches)
        assert main(["inspect", "--manifest", str(out / "manifest.json")]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "ValidationError"
        assert error["message"].startswith("9 prompt digest mismatches in 504 prompts of 4 runs")

    def test_edited_user_digest_fails(self, experiment_copy):
        _, out = experiment_copy
        path = out / "transcripts" / "t1.0-context-r00.jsonl"
        def first_attempt(record):
            return ("user_sha256" in record["payload"] and record["day"] == 9
                    and record["nation"] == "Purple")

        edit_record(path, first_attempt, lambda p: p.update(user_sha256="0" * 64))
        seq = next(r["seq"] for r in ts.read_records(path) if first_attempt(r))
        result = inspect_experiment(out / "manifest.json")
        assert result.mismatches == [
            f"transcripts/t1.0-context-r00.jsonl seq {seq} (day 9, Purple): "
            "user_sha256 not re-derived"
        ]

    def test_edited_reply_breaks_only_its_seal(self, experiment_copy, capsys):
        _, out = experiment_copy
        name = "transcripts/t1.0-context-r01.jsonl"
        path = out / name
        lines = path.read_text(encoding="utf-8").split("\n")
        index = next(i for i, line in enumerate(lines) if line.endswith('"type":"llm_call"}'))
        at = lines[index].index('"content":"') + len('"content":"')
        assert lines[index][at] not in '\\"X'
        lines[index] = lines[index][:at] + "X" + lines[index][at + 1:]
        path.write_text("\n".join(lines), encoding="utf-8")
        result = inspect_experiment(out / "manifest.json")
        assert (result.runs, result.prompts, result.mismatches) == (4, 504, [])
        assert result.unsealed == [name]
        assert main(["inspect", "--manifest", str(out / "manifest.json")]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error == {"error": "ValidationError", "message": (
            f"1 of 4 transcripts are not sealed "
            f"(partial, or edited after they were written): {name}")}

    def test_partial_transcript_is_listed_as_not_sealed(self, experiment_copy, capsys):
        # What a resume killed after writing back a run's kept records leaves
        # under the manifest of the invocation before it.
        _, out = experiment_copy
        name = "transcripts/t1.0-default-r00.jsonl"
        records = ts.read_records(out / name)
        day_3 = max(i for i, r in enumerate(records) if r["type"] == ts.DAY and r["day"] == 3)
        ts.rewrite(out / name, records[: day_3 + 1])
        result = inspect_experiment(out / "manifest.json")
        assert (result.runs, result.prompts, result.mismatches) == (4, 3 * 126 + 3 * 9, [])
        assert result.unsealed == [name]
        assert main(["inspect", "--manifest", str(out / "manifest.json")]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["message"] == (
            f"1 of 4 transcripts are not sealed (partial, or edited after they were written): "
            f"{name}")

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
        edit_record(path, lambda r: "user_sha256" in r["payload"], lambda p: p.pop("user_sha256"))
        assert len(inspect_experiment(out / "manifest.json").mismatches) == 1
        edit_record(path, lambda r: r["type"] == ts.SYSTEM_PROMPT,
                    lambda p: p.pop("user_template"))
        with pytest.raises(ParseError, match="lacks the field 'user_template'"):
            inspect_experiment(out / "manifest.json")


class TestOlderFormats:
    @pytest.mark.parametrize(
        "reader",
        ["load_run", "build_report", "run_experiment", "run_simulation", "inspect", "replay"],
    )
    @pytest.mark.parametrize("state", ["completed", "partial"])
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7])
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
        {1: to_format_1, 2: to_format_2, 3: to_format_3, 4: to_format_4,
         5: to_format_5, 6: to_format_6, 7: to_format_7}[version](path)
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
            "replay": lambda: run_experiment(dataclasses.replace(
                plan, transport={"kind": "replay", "manifest": str(manifest)}),
                tmp_path / "replayed"),
        }[reader]
        with pytest.raises(
            ValidationError, match=f"t1.0-default-r00.jsonl is in format {version}, not 8"
        ):
            read()
        assert transport.request_count == 0
        assert {file: file.read_bytes() for file in before} == before


def break_seal(path: Path) -> None:
    """Set the seal of a sealed transcript to a digest its bytes lack."""
    assert ts.is_sealed(path)
    edit_record(path, lambda r: r["type"] == ts.RUN_END, lambda p: p.update(sha256="0" * 64))
    assert not ts.is_sealed(path)


def readings(path: Path) -> tuple:
    """What every reader that names its record types makes of a transcript."""
    header = json.loads(path.read_text(encoding="utf-8").split("\n", 1)[0])["payload"]
    return ts.load_run(path), ts.stored_run(path, header)


@pytest.fixture(scope="module")
def sealed_runs(small_experiment, tmp_path_factory, taxonomy):
    """Sealed transcripts of a tiny calibrated plan, a reflection run with
    parse failures and a fallback, a run aborted by ``max_requests`` and a
    scripted run."""
    root = tmp_path_factory.mktemp("sealed")
    paths = sorted((small_experiment[1] / "transcripts").glob("*.jsonl"))

    scenario = small_scenario(n_nations=3, days=3)
    calibrated = CalibratedResponder(taxonomy, scenario, runs_per_treatment=1)

    def respond(request):
        if "|Alpha|" in request.request_tag or "|d02|Beta|a1" in request.request_tag:
            return "no decision"
        return calibrated(request)

    transport = MockTransport(respond)
    reflection = root / "reflection.jsonl"
    run = run_simulation(
        scenario, taxonomy,
        Treatment("t1.0-reflection-planning", 1.0, PromptVariant.REFLECTION_PLANNING),
        LlmPolicy(transport, model="m"), LlmUpdater(transport, model="m"),
        seed=3, transcript_path=reflection,
    )
    assert run.completed and run.fallbacks == 3
    paths.append(reflection)

    with pytest.MonkeyPatch.context() as patch:  # the budget cuts the runs in plan order
        force_processes(patch, 1)
        aborted = run_experiment(llm_plan(root, runs=1, extra="max_requests: 140"),
                                 root / "aborted")
    assert [(r.status, len(r.days)) for r in aborted.runs] == [("completed", 14), ("aborted", 1)]
    paths += sorted((root / "aborted" / "transcripts").glob("*.jsonl"))

    scripted = root / "scripted.jsonl"
    run_simulation(
        scenario, taxonomy, Treatment("t0.5-context", 0.5, PromptVariant.CONTEXT),
        load_script(DATA / "demo_script.yaml"), TemplateUpdater(),
        seed=5, transcript_path=scripted,
    )
    paths.append(scripted)
    return paths


@pytest.fixture
def decoded(monkeypatch):
    """The type of each record decoded from here on."""
    decoder = ts._DECODER
    types = []

    class Counting:
        def raw_decode(self, line):
            record, end = decoder.raw_decode(line)
            types.append(record["type"])
            return record, end

    monkeypatch.setattr(ts, "_DECODER", Counting())
    return types


def line_types(path: Path) -> list[str]:
    return [json.loads(line)["type"] for line in path.read_text(encoding="utf-8").splitlines()]


class TestSeal:
    def test_sealed_and_broken_seal_read_alike(self, sealed_runs, tmp_path):
        for path in sealed_runs:
            sealed = readings(path)
            broken = tmp_path / path.name
            shutil.copyfile(path, broken)
            break_seal(broken)
            assert readings(broken) == sealed, path.name

    def test_reencoded_run_end_line_is_no_seal(self, sealed_runs, tmp_path):
        # The digest still covers every byte before the line, but its type no
        # longer ends it.
        path = sealed_runs[0]
        edited = tmp_path / path.name
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[-2] = json.dumps(json.loads(lines[-2]))
        edited.write_text("\n".join(lines), encoding="utf-8")
        assert not ts.is_sealed(edited)
        assert readings(edited) == readings(path)
        assert ts.load_run(edited).completed

    def test_run_end_holding_a_lone_surrogate_is_sealed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = ts.TranscriptWriter(path)
        writer.write(ts.RUN_END, {"status": "aborted", "reason": "TransportError: \ud800"})
        writer.close()
        assert b"\\ud800" in path.read_bytes()
        assert ts.is_sealed(path)

    def test_aborted_sealed_run_keeps_every_record_to_its_last_day(self, sealed_runs):
        path = next(p for p in sealed_runs if p.parts[-3:-1] == ("aborted", "transcripts")
                    and p.name == "t1.0-context-r00.jsonl")
        records = ts.read_records(path)
        run, kept = readings(path)[1]
        assert (run.status, len(run.days)) == ("partial", 1)
        day_1 = next(i for i, r in enumerate(records) if r["type"] == ts.DAY)
        assert kept == records[: day_1 + 1]
        assert {r["type"] for r in kept} >= {ts.SYSTEM_PROMPT, ts.LLM_CALL}

    @pytest.mark.parametrize("reader", ["build_report", "run_experiment"])
    def test_malformed_line_in_a_once_sealed_transcript_is_a_parse_error(
        self, experiment_copy, tmp_path, reader
    ):
        plan, out = experiment_copy
        path = out / "transcripts" / "t1.0-default-r01.jsonl"
        lines = path.read_text(encoding="utf-8").split("\n")
        index = next(i for i, line in enumerate(lines) if line.endswith('"type":"llm_call"}'))
        lines[index] = lines[index][:-2]
        path.write_text("\n".join(lines), encoding="utf-8")
        read = {
            "build_report": lambda: build_report(out / "manifest.json", tmp_path / "report"),
            "run_experiment": lambda: run_experiment(plan, out),
        }[reader]
        with pytest.raises(ParseError, match=rf"bad transcript line {index + 1} in .*r01.jsonl"):
            read()

    def test_report_decodes_only_the_records_it_uses(self, small_experiment, tmp_path, decoded):
        _, out = small_experiment
        build_report(out / "manifest.json", tmp_path / "report")
        used = [type_ for path in sorted((out / "transcripts").glob("*.jsonl"))
                for type_ in line_types(path)
                if type_ in {ts.RUN_START, ts.TURN, ts.DAY, ts.RUN_END}]
        # Each seal check decodes the run_end line once more.
        assert sorted(decoded) == sorted(used + [ts.RUN_END] * 4)
        assert len(used) == 4 * (1 + 14 * 8 + 14 + 1)


class TestMetricsSidecar:
    """A writer given a sidecar replaces it with one line per ``llm_call`` it
    keeps, whatever the sidecar held after them, then adds a line per call."""

    @staticmethod
    def write_calls(path: Path, metrics: Path, kept: list[dict], tags: list[str]) -> None:
        writer = ts.TranscriptWriter(path, kept, metrics)
        for tag in tags:
            writer.write(ts.LLM_CALL, {"tag": tag, "latency": 0.25, "attempts": 1,
                                       "reply": tag}, day=1, nation="Blue")
        writer.write(ts.DAY, {"scores": {}, "summary": ""}, day=1)
        writer.close()

    @staticmethod
    def tags(metrics: Path) -> list[str]:
        lines = metrics.read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""
        return [json.loads(line)["tag"] for line in lines]

    def test_a_run_started_over_truncates_the_sidecar(self, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text('{"tag":"stale"}\n{"tag":"stale"}\n{"ta', encoding="utf-8")
        self.write_calls(tmp_path / "run.jsonl", metrics, [], ["a", "b"])
        assert self.tags(metrics) == ["a", "b"]
        assert "latency" not in (tmp_path / "run.jsonl").read_text(encoding="utf-8")

    def test_a_resumed_run_keeps_the_lines_of_its_kept_calls(self, tmp_path):
        path, metrics = tmp_path / "run.jsonl", tmp_path / "metrics.jsonl"
        self.write_calls(path, metrics, [], ["a", "b"])
        kept = ts.read_records(path)
        with metrics.open("ab") as handle:  # a lost day's calls, the last one torn
            handle.write(b'{"tag":"lost"}\n{"tag":"lo')
        self.write_calls(path, metrics, kept, ["c"])
        assert self.tags(metrics) == ["a", "b", "c"]
        assert not metrics.with_suffix(".jsonl.tmp").exists()

    def test_a_short_or_missing_sidecar_keeps_what_it_has(self, tmp_path):
        path, metrics = tmp_path / "run.jsonl", tmp_path / "metrics.jsonl"
        self.write_calls(path, metrics, [], ["a", "b"])
        kept = ts.read_records(path)
        metrics.write_text('{"tag":"a"}\n', encoding="utf-8")
        self.write_calls(path, metrics, kept, ["c"])
        assert self.tags(metrics) == ["a", "c"]
        metrics.unlink()
        self.write_calls(path, metrics, kept, ["d"])
        assert self.tags(metrics) == ["d"]


def reflection_plan(tmp_path: Path, monkeypatch):
    """A calibrated reflection plan of two runs, each with one fallback turn."""
    path = tmp_path / "plan.yaml"
    path.write_text(
        f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 3
runs_per_treatment: 2
policy: llm
world_updater: llm
treatments:
  - {{label: t1.0-reflection-planning, temperature: 1.0, variant: reflection_planning}}
""",
        encoding="utf-8",
    )
    plan = load_plan(path)

    def build_transport(plan, taxonomy, scenario, api_key=None):
        calibrated = CalibratedResponder(
            taxonomy, scenario,
            variants_by_label={"t1.0-reflection-planning": "reflection_planning"},
            runs_per_treatment=plan.runs_per_treatment,
        )

        def respond(request):
            if "|Blue|" in request.request_tag and "|d02|" in request.request_tag:
                return "no decision"
            return calibrated(request)

        return MockTransport(respond)

    monkeypatch.setattr(experiments, "build_transport", build_transport)
    return plan


class TestSkippedRun:
    """A no-op re-run decides from each sealed completed transcript's
    ``run_start`` and ``run_end`` lines; a skipped run reads its days when
    they are first used, and only from the transcript the skip saw."""

    def test_rerun_decodes_only_run_start_and_run_end(self, experiment_copy, decoded):
        plan, out = experiment_copy
        again = run_experiment(plan, out)
        assert (again.skipped, again.new_requests) == (4, 0)
        # The seal check decodes the run_end line; the first line is the other.
        assert sorted(decoded) == sorted([ts.RUN_START, ts.RUN_END] * 4)

    def test_skipped_runs_read_the_days_of_the_first_invocation(self, tmp_path, monkeypatch):
        plan = reflection_plan(tmp_path, monkeypatch)
        first = run_experiment(plan, tmp_path / "out")
        assert [(run.status, run.fallbacks) for run in first.runs] == [("completed", 1)] * 2
        again = run_experiment(plan, tmp_path / "out")
        assert (again.skipped, again.new_requests) == (2, 0)
        paths = sorted((tmp_path / "out" / "transcripts").glob("*.jsonl"))
        # One run is asked for its fallbacks first, the other for its days.
        assert again.runs[0].fallbacks == 1
        assert again.runs[1].days == first.runs[1].days
        for run, path, played in zip(again.runs, paths, first.runs):
            loaded = ts.load_run(path)
            assert (run.days, run.fallbacks) == (loaded.days, loaded.fallbacks)
            assert run == loaded == played

    @pytest.mark.parametrize("change", ["resealed", "unsealed", "deleted"])
    def test_transcript_changed_after_the_skip(self, experiment_copy, change):
        plan, out = experiment_copy
        path = out / "transcripts" / "t1.0-default-r01.jsonl"
        untouched = ts.load_run(out / "transcripts" / "t1.0-default-r00.jsonl")
        again = run_experiment(plan, out)
        if change == "deleted":
            path.unlink()
        else:
            records = ts.read_records(path)
            next(r for r in records if r["type"] == ts.DAY)["payload"]["summary"] = "edited"
            if change == "resealed":
                end = records.pop()["payload"]
                writer = ts.TranscriptWriter(path, records)
                writer.write(ts.RUN_END, {"status": end["status"], "reason": end["reason"]})
                writer.close()
            else:
                ts.rewrite(path, records)
            assert ts.is_sealed(path) == (change == "resealed")
            assert ts.load_run(path).completed
        error = ParseError if change == "deleted" else ValidationError
        with pytest.raises(error, match="r01.jsonl"):
            again.runs[1].days
        with pytest.raises(error, match="r01.jsonl"):
            again.runs[1].fallbacks
        assert again.runs[0] == untouched

    @pytest.mark.parametrize("kind", ["aborted sealed", "completed unsealed"])
    def test_other_transcripts_are_read_whole_when_skipped_or_resumed(
        self, sealed_runs, tmp_path, decoded, kind
    ):
        if kind == "aborted sealed":
            source = next(p for p in sealed_runs if p.parts[-3:-1] == ("aborted", "transcripts")
                          and p.name == "t1.0-context-r00.jsonl")
        else:
            source = sealed_runs[0]
        path = tmp_path / source.name
        shutil.copyfile(source, path)
        if kind == "completed unsealed":
            break_seal(path)
        header = json.loads(path.read_text(encoding="utf-8").split("\n", 1)[0])["payload"]
        loaded = ts.load_run(path)
        decoded.clear()
        run, _ = ts.stored_run(path, header)
        # Every line, and the run_end line once more for the seal check.
        assert sorted(decoded) == sorted(line_types(path) + [ts.RUN_END])
        path.unlink()
        status = "partial" if kind == "aborted sealed" else "completed"
        assert (run.status, run.days, run.fallbacks) == (status, loaded.days, loaded.fallbacks)

    def test_unsealed_completed_header_and_end_are_decoded_at_once(self, sealed_runs,
                                                                    tmp_path):
        records = ts.read_records(sealed_runs[0])
        end = {"status": "completed", "reason": None}
        path = tmp_path / "run.jsonl"
        ts.rewrite(path, [records[0], {**records[-1], "seq": 1, "payload": end}])
        assert not ts.is_sealed(path)
        run, kept = ts.stored_run(path, records[0]["payload"])
        assert kept == [] and run == ts.load_run(path)
        path.unlink()  # nothing is left to read
        assert (run.days, run.fallbacks) == ([], 0)

    @pytest.mark.parametrize("edit,error", [
        (lambda lines: [], "does not start with a run_start record"),
        (lambda lines: lines[1:], "does not start with a run_start record"),
        (lambda lines: ["[1, 2]", *lines[1:]], "bad transcript line 1 in .*run.jsonl"),
        (lambda lines: ["{not json", *lines[1:]], "bad transcript line 1 in .*run.jsonl"),
    ], ids=["only-run-end", "no-run-start", "not-an-object", "not-json"])
    def test_sealed_first_line_is_the_header(self, sealed_runs, tmp_path, edit, error):
        lines = sealed_runs[0].read_text(encoding="utf-8").split("\n")[:-2]
        header = json.loads(lines[0])["payload"]
        body = edit(lines)
        data = "".join(line + "\n" for line in body).encode("utf-8")
        end = {"status": "completed", "reason": None, "sha256": hashlib.sha256(data).hexdigest()}
        path = tmp_path / "run.jsonl"
        path.write_bytes(data + (ts.encode_record(len(body), ts.RUN_END, end) + "\n").encode())
        assert ts.is_sealed(path)
        with pytest.raises(ParseError, match=error):
            ts.stored_run(path, header)
