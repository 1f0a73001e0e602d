import dataclasses
import json
from pathlib import Path

import pytest

from esclab.errors import ParseError, ValidationError
from esclab.experiments import (
    ExperimentPlan,
    build_transport,
    load_plan,
    plan_digest,
    run_experiment,
    run_seed,
)
from esclab.orchestrator import Treatment
from esclab.prompts import PromptVariant
from esclab.scoring import Aggregator

DATA = Path(__file__).parent.parent / "src" / "esclab" / "data"


def write_plan(tmp_path, body: str) -> Path:
    path = tmp_path / "plan.yaml"
    path.write_text(body, encoding="utf-8")
    return path


def scripted_plan(tmp_path, runs=2, treatments=None, extra=""):
    treatments = treatments or '  - {label: t1.0-default, temperature: 1.0, variant: default}'
    return write_plan(
        tmp_path,
        f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 99
runs_per_treatment: {runs}
baseline: t1.0-default
policy:
  kind: scripted
  script: {DATA / 'demo_script.yaml'}
world_updater: template
transport:
  kind: mock
  responder: calibrated
treatments:
{treatments}
{extra}
""",
    )


class TestPlanLoading:
    def test_shipped_reference_plan(self):
        plan = load_plan(DATA / "plan_reference.yaml")
        assert len(plan.treatments) == 6
        assert plan.runs_per_treatment == 10
        temperatures = {t.temperature for t in plan.treatments}
        assert temperatures == {1.0, 0.5, 0.01}
        variants = [t.variant for t in plan.treatments]
        assert variants.count(PromptVariant.DEFAULT) == 3
        assert PromptVariant.CONTEXT in variants
        assert PromptVariant.REFLECTION_PLANNING in variants
        assert PromptVariant.REFLECTION_DEESCALATION in variants
        assert plan.baseline == "t1.0-default"
        assert plan.aggregator is Aggregator.MEAN_DAILY

    def test_unknown_key_rejected(self, tmp_path):
        path = scripted_plan(tmp_path, extra="surprise: 1")
        with pytest.raises(ParseError, match="surprise"):
            load_plan(path)

    def test_duplicate_labels_rejected(self, tmp_path):
        path = scripted_plan(
            tmp_path,
            treatments=(
                "  - {label: t, temperature: 1.0, variant: default}\n"
                "  - {label: t, temperature: 0.5, variant: default}"
            ),
        )
        with pytest.raises(ValidationError, match="duplicate"):
            load_plan(path)

    def test_bad_baseline_rejected(self, tmp_path):
        path = scripted_plan(
            tmp_path,
            treatments='  - {label: a, temperature: 1.0, variant: default}',
        )
        with pytest.raises(ValidationError, match="baseline"):
            load_plan(path)

    def test_negative_parse_retries_rejected(self, tmp_path):
        plan = load_plan(scripted_plan(tmp_path))
        with pytest.raises(ValidationError, match="max_parse_retries"):
            dataclasses.replace(plan, max_parse_retries=-1)
        with pytest.raises(ValidationError, match="max_parse_retries"):
            load_plan(scripted_plan(tmp_path, extra="max_parse_retries: -1"))

    def test_zero_runs_rejected(self, tmp_path):
        plan = load_plan(scripted_plan(tmp_path))
        with pytest.raises(ValidationError, match="runs_per_treatment"):
            dataclasses.replace(plan, runs_per_treatment=0)
        with pytest.raises(ValidationError, match="runs_per_treatment"):
            load_plan(scripted_plan(tmp_path, runs=0))

    def test_unset_keys_take_the_plan_defaults(self, tmp_path):
        path = write_plan(
            tmp_path,
            f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 4
treatments:
  - {{label: t, temperature: 1.0, variant: default}}
""",
        )
        assert load_plan(path) == ExperimentPlan(
            scenario_path=DATA / "neutral_scenario.yaml",
            taxonomy_path=DATA / "default_taxonomy.yaml",
            treatments=(Treatment("t", 1.0, PromptVariant.DEFAULT),),
            base_seed=4,
        )

    def test_unconvertible_scalar_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="parallelism"):
            load_plan(scripted_plan(tmp_path, extra="parallelism: many"))

    @pytest.mark.parametrize("runs,extra,key", [
        (2, "intra_day_visibility: 'false'", "intra_day_visibility"),
        (2, "intra_day_visibility: 0", "intra_day_visibility"),
        (2.9, "", "runs_per_treatment"),
        (2, "parallelism: true", "parallelism"),
        (2, "model: 7", "model"),
    ])
    def test_wrong_typed_scalar_is_a_parse_error(self, tmp_path, runs, extra, key):
        with pytest.raises(ParseError, match=f"{key} must be"):
            load_plan(scripted_plan(tmp_path, runs=runs, extra=extra))

    def test_scalars_keep_their_yaml_values(self, tmp_path):
        plan = load_plan(scripted_plan(
            tmp_path, runs=3,
            extra="intra_day_visibility: false\nmax_requests: 0\nmodel: m\nparallelism: 2",
        ))
        assert (plan.runs_per_treatment, plan.intra_day_visibility) == (3, False)
        assert (plan.max_requests, plan.model, plan.parallelism) == (0, "m", 2)

    def test_negative_max_requests_rejected(self, tmp_path):
        plan = load_plan(scripted_plan(tmp_path))
        with pytest.raises(ValidationError, match="max_requests"):
            dataclasses.replace(plan, max_requests=-1)
        with pytest.raises(ValidationError, match="max_requests"):
            load_plan(scripted_plan(tmp_path, extra="max_requests: -5"))

    def test_plan_digest_stable(self):
        plan = load_plan(DATA / "plan_reference.yaml")
        assert plan_digest(plan) == plan_digest(plan)


def checked_plan(tmp_path, treatments="[{label: a, temperature: 1.0}]",
                 transport="{kind: mock}", extra=""):
    return write_plan(
        tmp_path,
        f"scenario: {DATA / 'neutral_scenario.yaml'}\n"
        f"taxonomy: {DATA / 'default_taxonomy.yaml'}\n"
        f"base_seed: 1\ntransport: {transport}\ntreatments: {treatments}\n{extra}\n",
    )


LIVE = "kind: live, base_url: 'http://localhost:9/v1'"


class TestPlanValueChecks:
    @pytest.mark.parametrize("treatments,match", [
        ("[{label: a, temperature: [1]}]", "temperature must be a number"),
        ("[{label: a, temperature: true}]", "temperature must be a number"),
        ("[{label: a, temperature: '1.0'}]", "temperature must be a number"),
        ("[{label: 1, temperature: 1.0}]", "label must be a nonempty string"),
        ("[{label: ' ', temperature: 1.0}]", "label must be a nonempty string"),
    ])
    def test_bad_treatment_value_is_a_parse_error(self, tmp_path, treatments, match):
        with pytest.raises(ParseError, match=match):
            load_plan(checked_plan(tmp_path, treatments=treatments))

    @pytest.mark.parametrize("transport,match", [
        ("{kind: mock, api_key: sk-test}", r"unknown keys \['api_key'\]"),
        ("{kind: mock, respondr: static}", r"unknown keys \['respondr'\]"),
        ("{kind: mock, text: [a]}", "text must be a string"),
        ("{kind: replay}", r"missing keys \['cassette'\]"),
        ("{kind: replay, cassette: [a]}", "cassette must be a string"),
        (f"{{{LIVE}, timeout: x}}", "timeout must be a number"),
        (f"{{{LIVE}, max_in_flight: 1.5}}", "max_in_flight must be an integer"),
        (f"{{{LIVE}, requests_per_minute: '60'}}", "requests_per_minute must be an integer"),
        (f"{{{LIVE}, api_key: sk-test}}", r"unknown keys \['api_key'\]"),
        ("{kind: carrier-pigeon}", "transport kind must be one of"),
        ("{kind: [mock]}", "transport kind must be one of"),
    ])
    def test_bad_transport_is_a_parse_error(self, tmp_path, transport, match):
        with pytest.raises(ParseError, match=match):
            load_plan(checked_plan(tmp_path, transport=transport))

    @pytest.mark.parametrize("extra,match", [
        ("policy: {kind: llm, temperature: 1}", r"unknown keys \['temperature'\]"),
        ("policy: {kind: scripted, script: 5}", "script must be a nonempty string"),
        ("1: x\nsurprise: 2", r"unknown keys \[1, 'surprise'\]"),
    ])
    def test_bad_plan_entry_is_a_parse_error(self, tmp_path, extra, match):
        with pytest.raises(ParseError, match=match):
            load_plan(checked_plan(tmp_path, extra=extra))

    def test_scenario_path_must_be_a_string(self, tmp_path):
        path = write_plan(tmp_path, "scenario: [a]\ntaxonomy: t.yaml\nbase_seed: 1\n"
                                    "treatments: [{label: a, temperature: 1.0}]\n")
        with pytest.raises(ParseError, match="plan: scenario must be a nonempty string"):
            load_plan(path)

    @pytest.mark.parametrize("label", ["grp/a", "../../x", "a|b"])
    def test_label_that_is_not_one_file_name_component_is_refused(self, tmp_path, label):
        treatments = f"[{{label: '{label}', temperature: 1.0}}]"
        with pytest.raises(ValidationError, match="file-name component"):
            load_plan(checked_plan(tmp_path, treatments=treatments))


class TestSeeds:
    def test_seed_derivation_deterministic_and_label_dependent(self):
        a0 = run_seed(100, "t1.0-default", 0)
        a1 = run_seed(100, "t1.0-default", 1)
        b0 = run_seed(100, "t0.5-default", 0)
        assert a1 == a0 + 1
        assert b0 != a0
        assert run_seed(100, "t1.0-default", 0) == a0


class TestRunExperiment:
    def test_smallest_plan_completes(self, tmp_path):
        plan = load_plan(scripted_plan(tmp_path, runs=2))
        result = run_experiment(plan, tmp_path / "out")
        assert len(result.runs) == 2
        assert all(run.completed for run in result.runs)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest["runs"]) == 2
        seeds = {entry["seed"] for entry in manifest["runs"]}
        assert seeds == {run_seed(99, "t1.0-default", 0), run_seed(99, "t1.0-default", 1)}
        assert all(entry["status"] == "completed" for entry in manifest["runs"])

    def test_rerun_issues_zero_new_requests(self, tmp_path):
        plan_path = scripted_plan(tmp_path, runs=2)
        plan = load_plan(plan_path)
        first = run_experiment(plan, tmp_path / "out")
        assert first.skipped == 0
        again = run_experiment(plan, tmp_path / "out")
        assert again.skipped == 2
        assert again.new_requests == 0
        assert all(run.completed for run in again.runs)

    def test_rerun_reads_each_transcript_once(self, tmp_path, monkeypatch):
        from esclab import transcript

        plan = load_plan(scripted_plan(tmp_path, runs=2))
        first = run_experiment(plan, tmp_path / "out")
        reads = []
        original = transcript.read_records

        def counting(path, *args, **kwargs):
            reads.append(Path(path).name)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(transcript, "read_records", counting)
        again = run_experiment(plan, tmp_path / "out")
        assert sorted(reads) == ["t1.0-default-r00.jsonl", "t1.0-default-r01.jsonl"]
        assert [run.days for run in again.runs] == [run.days for run in first.runs]

    def test_resume_reads_each_transcript_once(self, tmp_path, monkeypatch):
        from esclab import transcript

        path = write_plan(
            tmp_path,
            f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 5
runs_per_treatment: 2
max_requests: 140
world_updater: llm
treatments:
  - {{label: t1.0-default, temperature: 1.0, variant: default}}
""",
        )
        plan = load_plan(path)
        first = run_experiment(plan, tmp_path / "out")
        aborted = [run for run in first.runs if run.status == "aborted"]
        assert len(aborted) == 1 and len(aborted[0].days) == 1  # one day to keep
        reads = []
        original = transcript.read_records

        def counting(path, *args, **kwargs):
            reads.append(Path(path).name)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(transcript, "read_records", counting)
        unlimited = dataclasses.replace(plan, max_requests=10_000)
        again = run_experiment(unlimited, tmp_path / "out")
        assert sorted(reads) == ["t1.0-default-r00.jsonl", "t1.0-default-r01.jsonl"]
        assert [run.status for run in again.runs] == ["completed", "completed"]
        monkeypatch.undo()
        run_experiment(unlimited, tmp_path / "fresh")
        for name in ("t1.0-default-r00.jsonl", "t1.0-default-r01.jsonl"):
            resumed = (tmp_path / "out" / "transcripts" / name).read_bytes()
            assert resumed == (tmp_path / "fresh" / "transcripts" / name).read_bytes()

    def test_scripted_plan_loads_its_script_once(self, tmp_path, monkeypatch):
        from esclab import experiments

        loads = []
        original = experiments.load_script

        def counting(path):
            loads.append(path)
            return original(path)

        monkeypatch.setattr(experiments, "load_script", counting)
        result = run_experiment(load_plan(scripted_plan(tmp_path, runs=2)), tmp_path / "out")
        assert [run.completed for run in result.runs] == [True, True]
        assert len(loads) == 1

    def test_two_executions_byte_identical(self, tmp_path):
        plan_path = scripted_plan(tmp_path, runs=2)
        plan = load_plan(plan_path)
        run_experiment(plan, tmp_path / "out1")
        run_experiment(plan, tmp_path / "out2")
        m1 = (tmp_path / "out1" / "manifest.json").read_bytes()
        m2 = (tmp_path / "out2" / "manifest.json").read_bytes()
        assert m1 == m2
        t1 = sorted((tmp_path / "out1" / "transcripts").iterdir())
        t2 = sorted((tmp_path / "out2" / "transcripts").iterdir())
        assert [p.name for p in t1] == [p.name for p in t2]
        for a, b in zip(t1, t2):
            assert a.read_bytes() == b.read_bytes()

    def test_llm_mock_plan_counts_requests(self, tmp_path):
        path = write_plan(
            tmp_path,
            f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 5
runs_per_treatment: 1
policy: llm
world_updater: llm
transport:
  kind: mock
treatments:
  - {{label: t1.0-default, temperature: 1.0, variant: default}}
""",
        )
        plan = load_plan(path)
        result = run_experiment(plan, tmp_path / "out")
        assert result.new_requests == 126
        assert result.runs[0].completed

    def test_ten_run_baseline_issues_1260_requests(self, tmp_path):
        path = write_plan(
            tmp_path,
            f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 5
runs_per_treatment: 10
policy: llm
world_updater: llm
transport:
  kind: mock
treatments:
  - {{label: t1.0-default, temperature: 1.0, variant: default}}
""",
        )
        result = run_experiment(load_plan(path), tmp_path / "out")
        assert result.new_requests >= 1260
        assert result.new_requests == 10 * (14 * 8 + 14)

    def test_budget_aborts_runs_best_effort(self, tmp_path):
        path = write_plan(
            tmp_path,
            f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 5
runs_per_treatment: 2
max_requests: 130
policy: llm
world_updater: llm
transport:
  kind: mock
treatments:
  - {{label: t1.0-default, temperature: 1.0, variant: default}}
""",
        )
        plan = load_plan(path)
        result = run_experiment(plan, tmp_path / "out")
        statuses = sorted(run.status for run in result.runs)
        assert statuses == ["aborted", "completed"]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        aborted = [e for e in manifest["runs"] if e["status"] == "aborted"]
        assert len(aborted) == 1
        assert "BudgetExceeded" in aborted[0]["abort_reason"]

    def test_parallel_execution_matches_serial(self, tmp_path):
        serial_plan = load_plan(scripted_plan(tmp_path, runs=3))
        run_experiment(serial_plan, tmp_path / "serial")
        parallel_path = scripted_plan(tmp_path, runs=3, extra="parallelism: 3")
        run_experiment(load_plan(parallel_path), tmp_path / "parallel")
        assert (
            (tmp_path / "serial" / "manifest.json").read_bytes()
            == (tmp_path / "parallel" / "manifest.json").read_bytes()
        )
        for name in ("t1.0-default-r00.jsonl", "t1.0-default-r01.jsonl",
                     "t1.0-default-r02.jsonl"):
            assert (
                (tmp_path / "serial" / "transcripts" / name).read_bytes()
                == (tmp_path / "parallel" / "transcripts" / name).read_bytes()
            )


class TestTransportConfig:
    def test_live_requires_api_key(self, tmp_path, scenario, taxonomy):
        plan = ExperimentPlan(
            scenario_path=DATA / "neutral_scenario.yaml",
            taxonomy_path=DATA / "default_taxonomy.yaml",
            treatments=(Treatment("t", 1.0, PromptVariant.DEFAULT),),
            base_seed=1,
            transport={"kind": "live", "base_url": "https://example.invalid/v1"},
        )
        with pytest.raises(ValidationError, match="API key"):
            build_transport(plan, taxonomy, scenario)

    def test_unknown_transport_kind(self, tmp_path, scenario, taxonomy):
        plan = ExperimentPlan(
            scenario_path=DATA / "neutral_scenario.yaml",
            taxonomy_path=DATA / "default_taxonomy.yaml",
            treatments=(Treatment("t", 1.0, PromptVariant.DEFAULT),),
            base_seed=1,
            transport={"kind": "carrier-pigeon"},
        )
        with pytest.raises(ValidationError, match="carrier-pigeon"):
            build_transport(plan, taxonomy, scenario)


class TestManifestLock:
    def test_writer_lock_is_exclusive(self, tmp_path):
        from esclab.experiments import manifest_lock

        out = tmp_path / "out"
        out.mkdir()
        with manifest_lock(out):
            with pytest.raises(ValidationError, match="holds it"):
                with manifest_lock(out):
                    pass
            with pytest.raises(ValidationError, match="holds it"):
                with manifest_lock(out, shared=True):
                    pass

    def test_shared_readers_coexist(self, tmp_path):
        from esclab.experiments import manifest_lock

        out = tmp_path / "out"
        out.mkdir()
        with manifest_lock(out, shared=True):
            with manifest_lock(out, shared=True):
                pass


class TestRunRecords:
    def test_noop_rerun_returns_the_first_runs(self, tmp_path):
        plan = load_plan(scripted_plan(tmp_path, runs=2))
        first = run_experiment(plan, tmp_path / "out")
        again = run_experiment(plan, tmp_path / "out")
        assert again.skipped == 2
        assert again.runs == first.runs


    def test_noop_rerun_writes_the_manifest_once(self, tmp_path, monkeypatch):
        from esclab import experiments

        plan = load_plan(scripted_plan(tmp_path, runs=3))
        run_experiment(plan, tmp_path / "out")
        manifest = tmp_path / "out" / "manifest.json"
        first = manifest.read_bytes()
        writes = []
        original = experiments._write_manifest

        def counting(path, content):
            writes.append(path)
            original(path, content)

        monkeypatch.setattr(experiments, "_write_manifest", counting)
        run_experiment(plan, tmp_path / "out")
        assert writes == [manifest]
        assert manifest.read_bytes() == first
        # One lost transcript: one write, after its run is played again.
        (tmp_path / "out" / "transcripts" / "t1.0-default-r01.jsonl").unlink()
        run_experiment(plan, tmp_path / "out")
        assert writes == [manifest] * 2
        assert manifest.read_bytes() == first

    def test_exception_writes_the_manifest_of_the_runs_that_finished(
        self, tmp_path, monkeypatch
    ):
        from esclab import experiments

        manifest = tmp_path / "out" / "manifest.json"
        seen = []
        original = experiments.play_run

        def failing_second(*args, **kwargs):
            seen.append(manifest.exists())
            if len(seen) == 2:
                raise RuntimeError("disk on fire")
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "play_run", failing_second)
        plan = load_plan(scripted_plan(tmp_path, runs=3))
        with pytest.raises(RuntimeError, match="disk on fire"):
            run_experiment(plan, tmp_path / "out")
        # Nothing is written while runs play; the exception still writes it.
        assert seen == [False, False]
        runs = json.loads(manifest.read_text(encoding="utf-8"))["runs"]
        assert [(entry["run_index"], entry["status"]) for entry in runs] == [(0, "completed")]


def mock_plan(tmp_path, treatment: str, extra: str = "") -> Path:
    return write_plan(
        tmp_path,
        f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 8
runs_per_treatment: 2
policy: llm
world_updater: template
transport:
  kind: mock
treatments:
  - {treatment}
{extra}
""",
    )


class TestStaleTranscripts:
    """A transcript is skipped only when its header is the run's own."""

    @pytest.mark.parametrize(
        "treatment, extra",
        [
            ("{label: t1.0-default, temperature: 0.5, variant: default}", ""),
            ("{label: t1.0-default, temperature: 1.0, variant: reflection_planning}", ""),
            ("{label: t1.0-default, temperature: 1.0, variant: default}",
             "intra_day_visibility: true"),
        ],
        ids=["temperature", "variant", "intra_day_visibility"],
    )
    def test_changed_run_under_the_same_label_is_refused(
        self, tmp_path, monkeypatch, treatment, extra
    ):
        from esclab import experiments

        first = load_plan(
            mock_plan(tmp_path, "{label: t1.0-default, temperature: 1.0, variant: default}")
        )
        out = tmp_path / "out"
        assert run_experiment(first, out).new_requests == 2 * 14 * 8
        files = sorted(out.rglob("*.json*"))
        before = {path: path.read_bytes() for path in files}

        transports = []
        original = experiments.build_transport

        def recording(*args, **kwargs):
            transports.append(original(*args, **kwargs))
            return transports[-1]

        monkeypatch.setattr(experiments, "build_transport", recording)
        changed = load_plan(mock_plan(tmp_path, treatment, extra))
        with pytest.raises(ValidationError, match="t1.0-default-r00.jsonl belongs to a different run"):
            run_experiment(changed, out)
        assert [t.request_count for t in transports] == [0]
        assert sorted(out.rglob("*.json*")) == files
        assert {path: path.read_bytes() for path in files} == before
