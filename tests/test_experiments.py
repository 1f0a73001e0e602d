import dataclasses
import json
import logging
import shutil
import threading
import time
from pathlib import Path

import pytest

from esclab.client import MAX_IN_FLIGHT, LiveTransport
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

from conftest import force_processes
from standins import EndpointStandIn

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
        with pytest.raises(ParseError, match="max_requests"):
            load_plan(scripted_plan(tmp_path, extra="max_requests: many"))

    @pytest.mark.parametrize("runs,extra,key", [
        (2.9, "", "runs_per_treatment"),
        (2, "max_parse_retries: true", "max_parse_retries"),
        (2, "model: 7", "model"),
    ])
    def test_wrong_typed_scalar_is_a_parse_error(self, tmp_path, runs, extra, key):
        with pytest.raises(ParseError, match=f"{key} must be"):
            load_plan(scripted_plan(tmp_path, runs=runs, extra=extra))

    def test_scalars_keep_their_yaml_values(self, tmp_path):
        plan = load_plan(scripted_plan(
            tmp_path, runs=3,
            extra="max_requests: 0\nmodel: m\nmax_parse_retries: 1",
        ))
        assert plan.runs_per_treatment == 3
        assert (plan.max_requests, plan.model, plan.max_parse_retries) == (0, "m", 1)

    def test_negative_max_requests_rejected(self, tmp_path):
        plan = load_plan(scripted_plan(tmp_path))
        with pytest.raises(ValidationError, match="max_requests"):
            dataclasses.replace(plan, max_requests=-1)
        with pytest.raises(ValidationError, match="max_requests"):
            load_plan(scripted_plan(tmp_path, extra="max_requests: -5"))

    @pytest.mark.parametrize("parallelism", [0, 2])
    def test_parallelism_is_not_a_plan_key(self, tmp_path, parallelism):
        # How many runs overlap follows from the transport, not from the plan.
        for value in (1, parallelism):
            with pytest.raises(ParseError, match=r"unknown keys \['parallelism'\]"):
                load_plan(scripted_plan(tmp_path, extra=f"parallelism: {value}"))
        with pytest.raises(ValidationError, match="parallelism must be 1"):
            ExperimentPlan(
                scenario_path=DATA / "neutral_scenario.yaml",
                taxonomy_path=DATA / "default_taxonomy.yaml",
                treatments=(Treatment("t", 1.0, PromptVariant.DEFAULT),),
                base_seed=1,
                parallelism=parallelism,
            )

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
        ("{kind: mock, responder: calibrated}", r"unknown keys \['responder'\]"),
        ("{kind: mock, text: a}", r"unknown keys \['text'\]"),
        ("{kind: replay, manifest: m.json, mode: strict}", r"unknown keys \['mode'\]"),
        ("{kind: replay}", r"missing keys \['manifest'\]"),
        ("{kind: replay, manifest: [a]}", "manifest must be a string"),
        ("{kind: replay, cassette: c.jsonl}", r"unknown keys \['cassette'\]"),
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
        ("intra_day_visibility: true", r"unknown keys \['intra_day_visibility'\]"),
        ("intra_day_visibility: false", r"unknown keys \['intra_day_visibility'\]"),
        ("parallelism: 4", r"unknown keys \['parallelism'\]"),
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
        original = transcript._read_bytes

        def counting(path):
            reads.append(Path(path).name)
            return original(path)

        monkeypatch.setattr(transcript, "_read_bytes", counting)
        again = run_experiment(plan, tmp_path / "out")
        assert sorted(reads) == ["t1.0-default-r00.jsonl", "t1.0-default-r01.jsonl"]
        assert [run.days for run in again.runs] == [run.days for run in first.runs]

    @pytest.mark.usefixtures("one_process")
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
        original = transcript._read_bytes

        def counting(path):
            reads.append(Path(path).name)
            return original(path)

        monkeypatch.setattr(transcript, "_read_bytes", counting)
        unlimited = dataclasses.replace(plan, max_requests=10_000)
        again = run_experiment(unlimited, tmp_path / "out")
        assert sorted(reads) == ["t1.0-default-r00.jsonl", "t1.0-default-r01.jsonl"]
        assert [run.status for run in again.runs] == ["completed", "completed"]

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

    @pytest.mark.usefixtures("one_process")
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


class TestBudgetPreflight:
    """Before the first request, a budget below what the pending runs may
    make at worst (every query on its last attempt) is one warning."""

    @staticmethod
    def warnings(caplog) -> list[str]:
        return [record.getMessage() for record in caplog.records
                if record.name == "esclab.experiments" and record.levelno == logging.WARNING]

    def test_reference_plan_warns_of_its_default_budget(self, tmp_path, monkeypatch, caplog):
        from esclab import experiments

        class Stop(Exception):
            pass

        def stop(*args):
            raise Stop

        monkeypatch.setattr(experiments, "play_runs", stop)  # warned before any request
        with pytest.raises(Stop):
            run_experiment(load_plan(DATA / "plan_reference.yaml"), tmp_path / "out")
        (warning,) = self.warnings(caplog)
        assert "10000 requests left" in warning and "60 runs" in warning
        assert "up to 27720" in warning

    @pytest.mark.usefixtures("one_process")
    def test_resumed_runs_count_only_the_days_they_have_left(self, tmp_path, caplog):
        path = write_plan(
            tmp_path,
            f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 5
runs_per_treatment: 4
max_requests: 300
treatments:
  - {{label: t1.0-default, temperature: 1.0, variant: default}}
""",
        )
        plan = load_plan(path)
        first = run_experiment(plan, tmp_path / "out")
        assert [len(run.days) for run in first.runs] == [14, 14, 5, 0]
        assert self.warnings(caplog) == [
            "request budget: 300 requests left, but the 4 runs to play may make up to 1848; "
            "the runs that ask after it runs out abort"]
        shutil.copytree(tmp_path / "out", tmp_path / "copy")
        caplog.clear()
        # At worst 33 requests on each of the 9 + 14 days left.
        run_experiment(dataclasses.replace(plan, max_requests=758), tmp_path / "out")
        (warning,) = self.warnings(caplog)
        assert "758 requests left" in warning and "2 runs" in warning and "up to 759" in warning
        caplog.clear()
        run_experiment(dataclasses.replace(plan, max_requests=759), tmp_path / "copy")
        assert self.warnings(caplog) == []


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

        manifest = tmp_path / "out" / "manifest.json"
        manifest.parent.mkdir()
        with manifest_lock(manifest):
            with pytest.raises(ValidationError, match="holds it"):
                with manifest_lock(manifest):
                    pass
            with pytest.raises(ValidationError, match="holds it"):
                with manifest_lock(manifest, shared=True):
                    pass

    def test_shared_readers_coexist(self, tmp_path):
        from esclab.experiments import manifest_lock

        manifest = tmp_path / "out" / "manifest.json"
        manifest.parent.mkdir()
        with manifest_lock(manifest, shared=True):
            with manifest_lock(manifest, shared=True):
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

    def test_manifest_that_cannot_be_written_is_a_parse_error(self, tmp_path):
        from esclab import experiments

        manifest = tmp_path / "manifest.json"
        manifest.mkdir()
        with pytest.raises(ParseError, match="cannot write manifest .*manifest.json"):
            experiments._write_manifest(manifest, {"runs": []})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    @pytest.mark.usefixtures("one_process")
    def test_exception_writes_the_manifest_of_the_runs_that_finished(
        self, tmp_path, monkeypatch
    ):
        from esclab import orchestrator

        manifest = tmp_path / "out" / "manifest.json"
        seen = {}
        original = orchestrator.decide_with_retry

        def failing_second(*args, run_id, **kwargs):
            seen.setdefault(run_id, manifest.exists())
            if run_id.endswith("-r01"):
                raise RuntimeError("disk on fire")
            return original(*args, run_id=run_id, **kwargs)

        monkeypatch.setattr(orchestrator, "decide_with_retry", failing_second)
        plan = load_plan(scripted_plan(tmp_path, runs=3))
        with pytest.raises(RuntimeError, match="disk on fire"):
            run_experiment(plan, tmp_path / "out")
        # Nothing is written while runs play; the exception still writes it.
        assert seen == {"t1.0-default-r00": False, "t1.0-default-r01": False}
        runs = json.loads(manifest.read_text(encoding="utf-8"))["runs"]
        assert [(entry["run_index"], entry["status"]) for entry in runs] == [(0, "completed")]


def mock_plan(tmp_path, treatment: str) -> Path:
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
""",
    )


class TestStaleTranscripts:
    """A transcript is skipped only when its header is the run's own."""

    @pytest.mark.parametrize(
        "treatment",
        [
            "{label: t1.0-default, temperature: 0.5, variant: default}",
            "{label: t1.0-default, temperature: 1.0, variant: reflection_planning}",
        ],
        ids=["temperature", "variant"],
    )
    def test_changed_run_under_the_same_label_is_refused(
        self, tmp_path, monkeypatch, treatment
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
        changed = load_plan(mock_plan(tmp_path, treatment))
        with pytest.raises(ValidationError, match="t1.0-default-r00.jsonl belongs to a different run"):
            run_experiment(changed, out)
        assert [t.request_count for t in transports] == [0]
        assert sorted(out.rglob("*.json*")) == files
        assert {path: path.read_bytes() for path in files} == before


def waiting_plan(tmp_path, temperatures=(1.0,), runs=4, extra="") -> ExperimentPlan:
    """A model plan on the mock with a template updater: one request per
    nation and day.  Each treatment gets its own temperature, which tells
    its requests apart on the wire."""
    treatments = "\n".join(
        f"  - {{label: t{index}, temperature: {temperature}}}"
        for index, temperature in enumerate(temperatures)
    )
    return load_plan(write_plan(
        tmp_path,
        f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 5
runs_per_treatment: {runs}
policy: llm
world_updater: template
treatments:
{treatments}
{extra}
""",
    ))


class TestOverlappedRuns:
    """A waiting policy plays the runs in overlap on the transport's
    in-flight cap of threads; whatever ends the experiment, those threads
    are gone when ``run_experiment`` returns or raises."""

    STEP_S = 0.0002

    def wrap(self, monkeypatch, stand_in=EndpointStandIn, **kwargs) -> list:
        from esclab import experiments

        built = []

        def build(plan, taxonomy, scenario, *args, **kw):
            inner = build_transport(plan, taxonomy, scenario, *args, **kw)
            built.append(stand_in(inner, scenario.nation_names, self.STEP_S, **kwargs))
            return built[-1]

        monkeypatch.setattr(experiments, "build_transport", build)
        return built

    def test_unexpected_error_is_raised_here_after_the_threads_end(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"

        class FailingLate(EndpointStandIn):
            """One query of run 1 fails, once the other runs have ended."""

            def send_once(self, request):
                if request.request_tag == f"t0-r01|d01|{self.roster[0]}|a1":
                    others = [out / "transcripts" / f"t0-r0{i}.jsonl" for i in (0, 2, 3)]
                    deadline = time.monotonic() + 60
                    while not all(path.exists() and b'"run_end"' in path.read_bytes()
                                  for path in others):
                        assert time.monotonic() < deadline, "the other runs did not end"
                        time.sleep(0.005)
                    raise RuntimeError("disk on fire")
                return super().send_once(request)

        built = self.wrap(monkeypatch, FailingLate)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="disk on fire"):
            run_experiment(waiting_plan(tmp_path), out)
        assert set(threading.enumerate()) == before
        assert threading.get_ident() not in built[0].threads
        runs = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["runs"]
        assert [(entry["run_index"], entry["status"]) for entry in runs] == [
            (0, "completed"), (2, "completed"), (3, "completed")]
        assert b'"run_end"' not in (out / "transcripts" / "t0-r01.jsonl").read_bytes()

    def test_scripted_policy_with_a_waiting_updater_sends_from_the_caller(
        self, tmp_path, monkeypatch
    ):
        """The scripted policy is in process, but its ``llm`` world updater
        waits on the endpoint: the runs play in the caller, one by one, even
        where two processes could play them, so the transport's limits hold
        for every request."""
        force_processes(monkeypatch, 2)
        built = self.wrap(monkeypatch)
        path = write_plan(
            tmp_path,
            f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 99
runs_per_treatment: 2
policy:
  kind: scripted
  script: {DATA / 'demo_script.yaml'}
world_updater: llm
treatments:
  - {{label: t1.0-default, temperature: 1.0, variant: default}}
""",
        )
        result = run_experiment(load_plan(path), tmp_path / "out")
        assert [run.completed for run in result.runs] == [True, True]
        assert not built[0].in_process
        assert result.new_requests == len(built[0].completed) == 2 * 14
        assert built[0].threads == {threading.get_ident()}

    def test_budget_abort_ends_every_run_and_its_threads(self, tmp_path, monkeypatch):
        built = self.wrap(monkeypatch)
        before = set(threading.enumerate())
        result = run_experiment(waiting_plan(tmp_path, extra="max_requests: 150"),
                                tmp_path / "out")
        assert set(threading.enumerate()) == before
        assert result.new_requests == 150
        assert threading.get_ident() not in built[0].threads
        assert len(built[0].threads) <= len(built[0].roster)
        runs = json.loads((tmp_path / "out" / "manifest.json").read_text("utf-8"))["runs"]
        assert [entry["run_index"] for entry in runs] == [0, 1, 2, 3]
        # 150 requests complete at most one run of 112.
        assert [entry["status"] for entry in runs].count("aborted") >= 3
        assert all("BudgetExceeded" in entry["abort_reason"]
                   for entry in runs if entry["status"] == "aborted")

    def test_live_transport_caps_posts_across_runs(self, tmp_path, monkeypatch):
        from esclab import experiments

        class Reply:
            status_code = 200

            def json(self):
                content = '{"actions": [{"action": "wait"}]}'
                return {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]}

        class Session:
            def __init__(self):
                self.lock = threading.Lock()
                self.in_flight = self.peak = 0
                self.temperatures, self.threads = [], set()

            def post(self, url, json=None, headers=None, timeout=None):
                with self.lock:
                    self.in_flight += 1
                    self.peak = max(self.peak, self.in_flight)
                    self.temperatures.append(json["temperature"])
                    self.threads.add(threading.get_ident())
                time.sleep(0.001)
                with self.lock:
                    self.in_flight -= 1
                return Reply()

        session = Session()

        def build(plan, *args, **kwargs):
            return LiveTransport("https://gateway.invalid/v1", "secret",
                                 max_requests=plan.max_requests, max_in_flight=2,
                                 requests_per_minute=10_000, session=session)

        monkeypatch.setattr(experiments, "build_transport", build)
        plan = waiting_plan(tmp_path, temperatures=(0.1, 0.2, 0.3, 0.4), runs=1)
        result = run_experiment(plan, tmp_path / "out")
        assert [run.status for run in result.runs] == ["completed"] * 4
        assert len(session.temperatures) == result.new_requests == 4 * 14 * 8
        assert session.peak == 2
        # One run's requests follow another's far more often than runs end.
        switches = sum(a != b for a, b in zip(session.temperatures, session.temperatures[1:]))
        assert switches > 3
        assert len(session.threads) <= 2
        assert threading.get_ident() not in session.threads

    def test_in_flight_cap_above_the_ceiling_is_refused_before_any_thread(self, tmp_path):
        plan = waiting_plan(tmp_path, extra=f"transport: {{{LIVE}, max_in_flight: 100000}}")
        before = set(threading.enumerate())
        with pytest.raises(ValidationError, match=f"max_in_flight <= {MAX_IN_FLIGHT}"):
            run_experiment(plan, tmp_path / "out", api_key="secret")
        assert set(threading.enumerate()) == before
        assert not (tmp_path / "out").exists()

    def test_open_transcripts_stay_within_twice_the_threads(self, tmp_path, monkeypatch):
        """However many runs are pending, at most two per thread hold their
        transcript open, so a large plan does not run out of file handles."""
        from esclab import transcript as ts

        lock, open_now, peak = threading.Lock(), [0], [0]

        class CountingWriter(ts.TranscriptWriter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                with lock:
                    open_now[0] += 1
                    peak[0] = max(peak[0], open_now[0])

            def close(self):
                with lock:
                    open_now[0] -= 1
                super().close()

        monkeypatch.setattr(ts, "TranscriptWriter", CountingWriter)
        built = self.wrap(monkeypatch, max_in_flight=1)
        result = run_experiment(waiting_plan(tmp_path, runs=7), tmp_path / "out")
        assert [run.status for run in result.runs] == ["completed"] * 7
        assert len(built[0].threads) == 1
        assert (open_now[0], peak[0]) == (0, 2)
