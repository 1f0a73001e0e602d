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

    def test_plan_digest_stable(self):
        plan = load_plan(DATA / "plan_reference.yaml")
        assert plan_digest(plan) == plan_digest(plan)


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

