import csv
import json
import re
import weakref
from pathlib import Path

import pytest

from esclab import report, scoring
from esclab import transcript as ts
from esclab.errors import MixedScenario, ValidationError
from esclab.experiments import load_plan, run_experiment
from esclab.report import build_report
from esclab.scoring import Aggregator

from conftest import is_sealed, rewrite
from test_corrupt_transcripts import without_nation
from test_golden import REPORT_SHA256, digests, tiny_plan
from test_transcript_format import reseal

DATA = Path(__file__).parent.parent / "src" / "esclab" / "data"


@pytest.fixture(scope="module")
def reference_manifest(tmp_path_factory):
    """The shipped six-treatment plan executed once on the mock transport."""
    out = tmp_path_factory.mktemp("reference-exp")
    plan = load_plan(DATA / "plan_reference.yaml")
    result = run_experiment(plan, out)
    assert all(run.completed for run in result.runs)
    return result.manifest_path


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


class TestReferenceReport:
    def test_reductions_reproduce_headline_percentages(
        self, reference_manifest, tmp_path
    ):
        bundle = build_report(reference_manifest, tmp_path / "report")
        rows = {r["label"]: r for r in read_csv(bundle.reductions_csv)}
        expected = {
            "t0.5-default": 38,
            "t0.01-default": 48,
            "t1.0-reflection-planning": 28,
            "t1.0-reflection-deescalation": 57,
        }
        for label, target in expected.items():
            assert round(float(rows[label]["percent_reduction"])) == target

    def test_summary_means_match_reference_values(self, reference_manifest, tmp_path):
        bundle = build_report(reference_manifest, tmp_path / "report")
        rows = {r["label"]: r for r in read_csv(bundle.summary_csv)}
        assert round(float(rows["t1.0-default"]["mean"]), 2) == 6.37
        assert round(float(rows["t0.01-default"]["mean"]), 2) == 3.33
        assert round(float(rows["t1.0-context"]["mean"]), 2) == 5.86
        assert all(int(r["n"]) == 80 for r in rows.values())

    def test_report_is_pure_function_of_transcripts(self, reference_manifest, tmp_path):
        first_dir = tmp_path / "first"
        build_report(reference_manifest, first_dir, include_timestamp=False)
        snapshot = {
            p.name: p.read_bytes()
            for p in first_dir.glob("*.csv")
        }
        snapshot["provenance.json"] = (first_dir / "provenance.json").read_bytes()
        figures = {
            p.name: p.read_bytes() for p in (first_dir / "figures").glob("*.svg")
        }
        for p in first_dir.rglob("*"):
            if p.is_file():
                p.unlink()
        build_report(reference_manifest, first_dir, include_timestamp=False)
        for name, blob in snapshot.items():
            assert (first_dir / name).read_bytes() == blob, name
        for name, blob in figures.items():
            assert (first_dir / "figures" / name).read_bytes() == blob, name

    def test_csv_and_json_identical_even_with_timestamped_figures(
        self, reference_manifest, tmp_path
    ):
        a = build_report(reference_manifest, tmp_path / "a", include_timestamp=True)
        b = build_report(reference_manifest, tmp_path / "b", include_timestamp=True)
        for name in ("summary.csv", "reductions.csv", "daily.csv",
                     "categories.csv", "provenance.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_four_figures_emitted(self, reference_manifest, tmp_path):
        bundle = build_report(reference_manifest, tmp_path / "report")
        assert set(bundle.figures) == {"fig1", "fig2", "fig3", "fig4"}
        for path in bundle.figures.values():
            assert path.exists()
            assert path.read_text(encoding="utf-8").startswith("<svg")

    def test_provenance_names_conventions(self, reference_manifest, tmp_path):
        bundle = build_report(reference_manifest, tmp_path / "report")
        provenance = json.loads(bundle.provenance_json.read_text(encoding="utf-8"))
        assert provenance["aggregator"] == "mean_daily"
        assert "linear interpolation" in provenance["quartile_convention"]
        assert "Mann-Whitney" in provenance["significance_test"]
        assert provenance["baseline"] == "t1.0-default"
        assert provenance["plan_sha256"]

    def test_daily_table_has_14_days_per_treatment(self, reference_manifest, tmp_path):
        bundle = build_report(reference_manifest, tmp_path / "report")
        rows = read_csv(bundle.daily_csv)
        by_label = {}
        for row in rows:
            by_label.setdefault(row["label"], []).append(int(row["day"]))
            assert float(row["ci_low"]) <= float(row["mean"]) <= float(row["ci_high"])
        assert all(sorted(days) == list(range(1, 15)) for days in by_label.values())

    def test_temperature_and_reflection_significant(self, reference_manifest, tmp_path):
        bundle = build_report(reference_manifest, tmp_path / "report")
        rows = {r["label"]: r for r in read_csv(bundle.reductions_csv)}
        assert rows["t0.01-default"]["significant_at_0_05"] == "true"
        assert rows["t1.0-reflection-deescalation"]["significant_at_0_05"] == "true"

    def test_aggregator_override(self, reference_manifest, tmp_path):
        bundle = build_report(
            reference_manifest, tmp_path / "cumulative",
            aggregator=Aggregator.DAY14_CUMULATIVE,
        )
        rows = {r["label"]: r for r in read_csv(bundle.summary_csv)}
        assert round(float(rows["t1.0-default"]["mean"]), 1) == pytest.approx(
            14 * 6.37, abs=0.5
        )

    def test_baseline_override_validated(self, reference_manifest, tmp_path):
        with pytest.raises(ValidationError, match="no-such"):
            build_report(reference_manifest, tmp_path / "x", baseline="no-such")


class TestSmallReports:
    def test_demo_plan_report(self, tmp_path):
        plan = load_plan(DATA / "plan_demo.yaml")
        result = run_experiment(plan, tmp_path / "exp")
        bundle = build_report(result.manifest_path, tmp_path / "report")
        assert bundle.summaries["t1.0-default"].n == 16
        # demo script: Blue's -2 on day 1, Red's +4 on day 2, rest waits
        assert bundle.summaries["t1.0-default"].mean == pytest.approx(
            (-2 + 4) / (8 * 14)
        )
        assert "fig3" in bundle.figures

    def test_single_run_skips_timeseries(self, tmp_path):
        plan_text = (DATA / "plan_demo.yaml").read_text(encoding="utf-8").replace(
            "runs_per_treatment: 2", "runs_per_treatment: 1"
        ).replace("scenario: ", f"scenario: {DATA}/").replace(
            "taxonomy: ", f"taxonomy: {DATA}/"
        ).replace("script: ", f"script: {DATA}/")
        plan_path = tmp_path / "single.yaml"
        plan_path.write_text(plan_text, encoding="utf-8")
        plan = load_plan(plan_path)
        result = run_experiment(plan, tmp_path / "exp")
        bundle = build_report(result.manifest_path, tmp_path / "report")
        assert "fig3" not in bundle.figures
        assert read_csv(bundle.daily_csv) == []

    @pytest.mark.parametrize("day,edit", [
        (2, lambda scores: scores.pop("Red")),
        (1, lambda scores: scores.update(Atlantis=0)),
    ], ids=["nation-missing", "nation-without-a-turn"])
    def test_scores_and_turns_of_a_day_name_different_nations(self, tmp_path, day, edit):
        result = run_experiment(load_plan(DATA / "plan_demo.yaml"), tmp_path / "exp")
        path = result.manifest_path.parent / "transcripts" / "t1.0-default-r01.jsonl"
        records = ts.read_records(path)
        day_record = next(r for r in records if r["type"] == ts.DAY and r["day"] == day)
        edit(day_record["payload"]["scores"])
        rewrite(path, records)
        nation = "Red" if day == 2 else "Atlantis"
        with pytest.raises(ValidationError, match=rf"'t1.0-default-r01' day {day}: .*'{nation}'"):
            build_report(result.manifest_path, tmp_path / "report")

    @pytest.mark.parametrize("day", [1, 2, 14])
    def test_a_nation_missing_from_one_whole_day_is_refused(self, tmp_path, day):
        result = run_experiment(load_plan(DATA / "plan_demo.yaml"), tmp_path / "exp")
        path = result.manifest_path.parent / "transcripts" / "t1.0-default-r01.jsonl"
        records = without_nation(ts.read_records(path), day, "Red")
        rewrite(path, [{**record, "seq": seq} for seq, record in enumerate(records)])
        named = 2 if day == 1 else day  # the first day to differ from day 1
        with pytest.raises(ValidationError, match=re.escape(
            f"transcript 't1.0-default-r01' day {named}: nations ['Red'] play on day 1 "
            f"or on day {named}, not both"
        )):
            build_report(result.manifest_path, tmp_path / "report")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("emptied", ["no-day", "no-score"])
    def test_a_completed_run_without_a_score_is_refused(self, tmp_path, emptied):
        result = run_experiment(load_plan(DATA / "plan_demo.yaml"), tmp_path / "exp")
        path = result.manifest_path.parent / "transcripts" / "t1.0-default-r01.jsonl"
        gone = (ts.TURN, ts.DAY) if emptied == "no-day" else (ts.TURN,)
        kept = [r for r in ts.read_records(path) if r["type"] not in gone]
        for record in kept:
            if record["type"] == ts.DAY:
                record["payload"]["scores"] = {}
        reseal(path, [{**record, "seq": seq} for seq, record in enumerate(kept)])
        assert is_sealed(path)
        if emptied == "no-day":  # the loader counts the days
            refusal = f"^transcript {re.escape(str(path))} completed after 0 of 14 days$"
            with pytest.raises(ValidationError, match=refusal):
                ts.load_run(path)
        else:
            assert ts.load_run(path).completed
            refusal = "^transcript 't1.0-default-r01' completed without a nation's score$"
        with pytest.raises(ValidationError, match=refusal):
            build_report(result.manifest_path, tmp_path / "report")


class TestStreaming:
    def test_report_holds_one_run_at_a_time(self, tmp_path, monkeypatch):
        result = run_experiment(tiny_plan(), tmp_path / "exp")
        loaded = []
        load_run = report.load_run

        def load_and_watch(path):
            alive = [ref for ref in loaded if ref() is not None]
            assert len(alive) <= 1, f"{len(alive)} runs alive when {path.name} is loaded"
            run = load_run(path)
            loaded.append(weakref.ref(run))
            return run

        monkeypatch.setattr(report, "load_run", load_and_watch)
        build_report(result.manifest_path, tmp_path / "report", include_timestamp=False)
        assert len(loaded) == len(result.runs) == 4
        assert digests(tmp_path / "report", "*.csv") == REPORT_SHA256

    def test_label_spanning_two_scenarios_is_refused_while_reading(self, tmp_path):
        result = run_experiment(load_plan(DATA / "plan_demo.yaml"), tmp_path / "exp")
        path = result.manifest_path.parent / "transcripts" / "t1.0-default-r01.jsonl"
        records = ts.read_records(path)
        records[0]["payload"]["scenario_name"] = "another scenario"
        rewrite(path, records)
        with pytest.raises(MixedScenario, match="another scenario"):
            build_report(result.manifest_path, tmp_path / "report")
        assert not (tmp_path / "report").exists()

    def test_each_action_is_looked_up_once(self, tmp_path, monkeypatch):
        result = run_experiment(tiny_plan(), tmp_path / "exp")
        actions = sum(len(actions) for run in result.runs for record in run.days
                      for actions in record.actions_by_nation.values())
        looked_up = []
        lookup = scoring.lookup_action

        def counted(taxonomy, action_id):
            looked_up.append(action_id)
            return lookup(taxonomy, action_id)

        monkeypatch.setattr(scoring, "lookup_action", counted)
        build_report(result.manifest_path, tmp_path / "report", include_timestamp=False)
        assert len(looked_up) == actions > 0
        assert digests(tmp_path / "report", "*.csv") == REPORT_SHA256
