"""Acceptance suite: one test per exit criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 11 (live endpoint smoke) runs its plan against a loopback
stand-in endpoint, and against a real one only when the environment provides
ESCLAB_LIVE_BASE_URL and ESCLAB_API_KEY.
"""
import json
import math
import os
import random
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from esclab.cli import main
from esclab.client import MockTransport
from esclab.experiments import load_plan, run_experiment
from esclab.figures import emit_boxplot, emit_category_chart
from esclab.mockdata import CalibratedResponder
from esclab.orchestrator import Treatment, run_simulation
from esclab.prompts import (
    CONTEXT_EXTENSION,
    EXTENSION_TEXTS,
    MAX_EXTENSION_WORDS,
    PromptVariant,
    build_prompts,
    extension_word_count,
)
from esclab.report import build_report
from esclab.scenario import initial_world
from esclab.scoring import Aggregator, CategoryCounts, category_frequencies, run_score
from esclab.stats import ci95_per_day, percent_reduction, significance_test, summarize
from esclab.taxonomy import ActionCategory
from esclab.transcript import read_records

from conftest import small_scenario
from standins import ChatEndpoint
from oracles import (
    exact_mwu_p,
    quartiles,
    t_quantile,
    transcript_category_counts,
    transcript_scores,
)
from test_prompts import EXTENSION_SHA256
from test_scoring import synthetic_run
from test_stats import CANONICAL_VECTORS

DATA = Path(__file__).parent.parent / "src" / "esclab" / "data"


def ok(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: PASS - {text}")


@pytest.fixture(scope="module")
def reference_executions(tmp_path_factory):
    """The shipped full-scale reference plan executed twice with identical seeds."""
    plan = load_plan(DATA / "plan_reference.yaml")
    outs = []
    for name in ("exec-a", "exec-b"):
        out = tmp_path_factory.mktemp(name)
        started = time.monotonic()
        result = run_experiment(plan, out)
        elapsed = time.monotonic() - started
        outs.append((out, result, elapsed))
    return outs


class TestCriterion1DerivedArithmetic:
    def test_reported_percentages_reproduced(self):
        started = time.monotonic()
        cases = [
            ((6.37, 3.96), 38),
            ((6.37, 3.33), 48),
            ((6.37, 4.61), 28),
            ((6.37, 2.76), 57),
            ((11.1, 6.7), 40),
            ((11.1, 6.5), 42),
        ]
        for (baseline, treated), expected in cases:
            value = percent_reduction(baseline, treated)
            assert abs(round(value) - expected) <= 1, (baseline, treated)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        ok(1, f"six reference reductions within +/-1 point ({elapsed * 1000:.1f} ms)")


class TestCriterion2ProtocolShape:
    def test_sixty_runs_and_request_floor(self, reference_executions):
        out, result, elapsed = reference_executions[0]
        assert elapsed < 300.0
        assert len(result.runs) == 60
        assert all(run.completed for run in result.runs)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert len(manifest["runs"]) == 60
        assert all(entry["status"] == "completed" for entry in manifest["runs"])
        per_treatment: dict[str, int] = {}
        for entry in manifest["runs"]:
            records = read_records(out / entry["transcript"])
            calls = sum(1 for r in records if r["type"] == "llm_call")
            assert calls >= 126, entry["transcript"]
            per_treatment[entry["label"]] = per_treatment.get(entry["label"], 0) + calls
        assert all(total >= 1260 for total in per_treatment.values())
        assert result.new_requests >= 6 * 1260
        ok(2, f"60 completed runs, >=126 requests each, >=1260 per treatment, "
              f"{elapsed:.1f} s")


class TestCriterion3Determinism:
    def test_byte_identical_manifests_and_transcripts(self, reference_executions):
        (out_a, _, _), (out_b, _, _) = reference_executions
        manifest_a = (out_a / "manifest.json").read_bytes()
        manifest_b = (out_b / "manifest.json").read_bytes()
        assert manifest_a == manifest_b
        names_a = sorted(p.name for p in (out_a / "transcripts").iterdir())
        names_b = sorted(p.name for p in (out_b / "transcripts").iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (out_a / "transcripts" / name).read_bytes() == (
                out_b / "transcripts" / name
            ).read_bytes(), name
        ok(3, f"two executions byte-identical across manifest and {len(names_a)} "
              "transcripts")


class TestCriterion4ScoringOracle:
    def test_thousand_randomized_fixtures_match_brute_force(self, taxonomy, tmp_path):
        rng = random.Random(2024)
        score_table = {s.id: s.score for s in taxonomy.actions}
        category_table = {s.id: s.category.value for s in taxonomy.actions}
        for i in range(1000):
            n_nations = rng.randint(1, 3)
            days = rng.randint(1, 4)
            run, path, scenario = synthetic_run(
                rng, taxonomy, n_nations=max(2, n_nations), days=days,
                tmp_path=tmp_path, tag=str(i),
            )
            oracle = transcript_scores(path, score_table)
            for record in run.days:
                assert dict(record.daily_score_by_nation) == oracle["daily"][record.day]
            mean = run_score(run, Aggregator.MEAN_DAILY)
            cumulative = run_score(run, Aggregator.DAY14_CUMULATIVE)
            for nation in scenario.nation_names:
                assert mean[nation] == float(oracle["mean_daily"][nation])
                assert cumulative[nation] == oracle["cumulative"][nation]
            counts = category_frequencies([run], taxonomy)
            oracle_counts = transcript_category_counts([path], category_table)
            for category in ActionCategory:
                expected = oracle_counts.get(category.value, Fraction(0))
                assert counts[category] == float(expected)
        ok(4, "1000 randomized fixtures match brute-force recomputation exactly")


class TestCriterion5StatisticsOracles:
    def test_summarize_canonical_vectors(self):
        assert len(CANONICAL_VECTORS) >= 10
        for samples, (q1, median, q3) in CANONICAL_VECTORS:
            stats = summarize(samples)
            assert stats.q1 == pytest.approx(q1, abs=1e-12)
            assert stats.median == pytest.approx(median, abs=1e-12)
            assert stats.q3 == pytest.approx(q3, abs=1e-12)
            oq1, omed, oq3 = quartiles(samples)
            assert (stats.q1, stats.median, stats.q3) == pytest.approx((oq1, omed, oq3))
        ok(5, f"summarize matches hand-computed quartiles on "
              f"{len(CANONICAL_VECTORS)} vectors")

    def test_mannwhitney_matches_enumeration_for_pairs_up_to_6(self):
        rng = random.Random(55)
        checked = 0
        for n in range(3, 7):
            for m in range(3, 7):
                for _ in range(3):
                    values = rng.sample(range(10_000), n + m)
                    a, b = values[:n], values[n:]
                    ours = significance_test(a, b)
                    assert ours.p_value == pytest.approx(exact_mwu_p(a, b), abs=1e-12)
                    checked += 1
        ok(5, f"Mann-Whitney p matches exhaustive enumeration on {checked} "
              "sample pairs (sizes 3..6)")

    def test_ci95_half_width_for_n10(self):
        t_exact = t_quantile(0.975, 9)
        assert round(t_exact, 3) == 2.262
        rng = random.Random(77)
        matrix = [[rng.gauss(0, 1) for _ in range(14)] for _ in range(10)]
        series = ci95_per_day(matrix)
        for d, day in enumerate(series.days):
            column = [matrix[r][d] for r in range(10)]
            mean = sum(column) / 10
            s = math.sqrt(sum((x - mean) ** 2 for x in column) / 9)
            half = (day.ci_high - day.ci_low) / 2
            assert half == pytest.approx(t_exact * s / math.sqrt(10), rel=1e-9)
            assert half == pytest.approx(2.262 * s / math.sqrt(10), rel=1e-3)
        ok(5, "ci95 half-width equals t(0.975,9)*s/sqrt(10) (2.262 at table "
              "precision) within 1e-9 of the exact quantile")


class TestCriterion6PromptFidelity:
    def test_extensions_byte_identical_and_short(self, scenario, taxonomy):
        import hashlib

        for variant, expected_sha in EXTENSION_SHA256.items():
            text = EXTENSION_TEXTS[variant]
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected_sha
            assert extension_word_count(variant) < MAX_EXTENSION_WORDS
        world = initial_world(scenario)
        context = build_prompts(scenario, taxonomy, world, "Blue", PromptVariant.CONTEXT)
        assert context.user_text.endswith(CONTEXT_EXTENSION)
        for variant in (PromptVariant.REFLECTION_PLANNING,
                        PromptVariant.REFLECTION_DEESCALATION):
            bundle = build_prompts(scenario, taxonomy, world, "Blue", variant)
            assert EXTENSION_TEXTS[variant] in bundle.system_text
            assert bundle.expects_private_thoughts
        ok(6, "all three extensions render byte-identical to their pinned "
              "checksums and stay under 50 words")


class TestCriterion7TemperaturePlumbing:
    @pytest.mark.parametrize("temperature", [0.01, 0.5, 1.0])
    def test_captured_body_carries_exact_temperature(
        self, taxonomy, temperature, tmp_path
    ):
        scenario = small_scenario(n_nations=3, days=2)
        responder = CalibratedResponder(taxonomy, scenario, runs_per_treatment=1)
        transport = MockTransport(responder, capture=True)
        from esclab.agents import LlmPolicy
        from esclab.orchestrator import LlmUpdater

        label = f"t{temperature:g}-default"
        run = run_simulation(
            scenario, taxonomy,
            Treatment(label=label, temperature=temperature,
                      variant=PromptVariant.DEFAULT),
            LlmPolicy(transport, model="m"),
            LlmUpdater(transport, model="m"),
            seed=0,
            transcript_path=tmp_path / f"acc7-{temperature}.jsonl",
        )
        assert run.completed
        assert transport.captured, "no bodies captured"
        for body in transport.captured:
            assert body["temperature"] == temperature
            assert json.loads(json.dumps(body))["temperature"] == temperature
        ok(7, f"every captured request body carries exactly {temperature}")


class TestCriterion8TaxonomyIntegrity:
    def test_shipped_default(self, taxonomy):
        assert len(taxonomy.actions) == 27
        scores = [spec.score for spec in taxonomy.actions]
        assert min(scores) == -2 and max(scores) == 60
        by_category = {category: 0 for category in ActionCategory}
        for spec in taxonomy.actions:
            by_category[spec.category] += 1
        assert all(count > 0 for count in by_category.values())
        assert sum(by_category.values()) == 27
        ok(8, "default taxonomy: 27 actions, scores exactly [-2, 60], six "
              "categories populated")


class TestCriterion9FigureGeometry:
    def test_box_coordinates_and_zero_nuclear_bar(self, tmp_path):
        stats = [
            ("base", summarize([1, 2, 3, 5, 8, 9, 10, 12])),
            ("low", summarize([1, 1.5, 2, 2.5, 3, 4, 4.5, 5])),
        ]
        box_path = emit_boxplot(stats, tmp_path / "fig1.svg")
        root = ET.parse(box_path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        provenance = json.loads(root.find(f"{ns}desc").text)

        def y_px(value):
            plot = provenance["plot"]
            return plot["bottom"] - (value - provenance["y_min"]) / (
                provenance["y_max"] - provenance["y_min"]
            ) * (plot["bottom"] - plot["top"])

        boxes = {el.get("data-label"): el for el in root.iter()
                 if el.get("data-role") == "box"}
        for label, s in stats:
            box = boxes[label]
            assert abs(float(box.get("y")) - y_px(s.q3)) <= 0.5
            assert abs(float(box.get("y")) + float(box.get("height"))
                       - y_px(s.q1)) <= 0.5

        counts = {category: 0.0 for category in ActionCategory}
        counts[ActionCategory.POSTURING] = 6.0
        chart_path = emit_category_chart(
            [("deesc", CategoryCounts(counts=counts, nations=8, runs=10))],
            tmp_path / "fig4.svg",
        )
        chart = ET.parse(chart_path).getroot()
        nuclear_bars = [el for el in chart.iter()
                        if el.get("data-role") == "bar"
                        and el.get("data-category") == "nuclear"]
        assert len(nuclear_bars) == 1
        assert float(nuclear_bars[0].get("height")) == 0.0
        labels = [el for el in chart.iter()
                  if el.get("data-role") == "bar-label"
                  and el.get("data-category") == "nuclear"]
        assert labels[0].text == "0"
        ok(9, "box q1/q3 pixel coordinates within 0.5 px; zero nuclear count "
              "renders a labeled zero bar")


class TestCriterion10CrashResumption:
    def test_truncated_experiment_resumes_byte_identical(self, tmp_path):
        plan = load_plan(DATA / "plan_demo.yaml")
        pristine = run_experiment(plan, tmp_path / "pristine")
        assert all(run.completed for run in pristine.runs)
        crashed_dir = tmp_path / "crashed"
        run_experiment(plan, crashed_dir)
        victim = crashed_dir / "transcripts" / "t1.0-default-r01.jsonl"
        lines = victim.read_text(encoding="utf-8").splitlines(keepends=True)
        day_indexes = [i for i, line in enumerate(lines) if '"type":"day"' in line]
        cut = day_indexes[5] + 1  # keep through day 6, then a torn partial line
        torn = "".join(lines[:cut]) + lines[cut][: len(lines[cut]) // 2]
        victim.write_text(torn, encoding="utf-8")
        resumed = run_experiment(plan, crashed_dir)
        assert all(run.completed for run in resumed.runs)
        for name in ("t1.0-default-r00.jsonl", "t1.0-default-r01.jsonl"):
            assert (crashed_dir / "transcripts" / name).read_bytes() == (
                tmp_path / "pristine" / "transcripts" / name
            ).read_bytes(), name
        assert (crashed_dir / "manifest.json").read_bytes() == (
            tmp_path / "pristine" / "manifest.json"
        ).read_bytes()
        ok(10, "kill-after-day-6 with a torn tail resumes to byte-identical "
               "transcripts and manifest")


LIVE_URL = os.environ.get("ESCLAB_LIVE_BASE_URL")
LIVE_KEY = os.environ.get("ESCLAB_API_KEY")


def live_plan(path: Path, base_url: str, transport_extra: str = "") -> Path:
    """Criterion 11's two-run plan against the endpoint at ``base_url``."""
    path.write_text(
        f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 1
runs_per_treatment: 2
max_requests: 600
policy: llm
world_updater: llm
transport:
  kind: live
  base_url: {base_url}
{transport_extra}
treatments:
  - {{label: t1.0-default, temperature: 1.0, variant: default}}
""",
        encoding="utf-8",
    )
    return path


@pytest.mark.skipif(
    not (LIVE_URL and LIVE_KEY),
    reason="live smoke needs ESCLAB_LIVE_BASE_URL and ESCLAB_API_KEY",
)
class TestCriterion11LiveSmoke:
    def test_live_two_run_experiment_reports(self, tmp_path):
        plan = load_plan(live_plan(tmp_path / "live_plan.yaml", LIVE_URL))
        result = run_experiment(plan, tmp_path / "exp", api_key=LIVE_KEY)
        assert all(run.completed for run in result.runs)
        bundle = build_report(result.manifest_path, tmp_path / "report")
        assert set(bundle.figures) == {"fig1", "fig2", "fig3", "fig4"}
        ok(11, "live two-run smoke completed and produced all four figures")


class TestCriterion11Loopback:
    def test_live_plan_through_the_cli_on_loopback(self, tmp_path, monkeypatch, capsys):
        """Criterion 11's plan, through ``esclab experiment`` and ``esclab
        report``, against an endpoint on 127.0.0.1, with ``requests``
        unimportable."""
        monkeypatch.setitem(sys.modules, "requests", None)
        monkeypatch.setenv("ESCLAB_API_KEY", "sk-loopback")
        with ChatEndpoint() as endpoint:
            plan = live_plan(tmp_path / "live_plan.yaml", endpoint.url,
                             "  requests_per_minute: 100000")
            assert main(["experiment", "--plan", str(plan), "--out",
                         str(tmp_path / "exp")]) == 0
        experiment = json.loads(capsys.readouterr().out)
        assert experiment["new_requests"] == len(endpoint.received) == 2 * 14 * (8 + 1)
        assert {headers["Authorization"] for headers, _ in endpoint.received} == {
            "Bearer sk-loopback"}
        assert main(["report", "--manifest", str(tmp_path / "exp" / "manifest.json"),
                     "--out", str(tmp_path / "report")]) == 0
        figures = (tmp_path / "report" / "figures").glob("*.svg")
        assert sorted(path.name for path in figures) == [f"fig{n}.svg" for n in (1, 2, 3, 4)]
        ok(11, "the live two-run plan on loopback completed and produced all four figures")
