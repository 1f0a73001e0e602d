"""Report emission: summary tables (CSV/JSON) and the four standard figures.

Reports are a pure function of transcripts: every number in a table is
recomputed from recorded actions through the scoring and stats modules, and
re-running a report reproduces byte-identical CSV/JSON (figures embed an
optional timestamp, nothing else varies).
"""
from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import ParseError, ValidationError
from .experiments import load_manifest, manifest_lock
from .figures import emit_boxplot, emit_category_chart, emit_timeseries
from .scoring import Aggregator, CategoryCounts, ScoreTally
from .stats import (
    QUARTILE_CONVENTION,
    SIGNIFICANCE_TEST_NAME,
    DailySeriesStats,
    SummaryStats,
    ci95_per_day,
    percent_reduction,
    significance_test,
    summarize,
)
from .taxonomy import load_taxonomy
from .transcript import load_run

log = logging.getLogger("esclab.report")

FIGURE_DIR = "figures"


@dataclass
class ReportBundle:
    """Paths and in-memory statistics of one emitted report."""

    out_dir: Path
    summary_csv: Path
    reductions_csv: Path
    daily_csv: Path
    categories_csv: Path
    provenance_json: Path
    figures: dict[str, Path]
    summaries: dict[str, SummaryStats]
    reductions: list[dict]
    daily: dict[str, DailySeriesStats]
    categories: dict[str, CategoryCounts]
    baseline: str
    aggregator: Aggregator
    excluded_runs: list[dict] = field(default_factory=list)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def build_report(
    manifest_path: str | Path,
    out_dir: str | Path,
    baseline: str | None = None,
    aggregator: Aggregator | None = None,
    taxonomy_path: str | Path | None = None,
    include_timestamp: bool = True,
) -> ReportBundle:
    """Compute all tables and figures for one experiment manifest."""
    manifest_path = Path(manifest_path)
    out_dir = Path(out_dir)
    with manifest_lock(manifest_path, shared=True):
        manifest = load_manifest(manifest_path)
        aggregator = aggregator or Aggregator(manifest["aggregator"])
        taxonomy = load_taxonomy(taxonomy_path or manifest["taxonomy_path"])

        # One run at a time: its label's tally checks and folds it before
        # the next is read.
        tallies: dict[str, ScoreTally] = {}
        temperatures: dict[str, float] = {}  # of each label's first run
        variants: dict[str, str] = {}
        excluded: list[dict] = []
        for entry in manifest["runs"]:
            if entry["status"] != "completed":
                excluded.append(entry)
                continue
            run = load_run(manifest_path.parent / entry["transcript"])
            if not run.completed:
                excluded.append(entry)
                continue
            label = entry["label"]
            if label not in tallies:
                tallies[label] = ScoreTally(aggregator, taxonomy)
                temperatures[label], variants[label] = run.temperature, run.variant
            tallies[label].add(run)
    labels = [t["label"] for t in manifest["treatments"] if t["label"] in tallies]
    if not labels:
        raise ValidationError("manifest has no completed runs to report on")
    if excluded:
        log.warning("report excludes %d non-completed runs", len(excluded))

    baseline = baseline or manifest["baseline"] or labels[0]
    if baseline not in labels:
        raise ValidationError(f"baseline {baseline!r} has no completed runs")

    summaries: dict[str, SummaryStats] = {}
    categories: dict[str, CategoryCounts] = {}
    daily: dict[str, DailySeriesStats] = {}
    for label in labels:
        tally = tallies[label]
        summaries[label] = summarize(tally.samples)
        categories[label] = tally.categories()
        if tally.runs >= 2:
            daily[label] = ci95_per_day(tally.daily_means)

    summary_rows = [
        [
            label,
            temperatures[label],
            variants[label],
            summaries[label].n,
            summaries[label].mean,
            summaries[label].median,
            summaries[label].q1,
            summaries[label].q3,
            summaries[label].min,
            summaries[label].max,
        ]
        for label in labels
    ]
    reductions: list[dict] = []
    baseline_mean = summaries[baseline].mean
    for label in labels:
        if label == baseline:
            continue
        row = {
            "label": label,
            "baseline": baseline,
            "baseline_mean": baseline_mean,
            "mean": summaries[label].mean,
            "percent_reduction": percent_reduction(baseline_mean, summaries[label].mean),
            "u_statistic": None,
            "p_value": None,
            "significant_at_0_05": None,
        }
        if tallies[baseline].runs >= 3 and tallies[label].runs >= 3:
            test = significance_test(tallies[baseline].run_level, tallies[label].run_level)
            row["u_statistic"] = test.statistic
            row["p_value"] = test.p_value
            row["significant_at_0_05"] = test.significant_at_0_05
        reductions.append(row)

    daily_rows = []
    for label in labels:
        if label not in daily:
            continue
        for day_index, day in enumerate(daily[label].days, start=1):
            daily_rows.append([label, day_index, day.mean, day.ci_low, day.ci_high])

    category_rows = []
    for label in labels:
        for category, value in categories[label].counts.items():
            category_rows.append([label, category.value, value])

    provenance = {
        "plan_sha256": manifest["plan_sha256"],
        "taxonomy_version": taxonomy.version,
        "aggregator": aggregator.value,
        "quartile_convention": QUARTILE_CONVENTION,
        "significance_test": SIGNIFICANCE_TEST_NAME,
        "baseline": baseline,
        "labels": labels,
        "excluded_runs": len(excluded),
    }
    figure_provenance = dict(provenance)
    if include_timestamp:
        figure_provenance["generated_at"] = datetime.now(timezone.utc).isoformat()

    summary_csv = out_dir / "summary.csv"
    reductions_csv = out_dir / "reductions.csv"
    daily_csv = out_dir / "daily.csv"
    categories_csv = out_dir / "categories.csv"
    provenance_json = out_dir / "provenance.json"
    fig_dir = out_dir / FIGURE_DIR
    figures: dict[str, Path] = {}
    # Only now, with every run read and checked: a refused report leaves no
    # directory behind.
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        fig_dir.mkdir(exist_ok=True)
        _write_csv(
            summary_csv,
            ["label", "temperature", "variant", "n", "mean", "median", "q1", "q3", "min", "max"],
            summary_rows,
        )
        columns = ["label", "baseline", "baseline_mean", "mean", "percent_reduction",
                   "u_statistic", "p_value", "significant_at_0_05"]
        _write_csv(reductions_csv, columns, [[r[k] for k in columns] for r in reductions])
        _write_csv(daily_csv, ["label", "day", "mean", "ci_low", "ci_high"], daily_rows)
        _write_csv(categories_csv, ["label", "category", "actions_per_nation"], category_rows)
        provenance_json.write_text(
            json.dumps(provenance, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

        default_labels = [l for l in labels if variants[l] == "default"]
        if not default_labels:
            default_labels = labels
        figures["fig1"] = emit_boxplot(
            [(l, summaries[l]) for l in default_labels],
            fig_dir / "fig1.svg",
            title=f"Escalation score per nation ({aggregator.value}) by temperature",
            provenance=figure_provenance,
        )
        prompt_labels = [l for l in labels if l == baseline or variants[l] != "default"]
        if len(prompt_labels) < 2:
            prompt_labels = labels
        figures["fig2"] = emit_boxplot(
            [(l, summaries[l]) for l in prompt_labels],
            fig_dir / "fig2.svg",
            title=f"Escalation score per nation ({aggregator.value}) by prompt",
            provenance=figure_provenance,
        )
        if daily:
            series_labels = [l for l in labels if l in daily]
            if len(series_labels) > 3:
                others = sorted(
                    (l for l in series_labels if l != baseline),
                    key=lambda l: summaries[l].mean,
                )[:2]
                series_labels = ([baseline] if baseline in daily else []) + others
            figures["fig3"] = emit_timeseries(
                [(l, daily[l]) for l in series_labels],
                fig_dir / "fig3.svg",
                provenance=figure_provenance,
            )
        else:
            log.warning("skipping fig3: no treatment has two or more completed runs")
        figures["fig4"] = emit_category_chart(
            [(l, categories[l]) for l in labels],
            fig_dir / "fig4.svg",
            provenance=figure_provenance,
        )
    except OSError as exc:
        raise ParseError(f"cannot write report {out_dir}: {exc}") from exc

    return ReportBundle(
        out_dir=out_dir,
        summary_csv=summary_csv,
        reductions_csv=reductions_csv,
        daily_csv=daily_csv,
        categories_csv=categories_csv,
        provenance_json=provenance_json,
        figures=figures,
        summaries=summaries,
        reductions=reductions,
        daily=daily,
        categories=categories,
        baseline=baseline,
        aggregator=aggregator,
        excluded_runs=excluded,
    )
