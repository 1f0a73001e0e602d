"""Pinned bytes of a tiny calibrated-mock experiment.

The shipped reference plan cut to two treatments (the default prompt and a
reflection variant) with two runs each.  Every transcript, the manifest
(with the data directory's path replaced by a placeholder, so the digest
holds wherever the checkout lives) and every report CSV must hash to the
digests below, so a change meant to leave the output alone
(encoding, buffering, prompt rendering, parsing) is checked byte for byte
by the suite.  A change that means to alter the output re-pins them and
says why.
"""
import dataclasses
import hashlib
import json
from pathlib import Path

from esclab.experiments import load_plan, run_experiment
from esclab.report import build_report

DATA = Path(__file__).resolve().parent.parent / "src" / "esclab" / "data"

TRANSCRIPT_SHA256 = {
    "t1.0-default-r00.jsonl":
        "0487e20687f024abd104fd144f69a805a3b2b66be693ead4885c27a2314baf5a",
    "t1.0-default-r01.jsonl":
        "9de78551988f9815ca8a2d1a64e52dd2a87a869ac895d301a1c396a4a5ce922d",
    "t1.0-reflection-planning-r00.jsonl":
        "28d979d5d1a303cc34a158967c9e3cbac89076e7260b79d477c159e0f2d5168d",
    "t1.0-reflection-planning-r01.jsonl":
        "12a5f7a5efccf5da9caaa8144dbcb923060f62c71639c5d4531e99e6accd3ebd",
}
MANIFEST_SHA256 = "0389189414ce60e311347af7dcd3a12d31181f12417a75da58cc753df870ed1a"
REPORT_SHA256 = {
    "categories.csv": "440df591f65d424e864b3f467b35ef73a43e013cce05ff0dc31bf98f293496c0",
    "daily.csv": "91e0fc8e9bae115f43e2c9b13a19bbb63217f3896844dc9815d79f652692a0da",
    "reductions.csv": "d2153fead1d6996bb90d63cfd5346e109762f7f16badcaaee0dc77f2e52b14f1",
    "summary.csv": "51249394a6fa3f0b5505105c1c379df1634c8b79c9c52e14516ae5e9fa0c8a86",
}


def digests(directory: Path, pattern: str) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob(pattern))
    }


def test_tiny_reference_experiment_bytes_are_pinned(tmp_path):
    plan = load_plan(DATA / "plan_reference.yaml")
    labels = ("t1.0-default", "t1.0-reflection-planning")
    plan = dataclasses.replace(
        plan,
        treatments=tuple(t for t in plan.treatments if t.label in labels),
        runs_per_treatment=2,
    )
    result = run_experiment(plan, tmp_path / "experiment")
    assert all(run.completed for run in result.runs)
    build_report(result.manifest_path, tmp_path / "report", include_timestamp=False)
    assert digests(tmp_path / "experiment" / "transcripts", "*.jsonl") == TRANSCRIPT_SHA256
    manifest = (tmp_path / "experiment" / "manifest.json").read_text(encoding="utf-8")
    data_dir = json.dumps(str(DATA), ensure_ascii=False)[1:-1]  # as the manifest spells it
    assert data_dir in manifest
    manifest = manifest.replace(data_dir, "<data>")
    assert hashlib.sha256(manifest.encode("utf-8")).hexdigest() == MANIFEST_SHA256
    assert digests(tmp_path / "report", "*.csv") == REPORT_SHA256
