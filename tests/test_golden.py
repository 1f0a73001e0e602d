"""Pinned bytes of a tiny calibrated-mock experiment.

The shipped reference plan cut to two treatments (the default prompt and a
reflection variant) with two runs each.  Every transcript and report CSV
must hash to the digests below, so a change meant to leave the output alone
(encoding, buffering, prompt rendering, parsing) is checked byte for byte
by the suite.  A change that means to alter the output re-pins them and
says why.
"""
import dataclasses
import hashlib
from pathlib import Path

from esclab.experiments import load_plan, run_experiment
from esclab.report import build_report

DATA = Path(__file__).parent.parent / "src" / "esclab" / "data"

TRANSCRIPT_SHA256 = {
    "t1.0-default-r00.jsonl":
        "432e951c9a47e5f13aef4a3f52ab71a2d969d4cb49583868ea79dca83f242da7",
    "t1.0-default-r01.jsonl":
        "659fbacce43b5e69307c692f26bcb7710a38e64754d611b97dfd778aece25f94",
    "t1.0-reflection-planning-r00.jsonl":
        "161fffa9c3ef6ba9e3f874dc2c8db44a4205bb57751f39d1b6481c10d901dff9",
    "t1.0-reflection-planning-r01.jsonl":
        "03ea38bdaa0018949937280b0befe913a53c320974712b85fbc9efdb341b3e17",
}
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
    assert digests(tmp_path / "report", "*.csv") == REPORT_SHA256
