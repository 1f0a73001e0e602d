import json
import sys
from pathlib import Path

import pytest
import yaml

sys.path.insert(0, str(Path(__file__).parent))

from esclab import orchestrator
from esclab import transcript as ts
from esclab.scenario import load_default_scenario, parse_scenario
from esclab.taxonomy import default_taxonomy_path, load_default_taxonomy


@pytest.fixture(scope="session")
def taxonomy():
    return load_default_taxonomy()


@pytest.fixture(scope="session")
def scenario():
    return load_default_scenario()


def small_scenario(n_nations: int = 3, days: int = 4):
    """A tiny scenario for fast randomized fixtures."""
    names = ["Alpha", "Beta", "Gamma", "Delta"][:n_nations]
    return parse_scenario(
        {
            "name": "mini",
            "days": days,
            "initial_summary": "Calm start.",
            "nations": [
                {"name": name, "background": f"{name} background.",
                 "objectives": [f"{name} objective"]}
                for name in names
            ],
        }
    )


@pytest.fixture
def mini_scenario():
    return small_scenario()


def is_sealed(path: Path) -> bool:
    """Whether the transcript at ``path`` ends in the seal of its bytes: a
    finished transcript that no one has edited since its writer closed it."""
    return ts._seal(ts._read_bytes(path)) is not None


def rewrite(path: Path, records: list[dict]) -> None:
    """Atomically replace a transcript with the given records."""
    ts.TranscriptWriter(path, records).close()


def force_processes(monkeypatch, processes: int) -> None:
    """Make ``play_runs`` play runs in process on ``processes`` processes
    (at most one per run), whatever the CPUs."""
    monkeypatch.setattr(orchestrator, "_processes",
                        lambda pending: max(1, min(processes, pending)))


@pytest.fixture
def one_process(monkeypatch):
    """Runs in process play in plan order in the calling process, as a test
    of which runs a budget or an exception cuts needs."""
    force_processes(monkeypatch, 1)


def lone_path(root: Path, label: str) -> Path:
    """Where an experiment in ``root`` keeps the transcript of the first run
    of the treatment ``label``, its directory made: the transcript that
    ``lone_manifest`` lists."""
    (root / "transcripts").mkdir(parents=True, exist_ok=True)
    return root / "transcripts" / f"{label}-r00.jsonl"


def lone_manifest(path: Path, scenario, header: dict) -> Path:
    """A manifest that lists the transcript at ``path`` (a ``lone_path``)
    alone, as the completed run whose ``run_start`` payload is ``header``,
    for ``inspect_experiment``: ``scenario`` is written out beside it, and
    the taxonomy is the shipped one."""
    root = path.parent.parent
    scenario_path = root / "scenario.yaml"
    scenario_path.write_text(yaml.safe_dump({
        "name": scenario.name, "days": scenario.days, "initial_summary": scenario.initial_summary,
        "nations": [{"name": n.name, "background": n.background, "objectives": list(n.objectives)}
                    for n in scenario.nations],
    }), encoding="utf-8")
    treatment = header["treatment"]
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({
        "plan_sha256": "", "scenario_name": scenario.name, "scenario_path": str(scenario_path),
        "taxonomy_path": str(default_taxonomy_path()),
        "taxonomy_version": header["taxonomy_version"], "aggregator": "mean_daily",
        "baseline": None, "runs_per_treatment": 1, "treatments": [treatment],
        "runs": [{**treatment, "run_index": 0, "seed": header["seed"],
                  "transcript": f"transcripts/{path.name}", "status": "completed",
                  "abort_reason": None}],
    }), encoding="utf-8")
    return manifest
