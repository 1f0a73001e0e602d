import json
import sys
from pathlib import Path

import pytest
import yaml

sys.path.insert(0, str(Path(__file__).parent))

from esclab import orchestrator
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


def lone_manifest(path: Path, scenario, header: dict) -> Path:
    """A manifest next to the transcript at ``path`` that lists it alone, as
    the completed run whose ``run_start`` payload is ``header``, for
    ``inspect_experiment``: ``scenario`` is written out beside it, and the
    taxonomy is the shipped one."""
    scenario_path = path.with_name("scenario.yaml")
    scenario_path.write_text(yaml.safe_dump({
        "name": scenario.name, "days": scenario.days, "initial_summary": scenario.initial_summary,
        "nations": [{"name": n.name, "background": n.background, "objectives": list(n.objectives)}
                    for n in scenario.nations],
    }), encoding="utf-8")
    treatment = header["treatment"]
    manifest = path.with_name("manifest.json")
    manifest.write_text(json.dumps({
        "plan_sha256": "", "scenario_name": scenario.name, "scenario_path": str(scenario_path),
        "taxonomy_path": str(default_taxonomy_path()),
        "taxonomy_version": header["taxonomy_version"], "aggregator": "mean_daily",
        "baseline": None, "runs_per_treatment": 1, "treatments": [treatment],
        "runs": [{**treatment, "run_index": 0, "seed": header["seed"], "transcript": path.name,
                  "status": "completed", "abort_reason": None}],
    }), encoding="utf-8")
    return manifest
