import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from esclab import orchestrator
from esclab.scenario import load_default_scenario, parse_scenario
from esclab.taxonomy import load_default_taxonomy


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
