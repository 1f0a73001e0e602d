"""esclab: a multi-agent wargame harness for escalation-control experiments.

Eight nation agents pick escalation-scored actions over a 14-day loop; the
experiment layer sweeps sampling temperature and prompt variants across
replicated runs and reports the resulting escalation statistics.

The report and statistics names load on first use (PEP 562), so running
simulations does not import the report's modules; ``urllib.request`` loads
only when a live transport is built.  ``import esclab.cli`` takes about
0.2 s.  The runtime needs only ``pyyaml``: nothing imports numpy, scipy or
``requests``, and the statistics and the live transport run on the
standard library.
"""
import importlib

from .agents import (
    AgentPolicy,
    AgentTurn,
    LlmPolicy,
    ParseFailure,
    ScriptedPolicy,
    decide_with_retry,
    parse_agent_response,
)
from .client import (
    ChatMessage,
    ChatRequest,
    ChatResponse,
    LiveTransport,
    MockTransport,
    complete,
)
from .errors import EsclabError
from .experiments import ExperimentPlan, ReplayTransport, load_plan, run_experiment, run_seed
from .orchestrator import (
    LlmUpdater,
    TemplateUpdater,
    Treatment,
    run_simulation,
)
from .prompts import PromptBundle, PromptVariant, build_prompts
from .scenario import (
    ChosenAction,
    DailyRecord,
    NationProfile,
    Scenario,
    WorldState,
    advance_day,
    initial_world,
    load_scenario,
)
from .scoring import (
    Aggregator,
    CategoryCounts,
    ScoreSeries,
    category_frequencies,
    daily_score,
    run_score,
)
from .taxonomy import (
    ActionCategory,
    ActionSpec,
    ActionTaxonomy,
    load_taxonomy,
    lookup_action,
)
from .transcript import TranscriptRun

__version__ = "0.1.0"

_LAZY = {
    "ReportBundle": "report",
    "build_report": "report",
    "DailySeriesStats": "stats",
    "SummaryStats": "stats",
    "ci95_per_day": "stats",
    "percent_reduction": "stats",
    "significance_test": "stats",
    "summarize": "stats",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
