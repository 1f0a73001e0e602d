"""Experiment plans: the treatment matrix, replication, seeds and manifests.

A plan file names the scenario, taxonomy, treatments, replication count and
execution backends.  Seeds derive deterministically from the base seed, the
treatment label and the run index.  The manifest maps every (treatment, run)
to its transcript and status and is written with atomic replace; re-invoking
a finished experiment issues no new client requests.
"""
from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import logging
import os
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .agents import AgentPolicy, LlmPolicy, load_script
from .client import (
    DEFAULT_EXPERIMENT_BUDGET,
    LiveTransport,
    MockTransport,
    ReplayTransport,
    RequestBudget,
    Transport,
)
from .errors import ParseError, ValidationError
from .mockdata import CalibratedResponder
from .orchestrator import (
    LlmUpdater,
    TemplateUpdater,
    Treatment,
    WorldUpdater,
    run_simulation,
)
from .prompts import PromptVariant
from .scenario import Scenario, load_scenario
from .scoring import Aggregator
from .taxonomy import ActionTaxonomy, load_taxonomy
from . import transcript as ts

log = logging.getLogger("esclab.experiments")

DEFAULT_MODEL = "mistralai/Mistral-7B-Instruct-v0.3"
MANIFEST_NAME = "manifest.json"
TRANSCRIPT_DIR = "transcripts"

_PLAN_KEYS = {
    "scenario", "taxonomy", "treatments", "runs_per_treatment", "base_seed",
    "transport", "policy", "world_updater", "aggregator", "model", "baseline",
    "max_parse_retries", "parallelism", "max_requests", "intra_day_visibility",
}


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to execute and later report one experiment."""

    scenario_path: Path
    taxonomy_path: Path
    treatments: tuple[Treatment, ...]
    base_seed: int
    runs_per_treatment: int = 10
    transport: dict = field(default_factory=lambda: {"kind": "mock"})
    policy: dict = field(default_factory=lambda: {"kind": "llm"})
    world_updater: str = "llm"
    aggregator: Aggregator = Aggregator.MEAN_DAILY
    model: str = DEFAULT_MODEL
    baseline: str | None = None
    max_parse_retries: int = 3
    parallelism: int = 1
    max_requests: int = DEFAULT_EXPERIMENT_BUDGET
    intra_day_visibility: bool = False


@dataclass
class RunHandle:
    treatment: Treatment
    run_index: int
    seed: int
    transcript_path: Path

    @property
    def run_id(self) -> str:
        return f"{self.treatment.label}-r{self.run_index:02d}"


@dataclass
class ExperimentResult:
    manifest_path: Path
    runs: list[ts.TranscriptRun]
    new_requests: int
    skipped: int


def run_seed(base_seed: int, label: str, run_index: int) -> int:
    """Deterministic per-run seed: base + label hash + replicate index."""
    return base_seed + zlib.crc32(label.encode("utf-8")) + run_index


def plan_digest(plan: ExperimentPlan) -> str:
    payload = {
        "scenario": plan.scenario_path.name,
        "taxonomy": plan.taxonomy_path.name,
        "treatments": [t.as_record() for t in plan.treatments],
        "runs_per_treatment": plan.runs_per_treatment,
        "base_seed": plan.base_seed,
        "policy": plan.policy,
        "world_updater": plan.world_updater,
        "aggregator": plan.aggregator.value,
        "model": plan.model,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _parse_treatment(entry: object, index: int) -> Treatment:
    where = f"treatments[{index}]"
    if not isinstance(entry, dict):
        raise ParseError(f"{where}: expected a mapping")
    unknown = set(entry) - {"label", "temperature", "variant"}
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        label = str(entry["label"])
        temperature = float(entry["temperature"])
        variant = PromptVariant(entry.get("variant", "default"))
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    return Treatment(label=label, temperature=temperature, variant=variant)


def load_plan(path: str | Path) -> ExperimentPlan:
    """Load and validate an experiment plan file; paths resolve next to it."""
    path = Path(path)
    try:
        document = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read plan file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed plan file {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError("plan document must be a mapping")
    unknown = set(document) - _PLAN_KEYS
    if unknown:
        raise ParseError(f"plan: unknown keys {sorted(unknown)}")
    for key in ("scenario", "taxonomy", "treatments", "base_seed"):
        if key not in document:
            raise ParseError(f"plan: missing key {key!r}")
    base = path.parent

    def _resolve(value: str) -> Path:
        candidate = Path(os.path.expandvars(str(value))).expanduser()
        return candidate if candidate.is_absolute() else (base / candidate).resolve()

    raw_treatments = document["treatments"]
    if not isinstance(raw_treatments, list) or not raw_treatments:
        raise ParseError("plan: treatments must be a nonempty list")
    treatments = tuple(_parse_treatment(t, i) for i, t in enumerate(raw_treatments))
    labels = [t.label for t in treatments]
    if len(set(labels)) != len(labels):
        raise ValidationError("plan: duplicate treatment labels")
    runs = int(document.get("runs_per_treatment", 10))
    if runs < 1:
        raise ValidationError("plan: runs_per_treatment must be >= 1")
    transport = document.get("transport", {"kind": "mock"})
    if not isinstance(transport, dict) or "kind" not in transport:
        raise ParseError("plan: transport must be a mapping with a 'kind'")
    policy = document.get("policy", {"kind": "llm"})
    if isinstance(policy, str):
        policy = {"kind": policy}
    if not isinstance(policy, dict) or policy.get("kind") not in ("llm", "scripted"):
        raise ParseError("plan: policy kind must be 'llm' or 'scripted'")
    if policy["kind"] == "scripted":
        if "script" not in policy:
            raise ParseError("plan: scripted policy needs a 'script' path")
        policy = {"kind": "scripted", "script": str(_resolve(policy["script"]))}
    updater = document.get("world_updater", "llm")
    if updater not in ("llm", "template"):
        raise ParseError("plan: world_updater must be 'llm' or 'template'")
    try:
        aggregator = Aggregator(document.get("aggregator", "mean_daily"))
    except ValueError as exc:
        raise ParseError(f"plan: {exc}") from exc
    baseline = document.get("baseline")
    if baseline is not None and baseline not in labels:
        raise ValidationError(f"plan: baseline {baseline!r} is not a treatment label")
    if "cassette" in transport:
        transport = dict(transport)
        transport["cassette"] = str(_resolve(transport["cassette"]))
    return ExperimentPlan(
        scenario_path=_resolve(document["scenario"]),
        taxonomy_path=_resolve(document["taxonomy"]),
        treatments=treatments,
        base_seed=int(document["base_seed"]),
        runs_per_treatment=runs,
        transport=transport,
        policy=policy,
        world_updater=updater,
        aggregator=aggregator,
        model=str(document.get("model", DEFAULT_MODEL)),
        baseline=baseline,
        max_parse_retries=int(document.get("max_parse_retries", 3)),
        parallelism=int(document.get("parallelism", 1)),
        max_requests=int(document.get("max_requests", DEFAULT_EXPERIMENT_BUDGET)),
        intra_day_visibility=bool(document.get("intra_day_visibility", False)),
    )


def build_transport(
    plan: ExperimentPlan,
    taxonomy: ActionTaxonomy,
    scenario: Scenario,
    api_key: str | None = None,
    capture: bool = False,
) -> Transport:
    config = plan.transport
    kind = config["kind"]
    budget = RequestBudget(plan.max_requests)
    if kind == "mock":
        responder_kind = config.get("responder", "calibrated")
        if responder_kind == "calibrated":
            responder = CalibratedResponder(
                taxonomy,
                scenario,
                variants_by_label={t.label: t.variant.value for t in plan.treatments},
                runs_per_treatment=plan.runs_per_treatment,
            )
        elif responder_kind == "static":
            responder = config.get("text", "")
        else:
            raise ValidationError(f"unknown mock responder {responder_kind!r}")
        return MockTransport(responder, budget=budget, capture=capture)
    if kind == "replay":
        if "cassette" not in config:
            raise ValidationError("replay transport needs a 'cassette' path")
        return ReplayTransport(
            config["cassette"], mode=config.get("mode", "strict"), budget=budget
        )
    if kind == "live":
        if "base_url" not in config:
            raise ValidationError("live transport needs a 'base_url'")
        if not api_key:
            raise ValidationError("live transport needs an API key (see ESCLAB_API_KEY)")
        return LiveTransport(
            base_url=config["base_url"],
            api_key=api_key,
            budget=budget,
            timeout=float(config.get("timeout", 60.0)),
            max_in_flight=int(config.get("max_in_flight", 4)),
            requests_per_minute=int(config.get("requests_per_minute", 60)),
        )
    raise ValidationError(f"unknown transport kind {kind!r}")


def build_policy(plan: ExperimentPlan, transport: Transport, treatment: Treatment) -> AgentPolicy:
    if plan.policy["kind"] == "scripted":
        return load_script(plan.policy["script"])
    return LlmPolicy(transport, model=plan.model, temperature=treatment.temperature)


def build_updater(plan: ExperimentPlan, transport: Transport) -> WorldUpdater:
    if plan.world_updater == "template":
        return TemplateUpdater()
    return LlmUpdater(transport, model=plan.model)


def _completed_run(handle: RunHandle, scenario: Scenario) -> ts.TranscriptRun | None:
    """The run read back from its transcript, if that holds this run completed."""
    if not handle.transcript_path.exists():
        return None
    try:
        run = ts.load_run(handle.transcript_path)
    except ParseError:
        return None
    if (
        run.completed
        and run.seed == handle.seed
        and run.treatment_label == handle.treatment.label
        and len(run.days) == scenario.days
    ):
        return run
    return None


@contextlib.contextmanager
def manifest_lock(out_dir: Path, shared: bool = False):
    """Advisory lock guarding the manifest: exclusive for writers (the
    experiment runner), shared for readers (report)."""
    lock_path = Path(out_dir) / "manifest.lock"
    lock_path.touch(exist_ok=True)
    mode = fcntl.LOCK_SH if shared else fcntl.LOCK_EX
    with lock_path.open("r") as handle:
        try:
            fcntl.flock(handle, mode | fcntl.LOCK_NB)
        except OSError:
            role = "read" if shared else "write"
            raise ValidationError(
                f"cannot {role}-lock {lock_path}: another process holds it"
            ) from None
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _write_manifest(path: Path, manifest: dict) -> None:
    manifest = dict(manifest)
    manifest["runs"] = sorted(
        manifest["runs"], key=lambda r: (r["label"], r["run_index"])
    )
    tmp = path.with_suffix(".tmp")
    tmp.write_text(
        json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)


def run_experiment(
    plan: ExperimentPlan,
    out_dir: str | Path,
    api_key: str | None = None,
    capture_requests: bool = False,
) -> ExperimentResult:
    """Execute treatments x runs, skipping runs whose transcripts are complete.

    Aborted runs are recorded in the manifest and the experiment continues
    best-effort; the manifest is rewritten atomically as results land.  The
    advisory manifest lock is held for the whole execution.
    """
    out_dir = Path(out_dir)
    (out_dir / TRANSCRIPT_DIR).mkdir(parents=True, exist_ok=True)
    with manifest_lock(out_dir):
        return _execute(plan, out_dir, api_key, capture_requests)


def _execute(
    plan: ExperimentPlan,
    out_dir: Path,
    api_key: str | None,
    capture_requests: bool,
) -> ExperimentResult:
    scenario = load_scenario(plan.scenario_path)
    taxonomy = load_taxonomy(plan.taxonomy_path)
    transport = build_transport(plan, taxonomy, scenario, api_key=api_key, capture=capture_requests)
    updater = build_updater(plan, transport)

    handles = [
        RunHandle(
            treatment=treatment,
            run_index=index,
            seed=run_seed(plan.base_seed, treatment.label, index),
            transcript_path=out_dir / TRANSCRIPT_DIR
            / f"{treatment.label}-r{index:02d}.jsonl",
        )
        for treatment in plan.treatments
        for index in range(plan.runs_per_treatment)
    ]

    manifest_path = out_dir / MANIFEST_NAME
    manifest = {
        "plan_sha256": plan_digest(plan),
        "scenario_name": scenario.name,
        "scenario_path": str(plan.scenario_path),
        "taxonomy_path": str(plan.taxonomy_path),
        "taxonomy_version": taxonomy.version,
        "aggregator": plan.aggregator.value,
        "baseline": plan.baseline,
        "runs_per_treatment": plan.runs_per_treatment,
        "treatments": [t.as_record() for t in plan.treatments],
        "runs": [],
    }
    manifest_write_lock = threading.Lock()
    results: dict[str, ts.TranscriptRun] = {}

    def _record(handle: RunHandle, status: str, abort_reason: str | None) -> None:
        entry = {
            **handle.treatment.as_record(),
            "run_index": handle.run_index,
            "seed": handle.seed,
            "transcript": f"{TRANSCRIPT_DIR}/{handle.transcript_path.name}",
            "status": status,
            "abort_reason": abort_reason,
        }
        with manifest_write_lock:
            manifest["runs"].append(entry)
            _write_manifest(manifest_path, manifest)

    skipped = 0
    to_run: list[RunHandle] = []
    for handle in handles:
        run = _completed_run(handle, scenario)
        if run is not None:
            skipped += 1
            results[handle.run_id] = run
            _record(handle, "completed", None)
        else:
            to_run.append(handle)

    before = transport.request_count

    def _run_one(handle: RunHandle) -> None:
        policy = build_policy(plan, transport, handle.treatment)
        run = run_simulation(
            scenario,
            taxonomy,
            handle.treatment,
            policy,
            updater,
            seed=handle.seed,
            transcript_path=handle.transcript_path,
            run_id=handle.run_id,
            max_parse_retries=plan.max_parse_retries,
            resume=True,
            intra_day_visibility=plan.intra_day_visibility,
        )
        results[handle.run_id] = run
        _record(handle, run.status, run.abort_reason)

    if plan.parallelism > 1 and len(to_run) > 1:
        with ThreadPoolExecutor(max_workers=plan.parallelism) as pool:
            list(pool.map(_run_one, to_run))
    else:
        for handle in to_run:
            _run_one(handle)

    runs = [results[handle.run_id] for handle in handles]
    new_requests = transport.request_count - before
    log.info(
        "experiment finished: %d runs (%d skipped), %d new requests",
        len(handles), skipped, new_requests,
    )
    return ExperimentResult(
        manifest_path=manifest_path,
        runs=runs,
        new_requests=new_requests,
        skipped=skipped,
    )
