"""Experiment plans: the treatment matrix, replication, seeds and manifests.

A plan file names the scenario, taxonomy, treatments, replication count and
execution backends.  Seeds derive deterministically from the base seed, the
treatment label and the run index, and ``orchestrator.play_runs`` plays the
runs not yet completed.  The manifest maps every (treatment, run) to its
transcript and status and is written once per invocation, with atomic
replace; re-invoking a finished experiment issues no new client requests.
A transport that waits on an endpoint also leaves a metrics sidecar per
run, and ``ReplayTransport`` plays an experiment back from the transcripts
its manifest lists.
"""
from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import logging
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from .agents import DEFAULT_PARSE_RETRIES, AgentPolicy, LlmPolicy, load_script
from .client import (
    DEFAULT_EXPERIMENT_BUDGET,
    ChatRequest,
    ChatResponse,
    LiveTransport,
    MockTransport,
    Transport,
)
from .errors import ParseError, TransportError, ValidationError
from .mockdata import CalibratedResponder
from .orchestrator import (
    LlmUpdater,
    TemplateUpdater,
    Treatment,
    WorldUpdater,
    play_runs,
    run_header,
)
from .prompts import PromptVariant, text_sha256
from .scenario import Scenario, load_scenario, load_yaml_file, require_keys, require_type
from .scoring import Aggregator
from .taxonomy import ActionTaxonomy, load_taxonomy
from . import transcript as ts

log = logging.getLogger("esclab.experiments")

DEFAULT_MODEL = "mistralai/Mistral-7B-Instruct-v0.3"
MANIFEST_NAME = "manifest.json"
TRANSCRIPT_DIR = "transcripts"
METRICS_DIR = "metrics"  # per-run sidecars of transport facts, never compared

# Plan keys read as a scalar, with the type each must have as YAML loads it.
_SCALAR_KEYS = {
    "base_seed": int, "runs_per_treatment": int, "model": str, "max_parse_retries": int,
    "max_requests": int,
}
_REQUIRED_KEYS = ("scenario", "taxonomy", "treatments", "base_seed")
_PLAN_KEYS = {
    "transport", "policy", "world_updater", "aggregator", "baseline",
    *_REQUIRED_KEYS, *_SCALAR_KEYS,
}
# The keys of a manifest and of its runs: all written.
_MANIFEST_RUN_KEYS = (
    "label", "temperature", "variant", "run_index", "seed", "transcript", "status",
    "abort_reason",
)
_MANIFEST_KEYS = (
    "plan_sha256", "scenario_name", "scenario_path", "taxonomy_path", "taxonomy_version",
    "aggregator", "baseline", "runs_per_treatment", "treatments", "runs",
)
# Per transport kind: the type of each key besides ``kind``, and the keys
# that must be set.
_TRANSPORT_KEYS = {
    "mock": ({}, ()),
    "replay": ({"manifest": str}, ("manifest",)),
    "live": (
        {"base_url": str, "timeout": float, "max_in_flight": int, "requests_per_minute": int},
        ("base_url",),
    ),
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
    max_parse_retries: int = DEFAULT_PARSE_RETRIES
    parallelism: int = 1  # no plan key: the transport sets how many runs overlap
    max_requests: int = DEFAULT_EXPERIMENT_BUDGET

    def __post_init__(self):
        if self.runs_per_treatment < 1:
            raise ValidationError("plan: runs_per_treatment must be >= 1")
        if self.max_parse_retries < 0:
            raise ValidationError("plan: max_parse_retries must be >= 0")
        if self.max_requests < 0:
            raise ValidationError("plan: max_requests must be >= 0")
        if self.parallelism != 1:
            raise ValidationError("plan: parallelism must be 1; the transport sets the overlap")


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


def _parse_treatment(entry: object, index: int, prefix: str = "") -> Treatment:
    where = f"{prefix}treatments[{index}]"
    require_keys(entry, where, ("label", "temperature", "variant"), ("label", "temperature"))
    try:
        variant = PromptVariant(entry.get("variant", "default"))
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    return Treatment(
        label=require_type(entry["label"], str, f"{where}: label", nonempty=True),
        temperature=require_type(entry["temperature"], float, f"{where}: temperature"),
        variant=variant,
    )


def _typed(mapping: dict, types: dict, where: str) -> dict:
    """The entries of ``mapping`` that ``types`` names, each of its type."""
    return {
        key: require_type(mapping[key], kind, f"{where}{key}")
        for key, kind in types.items()
        if key in mapping
    }


def load_plan(path: str | Path) -> ExperimentPlan:
    """Load and validate an experiment plan file; paths resolve next to it,
    and a key it does not set keeps ``ExperimentPlan``'s default."""
    path = Path(path)
    document = require_keys(load_yaml_file(path, "plan"), "plan", _PLAN_KEYS, _REQUIRED_KEYS)

    def _resolve(value: object, where: str) -> Path:
        value = require_type(value, str, where, nonempty=True)
        candidate = Path(os.path.expandvars(value)).expanduser()
        return candidate if candidate.is_absolute() else (path.parent / candidate).resolve()

    raw_treatments = require_type(document["treatments"], list, "plan: treatments", nonempty=True)
    treatments = tuple(_parse_treatment(t, i) for i, t in enumerate(raw_treatments))
    labels = [t.label for t in treatments]
    if len(set(labels)) != len(labels):
        raise ValidationError("plan: duplicate treatment labels")
    options = _typed(document, _SCALAR_KEYS, "plan: ")
    if "transport" in document:
        transport = require_type(document["transport"], dict, "plan: transport")
        kind = transport.get("kind")
        if kind not in tuple(_TRANSPORT_KEYS):  # a tuple: kind may be unhashable
            raise ParseError(
                f"plan: transport kind must be one of {list(_TRANSPORT_KEYS)}, got {kind!r}"
            )
        types, required = _TRANSPORT_KEYS[kind]
        require_keys(transport, f"plan: {kind} transport", {"kind", *types}, required)
        transport = {"kind": kind, **_typed(transport, types, "plan: transport ")}
        if kind == "replay":
            manifest = _resolve(transport["manifest"], "plan: transport manifest")
            transport["manifest"] = str(manifest)
        options["transport"] = transport
    if "policy" in document:
        policy = document["policy"]
        if isinstance(policy, str):
            policy = {"kind": policy}
        require_keys(policy, "plan: policy", ("kind", "script"), ("kind",))
        if policy["kind"] == "scripted":
            script = _resolve(policy.get("script"), "plan: policy script")
            policy = {"kind": "scripted", "script": str(script)}
        elif policy["kind"] != "llm":
            raise ParseError("plan: policy kind must be 'llm' or 'scripted'")
        options["policy"] = policy
    if "world_updater" in document:
        if document["world_updater"] not in ("llm", "template"):
            raise ParseError("plan: world_updater must be 'llm' or 'template'")
        options["world_updater"] = document["world_updater"]
    if "aggregator" in document:
        try:
            options["aggregator"] = Aggregator(document["aggregator"])
        except ValueError as exc:
            raise ParseError(f"plan: {exc}") from exc
    if "baseline" in document:
        baseline = document["baseline"]
        if baseline is not None and baseline not in labels:
            raise ValidationError(f"plan: baseline {baseline!r} is not a treatment label")
        options["baseline"] = baseline
    return ExperimentPlan(
        scenario_path=_resolve(document["scenario"], "plan: scenario"),
        taxonomy_path=_resolve(document["taxonomy"], "plan: taxonomy"),
        treatments=treatments,
        **options,
    )


# How a run_end reason names the transport error that aborted the run.
_TRANSPORT_ABORT = "TransportError: "


class ReplayTransport(Transport):
    """Answers each request from recorded transcripts, by its tag.

    Replay is strict: a request must be the one its transcript recorded,
    with the run header's model and ``max_tokens``, the treatment's
    temperature, and the system and user text whose digests
    ``transcript.read_recording`` gives (a world update's system text, the
    updater's constant, is not recorded).  One that differs, or whose tag no
    transcript holds, is a non-transient ``TransportError`` naming the tag,
    which aborts its run.  On the day a run aborted by a ``TransportError``
    ended, a request the transcript lacks raises that error again, so the
    run ends as it did.  Nothing is consumed: a request is answered as often as
    it is made, from any thread.
    """

    in_process = True

    def __init__(self, transcripts: list[Path], max_requests: int | None = None):
        super().__init__(max_requests=max_requests)
        self._runs = {}
        for path in transcripts:
            recording = ts.read_recording(path)
            self._runs[recording.header["run_id"]] = recording

    def send_once(self, request: ChatRequest) -> ChatResponse:
        self._note_request()
        tag = request.request_tag
        run_id, _, where = tag.partition("|")
        recording = self._runs.get(run_id)
        call = recording.calls.get(tag) if recording else None
        if call is None:
            abort = recording.abort if recording else None
            if (abort and where.startswith(f"d{abort[0]:02d}|")
                    and abort[1].startswith(_TRANSPORT_ABORT)):
                raise TransportError(abort[1].removeprefix(_TRANSPORT_ABORT))
            raise TransportError(f"replay: no recorded transcript holds a call tagged {tag!r}")
        payload, system_sha256, user_sha256 = call
        header = recording.header
        differs = [name for name, sent, recorded in (
            ("model", request.model, header["model"]),
            ("max_tokens", request.max_tokens, header["max_tokens"]),
            ("temperature", request.temperature, header["treatment"]["temperature"]),
            ("system prompt", None if system_sha256 is None
             else text_sha256(request.messages[0].content), system_sha256),
            ("user prompt", text_sha256(request.messages[-1].content), user_sha256),
        ) if sent != recorded]
        if differs:
            raise TransportError(
                f"replay: request {tag!r} differs from its recording in {', '.join(differs)}")
        return ChatResponse(content=payload["content"], finish_reason=payload["finish_reason"])


def build_transport(
    plan: ExperimentPlan,
    taxonomy: ActionTaxonomy,
    scenario: Scenario,
    api_key: str | None = None,
) -> Transport:
    config = plan.transport
    kind = config["kind"]
    if kind == "mock":
        responder = CalibratedResponder(
            taxonomy,
            scenario,
            variants_by_label={t.label: t.variant.value for t in plan.treatments},
            runs_per_treatment=plan.runs_per_treatment,
        )
        return MockTransport(responder, max_requests=plan.max_requests)
    if kind == "replay":
        manifest_path = Path(config["manifest"])
        paths = [manifest_path.parent / entry["transcript"]
                 for entry in load_manifest(manifest_path)["runs"]]
        return ReplayTransport(paths, max_requests=plan.max_requests)
    if kind == "live":
        if not api_key:
            raise ValidationError("live transport needs an API key (see ESCLAB_API_KEY)")
        settings = {key: value for key, value in config.items() if key != "kind"}
        return LiveTransport(api_key=api_key, max_requests=plan.max_requests, **settings)
    raise ValidationError(f"unknown transport kind {kind!r}")


def build_policy(plan: ExperimentPlan, transport: Transport) -> AgentPolicy:
    if plan.policy["kind"] == "scripted":
        return load_script(plan.policy["script"])
    return LlmPolicy(transport, model=plan.model)


def build_updater(plan: ExperimentPlan, transport: Transport) -> WorldUpdater:
    if plan.world_updater == "template":
        return TemplateUpdater()
    return LlmUpdater(transport, model=plan.model)


@dataclass
class InspectResult:
    runs: int
    prompts: int
    mismatches: list[str]
    # The transcripts whose bytes do not end in the seal of a run_end
    # record: partial ones, or ones edited after they were written.
    unsealed: list[str]


def inspect_experiment(manifest_path: str | Path) -> InspectResult:
    """Re-derive the prompt digests of every transcript a manifest lists,
    and check each one's seal.

    Prompts are rendered from each transcript's own records, its recorded
    templates and the scenario at the manifest's ``scenario_path``.
    """
    manifest_path = Path(manifest_path)
    with manifest_lock(manifest_path, shared=True):
        manifest = load_manifest(manifest_path)
        scenario = load_scenario(manifest["scenario_path"])
        prompts = 0
        mismatches: list[str] = []
        unsealed: list[str] = []
        for entry in manifest["runs"]:
            path = manifest_path.parent / entry["transcript"]
            checked, found, sealed = ts.verify_prompts(path, scenario)
            prompts += checked
            mismatches += [f"{entry['transcript']} {line}" for line in found]
            if not sealed:
                unsealed.append(entry["transcript"])
    return InspectResult(len(manifest["runs"]), prompts, mismatches, unsealed)


@contextlib.contextmanager
def manifest_lock(manifest_path: Path, shared: bool = False):
    """Advisory lock guarding the manifest at ``manifest_path``, a file in its
    directory: exclusive for writers (the experiment runner), shared for
    readers (report, inspect).  A manifest path that is a directory, or a
    directory that cannot hold the lock (one that does not exist, say), is a
    ``ParseError`` naming the manifest, before any file is touched."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        raise ParseError(f"manifest {manifest_path} is a directory")
    lock_path = manifest_path.with_name("manifest.lock")
    try:
        handle = lock_path.open("a")
    except OSError as exc:  # IsADirectoryError among them
        raise ParseError(f"cannot lock manifest {manifest_path}: {exc}") from exc
    mode = fcntl.LOCK_SH if shared else fcntl.LOCK_EX
    with handle:
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


def load_manifest(manifest_path: str | Path) -> dict:
    """The manifest at ``manifest_path``, with every key ``_execute`` writes,
    string paths, a known aggregator, and runs whose labels are treatments."""
    manifest_path = Path(manifest_path)
    where = f"manifest {manifest_path}"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {where}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed {where}: {exc}") from exc
    require_keys(manifest, where, _MANIFEST_KEYS, _MANIFEST_KEYS)
    for key in ("scenario_path", "taxonomy_path"):
        require_type(manifest[key], str, f"{where}: {key}", nonempty=True)
    if manifest["aggregator"] not in [a.value for a in Aggregator]:
        raise ParseError(f"{where}: unknown aggregator {manifest['aggregator']!r}")
    treatments = require_type(manifest["treatments"], list, f"{where}: treatments")
    labels = [_parse_treatment(t, i, f"{where}: ").label for i, t in enumerate(treatments)]
    for index, entry in enumerate(require_type(manifest["runs"], list, f"{where}: runs")):
        entry_where = f"{where}: runs[{index}]"
        require_keys(entry, entry_where, _MANIFEST_RUN_KEYS, _MANIFEST_RUN_KEYS)
        require_type(entry["transcript"], str, f"{entry_where}: transcript", nonempty=True)
        if entry["label"] not in labels:
            raise ParseError(f"{entry_where}: label {entry['label']!r} is not a treatment")
    return manifest


def _write_manifest(path: Path, manifest: dict) -> None:
    manifest = dict(manifest)
    manifest["runs"] = sorted(
        manifest["runs"], key=lambda r: (r["label"], r["run_index"])
    )
    tmp = path.with_suffix(".tmp")
    try:
        tmp.write_text(
            json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise ParseError(f"cannot write manifest {path}: {exc}") from exc


def run_experiment(
    plan: ExperimentPlan,
    out_dir: str | Path,
    api_key: str | None = None,
) -> ExperimentResult:
    """Execute treatments x runs, skipping runs whose transcripts are complete.

    Each transcript already there is checked against its run's header first:
    one written for a different run (a treatment edited under an unchanged
    label, say) is refused with ``ValidationError`` before any request is
    made or the manifest is written.
    Aborted runs are recorded in the manifest and the experiment continues
    best-effort.  A warning is logged first when ``max_requests`` is below
    what the pending runs may make at worst.  An in-process transport plays
    the runs on every usable CPU (``orchestrator.play_runs``): the budget
    holds across processes, since every process forked from a transport
    shares its count from the moment it is built, and aborts whichever runs
    ask after it runs out, and a completed run in the result that a forked
    process played reads its days when they are first used, as a skipped
    run does.  A run played in process leaves no metrics sidecar, and one
    left by an earlier waiting pass is removed.  The manifest is written once, atomically,
    when the runs end, listing every run that finished even when an
    exception ends them early; after a hard kill a re-run restores it.
    The advisory manifest lock is held for the whole execution.  A
    scenario, taxonomy, transport or script that cannot be loaded is
    refused before anything is written, and a manifest path that is a
    directory before anything but the output directory itself is made.
    """
    scenario = load_scenario(plan.scenario_path)
    taxonomy = load_taxonomy(plan.taxonomy_path)
    transport = build_transport(plan, taxonomy, scenario, api_key=api_key)
    policy = build_policy(plan, transport)
    out_dir = Path(out_dir)
    _make_dir(out_dir)  # the lock file lives there
    with manifest_lock(out_dir / MANIFEST_NAME):
        _make_dir(out_dir / TRANSCRIPT_DIR)
        if not transport.in_process:
            _make_dir(out_dir / METRICS_DIR)
        return _execute(plan, out_dir, scenario, taxonomy, transport, policy)


def _warn_of_budget(transport: Transport, pending: list[tuple], scenario: Scenario,
                    policy: AgentPolicy, updater: WorldUpdater, max_parse_retries: int) -> None:
    """Log a warning when the requests ``transport`` has left under its
    ``max_requests`` are fewer than the pending runs may make: on each day
    they have left, every nation's query on its last attempt and the world
    update, for those that call a model."""
    if transport.max_requests is None:
        return
    left = transport.max_requests - transport.request_count
    queries = len(scenario.nation_names) * (max_parse_retries + 1)
    per_day = ((queries if policy.model is not None else 0)
               + (1 if updater.model is not None else 0))
    worst = per_day * sum(scenario.days - (len(prior.days) if prior else 0)
                          for _, _, _, prior, _ in pending)
    if left < worst:
        log.warning(
            "request budget: %d requests left, but the %d runs to play may make up to %d; "
            "the runs that ask after it runs out abort", left, len(pending), worst)


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot create output directory {path}: {exc}") from exc


def _execute(
    plan: ExperimentPlan,
    out_dir: Path,
    scenario: Scenario,
    taxonomy: ActionTaxonomy,
    transport: Transport,
    policy: AgentPolicy,
) -> ExperimentResult:
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
    }
    results: dict[str, ts.TranscriptRun] = {}

    def _entry(handle: RunHandle) -> dict:
        run = results[handle.run_id]
        return {
            **handle.treatment.as_record(),
            "run_index": handle.run_index,
            "seed": handle.seed,
            "transcript": f"{TRANSCRIPT_DIR}/{handle.transcript_path.name}",
            "status": run.status,
            "abort_reason": run.abort_reason,
        }

    # A partial run and its kept records go to play_runs: one read per run.
    pending = []
    for handle in handles:
        header = run_header(scenario, taxonomy, handle.treatment, handle.seed,
                            handle.run_id, policy, updater, plan.max_parse_retries)
        run, kept = ts.stored_run(handle.transcript_path, header)
        if run is not None and run.completed:
            results[handle.run_id] = run
        else:
            pending.append((handle.treatment, header, handle.transcript_path, run, kept))
    skipped = len(results)
    before = transport.request_count
    _warn_of_budget(transport, pending, scenario, policy, updater, plan.max_parse_retries)
    try:
        play_runs(scenario, taxonomy, policy, updater, pending, results, transport,
                  out_dir / METRICS_DIR)
    finally:  # the one manifest write: every run that finished
        manifest["runs"] = [_entry(handle) for handle in handles if handle.run_id in results]
        _write_manifest(manifest_path, manifest)

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
