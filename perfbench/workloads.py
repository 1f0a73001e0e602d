"""The benchmark's workloads: plans, the stand-in endpoint and the checks.

Every workload runs the shipped reference plan (six treatments) through the
public API.  The benchmark derives the plan's ``base_seed`` from ``--seed``;
on the calibrated mock nothing else depends on it, because the per-run seed
does not reach the mock.  On ``ref-latency`` the seed also drives the
stand-in endpoint's delays and garbled replies.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import re
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from esclab import experiments
from esclab.client import Transport

# Each attempt of an agent query waits DELAY_BASE_S plus up to DELAY_JITTER_S.
DELAY_BASE_S = 0.003
DELAY_JITTER_S = 0.004
# Share of agent attempts whose reply is garbled (never the last attempt).
GARBLE_SHARE = 0.10
GARBLE_KINDS = ("prose", "truncated", "unknown_action")
FAILING_KINDS = ("truncated", "unknown_action")
UNKNOWN_ACTION = "unlisted_action"

REPORT_FILES = ("summary.csv", "reductions.csv", "daily.csv", "categories.csv", "provenance.json")
PLAN_DIGEST_PLACEHOLDER = "<plan_sha256>"

_AGENT_TAG = re.compile(
    r"^(?P<run>[^|]+)\|d(?P<day>\d+)\|(?P<nation>[^|]+)\|a(?P<attempt>\d+)$"
)


@dataclass(frozen=True)
class Workload:
    name: str
    # (no-op re-run, report) passes after each fresh experiment
    read_passes: int
    # None keeps the reference plan's ten replicates
    runs_per_treatment: int | None = None
    latency: bool = False


# The read side (no-op re-run, report) is timed inside every cycle rather than
# in a workload of its own: on a noisy 2-core host one more workload would cut
# every run to about 25 s, and run-to-run spread grew to a fifth of the median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ref-mock", read_passes=2),
        Workload("ref-latency", read_passes=12, runs_per_treatment=2, latency=True),
    )
}

# The self-test's size: two treatments, two replicates, a tenth of the delay.
TINY_TREATMENTS = 2
TINY_RUNS = 2
TINY_DELAY_SCALE = 0.1


def base_seed(seed: int) -> int:
    return random.Random(f"perfbench:{seed}").randrange(1, 2**31)


def build_plan(root: Path, workload: Workload, seed: int, tiny: bool) -> experiments.ExperimentPlan:
    plan = experiments.load_plan(root / "src/esclab/data/plan_reference.yaml")
    changes = {"base_seed": base_seed(seed), "parallelism": 1}
    if workload.runs_per_treatment is not None:
        changes["runs_per_treatment"] = workload.runs_per_treatment
    if tiny:
        changes["treatments"] = plan.treatments[:TINY_TREATMENTS]
        changes["runs_per_treatment"] = TINY_RUNS
    return dataclasses.replace(plan, **changes)


def plan_sha256(plan: experiments.ExperimentPlan) -> str:
    """The plan digest that ``provenance.json`` must carry, computed here
    from the plan's documented canonical form."""
    payload = {
        "scenario": plan.scenario_path.name,
        "taxonomy": plan.taxonomy_path.name,
        "treatments": [
            {"label": t.label, "temperature": t.temperature, "variant": t.variant.value}
            for t in plan.treatments
        ],
        "runs_per_treatment": plan.runs_per_treatment,
        "base_seed": plan.base_seed,
        "policy": plan.policy,
        "world_updater": plan.world_updater,
        "aggregator": plan.aggregator.value,
        "model": plan.model,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --- the stand-in endpoint ---------------------------------------------------

def _unit(seed: int, tag: str, salt: str) -> float:
    digest = hashlib.blake2b(f"{seed}|{salt}|{tag}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def delay_s(seed: int, tag: str, scale: float = 1.0) -> float:
    return scale * (DELAY_BASE_S + DELAY_JITTER_S * _unit(seed, tag, "delay"))


def stubborn_turn(run_id: str, days: int, nations: tuple[str, ...]) -> tuple[int, str]:
    """The one (day, nation) per run whose every attempt is garbled.

    It depends on the run id alone, so each run takes exactly one fallback
    turn and the report is the same for every seed.
    """
    day = 1 + zlib.crc32(f"{run_id}|day".encode("utf-8")) % days
    nation = nations[zlib.crc32(f"{run_id}|nation".encode("utf-8")) % len(nations)]
    return day, nation


def garble_kind(
    seed: int, tag: str, days: int, nations: tuple[str, ...], max_attempts: int
) -> str | None:
    """How the reply to ``tag`` is garbled, or None; world updates never are."""
    match = _AGENT_TAG.match(tag)
    if match is None:
        return None
    attempt = int(match["attempt"])
    if (int(match["day"]), match["nation"]) == stubborn_turn(match["run"], days, nations):
        return FAILING_KINDS[attempt % len(FAILING_KINDS)]
    if attempt >= max_attempts:
        return None
    u = _unit(seed, tag, "garble")
    if u >= GARBLE_SHARE:
        return None
    return GARBLE_KINDS[int(u / GARBLE_SHARE * len(GARBLE_KINDS))]


def garble(content: str, kind: str) -> str:
    if kind == "prose":
        return f"Here is my decision for today.\n{content}\nI will review the outcome tomorrow."
    if kind == "truncated":
        return content[: len(content) // 2]
    document = json.loads(content)
    document["actions"][0] = {"action": UNKNOWN_ACTION}
    return json.dumps(document, ensure_ascii=False)


class LatencyTransport(Transport):
    """Wraps the calibrated mock: waits per request and garbles some replies.

    Both are pure functions of (seed, request tag), so requests issued in
    any order or concurrently see the same replies.
    """

    def __init__(self, inner: Transport, seed: int, days: int, nations: tuple[str, ...],
                 max_attempts: int, delay_scale: float = 1.0):
        super().__init__()
        self.inner = inner
        self.seed = seed
        self.days = days
        self.nations = nations
        self.max_attempts = max_attempts
        self.delay_scale = delay_scale

    @property
    def request_count(self) -> int:
        return self.inner.request_count

    def send_once(self, request):
        response = self.inner.send_once(request)
        time.sleep(delay_s(self.seed, request.request_tag, self.delay_scale))
        kind = garble_kind(self.seed, request.request_tag, self.days, self.nations,
                           self.max_attempts)
        if kind is None:
            return response
        return dataclasses.replace(response, content=garble(response.content, kind))


@contextlib.contextmanager
def latency_endpoint(seed: int, delay_scale: float = 1.0):
    """Make ``run_experiment`` build its transport wrapped in LatencyTransport."""
    original = experiments.build_transport

    def build_transport(plan, taxonomy, scenario, *args, **kwargs):
        inner = original(plan, taxonomy, scenario, *args, **kwargs)
        return LatencyTransport(inner, seed, scenario.days, tuple(scenario.nation_names),
                                plan.max_parse_retries + 1, delay_scale)

    experiments.build_transport = build_transport
    try:
        yield
    finally:
        experiments.build_transport = original


# --- expectations and checks -------------------------------------------------

@dataclass(frozen=True)
class Expected:
    runs: int
    requests: int
    fallbacks: int


def expected_counts(plan, scenario, seed: int, latency: bool) -> Expected:
    """Requests and fallbacks the plan must produce, from the tag scheme
    ``<label>-r<NN>|d<DD>|<nation>|a<attempt>`` and the stand-in's rules."""
    nations = tuple(scenario.nation_names)
    max_attempts = plan.max_parse_retries + 1
    world_requests = 1 if plan.world_updater == "llm" else 0
    runs = requests = fallbacks = 0
    for treatment in plan.treatments:
        for index in range(plan.runs_per_treatment):
            runs += 1
            run_id = f"{treatment.label}-r{index:02d}"
            for day in range(1, scenario.days + 1):
                requests += world_requests
                for nation in nations:
                    if not latency:
                        requests += 1
                        continue
                    for attempt in range(1, max_attempts + 1):
                        tag = f"{run_id}|d{day:02d}|{nation}|a{attempt}"
                        if garble_kind(seed, tag, scenario.days, nations,
                                       max_attempts) not in FAILING_KINDS:
                            break
                    else:
                        fallbacks += 1
                    requests += attempt
    return Expected(runs=runs, requests=requests, fallbacks=fallbacks)


def check_experiment(result, expected: Expected) -> list[str]:
    problems = []
    if len(result.runs) != expected.runs:
        problems.append(f"experiment returned {len(result.runs)} runs, expected {expected.runs}")
    not_done = [run.run_id for run in result.runs if not run.completed]
    if not_done:
        problems.append(f"runs not completed: {not_done[:5]}")
    if result.new_requests != expected.requests:
        problems.append(
            f"experiment made {result.new_requests} requests, expected {expected.requests}"
        )
    fallbacks = sum(run.fallbacks for run in result.runs)
    if fallbacks != expected.fallbacks:
        problems.append(f"{fallbacks} fallback turns, expected {expected.fallbacks}")
    return problems


def check_rerun(result, expected: Expected) -> list[str]:
    problems = []
    if result.new_requests != 0:
        problems.append(f"no-op re-run made {result.new_requests} requests")
    if result.skipped != expected.runs:
        problems.append(f"no-op re-run skipped {result.skipped} of {expected.runs} runs")
    if any(not run.completed for run in result.runs):
        problems.append("no-op re-run returned a run that is not completed")
    return problems


def report_digests(report_dir: Path, plan) -> dict[str, str]:
    """sha256 of each checked report file; in provenance.json the plan digest
    is first checked against ``plan_sha256`` and then replaced by a
    placeholder, so one recorded digest covers every seed."""
    digests = {}
    for name in REPORT_FILES:
        data = (report_dir / name).read_bytes()
        if name == "provenance.json":
            want = plan_sha256(plan).encode("ascii")
            if json.loads(data).get("plan_sha256") != want.decode("ascii"):
                digests[name] = "plan_sha256 mismatch"
                continue
            data = data.replace(want, PLAN_DIGEST_PLACEHOLDER.encode("ascii"))
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def check_report(report_dir: Path, plan, expected: dict[str, str]) -> list[str]:
    if not expected:
        return ["no recorded report digests for this workload"]
    actual = report_digests(report_dir, plan)
    return [
        f"{name}: digest {actual[name]} != recorded {expected.get(name)}"
        for name in REPORT_FILES
        if actual[name] != expected.get(name)
    ]
