"""What the benchmark in ``perfbench/`` takes from the program, pinned here so
that a change that would break the benchmark fails these tests rather than
only ``perfbench/selftest.py``: every workload's plan, tiny and full, builds
from the shipped reference plan (with the options the benchmark pins, such as
``parallelism``), the request counts it expects follow from that plan, the
plan digest it checks reports against is the program's, and the pattern by
which its stand-in endpoint tells agent queries from world updates reads the
program's request tags."""
import json
import sys
from pathlib import Path

import pytest

from esclab import experiments
from esclab import transcript as ts
from esclab.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (needs perfbench/ on sys.path)

SEED = 7
WORKLOAD_NAMES = sorted(workloads.WORKLOADS)


def test_benchmark_json_names_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES
    recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(
        name + size for name in WORKLOAD_NAMES for size in ("", "@tiny"))


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_builds_its_plan(name, tiny):
    workload = workloads.WORKLOADS[name]
    plan = workloads.build_plan(ROOT, workload, SEED, tiny)
    assert isinstance(plan, experiments.ExperimentPlan)
    assert plan.parallelism == 1
    assert plan.base_seed == workloads.base_seed(SEED)
    if tiny:
        assert (len(plan.treatments), plan.runs_per_treatment) == (
            workloads.TINY_TREATMENTS, workloads.TINY_RUNS)
    scenario = load_scenario(plan.scenario_path)
    expected = workloads.expected_counts(plan, scenario, SEED, workload.latency)
    assert expected.runs == len(plan.treatments) * plan.runs_per_treatment
    # One agent query per nation and day, one world update per day, and
    # more on the stand-in endpoint, which garbles some replies.
    least = expected.runs * scenario.days * (len(scenario.nations) + 1)
    assert expected.requests >= least
    assert (expected.requests == least) == (not workload.latency)
    assert workloads.plan_sha256(plan) == experiments.plan_digest(plan)


def test_full_ref_mock_expects_the_reference_request_count():
    plan = workloads.build_plan(ROOT, workloads.WORKLOADS["ref-mock"], SEED, tiny=False)
    scenario = load_scenario(plan.scenario_path)
    expected = workloads.expected_counts(plan, scenario, SEED, latency=False)
    assert (expected.runs, expected.requests, expected.fallbacks) == (60, 7_560, 0)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_agent_tag_pattern_reads_every_agent_tag_and_no_world_tag(name):
    plan = workloads.build_plan(ROOT, workloads.WORKLOADS[name], SEED, tiny=False)
    scenario = load_scenario(plan.scenario_path)
    for treatment in plan.treatments:
        for index in range(plan.runs_per_treatment):
            run_id = experiments.RunHandle(treatment, index, 0, Path()).run_id
            for day in range(1, scenario.days + 1):
                assert workloads._AGENT_TAG.match(ts.request_tag(run_id, day, None)) is None
                for nation in scenario.nation_names:
                    for attempt in range(1, plan.max_parse_retries + 2):
                        match = workloads._AGENT_TAG.match(
                            ts.request_tag(run_id, day, nation, attempt))
                        assert match is not None
                        assert (match["run"], int(match["day"]), match["nation"],
                                int(match["attempt"])) == (run_id, day, nation, attempt)
