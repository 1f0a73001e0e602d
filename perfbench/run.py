"""esclab benchmark: end-to-end and per-layer metrics over two workloads.

Run from the root of a source checkout (nothing needs installing; the
program is imported from ``src/``):

    python3 perfbench/run.py --workload ref-mock --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run measures for about ``--seconds`` seconds, repeating one cycle: a
fresh ``run_experiment`` into an empty directory, then ``read_passes`` times a
no-op re-run of the same experiment followed by ``build_report``.  Every
cycle is checked (all runs completed, request and fallback counts as the plan
implies, zero requests on re-run, report files equal to the digests in
``expected.json``).  The last line of standard output is one JSON object with
``correct``, ``attempted`` (simulation runs started), ``failed`` (runs
aborted) and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A human-readable table goes to
standard error.  The exit code is 0 when every check passed, 1 when one
failed and 2 when the benchmark could not run.

With ``--trace 1`` the first part of the window runs untraced, the rest with
every public function of the program wrapped by ``spans.Tracer``; the spans
are written to ``.perfbench/spans-<workload>.tsv.gz``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
from spans import END, EXTRA, NAME, START

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

IMPORT_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# Share of a --trace 1 window spent untraced, to measure tracing overhead.
UNTRACED_SHARE = 0.4
# The spans of one reference cycle take about 50 MB, so one traced cycle.
TRACED_CYCLES = 1
SUBPROCESS_TIMEOUT_S = 120

TRACED_MODULES = (
    "agents", "client", "experiments", "figures", "mockdata", "orchestrator",
    "prompts", "report", "scenario", "scoring", "stats", "taxonomy", "transcript",
)


class SetupError(Exception):
    """The benchmark cannot run here (no program source, bad arguments)."""


def import_program():
    if not (SRC / "esclab" / "__init__.py").is_file():
        raise SetupError(f"no esclab source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import esclab
    import esclab.cli  # also leaves byte code for every module the set-up probe imports

    if Path(esclab.__file__).resolve().parent != (SRC / "esclab").resolve():
        raise SetupError(f"imported esclab from {esclab.__file__}, not from {SRC}")
    return esclab


# --- set-up time --------------------------------------------------------------

def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )


def import_wall_s(samples: int) -> list[float]:
    """Wall time of fresh interpreters running ``import esclab.cli``.

    ``import_program`` ran first, so byte code is already compiled.
    """
    probe = "import esclab.cli, sys; sys.stdout.write(esclab.cli.__file__)"
    walls = []
    for _ in range(samples):
        start = perf_counter()
        done = _python("-c", probe)
        walls.append(perf_counter() - start)
        if not Path(done.stdout).resolve().is_relative_to(SRC.resolve()):
            raise SetupError(f"fresh interpreter imported esclab.cli from {done.stdout}")
    return walls


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def import_profile(samples: int) -> dict[str, float]:
    """``-X importtime`` of ``import esclab.cli``: all imports, and esclab.stats."""
    totals, stats = [], []
    for _ in range(samples):
        lines = _python("-X", "importtime", "-c", "import esclab.cli").stderr.splitlines()
        parsed = [m.groups() for m in map(_IMPORTTIME.match, lines) if m]
        totals.append(sum(int(own) for own, _, _ in parsed) / 1e6)
        stats.append(next((int(cum) / 1e6 for _, cum, name in parsed
                           if name == "esclab.stats"), 0.0))
    return {"import.esclab_stats_s": statistics.median(stats),
            "import.total_s": statistics.median(totals)}


# --- cycles -----------------------------------------------------------------

@dataclass
class Cycle:
    experiment_s: float
    requests: int
    runs: int
    aborted: int
    turns: int
    fallbacks: int
    transcript_bytes: int
    resume_s: list[float] = field(default_factory=list)
    report_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


class Bench:
    """One workload at one seed: the plan, its expectations and a work dir."""

    def __init__(self, workload, seed: int, tiny: bool):
        import workloads
        from esclab import experiments, report
        from esclab.scenario import load_scenario

        self.wl = workloads
        self.experiments = experiments
        self.report = report
        self.workload = workload
        self.seed = seed
        self.plan = workloads.build_plan(ROOT, workload, seed, tiny)
        scenario = load_scenario(self.plan.scenario_path)
        self.expected = workloads.expected_counts(self.plan, scenario, seed, workload.latency)
        key = workload.name + ("@tiny" if tiny else "")
        recorded = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        self.digests = recorded.get(key, {})
        self.delay_scale = workloads.TINY_DELAY_SCALE if tiny else 1.0
        self.out_dir = WORK / f"work-{workload.name}-{os.getpid()}"

    def endpoint(self):
        if self.workload.latency:
            return self.wl.latency_endpoint(self.seed, self.delay_scale)
        return contextlib.nullcontext()

    def cycle(self, phase) -> Cycle:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        with phase("bench.experiment"):
            start = perf_counter()
            result = self.experiments.run_experiment(self.plan, self.out_dir)
            elapsed = perf_counter() - start
        transcripts = self.out_dir / self.experiments.TRANSCRIPT_DIR
        cycle = Cycle(
            experiment_s=elapsed,
            requests=result.new_requests,
            runs=len(result.runs),
            aborted=sum(1 for run in result.runs if run.status == "aborted"),
            turns=sum(len(day.actions_by_nation) for run in result.runs for day in run.days),
            fallbacks=sum(run.fallbacks for run in result.runs),
            transcript_bytes=sum(p.stat().st_size for p in transcripts.iterdir()),
            problems=self.wl.check_experiment(result, self.expected),
        )
        for _ in range(self.workload.read_passes):
            gc.collect()
            with phase("bench.resume"):
                start = perf_counter()
                rerun = self.experiments.run_experiment(self.plan, self.out_dir)
                cycle.resume_s.append(perf_counter() - start)
            cycle.problems += self.wl.check_rerun(rerun, self.expected)
            gc.collect()
            report_dir = self.out_dir / "report"
            with phase("bench.report"):
                start = perf_counter()
                self.report.build_report(result.manifest_path, report_dir,
                                         include_timestamp=False)
                cycle.report_s.append(perf_counter() - start)
            cycle.problems += self.wl.check_report(report_dir, self.plan, self.digests)
        return cycle

    def run_for(self, seconds: float, phase, max_cycles: int | None = None) -> list[Cycle]:
        """Cycles until the next one would end after ``seconds`` (at least one)."""
        cycles, durations = [], []
        started = perf_counter()
        while len(cycles) != max_cycles:
            start = perf_counter()
            cycles.append(self.cycle(phase))
            durations.append(perf_counter() - start)
            if perf_counter() - started + statistics.median(durations) > seconds:
                break
        return cycles

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def _no_phase(name):
    return contextlib.nullcontext()


# --- metrics ------------------------------------------------------------------

def end_to_end(cycles: list[Cycle], setup_walls: list[float]) -> dict[str, tuple[float, str]]:
    turns = sum(c.turns for c in cycles)
    return {
        "setup_s": (statistics.median(setup_walls), "s"),
        "experiment_s": (statistics.median(c.experiment_s for c in cycles), "s"),
        "requests_per_s": (statistics.median(c.requests / c.experiment_s for c in cycles), "1/s"),
        "resume_s": (statistics.median(s for c in cycles for s in c.resume_s), "s"),
        "report_s": (statistics.median(s for c in cycles for s in c.report_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "transcript_bytes": (statistics.median(c.transcript_bytes for c in cycles), "bytes"),
        "model_turn_share": ((turns - sum(c.fallbacks for c in cycles)) / turns, "share"),
    }


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _dur(span) -> float:
    return span[END] - span[START]


def experiment_layers(view) -> dict[str, float]:
    """Per-layer figures of one fresh experiment.

    ``client.wait_s`` is the time inside the transport calls that
    ``complete`` makes, less the stand-in responder's own compute
    (``mockdata``, which runs only inside those calls), reported apart so
    that it is never credited to the program.
    """
    prompts = view.named("prompts.build_prompts")
    calls = [_dur(s) for s in view.named("client.complete")]
    sends = [s for s in view.spans
             if s[NAME].endswith(".send_once") and view.parent_name(s) == "client.complete"]
    parses = view.named("agents.parse_agent_response")
    self_by_layer = view.self_by_layer()
    return {
        "prompts.calls": len(prompts),
        "prompts.self_s": view.layer_self("prompts"),
        "prompts.bytes": sum(s[EXTRA] for s in prompts),
        "client.calls": len(calls),
        "client.attempts": len(sends),
        "client.wait_s": sum(_dur(s) for s in sends) - view.layer_self("mockdata"),
        "client.call_p50_ms": 1000 * _percentile(calls, 0.50) if calls else 0.0,
        "client.call_p99_ms": 1000 * _percentile(calls, 0.99) if calls else 0.0,
        "client.self_s": view.layer_self("client"),
        "mockdata.self_s": view.layer_self("mockdata"),
        "agents.self_s": view.layer_self("agents"),
        "agents.parse_calls": len(parses),
        "agents.parse_s": sum(_dur(s) for s in parses),
        "agents.parse_ok_ratio": sum(s[EXTRA] for s in parses) / len(parses) if parses else 0.0,
        "agents.fallbacks": len(view.named("agents.fallback_turn")),
        "transcript.records_written": len(view.named("transcript.TranscriptWriter.write")),
        "transcript.bytes_written": sum(s[EXTRA] for s in view.named("transcript.encode_record")),
        "transcript.write_s": sum(_dur(s) for s in view.named("transcript.TranscriptWriter.write")),
        "orchestrator.self_s": view.layer_self("orchestrator"),
        "orchestrator.world_update_s": sum(
            _dur(s) for s in view.named("orchestrator.LlmUpdater.update")),
        "scenario.advance_day_s": sum(_dur(s) for s in view.named("scenario.advance_day")),
        "scoring.s": sum(_dur(s) for s in view.layer_outer("scoring")),
        "trace.experiment_s": view.duration,
        "trace.layers_self_s": sum(self_by_layer.values()),
    }


def read_layers(resume, report, runs: int) -> dict[str, float]:
    """Per-layer figures of one read pass: a no-op re-run plus a report."""
    reads = resume.named("transcript.read_records") + report.named("transcript.read_records")
    return {
        "experiments.self_s": resume.layer_self("experiments"),
        "experiments.transcript_loads_per_run":
            len(resume.named("transcript.read_records")) / runs,
        "transcript.reads": len(reads),
        "transcript.bytes_read": sum(s[EXTRA] for s in reads),
        "transcript.read_s": sum(_dur(s) for v in (resume, report)
                                 for s in v.layer_outer("transcript")),
        "stats.s": sum(_dur(s) for s in report.layer_outer("stats")),
        "figures.s": sum(_dur(s) for s in report.layer_outer("figures")),
        "report.self_s": report.layer_self("report"),
    }


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def span_extras():
    from esclab.agents import ParseFailure

    return {
        "prompts.build_prompts": lambda args, kwargs, bundle:
            len(bundle.system_text.encode("utf-8")) + len(bundle.user_text.encode("utf-8")),
        "agents.parse_agent_response": lambda args, kwargs, result:
            0 if isinstance(result, ParseFailure) else 1,
        "transcript.encode_record": lambda args, kwargs, line: len(line.encode("utf-8")) + 1,
        "transcript.read_records": lambda args, kwargs, records:
            os.path.getsize(args[0] if args else kwargs["path"]),
    }


def traced_run(bench: Bench, seconds: float, workload_name: str, import_samples: int):
    """Untraced cycles, then traced ones.

    Returns the cycles, the per-layer metrics and the self time of each layer
    in a fresh experiment.
    """
    import importlib

    import workloads

    untraced = bench.run_for(seconds * UNTRACED_SHARE, _no_phase)
    tracer = spans.Tracer()
    modules = [importlib.import_module(f"esclab.{name}") for name in TRACED_MODULES]
    modules.append(importlib.import_module("esclab"))
    tracer.install(modules, span_extras(), classes=[("endpoint", workloads.LatencyTransport)])
    try:
        traced = bench.run_for(seconds * (1 - UNTRACED_SHARE), tracer.phase, TRACED_CYCLES)
    finally:
        tracer.uninstall()
    views = spans.phases(tracer.records)
    layers = _medians([experiment_layers(v) for v in views["bench.experiment"]])
    layers.update(_medians([
        read_layers(resume, report, bench.expected.runs)
        for resume, report in zip(views["bench.resume"], views["bench.report"])
    ]))
    untraced_s = statistics.median(c.experiment_s for c in untraced)
    layers["trace.untraced_experiment_s"] = untraced_s
    layers["trace.overhead_s"] = statistics.median(c.experiment_s for c in traced) - untraced_s
    layers["trace.spans"] = len(tracer.records)
    layers.update(import_profile(import_samples))
    decomposition = {
        layer: statistics.median(v.self_by_layer().get(layer, 0.0)
                                 for v in views["bench.experiment"])
        for layer in sorted({s[NAME].split(".", 1)[0] for s in tracer.records})
        if not layer.startswith("bench")
    }
    tracer.dump(WORK / f"spans-{workload_name}.tsv.gz")
    return untraced + traced, layers, decomposition


# --- entry point ---------------------------------------------------------------

def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns the result object and notes for the table."""
    import_program()
    import workloads

    if workload_name not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {workload_name!r}")
    bench = Bench(workloads.WORKLOADS[workload_name], seed, tiny)
    decomposition = {}
    try:
        with bench.endpoint():
            if trace:
                cycles, layers, decomposition = traced_run(
                    bench, seconds, workload_name, 1 if tiny else IMPORTTIME_SAMPLES)
                metrics = {name: {"value": value, "unit": layer_unit(name)}
                           for name, value in layers.items()}
            else:
                setup_walls = import_wall_s(1 if tiny else IMPORT_SAMPLES)
                cycles = bench.run_for(seconds, _no_phase)
                metrics = {name: {"value": value, "unit": unit}
                           for name, (value, unit) in end_to_end(cycles, setup_walls).items()}
    finally:
        bench.close()
    problems = [p for c in cycles for p in c.problems]
    result = {
        "correct": not problems,
        "attempted": sum(c.runs for c in cycles),
        "failed": sum(c.aborted for c in cycles),
        "metrics": metrics,
    }
    samples = {"experiment": len(cycles), "resume": sum(len(c.resume_s) for c in cycles),
               "report": sum(len(c.report_s) for c in cycles)}
    if not trace:
        samples["setup"] = len(setup_walls)
    return result, {"problems": problems[:20], "cycles": len(cycles), "samples": samples,
                    "self_s_by_layer": decomposition}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_run"):
        return "1/run"
    return "count"


def _print_table(result: dict, notes: dict) -> None:
    err = sys.stderr
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}", file=err)
    if notes.get("self_s_by_layer"):
        print("  self time per fresh experiment, by layer (traced):", file=err)
        for layer, seconds in sorted(notes["self_s_by_layer"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<20} {seconds:10.4f} s", file=err)
    print(f"  samples: {notes['samples']}", file=err)
    print(f"  cycles={notes['cycles']} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}", file=err)
    for problem in notes["problems"]:
        print(f"  CHECK FAILED: {problem}", file=err)


def run_all(args) -> int:
    """Every workload, each in its own interpreter."""
    import_program()
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in workloads.WORKLOADS:
        print(f"== {name}", file=sys.stderr, flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"workload {name} did not run (exit {done.returncode})", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["workloads"][name] = result["metrics"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="ref-mock, ref-latency or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        result, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print_table(result, notes)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
