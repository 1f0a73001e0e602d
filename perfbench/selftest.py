"""Fast self-test of the benchmark, at tiny size (two treatments, two
replicates, a tenth of the stand-in delay).  Run from the checkout root:

    python3 perfbench/selftest.py

It checks that every workload emits exactly the metrics BENCHMARK.json
names, with their units, in both modes; that a tampered report CSV makes a
cycle fail its correctness check; and that the benchmark refuses to run,
printing no result, in a directory without the program's source.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

SEED = 5
SECONDS = 0.5


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, notes = run.measure(workload["name"], SEED, SECONDS, trace, tiny=True)
            where = f"{workload['name']} trace={int(trace)}"
            expect(result["correct"], f"{where}: checks failed: {notes['problems']}")
            expect(result["attempted"] >= 1 and result["failed"] == 0, f"{where}: {result}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{where}: metrics differ from BENCHMARK.json: "
                                  f"missing {sorted(set(wanted) - set(got))}, "
                                  f"extra {sorted(set(got) - set(wanted))}, "
                                  f"units {[(n, got[n], wanted[n]) for n in got if n in wanted and got[n] != wanted[n]]}")
            for name, metric in result["metrics"].items():
                expect(math.isfinite(metric["value"]), f"{where}: {name} is {metric['value']}")
            print(f"ok  {where}: {len(got)} metrics", flush=True)


def check_tampered_report() -> None:
    run.import_program()
    import workloads
    from esclab import report

    bench = run.Bench(workloads.WORKLOADS["ref-mock"], SEED, tiny=True)
    original = report.build_report

    def build_then_tamper(*args, **kwargs):
        bundle = original(*args, **kwargs)
        with bundle.summary_csv.open("a", encoding="utf-8") as handle:
            handle.write("tampered\n")
        return bundle

    try:
        expect(not bench.cycle(run._no_phase).problems, "untampered cycle failed its checks")
        report.build_report = build_then_tamper
        problems = bench.cycle(run._no_phase).problems
    finally:
        report.build_report = original
        bench.close()
    expect(any("summary.csv" in p for p in problems), f"tampered CSV passed: {problems}")
    print("ok  tampered summary.csv fails the report check", flush=True)


def check_refuses_without_source() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "ref-mock",
             "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0, "benchmark exited 0 without the program's source")
    expect('"correct"' not in done.stdout, f"printed a result without source: {done.stdout}")
    print("ok  refuses to run without src/esclab", flush=True)


def main() -> int:
    check_metrics()
    check_tampered_report()
    check_refuses_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
