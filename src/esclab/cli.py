"""Command-line entry point: validate, simulate, experiment, report.

Exit codes: 0 success, 1 runtime failure (one machine-parsable JSON line on
stderr), 2 usage errors (argparse).  The live transport reads its API key
from the ESCLAB_API_KEY environment variable; endpoint URLs are
configuration.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

from . import prompts
from .errors import EsclabError
from .experiments import (
    DEFAULT_MODEL,
    ExperimentPlan,
    build_policy,
    build_transport,
    build_updater,
    load_plan,
    run_experiment,
)
from .orchestrator import Treatment, run_simulation
from .prompts import PromptVariant, build_prompts, extension_word_count
from .scenario import initial_world, load_scenario, default_scenario_path
from .scoring import Aggregator
from .taxonomy import default_taxonomy_path, load_taxonomy

API_KEY_ENV = "ESCLAB_API_KEY"

log = logging.getLogger("esclab.cli")


def _cmd_validate(args: argparse.Namespace) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    scenario = load_scenario(args.scenario)
    world = initial_world(scenario)
    templates = prompts.PromptTemplates.load(args.templates) if args.templates else None
    print(f"taxonomy: {taxonomy.version} ok ({len(taxonomy.actions)} actions, "
          f"scores {min(a.score for a in taxonomy.actions)}"
          f"..{max(a.score for a in taxonomy.actions)})")
    print(f"scenario: {scenario.name} ok ({len(scenario.nations)} nations, "
          f"{scenario.days} days)")
    nation = scenario.nation_names[0]
    for variant in PromptVariant:
        bundle = build_prompts(scenario, taxonomy, world, nation, variant,
                               templates=templates)
        digest = hashlib.sha256(
            (bundle.system_text + "\x00" + bundle.user_text).encode("utf-8")
        ).hexdigest()
        words = extension_word_count(variant)
        checks = []
        if variant is PromptVariant.CONTEXT:
            checks.append(
                "suffix ok" if bundle.user_text.endswith(prompts.CONTEXT_EXTENSION)
                else "SUFFIX MISSING"
            )
        if variant in prompts.REFLECTION_VARIANTS:
            checks.append(
                "block ok" if prompts.EXTENSION_TEXTS[variant] in bundle.system_text
                else "BLOCK MISSING"
            )
        checks.append(f"extension {words} words")
        print(f"variant {variant.value}: digest {digest} ({', '.join(checks)})")
        if "SUFFIX MISSING" in checks or "BLOCK MISSING" in checks:
            raise EsclabError(f"variant {variant.value}: canonical block not rendered")
        if words >= prompts.MAX_EXTENSION_WORDS:
            raise EsclabError(
                f"variant {variant.value}: extension has {words} words "
                f"(limit {prompts.MAX_EXTENSION_WORDS})"
            )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    taxonomy = load_taxonomy(args.taxonomy)
    treatment = Treatment(
        label=args.label or f"t{args.temperature:g}-{args.variant}",
        temperature=args.temperature,
        variant=PromptVariant(args.variant),
    )
    transport_config: dict = {"kind": args.transport}
    if args.transport == "replay":
        if not args.cassette:
            raise EsclabError("replay transport needs --cassette")
        transport_config.update({"cassette": str(Path(args.cassette).resolve()),
                                 "mode": args.replay_mode})
    if args.transport == "live":
        if not args.base_url:
            raise EsclabError("live transport needs --base-url")
        transport_config["base_url"] = args.base_url
    if args.policy == "scripted" and not args.script:
        raise EsclabError("scripted policy needs --script")
    plan = ExperimentPlan(
        scenario_path=Path(args.scenario).resolve(),
        taxonomy_path=Path(args.taxonomy).resolve(),
        treatments=(treatment,),
        base_seed=args.seed,
        runs_per_treatment=1,
        transport=transport_config,
        policy={"kind": "scripted", "script": str(Path(args.script).resolve())}
        if args.policy == "scripted" else {"kind": "llm"},
        world_updater=args.updater,
        model=args.model,
        max_parse_retries=args.max_parse_retries,
    )
    api_key = os.environ.get(API_KEY_ENV)
    transport = build_transport(plan, taxonomy, scenario, api_key=api_key)
    policy = build_policy(plan, transport, treatment)
    updater = build_updater(plan, transport)
    out_dir = Path(args.out)
    transcript_path = out_dir / "transcripts" / f"{treatment.label}-s{args.seed}.jsonl"
    run = run_simulation(
        scenario, taxonomy, treatment, policy, updater,
        seed=args.seed,
        transcript_path=transcript_path,
        max_parse_retries=args.max_parse_retries,
        resume=not args.no_resume,
    )
    print(json.dumps({
        "run_id": run.run_id,
        "status": run.status,
        "abort_reason": run.abort_reason,
        "days": len(run.days),
        "requests": transport.request_count,
        "fallbacks": run.fallbacks,
        "transcript": str(transcript_path),
    }))
    return 0 if run.completed else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    api_key = os.environ.get(API_KEY_ENV)
    result = run_experiment(plan, args.out, api_key=api_key)
    completed = sum(1 for run in result.runs if run.completed)
    print(json.dumps({
        "manifest": str(result.manifest_path),
        "runs": len(result.runs),
        "completed": completed,
        "skipped_existing": result.skipped,
        "new_requests": result.new_requests,
    }))
    return 0 if completed == len(result.runs) else 1


def _print_table(header: list[str], rows: list[list]) -> None:
    def fmt(value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:.2f}"
        if value is None:
            return "-"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in cells)) if cells else len(header[i])
              for i in range(len(header))]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for row in cells:
        print("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))


def _cmd_report(args: argparse.Namespace) -> int:
    # Imported here: only this command needs scipy, which takes about a
    # second to import.
    from .report import build_report

    bundle = build_report(
        args.manifest,
        args.out,
        baseline=args.baseline,
        aggregator=Aggregator(args.aggregator) if args.aggregator else None,
        taxonomy_path=args.taxonomy,
        include_timestamp=not args.no_timestamp,
    )
    print(f"aggregator: {bundle.aggregator.value}; baseline: {bundle.baseline}")
    _print_table(
        ["label", "n", "mean", "median", "q1", "q3", "min", "max"],
        [[label, s.n, s.mean, s.median, s.q1, s.q3, s.min, s.max]
         for label, s in bundle.summaries.items()],
    )
    if bundle.reductions:
        print()
        _print_table(
            ["label", "mean", "reduction_%", "p_value", "significant"],
            [[r["label"], r["mean"], r["percent_reduction"], r["p_value"],
              r["significant_at_0_05"]] for r in bundle.reductions],
        )
    print()
    for name, path in bundle.figures.items():
        print(f"{name}: {path}")
    print(f"tables: {bundle.summary_csv.parent}")
    if bundle.excluded_runs:
        print(f"warning: {len(bundle.excluded_runs)} runs excluded (not completed)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esclab",
        description="Escalation wargame simulation harness and experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="check config files and render all prompt variants")
    p_validate.add_argument("--taxonomy", default=str(default_taxonomy_path()))
    p_validate.add_argument("--scenario", default=str(default_scenario_path()))
    p_validate.add_argument("--templates", default=None,
                            help="directory with system.txt/user.txt overrides")
    p_validate.set_defaults(func=_cmd_validate)

    p_sim = sub.add_parser("simulate", help="run one seeded simulation")
    p_sim.add_argument("--scenario", default=str(default_scenario_path()))
    p_sim.add_argument("--taxonomy", default=str(default_taxonomy_path()))
    p_sim.add_argument("--temperature", type=float, default=1.0)
    p_sim.add_argument("--variant", default="default",
                       choices=[v.value for v in PromptVariant])
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--label", default=None)
    p_sim.add_argument("--transport", default="mock",
                       choices=["mock", "replay", "live"])
    p_sim.add_argument("--cassette", default=None)
    p_sim.add_argument("--replay-mode", default="strict", choices=["strict", "fuzzy"])
    p_sim.add_argument("--base-url", default=None)
    p_sim.add_argument("--policy", default="llm", choices=["llm", "scripted"])
    p_sim.add_argument("--script", default=None)
    p_sim.add_argument("--updater", default="llm", choices=["llm", "template"])
    p_sim.add_argument("--model", default=DEFAULT_MODEL)
    p_sim.add_argument("--max-parse-retries", type=int, default=3)
    p_sim.add_argument("--no-resume", action="store_true")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_exp = sub.add_parser("experiment", help="execute a plan file")
    p_exp.add_argument("--plan", required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(func=_cmd_experiment)

    p_rep = sub.add_parser("report", help="emit tables and figures from a manifest")
    p_rep.add_argument("--manifest", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--baseline", default=None)
    p_rep.add_argument("--aggregator", default=None,
                       choices=[a.value for a in Aggregator])
    p_rep.add_argument("--taxonomy", default=None)
    p_rep.add_argument("--no-timestamp", action="store_true")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("ESCLAB_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EsclabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
