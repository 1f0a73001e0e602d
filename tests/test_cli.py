import ast
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from esclab import experiments
from esclab.cli import build_parser, main

DATA = Path(__file__).parent.parent / "src" / "esclab" / "data"
README = Path(__file__).parent.parent / "README.md"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def _fresh_interpreter(probe: str, *args: str) -> list[str]:
    """Words a new interpreter prints running ``probe`` with ``args``."""
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return done.stdout.split()


class TestImports:
    def test_cli_import_and_report_names_leave_numpy_and_scipy_unloaded(self):
        probe = (
            "import sys, esclab.cli; "
            "from esclab import build_report, summarize; "
            "print('numpy' in sys.modules, 'scipy' in sys.modules)"
        )
        assert _fresh_interpreter(probe) == ["False", "False"]

    def test_cli_import_leaves_requests_unloaded(self):
        probe = "import sys, esclab.cli; print('requests' in sys.modules, 'urllib3' in sys.modules)"
        assert _fresh_interpreter(probe) == ["False", "False"]

    def test_cli_import_and_a_report_leave_multiprocessing_unloaded(self, tmp_path):
        # Only building a transport loads _multiprocessing; nothing loads the rest.
        modules = "('multiprocessing', '_multiprocessing', 'concurrent.futures')"
        probe = f"import sys, esclab.cli; print(*(m in sys.modules for m in {modules}))"
        assert _fresh_interpreter(probe) == ["False"] * 3
        plan = experiments.load_plan(DATA / "plan_demo.yaml")
        manifest = experiments.run_experiment(plan, tmp_path / "exp").manifest_path
        probe = (
            "import sys; from esclab.report import build_report; "
            "build_report(sys.argv[1], sys.argv[2], include_timestamp=False); "
            f"print(*(m in sys.modules for m in {modules}))"
        )
        assert _fresh_interpreter(probe, str(manifest), str(tmp_path / "report")) == ["False"] * 3

    def test_live_transport_loads_requests(self):
        probe = (
            "import sys; from esclab.client import LiveTransport; "
            "loaded = 'requests' in sys.modules; "
            "LiveTransport('https://gateway.invalid/v1', 'key'); "
            "print(loaded, 'requests' in sys.modules)"
        )
        assert _fresh_interpreter(probe) == ["False", "True"]

    def test_report_leaves_numpy_and_scipy_unloaded(self, tmp_path):
        plan = tmp_path / "plan.yaml"
        plan.write_text(
            f"scenario: {DATA / 'neutral_scenario.yaml'}\n"
            f"taxonomy: {DATA / 'default_taxonomy.yaml'}\n"
            "world_updater: template\nbase_seed: 3\nruns_per_treatment: 3\n"
            "baseline: a\ntreatments: [{label: a, temperature: 1.0}, "
            "{label: b, temperature: 0.5, variant: reflection_planning}]\n",
            encoding="utf-8",
        )
        probe = (
            "import sys; from esclab.experiments import load_plan, run_experiment; "
            "from esclab.report import build_report; "
            "result = run_experiment(load_plan(sys.argv[1]), sys.argv[2]); "
            "build_report(result.manifest_path, sys.argv[3], include_timestamp=False); "
            "print('numpy' in sys.modules, 'scipy' in sys.modules)"
        )
        words = _fresh_interpreter(probe, str(plan), str(tmp_path / "exp"),
                                   str(tmp_path / "report"))
        assert words == ["False", "False"]
        reductions = (tmp_path / "report" / "reductions.csv").read_text(encoding="utf-8")
        assert reductions.splitlines()[1].startswith("b,a,")

    def test_no_module_imports_numpy_or_scipy(self):
        """numpy and scipy are test-only oracles: no module of the package
        imports them, at its top or inside a function."""
        offenders = []
        for path in sorted((DATA.parent).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                              if name.split(".")[0] in ("numpy", "scipy")]
        assert offenders == []

    def test_runtime_dependencies_are_pyyaml_and_requests(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
        assert project["dependencies"] == ["pyyaml", "requests"]
        assert {"numpy", "scipy", "mpmath"} <= set(project["optional-dependencies"]["test"])


class TestValidate:
    def test_shipped_configs_exit_zero_with_four_digests(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        digest_lines = [line for line in out.splitlines() if line.startswith("variant ")]
        assert len(digest_lines) == 4
        assert all("digest" in line for line in digest_lines)

    def test_bad_taxonomy_exits_one_with_json_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("version: v\nactions: []\n", encoding="utf-8")
        assert main(["validate", "--taxonomy", str(bad)]) == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"] == "ParseError"
        assert payload["message"]

    @pytest.mark.parametrize("command", [["validate", "--scenario"],
                                         ["validate", "--templates"],
                                         ["experiment", "--out", "exp", "--plan"]],
                             ids=["scenario", "templates", "plan"])
    def test_non_utf8_file_exits_one_with_json_error(self, command, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(b"name: x\xff\n")
        if command[1] == "--templates":
            bad = tmp_path / "templates"
            bad.mkdir()
            (bad / "system.txt").write_bytes(b"menu \xff\n")
            (bad / "user.txt").write_text("day ${day}\n", encoding="utf-8")
        assert main(command + [str(bad)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ParseError"
        assert str(bad) in payload["message"]


class TestSimulate:
    def test_scripted_simulate_deterministic(self, tmp_path, capsys):
        args = [
            "simulate", "--policy", "scripted",
            "--script", str(DATA / "demo_script.yaml"),
            "--updater", "template", "--seed", "7",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["status"] == "completed"
        assert first["days"] == 14
        path_a = Path(first["transcript"])
        path_b = Path(second["transcript"])
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_mock_llm_simulate_counts_requests(self, tmp_path, capsys):
        assert main([
            "simulate", "--out", str(tmp_path), "--seed", "1",
            "--temperature", "0.5", "--label", "t0.5-default",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] == 126
        assert payload["fallbacks"] == 0
        assert main(["simulate", "--out", str(tmp_path), "--seed", "1",
                     "--temperature", "0.5", "--label", "t0.5-default"]) == 0
        again = json.loads(capsys.readouterr().out)
        assert again == {**payload, "requests": 0}

    def test_simulate_is_run_r00_of_the_matching_experiment(self, tmp_path, capsys):
        exp, sim = tmp_path / "exp", tmp_path / "sim"
        assert main(["experiment", "--plan", str(DATA / "plan_demo.yaml"),
                     "--out", str(exp)]) == 0
        assert main([
            "simulate", "--policy", "scripted", "--script", str(DATA / "demo_script.yaml"),
            "--updater", "template", "--seed", "7", "--label", "t1.0-default",
            "--out", str(sim),
        ]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        transcript = sim / "transcripts" / "t1.0-default-r00.jsonl"
        assert (payload["run_id"], payload["transcript"]) == ("t1.0-default-r00", str(transcript))
        expected = exp / "transcripts" / "t1.0-default-r00.jsonl"
        assert transcript.read_bytes() == expected.read_bytes()
        assert main(["inspect", "--manifest", str(sim / "manifest.json")]) == 0
        assert json.loads(capsys.readouterr().out)["runs"] == 1
        assert main(["report", "--manifest", str(sim / "manifest.json"),
                     "--out", str(tmp_path / "report"), "--no-timestamp"]) == 0
        assert (tmp_path / "report" / "summary.csv").exists()

    def test_simulate_by_another_model_into_the_same_out_exits_one(self, tmp_path, capsys):
        args = ["simulate", "--out", str(tmp_path / "sim"), "--seed", "1"]
        assert main(args) == 0
        capsys.readouterr()
        files = sorted(path for path in (tmp_path / "sim").rglob("*") if path.is_file())
        before = {path: path.read_bytes() for path in files}
        assert main(args + ["--model", "X"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and captured.out == ""
        error = json.loads(lines[0])
        assert error["error"] == "ValidationError"
        assert "t1-default-r00.jsonl belongs to a different run" in error["message"]
        assert {path: path.read_bytes() for path in files} == before

    def test_negative_parse_retries_refused_before_writing(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--max-parse-retries", "-1", "--out", str(out)]) == 1
        assert "max_parse_retries" in capsys.readouterr().err
        assert not out.exists()
        plan = tmp_path / "plan.yaml"
        plan.write_text(
            f"scenario: {DATA / 'neutral_scenario.yaml'}\n"
            f"taxonomy: {DATA / 'default_taxonomy.yaml'}\n"
            f"policy: {{kind: scripted, script: {DATA / 'demo_script.yaml'}}}\n"
            "world_updater: template\nbase_seed: 7\nruns_per_treatment: 1\n"
            "treatments: [{label: t1.0-default, temperature: 1.0}]\n"
            "max_parse_retries: -1\n",
            encoding="utf-8",
        )
        out = tmp_path / "exp"
        assert main(["experiment", "--plan", str(plan), "--out", str(out)]) == 1
        assert "max_parse_retries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line,error", [
        ("intra_day_visibility: 'false'", "ParseError"),
        ("parallelism: 2", "ParseError"),
        ("runs_per_treatment: 2.9", "ParseError"),
        ("max_requests: -5", "ValidationError"),
    ])
    def test_wrong_plan_scalar_exits_one_before_writing(self, tmp_path, capsys, line, error):
        plan = tmp_path / "plan.yaml"
        plan.write_text(
            f"scenario: {DATA / 'neutral_scenario.yaml'}\n"
            f"taxonomy: {DATA / 'default_taxonomy.yaml'}\n"
            f"policy: {{kind: scripted, script: {DATA / 'demo_script.yaml'}}}\n"
            "world_updater: template\nbase_seed: 7\n"
            f"treatments: [{{label: t1.0-default, temperature: 1.0}}]\n{line}\n",
            encoding="utf-8",
        )
        out = tmp_path / "exp"
        assert main(["experiment", "--plan", str(plan), "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == error
        assert line.split(":")[0] in payload["message"]
        assert not out.exists()

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate"])  # --out missing
        assert excinfo.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestLogLevel:
    @pytest.mark.parametrize("value,shown", [("info", True), ("Info", True), ("ERROR", False)])
    def test_level_name_in_any_case(self, tmp_path, value, shown):
        # A fresh interpreter: under pytest the root logger already has
        # handlers, so logging.basicConfig would set no level at all.
        env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent), ESCLAB_LOG=value)
        done = subprocess.run(
            [sys.executable, "-m", "esclab.cli", "experiment",
             "--plan", str(DATA / "plan_demo.yaml"), "--out", str(tmp_path / "exp")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert ("experiment finished" in done.stderr) is shown

    @pytest.mark.parametrize("value", ["verbose", "", "10"])
    def test_other_value_is_usage_error_naming_the_variable(self, monkeypatch, capsys,
                                                             value):
        monkeypatch.setenv("ESCLAB_LOG", value)
        with pytest.raises(SystemExit) as excinfo:
            main(["validate"])
        assert excinfo.value.code == 2
        assert f"ESCLAB_LOG={value!r} is not a logging level name" in capsys.readouterr().err


class TestExperimentAndReport:
    def test_demo_plan_end_to_end(self, tmp_path, capsys):
        exp_dir = tmp_path / "exp"
        assert main([
            "experiment", "--plan", str(DATA / "plan_demo.yaml"),
            "--out", str(exp_dir),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 2
        assert main([
            "report", "--manifest", str(exp_dir / "manifest.json"),
            "--out", str(tmp_path / "report"), "--no-timestamp",
        ]) == 0
        out = capsys.readouterr().out
        assert "t1.0-default" in out
        assert (tmp_path / "report" / "summary.csv").exists()
        assert (tmp_path / "report" / "figures" / "fig4.svg").exists()

    def test_experiment_rerun_reports_zero_new_requests(self, tmp_path, capsys):
        exp_dir = tmp_path / "exp"
        main(["experiment", "--plan", str(DATA / "plan_demo.yaml"),
              "--out", str(exp_dir)])
        capsys.readouterr()
        assert main(["experiment", "--plan", str(DATA / "plan_demo.yaml"),
                     "--out", str(exp_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["new_requests"] == 0
        assert payload["skipped_existing"] == 2

    def test_rerun_with_an_edited_treatment_exits_one(self, tmp_path, capsys):
        demo = (DATA / "plan_demo.yaml").read_text(encoding="utf-8")
        plan = tmp_path / "plan.yaml"
        plan.write_text(demo, encoding="utf-8")
        for name in ("neutral_scenario.yaml", "default_taxonomy.yaml", "demo_script.yaml"):
            (tmp_path / name).write_bytes((DATA / name).read_bytes())
        exp_dir = tmp_path / "exp"
        assert main(["experiment", "--plan", str(plan), "--out", str(exp_dir)]) == 0
        capsys.readouterr()
        manifest = (exp_dir / "manifest.json").read_bytes()
        plan.write_text(demo.replace("temperature: 1.0", "temperature: 0.5"), encoding="utf-8")
        assert main(["experiment", "--plan", str(plan), "--out", str(exp_dir)]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "ValidationError"
        assert "t1.0-default-r00.jsonl belongs to a different run" in error["message"]
        assert (exp_dir / "manifest.json").read_bytes() == manifest

    def test_report_on_missing_manifest_exits_one(self, tmp_path, capsys):
        assert main([
            "report", "--manifest", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "r"),
        ]) == 1
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[-1])["error"] == "ParseError"


LIVE = "kind: live, base_url: 'http://localhost:9/v1'"


class TestRefusedInputs:
    """Each input exits 1 with one JSON error line and writes no transcript,
    manifest or report file."""

    def _one_error(self, capsys) -> dict:
        """The one JSON line a failing command wrote to stderr."""
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])

    @pytest.mark.parametrize("treatments,transport,script,error", [
        ("[{label: a, temperature: [1]}]", "{kind: mock}", None, "ParseError"),
        ("[{label: a, temperature: 1.0}]", f"{{{LIVE}, requests_per_minute: 0}}", None,
         "ValidationError"),
        ("[{label: a, temperature: 1.0}]", f"{{{LIVE}, max_in_flight: -1}}", None,
         "ValidationError"),
        ("[{label: a, temperature: 1.0}]", f"{{{LIVE}, max_in_flight: 100000}}", None,
         "ValidationError"),
        ("[{label: a, temperature: 1.0}]", f"{{{LIVE}, timeout: x}}", None, "ParseError"),
        ("[{label: a, temperature: 1.0}]", f"{{{LIVE}, timeout: .nan}}", None,
         "ValidationError"),
        ("[{label: a, temperature: 1.0}]", f"{{{LIVE}, timeout: .inf}}", None,
         "ValidationError"),
        ("[{label: a, temperature: 1.0}]", f"{{{LIVE}, timeout: 1.0e+10}}", None,
         "ValidationError"),
        ("[{label: a, temperature: 1.0}]", "{kind: mock, api_key: sk-test}", None, "ParseError"),
        ("[{label: a, temperature: 1.0}]", "{kind: mock, respondr: static}", None, "ParseError"),
        ("[{label: a, temperature: 1.0}]", "{kind: mock, responder: calibrated}", None,
         "ParseError"),
        ("[{label: a, temperature: 1.0}]", "{kind: mock, text: a}", None, "ParseError"),
        ("[{label: a, temperature: 1.0}]", "{kind: replay, manifest: m.json, mode: strict}",
         None, "ParseError"),
        ("[{label: a, temperature: 1.0}]", "{kind: replay, cassette: c.jsonl}", None,
         "ParseError"),
        ("[{label: grp/a, temperature: 1.0}]", "{kind: mock}", None, "ValidationError"),
        ("[{label: ../../x, temperature: 1.0}]", "{kind: mock}", None, "ValidationError"),
        ("[{label: 'a|b', temperature: 1.0}]", "{kind: mock}", None, "ValidationError"),
        ("[{label: a, temperature: 1.0}]", "{kind: replay, manifest: absent.json}", None,
         "ParseError"),
        ("[{label: a, temperature: 1.0}]", "{kind: mock}",
         "nations:\n  Blue:\n    first:\n      - {action: wait}\n", "ParseError"),
        ("[{label: a, temperature: 1.0}]\nintra_day_visibility: true", "{kind: mock}", None,
         "ParseError"),
        ("[{label: a, temperature: 1.0}]\nintra_day_visibility: false", "{kind: mock}", None,
         "ParseError"),
        ("[{label: a, temperature: 1.0}]\nparallelism: 1", "{kind: mock}", None, "ParseError"),
    ], ids=["temperature-list", "rpm-0", "in-flight-negative", "in-flight-huge", "timeout-text",
            "timeout-nan", "timeout-inf", "timeout-1e10", "api-key", "misspelt-key",
            "mock-responder", "mock-text", "replay-mode", "replay-cassette", "label-dir",
            "label-escape", "label-pipe", "no-manifest", "script-day-key", "visibility-true", "visibility-false",
            "parallelism"])
    def test_bad_plan(self, tmp_path, capsys, monkeypatch, treatments, transport, script,
                      error):
        monkeypatch.setenv("ESCLAB_API_KEY", "sk-test")
        script_path = DATA / "demo_script.yaml"
        if script is not None:
            script_path = tmp_path / "script.yaml"
            script_path.write_text(script, encoding="utf-8")
        plan = tmp_path / "plan.yaml"
        plan.write_text(
            f"scenario: {DATA / 'neutral_scenario.yaml'}\n"
            f"taxonomy: {DATA / 'default_taxonomy.yaml'}\n"
            f"policy: {{kind: scripted, script: {script_path}}}\n"
            "world_updater: template\nbase_seed: 7\nruns_per_treatment: 1\n"
            f"transport: {transport}\ntreatments: {treatments}\n",
            encoding="utf-8",
        )
        out = tmp_path / "exp"
        assert main(["experiment", "--plan", str(plan), "--out", str(out)]) == 1
        assert self._one_error(capsys)["error"] == error
        assert not list(tmp_path.rglob("*.jsonl"))
        assert not out.exists()

    def test_simulate_label_with_a_slash(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main([
            "simulate", "--policy", "scripted", "--script", str(DATA / "demo_script.yaml"),
            "--updater", "template", "--label", "grp/a", "--out", str(out),
        ]) == 1
        assert self._one_error(capsys)["error"] == "ValidationError"
        assert not out.exists()

    def test_simulate_missing_scenario(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(tmp_path / "absent.yaml"),
                     "--out", str(out)]) == 1
        assert self._one_error(capsys)["error"] == "ParseError"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "inspect"])
    def test_manifest_listing_a_deleted_transcript(self, tmp_path, capsys, command):
        exp = tmp_path / "exp"
        assert main(["experiment", "--plan", str(DATA / "plan_demo.yaml"),
                     "--out", str(exp)]) == 0
        capsys.readouterr()
        (exp / "transcripts" / "t1.0-default-r01.jsonl").unlink()
        report = tmp_path / "report"
        extra = ["--out", str(report), "--no-timestamp"] if command == "report" else []
        assert main([command, "--manifest", str(exp / "manifest.json"), *extra]) == 1
        assert self._one_error(capsys)["error"] == "ParseError"
        assert not report.exists()


    @pytest.mark.parametrize("command", ["report", "inspect"])
    def test_manifest_in_a_missing_directory(self, tmp_path, capsys, command):
        manifest = tmp_path / "missing" / "manifest.json"
        report = tmp_path / "report"
        extra = ["--out", str(report), "--no-timestamp"] if command == "report" else []
        assert main([command, "--manifest", str(manifest), *extra]) == 1
        error = self._one_error(capsys)
        assert error["error"] == "ParseError"
        assert str(manifest) in error["message"]
        assert not manifest.parent.exists()
        assert not report.exists()

    @pytest.mark.parametrize("command", ["experiment", "report", "inspect"])
    def test_manifest_that_is_a_directory(self, tmp_path, capsys, command):
        manifest = tmp_path / "exp" / "manifest.json"
        manifest.mkdir(parents=True)
        argv = {
            "experiment": ["experiment", "--plan", str(DATA / "plan_demo.yaml"),
                           "--out", str(manifest.parent)],
            "report": ["report", "--manifest", str(manifest), "--out", str(tmp_path / "report"),
                       "--no-timestamp"],
            "inspect": ["inspect", "--manifest", str(manifest)],
        }[command]
        assert main(argv) == 1
        error = self._one_error(capsys)
        assert error["error"] == "ParseError"
        assert error["message"] == f"manifest {manifest} is a directory"
        assert sorted(tmp_path.rglob("*")) == [manifest.parent, manifest]

    @pytest.mark.parametrize("command", ["experiment", "simulate", "report", "inspect"])
    def test_manifest_lock_that_is_a_directory(self, tmp_path, capsys, command):
        manifest = tmp_path / "exp" / "manifest.json"
        lock = manifest.with_name("manifest.lock")
        lock.mkdir(parents=True)
        argv = {
            "experiment": ["experiment", "--plan", str(DATA / "plan_demo.yaml"),
                           "--out", str(manifest.parent)],
            "simulate": ["simulate", "--policy", "scripted", "--updater", "template",
                         "--script", str(DATA / "demo_script.yaml"),
                         "--out", str(manifest.parent)],
            "report": ["report", "--manifest", str(manifest), "--out", str(tmp_path / "report"),
                       "--no-timestamp"],
            "inspect": ["inspect", "--manifest", str(manifest)],
        }[command]
        assert main(argv) == 1
        error = self._one_error(capsys)
        assert error["error"] == "ParseError"
        assert error["message"].startswith(f"cannot lock manifest {manifest}: ")
        assert sorted(tmp_path.rglob("*")) == [manifest.parent, lock]

    @pytest.mark.parametrize("command", ["experiment", "simulate", "report"])
    def test_out_that_names_a_file(self, tmp_path, capsys, command):
        manifest = tmp_path / "exp" / "manifest.json"
        if command == "report":
            assert main(["experiment", "--plan", str(DATA / "plan_demo.yaml"),
                         "--out", str(manifest.parent)]) == 0
            capsys.readouterr()
        out = tmp_path / "taken"
        out.write_bytes(b"kept\n")
        argv = {
            "experiment": ["experiment", "--plan", str(DATA / "plan_demo.yaml")],
            "simulate": ["simulate", "--policy", "scripted", "--updater", "template",
                         "--script", str(DATA / "demo_script.yaml")],
            "report": ["report", "--manifest", str(manifest), "--no-timestamp"],
        }[command]
        assert main([*argv, "--out", str(out)]) == 1
        error = self._one_error(capsys)
        assert error["error"] == "ParseError"
        assert str(out) in error["message"]
        assert out.read_bytes() == b"kept\n"

    def test_transcripts_that_is_a_file(self, tmp_path, capsys):
        transcripts = tmp_path / "exp" / "transcripts"
        transcripts.parent.mkdir()
        transcripts.write_bytes(b"kept\n")
        assert main(["experiment", "--plan", str(DATA / "plan_demo.yaml"),
                     "--out", str(transcripts.parent)]) == 1
        error = self._one_error(capsys)
        assert error["error"] == "ParseError"
        assert f"cannot create output directory {transcripts}" in error["message"]
        assert transcripts.read_bytes() == b"kept\n"
        assert not (transcripts.parent / "manifest.json").exists()

    @pytest.mark.parametrize("taken", ["summary.csv", "figures"])
    def test_report_file_that_cannot_be_written(self, tmp_path, capsys, taken):
        exp = tmp_path / "exp"
        assert main(["experiment", "--plan", str(DATA / "plan_demo.yaml"),
                     "--out", str(exp)]) == 0
        capsys.readouterr()
        report = tmp_path / "report"
        report.mkdir()
        if taken == "figures":
            (report / taken).write_bytes(b"kept\n")
        else:
            (report / taken).mkdir()
        assert main(["report", "--manifest", str(exp / "manifest.json"),
                     "--out", str(report), "--no-timestamp"]) == 1
        error = self._one_error(capsys)
        assert error["error"] == "ParseError"
        assert error["message"].startswith(f"cannot write report {report}: ")
        assert str(report / taken) in error["message"]
        written = [p.name for p in report.rglob("*") if p.is_file()]
        if taken == "figures":
            assert written == [taken]
            assert (report / taken).read_bytes() == b"kept\n"
        else:
            assert written == []


def readme_cli_commands() -> list[list[str]]:
    """The arguments of each ``esclab`` command in README.md's CLI block."""
    section = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["esclab"]:
            commands.append(words[1:])
    return commands


def readme_transport_keys() -> dict[str, set[str]]:
    """The keys README.md's "`transport` takes these keys" list names per
    kind: every backticked word of a kind's bullet after the kind itself."""
    section = README.read_text(encoding="utf-8").split("`transport` takes these keys", 1)[1]
    bullets = section.split("\n\n", 2)[1].split("\n- ")
    keys = {}
    for bullet in bullets:
        kind, *named = re.findall(r"`([^`]+)`", bullet)
        keys[kind] = set(named)
    return keys


def readme_payload_keys() -> dict[str, set[str]]:
    """The keys README.md's payload-key table names per record type, with
    those of a turn's actions under ``action``: in each row, the backticked
    words outside parentheses, and inside the parentheses after ``actions``."""
    section = README.read_text(encoding="utf-8").split("| Record | Payload keys |", 1)[1]
    keys = {}
    for row in section.split("\n\n", 1)[0].splitlines()[2:]:  # after "|---|---|"
        _, record, named, _ = row.split("|")
        outside = re.sub(r"\([^)]*\)", "", named)
        keys[record.strip().strip("`")] = set(re.findall(r"`([^`]+)`", outside))
        actions = re.search(r"`actions` \(([^)]*)\)", named)
        if actions:
            keys["action"] = set(re.findall(r"`([^`]+)`", actions[1]))
    return keys


class TestReadme:
    def test_payload_keys_match_the_transcript_format(self):
        from test_transcript_format import ACTION_KEYS, PAYLOAD_KEYS

        assert readme_payload_keys() == {**PAYLOAD_KEYS, "action": ACTION_KEYS}

    def test_transport_keys_match_the_plan_schema(self):
        assert readme_transport_keys() == {
            kind: set(types) for kind, (types, _) in experiments._TRANSPORT_KEYS.items()
        }

    def test_cli_block_parses(self, capsys):
        commands = readme_cli_commands()
        assert {argv[0] for argv in commands} == {
            "validate", "simulate", "experiment", "inspect", "report"
        }
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README: esclab {shlex.join(argv)}: {capsys.readouterr().err}")


DELETE = object()

# (case, where, keys, value, exit codes of report, inspect and experiment).
# ``where`` is a line index or the type of the first record to edit; the
# value at ``keys`` in it is deleted, replaced, or (a callable) recomputed.
TRANSCRIPT_CASES = [
    ("line-3-list", 3, (), [1, 2], 1, 1, 1),
    ("line-0-list", 0, (), [1, 2], 1, 1, 1),
    ("turn-no-payload", "turn", ("payload",), DELETE, 1, 1, 1),
    ("turn-payload-5", "turn", ("payload",), 5, 1, 1, 1),
    ("turn-actions-3", "turn", ("payload", "actions"), 3, 1, 1, 1),
    ("turn-no-nation", "turn", ("nation",), None, 1, 1, 1),
    ("turn-action-list", "turn", ("payload", "actions", 0, "action"), ["wait"], 1, 1, 0),
    ("day-no-scores", "day", ("payload", "scores"), DELETE, 1, 1, 1),
    ("day-scores-list", "day", ("payload", "scores"), lambda s: list(s.values()), 1, 1, 1),
    ("header-no-seed", "run_start", ("payload", "seed"), DELETE, 1, 1, 1),
    ("header-treatment-1", "run_start", ("payload", "treatment"), 1, 1, 1, 1),
    ("run-end-payload-list", "run_end", ("payload",), [], 1, 1, 1),
]
# Every edit also breaks the transcript's seal, which alone fails inspect, so
# each case pins the error inspect reports: verify_prompts' ParseError, except
# where it reads the edit and inspect reports what it found instead.
INSPECT_ERRORS = {
    "turn-action-list": ("ValidationError", r"\d+ prompt digest mismatches in 378 prompts .*"),
    # inspect reads no seed: the broken seal is all it finds.
    "header-no-seed": ("ValidationError", re.escape(
        "1 of 3 transcripts are not sealed (partial, or edited after they were written): "
        "transcripts/t1.0-default-r01.jsonl"
    )),
}
MANIFEST_CASES = [
    ("manifest-string", (), json.dumps, 1, 1, 0),
    ("runs-3", ("runs",), 3, 1, 1, 0),
    ("run-entry-list", ("runs", 1), [], 1, 1, 0),
    ("run-no-transcript", ("runs", 1, "transcript"), DELETE, 1, 1, 0),
    ("run-no-status", ("runs", 1, "status"), DELETE, 1, 1, 0),
    ("run-no-label", ("runs", 1, "label"), DELETE, 1, 1, 0),
    ("no-scenario-path", ("scenario_path",), DELETE, 1, 1, 0),
    ("no-taxonomy-path", ("taxonomy_path",), DELETE, 1, 1, 0),
    ("aggregator-bogus", ("aggregator",), "bogus", 1, 1, 0),
]


def _edited(document, keys: tuple, value):
    """``document`` with the value at ``keys`` deleted, replaced or recomputed."""
    if not keys:
        return value(document) if callable(value) else value
    target = document
    for key in keys[:-1]:
        target = target[key]
    if value is DELETE:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value(target[keys[-1]]) if callable(value) else value
    return document


@pytest.fixture(scope="module")
def llm_experiment(tmp_path_factory):
    """A completed three-run LLM plan on the mock: its plan file and output."""
    root = tmp_path_factory.mktemp("llm-experiment")
    plan = root / "plan.yaml"
    plan.write_text(
        f"scenario: {DATA / 'neutral_scenario.yaml'}\n"
        f"taxonomy: {DATA / 'default_taxonomy.yaml'}\n"
        "policy: llm\nworld_updater: llm\nbase_seed: 11\nruns_per_treatment: 3\n"
        "transport: {kind: mock}\n"
        "treatments: [{label: t1.0-default, temperature: 1.0, variant: default}]\n",
        encoding="utf-8",
    )
    assert main(["experiment", "--plan", str(plan), "--out", str(root / "exp")]) == 0
    return plan, root / "exp"


class TestCorruptedRunFiles:
    """One malformed transcript line or manifest value: each command that
    reads it exits 1 with one JSON error line (and writes no report file),
    and a command that does not read it succeeds."""

    TRANSCRIPT = "transcripts/t1.0-default-r01.jsonl"

    def _commands(self, llm_experiment, tmp_path, capsys, codes):
        plan, exp = llm_experiment[0], tmp_path / "exp"
        report = tmp_path / "report"
        capsys.readouterr()
        commands = {
            "report": ["report", "--manifest", str(exp / "manifest.json"),
                       "--out", str(report), "--no-timestamp"],
            "inspect": ["inspect", "--manifest", str(exp / "manifest.json")],
            "experiment": ["experiment", "--plan", str(plan), "--out", str(exp)],
        }
        errors = {}
        for (name, argv), code in zip(commands.items(), codes):
            assert (name, main(argv)) == (name, code)
            err = capsys.readouterr().err.strip().splitlines()
            if code:
                assert len(err) == 1, (name, err)
                errors[name] = json.loads(err[0])
                assert set(errors[name]) == {"error", "message"}
            if name == "report" and code:
                assert not report.exists()
        return errors

    @pytest.mark.parametrize(
        "case,where,keys,value,codes",
        [(c, w, k, v, codes) for c, w, k, v, *codes in TRANSCRIPT_CASES],
        ids=[case[0] for case in TRANSCRIPT_CASES],
    )
    def test_transcript(self, llm_experiment, tmp_path, capsys, case, where, keys, value,
                        codes):
        shutil.copytree(llm_experiment[1], tmp_path / "exp")
        path = tmp_path / "exp" / self.TRANSCRIPT
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n")[:-1]]
        index = where if isinstance(where, int) else next(
            i for i, record in enumerate(lines) if record["type"] == where
        )
        lines[index] = _edited(lines[index], keys, value)
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        errors = self._commands(llm_experiment, tmp_path, capsys, codes)
        error, message = INSPECT_ERRORS.get(case, ("ParseError", ".*"))
        assert errors["inspect"]["error"] == error
        assert re.fullmatch(message, errors["inspect"]["message"])

    @pytest.mark.parametrize(
        "keys,value,codes",
        [(k, v, codes) for _, k, v, *codes in MANIFEST_CASES],
        ids=[case[0] for case in MANIFEST_CASES],
    )
    def test_manifest(self, llm_experiment, tmp_path, capsys, keys, value, codes):
        shutil.copytree(llm_experiment[1], tmp_path / "exp")
        path = tmp_path / "exp" / "manifest.json"
        manifest = _edited(json.loads(path.read_text(encoding="utf-8")), keys, value)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        self._commands(llm_experiment, tmp_path, capsys, codes)

    def test_deeply_nested_transcript_line(self, llm_experiment, tmp_path, capsys):
        shutil.copytree(llm_experiment[1], tmp_path / "exp")
        path = tmp_path / "exp" / self.TRANSCRIPT
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[3] = "[" * 100_000
        path.write_text("\n".join(lines), encoding="utf-8")
        self._commands(llm_experiment, tmp_path, capsys, (1, 1, 1))

    def test_deeply_nested_manifest(self, llm_experiment, tmp_path, capsys):
        shutil.copytree(llm_experiment[1], tmp_path / "exp")
        (tmp_path / "exp" / "manifest.json").write_text("[" * 100_000, encoding="utf-8")
        self._commands(llm_experiment, tmp_path, capsys, (1, 1, 0))
