import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from esclab.cli import main

DATA = Path(__file__).parent.parent / "src" / "esclab" / "data"


class TestImports:
    def test_cli_import_leaves_scipy_unloaded(self):
        probe = (
            "import sys, esclab.cli; loaded = 'scipy' in sys.modules; "
            "from esclab import build_report, summarize; "
            "print(loaded, 'scipy' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert done.stdout.split() == ["False", "True"]


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

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate"])  # --out missing
        assert excinfo.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


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

    def test_report_on_missing_manifest_exits_one(self, tmp_path, capsys):
        assert main([
            "report", "--manifest", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "r"),
        ]) == 1
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[-1])["error"] == "ParseError"
