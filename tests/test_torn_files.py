"""Transcripts cut at any byte: a torn final line is dropped
where the reader tolerates one and an ``EsclabError`` everywhere else,
never a ``UnicodeDecodeError``.  A line that is not a record, or is nested
too deeply to decode, is an ``EsclabError`` too, never a ``RecursionError``."""
import json
from pathlib import Path

import pytest

from esclab import transcript as ts
from esclab.cli import main
from esclab.errors import ParseError
from esclab.experiments import load_manifest

DATA = Path(__file__).parent.parent / "src" / "esclab" / "data"
CURLY = "’".encode("utf-8")  # in every reflection variant's system prompt
NESTED = "[" * 100_000


def records_file(path: Path, texts: list[str]) -> bytes:
    data = b"".join(
        (ts.encode_record(seq, ts.DAY, {"summary": text}, day=seq + 1) + "\n").encode("utf-8")
        for seq, text in enumerate(texts)
    )
    path.write_bytes(data)
    return data


class TestTranscriptReader:
    def test_cut_inside_a_multibyte_character(self, tmp_path):
        path = tmp_path / "run.jsonl"
        data = records_file(path, ["calm", "won’t"])
        path.write_bytes(data[: data.index(CURLY) + 1])
        assert [r["payload"]["summary"] for r in ts.read_records(
            path, tolerate_partial_tail=True)] == ["calm"]
        with pytest.raises(ParseError, match="line 2"):
            ts.read_records(path)

    def test_whole_record_without_its_newline_is_torn(self, tmp_path):
        path = tmp_path / "run.jsonl"
        data = records_file(path, ["calm", "tense"])
        path.write_bytes(data[:-1])
        assert len(ts.read_records(path, tolerate_partial_tail=True)) == 1
        with pytest.raises(ParseError, match="line 2"):
            ts.read_records(path)

    def test_undecodable_middle_line_raises_in_both_modes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        data = records_file(path, ["won’t", "calm", "tense"])
        cut = data.index(CURLY) + 1
        path.write_bytes(data[:cut] + data[cut + 2:])
        for tolerate in (False, True):
            with pytest.raises(ParseError, match="not UTF-8"):
                ts.read_records(path, tolerate_partial_tail=tolerate)


    def test_unreadable_transcript_is_a_parse_error(self, tmp_path):
        for path in (tmp_path / "absent.jsonl", tmp_path):
            with pytest.raises(ParseError, match="cannot read transcript"):
                ts.read_records(path)

    @pytest.mark.parametrize("line", [
        "[1, 2]", "null", '"day"',
        '{"seq": 1, "type": "day", "day": 2, "nation": null}',
        '{"seq": 1, "type": "day", "day": 2, "nation": null, "payload": {}, "extra": 0}',
        '{"seq": 1, "type": "day", "day": 2, "nation": null, "payload": [1]}',
        '{"seq": 1, "type": "day", "day": 2, "nation": null, "payload": {}} {}',
    ], ids=["list", "null", "string", "no-payload", "extra-key", "payload-list", "two-values"])
    def test_line_that_is_not_a_record_raises_in_both_modes(self, tmp_path, line):
        path = tmp_path / "run.jsonl"
        data = records_file(path, ["calm"])
        path.write_bytes(data + (line + "\n").encode("utf-8") + data)
        for tolerate in (False, True):
            with pytest.raises(ParseError, match="bad transcript line 2 .*: not a record"):
                ts.read_records(path, tolerate_partial_tail=tolerate)

    def test_deeply_nested_line_is_a_parse_error(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(records_file(path, ["calm"]) + (NESTED + "\n").encode("utf-8"))
        for tolerate in (False, True):
            with pytest.raises(ParseError, match="bad transcript line 2 .*recursion"):
                ts.read_records(path, tolerate_partial_tail=tolerate)


class TestManifestReader:
    def test_deeply_nested_manifest_is_a_parse_error(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(NESTED, encoding="utf-8")
        with pytest.raises(ParseError, match="malformed manifest .*recursion"):
            load_manifest(path)


class TestExperimentAfterATornCharacter:
    def test_cli_resumes_a_transcript_cut_inside_a_multibyte_character(self, tmp_path, capsys):
        plan = tmp_path / "plan.yaml"
        plan.write_text(
            f"""
scenario: {DATA / 'neutral_scenario.yaml'}
taxonomy: {DATA / 'default_taxonomy.yaml'}
base_seed: 5
runs_per_treatment: 1
policy: llm
world_updater: llm
transport:
  kind: mock
treatments:
  - {{label: t1.0-reflection-planning, temperature: 1.0, variant: reflection_planning}}
""",
            encoding="utf-8",
        )

        def experiment(out: str) -> dict:
            assert main(["experiment", "--plan", str(plan), "--out", str(tmp_path / out)]) == 0
            return json.loads(capsys.readouterr().out)

        experiment("pristine")
        experiment("crashed")
        victim = tmp_path / "crashed" / "transcripts" / "t1.0-reflection-planning-r00.jsonl"
        whole = victim.read_bytes()
        victim.write_bytes(whole[: whole.index(CURLY) + 1])
        assert experiment("crashed")["new_requests"] == 14 * 9
        assert victim.read_bytes() == whole
        assert (tmp_path / "crashed" / "manifest.json").read_bytes() == (
            tmp_path / "pristine" / "manifest.json"
        ).read_bytes()
