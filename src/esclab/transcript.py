"""Append-only run transcripts: one canonical JSONL record per event.

Every raw response, parse outcome, score and world summary for one run lands
here; reports and replay consume nothing else.  Prompts are stored as sha256
digests (format 2): the system text and the user template once per run, and
per query only the digests, since ``verify_prompts`` re-derives each user
prompt from the run's own records.  Records carry a logical sequence number
as their timestamp so that identical runs produce byte-identical files
(wall-clock time is deliberately excluded; latency of live calls is recorded
inside llm_call payloads).
"""
from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .errors import ParseError, ValidationError
from .prompts import PromptVariant, render_user_text, text_sha256
from .scenario import (
    ChosenAction,
    DailyRecord,
    Scenario,
    advance_day,
    initial_world,
    with_partial_day,
)

if TYPE_CHECKING:
    from .agents import AgentTurn

# Format 2 stores each prompt as digests (format 1 stored the user text).
TRANSCRIPT_FORMAT = 2

RUN_START = "run_start"
SYSTEM_PROMPT = "system_prompt"
PROMPT = "prompt"
LLM_CALL = "llm_call"
PARSE_FAILURE = "parse_failure"
TURN = "turn"
DAY = "day"
RUN_END = "run_end"

# Receives (record type, payload) for each record a query produces.
Recorder = Callable[[str, dict], None]


# Records whose write ends a unit that resume keeps: the writer flushes
# after these only.
_FLUSHED_AFTER = {DAY, RUN_END}

# The canonical record encoding and its decoder, built once rather than per
# record; neither keeps state between calls.
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))
_DECODER = json.JSONDecoder()
# The keys of every record, as encode_record writes them.
_RECORD_KEYS = frozenset({"seq", "type", "day", "nation", "payload"})


def encode_record(seq: int, type_: str, payload: dict, day: int | None = None,
                  nation: str | None = None) -> str:
    record = {"seq": seq, "type": type_, "day": day, "nation": nation, "payload": payload}
    return _ENCODER.encode(record)


class TranscriptWriter:
    """Incremental writer, flushed after every ``day`` and ``run_end`` record.

    A killed process therefore loses at most the day in progress, and leaves
    the file cut at any byte, even inside a record or a multi-byte
    character.  Resume drops that torn tail and discards the records after
    the last ``day``, so it replays such a day anyway; ``close`` flushes
    everything.
    """

    def __init__(self, path: str | Path, start_seq: int = 0):
        self.path = Path(path)
        self._seq = start_seq
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")

    def write(self, type_: str, payload: dict, day: int | None = None,
              nation: str | None = None) -> int:
        seq = self._seq
        self._handle.write(encode_record(seq, type_, payload, day, nation) + "\n")
        if type_ in _FLUSHED_AFTER:
            self._handle.flush()
        self._seq += 1
        return seq

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "TranscriptWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def split_lines(data: bytes) -> tuple[list[str], bytes]:
    """The decoded lines of a JSONL file, and the bytes after its last "\n".

    Lines end in "\n" only; str.splitlines would also split inside a reply
    holding U+2028, U+0085 and the like.  The tail is empty for a file that
    ends in "\n"; otherwise it is what a killed writer left of its last
    line, cut at any byte, even inside a multi-byte character.  A line
    before it that is not UTF-8 raises ``UnicodeDecodeError``.
    """
    cut = data.rfind(b"\n") + 1
    return str(memoryview(data)[:cut], "utf-8").split("\n")[:-1], data[cut:]


def read_records(path: str | Path, tolerate_partial_tail: bool = False) -> list[dict]:
    """Read all records; optionally drop a torn final line (crashed writer).

    A record is whole only with its "\n": a final line without one is torn
    even where it would parse.  A line that is not a record (an object with
    exactly the keys ``encode_record`` writes, its payload an object) is a
    ``ParseError``.
    """
    try:
        lines, tail = split_lines(Path(path).read_bytes())
    except OSError as exc:
        raise ParseError(f"cannot read transcript {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"transcript {path} is not UTF-8: {exc}")
    if tail and not tolerate_partial_tail:
        raise ParseError(f"bad transcript line {len(lines) + 1} in {path}: torn, no newline")
    records = []
    for line_no, line in enumerate(lines, 1):
        line = line.strip(" \t\r")  # the whitespace JSON allows around a value
        if not line:
            continue
        try:
            # raw_decode: json.loads would match that whitespace again.
            record, end = _DECODER.raw_decode(line)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad transcript line {line_no} in {path}: {exc}")
        if not (end == len(line) and type(record) is dict and record.keys() == _RECORD_KEYS
                and type(record["payload"]) is dict):
            raise ParseError(f"bad transcript line {line_no} in {path}: not a record")
        records.append(record)
    return records


def rewrite(path: str | Path, records: list[dict]) -> None:
    """Atomically replace a transcript with the given records."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        # A record read back holds exactly the keys encode_record writes.
        handle.writelines(_ENCODER.encode(record) + "\n" for record in records)
    os.replace(tmp, path)


@dataclass
class TranscriptRun:
    """One run's outcome: what ``run_simulation`` returns, and what
    ``reconstruct_run`` rebuilds from the transcript; all reports start here."""

    run_id: str
    scenario_name: str
    seed: int
    temperature: float
    variant: str
    status: str  # completed | aborted | partial
    abort_reason: str | None
    days: list[DailyRecord]
    fallbacks: int = 0

    @property
    def completed(self) -> bool:
        return self.status == "completed"


def turn_payload(turn: AgentTurn) -> dict:
    """The payload of a turn record."""
    return {
        "nation": turn.nation,
        "actions": [
            {"action": a.action_id, "target": a.target, "raw_text": a.raw_text}
            for a in turn.actions
        ],
        "private_thoughts": turn.private_thoughts,
        "parse_attempts": turn.parse_attempts,
        "fallback": turn.fallback,
        "deviations": list(turn.deviations),
    }


def turn_actions(payload: dict) -> tuple[ChosenAction, ...]:
    """The actions of a turn record's payload."""
    return tuple(
        ChosenAction(action_id=a["action"], target=a["target"], raw_text=a["raw_text"])
        for a in payload["actions"]
    )


def decode_turn(payload: dict) -> AgentTurn:
    """The turn of a turn record's payload: the inverse of ``turn_payload``."""
    from .agents import AgentTurn  # agents imports this module

    return AgentTurn(
        nation=payload["nation"],
        actions=turn_actions(payload),
        private_thoughts=payload["private_thoughts"],
        parse_attempts=payload["parse_attempts"],
        fallback=payload["fallback"],
        deviations=tuple(payload["deviations"]),
    )


def _day_record(record: dict, actions_by_nation: dict) -> DailyRecord:
    """The ``DailyRecord`` of a ``day`` record and the actions of its turns."""
    payload = record["payload"]
    return DailyRecord(
        day=record["day"],
        actions_by_nation=actions_by_nation,
        daily_score_by_nation={**payload["scores"]},  # a mapping, not a list of pairs
        world_summary_after=payload["summary"],
    )


def run_from_header(header: dict, status: str, abort_reason: str | None,
                    days: list[DailyRecord], fallbacks: int) -> TranscriptRun:
    """The run whose ``run_start`` payload is ``header``, with its outcome."""
    treatment = header["treatment"]
    return TranscriptRun(
        run_id=header["run_id"],
        scenario_name=header["scenario_name"],
        seed=header["seed"],
        temperature=treatment["temperature"],
        variant=treatment["variant"],
        status=status,
        abort_reason=abort_reason,
        days=days,
        fallbacks=fallbacks,
    )


def _run_start(records: list[dict], path: str | Path) -> dict:
    """The ``run_start`` payload that opens every transcript of this format."""
    if not records or records[0]["type"] != RUN_START:
        raise ParseError(f"transcript {path} does not start with a run_start record")
    header = records[0]["payload"]
    version = header.get("transcript_format", 1)  # format 1 did not record it
    if version != TRANSCRIPT_FORMAT:
        raise ValidationError(f"transcript {path} is in format {version!r}, not "
                              f"{TRANSCRIPT_FORMAT}; remove it to play the run again")
    return header


def _reader(read):
    """``read``, raising a missing or mistyped field as ``ParseError``."""

    @functools.wraps(read)
    def checked(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except KeyError as exc:
            raise ParseError(f"transcript {path} lacks the field {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"transcript {path} has a malformed field: {exc}") from exc

    return checked


def reconstruct_run(records: list[dict], path: str | Path) -> TranscriptRun:
    """Rebuild the run's daily records and status from the records of the
    transcript at ``path``."""
    header = _run_start(records, path)
    today: dict[str, tuple[ChosenAction, ...]] = {}
    days: list[DailyRecord] = []
    status = "partial"
    abort_reason = None
    fallbacks = 0
    for record in records:
        type_ = record["type"]
        if type_ == TURN:
            payload = record["payload"]
            today[payload["nation"]] = turn_actions(payload)
            if payload["fallback"]:
                fallbacks += 1
        elif type_ == DAY:
            days.append(_day_record(record, today))
            today = {}
        elif type_ == RUN_END:
            status = record["payload"]["status"]
            abort_reason = record["payload"]["reason"]
    return run_from_header(header, status, abort_reason, days, fallbacks)


@_reader
def load_run(path: str | Path) -> TranscriptRun:
    return reconstruct_run(read_records(path), path)


@_reader
def read_turns(path: str | Path) -> dict[tuple[int, str], AgentTurn]:
    """Every turn of the transcript at ``path``, by day and nation."""
    return {(record["day"], record["nation"]): decode_turn(record["payload"])
            for record in read_records(path) if record["type"] == TURN}


@_reader
def stored_run(path: str | Path, header: dict) -> tuple[TranscriptRun | None, list[dict]]:
    """What the transcript at ``path`` holds of the run whose ``run_start``
    payload is ``header``, as ``(completed run or None, records to keep)``.

    - ``(run, records)``: the run, completed; nothing is left to play.
    - ``(None, records up to its last completed day)``: a partial run.  What
      follows that day (a half-written day, an abort marker) is played
      again, so the continuation is byte-identical to an uninterrupted run.
    - ``(None, [])``: no file, or no completed day in it.  The run starts
      over, since the writer may have left even its header records torn.
    - ``ValidationError``: a transcript of a different run, or one in
      another transcript format.
    """
    path = Path(path)
    records = read_records(path, tolerate_partial_tail=True) if path.exists() else []
    if not records:
        return None, []
    if _run_start(records, path) != header:
        raise ValidationError(
            f"transcript {path} belongs to a different run; refusing to skip or resume it"
        )
    run = reconstruct_run(records, path)
    if run.completed:
        return run, records
    for index in range(len(records) - 1, 0, -1):
        if records[index]["type"] == DAY:
            return None, records[: index + 1]
    return None, []


@_reader
def verify_prompts(path: str | Path, scenario: Scenario) -> tuple[int, list[str]]:
    """Re-derive every prompt of a transcript and compare digests.

    A user prompt is a function of the scenario, the user template in the
    ``system_prompt`` record, the variant and the world at the start of its
    day, which the transcript's own ``turn`` and ``day`` records rebuild
    (under ``intra_day_visibility``, with the earlier nations' turns of that
    day).  Returns the number of prompt records and one line per mismatch.
    """
    records = read_records(path)
    header = _run_start(records, path)
    system = next((r for r in records if r["type"] == SYSTEM_PROMPT), None)
    if system is None:
        raise ParseError(f"transcript {path} has no system_prompt record")
    system_sha256 = system["payload"]["sha256"]
    template = system["payload"]["user_template"]
    variant = PromptVariant(header["treatment"]["variant"])
    mismatches = []
    if text_sha256(system["payload"]["text"]) != system_sha256:
        mismatches.append(f"seq {system['seq']}: system_prompt text does not match its sha256")
    world = initial_world(scenario)
    today: dict[str, tuple[ChosenAction, ...]] = {}
    checked = 0
    for record in records:
        type_ = record["type"]
        if type_ == PROMPT:
            checked += 1
            view = with_partial_day(world, today) if header["intra_day_visibility"] else world
            user_text = render_user_text(scenario, view, record["nation"], variant, template)
            payload = record["payload"]
            wrong = [
                name
                for name, expected in (
                    ("user_sha256", text_sha256(user_text)),
                    ("system_sha256", system_sha256),
                )
                if payload.get(name) != expected
            ]
            if wrong:
                mismatches.append(
                    f"seq {record['seq']} (day {record['day']}, {record['nation']}): "
                    f"{' and '.join(wrong)} not re-derived"
                )
        elif type_ == TURN:
            today[record["payload"]["nation"]] = turn_actions(record["payload"])
        elif type_ == DAY:
            world = advance_day(world, _day_record(record, today))
            today = {}
    return checked, mismatches
