"""Append-only run transcripts: one canonical JSONL record per event.

Every prompt, raw response, parse outcome, score and world summary for one
run lands here; reports and replay consume nothing else.  Records carry a
logical sequence number as their timestamp so that identical runs produce
byte-identical files (wall-clock time is deliberately excluded; latency of
live calls is recorded inside llm_call payloads).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .errors import ParseError
from .scenario import ChosenAction, DailyRecord

if TYPE_CHECKING:
    from .agents import AgentTurn

RUN_START = "run_start"
SYSTEM_PROMPT = "system_prompt"
PROMPT = "prompt"
LLM_CALL = "llm_call"
PARSE_FAILURE = "parse_failure"
TURN = "turn"
DAY = "day"
RUN_END = "run_end"

_HEADER_TYPES = {RUN_START, SYSTEM_PROMPT}

# Receives (record type, payload) for each record a query produces.
Recorder = Callable[[str, dict], None]


def encode_record(seq: int, type_: str, payload: dict, day: int | None = None,
                  nation: str | None = None) -> str:
    record = {"seq": seq, "type": type_, "day": day, "nation": nation, "payload": payload}
    return json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


class TranscriptWriter:
    """Incremental writer; every record is flushed as soon as it is written."""

    def __init__(self, path: str | Path, start_seq: int = 0):
        self.path = Path(path)
        self._seq = start_seq
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")

    def write(self, type_: str, payload: dict, day: int | None = None,
              nation: str | None = None) -> int:
        seq = self._seq
        self._handle.write(encode_record(seq, type_, payload, day, nation) + "\n")
        self._handle.flush()
        self._seq += 1
        return seq

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "TranscriptWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_records(path: str | Path, tolerate_partial_tail: bool = False) -> list[dict]:
    """Read all records; optionally drop a torn final line (crashed writer)."""
    records = []
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            if tolerate_partial_tail and line_no == len(lines):
                break
            raise ParseError(f"bad transcript line {line_no} in {path}: {exc}")
    return records


def complete_day_prefix(records: list[dict]) -> list[dict]:
    """Records up to and including the last completed day.

    Used when resuming after a crash: anything after the last day event (a
    half-written day, an abort marker) is discarded so the continuation is
    byte-identical to an uninterrupted run.
    """
    last_day_index = None
    for i, record in enumerate(records):
        if record.get("type") == DAY:
            last_day_index = i
    if last_day_index is not None:
        return records[: last_day_index + 1]
    prefix = []
    for record in records:
        if record.get("type") in _HEADER_TYPES:
            prefix.append(record)
        else:
            break
    return prefix


def rewrite(path: str | Path, records: list[dict]) -> None:
    """Atomically replace a transcript with the given records."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                encode_record(
                    record["seq"], record["type"], record["payload"],
                    record.get("day"), record.get("nation"),
                )
                + "\n"
            )
    os.replace(tmp, path)


@dataclass
class TranscriptRun:
    """One run's outcome: what ``run_simulation`` returns, and what
    ``reconstruct_run`` rebuilds from the transcript; all reports start here."""

    run_id: str
    scenario_name: str
    days_expected: int
    seed: int
    treatment_label: str
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
        ChosenAction(
            action_id=a["action"],
            target=a.get("target"),
            raw_text=a.get("raw_text", ""),
        )
        for a in payload["actions"]
    )


def reconstruct_run(records: list[dict]) -> TranscriptRun:
    """Rebuild the run's daily records and status from raw transcript records."""
    if not records or records[0].get("type") != RUN_START:
        raise ParseError("transcript does not start with a run_start record")
    header = records[0]["payload"]
    turns_by_day: dict[int, dict[str, dict]] = {}
    days: list[DailyRecord] = []
    status = "partial"
    abort_reason = None
    fallbacks = 0
    for record in records[1:]:
        type_ = record.get("type")
        if type_ == TURN:
            payload = record["payload"]
            turns_by_day.setdefault(record["day"], {})[payload["nation"]] = payload
            if payload.get("fallback"):
                fallbacks += 1
        elif type_ == DAY:
            payload = record["payload"]
            day = record["day"]
            turns = turns_by_day.get(day, {})
            days.append(
                DailyRecord(
                    day=day,
                    actions_by_nation={
                        nation: turn_actions(turn) for nation, turn in turns.items()
                    },
                    daily_score_by_nation=dict(payload["scores"]),
                    world_summary_after=payload["summary"],
                )
            )
        elif type_ == RUN_END:
            payload = record["payload"]
            status = payload["status"]
            abort_reason = payload.get("reason")
    return TranscriptRun(
        run_id=header["run_id"],
        scenario_name=header["scenario_name"],
        days_expected=header["days"],
        seed=header["seed"],
        treatment_label=header["treatment"]["label"],
        temperature=header["treatment"]["temperature"],
        variant=header["treatment"]["variant"],
        status=status,
        abort_reason=abort_reason,
        days=days,
        fallbacks=fallbacks,
    )


def load_run(path: str | Path) -> TranscriptRun:
    return reconstruct_run(read_records(path))
