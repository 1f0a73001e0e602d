"""Append-only run transcripts: one canonical JSONL record per event.

Every raw response, parse outcome, score and world summary for one run lands
here; reports consume nothing else, and ``esclab inspect`` replays a
recorded experiment from its transcripts alone (``read_recording`` reads one
for ``experiments.ReplayTransport``, which it plays every run on).
Each fact is stored once: the record's ``nation`` names a turn's nation,
``run_start`` the treatment and everything else that produced the run (the
model and its reply cap, the retry count, the policy and the world
updater), and the ``system_prompt`` record the system text with its digest
and the user template.  Each model call is one ``llm_call`` record; that of
an agent query's first attempt, and that of a world update, also holds its
user prompt's digest.  What a record's place rebuilds is not written: a
nation's ``llm_call`` records of a day are its query's attempts in order,
so they give the request tag (``request_tag``) and the turn's attempt
count; a ``parse_failure`` follows the ``llm_call`` whose reply it refuses,
and a turn the one it accepts.  One walk, ``_days``, groups the records into days
and attempts for every reader, and checks the days' sequence and turns.
Records carry a logical sequence number as their timestamp so that identical
runs produce byte-identical files.  What the transport saw of a call (its
latency and attempts, ``TRANSPORT_FACTS``) depends on more than what the
model said, so the writer moves it to a metrics sidecar when it is given
one and drops it otherwise: the transcript holds no wall-clock time.

A finished transcript is sealed: the ``run_end`` payload holds the sha256
of every byte before the ``run_end`` line.  A transcript is
sealed when it has no torn tail, its last line is a ``run_end`` record and
that digest matches.  A reader names the record types it uses, and of a
sealed completed run only the lines whose canonical ending ``"type":"<t>"}``
(``encode_record`` sorts keys, so ``type`` comes last) names one of them
are decoded, each passing the same record check.  Any other transcript
(an aborted run, whose kept records resume writes back, or one partial,
torn, edited or of an older format) is decoded and checked line by line.
A no-op re-run (``stored_run``) reads each transcript's bytes once and
checks the seal first, which decodes the ``run_end`` line; of a sealed
completed transcript it then decodes the first line, ``run_start``, and
splits nothing else.  Those two records decide the skip; the skipped run
reads its days and fallbacks when either is first used, and refuses them
unless the file is still sealed as the skip saw it.
The seal guards against accident, not against a forger: whoever can
recompute it can as well write well-formed false records, which only a
replay of the run tells apart.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import sys
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Collection, Iterator

from .errors import ParseError, ValidationError
from .scenario import ChosenAction, DailyRecord

if TYPE_CHECKING:
    from .agents import AgentTurn

# Format 8 moves each llm_call's latency and attempt count to the metrics
# sidecar and gives the world update's llm_call its user prompt's digest.
# Format 7 drops what a record's place rebuilds: the tag of each llm_call, a
# parse failure's attempt and reply, and a turn's attempt count and private
# thoughts (the reply it accepts holds them).  Format 6 dropped run_start's
# flag for sequential moves: every nation of a day sees the same start-of-day
# world.  Format 5 named in run_start what produced the run (model,
# max_tokens, max_parse_retries, policy, world updater) and wrote one record
# per model call: the first attempt's llm_call holds the user prompt's
# digest.  Format 4 sealed a finished transcript with
# the digest of its bytes in run_end, copied the model and max_tokens into
# every llm_call and wrote each query's digest in a prompt record of its own.
# Format 3 had no seal and copied a parse failure's nation into its payload;
# format 2 also copied a turn's nation into its payload, the system digest
# into every prompt record, the temperature into every llm_call and a
# re-encoded reply into every action.  Format 1 stored every user prompt in
# full.
TRANSCRIPT_FORMAT = 8

RUN_START = "run_start"
SYSTEM_PROMPT = "system_prompt"
LLM_CALL = "llm_call"
PARSE_FAILURE = "parse_failure"
TURN = "turn"
DAY = "day"
RUN_END = "run_end"

# Receives (record type, payload) for each record a query produces.
Recorder = Callable[[str, dict], None]

# The keys of an llm_call payload, as ``client.complete`` records it, that
# describe the transport rather than the model: the request tag, the seconds
# the answering attempt took and the attempts.  The writer never puts them
# in the transcript; a metrics sidecar gets one line of them per call.
TRANSPORT_FACTS = ("tag", "latency", "attempts")


def request_tag(run_id: str, day: int, nation: str | None, attempt: int | None = None) -> str:
    """The tag a model request carries: ``<run>|dDD|<nation>|a<attempt>`` for
    a nation's query, ``<run>|dDD|world`` for the day's world update (no
    nation).  A transcript stores none; an ``llm_call`` record's run, day,
    nation and place among its nation's calls that day rebuild it."""
    if nation is None:
        return f"{run_id}|d{day:02d}|world"
    return f"{run_id}|d{day:02d}|{nation}|a{attempt}"


# The records that rebuild a run's days and outcome.
_RUN_TYPES = frozenset({RUN_START, TURN, DAY, RUN_END})
_DAY_TYPES = frozenset({LLM_CALL, TURN, DAY})  # the records ``_days`` groups into days


# Records whose write ends a unit that resume keeps: the writer writes its
# pending lines out after these only.
_FLUSHED_AFTER = {DAY, RUN_END}

# The canonical record encoding and its decoder, built once rather than per
# record; neither keeps state between calls.
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))
_DECODER = json.JSONDecoder()
# The keys of every record, as encode_record writes them.
_RECORD_KEYS = frozenset({"seq", "type", "day", "nation", "payload"})
# A code point that UTF-8 cannot encode, yet a decoded reply may hold.
_SURROGATE = re.compile("[\ud800-\udfff]")


def utf8(text: str) -> bytes:
    """The UTF-8 bytes of JSON text, with each surrogate code point in it (a
    reply decoded from JSON may hold a lone one) written as its ``\\u``
    escape.  A lone one decodes back to itself; a high one just before a low
    one decodes, as JSON has it, to the one character they form.  Text
    without one keeps its bytes, and nothing else in text with one changes."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        return _SURROGATE.sub(lambda m: f"\\u{ord(m[0]):04x}", text).encode("utf-8")


def encode_record(seq: int, type_: str, payload: dict, day: int | None = None,
                  nation: str | None = None) -> str:
    record = {"seq": seq, "type": type_, "day": day, "nation": nation, "payload": payload}
    return _ENCODER.encode(record)


class TranscriptWriter:
    """Incremental writer: records reach the file after every ``day`` and
    ``run_end`` record, and on ``close``.

    It atomically replaces any file at ``path`` with the records ``kept``
    (a resumed run's prefix), then appends.  A killed process therefore
    loses at most the day in progress, and may leave the file cut at any
    byte, even inside a record or a multi-byte character.  Resume drops that
    torn tail and discards the records after the last ``day``, so it replays
    such a day anyway.  The ``run_end`` record it writes gains ``sha256``,
    the digest of every byte before it, so a resumed run ends with the seal
    of an uninterrupted one.

    An ``llm_call`` payload loses its ``TRANSPORT_FACTS``.  With ``metrics``,
    a path, they go there as one JSON line per call, flushed just before the
    transcript, so the sidecar never holds fewer calls than it.  The writer
    replaces the sidecar with its first lines, one per ``llm_call`` in
    ``kept`` (none when the run starts over): a resumed run's lost day
    leaves it as it leaves the transcript.  The sidecar is never sealed or
    compared.
    """

    def __init__(self, path: str | Path, kept: list[dict] = (),
                 metrics: str | Path | None = None):
        self.path = Path(path)
        self._seq = len(kept)
        self._hash = hashlib.sha256()
        # A record read back holds exactly the keys encode_record writes.
        self._pending = [_ENCODER.encode(record) + "\n" for record in kept]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        self._handle = tmp.open("wb")
        self._metrics = None
        try:
            self._flush()
            os.replace(tmp, self.path)
            if metrics is not None:
                self._metrics = _replace_sidecar(
                    Path(metrics), sum(record["type"] == LLM_CALL for record in kept))
        except BaseException:
            self._handle.close()
            raise

    def _flush(self) -> None:
        """Hash and write the pending lines, in one piece."""
        lines, self._pending = self._pending, []
        if self._metrics is not None:
            self._metrics.flush()
        data = utf8("".join(lines))
        self._hash.update(data)
        self._handle.write(data)
        self._handle.flush()

    def write(self, type_: str, payload: dict, day: int | None = None,
              nation: str | None = None) -> int:
        seq = self._seq
        if type_ == LLM_CALL:
            payload = dict(payload)
            facts = {key: payload.pop(key) for key in TRANSPORT_FACTS}
            if self._metrics is not None:
                self._metrics.write(utf8(_ENCODER.encode(facts) + "\n"))
        if type_ == RUN_END:
            self._flush()
            payload = {**payload, "sha256": self._hash.hexdigest()}
        self._pending.append(encode_record(seq, type_, payload, day, nation) + "\n")
        if type_ in _FLUSHED_AFTER:
            self._flush()
        self._seq += 1
        return seq

    def close(self) -> None:
        try:
            self._flush()
        finally:
            self._handle.close()
            if self._metrics is not None:
                self._metrics.close()


def _replace_sidecar(path: Path, calls: int) -> BinaryIO:
    """Atomically replace the metrics sidecar at ``path`` with its first
    ``calls`` whole lines (those it has, if fewer) and return it open for
    appending."""
    kept = b""
    if calls:
        with suppress(FileNotFoundError):
            lines = path.read_bytes().split(b"\n")[:-1]  # whole lines only
            kept = b"".join(line + b"\n" for line in lines[:calls])
    tmp = path.with_suffix(path.suffix + ".tmp")
    handle = tmp.open("wb")
    try:
        handle.write(kept)
        os.replace(tmp, path)
    except BaseException:
        handle.close()
        raise
    return handle


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


def _decode(line: str) -> dict:
    """The record on one line, with no whitespace around it; ``ValueError``
    or ``RecursionError`` unless it is a record (an object with exactly the
    keys ``encode_record`` writes, its payload an object)."""
    # raw_decode: json.loads would match that whitespace again.
    record, end = _DECODER.raw_decode(line)
    if not (end == len(line) and type(record) is dict and record.keys() == _RECORD_KEYS
            and type(record["payload"]) is dict):
        raise ValueError("not a record")
    return record


def _seal(data: bytes) -> dict | None:
    """The ``run_end`` payload that seals the transcript bytes ``data``;
    None if they are not sealed.  The ``run_end`` line must be canonical,
    as ``encode_record`` writes it, so that its type ends it too."""
    if not data.endswith(b"\n"):
        return None
    start = data.rfind(b"\n", 0, -1) + 1
    try:
        line = str(data[start:-1], "utf-8")
        record = _decode(line)
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    end = record["payload"]
    if (record["type"] != RUN_END or utf8(_ENCODER.encode(record)) != data[start:-1]
            or end.get("sha256") != hashlib.sha256(memoryview(data)[:start]).hexdigest()):
        return None
    return end


def _read_bytes(path: str | Path) -> bytes:
    """The bytes of the transcript at ``path``: every reader's one read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read transcript {path}: {exc}") from exc


def read_records(path: str | Path, tolerate_partial_tail: bool = False,
                 types: Collection[str] | None = None) -> list[dict]:
    """Read the records; optionally drop a torn final line (crashed writer).

    A record is whole only with its "\n": a final line without one is torn
    even where it would parse.  A line that is not a record (an object with
    exactly the keys ``encode_record`` writes, its payload an object) is a
    ``ParseError``.  Of a sealed completed run, only the records of the
    given ``types`` are read (all when it is None); of any other transcript,
    every record.
    """
    return _read(path, tolerate_partial_tail, types)[0]


def _read(path: str | Path, tolerate_partial_tail: bool,
          types: Collection[str] | None) -> tuple[list[dict], dict | None]:
    """``read_records``, and the ``run_end`` payload that seals the file:
    None if it is not sealed, or if ``types`` is None (not looked at)."""
    data = _read_bytes(path)
    end = _seal(data) if types is not None else None
    if end is None or end.get("status") != "completed":
        types = None
    return _records(data, path, tolerate_partial_tail, types), end


def _records(data: bytes, path: str | Path, tolerate_partial_tail: bool,
             types: Collection[str] | None = None) -> list[dict]:
    """The records of the transcript bytes ``data``, read from ``path``:
    every record, or with ``types`` only the lines whose canonical ending
    names one of them (the writer's own lines of a sealed file)."""
    try:
        lines, tail = split_lines(data)
    except UnicodeDecodeError as exc:
        raise ParseError(f"transcript {path} is not UTF-8: {exc}")
    if tail and not tolerate_partial_tail:
        raise ParseError(f"bad transcript line {len(lines) + 1} in {path}: torn, no newline")
    numbered = enumerate(lines, 1)
    if types is not None:
        wanted = tuple(f'"type":{_ENCODER.encode(type_)}}}' for type_ in types)
        numbered = [(line_no, line) for line_no, line in numbered if line.endswith(wanted)]
    records = []
    for line_no, line in numbered:
        line = line.strip(" \t\r")  # the whitespace JSON allows around a value
        if not line:
            continue
        try:
            records.append(_decode(line))
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad transcript line {line_no} in {path}: {exc}")
    return records


@dataclass
class TranscriptRun:
    """One run's outcome: what ``run_simulation`` returns, and what
    ``reconstruct_run`` rebuilds from the transcript; all reports start here.

    A completed run that ``stored_run`` skipped lacks its ``days`` and
    ``fallbacks`` until either is first used.  Then its transcript is read
    once, as ``load_run`` reads it, and checked: ``ValidationError`` unless
    it is still sealed with the ``run_end`` and header the skip saw,
    ``ParseError`` if it cannot be read.  Either way the run equals the one
    ``load_run`` gives."""

    run_id: str
    scenario_name: str
    seed: int
    temperature: float
    variant: str
    status: str  # completed | aborted | partial
    abort_reason: str | None
    days: list[DailyRecord]
    # A factory leaves no class attribute to stand in for a skipped run's
    # fallbacks before they are read.
    fallbacks: int = field(default_factory=int)

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def __getattr__(self, name: str):
        # Only a skipped run lacks days and fallbacks, until one is used.
        read = self.__dict__.get("_read_days")
        if read is None or name not in ("days", "fallbacks"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.days, self.fallbacks = read()
        del self._read_days
        return getattr(self, name)


def turn_payload(turn: AgentTurn) -> dict:
    """The payload of a turn record; the record itself names the nation, and
    the nation's ``llm_call`` records before it give its attempts and reply."""
    return {
        "actions": [{"action": a.action_id, "target": a.target} for a in turn.actions],
        "fallback": turn.fallback,
        "deviations": list(turn.deviations),
    }


def _shared(value):
    """``value``, the one copy of its text if it is a string: the names and
    ids of every run read back then share their strings.  Any other value
    goes on unchanged to the check that refuses it."""
    return sys.intern(value) if type(value) is str else value


def turn_actions(record: dict) -> tuple[str, tuple[ChosenAction, ...]]:
    """The nation and the actions of a turn record: every reader's one
    decoder of them."""
    nation = record["nation"]
    if type(nation) is not str:
        raise TypeError(f"turn record {record['seq']} names no nation: {nation!r}")
    return sys.intern(nation), tuple([ChosenAction(_shared(a["action"]), _shared(a["target"]))
                                      for a in record["payload"]["actions"]])


def _day_record(record: dict, actions_by_nation: dict) -> DailyRecord:
    """The ``DailyRecord`` of a ``day`` record and the actions of its turns."""
    payload = record["payload"]
    scores = {**payload["scores"]}  # a mapping, not a list of pairs
    return DailyRecord(
        day=record["day"],
        actions_by_nation=actions_by_nation,
        daily_score_by_nation={_shared(nation): score for nation, score in scores.items()},
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


def reader(read):
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


def _last_end(records: list[dict]) -> dict | None:
    """The payload of the last ``run_end`` record of ``records``; None if none."""
    return next((r["payload"] for r in reversed(records) if r["type"] == RUN_END), None)


def _days(records: list[dict], header: dict, path: str | Path) -> Iterator[tuple]:
    """Each day of the run ``records`` whose ``run_start`` payload is
    ``header``: its number, its ``llm_call`` records by nation (None: the
    world update) in attempt order, its turn records by nation, and its
    ``day`` record, None only for the open day that ends a run that did not
    complete.  ``ValidationError`` naming ``path``: a record of another day
    than the open one, a nation's second turn of a day, or a completed run
    without exactly ``header["days"]`` days and no open one."""
    day, calls, turns = 1, {}, {}
    for record in records:
        type_ = record["type"]
        if type_ not in _DAY_TYPES:
            continue
        if type(record["day"]) is not int or record["day"] != day:
            raise ValidationError(
                f"transcript {path} day {day}: a {type_} record names day {record['day']!r}")
        nation = record["nation"]
        if type_ == TURN:
            if nation in turns:
                raise ValidationError(f"transcript {path} day {day}: a second turn of {nation!r}")
            turns[nation] = record
        elif type_ == LLM_CALL:
            calls.setdefault(nation, []).append(record)
        else:
            yield day, calls, turns, record
            day, calls, turns = day + 1, {}, {}
    end = _last_end(records)
    if end is None or end["status"] != "completed":
        yield day, calls, turns, None
    elif day - 1 != header["days"] or calls or turns:
        open_day = f" and day {day} open" if calls or turns else ""
        raise ValidationError(
            f"transcript {path} completed after {day - 1} of {header['days']} days{open_day}")


def reconstruct_run(records: list[dict], path: str | Path) -> TranscriptRun:
    """The run of the transcript at ``path``, rebuilt from its ``records``."""
    header = _run_start(records, path)
    days, fallbacks = [], 0
    for _, _, turns, closing in _days(records, header, path):
        actions = dict(map(turn_actions, turns.values()))
        fallbacks += sum(1 for turn in turns.values() if turn["payload"]["fallback"])
        if closing is not None:
            days.append(_day_record(closing, actions))
    end = _last_end(records) or {"status": "partial", "reason": None}
    return run_from_header(header, end["status"], end["reason"], days, fallbacks)


@reader
def load_run(path: str | Path) -> TranscriptRun:
    return reconstruct_run(read_records(path, types=_RUN_TYPES), path)


@reader
def stored_run(path: str | Path, header: dict) -> tuple[TranscriptRun | None, list[dict]]:
    """What the transcript at ``path`` holds of the run whose ``run_start``
    payload is ``header``, as ``(run or None, records to keep)``.

    - ``(run, [])``: the run, completed; nothing is left to play or keep.
    - ``(run, records up to its last completed day)``: a partial run, its
      days and fallbacks those of the kept records.  What follows that day
      (a half-written day, an abort marker) is played again, so the
      continuation is byte-identical to an uninterrupted run.
    - ``(None, [])``: no file, or no completed day in it.  The run starts
      over, since the writer may have left even its header records torn.
    - ``ValidationError``: a transcript of a different run, or one in
      another transcript format.

    It reads the file once and checks its seal first.  Of a sealed
    completed run it then decodes the first line, the ``run_start`` record,
    and takes the outcome from the seal's ``run_end``; the run it returns
    reads its days when they are first used (see ``TranscriptRun``), as a
    skip needs none of them.  Any other transcript it decodes whole, each
    kept turn once and no turn after the cut.
    """
    path = Path(path)
    if not path.exists():
        return None, []
    data = _read_bytes(path)
    end = _seal(data)
    sealed = end is not None and end.get("status") == "completed"
    # A sealed file ends in "\n", so its first line is whole.
    records = _records(data[: data.index(b"\n") + 1] if sealed else data, path, True)
    if not (records or sealed):
        return None, []
    if _run_start(records, path) != header:
        raise ValidationError(
            f"transcript {path} belongs to a different run; refusing to skip or resume it"
        )
    if sealed:
        run = run_from_header(header, end["status"], end["reason"], [], 0)
        del run.days, run.fallbacks  # read when first used: see __getattr__
        run._read_days = functools.partial(_sealed_days, path, header, end)
        return run, []
    end = _last_end(records)
    if end is not None and end["status"] == "completed":
        return reconstruct_run(records, path), []
    cut = next((i for i in range(len(records) - 1, 0, -1) if records[i]["type"] == DAY), 0)
    if not cut:
        return None, []
    kept = records[: cut + 1]
    return reconstruct_run(kept, path), kept


@reader
def _sealed_days(path: Path, header: dict, end: dict) -> tuple[list[DailyRecord], int]:
    """The days and fallbacks of the run that ``stored_run`` skipped, its
    transcript still sealed with the ``run_end`` payload ``end``."""
    records, seal = _read(path, False, _RUN_TYPES)
    if seal != end or _run_start(records, path) != header:
        raise ValidationError(
            f"transcript {path} changed after its run was skipped; run the experiment again"
        )
    run = reconstruct_run(records, path)
    return run.days, run.fallbacks


@dataclass(frozen=True)
class Recording:
    """What ``read_recording`` gives of one transcript: its ``run_start``
    payload, model calls, turns and, for an aborted run, how it ended."""

    header: dict
    sampling: tuple  # the model, max_tokens and temperature of every request
    # Request tag -> (its reply's content and finish reason, the digests of
    # its system and user text; no system digest for a world update).
    calls: dict[str, tuple[object, object, str | None, str | None]]
    # Nation -> day -> the actions of its turn: a scripted policy's table.
    turns: dict[str, dict[int, tuple[ChosenAction, ...]]]
    # An aborted run: the day it did not complete and its run_end reason.
    abort: tuple[int, str] | None


@reader
def read_recording(path: str | Path) -> Recording:
    """The model calls of the transcript at ``path`` by request tag, which
    each record's place rebuilds (``request_tag``), for a replay.  An agent
    query's system digest is the ``system_prompt`` record's, and every
    attempt shares the ``user_sha256`` of the query's first (``decide``
    builds the same prompt on each); a world update holds its own."""
    records = read_records(path)
    header = _run_start(records, path)
    run_id = sys.intern(header["run_id"])  # a TypeError unless a string
    sampling = (header["model"], header["max_tokens"], header["treatment"]["temperature"])
    system = next((r["payload"]["sha256"] for r in records if r["type"] == SYSTEM_PROMPT), None)
    calls, turns = {}, {}
    for day, asked_by_nation, turned, _ in _days(records, header, path):
        for nation, asked in asked_by_nation.items():
            user_sha256 = asked[0]["payload"].get("user_sha256")
            for attempt, record in enumerate(asked, 1):
                reply = record["payload"]
                calls[request_tag(run_id, day, nation, attempt)] = (
                    reply["content"], reply["finish_reason"], nation and system, user_sha256)
        for nation, actions in map(turn_actions, turned.values()):
            turns.setdefault(nation, {})[day] = actions
    end = _last_end(records)
    abort = (day, str(end["reason"])) if end and end["status"] == "aborted" else None
    return Recording(header, sampling, calls, turns, abort)
