"""A completed transcript with one corrupted line or field, or one record,
nation-day or day gone, or a turn doubled: every reader of it returns or
raises an ``EsclabError``, never anything else."""
import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lone_manifest, lone_path, small_scenario
from esclab import transcript as ts
from esclab.agents import LlmPolicy
from esclab.client import MockTransport
from esclab.errors import EsclabError, ValidationError
from esclab.experiments import inspect_experiment, load_plan, run_experiment
from esclab.mockdata import CalibratedResponder
from esclab.orchestrator import LlmUpdater, Treatment, run_simulation
from esclab.prompts import PromptVariant
from esclab.report import build_report

from test_transcript_format import reseal

DATA = Path(__file__).resolve().parent.parent / "src" / "esclab" / "data"

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from([ts.TURN, ts.DAY, ts.RUN_END, ts.LLM_CALL]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def completed(tmp_path_factory, taxonomy):
    """A two-day reflection run whose first nation's first reply is
    unparseable: its scenario, its records and its ``run_start`` payload."""
    scenario = small_scenario(n_nations=3, days=2)
    calibrated = CalibratedResponder(taxonomy, scenario, runs_per_treatment=1)

    def respond(request):
        return "no decision" if "|Alpha|a1" in request.request_tag else calibrated(request)

    transport = MockTransport(respond)
    path = tmp_path_factory.mktemp("corrupt") / "run.jsonl"
    run = run_simulation(
        scenario, taxonomy,
        Treatment("t1.0-reflection-planning", 1.0, PromptVariant.REFLECTION_PLANNING),
        LlmPolicy(transport, model="m"), LlmUpdater(transport, model="m"),
        seed=3, transcript_path=path, run_id="t1.0-reflection-planning-r00",
    )
    assert run.completed
    records = ts.read_records(path)
    return scenario, records, records[0]["payload"], path


def _corruption(records):
    """One line replaced by a JSON value, one payload key dropped, or one
    field of a record or of its payload set to a JSON value."""
    index = st.integers(0, len(records) - 1)
    replaced = st.tuples(st.just("line"), index, st.none(), JSON)
    with_payload = st.sampled_from([i for i, r in enumerate(records) if r["payload"]])
    dropped = with_payload.flatmap(lambda i: st.tuples(
        st.just("drop"), st.just(i), st.sampled_from(sorted(records[i]["payload"])), st.none()
    ))
    field = index.flatmap(lambda i: st.tuples(
        st.just("field"), st.just(i),
        st.sampled_from(["seq", "type", "day", "nation", "payload"]
                        + [f"payload.{k}" for k in records[i]["payload"]]),
        JSON,
    ))
    return replaced | dropped | field


def _apply(records, corruption) -> list[str]:
    kind, index, key, value = corruption
    lines = [json.loads(json.dumps(record)) for record in records]
    if kind == "line":
        lines[index] = value
    elif kind == "drop":
        del lines[index]["payload"][key]
    elif key.startswith("payload."):
        lines[index]["payload"][key.removeprefix("payload.")] = value
    else:
        lines[index][key] = value
    return [json.dumps(line, ensure_ascii=False) for line in lines]


class TestOneCorruptedLine:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_reader_returns_or_raises_an_esclab_error(self, completed, data):
        scenario, records, header, path = completed
        corrupted = lone_path(path.parent / "corrupted", header["treatment"]["label"])
        lines = _apply(records, data.draw(_corruption(records)))
        corrupted.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        manifest = lone_manifest(corrupted, scenario, header)
        for read in (
            lambda: ts.load_run(corrupted),
            lambda: ts.stored_run(corrupted, header),
            lambda: inspect_experiment(manifest),
            lambda: ts.read_recording(corrupted),
        ):
            try:
                read()
            except EsclabError:
                pass


@pytest.fixture(scope="module")
def demo_experiment(tmp_path_factory):
    """The demo plan played once: the plan, its output directory, and the
    name and records of its first transcript."""
    plan = load_plan(DATA / "plan_demo.yaml")
    out = tmp_path_factory.mktemp("demo") / "exp"
    run_experiment(plan, out)
    name = "t1.0-default-r00.jsonl"
    return plan, out, name, ts.read_records(out / "transcripts" / name)


def without_nation(records: list[dict], day: int, nation: str) -> list[dict]:
    """``records`` without ``nation``'s turn and score of ``day``."""
    kept = []
    for record in records:
        if (record["type"], record["day"], record["nation"]) == (ts.TURN, day, nation):
            continue
        if (record["type"], record["day"]) == (ts.DAY, day):
            scores = {n: s for n, s in record["payload"]["scores"].items() if n != nation}
            record = {**record, "payload": {**record["payload"], "scores": scores}}
        kept.append(record)
    return kept


def without_day(records: list[dict], day: int) -> list[dict]:
    """``records`` without the ``day`` record of ``day``."""
    return [record for record in records if (record["type"], record["day"]) != (ts.DAY, day)]


def with_turn_doubled(records: list[dict], day: int, nation: str) -> list[dict]:
    """``records`` with a second turn of ``nation`` on ``day``, a fallback,
    just after its first."""
    i = next(i for i, record in enumerate(records)
             if (record["type"], record["day"], record["nation"]) == (ts.TURN, day, nation))
    second = {**records[i], "payload": {**records[i]["payload"], "fallback": True}}
    return records[: i + 1] + [second] + records[i + 1:]


# An edited completed transcript of the two-day ``completed`` run that every
# reader refuses, and how the refusal ends after the file's name.
DAY_SEQUENCE_CASES = {
    "day-1-gone": (lambda records: without_day(records, 1),
                   "day 1: a (llm_call|turn) record names day 2"),
    "last-day-gone": (lambda records: without_day(records, 2),
                      "completed after 1 of 2 days and day 2 open"),
    "header-and-end-only": (lambda records: [*records[:2], records[-1]],  # and system_prompt
                            "completed after 0 of 2 days"),
    # A sealed read decodes no llm_call; the other readers meet day 2's first.
    "no-turn-or-day": (lambda records: [r for r in records if r["type"] not in (ts.TURN, ts.DAY)],
                       "(completed after 0 of 2 days|day 1: a llm_call record names day 2)"),
    "turn-doubled": (lambda records: with_turn_doubled(records, 2, "Beta"),
                     "day 2: a second turn of 'Beta'"),
    "day-1-as-float": (lambda records: [{**r, "day": 1.0} if r["day"] == 1 else r
                                        for r in records],
                       "day 1: a (llm_call|turn) record names day 1.0"),
}


class TestDaySequence:
    @pytest.mark.parametrize("case", DAY_SEQUENCE_CASES)
    def test_every_reader_refuses_it_naming_the_file(self, completed, tmp_path, case):
        """A day gone or misnumbered, no day at all, or a nation's second
        turn of a day, the transcript sealed anew: each reader raises one
        ``ValidationError`` naming the file."""
        scenario, records, header, _ = completed
        edit, refusal = DAY_SEQUENCE_CASES[case]
        path = lone_path(tmp_path, header["treatment"]["label"])
        reseal(path, [{**r, "seq": seq} for seq, r in enumerate(edit(records))])
        manifest = lone_manifest(path, scenario, header)
        for read in (lambda: ts.load_run(path), lambda: ts.read_recording(path),
                     lambda: inspect_experiment(manifest),
                     lambda: ts.stored_run(path, header)[0].days):
            with pytest.raises(ValidationError,
                               match=f"^transcript {re.escape(str(path))} {refusal}$"):
                read()


class TestOneRecordGone:
    def test_every_reader_of_the_experiment_returns_or_raises_an_esclab_error(
        self, demo_experiment, tmp_path
    ):
        """Each single record deleted, and Red's turn and score deleted from
        each day, the transcript sealed anew: ``build_report``,
        ``inspect_experiment``, ``read_recording`` and a re-run each return or
        raise an ``EsclabError``, and no report is built on a day or a
        nation-day gone."""
        plan, out, name, records = demo_experiment
        assert len(records) == 129
        cases = [(f"record {i}", records[:i] + records[i + 1:], record["type"] == ts.DAY)
                 for i, record in enumerate(records)]
        cases += [(f"Red on day {day}", without_nation(records, day, "Red"), True)
                  for day in range(1, 15)]
        case = tmp_path / "case"
        for label, kept, dropped in cases:
            shutil.rmtree(case, ignore_errors=True)
            shutil.copytree(out, case)
            reseal(case / "transcripts" / name, [{**r, "seq": seq} for seq, r in enumerate(kept)])
            try:
                build_report(case / "manifest.json", case / "report", include_timestamp=False)
            except EsclabError as exc:
                assert isinstance(exc, ValidationError) or not dropped, (label, exc)
            else:
                assert not dropped, label
            for read in (lambda: inspect_experiment(case / "manifest.json"),
                         lambda: ts.read_recording(case / "transcripts" / name),
                         lambda: run_experiment(plan, case)):
                try:
                    read()
                except EsclabError:
                    pass
