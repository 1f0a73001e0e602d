"""A completed transcript with one corrupted line or field: every reader of
it returns or raises an ``EsclabError``, never anything else."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_scenario
from esclab import transcript as ts
from esclab.agents import LlmPolicy
from esclab.client import MockTransport
from esclab.errors import EsclabError
from esclab.mockdata import CalibratedResponder
from esclab.orchestrator import LlmUpdater, Treatment, run_simulation
from esclab.prompts import PromptVariant

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
        corrupted = path.with_name("corrupted.jsonl")
        lines = _apply(records, data.draw(_corruption(records)))
        corrupted.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        for read in (
            lambda: ts.load_run(corrupted),
            lambda: ts.stored_run(corrupted, header),
            lambda: ts.verify_prompts(corrupted, scenario),
        ):
            try:
                read()
            except EsclabError:
                pass
