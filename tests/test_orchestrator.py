import dataclasses
import json
import sys
import threading

import pytest

from esclab.agents import AgentPolicy, LlmPolicy, ScriptedPolicy
from esclab.client import LiveTransport, MockTransport
from esclab.errors import ValidationError
from esclab.experiments import ReplayTransport, inspect_experiment
from esclab.mockdata import CalibratedResponder
from esclab.orchestrator import (
    LlmUpdater,
    TemplateUpdater,
    Treatment,
    run_simulation,
)
from esclab.prompts import PromptTemplates, PromptVariant
from esclab.scenario import ChosenAction, initial_world
from esclab.transcript import load_run, read_records

from conftest import is_sealed, lone_manifest, lone_path, rewrite, small_scenario
from oracles import transcript_category_counts, transcript_scores
from standins import ChatEndpoint, EndpointStandIn, Outcome, first_attempts


def wait_policy():
    return ScriptedPolicy({}, default=(ChosenAction("wait"),))


def treatment(label="t1.0-default", temperature=1.0, variant=PromptVariant.DEFAULT):
    return Treatment(label=label, temperature=temperature, variant=variant)


class TestTreatment:
    @pytest.mark.parametrize("label", ["grp/a", "../../x", "a|b", "a\nb", "tab\there", "\u2028"])
    def test_label_must_be_one_file_name_component(self, label):
        with pytest.raises(ValidationError, match="file-name component"):
            treatment(label=label)

    def test_integer_temperature_records_as_its_float(self):
        record = treatment(temperature=1).as_record()
        assert json.dumps(record) == json.dumps(treatment(temperature=1.0).as_record())


class TestScriptedRuns:
    def test_all_wait_scores_zero(self, scenario, taxonomy, tmp_path):
        run = run_simulation(
            scenario, taxonomy, treatment(), wait_policy(), TemplateUpdater(),
            seed=1, transcript_path=tmp_path / "run.jsonl",
        )
        assert run.completed
        assert len(run.days) == 14
        for record in run.days:
            assert all(score == 0 for score in record.daily_score_by_nation.values())

    def test_daily_score_sums_listed_actions(self, scenario, taxonomy, tmp_path):
        policy = ScriptedPolicy(
            {"Blue": {1: (
                ChosenAction("start_formal_peace_negotiations", target="Red"),
                ChosenAction("execute_nuclear_strike", target="Red"),
            )}},
            default=(ChosenAction("wait"),),
        )
        run = run_simulation(
            scenario, taxonomy, treatment(), policy, TemplateUpdater(),
            seed=1, transcript_path=tmp_path / "run.jsonl",
        )
        assert run.days[0].daily_score_by_nation["Blue"] == 58
        assert run.days[0].daily_score_by_nation["Red"] == 0

    def test_transcript_scores_recompute_exactly(self, scenario, taxonomy, tmp_path):
        path = tmp_path / "run.jsonl"
        run = run_simulation(
            scenario, taxonomy, treatment("t1.0-default"),
            _calibrated_policy(scenario, taxonomy),
            TemplateUpdater(), seed=4, transcript_path=path,
            run_id="t1.0-default-r00",
        )
        table = {spec.id: spec.score for spec in taxonomy.actions}
        oracle = transcript_scores(path, table)
        for record in run.days:
            assert dict(record.daily_score_by_nation) == oracle["daily"][record.day]


def _calibrated_policy(scenario, taxonomy, runs=10):
    responder = CalibratedResponder(taxonomy, scenario, runs_per_treatment=runs)
    return LlmPolicy(MockTransport(responder), model="m")


class TestMockLlmRun:
    def test_full_mock_run_request_count(self, scenario, taxonomy, tmp_path):
        responder = CalibratedResponder(taxonomy, scenario)
        transport = MockTransport(responder)
        policy = LlmPolicy(transport, model="m")
        updater = LlmUpdater(transport, model="m")
        run = run_simulation(
            scenario, taxonomy, treatment(), policy, updater,
            seed=0, transcript_path=tmp_path / "run.jsonl",
            run_id="t1.0-default-r00",
        )
        assert run.completed
        assert len(run.days) == 14
        assert transport.request_count >= 126
        assert transport.request_count == 14 * 8 + 14

    def test_transcript_contains_every_prompt_and_response(
        self, scenario, taxonomy, tmp_path
    ):
        responder = CalibratedResponder(taxonomy, scenario)
        transport = MockTransport(responder)
        policy = LlmPolicy(transport, model="m")
        updater = LlmUpdater(transport, model="m")
        path = tmp_path / "run.jsonl"
        run_simulation(
            scenario, taxonomy, treatment(), policy, updater,
            seed=0, transcript_path=path, run_id="t1.0-default-r00",
        )
        records = read_records(path)
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        assert len(by_type["llm_call"]) == 126
        # One record per model call: each query's first attempt and each world
        # update hold their prompt's digest.
        assert sum("user_sha256" in r["payload"] for r in by_type["llm_call"]) == 126
        assert "prompt" not in by_type
        assert len(by_type["turn"]) == 112
        assert len(by_type["day"]) == 14
        assert by_type["run_end"][0]["payload"]["status"] == "completed"
        assert len(by_type["system_prompt"]) == 1


class TestWorldUpdaters:
    def test_template_lists_one_line_per_action(self, scenario, taxonomy):
        world = initial_world(scenario)
        policy = wait_policy()
        turns = {
            nation: policy.decide(world, nation, treatment(), taxonomy)
            for nation in scenario.nation_names
        }
        text = TemplateUpdater().update(world, turns, treatment())
        action_lines = [line for line in text.splitlines() if line.startswith("- ")]
        assert len(action_lines) == 8

    def test_template_deterministic(self, scenario, taxonomy):
        world = initial_world(scenario)
        policy = wait_policy()
        turns = {
            nation: policy.decide(world, nation, treatment(), taxonomy)
            for nation in scenario.nation_names
        }
        updater = TemplateUpdater()
        assert updater.update(world, turns, treatment()) == updater.update(
            world, turns, treatment()
        )

    def test_llm_updater_echoes_mock_summary(self, scenario, taxonomy):
        world = initial_world(scenario)
        policy = wait_policy()
        turns = {
            nation: policy.decide(world, nation, treatment(), taxonomy)
            for nation in scenario.nation_names
        }
        updater = LlmUpdater(MockTransport("tensions rose"), model="m")
        assert updater.update(world, turns, treatment()) == "tensions rose"

    def test_llm_updater_uses_treatment_temperature(self, scenario, taxonomy):
        world = initial_world(scenario)
        policy = wait_policy()
        turns = {
            nation: policy.decide(world, nation, treatment(), taxonomy)
            for nation in scenario.nation_names
        }
        transport = MockTransport("ok", capture=True)
        updater = LlmUpdater(transport, model="m")
        updater.update(world, turns, treatment(temperature=0.01))
        assert transport.captured[0]["temperature"] == 0.01


class Wrapper(AgentPolicy):
    """Wraps a policy and records it in the run header; an ``AgentPolicy``
    is ``in_process`` unless it says otherwise."""

    def __init__(self, inner):
        self.inner = inner

    def describe(self):
        return self.inner.describe()

    def decide(self, *args, **kwargs):
        return self.inner.decide(*args, **kwargs)


class TestResume:
    def test_resume_of_completed_run_does_no_work(self, scenario, taxonomy, tmp_path):
        path = tmp_path / "run.jsonl"
        kwargs = dict(seed=3, run_id="t1.0-default-r00")
        first = run_simulation(
            scenario, taxonomy, treatment(), wait_policy(), TemplateUpdater(),
            transcript_path=path, **kwargs,
        )
        before = path.read_bytes()

        # The policy of the run as its header records it, which is never asked.
        class Exploding(ScriptedPolicy):
            def decide(self, *args, **kw):
                raise AssertionError("should not be called")

        again = run_simulation(
            scenario, taxonomy, treatment(), Exploding({}, default=(ChosenAction("wait"),)),
            TemplateUpdater(),
            transcript_path=path, **kwargs,
        )
        assert again.completed
        assert len(again.days) == len(first.days)
        assert path.read_bytes() == before

    def test_resume_refuses_foreign_transcript(self, scenario, taxonomy, tmp_path):
        path = tmp_path / "run.jsonl"
        run_simulation(
            scenario, taxonomy, treatment(), wait_policy(), TemplateUpdater(),
            seed=1, transcript_path=path,
        )
        from esclab.errors import ValidationError
        with pytest.raises(ValidationError, match="different run"):
            run_simulation(
                scenario, taxonomy, treatment(), wait_policy(), TemplateUpdater(),
                seed=2, transcript_path=path,
            )

class TestSimultaneousMoves:
    def test_default_is_simultaneous_move(self, scenario, taxonomy, tmp_path):
        seen = {}

        class Spy(AgentPolicy):
            def __init__(self):
                self.inner = wait_policy()

            def decide(self, world, nation, treatment, taxonomy, **kwargs):
                seen[nation] = len(world.history)
                return self.inner.decide(world, nation, treatment, taxonomy, **kwargs)

        run_simulation(
            scenario.__class__(
                name=scenario.name, nations=scenario.nations[:2],
                initial_summary=scenario.initial_summary, days=1,
            ),
            taxonomy, treatment(), Spy(), TemplateUpdater(),
            seed=1, transcript_path=tmp_path / "novis.jsonl",
        )
        assert set(seen.values()) == {0}


class TestEmptySummaryFallback:
    def test_blank_llm_summary_falls_back_to_template(self, scenario, taxonomy):
        world = initial_world(scenario)
        policy = wait_policy()
        turns = {
            nation: policy.decide(world, nation, treatment(), taxonomy)
            for nation in scenario.nation_names
        }
        updater = LlmUpdater(MockTransport("   \n"), model="m")
        text = updater.update(world, turns, treatment())
        assert text
        assert len([l for l in text.splitlines() if l.startswith("- ")]) == 8


class TestNullReplyContent:
    def test_llm_updater_falls_back_to_template(self, scenario, taxonomy):
        world = initial_world(scenario)
        policy = wait_policy()
        turns = {
            nation: policy.decide(world, nation, treatment(), taxonomy)
            for nation in scenario.nation_names
        }
        updater = LlmUpdater(MockTransport(lambda r: None), model="m")
        text = updater.update(world, turns, treatment())
        assert text == TemplateUpdater().update(world, turns, treatment())


class TestTornFirstLine:
    def test_transcript_with_only_partial_line_restarts_cleanly(
        self, scenario, taxonomy, tmp_path
    ):
        kwargs = dict(seed=9, run_id="t1.0-default-r00")
        straight = tmp_path / "straight.jsonl"
        run_simulation(
            scenario, taxonomy, treatment(), wait_policy(), TemplateUpdater(),
            transcript_path=straight, **kwargs,
        )
        torn = tmp_path / "torn.jsonl"
        torn.write_text(straight.read_text(encoding="utf-8")[:40], encoding="utf-8")
        resumed = run_simulation(
            scenario, taxonomy, treatment(), wait_policy(), TemplateUpdater(),
            transcript_path=torn, **kwargs,
        )
        assert resumed.completed
        assert torn.read_bytes() == straight.read_bytes()


def _responder(scenario, taxonomy, threads=None):
    """Calibrated replies; Red's first attempt each day is unparseable."""
    calibrated = CalibratedResponder(taxonomy, scenario, runs_per_treatment=1)

    def respond(request):
        if threads is not None:
            threads.add(threading.get_ident())
        if "|Red|a1" in request.request_tag:
            return "no decision today"
        return calibrated(request)

    return respond


def _llm_run(scenario, taxonomy, transport, path, **kwargs):
    return run_simulation(
        scenario, taxonomy, treatment(),
        LlmPolicy(transport, model="m"),
        LlmUpdater(transport, model="m"),
        seed=7, transcript_path=path, run_id="t1.0-default-r00", **kwargs,
    )


class TestConcurrentDays:
    def test_out_of_order_completion_gives_inline_bytes(self, scenario, taxonomy, tmp_path):
        short = dataclasses.replace(scenario, days=5)
        inline = tmp_path / "inline.jsonl"
        mock = MockTransport(_responder(short, taxonomy))
        _llm_run(short, taxonomy, mock, inline)
        endpoint = EndpointStandIn(MockTransport(_responder(short, taxonomy)), short.nation_names)
        concurrent = tmp_path / "concurrent.jsonl"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = _llm_run(short, taxonomy, endpoint, concurrent)
        finally:
            sys.setswitchinterval(interval)
        assert run.completed
        assert len(endpoint.threads) > 1
        assert first_attempts(endpoint.completed, 1) != list(short.nation_names)
        assert endpoint.request_count == mock.request_count == 5 * (8 + 1 + 1)
        assert concurrent.read_bytes() == inline.read_bytes()

    def test_mid_day_failure_aborts_like_inline_and_resumes(self, scenario, taxonomy, tmp_path):
        short = dataclasses.replace(scenario, days=5)
        roster = short.nation_names
        inline = tmp_path / "inline.jsonl"
        mock = MockTransport(_responder(short, taxonomy))
        _llm_run(short, taxonomy, EndpointStandIn(mock, roster, 0, "|d04|Purple|"), inline)
        path = tmp_path / "concurrent.jsonl"
        failing = EndpointStandIn(
            MockTransport(_responder(short, taxonomy)), roster, fail_tag="|d04|Purple|"
        )
        aborted = _llm_run(short, taxonomy, failing, path)
        assert aborted.status == "aborted"
        assert "endpoint outage" in aborted.abort_reason
        assert len(aborted.days) == 3
        assert path.read_bytes() == inline.read_bytes()
        before = roster[roster.index("Purple") - 1]
        tail = [(r["type"], r["day"], r["nation"]) for r in read_records(path)[-3:]]
        # Purple's failed query made no model call, so it left no record.
        assert tail == [("llm_call", 4, before), ("turn", 4, before), ("run_end", None, None)]
        healthy = EndpointStandIn(MockTransport(_responder(short, taxonomy)), roster)
        assert _llm_run(short, taxonomy, healthy, path).completed
        straight = tmp_path / "straight.jsonl"
        _llm_run(short, taxonomy, MockTransport(_responder(short, taxonomy)), straight)
        assert path.read_bytes() == straight.read_bytes()

    def test_in_process_transport_runs_inline(self, scenario, taxonomy, tmp_path):
        short = dataclasses.replace(scenario, days=2)
        threads = set()
        transport = MockTransport(_responder(short, taxonomy, threads=threads))
        assert _llm_run(short, taxonomy, transport, tmp_path / "run.jsonl").completed
        assert threads == {threading.get_ident()}

    def test_scripted_policy_runs_inline(self, scenario, taxonomy, tmp_path):
        threads = set()

        class ThreadSpy(ScriptedPolicy):
            def decide(self, *args, **kwargs):
                threads.add(threading.get_ident())
                return super().decide(*args, **kwargs)

        run = run_simulation(
            dataclasses.replace(scenario, days=2), taxonomy, treatment(),
            ThreadSpy({}, default=(ChosenAction("wait"),)), TemplateUpdater(),
            seed=1, transcript_path=tmp_path / "run.jsonl",
        )
        assert run.completed
        assert threads == {threading.get_ident()}

    def test_live_transport_caps_posts_in_flight(self, scenario, taxonomy, tmp_path):
        with ChatEndpoint(then=Outcome(delay_s=0.005)) as endpoint:
            transport = LiveTransport(endpoint.url, "secret", max_in_flight=2,
                                      requests_per_minute=10_000)
            run = run_simulation(
                dataclasses.replace(scenario, days=2), taxonomy, treatment(),
                LlmPolicy(transport, model="m"), TemplateUpdater(),
                seed=1, transcript_path=tmp_path / "run.jsonl",
            )
        assert run.completed
        assert len(endpoint.received) == 16
        assert endpoint.peak == 2


class TestPolicyGetsTheRunsTreatment:
    def test_one_temperature_per_run(self, scenario, taxonomy, tmp_path):
        short = dataclasses.replace(scenario, days=2)
        transport = MockTransport(_responder(short, taxonomy), capture=True)
        path = tmp_path / "run.jsonl"
        run = run_simulation(
            short, taxonomy, treatment("t0.5-default", temperature=0.5),
            LlmPolicy(transport, model="m"), LlmUpdater(transport, model="m"),
            seed=1, transcript_path=path,
        )
        assert run.completed
        records = read_records(path)
        assert records[0]["payload"]["treatment"]["temperature"] == 0.5
        calls = [r for r in records if r["type"] == "llm_call"]
        assert len(calls) == len(transport.captured) == 2 * (8 + 1 + 1)
        assert {c["nation"] or "world" for c in calls} == {*short.nation_names, "world"}
        assert {body["temperature"] for body in transport.captured} == {0.5}

    def test_wrapper_around_a_waiting_llm_policy_runs_inline(self, scenario, taxonomy, tmp_path):
        short = dataclasses.replace(scenario, days=2)
        endpoint = EndpointStandIn(MockTransport(_responder(short, taxonomy)), short.nation_names)
        inner = LlmPolicy(endpoint, model="m")
        assert not inner.in_process
        wrapper = Wrapper(inner)
        run = run_simulation(
            short, taxonomy, treatment(), wrapper,
            LlmUpdater(endpoint, model="m"),
            seed=7, transcript_path=tmp_path / "run.jsonl", run_id="t1.0-default-r00",
        )
        assert run.completed
        assert endpoint.threads == {threading.get_ident()}
        assert first_attempts(endpoint.completed, 1) == list(short.nation_names)


class TestLineSeparatorsInReplies:
    def test_summary_with_unicode_line_breaks_round_trips(self, scenario, taxonomy, tmp_path):
        text = "Tensions rose.\u2028Blue mobilised.\u2029Red waited.\x85End of day."
        short = dataclasses.replace(scenario, days=2)
        path = tmp_path / "run.jsonl"
        run = run_simulation(
            short, taxonomy, treatment(), wait_policy(),
            LlmUpdater(MockTransport(text), model="m"),
            seed=1, transcript_path=path,
        )
        assert [day.world_summary_after for day in run.days] == [text, text]
        calls = [r for r in read_records(path) if r["type"] == "llm_call"]
        assert [c["payload"]["content"] for c in calls] == [text, text]
        assert load_run(path) == run
        again = run_simulation(
            short, taxonomy, treatment(), wait_policy(),
            LlmUpdater(MockTransport("unused"), model="m"),
            seed=1, transcript_path=path,
        )
        assert again == run

    def test_oracles_read_a_summary_with_unicode_line_breaks(
        self, scenario, taxonomy, tmp_path
    ):
        short = dataclasses.replace(scenario, days=2)
        path = tmp_path / "run.jsonl"
        policy = ScriptedPolicy({"Blue": {2: (ChosenAction("form_alliance", target="Red"),)}},
                                default=(ChosenAction("wait"),))
        run = run_simulation(
            short, taxonomy, treatment(), policy,
            LlmUpdater(MockTransport("Calm.\u2028Tense.\x85Calm."), model="m"),
            seed=1, transcript_path=path,
        )
        table = {spec.id: spec.score for spec in taxonomy.actions}
        oracle = transcript_scores(path, table)
        assert oracle["days"] == [1, 2]
        assert oracle["daily"][2] == dict(run.days[1].daily_score_by_nation)
        assert transcript_category_counts([path], {spec.id: spec.category.value
                                                   for spec in taxonomy.actions})


class TestLoneSurrogateInReplies:
    """A decoded reply may hold a lone surrogate, which UTF-8 cannot encode:
    the lines holding one are written with its JSON escape."""

    REPLY = '{"actions": [{"action": "wait"}], "x": "\ud800"}'

    @pytest.mark.parametrize("updater", ["template", "llm"])
    def test_run_is_sealed_read_back_and_replayed(self, scenario, taxonomy, tmp_path, updater):
        short = dataclasses.replace(scenario, days=2)

        def play(transport, path):
            world = LlmUpdater(transport, model="m") if updater == "llm" else TemplateUpdater()
            return run_simulation(short, taxonomy, treatment(), LlmPolicy(transport, model="m"),
                                  world, seed=1, transcript_path=path)

        path = lone_path(tmp_path, "t1.0-default")
        run = play(MockTransport(self.REPLY), path)
        assert run.completed and run.fallbacks == 0
        assert is_sealed(path)
        records = read_records(path)
        calls = [r["payload"]["content"] for r in records if r["type"] == "llm_call"]
        assert calls == [self.REPLY] * (18 if updater == "llm" else 16)
        lines = path.read_bytes().split(b"\n")[:-1]
        assert [b"\\ud800" in line for line in lines] == [
            "\ud800" in json.dumps(record, ensure_ascii=False) for record in records
        ]
        assert load_run(path) == run
        inspected = inspect_experiment(lone_manifest(path, short, records[0]["payload"]))
        assert (inspected.requests, inspected.mismatches) == (
            18 if updater == "llm" else 16, [])
        replayed = tmp_path / "replayed.jsonl"
        assert play(ReplayTransport([path]), replayed) == run
        assert replayed.read_bytes() == path.read_bytes()

    def test_surrogate_pair_is_kept_as_the_character_it_forms(
        self, scenario, taxonomy, tmp_path
    ):
        # An in-process reply may hold a pair as two code points, which the
        # transcript reads back as the one character they form: the run
        # must use that character too.
        pair = chr(0xD83D) + chr(0xDE00)

        def respond(request):
            if request.request_tag.endswith("|world"):
                return "Calm day." + pair
            return '{"actions": [{"action": "wait"}]}'

        short = dataclasses.replace(scenario, days=2)
        transport = MockTransport(respond)
        path = lone_path(tmp_path, "t1.0-default")
        run = run_simulation(short, taxonomy, treatment(), LlmPolicy(transport, model="m"),
                             LlmUpdater(transport, model="m"), seed=1, transcript_path=path)
        assert run.completed and is_sealed(path)
        assert [day.world_summary_after for day in run.days] == ["Calm day.\U0001F600"] * 2
        assert load_run(path) == run
        inspected = inspect_experiment(lone_manifest(path, short, read_records(path)[0]["payload"]))
        assert (inspected.requests, inspected.mismatches) == (18, [])


class TestRunRecordIsTranscriptRecord:
    """run_simulation returns exactly what reading its transcript back gives."""

    def _transport(self, scenario, taxonomy, fail_tag=None):
        inner = _responder(scenario, taxonomy)

        def respond(request):
            if "|d03|Green|" in request.request_tag:
                return "no decision"  # every attempt: one fallback turn
            return inner(request)

        return EndpointStandIn(MockTransport(respond), scenario.nation_names, 0, fail_tag)

    def test_fresh_run(self, scenario, taxonomy, tmp_path):
        path = tmp_path / "run.jsonl"
        run = _llm_run(scenario, taxonomy, self._transport(scenario, taxonomy), path)
        assert run.completed
        assert run.fallbacks == 1
        assert run == load_run(path)

    def test_aborted_run(self, scenario, taxonomy, tmp_path):
        path = tmp_path / "run.jsonl"
        transport = self._transport(scenario, taxonomy, fail_tag="|d05|Purple|")
        run = _llm_run(scenario, taxonomy, transport, path)
        assert run.status == "aborted"
        assert len(run.days) == 4
        assert run == load_run(path)

    def test_crashed_then_resumed_run(self, scenario, taxonomy, tmp_path):
        straight = tmp_path / "straight.jsonl"
        _llm_run(scenario, taxonomy, self._transport(scenario, taxonomy), straight)
        lines = straight.read_text(encoding="utf-8").splitlines(keepends=True)
        cut = next(i for i, line in enumerate(lines) if '"day":6' in line) + 5
        crashed = tmp_path / "crashed.jsonl"
        crashed.write_text(
            "".join(lines[:cut]) + lines[cut][: len(lines[cut]) // 2], encoding="utf-8"
        )
        resumed = _llm_run(scenario, taxonomy, self._transport(scenario, taxonomy), crashed)
        assert crashed.read_bytes() == straight.read_bytes()
        assert resumed == load_run(crashed)
        again = _llm_run(scenario, taxonomy, self._transport(scenario, taxonomy), crashed)
        assert again == resumed

    def test_resume_decodes_each_kept_turn_once(self, scenario, taxonomy, tmp_path, monkeypatch):
        from esclab import transcript as ts

        path = tmp_path / "run.jsonl"
        _llm_run(scenario, taxonomy, self._transport(scenario, taxonomy), path)
        records = read_records(path)
        day_6 = next(i for i, r in enumerate(records) if r["type"] == "day" and r["day"] == 6)
        # Cut after four turns of day 7, which resume plays again undecoded.
        cut = [i for i, r in enumerate(records) if r["type"] == "turn" and r["day"] == 7][3]
        rewrite(path, records[: cut + 1])
        decoded = []
        turn_actions = ts.turn_actions

        def counting(record):
            decoded.append(record["seq"])
            return turn_actions(record)

        monkeypatch.setattr(ts, "turn_actions", counting)
        resumed = _llm_run(scenario, taxonomy, self._transport(scenario, taxonomy), path)
        kept_turns = [r["seq"] for r in records[: day_6 + 1] if r["type"] == "turn"]
        assert decoded == kept_turns and len(kept_turns) == 6 * 8
        assert resumed.fallbacks == 1
        assert resumed == load_run(path)


class TestKillAtAnyByte:
    """The writer flushes only after ``day`` and ``run_end`` records, so a
    killed run leaves its transcript cut at any byte: inside a record, just
    before a newline, inside a multi-byte character.  Resuming from every
    such cut must end at the uninterrupted bytes."""

    # Short templates keep the one record with non-ASCII text, the system
    # prompt with the reflection extension's "’", a few hundred bytes long.
    TEMPLATES = PromptTemplates(
        system="$nation_count nations, $days days, up to $max_actions actions.\n"
               "$response_format",
        user="Day $day of $days, $nation.\n$world_summary\n$action_log",
    )

    def test_resume_from_every_cut_is_byte_identical(self, taxonomy, tmp_path):
        mini = small_scenario(n_nations=2, days=3)
        reflection = treatment(
            "t1.0-reflection-planning", variant=PromptVariant.REFLECTION_PLANNING
        )
        transport = MockTransport(CalibratedResponder(taxonomy, mini, runs_per_treatment=1))
        policy = LlmPolicy(transport, model="m", templates=self.TEMPLATES)
        updater = LlmUpdater(transport, model="m")

        def play(path):
            return run_simulation(
                mini, taxonomy, reflection, policy, updater, seed=3,
                transcript_path=path, run_id="t1.0-reflection-planning-r00",
            )

        straight = tmp_path / "straight.jsonl"
        expected = play(straight)
        whole = straight.read_bytes()
        lines = whole.split(b"\n")[:-1]
        starts = [0]
        for line in lines:
            starts.append(starts[-1] + len(line) + 1)
        day_ends = [starts[i + 1] for i, line in enumerate(lines) if b'"type":"day"' in line]
        assert len(day_ends) == mini.days
        cuts = set(range(day_ends[-3], len(whole)))  # the last two days and run_end
        non_ascii = [i for i, line in enumerate(lines) if not line.isascii()]
        assert non_ascii, "the reflection system prompt holds a multi-byte character"
        for i in non_ascii:
            cuts.update(range(starts[i], starts[i + 1]))
        crashed = tmp_path / "crashed.jsonl"
        for cut in sorted(cuts):
            crashed.write_bytes(whole[:cut])
            resumed = play(crashed)
            assert crashed.read_bytes() == whole, f"cut at byte {cut}"
            assert resumed == expected, f"cut at byte {cut}"


class TestArgumentChecks:
    def test_negative_parse_retries_refused_before_the_transcript(
        self, scenario, taxonomy, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        with pytest.raises(ValidationError, match="max_parse_retries"):
            run_simulation(
                scenario, taxonomy, treatment(), wait_policy(), TemplateUpdater(),
                seed=1, transcript_path=path, max_parse_retries=-1,
            )
        assert not path.exists()
