import dataclasses
import json
import sys
import threading
import time

import pytest

from esclab.agents import AgentPolicy, LlmPolicy, ScriptedPolicy
from esclab.client import (
    LiveTransport,
    MockTransport,
    RecordingTransport,
    ReplayTransport,
    Transport,
)
from esclab.errors import TransportError
from esclab.mockdata import CalibratedResponder
from esclab.orchestrator import (
    LlmUpdater,
    TemplateUpdater,
    Treatment,
    run_simulation,
)
from esclab.prompts import PromptVariant
from esclab.scenario import ChosenAction, initial_world
from esclab.transcript import load_run, read_records

from oracles import transcript_scores


def wait_policy():
    return ScriptedPolicy({}, default=(ChosenAction("wait"),))


def treatment(label="t1.0-default", temperature=1.0, variant=PromptVariant.DEFAULT):
    return Treatment(label=label, temperature=temperature, variant=variant)


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
    return LlmPolicy(MockTransport(responder), model="m", temperature=1.0)


class TestMockLlmRun:
    def test_full_mock_run_request_count(self, scenario, taxonomy, tmp_path):
        responder = CalibratedResponder(taxonomy, scenario)
        transport = MockTransport(responder)
        policy = LlmPolicy(transport, model="m", temperature=1.0)
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
        policy = LlmPolicy(transport, model="m", temperature=1.0)
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
        assert len(by_type["prompt"]) == 112
        assert len(by_type["llm_call"]) == 126
        assert len(by_type["turn"]) == 112
        assert len(by_type["day"]) == 14
        assert by_type["run_end"][0]["payload"]["status"] == "completed"
        assert len(by_type["system_prompt"]) == 1


class TestWorldUpdaters:
    def test_template_lists_one_line_per_action(self, scenario, taxonomy):
        world = initial_world(scenario)
        policy = wait_policy()
        turns = {
            nation: policy.decide(scenario, taxonomy, world, nation, PromptVariant.DEFAULT)
            for nation in scenario.nation_names
        }
        text = TemplateUpdater().update(world, turns, treatment())
        action_lines = [line for line in text.splitlines() if line.startswith("- ")]
        assert len(action_lines) == 8

    def test_template_deterministic(self, scenario, taxonomy):
        world = initial_world(scenario)
        policy = wait_policy()
        turns = {
            nation: policy.decide(scenario, taxonomy, world, nation, PromptVariant.DEFAULT)
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
            nation: policy.decide(scenario, taxonomy, world, nation, PromptVariant.DEFAULT)
            for nation in scenario.nation_names
        }
        updater = LlmUpdater(MockTransport("tensions rose"), model="m")
        assert updater.update(world, turns, treatment()) == "tensions rose"

    def test_llm_updater_uses_treatment_temperature(self, scenario, taxonomy):
        world = initial_world(scenario)
        policy = wait_policy()
        turns = {
            nation: policy.decide(scenario, taxonomy, world, nation, PromptVariant.DEFAULT)
            for nation in scenario.nation_names
        }
        transport = MockTransport("ok", capture=True)
        updater = LlmUpdater(transport, model="m")
        updater.update(world, turns, treatment(temperature=0.01))
        assert transport.captured[0]["temperature"] == 0.01


class FailAfterDay(AgentPolicy):
    """Wraps a policy; raises a transient transport error past a given day."""

    def __init__(self, inner, fail_after_day):
        self.inner = inner
        self.fail_after_day = fail_after_day

    def decide(self, scenario, taxonomy, world, nation, variant, **kwargs):
        if world.current_day >= self.fail_after_day:
            raise TransportError("injected outage")
        return self.inner.decide(scenario, taxonomy, world, nation, variant, **kwargs)


class TestResume:
    def test_crash_then_resume_is_byte_identical(self, scenario, taxonomy, tmp_path):
        kwargs = dict(seed=11, run_id="t1.0-default-r00")
        straight = tmp_path / "straight.jsonl"
        run_simulation(
            scenario, taxonomy, treatment(), wait_policy(), TemplateUpdater(),
            transcript_path=straight, **kwargs,
        )
        crashed = tmp_path / "crashed.jsonl"
        aborted = run_simulation(
            scenario, taxonomy, treatment(),
            FailAfterDay(wait_policy(), fail_after_day=6),
            TemplateUpdater(), transcript_path=crashed, **kwargs,
        )
        assert aborted.status == "aborted"
        assert "injected outage" in aborted.abort_reason
        assert len(aborted.days) == 6
        resumed = run_simulation(
            scenario, taxonomy, treatment(), wait_policy(), TemplateUpdater(),
            transcript_path=crashed, **kwargs,
        )
        assert resumed.completed
        assert crashed.read_bytes() == straight.read_bytes()

    def test_resume_of_completed_run_does_no_work(self, scenario, taxonomy, tmp_path):
        path = tmp_path / "run.jsonl"
        kwargs = dict(seed=3, run_id="t1.0-default-r00")
        first = run_simulation(
            scenario, taxonomy, treatment(), wait_policy(), TemplateUpdater(),
            transcript_path=path, **kwargs,
        )
        before = path.read_bytes()

        class Exploding(AgentPolicy):
            def decide(self, *args, **kw):
                raise AssertionError("should not be called")

        again = run_simulation(
            scenario, taxonomy, treatment(), Exploding(), TemplateUpdater(),
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

    def test_mid_day_crash_discards_partial_day(self, scenario, taxonomy, tmp_path):
        class FailOnNation(AgentPolicy):
            def __init__(self, inner, day, nation):
                self.inner, self.day, self.nation = inner, day, nation

            def decide(self, scenario, taxonomy, world, nation, variant, **kwargs):
                if world.current_day + 1 == self.day and nation == self.nation:
                    raise TransportError("mid-day outage")
                return self.inner.decide(
                    scenario, taxonomy, world, nation, variant, **kwargs
                )

        kwargs = dict(seed=5, run_id="t1.0-default-r00")
        path = tmp_path / "mid.jsonl"
        aborted = run_simulation(
            scenario, taxonomy, treatment(),
            FailOnNation(wait_policy(), day=4, nation="Purple"),
            TemplateUpdater(), transcript_path=path, **kwargs,
        )
        assert aborted.status == "aborted"
        assert len(aborted.days) == 3
        resumed = run_simulation(
            scenario, taxonomy, treatment(), wait_policy(), TemplateUpdater(),
            transcript_path=path, **kwargs,
        )
        assert resumed.completed
        straight = tmp_path / "straight.jsonl"
        run_simulation(
            scenario, taxonomy, treatment(), wait_policy(), TemplateUpdater(),
            transcript_path=straight, **kwargs,
        )
        assert path.read_bytes() == straight.read_bytes()


class TestIntraDayVisibility:
    def test_later_nations_see_earlier_same_day_actions(self, scenario, taxonomy, tmp_path):
        seen = {}

        class Spy(AgentPolicy):
            def __init__(self):
                self.inner = wait_policy()

            def decide(self, scenario, taxonomy, world, nation, variant, **kwargs):
                seen[nation] = len(world.history)
                return self.inner.decide(
                    scenario, taxonomy, world, nation, variant, **kwargs
                )

        run_simulation(
            scenario.__class__(
                name=scenario.name, nations=scenario.nations[:2],
                initial_summary=scenario.initial_summary, days=1,
            ),
            taxonomy, treatment(), Spy(), TemplateUpdater(),
            seed=1, transcript_path=tmp_path / "vis.jsonl",
            intra_day_visibility=True,
        )
        first, second = scenario.nation_names[:2]
        assert seen[first] == 0
        assert seen[second] == 1

    def test_default_is_simultaneous_move(self, scenario, taxonomy, tmp_path):
        seen = {}

        class Spy(AgentPolicy):
            def __init__(self):
                self.inner = wait_policy()

            def decide(self, scenario, taxonomy, world, nation, variant, **kwargs):
                seen[nation] = len(world.history)
                return self.inner.decide(
                    scenario, taxonomy, world, nation, variant, **kwargs
                )

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
            nation: policy.decide(scenario, taxonomy, world, nation, PromptVariant.DEFAULT)
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
            nation: policy.decide(scenario, taxonomy, world, nation, PromptVariant.DEFAULT)
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


class EndpointStandIn(Transport):
    """Waits like a remote endpoint, longest for the first nation in the
    roster, so a day's queries complete in reverse roster order."""

    def __init__(self, inner, roster, step_s=0.004):
        super().__init__()
        self.inner = inner
        self.roster = roster
        self.step_s = step_s
        self.completed = []
        self.threads = set()
        self._lock = threading.Lock()

    @property
    def request_count(self):
        return self.inner.request_count

    def send_once(self, request):
        who = request.request_tag.split("|")[2]
        if who in self.roster:
            time.sleep(self.step_s * (len(self.roster) - self.roster.index(who)))
        with self._lock:
            self.threads.add(threading.get_ident())
            self.completed.append(request.request_tag)
        return self.inner.send_once(request)


def _responder(scenario, taxonomy, fail_tag=None, threads=None):
    """Calibrated replies; Red's first attempt each day is unparseable."""
    calibrated = CalibratedResponder(taxonomy, scenario, runs_per_treatment=1)

    def respond(request):
        if threads is not None:
            threads.add(threading.get_ident())
        if fail_tag and fail_tag in request.request_tag:
            raise TransportError("endpoint outage")
        if "|Red|a1" in request.request_tag:
            return "no decision today"
        return calibrated(request)

    return respond


def _llm_run(scenario, taxonomy, transport, path, **kwargs):
    return run_simulation(
        scenario, taxonomy, treatment(),
        LlmPolicy(transport, model="m", temperature=1.0),
        LlmUpdater(transport, model="m"),
        seed=7, transcript_path=path, run_id="t1.0-default-r00", **kwargs,
    )


def _first_attempts(tags, day):
    return [tag.split("|")[2] for tag in tags if f"|d{day:02d}|" in tag and tag.endswith("|a1")]


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
        assert _first_attempts(endpoint.completed, 1) != list(short.nation_names)
        assert endpoint.request_count == mock.request_count == 5 * (8 + 1 + 1)
        assert concurrent.read_bytes() == inline.read_bytes()

    def test_mid_day_failure_aborts_like_inline_and_resumes(self, scenario, taxonomy, tmp_path):
        short = dataclasses.replace(scenario, days=5)
        roster = short.nation_names
        inline = tmp_path / "inline.jsonl"
        _llm_run(short, taxonomy, MockTransport(_responder(short, taxonomy, "|d04|Purple|")), inline)
        path = tmp_path / "concurrent.jsonl"
        failing = EndpointStandIn(
            MockTransport(_responder(short, taxonomy, "|d04|Purple|")), roster
        )
        aborted = _llm_run(short, taxonomy, failing, path)
        assert aborted.status == "aborted"
        assert "endpoint outage" in aborted.abort_reason
        assert len(aborted.days) == 3
        assert path.read_bytes() == inline.read_bytes()
        before = roster[roster.index("Purple") - 1]
        tail = [(r["type"], r["day"], r["nation"]) for r in read_records(path)[-3:]]
        assert tail == [("turn", 4, before), ("prompt", 4, "Purple"), ("run_end", None, None)]
        healthy = EndpointStandIn(MockTransport(_responder(short, taxonomy)), roster)
        assert _llm_run(short, taxonomy, healthy, path).completed
        straight = tmp_path / "straight.jsonl"
        _llm_run(short, taxonomy, MockTransport(_responder(short, taxonomy)), straight)
        assert path.read_bytes() == straight.read_bytes()

    def test_concurrent_recording_replays_strictly(self, scenario, taxonomy, tmp_path):
        short = dataclasses.replace(scenario, days=5)
        cassette = tmp_path / "cassette.jsonl"
        recording = RecordingTransport(
            EndpointStandIn(MockTransport(_responder(short, taxonomy)), short.nation_names),
            cassette,
        )
        recorded = tmp_path / "recorded.jsonl"
        _llm_run(short, taxonomy, recording, recorded)
        tags = [json.loads(line)["tag"] for line in cassette.read_text().splitlines()]
        assert _first_attempts(tags, 1) != list(short.nation_names)
        replayed = tmp_path / "replayed.jsonl"
        run = _llm_run(short, taxonomy, ReplayTransport(cassette, mode="strict"), replayed)
        assert run.completed
        assert replayed.read_bytes() == recorded.read_bytes()

    def test_in_process_transport_runs_inline(self, scenario, taxonomy, tmp_path):
        short = dataclasses.replace(scenario, days=2)
        threads = set()
        transport = MockTransport(_responder(short, taxonomy, threads=threads))
        assert _llm_run(short, taxonomy, transport, tmp_path / "run.jsonl").completed
        assert threads == {threading.get_ident()}

    def test_intra_day_visibility_runs_inline(self, scenario, taxonomy, tmp_path):
        short = dataclasses.replace(scenario, days=2)
        endpoint = EndpointStandIn(MockTransport(_responder(short, taxonomy)), short.nation_names)
        run = _llm_run(
            short, taxonomy, endpoint, tmp_path / "run.jsonl", intra_day_visibility=True
        )
        assert run.completed
        assert endpoint.threads == {threading.get_ident()}
        assert _first_attempts(endpoint.completed, 1) == list(short.nation_names)

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
        class Reply:
            status_code = 200

            def json(self):
                content = '{"actions": [{"action": "wait"}]}'
                return {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]}

        class Session:
            def __init__(self):
                self.lock = threading.Lock()
                self.in_flight = self.peak = self.posts = 0

            def post(self, url, json=None, headers=None, timeout=None):
                with self.lock:
                    self.in_flight += 1
                    self.posts += 1
                    self.peak = max(self.peak, self.in_flight)
                time.sleep(0.005)
                with self.lock:
                    self.in_flight -= 1
                return Reply()

        session = Session()
        transport = LiveTransport(
            "https://gateway.invalid/v1", "secret",
            max_in_flight=2, requests_per_minute=10_000, session=session,
        )
        run = run_simulation(
            dataclasses.replace(scenario, days=2), taxonomy, treatment(),
            LlmPolicy(transport, model="m", temperature=1.0), TemplateUpdater(),
            seed=1, transcript_path=tmp_path / "run.jsonl",
        )
        assert run.completed
        assert session.posts == 16
        assert session.peak == 2


class TestRunRecordIsTranscriptRecord:
    """run_simulation returns exactly what reading its transcript back gives."""

    def _transport(self, scenario, taxonomy, fail_tag=None):
        inner = _responder(scenario, taxonomy, fail_tag=fail_tag)

        def respond(request):
            if "|d03|Green|" in request.request_tag:
                return "no decision"  # every attempt: one fallback turn
            return inner(request)

        return MockTransport(respond)

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
