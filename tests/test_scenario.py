from pathlib import Path

import pytest
import yaml

from esclab import scenario as scenario_module
from esclab.agents import load_script
from esclab.errors import ParseError, SequenceError, ValidationError
from esclab.experiments import load_plan
from esclab.scenario import (
    ChosenAction,
    DailyRecord,
    advance_day,
    initial_world,
    _load_yaml,
    load_scenario,
    parse_scenario,
)
from esclab.taxonomy import load_taxonomy

DATA = Path(__file__).parent.parent / "src" / "esclab" / "data"
SHIPPED_YAML = sorted(DATA.glob("*.yaml"))
YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


def record_for(world, day, summary=None):
    nations = world.scenario.nation_names
    return DailyRecord(
        day=day,
        actions_by_nation={n: (ChosenAction("wait"),) for n in nations},
        daily_score_by_nation={n: 0 for n in nations},
        world_summary_after=summary or f"After day {day}.",
    )


class TestLoading:
    def test_shipped_neutral_scenario(self, scenario):
        assert scenario.name == "neutral"
        assert len(scenario.nations) == 8
        assert scenario.days == 14
        assert len(set(scenario.nation_names)) == 8

    def test_small_research_variant_accepted(self):
        scn = parse_scenario({
            "name": "duel", "days": 3, "initial_summary": "Two rivals.",
            "nations": [
                {"name": "A", "background": "a", "objectives": ["win"]},
                {"name": "B", "background": "b", "objectives": ["win"]},
            ],
        })
        assert scn.days == 3
        assert scn.nation_names == ("A", "B")

    def test_duplicate_nation_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_scenario({
                "name": "dup", "days": 2, "initial_summary": "x",
                "nations": [
                    {"name": "A", "background": "a", "objectives": []},
                    {"name": "A", "background": "a2", "objectives": []},
                ],
            })

    def test_nonpositive_days_rejected(self):
        with pytest.raises(ValidationError, match="days"):
            parse_scenario({
                "name": "flat", "days": 0, "initial_summary": "x",
                "nations": [{"name": "A", "background": "a", "objectives": []}],
            })

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError, match="weather"):
            parse_scenario({
                "name": "odd", "days": 1, "initial_summary": "x", "weather": "rain",
                "nations": [{"name": "A", "background": "a", "objectives": []}],
            })

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "absent.yaml")


class TestWorldState:
    def test_day0_invariants(self, scenario):
        world = initial_world(scenario)
        assert world.current_day == 0
        assert world.summary == scenario.initial_summary
        assert world.history == ()

    def test_advance_base_case(self, scenario):
        world = initial_world(scenario)
        after = advance_day(world, record_for(world, 1))
        assert after.current_day == 1
        assert len(after.history) == 1
        assert after.summary == "After day 1."
        # value semantics: the input world is untouched
        assert world.current_day == 0
        assert world.history == ()

    def test_day_gap_rejected(self, scenario):
        world = initial_world(scenario)
        for day in (1, 2, 3, 4, 5):
            world = advance_day(world, record_for(world, day))
        with pytest.raises(SequenceError):
            advance_day(world, record_for(world, 7))

    def test_missing_nation_rejected(self, scenario):
        world = initial_world(scenario)
        partial = DailyRecord(
            day=1,
            actions_by_nation={"Blue": (ChosenAction("wait"),)},
            daily_score_by_nation={"Blue": 0},
            world_summary_after="x",
        )
        with pytest.raises(ValidationError, match="no actions recorded"):
            advance_day(world, partial)

    def test_fourteen_sequential_days(self, scenario):
        world = initial_world(scenario)
        for day in range(1, 15):
            world = advance_day(world, record_for(world, day))
        assert world.current_day == 14
        assert len(world.history) == 14

    def test_history_append_only(self, scenario):
        world = initial_world(scenario)
        world = advance_day(world, record_for(world, 1))
        first = world.history[0]
        for day in (2, 3):
            world = advance_day(world, record_for(world, day))
        assert world.history[0] is first

    def test_replay_reproduces_final_state(self, scenario):
        world = initial_world(scenario)
        for day in range(1, 8):
            world = advance_day(world, record_for(world, day))
        replayed = initial_world(scenario)
        for record in world.history:
            replayed = advance_day(replayed, record)
        assert replayed == world


class TestYamlLoader:
    def test_both_loaders_read_every_shipped_file_alike(self):
        assert SHIPPED_YAML
        for path in SHIPPED_YAML:
            text = path.read_text(encoding="utf-8")
            expected = yaml.load(text, Loader=yaml.SafeLoader)
            assert _load_yaml(text) == expected, path.name
            for loader in YAML_LOADERS:
                assert yaml.load(text, Loader=loader) == expected, (path.name, loader)

    @pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("load", [load_scenario, load_taxonomy, load_plan, load_script])
    def test_malformed_file_is_a_parse_error(self, loader, load, tmp_path, monkeypatch):
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
        path = tmp_path / "bad.yaml"
        for content in (b"name: [unclosed\n  days: 3\n", b"name: x\xff\n"):
            path.write_bytes(content)
            with pytest.raises(ParseError, match="malformed"):
                load(path)


class TestDataFileChecks:
    @pytest.mark.parametrize("value,kind,nonempty", [
        (True, int, False), (True, float, False), (1.0, int, False), ("1", float, False),
        (0, bool, False), ([], list, True), (" \n", str, True), ("x", list, False),
    ])
    def test_require_type_refuses(self, value, kind, nonempty):
        with pytest.raises(ParseError, match="^where must be "):
            scenario_module.require_type(value, kind, "where", nonempty=nonempty)

    @pytest.mark.parametrize("value,kind", [
        (1, float), (0.5, float), (0, int), (False, bool), ("", str), ({}, dict),
    ])
    def test_require_type_passes_the_value_through(self, value, kind):
        assert scenario_module.require_type(value, kind, "where") is value

    def test_unknown_keys_of_mixed_types_are_a_parse_error(self):
        document = {
            "name": "odd", "days": 1, "initial_summary": "x", 1: "a", "weather": "b",
            "nations": [{"name": "A", "background": "a", "objectives": []}],
        }
        with pytest.raises(ParseError, match=r"unknown keys \[1, 'weather'\]"):
            parse_scenario(document)

    def test_blank_nation_name_is_a_parse_error(self):
        entry = {"name": " ", "background": "a", "objectives": []}
        with pytest.raises(ParseError, match="name must be a nonempty string"):
            parse_scenario({"name": "n", "days": 1, "initial_summary": "x", "nations": [entry]})
