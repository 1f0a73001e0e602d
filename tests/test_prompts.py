import hashlib
from string import Template

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esclab.errors import ParseError, UnknownNation
from esclab.prompts import (
    CONTEXT_EXTENSION,
    EXTENSION_TEXTS,
    MAX_EXTENSION_WORDS,
    REFLECTION_DEESCALATION_EXTENSION,
    REFLECTION_PLANNING_EXTENSION,
    PromptTemplates,
    PromptVariant,
    _substitute,
    build_prompts,
    extension_word_count,
    word_count,
)
from esclab.scenario import ChosenAction, DailyRecord, advance_day, initial_world
from esclab.taxonomy import ActionTaxonomy, load_default_taxonomy

# Frozen checksums of the canonical treatment extension blocks.  If these
# fail, the shipped extension texts were edited.
EXTENSION_SHA256 = {
    PromptVariant.CONTEXT:
        "ecfd4cbbe680298cbb8c153c547f37946bbf36d55605ad267b0f66984abd8736",
    PromptVariant.REFLECTION_PLANNING:
        "1e7de275662aa3eddfe5cdebd7eaa9f3c2a088a648d998f0531181bcedf95f53",
    PromptVariant.REFLECTION_DEESCALATION:
        "3cb696730524d599ba69109a0df6d6a966cd976a2477fe4fea6f797912dfd062",
}


def advance_with_waits(world, summary):
    nations = world.scenario.nation_names
    record = DailyRecord(
        day=world.current_day + 1,
        actions_by_nation={n: (ChosenAction("wait"),) for n in nations},
        daily_score_by_nation={n: 0 for n in nations},
        world_summary_after=summary,
    )
    return advance_day(world, record)


class TestCanonicalBlocks:
    def test_checksums_pinned(self):
        for variant, expected in EXTENSION_SHA256.items():
            digest = hashlib.sha256(
                EXTENSION_TEXTS[variant].encode("utf-8")
            ).hexdigest()
            assert digest == expected, f"{variant.value} extension text changed"

    def test_extensions_under_50_words(self):
        for variant in PromptVariant:
            assert extension_word_count(variant) < MAX_EXTENSION_WORDS

    def test_context_has_five_numbered_points(self):
        lines = CONTEXT_EXTENSION.splitlines()
        assert len(lines) == 5
        assert [line.split(")")[0] for line in lines] == ["1", "2", "3", "4", "5"]

    def test_reflection_blocks_keep_private_clause(self):
        clause = "won’t be shared with anyone"
        assert clause in REFLECTION_PLANNING_EXTENSION
        assert clause in REFLECTION_DEESCALATION_EXTENSION

    def test_word_counter_ignores_bare_numbers(self):
        assert word_count("1) alpha beta 250 gamma.") == 3


class TestBuildPrompts:
    def test_default_day0_contains_summary_and_no_extension(self, scenario, taxonomy):
        world = initial_world(scenario)
        bundle = build_prompts(scenario, taxonomy, world, "Blue", PromptVariant.DEFAULT)
        assert scenario.initial_summary in bundle.user_text
        assert CONTEXT_EXTENSION not in bundle.user_text
        assert REFLECTION_PLANNING_EXTENSION not in bundle.system_text
        assert not bundle.expects_private_thoughts

    def test_context_user_text_ends_with_block(self, scenario, taxonomy):
        world = initial_world(scenario)
        for _ in range(3):
            world = advance_with_waits(world, f"Summary {world.current_day + 1}.")
        bundle = build_prompts(scenario, taxonomy, world, "Red", PromptVariant.CONTEXT)
        assert bundle.user_text.endswith(CONTEXT_EXTENSION)

    def test_reflection_deescalation_expects_thoughts(self, scenario, taxonomy):
        world = initial_world(scenario)
        bundle = build_prompts(
            scenario, taxonomy, world, "Blue", PromptVariant.REFLECTION_DEESCALATION
        )
        assert bundle.expects_private_thoughts
        assert "won’t be shared with anyone" in bundle.system_text

    def test_reflection_planning_block_in_response_format(self, scenario, taxonomy):
        world = initial_world(scenario)
        bundle = build_prompts(
            scenario, taxonomy, world, "Blue", PromptVariant.REFLECTION_PLANNING
        )
        assert "You are to respond with " + REFLECTION_PLANNING_EXTENSION in (
            bundle.system_text
        )

    def test_expects_thoughts_iff_reflection(self, scenario, taxonomy):
        world = initial_world(scenario)
        expected = {
            PromptVariant.DEFAULT: False,
            PromptVariant.CONTEXT: False,
            PromptVariant.REFLECTION_PLANNING: True,
            PromptVariant.REFLECTION_DEESCALATION: True,
        }
        for variant, expects in expected.items():
            bundle = build_prompts(scenario, taxonomy, world, "Blue", variant)
            assert bundle.expects_private_thoughts is expects

    def test_system_contains_menu_and_format(self, scenario, taxonomy):
        world = initial_world(scenario)
        bundle = build_prompts(scenario, taxonomy, world, "Blue", PromptVariant.DEFAULT)
        for spec in taxonomy.actions:
            assert spec.id in bundle.system_text
        assert "JSON document" in bundle.system_text

    def test_deterministic(self, scenario, taxonomy):
        world = initial_world(scenario)
        a = build_prompts(scenario, taxonomy, world, "Green", PromptVariant.CONTEXT)
        b = build_prompts(scenario, taxonomy, world, "Green", PromptVariant.CONTEXT)
        assert a == b

    def test_monotone_context_carries_previous_summary(self, scenario, taxonomy):
        world = initial_world(scenario)
        world = advance_with_waits(world, "Tensions rose on day one.")
        world = advance_with_waits(world, "Day two brought a lull.")
        bundle = build_prompts(scenario, taxonomy, world, "Blue", PromptVariant.DEFAULT)
        assert "Day two brought a lull." in bundle.user_text
        assert "Day 3 of 14" in bundle.user_text

    def test_action_log_lists_past_actions(self, scenario, taxonomy):
        world = initial_world(scenario)
        nations = scenario.nation_names
        record = DailyRecord(
            day=1,
            actions_by_nation={
                n: ((ChosenAction("do_military_posturing", target="Blue"),)
                    if n != "Blue" else (ChosenAction("wait"),))
                for n in nations
            },
            daily_score_by_nation={n: (4 if n != "Blue" else 0) for n in nations},
            world_summary_after="Posturing everywhere.",
        )
        world = advance_day(world, record)
        bundle = build_prompts(scenario, taxonomy, world, "Blue", PromptVariant.DEFAULT)
        assert "Day 1: Red chose do_military_posturing targeting Blue" in bundle.user_text

    def test_equal_taxonomies_are_never_compared(self, scenario, monkeypatch):
        first, second = load_default_taxonomy(), load_default_taxonomy()
        assert first is not second and first == second
        compared = []
        equal = ActionTaxonomy.__eq__
        monkeypatch.setattr(
            ActionTaxonomy, "__eq__",
            lambda self, other: compared.append(other) or equal(self, other),
        )
        world = initial_world(scenario)
        texts = {
            build_prompts(scenario, taxonomy, world, nation, variant).system_text
            for taxonomy in (first, second, first, second)
            for nation in scenario.nation_names[:2]
            for variant in PromptVariant
        }
        assert len(texts) == 3  # default and context share the system text
        assert compared == []

    def test_unknown_nation(self, scenario, taxonomy):
        world = initial_world(scenario)
        with pytest.raises(UnknownNation):
            build_prompts(scenario, taxonomy, world, "Atlantis", PromptVariant.DEFAULT)


class TestCustomTemplates:
    def test_unknown_placeholder_raises_parse_error(self, scenario, taxonomy, tmp_path):
        from esclab.errors import ParseError
        from esclab.prompts import PromptTemplates

        (tmp_path / "system.txt").write_text("menu: ${action_menu}\n${response_format}",
                                             encoding="utf-8")
        (tmp_path / "user.txt").write_text("day ${day} ${no_such_var}", encoding="utf-8")
        templates = PromptTemplates.load(tmp_path)
        world = initial_world(scenario)
        with pytest.raises(ParseError, match="no_such_var"):
            build_prompts(scenario, taxonomy, world, "Blue",
                          PromptVariant.DEFAULT, templates=templates)

    def test_missing_template_dir_raises_parse_error(self, tmp_path):
        from esclab.errors import ParseError
        from esclab.prompts import PromptTemplates

        with pytest.raises(ParseError):
            PromptTemplates.load(tmp_path / "nope")

    def test_non_utf8_template_raises_parse_error(self, tmp_path):
        from esclab.errors import ParseError
        from esclab.prompts import PromptTemplates

        (tmp_path / "system.txt").write_text("menu: ${action_menu}", encoding="utf-8")
        (tmp_path / "user.txt").write_bytes(b"day ${day} \xff\n")
        with pytest.raises(ParseError, match="cannot read prompt templates"):
            PromptTemplates.load(tmp_path)

    def test_invalid_dollar_raises_parse_error(self, scenario, taxonomy):
        templates = PromptTemplates(system="${response_format}", user="day $day costs $5")
        with pytest.raises(ParseError, match="Invalid placeholder"):
            build_prompts(scenario, taxonomy, initial_world(scenario), "Blue",
                          PromptVariant.DEFAULT, templates=templates)


# Template text built from the pieces string.Template treats specially.
TEMPLATE_TEXT = st.lists(
    st.one_of(
        st.text(max_size=6),
        st.sampled_from([
            "$$", "$", "${", "}", "$day", "${day}", "$day_", "${day}s", "$Day", "$nation",
            "${nation}", "$x", "${x}", "$unknown", "${unknown}", "$1", "${ day}", "$é", "\n",
        ]),
    ),
    max_size=12,
).map("".join)
VALUES = {"day": 3, "nation": "Blue", "x": "$day ${x}"}


def _outcome(render):
    try:
        return "text", render()
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


class TestCompiledTemplate:
    @settings(max_examples=400, deadline=None)
    @given(template=TEMPLATE_TEXT)
    def test_matches_string_template(self, template):
        assert _outcome(lambda: _substitute(template, **VALUES)) == _outcome(
            lambda: Template(template).substitute(VALUES)
        )

    def test_escapes_braces_and_errors(self):
        assert _substitute("$$${day}$$x $nation.", **VALUES) == "$3$x Blue."
        with pytest.raises(KeyError, match="unknown"):
            _substitute("$unknown then $", **VALUES)
        with pytest.raises(ValueError, match="line 2, col 3"):
            _substitute("$day\nab$ then $unknown", **VALUES)
