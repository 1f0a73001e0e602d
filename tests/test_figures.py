import json
import xml.etree.ElementTree as ET
from xml.sax import saxutils

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from esclab.errors import EmptyCounts, EmptyStats
from esclab.figures import (
    _escape,
    _quoteattr,
    emit_boxplot,
    emit_category_chart,
    emit_timeseries,
)
from esclab.scoring import CategoryCounts
from esclab.stats import DailySeriesStats, DayStats, ci95_per_day, summarize
from esclab.taxonomy import ActionCategory

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse_svg(path):
    root = ET.parse(path).getroot()
    desc = root.find(f"{SVG_NS}desc")
    provenance = json.loads(desc.text)
    return root, provenance


def y_px(provenance, value, panel=None):
    block = provenance["panels"][panel] if panel else provenance
    y_min, y_max = block["y_min"], block["y_max"]
    plot = block["plot"]
    return plot["bottom"] - (value - y_min) / (y_max - y_min) * (
        plot["bottom"] - plot["top"]
    )


def find_all(root, role):
    return [
        el for el in root.iter()
        if el.get("data-role") == role
    ]


class TestBoxplot:
    def test_box_coordinates_match_quartiles_within_half_px(self, tmp_path):
        samples = {
            "alpha": [1, 2, 2, 3, 5, 8, 9, 9.5, 10, 12],
            "beta": [0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4],
        }
        stats = [(label, summarize(vals)) for label, vals in samples.items()]
        path = emit_boxplot(stats, tmp_path / "box.svg")
        root, provenance = parse_svg(path)
        boxes = {el.get("data-label"): el for el in find_all(root, "box")}
        medians = {el.get("data-label"): el for el in find_all(root, "median")}
        means = {el.get("data-label"): el for el in find_all(root, "mean")}
        for label, s in stats:
            box = boxes[label]
            assert abs(float(box.get("y")) - y_px(provenance, s.q3)) <= 0.5
            bottom = float(box.get("y")) + float(box.get("height"))
            assert abs(bottom - y_px(provenance, s.q1)) <= 0.5
            assert abs(float(medians[label].get("y1")) - y_px(provenance, s.median)) <= 0.5
            # mean triangle: first point is the apex, 5 px above the mean line
            apex_y = float(means[label].get("points").split()[0].split(",")[1])
            assert abs((apex_y + 5) - y_px(provenance, s.mean)) <= 0.5

    def test_whiskers_span_min_to_max(self, tmp_path):
        stats = [("only", summarize([2, 4, 6, 8]))]
        path = emit_boxplot(stats, tmp_path / "box.svg")
        root, provenance = parse_svg(path)
        whisker = find_all(root, "whisker")[0]
        y_values = sorted([float(whisker.get("y1")), float(whisker.get("y2"))])
        assert abs(y_values[0] - y_px(provenance, 8)) <= 0.5
        assert abs(y_values[1] - y_px(provenance, 2)) <= 0.5

    def test_degenerate_constant_box_renders(self, tmp_path):
        stats = [("flat", summarize([5, 5, 5, 5]))]
        path = emit_boxplot(stats, tmp_path / "flat.svg")
        root, _ = parse_svg(path)
        box = find_all(root, "box")[0]
        assert float(box.get("height")) == 0.0

    def test_reference_means_mark_at_their_values(self, tmp_path):
        # Two boxes whose means sit at 6.37 and 3.33; triangles must encode them.
        a = summarize([6.37] * 10)
        b = summarize([3.33] * 10)
        path = emit_boxplot([("base", a), ("low", b)], tmp_path / "ref.svg")
        root, provenance = parse_svg(path)
        for label, value in (("base", 6.37), ("low", 3.33)):
            mean = [el for el in find_all(root, "mean") if el.get("data-label") == label][0]
            apex_y = float(mean.get("points").split()[0].split(",")[1])
            assert abs((apex_y + 5) - y_px(provenance, value)) <= 0.5

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(EmptyStats):
            emit_boxplot([], tmp_path / "none.svg")

    def test_valid_xml_with_provenance(self, tmp_path):
        stats = [("a", summarize([1, 2, 3]))]
        path = emit_boxplot(stats, tmp_path / "p.svg", provenance={"plan_sha256": "x"})
        _, provenance = parse_svg(path)
        assert provenance["plan_sha256"] == "x"


class TestTimeseries:
    def test_flat_series_zero_band(self, tmp_path):
        matrix = [[2.0] * 14] * 5
        series = [("flat", ci95_per_day(matrix))]
        path = emit_timeseries(series, tmp_path / "flat.svg")
        root, provenance = parse_svg(path)
        line = find_all(root, "mean-line")[0]
        ys = {float(pt.split(",")[1]) for pt in line.get("points").split()}
        assert len(ys) == 1
        assert abs(ys.pop() - y_px(provenance, 2.0)) <= 0.5

    def test_linear_series_endpoint(self, tmp_path):
        days = tuple(DayStats(mean=float(d), ci_low=float(d), ci_high=float(d))
                     for d in range(1, 15))
        path = emit_timeseries([("lin", DailySeriesStats(days=days))],
                               tmp_path / "lin.svg")
        root, provenance = parse_svg(path)
        line = find_all(root, "mean-line")[0]
        last_y = float(line.get("points").split()[-1].split(",")[1])
        assert abs(last_y - y_px(provenance, 14.0)) <= 0.5

    def test_reference_endpoint_gap(self, tmp_path):
        def ramp(final):
            return DailySeriesStats(days=tuple(
                DayStats(mean=final * d / 14, ci_low=final * d / 14 - 0.2,
                         ci_high=final * d / 14 + 0.2)
                for d in range(1, 15)
            ))

        path = emit_timeseries(
            [("base", ramp(11.1)), ("low", ramp(6.7))], tmp_path / "gap.svg"
        )
        root, provenance = parse_svg(path)
        lines = {el.get("data-label"): el for el in find_all(root, "mean-line")}
        def endpoint(el):
            return float(el.get("points").split()[-1].split(",")[1])
        base_val = 11.1
        gap_px = endpoint(lines["low"]) - endpoint(lines["base"])
        per_unit = (y_px(provenance, 0) - y_px(provenance, 1))
        gap_value = gap_px / per_unit
        assert gap_value / base_val == pytest.approx(0.3964, abs=0.01)

    def test_band_present_per_treatment(self, tmp_path):
        matrix = [[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]]
        series = [("a", ci95_per_day(matrix)), ("b", ci95_per_day(matrix))]
        path = emit_timeseries(series, tmp_path / "band.svg")
        root, _ = parse_svg(path)
        assert len(find_all(root, "ci-band")) == 2

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(EmptyStats):
            emit_timeseries([], tmp_path / "none.svg")


def make_counts(values: dict) -> CategoryCounts:
    counts = {category: 0.0 for category in ActionCategory}
    counts.update(values)
    return CategoryCounts(counts=counts, nations=8, runs=10)


class TestCategoryChart:
    def test_zero_nuclear_bar_labeled(self, tmp_path):
        counts = [
            ("base", make_counts({ActionCategory.NUCLEAR: 0.08,
                                  ActionCategory.POSTURING: 10.0})),
            ("deesc", make_counts({ActionCategory.NUCLEAR: 0.0,
                                   ActionCategory.POSTURING: 6.0})),
        ]
        path = emit_category_chart(counts, tmp_path / "cat.svg")
        root, _ = parse_svg(path)
        bars = [el for el in find_all(root, "bar")
                if el.get("data-category") == "nuclear"]
        zero = [el for el in bars if el.get("data-label") == "deesc"][0]
        assert float(zero.get("height")) == 0.0
        assert zero.get("data-value") == "0.0"
        labels = [el for el in find_all(root, "bar-label")
                  if el.get("data-category") == "nuclear"
                  and el.get("data-label") == "deesc"]
        assert labels[0].text == "0"

    def test_bar_height_ratio_matches_counts(self, tmp_path):
        counts = [
            ("a", make_counts({ActionCategory.POSTURING: 10.0})),
            ("b", make_counts({ActionCategory.POSTURING: 6.0})),
        ]
        path = emit_category_chart(counts, tmp_path / "ratio.svg")
        root, _ = parse_svg(path)
        bars = {el.get("data-label"): el for el in find_all(root, "bar")
                if el.get("data-category") == "posturing"}
        ratio = float(bars["b"].get("height")) / float(bars["a"].get("height"))
        assert ratio == pytest.approx(0.6, abs=1e-3)

    def test_all_zero_renders(self, tmp_path):
        counts = [("empty", make_counts({}))]
        path = emit_category_chart(counts, tmp_path / "zero.svg")
        root, _ = parse_svg(path)
        assert all(float(el.get("height")) == 0.0 for el in find_all(root, "bar"))

    def test_panels_have_independent_scales(self, tmp_path):
        counts = [("a", make_counts({ActionCategory.POSTURING: 100.0,
                                     ActionCategory.NUCLEAR: 0.1}))]
        path = emit_category_chart(counts, tmp_path / "scales.svg")
        _, provenance = parse_svg(path)
        assert provenance["panels"]["posturing"]["y_max"] > 100
        assert provenance["panels"]["nuclear"]["y_max"] < 1

    def test_one_panel_per_category(self, tmp_path):
        counts = [("a", make_counts({}))]
        path = emit_category_chart(counts, tmp_path / "panels.svg")
        _, provenance = parse_svg(path)
        assert set(provenance["panels"]) == {c.value for c in ActionCategory}

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(EmptyCounts):
            emit_category_chart([], tmp_path / "none.svg")


class TestEscaping:
    """The local escaping gives the bytes ``xml.sax.saxutils`` gives."""

    markup = st.text(st.sampled_from("&<>\"'\n\r\t ;#ax\u00e9\u2028")) | st.text()

    @given(markup)
    @example("a & b < c > d")
    def test_escape_is_saxutils_escape(self, text):
        assert _escape(text) == saxutils.escape(text)

    @given(markup)
    @example("plain")
    @example('say "hi"')
    @example("it's")
    @example("it's \"both\"\n\r\t")
    def test_quoteattr_is_saxutils_quoteattr(self, text):
        assert _quoteattr(text) == saxutils.quoteattr(text)
