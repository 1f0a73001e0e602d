"""Dependency-free SVG chart emission: boxplots, CI time series, bar panels.

Geometry is linear and fully declared: every figure embeds a provenance
block (JSON inside a <desc> element) carrying the y-domain and plot
rectangle, so tests can recompute any data coordinate to sub-pixel
precision.  Category charts use one panel per category with independent
y-scales instead of a broken axis.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import EmptyCounts, EmptyStats
from .scoring import CategoryCounts
from .stats import DailySeriesStats, SummaryStats
from .taxonomy import ActionCategory

PALETTE = ("#30618f", "#c25147", "#3f8f4f", "#8f6c2e", "#6d4f8f", "#3f8f8a")


def _escape(text: str) -> str:
    """XML character data: ``&``, ``<`` and ``>`` escaped, as by
    ``xml.sax.saxutils.escape`` (whose import would load ``urllib.request``)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text: str) -> str:
    """A quoted XML attribute value, as by ``xml.sax.saxutils.quoteattr``:
    escaped, with newline, return and tab as character references, in the
    quote it does not hold (double when it holds both, each escaped)."""
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _fmt(value: float) -> str:
    return f"{value:.2f}"


@dataclass(frozen=True)
class Scale:
    """Linear map from data values to pixel y coordinates (top-left origin)."""

    y_min: float
    y_max: float
    top: float
    bottom: float

    def y_px(self, value: float) -> float:
        span = self.y_max - self.y_min
        return self.bottom - (value - self.y_min) / span * (self.bottom - self.top)


def _padded_domain(low: float, high: float) -> tuple[float, float]:
    if low == high:
        pad = 1.0 if low == 0 else abs(low) * 0.25
        return low - pad, high + pad
    pad = (high - low) * 0.08
    return low - pad, high + pad


class SvgDoc:
    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def add(self, tag: str, text: str | None = None, **attrs) -> None:
        rendered = " ".join(
            f"{k.rstrip('_').replace('_', '-')}={_quoteattr(str(v))}"
            for k, v in attrs.items()
        )
        if text is None:
            self.parts.append(f"<{tag} {rendered}/>")
        else:
            self.parts.append(f"<{tag} {rendered}>{_escape(text)}</{tag}>")

    def desc(self, geometry: dict, provenance: dict | None) -> None:
        """Lead the document with its provenance block: ``geometry`` and
        ``provenance`` as one JSON object."""
        payload = {**geometry, **(provenance or {})}
        self.parts.insert(
            0, '<desc id="provenance">' + _escape(json.dumps(payload, sort_keys=True)) + "</desc>"
        )

    def save(self, path) -> Path:
        """Write the document to ``path``, making its directory, and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = "\n".join(self.parts)
        path.write_text(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width:g}" '
            f'height="{self.height:g}" viewBox="0 0 {self.width:g} {self.height:g}">\n'
            f"{body}\n</svg>\n",
            encoding="utf-8",
        )
        return path


def _axes(doc: SvgDoc, scale: Scale, left: float, right: float, ticks: int = 5) -> None:
    doc.add("line", x1=_fmt(left), y1=_fmt(scale.top), x2=_fmt(left),
            y2=_fmt(scale.bottom), stroke="#333", stroke_width="1")
    doc.add("line", x1=_fmt(left), y1=_fmt(scale.bottom), x2=_fmt(right),
            y2=_fmt(scale.bottom), stroke="#333", stroke_width="1")
    for i in range(ticks + 1):
        value = scale.y_min + (scale.y_max - scale.y_min) * i / ticks
        y = scale.y_px(value)
        doc.add("line", x1=_fmt(left - 4), y1=_fmt(y), x2=_fmt(left), y2=_fmt(y),
                stroke="#333", stroke_width="1")
        doc.add("text", f"{value:g}", x=_fmt(left - 8), y=_fmt(y + 4),
                text_anchor="end", font_size="11", font_family="sans-serif")


def _frame(low: float, high: float, title: str,
           provenance: dict | None) -> tuple[SvgDoc, Scale, float, float]:
    """A 640 x 400 chart over the padded y-domain of ``low``..``high``, with
    its provenance, title and axes: the document, its scale and the plot
    rectangle's left and right."""
    width, height = 640.0, 400.0
    left, right, top, bottom = 70.0, width - 20.0, 50.0, height - 60.0
    y_min, y_max = _padded_domain(low, high)
    scale = Scale(y_min=y_min, y_max=y_max, top=top, bottom=bottom)
    doc = SvgDoc(width, height)
    doc.desc({"y_min": y_min, "y_max": y_max,
              "plot": {"left": left, "right": right, "top": top, "bottom": bottom}},
             provenance)
    doc.add("text", title, x=_fmt(width / 2), y="28", text_anchor="middle",
            font_size="15", font_family="sans-serif")
    _axes(doc, scale, left, right)
    return doc, scale, left, right


def emit_boxplot(
    stats_by_label: Sequence[tuple[str, SummaryStats]],
    path: str | Path,
    title: str = "Escalation score per nation",
    provenance: dict | None = None,
) -> Path:
    """One box per treatment: q1-q3 box, median line, mean triangle, whiskers
    at min/max (range, not 1.5*IQR)."""
    if not stats_by_label:
        raise EmptyStats("boxplot needs at least one treatment")
    doc, scale, left, right = _frame(
        min(s.min for _, s in stats_by_label), max(s.max for _, s in stats_by_label),
        title, provenance,
    )
    slot = (right - left) / len(stats_by_label)
    box_w = slot * 0.45
    for i, (label, s) in enumerate(stats_by_label):
        cx = left + slot * (i + 0.5)
        color = PALETTE[i % len(PALETTE)]
        y_lo, y_hi = scale.y_px(s.min), scale.y_px(s.max)
        y_q1, y_q3 = scale.y_px(s.q1), scale.y_px(s.q3)
        y_med, y_mean = scale.y_px(s.median), scale.y_px(s.mean)
        doc.add("line", x1=_fmt(cx), y1=_fmt(y_lo), x2=_fmt(cx), y2=_fmt(y_hi),
                stroke=color, stroke_width="1", data_role="whisker", data_label=label)
        for y_cap in (y_lo, y_hi):
            doc.add("line", x1=_fmt(cx - box_w / 4), y1=_fmt(y_cap),
                    x2=_fmt(cx + box_w / 4), y2=_fmt(y_cap), stroke=color,
                    stroke_width="1")
        doc.add("rect", x=_fmt(cx - box_w / 2), y=_fmt(y_q3), width=_fmt(box_w),
                height=_fmt(max(y_q1 - y_q3, 0.0)), fill=color, fill_opacity="0.25",
                stroke=color, stroke_width="1.5", data_role="box", data_label=label,
                data_q1=repr(s.q1), data_q3=repr(s.q3))
        doc.add("line", x1=_fmt(cx - box_w / 2), y1=_fmt(y_med),
                x2=_fmt(cx + box_w / 2), y2=_fmt(y_med), stroke=color,
                stroke_width="2", data_role="median", data_label=label,
                data_value=repr(s.median))
        doc.add(
            "polygon",
            points=f"{_fmt(cx)},{_fmt(y_mean - 5)} {_fmt(cx - 5)},{_fmt(y_mean + 4)} "
                   f"{_fmt(cx + 5)},{_fmt(y_mean + 4)}",
            fill=color, data_role="mean", data_label=label, data_value=repr(s.mean),
        )
        doc.add("text", label, x=_fmt(cx), y=_fmt(scale.bottom + 18), text_anchor="middle",
                font_size="11", font_family="sans-serif")
    return doc.save(path)


def emit_timeseries(
    series_by_label: Sequence[tuple[str, DailySeriesStats]],
    path: str | Path,
    title: str = "Mean escalation score per nation by day",
    provenance: dict | None = None,
) -> Path:
    """Mean polyline plus 95% CI band per treatment over days 1..N."""
    if not series_by_label:
        raise EmptyStats("time series needs at least one treatment")
    doc, scale, left, right = _frame(
        min(d.ci_low for _, series in series_by_label for d in series.days),
        max(d.ci_high for _, series in series_by_label for d in series.days),
        title, provenance,
    )
    top, bottom = scale.top, scale.bottom
    n_days = max(len(series) for _, series in series_by_label)

    def x_px(day: int) -> float:
        if n_days == 1:
            return (left + right) / 2
        return left + (day - 1) / (n_days - 1) * (right - left)

    for day in range(1, n_days + 1):
        doc.add("text", str(day), x=_fmt(x_px(day)), y=_fmt(bottom + 16),
                text_anchor="middle", font_size="10", font_family="sans-serif")
    for i, (label, series) in enumerate(series_by_label):
        color = PALETTE[i % len(PALETTE)]
        forward = [
            f"{_fmt(x_px(d + 1))},{_fmt(scale.y_px(day.ci_high))}"
            for d, day in enumerate(series.days)
        ]
        backward = [
            f"{_fmt(x_px(d + 1))},{_fmt(scale.y_px(day.ci_low))}"
            for d, day in reversed(list(enumerate(series.days)))
        ]
        doc.add("polygon", points=" ".join(forward + backward), fill=color,
                fill_opacity="0.15", stroke="none", data_role="ci-band",
                data_label=label)
        points = " ".join(
            f"{_fmt(x_px(d + 1))},{_fmt(scale.y_px(day.mean))}"
            for d, day in enumerate(series.days)
        )
        doc.add("polyline", points=points, fill="none", stroke=color,
                stroke_width="2", data_role="mean-line", data_label=label)
        doc.add("line", x1=_fmt(right - 150), y1=_fmt(top + 8 + 16 * i),
                x2=_fmt(right - 130), y2=_fmt(top + 8 + 16 * i), stroke=color,
                stroke_width="2")
        doc.add("text", label, x=_fmt(right - 124), y=_fmt(top + 12 + 16 * i),
                font_size="11", font_family="sans-serif")
    return doc.save(path)


def emit_category_chart(
    counts_by_label: Sequence[tuple[str, CategoryCounts]],
    path: str | Path,
    title: str = "Actions per nation by category",
    provenance: dict | None = None,
) -> Path:
    """Grouped bars, one panel per category with its own y-scale.

    Zero counts render as explicit zero-height bars with a "0" label, so a
    vanished category stays visible.
    """
    if not counts_by_label:
        raise EmptyCounts("category chart needs at least one treatment")
    categories = list(ActionCategory)
    cols, rows = 3, 2
    panel_w, panel_h = 300.0, 230.0
    margin, legend_h = 20.0, 30.0 + 14.0 * len(counts_by_label)
    width = cols * panel_w + 2 * margin
    height = rows * panel_h + 2 * margin + 40.0 + legend_h
    doc = SvgDoc(width, height)
    doc.add("text", title, x=_fmt(width / 2), y="26", text_anchor="middle",
            font_size="15", font_family="sans-serif")
    panels = {}
    for index, category in enumerate(categories):
        col, row = index % cols, index // cols
        px = margin + col * panel_w
        py = 40.0 + margin + row * panel_h
        plot_left, plot_right = px + 52.0, px + panel_w - 14.0
        plot_top, plot_bottom = py + 26.0, py + panel_h - 34.0
        top_value = max(counts[category] for _, counts in counts_by_label)
        y_min, y_max = 0.0, (top_value if top_value > 0 else 1.0) * 1.15
        scale = Scale(y_min=y_min, y_max=y_max, top=plot_top, bottom=plot_bottom)
        panels[category.value] = {
            "y_min": y_min, "y_max": y_max,
            "plot": {"left": plot_left, "right": plot_right,
                     "top": plot_top, "bottom": plot_bottom},
        }
        doc.add("text", category.value, x=_fmt((plot_left + plot_right) / 2),
                y=_fmt(py + 14), text_anchor="middle", font_size="12",
                font_family="sans-serif")
        _axes(doc, scale, plot_left, plot_right, ticks=3)
        slot = (plot_right - plot_left) / len(counts_by_label)
        bar_w = slot * 0.6
        for i, (label, counts) in enumerate(counts_by_label):
            value = counts[category]
            cx = plot_left + slot * (i + 0.5)
            y_top = scale.y_px(value)
            color = PALETTE[i % len(PALETTE)]
            doc.add("rect", x=_fmt(cx - bar_w / 2), y=_fmt(y_top), width=_fmt(bar_w),
                    height=_fmt(max(scale.bottom - y_top, 0.0)), fill=color,
                    data_role="bar", data_label=label, data_category=category.value,
                    data_value=repr(value))
            doc.add("text", f"{value:g}", x=_fmt(cx), y=_fmt(y_top - 4),
                    text_anchor="middle", font_size="10", font_family="sans-serif",
                    data_role="bar-label", data_label=label,
                    data_category=category.value)
    legend_y = 40.0 + margin + rows * panel_h + 16.0
    for i, (label, _) in enumerate(counts_by_label):
        color = PALETTE[i % len(PALETTE)]
        doc.add("rect", x=_fmt(margin), y=_fmt(legend_y + 14 * i - 9), width="12",
                height="9", fill=color)
        doc.add("text", label, x=_fmt(margin + 18), y=_fmt(legend_y + 14 * i),
                font_size="11", font_family="sans-serif")
    doc.desc({"panels": panels}, provenance)
    return doc.save(path)
