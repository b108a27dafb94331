"""Deterministic SVG bar and pie charts, no graphics dependency.

Rendering is pure text generation: fixed canvas sizes, a fixed palette,
coordinates formatted to two decimals, no timestamps and no random ids, so
the same report always produces byte-identical files. One full render emits
13 files: per engine a bar and a pie of the label distribution, one
subjectivity histogram, and six top-word charts.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Mapping, Sequence

from .analytics import NEGATIVE, NEUTRAL, POSITIVE
from .engines import ENGINES
from .errors import write_file
from .lexicons import NOT_XML_CHAR
from .report import SIDES

PLOT_LABEL_ORDER = (POSITIVE, NEUTRAL, NEGATIVE)
LABEL_COLORS = {NEGATIVE: "#c62828", NEUTRAL: "#9e9e9e", POSITIVE: "#2e7d32"}
BAR_COLOR = "#1565c0"
FONT = "font-family=\"Helvetica, Arial, sans-serif\""


def _escape(text: str) -> str:
    """xml.sax.saxutils.escape, which would import urllib, http and email."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f"<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" "
        f"height=\"{height}\" viewBox=\"0 0 {width} {height}\">"
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _title(text: str, width: int) -> str:
    return (f"<text x=\"{width // 2}\" y=\"24\" text-anchor=\"middle\" "
            f"{FONT} font-size=\"16\">{_escape(text)}</text>")


def bar_chart_svg(title: str, values: Sequence[int | float]) -> str:
    """Vertical bar chart of the label counts, in PLOT_LABEL_ORDER;
    zero-height bars are drawn as zero-height rects so degenerate
    distributions still render."""
    width, height = 640, 420
    left, right, top, bottom = 60, 20, 48, 60
    plot_w = width - left - right
    plot_h = height - top - bottom
    body = [_title(title, width)]
    body.append(f"<line x1=\"{left}\" y1=\"{top + plot_h}\" x2=\"{left + plot_w}\" "
                f"y2=\"{top + plot_h}\" stroke=\"#333333\" stroke-width=\"1\"/>")
    peak = max((float(v) for v in values), default=0.0)
    slot = plot_w / len(PLOT_LABEL_ORDER)
    bar_w = slot * 0.6
    for i, (lab, value) in enumerate(zip(PLOT_LABEL_ORDER, values)):
        h = 0.0 if peak <= 0 else float(value) / peak * plot_h
        x = left + slot * i + (slot - bar_w) / 2
        y = top + plot_h - h
        body.append(f"<rect x=\"{_fmt(x)}\" y=\"{_fmt(y)}\" width=\"{_fmt(bar_w)}\" "
                    f"height=\"{_fmt(h)}\" fill=\"{LABEL_COLORS[lab]}\"/>")
        body.append(f"<text x=\"{_fmt(x + bar_w / 2)}\" y=\"{_fmt(y - 6)}\" "
                    f"text-anchor=\"middle\" {FONT} font-size=\"12\">{_escape(str(value))}</text>")
        body.append(f"<text x=\"{_fmt(x + bar_w / 2)}\" y=\"{top + plot_h + 18}\" "
                    f"text-anchor=\"middle\" {FONT} font-size=\"12\">{lab}</text>")
    return _svg(width, height, body)


def pie_chart_svg(title: str, values: Sequence[int | float]) -> str:
    """Pie of the label counts, in PLOT_LABEL_ORDER, with wedge angles
    proportional to the values, starting at twelve o'clock and sweeping
    clockwise. An all-zero distribution renders an "empty" placeholder glyph
    instead of a pie."""
    width, height = 480, 420
    cx, cy, radius = 200.0, 230.0, 150.0
    body = [_title(title, width)]
    total = 0.0
    for v in values:
        total = total + float(v)
    if total <= 0:
        body.append(f"<circle cx=\"{_fmt(cx)}\" cy=\"{_fmt(cy)}\" r=\"{_fmt(radius)}\" "
                    f"fill=\"none\" stroke=\"#9e9e9e\" stroke-width=\"2\" "
                    f"stroke-dasharray=\"8 6\"/>")
        body.append(f"<text x=\"{_fmt(cx)}\" y=\"{_fmt(cy + 5)}\" text-anchor=\"middle\" "
                    f"{FONT} font-size=\"14\" fill=\"#9e9e9e\">empty</text>")
    else:
        angle = 0.0
        for lab, value in zip(PLOT_LABEL_ORDER, values):
            color = LABEL_COLORS[lab]
            fraction = float(value) / total
            if fraction <= 0:
                continue
            if fraction >= 1.0:
                body.append(f"<circle cx=\"{_fmt(cx)}\" cy=\"{_fmt(cy)}\" "
                            f"r=\"{_fmt(radius)}\" fill=\"{color}\"/>")
                angle = 360.0
                continue
            sweep = fraction * 360.0
            start = math.radians(angle)
            end = math.radians(angle + sweep)
            x1 = cx + radius * math.sin(start)
            y1 = cy - radius * math.cos(start)
            x2 = cx + radius * math.sin(end)
            y2 = cy - radius * math.cos(end)
            large = 1 if sweep > 180.0 else 0
            body.append(
                f"<path d=\"M {_fmt(cx)} {_fmt(cy)} L {_fmt(x1)} {_fmt(y1)} "
                f"A {_fmt(radius)} {_fmt(radius)} 0 {large} 1 {_fmt(x2)} {_fmt(y2)} Z\" "
                f"fill=\"{color}\"/>")
            angle += sweep
    legend_x = 380
    legend_y = 120
    for i, (lab, value) in enumerate(zip(PLOT_LABEL_ORDER, values)):
        y = legend_y + i * 24
        body.append(f"<rect x=\"{legend_x}\" y=\"{y - 11}\" width=\"14\" height=\"14\" "
                    f"fill=\"{LABEL_COLORS[lab]}\"/>")
        body.append(f"<text x=\"{legend_x + 20}\" y=\"{y}\" {FONT} "
                    f"font-size=\"12\">{_escape(f'{lab}: {value}')}</text>")
    return _svg(width, height, body)


def hbar_chart_svg(title: str, entries: Sequence[tuple[str, int]]) -> str:
    """Horizontal bar chart for word rankings (word label, count bar)."""
    width = 640
    row_h = 22
    top, bottom, left, right = 48, 20, 150, 60
    height = top + bottom + row_h * max(len(entries), 1)
    plot_w = width - left - right
    body = [_title(title, width)]
    if not entries:
        body.append(f"<text x=\"{width // 2}\" y=\"{top + row_h}\" text-anchor=\"middle\" "
                    f"{FONT} font-size=\"13\" fill=\"#9e9e9e\">no qualifying words</text>")
        return _svg(width, height, body)
    peak = max(count for _, count in entries)
    for i, (word, count) in enumerate(entries):
        y = top + i * row_h
        bar_w = 0.0 if peak <= 0 else count / peak * plot_w
        body.append(f"<text x=\"{left - 8}\" y=\"{y + 14}\" text-anchor=\"end\" {FONT} "
                    f"font-size=\"12\">{_escape(word)}</text>")
        body.append(f"<rect x=\"{left}\" y=\"{y + 3}\" width=\"{_fmt(bar_w)}\" "
                    f"height=\"{row_h - 8}\" fill=\"{BAR_COLOR}\"/>")
        body.append(f"<text x=\"{_fmt(left + bar_w + 6)}\" y=\"{y + 14}\" {FONT} "
                    f"font-size=\"12\">{count}</text>")
    return _svg(width, height, body)


# The histogram's plot area is 640 - 60 - 20 = 560 px and each bar is its
# slot minus a 2 px gap, so more bins than this would draw negative widths.
MAX_BINS = 280


def histogram_svg(title: str, bin_edges: Sequence[float], counts: Sequence[int]) -> str:
    width, height = 640, 420
    left, right, top, bottom = 60, 20, 48, 60
    plot_w = width - left - right
    plot_h = height - top - bottom
    body = [_title(title, width)]
    body.append(f"<line x1=\"{left}\" y1=\"{top + plot_h}\" x2=\"{left + plot_w}\" "
                f"y2=\"{top + plot_h}\" stroke=\"#333333\" stroke-width=\"1\"/>")
    n = len(counts)
    peak = max(counts, default=0)
    if n:
        slot = plot_w / n
        for i, count in enumerate(counts):
            h = 0.0 if peak <= 0 else count / peak * plot_h
            x = left + slot * i
            y = top + plot_h - h
            body.append(f"<rect x=\"{_fmt(x + 1)}\" y=\"{_fmt(y)}\" "
                        f"width=\"{_fmt(slot - 2)}\" height=\"{_fmt(h)}\" "
                        f"fill=\"{BAR_COLOR}\"/>")
            body.append(f"<text x=\"{_fmt(x + slot / 2)}\" y=\"{_fmt(y - 6)}\" "
                        f"text-anchor=\"middle\" {FONT} font-size=\"11\">{count}</text>")
        for i, edge in enumerate(bin_edges):
            x = left + slot * i
            body.append(f"<text x=\"{_fmt(x)}\" y=\"{top + plot_h + 18}\" "
                        f"text-anchor=\"middle\" {FONT} font-size=\"10\">{_fmt(edge)}</text>")
    return _svg(width, height, body)


# charts scale counts as floats, which hold every int only up to 2**53
MAX_COUNT = 2**53


def _count(value, where: str) -> int:
    # a JSON true is a Python bool, which is an int
    if type(value) is not int or not 0 <= value <= MAX_COUNT:
        raise ValueError(f"{where}: expected a count (int in 0..2**53), got {value!r}")
    return value


def drawn_values(summary: Mapping) -> tuple[dict, list, list, dict]:
    """What the charts draw from a report's ``distributions``,
    ``subjectivity`` and ``rankings`` sections (``summary_to_dict`` or a
    parsed report.json): label counts per engine, the histogram's edges and
    counts, and the ranking entries per (engine, side). Anything that would
    not draw as valid SVG raises KeyError, TypeError or ValueError."""
    distributions = {
        engine: [_count(summary["distributions"][engine]["counts"][lab],
                        f"distributions.{engine}.counts.{lab}")
                 for lab in PLOT_LABEL_ORDER]
        for engine in ENGINES
    }
    subjectivity = summary["subjectivity"]
    counts = [_count(count, "subjectivity.counts") for count in subjectivity["counts"]]
    if not 1 <= len(counts) <= MAX_BINS:
        raise ValueError(f"subjectivity.counts: {len(counts)} bins, not 1..{MAX_BINS}")
    edges = list(subjectivity["bin_edges"])
    if len(edges) != len(counts) + 1:
        raise ValueError(f"subjectivity.bin_edges: {len(edges)} edges for {len(counts)} bins")
    for edge in edges:
        if type(edge) not in (int, float):
            raise TypeError(f"subjectivity.bin_edges: expected a number, got {edge!r}")
        if not abs(edge) <= sys.float_info.max:  # NaN, an infinity, an int past any float
            raise ValueError(f"subjectivity.bin_edges: not a finite number: {edge!r}")
    for low, high in zip(edges, edges[1:]):
        if not low < high:
            raise ValueError(f"subjectivity.bin_edges: {high!r} after {low!r}, "
                             "not strictly ascending")
    rankings = {}
    for engine in ENGINES:
        for side in SIDES:
            where = f"rankings.{engine}.{side}"
            entries = []
            for word, count in summary["rankings"][engine][side]:
                if type(word) is not str:
                    raise TypeError(f"{where}: expected a word, got {word!r}")
                if NOT_XML_CHAR.search(word):
                    raise ValueError(f"{where}: no SVG can hold the word {word!r}")
                entries.append((word, _count(count, where)))
            rankings[engine, side] = entries
    return distributions, edges, counts, rankings


# The 13 files of one full render, in the order they are written.
CHART_FILES = (
    *(f"distribution_{engine}_{kind}.svg" for engine in ENGINES for kind in ("bar", "pie")),
    "subjectivity_histogram.svg",
    *(f"top_words_{engine}_{side}.svg" for engine in ENGINES for side in SIDES),
)


def render_report_plots(values: tuple[dict, list, list, dict],
                        outdir: str | Path) -> list[Path]:
    """Emit the 13 SVG files into ``outdir`` from a report's checked
    ``drawn_values``."""
    distributions, edges, counts, rankings = values
    outdir = Path(outdir)
    charts = []
    for engine in ENGINES:
        values = distributions[engine]
        charts.append(bar_chart_svg(f"Sentiment distribution ({engine})", values))
        charts.append(pie_chart_svg(f"Sentiment shares ({engine})", values))
    charts.append(histogram_svg("Subjectivity distribution (pattern_avg)", edges, counts))
    for engine in ENGINES:
        for side in SIDES:
            charts.append(hbar_chart_svg(f"Top {side} words ({engine})",
                                         rankings[engine, side]))
    for name, svg in zip(CHART_FILES, charts, strict=True):
        write_file(outdir / name, svg)
    return [outdir / name for name in CHART_FILES]
