import json
import math
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windsent.errors import WindsentError
from windsent.svgplots import (
    MAX_BINS,
    _escape,
    bar_chart_svg,
    drawn_values,
    hbar_chart_svg,
    histogram_svg,
    pie_chart_svg,
    render_report_plots,
)


def _golden_summary(golden_dir):
    return json.loads((golden_dir / "golden_report.json").read_text(encoding="utf-8"))


def _golden_values(golden_dir):
    return drawn_values(_golden_summary(golden_dir))


class TestPieGeometry:
    def test_half_quarter_quarter_wedges(self):
        svg = pie_chart_svg("t", [2, 1, 1])
        # wedges start at twelve o'clock (200, 80) and sweep clockwise:
        # 180 degrees lands at (200, 380), another 90 at (50, 230)
        assert 'L 200.00 80.00 A 150.00 150.00 0 0 1 200.00 380.00' in svg
        assert 'L 200.00 380.00 A 150.00 150.00 0 0 1 50.00 230.00' in svg
        assert 'L 50.00 230.00 A 150.00 150.00 0 0 1 200.00 80.00' in svg

    def test_all_zero_renders_placeholder(self):
        svg = pie_chart_svg("t", [0, 0, 0])
        assert "<path" not in svg
        assert "empty" in svg
        assert "stroke-dasharray" in svg

    def test_single_full_wedge_is_a_circle(self):
        svg = pie_chart_svg("t", [5, 0, 0])
        assert "<path" not in svg
        assert '<circle cx="200.00" cy="230.00" r="150.00" fill="#2e7d32"/>' in svg

    def test_large_arc_flag(self):
        svg = pie_chart_svg("t", [3, 1, 0])
        assert " 0 1 1 " in svg  # 270-degree wedge uses the large-arc flag


class TestBarCharts:
    def test_zero_counts_render_zero_height_bars(self):
        svg = bar_chart_svg("t", [0, 0, 0])
        assert svg.count('height="0.00"') == 3

    def test_counts_scale_to_tallest(self):
        svg = bar_chart_svg("t", [10, 5, 0])
        assert 'height="312.00"' in svg   # full plot height for the peak
        assert 'height="156.00"' in svg

    def test_label_escaping(self):
        svg = hbar_chart_svg("t", [("a<b>&\"c\"", 3)])
        assert "a&lt;b&gt;&amp;" in svg
        assert "<b>" not in svg

    def test_empty_ranking_notes_absence(self):
        svg = hbar_chart_svg("t", [])
        assert "no qualifying words" in svg


    def test_max_bins_is_the_widest_drawable_histogram(self):
        def svg(bins):
            return histogram_svg("t", [i / bins for i in range(bins + 1)], [1] * bins)
        assert 'width="-' not in svg(MAX_BINS)
        assert 'width="-' in svg(MAX_BINS + 1)


class TestRenderedSet:
    def test_thirteen_files_with_pinned_digests(self, golden_dir, tmp_path):
        import hashlib

        values = _golden_values(golden_dir)
        written = render_report_plots(values, tmp_path)
        assert len(written) == 13
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
        pinned = json.loads((golden_dir / "svg_digests.json").read_text())
        assert digests == pinned

    def test_rendering_is_deterministic(self, golden_dir, tmp_path):
        values = _golden_values(golden_dir)
        first = {p.name: p.read_bytes()
                 for p in render_report_plots(values, tmp_path / "a")}
        second = {p.name: p.read_bytes()
                  for p in render_report_plots(values, tmp_path / "b")}
        assert first == second

    def test_svg_has_no_timestamps(self, golden_dir, tmp_path):
        values = _golden_values(golden_dir)
        for path in render_report_plots(values, tmp_path):
            content = path.read_text(encoding="utf-8")
            assert "date" not in content.lower()
            assert content.startswith("<svg ")
            assert content.endswith("</svg>\n")


@pytest.mark.parametrize("mutate,error", [
    (lambda data: data.pop("rankings"), KeyError),
    (lambda data: data["subjectivity"].update(counts=None), TypeError),
    (lambda data: data["distributions"]["synset"]["counts"].update(neutral=-1), ValueError),
    (lambda data: data["subjectivity"]["bin_edges"].reverse(), ValueError),
], ids=["no-rankings", "counts-not-a-list", "negative-count", "edges-descending"])
def test_drawn_values_raises_a_plain_error(golden_dir, mutate, error):
    # the reader of a report file names the file; drawn_values knows none
    summary = _golden_summary(golden_dir)
    mutate(summary)
    with pytest.raises(error) as caught:
        drawn_values(summary)
    assert not isinstance(caught.value, WindsentError)


def test_wedge_angle_math_matches_fractions():
    # the 0.5/0.25/0.25 split must produce 180/90/90 degree sweeps
    fractions = [0.5, 0.25, 0.25]
    sweeps = [f * 360.0 for f in fractions]
    assert sweeps == [180.0, 90.0, 90.0]
    angle = 0.0
    points = []
    for sweep in sweeps:
        angle += sweep
        points.append((200 + 150 * math.sin(math.radians(angle)),
                       230 - 150 * math.cos(math.radians(angle))))
    assert (round(points[0][0], 6), round(points[0][1], 6)) == (200.0, 380.0)
    assert round(points[1][0], 6) == 50.0


@given(st.text(alphabet=st.sampled_from("&<>\"'a; #x\u00e9"), max_size=30) | st.text())
@settings(max_examples=300, deadline=None)
def test_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)
