import re

from omnitrack.svgplot import PALETTE, _ticks, bar_chart, line_chart


def test_a_range_whose_tick_step_underflows_is_ticked_as_empty():
    # 5e-324 / 5 rounds to 0, whose logarithm does not exist.
    assert _ticks(0.0, 5e-324) == _ticks(0.0, 0.0)
    assert _ticks(0.0, 2e-323) == _ticks(0.0, 0.0)


def test_line_chart_of_a_subnormal_range_is_written(tmp_path):
    path = tmp_path / "tiny.svg"
    line_chart(path, [("tiny", [0.0, 1.0], [0.0, 5e-324])])
    text = path.read_text(encoding="ascii")
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_a_range_too_narrow_to_split_gets_one_tick(tmp_path):
    assert _ticks(0.0, 1e-300) == [0.0]
    assert _ticks(1.0, 1.0 + 1e-13) == [1.0]
    (tick,) = _ticks(-1e-300, 1e-300)
    assert str(tick) == "0.0"  # not -0.0
    path = tmp_path / "flat.svg"
    line_chart(path, [("flat", [0.0, 1.0], [0.0, 1e-300])])
    text = path.read_text(encoding="ascii")
    assert text.count('font-size="11">0</text>') == 2  # one x tick and one y tick


def test_an_axis_between_two_round_ticks_gets_one(tmp_path):
    # Every tick of this range rounds to 1.0, which lies below it.
    path = tmp_path / "narrow.svg"
    line_chart(path, [("narrow", [0.0, 1.0], [1 + 1e-13, 1 + 3e-13])])
    text = path.read_text(encoding="ascii")
    y_labels = re.findall(r'text-anchor="end" font-family="sans-serif" font-size="11">([^<]*)<', text)
    assert y_labels == ["1"]


def test_a_bar_chart_legend_lists_every_series(tmp_path):
    # Bars cycle through the palette, and so does the legend.
    path = tmp_path / "bars.svg"
    bar_chart(path, ["a", "b"], [(f"s{i}", [1.0 + i, 2.0]) for i in range(7)])
    text = path.read_text(encoding="ascii")
    cycle = [PALETTE[i % len(PALETTE)] for i in range(7)]
    legend = re.findall(r'stroke="([^"]*)" stroke-width="2"/>', text)
    bars = re.findall(r'<rect [^>]*fill="(#[0-9a-f]{6})"/>', text)
    assert legend == cycle
    assert bars == [color for color in cycle for _ in range(2)]
    assert re.findall(r">(s\d)</text>", text) == [f"s{i}" for i in range(7)]


def test_a_bar_chart_of_zeros_gets_a_unit_axis(tmp_path):
    path = tmp_path / "zeros.svg"
    bar_chart(path, ["a", "b"], [("s", [0.0, 0.0])])
    text = path.read_text(encoding="ascii")
    y_labels = re.findall(r'text-anchor="end" font-family="sans-serif" font-size="11">([^<]*)<', text)
    assert y_labels == ["0", "0.2", "0.4", "0.6", "0.8", "1"]
    assert re.findall(r'height="([^"]*)" fill="#', text) == ["0.00", "0.00"]


def test_a_flat_range_too_large_to_widen_by_one_is_charted(tmp_path):
    # 1e17 + 1 == 1e17, so adding 1 would leave the x range flat.
    path = tmp_path / "far.svg"
    line_chart(path, [("far", [1e17, 1e17], [0.0, 1.0])])
    text = path.read_text(encoding="ascii")
    assert text.rstrip().endswith("</svg>")
    (points,) = re.findall(r'<polyline points="([^"]*)"', text)
    xs = {float(point.split(",")[0]) for point in points.split()}
    assert xs == {64.0}  # the left edge of the plot
