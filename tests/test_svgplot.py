from omnitrack.svgplot import _ticks, line_chart


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
