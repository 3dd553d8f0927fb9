"""Number formatting and escaping in the Gantt chart: `_fmt` against its
plain definition, `escape` against `xml.sax.saxutils.escape`, every
bar and task label of a chart against positions computed directly from
the schedule, zero-length actions and a zero makespan included, and
whole charts byte for byte against a frozen copy of the renderer."""

from xml.dom import minidom
from xml.sax import saxutils

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavsched.eat import build_schedule
from uavsched.gantt import (_LANE_GAP, _LANE_H, _MARGIN_B, _MARGIN_L,
                            _MARGIN_R, _MARGIN_T, _PLOT_W, _RECT_TAIL, _STYLE,
                            _Memo, _axis_step, _fmt, _svg_head, escape,
                            render_gantt_svg)
from uavsched.model import Action, ActionKind, Schedule

from conftest import (AWKWARD_TEXT, FULL_COMPLETION, drawn_schedules,
                      golden_schedule)

F, T, H, W, R = (ActionKind.FLIGHT, ActionKind.TASK_EXEC, ActionKind.HOVER,
                 ActionKind.WAIT_ON_GROUND, ActionKind.RECHARGE)


def plain_fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


@given(st.floats() | st.integers(-10**6, 10**6).map(lambda n: n / 100)
       | st.integers(-10**6, 10**6).map(lambda n: n / 1000))
@example(0.0)
@example(-0.0)
@example(100.0)          # N.00
@example(7.5)            # N.N0
@example(1000.1)         # N.N0
@example(0.125)          # half-cent ties, rounded to even digit
@example(0.375)
@example(2.675)          # just below a tie in binary
@example(1.005)          # rounds down to N.00
@example(0.005)
@example(-0.004)         # rounds to -0.00
@example(9.995)          # carries into the units
def test_fmt_equals_plain_definition(x):
    assert _fmt(x) == plain_fmt(x)


@given(st.text())
@example("UAV&1")
@example("<R1>")
@example('"quoted" \'single\'')
@example("&amp;")
@example("&lt;&&gt;<>")
@example("Bucht-Ü & 電池 <é>")
def test_escape_equals_saxutils(text):
    assert escape(text) == saxutils.escape(text)


def bars_and_labels(svg: str):
    """(x, width, title) of every action bar and (x, text) of every task
    label, in document order."""
    doc = minidom.parseString(svg)
    bars = [(r.getAttribute("x"), r.getAttribute("width"),
             r.getElementsByTagName("title")[0].firstChild.data)
            for r in doc.getElementsByTagName("rect")
            if r.getElementsByTagName("title")]
    labels = [(t.getAttribute("x"), t.firstChild.data)
              for t in doc.getElementsByTagName("text")
              if t.getAttribute("font-weight") == "bold"
              and t.getAttribute("fill") == "white"]
    return bars, labels


def expected_bars_and_labels(schedule: Schedule):
    scale = _PLOT_W / max(schedule.makespan(), 1)
    bars, labels = [], []
    for uav_id in schedule.uav_order():
        for a in schedule.actions[uav_id]:
            x = _MARGIN_L + a.start * scale
            w = max((a.end - a.start) * scale, 0.5)
            bars.append((plain_fmt(x), plain_fmt(w),
                         f"{a.kind.value} {a.from_pos}->{a.to_pos} "
                         f"[{a.start},{a.end}]"))
            if a.kind is T and w >= 14:
                labels.append((plain_fmt(x + w / 2), str(a.task_id)))
    return bars, labels


def zero_length_schedule(lab):
    """The golden timeline with a zero-length action in every lane."""
    s = golden_schedule(lab)
    actions = {}
    for uav_id, acts in s.actions.items():
        end = acts[-1].end
        pos = acts[-1].to_pos
        actions[uav_id] = [*acts, Action(H, end, end, pos, pos),
                           Action(H, end, end + 3, pos, pos)]
    return Schedule(instance=lab, actions=actions)


def zero_makespan_schedule(lab):
    """Only zero-length actions at time 0, and an empty lane."""
    return Schedule(instance=lab, actions={
        "UAV1": [Action(H, 0, 0, "R1", "R1"), Action(T, 0, 0, "c", "c", 2)],
        "UAV2": [],
        "UAV3": [Action(W, 0, 0, "R2", "R2", station="R2")],
    })


def label_threshold_schedule(lab):
    """Makespan 980, so one second is one unit: a 14 s task bar is just
    wide enough for its label, a 13 s one is not."""
    return Schedule(instance=lab, actions={
        "UAV1": [Action(T, 0, 14, "c", "c", 2), Action(H, 14, 980, "c", "c")],
        "UAV3": [Action(T, 0, 13, "c", "c", 5)],
    })


@pytest.mark.parametrize("make", [
    golden_schedule,
    lambda lab: build_schedule(lab, FULL_COMPLETION),
    zero_length_schedule,
    zero_makespan_schedule,
    label_threshold_schedule,
])
def test_bars_and_labels_at_computed_positions(lab, make):
    schedule = make(lab)
    svg = render_gantt_svg(schedule, title="t")
    assert bars_and_labels(svg) == expected_bars_and_labels(schedule)
    assert svg == frozen_render_gantt_svg(schedule, title="t")


def test_label_needs_a_bar_14_units_wide(lab):
    _, labels = bars_and_labels(render_gantt_svg(
        label_threshold_schedule(lab)))
    assert labels == [(str(_MARGIN_L + 7), "2")]


def test_zero_length_bar_is_half_a_unit_wide(lab):
    bars, _ = bars_and_labels(render_gantt_svg(zero_length_schedule(lab)))
    assert sum(width == "0.5" for _, width, _ in bars) == len(lab.uavs)


def test_zero_makespan_draws_one_unit_of_axis(lab):
    svg = render_gantt_svg(zero_makespan_schedule(lab))
    bars, labels = bars_and_labels(svg)
    assert [width for _, width, _ in bars] == ["0.5"] * 3
    assert [x for x, _, _ in bars] == [str(_MARGIN_L)] * 3
    assert labels == []     # a 0.5-wide task bar is too narrow for a label
    ticks = [t.firstChild.data for t in
             minidom.parseString(svg).getElementsByTagName("text")
             if t.getAttribute("text-anchor") == "middle"
             and t.getAttribute("fill") == "#444"]
    assert ticks == ["0", "1", "time (s)"]


def frozen_render_gantt_svg(schedule: Schedule, title: str = "") -> str:
    """render_gantt_svg as it was before each lane's fixed text was
    built once and bar x values were formatted inline; kept as it
    was, on the module's unchanged helpers."""
    uavs = schedule.uav_order()
    span = max(schedule.makespan(), 1)
    scale = _PLOT_W / span
    height = _MARGIN_T + len(uavs) * (_LANE_H + _LANE_GAP) + _MARGIN_B
    width = _MARGIN_L + _PLOT_W + _MARGIN_R

    parts = _svg_head(width, height, title, _MARGIN_L)

    axis_y = _MARGIN_T + len(uavs) * (_LANE_H + _LANE_GAP)
    step = _axis_step(span)
    t = 0.0
    while t <= span + 1e-9:
        x = _fmt(_MARGIN_L + t * scale)
        parts.append(f'<line x1="{x}" y1="{_MARGIN_T}" x2="{x}" '
                     f'y2="{axis_y}" stroke="#E0E0E0" stroke-width="1"/>')
        parts.append(f'<text x="{x}" y="{axis_y + 14}" '
                     f'text-anchor="middle" fill="#444">{int(t)}</text>')
        t += step
    parts.append(f'<line x1="{_MARGIN_L}" y1="{axis_y}" '
                 f'x2="{_MARGIN_L + _PLOT_W}" y2="{axis_y}" '
                 f'stroke="#444" stroke-width="1"/>')
    parts.append(f'<text x="{_MARGIN_L + _PLOT_W / 2}" y="{axis_y + 32}" '
                 f'text-anchor="middle" fill="#444">time (s)</text>')

    esc = _Memo(escape)
    widths = _Memo(lambda duration: _fmt(max(duration * scale, 0.5)))
    add = parts.append
    for lane, uav_id in enumerate(uavs):
        y = _MARGIN_T + lane * (_LANE_H + _LANE_GAP)
        add(f'<text x="{_MARGIN_L - 8}" y="{y + _LANE_H / 2 + 4}" '
            f'text-anchor="end">{escape(uav_id)}</text>')
        for a in schedule.actions[uav_id]:
            start, end = a.start, a.end
            x = _MARGIN_L + start * scale
            # escape(f"{kind} {from}->{to} [{start},{end}]"), per id once
            add(f'<rect x="{_fmt(x)}" y="{y}" width="{widths[end - start]}'
                f'{_RECT_TAIL[a.kind]}{esc[a.from_pos]}-&gt;{esc[a.to_pos]} '
                f'[{start},{end}]</title></rect>')
            if (a.kind is ActionKind.TASK_EXEC
                    and (w := (end - start) * scale) >= 14):
                add(f'<text x="{_fmt(x + w / 2)}" y="{y + _LANE_H / 2 + 4}" '
                    f'text-anchor="middle" fill="white" '
                    f'font-weight="bold">{a.task_id}</text>')

    legend_x = _MARGIN_L
    legend_y = axis_y + 38
    for color, kind in _STYLE.values():
        add(f'<rect x="{legend_x}" y="{legend_y - 9}" width="12" '
            f'height="12" fill="{color}"/>')
        add(f'<text x="{legend_x + 16}" y="{legend_y + 1}" '
            f'fill="#444">{kind}</text>')
        legend_x += 16 + 7 * len(kind) + 24
    parts.append("</svg>\n")
    return "\n".join(parts)


@settings(max_examples=300, deadline=None)
@given(drawn_schedules(), st.just("") | AWKWARD_TEXT)
def test_same_bytes_as_frozen_renderer(schedule, title):
    assert render_gantt_svg(schedule, title) \
        == frozen_render_gantt_svg(schedule, title)
