"""Number formatting and escaping in the Gantt chart: `_fmt` against its
plain definition, `escape` against `xml.sax.saxutils.escape`, and every
bar and task label of a chart against positions computed directly from
the schedule, zero-length actions and a zero makespan included."""

from xml.dom import minidom
from xml.sax import saxutils

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from uavsched.eat import build_schedule
from uavsched.gantt import (_MARGIN_L, _PLOT_W, _fmt, escape,
                            render_gantt_svg)
from uavsched.model import Action, ActionKind, Schedule

from conftest import FULL_COMPLETION, golden_schedule

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
    got = bars_and_labels(render_gantt_svg(schedule, title="t"))
    assert got == expected_bars_and_labels(schedule)


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
