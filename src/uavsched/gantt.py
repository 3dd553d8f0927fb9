"""Deterministic SVG rendering for schedules and search history.

No plotting dependency: the charts are simple enough that emitting SVG
text directly keeps output byte-stable across runs and platforms.
"""

from __future__ import annotations

from .model import ActionKind, Schedule

ACTION_COLORS = {
    ActionKind.FLIGHT: "#4C9ED9",
    ActionKind.TASK_EXEC: "#59A14F",
    ActionKind.HOVER: "#EDC948",
    ActionKind.WAIT_ON_GROUND: "#9D9D9D",
    ActionKind.RECHARGE: "#E15759",
}
_STYLE = {k: (color, k.value) for k, color in ACTION_COLORS.items()}
_EXEC = ActionKind.TASK_EXEC    # a module global reads faster than the member

_LANE_H = 34
_LANE_GAP = 10
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 30
_MARGIN_B = 46
_PLOT_W = 980
# a bar's <rect> after its width, up to its title's from position
_RECT_TAIL = {k: f'" height="{_LANE_H}" fill="{color}" stroke="white" '
                 f'stroke-width="0.5"><title>{kind} '
              for k, (color, kind) in _STYLE.items()}


class _Memo(dict):
    """key -> fn(key), computed once per key."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        out = self[key] = self.fn(key)
        return out


def escape(text: str) -> str:
    """`xml.sax.saxutils.escape`: `&`, `<` and `>` as entities, `&`
    first. Written out here because importing `xml.sax` also loads
    `urllib.request`, `http.client`, `ssl` and `email`."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    text = f"{x:.2f}"
    return text if text[-1] != "0" else text.rstrip("0").rstrip(".")


def _svg_head(width, height, title: str, title_x) -> list[str]:
    """A chart's opening tag, white background and bold title, if any."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{title_x}" y="18" font-size="13" '
                     f'font-weight="bold">{escape(title)}</text>')
    return parts


def _axis_step(span: float) -> float:
    # Aim for about 8 labelled ticks with a 1/2/5 progression.
    raw = max(span / 8.0, 1.0)
    mag = 10 ** len(str(int(raw))) / 10
    return next((mag * m for m in (1, 2, 5) if mag * m >= raw), mag * 10)


def render_gantt_svg(schedule: Schedule, title: str = "") -> str:
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
    add = parts.append
    for lane, uav_id in enumerate(uavs):
        # each lane's fixed text once: its bars' y, its labels' y
        y = _MARGIN_T + lane * (_LANE_H + _LANE_GAP)
        bar_y = f'" y="{y}" width="'
        label_y = f'" y="{y + _LANE_H / 2 + 4}" '
        task_label = (f'{label_y}text-anchor="middle" fill="white" '
                      f'font-weight="bold">')
        add(f'<text x="{_MARGIN_L - 8}{label_y}text-anchor="end">'
            f'{escape(uav_id)}</text>')
        for a in schedule.actions[uav_id]:
            kind, start, end = a.kind, a.start, a.end
            x = _MARGIN_L + start * scale
            w = (end - start) * scale
            # _fmt(x) and _fmt(max(w, 0.5)), inline
            x_text = f"{x:.2f}"
            if x_text[-1] == "0":
                x_text = x_text.rstrip("0").rstrip(".")
            w_text = f"{w if w >= 0.5 else 0.5:.2f}"
            if w_text[-1] == "0":
                w_text = w_text.rstrip("0").rstrip(".")
            # escape(f"{kind} {from}->{to} [{start},{end}]"), per id once
            add(f'<rect x="{x_text}{bar_y}{w_text}'
                f'{_RECT_TAIL[kind]}{esc[a.from_pos]}-&gt;{esc[a.to_pos]} '
                f'[{start},{end}]</title></rect>')
            if kind is _EXEC and w >= 14:
                x_text = f"{x + w / 2:.2f}"
                if x_text[-1] == "0":
                    x_text = x_text.rstrip("0").rstrip(".")
                add(f'<text x="{x_text}{task_label}{a.task_id}</text>')

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


def render_history_svg(history, title: str = "") -> str:
    """Line chart of best and mean fitness per iteration."""
    width, height = 640, 360
    ml, mr, mt, mb = 60, 20, 30, 40
    pw, ph = width - ml - mr, height - mt - mb

    its = [h[0] for h in history]
    bests = [h[1] for h in history]
    means = [h[2] for h in history]
    x_max = max(max(its), 1)
    lo = min(bests)
    hi = max(means + bests)
    if hi <= lo:
        hi = lo + 1

    def sx(i):
        return ml + i / x_max * pw

    def sy(v):
        return mt + (hi - v) / (hi - lo) * ph

    parts = _svg_head(width, height, title, ml)
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" '
                 f'y2="{mt + ph}" stroke="#444"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" '
                 f'stroke="#444"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        y = sy(v)
        parts.append(f'<line x1="{ml}" y1="{_fmt(y)}" x2="{ml + pw}" '
                     f'y2="{_fmt(y)}" stroke="#EEE"/>')
        parts.append(f'<text x="{ml - 6}" y="{_fmt(y + 4)}" '
                     f'text-anchor="end" fill="#444">{int(v)}</text>')
    tick = max(1, x_max // 8)
    for i in range(0, x_max + 1, tick):
        parts.append(f'<text x="{_fmt(sx(i))}" y="{mt + ph + 16}" '
                     f'text-anchor="middle" fill="#444">{i}</text>')
    parts.append(f'<text x="{ml + pw / 2}" y="{height - 8}" '
                 f'text-anchor="middle" fill="#444">iteration</text>')

    mean_pts = " ".join(f"{_fmt(sx(i))},{_fmt(sy(v))}"
                        for i, v in zip(its, means))
    best_pts = " ".join(f"{_fmt(sx(i))},{_fmt(sy(v))}"
                        for i, v in zip(its, bests))
    parts.append(f'<polyline points="{mean_pts}" fill="none" '
                 f'stroke="#EDC948" stroke-width="1.5"/>')
    parts.append(f'<polyline points="{best_pts}" fill="none" '
                 f'stroke="#4C9ED9" stroke-width="2"/>')
    for i, v in zip(its, bests):
        parts.append(f'<circle cx="{_fmt(sx(i))}" cy="{_fmt(sy(v))}" r="2.5" '
                     f'fill="#4C9ED9"/>')
    parts.append(f'<rect x="{ml + pw - 150}" y="{mt + 6}" width="142" '
                 f'height="40" fill="white" stroke="#CCC"/>')
    parts.append(f'<line x1="{ml + pw - 140}" y1="{mt + 18}" '
                 f'x2="{ml + pw - 116}" y2="{mt + 18}" stroke="#4C9ED9" '
                 f'stroke-width="2"/>')
    parts.append(f'<text x="{ml + pw - 110}" y="{mt + 22}">best makespan</text>')
    parts.append(f'<line x1="{ml + pw - 140}" y1="{mt + 34}" '
                 f'x2="{ml + pw - 116}" y2="{mt + 34}" stroke="#EDC948" '
                 f'stroke-width="2"/>')
    parts.append(f'<text x="{ml + pw - 110}" y="{mt + 38}">swarm mean</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
