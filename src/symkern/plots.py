"""Self-contained SVG line plots, written directly for byte determinism.

One polyline per series, log or linear axes, decade ticks on log axes.
Nonpositive values on a log axis are clamped to LOG_FLOOR and flagged in
an SVG comment.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySeries

WIDTH, HEIGHT = 760, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 170, 40, 56
LOG_FLOOR = 1e-18
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")


def _f(x) -> str:
    return f"{x:.6f}"


def _prep(values, scale):
    v = np.asarray(values, dtype=float)
    clamped = 0
    if scale == "log":
        bad = v <= 0
        clamped = int(np.sum(bad))
        v = np.where(bad, LOG_FLOOR, v)
        v = np.log10(v)
    return v, clamped


def _ticks(lo, hi, scale):
    if scale == "log":
        first, last = int(np.floor(lo)), int(np.ceil(hi))
        step = max(1, (last - first) // 8)
        return [(t, f"1e{t}") for t in range(first, last + 1, step)]
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min((s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw), default=raw)
    first = np.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * max(1.0, abs(hi)):
        ticks.append((t, f"{t:g}"))
        t += step
    return ticks


def emit_line_plot(path, series, xscale="linear", yscale="log",
                   xlabel="", ylabel="", title=""):
    """Write an SVG with one polyline per (label, x, y) series."""
    if not series:
        raise EmptySeries("no series to plot")
    for s in series:
        if len(s.x) == 0:
            raise EmptySeries(f"series {s.label!r} is empty")

    xs, ys, clamp_notes = [], [], []
    for s in series:
        x, cx = _prep(s.x, xscale)
        y, cy = _prep(s.y, yscale)
        xs.append(x)
        ys.append(y)
        if cx or cy:
            clamp_notes.append(f"{s.label}: {cx + cy} values clamped to {LOG_FLOOR:g}")
    x_lo = min(float(np.min(x)) for x in xs)
    x_hi = max(float(np.max(x)) for x in xs)
    y_lo = min(float(np.min(y)) for y in ys)
    y_hi = max(float(np.max(y)) for y in ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return HEIGHT - MARGIN_B - (v - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for note in clamp_notes:
        out.append(f"<!-- clamped: {note} -->")
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    for tx, label in _ticks(x_lo, x_hi, xscale):
        X = px(tx)
        out.append(f'<line x1="{_f(X)}" y1="{HEIGHT - MARGIN_B}" x2="{_f(X)}" '
                   f'y2="{HEIGHT - MARGIN_B + 5}" stroke="#444444"/>')
        out.append(f'<text x="{_f(X)}" y="{HEIGHT - MARGIN_B + 20}" font-size="12" '
                   f'text-anchor="middle">{label}</text>')
    for ty, label in _ticks(y_lo, y_hi, yscale):
        Y = py(ty)
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{_f(Y)}" x2="{MARGIN_L}" '
                   f'y2="{_f(Y)}" stroke="#444444"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{_f(Y + 4)}" font-size="12" '
                   f'text-anchor="end">{label}</text>')
    for i, (s, x, y) in enumerate(zip(series, xs, ys)):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_f(px(a))},{_f(py(b))}" for a, b in zip(x, y))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                   f'points="{pts}"/>')
        ly = MARGIN_T + 16 + 18 * i
        lx = WIDTH - MARGIN_R + 12
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-size="12">{s.label}</text>')
    if title:
        out.append(f'<text x="{WIDTH // 2}" y="24" font-size="14" '
                   f'text-anchor="middle">{title}</text>')
    if xlabel:
        out.append(f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 12}" font-size="13" '
                   f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="18" y="{MARGIN_T + plot_h // 2}" font-size="13" '
                   f'text-anchor="middle" transform="rotate(-90 18 {MARGIN_T + plot_h // 2})">'
                   f'{ylabel}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(out) + "\n")
