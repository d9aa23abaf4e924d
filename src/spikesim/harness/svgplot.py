"""Minimal deterministic SVG rendering of sweep reports.

Hand-rolled on purpose: the output must be byte-identical across runs and
machines, so no plotting library (font discovery, version strings, timestamps)
is allowed anywhere near the bytes.
"""

from __future__ import annotations

import numpy as np

from .report import SweepReport

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50

SERIES_COLORS = {"truth-or-haar": "#1f6fb4", "gaussian-additive": "#c75127"}
PREDICTION_COLOR = "#2e8b3d"
TITLE = "average loss vs signal strength"


def _px(x: float) -> str:
    return f"{x:.2f}"


class _Axes:
    def __init__(self, xmin, xmax, ymin, ymax):
        self.xmin, self.xmax = xmin, xmax
        self.ymin, self.ymax = ymin, ymax
        self.plot_w = WIDTH - MARGIN_L - MARGIN_R
        self.plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def x(self, v: float) -> float:
        frac = (v - self.xmin) / (self.xmax - self.xmin)
        return MARGIN_L + frac * self.plot_w

    def y(self, v: float) -> float:
        frac = (v - self.ymin) / (self.ymax - self.ymin)
        return HEIGHT - MARGIN_B - frac * self.plot_h


def _axes_for(reports) -> _Axes:
    thetas = [s.theta for r in reports for s in r.summaries]
    highs = [s.empirical_mean + s.empirical_std for r in reports for s in r.summaries]
    highs += [s.prediction_mean for r in reports for s in r.summaries]
    top = max(highs) if highs else 0.0
    return _Axes(min(thetas) - 0.1, max(thetas) + 0.1,
                 0.0, 1.1 * top if top > 0 else 1.0)


def render_sweep_svg(reports) -> str:
    """Render one or more sweep reports into a single SVG string titled ``TITLE``.

    Empirical means are drawn with +-stderr bars; the prediction curve of the
    first report is overlaid (reports sharing a grid share predictions).
    """
    if isinstance(reports, SweepReport):
        reports = [reports]
    reports = list(reports)
    if not reports or not any(r.summaries for r in reports):
        raise ValueError("nothing to plot: reports have no summaries")
    ax = _axes_for(reports)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_px(WIDTH / 2)}" y="22" font-family="monospace" font-size="13" '
        f'text-anchor="middle">{TITLE}</text>',
    ]
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    # axis frame and ticks
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#000000"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#000000"/>')
    for tx in np.linspace(ax.xmin, ax.xmax, 6):
        px = ax.x(tx)
        parts.append(f'<line x1="{_px(px)}" y1="{y0}" x2="{_px(px)}" y2="{y0 + 5}" '
                     'stroke="#000000"/>')
        parts.append(f'<text x="{_px(px)}" y="{y0 + 18}" font-family="monospace" '
                     f'font-size="10" text-anchor="middle">{tx:.2f}</text>')
    for ty in np.linspace(ax.ymin, ax.ymax, 5):
        py = ax.y(ty)
        parts.append(f'<line x1="{x0 - 5}" y1="{_px(py)}" x2="{x0}" y2="{_px(py)}" '
                     'stroke="#000000"/>')
        parts.append(f'<text x="{x0 - 8}" y="{_px(py + 3)}" font-family="monospace" '
                     f'font-size="10" text-anchor="end">{ty:.3f}</text>')
    parts.append(f'<text x="{_px((x0 + x1) / 2)}" y="{HEIGHT - 12}" '
                 'font-family="monospace" font-size="11" text-anchor="middle">theta</text>')
    parts.append(f'<text x="14" y="{_px((y0 + y1) / 2)}" font-family="monospace" '
                 f'font-size="11" text-anchor="middle" '
                 f'transform="rotate(-90 14 {_px((y0 + y1) / 2)})">average loss</text>')
    # prediction curve from the first report
    first = reports[0]
    pts = " ".join(f"{_px(ax.x(s.theta))},{_px(ax.y(s.prediction_mean))}"
                   for s in first.summaries)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="{PREDICTION_COLOR}" '
                 'stroke-width="1.5"/>')
    legend_y = MARGIN_T + 4
    parts.append(f'<line x1="{x1 - 150}" y1="{legend_y + 4}" x2="{x1 - 130}" '
                 f'y2="{legend_y + 4}" stroke="{PREDICTION_COLOR}" stroke-width="1.5"/>')
    parts.append(f'<text x="{x1 - 125}" y="{legend_y + 8}" font-family="monospace" '
                 'font-size="10">prediction</text>')
    for k, report in enumerate(reports):
        color = SERIES_COLORS[report.config.noise_model]
        for s in report.summaries:
            px, py = ax.x(s.theta), ax.y(s.empirical_mean)
            stderr = s.empirical_std / np.sqrt(report.config.trials)
            lo, hi = ax.y(s.empirical_mean - stderr), ax.y(s.empirical_mean + stderr)
            parts.append(f'<line x1="{_px(px)}" y1="{_px(lo)}" x2="{_px(px)}" '
                         f'y2="{_px(hi)}" stroke="{color}"/>')
            for cap in (lo, hi):
                parts.append(f'<line x1="{_px(px - 3)}" y1="{_px(cap)}" '
                             f'x2="{_px(px + 3)}" y2="{_px(cap)}" stroke="{color}"/>')
            parts.append(f'<circle cx="{_px(px)}" cy="{_px(py)}" r="3" fill="{color}"/>')
        label = (f"{report.config.group} {report.config.noise_model} "
                 f"n={report.config.n}")
        ly = legend_y + 14 * (k + 1)
        parts.append(f'<circle cx="{x1 - 145}" cy="{_px(ly + 4)}" r="3" fill="{color}"/>')
        parts.append(f'<text x="{x1 - 135}" y="{_px(ly + 8)}" font-family="monospace" '
                     f'font-size="10">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_sweep_svg(reports, path: str) -> None:
    text = render_sweep_svg(reports)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
