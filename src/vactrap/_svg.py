"""Tiny hand-rolled SVG line plots.

Only what the command-line output needs: one axes box, a handful of
polylines, text labels.  No styling contract is promised; CSV remains the
canonical artifact and this exists so a sweep can be eyeballed without
extra tooling.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
#: Canvas size in pixels.
_WIDTH, _HEIGHT = 720, 480


def _finite_range(values: np.ndarray) -> tuple[float, float]:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return 0.0, 1.0
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        pad = abs(lo) * 0.05 + 1e-12
        return lo - pad, hi + pad
    return lo, hi


def line_plot(
    x: Sequence[float],
    ys: Sequence[Sequence[float]],
    labels: Sequence[str],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_x: bool = False,
    log_y: bool = False,
) -> str:
    """Render polylines over a shared x grid into an SVG document string."""
    if len(ys) != len(labels):
        raise ValueError(f"{len(ys)} series but {len(labels)} labels")
    margin_l, margin_r, margin_t, margin_b = 70, 20, 40, 55
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    xa = np.asarray(x, dtype=float)
    series = [np.asarray(y, dtype=float) for y in ys]
    if log_x:
        xa = np.log10(np.where(xa > 0, xa, np.nan))
    if log_y:
        series = [np.log10(np.where(np.abs(s) > 0, np.abs(s), np.nan)) for s in series]

    x_lo, x_hi = _finite_range(xa)
    y_lo, y_hi = _finite_range(np.concatenate(series) if series else np.array([0.0]))

    def sx(v: float) -> float:
        return margin_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return margin_t + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{margin_l + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{x_label}{' (log10)' if log_x else ''}</text>"
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})" '
            f'font-family="sans-serif" font-size="12">'
            f"{y_label}{' (log10)' if log_y else ''}</text>"
        )

    # sparse tick labels: ends and middle of each axis
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{margin_t + plot_h + 18:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{xv:.4g}</text>"
        )
        parts.append(
            f'<text x="{margin_l - 8:.1f}" y="{sy(yv) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )

    for idx, (s, label) in enumerate(zip(series, labels)):
        color = _COLORS[idx % len(_COLORS)]
        pts = [
            f"{sx(xi):.2f},{sy(yi):.2f}"
            for xi, yi in zip(xa, s)
            if math.isfinite(xi) and math.isfinite(yi)
        ]
        if pts:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{margin_l + plot_w - 6}" y="{margin_t + 16 + 15 * idx}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
