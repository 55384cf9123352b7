"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: identical input produces byte-identical files, which
plotting libraries do not guarantee (embedded ids, timestamps). Only what the
CLI needs: polylines over [0,1] with axes, ticks and a legend.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 20, 20, 50
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def emit_plot(profiles, path) -> None:
    """Write a standalone SVG with one polyline per (label, GridFunction).

    The y-range is the data range padded by 5 percent; degenerate ranges fall
    back to [-1, 1]. Output depends only on the inputs.
    """
    if not profiles:
        raise DomainError("emit_plot needs at least one profile")
    ymin = min(float(np.min(gf.values)) for _, gf in profiles)
    ymax = max(float(np.max(gf.values)) for _, gf in profiles)
    if ymax - ymin < 1e-15:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin -= pad
    ymax += pad
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(x):
        return _ML + pw * x

    def sy(y):
        return _MT + ph * (ymax - y) / (ymax - ymin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    # axes
    parts.append(
        f'<line x1="{sx(0):.2f}" y1="{sy(ymin):.2f}" x2="{sx(1):.2f}" '
        f'y2="{sy(ymin):.2f}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{sx(0):.2f}" y1="{sy(ymin):.2f}" x2="{sx(0):.2f}" '
        f'y2="{sy(ymax):.2f}" stroke="black" stroke-width="1"/>'
    )
    for i in range(5):
        xv = i / 4.0
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(xv)}</text>'
        )
        yv = ymin + (ymax - ymin) * i / 4.0
        parts.append(
            f'<text x="{_ML - 6}" y="{sy(yv) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">x</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.1f})">u(x)</text>'
    )
    for idx, (label, gf) in enumerate(profiles):
        color = _PALETTE[idx % len(_PALETTE)]
        # sx and sy on whole arrays: the same operations in the same order,
        # so each point gets the bits of the scalar call
        pts = " ".join(map("%.2f,%.2f".__mod__,
                           zip(sx(gf.x).tolist(), sy(gf.values).tolist())))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 16 * idx
        parts.append(
            f'<line x1="{_ML + 8}" y1="{ly}" x2="{_ML + 32}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_ML + 38}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
