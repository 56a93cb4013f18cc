"""Deterministic artifact writers: JSON records, CSV tables, SVG scatter.

Identical inputs must produce identical bytes, so keys are sorted, floats
are written with repr (shortest round-trip form), and nothing here touches
clocks or locale.
"""

from __future__ import annotations

import json

__all__ = [
    "render_json",
    "load_json",
    "format_cell",
    "render_csv",
    "render_scatter_svg",
]


def render_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_json(path: str):
    """The JSON value in the file at path. An object that repeats a key
    raises ValueError rather than keep the last value silently."""
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_field(text: str) -> str:
    # RFC 4180: quote a field holding a delimiter, quote or line break and
    # double its quotes; every other field is written as is
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(rows, columns=None) -> str:
    """CSV text from dict rows; column order is given or first-seen order."""
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    lines = [",".join(_csv_field(col) for col in columns)]
    for row in rows:
        lines.append(",".join(_csv_field(format_cell(row.get(col)))
                              for col in columns))
    return "\n".join(lines) + "\n"


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f")


def render_scatter_svg(points, title: str) -> str:
    """Minimal labeled scatter of (identity score, style score, label) points
    over [0, 1]^2; returns the SVG text."""
    w, h, pad = 480, 360, 48

    def px(x):
        return pad + x * (w - 2 * pad)

    def py(y):
        return h - pad - y * (h - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}"'
        f' viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(1)}" y2="{py(0)}" stroke="black"/>',
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(0)}" y2="{py(1)}" stroke="black"/>',
        f'<text x="{w / 2}" y="{h - 10}" text-anchor="middle" font-size="11">identity score</text>',
        f'<text x="14" y="{h / 2}" text-anchor="middle" font-size="11"'
        f' transform="rotate(-90 14 {h / 2})">style score</text>',
    ]
    for tick in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{px(tick)}" y="{py(0) + 16}" text-anchor="middle"'
            f' font-size="10">{tick:g}</text>')
        parts.append(
            f'<text x="{px(0) - 8}" y="{py(tick) + 3}" text-anchor="end"'
            f' font-size="10">{tick:g}</text>')
    for i, (x, y, label) in enumerate(points):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        cx, cy = px(min(max(x, 0.0), 1.0)), py(min(max(y, 0.0), 1.0))
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="5" fill="{color}"/>')
        parts.append(
            f'<text x="{cx + 8:.2f}" y="{cy - 6:.2f}" font-size="10">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
