"""Deterministic CSV/JSON/SVG emission for scan and report data.

All writers format floats through a fixed %.12g so identical inputs yield
byte-identical files.  NaN/Inf are never written: scan rows with an
undefined Mandel parameter are dropped and tallied in a footer comment.
SVG text content is XML-escaped, so selectors such as ``pair:a1<->a2``
stay well-formed.
"""

from __future__ import annotations

import html
import json

import numpy as np

from .units import CM1_TO_PS1

__all__ = [
    "scan_csv",
    "rate_function_csv",
    "scan_svg",
    "dump_json",
    "channel_slug",
    "format_temperature",
]


def _csv_rows(rows, width: int) -> list[str]:
    """A float table as %.12g CSV text (digits as ``f"{x:.12g}"``), formatted
    by one ``%`` over the flattened table; no text for an empty table."""
    flat = np.asarray(rows, dtype=float).reshape(-1)
    finite = np.isfinite(flat)
    if not finite.all():
        raise ValueError(f"refusing to write non-finite value {flat[~finite][0]}")
    if not flat.size:
        return []
    row = ",".join(["%.12g"] * width)
    return ["\n".join([row] * (flat.size // width)) % tuple(flat.tolist())]


def channel_slug(selector: str) -> str:
    """Filesystem-safe tag for a channel selector."""
    out = []
    for c in selector:
        out.append(c if c.isalnum() else "_")
    slug = "".join(out)
    while "__" in slug:
        slug = slug.replace("__", "_")
    return slug.strip("_")


def format_temperature(t: float) -> str:
    return f"{t:g}"


def scan_csv(points, comment: str | None = None) -> str:
    """ScanPoint rows as CSV with a units header.

    Rows where Mandel is undefined are omitted; their count lands in a
    trailing comment so the row count stays auditable.
    """
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("s,theta_cm1,activity_cm1,activity_ps1,mandel")
    rows = [
        (p.s, p.theta, p.activity, p.activity * CM1_TO_PS1, p.mandel)
        for p in points
        if p.mandel is not None
    ]
    lines += _csv_rows(rows, 5)
    omitted = len(points) - len(rows)
    if omitted:
        lines.append(f"# omitted_rows_undefined_mandel={omitted}")
    return "\n".join(lines) + "\n"


def rate_function_csv(points, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("k_cm1,k_ps1,phi_cm1")
    lines += _csv_rows([(p.k, p.k * CM1_TO_PS1, p.phi) for p in points], 3)
    return "\n".join(lines) + "\n"


def dump_json(doc) -> str:
    """Canonical JSON text: sorted keys, fixed indentation, newline at EOF."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _polyline(xs, ys, x0, y0, w, h) -> str:
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = x0 + (x - xmin) / xspan * w
        py = y0 + h - (y - ymin) / yspan * h
        pts.append(f"{px:.2f},{py:.2f}")
    return " ".join(pts)


def _panel(xs, ys, title: str, x0: int, y0: int, w: int, h: int) -> list[str]:
    title = html.escape(title, quote=False)
    parts = [
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" stroke="black"/>',
        f'<text x="{x0 + 4}" y="{y0 + 14}" font-size="12">{title}</text>',
        f'<text x="{x0}" y="{y0 + h + 14}" font-size="10">s: {min(xs):.3g} .. {max(xs):.3g}'
        f'   y: {min(ys):.6g} .. {max(ys):.6g}</text>',
        f'<polyline fill="none" stroke="black" stroke-width="1" '
        f'points="{_polyline(xs, ys, x0, y0, w, h)}"/>',
    ]
    if min(ys) < 0 < max(ys):
        zero_y = y0 + h - (0 - min(ys)) / (max(ys) - min(ys)) * h
        parts.append(
            f'<line x1="{x0}" y1="{zero_y:.2f}" x2="{x0 + w}" y2="{zero_y:.2f}" '
            'stroke="gray" stroke-dasharray="4"/>'
        )
    return parts


def scan_svg(points, title: str) -> str:
    """Two stacked line panels: theta(s) on top, Q(s) below."""
    s = [p.s for p in points]
    th = [p.theta for p in points]
    q_pts = [(p.s, p.mandel) for p in points if p.mandel is not None]
    body = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="560" '
        'viewBox="0 0 640 560">',
        f'<text x="20" y="20" font-size="13">{html.escape(title, quote=False)}</text>',
    ]
    body += _panel(s, th, "theta(s) [cm^-1]", 40, 40, 560, 200)
    if q_pts:
        body += _panel(
            [x for x, _ in q_pts], [y for _, y in q_pts], "Q(s)", 40, 300, 560, 200
        )
    body.append("</svg>")
    return "\n".join(body) + "\n"
