"""Deterministic CSV/JSON/SVG emission for scan and report data.

The scan writers take numpy columns (an ``lds.ScanResult``, or the k and
phi columns of ``lds.rate_function``) and format whole tables with one
``%`` each.  All writers format floats through a fixed %.12g so identical
inputs yield byte-identical files.  NaN/Inf are never written: scan rows
whose Mandel column is NaN (undefined) are dropped and tallied in a footer
comment, and any other non-finite value is refused with a ValueError.
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


def _refuse_non_finite(table: np.ndarray) -> None:
    finite = np.isfinite(table)
    if not finite.all():
        raise ValueError(f"refusing to write non-finite value {table[~finite][0]}")


def _csv_rows(table: np.ndarray) -> list[str]:
    """A 2-D float table as %.12g CSV text (digits as ``f"{x:.12g}"``),
    formatted by one ``%`` over the flattened table; no text for an empty
    table."""
    _refuse_non_finite(table)
    if not table.size:
        return []
    n_rows, width = table.shape
    row = ",".join(["%.12g"] * width)
    return ["\n".join([row] * n_rows) % tuple(table.reshape(-1).tolist())]


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


def scan_csv(result, comment: str | None = None) -> str:
    """The columns of an ``lds.ScanResult`` as CSV with a units header.

    Rows where Mandel is undefined (NaN) are omitted; their count lands in
    a trailing comment so the row count stays auditable.  s, theta and the
    activity must be finite on every row.
    """
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("s,theta_cm1,activity_cm1,activity_ps1,mandel")
    table = np.column_stack(
        (result.s, result.theta, result.activity, result.activity * CM1_TO_PS1,
         result.mandel)
    )
    _refuse_non_finite(table[:, :4])
    defined = ~np.isnan(result.mandel)
    lines += _csv_rows(table[defined])
    omitted = int(defined.size - defined.sum())
    if omitted:
        lines.append(f"# omitted_rows_undefined_mandel={omitted}")
    return "\n".join(lines) + "\n"


def rate_function_csv(k, phi, comment: str | None = None) -> str:
    """The k and phi(k) columns of ``lds.rate_function`` as CSV."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("k_cm1,k_ps1,phi_cm1")
    lines += _csv_rows(np.column_stack((k, k * CM1_TO_PS1, phi)))
    return "\n".join(lines) + "\n"


def dump_json(doc) -> str:
    """Canonical JSON text: sorted keys, fixed indentation, newline at EOF."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _polyline(xs, ys, x0, y0, w, h) -> str:
    """Pixel coordinates of the arrays (xs, ys) as SVG points text, formatted
    by one ``%`` over the flattened (x, y) pairs."""
    xmin, xmax = xs.min(), xs.max()
    ymin, ymax = ys.min(), ys.max()
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    px = x0 + (xs - xmin) / xspan * w
    py = (y0 + h) - (ys - ymin) / yspan * h
    pairs = np.column_stack((px, py)).reshape(-1)
    return " ".join(["%.2f,%.2f"] * xs.size) % tuple(pairs.tolist())


def _panel(xs, ys, title: str, x0: int, y0: int, w: int, h: int) -> list[str]:
    title = html.escape(title, quote=False)
    ymin, ymax = ys.min(), ys.max()
    parts = [
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" stroke="black"/>',
        f'<text x="{x0 + 4}" y="{y0 + 14}" font-size="12">{title}</text>',
        f'<text x="{x0}" y="{y0 + h + 14}" font-size="10">s: {xs.min():.3g} .. {xs.max():.3g}'
        f'   y: {ymin:.6g} .. {ymax:.6g}</text>',
        f'<polyline fill="none" stroke="black" stroke-width="1" '
        f'points="{_polyline(xs, ys, x0, y0, w, h)}"/>',
    ]
    if ymin < 0 < ymax:
        zero_y = y0 + h - (0 - ymin) / (ymax - ymin) * h
        parts.append(
            f'<line x1="{x0}" y1="{zero_y:.2f}" x2="{x0 + w}" y2="{zero_y:.2f}" '
            'stroke="gray" stroke-dasharray="4"/>'
        )
    return parts


def scan_svg(result, title: str) -> str:
    """Two stacked line panels of an ``lds.ScanResult``: theta(s) on top,
    Q(s) below over the points where Q is defined (no panel if none is)."""
    defined = ~np.isnan(result.mandel)
    body = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="560" '
        'viewBox="0 0 640 560">',
        f'<text x="20" y="20" font-size="13">{html.escape(title, quote=False)}</text>',
    ]
    body += _panel(result.s, result.theta, "theta(s) [cm^-1]", 40, 40, 560, 200)
    if defined.any():
        body += _panel(
            result.s[defined], result.mandel[defined], "Q(s)", 40, 300, 560, 200
        )
    body.append("</svg>")
    return "\n".join(body) + "\n"
