import math
import re

import numpy as np
import pytest

from excount.lds import ScanResult
from excount.output import rate_function_csv, scan_csv, scan_svg
from excount.units import CM1_TO_PS1


def per_value_csv(header, rows, comment):
    """The CSV text formatted one value at a time, as f"{x:.12g}"."""
    lines = [f"# {comment}", header]
    lines += [",".join(f"{x:.12g}" for x in row) for row in rows]
    return lines


def spread_values(seed, size, extremes=True):
    """Signed values spread over 40 decades, with zeros and (by default)
    extremes."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-20.0, 20.0, size)
    values[:6] = [0.0, -0.0, 1e-300, -5e-324, 1.7976931348623157e308, 0.1]
    if not extremes:
        values[2:5] = [1e-20, -1e20, 1e20]
    return values


def scan_result(table):
    """A ScanResult from rows (s, theta, activity, mandel)."""
    return ScanResult(*np.array(table, dtype=float).T.copy())


def test_scan_csv_matches_per_value_formatting():
    table = spread_values(1, 4000).reshape(-1, 4)
    table[7] = (1.0, 2.0, 3.0, math.nan)
    table[9] = (1.5, 2.5, 3.5, math.nan)
    rows = [
        (s, th, act, act * CM1_TO_PS1, q)
        for s, th, act, q in table.tolist()
        if not math.isnan(q)
    ]
    assert len(rows) == len(table) - 2
    expected = per_value_csv("s,theta_cm1,activity_cm1,activity_ps1,mandel", rows, "m")
    expected.append("# omitted_rows_undefined_mandel=2")
    assert scan_csv(scan_result(table), "m") == "\n".join(expected) + "\n"


def test_rate_function_csv_matches_per_value_formatting():
    k, phi = spread_values(2, 3000).reshape(-1, 2).T
    rows = [(x, x * CM1_TO_PS1, y) for x, y in zip(k.tolist(), phi.tolist())]
    expected = per_value_csv("k_cm1,k_ps1,phi_cm1", rows, "m")
    assert rate_function_csv(k, phi, "m") == "\n".join(expected) + "\n"


def test_empty_tables_write_header_only():
    assert scan_csv(scan_result([(0.0, 0.0, 0.0, math.nan)])) == (
        "s,theta_cm1,activity_cm1,activity_ps1,mandel\n"
        "# omitted_rows_undefined_mandel=1\n"
    )
    assert rate_function_csv(np.array([]), np.array([])) == "k_cm1,k_ps1,phi_cm1\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_refused(bad):
    message = f"refusing to write non-finite value {bad}"
    with pytest.raises(ValueError, match=message):
        scan_csv(scan_result([(0.0, 1.0, 2.0, 0.5), (1.0, 1.0, bad, 0.5)]))
    with pytest.raises(ValueError, match=message):
        scan_csv(scan_result([(0.0, 1.0, 2.0, 0.5), (1.0, bad, 1.0, 0.5)]))
    # an undefined Q drops its row, but not the check of the other columns
    for column in (1, 2):
        row = [1.0, 1.0, 1.0, math.nan]
        row[column] = bad
        with pytest.raises(ValueError, match=message):
            scan_csv(scan_result([(0.0, 1.0, 2.0, 0.5), row]))
    with pytest.raises(ValueError, match=message):
        rate_function_csv(np.array([1.0]), np.array([bad]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_infinite_mandel_refused(bad):
    with pytest.raises(ValueError, match=f"refusing to write non-finite value {bad}"):
        scan_csv(scan_result([(0.0, 1.0, 2.0, 0.5), (1.0, 1.0, 1.0, bad)]))


def per_point_polyline(xs, ys, x0, y0, w, h):
    """SVG points text formatted one point at a time, as f"{px:.2f},{py:.2f}"."""
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


def polylines(svg):
    return re.findall(r'<polyline [^>]*points="([^"]*)"/>', svg)


@pytest.mark.parametrize("seed", [3, 4])
def test_scan_svg_matches_per_point_formatting(seed):
    table = spread_values(seed, 2000, extremes=False).reshape(-1, 4)
    table[[5, 11, 12, 400], 3] = math.nan  # undefined Q
    s, th, _, q = table.T.tolist()
    defined = [i for i, x in enumerate(q) if not math.isnan(x)]
    assert len(defined) == len(q) - 4
    svg = scan_svg(scan_result(table), "title")
    assert polylines(svg) == [
        per_point_polyline(s, th, 40, 40, 560, 200),
        per_point_polyline([s[i] for i in defined], [q[i] for i in defined], 40, 300, 560, 200),
    ]
    qs = [q[i] for i in defined]
    assert f"y: {min(qs):.6g} .. {max(qs):.6g}</text>" in svg
    assert f"s: {min(s):.3g} .. {max(s):.3g}" in svg


def test_scan_svg_flat_columns():
    table = [(x, 0.0, 0.0, -0.5) for x in (-1.0, 0.0, 1.0)]
    assert polylines(scan_svg(scan_result(table), "t")) == [
        "40.00,240.00 320.00,240.00 600.00,240.00",
        "40.00,500.00 320.00,500.00 600.00,500.00",
    ]


def test_scan_svg_all_undefined_mandel_draws_theta_panel_only():
    table = [(x, -x * x, 2.0 * x, math.nan) for x in np.linspace(-1.0, 1.0, 9)]
    svg = scan_svg(scan_result(table), "t")
    s, th = [r[0] for r in table], [r[1] for r in table]
    assert polylines(svg) == [per_point_polyline(s, th, 40, 40, 560, 200)]
    assert "Q(s)" not in svg and svg.count("<rect ") == 1
    assert "nan" not in svg.lower()
