import math

import numpy as np
import pytest

from excount.lds import RateFunctionPoint, ScanPoint
from excount.output import rate_function_csv, scan_csv
from excount.units import CM1_TO_PS1


def per_value_csv(header, rows, comment):
    """The CSV text formatted one value at a time, as f"{x:.12g}"."""
    lines = [f"# {comment}", header]
    lines += [",".join(f"{x:.12g}" for x in row) for row in rows]
    return lines


def spread_values(seed, size):
    """Signed values spread over 40 decades, with zeros and extremes."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-20.0, 20.0, size)
    values[:6] = [0.0, -0.0, 1e-300, -5e-324, 1.7976931348623157e308, 0.1]
    return values.tolist()


def test_scan_csv_matches_per_value_formatting():
    v = spread_values(1, 4000)
    points = [ScanPoint(*v[i:i + 4]) for i in range(0, len(v), 4)]
    points[7] = ScanPoint(1.0, 2.0, 3.0, None)
    points[9] = ScanPoint(1.5, 2.5, 3.5, None)
    rows = [
        (p.s, p.theta, p.activity, p.activity * CM1_TO_PS1, p.mandel)
        for p in points
        if p.mandel is not None
    ]
    expected = per_value_csv("s,theta_cm1,activity_cm1,activity_ps1,mandel", rows, "m")
    expected.append("# omitted_rows_undefined_mandel=2")
    assert scan_csv(points, "m") == "\n".join(expected) + "\n"


def test_rate_function_csv_matches_per_value_formatting():
    v = spread_values(2, 3000)
    points = [RateFunctionPoint(v[i], v[i + 1]) for i in range(0, len(v), 2)]
    rows = [(p.k, p.k * CM1_TO_PS1, p.phi) for p in points]
    expected = per_value_csv("k_cm1,k_ps1,phi_cm1", rows, "m")
    assert rate_function_csv(points, "m") == "\n".join(expected) + "\n"


def test_empty_tables_write_header_only():
    assert scan_csv([ScanPoint(0.0, 0.0, 0.0, None)]) == (
        "s,theta_cm1,activity_cm1,activity_ps1,mandel\n"
        "# omitted_rows_undefined_mandel=1\n"
    )
    assert rate_function_csv([]) == "k_cm1,k_ps1,phi_cm1\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_refused(bad):
    with pytest.raises(ValueError, match=f"refusing to write non-finite value {bad}"):
        scan_csv([ScanPoint(0.0, 1.0, 2.0, 0.5), ScanPoint(1.0, 1.0, bad, 0.5)])
    with pytest.raises(ValueError, match=f"refusing to write non-finite value {bad}"):
        rate_function_csv([RateFunctionPoint(1.0, bad)])
