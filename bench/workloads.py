"""Workloads: the CLI command list of one pass, their seeded inputs, and the
checks that decide whether each command's output is correct.

The program sees only command-line flags and the model files written here.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

S_POINTS_DEFAULT = 281  # the CLI's default grid, -2..12

# Tolerances, relative to the model's rate scale (the largest activity on
# the grid) for rates, relative to max(1, |Q|) for the dimensionless Q.
RATE_TOL = 1e-8
Q_TOL = 1e-6
S_STAR_TOL = 1e-5  # crossover bisection stops at 1e-6 in s
INVARIANT_TOL = 1e-9
# |z| beyond which an oracle check counts as a failed op: a false alarm
# has probability ~6e-7 per z-score.
ORACLE_Z_FAIL = 5.0
# Aggregate draws whose Bohr gaps sit closer than this (cm^-1) are redrawn:
# the program rejects coinciding gaps, and that is not what is measured.
MIN_GAP_SPACING = 1e-6

AGGREGATE_SIZES = (16, 24, 30)
AGGREGATE_GRID = ("-2", "8", "41")  # step 0.25, so s = 0 is a grid point
AGGREGATE_BATH = {"reorg_energy_cm1": 35.0, "cutoff_cm1": 150.0, "temperature_K": 300.0}
AGGREGATE_J0 = 100.0  # nearest-neighbour coupling, cm^-1


@dataclass
class Outcome:
    """What one CLI invocation left behind."""

    exit_code: int
    stdout: str
    stderr: str
    outdir: Path


@dataclass
class Command:
    """One CLI invocation; ``items`` is the work it does (s points or trajectories)."""

    args: list[str]
    items: int
    check: Callable[[Outcome], list[str]]

    @property
    def name(self) -> str:
        return self.args[0]


@dataclass
class Workload:
    commands: list[Command]
    item_kind: str  # "s_points" or "trajectories"
    inputs: dict = field(default_factory=dict)  # seed-derived facts for the record
    # Verdicts the checks count without failing the op, e.g. the CLI's own
    # 3-sigma oracle gate; summed over the run.
    tally: dict = field(default_factory=dict)


# --- output parsing ---------------------------------------------------------


def read_csv_rows(path: Path) -> list[list[float]]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return [[float(x) for x in row] for row in rows[1:]]


def _close(value: float, ref: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol


def _rate_scale(activities) -> float:
    return max(abs(a) for a in activities)


def scan_invariants(rows, label: str) -> list[str]:
    """theta(0) = 0, theta convex on the grid, activity positive."""
    problems = []
    if not rows:
        return [f"{label}: no rows"]
    s = np.array([r[0] for r in rows])
    th = np.array([r[1] for r in rows])
    act = np.array([r[2] for r in rows])
    scale = _rate_scale(act)
    zero = np.flatnonzero(np.abs(s) < 1e-12)
    if zero.size != 1:
        problems.append(f"{label}: s = 0 missing from the grid")
    elif abs(th[zero[0]]) > INVARIANT_TOL * scale:
        problems.append(f"{label}: theta(0) = {th[zero[0]]:.3e}")
    second = th[2:] - 2.0 * th[1:-1] + th[:-2]
    if second.size and second.min() < -INVARIANT_TOL * scale:
        problems.append(f"{label}: theta not convex (2nd diff {second.min():.3e})")
    if not np.all(act > 0):
        problems.append(f"{label}: non-positive activity")
    return problems


def _check_scan_file(path: Path, ref: dict) -> list[str]:
    rows = read_csv_rows(path)
    by_s = {round(r[0], 9): r for r in rows}
    scale = ref["rate_scale"]
    problems = scan_invariants(rows, path.name)
    for s, theta, act, q in ref["rows"]:
        got = by_s.get(round(s, 9))
        if got is None:
            problems.append(f"{path.name}: row s={s} missing")
            continue
        if not (
            _close(got[1], theta, RATE_TOL * scale)
            and _close(got[2], act, RATE_TOL * scale)
            and _close(got[4], q, Q_TOL * max(1.0, abs(q)))
        ):
            problems.append(f"{path.name}: s={s} differs from the reference: {got}")
    return problems


def _check_svg(path: Path, tally: dict) -> list[str]:
    """Both panels drawn.  Whether the file parses as XML is tallied, not
    failed: the program writes the channel selector into the title
    unescaped, so "pair:a1<->a2" yields a file strict XML parsers reject."""
    text = path.read_text()
    try:
        ET.fromstring(text)
    except ET.ParseError:
        tally["svg_malformed"] = tally.get("svg_malformed", 0) + 1
    if not text.startswith("<svg") or text.count("<polyline") != 2:
        return [f"{path.name}: expected an svg with two polylines"]
    return []


def _expect_files(out: Outcome, names) -> list[str]:
    missing = [n for n in names if not (out.outdir / n).is_file()]
    return [f"missing output {n}" for n in missing]


def check_theta_scan(ref: dict, tally: dict) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        if out.exit_code != 0:
            return [f"exit code {out.exit_code}: {out.stderr.strip()}"]
        svgs = [name.replace(".csv", ".svg") for name in ref]
        problems = _expect_files(out, [*ref, *svgs])
        if problems:
            return problems
        for name, entry in ref.items():
            problems += _check_scan_file(out.outdir / name, entry)
        for name in svgs:
            problems += _check_svg(out.outdir / name, tally)
        return problems

    return check


def check_rate_function(ref: dict) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        if out.exit_code != 0:
            return [f"exit code {out.exit_code}: {out.stderr.strip()}"]
        problems = _expect_files(out, ref)
        if problems:
            return problems
        for name, entry in ref.items():
            rows = read_csv_rows(out.outdir / name)
            if len(rows) != entry["n_rows"]:
                problems.append(f"{name}: {len(rows)} rows, expected {entry['n_rows']}")
                continue
            tol = RATE_TOL * entry["rate_scale"]
            for i, k, phi in entry["rows"]:
                got = rows[i]
                if not (_close(got[0], k, tol) and _close(got[2], phi, tol)):
                    problems.append(f"{name}: row {i} differs from the reference: {got}")
            if min(r[2] for r in rows) < -tol:
                problems.append(f"{name}: negative phi")
        return problems

    return check


def check_crossover(ref: list) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        if out.exit_code != 0:
            return [f"exit code {out.exit_code}: {out.stderr.strip()}"]
        path = out.outdir / "crossover_map.json"
        if not path.is_file():
            return ["missing crossover_map.json"]
        results = json.loads(path.read_text())["results"]
        if len(results) != len(ref):
            return [f"{len(results)} crossover entries, expected {len(ref)}"]
        problems = []
        for got, want in zip(results, ref):
            tag = f"T={want['temperature_K']} {want['channel']}"
            if (got["temperature_K"], got["channel"]) != (want["temperature_K"], want["channel"]):
                problems.append(f"{tag}: entry order changed")
                continue
            if (got["s_star"] is None) != (want["s_star"] is None) or (
                want["s_star"] is not None
                and not _close(got["s_star"], want["s_star"], S_STAR_TOL)
            ):
                problems.append(f"{tag}: s_star {got['s_star']} vs {want['s_star']}")
            q0 = want["q_at_zero"]
            if not _close(got["q_at_zero"], q0, Q_TOL * max(1.0, abs(q0))):
                problems.append(f"{tag}: q_at_zero {got['q_at_zero']} vs {q0}")
        return problems

    return check


def check_oracle(n_traj: int, tally: dict) -> Callable[[Outcome], list[str]]:
    """One temperature per command.  Exit 0 (pass) and 1 (the CLI's 3-sigma
    gate tripped) both leave a report; the CLI's verdict is tallied, the op
    fails only beyond |z| = 5."""

    def check(out: Outcome) -> list[str]:
        if out.exit_code not in (0, 1):
            return [f"exit code {out.exit_code}: {out.stderr.strip()}"]
        path = out.outdir / "oracle_check.json"
        if not path.is_file():
            return ["missing oracle_check.json"]
        doc = json.loads(path.read_text())
        results = doc["results"]
        if len(results) != 1:
            return [f"{len(results)} oracle entries, expected 1"]
        problems = []
        for entry in results:
            tag = f"T={entry['temperature_K']}"
            tally["z3_fail"] = tally.get("z3_fail", 0) + (not entry["pass"])
            if sum(entry["trajectories"]["histogram"].values()) != n_traj:
                problems.append(f"{tag}: histogram does not sum to {n_traj}")
            for key in ("z_rate", "z_mandel"):
                z = entry[key]
                if z is None or not abs(z) < ORACLE_Z_FAIL:
                    problems.append(f"{tag}: {key} = {z}")
        if (out.exit_code == 0) != doc["pass"]:
            problems.append(f"exit code {out.exit_code} contradicts pass={doc['pass']}")
        return problems

    return check


def check_aggregate_scan(n_rows: int) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        if out.exit_code != 0:
            return [f"exit code {out.exit_code}: {out.stderr.strip()}"]
        files = sorted(out.outdir.glob("*.csv"))
        if len(files) != 1:
            return [f"expected one csv, found {len(files)}"]
        rows = read_csv_rows(files[0])
        if len(rows) != n_rows:
            return [f"{files[0].name}: {len(rows)} rows, expected {n_rows}"]
        return scan_invariants(rows, files[0].name)

    return check


# --- seeded aggregates --------------------------------------------------------


def bohr_gap_spacing(energies: np.ndarray, couplings: np.ndarray) -> float:
    """Smallest distance between two Bohr frequencies, zero included."""
    eps = np.linalg.eigvalsh(np.diag(energies) - couplings)
    upper = np.triu_indices(eps.size, 1)
    gaps = np.sort(np.append(np.abs(eps[:, None] - eps[None, :])[upper], 0.0))
    return float(np.diff(gaps).min())


def aggregate_model(rng: np.random.Generator, n: int) -> tuple[dict, float, int]:
    """(model document, its Bohr-gap spacing, draws rejected before it).

    Site energies are uniform on 0..600 cm^-1 and couplings fall off as
    J0 / |m - n|^3 along the chain.
    """
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(float)
    np.fill_diagonal(dist, np.inf)
    couplings = AGGREGATE_J0 / dist**3
    rejected = 0
    while True:
        energies = rng.uniform(0.0, 600.0, n)
        spacing = bohr_gap_spacing(energies, couplings)
        if spacing >= MIN_GAP_SPACING:
            break
        rejected += 1
    doc = {
        "energies": energies.tolist(),
        "couplings": couplings.tolist(),
        "bath": AGGREGATE_BATH,
    }
    return doc, spacing, rejected


# --- the workloads --------------------------------------------------------------


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# (CLI arguments without --workers/--out, s points evaluated)
SCAN_FMO = (
    (["theta-scan", "--preset", "fmo3", "--temps", "77,150,300",
      "--channel", "pair:a1<->a2", "--channel", "down:a3->a2", "--format", "csv,svg"],
     6 * S_POINTS_DEFAULT),
    (["rate-function", "--preset", "fmo2", "--temps", "300", "--channel", "down:a2->a1"],
     S_POINTS_DEFAULT),
    (["crossover-map", "--preset", "fmo4", "--temps", "77,300", "--channel", "down:a4->a2"],
     2 * S_POINTS_DEFAULT),
)


def scan_fmo(seed: int, workdir: Path, workers: int) -> Workload:
    """Presets only: the seed does not change the inputs."""
    ref = _load_reference()
    tally: dict = {}
    checks = {
        "theta-scan": check_theta_scan(ref["theta-scan"], tally),
        "rate-function": check_rate_function(ref["rate-function"]),
        "crossover-map": check_crossover(ref["crossover-map"]),
    }
    commands = [
        Command([*args, "--workers", str(workers)], items, checks[args[0]])
        for args, items in SCAN_FMO
    ]
    return Workload(commands, "s_points", tally=tally)


ORACLE_TRAJ = 1_000
# The sampler runs single-threaded.  Its threads only contend for the GIL
# (2 threads are ~15% slower than 1 on fmo3, and their pass times spread
# three times wider), so with --workers = nproc this workload would time the
# scheduler's lock hand-offs more than the sampler.  The CLI's thread fan-out
# is measured on scan-fmo and aggregate-scan.
ORACLE_WORKERS = 1
ORACLE_CASES = (("fmo2", "300", "down:a2->a1"), ("fmo3", "77", "down:a3->a2"))


def oracle_fmo(seed: int, workdir: Path, workers: int) -> Workload:
    commands, tally = [], {}
    for preset, temp, channel in ORACLE_CASES:
        commands.append(
            Command(
                ["oracle-check", "--preset", preset, "--temps", temp, "--channel", channel,
                 "--traj", str(ORACLE_TRAJ), "--seed", str(seed),
                 "--workers", str(ORACLE_WORKERS)],
                ORACLE_TRAJ,
                check_oracle(ORACLE_TRAJ, tally),
            )
        )
    return Workload(commands, "trajectories",
                    {"oracle_seed": seed, "sampler_workers": ORACLE_WORKERS}, tally)


def aggregate_scan(seed: int, workdir: Path, workers: int) -> Workload:
    rng = np.random.default_rng(seed)
    commands, inputs = [], []
    s_min, s_max, points = AGGREGATE_GRID
    for n in AGGREGATE_SIZES:
        doc, spacing, rejected = aggregate_model(rng, n)
        path = workdir / f"aggregate_n{n}.json"
        path.write_text(json.dumps(doc))
        inputs.append({"n": n, "min_bohr_gap_spacing_cm1": spacing, "rejected_draws": rejected})
        commands.append(
            Command(
                ["theta-scan", "--model", str(path), "--channel", "all-down",
                 "--s-min", s_min, "--s-max", s_max, "--s-points", points,
                 "--workers", str(workers)],
                int(points),
                check_aggregate_scan(int(points)),
            )
        )
    return Workload(commands, "s_points", {"aggregates": inputs})


WORKLOADS = {"scan-fmo": scan_fmo, "oracle-fmo": oracle_fmo, "aggregate-scan": aggregate_scan}
