"""Regenerate bench/reference.json, the scan-fmo reference values.

    python3 bench/make_reference.py

Runs the scan-fmo commands once with the program in ``src/`` and keeps every
tenth grid row (s = 0 included) of each scan and rate-function file, plus
the crossover reports.  Run it only at a commit whose outputs are trusted:
the benchmark counts any later departure beyond tolerance as a failed op.
"""

from __future__ import annotations

import json
import re
import shutil

import run
import workloads

ROW_STRIDE = 10


def _rate_scale(rows, column: int) -> float:
    return max(abs(r[column]) for r in rows)


def main() -> None:
    cli_main = run.import_cli()
    workdir = run.OUT / "reference"
    ref = {"theta-scan": {}, "rate-function": {}}
    try:
        for i, (args, _) in enumerate(workloads.SCAN_FMO):
            outcome, _ = run.invoke(cli_main, [*args, "--workers", "1"], workdir / f"out-{i}")
            if outcome.exit_code != 0:
                raise SystemExit(f"{args[0]} failed: {outcome.stderr}")
            for path in sorted(outcome.outdir.glob("*.csv")):
                rows = workloads.read_csv_rows(path)
                if args[0] == "theta-scan":
                    ref["theta-scan"][path.name] = {
                        "rate_scale": _rate_scale(rows, 2),
                        "rows": [[r[0], r[1], r[2], r[4]] for r in rows[::ROW_STRIDE]],
                    }
                else:
                    ref["rate-function"][path.name] = {
                        "rate_scale": _rate_scale(rows, 0),
                        "n_rows": len(rows),
                        "rows": [[j, r[0], r[2]] for j, r in enumerate(rows)][::ROW_STRIDE],
                    }
            report = outcome.outdir / "crossover_map.json"
            if report.is_file():
                ref["crossover-map"] = [
                    {k: e[k] for k in ("temperature_K", "channel", "s_star", "q_at_zero")}
                    for e in json.loads(report.read_text())["results"]
                ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps(ref, indent=1)
    # one grid row per line
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
    workloads.REFERENCE.write_text(text + "\n")


if __name__ == "__main__":
    main()
