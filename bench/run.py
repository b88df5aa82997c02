"""Benchmark of the excount command line, one workload per process.

    python3 bench/run.py --workload scan-fmo --seed 1 --seconds 30 --trace 0

Runs the workload's CLI commands in-process, pass after pass, for about
``--seconds``; checks every command's output; prints a record line and, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
first half of the time runs untraced and the second half traced, and the
metrics are the per-layer ones from the traced passes.  The program is
imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def import_cli():
    """The program's click group, imported from this checkout's ``src/``."""
    if not (SRC / "excount" / "__init__.py").is_file():
        raise SystemExit(f"bench: no excount sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import excount.cli

    if SRC not in Path(excount.cli.__file__).resolve().parents:
        raise SystemExit(f"bench: excount imported from {excount.cli.__file__}, not {SRC}")
    return excount.cli.main


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from interpreter start to ``excount.cli`` imported, per fresh process."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import excount.cli"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def environment(workers: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # Loaded by excount itself when installed: then the sampler is JIT-compiled.
        "numba": "numba" in sys.modules,
        "nproc": workers,
        "cpu_count": os.cpu_count(),
        "blas": blas,
    }


# --- running commands -------------------------------------------------------------


def invoke(cli_main, args, outdir: Path, tracer=None) -> tuple[workloads.Outcome, float]:
    """Run one CLI command in this process; (outcome, wall seconds)."""
    outdir.mkdir(parents=True, exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    token = None
    if tracer is not None:
        token = tracer.enter(f"cli.{args[0]}")
        tracer.root = token[0]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            cli_main([*args, "--out", str(outdir)], standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a click usage error or a crash: one failed op
        code = getattr(exc, "exit_code", -1)
        stderr.write(f"{type(exc).__name__}: {exc}\n")
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.exit(token)
        tracer.root = None
        tracer.add("cli.files", sum(1 for ln in stdout.getvalue().splitlines() if ln.strip()))
    return workloads.Outcome(code, stdout.getvalue(), stderr.getvalue(), outdir), seconds


@dataclass
class Pass:
    wall: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def run_pass(cli_main, workload, workdir: Path, tracer=None, layer_names=()) -> Pass:
    result = Pass()
    if tracer is not None:
        tracer.reset()
    for i, command in enumerate(workload.commands):
        outdir = workdir / f"out-{i}"
        outcome, seconds = invoke(cli_main, command.args, outdir, tracer)
        result.wall += seconds
        result.attempted += 1
        try:
            problems = command.check(outcome)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            result.failures.append(f"{command.name}: {'; '.join(problems[:3])}")
        shutil.rmtree(outdir, ignore_errors=True)
    if tracer is not None:
        result.layers = tracing.layer_metrics(tracer.spans, tracer.counts, layer_names)
    return result


def run_for(seconds: float, one_pass) -> list[Pass]:
    """Passes until the next one would end more than half a pass past ``seconds``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes, workload, setup_times) -> dict[str, float]:
    items = sum(c.items for c in workload.commands)
    return {
        "setup_s": _median(setup_times),
        "wall_s": _median(p.wall for p in passes),
        "items_per_s": _median(items / p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def tallies(workload) -> dict[str, int]:
    return {
        "oracle.z3_fail": workload.tally.get("z3_fail", 0),
        "output.svg_malformed": workload.tally.get("svg_malformed", 0),
    }


def per_layer(untraced, traced, names) -> dict[str, float]:
    out = {name: _median(p.layers[name] for p in traced) for name in names}
    out["trace.overhead_s"] = _median(p.wall for p in traced) - _median(p.wall for p in untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    specs = _metric_specs()
    cli_main = import_cli()
    workers = len(os.sched_getaffinity(0))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, workers)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(workers),
            "inputs": workload.inputs,
        }
        if args.trace:
            layer_names = list(specs["per_layer"])
            tracer = tracing.Tracer()
            untraced = run_for(args.seconds / 2, lambda: run_pass(cli_main, workload, workdir))
            hooks = tracing.Installation(tracer)
            try:
                traced = run_for(
                    args.seconds / 2,
                    lambda: run_pass(cli_main, workload, workdir, tracer, layer_names),
                )
            finally:
                hooks.remove()
            passes = untraced + traced
            record["absent_hooks"] = hooks.absent
            metrics = per_layer(untraced, traced, layer_names)
            metrics.update(tallies(workload))
            kind = "per_layer"
        else:
            setup_times = measure_setup()
            passes = run_for(args.seconds, lambda: run_pass(cli_main, workload, workdir))
            metrics = end_to_end(passes, workload, setup_times)
            record["setup_s_samples"] = setup_times
            kind = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    items = sum(c.items for c in workload.commands)
    record.update(
        {
            "passes": len(passes),
            "pass_wall_s": [p.wall for p in passes],
            f"{workload.item_kind}_per_s": _median(items / p.wall for p in passes),
            "failed_ops": len(failures) / attempted,
            **tallies(workload),
            "failures": failures[:20],
            "metrics": metrics,
        }
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(record))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in specs[kind].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
