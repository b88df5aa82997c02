"""Command-line front end: scans, crossover maps, and the oracle check.

Configuration can come from a single JSON document (--config); explicit
flags override file values, which override the bath section of a model
file, which override built-in defaults.  All outputs are deterministic:
identical configs and seeds produce byte-identical files.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import click
import numpy as np

from . import lds, output
from .bath import BathSpec
from .generator import TiltedGenerator, resolve_counted, transport_rates
from .model import diagonalize, load_model, preset, preset_names
from .trajectories import TrajectoryConfig, simulate
from .units import time_ps_to_cm

FORMATS = ("csv", "svg")
_GRID = ("theta-scan", "rate-function", "crossover-map")  # the commands that scan s
_ALL = (*_GRID, "oracle-check")


class ConfigError(ValueError):
    pass


class _Input(NamedTuple):
    """One input of a run.  ``key`` is its config-file key and its name on
    the run's config; ``kind`` its JSON type (float takes any number, int an
    integer, str a string, [t] a list of t; a bool is never a number);
    ``flag`` and ``help`` its option on the ``commands`` that show it;
    ``bath`` its key in a bath section; ``repeat`` makes a list flag
    repeatable, where the others take one comma-separated list."""

    key: str
    kind: object
    default: object
    flag: str
    help: str
    commands: tuple[str, ...] = _ALL
    bath: str | None = None
    repeat: bool = False


_INPUTS = (
    _Input("preset", str, None, "--preset", f"Built-in model: {', '.join(preset_names())}."),
    _Input("model", str, None, "--model", "Site model JSON file (energies/couplings in cm^-1)."),
    _Input("reorg_cm1", float, 35.0, "--reorg-cm1", "Bath reorganization energy (cm^-1).",
           bath="reorg_energy_cm1"),
    _Input("cutoff_cm1", float, 150.0, "--cutoff-cm1", "Bath cutoff frequency (cm^-1).",
           bath="cutoff_cm1"),
    _Input("temps", [float], (300.0,), "--temps",
           "Comma-separated temperatures in K, e.g. 77,150,300.", bath="temperature_K"),
    _Input("channels", [str], (), "--channel", 'Counted channel selector, e.g. "down:a2->a1", '
           '"pair:a1<->a2", "all-down". Repeatable.', repeat=True),
    _Input("s_min", float, lds.S_MIN_DEFAULT, "--s-min",
           f"Lowest s of the grid (default {lds.S_MIN_DEFAULT:g}).", _GRID),
    _Input("s_max", float, lds.S_MAX_DEFAULT, "--s-max",
           f"Highest s of the grid (default {lds.S_MAX_DEFAULT:g}).", _GRID),
    _Input("s_points", int, lds.S_POINTS_DEFAULT, "--s-points",
           f"Number of evenly spaced s points (default {lds.S_POINTS_DEFAULT}; "
           "at least 2, for crossover-map 3).", _GRID),
    _Input("formats", [str], ("csv",), "--format",
           "Comma-separated output formats (csv,svg).", ("theta-scan",)),
    _Input("seed", int, 0, "--seed", "Base RNG seed.", ("oracle-check",)),
    _Input("traj", int, 10_000, "--traj", "Number of trajectories.", ("oracle-check",)),
    _Input("t_max_ps", float, None, "--t-max-ps", "Observation time per trajectory in ps "
           "(default: expected 200 counted jumps).", ("oracle-check",)),
    _Input("out", str, ".", "--out", "Output directory."),
    _Input("workers", int, 0, "--workers", "Threads that share one large stacked solve, "
           "capped at the processor count (default or 0: number of processors)."),
)
_TYPE_NAMES = {float: "number", int: "integer", str: "string"}


def _validate(cfg: SimpleNamespace, command: str) -> None:
    """ConfigError for the first input that no command runs with (each
    command checks every key, also those it does not read), then for a
    limit of ``command``."""
    if cfg.preset and cfg.model:
        raise ConfigError("--preset and --model are mutually exclusive")
    if not cfg.preset and not cfg.model:
        raise ConfigError("need a model: --preset NAME or --model FILE")
    if not cfg.temps:
        raise ConfigError("temperature list is empty")
    if not cfg.formats:
        raise ConfigError("format list is empty")
    if not cfg.channels:
        raise ConfigError("no channel selectors given (--channel)")
    bad = set(cfg.formats) - set(FORMATS)
    if bad:
        raise ConfigError(f"unknown formats {sorted(bad)}; allowed: {FORMATS}")
    if cfg.s_points < 2:
        raise ConfigError("s grid needs at least 2 points")
    if not np.isfinite([cfg.s_min, cfg.s_max]).all():
        raise ConfigError(f"s grid bounds must be finite, got [{cfg.s_min}, {cfg.s_max}]")
    if not cfg.s_min < cfg.s_max:
        raise ConfigError("need s_min < s_max")
    if cfg.traj < 1:
        raise ConfigError("need at least one trajectory")
    if cfg.seed < 0:
        raise ConfigError(f"need seed >= 0, got {cfg.seed}")
    if cfg.t_max_ps is not None and not 0 < cfg.t_max_ps < np.inf:
        raise ConfigError(f"--t-max-ps must be positive and finite, got {cfg.t_max_ps}")
    if cfg.workers < 0:
        raise ConfigError(f"need workers >= 0 (0: all processors), got {cfg.workers}")
    if command == "crossover-map":  # its search needs two temperatures and an interior s
        if len(cfg.temps) < 2:
            raise ConfigError("crossover-map needs at least two temperatures")
        if cfg.s_points < 3:
            raise ConfigError("crossover-map needs at least 3 s points")


def _is(val, kind) -> bool:
    return isinstance(val, (int, float) if kind is float else kind) and not isinstance(val, bool)


def _checked(key: str, val, kind):
    """``val`` as a flag gives it (a float for a number, a tuple for a list)
    if its JSON type is ``kind``, else a ConfigError that names the key and
    the value."""
    if isinstance(kind, list):
        if isinstance(val, list) and all(_is(v, kind[0]) for v in val):
            return tuple(map(kind[0], val))
        raise ConfigError(f"config key {key!r} takes a list of {_TYPE_NAMES[kind[0]]}s, "
                          f"got {val!r}")
    if _is(val, kind):
        return kind(val)
    raise ConfigError(f"config key {key!r} takes one {_TYPE_NAMES[kind]}, got {val!r}")


def _bath_values(bathsec) -> dict:
    """Run config values from a JSON bath section (any subset of its keys;
    each takes one number); a ConfigError names an unknown key."""
    if bathsec is None:
        return {}
    if not isinstance(bathsec, dict):
        raise ConfigError(f"the bath section must be a JSON object, got {bathsec!r}")
    inputs = {spec.bath: spec for spec in _INPUTS if spec.bath}
    values = {}
    for key, val in bathsec.items():
        if key not in inputs:
            raise ConfigError(f"unknown config key 'bath.{key}'")
        val = _checked(f"bath.{key}", val, float)
        values[inputs[key].key] = (val,) if isinstance(inputs[key].kind, list) else val
    return values


def _read(what: str, path: str, read):
    """``read(path)``; a missing, unreadable or malformed file is a ConfigError."""
    try:
        return read(path)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from None


def _load_config_file(path: str) -> dict:
    doc = _read("config", path, lambda p: json.loads(Path(p).read_text()))
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    values = _bath_values(doc.pop("bath", None))
    kinds = {spec.key: spec.kind for spec in _INPUTS}
    for key, val in doc.items():
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _checked(key, val, kinds[key])
    return values


def _assemble_config(command: str, config_file: str | None, flags: dict):
    """The run's checked config, its model tag and its exciton basis: the
    one place that resolves the model, a preset or one read of a model
    file, whose bath section gives defaults under the config file and the
    flags, which all override the table's defaults."""
    values = _load_config_file(config_file) if config_file else {}
    values.update((key, val) for key, val in flags.items() if val is not None)
    if values.get("model") and not values.get("preset"):
        model, bathsec = _read("model", values["model"], load_model)
        values = {**_bath_values(bathsec), **values}
    cfg = SimpleNamespace(**{**{spec.key: spec.default for spec in _INPUTS}, **values})
    _validate(cfg, command)
    if cfg.preset:
        model = preset(cfg.preset)
    cfg.workers = cfg.workers or os.cpu_count() or 1
    return cfg, cfg.preset or Path(cfg.model).stem, diagonalize(model)


def _bath(cfg: SimpleNamespace, temp: float) -> BathSpec:
    return BathSpec(cfg.reorg_cm1, cfg.cutoff_cm1, temp)


def _guarded(fn):
    """Emit one machine-readable JSON error line on stderr, exit nonzero."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (click.ClickException, click.exceptions.Exit, SystemExit):
            raise
        except Exception as exc:
            print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
            sys.exit(2)

    return wrapper


def _option(spec: _Input) -> click.Option:
    """The flag of one input; its value is None when it is absent, and a
    tuple for a list."""
    if not isinstance(spec.kind, list):
        return click.Option([spec.flag, spec.key], type=spec.kind, help=spec.help)

    def to_tuple(_ctx, _param, value):
        if spec.repeat or value is None:
            return value or None  # a repeatable flag gives () when absent
        items = [item.strip() for item in value.split(",") if item.strip()]
        try:
            return tuple(map(spec.kind[0], items))
        except ValueError:  # --temps is the one list of numbers
            raise click.BadParameter(f"cannot parse temperature list {value!r}")

    return click.Option([spec.flag, spec.key], multiple=spec.repeat, callback=to_tuple,
                        help=spec.help)


@click.group()
def main():
    """Counting statistics of jump trajectories in Markovian exciton transport."""


def _command(name: str):
    """Register ``body(cfg, tag, basis)`` as subcommand ``name``: its flags
    are --config and the inputs that show on it, and it gets the config,
    model tag and basis of ``_assemble_config``."""
    params = [click.Option(["--config"], type=click.Path(),
                           help="JSON config file; flags override its values.")]
    params += [_option(spec) for spec in _INPUTS if name in spec.commands]

    def register(body):
        @functools.wraps(body)
        @_guarded
        def run(config, **flags):
            body(*_assemble_config(name, config, flags))

        return main.command(name, params=params)(run)

    return register


@main.command("presets")
@_guarded
def presets_cmd():
    """List the built-in site models."""
    for name in preset_names():
        m = preset(name)
        click.echo(f"{name}: {m.n_sites} sites")
        click.echo(f"  energies_cm1: {', '.join(f'{e:g}' for e in m.energies)}")
        for i, row in enumerate(m.couplings):
            click.echo(f"  J[{i + 1},:]: {', '.join(f'{j:g}' for j in row)}")


def _tasks(cfg: SimpleNamespace, basis):
    """The (temperature, channel) tasks, and one generator that stacks
    them on its task axes (temperature, channel), in the same order.

    ConfigError when two tasks would give the same output: two temperatures
    that print alike (``output.format_temperature``), or a channel selector
    given twice (alike up to ``output.channel_slug``).
    """
    for what, items, name in (("temperature", cfg.temps, output.format_temperature),
                              ("channel selector", cfg.channels, output.channel_slug)):
        names = [name(item) for item in items]
        for i, item in enumerate(items):
            if names[i] in names[:i]:
                raise ConfigError(f"repeated {what} {item!r}: two tasks would give the same output")
    rates = np.stack([transport_rates(basis, _bath(cfg, t)) for t in cfg.temps])
    counted = np.stack([resolve_counted(basis.n_excitons, [ch]) for ch in cfg.channels])
    tasks = [(t, ch) for t in cfg.temps for ch in cfg.channels]
    return tasks, TiltedGenerator(*np.broadcast_arrays(rates[:, None], counted[None]))


def _scan_tasks(cfg: SimpleNamespace, basis):
    """The tasks and their scan results, from one stacked scan."""
    tasks, gen = _tasks(cfg, basis)
    grid = lds.default_s_grid(cfg.s_min, cfg.s_max, cfg.s_points)
    return tasks, lds.scan(gen, grid, workers=cfg.workers).tasks()


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    click.echo(str(path))


@_command("theta-scan")
def theta_scan_cmd(cfg, tag, basis):
    """Scan theta(s), activity and Mandel Q; one CSV per (temperature, channel)."""
    tasks, results = _scan_tasks(cfg, basis)
    outdir = Path(cfg.out)
    for (temp, ch), result in zip(tasks, results):
        stem = f"theta_scan__{tag}__T{output.format_temperature(temp)}K__{output.channel_slug(ch)}"
        meta = (
            f"model={tag} temperature_K={output.format_temperature(temp)} "
            f"channel={ch} reorg_cm1={cfg.reorg_cm1:g} cutoff_cm1={cfg.cutoff_cm1:g}"
        )
        if "csv" in cfg.formats:
            _write(outdir / f"{stem}.csv", output.scan_csv(result, meta))
        if "svg" in cfg.formats:
            _write(outdir / f"{stem}.svg", output.scan_svg(result, meta))


@_command("rate-function")
def rate_function_cmd(cfg, tag, basis):
    """Legendre-transform rate function phi(k) from a theta scan."""
    tasks, results = _scan_tasks(cfg, basis)
    outdir = Path(cfg.out)
    for (temp, ch), result in zip(tasks, results):
        k, phi = lds.rate_function(result)
        stem = f"rate_function__{tag}__T{output.format_temperature(temp)}K__{output.channel_slug(ch)}"
        meta = f"model={tag} temperature_K={output.format_temperature(temp)} channel={ch}"
        _write(outdir / f"{stem}.csv", output.rate_function_csv(k, phi, meta))


@_command("crossover-map")
def crossover_map_cmd(cfg, tag, basis):
    """Crossover report (sign change and local maximum of Q) per (T, channel)."""
    tasks, gen = _tasks(cfg, basis)
    grid = lds.default_s_grid(cfg.s_min, cfg.s_max, cfg.s_points)
    reports = lds.find_crossover(gen, grid, workers=cfg.workers)
    entries = []
    n = basis.n_excitons
    for (temp, ch), counted, report in zip(tasks, gen.counted.reshape(-1, n, n), reports):
        factors = [
            {"pair": f"a{a + 1}->a{b + 1}", "intensity_factor": float(basis.intensity_factors[a, b])}
            for a, b in np.argwhere(counted.T)
        ]
        entries.append(
            {
                "temperature_K": temp,
                "channel": ch,
                "counted": factors,
                "s_star": report.s_star,
                "q_at_zero": report.q_at_zero,
                "local_max": (
                    None
                    if report.local_max is None
                    else {"s": report.local_max[0], "q": report.local_max[1]}
                ),
            }
        )
    doc = {
        "model": tag,
        "reorg_cm1": cfg.reorg_cm1,
        "cutoff_cm1": cfg.cutoff_cm1,
        "s_grid": {"min": cfg.s_min, "max": cfg.s_max, "points": cfg.s_points},
        "results": entries,
    }
    _write(Path(cfg.out) / "crossover_map.json", output.dump_json(doc))


@_command("oracle-check")
def oracle_check_cmd(cfg, tag, basis):
    """Cross-validate spectral rate and Q(0) against stochastic trajectories,
    per (temperature, channel); task i samples with seed + i."""
    tasks, gen = _tasks(cfg, basis)
    at_zero = lds.scan(gen, [0.0], workers=cfg.workers).tasks()
    entries = []
    overall = True
    for i, ((temp, ch), task, ref) in enumerate(zip(tasks, gen.tasks(), at_zero)):
        activity = float(ref.activity[0])
        q_spectral = None if np.isnan(ref.mandel[0]) else float(ref.mandel[0])
        if cfg.t_max_ps is not None:
            t_max = time_ps_to_cm(cfg.t_max_ps)
        elif activity > 0:
            t_max = 200.0 / activity
        else:
            t_max = 1.0
        stats = simulate(
            task,
            TrajectoryConfig(t_max=t_max, n_trajectories=cfg.traj, seed=cfg.seed + i),
        )
        z_rate, rate_ok = _z(stats.mean_rate, activity, stats.se_mean)
        z_q, q_ok = _z(stats.mandel_estimate, q_spectral, stats.se_mandel)
        ok = rate_ok and q_ok
        overall = overall and ok
        entries.append(
            {
                "temperature_K": temp,
                "channel": ch,
                "seed": cfg.seed + i,
                "t_max_cm": t_max,
                "n_trajectories": cfg.traj,
                "spectral": {"activity_cm1": activity, "mandel": q_spectral},
                "trajectories": {
                    "mean_rate": stats.mean_rate,
                    "se_mean": stats.se_mean,
                    "mandel": stats.mandel_estimate,
                    "se_mandel": stats.se_mandel,
                    "histogram": {str(k): v for k, v in sorted(stats.histogram.items())},
                },
                "z_rate": z_rate,
                "z_mandel": z_q,
                "pass": ok,
            }
        )
    doc = {"model": tag, "results": entries, "pass": overall}
    _write(Path(cfg.out) / "oracle_check.json", output.dump_json(doc))
    if not overall:
        sys.exit(1)


def _z(estimate, reference, se) -> tuple[float | None, bool]:
    """(z-score, pass).  z is None when no finite comparison exists: a
    vacuous one (both sides absent, e.g. all rates zero) passes, a one-sided
    one fails."""
    if estimate is None and reference is None:
        return None, True
    if estimate is None or reference is None:
        return None, False
    if se and se > 0:
        z = (estimate - reference) / se
        return z, abs(z) < 3.0
    return (0.0, True) if estimate == reference else (None, False)


if __name__ == "__main__":
    main()
