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
from dataclasses import dataclass, fields, replace
from pathlib import Path

import click
import numpy as np

from . import lds, output
from .bath import BathSpec
from .generator import TiltedGenerator, resolve_counted, tilted_generator, transport_rates
from .model import diagonalize, load_model, preset, preset_names
from .trajectories import TrajectoryConfig, simulate
from .units import time_ps_to_cm

FORMATS = ("csv", "svg")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    preset: str | None = None
    model_file: str | None = None
    reorg_cm1: float = 35.0
    cutoff_cm1: float = 150.0
    temps: tuple[float, ...] = (300.0,)
    channels: tuple[str, ...] = ()
    s_min: float = lds.S_MIN_DEFAULT
    s_max: float = lds.S_MAX_DEFAULT
    s_points: int = lds.S_POINTS_DEFAULT
    out: str = "."
    formats: tuple[str, ...] = ("csv",)
    seed: int = 0
    traj: int = 10_000
    t_max_ps: float | None = None
    workers: int = 0

    def validate(self) -> "RunConfig":
        if self.preset and self.model_file:
            raise ConfigError("--preset and --model are mutually exclusive")
        if not self.preset and not self.model_file:
            raise ConfigError("need a model: --preset NAME or --model FILE")
        if not self.temps:
            raise ConfigError("temperature list is empty")
        if not self.channels:
            raise ConfigError("no channel selectors given (--channel)")
        bad = set(self.formats) - set(FORMATS)
        if bad:
            raise ConfigError(f"unknown formats {sorted(bad)}; allowed: {FORMATS}")
        if self.s_points < 2:
            raise ConfigError("s grid needs at least 2 points")
        if not np.isfinite([self.s_min, self.s_max]).all():
            raise ConfigError(f"s grid bounds must be finite, got [{self.s_min}, {self.s_max}]")
        if not self.s_min < self.s_max:
            raise ConfigError("need s_min < s_max")
        if self.traj < 1:
            raise ConfigError("need at least one trajectory")
        if self.t_max_ps is not None and not 0 < self.t_max_ps < np.inf:
            raise ConfigError(f"--t-max-ps must be positive and finite, got {self.t_max_ps}")
        if self.workers < 0:
            raise ConfigError(f"need workers >= 0 (0: all processors), got {self.workers}")
        return self


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _bath_values(bathsec: dict | None) -> dict:
    """RunConfig values from a JSON bath section (any subset of its keys)."""
    values: dict = {}
    if bathsec:
        if "reorg_energy_cm1" in bathsec:
            values["reorg_cm1"] = float(bathsec["reorg_energy_cm1"])
        if "cutoff_cm1" in bathsec:
            values["cutoff_cm1"] = float(bathsec["cutoff_cm1"])
        if "temperature_K" in bathsec:
            values["temps"] = (float(bathsec["temperature_K"]),)
    return values


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    values = _bath_values(doc.pop("bath", None))
    if "model" in doc:
        doc["model_file"] = doc.pop("model")
    for key, val in doc.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in ("temps", "channels", "formats"):
            val = tuple(val)
        values[key] = val
    return values


def _model_bath_defaults(model_file: str | None) -> dict:
    """Bath defaults carried inside a model JSON file, if any."""
    if not model_file:
        return {}
    try:
        with open(model_file) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read model file {model_file}: {exc}") from None
    return _bath_values(doc.get("bath"))


def _assemble_config(config_file: str | None, **flags) -> RunConfig:
    values: dict = {}
    if config_file:
        values.update(_load_config_file(config_file))
    model_file = flags.get("model_file") or values.get("model_file")
    for key, val in _model_bath_defaults(model_file).items():
        values.setdefault(key, val)
    for key, val in flags.items():
        if val is None or val == ():
            continue
        values[key] = val
    cfg = RunConfig(**values).validate()
    if cfg.workers == 0:
        cfg = replace(cfg, workers=os.cpu_count() or 1)
    return cfg


def _basis(cfg: RunConfig):
    return diagonalize(preset(cfg.preset) if cfg.preset else load_model(cfg.model_file))


def _bath(cfg: RunConfig, temp: float) -> BathSpec:
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
            print(
                json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
                file=sys.stderr,
            )
            sys.exit(2)

    return wrapper


def _parse_temps(_ctx, _param, value):
    if value is None:
        return None
    try:
        return tuple(float(t) for t in value.split(",") if t.strip())
    except ValueError:
        raise click.BadParameter(f"cannot parse temperature list {value!r}")


def _parse_formats(_ctx, _param, value):
    if value is None:
        return None
    return tuple(f.strip() for f in value.split(",") if f.strip())


def _common_options(fn):
    fn = click.option("--config", "config_file", type=click.Path(), default=None,
                      help="JSON config file; flags override its values.")(fn)
    fn = click.option("--preset", "preset_name", default=None,
                      help=f"Built-in model: {', '.join(preset_names())}.")(fn)
    fn = click.option("--model", "model_file", type=click.Path(), default=None,
                      help="Site model JSON file (energies/couplings in cm^-1).")(fn)
    fn = click.option("--reorg-cm1", type=float, default=None,
                      help="Bath reorganization energy (cm^-1).")(fn)
    fn = click.option("--cutoff-cm1", type=float, default=None,
                      help="Bath cutoff frequency (cm^-1).")(fn)
    fn = click.option("--temps", callback=_parse_temps, default=None,
                      help="Comma-separated temperatures in K, e.g. 77,150,300.")(fn)
    fn = click.option("--channel", "channels", multiple=True,
                      help='Counted channel selector, e.g. "down:a2->a1", '
                           '"pair:a1<->a2", "all-down". Repeatable.')(fn)
    fn = click.option("--out", default=None, type=click.Path(),
                      help="Output directory.")(fn)
    fn = click.option("--format", "formats", callback=_parse_formats, default=None,
                      help="Comma-separated output formats (csv,svg).")(fn)
    fn = click.option("--workers", type=int, default=None,
                      help="Worker pool size (default or 0: number of processors).")(fn)
    return fn


def _grid_options(fn):
    fn = click.option("--s-min", type=float, default=None)(fn)
    fn = click.option("--s-max", type=float, default=None)(fn)
    fn = click.option("--s-points", type=int, default=None)(fn)
    return fn


@click.group()
def main():
    """Counting statistics of jump trajectories in Markovian exciton transport."""


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


def _tasks(cfg: RunConfig, basis):
    """The (temperature, channel) tasks, and one generator that stacks
    them on its task axes (temperature, channel), in the same order."""
    rates = np.stack([transport_rates(basis, _bath(cfg, t)) for t in cfg.temps])
    counted = np.stack([resolve_counted(basis.n_excitons, [ch]) for ch in cfg.channels])
    tasks = [(t, ch) for t in cfg.temps for ch in cfg.channels]
    return tasks, TiltedGenerator(*np.broadcast_arrays(rates[:, None], counted[None]))


def _scan_tasks(cfg: RunConfig, basis):
    """The tasks and their scan results, from one stacked scan."""
    tasks, gen = _tasks(cfg, basis)
    grid = lds.default_s_grid(cfg.s_min, cfg.s_max, cfg.s_points)
    return tasks, lds.scan(gen, grid, workers=cfg.workers).tasks()


def _model_tag(cfg: RunConfig) -> str:
    if cfg.preset:
        return cfg.preset
    return Path(cfg.model_file).stem


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    click.echo(str(path))


@main.command("theta-scan")
@_common_options
@_grid_options
@_guarded
def theta_scan_cmd(config_file, preset_name, **flags):
    """Scan theta(s), activity and Mandel Q; one CSV per (temperature, channel)."""
    cfg = _assemble_config(config_file, preset=preset_name, **flags)
    basis = _basis(cfg)
    tasks, results = _scan_tasks(cfg, basis)
    outdir = Path(cfg.out)
    tag = _model_tag(cfg)
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


@main.command("rate-function")
@_common_options
@_grid_options
@_guarded
def rate_function_cmd(config_file, preset_name, **flags):
    """Legendre-transform rate function phi(k) from a theta scan."""
    cfg = _assemble_config(config_file, preset=preset_name, **flags)
    basis = _basis(cfg)
    tasks, results = _scan_tasks(cfg, basis)
    outdir = Path(cfg.out)
    tag = _model_tag(cfg)
    for (temp, ch), result in zip(tasks, results):
        k, phi = lds.rate_function(result)
        stem = f"rate_function__{tag}__T{output.format_temperature(temp)}K__{output.channel_slug(ch)}"
        meta = (
            f"model={tag} temperature_K={output.format_temperature(temp)} channel={ch}"
        )
        _write(outdir / f"{stem}.csv", output.rate_function_csv(k, phi, meta))


@main.command("crossover-map")
@_common_options
@_grid_options
@_guarded
def crossover_map_cmd(config_file, preset_name, **flags):
    """Crossover report (sign change and local maximum of Q) per (T, channel)."""
    cfg = _assemble_config(config_file, preset=preset_name, **flags)
    if len(cfg.temps) < 2:
        raise ConfigError("crossover-map needs at least two temperatures")
    basis = _basis(cfg)
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
        "model": _model_tag(cfg),
        "reorg_cm1": cfg.reorg_cm1,
        "cutoff_cm1": cfg.cutoff_cm1,
        "s_grid": {"min": cfg.s_min, "max": cfg.s_max, "points": cfg.s_points},
        "results": entries,
    }
    _write(Path(cfg.out) / "crossover_map.json", output.dump_json(doc))


@main.command("oracle-check")
@_common_options
@click.option("--seed", type=int, default=None, help="Base RNG seed.")
@click.option("--traj", type=int, default=None, help="Number of trajectories.")
@click.option("--t-max-ps", type=float, default=None,
              help="Observation time per trajectory in ps "
                   "(default: expected 200 counted jumps).")
@_guarded
def oracle_check_cmd(config_file, preset_name, **flags):
    """Cross-validate spectral rate and Q(0) against stochastic trajectories."""
    cfg = _assemble_config(config_file, preset=preset_name, **flags)
    basis = _basis(cfg)
    entries = []
    overall = True
    for i, temp in enumerate(cfg.temps):
        gen = tilted_generator(basis, _bath(cfg, temp), cfg.channels)
        at_zero = lds.scan(gen, [0.0])
        activity = float(at_zero.activity[0])
        q_spectral = None if np.isnan(at_zero.mandel[0]) else float(at_zero.mandel[0])
        if cfg.t_max_ps is not None:
            t_max = time_ps_to_cm(cfg.t_max_ps)
        elif activity > 0:
            t_max = 200.0 / activity
        else:
            t_max = 1.0
        stats = simulate(
            gen,
            TrajectoryConfig(t_max=t_max, n_trajectories=cfg.traj, seed=cfg.seed + i),
        )
        z_rate, rate_ok = _z(stats.mean_rate, activity, stats.se_mean)
        z_q, q_ok = _z(stats.mandel_estimate, q_spectral, stats.se_mandel)
        ok = rate_ok and q_ok
        overall = overall and ok
        entries.append(
            {
                "temperature_K": temp,
                "channel": list(cfg.channels),
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
    doc = {"model": _model_tag(cfg), "results": entries, "pass": overall}
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
