import json
import math
import os
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import excount
from excount import cli, lds
from excount.cli import main
from excount.units import CM1_TO_PS1

FMO2_JSON = {
    "energies": [200.0, 320.0],
    "couplings": [[0.0, -87.7], [-87.7, 0.0]],
    "labels": ["site1", "site2"],
    "bath": {"reorg_energy_cm1": 35.0, "cutoff_cm1": 150.0, "temperature_K": 300.0},
}
FMO2_RUN = {"preset": "fmo2", "channels": ["down:a2->a1"]}


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def read_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("s,"):
            continue
        rows.append([float(x) for x in line.split(",")])
    return rows


def test_presets_listing(runner):
    result = invoke(runner, ["presets"])
    assert result.exit_code == 0
    for name in ("fmo2", "fmo3", "fmo4"):
        assert name in result.output
    assert "-87.7" in result.output


def test_theta_scan_files(runner, tmp_path):
    result = invoke(
        runner,
        [
            "theta-scan", "--preset", "fmo3", "--temps", "77,150,300",
            "--channel", "pair:a1<->a2", "--out", str(tmp_path), "--format", "csv",
        ],
    )
    assert result.exit_code == 0
    files = sorted(tmp_path.glob("theta_scan__fmo3__T*K__pair_a1_a2.csv"))
    assert len(files) == 3
    for path in files:
        text = path.read_text()
        assert "s,theta_cm1,activity_cm1,activity_ps1,mandel" in text
        assert "nan" not in text.lower() and "inf" not in text.lower()
        rows = read_rows(path)
        assert len(rows) == 281
        s0_row = min(rows, key=lambda r: abs(r[0]))
        assert abs(s0_row[1]) < 1e-10


def test_theta_scan_fmo2_mandel_all_negative(runner, tmp_path):
    result = invoke(
        runner,
        [
            "theta-scan", "--preset", "fmo2", "--temps", "300",
            "--channel", "down:a2->a1", "--out", str(tmp_path),
        ],
    )
    assert result.exit_code == 0
    rows = read_rows(next(tmp_path.glob("*.csv")))
    assert all(row[4] < 0.0 for row in rows)


def test_theta_scan_svg(runner, tmp_path):
    result = invoke(
        runner,
        [
            "theta-scan", "--preset", "fmo2", "--temps", "300",
            "--channel", "down:a2->a1", "--out", str(tmp_path),
            "--format", "csv,svg", "--s-points", "81",
        ],
    )
    assert result.exit_code == 0
    svg = next(tmp_path.glob("*.svg"))
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")
    assert any(el.tag.endswith("polyline") for el in root.iter())


def test_theta_scan_svg_escapes_channel_selector(runner, tmp_path):
    result = invoke(
        runner,
        [
            "theta-scan", "--preset", "fmo3", "--temps", "77",
            "--channel", "pair:a1<->a2", "--out", str(tmp_path),
            "--format", "svg", "--s-points", "41",
        ],
    )
    assert result.exit_code == 0
    svg = next(tmp_path.glob("*.svg"))
    root = ET.fromstring(svg.read_text())
    assert any("pair:a1<->a2" in (el.text or "") for el in root.iter())


def test_model_file_matches_preset(runner, tmp_path):
    model_path = tmp_path / "dimer.json"
    model_path.write_text(json.dumps(FMO2_JSON))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    # temperature comes from the model file's bath section in run B
    invoke(runner, ["theta-scan", "--preset", "fmo2", "--temps", "300",
                    "--channel", "down:a2->a1", "--out", str(out_a)])
    invoke(runner, ["theta-scan", "--model", str(model_path),
                    "--channel", "down:a2->a1", "--out", str(out_b)])
    csv_a = next(out_a.glob("*.csv")).read_text()
    csv_b = next(out_b.glob("*.csv")).read_text()
    # identical numbers; only the model tag in the comment differs
    strip = lambda text: "\n".join(text.splitlines()[1:])
    assert strip(csv_a) == strip(csv_b)


def test_config_file_with_flag_override(runner, tmp_path):
    cfg = {
        "preset": "fmo2",
        "temps": [150.0],
        "channels": ["down:a2->a1"],
        "s_points": 41,
        "out": str(tmp_path / "from_config"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    result = invoke(runner, ["theta-scan", "--config", str(cfg_path)])
    assert result.exit_code == 0
    assert len(read_rows(next((tmp_path / "from_config").glob("*.csv")))) == 41
    # flag overrides the file value
    result = invoke(
        runner,
        ["theta-scan", "--config", str(cfg_path), "--s-points", "61",
         "--out", str(tmp_path / "override")],
    )
    assert result.exit_code == 0
    assert len(read_rows(next((tmp_path / "override").glob("*.csv")))) == 61


def test_bath_precedence_flag_config_model_default(runner, tmp_path):
    model = dict(FMO2_JSON, bath={
        "reorg_energy_cm1": 50.0, "cutoff_cm1": 200.0, "temperature_K": 250.0,
    })
    model_path = tmp_path / "dimer.json"
    model_path.write_text(json.dumps(model))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "model": str(model_path),
        "channels": ["down:a2->a1"],
        "s_points": 5,
        "bath": {"reorg_energy_cm1": 40.0, "cutoff_cm1": 180.0},
    }))

    def meta(out, *args):
        result = invoke(runner, ["theta-scan", "--out", str(tmp_path / out), *args])
        assert result.exit_code == 0
        return next((tmp_path / out).glob("*.csv")).read_text().splitlines()[0]

    # the model file's bath section beats the defaults (35, 150, 300)
    line = meta("model", "--model", str(model_path), "--channel", "down:a2->a1",
                "--s-points", "5")
    assert "temperature_K=250 " in line
    assert "reorg_cm1=50 cutoff_cm1=200" in line
    # the config file beats the model file
    line = meta("config", "--config", str(cfg_path))
    assert "temperature_K=250 " in line
    assert "reorg_cm1=40 cutoff_cm1=180" in line
    # flags beat the config file
    line = meta("flags", "--config", str(cfg_path), "--reorg-cm1", "30", "--temps", "77")
    assert "temperature_K=77 " in line
    assert "reorg_cm1=30 cutoff_cm1=180" in line


def test_unknown_config_key_rejected(runner, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"preset": "fmo2", "channels": ["down:a2->a1"], "speed": 9}')
    result = runner.invoke(main, ["theta-scan", "--config", str(cfg_path)])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert "speed" in err["error"]


def test_byte_identical_reruns(runner, tmp_path):
    args = [
        "theta-scan", "--preset", "fmo2", "--temps", "150,300",
        "--channel", "down:a2->a1", "--format", "csv,svg", "--s-points", "61",
    ]
    invoke(runner, args + ["--out", str(tmp_path / "one")])
    invoke(runner, args + ["--out", str(tmp_path / "two")])
    ones = sorted((tmp_path / "one").iterdir())
    twos = sorted((tmp_path / "two").iterdir())
    assert [p.name for p in ones] == [p.name for p in twos]
    for a, b in zip(ones, twos):
        assert a.read_bytes() == b.read_bytes()


def test_worker_count_does_not_change_output(runner, tmp_path):
    args = [
        "theta-scan", "--preset", "fmo3", "--temps", "77,150,300",
        "--channel", "down:a3->a2", "--channel", "pair:a1<->a2",
        "--s-points", "41",
    ]
    invoke(runner, args + ["--workers", "1", "--out", str(tmp_path / "serial")])
    invoke(runner, args + ["--workers", "6", "--out", str(tmp_path / "pooled")])
    serial = sorted((tmp_path / "serial").iterdir())
    pooled = sorted((tmp_path / "pooled").iterdir())
    assert [p.name for p in serial] == [p.name for p in pooled]
    for a, b in zip(serial, pooled):
        assert a.read_bytes() == b.read_bytes()


def test_threaded_slices_do_not_change_output(runner, tmp_path, monkeypatch):
    # 6 stacked tasks of 3 x 3 blocks: four s points of every task per slice,
    # and every stack is large enough to run its slices on threads, which
    # are capped at the processors
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    monkeypatch.setattr(lds, "_SLICE_ENTRIES", 4 * 6 * 9)
    monkeypatch.setattr(lds, "_THREAD_ENTRIES", 6 * 9)
    eigvals = np.linalg.eigvals
    threads = []

    def recording(a):
        threads.append(threading.get_ident())
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    args = [
        "theta-scan", "--preset", "fmo3", "--temps", "77,150,300",
        "--channel", "down:a3->a2", "--channel", "pair:a1<->a2",
        "--s-points", "41",
    ]
    invoke(runner, args + ["--workers", "1", "--out", str(tmp_path / "serial")])
    assert threads == [threading.get_ident()] * 11
    threads.clear()
    invoke(runner, args + ["--workers", "6", "--out", str(tmp_path / "pooled")])
    assert len(threads) == 11 and threading.get_ident() not in threads
    serial = sorted((tmp_path / "serial").iterdir())
    pooled = sorted((tmp_path / "pooled").iterdir())
    assert [p.name for p in serial] == [p.name for p in pooled]
    for a, b in zip(serial, pooled):
        assert a.read_bytes() == b.read_bytes()


def test_temperatures_with_different_jump_graphs_stack(runner, tmp_path):
    # at 0.5 K an upward fmo4 rate underflows to exactly 0, so the tasks of
    # the two temperatures differ in their jump graphs
    args = ["theta-scan", "--preset", "fmo4", "--channel", "all-down"]
    for temps in ("0.5,300", "0.5", "300"):
        result = invoke(runner, args + ["--temps", temps, "--out", str(tmp_path / temps)])
        assert result.exit_code == 0
    both = sorted((tmp_path / "0.5,300").iterdir())
    alone = sorted([*(tmp_path / "0.5").iterdir(), *(tmp_path / "300").iterdir()])
    assert [p.name for p in both] == [p.name for p in alone]
    for a, b in zip(both, alone):
        assert a.read_bytes() == b.read_bytes()


def test_negative_worker_count_rejected(runner, tmp_path):
    result = runner.invoke(
        main,
        ["theta-scan", "--preset", "fmo2", "--channel", "down:a2->a1",
         "--workers", "-3", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"].startswith("ConfigError:") and "workers" in err["error"]
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--temps", "inf"], "ValueError: temperature must be positive and finite, got inf"),
        (["--temps", "nan"], "ValueError: temperature must be positive and finite, got nan"),
        (["--reorg-cm1", "nan"], "ValueError: reorg_energy must be positive and finite"),
        (["--cutoff-cm1", "inf"], "ValueError: cutoff must be positive and finite"),
        (["--s-max", "inf"], "ConfigError: s grid bounds must be finite"),
        (["--s-min", "nan"], "ConfigError: s grid bounds must be finite"),
    ],
    ids=["temp-inf", "temp-nan", "reorg-nan", "cutoff-inf", "s-max-inf", "s-min-nan"],
)
def test_non_finite_inputs_rejected(runner, tmp_path, flags, message):
    result = runner.invoke(
        main,
        ["theta-scan", "--preset", "fmo2", "--channel", "down:a2->a1", *flags,
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    lines = [l for l in result.stderr.splitlines() if l.strip()]
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith(message)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("t_max_ps", ["-1", "0", "inf", "nan"])
def test_bad_observation_time_rejected(runner, tmp_path, t_max_ps):
    # refused in picoseconds as given, not in internal units
    result = runner.invoke(
        main,
        ["oracle-check", "--preset", "fmo2", "--channel", "down:a2->a1", "--traj", "10",
         f"--t-max-ps={t_max_ps}", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])["error"]
    assert err == f"ConfigError: --t-max-ps must be positive and finite, got {float(t_max_ps)}"
    assert not list(tmp_path.iterdir())


def test_crossover_map(runner, tmp_path):
    result = invoke(
        runner,
        [
            "crossover-map", "--preset", "fmo3", "--temps", "150,300",
            "--channel", "down:a3->a2", "--out", str(tmp_path),
        ],
    )
    assert result.exit_code == 0
    doc = json.loads((tmp_path / "crossover_map.json").read_text())
    by_temp = {entry["temperature_K"]: entry for entry in doc["results"]}
    assert by_temp[150.0]["s_star"] is not None
    assert by_temp[300.0]["s_star"] is not None
    assert abs(by_temp[300.0]["s_star"]) < abs(by_temp[150.0]["s_star"])
    assert by_temp[300.0]["counted"][0]["intensity_factor"] > 0.3
    assert by_temp[300.0]["local_max"]["q"] > by_temp[300.0]["q_at_zero"]


def test_crossover_map_fmo2_null(runner, tmp_path):
    invoke(
        runner,
        [
            "crossover-map", "--preset", "fmo2", "--temps", "150,300",
            "--channel", "down:a2->a1", "--out", str(tmp_path),
        ],
    )
    doc = json.loads((tmp_path / "crossover_map.json").read_text())
    assert all(entry["s_star"] is None for entry in doc["results"])
    assert all(entry["q_at_zero"] < 0.0 for entry in doc["results"])


def test_crossover_map_needs_two_temps(runner, tmp_path):
    result = runner.invoke(
        main,
        ["crossover-map", "--preset", "fmo3", "--temps", "300",
         "--channel", "down:a3->a2", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    assert "two temperatures" in result.stderr


def test_fmo4_q_zero_sign_change_with_temperature(runner, tmp_path):
    invoke(
        runner,
        [
            "crossover-map", "--preset", "fmo4", "--temps", "77,300",
            "--channel", "down:a4->a2", "--out", str(tmp_path),
        ],
    )
    doc = json.loads((tmp_path / "crossover_map.json").read_text())
    by_temp = {entry["temperature_K"]: entry for entry in doc["results"]}
    assert by_temp[77.0]["q_at_zero"] > 0.0
    assert by_temp[300.0]["q_at_zero"] < 0.0


def test_rate_function_output(runner, tmp_path):
    result = invoke(
        runner,
        [
            "rate-function", "--preset", "fmo2", "--temps", "300",
            "--channel", "down:a2->a1", "--out", str(tmp_path), "--s-points", "141",
        ],
    )
    assert result.exit_code == 0
    path = next(tmp_path.glob("rate_function__*.csv"))
    text = path.read_text()
    assert "k_cm1,k_ps1,phi_cm1" in text
    rows = [
        [float(x) for x in line.split(",")]
        for line in text.splitlines()
        if line and not line.startswith(("#", "k_cm1"))
    ]
    assert all(row[2] >= 0.0 for row in rows)
    assert min(row[2] for row in rows) < 1e-8


def test_oracle_check_pass(runner, tmp_path):
    result = invoke(
        runner,
        [
            "oracle-check", "--preset", "fmo2", "--temps", "300",
            "--channel", "down:a2->a1", "--traj", "2000", "--seed", "7",
            "--out", str(tmp_path),
        ],
    )
    assert result.exit_code == 0
    doc = json.loads((tmp_path / "oracle_check.json").read_text())
    assert doc["pass"] is True
    entry = doc["results"][0]
    assert abs(entry["z_rate"]) < 3.0 and abs(entry["z_mandel"]) < 3.0
    assert entry["spectral"]["activity_cm1"] > 0.0
    assert sum(entry["trajectories"]["histogram"].values()) == 2000


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_check_zero_coupling_trivial_pass(runner, tmp_path):
    model_path = tmp_path / "flat.json"
    model_path.write_text(
        json.dumps(
            {
                "energies": [0.0, 200.0],
                "couplings": [[0.0, 0.0], [0.0, 0.0]],
                "bath": FMO2_JSON["bath"],
            }
        )
    )
    result = invoke(
        runner,
        ["oracle-check", "--model", str(model_path), "--channel", "down:a2->a1",
         "--traj", "64", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0
    text = (tmp_path / "oracle_check.json").read_text()
    doc = json.loads(text)
    assert doc["pass"] is True
    entry = doc["results"][0]
    assert entry["spectral"]["activity_cm1"] == 0.0
    assert entry["trajectories"]["mean_rate"] == 0.0
    assert entry["spectral"]["mandel"] is None
    assert '"activity_cm1": 0.0,' in text and "-0.0" not in text  # no negative zero


def test_oracle_check_explicit_window(runner, tmp_path):
    result = invoke(
        runner,
        [
            "oracle-check", "--preset", "fmo2", "--temps", "300",
            "--channel", "down:a2->a1", "--traj", "500", "--seed", "3",
            "--t-max-ps", "120", "--out", str(tmp_path),
        ],
    )
    assert result.exit_code == 0
    doc = json.loads((tmp_path / "oracle_check.json").read_text())
    # 120 ps converted to internal 1/cm^-1 units
    assert doc["results"][0]["t_max_cm"] == pytest.approx(120.0 * CM1_TO_PS1, rel=1e-14)


def test_oracle_check_one_entry_per_task(runner, tmp_path):
    # one entry per (temperature, channel), each checking what theta-scan prints
    channels = ["--channel", "down:a3->a2", "--channel", "down:a2->a1"]
    result = invoke(
        runner,
        ["oracle-check", "--preset", "fmo3", "--temps", "300", *channels, "--traj", "100",
         "--seed", "5", "--out", str(tmp_path / "oracle")],
    )
    assert result.exit_code in (0, 1)
    doc = json.loads((tmp_path / "oracle" / "oracle_check.json").read_text())
    assert [(e["channel"], e["seed"]) for e in doc["results"]] == [
        ("down:a3->a2", 5), ("down:a2->a1", 6)
    ]
    invoke(
        runner,
        ["theta-scan", "--preset", "fmo3", "--temps", "300", *channels, "--s-min", "-1",
         "--s-max", "1", "--s-points", "3", "--out", str(tmp_path / "scan")],
    )
    for entry, slug in zip(doc["results"], ("down_a3_a2", "down_a2_a1")):
        path = tmp_path / "scan" / f"theta_scan__fmo3__T300K__{slug}.csv"
        row = next(line for line in path.read_text().splitlines() if line.startswith("0,"))
        spectral = entry["spectral"]
        _, _, activity, _, q = row.split(",")
        assert (activity, q) == (f"{spectral['activity_cm1']:.12g}", f"{spectral['mandel']:.12g}")


def test_unknown_format_rejected(runner, tmp_path):
    result = runner.invoke(
        main,
        ["theta-scan", "--preset", "fmo2", "--channel", "down:a2->a1",
         "--format", "csv,pdf", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    assert "pdf" in result.stderr


def test_json_format_rejected(runner, tmp_path):
    # no command writes JSON because of --format, so it is an unknown format
    result = runner.invoke(
        main,
        ["theta-scan", "--preset", "fmo2", "--channel", "down:a2->a1",
         "--format", "json", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert "unknown formats ['json']" in err["error"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["rate-function", "crossover-map", "oracle-check"])
def test_format_only_on_theta_scan(runner, tmp_path, command):
    # only theta-scan has a choice of formats; the others refuse the flag
    result = runner.invoke(
        main,
        [command, "--preset", "fmo2", "--temps", "150,300", "--channel", "down:a2->a1",
         "--format", "svg", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    assert "No such option '--format'" in result.stderr
    assert not list(tmp_path.iterdir())


def single_error(result):
    """The error of a refused command: exit 2 and one JSON line on stderr."""
    assert result.exit_code == 2
    lines = [line for line in result.stderr.splitlines() if line.strip()]
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"s_points": 2.5}, "config key 's_points' takes one integer, got 2.5"),
        ({"temps": ["300"]}, "config key 'temps' takes a list of numbers, got ['300']"),
        ({"channels": "down:a2->a1"},
         "config key 'channels' takes a list of strings, got 'down:a2->a1'"),
        ({"workers": True}, "config key 'workers' takes one integer, got True"),
        ({"bath": {"temperature_K": "hot"}},
         "config key 'bath.temperature_K' takes one number, got 'hot'"),
        ({"bath": {"temperature_K": True}},
         "config key 'bath.temperature_K' takes one number, got True"),
        ({"bath": 300}, "the bath section must be a JSON object, got 300"),
        ({"bath": {"temperature": 77}}, "unknown config key 'bath.temperature'"),
        ({"model_file": "dimer.json"}, "unknown config key 'model_file'"),
    ],
    ids=["float-s-points", "string-temps", "string-channels", "bool-workers",
         "string-temperature", "bool-temperature", "number-bath", "unknown-bath-key",
         "model-file-key"],
)
def test_config_value_types_checked(runner, tmp_path, doc, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**FMO2_RUN, **doc}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["theta-scan", "--config", str(cfg_path), "--out", str(out)])
    assert single_error(result) == f"ConfigError: {message}"
    assert not out.exists()


def test_config_document_must_be_an_object(runner, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps([FMO2_RUN]))
    out = tmp_path / "out"
    result = runner.invoke(main, ["theta-scan", "--config", str(cfg_path), "--out", str(out)])
    assert single_error(result) == f"ConfigError: config file {cfg_path} must hold a JSON object"
    assert not out.exists()


def test_model_file_unknown_bath_key_rejected(runner, tmp_path):
    model_path = tmp_path / "dimer.json"
    model_path.write_text(json.dumps({**FMO2_JSON, "bath": {"temperature": 77.0}}))
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["theta-scan", "--model", str(model_path), "--channel", "down:a2->a1", "--out", str(out)],
    )
    assert single_error(result) == "ConfigError: unknown config key 'bath.temperature'"
    assert not out.exists()


def test_model_file_unknown_top_level_key_rejected(runner, tmp_path):
    # without the refusal this ran at the default 300 K and exited 0
    model_path = tmp_path / "dimer.json"
    model_path.write_text(json.dumps({**FMO2_JSON, "temprature_K": 77}))
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["theta-scan", "--model", str(model_path), "--channel", "down:a2->a1", "--out", str(out)],
    )
    assert single_error(result) == "ModelError: unknown model file key 'temprature_K'"
    assert not out.exists()


def test_model_file_bath_types_checked(runner, tmp_path):
    model_path = tmp_path / "dimer.json"
    model_path.write_text(json.dumps({**FMO2_JSON, "bath": {"cutoff_cm1": [150.0]}}))
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["theta-scan", "--model", str(model_path), "--channel", "down:a2->a1", "--out", str(out)],
    )
    assert single_error(result) == (
        "ConfigError: config key 'bath.cutoff_cm1' takes one number, got [150.0]"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["theta-scan", "--temps", "300,300", "--channel", "down:a2->a1",
          "--channel", "down:a2->a1"], "repeated temperature 300.0"),
        (["theta-scan", "--temps", "300,300.0000001", "--channel", "down:a2->a1"],
         "repeated temperature 300.0000001"),
        (["theta-scan", "--channel", "down:a2->a1", "--channel", " down:a2->a1"],
         "repeated channel selector ' down:a2->a1'"),
        (["rate-function", "--channel", "down:a2->a1", "--channel", "down:a2->a1"],
         "repeated channel selector 'down:a2->a1'"),
        (["crossover-map", "--temps", "300,300", "--channel", "down:a2->a1"],
         "repeated temperature 300.0"),
        (["oracle-check", "--temps", "300,300", "--channel", "down:a2->a1", "--traj", "10"],
         "repeated temperature 300.0"),
    ],
    ids=["scan-both", "scan-temps-print-alike", "scan-channel-spaced", "rate-function",
         "crossover-map", "oracle-check"],
)
def test_repeated_tasks_rejected(runner, tmp_path, args, message):
    result = runner.invoke(main, [*args, "--preset", "fmo2", "--out", str(tmp_path)])
    assert single_error(result) == (
        f"ConfigError: {message}: two tasks would give the same output"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"channels": ["down:a2->a1"]}, "need a model: --preset NAME or --model FILE"),
        ({**FMO2_RUN, "temps": []}, "temperature list is empty"),
        ({**FMO2_RUN, "channels": []}, "no channel selectors given (--channel)"),
        ({**FMO2_RUN, "s_points": 1}, "s grid needs at least 2 points"),
        ({**FMO2_RUN, "s_min": 2.0, "s_max": 2.0}, "need s_min < s_max"),
        ({**FMO2_RUN, "traj": 0}, "need at least one trajectory"),
        ({**FMO2_RUN, "seed": -1}, "need seed >= 0, got -1"),
    ],
    ids=["no-model", "no-temps", "no-channels", "one-point", "empty-interval", "no-traj",
         "negative-seed"],
)
def test_run_config_refusals(runner, tmp_path, doc, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    result = runner.invoke(main, ["oracle-check", "--config", str(cfg_path), "--out", str(out)])
    assert single_error(result) == f"ConfigError: {message}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["theta-scan", "rate-function", "crossover-map",
                                     "oracle-check"])
def test_negative_seed_refused_before_any_solve(runner, tmp_path, monkeypatch, command):
    # every command checks every key, so a seed that only oracle-check
    # reads is refused by all four, and before the spectral solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the config was checked")

    monkeypatch.setattr(lds, "_spectra", no_solve)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**FMO2_RUN, "temps": [150, 300], "seed": -1}))
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--config", str(cfg_path), "--out", str(out)])
    assert single_error(result) == "ConfigError: need seed >= 0, got -1"
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, message",
    [({"temps": [300]}, "crossover-map needs at least two temperatures"),
     ({"s_points": 2}, "crossover-map needs at least 3 s points")],
    ids=["one-temperature", "two-points"],
)
def test_crossover_map_limits_refused_before_any_solve(runner, tmp_path, monkeypatch, doc,
                                                      message):
    # the limits of crossover-map are config errors, found before the model
    # is diagonalized; the other commands take the same config to the model
    def fails(what):
        def stub(*args, **kwargs):
            raise AssertionError(what)
        return stub

    monkeypatch.setattr(cli, "diagonalize", fails("diagonalized"))
    monkeypatch.setattr(lds, "_spectra", fails("solved"))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**FMO2_RUN, "temps": [150, 300], **doc}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["crossover-map", "--config", str(cfg_path), "--out", str(out)])
    assert single_error(result) == f"ConfigError: {message}"
    for command in ("theta-scan", "rate-function", "oracle-check"):
        result = runner.invoke(main, [command, "--config", str(cfg_path), "--out", str(out)])
        assert single_error(result) == "AssertionError: diagonalized"
    assert not out.exists()


COMMON_FLAGS = ["--config", "--preset", "--model", "--reorg-cm1", "--cutoff-cm1", "--temps",
                "--channel", "--out", "--workers"]
GRID_FLAGS = ["--s-min", "--s-max", "--s-points"]
COMMAND_FLAGS = {
    "theta-scan": [*COMMON_FLAGS, *GRID_FLAGS, "--format"],
    "rate-function": [*COMMON_FLAGS, *GRID_FLAGS],
    "crossover-map": [*COMMON_FLAGS, *GRID_FLAGS],
    "oracle-check": [*COMMON_FLAGS, "--seed", "--traj", "--t-max-ps"],
}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_flags_come_from_the_input_table(command):
    # each option is --config or a row of the table shown on this command,
    # named by its config key, and says what it does
    params = main.commands[command].params
    rows = [spec for spec in cli._INPUTS if command in spec.commands]
    assert sorted(opt for param in params for opt in param.opts) == sorted(
        ["--config", *(spec.flag for spec in rows)]) == sorted(COMMAND_FLAGS[command])
    assert sorted(param.name for param in params) == sorted(["config", *(s.key for s in rows)])
    assert all(param.help and param.help.strip() for param in params)


def parity_inputs(model_path):
    """(config key, JSON value, the same value as flags) of every input but
    --config, --out and --preset, none at its default; the numbers of float
    keys are JSON integers, which a run must read as the floats of a flag."""
    return [
        ("model", str(model_path), ["--model", str(model_path)]),
        ("reorg_cm1", 30, ["--reorg-cm1", "30"]),
        ("cutoff_cm1", 160, ["--cutoff-cm1", "160"]),
        ("temps", [150, 250], ["--temps", "150,250"]),
        ("channels", ["down:a2->a1", "pair:a1<->a2"],
         ["--channel", "down:a2->a1", "--channel", "pair:a1<->a2"]),
        ("workers", 2, ["--workers", "2"]),
        ("s_min", -1, ["--s-min", "-1"]),
        ("s_max", 3, ["--s-max", "3"]),
        ("s_points", 9, ["--s-points", "9"]),
        ("formats", ["svg", "csv"], ["--format", "svg,csv"]),
        ("seed", 3, ["--seed", "3"]),
        ("traj", 200, ["--traj", "200"]),
        ("t_max_ps", 40, ["--t-max-ps", "40"]),
    ]


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_config_keys_and_flags_write_the_same_files(runner, tmp_path, command):
    model_path = tmp_path / "dimer.json"
    model_path.write_text(json.dumps(FMO2_JSON))
    inputs = [row for row in parity_inputs(model_path) if row[2][0] in COMMAND_FLAGS[command]]
    # every flag but --config, --out and --preset (the model is a file)
    assert len(inputs) == len(COMMAND_FLAGS[command]) - 3
    cfg_path = tmp_path / "run.json"
    doc = {key: val for key, val, _ in inputs}
    cfg_path.write_text(json.dumps({**doc, "out": str(tmp_path / "config")}))
    from_config = runner.invoke(main, [command, "--config", str(cfg_path)])
    args = [arg for _, _, flag_args in inputs for arg in flag_args]
    from_flags = runner.invoke(main, [command, *args, "--out", str(tmp_path / "flags")])
    assert from_config.exit_code == from_flags.exit_code in (0, 1)  # 1: an oracle check fails
    config_files = sorted((tmp_path / "config").iterdir())
    flag_files = sorted((tmp_path / "flags").iterdir())
    assert config_files and [p.name for p in config_files] == [p.name for p in flag_files]
    for a, b in zip(config_files, flag_files):
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("text", [None, "{"], ids=["missing", "malformed"])
def test_unreadable_model_file_rejected(runner, tmp_path, text):
    model_path = tmp_path / "model.json"
    if text is not None:
        model_path.write_text(text)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["theta-scan", "--model", str(model_path), "--channel", "all-down", "--out", str(out)],
    )
    assert single_error(result).startswith(f"ConfigError: cannot read model file {model_path}: ")
    assert not out.exists()


# The refusals of a config or a model file, by (file, fault): the file's
# text (None: no file), and the start of the error, where {path} is the file.
INPUT_FILE_FAULTS = {
    ("config", "missing"): (None, "ConfigError: cannot read config file {path}: "),
    ("config", "malformed"): ("{", "ConfigError: cannot read config file {path}: "),
    ("config", "non-object"): ("[1, 2]", "ConfigError: config file {path} must hold a JSON object"),
    ("config", "non-numeric"): (json.dumps({**FMO2_RUN, "s_min": "ab"}),
                                "ConfigError: config key 's_min' takes one number, got 'ab'"),
    ("config", "non-finite"): (json.dumps({**FMO2_RUN, "s_max": math.inf}),
                               "ConfigError: s grid bounds must be finite"),
    ("model", "missing"): (None, "ConfigError: cannot read model file {path}: "),
    ("model", "malformed"): ("{", "ConfigError: cannot read model file {path}: "),
    ("model", "non-object"): ("[1, 2]", "ModelError: model file {path} must hold a JSON object"),
    ("model", "non-numeric"): (json.dumps({**FMO2_JSON, "energies": "ab"}),
                               "ModelError: model file key 'energies' must hold numbers"),
    ("model", "non-finite"): (json.dumps({**FMO2_JSON, "energies": [200.0, math.nan]}),
                              "ModelError: site energies must be finite"),
}


@pytest.mark.parametrize("kind, fault", list(INPUT_FILE_FAULTS),
                         ids=[f"{kind}-{fault}" for kind, fault in INPUT_FILE_FAULTS])
def test_input_file_faults_rejected(runner, tmp_path, kind, fault):
    text, message = INPUT_FILE_FAULTS[kind, fault]
    path = tmp_path / f"{kind}.json"
    if text is not None:
        path.write_text(text)
    flag = ["--config", str(path)] if kind == "config" else [
        "--model", str(path), "--channel", "down:a2->a1"]
    out = tmp_path / "out"
    result = runner.invoke(main, ["theta-scan", *flag, "--out", str(out)])
    assert single_error(result).startswith(message.format(path=path))
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra",
    [("theta-scan", []), ("rate-function", []), ("crossover-map", []),
     ("oracle-check", ["--traj", "10"])],
    ids=["theta-scan", "rate-function", "crossover-map", "oracle-check"],
)
def test_model_file_read_once(runner, tmp_path, monkeypatch, command, extra):
    model_path = tmp_path / "dimer.json"
    model_path.write_text(json.dumps(FMO2_JSON))
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    result = invoke(runner, [command, "--model", str(model_path), "--temps", "150,300",
                             "--channel", "down:a2->a1", *extra, "--out", str(tmp_path / "out")])
    assert result.exit_code == 0
    assert [Path(f) for f in opened].count(model_path) == 1


@pytest.mark.parametrize(
    "args, doc, message",
    [
        (["--temps", ""], {}, "temperature list is empty"),
        (["--temps", " , "], {}, "temperature list is empty"),
        (["--format", ","], {}, "format list is empty"),
        ([], {"formats": []}, "format list is empty"),
    ],
    ids=["temps-flag", "blank-temps-flag", "format-flag", "formats-key"],
)
def test_empty_lists_rejected(runner, tmp_path, args, doc, message):
    # an empty list is refused, never replaced by the default
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**FMO2_RUN, **doc}))
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["theta-scan", "--config", str(cfg_path), *args, "--out", str(out)]
    )
    assert single_error(result) == f"ConfigError: {message}"
    assert not out.exists()


def test_unparsable_temperature_list_rejected(runner, tmp_path):
    result = runner.invoke(
        main,
        ["theta-scan", "--preset", "fmo2", "--temps", "abc", "--channel", "down:a2->a1",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    assert "cannot parse temperature list 'abc'" in result.stderr
    assert not list(tmp_path.iterdir())


def test_invalid_config_machine_readable_error(runner, tmp_path):
    result = runner.invoke(
        main,
        ["theta-scan", "--preset", "fmo9", "--channel", "down:a2->a1",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    lines = [l for l in result.stderr.splitlines() if l.strip()]
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert "fmo9" in err["error"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_tilt_rejected(runner, tmp_path):
    result = runner.invoke(
        main,
        ["theta-scan", "--preset", "fmo2", "--channel", "down:a2->a1",
         "--s-min", "-800", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    lines = [l for l in result.stderr.splitlines() if l.strip()]
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err.startswith("ValueError: ") and "s=-800.0" in err
    assert "Warning" not in result.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_active_side_scans(runner, tmp_path):
    # at s = -100 the tilt is e^100, and the top eigenpair is still simple
    result = invoke(
        runner,
        ["theta-scan", "--preset", "fmo2", "--temps", "300", "--channel", "down:a2->a1",
         "--s-min", "-100", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0
    rows = read_rows(next(tmp_path.glob("*.csv")))
    assert rows[0][0] == -100.0 and len(rows) == 281
    assert all(row[4] < 0.0 for row in rows)


def test_preset_and_model_mutually_exclusive(runner, tmp_path):
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(FMO2_JSON))
    result = runner.invoke(
        main,
        ["theta-scan", "--preset", "fmo2", "--model", str(model_path),
         "--channel", "down:a2->a1", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    assert "mutually exclusive" in result.stderr


def test_five_site_user_model_end_to_end(runner, tmp_path):
    # larger aggregates enter as user files; nothing in the pipeline is
    # preset-specific
    import numpy as np

    rng = np.random.default_rng(12345)
    j = rng.normal(scale=45.0, size=(5, 5))
    j = np.triu(j, 1)
    j = j + j.T
    model = {
        "energies": rng.uniform(0.0, 900.0, size=5).tolist(),
        "couplings": j.tolist(),
    }
    path = tmp_path / "penta.json"
    path.write_text(json.dumps(model))
    result = invoke(
        runner,
        ["theta-scan", "--model", str(path), "--temps", "300",
         "--channel", "all-down", "--s-points", "57", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0
    rows = read_rows(next(tmp_path.glob("theta_scan__penta*.csv")))
    assert len(rows) == 57
    assert abs(min(rows, key=lambda r: abs(r[0]))[1]) < 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_coupling_scan_omits_undefined_mandel(runner, tmp_path):
    model_path = tmp_path / "flat.json"
    model_path.write_text(
        json.dumps({"energies": [0.0, 200.0], "couplings": [[0.0, 0.0], [0.0, 0.0]]})
    )
    result = invoke(
        runner,
        ["theta-scan", "--model", str(model_path), "--temps", "300",
         "--channel", "down:a2->a1", "--out", str(tmp_path), "--s-points", "41"],
    )
    assert result.exit_code == 0
    text = next(tmp_path.glob("theta_scan__flat*.csv")).read_text()
    assert "omitted_rows_undefined_mandel=41" in text
    assert "nan" not in text.lower()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_coupling_rate_function_writes_no_negative_zero(runner, tmp_path):
    model_path = tmp_path / "flat.json"
    model_path.write_text(
        json.dumps({"energies": [0.0, 200.0], "couplings": [[0.0, 0.0], [0.0, 0.0]]})
    )
    result = invoke(
        runner,
        ["rate-function", "--model", str(model_path), "--temps", "300",
         "--channel", "down:a2->a1", "--out", str(tmp_path), "--s-points", "5"],
    )
    assert result.exit_code == 0
    text = next(tmp_path.glob("rate_function__flat*.csv")).read_text()
    assert text.splitlines()[1:] == ["k_cm1,k_ps1,phi_cm1"] + ["0,0,0"] * 5


def test_cli_import_loads_no_scipy():
    # importing the CLI adds only stdlib, numpy, click and excount modules
    src = str(Path(excount.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import excount.cli; "
        "allowed = set(sys.stdlib_module_names) | {'numpy', 'click', 'excount'}; "
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] not in allowed))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
