"""Tests of the benchmark's own arithmetic and failure counting.

    python3 -m pytest bench/test_bench.py
"""

import json

import pytest

import run
import tracing
import workloads
from tracing import Span


def span(sid, name, start, end, parent=None, cpu=None):
    return Span(sid, name, parent, start, end, end - start if cpu is None else cpu)


def test_union_length_merges_overlaps_and_gaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == pytest.approx(4.0)


def test_self_time_subtracts_covered_part_of_children_once():
    parent = span(0, "cli.theta-scan", 0.0, 10.0)
    # Overlapping children (two worker threads) and one running past the parent.
    kids = [span(1, "a", 1.0, 4.0, 0), span(2, "b", 3.0, 6.0, 0), span(3, "c", 8.0, 12.0, 0)]
    assert tracing.self_time(parent, kids) == pytest.approx(10.0 - 5.0 - 2.0)
    assert tracing.self_time(parent, []) == pytest.approx(10.0)


def test_fanout_parallelism_is_child_cpu_per_command_wall():
    spans = [
        span(0, "cli.theta-scan", 0.0, 10.0, cpu=0.0),
        # Two jobs interleaved on the interpreter lock: each spans the whole
        # command in wall time but was busy only half of it.
        span(1, "lds.scan", 0.0, 10.0, 0, cpu=4.5),
        span(2, "lds.scan", 0.0, 10.0, 0, cpu=4.5),
        span(3, "lds.theta", 1.0, 2.0, 1, cpu=1.0),  # grandchild: not a job
        span(4, "cli.oracle-check", 10.0, 20.0, cpu=0.1),  # does not fan out
        span(5, "trajectories.simulate", 10.0, 20.0, 4, cpu=0.1),
    ]
    assert tracing.fanout_parallelism(spans) == pytest.approx(0.9)
    spans[1] = span(1, "lds.scan", 0.0, 10.0, 0, cpu=10.0)
    spans[2] = span(2, "lds.scan", 0.0, 10.0, 0, cpu=10.0)
    assert tracing.fanout_parallelism(spans) == pytest.approx(2.0)
    assert tracing.fanout_parallelism([]) == 0.0


def test_layer_metrics_from_synthetic_spans():
    spans = [
        span(0, "cli.theta-scan", 0.0, 10.0, cpu=0.0),
        span(1, "lds.scan", 0.5, 9.5, 0, cpu=8.0),
        span(2, "lds.theta", 1.0, 5.0, 1),
        span(3, "lds.theta", 4.0, 8.0, 1),
    ]
    counts = {"lds.points": 4, "lds.dense_eig.calls": 6, "cli.files": 2}
    names = ["lds.theta.calls", "lds.theta.s", "lds.scan.s", "lds.scan.self_s",
             "cli.theta-scan.s", "cli.self_s", "cli.files", "lds.eig_per_point",
             "trajectories.simulate.s", "trajectories.jumps_per_s", "cli.fanout.parallelism"]
    m = tracing.layer_metrics(spans, counts, names)
    assert m["lds.theta.calls"] == 2
    assert m["lds.theta.s"] == pytest.approx(7.0)  # union, not 8.0
    assert m["lds.scan.s"] == pytest.approx(9.0)
    assert m["lds.scan.self_s"] == pytest.approx(2.0)
    assert m["cli.theta-scan.s"] == pytest.approx(10.0)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["cli.files"] == 2
    assert m["lds.eig_per_point"] == pytest.approx(1.5)
    assert m["trajectories.simulate.s"] == 0.0
    assert m["trajectories.jumps_per_s"] == 0.0
    assert m["cli.fanout.parallelism"] == pytest.approx(0.8)


def test_missing_hook_is_absent_and_others_restore():
    run.import_cli()
    import excount.cli
    import excount.lds

    original_scan = excount.lds.scan
    original_resolve = excount.cli.resolve_counted
    hooks = (
        tracing.Hook("lds.scan", "excount.lds", "scan"),
        tracing.Hook("generator.resolve_counted", "excount.generator", "resolve_counted"),
        tracing.Hook("lds.gone", "excount.lds", "_perron_root_renamed"),
        tracing.Hook("gone.build", "excount.generator", "NoSuchClass.__init__"),
        tracing.Hook("gone.module", "excount.no_such_module", "f"),
    )
    inst = tracing.Installation(tracing.Tracer(), hooks)
    try:
        assert inst.absent == [
            "excount.lds._perron_root_renamed",
            "excount.generator.NoSuchClass.__init__",
            "excount.no_such_module.f",
        ]
        assert excount.lds.scan is not original_scan
        # bound by name in cli as well
        assert excount.cli.resolve_counted is not original_resolve
    finally:
        inst.remove()
    assert excount.lds.scan is original_scan
    assert excount.cli.resolve_counted is original_resolve


def _tiny_scan(args_extra, rows=41):
    args = ["theta-scan", "--preset", "fmo2", "--temps", "300", *args_extra,
            "--s-min", "-2", "--s-max", "8", "--s-points", str(rows), "--workers", "1"]
    return workloads.Command(args, rows, workloads.check_aggregate_scan(rows))


def test_invalid_selector_counts_as_one_failed_op(tmp_path):
    cli_main = run.import_cli()
    workload = workloads.Workload(
        [_tiny_scan(["--channel", "down:a9->a1"]), _tiny_scan(["--channel", "down:a2->a1"])],
        "s_points",
    )
    result = run.run_pass(cli_main, workload, tmp_path)
    assert result.attempted == 2
    assert len(result.failures) == 1
    assert "exit code 2" in result.failures[0] and "a9" in result.failures[0]


def test_traced_pass_records_layer_spans(tmp_path):
    cli_main = run.import_cli()
    workload = workloads.Workload([_tiny_scan(["--channel", "down:a2->a1"])], "s_points")
    tracer = tracing.Tracer()
    names = ["lds.theta.calls", "lds.points", "generator.build.calls", "cli.files",
             "lds.scan.s", "cli.theta-scan.s", "bath.gamma.calls"]
    inst = tracing.Installation(tracer)
    try:
        result = run.run_pass(cli_main, workload, tmp_path, tracer, names)
    finally:
        inst.remove()
    assert inst.absent == []
    assert not result.failures
    m = result.layers
    assert m["lds.theta.calls"] == 41 and m["lds.points"] == 41
    assert m["generator.build.calls"] == 1 and m["cli.files"] == 1
    assert m["bath.gamma.calls"] > 0
    assert 0 < m["lds.scan.s"] <= m["cli.theta-scan.s"]


def _oracle_outcome(tmp_path, exit_code, z_rate, passed):
    entry = {"temperature_K": 300.0, "pass": passed, "z_rate": z_rate, "z_mandel": 0.1,
             "trajectories": {"histogram": {"3": 4, "5": 6}}}
    (tmp_path / "oracle_check.json").write_text(
        json.dumps({"results": [entry], "pass": passed})
    )
    return workloads.Outcome(exit_code, "", "", tmp_path)


def test_oracle_three_sigma_verdict_is_tallied_not_failed(tmp_path):
    tally = {}
    check = workloads.check_oracle(10, tally)
    assert check(_oracle_outcome(tmp_path, 1, 3.4, False)) == []
    assert tally == {"z3_fail": 1}
    assert check(_oracle_outcome(tmp_path, 1, -5.2, False))  # beyond |z| = 5
    assert check(_oracle_outcome(tmp_path, 0, 0.3, True)) == []
    assert tally == {"z3_fail": 2}
    assert check(workloads.Outcome(2, "", "SelectorError", tmp_path))


def _aggregates(tmp_path, name, seed):
    workdir = tmp_path / name
    workdir.mkdir()
    return workloads.aggregate_scan(seed, workdir, 1)


def test_aggregates_follow_the_seed(tmp_path):
    a = _aggregates(tmp_path, "a", 7)
    b = _aggregates(tmp_path, "b", 7)
    c = _aggregates(tmp_path, "c", 8)
    assert a.inputs == b.inputs != c.inputs
    name = "aggregate_n16.json"
    assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
    doc = json.loads((tmp_path / "a" / name).read_text())
    assert doc["bath"] == workloads.AGGREGATE_BATH and len(doc["energies"]) == 16
    for entry in a.inputs["aggregates"]:
        assert entry["min_bohr_gap_spacing_cm1"] >= workloads.MIN_GAP_SPACING
