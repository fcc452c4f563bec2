"""Benchmark layer: error metric, profiles, suite generation, matrix runs."""

import csv
import math
import sys
import tempfile
from dataclasses import replace

import pytest

from valign import bench, cli
from valign.bench import (
    ROAD_TEMPLATES,
    SUCCESS_THRESHOLD,
    BenchmarkRecord,
    benchmark_config_name,
    generate_instance,
    generate_suite,
    is_success,
    performance_profile,
    profile_svg,
    relative_error,
    run_matrix,
    write_accuracy_csv,
    write_times_csv,
)
from valign.builder import build, named_config
from valign.gateway import SolverLimits, solve
from valign.instance_io import RunConfig, parse_instance, write_instance
from valign.validate import ViolationReport

from conftest import BUNDLED_SOLVER, make_instance


def rec(inst, cfg, seconds, success=True, status="optimal"):
    return BenchmarkRecord(
        instance=inst, config=cfg, status=status,
        objective=1.0 if status in ("optimal", "feasible") else None,
        wall_time=seconds,
        relative_error=0.0 if success else None, success=success)


# -- relative error and the success predicate --------------------------------

def test_relative_error_examples():
    assert relative_error(101.0, 100.0) == pytest.approx(0.01)
    assert relative_error(127.15, 100.0) == pytest.approx(0.2715)
    assert relative_error(95.0, 100.0) == pytest.approx(-0.05)
    assert relative_error(0.0, 0.0) == 0.0


def test_relative_error_zero_benchmark():
    with pytest.raises(ValueError, match="zero benchmark"):
        relative_error(5.0, 0.0)


def test_success_threshold_is_inclusive():
    assert SUCCESS_THRESHOLD == 0.01
    assert is_success("optimal", 0.01, True)
    assert is_success("feasible", -0.01, True)
    assert not is_success("optimal", 0.010001, True)
    assert not is_success("optimal", 0.0, False)      # failed validation
    assert not is_success("timeout", 0.0, True)
    assert not is_success("optimal", None, True)


def test_benchmark_config_name():
    assert benchmark_config_name(make_instance([100.0] * 3)) == "CTG-B"
    blocked = make_instance([100.0] * 5, offset=4.0, blocks=[3], access=[1])
    assert benchmark_config_name(blocked) == "MQN-B"


# -- performance profiles -----------------------------------------------------

def test_profile_two_by_two():
    curves = performance_profile([
        rec("i1", "c1", 1.0), rec("i1", "c2", 4.0),
        rec("i2", "c1", 2.0), rec("i2", "c2", 2.0)])
    by_name = {c.config: c for c in curves}
    assert by_name["c1"].points == ((1.0, 1.0), (4.0, 1.0))
    assert by_name["c2"].points == ((1.0, 0.5), (4.0, 1.0))
    assert by_name["c2"].rho(1.0) == 0.5
    assert by_name["c2"].rho(3.999) == 0.5
    assert by_name["c2"].rho(4.0) == 1.0
    assert by_name["c2"].rho(0.5) == 0.0
    assert by_name["c2"].success_rate == 1.0


def test_profile_counts_failures_in_population():
    curves = performance_profile([
        rec("i1", "c1", 1.0), rec("i1", "c2", 4.0),
        rec("i2", "c1", 2.0), rec("i2", "c2", 9.0, status="timeout",
                                  success=False)])
    by_name = {c.config: c for c in curves}
    assert by_name["c2"].points == ((1.0, 0.0), (4.0, 0.5))
    assert by_name["c2"].success_rate == 0.5
    assert by_name["c1"].success_rate == 1.0


def test_profile_all_failed_config_stays_at_zero():
    curves = performance_profile([
        rec("i1", "c1", 1.0), rec("i1", "c2", 1.0, success=False),
        rec("i2", "c1", 2.0), rec("i2", "c2", 2.0, success=False)])
    by_name = {c.config: c for c in curves}
    assert all(rho == 0.0 for _, rho in by_name["c2"].points)
    assert by_name["c2"].success_rate == 0.0


def test_profile_single_config():
    curves = performance_profile([rec("i1", "c1", 3.0),
                                  rec("i2", "c1", 7.0)])
    assert curves[0].points == ((1.0, 1.0),)


def test_profile_empty():
    assert performance_profile([]) == []


def test_profile_curves_are_nondecreasing():
    curves = performance_profile([
        rec("i1", "c1", 1.0), rec("i1", "c2", 5.0),
        rec("i2", "c1", 3.0), rec("i2", "c2", 1.5),
        rec("i3", "c1", 2.0), rec("i3", "c2", 2.0, success=False)])
    for curve in curves:
        rhos = [rho for _, rho in curve.points]
        assert rhos == sorted(rhos)
        assert all(0.0 <= r <= 1.0 for r in rhos)


# -- synthetic instances -------------------------------------------------------

def test_road_templates_table():
    assert sorted(ROAD_TEMPLATES) == list("ABCDEFG")
    assert ROAD_TEMPLATES["A"].sections == 50
    assert ROAD_TEMPLATES["A"].section_length_m == 20.0
    assert ROAD_TEMPLATES["B"].length_km == 5.0
    assert ROAD_TEMPLATES["G"].sections == 450


def test_generate_instance_deterministic():
    a = generate_instance(7, ROAD_TEMPLATES["A"], 1, blocks=2, pits=2)
    b = generate_instance(7, ROAD_TEMPLATES["A"], 1, blocks=2, pits=2)
    c = generate_instance(8, ROAD_TEMPLATES["A"], 1, blocks=2, pits=2)
    assert a == b
    assert a != c


def test_generate_instance_shape_and_feasibility():
    inst = generate_instance(3, ROAD_TEMPLATES["A"], 2, blocks=2, pits=2)
    assert inst.n == 50
    assert inst.stations[1] - inst.stations[0] == 20.0
    assert len(inst.blocks) == 2
    assert inst.access_roads  # blocks imply at least one access road
    assert sum(inst.segment_layout.segment_sizes) == inst.n
    assert all(size >= 5 for size in inst.segment_layout.segment_sizes)
    for pit in inst.borrow_pits + inst.waste_pits:
        assert 1 < pit.attached_section < inst.n
    inst.check()


def test_generate_suite_deterministic(tmp_path):
    first = generate_suite(11, ["A"], str(tmp_path / "one"), variants=2)
    second = generate_suite(11, ["A"], str(tmp_path / "two"), variants=2)
    assert [p.rsplit("/", 1)[1] for p in first] == ["A-01.json", "A-02.json"]
    for p1, p2 in zip(first, second):
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
    parsed = parse_instance(first[0])
    assert parsed.n == 50


# -- matrix runs ----------------------------------------------------------------

RUN = RunConfig(solver_command=BUNDLED_SOLVER,
                limits=SolverLimits(time_limit=60.0, mip_gap=1e-6,
                                    feasibility_tol=1e-6),
                configs=("MQN-B",))


def zigzag_instance():
    # no quadratic interpolates this terrain, so some earthwork is forced;
    # symmetric offsets keep cut and fill balanced without pits
    return make_instance([100.0, 101.0, 100.0, 101.0],
                         areas=[10.0] * 4, offset=0.5)


def test_run_matrix_records_and_csvs(tmp_path):
    suite = [
        ("flat", make_instance([100.0] * 3, areas=[10.0] * 3, offset=2.0)),
        ("blocky", make_instance([100.0, 100.0, 101.0, 100.0, 100.0],
                                 areas=[10.0] * 5, offset=4.0,
                                 blocks=[3], access=[1, 5])),
    ]
    records = run_matrix(suite, ["MQN-B", "CTG-B"], RUN,
                         out_dir=str(tmp_path), workers=2)
    cells = {(r.instance, r.config): r for r in records}
    assert len(records) == 4

    assert cells[("flat", "MQN-B")].success
    assert cells[("flat", "CTG-B")].success
    assert cells[("blocky", "MQN-B")].success
    assert cells[("blocky", "MQN-B")].relative_error == 0.0
    # transportation model cannot express blocks: recorded, not raised
    assert cells[("blocky", "CTG-B")].status == "error"
    assert not cells[("blocky", "CTG-B")].success
    assert cells[("blocky", "CTG-B")].objective is None

    with open(tmp_path / "times.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance", "config", "status", "seconds"]
    assert len(rows) == 5
    with open(tmp_path / "accuracy.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["config", "opt_found", "min_err", "mean_err",
                       "max_err"]
    assert {row[0] for row in rows[1:]} == {"MQN-B", "CTG-B"}
    assert (tmp_path / "profile.csv").exists()


def test_run_matrix_hidden_benchmark():
    suite = [("zigzag", zigzag_instance())]
    records = run_matrix(suite, ["MQN-B"], RUN, workers=1)
    assert [r.config for r in records] == ["MQN-B"]
    only = records[0]
    # graded against a transportation-model solve that is not recorded
    assert only.relative_error is not None
    assert abs(only.relative_error) < 1e-4
    assert only.success


def test_times_csv_marks_timeouts(tmp_path):
    path = tmp_path / "times.csv"
    write_times_csv([rec("i1", "c1", 9.9, status="timeout", success=False)],
                    str(path))
    rows = list(csv.reader(path.open(newline="")))
    assert rows[1] == ["i1", "c1", "timeout", "NaN"]


def test_accuracy_csv_handles_no_solved_rows(tmp_path):
    path = tmp_path / "accuracy.csv"
    write_accuracy_csv([rec("i1", "c1", 0.0, status="error", success=False)],
                       str(path))
    rows = list(csv.reader(path.open(newline="")))
    assert rows[1] == ["c1", "0", "NaN", "NaN", "NaN"]


def test_profile_svg(tmp_path):
    curves = performance_profile([
        rec("i1", "c1", 1.0), rec("i1", "c2", 4.0),
        rec("i2", "c1", 2.0), rec("i2", "c2", 2.0)])
    path = tmp_path / "profile.svg"
    profile_svg(curves, str(path))
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "c1" in text and "c2" in text
    assert math.isfinite(float(text.split('width="', 1)[1].split('"')[0]))


def test_failed_reference_is_not_zero_error(monkeypatch):
    # The CTG-B reference fails to build: the MQN-B cell it grades cannot
    # count as a success, and both failures say why.
    real_build = bench.build

    def build_without_ctg(instance, config):
        if config.model == "CTG":
            raise RuntimeError("no reference today")
        return real_build(instance, config)

    monkeypatch.setattr(bench, "build", build_without_ctg)
    suite = [("zigzag", zigzag_instance())]
    lines = []
    hidden = run_matrix(suite, ["MQN-B"], RUN, workers=1,
                        progress=lines.append)
    assert [r.config for r in hidden] == ["MQN-B"]
    assert hidden[0].status == "optimal"
    assert hidden[0].relative_error is None
    assert not hidden[0].success
    assert hidden[0].reason == "no validated CTG-B reference"
    assert "zigzag CTG-B: error 0.00s (RuntimeError: no reference today)" \
        in lines

    shown = {r.config: r for r in run_matrix(suite, ["MQN-B", "CTG-B"], RUN,
                                             workers=1)}
    assert not shown["MQN-B"].success
    assert shown["CTG-B"].status == "error"
    assert shown["CTG-B"].reason == "RuntimeError: no reference today"


def test_failed_validation_names_its_families(monkeypatch):
    # Each family over the tolerance, with its worst residual, in family
    # order; one at the tolerance passes and is not named.
    def failing(instance, config, result, tolerance):
        report = ViolationReport(tolerance)
        for name, worst in (("bounds", 0.25), ("slope", math.inf),
                            ("volume", tolerance)):
            report.families[name].worst = worst
        return report

    monkeypatch.setattr(bench, "validate", failing)
    record, = run_matrix([("zigzag", zigzag_instance())], ["CTG-B"], RUN,
                         workers=1)
    assert record.status == "optimal" and not record.success
    assert record.reason == "validation failed: slope inf, bounds 0.25"


def test_solver_message_is_the_error_cells_reason(tmp_path, capsys,
                                                  monkeypatch):
    # The bundled adapter writes why it failed under the message key: the
    # solution keeps it, the error cell gives it as its reason, and the
    # CLI's "solver failed" line ends with it. A solver that cannot start,
    # whose file does not parse, or that leaves no file or a blank one
    # (written None: the stub exits with code 7 and writes nothing), fails
    # with the gateway's own reason in its place. A failed solve keeps its
    # workdir, here under tmp_path.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    stub = f"{sys.executable} -S {tmp_path / 'stub.py'} {{mps}} {{sol}}"
    cases = [
        ("status error\nmessage boom\n", stub, "boom"),
        ("", "nonexistent-solver-binary {mps} {sol}",
         "launch failure: [Errno 2] No such file or directory: "
         "'nonexistent-solver-binary'"),
        ("status optimal\nobjective abc\nU_1 1.0\n", stub,
         "bad objective 'abc'"),
        (None, stub, "no solution file (exit code 7)"),
        (" \n", stub, "empty solution file (exit code 0)")]
    instance = zigzag_instance()
    path = write_instance(instance, str(tmp_path / "zigzag.json"))
    for written, command, reason in cases:
        (tmp_path / "stub.py").write_text(
            "raise SystemExit(7)\n" if written is None else
            f"import sys\nopen(sys.argv[2], 'w').write({written!r})\n")
        run = replace(RUN, solver_command=command)
        solution = solve(build(instance, named_config("MQN-B")), command,
                         run.limits)
        assert (solution.status, solution.message) == ("error", reason)
        record, = run_matrix([("zigzag", instance)], ["MQN-B"], run,
                             workers=1)
        assert (record.status, record.reason) == ("error", reason)
        assert cli.main(["solve", path, "--solver", command]) == 3
        assert capsys.readouterr().err.endswith(f"solver.log): {reason}\n")
