"""Solver gateway: subprocess protocol, parsing dialects, decoding."""

import math
import os
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from valign import gateway
from valign.bench import ROAD_TEMPLATES, generate_instance
from valign.builder import build, fix_offsets, named_config
from valign.gateway import (
    GRACE_SECONDS,
    DecodeError,
    Solution,
    SolveError,
    SolverLimits,
    decode,
    parse_solution_text,
    solve,
)
from valign.validate import repricing_error, validate

from conftest import (
    BUNDLED_SOLVER,
    TWO_NODE_COST,
    TWO_NODE_OFFSETS,
    make_instance,
    pinned_road,
)

LIMITS = SolverLimits(time_limit=120.0, mip_gap=1e-9, feasibility_tol=1e-6)


def test_fixed_offset_objective(two_node_instance, tmp_path):
    config = named_config("MQN-B")
    model = fix_offsets(build(two_node_instance, config), TWO_NODE_OFFSETS)
    solution = solve(model, BUNDLED_SOLVER, LIMITS, workdir=str(tmp_path))
    assert solution.status == "optimal"
    assert solution.objective == pytest.approx(TWO_NODE_COST, rel=1e-6)
    # protocol files stay in the workdir for inspection
    assert (tmp_path / "model.mps").exists()
    assert (tmp_path / "model.sol").exists()
    assert (tmp_path / "solver.log").exists()


def test_decode_and_validate(two_node_instance, tmp_path):
    config = named_config("MQN-B")
    model = fix_offsets(build(two_node_instance, config), TWO_NODE_OFFSETS)
    solution = solve(model, BUNDLED_SOLVER, LIMITS, workdir=str(tmp_path))
    result = decode(solution, two_node_instance, model)
    assert result.offsets == pytest.approx(TWO_NODE_OFFSETS)
    assert result.section_cut[0] == pytest.approx(10.0)
    assert result.section_fill[2] == pytest.approx(10.0)
    report = validate(two_node_instance, config, result)
    assert report.passed, report.summary()


def test_infeasible_instance_reported():
    # fill 10 with no cut and no borrow pit anywhere
    inst = make_instance([100.0] * 3, areas=[10.0] * 3, offset=2.0)
    config = named_config("MQN-B")
    model = fix_offsets(build(inst, config), (0.0, 0.0, -1.0))
    solution = solve(model, BUNDLED_SOLVER, LIMITS)
    assert solution.status == "infeasible"
    assert solution.objective is None


def test_timeout_reported():
    inst = make_instance([100.0 + (i % 7) for i in range(150)],
                         segments=[10] * 15)
    model = build(inst, named_config("MQN-B"))
    limits = SolverLimits(time_limit=0.001, mip_gap=1e-9,
                          feasibility_tol=1e-6)
    solution = solve(model, BUNDLED_SOLVER, limits)
    assert solution.status == "timeout"


@pytest.mark.parametrize("config_name", ["MQN-B", "MQN-S1"])
def test_timeout_on_a_blocked_road(config_name):
    # A MIP's relaxation, the first of its runs, stops at the limit too.
    model = build(pinned_road("D-02 2 blocks"), named_config(config_name))
    limits = SolverLimits(time_limit=0.001, mip_gap=0.01,
                          feasibility_tol=1e-6)
    start = time.monotonic()
    solution = solve(model, BUNDLED_SOLVER, limits)
    assert solution.status == "timeout"
    assert time.monotonic() - start <= limits.time_limit + GRACE_SECONDS


def test_solver_error_on_bad_command():
    inst = make_instance([100.0] * 3)
    model = build(inst, named_config("MQN-B"))
    solution = solve(model, "nonexistent-solver-binary {mps} {sol}", LIMITS)
    assert solution.status == "error"


def test_own_workdir_removed_once_solver_answers(two_node_instance,
                                                 tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    model = fix_offsets(build(two_node_instance, named_config("MQN-B")),
                        TWO_NODE_OFFSETS)
    assert solve(model, BUNDLED_SOLVER, LIMITS).status == "optimal"
    assert list(tmp_path.iterdir()) == []
    unfillable = fix_offsets(build(two_node_instance, named_config("MQN-B")),
                             (0.0, 0.0, -1.0))
    assert solve(unfillable, BUNDLED_SOLVER, LIMITS).status == "infeasible"
    assert list(tmp_path.iterdir()) == []
    # a failed solve keeps its directory so the log can be read
    failed = solve(model, "nonexistent-solver-binary {mps} {sol}", LIMITS)
    assert failed.status == "error"
    assert os.path.exists(failed.solver_log_path)
    assert [p.name[:7] for p in tmp_path.iterdir()] == ["valign-"]


@pytest.mark.parametrize("template, reason", [
    ("solver-without-tokens", "must contain the {mps} and {sol} tokens"),
    ("solver '{mps} {sol}", "No closing quotation")], ids=["tokens", "quote"])
def test_command_template_requires_tokens(template, reason):
    inst = make_instance([100.0] * 3)
    model = build(inst, named_config("MQN-B"))
    with pytest.raises(SolveError, match=reason):
        solve(model, template, LIMITS)


def test_parse_pairs_dialect():
    sol = parse_solution_text(
        "# comment\nstatus optimal\nobjective 12.5\nwall_time 0.25\n"
        "X_1 3.0\nX_2 0.0\n", ("X_1", "X_2", "X_3"))
    assert sol.status == "optimal"
    assert sol.objective == 12.5
    assert sol.x.tolist() == [3.0, 0.0, 0.0]
    assert not sol.x.flags.writeable
    assert sol.wall_time == 0.25


def test_parse_xml_dialect():
    text = """<?xml version="1.0"?>
<CPLEXSolution>
  <header solutionStatusString="integer optimal solution"
          objectiveValue="7.25"/>
  <variables>
    <variable name="U_1" value="1.5"/>
    <variable name="Y_1_0" value="1"/>
  </variables>
</CPLEXSolution>"""
    sol = parse_solution_text(text, ("Y_1_0", "U_1"))
    assert sol.status == "optimal"
    assert sol.objective == 7.25
    assert sol.x.tolist() == [1.0, 1.5]


def test_parse_auto_sniffs_format():
    xml = '<sol status="infeasible"></sol>'
    assert parse_solution_text(xml, ("x",)).status == "infeasible"
    pairs = "status optimal\nobjective 1.0\nx 1.0\n"
    assert parse_solution_text(pairs, ("x",)).status == "optimal"


def test_timeout_with_incumbent_becomes_feasible():
    sol = parse_solution_text(
        "status timeout\nobjective 5.0\nx 2.0\n", ("x",))
    assert sol.status == "feasible"


@pytest.mark.parametrize("text", [
    "status optimal\nobjective 1.0\nW_9 1.0\nQ_2 2.0\n",
    "status optimal\nobjective 1.0\n",
    '<sol status="optimal" objective="1.0">'
    '<variable name="W_9" value="1.0"/></sol>',
], ids=["alien", "empty", "xml-alien"])
def test_values_that_name_no_column_read_as_error(text):
    # A file with no values for the model's columns has no solution to
    # read: it is an error, as a file with no values at all is.
    sol = parse_solution_text(text, ("U_1", "U_2"))
    assert (sol.status, sol.objective, sol.x.size) == ("error", None, 0)
    timeout = parse_solution_text(text.replace("optimal", "timeout"),
                                  ("U_1", "U_2"))
    assert (timeout.status, timeout.x.size) == ("timeout", 0)


def test_decode_rejects_unsolved():
    inst = make_instance([100.0] * 3)
    config = named_config("MQN-B")
    bad = Solution(status="infeasible", objective=None, x=np.empty(0),
                   wall_time=0.0)
    with pytest.raises(DecodeError):
        decode(bad, inst, build(inst, config))


def test_decode_rejects_alien_solution(two_node_instance):
    # An x that is not in the model's column order cannot be read by it.
    config = named_config("MQN-B")
    alien = Solution(status="optimal", objective=1.0,
                     x=np.array([1.0, 2.0]), wall_time=0.0)
    with pytest.raises(DecodeError, match="2 values for a model of"):
        decode(alien, two_node_instance, build(two_node_instance, config))


def test_decode_reads_absent_names_as_zero(two_node_instance):
    # A sparse solution file lists only its nonzero values; every other
    # column reads 0, and decode gives the full file's result.
    config = named_config("MQN-B")
    model = fix_offsets(build(two_node_instance, config), TWO_NODE_OFFSETS)
    solution = solve(model, BUNDLED_SOLVER, LIMITS)
    header = f"status optimal\nobjective {solution.objective!r}\n"
    pairs = list(zip(model.columns, solution.x.tolist()))
    listed = [(name, value) for name, value in pairs if value]
    assert 0 < len(listed) < len(model.columns)
    full, thin = (decode(parse_solution_text(header + "".join(
        f"{name} {value!r}\n" for name, value in lines), model.columns),
        two_node_instance, model) for lines in (pairs, listed))
    assert thin.x.tolist() == full.x.tolist()
    assert (thin.offsets, thin.section_cut, thin.section_fill) == \
        (full.offsets, full.section_cut, full.section_fill)


def test_decode_objective_consistency_guard(two_node_instance, tmp_path):
    config = named_config("MQN-B")
    model = fix_offsets(build(two_node_instance, config), TWO_NODE_OFFSETS)
    solution = solve(model, BUNDLED_SOLVER, LIMITS, workdir=str(tmp_path))
    tampered = replace(solution, objective=solution.objective + 100.0)
    with pytest.raises(DecodeError):
        decode(tampered, two_node_instance, model)
    # Finite values whose cost . x overflows to NaN disagree with any
    # objective, in decode and in the re-pricing check alike.
    road = generate_instance(1, ROAD_TEMPLATES["A"], 1)
    model = build(road, config)
    x = np.zeros(len(model.columns))
    x[np.flatnonzero(model.cost >= 2.0)[:2]] = (1e308, -1e308)
    with pytest.raises(DecodeError, match="objective mismatch: solver 5.0 "
                       "vs recomputed nan"), np.errstate(all="ignore"):
        decode(Solution("optimal", 5.0, x, 0.0), road, model)
    assert repricing_error(math.nan, 5.0) == \
        "recomputed cost nan != objective 5.0"


def test_limits_must_be_positive():
    with pytest.raises(Exception):
        SolverLimits(time_limit=-1.0, mip_gap=0.01, feasibility_tol=1e-6)


@pytest.mark.parametrize("column", ["FR_1_0_1_2", "U_1"])
def test_decode_rejects_non_finite_value(two_node_instance, tmp_path, column):
    # A NaN flow leaves cost . x NaN, which no objective tolerance rejects.
    config = named_config("MQN-B")
    model = fix_offsets(build(two_node_instance, config), TWO_NODE_OFFSETS)
    solution = solve(model, BUNDLED_SOLVER, LIMITS, workdir=str(tmp_path))
    x = solution.x.copy()
    x[model.columns.index(column)] = math.nan
    tampered = replace(solution, x=x)
    with pytest.raises(DecodeError,
                       match=f"non-finite value nan for {column}"):
        decode(tampered, two_node_instance, model)


def test_solver_time_is_the_solvers_own_report(two_node_instance, tmp_path):
    # wall_time stays the subprocess wall; solver_time is what the solver
    # wrote under wall_time.
    stub = tmp_path / "stub.py"
    stub.write_text("import sys\n"
                    "with open(sys.argv[2], 'w') as fh:\n"
                    "    fh.write('status optimal\\nobjective 0.0\\n'\n"
                    "             'wall_time 0.25\\nU_1 0.0\\n')\n")
    model = build(two_node_instance, named_config("MQN-B"))
    solution = solve(model, f"{sys.executable} {stub} {{mps}} {{sol}}",
                     LIMITS, workdir=str(tmp_path / "run"))
    assert solution.status == "optimal"
    assert solution.solver_time == 0.25
    assert solution.wall_time > 0.0 and solution.wall_time != 0.25
    assert parse_solution_text("status infeasible\n",
                               model.columns).solver_time == 0.0


def test_pairs_first_occurrence_wins():
    sol = parse_solution_text(
        "x abc\nx 1.0\ny 2.0\ny 3.0\n  # note\nstatus optimal\n"
        "status infeasible\nobjective 4\nobjective 5\nmessage m\n",
        ("x", "y"))
    assert sol.status == "optimal" and sol.objective == 4.0
    assert sol.x.tolist() == [0.0, 2.0]  # x's first value is no number


def test_solver_exit_is_seen_when_its_output_closes(two_node_instance,
                                                    tmp_path, monkeypatch):
    # The gateway reads the solver's output through a pipe and so learns
    # of its exit when the pipe closes, with no sleep-and-poll loop. Here
    # a grandchild holds the pipe a little longer, so the solver has
    # exited by then and no sleep is needed to reap it.
    stub = tmp_path / "stub.py"
    stub.write_text(
        "import subprocess, sys\n"
        "print('stub solver', flush=True)\n"
        "with open(sys.argv[2], 'w') as fh:\n"
        "    fh.write('status infeasible\\n')\n"
        "subprocess.Popen([sys.executable, '-S', '-c',\n"
        "                  'import time; time.sleep(0.5)'])\n")
    model = build(two_node_instance, named_config("MQN-B"))

    def no_sleep(seconds):
        raise AssertionError(f"the gateway slept {seconds} s")

    monkeypatch.setattr(time, "sleep", no_sleep)
    solution = solve(model, f"{sys.executable} -S {stub} {{mps}} {{sol}}",
                     LIMITS, workdir=str(tmp_path / "run"))
    monkeypatch.undo()
    assert solution.status == "infeasible"
    log = (tmp_path / "run" / "solver.log").read_text().splitlines()
    assert log[0].startswith("command: ")
    assert log[1:] == ["stub solver"]


def test_timed_out_solver_output_is_logged(two_node_instance, tmp_path,
                                           monkeypatch):
    # What the solver printed before the bound kills it reaches the log.
    stub = tmp_path / "stub.py"
    stub.write_text("import time\n"
                    "print('started', flush=True)\n"
                    "time.sleep(30)\n")
    monkeypatch.setattr(gateway, "GRACE_SECONDS", 0.5)
    model = build(two_node_instance, named_config("MQN-B"))
    limits = SolverLimits(time_limit=0.5)
    start = time.monotonic()
    solution = solve(model, f"{sys.executable} -S {stub} {{mps}} {{sol}}",
                     limits, workdir=str(tmp_path / "run"))
    assert time.monotonic() - start < 10.0
    assert solution.status == "timeout"
    log = (tmp_path / "run" / "solver.log").read_text().splitlines()
    assert log[1:] == ["started"]


def test_full_solution_is_read_onto_the_models_names():
    # A pairs file that lists the model's columns in order is keyed by the
    # model's own name objects, and read into a read-only x in the model's
    # column order.
    instance = generate_instance(1, ROAD_TEMPLATES["A"], 1)
    config = named_config("CTG-B")
    model = build(instance, config)
    x = np.arange(len(model.columns), dtype=float)
    objective = float(model.cost @ x)
    text = f"status optimal\nobjective {objective!r}\n" + "".join(
        f"{name} {value!r}\n" for name, value in zip(model.columns,
                                                      x.tolist()))
    _, values = gateway.parse_pairs(text, model.columns)
    assert all(map(lambda a, b: a is b, values, model.columns))
    solution = parse_solution_text(text, model.columns)
    result = decode(solution, instance, model)
    assert result.x.tolist() == x.tolist()
    assert not result.x.flags.writeable
    # Without the columns, or out of order, the file's own names are kept,
    # and x follows the order of the columns given.
    assert gateway.parse_pairs(text)[1] == values
    shuffled = parse_solution_text(text, model.columns[::-1])
    assert shuffled.x.tolist() == x[::-1].tolist()


def test_solution_read_stays_within_its_memory_bound():
    # Read a piece at a time onto the model's names and decoded into x
    # with no second dict: on C-01 CTG-B (10,227 columns) the traced peak
    # of parse_solution_text plus decode was 1.9 MB and is 0.83 MiB now.
    instance = generate_instance(1, ROAD_TEMPLATES["C"], 1)
    config = named_config("CTG-B")
    model = build(instance, config)
    text = "status optimal\nobjective 0.0\n" + "".join(
        f"{name} 0.0\n" for name in model.columns)
    tracemalloc.start()
    try:
        result = decode(parse_solution_text(text, model.columns), instance,
                        model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.x.size == 10227
    assert peak < 1.0 * 2**20
