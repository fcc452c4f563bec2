"""Command line behaviour: exit codes, outputs, solver resolution."""

import csv
import json
from dataclasses import replace

import pytest

from valign import cli
from valign.cli import main
from valign.gateway import SolverLimits
from valign.instance_io import write_instance
from valign.mps import parse_mps

from conftest import BUNDLED_SOLVER, make_instance

SOLVER_ARGS = ["--solver", BUNDLED_SOLVER, "--time-limit", "60",
               "--gap", "1e-6"]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("VALIGN_SOLVER_CMD", raising=False)


@pytest.fixture
def two_node_path(tmp_path):
    inst = make_instance([100.0, 101.0, 100.0], areas=[10.0] * 3, offset=2.0)
    return write_instance(inst, str(tmp_path / "two_node.json"))


@pytest.fixture
def zigzag_path(tmp_path):
    inst = make_instance([100.0, 101.0, 100.0, 101.0], areas=[10.0] * 4,
                         offset=0.5)
    return write_instance(inst, str(tmp_path / "zigzag.json"))


@pytest.fixture
def blocked_path(tmp_path):
    inst = make_instance([100.0, 100.0, 101.0, 100.0, 100.0],
                         areas=[10.0] * 5, offset=4.0,
                         blocks=[3], access=[1, 5])
    return write_instance(inst, str(tmp_path / "blocked.json"))


def usage_error(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    return err.value.code


# -- validate ----------------------------------------------------------------

def test_validate_ok(two_node_path, capsys):
    assert main(["validate", two_node_path]) == 0
    assert "valid; sections=3" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = {"sections": [
        {"station": 0.0, "ground_elevation": 100.0, "area": 10.0,
         "offset_lo": -2.0, "offset_hi": 2.0},
        {"station": 0.0, "ground_elevation": 100.0, "area": 10.0,
         "offset_lo": -2.0, "offset_hi": 2.0},
    ]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "strictly increasing" in capsys.readouterr().err


# -- build ---------------------------------------------------------------------

def test_build_writes_mps(two_node_path, tmp_path, capsys):
    out = str(tmp_path / "model.mps")
    assert main(["build", two_node_path, "-o", out]) == 0
    line = capsys.readouterr().out
    assert "variables=" in line and "sos_sets=" in line
    with open(out) as fh:
        assert "NAME" in fh.read()


def test_build_sos1_blocks_reports_sets(blocked_path, tmp_path, capsys):
    out = str(tmp_path / "model.mps")
    assert main(["build", blocked_path, "--blocks", "sos1", "-o", out]) == 0
    stats = capsys.readouterr().out
    sos = int(stats.rsplit("sos_sets=", 1)[1])
    assert sos >= 1


def test_build_ctg_rejects_blocks(blocked_path, tmp_path, capsys):
    rc = main(["build", blocked_path, "--model", "ctg",
               "-o", str(tmp_path / "x.mps")])
    assert rc == 1
    assert "valign:" in capsys.readouterr().err


def test_build_piecewise_needs_curves(two_node_path, tmp_path):
    rc = main(["build", two_node_path, "--volumes", "piecewise-binary",
               "-o", str(tmp_path / "x.mps")])
    assert rc == 1


def test_qnf_requires_haul(two_node_path, tmp_path):
    rc = usage_error(["build", two_node_path, "--model", "qnf",
                      "-o", str(tmp_path / "x.mps")])
    assert rc == 2


def test_haul_flag_only_for_qnf(two_node_path, tmp_path):
    rc = usage_error(["build", two_node_path, "--haul", "S",
                      "-o", str(tmp_path / "x.mps")])
    assert rc == 2


# -- solve -----------------------------------------------------------------------

def test_solve_needs_solver_command(two_node_path):
    assert usage_error(["solve", two_node_path]) == 2


@pytest.mark.parametrize("flags", [
    ["--gap", "0"], ["--time-limit", "-1"], ["--feasibility-tol", "0"],
    ["--gap", "nan"]])
def test_solve_rejects_bad_limits(two_node_path, flags, capsys):
    argv = ["solve", two_node_path, "--solver", BUNDLED_SOLVER, *flags]
    assert usage_error(argv) == 2
    assert "must be > 0" in capsys.readouterr().err


# A template without the {mps} and {sol} tokens, and one that does not
# split into words.
MALFORMED_TEMPLATES = [
    ("echo hi", "solver command must contain the {mps} and {sol} tokens"),
    ("solver '{mps} {sol}", "solver command: No closing quotation")]


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("template, reason", MALFORMED_TEMPLATES,
                         ids=["tokens", "quote"])
def test_solve_rejects_malformed_template(two_node_path, tmp_path,
                                          monkeypatch, capsys, source,
                                          template, reason):
    # A usage error before anything is built, with no traceback.
    monkeypatch.setattr(cli, "build", None)
    argv = ["solve", two_node_path, "-o", str(tmp_path / "result.txt")]
    if source == "flag":
        argv += ["--solver", template]
    else:
        monkeypatch.setenv("VALIGN_SOLVER_CMD", template)
    assert usage_error(argv) == 2
    assert capsys.readouterr().err.endswith(f"error: {reason}\n")
    assert not (tmp_path / "result.txt").exists()


def test_solve_env_resolution(zigzag_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VALIGN_SOLVER_CMD", BUNDLED_SOLVER)
    out = tmp_path / "result.txt"
    rc = main(["solve", zigzag_path, "--gap", "1e-6", "-o", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("status optimal")
    assert "validation pass" in text
    assert "section 1 offset" in text
    assert "overall: pass" in capsys.readouterr().out


def test_solve_block_instance(blocked_path, tmp_path):
    out = tmp_path / "result.txt"
    rc = main(["solve", blocked_path, *SOLVER_ARGS, "-o", str(out)])
    assert rc == 0
    assert "removal 1 1 1.0" in out.read_text()


@pytest.mark.parametrize("flags", [[], ["--blocks", "sos1"],
                                   ["--model", "qnf", "--haul", "avg"]],
                         ids=["MQN-B", "MQN-S1", "QNA-B"])
def test_solve_closes_suite_road_by_schedule(tmp_path, flags):
    # C-01 of the generated suite, two blocks: rounding up misses the gap
    # and a removal schedule closes it. Its gates are exactly closed or
    # open, and the answer validates and re-prices (exit 0).
    from valign.bench import generate_suite
    generate_suite(1, "ABC", str(tmp_path / "suite"), variants=2)
    out, work = tmp_path / "result.txt", tmp_path / "work"
    rc = main(["solve", str(tmp_path / "suite" / "C-01.json"), *flags,
               "--solver", BUNDLED_SOLVER, "--time-limit", "60",
               "--gap", "0.01", "--workdir", str(work), "-o", str(out)])
    assert rc == 0
    assert "(schedule " in (work / "solver.log").read_text()
    text = out.read_text()
    assert "validation pass" in text
    # The file lists nonzero values only: a gate it leaves out is 0.
    columns = parse_mps((work / "model.mps").read_text()).columns
    gates = [name for name in columns if name.startswith("Y_")]
    assert len(gates) == 6      # two blocks, steps 0-2
    written = dict(line.split() for line in (work / "model.sol").read_text()
                   .splitlines() if line.startswith("Y_"))
    assert written.keys() <= set(gates)
    assert set(written.values()) == {"1.0"}


def test_solve_infeasible(tmp_path):
    inst = make_instance([100.0] * 3, areas=[10.0] * 3, offset=2.0)
    forced = replace(inst, sections=tuple(
        replace(s, offset_lo=-1.0, offset_hi=-1.0) for s in inst.sections))
    path = write_instance(forced, str(tmp_path / "fill_only.json"))
    rc = main(["solve", path, *SOLVER_ARGS])
    assert rc == 1


def test_solve_timeout(tmp_path, capsys):
    inst = make_instance([100.0 + (i % 7) for i in range(150)],
                         segments=[10] * 15)
    path = write_instance(inst, str(tmp_path / "large.json"))
    rc = main(["solve", path, "--solver", BUNDLED_SOLVER,
               "--time-limit", "0.001"])
    assert rc == 4
    assert "limit" in capsys.readouterr().err


def test_solve_solver_failure(two_node_path, capsys):
    rc = main(["solve", two_node_path,
               "--solver", "false {mps} {sol} {timelimit} {gap}"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "solver failed" in err
    assert err.endswith(": no solution file (exit code 1)\n")


# -- oracle ----------------------------------------------------------------------

def test_oracle_prices_fixed_offsets(two_node_path, capsys):
    assert main(["oracle", two_node_path, "--at", "1,0,-1"]) == 0
    out = capsys.readouterr().out
    cost = float(out.splitlines()[0].split()[1])
    assert cost == pytest.approx(63.2)


def test_oracle_grid_search(two_node_path, capsys):
    assert main(["oracle", two_node_path, "--grid", "3"]) == 0
    out = capsys.readouterr().out
    assert float(out.splitlines()[0].split()[1]) == pytest.approx(0.0)


def test_oracle_infeasible_offsets(two_node_path):
    assert main(["oracle", two_node_path, "--at=-1,-1,-1"]) == 1


@pytest.mark.parametrize("at, message", [
    ("1,0", "need 3 offsets, got 2"),
    ("1,0,-1,0", "need 3 offsets, got 4"),
    ("1,inf,-1", "offset of section 2 is not finite: inf"),
    ("nan,0,-1", "offset of section 1 is not finite: nan"),
])
def test_oracle_checks_its_offsets(two_node_path, capsys, at, message):
    # A usage error: too few offsets raised IndexError, too many were
    # ignored, and a non-finite one priced as cost 0.0.
    assert main(["oracle", two_node_path, f"--at={at}"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"valign: {message}\n")


def test_oracle_refuses_oversized_grid(tmp_path):
    inst = make_instance([100.0] * 9, areas=[10.0] * 9, offset=2.0)
    path = write_instance(inst, str(tmp_path / "wide.json"))
    assert main(["oracle", path, "--grid", "3"]) == 2


# -- bench / report ------------------------------------------------------

@pytest.fixture
def suite_dir(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    write_instance(make_instance([100.0] * 3, areas=[10.0] * 3, offset=2.0),
                   str(suite / "flat.json"))
    write_instance(make_instance([100.0, 101.0, 100.0, 101.0],
                                 areas=[10.0] * 4, offset=0.5),
                   str(suite / "zigzag.json"))
    return str(suite)


def test_bench_and_report(suite_dir, tmp_path, capsys):
    out = str(tmp_path / "report")
    rc = main(["bench", suite_dir, "--configs", "MQN-B", *SOLVER_ARGS,
               "--workers", "2", "--out", out, "--verbose"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "config" in captured.out and "wrote" in captured.out
    assert "flat MQN-B: optimal" in captured.err
    with open(f"{out}/times.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # header + 2 cells

    assert main(["report", out]) == 0
    assert "times.csv" in capsys.readouterr().out


def test_bench_unknown_config(suite_dir, tmp_path):
    rc = usage_error(["bench", suite_dir, "--configs", "NOPE",
                      *SOLVER_ARGS, "--out", str(tmp_path / "r")])
    assert rc == 2


def test_bench_empty_suite(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    rc = usage_error(["bench", str(empty), *SOLVER_ARGS,
                      "--out", str(tmp_path / "r")])
    assert rc == 2


@pytest.mark.parametrize("run_config", [False, True])
def test_bench_rejects_bad_limits(suite_dir, tmp_path, capsys, run_config):
    argv = ["bench", suite_dir, "--solver", BUNDLED_SOLVER, "--gap", "0",
            "--out", str(tmp_path / "r")]
    if run_config:
        run_file = tmp_path / "run.json"
        run_file.write_text(json.dumps({"solver_command": BUNDLED_SOLVER}),
                            encoding="utf-8")
        argv += ["--run-config", str(run_file)]
    assert usage_error(argv) == 2
    assert "must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("run_config", [False, True])
def test_bench_rejects_unknown_configs_flag(suite_dir, tmp_path, capsys,
                                            run_config):
    argv = ["bench", suite_dir, "--solver", BUNDLED_SOLVER,
            "--configs", "MQN-B,MQN-X", "--out", str(tmp_path / "r")]
    if run_config:
        run_file = tmp_path / "run.json"
        run_file.write_text(json.dumps({"solver_command": BUNDLED_SOLVER}),
                            encoding="utf-8")
        argv += ["--run-config", str(run_file)]
    assert usage_error(argv) == 2
    assert "unknown configs: MQN-X" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("text, reason", [
    ('{"threads": 4}', "threads: unknown config key"),
    ('{"sol_format": "auto"}', "sol_format: unknown config key"),
    ('{"limits": {"mip_gap": 0}}', "must be > 0"),
    ('{"configs": ["MQN-X"]}', "unknown name 'MQN-X'"),
    ('{"limits": ', "Expecting value"),
    ("<missing>", "No such file or directory"),
    ("<directory>", "Is a directory"),
], ids=["key", "sol_format", "limit", "config", "json", "missing",
        "directory"])
def test_bench_bad_run_config_file_is_a_usage_error(suite_dir, tmp_path,
                                                    capsys, text, reason):
    run_file = tmp_path / "run.json"
    if text == "<directory>":
        run_file.mkdir()
    elif text != "<missing>":
        run_file.write_text(text, encoding="utf-8")
    assert usage_error(["bench", suite_dir, "--run-config", str(run_file),
                        "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"valign: {run_file}: ") and reason in err
    assert not (tmp_path / "r").exists()


def test_bench_run_config_without_a_solver_is_a_usage_error(suite_dir,
                                                            tmp_path, capsys):
    # A run-config file that names no solver does not pick the bundled
    # adapter: the CLI never guesses a solver.
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({"configs": ["MQN-B"]}), encoding="utf-8")
    assert usage_error(["bench", suite_dir, "--run-config", str(run_file),
                        "--out", str(tmp_path / "r")]) == 2
    assert "no solver command" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("source", ["flag", "env", "run-config"])
@pytest.mark.parametrize("template, reason", MALFORMED_TEMPLATES,
                         ids=["tokens", "quote"])
def test_bench_rejects_malformed_template(suite_dir, tmp_path, monkeypatch,
                                          capsys, source, template, reason):
    # Not a matrix of cells that each read "error": a usage error.
    argv = ["bench", suite_dir, "--out", str(tmp_path / "r")]
    if source == "flag":
        argv += ["--solver", template]
    elif source == "env":
        monkeypatch.setenv("VALIGN_SOLVER_CMD", template)
    else:
        run_file = tmp_path / "run.json"
        run_file.write_text(json.dumps({"solver_command": template}),
                            encoding="utf-8")
        argv += ["--run-config", str(run_file)]
    assert usage_error(argv) == 2
    assert capsys.readouterr().err.endswith(f"error: {reason}\n")
    assert not (tmp_path / "r").exists()


def test_bench_run_config_file(suite_dir, tmp_path, capsys):
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({
        "solver_command": BUNDLED_SOLVER,
        "limits": {"time_limit": 60.0, "mip_gap": 1e-6},
        "configs": ["MQN-B"],
    }), encoding="utf-8")
    out = str(tmp_path / "report")
    rc = main(["bench", suite_dir, "--run-config", str(run_file),
               "--out", out])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("env", [None, "   "], ids=["unset", "blank"])
def test_blank_solver_variable_reads_as_unset(suite_dir, two_node_path,
                                              tmp_path, monkeypatch, capsys,
                                              env):
    # Then the run-config's command is the one run, and solve asks for one.
    if env is not None:
        monkeypatch.setenv("VALIGN_SOLVER_CMD", env)
    seen = []
    monkeypatch.setattr(cli, "run_matrix",
                        lambda suite, configs, run, **kw: seen.append(run)
                        or [])
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({"solver_command": BUNDLED_SOLVER}),
                        encoding="utf-8")
    assert main(["bench", suite_dir, "--run-config", str(run_file),
                 "--out", str(tmp_path / "r")]) == 0
    assert seen[0].solver_command == BUNDLED_SOLVER
    assert usage_error(["solve", two_node_path]) == 2
    assert "no solver command" in capsys.readouterr().err


@pytest.mark.parametrize("flags, want", [
    ([], (30.0, 1e-6)),
    (["--gap", "0.05"], (30.0, 0.05)),
    (["--time-limit", "45", "--gap", "0.02"], (45.0, 0.02)),
])
def test_bench_run_config_limits_reach_run_matrix(suite_dir, tmp_path,
                                                  monkeypatch, flags, want):
    # An explicit flag wins, then the file's limits, then 600 s and 0.01.
    import valign.cli
    seen = []
    monkeypatch.setattr(valign.cli, "run_matrix",
                        lambda suite, configs, run, **kw: seen.append(run)
                        or [])
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({
        "solver_command": BUNDLED_SOLVER,
        "limits": {"time_limit": 30.0, "mip_gap": 1e-6,
                   "feasibility_tol": 1e-7},
    }), encoding="utf-8")
    rc = main(["bench", suite_dir, "--run-config", str(run_file),
               "--out", str(tmp_path / "r"), *flags])
    assert rc == 0
    limits = seen[0].limits
    assert (limits.time_limit, limits.mip_gap) == want
    assert limits.feasibility_tol == 1e-7


def test_bench_limits_default_without_a_file(suite_dir, tmp_path,
                                             monkeypatch):
    import valign.cli
    seen = []
    monkeypatch.setattr(valign.cli, "run_matrix",
                        lambda suite, configs, run, **kw: seen.append(run)
                        or [])
    rc = main(["bench", suite_dir, "--solver", BUNDLED_SOLVER,
               "--out", str(tmp_path / "r")])
    assert rc == 0
    assert seen[0].limits == SolverLimits(600.0, 0.01, 1e-6)


def test_profile_cli(suite_dir, tmp_path, capsys):
    out = str(tmp_path / "prof")
    svg = str(tmp_path / "prof" / "curves.svg")
    rc = main(["bench", suite_dir, "--configs", "MQN-B,QNS-B",
               *SOLVER_ARGS, "--workers", "2", "--out", out, "--svg", svg])
    assert rc == 0
    assert "success rate" in capsys.readouterr().out
    with open(f"{out}/profile.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["config", "alpha", "rho"]
    assert {row[0] for row in rows[1:]} == {"MQN-B", "QNS-B"}
    with open(svg) as fh:
        assert fh.read().startswith("<svg")


def test_report_missing_inputs(tmp_path, capsys):
    rc = main(["report", str(tmp_path)])
    assert rc == 2
    assert "missing report inputs" in capsys.readouterr().err


def test_solve_non_finite_solution_value(two_node_path, capsys):
    # The solver's answer is rewritten with a NaN offset: decoding refuses
    # it, so the run exits as a solver failure instead of passing.
    # U_1 may be absent from the file, which lists nonzero values only.
    nan_solver = (f"sh -c '{BUNDLED_SOLVER} && "
                  "sed -i \"/^U_1 /d\" {sol} && echo U_1 nan >> {sol}'")
    rc = main(["solve", two_node_path, "--solver", nan_solver])
    assert rc == 3
    assert "non-finite value nan for U_1" in capsys.readouterr().err


def test_solve_rejects_repricing_mismatch(two_node_path, tmp_path,
                                          monkeypatch, capsys):
    # A plan that validates but whose independent re-pricing disagrees with
    # the solver's objective is not accepted; the result is still written.
    import valign.cli
    true_cost = valign.cli.recompute_cost
    monkeypatch.setattr(valign.cli, "recompute_cost",
                        lambda *args: true_cost(*args) + 1.0)
    out = tmp_path / "result.txt"
    rc = main(["solve", two_node_path, *SOLVER_ARGS, "-o", str(out)])
    assert rc == 1
    assert "validation pass" in out.read_text()
    assert "valign: recomputed cost" in capsys.readouterr().err
