"""Bundled MIP adapter: MPS parsing, SOS handling, solving, exit codes."""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valign import highs, milp_solve, solve_core
from valign.bench import ROAD_TEMPLATES, generate_instance
from valign.builder import (
    KNOWN_CONFIG_NAMES,
    MilpModel,
    _Assembler,
    build,
    named_config,
)
from valign.gateway import decode, parse_solution_text
from valign.milp_solve import main
from valign.mps import (
    MpsError,
    _plain_entries,
    emit_mps,
    emit_mps_text,
    parse_mps,
    text_lines,
    text_pieces,
)
from valign.solve_core import binarize_sos, solve_parsed

from conftest import pinned_road

TOY_MPS = textwrap.dedent("""\
    * comment line
    NAME toy
    ROWS
     N COST
     L cap
     G floor
     E tie
    COLUMNS
        x COST 1.0
        x cap 1.0
        x tie 1.0
        M1 'MARKER' 'INTORG'
        b COST -3.0
        b cap 2.0
        M2 'MARKER' 'INTEND'
        y floor 1.0
        y tie 1.0
    RHS
        RHS cap 4.0
        RHS floor 1.0
        RHS tie 2.0
    BOUNDS
     UP BND x 10.0
     BV BND b
     MI BND y
     UP BND y 5.0
    ENDATA
    """)


def write(tmp_path, text, name="m.mps"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def test_parse_shapes():
    parsed = parse_mps(TOY_MPS)
    assert parsed.columns == ("x", "b", "y")
    assert parsed.row_order == ("cap", "floor", "tie")
    assert parsed.senses.tolist() == ["L", "G", "E"]
    assert parsed.cost.tolist() == [1.0, -3.0, 0.0]
    assert parsed.col_integer.tolist() == [False, True, False]
    assert parsed.col_lower.tolist() == [0.0, 0.0, -math.inf]
    assert parsed.col_upper.tolist() == [10.0, 1.0, 5.0]


def test_parse_rejects_garbage():
    with pytest.raises(MpsError):
        parse_mps("ROWS\n N COST\nCOLUMNS\n    x\nENDATA\n")
    with pytest.raises(MpsError):
        parse_mps("ROWS\n Z bad\nENDATA\n")


def val(parsed, values, name):
    return values[parsed.columns.index(name)]


def test_solve_toy_milp():
    parsed = parse_mps(TOY_MPS)
    status, objective, values = solve_parsed(parsed, 30.0, 1e-9)
    # b wants to be 1 (cost -3); tie forces x + y = 2 with y >= 1, and
    # minimizing x + -3b leaves x at 0, y at 2
    assert status == "optimal"
    assert val(parsed, values, "b") == pytest.approx(1.0)
    assert val(parsed, values, "x") == pytest.approx(0.0, abs=1e-9)
    assert val(parsed, values, "y") == pytest.approx(2.0)
    assert objective == pytest.approx(-3.0)


def test_infeasible_detected():
    text = textwrap.dedent("""\
        NAME bad
        ROWS
         N COST
         G lo
         L hi
        COLUMNS
            x COST 1.0
            x lo 1.0
            x hi 1.0
        RHS
            RHS lo 5.0
            RHS hi 1.0
        ENDATA
        """)
    parsed = parse_mps(text)
    status, _, _ = solve_parsed(parsed, 30.0, 1e-6)
    assert status == "infeasible"


def test_ranges_clause():
    text = textwrap.dedent("""\
        NAME rng
        ROWS
         N COST
         L band
        COLUMNS
            x COST 1.0
            x band 1.0
        RHS
            RHS band 4.0
        RANGES
            RNG band 3.0
        ENDATA
        """)
    parsed = parse_mps(text)
    # L row with range 3: 1 <= x <= 4; minimizing x lands on the lower edge
    status, objective, values = solve_parsed(parsed, 30.0, 1e-9)
    assert status == "optimal"
    assert val(parsed, values, "x") == pytest.approx(1.0)


SOS_MPS = textwrap.dedent("""\
    NAME soss
    ROWS
     N COST
     G need
    COLUMNS
        u COST 1.0
        u need 1.0
        v COST 3.0
        v need 1.0
    RHS
        RHS need 2.0
    BOUNDS
     UP BND u 10.0
     UP BND v 10.0
    SOS
     S1 SET pick
        u 1.0
        v 2.0
    ENDATA
    """)


def test_sos1_binarize_allows_one_nonzero():
    parsed = parse_mps(SOS_MPS)
    binarize_sos(parsed)
    status, objective, values = solve_parsed(parsed, 30.0, 1e-9)
    assert status == "optimal"
    # u alone covers the demand at cost 2; v stays at zero
    assert val(parsed, values, "u") == pytest.approx(2.0)
    assert val(parsed, values, "v") == pytest.approx(0.0, abs=1e-9)


def test_main_end_to_end(tmp_path, capsys):
    mps = write(tmp_path, TOY_MPS)
    sol = str(tmp_path / "out.sol")
    rc = main([mps, sol, "--time-limit", "30", "--gap", "1e-9"])
    assert rc == 0
    # b is integral in the relaxation, so the model closes from it.
    assert capsys.readouterr().out == (
        "valign-milp: optimal objective -3.0 bound -3.0 "
        "(rounded relaxation)\n")
    lines = open(sol).read().splitlines()
    assert lines[0] == "status optimal"
    entries = dict(line.split(None, 1) for line in lines)
    assert float(entries["objective"]) == pytest.approx(-3.0)
    assert float(entries["b"]) == pytest.approx(1.0)
    assert "wall_time" in entries


@pytest.mark.parametrize("flags", [(), ("--sos", "binarize")],
                         ids=["default", "flag"])
def test_main_binarizes_sos(tmp_path, flags):
    mps = write(tmp_path, SOS_MPS)
    sol = str(tmp_path / "out.sol")
    rc = main([mps, sol, *flags, "--gap", "1e-9"])
    assert rc == 0
    entries = dict(line.split(None, 1)
                   for line in open(sol).read().splitlines())
    assert entries["status"] == "optimal"
    assert float(entries["u"]) == pytest.approx(2.0)
    # helper binaries from the conversion stay out of the solution file
    assert not any(k.startswith("_SOSB_") for k in entries)


def test_main_writes_the_files_own_sosb_columns(tmp_path):
    # Only binarize_sos's binaries stay out of the solution file, not a
    # column the file itself names with their prefix.
    mps = write(tmp_path, "NAME k\nROWS\n N COST\n G need\nCOLUMNS\n"
                "    _SOSB_keep COST 1.0 need 1.0\n"
                "    y COST 3.0 need 1.0\nRHS\n    RHS need 2.0\nENDATA\n")
    sol = tmp_path / "out.sol"
    assert main([mps, str(sol)]) == 0
    lines = sol.read_text().splitlines()
    assert lines[:2] == ["status optimal", "objective 2.0"]
    assert lines[3:] == ["_SOSB_keep 2.0"]     # y is 0.0: not listed


def test_all_zero_optimum_lists_the_first_column(tmp_path):
    # A reader turns an optimal file with no values into an error, so an
    # all-zero x still lists one: the first column's.
    mps = write(tmp_path, "NAME z\nROWS\n N COST\n G need\nCOLUMNS\n"
                "    x COST 1.0 need 1.0\n    y COST 2.0 need 1.0\n"
                "ENDATA\n")
    sol = tmp_path / "out.sol"
    assert main([mps, str(sol)]) == 0
    lines = sol.read_text().splitlines()
    assert lines[:2] == ["status optimal", "objective 0.0"]
    assert lines[3:] == ["x 0.0"]
    solution = parse_solution_text(sol.read_text(), ("x", "y"))
    assert solution.status == "optimal"
    assert solution.x.tolist() == [0.0, 0.0]


def test_write_solution_skips_zeros_and_the_binaries(tmp_path):
    # -0.0 is zero, a NaN is not; the first column is listed in any case,
    # as its value; values past the names, binarize_sos's binaries, are
    # not written.
    sol = tmp_path / "out.sol"
    milp_solve.write_solution(
        str(sol), "optimal", 2.5, 0.25, ("a", "b", "c", "d", "e"),
        np.array([-0.0, 0.0, 1.5, math.nan, -0.0, 1.0, 1.0]))
    assert sol.read_text() == ("status optimal\nobjective 2.5\n"
                               "wall_time 0.25\na -0.0\nc 1.5\nd nan\n")


def test_non_ascii_mps_is_an_input_error(tmp_path, capsys):
    # A non-ASCII input is reported like any other defect in it.
    mps, sol = tmp_path / "m.mps", tmp_path / "out.sol"
    mps.write_bytes(TOY_MPS.encode("ascii").replace(b"NAME toy",
                                                     b"NAME to\xc3"))
    assert main([str(mps), str(sol)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("valign-milp: 'ascii' codec can't decode byte 0xc3")
    assert err.count("\n") == 1 and err.endswith("\n")
    message = err[len("valign-milp: "):-1]
    assert sol.read_text() == f"status error\nmessage {message}\n"


@pytest.mark.parametrize("text, args, code, out, err, head", [
    (TOY_MPS, ["--gap", "1e-9"], 0,
     "valign-milp: optimal objective -3.0 bound -3.0 (rounded relaxation)\n",
     "", "status optimal\n"),
    (TOY_MPS.replace("COST -3.0", "COST -inf"), [], 3, "",
     "valign-milp: column b: objective coefficient -inf is not finite\n",
     "status error\n"),
    (TOY_MPS, ["--gap", "-1"], 2, "",
     "error: argument --gap: must be >= 0, got '-1'\n", None),
], ids=["optimal", "input error", "usage error"])
def test_adapter_process_exit_keeps_its_output(tmp_path, text, args, code,
                                               out, err, head):
    # run() ends the process with os._exit: the closing stdout line, the
    # stderr message and the exit code arrive as main gave them; a usage
    # error exits through argparse as usual, after its usage lines. The
    # output is a pipe and buffered, so only a flush before the exit
    # saves it.
    mps, sol = write(tmp_path, text), tmp_path / "out.sol"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run(
        [sys.executable, "-m", "valign.milp_solve", *args, mps, str(sol)],
        capture_output=True, text=True, env=env)
    assert done.returncode == code
    assert done.stdout == out
    assert done.stderr.endswith(err) and (code == 2 or done.stderr == err)
    if head is None:
        assert not sol.exists()
    else:
        assert sol.read_text().startswith(head)


@pytest.mark.parametrize("flag, value, message", [
    ("--time-limit", "-5", "must be > 0, got '-5'"),
    ("--time-limit", "0", "must be > 0, got '0'"),
    ("--time-limit", "nan", "expected a number, got 'nan'"),
    ("--time-limit", "soon", "expected a number, got 'soon'"),
    ("--gap", "-1", "must be >= 0, got '-1'"),
    ("--gap", "nan", "expected a number, got 'nan'"),
    ("--sos", "reject", "invalid choice: 'reject' (choose from 'binarize')"),
])
def test_main_rejects_bad_limits(tmp_path, capsys, flag, value, message):
    mps = write(tmp_path, TOY_MPS)
    sol = tmp_path / "out.sol"
    with pytest.raises(SystemExit) as done:
        main([mps, str(sol), flag, value])
    assert done.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: {message}\n")
    assert not sol.exists()


def test_main_takes_an_infinite_time_limit(tmp_path):
    # valign solve --time-limit inf reaches the adapter as "inf": no limit.
    mps = write(tmp_path, TOY_MPS)
    sol = tmp_path / "out.sol"
    assert main([mps, str(sol), "--time-limit", "inf", "--gap", "0"]) == 0
    assert sol.read_text().startswith("status optimal\nobjective -3.0\n")


@pytest.mark.parametrize("time_limit, gap", [(-5.0, None), (None, -1.0)])
def test_solve_raises_on_option_highs_rejects(time_limit, gap):
    with pytest.raises(ValueError, match="HiGHS rejected option"):
        solve_parsed(parse_mps(TOY_MPS), time_limit, gap)


def test_main_missing_file(tmp_path):
    sol = str(tmp_path / "out.sol")
    rc = main([str(tmp_path / "nope.mps"), sol])
    assert rc == 3
    assert os.path.exists(sol)


def test_main_unwritable_solution(tmp_path, capsys):
    mps = write(tmp_path, TOY_MPS)
    rc = main([mps, str(tmp_path / "missing" / "out.sol")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("valign-milp: [Errno 2] No such file or directory")


def test_main_rejects_infinite_cost(tmp_path, capsys):
    mps = write(tmp_path, TOY_MPS.replace("b COST -3.0", "b COST -inf"))
    sol = tmp_path / "out.sol"
    assert main([mps, str(sol)]) == 3
    message = "column b: objective coefficient -inf is not finite"
    assert capsys.readouterr().err == f"valign-milp: {message}\n"
    assert sol.read_text() == f"status error\nmessage {message}\n"


def test_main_without_the_binding(tmp_path):
    # A scipy without its HiGHS binding: main names what is missing.
    mps, sol = write(tmp_path, TOY_MPS), tmp_path / "out.sol"
    code = textwrap.dedent("""\
        import importlib.machinery, sys
        from valign import highs, milp_solve
        finder = importlib.machinery.PathFinder
        real = finder.find_spec
        finder.find_spec = classmethod(
            lambda cls, name, path=None, target=None:
            None if name == highs._CORE else real(name, path, target))
        sys.exit(milp_solve.main(sys.argv[1:]))
        """)
    done = subprocess.run([sys.executable, "-c", code, mps, str(sol)],
                          capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stderr == (
        "valign-milp: scipy's HiGHS binding scipy.optimize._highspy._core "
        "is not installed (it ships with scipy 1.15 and later)\n")
    assert sol.read_text().startswith("status error\n")


# The exact text of every MpsError that parse_mps, _parse_num and
# binarize_sos raise, with its line number.
MPS_HEAD = "NAME t\nROWS\n N COST\n L r1\n E r2\nCOLUMNS\n"
LONG_COLUMNS = "".join(f"    c{i} r1 {i}.5\n" for i in range(60000))
FREE_HEAD = MPS_HEAD.replace(" L r1\n", " N FREE\n L r1\n")


@pytest.mark.parametrize("text, message", [
    (MPS_HEAD + "    x r1\n", "line 7: malformed column entry"),
    (MPS_HEAD + "    x r1 1.0 r2\n", "line 7: malformed column entry"),
    (MPS_HEAD + "    x zz 1.0\n", "line 7: unknown row 'zz'"),
    (MPS_HEAD + "    x r1 1.0 zz 2.0\n", "line 7: unknown row 'zz'"),
    (MPS_HEAD + "    x r1 abc\n", "line 7: bad number 'abc'"),
    (MPS_HEAD + "    x zz abc\n", "line 7: bad number 'abc'"),
    (MPS_HEAD + "    x r1 1.0 zz abc\n", "line 7: bad number 'abc'"),
    (MPS_HEAD + "    x r1 nan\n", "line 7: NaN not allowed"),
    (MPS_HEAD + "    x r1 1.0\n* note\n\n    y COST -NaN\n",
     "line 10: NaN not allowed"),
    (MPS_HEAD + "    x r1 1.0\n    y r2 1.0 zz 1.0\n    z r1 abc\n",
     "line 8: unknown row 'zz'"),
    (MPS_HEAD + LONG_COLUMNS + "    x r1 1e\n",
     "line 60007: bad number '1e'"),
    (MPS_HEAD + LONG_COLUMNS + "    x\n" + LONG_COLUMNS,
     "line 60007: malformed column entry"),
    # Lines number as str.splitlines counts them, across pieces too.
    (MPS_HEAD + LONG_COLUMNS.replace("\n", "\x0c\n") + "    x r1 1e\n",
     "line 120007: bad number '1e'"),
    (MPS_HEAD + "    \u00e9 r1 1.0 r2 2.0\n    x r1 1.0\x0c\n    y zz 1.0\n",
     "line 10: unknown row 'zz'"),
    ("NAME t\x0cROWS\x1c N COST\x1d L r1\x1e E r2\x85COLUMNS\u2028"
     "    x r1 1.0\u2029    x r2 1.0\r\n    y r1 1.0\r    y r2 u\n",
     "line 10: bad number 'u'"),
    (MPS_HEAD + "    x r1 1.0\nRHS\n    RHS r1\n",
     "line 9: malformed RHS entry"),
    (MPS_HEAD + "    x r1 1.0\nRHS\n    RHS zz 1.0\n",
     "line 9: unknown row 'zz'"),
    (MPS_HEAD + "    x r1 1.0\nRHS\n    RHS r1 x1\n",
     "line 9: bad number 'x1'"),
    (MPS_HEAD + "    x r1 1.0\nRANGES\n    RNG r1\n",
     "line 9: malformed RANGES entry"),
    (MPS_HEAD + "    x r1 1.0\nRANGES\n    RNG COST 1.0\n",
     "line 9: unknown row 'COST'"),
    (MPS_HEAD + "    x r1 1.0\nBOUNDS\n FR BND x 1.0\n",
     "line 9: malformed bound"),
    (MPS_HEAD + "    x r1 1.0\nBOUNDS\n UP BND x\n",
     "line 9: malformed bound"),
    (MPS_HEAD + "    x r1 1.0\nBOUNDS\n XX BND x 1.0\n",
     "line 9: unknown bound type 'XX'"),
    (MPS_HEAD + "    x r1 1.0\nBOUNDS\n UP BND x nan\n",
     "line 9: NaN not allowed"),
    (MPS_HEAD + "    x r1 1.0\nSOS\n    x 1.0\n",
     "line 9: malformed SOS entry"),
    (MPS_HEAD + "    x r1 1.0\nSOS\n S1 SET s\n    x 1.0 2.0\n",
     "line 10: malformed SOS entry"),
    (MPS_HEAD + "    x r1 1.0\nSOS\n S1 SET s\n    x w\n",
     "line 10: bad number 'w'"),
    (MPS_HEAD + "    x r1 1.0\nFOO\n", "line 8: unknown section 'FOO'"),
    ("NAME t\nROWS\n N COST\n L\n", "line 4: malformed row declaration"),
    ("NAME t\nROWS\n N COST\n Z r1\n", "line 4: unknown row sense 'Z'"),
    ("NAME t\nROWS\n N COST\n L r1\n G r1\n", "line 5: duplicate row 'r1'"),
    ("NAME t\nROWS\n N COST\n L COST\n", "line 4: duplicate row 'COST'"),
    ("NAME t\nROWS\n G COST\n N COST\n", "line 4: duplicate row 'COST'"),
    # A free row, an N row past the objective row, is a row of the file.
    ("NAME t\nROWS\n N COST\n N COST\n", "line 4: duplicate row 'COST'"),
    ("NAME t\nROWS\n N COST\n L r1\n N r1\n", "line 5: duplicate row 'r1'"),
    ("NAME t\nROWS\n N COST\n N FREE\n E FREE\n",
     "line 5: duplicate row 'FREE'"),
    (FREE_HEAD + "    x FREE abc\n", "line 8: bad number 'abc'"),
    (FREE_HEAD + "    x r1 1.0 FREE nan\n", "line 8: NaN not allowed"),
    (FREE_HEAD + "    x r1 1.0\nRANGES\n    RNG FREE 1.0\n",
     "line 10: unknown row 'FREE'"),
    ("* lead\n    x r1 1.0\n", "line 2: data outside any section"),
    ("NAME t\nROWS\n L r1\nENDATA\n", "no objective row declared"),
    # A matrix coefficient must be finite; an objective one is checked by
    # model_arrays. Deep in a long run of plain lines, the line's piece is
    # read line by line and fails as a short file does.
    (MPS_HEAD + "    x r1 inf\n",
     "line 7: matrix coefficient inf is not finite"),
    (MPS_HEAD + "    x r1 1.0 r2 -1e400\n",
     "line 7: matrix coefficient -inf is not finite"),
    (MPS_HEAD + "    x zz inf\n", "line 7: unknown row 'zz'"),
    (MPS_HEAD + LONG_COLUMNS + "    x r1 -inf\n" + LONG_COLUMNS,
     "line 60007: matrix coefficient -inf is not finite"),
    (MPS_HEAD + LONG_COLUMNS + "    x zz 1.0\n" + LONG_COLUMNS,
     "line 60007: unknown row 'zz'"),
    (MPS_HEAD + LONG_COLUMNS + "    x r1 NaN\n" + LONG_COLUMNS,
     "line 60007: NaN not allowed"),
    (MPS_HEAD + LONG_COLUMNS + "    x r1 1.0 r2\n" + LONG_COLUMNS,
     "line 60007: malformed column entry"),
    (MPS_HEAD + LONG_COLUMNS + "    x r1 1.0 x\n    r2 2.0\n" + LONG_COLUMNS,
     "line 60007: malformed column entry"),
])
def test_mps_error_messages_pinned(text, message):
    with pytest.raises(MpsError) as err:
        parse_mps(text)
    assert str(err.value) == message


@pytest.mark.parametrize("rows", [" N COST\n L COST\n", " G COST\n N COST\n"],
                         ids=["objective first", "objective second"])
def test_main_refuses_a_row_named_as_the_objective_row(tmp_path, capsys,
                                                       rows):
    # Read as one row, its entries went to the objective while its RHS
    # stayed, and the file solved as infeasible.
    mps = write(tmp_path, f"NAME t\nROWS\n{rows}COLUMNS\n    x COST 1.0\n"
                "RHS\n    RHS COST 2.0\nBOUNDS\n UP BND x 10.0\nENDATA\n")
    sol = tmp_path / "out.sol"
    assert main([mps, str(sol)]) == 3
    message = "line 4: duplicate row 'COST'"
    assert capsys.readouterr().err == f"valign-milp: {message}\n"
    assert sol.read_text() == f"status error\nmessage {message}\n"


# A second N row, a free row, with an entry: HiGHS's readModel loads the
# file as one row and solves it to 4.0.
FREE_ROW_MPS = ("NAME free\nROWS\n N COST\n N FREE\n G r\nCOLUMNS\n"
                "    x COST 1.0\n    x FREE 1.0\n    x r 1.0\n"
                "RHS\n    RHS r 4.0\nENDATA\n")


def test_main_reads_a_free_row_and_drops_its_entries(tmp_path, capsys):
    parsed = parse_mps(FREE_ROW_MPS)
    assert parsed.row_order == ("r",)
    assert parsed.entries.tolist() == [(0, 0, 1.0)]
    assert parsed.cost.tolist() == [1.0]
    sol = tmp_path / "out.sol"
    assert main([write(tmp_path, FREE_ROW_MPS), str(sol)]) == 0
    assert capsys.readouterr().out == "valign-milp: optimal objective 4.0\n"
    assert parse_solution_text(sol.read_text(), parsed.columns).x.tolist() \
        == [4.0]


def test_main_rejects_infinite_matrix_coefficient(tmp_path, capsys):
    # HiGHS would refuse the model, which read as infeasible.
    mps = write(tmp_path, TOY_MPS.replace("b cap 2.0", "b cap 1e400"))
    sol = tmp_path / "out.sol"
    assert main([mps, str(sol)]) == 3
    message = "line 14: matrix coefficient inf is not finite"
    assert capsys.readouterr().err == f"valign-milp: {message}\n"
    assert sol.read_text() == f"status error\nmessage {message}\n"


REPEATED_MPS = ("NAME d\nROWS\n N COST\n L r\n L q\nCOLUMNS\n"
                "    x COST 1.5\n    x r 1.0\n    x COST 0.25 r 2.0\n"
                "    y q 0.1 r -0.0\n    y q 0.2\n    x q 7.0\n    y q 0.3\n"
                "    z r 0.0\nENDATA\n")


def line_by_line(text):
    """text with a comment line after each line of its COLUMNS section,
    so that parse_mps reads no piece of it as a whole."""
    out, section = [], None
    for line in text.splitlines(keepends=True):
        if line[:1].strip():
            section = line.split()[0]
        out.append(line)
        if section == "COLUMNS":
            out.append("*\n")
    return "".join(out)


def assert_same_parse(got, want):
    assert got.name == want.name
    assert got.columns == want.columns
    assert got.row_order == want.row_order
    assert np.array_equal(got.cost.view(np.int64), want.cost.view(np.int64))
    for field in ("col_lower", "col_upper", "col_integer", "senses",
                  "row_rhs"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert np.array_equal(got.row_range, want.row_range, equal_nan=True)
    assert got.entries.tobytes() == want.entries.tobytes()
    assert got.sos_sets == want.sos_sets


# Long runs of plain lines, with a line in the middle that is read line by
# line: two entries on a line, the same column again far from its first
# lines, and integer markers around a run of their own.
REPEATS = "".join(f"    c{i % 700} COST 0.1\n    c{i % 700} r2 {i}.5\n"
                  for i in range(30000))
INTEGERS = "".join(f"    d{i} r2 -{i}.25\n" for i in range(30000))
LONG_CASES = {
    "two entries": MPS_HEAD + LONG_COLUMNS + "    y r1 1.0 COST -2.5\n"
    + LONG_COLUMNS + "ENDATA\n",
    "repeated": MPS_HEAD + REPEATS + LONG_COLUMNS + REPEATS + "ENDATA\n",
    "integer": MPS_HEAD + LONG_COLUMNS + "    M1 'MARKER' 'INTORG'\n"
    + INTEGERS + "    M2 'MARKER' 'INTEND'\n" + REPEATS + "ENDATA\n",
    "free row": FREE_HEAD + LONG_COLUMNS.replace(" r1 ", " FREE ")
    + "    y r1 1.0 FREE -2.5\n" + LONG_COLUMNS + "ENDATA\n",
    "objective RHS": MPS_HEAD + LONG_COLUMNS
    + "RHS\n    RHS COST 5.0 r1 2.0\nENDATA\n",
}


@pytest.mark.parametrize("case", ["G-01 CTG-B", "D-02 2 blocks MQN-S1",
                                  "toy", "repeated", *LONG_CASES])
def test_pieces_read_whole_parse_as_lines_do(case):
    if case.startswith(("G-01", "D-02")):
        road, config = case.rsplit(" ", 1)
        text = emit_mps_text(build(pinned_road(road), named_config(config)))
    else:
        text = {"toy": TOY_MPS, "repeated": REPEATED_MPS,
                **LONG_CASES}[case]
    got = parse_mps(text)
    assert_same_parse(got, parse_mps(line_by_line(text)))
    if case == "integer":
        integral = [name.startswith("d") for name in got.columns]
        assert got.col_integer.tolist() == integral
        assert sum(integral) == 30000
    if case == "free row":
        assert got.row_order == ("r1", "r2")
        assert len(got.entries) == 60001
    if case == "objective RHS":
        assert got.row_rhs.tolist() == [2.0, 0.0]


@pytest.mark.parametrize("piece, plain", [
    ("    x r1 1.0\n    y COST -2\n\ty r2 3e5\n", True),
    ("    x r1 1.0\n    y COST -2", False),          # no final line feed
    ("    x r1 1.0\r\n    y COST -2\r\n", False),
    ("    x r1 1.0\x0c\n", False),
    ("    x r1 1.0\n\n    y COST -2\n", False),     # a blank line
    ("    x r1 1.0\n* note\n    y COST -2\n", False),
    ("    x r1 1.0\nRHS\n", False),
    ("x r1 1.0\n", False),
    ("    x r1 1.0 r2 2.0\n", False),
    ("    x r1\n    y r2 1.0 2.0\n", False),
    ("    x r1 1.0 2.0\n    y r2\n", False),
    ("    x r1 1.0 x\n    r2 2.0\n", False),
    ("    M 'MARKER' 'INTORG'\n", False),
    ("    x zz 1.0\n", False),
    ("    x r1 abc\n", False),
    ("    x r1 nan\n", False),
    ("    x COST inf\n", False),
    ("    \u00e9 r1 1.0\n", False),
    ("    x\0 r1 1.0\n", False),
    ("    x r1 1e308\n    y r1 1e308\n", False),   # the sum overflows
])
def test_plain_entries(piece, plain):
    lookup = {"r1": 0, "r2": 1, "COST": -1}
    got = _plain_entries(piece, lookup, True)
    assert (got is not None) == plain
    if plain:
        names, rows, values = got
        assert names == ["x", "y", "y"]
        assert rows.tolist() == [0, -1, 1]
        assert values.tolist() == [1.0, -2.0, 3e5]


def test_plain_entries_scan_numbers_for_underscores():
    # float reads 1_0 as 10; HiGHS's reader does not, so a scanned piece
    # with one is read line by line, where the reader notes it.
    piece, lookup = "    x_1 r1 1.5\n    x_1 r2 1_0\n", {"r1": 0, "r2": 1}
    assert _plain_entries(piece, lookup, True) is None
    names, rows, values = _plain_entries(piece, lookup, False)
    assert values.tolist() == [1.5, 10.0]
    assert _plain_entries(piece.replace("1_0", "10"), lookup,
                                     True) is not None


@pytest.mark.parametrize("text", ["", "a\n", "a", LONG_COLUMNS,
                                  LONG_COLUMNS + "tail", "x" * 70000 + "\n",
                                  LONG_COLUMNS.replace("\n", "\r\n")])
def test_text_pieces(text):
    pieces = list(text_pieces(text))
    assert "".join(pieces) == text
    assert all(piece.endswith("\n") for piece in pieces[:-1])
    assert list(text_lines(text)) == text.splitlines()


def test_binarize_rejects_unbounded_member():
    parsed = parse_mps(SOS_MPS.replace(" UP BND v 10.0\n", ""))
    with pytest.raises(MpsError) as err:
        binarize_sos(parsed)
    assert str(err.value) == ("SOS set pick: member v has unbounded domain; "
                              "cannot binarize")


class RecordingHighs:
    """Stands in for the binding's HiGHS object: keeps the sha256 of the
    options and model it is handed and returns a stub optimum with seeded
    values, so no solve runs."""

    digest = None
    options_seen = None

    def __init__(self):
        self.options = {}
        self.num_col = self.num_row = 0

    def setOptionValue(self, name, value):
        self.options[name] = value

    def passModel(self, num_col, num_row, num_nz, a_format, sense, offset,
                  *arrays):
        cost, col_lower, col_upper, row_lower, row_upper, start, index, \
            value, integrality = arrays
        h = hashlib.sha256(repr((num_col, num_row, num_nz, a_format, sense,
                                 offset, sorted(self.options.items())))
                           .encode())
        for part in (cost, col_lower, col_upper, row_lower, row_upper, value):
            h.update(np.asarray(part, np.float64).tobytes())
        for part in (start, index, integrality):
            h.update(np.asarray(part, np.int64).tobytes())
        RecordingHighs.digest = h.hexdigest()
        RecordingHighs.options_seen = dict(self.options)
        self.num_col, self.num_row = num_col, num_row

    def readModel(self, path):
        # A plain LP: the digest of the arrays passModel would be handed.
        with open(path, encoding="ascii") as fh:
            arrays = solve_core.model_arrays(parse_mps(fh.read()))
        core = highs.highs_core()
        self.passModel(len(arrays[0]), len(arrays[3]), len(arrays[7]),
                       int(core.MatrixFormat.kColwise),
                       int(core.ObjSense.kMinimize), 0.0, *arrays)
        return core.HighsStatus.kOk

    def getNumCol(self):
        return self.num_col

    def getNumRow(self):
        return self.num_row

    def getOptionValue(self, name):
        return highs.highs_core().HighsStatus.kOk, \
            self.options.get(name, 1e-6)

    def addCols(self, count, cost, lower, upper, num_nz, start, index,
                value):
        self.num_col += count
        return highs.highs_core().HighsStatus.kOk

    def changeColsIntegrality(self, count, cols, integrality):
        pass

    def changeColsBounds(self, count, cols, lower, upper):
        pass

    def setSolution(self, count, cols, values):
        pass

    def clearSolver(self):
        pass

    def getRunTime(self):
        return 0.0

    def run(self):
        pass

    def getModelStatus(self):
        return highs.highs_core().HighsModelStatus.kOptimal

    def getInfo(self):
        return SimpleNamespace(objective_function_value=-1234.5,
                               mip_dual_bound=-1234.5, mip_node_count=0,
                               mip_gap=0.0)

    def getSolution(self):
        x = np.random.default_rng(7).standard_normal(self.num_col) * 100.0
        x[::5] = 0.0
        x[::7] = np.round(x[::7])
        return SimpleNamespace(col_value=x.tolist(),
                               col_dual=[0.0] * self.num_col,
                               row_dual=[0.0] * self.num_row)


# sha256 of the options and arrays the adapter hands to HiGHS, and of the
# solution file it writes for seeded values (less its wall_time line),
# which lists the nonzero values and the first column's. G-01 CTG-B is
# sifted: HiGHS gets its first working set, and with no row dual no other
# column prices out.
@pytest.mark.parametrize("case, config_name, arrays, solution", [
    ("A-01", "MQN-B",
     "f7bc0dd395f5faf6107002487b3bbf9b094241a4e9980ca6f97cd0a855a4e5a4",
     "4d8a2657e596f5ef0e3b9ae7afe615cdef42a1043d5026a063b75fd9efdae06d"),
    ("G-01", "CTG-B",
     "5f12bcdfd1debf442bdb0845aea0ec2358fc0173ca709bc3f9c7efae17d20977",
     "f914584ff30b8c359a7d4b8ca9cd4e68ce5b727f72990e81f8490863676fc792"),
    ("D-02 2 blocks", "MQN-S1",
     "8af5c4348a5d2f5af5ee750adfe8d0c6b0f0b0916252bb5ceb7317e7db2c8a82",
     "6b2a4ad54b7c27a657270e195ae6a469955194ea1b7c1bd06d8276273a947cc6"),
    ("shared-pits", "MQN-S1",
     "53f6483e161b54c1f793a94c78454f1375479e4b3c398c310ef7e8dc1aa77cec",
     "610e1aeacc0b46f3217be3e80c339b7b504ffbb899c8d90698ce904b32b38523"),
])
def test_adapter_arrays_and_solution_pinned(tmp_path, monkeypatch, case,
                                            config_name, arrays, solution):
    mps = str(tmp_path / "m.mps")
    sol = tmp_path / "m.sol"
    emit_mps(build(pinned_road(case), named_config(config_name)), mps)
    monkeypatch.setattr(highs.highs_core(), "_Highs", RecordingHighs)
    monkeypatch.setattr(RecordingHighs, "digest", None)
    rc = main([mps, str(sol), "--time-limit", "60", "--gap", "0.01",
               "--sos", "binarize"])
    assert rc == 0
    written = [line for line in sol.read_bytes().splitlines(keepends=True)
               if not line.startswith(b"wall_time ")]
    assert hashlib.sha256(b"".join(written)).hexdigest() == solution
    assert RecordingHighs.digest == arrays


def test_sparse_solution_file_decodes_as_the_full_one(tmp_path):
    # On G-01 CTG-B, 203,523 columns: each value line carries its own
    # column's name and x's value as written (repr round trip), the
    # nonzero ones and the first, and the file decodes to the x a file
    # listing every column gives.
    instance, config = pinned_road("G-01"), named_config("CTG-B")
    model = build(instance, config)
    columns = model.columns
    status, objective, x = solve_parsed(model, 60.0, 0.01)
    assert status == "optimal"
    sparse, full = tmp_path / "sparse.sol", tmp_path / "full.sol"
    milp_solve.write_solution(str(sparse), status, objective, 1.0, columns,
                              x)
    header = f"status optimal\nobjective {objective!r}\nwall_time 1.0\n"
    full.write_text(header + "".join(
        f"{name} {value!r}\n" for name, value in zip(columns, x.tolist())))
    text = sparse.read_text()
    assert text.startswith(header)
    listed = [line.split(" ") for line in text.splitlines()[3:]]
    want = [[name, repr(value)] for at, (name, value) in
            enumerate(zip(columns, x.tolist())) if value != 0.0 or at == 0]
    assert listed == want
    assert 1000 < len(listed) < len(columns) / 100
    results = [decode(parse_solution_text(path.read_text(), columns),
                      instance, model) for path in (sparse, full)]
    assert np.array_equal(results[0].x, x)
    assert np.array_equal(results[1].x, x)


def ranged_model() -> MilpModel:
    asm = _Assembler("ranged")
    x, y = asm.columns(["x", "y"], [1.0, 0.0], [-2.0, 0.0], [4.0, 1.0],
                       [False, True]).tolist()
    asm.bulk_rows([("band", "L", 5.0, 3.0), ("floor", "G", -1.0),
                   ("tie", "E", 1.0)],
                  [([0, 0, 1, 2], [x, y, x, y], [1.0, -2.0, 1.0, 1.0])])
    return asm.finish(())


@pytest.mark.parametrize("case, config_name", [
    ("A-01", "MQN-B"), ("G-01", "CTG-B"), ("D-02 2 blocks", "MQN-S1"),
    ("shared-pits", "MQN-S1"), ("ranged", None)])
def test_parse_gives_the_model_arrays(case, config_name):
    if case == "ranged":
        model = ranged_model()
    else:
        model = build(pinned_road(case), named_config(config_name))
    assert_reads_back_as_itself(model)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(template=st.sampled_from("ABC"), variant=st.integers(1, 6),
       blocks=st.integers(0, 2), pits=st.integers(0, 2))
def test_every_buildable_model_reads_back_as_itself(template, variant,
                                                    blocks, pits):
    instance = generate_instance(1, ROAD_TEMPLATES[template], variant,
                                 blocks=blocks, pits=pits)
    for name in KNOWN_CONFIG_NAMES:
        if not (name.startswith("CTG") and blocks):   # CTG has no blocks
            text = assert_reads_back_as_itself(
                build(instance, named_config(name)))
            # Read in pieces, the text parses as it does line by line.
            assert_same_parse(parse_mps(text), parse_mps(line_by_line(text)))


def assert_reads_back_as_itself(model):
    """One conversion from model to matrix: what the adapter reads back is
    the model's own layout, field for field, and HiGHS gets byte-equal
    arrays from either; only the entries' order differs (row order against
    file order, which is column order). Returns the model's text."""
    text = emit_mps_text(model)
    parsed = parse_mps(text)
    for field in fields(solve_core.ColumnarModel):
        got, want = getattr(parsed, field.name), getattr(model, field.name)
        if field.name == "entries":
            got, want = (np.sort(entries, order=["row", "col"])
                         for entries in (got, want))
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert np.array_equal(got, want,
                                  equal_nan=want.dtype.kind == "f"), field.name
        else:
            assert got == want, field.name
    for got, want in zip(solve_core.csc_arrays(parsed) +
                         solve_core.row_bounds(parsed),
                         solve_core.csc_arrays(model) +
                         solve_core.row_bounds(model)):
        assert got.tobytes() == want.tobytes()
    return text


@pytest.mark.parametrize("case, config_name", [
    ("A-01", "MQN-B"), ("G-01", "CTG-B"), ("C-02 2 blocks", "MQN-B")])
def test_model_solves_as_its_parsed_file(case, config_name):
    # The builder's model goes to HiGHS as it is, with no MPS text between,
    # and HiGHS gets the very arrays the file route gives it.
    model = build(pinned_road(case), named_config(config_name))
    direct = solve_parsed(model, 60.0, 0.01)
    parsed = solve_parsed(parse_mps(emit_mps_text(model)), 60.0, 0.01)
    assert direct[0] == parsed[0] == "optimal"
    assert direct[1] == parsed[1]
    assert direct[2].tobytes() == parsed[2].tobytes()


def test_solve_parsed_refuses_sos_sets():
    model = build(pinned_road("shared-pits"), named_config("MQN-S1"))
    with pytest.raises(MpsError, match="binarize them first"):
        solve_parsed(model, 60.0, 0.01)
    parsed = parse_mps(emit_mps_text(model))
    with pytest.raises(MpsError, match="binarize them first"):
        solve_parsed(parsed, 60.0, 0.01)
    binarize_sos(parsed)
    assert solve_parsed(parsed, 60.0, 0.01)[0] == "optimal"


def test_parse_reads_other_line_breaks_and_non_ascii_names():
    parsed = parse_mps(
        "NAME u\r\nROWS\r\n N COST\x0c L r\u00e9\x1c E r2\x85COLUMNS\u2028"
        "    x\u00e9 COST 1.5 r\u00e9 2.0\x0c\n"
        "    MARKER 'MARKER' 'INTORG'\x1d    \u00fc r2 3.0\x1e\n"
        "    MARKER 'MARKER' 'INTEND'\u2029    x\u00e9 r2 -1.0\r"
        "RHS\x0b    RHS r\u00e9 4.0\nENDATA\n")
    assert parsed.columns == ("x\u00e9", "\u00fc")
    assert parsed.row_order == ("r\u00e9", "r2")
    assert parsed.senses.tolist() == ["L", "E"]
    assert parsed.col_integer.tolist() == [False, True]
    assert parsed.cost.tolist() == [1.5, 0.0]
    assert parsed.row_rhs.tolist() == [4.0, 0.0]
    assert parsed.entries.tolist() == [(0, 0, 2.0), (1, 1, 3.0),
                                       (1, 0, -1.0)]


def test_repeated_entries_are_kept_and_costs_summed():
    parsed = parse_mps("NAME d\nROWS\n N COST\n L r\nCOLUMNS\n"
                       "    x COST 1.5\n    x r 1.0\n    x COST 0.25 r 2.0\n"
                       "ENDATA\n")
    assert parsed.cost.tolist() == [1.75]
    assert parsed.entries.tolist() == [(0, 0, 1.0), (0, 0, 2.0)]


SOS2_MPS = textwrap.dedent("""\
    NAME s2
    ROWS
     N COST
     G need
    COLUMNS
        a COST 1.0
        a need 1.0
        b COST 1.0
        b need 1.0
        c COST 1.0
        c need 1.0
    RHS
        RHS need 1.0
    BOUNDS
     UP BND a 4.0
     UP BND b 5.0
     LO BND c -1.0
     UP BND c 6.0
    SOS
     S2 SET lam
        c 3.0
        a 1.0
        b 2.0
    ENDATA
    """)


def test_sos2_binarize_links_adjacent_segments():
    parsed = parse_mps(SOS2_MPS)
    binarize_sos(parsed)
    assert not parsed.sos_sets
    assert parsed.columns == ("a", "b", "c", "_SOSB_1_1", "_SOSB_1_2")
    assert parsed.col_integer.tolist() == [False] * 3 + [True] * 2
    assert parsed.row_order == ("need", "_SOSC_1", "_SOSL_1_1U", "_SOSL_1_2U",
                                "_SOSL_1_3U", "_SOSL_1_3L")
    assert parsed.senses.tolist() == ["G", "E", "L", "L", "L", "G"]
    assert parsed.row_rhs.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    rows: dict[str, dict[str, float]] = {}
    for r, c, value in parsed.entries.tolist():
        rows.setdefault(parsed.row_order[r], {})[parsed.columns[c]] = value
    # Members in weight order a, b, c; segment k spans members k and k + 1.
    assert rows["_SOSC_1"] == {"_SOSB_1_1": 1.0, "_SOSB_1_2": 1.0}
    assert rows["_SOSL_1_1U"] == {"a": 1.0, "_SOSB_1_1": -4.0}
    assert rows["_SOSL_1_2U"] == {"b": 1.0, "_SOSB_1_1": -5.0,
                                  "_SOSB_1_2": -5.0}
    assert rows["_SOSL_1_3U"] == {"c": 1.0, "_SOSB_1_2": -6.0}
    assert rows["_SOSL_1_3L"] == {"c": 1.0, "_SOSB_1_2": 1.0}
