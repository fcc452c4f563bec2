"""Bundled MIP adapter: MPS parsing, SOS handling, solving, exit codes."""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
import weakref
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from valign import milp_solve
from valign.builder import (
    LinearConstraint,
    MilpModel,
    Variable,
    build,
    named_config,
)
from valign.milp_solve import (
    MpsError,
    binarize_sos,
    main,
    parse_mps,
    solve_parsed,
)
from valign.mps import emit_mps, emit_mps_text

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


def test_main_rejects_sos_by_default(tmp_path):
    mps = write(tmp_path, SOS_MPS)
    sol = str(tmp_path / "out.sol")
    rc = main([mps, sol])
    assert rc == 3
    content = open(sol).read()
    assert content.startswith("status error")


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


def test_main_binarize_flag(tmp_path):
    mps = write(tmp_path, SOS_MPS)
    sol = str(tmp_path / "out.sol")
    rc = main([mps, sol, "--sos", "binarize", "--gap", "1e-9"])
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
    assert lines[3:] == ["_SOSB_keep 2.0", "y 0.0"]


@pytest.mark.parametrize("flag, value, message", [
    ("--time-limit", "-5", "must be > 0, got '-5'"),
    ("--time-limit", "0", "must be > 0, got '0'"),
    ("--time-limit", "nan", "expected a number, got 'nan'"),
    ("--time-limit", "soon", "expected a number, got 'soon'"),
    ("--gap", "-1", "must be >= 0, got '-1'"),
    ("--gap", "nan", "expected a number, got 'nan'"),
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
        from valign import milp_solve
        finder = importlib.machinery.PathFinder
        real = finder.find_spec
        finder.find_spec = classmethod(
            lambda cls, name, path=None, target=None:
            None if name == milp_solve._CORE else real(name, path, target))
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
    ("* lead\n    x r1 1.0\n", "line 2: data outside any section"),
    ("NAME t\nROWS\n L r1\nENDATA\n", "no objective row declared"),
])
def test_mps_error_messages_pinned(text, message):
    with pytest.raises(MpsError) as err:
        parse_mps(text)
    assert str(err.value) == message


def test_binarize_rejects_unbounded_member():
    parsed = parse_mps(SOS_MPS.replace(" UP BND v 10.0\n", ""))
    with pytest.raises(MpsError) as err:
        binarize_sos(parsed)
    assert str(err.value) == ("SOS set pick: member v has unbounded domain; "
                              "cannot binarize")


class RecordingHighs:
    """Stands in for the binding's HiGHS object: keeps the sha256 of the
    options and model it is handed and returns a stub optimum with seeded
    values, so no solve runs. HiGHS copies the model in passModel; with
    expect_released set, run() checks through weak references that
    nothing holds a pure LP's arrays any more, as in the adapter's main."""

    digest = None
    options_seen = None
    expect_released = False
    runs_checked = 0

    def __init__(self):
        self.options = {}
        self.num_col = self.num_row = 0
        self.arrays = []
        self.is_lp = False

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
        self.arrays = [weakref.ref(part) for part in arrays]
        self.is_lp = not np.any(integrality)

    def getOptionValue(self, name):
        return milp_solve.highs_core().HighsStatus.kOk, \
            self.options.get(name, 1e-6)

    def addCols(self, count, cost, lower, upper, num_nz, start, index,
                value):
        self.num_col += count
        return milp_solve.highs_core().HighsStatus.kOk

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
        if self.expect_released and self.is_lp:
            alive = [at for at, ref in enumerate(self.arrays)
                     if ref() is not None]
            assert not alive, f"passModel arrays {alive} outlive the copy"
            RecordingHighs.runs_checked += 1

    def getModelStatus(self):
        return milp_solve.highs_core().HighsModelStatus.kOptimal

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
# solution file it writes for seeded values (less its wall_time line). G-01
# CTG-B is sifted: HiGHS gets its first working set, and with no row dual
# no other column prices out.
@pytest.mark.parametrize("case, config_name, arrays, solution", [
    ("A-01", "MQN-B",
     "f7bc0dd395f5faf6107002487b3bbf9b094241a4e9980ca6f97cd0a855a4e5a4",
     "25020bf4cfc21bb9de4f629fac2961571bf8acf20236be6abef327c8319b63f7"),
    ("G-01", "CTG-B",
     "5f12bcdfd1debf442bdb0845aea0ec2358fc0173ca709bc3f9c7efae17d20977",
     "5c704e18f2b26f144834845e97ec192871d724f1e193de8057e32290eb899d89"),
    ("D-02 2 blocks", "MQN-S1",
     "dc8073483b8b897e16d841641cce7fe43c997ec1b99e43dc81d54995aec451d2",
     "cfeab0e5f9de820585f70a3a73748ebb21e78bae9d2572f4b1ccd1480c0d3193"),
    ("shared-pits", "MQN-S1",
     "80be8cd84f843eef89092e115d96e38b84a9b75e3ab696ba823b5755f4ca30ed",
     "c7cad0c43308ffd621dbfad18395f7fc81e7843382b0e23d3e52ac3ce4594e78"),
])
def test_adapter_arrays_and_solution_pinned(tmp_path, monkeypatch, case,
                                            config_name, arrays, solution):
    mps = str(tmp_path / "m.mps")
    sol = tmp_path / "m.sol"
    emit_mps(build(pinned_road(case), named_config(config_name)), mps)
    monkeypatch.setattr(milp_solve.highs_core(), "_Highs", RecordingHighs)
    monkeypatch.setattr(RecordingHighs, "digest", None)
    monkeypatch.setattr(RecordingHighs, "expect_released", True)
    monkeypatch.setattr(RecordingHighs, "runs_checked", 0)
    rc = main([mps, str(sol), "--time-limit", "60", "--gap", "0.01",
               "--sos", "binarize"])
    assert rc == 0
    written = [line for line in sol.read_bytes().splitlines(keepends=True)
               if not line.startswith(b"wall_time ")]
    assert hashlib.sha256(b"".join(written)).hexdigest() == solution
    assert RecordingHighs.digest == arrays
    # The block-free cells are pure LPs: their run() saw the arrays gone.
    assert RecordingHighs.runs_checked == (config_name != "MQN-S1")


def ranged_model() -> MilpModel:
    return MilpModel.from_objects(
        name="ranged",
        variables=(Variable("x", "continuous", -2.0, 4.0),
                   Variable("y", "binary", 0.0, 1.0)),
        constraints=(LinearConstraint("band", (("x", 1.0), ("y", -2.0)),
                                      "L", 5.0, 3.0),
                     LinearConstraint("floor", (("x", 1.0),), "G", -1.0),
                     LinearConstraint("tie", (("y", 1.0),), "E", 1.0)),
        objective=(("x", 1.0),))


@pytest.mark.parametrize("case, config_name", [
    ("A-01", "MQN-B"), ("G-01", "CTG-B"), ("D-02 2 blocks", "MQN-S1"),
    ("shared-pits", "MQN-S1"), ("ranged", None)])
def test_parse_gives_the_model_arrays(case, config_name):
    # One conversion from model to matrix: what the adapter reads back is
    # the model's own layout, field for field; only the entries' order
    # differs (row order against file order, which is column order).
    if case == "ranged":
        model = ranged_model()
    else:
        model = build(pinned_road(case), named_config(config_name))
    parsed = parse_mps(emit_mps_text(model))
    for field in fields(milp_solve.ColumnarModel):
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
    for got, want in zip(milp_solve.csc_arrays(parsed) +
                         milp_solve.row_bounds(parsed),
                         milp_solve.csc_arrays(model) +
                         milp_solve.row_bounds(model)):
        assert got.tobytes() == want.tobytes()


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
