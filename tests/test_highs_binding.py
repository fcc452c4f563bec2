"""The adapter's path to HiGHS against scipy.optimize.milp.

solve_parsed must give what scipy's milp gave when the adapter called it:
the same status, the same objective and the same x, bit for bit. The
adapter itself loads only scipy's HiGHS binding, never scipy.optimize.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy import optimize, sparse
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from valign import milp_solve
from valign.builder import build, named_config
from valign.milp_solve import binarize_sos, parse_mps, solve_parsed
from valign.mps import emit_mps_text

from conftest import pinned_road
from test_milp_solve import TOY_MPS, RecordingHighs, ranged_model


def milp_result(mps, time_limit, gap):
    """((status, objective, x), scipy's result): solve_parsed's answer as it
    was when it called scipy.optimize.milp, less HiGHS presolve on pure
    LPs, and the result it read that answer from."""
    constraints = []
    if mps.row_order:
        entries = mps.entries
        matrix = sparse.csr_matrix(
            (entries["value"], (entries["row"], entries["col"])),
            shape=(len(mps.row_order), len(mps.columns)))
        constraints = [optimize.LinearConstraint(
            matrix, *milp_solve.row_bounds(mps))]

    # HiGHS presolve runs for MIPs only.
    options = {"presolve": bool(mps.col_integer.any())}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if gap is not None:
        options["mip_rel_gap"] = float(gap)

    result = optimize.milp(mps.cost, constraints=constraints,
                           integrality=mps.col_integer.astype(np.float64),
                           bounds=optimize.Bounds(mps.col_lower,
                                                  mps.col_upper),
                           options=options)

    if result.status == 0:
        return ("optimal", float(result.fun), result.x), result
    if result.status == 1:
        if result.x is not None:
            return ("feasible", float(result.fun), result.x), result
        return ("timeout", None, None), result
    if result.status == 2:
        return ("infeasible", None, None), result
    if result.status == 3:
        return ("unbounded", None, None), result
    return ("error", None, None), result


def small(rows, columns, bounds="", integer=()):
    """A hand-written MPS model: rows as "L name" lines, columns as
    "name row value" lines, integer columns inside one marker pair."""
    head = [c for c in columns if c.split()[0] not in integer]
    ints = [c for c in columns if c.split()[0] in integer]
    body = "".join(f"    {c}\n" for c in head)
    if ints:
        body += ("    M1 'MARKER' 'INTORG'\n"
                 + "".join(f"    {c}\n" for c in ints)
                 + "    M2 'MARKER' 'INTEND'\n")
    return ("NAME s\nROWS\n N COST\n"
            + "".join(f" {r}\n" for r in rows)
            + "COLUMNS\n" + body + textwrap.dedent(bounds) + "ENDATA\n")


SMALL_MODELS = {
    "no rows": small([], ["x COST 1.0", "y COST -2.0"],
                     "BOUNDS\n LO BND x 0.5\n UP BND y 3.5\n",
                     integer=("x",)),
    "LP": small(["G need", "L cap"],
                ["x COST 1.0", "x need 1.0", "x cap 1.0",
                 "y COST 3.0", "y need 2.0"],
                "RHS\n    RHS need 3.0\n    RHS cap 2.0\n"),
    "infeasible MIP": small(["G lo", "L hi"],
                            ["x COST 1.0", "x lo 1.0", "x hi 1.0"],
                            "RHS\n    RHS lo 0.2\n    RHS hi 0.8\n",
                            integer=("x",)),
    "unbounded LP": small(["G tie"],
                          ["x COST -1.0", "x tie 1.0", "y tie -1.0"]),
    "unbounded MIP": small(["G tie"],
                           ["x COST -1.0", "x tie 1.0", "y tie -1.0"],
                           integer=("x", "y")),
}

ROAD_MODELS = [("A-01", "MQN-B"), ("C-02 2 blocks", "MQN-B"),
               ("D-02 2 blocks", "MQN-S1"), ("shared-pits", "MQN-S1")]


def parsed_model(case):
    if case in SMALL_MODELS:
        return parse_mps(SMALL_MODELS[case])
    if case == "ranged":
        text = emit_mps_text(ranged_model())
    else:
        config_name = dict(ROAD_MODELS)[case]
        text = emit_mps_text(build(pinned_road(case),
                                   named_config(config_name)))
    mps = parse_mps(text)
    if mps.sos_sets:
        binarize_sos(mps)
    return mps


# How the MIPs close: (from the rounded relaxation, by branch and bound
# from the rounded relaxation's x). The others have no feasible rounding
# and branch and bound from no start, as scipy's milp does.
PATHS = {"C-02 2 blocks": (True, False), "D-02 2 blocks": (True, False),
         "ranged": (True, False), "shared-pits": (False, True),
         "no rows": (False, True)}


@pytest.mark.parametrize("case, time_limit, gap", [
    *[(case, 60.0, 0.01) for case, _ in ROAD_MODELS],
    ("ranged", 60.0, 1e-9),
    *[(case, 60.0, 1e-9) for case in SMALL_MODELS],
    ("LP", None, None),
])
def test_solve_parsed_matches_scipy_milp(counting, case, time_limit, gap):
    # LPs, and MIPs that branch and bound from no start, give scipy's
    # answer bit for bit. A MIP closed from its rounded relaxation may give
    # another x within the gap; one that branches and bounds from the
    # rounded relaxation's x gives scipy's objective up to rounding error.
    mps = parsed_model(case)
    (want_status, want_objective, want_x), result = milp_result(
        mps, time_limit, gap)
    counted = counting()
    status, objective, x, note = milp_solve.solve_arrays(
        milp_solve.model_arrays(mps), time_limit, gap)
    path = (note.endswith("(rounded relaxation)"), bool(counted.starts))
    assert path == PATHS.get(case, (False, False))
    assert status == want_status
    if any(path):
        scale = max(1.0, abs(want_objective))
        if path[0]:
            assert result.mip_dual_bound - 1e-9 * scale <= objective
            assert objective <= want_objective + gap * scale
        else:
            assert abs(objective - want_objective) <= 1e-9 * scale
        assert_feasible(mps, x, 1e-6)
    else:
        assert objective == want_objective
        if want_x is None:
            assert x is None
        else:
            assert np.array_equal(x, want_x)


def assert_feasible(mps, x, tol):
    """x within tol of the model's rows, bounds and integrality."""
    entries = mps.entries
    activity = sparse.csr_matrix(
        (entries["value"], (entries["row"], entries["col"])),
        shape=(len(mps.row_order), len(mps.columns))) @ x
    lower, upper = milp_solve.row_bounds(mps)
    assert np.all(activity >= lower - tol)
    assert np.all(activity <= upper + tol)
    assert np.all(x >= mps.col_lower - tol)
    assert np.all(x <= mps.col_upper + tol)
    ints = x[mps.col_integer]
    assert np.all(np.abs(ints - np.round(ints)) <= tol)


REAL_HIGHS = milp_solve.highs_core()._Highs


class CountingHighs:
    """The binding's HiGHS object, noting for each run() what is left of
    its time limit: the limit less the run time the object has used."""

    made = []
    left = []
    starts = []

    def __init__(self):
        self.highs = REAL_HIGHS()
        CountingHighs.made.append(self)

    def __getattr__(self, name):
        return getattr(self.highs, name)

    def setSolution(self, *args):
        CountingHighs.starts.append(args)
        return self.highs.setSolution(*args)

    def run(self):
        limit = self.highs.getOptionValue("time_limit")[1]
        CountingHighs.left.append(limit - self.highs.getRunTime())
        return self.highs.run()


PAIR_MPS = small(["L pair"], ["x COST -1.0", "x pair 1.0",
                              "y COST -1.0", "y pair 1.0"],
                 "RHS\n    RHS pair 1.5\nBOUNDS\n BV BND x\n BV BND y\n",
                 integer=("x", "y"))


@pytest.fixture
def counting(monkeypatch):
    """Call it to count the HiGHS objects made from then on, and their
    runs: scipy's milp makes them through the same binding."""
    def install():
        monkeypatch.setattr(milp_solve.highs_core(), "_Highs",
                            CountingHighs)
        for name in ("made", "left", "starts"):
            monkeypatch.setattr(CountingHighs, name, [])
        return CountingHighs
    return install


@pytest.mark.parametrize("case", ["LP", "unbounded LP", "A-01"])
def test_pure_lp_runs_once(counting, case):
    mps = (parse_mps(SMALL_MODELS[case]) if case in SMALL_MODELS
           else parse_mps(emit_mps_text(build(pinned_road(case),
                                              named_config("MQN-B")))))
    counted = counting()
    solve_parsed(mps, 60.0, 0.01)
    assert len(counted.made) == len(counted.left) == 1


def test_blocked_road_closes_after_two_runs(counting):
    # The relaxation and the rounded fixed LP, on one object.
    mps = parsed_model("C-02 2 blocks")
    counted = counting()
    status, _, _, note = milp_solve.solve_arrays(
        milp_solve.model_arrays(mps), 60.0, 0.01)
    assert status == "optimal"
    assert note.endswith("(rounded relaxation)")
    assert len(counted.made) == 1
    assert len(counted.left) == 2
    assert 0.0 < counted.left[1] <= counted.left[0] <= 60.0


def test_rounding_that_breaks_a_row_falls_back(counting, tmp_path, capsys):
    # The relaxation takes x + y = 1.5 with one binary at 0.5; rounding it
    # up breaks the row, so branch and bound gives the answer.
    mps = parse_mps(PAIR_MPS)
    want = milp_result(mps, 60.0, 1e-9)[0]
    counted = counting()
    got = solve_parsed(mps, 60.0, 1e-9)
    assert got[:2] == want[:2] == ("optimal", -1.0)
    assert np.array_equal(got[2], want[2])
    assert len(counted.made) == 2       # a fresh object for the MIP
    assert counted.starts == []         # the rounding was infeasible
    assert len(counted.left) == 3
    assert 0.0 < counted.left[2] <= counted.left[1] <= counted.left[0]
    assert counted.left[0] <= 60.0

    path, sol = tmp_path / "pair.mps", tmp_path / "pair.sol"
    path.write_text(PAIR_MPS, encoding="ascii")
    assert milp_solve.main([str(path), str(sol), "--gap", "1e-9"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("valign-milp: optimal objective -1.0 bound -1.0 "
                          "(branch and bound, ")


def test_infeasible_relaxation_ends_the_solve(counting):
    # x >= 1 and x <= 0.5 leave the relaxation no point, so it proves the
    # MIP infeasible: no branch and bound.
    mps = parse_mps(small(["G lo", "L hi"],
                          ["x COST 1.0", "x lo 1.0", "x hi 1.0"],
                          "RHS\n    RHS lo 1.0\n    RHS hi 0.5\n",
                          integer=("x",)))
    counted = counting()
    assert solve_parsed(mps, 60.0, 1e-9) == ("infeasible", None, None)
    assert len(counted.made) == len(counted.left) == 1


def test_relaxation_stopped_by_the_limit_is_a_timeout(counting):
    mps = parsed_model("D-02 2 blocks")
    counted = counting()
    assert solve_parsed(mps, 1e-9, 0.01) == ("timeout", None, None)
    assert len(counted.made) == len(counted.left) == 1


@pytest.mark.parametrize("case, config_name, presolve", [
    ("A-01", "MQN-B", "off"), ("G-01", "CTG-B", "off"), ("LP", None, "off"),
    ("C-02 2 blocks", "MQN-B", "on"), ("D-02 2 blocks", "MQN-S1", "on"),
    ("shared-pits", "MQN-S1", "on")])
def test_presolve_runs_for_mips_only(monkeypatch, case, config_name,
                                     presolve):
    # A pure LP goes straight to the simplex; a MIP, binarized SOS sets
    # included, keeps HiGHS presolve.
    if config_name is None:
        mps = parse_mps(SMALL_MODELS[case])
    else:
        mps = parse_mps(emit_mps_text(build(pinned_road(case),
                                            named_config(config_name))))
        binarize_sos(mps)
    monkeypatch.setattr(milp_solve.highs_core(), "_Highs", RecordingHighs)
    monkeypatch.setattr(RecordingHighs, "options_seen", None)
    solve_parsed(mps, 60.0, 0.01)
    assert RecordingHighs.options_seen["presolve"] == presolve


def test_models_cover_every_outcome():
    # HiGHS reports an unbounded MIP as kUnboundedOrInfeasible.
    statuses = {case: milp_result(parsed_model(case), 60.0, 1e-9)[0][0]
                for case in SMALL_MODELS}
    assert statuses == {"no rows": "optimal", "LP": "optimal",
                        "infeasible MIP": "infeasible",
                        "unbounded LP": "unbounded",
                        "unbounded MIP": "error"}


def parent_status_word(model_status, is_mip, objective):
    """The status word scipy 1.17.1's milp and the old solve_parsed gave:
    _highs_wrapper's fail conditions decide whether x comes back,
    _highs_to_scipy_status_message the status code."""
    H = milp_solve.highs_core().HighsModelStatus
    limits = (H.kTimeLimit, H.kIterationLimit, H.kSolutionLimit)
    mip_fail = model_status not in (H.kOptimal, *limits) or (
        model_status in limits and objective == np.inf)
    lp_fail = model_status != H.kOptimal
    has_x = not (mip_fail if is_mip else lp_fail)
    code, _ = _highs_to_scipy_status_message(model_status, "")
    return {0: "optimal", 1: "feasible" if has_x else "timeout",
            2: "infeasible", 3: "unbounded"}.get(code, "error")


@pytest.mark.parametrize("is_mip", [True, False])
@pytest.mark.parametrize("objective", [1.5, -np.inf, np.inf])
def test_status_table_matches_scipy(is_mip, objective):
    members = milp_solve.highs_core().HighsModelStatus.__members__
    got = {name: milp_solve.status_word(name, is_mip, objective)
           for name in members}
    want = {name: parent_status_word(status, is_mip, objective)
            for name, status in members.items()}
    assert got == want


REPEATED_MPS = ("NAME d\nROWS\n N COST\n L r\n L q\nCOLUMNS\n"
                "    x COST 1.5\n    x r 1.0\n    x COST 0.25 r 2.0\n"
                "    y q 0.1 r -0.0\n    y q 0.2\n    x q 7.0\n    y q 0.3\n"
                "    z r 0.0\nENDATA\n")


@pytest.mark.parametrize("case", ["A-01", "G-01", "D-02 2 blocks",
                                  "shared-pits", "repeated", "no rows"])
def test_csc_arrays_equal_scipy(case):
    configs = {"A-01": "MQN-B", "G-01": "CTG-B", "D-02 2 blocks": "MQN-S1",
               "shared-pits": "MQN-S1"}
    if case in configs:
        mps = parse_mps(emit_mps_text(build(pinned_road(case),
                                            named_config(configs[case]))))
        binarize_sos(mps)
    else:
        mps = parse_mps(REPEATED_MPS if case == "repeated"
                        else SMALL_MODELS[case])
    entries = mps.entries
    want = sparse.csc_array(sparse.csr_matrix(
        (entries["value"], (entries["row"], entries["col"])),
        shape=(len(mps.row_order), len(mps.columns))))
    start, index, value = milp_solve.csc_arrays(mps)
    assert start.dtype == index.dtype == np.int32
    assert value.dtype == np.float64
    assert np.array_equal(start, want.indptr)
    assert np.array_equal(index, want.indices)
    assert value.tobytes() == want.data.tobytes()
    if case == "repeated":
        # 0.1 + 0.2 + 0.3 summed in file order, and a -0.0 kept as it is
        assert value.tolist() == [3.0, 7.0, -0.0, 0.1 + 0.2 + 0.3, 0.0]


def python(code, *args):
    """Run code in a fresh interpreter; its last stdout line as JSON."""
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code),
                           *args], capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_adapter_process_imports_only_the_binding(tmp_path):
    mps, sol = tmp_path / "toy.mps", tmp_path / "toy.sol"
    mps.write_text(TOY_MPS, encoding="ascii")
    loaded = python("""\
        import json, runpy, sys
        sys.argv[0] = "valign-milp"
        try:
            runpy.run_module("valign.milp_solve", run_name="__main__",
                             alter_sys=True)
        except SystemExit as done:
            rc = done.code
        names = ("scipy.optimize", "scipy.sparse", "valign.builder",
                 "valign.gateway", "valign.instance",
                 "scipy.optimize._highspy._core")
        print(json.dumps([rc, [n in sys.modules for n in names]]))
        """, str(mps), str(sol))
    assert loaded == [0, [False, False, False, False, False, True]]
    assert sol.read_text().startswith("status optimal\n")


def test_optimize_resolves_on_read():
    # perfbench's traced re-solve reads and patches milp_solve.optimize.
    assert milp_solve.optimize is optimize
    with pytest.raises(AttributeError):
        milp_solve.sparse


def test_star_import_binds_all():
    namespace = {}
    exec("from valign import *", namespace)
    import valign
    assert set(valign.__all__) <= set(namespace)
    assert set(valign.__all__) <= set(dir(valign))
    for name in valign.__all__:
        assert namespace[name] is getattr(valign, name)


def test_export_outlives_its_submodule_import():
    # Importing valign.validate binds the submodule on the package; the
    # package keeps valign.validate the function, as it was when every
    # export was imported up front.
    assert python("""\
        import json, sys
        import valign.validate
        from valign import validate
        print(json.dumps(validate is sys.modules["valign.validate"].validate))
        """) is True


@pytest.mark.parametrize("adapter_first", [True, False])
def test_binding_and_scipy_milp_share_one_core(adapter_first):
    code = """\
        import json, sys
        import numpy as np
        from valign import milp_solve
        from test_milp_solve import TOY_MPS

        def adapter():
            core = milp_solve.highs_core()
            status, objective, _ = milp_solve.solve_parsed(
                milp_solve.parse_mps(TOY_MPS), 30.0, 1e-9)
            return core, [status, objective]

        def scipy_milp():
            from scipy import optimize
            result = optimize.milp([1.0, -1.0], integrality=[1, 0],
                                   bounds=optimize.Bounds([0, 0], [2.5, 1.5]),
                                   constraints=[optimize.LinearConstraint(
                                       [[1.0, 1.0]], 1.0, 3.0)])
            return [result.status, result.fun]

        if sys.argv[1] == "adapter":
            core, solved = adapter()
            milp = scipy_milp()
        else:
            milp = scipy_milp()
            core, solved = adapter()
        import scipy.optimize._highspy._core as imported
        print(json.dumps([solved, milp,
                          core is imported is milp_solve.highs_core()
                          is sys.modules["scipy.optimize._highspy._core"]]))
        """
    tests = os.path.dirname(os.path.abspath(__file__))
    assert python(f"import sys; sys.path.insert(0, {tests!r})\n"
                  + textwrap.dedent(code),
                  "adapter" if adapter_first else "scipy") == [
        ["optimal", -3.0], [0, -1.5], True]
