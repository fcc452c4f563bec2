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
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, sparse
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from valign import highs, milp_solve, solve_core
from valign.bench import ROAD_TEMPLATES, generate_instance
from valign.builder import build, fix_offsets, named_config
from valign.gateway import parse_solution_text
from valign.mps import MpsError, _read_mps, emit_mps, emit_mps_text, parse_mps
from valign.solve_core import binarize_sos, solve_parsed

from conftest import pinned_road
from test_milp_solve import (
    REPEATED_MPS,
    TOY_MPS,
    RecordingHighs,
    ranged_model,
)


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
            matrix, *solve_core.row_bounds(mps))]

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


def priced_lp(w_upper):
    """A wide LP that sifts: x_1..x_30 at cost j each cover w, at cost -25,
    in "tie" (x_1 + ... + x_30 - w >= 0), and "cap" holds x_1..x_20 to 3
    in all. The first working set, w and x_1..x_20, stops at -72 with
    w = x_1 = 3; x_21..x_24 price out. With w at most w_upper = 10 the
    second LP takes x_21 = 7 for -100 and nothing more prices out; with w
    unbounded it is unbounded."""
    columns = ["w COST -25.0", "w tie -1.0"]
    for j in range(1, 31):
        columns += [f"x{j} COST {j}.0", f"x{j} tie 1.0"]
        columns += [f"x{j} cap 1.0"] if j <= 20 else []
    return small(["G tie", "L cap"], columns, "RHS\n    RHS cap 3.0\n"
                 + (f"BOUNDS\n UP BND w {w_upper}\n" if w_upper else ""))


def banned_lp(banned):
    """A wide LP whose first working set, x_1..x_20, is infeasible:
    x_1..x_30 at cost j must cover 1 in "need" while "ban" holds the first
    `banned` of them at 0. With 20 banned the LP takes x_21 = 1 for 21; with
    30 it is infeasible."""
    columns = []
    for j in range(1, 31):
        columns += [f"x{j} COST {j}.0", f"x{j} need 1.0"]
        columns += [f"x{j} ban 1.0"] if j <= banned else []
    return small(["G need", "L ban"], columns, "RHS\n    RHS need 1.0\n")


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
    "wide LP": priced_lp(10.0),
    "unbounded wide LP": priced_lp(None),
    "wide LP infeasible at first": banned_lp(20),
    "infeasible wide LP": banned_lp(30),
}



def two_chains(link=("G", 1.0, -1.0), rhs=0.0, cap_b=None):
    """Two monotone chains, a0 <= a1 and b0 <= b1, tied as the builder's
    MON_k_t rows tie a block's removal indicators; link gives the sense of
    the A chain's row and its coefficients on a1 and a0. a0 and b0 each
    earn 1, but a0 opens a slack costing 10 beyond 0.4. The relaxation
    takes a0 = a1 = 0.4 and b0 = b1 = 1 for 98.84. Rounding up costs the
    slack 6 (104.3); in that LP a0 has the one positive reduced cost, so
    the schedule (1, 0), a0 alone at 0, comes first: 99.3, within 1% of the
    bound. With cap_b, b0 opens a slack costing 10 beyond cap_b as well."""
    sense, on_a1, on_a0 = link
    rows, columns, rhs_lines = ["G LB", "L CA", "G FIX"], [], ""
    if cap_b is not None:
        rows.append("L CB")
        columns = ["t COST 10.0", "t CB -1.0", "b0 CB 1.0"]
        rhs_lines = f"    RHS CB {cap_b}\n"
    return small([f"{sense} LA", *rows],
                 ["s COST 10.0", "s CA -1.0", "w COST 1.0", "w FIX 1.0",
                  "a0 COST -1.0", f"a0 LA {on_a0}", "a0 CA 1.0",
                  "a1 COST 0.1", f"a1 LA {on_a1}",
                  "b0 COST -1.0", "b0 LB -1.0", "b1 COST 0.2", "b1 LB 1.0",
                  *columns],
                 "RHS\n    RHS CA 0.4\n    RHS FIX 100.0\n"
                 f"    RHS LA {rhs}\n{rhs_lines}"
                 "BOUNDS\n BV BND a0\n BV BND a1\n BV BND b0\n BV BND b1\n",
                 integer=("a0", "a1", "b0", "b1"))


ROAD_MODELS = [("A-01", "MQN-B"), ("C-02 2 blocks", "MQN-B"),
               ("D-02 2 blocks", "MQN-S1"), ("shared-pits", "MQN-S1")]


def parsed_model(case):
    if case in SMALL_MODELS:
        return parse_mps(SMALL_MODELS[case])
    if case == "chains":
        return parse_mps(two_chains())
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


# How the MIPs close: from the rounded relaxation, from a removal
# schedule, or by branch and bound started from the best MIP-feasible x
# the fixed LPs found. The others have no MIP-feasible fixed LP and branch
# and bound from no start, as scipy's milp does.
PATHS = {"C-02 2 blocks": "rounded relaxation",
         "D-02 2 blocks": "rounded relaxation",
         "ranged": "rounded relaxation", "chains": "schedule",
         "shared-pits": "started", "no rows": "started"}


def closing_path(note, counted):
    if note.endswith("(rounded relaxation)"):
        return "rounded relaxation"
    if "(schedule " in note:
        return "schedule"
    return "started" if counted.starts else None


@pytest.mark.parametrize("case, time_limit, gap", [
    *[(case, 60.0, 0.01) for case, _ in ROAD_MODELS],
    ("chains", 60.0, 0.01),
    ("ranged", 60.0, 1e-9),
    *[(case, 60.0, 1e-9) for case in SMALL_MODELS],
    ("LP", None, None),
])
def test_solve_parsed_matches_scipy_milp(counting, case, time_limit, gap):
    # LPs, and MIPs that branch and bound from no start, give scipy's
    # answer bit for bit. A MIP closed from a fixed LP may give another x
    # within the gap; one that branches and bounds from a fixed LP's x
    # gives scipy's objective up to rounding error.
    mps = parsed_model(case)
    (want_status, want_objective, want_x), result = milp_result(
        mps, time_limit, gap)
    counted = counting()
    status, objective, x, note = solve_core.solve_arrays(
        solve_core.model_arrays(mps), time_limit, gap, mps.sos_flags)
    path = closing_path(note, counted)
    assert path == PATHS.get(case)
    assert status == want_status
    if path is not None:
        scale = max(1.0, abs(want_objective))
        if path == "started":
            assert abs(objective - want_objective) <= 1e-9 * scale
        else:
            assert result.mip_dual_bound - 1e-9 * scale <= objective
            assert objective <= want_objective + gap * scale
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
    lower, upper = solve_core.row_bounds(mps)
    assert np.all(activity >= lower - tol)
    assert np.all(activity <= upper + tol)
    assert np.all(x >= mps.col_lower - tol)
    assert np.all(x <= mps.col_upper + tol)
    ints = x[mps.col_integer]
    assert np.all(np.abs(ints - np.round(ints)) <= tol)


REAL_HIGHS = highs.highs_core()._Highs


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
        monkeypatch.setattr(highs.highs_core(), "_Highs",
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
    status, _, _, note = solve_core.solve_arrays(
        solve_core.model_arrays(mps), 60.0, 0.01, ())
    assert status == "optimal"
    assert note.endswith("(rounded relaxation)")
    assert len(counted.made) == 1
    assert len(counted.left) == 2
    assert 0.0 < counted.left[1] <= counted.left[0] <= 60.0


@pytest.mark.parametrize("link", [("G", 1.0, -1.0), ("L", -1.0, 1.0)])
def test_two_chains_close_by_schedule(counting, tmp_path, capsys, link):
    # Rounding up misses the gap. The rounded schedule with a0's chain a
    # step later closes it on the relaxation's object: one fixed LP after
    # the rounded one, no branch and bound and no start.
    mps = parse_mps(two_chains(link))
    counted = counting()
    status, objective, x, note = solve_core.solve_arrays(
        solve_core.model_arrays(mps), 60.0, 0.01, ())
    assert (status, objective) == ("optimal", pytest.approx(99.3))
    assert note.endswith(" (schedule 1 0, 2 LPs)")
    chains = [mps.columns.index(name) for name in ("a0", "a1", "b0", "b1")]
    assert x[chains].tolist() == [0.0, 1.0, 1.0, 1.0]
    assert len(counted.made) == 1
    assert counted.starts == []
    assert len(counted.left) == 3   # relaxation, rounded, schedule

    path, sol = tmp_path / "chains.mps", tmp_path / "chains.sol"
    path.write_text(two_chains(link), encoding="ascii")
    assert milp_solve.main([str(path), str(sol), "--gap", "0.01"]) == 0
    assert capsys.readouterr().out.endswith(" (schedule 1 0, 2 LPs)\n")


@pytest.mark.parametrize("link, rhs", [(("G", 1.0, -1.0), -0.5),
                                       (("G", 1.0, 1.0), 0.0)])
def test_rows_that_are_not_chain_links_start_no_search(counting, link, rhs):
    # a1 - a0 >= -0.5 and a1 + a0 >= 0 hold for any binaries but are no
    # chain link, so a0 and a1 lie on no chain: where the link row closes
    # by schedule, the rounded LP's miss goes straight to branch and bound.
    linked = parse_mps(two_chains())
    assert "(schedule " in solve_core.solve_arrays(
        solve_core.model_arrays(linked), 60.0, 0.01, ())[3]
    mps = parse_mps(two_chains(link, rhs))
    counted = counting()
    status, objective, _, note = solve_core.solve_arrays(
        solve_core.model_arrays(mps), 60.0, 0.01, ())
    assert status == "optimal"
    assert "(branch and bound, " in note
    assert len(counted.made) == 2
    assert len(counted.left) == 3   # relaxation, rounded, branch and bound


@pytest.mark.parametrize("links, chains", [
    (["x y", "y z"], [["x", "y", "z"]]),
    (["y x", "z y"], [["z", "y", "x"]]),
    (["x y", "x z"], None),             # x below two switches: a fork
    (["x y", "y z", "z x"], None),      # a cycle
    (["x y"], None),                    # z on no chain
])
def test_monotone_chains_read_off_the_matrix(links, chains):
    # Each link "lo hi" is a row hi - lo >= 0 over binaries x, y, z.
    rows = [f"G L{i}" for i in range(len(links))]
    entries = [f"{col} L{i} {coeff}" for i, link in enumerate(links)
               for col, coeff in zip(link.split(), (-1.0, 1.0))]
    mps = parse_mps(small(rows, ["x COST 1.0", "y COST 1.0", "z COST 1.0",
                                 *entries], integer=("x", "y", "z")))
    arrays = solve_core.model_arrays(mps)
    arrays[1][:], arrays[2][:] = 0.0, 1.0
    found = solve_core.monotone_chains(arrays, np.arange(3))
    if chains is None:
        assert found is None
    else:
        assert [[mps.columns[c] for c in chain] for chain in found] == chains


def skew_the_clock(monkeypatch, skew):
    """Each module that reads the clock reads skew[0] seconds ahead."""
    clock = SimpleNamespace(monotonic=lambda: time.monotonic() + skew[0])
    for module in (solve_core, highs):
        monkeypatch.setattr(module, "time", clock)


def test_search_stops_once_it_has_taken_as_long_as_the_relaxation(
        counting, monkeypatch):
    # With b0 capped at 0.3 both chains' neighbours of the rounded
    # schedule miss the gap. A clock on which each schedule LP takes a
    # second spends the relaxation's time on the first, so the second is
    # not tried: branch and bound follows, started from the best fixed LP.
    mps = parse_mps(two_chains(cap_b=0.3))
    skew = [0.0]
    skew_the_clock(monkeypatch, skew)
    counted = counting()
    run = CountingHighs.run

    def run_then_tick(self):
        run(self)
        if len(counted.left) > 2:       # a schedule LP
            skew[0] += 1.0

    monkeypatch.setattr(CountingHighs, "run", run_then_tick)
    status, objective, _, note = solve_core.solve_arrays(
        solve_core.model_arrays(mps), 60.0, 0.01, ())
    assert (status, objective) == ("optimal", pytest.approx(100.0))
    assert "(branch and bound, " in note
    assert len(counted.made) == 2
    assert len(counted.left) == 4   # relaxation, rounded, one schedule, B&B
    assert len(counted.starts) == 1


def test_fixed_lp_must_hold_each_sos_set(counting):
    # u and v, an SOS1 set, are each capped at 1 by a row and must cover
    # 1.5. With the flags continuous the relaxation, which is its own
    # rounded LP here, takes u = 1 and v = 0.5 for 1.5: both nonzero, so
    # it is no answer, and branch and bound pays the slack w for 6.
    mps = parse_mps(small(
        ["G need", "L capu", "L capv"],
        ["u COST 1.0", "u need 1.0", "u capu 1.0",
         "v COST 1.0", "v need 1.0", "v capv 1.0",
         "w COST 10.0", "w need 1.0"],
        "RHS\n    RHS need 1.5\n    RHS capu 1.0\n    RHS capv 1.0\n"
        "BOUNDS\n UP BND u 10.0\n UP BND v 10.0\nSOS\n S1 SET pick\n"
        "    u 1.0\n    v 2.0\n"))
    binarize_sos(mps)
    counted = counting()
    status, objective, x, note = solve_core.solve_arrays(
        solve_core.model_arrays(mps), 60.0, 1e-9, mps.sos_flags)
    assert (status, objective) == ("optimal", pytest.approx(6.0))
    assert "(branch and bound, " in note
    assert len(counted.made) == 2
    u, v = (mps.columns.index(name) for name in "uv")
    assert x[u] * x[v] == 0.0


def suite_road(tmp_path, road):
    """A road of the generated suite perfbench's suite-matrix runs."""
    from valign.bench import generate_suite
    from valign.instance_io import parse_instance
    generate_suite(1, "ABC", str(tmp_path / "suite"), variants=2)
    return parse_instance(str(tmp_path / "suite" / f"{road}.json"))


def test_limit_running_out_in_the_search_ends_the_solve(counting, tmp_path,
                                                         monkeypatch):
    # C-01 under MQN-B: the rounded LP is feasible but outside the gap.
    # The limit runs out once it has answered, so the first schedule LP
    # stops at once and ends the solve as feasible with the rounded LP's x
    # (or, on a machine too slow for the rounded LP, as a timeout); no
    # branch and bound follows, and no run outlives the limit.
    mps = parse_mps(emit_mps_text(build(suite_road(tmp_path, "C-01"),
                                        named_config("MQN-B"))))
    limit = 1.5
    counted = counting()
    run = CountingHighs.run

    def run_then_wait(self):
        run(self)
        if len(counted.left) == 2:      # the rounded LP
            time.sleep(max(start + limit - time.monotonic(), 0.0))

    monkeypatch.setattr(CountingHighs, "run", run_then_wait)
    start = time.monotonic()
    status, objective, x = solve_parsed(mps, limit, 0.01)
    assert time.monotonic() - start <= limit + 1.0
    assert status in ("feasible", "timeout")
    assert len(counted.made) == 1
    assert all(0.0 <= later <= earlier <= limit for earlier, later
               in zip(counted.left, counted.left[1:]))
    if status == "feasible":
        assert len(counted.left) == 3
        assert_feasible(mps, x, 1e-6)


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
    monkeypatch.setattr(highs.highs_core(), "_Highs", RecordingHighs)
    monkeypatch.setattr(RecordingHighs, "options_seen", None)
    solve_parsed(mps, 60.0, 0.01)
    assert RecordingHighs.options_seen["presolve"] == presolve


def test_models_cover_every_outcome():
    # HiGHS reports an unbounded MIP as kUnboundedOrInfeasible.
    statuses = {case: milp_result(parsed_model(case), 60.0, 1e-9)[0][0]
                for case in (*SMALL_MODELS, "chains")}
    assert statuses == {"no rows": "optimal", "LP": "optimal",
                        "infeasible MIP": "infeasible",
                        "unbounded LP": "unbounded",
                        "unbounded MIP": "error", "chains": "optimal",
                        "wide LP": "optimal",
                        "unbounded wide LP": "unbounded",
                        "wide LP infeasible at first": "optimal",
                        "infeasible wide LP": "infeasible"}
    # The MIPs close every way the adapter closes one.
    assert set(PATHS.values()) == {"rounded relaxation", "schedule",
                                   "started"}


@pytest.mark.parametrize("case, runs, note", [
    ("wide LP", 2, "(sifted: 2 LPs, 25 of 31 columns)"),
    ("unbounded wide LP", 3, ""),
    ("wide LP infeasible at first", 2, "(sifted: 2 LPs, 30 of 30 columns)"),
    ("infeasible wide LP", 2, "")])
def test_wide_lps_sift(counting, case, runs, note):
    # Columns that price out join the working set on the same object. A
    # working set that is infeasible or unbounded gets every column left
    # and one more run, whose answer stands.
    mps = parse_mps(SMALL_MODELS[case])
    counted = counting()
    status, objective, x, got = solve_core.solve_arrays(
        solve_core.model_arrays(mps), 60.0, 1e-9, ())
    assert got == note
    assert len(counted.made) == 1
    assert len(counted.left) == runs
    if case == "wide LP":
        assert objective == -100.0
        values = dict(zip(mps.columns, x.tolist()))
        assert {name: value for name, value in values.items() if value} \
            == {"w": 10.0, "x1": 3.0, "x21": 7.0}


def test_sifted_lp_stopped_by_the_limit_is_a_timeout(counting, monkeypatch):
    # The limit runs out once the first working set is solved: the second
    # LP stops at once, and the working set's x is no answer.
    mps = parse_mps(SMALL_MODELS["wide LP"])
    skew = [0.0]
    skew_the_clock(monkeypatch, skew)
    counted = counting()
    run = CountingHighs.run

    def run_then_tick(self):
        run(self)
        skew[0] += 100.0

    monkeypatch.setattr(CountingHighs, "run", run_then_tick)
    assert solve_parsed(mps, 60.0, None) == ("timeout", None, None)
    assert len(counted.left) == 2
    assert counted.left[1] == 0.0
    assert solve_parsed(mps, 1e-9, None) == ("timeout", None, None)


def reduced_costs(mps, row_dual):
    """c - A'y for every column of the model."""
    entries = mps.entries
    matrix = sparse.csr_matrix(
        (entries["value"], (entries["row"], entries["col"])),
        shape=(len(mps.row_order), len(mps.columns)))
    return mps.cost - matrix.T @ np.asarray(row_dual)


@pytest.mark.parametrize("road", ["G-01", "A-01", "A-02", "C-02"])
def test_sifted_ctg_is_the_whole_lps_optimum(counting, tmp_path, road):
    # G-01 is the long road, the others the suite's block-free roads. The
    # sifted objective is the whole LP's, and under the final duals no
    # column at its lower bound, every column HiGHS was not given among
    # them, has a reduced cost below -dual_feasibility_tolerance.
    instance = (pinned_road(road) if road == "G-01"
                else suite_road(tmp_path, road))
    mps = parse_mps(emit_mps_text(build(instance, named_config("CTG-B"))))
    (want_status, want, _), _ = milp_result(mps, None, None)
    counted = counting()
    status, objective, x, note = solve_core.solve_arrays(
        solve_core.model_arrays(mps), None, None, ())
    assert status == want_status == "optimal"
    assert abs(objective - want) <= 1e-9 * max(1.0, abs(want))
    assert note.startswith("(sifted: ")
    highs = counted.made[-1]
    assert highs.getNumCol() < len(mps.columns)
    tolerance = highs.getOptionValue("dual_feasibility_tolerance")[1]
    reduced = reduced_costs(mps, highs.getSolution().row_dual)
    assert reduced[x == mps.col_lower].min() >= -tolerance
    assert_feasible(mps, x, 1e-6)


@pytest.mark.parametrize("road", ["A-01", "A-02", "C-02", "pinned A-01",
                                  "pinned G-01"])
@pytest.mark.parametrize("config_name", ["MQN-B", "QNA-B"])
def test_block_free_flow_models_stay_whole(tmp_path, road, config_name):
    # Their first working set holds every column: the LP goes to HiGHS as
    # it is, in one run().
    instance = (pinned_road(road.split()[1]) if road.startswith("pinned")
                else suite_road(tmp_path, road))
    mps = parse_mps(emit_mps_text(build(instance, named_config(config_name))))
    arrays = solve_core.model_arrays(mps)
    assert not arrays[-1].any()
    assert solve_core.working_set(arrays).all()


@pytest.mark.parametrize("case", ["wide LP", "wide LP infeasible at first",
                                  "A-02", "C-02"])
def test_working_set_matches_a_loop(tmp_path, case):
    # Row by row: each row's columns that can rest at 0, by cost and then
    # column id, the first _PER_ROW of them; and every column that cannot.
    if case in SMALL_MODELS:
        mps = parse_mps(SMALL_MODELS[case])
    else:
        mps = parse_mps(emit_mps_text(build(suite_road(tmp_path, case),
                                            named_config("CTG-B"))))
    rests = [lower == 0.0 and upper > 0.0 for lower, upper
             in zip(mps.col_lower.tolist(), mps.col_upper.tolist())]
    in_row = [set() for _ in mps.row_order]
    for row, col, _ in mps.entries.tolist():
        if rests[col]:
            in_row[row].add(col)
    want = {col for col, rest in enumerate(rests) if not rest}
    for cols in in_row:
        cheapest = sorted(cols, key=lambda col: (mps.cost[col], col))
        want.update(cheapest[:highs._PER_ROW])
    got = solve_core.working_set(solve_core.model_arrays(mps))
    assert set(np.flatnonzero(got).tolist()) == want


def lexsorted_working_set(arrays):
    """working_set as a lexsort by row, then cost, of the entries of the
    columns that can rest at 0, in column order."""
    cost, col_lower, col_upper, _, _, start, index, _, _ = arrays
    rests = (col_lower == 0.0) & (col_upper > 0.0)
    working = ~rests
    col = np.repeat(np.arange(len(cost)), np.diff(start))
    at = np.flatnonzero(rests[col])
    at = at[np.lexsort((cost[col[at]], index[at]))]
    head = np.flatnonzero(np.diff(index[at], prepend=-1))
    rank = np.arange(len(at)) - np.repeat(head, np.diff(head, append=len(at)))
    working[col[at[rank < highs._PER_ROW]]] = True
    return working


@pytest.mark.parametrize("road", ["G-01", "A-01", "A-02", "C-02"])
def test_working_set_matches_a_lexsort(tmp_path, road):
    # The one sort by an int64 key gives the mask a lexsort gives, on the
    # long road's CTG-B LP and the suite's.
    instance = (pinned_road(road) if road == "G-01"
                else suite_road(tmp_path, road))
    mps = parse_mps(emit_mps_text(build(instance, named_config("CTG-B"))))
    arrays = solve_core.model_arrays(mps)
    got = solve_core.working_set(arrays)
    assert not got.all()
    assert np.array_equal(got, lexsorted_working_set(arrays))


def parent_status_word(model_status, is_mip, objective):
    """The status word scipy 1.17.1's milp and the old solve_parsed gave:
    _highs_wrapper's fail conditions decide whether x comes back,
    _highs_to_scipy_status_message the status code."""
    H = highs.highs_core().HighsModelStatus
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
    members = highs.highs_core().HighsModelStatus.__members__
    got = {name: highs.status_word(name, is_mip, objective)
           for name in members}
    want = {name: parent_status_word(status, is_mip, objective)
            for name, status in members.items()}
    assert got == want


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
    start, index, value = solve_core.csc_arrays(mps)
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


@pytest.mark.parametrize("case", ["toy", "A-01 MQN-B", "G-01 CTG-B"])
def test_adapter_process_imports_only_the_binding(tmp_path, case):
    # The adapter's run() ends the process itself, so the imports are read
    # off the interpreter's own import trace. TOY_MPS, a MIP, and G-01
    # CTG-B, a wide LP, take the array route through the solve core, and
    # A-01 MQN-B, a plain LP, loads neither the core nor numpy.
    mps, sol = tmp_path / "m.mps", tmp_path / "m.sol"
    if case == "toy":
        mps.write_text(TOY_MPS, encoding="ascii")
    else:
        road, config_name = case.split()
        emit_mps(build(pinned_road(road), named_config(config_name)),
                 str(mps))
    done = subprocess.run([sys.executable, "-X", "importtime", "-m",
                           "valign.milp_solve", str(mps), str(sol)],
                          capture_output=True, text=True)
    assert done.returncode == 0
    imported = {line.rsplit("|", 1)[1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    assert {"argparse", "valign"} <= imported
    numpy = {name for name in imported if name.split(".")[0] == "numpy"}
    arrays = case != "A-01 MQN-B"
    assert bool(numpy) == arrays
    assert ("valign.solve_core" in imported) == arrays
    assert not imported & {"numpy.ma", "scipy.optimize", "scipy.sparse",
                           "valign.builder", "valign.gateway",
                           "valign.instance"}
    assert sol.read_text().startswith("status optimal\n")
    # main's closing line alone: HiGHS logs nothing to the console.
    assert done.stdout.startswith("valign-milp: optimal objective ")
    assert done.stdout.count("\n") == 1


@pytest.mark.parametrize("module", ["valign.builder", "valign.gateway"])
def test_the_library_never_loads_the_adapter(module):
    assert python(f"""\
        import json, sys
        import {module}
        print(json.dumps("valign.milp_solve" in sys.modules))
        """) is False


def test_optimize_resolves_on_read():
    # perfbench's traced re-solve reads these four names off milp_solve,
    # and patches milp_solve.optimize; no other name is served there.
    assert milp_solve.optimize is optimize
    assert milp_solve.parse_mps is parse_mps
    assert milp_solve.binarize_sos is binarize_sos
    assert milp_solve.solve_parsed is solve_parsed
    for name in ("sparse", "solve_arrays", "ColumnarModel", "ENTRY"):
        with pytest.raises(AttributeError):
            getattr(milp_solve, name)


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
        from valign import highs, solve_core
        from valign.mps import parse_mps
        from test_milp_solve import TOY_MPS

        def adapter():
            core = highs.highs_core()
            status, objective, _ = solve_core.solve_parsed(
                parse_mps(TOY_MPS), 30.0, 1e-9)
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
                          core is imported is highs.highs_core()
                          is sys.modules["scipy.optimize._highspy._core"]]))
        """
    tests = os.path.dirname(os.path.abspath(__file__))
    assert python(f"import sys; sys.path.insert(0, {tests!r})\n"
                  + textwrap.dedent(code),
                  "adapter" if adapter_first else "scipy") == [
        ["optimal", -3.0], [0, -1.5], True]


# The adapter's two ways into HiGHS: a plain LP (_Read.plain_lp) that
# HiGHS's own reader loads with kOk is solved from the file, anything else
# from the arrays passModel takes.
class RouteHighs(REAL_HIGHS):
    """The binding's HiGHS object, noting each readModel and passModel."""

    calls = []

    def readModel(self, path):
        RouteHighs.calls.append("readModel")
        return super().readModel(path)

    def passModel(self, *args):
        RouteHighs.calls.append("passModel")
        return super().passModel(*args)


@pytest.fixture
def routes(monkeypatch):
    """The calls RouteHighs notes from then on."""
    monkeypatch.setattr(highs.highs_core(), "_Highs", RouteHighs)
    monkeypatch.setattr(RouteHighs, "calls", [])
    return RouteHighs.calls


PLAIN_LP = small(["L r1", "G r2"],
                 ["x COST 1.0", "x r1 1.0", "x r2 1.0",
                  "y COST 2.0", "y r1 1.0", "y r2 2.0"],
                 "RHS\n    RHS r1 4.0\n    RHS r2 1.0\n"
                 "BOUNDS\n UP BND x 3.0\n")


def plain_lp_with(old, new):
    assert old in PLAIN_LP
    return PLAIN_LP.replace(old, new)


def crowded_row(count):
    """PLAIN_LP with count entries in row r1: z_3 ... z_count join x, y."""
    return plain_lp_with("RHS\n", "".join(
        f"    z_{j} COST 0.5\n    z_{j} r1 1.0\n"
        for j in range(3, count + 1)) + "RHS\n")


# Each case's text and how many times readModel and passModel are called.
# The last two HiGHS reads with a warning or an error.
ROUTE_CASES = {
    "plain": (PLAIN_LP, 1, 0),
    "20 entries in a row": (crowded_row(20), 1, 0),
    "entry-less column that cannot rest at 0": (plain_lp_with(
        "RHS\n", "    z COST 1.0\nRHS\n").replace(
            " UP BND x 3.0\n", " UP BND x 3.0\n LO BND z 1.0\n"), 1, 0),
    "free row": (plain_lp_with(" G r2\n", " G r2\n N FREE\n").replace(
        "    x r2 1.0\n", "    x r2 1.0\n    x FREE 5.0\n"), 0, 1),
    "RHS on the objective row": (plain_lp_with(
        "    RHS r2 1.0\n", "    RHS r2 1.0\n    RHS COST 5.0\n"), 0, 1),
    "repeated entry": (plain_lp_with(
        "    x r2 1.0\n", "    x r2 1.0\n    x r2 2.0\n"), 0, 1),
    "repeated objective entry": (plain_lp_with(
        "    x r1 1.0\n", "    x r1 1.0\n    x COST 2.0\n"), 0, 1),
    "rows out of order": (plain_lp_with(
        "    x r1 1.0\n    x r2 1.0\n", "    x r2 1.0\n    x r1 1.0\n"),
        0, 1),
    "infinite cost": (plain_lp_with("x COST 1.0", "x COST inf"), 0, 0),
    "non-contiguous column": (plain_lp_with(
        "    y r2 2.0\n", "    y r2 2.0\n    x COST 0.0\n"), 0, 1),
    # closes by branch and bound, on a second load
    "integer marker": (small(["L r1"], ["x COST -1.0", "x r1 1.0"],
                             "RHS\n    RHS r1 2.5\n", integer=("x",)),
                       0, 2),
    "BV bound": (plain_lp_with(" UP BND x 3.0\n", " BV BND x\n"), 0, 1),
    "SOS section": (plain_lp_with(" UP BND x 3.0\n",
                                  " UP BND x 3.0\n UP BND y 5.0\nSOS\n"
                                  " S1 SET s\n    x 1.0\n    y 2.0\n"), 0, 1),
    "21 entries in a row": (crowded_row(21), 0, 1),
    "restable column with no entry": (plain_lp_with(
        "RHS\n", "    z COST 1.0\nRHS\n"), 0, 1),
    "repeated RHS": (plain_lp_with(
        "    RHS r2 1.0\n", "    RHS r2 1.0\n    RHS r2 3.0\n"), 0, 1),
    "RANGES before RHS": (plain_lp_with(
        "RHS\n", "RANGES\n    RNG r1 2.0\nRHS\n"), 0, 1),
    "RHS set named as a row": (plain_lp_with("    RHS r1", "    r2 r1"),
                               0, 1),
    "bound set named as a column": (plain_lp_with(" UP BND x", " UP x x"),
                                    0, 1),
    "number with an underscore": (plain_lp_with("y r2 2.0", "y r2 2_0"),
                                  0, 1),
    "negative upper bound over 0": (plain_lp_with("UP BND x 3.0",
                                                  "UP BND x -3.0"), 1, 1),
    "no ENDATA": (plain_lp_with("ENDATA\n", ""), 1, 1),
}


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_only_a_plain_lp_goes_to_the_highs_reader(routes, tmp_path, capsys,
                                                  case):
    # Whichever way main goes into HiGHS, it answers as solve_parsed does
    # on the parsed file.
    text, reads, passes = ROUTE_CASES[case]
    mps, sol = tmp_path / "m.mps", tmp_path / "m.sol"
    mps.write_text(text, encoding="ascii")
    code = milp_solve.main([str(mps), str(sol)])
    assert routes.count("readModel") == reads
    assert routes.count("passModel") == passes
    model = parse_mps(text)
    columns = model.columns
    if model.sos_sets:
        binarize_sos(model)
    try:
        status, objective, x = solve_parsed(model, None, None)
    except MpsError as exc:
        assert code == 3
        assert sol.read_text() == f"status error\nmessage {exc}\n"
        return
    assert code == 0
    assert capsys.readouterr().out.startswith(f"valign-milp: {status}")
    got = parse_solution_text(sol.read_text(), columns)
    assert (got.status, got.objective) == (status, objective)
    if x is not None:
        assert got.x.tolist() == x[:len(columns)].tolist()


def block_free_road(case):
    """A pinned road, or a block-free suite road such as "B-02 2 pits"."""
    if case in ("A-01", "G-01"):
        return pinned_road(case)
    name, *pits = case.split()
    template, variant = name.split("-")
    return generate_instance(5, ROAD_TEMPLATES[template], int(variant),
                             pits=int(pits[0]) if pits else 0)


@pytest.mark.parametrize("road, config_name, fixed", [
    ("A-01", "MQN-B", False), ("A-01", "QNA-B", False),
    ("A-01", "MQN-S1", False), ("G-01", "MQN-B", False),
    ("B-02 2 pits", "MQN-B", False), ("B-02 2 pits", "QNA-B", False),
    ("C-03", "MQN-S1", False), ("A-01", "MQN-B", True),
    ("C-03", "QNA-B", True)])
def test_plain_route_writes_the_array_routes_file(routes, tmp_path, road,
                                                  config_name, fixed):
    # HiGHS reads only a file named .mps itself: the same model under
    # another name goes the array route. fixed pins every offset at the
    # model's optimum, as the oracle checks do.
    model = build(block_free_road(road), named_config(config_name))
    if fixed:
        x = solve_parsed(model, 60.0, 0.01)[2]
        model = fix_offsets(model, x[model.runs.offsets])
        routes.clear()
    written = []
    for name in ("m.mps", "m.txt"):
        mps, sol = tmp_path / name, tmp_path / f"{name}.sol"
        emit_mps(model, str(mps))
        assert milp_solve.main([str(mps), str(sol), "--time-limit", "60",
                                "--gap", "0.01"]) == 0
        written.append([line for line in sol.read_bytes().splitlines()
                        if not line.startswith(b"wall_time ")])
    assert routes == ["readModel", "passModel"]
    assert written[0] == written[1]
    assert written[0][0] == b"status optimal"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_plain_lp_is_never_sifted(data):
    # plain_lp's row and column clauses are a sufficient condition for
    # working_set to take every column.
    m = data.draw(st.integers(1, 3))
    columns, bounds = [], []
    for j in range(data.draw(st.integers(1, 30))):
        cost = data.draw(st.sampled_from([None, -1.0, 0.0, 2.5, 7.0]))
        columns += [f"c{j} COST {cost}"] if cost is not None else []
        columns += [f"c{j} r{i} 1.5"
                    for i in sorted(data.draw(st.sets(st.integers(0, m - 1))))]
        bound = data.draw(st.sampled_from(
            ["", "UP BND c 3.0", "LO BND c 1.0", "FR BND c", "MI BND c",
             "UP BND c 0.0", "FX BND c 0.0"]))
        bounds += [f" {bound}{j}\n"] if bound else []
    text = small([f"L r{i}" for i in range(m)], columns,
                 "BOUNDS\n" + "".join(bounds) if bounds else "")
    read = _read_mps(text)
    if read.plain_lp():
        arrays = solve_core.model_arrays(read.model())
        assert solve_core.working_set(arrays).all()


def highs_lp(highs):
    """The LP a HiGHS object holds, integrality aside, as lists."""
    lp = highs.getLp()
    matrix = lp.a_matrix_
    return [lp.num_col_, lp.num_row_, lp.offset_, *map(list, (
        lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_,
        lp.row_upper_, matrix.start_, matrix.index_, matrix.value_))]


@pytest.mark.parametrize("case", [
    *[case for case, (_, reads, passes) in ROUTE_CASES.items()
      if (reads, passes) == (1, 0)],
    "A-01 MQN-B", "G-01 MQN-B", "B-02 2 pits QNA-B"])
def test_highs_reads_a_plain_lp_as_pass_model_loads_it(tmp_path, case):
    if case in ROUTE_CASES:
        text = ROUTE_CASES[case][0]
    else:
        road, config_name = case.rsplit(" ", 1)
        text = emit_mps_text(build(block_free_road(road),
                                   named_config(config_name)))
    assert _read_mps(text).plain_lp()
    mps = tmp_path / "m.mps"
    mps.write_text(text, encoding="ascii")
    core = highs.highs_core()
    options = [("log_to_console", False)]
    read = highs._highs(core, options)
    assert read.readModel(str(mps)) == core.HighsStatus.kOk
    passed = solve_core._load(core, options,
                              solve_core.model_arrays(parse_mps(text)))
    assert highs_lp(read) == highs_lp(passed)
