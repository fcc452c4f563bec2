"""Property-based cross-checks of the MILP against CTG and the oracles.

Random block-free single-segment roads of at most six sections are built
and solved in process, each model handed straight to the bundled adapter's
solve_parsed. On roads with at most one pit, CTG and MH-QNF must reach the
same optimum, both solutions must validate, their offsets must re-price by
the transport oracle to the objective, and the CTG solution must re-price
to its objective. Pinning the MH-QNF optimum's offsets with fix_offsets
must leave a MILP whose optimum is the transport oracle's price. On roads
buffered by a large borrow and waste pit, the MH-QNF optimum must be no
worse than the best of a few spline-consistent offset vectors, its own
among them, as enumerate_optimal prices them. On random roads with one or
two blocks, under MQN-B and MQN-S1, `valign solve` with the bundled adapter
must validate and re-price its answer, and the answer must lie between
scipy.optimize.milp's dual bound and its objective plus the gap. Under
MQN-B the in-process answer must lie within the gap of the smallest LP
over all removal schedules.
"""

import itertools
import os
import tempfile

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, sparse

from valign import solve_core
from valign.bench import generate_suite
from valign.builder import ArcIndex, build, fix_offsets, named_config
from valign.cli import main
from valign.gateway import Solution, decode
from valign.instance import Pit
from valign.instance_io import parse_instance, write_instance
from valign.mps import emit_mps_text, parse_mps
from valign.oracle import allocation_cost, enumerate_optimal
from valign.validate import recompute_cost, validate

from conftest import BUNDLED_SOLVER, make_instance
from test_highs_binding import milp_result

GAP = 1e-6


def examples(count):
    return settings(max_examples=count, derandomize=True, deadline=None,
                    database=None)


@st.composite
def block_free_roads(draw):
    n = draw(st.integers(min_value=4, max_value=6))
    spacing = draw(st.floats(min_value=20.0, max_value=500.0))
    level = st.floats(min_value=97.0, max_value=103.0)
    elevations = draw(st.lists(level, min_size=n, max_size=n))
    areas = draw(st.lists(st.floats(min_value=5.0, max_value=50.0),
                          min_size=n, max_size=n))
    materials = draw(st.lists(st.integers(min_value=1, max_value=4),
                              min_size=n, max_size=n))
    pits = []
    if draw(st.booleans()):
        pits.append(Pit(kind=draw(st.sampled_from(("borrow", "waste"))),
                        attached_section=draw(st.integers(2, n - 1)),
                        capacity=draw(st.floats(50.0, 500.0)),
                        dead_haul=draw(st.floats(5.0, 100.0))))
    # The flat road at 100 m lies inside the +-4 m offset window, and no
    # quadratic follows the terrain, so some earthwork is forced. The
    # optimum seldom uses the pit; test_validate prices CTG pit arcs.
    return make_instance(
        elevations, spacing=spacing, areas=areas, materials=materials,
        offset=4.0,
        borrow=[p for p in pits if p.kind == "borrow"],
        waste=[p for p in pits if p.kind == "waste"])


@st.composite
def buffered_roads_with_grids(draw):
    """A road with a borrow and a waste pit of ample capacity, so every
    offset vector is feasible, and per-section grids holding the offsets
    of two or three quadratic profiles near the flat road at 100 m."""
    n = draw(st.integers(min_value=4, max_value=6))
    spacing = draw(st.floats(min_value=20.0, max_value=500.0))
    level = st.floats(min_value=97.0, max_value=103.0)
    dead_haul = st.floats(min_value=5.0, max_value=100.0)
    instance = make_instance(
        draw(st.lists(level, min_size=n, max_size=n)), spacing=spacing,
        areas=draw(st.lists(st.floats(min_value=5.0, max_value=50.0),
                            min_size=n, max_size=n)),
        offset=4.0,
        borrow=[Pit("borrow", draw(st.integers(2, n - 1)), 1e6,
                    draw(dead_haul))],
        waste=[Pit("waste", draw(st.integers(2, n - 1)), 1e6,
                   draw(dead_haul))])
    profiles = draw(st.lists(st.tuples(
        st.floats(min_value=99.5, max_value=100.5),
        st.floats(min_value=-1e-4, max_value=1e-4),
        st.floats(min_value=-1e-8, max_value=1e-8)), min_size=2, max_size=3))
    grids = []
    for i in range(1, n + 1):
        sigma = instance.local_coordinate(i)
        ground = instance.section(i).ground_elevation
        grids.append([ground - (a1 + a2 * sigma + a3 * sigma * sigma)
                      for a1, a2, a3 in profiles])
    return instance, grids


def solve_in_process(model):
    status, objective, x = solve_core.solve_parsed(model, 60.0, GAP)
    assert status == "optimal", status
    return objective, x


def decoded(instance, config_name):
    config = named_config(config_name)
    model = build(instance, config)
    objective, x = solve_in_process(model)
    solution = Solution("optimal", objective, x, 0.0)
    return config, model, decode(solution, instance, model)


@examples(25)
@given(block_free_roads())
def test_ctg_matches_mhqnf_and_reprices(instance):
    ctg_config, _, ctg = decoded(instance, "CTG-B")
    mqn_config, _, mqn = decoded(instance, "MQN-B")
    scale = max(1.0, abs(ctg.objective))
    assert abs(mqn.objective - ctg.objective) <= 2.0 * GAP * scale

    for config, result in ((ctg_config, ctg), (mqn_config, mqn)):
        # x itself, not only the objective: another optimal vertex must
        # still be an optimal allocation at its own offsets.
        oracle_cost = allocation_cost(instance, result.offsets)
        assert abs(oracle_cost - result.objective) <= GAP * scale
        report = validate(instance, config, result, tolerance=1e-6,
                          relative=True)
        assert report.passed, report.summary()
    recomputed = recompute_cost(instance, ctg_config, ctg)
    assert abs(recomputed - ctg.objective) <= 1e-5 * scale


@examples(12)
@given(block_free_roads())
def test_fixed_offsets_price_as_the_oracle(instance):
    _, model, mqn = decoded(instance, "MQN-B")
    objective, _ = solve_in_process(fix_offsets(model, mqn.offsets))
    want = allocation_cost(instance, mqn.offsets)
    assert abs(objective - want) <= GAP * max(1.0, abs(want))


@examples(12)
@given(buffered_roads_with_grids())
def test_mhqnf_no_worse_than_enumeration(case):
    instance, grids = case
    _, _, mqn = decoded(instance, "MQN-B")
    # The optimum's own offsets join the grids, so a MILP that over-prices
    # its optimum fails as well as one that misses a cheaper profile.
    for i, (grid, u) in enumerate(zip(grids, mqn.offsets), start=1):
        section = instance.section(i)
        grid.append(min(max(u, section.offset_lo), section.offset_hi))
    _, enumerated = enumerate_optimal(instance, grids)
    assert mqn.objective <= enumerated + GAP * max(1.0, abs(enumerated))


@st.composite
def blocked_roads(draw):
    """A road of five to eight sections with one or two blocks on interior
    sections and one or two access roads elsewhere."""
    n = draw(st.integers(min_value=5, max_value=8))
    blocks = draw(st.lists(st.integers(2, n - 1), min_size=1, max_size=2,
                           unique=True))
    free = [i for i in range(1, n + 1) if i not in blocks]
    access = draw(st.lists(st.sampled_from(free), min_size=1, max_size=2,
                           unique=True))
    return make_instance(
        draw(st.lists(st.floats(min_value=97.0, max_value=103.0),
                      min_size=n, max_size=n)),
        spacing=draw(st.floats(min_value=20.0, max_value=200.0)),
        areas=draw(st.lists(st.floats(min_value=5.0, max_value=50.0),
                            min_size=n, max_size=n)),
        offset=4.0, blocks=sorted(blocks), access=sorted(access))


@examples(8)
@given(blocked_roads())
def test_blocked_roads_within_the_gap_of_scipy_milp(instance):
    # Rounded relaxation or branch and bound, the adapter's answer passes
    # the CLI's validation and re-pricing and lies inside scipy's bracket.
    gap = 0.01
    with tempfile.TemporaryDirectory() as tmp:
        road = write_instance(instance, os.path.join(tmp, "road.json"))
        for config_name, flags in (("MQN-B", []),
                                   ("MQN-S1", ["--blocks", "sos1"])):
            mps = parse_mps(emit_mps_text(
                build(instance, named_config(config_name))))
            solve_core.binarize_sos(mps)
            reference = milp_result(mps, 60.0, gap)[1]
            assert reference.status == 0, reference.message
            out = os.path.join(tmp, f"{config_name}.txt")
            assert main(["solve", road, "--solver", BUNDLED_SOLVER,
                         "--time-limit", "60", "--gap", str(gap), *flags,
                         "-o", out]) == 0
            with open(out, encoding="ascii") as fh:
                lines = dict(line.split(None, 1) for line in fh)
            objective = float(lines["objective"])
            assert lines["validation"].strip() == "pass"
            scale = max(1.0, abs(reference.fun))
            assert reference.mip_dual_bound - 1e-9 * scale <= objective
            assert objective <= reference.fun + gap * scale


def schedule_lps(model, blocks):
    """The LP of each removal schedule of an MQN-B model: Y_k_t fixed at 1
    for t >= tau_k and 0 before, for every tau_k in 0..blocks + 1, through
    ArcIndex.removal's names; the objectives of the feasible ones."""
    ids = np.array([[model.columns.index(ArcIndex.removal(k, t))
                     for t in range(blocks + 1)]
                    for k in range(1, blocks + 1)])
    entries = model.entries
    matrix = sparse.csr_matrix(
        (entries["value"], (entries["row"], entries["col"])),
        shape=(len(model.row_order), len(model.columns)))
    rows = optimize.LinearConstraint(matrix, *solve_core.row_bounds(model))
    objectives = []
    for taus in itertools.product(range(blocks + 2), repeat=blocks):
        lower, upper = model.col_lower.copy(), model.col_upper.copy()
        for chain, tau in zip(ids, taus):
            lower[chain] = upper[chain] = np.arange(blocks + 1) >= tau
        result = optimize.milp(model.cost, constraints=[rows],
                               bounds=optimize.Bounds(lower, upper),
                               options={"presolve": True})
        if result.status == 0:
            objectives.append(result.fun)
    return objectives


def assert_within_the_gap_of_the_best_schedule(instance, gap=0.01):
    """Under MQN-B the removal indicators are the only integers, so the
    MILP's optimum is the smallest LP over all schedules: an oracle apart
    from HiGHS's branch and bound. Returns the adapter's closing note."""
    model = build(instance, named_config("MQN-B"))
    best = min(schedule_lps(model, len(instance.blocks)))
    status, objective, _, note = solve_core.solve_arrays(
        solve_core.model_arrays(model), 60.0, gap, ())
    assert status == "optimal"
    scale = max(1.0, abs(objective))
    assert best - 1e-6 * scale <= objective <= best + gap * scale
    return note


@examples(6)
@given(blocked_roads())
def test_mqnb_within_the_gap_of_the_best_schedule(instance):
    # These small roads close from the rounded relaxation or by branch
    # and bound.
    assert_within_the_gap_of_the_best_schedule(instance)


def test_suite_road_closed_by_schedule_is_the_best_schedule(tmp_path):
    # C-01 of the generated suite, two blocks, closes from a schedule.
    generate_suite(1, "ABC", str(tmp_path), variants=2)
    instance = parse_instance(str(tmp_path / "C-01.json"))
    assert "(schedule " in assert_within_the_gap_of_the_best_schedule(
        instance)
