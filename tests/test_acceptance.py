"""Acceptance gate: the eleven shipping criteria, one test each.

Each test prints a single "criterion N: PASS/FAIL" line so the suite output
doubles as the checklist. Solver-backed criteria share one benchmark matrix
(12 instances x 6 configs at 1% gap) built once per session.
"""

import functools
import random
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from valign.bench import (
    ROAD_TEMPLATES,
    BenchmarkRecord,
    generate_instance,
    is_success,
    performance_profile,
    relative_error,
    run_matrix,
)
from valign.builder import (
    QNF_COST_PAIRS,
    BuilderConfig,
    build,
    fix_offsets,
    named_config,
)
from valign.gateway import SolverLimits, decode, solve
from valign.instance import HaulClass, Pit, cheapest_haul, default_cost_model
from valign.instance_io import RunConfig
from valign.mps import emit_mps_text, strip_comments
from valign.oracle import allocation_cost, enumerate_optimal
from valign.validate import FAMILIES, recompute_cost, validate

from conftest import BUNDLED_SOLVER, bumped, make_instance

GAP = 0.01
MATRIX_CONFIGS = ("MQN-B", "QNS-B", "QNM-B", "QNL-B", "QNA-B", "CTG-B")
EXACT = SolverLimits(time_limit=600.0, mip_gap=1e-9, feasibility_tol=1e-6)


def criterion(num):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL", flush=True)
                raise
            print(f"criterion {num}: PASS", flush=True)
            return out
        return inner
    return wrap


def dominance_suite():
    """12 instances on the two desk-scale road shapes, 8 block-free + 4."""
    suite = []
    for road in ("A", "B"):
        for variant in (1, 2, 3, 4):
            suite.append((f"{road}-{variant:02d}",
                          generate_instance(1, ROAD_TEMPLATES[road], variant)))
    for road in ("A", "B"):
        for variant in (5, 6):
            suite.append((f"{road}-{variant:02d}",
                          generate_instance(1, ROAD_TEMPLATES[road], variant,
                                            blocks=1)))
    return suite


@pytest.fixture(scope="session")
def matrix(tmp_path_factory):
    suite = dominance_suite()
    out_dir = tmp_path_factory.mktemp("bench-report")
    run = RunConfig(solver_command=BUNDLED_SOLVER,
                    limits=SolverLimits(time_limit=600.0, mip_gap=GAP,
                                        feasibility_tol=1e-6),
                    configs=MATRIX_CONFIGS)
    start = time.monotonic()
    records = run_matrix(suite, MATRIX_CONFIGS, run, out_dir=str(out_dir),
                         workers=6)
    elapsed = time.monotonic() - start
    return {"suite": suite, "records": records, "out_dir": out_dir,
            "elapsed": elapsed, "run": run}


def cells_by_key(records):
    return {(r.instance, r.config): r for r in records}


@criterion(1)
def test_criterion_01_haul_breakpoints():
    cm = default_cost_model()
    start = time.monotonic()
    for d in range(0, 5001):
        idx = cheapest_haul(cm, float(d))[0]
        if d < 150:
            assert idx == 0, f"d={d}"
        elif 150 < d < 1000:
            assert idx == 1, f"d={d}"
        elif d > 1000:
            assert idx == 2, f"d={d}"
    assert time.monotonic() - start < 1.0


@criterion(2)
def test_criterion_02_crossover_arithmetic():
    short, middle, long_ = default_cost_model().hauls
    assert short.unit_haul_cost * 150.0 == \
        middle.loading_cost + middle.unit_haul_cost * 150.0
    assert middle.loading_cost + middle.unit_haul_cost * 1000.0 == \
        long_.loading_cost + long_.unit_haul_cost * 1000.0


@criterion(3)
def test_criterion_03_qnf_is_mhqnf_special_case():
    inst = block_suite_instance(2)
    for label, (loading, per_m) in sorted(QNF_COST_PAIRS.items()):
        haul = HaulClass(label, loading_cost=loading, unit_haul_cost=per_m)
        qnf = build(inst, BuilderConfig(model="QNF", haul_subset=(haul,),
                                        name=f"single-{label}"))
        mh = build(inst, BuilderConfig(model="MHQNF", haul_subset=(haul,),
                                       name=f"single-{label}"))
        assert strip_comments(emit_mps_text(qnf)) == \
            strip_comments(emit_mps_text(mh)), label


@criterion(4)
def test_criterion_04_single_haul_dominance(matrix):
    cells = cells_by_key(matrix["records"])
    names = [name for name, _ in matrix["suite"]]
    assert matrix["elapsed"] < 600.0
    for cfg in ("QNS-B", "QNM-B", "QNL-B", "QNA-B"):
        strict = 0
        for name in names:
            mqn = cells[(name, "MQN-B")]
            single = cells[(name, cfg)]
            assert mqn.status == "optimal", (name, mqn.status)
            assert single.status == "optimal", (name, cfg, single.status)
            slack = 2.0 * GAP * abs(single.objective)
            assert mqn.objective <= single.objective + slack, (name, cfg)
            if single.objective > mqn.objective:
                strict += 1
        assert strict >= len(names) // 2, (cfg, strict)


@criterion(5)
def test_criterion_05_block_free_ctg_equivalence(matrix):
    cells = cells_by_key(matrix["records"])
    block_free = [name for name, inst in matrix["suite"] if not inst.blocks]
    assert len(block_free) == 8
    assert matrix["elapsed"] < 600.0
    for name in block_free:
        mqn = cells[(name, "MQN-B")]
        ctg = cells[(name, "CTG-B")]
        assert mqn.status == "optimal" and ctg.status == "optimal", name
        assert abs(mqn.objective - ctg.objective) <= \
            2.0 * GAP * abs(ctg.objective), name


def small_instances():
    """20 pit-buffered instances (n <= 4) with 3 spline-consistent grids."""
    rng = random.Random("acceptance-small")
    out = []
    for idx in range(20):
        n = 3 + (idx % 2)
        spacing = 20.0
        elevations = [100.0 + rng.uniform(-2.0, 2.0) for _ in range(n)]
        areas = [rng.uniform(8.0, 15.0) for _ in range(n)]
        inst = make_instance(
            elevations, spacing=spacing, areas=areas, offset=10.0,
            borrow=(Pit("borrow", 2, 1e6, rng.uniform(5.0, 60.0)),),
            waste=(Pit("waste", n - 1, 1e6, rng.uniform(5.0, 60.0)),))
        grids = []
        for _ in range(3):
            a1 = 100.0 + rng.uniform(-2.0, 2.0)
            a2 = rng.uniform(-0.02, 0.02)
            a3 = rng.uniform(-0.0004, 0.0004)
            grids.append(tuple(
                elevations[i] - (a1 + a2 * (spacing * i)
                                 + a3 * (spacing * i) ** 2)
                for i in range(n)))
        out.append((inst, grids))
    return out


@criterion(6)
def test_criterion_06_oracle_equality_at_fixed_offsets():
    start = time.monotonic()
    for inst, grids in small_instances():
        for offsets in grids:
            model = fix_offsets(build(inst, named_config("MQN-B")), offsets)
            solution = solve(model, BUNDLED_SOLVER, EXACT)
            assert solution.status == "optimal"
            want = allocation_cost(inst, offsets)
            assert abs(solution.objective - want) <= \
                1e-6 * max(1.0, abs(want)), offsets
    assert time.monotonic() - start < 120.0


@criterion(7)
def test_criterion_07_oracle_upper_bound():
    for inst, grids in small_instances():
        solution = solve(build(inst, named_config("MQN-B")),
                         BUNDLED_SOLVER, EXACT)
        assert solution.status == "optimal"
        per_section = [[g[i] for g in grids] for i in range(inst.n)]
        _, enum_cost = enumerate_optimal(inst, per_section)
        assert solution.objective <= \
            enum_cost + 1e-6 * max(1.0, abs(enum_cost))


def block_suite_instance(n_blocks):
    n = 12
    blocks = {1: [5], 2: [4, 8], 3: [4, 7, 10]}[n_blocks]
    elevations = [101.5 if (i + 1) in blocks else 100.0 for i in range(n)]
    return make_instance(
        elevations, areas=[30.0] * n, offset=5.0, segments=[6, 6],
        blocks=blocks, access=[1, 12],
        borrow=(Pit("borrow", 2, 1e6, 40.0),),
        waste=(Pit("waste", 11, 1e6, 40.0),))


def solve_mqn(inst):
    config = named_config("MQN-B")
    model = build(inst, config)
    solution = solve(model, BUNDLED_SOLVER,
                     SolverLimits(600.0, 1e-6, 1e-6))
    assert solution.status == "optimal"
    return config, model, decode(solution, inst, model)


def failing_families(report):
    return [name for name in FAMILIES
            if report.families[name].worst > report.tolerance]


@criterion(8)
def test_criterion_08_block_logic():
    kept = None
    for n_blocks in (1, 2, 3):
        inst = block_suite_instance(n_blocks)
        config, model, result = solve_mqn(inst)
        report = validate(inst, config, result)
        assert report.passed, report.summary()
        steps = range(n_blocks + 1)
        for k in range(1, n_blocks + 1):
            ys = [result.removal.get((k, t), 0.0) for t in steps]
            assert all(b >= a - 1e-9 for a, b in zip(ys, ys[1:])), \
                (n_blocks, k)                               # monotone
            assert ys[-1] >= 0.5, (n_blocks, k)             # all removed
        for u in range(1, n_blocks + 1):
            total = sum(result.removal.get((k, u), 0.0)
                        for k in range(1, n_blocks + 1))
            assert total >= u - 1e-9, (n_blocks, u)
        # no through-flow over a block before its removal
        x, at = result.x, model.columns.index
        for k, blk in enumerate(inst.sorted_blocks, start=1):
            s = blk.section
            for h in (1, 2, 3):
                for t in steps:
                    if t >= 1 and result.removal.get((k, t - 1), 0.0) >= 0.5:
                        continue
                    for enter, keep in (
                            (f"FR_{h}_{t}_{s - 1}_{s}", f"FL_{h}_{t}_{s - 1}_{s}"),
                            (f"FR_{h}_{t}_{s}_{s + 1}", f"FU_{h}_{t}_{s}_{s + 1}"),
                            (f"FR_{h}_{t}_{s + 1}_{s}", f"FL_{h}_{t}_{s + 1}_{s}"),
                            (f"FR_{h}_{t}_{s}_{s - 1}", f"FU_{h}_{t}_{s}_{s - 1}")):
                        assert abs(x[at(enter)] - x[at(keep)]) <= 1e-6
        if n_blocks == 1:
            kept = (inst, config, model, result)

    # three fault injections, each tripping exactly its own family
    inst, config, model, result = kept

    conservation = bumped(result, model, ["FR_1_0_1_2"])
    assert failing_families(validate(inst, config, conservation)) == \
        ["flow_conservation"]

    route = ["FB_1_0_1_3"] + \
        [f"FR_1_0_{i}_{i + 1}" for i in range(2, 11)] + ["FW_1_0_1_10"]
    gating = bumped(result, model, route,
                    borrow_used=(result.borrow_used[0] + 1.0,),
                    waste_used=(result.waste_used[0] + 1.0,))
    assert failing_families(validate(inst, config, gating)) == \
        ["block_gating"]

    removal = dict(result.removal)
    removal[(1, 1)] = 0.0
    skipped = bumped(result, model, ["Y_1_1"], -result.removal[(1, 1)],
                     removal=removal)
    assert failing_families(validate(inst, config, skipped)) == \
        ["removal_logic"]


@criterion(9)
def test_criterion_09_methodology_functions():
    curves = performance_profile([
        BenchmarkRecord("i1", "c1", "optimal", 1.0, 1.0, 0.0, True),
        BenchmarkRecord("i1", "c2", "optimal", 1.0, 4.0, 0.0, True),
        BenchmarkRecord("i2", "c1", "optimal", 1.0, 2.0, 0.0, True),
        BenchmarkRecord("i2", "c2", "optimal", 1.0, 2.0, 0.0, True)])
    by_name = {c.config: c for c in curves}
    assert by_name["c1"].points == ((1.0, 1.0), (4.0, 1.0))
    assert by_name["c2"].points == ((1.0, 0.5), (4.0, 1.0))

    assert not is_success("optimal", relative_error(127.15, 100.0), True)
    assert is_success("optimal", relative_error(101.0, 100.0), True)


@criterion(10)
def test_criterion_10_bench_matrix_substitute(matrix):
    records = matrix["records"]
    out_dir = matrix["out_dir"]
    suite_names = {name for name, _ in matrix["suite"]}
    # every cell of the matrix is present and carries a terminal status
    assert len(records) == len(suite_names) * len(MATRIX_CONFIGS)
    assert {r.status for r in records} <= \
        {"optimal", "feasible", "infeasible", "timeout", "error"}

    times = (out_dir / "times.csv").read_text().splitlines()
    assert times[0] == "instance,config,status,seconds"
    assert len(times) == len(records) + 1
    accuracy = (out_dir / "accuracy.csv").read_text().splitlines()
    assert accuracy[0] == "config,opt_found,min_err,mean_err,max_err"
    assert len(accuracy) == len(MATRIX_CONFIGS) + 1
    assert (out_dir / "profile.csv").exists()

    curves = {c.config: c for c in performance_profile(records)}
    mqn, qna = curves["MQN-B"], curves["QNA-B"]
    alphas = [a for a, _ in mqn.points]
    for alpha in alphas:
        assert mqn.rho(alpha) >= qna.rho(alpha) - 1e-12, alpha
    assert mqn.success_rate >= qna.success_rate


@criterion(11)
def test_criterion_11_validator_soundness(matrix):
    accepted = [r for r in matrix["records"] if r.success]
    assert accepted, "matrix produced no successful cells"
    limits = matrix["run"].limits

    def recheck(record):
        instance = dict(matrix["suite"])[record.instance]
        config = named_config(record.config)
        model = build(instance, config)
        solution = solve(model, BUNDLED_SOLVER, limits)
        assert solution.status in ("optimal", "feasible"), record
        result = decode(solution, instance, model)
        report = validate(instance, config, result, tolerance=1e-6)
        assert report.passed, (record, report.summary())
        recomputed = recompute_cost(instance, config, result)
        scale = max(1.0, abs(result.objective))
        assert abs(recomputed - result.objective) <= 1e-5 * scale, record

    with ThreadPoolExecutor(max_workers=6) as pool:
        list(pool.map(recheck, accepted))
