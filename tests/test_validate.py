"""Validator behaviour: clean passes, targeted faults, cost recomputation."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from valign.builder import ArcIndex, build, fix_offsets, named_config
from valign.gateway import Solution, SolverLimits, decode, solve
from valign.instance import Pit
from valign.validate import FAMILIES, recompute_cost, validate

from conftest import (
    BORROW_FILL_COST,
    BORROW_FILL_OFFSETS,
    BUNDLED_SOLVER,
    TWO_NODE_COST,
    TWO_NODE_OFFSETS,
    bumped,
    make_instance,
    pinned_road,
)

LIMITS = SolverLimits(time_limit=120.0, mip_gap=1e-9, feasibility_tol=1e-6)


def solved(instance, config_name="MQN-B", offsets=None):
    config = named_config(config_name)
    model = build(instance, config)
    if offsets is not None:
        model = fix_offsets(model, offsets)
    solution = solve(model, BUNDLED_SOLVER, LIMITS)
    assert solution.status == "optimal", solution.status
    return config, model, decode(solution, instance, model)


def failing(report):
    return [name for name in FAMILIES
            if report.families[name].worst > report.tolerance]


# -- clean solutions pass every family ------------------------------------

def test_two_node_solution_validates(two_node_instance):
    config, _, result = solved(two_node_instance, offsets=TWO_NODE_OFFSETS)
    report = validate(two_node_instance, config, result)
    assert report.passed, report.summary()
    assert failing(report) == []


def test_borrow_fill_solution_validates(borrow_fill_instance):
    config, _, result = solved(borrow_fill_instance,
                               offsets=BORROW_FILL_OFFSETS)
    report = validate(borrow_fill_instance, config, result)
    assert report.passed, report.summary()


def test_block_solution_validates(hump_block_instance):
    config, _, result = solved(hump_block_instance)
    report = validate(hump_block_instance, config, result)
    assert report.passed, report.summary()
    # single block must be gone by the final step
    assert result.removal[(1, 1)] >= 0.5


def test_ctg_solution_validates(two_node_instance):
    config, _, result = solved(two_node_instance, "CTG-B",
                               offsets=TWO_NODE_OFFSETS)
    report = validate(two_node_instance, config, result)
    assert report.passed, report.summary()
    assert result.objective == pytest.approx(TWO_NODE_COST, rel=1e-6)


# -- each injected fault trips exactly its family --------------------------

def test_conservation_fault(two_node_instance):
    config, model, result = solved(two_node_instance,
                                   offsets=TWO_NODE_OFFSETS)
    tampered = bumped(result, model, ["FR_1_0_1_2"])
    report = validate(two_node_instance, config, tampered)
    assert failing(report) == ["flow_conservation"]
    assert report.families["flow_conservation"].worst == pytest.approx(1.0)


@pytest.mark.parametrize("fixture, offsets, arc, borrow_delta", [
    ("two_node_instance", TWO_NODE_OFFSETS, "FR_1_0_2_1", 0.0),
    ("two_node_instance", TWO_NODE_OFFSETS, "FR_1_0_3_2", 0.0),
    ("borrow_fill_instance", BORROW_FILL_OFFSETS, "FB_1_0_1_3", 1.0),
    ("borrow_fill_instance", BORROW_FILL_OFFSETS, "FB_1_0_1_1", 1.0),
])
def test_mirrored_chain_conservation_fault(request, fixture, offsets, arc,
                                           borrow_delta):
    # Leftward transit and both borrow arcs; a borrow bump also raises the
    # pit's drawn volume so only the chain's conservation row breaks.
    instance = request.getfixturevalue(fixture)
    config, model, result = solved(instance, offsets=offsets)
    tampered = bumped(
        result, model, [arc],
        borrow_used=tuple(b + borrow_delta for b in result.borrow_used))
    report = validate(instance, config, tampered)
    assert failing(report) == ["flow_conservation"]
    assert report.families["flow_conservation"].worst == pytest.approx(1.0)


def test_block_gating_fault():
    # flat road, borrow and waste pits on opposite sides of a block
    inst = make_instance([100.0] * 5, areas=[10.0] * 5, offset=4.0,
                         blocks=[3], access=[1, 5],
                         borrow=(Pit("borrow", 2, 50.0, 20.0),),
                         waste=(Pit("waste", 4, 50.0, 20.0),))
    config, model, result = solved(inst)
    assert validate(inst, config, result).passed
    # route one unit borrow -> waste straight across the unremoved block
    tampered = bumped(
        result, model,
        ["FB_1_0_1_3", "FR_1_0_2_3", "FR_1_0_3_4", "FW_1_0_1_3"],
        borrow_used=(result.borrow_used[0] + 1.0,),
        waste_used=(result.waste_used[0] + 1.0,))
    report = validate(inst, config, tampered)
    assert failing(report) == ["block_gating"]
    assert report.families["block_gating"].worst == pytest.approx(1.0)


def test_removal_fault(hump_block_instance):
    config, model, result = solved(hump_block_instance)
    removal = dict(result.removal)
    removal[(1, 1)] = 0.0
    tampered = bumped(result, model, ["Y_1_1"], -result.removal[(1, 1)],
                      removal=removal)
    report = validate(hump_block_instance, config, tampered)
    assert failing(report) == ["removal_logic"]


def test_slope_fault_detected(two_node_instance):
    config, _, result = solved(two_node_instance, offsets=TWO_NODE_OFFSETS)
    steep = tuple((a1, 0.5, a3) for a1, a2, a3 in result.coefficients)
    report = validate(two_node_instance, config,
                      replace(result, coefficients=steep))
    assert "slope" in failing(report)


def test_relative_mode_scales_magnitudes(two_node_instance):
    config, model, result = solved(two_node_instance,
                                   offsets=TWO_NODE_OFFSETS)
    tampered = bumped(result, model, ["FR_1_0_1_2"])
    report = validate(two_node_instance, config, tampered, relative=True)
    worst = report.families["flow_conservation"].worst
    assert 0.0 < worst < 1.0
    assert failing(report) == ["flow_conservation"]


def test_summary_lists_every_family(two_node_instance):
    config, model, result = solved(two_node_instance,
                                   offsets=TWO_NODE_OFFSETS)
    lines = validate(two_node_instance, config, result).summary().splitlines()
    assert len(lines) == len(FAMILIES) + 1
    for name, line in zip(FAMILIES, lines):
        assert line.startswith(f"{name}: worst=")
        assert line.endswith("pass")
    assert lines[-1] == "overall: pass at tolerance 1e-06"

    tampered = bumped(result, model, ["FR_1_0_1_2"])
    text = validate(two_node_instance, config, tampered).summary()
    assert "flow_conservation" in text and "FAIL" in text
    assert text.splitlines()[-1].startswith("overall: FAIL")


# -- objective recomputation ------------------------------------------------

def test_recompute_zero_plan():
    inst = make_instance([100.0] * 3, areas=[10.0] * 3, offset=2.0)
    config, _, result = solved(inst)
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    assert recompute_cost(inst, config, result) == pytest.approx(0.0, abs=1e-9)


def test_recompute_matches_hand_costs(two_node_instance, borrow_fill_instance):
    config, _, result = solved(two_node_instance, offsets=TWO_NODE_OFFSETS)
    assert recompute_cost(two_node_instance, config, result) == \
        pytest.approx(TWO_NODE_COST, rel=1e-9)
    config, _, result = solved(borrow_fill_instance,
                               offsets=BORROW_FILL_OFFSETS)
    assert recompute_cost(borrow_fill_instance, config, result) == \
        pytest.approx(BORROW_FILL_COST, rel=1e-9)


def test_recompute_ctg(two_node_instance):
    config, _, result = solved(two_node_instance, "CTG-B",
                               offsets=TWO_NODE_OFFSETS)
    assert recompute_cost(two_node_instance, config, result) == \
        pytest.approx(TWO_NODE_COST, rel=1e-9)


def test_recompute_tracks_solver_objective(hump_block_instance):
    config, _, result = solved(hump_block_instance)
    recomputed = recompute_cost(hump_block_instance, config, result)
    scale = max(1.0, abs(result.objective))
    assert abs(recomputed - result.objective) <= 1e-5 * scale


def test_recompute_is_linear_in_the_plan(two_node_instance):
    config, _, result = solved(two_node_instance, offsets=TWO_NODE_OFFSETS)
    doubled = replace(
        result, x=2.0 * result.x,
        section_cut=tuple(2.0 * c for c in result.section_cut),
        section_fill=tuple(2.0 * f for f in result.section_fill),
        borrow_used=tuple(2.0 * b for b in result.borrow_used),
        waste_used=tuple(2.0 * w for w in result.waste_used))
    assert recompute_cost(two_node_instance, config, doubled) == \
        pytest.approx(2.0 * TWO_NODE_COST, rel=1e-9)


@pytest.mark.parametrize("kind, offsets", [
    ("borrow", BORROW_FILL_OFFSETS),   # 10 m3 from the pit to section 3
    ("waste", (1.0, 0.0, 0.0)),        # 10 m3 from section 1 to the pit
])
def test_recompute_ctg_pit_arcs(kind, offsets):
    # A CTG pit arc is one haul over the 20 m along the road plus the pit's
    # 50 m dead haul: 10 * (4 + 0.008 * 70 + 2).
    pit = Pit(kind, attached_section=2, capacity=50.0, dead_haul=50.0)
    inst = make_instance([100.0] * 3, areas=[10.0] * 3, offset=2.0,
                         **{kind: [pit]})
    config, _, result = solved(inst, "CTG-B", offsets=offsets)
    assert result.objective == pytest.approx(BORROW_FILL_COST, rel=1e-6)
    assert recompute_cost(inst, config, result) == \
        pytest.approx(BORROW_FILL_COST, rel=1e-9)


# Validation and re-pricing of seeded synthetic values, no solver involved:
# every column gets a draw (negative, zero or positive; removal indicators
# in [0, 1.2]) and the objective is cost . x, so decode accepts it. The
# digest covers (worst.hex(), count) of every family in absolute and
# relative mode plus recompute_cost(...).hex().
@pytest.mark.parametrize("case, config_name, digest", [
    ("A-01", "MQN-B",
     "5e423bc5c07ecaaebae701647dbadfd230aa8421b9ac644272448199daa745b3"),
    ("D-01 2 blocks", "MQN-B",
     "8b95374799c9792aa991dd5a0cfaf33345bb6c48543786c3af937eca8960737c"),
    ("G-01 3 blocks", "MQN-B",
     "597de20d198f00557a243727bf290f64bcfa1fa76ee39bd2e86ed223ea8a6e2d"),
    ("C-02 3 blocks 2 pits", "QNA-B",
     "9b344b6a319ad6126cfe4f18925c122f1a442465a01c38d3cc198ab227db577f"),
    ("shared-pits", "MQN-S1",
     "9bdb6fb2aa35f41fc73ac5574d420e0851750c918c8bb20a9ad1f611d9bf35c5"),
])
def test_synthetic_values_validation_pinned(case, config_name, digest):
    instance = pinned_road(case)
    config = named_config(config_name)
    model = build(instance, config)
    rng = np.random.default_rng(20261018)
    x = rng.uniform(0.0, 50.0, len(model.columns))
    x[rng.random(len(x)) < 0.15] *= -1.0
    x[rng.random(len(x)) < 0.35] = 0.0
    binaries = int(np.count_nonzero(model.col_integer))
    x[model.col_integer] = rng.uniform(0.0, 1.2, binaries)
    solution = Solution("optimal", float(model.cost @ x), x, 0.0)
    result = decode(solution, instance, model)
    lines = []
    for relative in (False, True):
        report = validate(instance, config, result, relative=relative)
        lines += [f"{name} {fam.worst.hex()} {fam.count}"
                  for name, fam in report.families.items()]
    lines.append(recompute_cost(instance, config, result).hex())
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


class LookedUpColumns(tuple):
    """A model's columns that record each name looked up by index."""

    def index(self, name, *args):
        self.looked.append(name)
        return super().index(name, *args)


@pytest.mark.parametrize("case, config_name", [
    ("A-01", "CTG-B"), ("D-01 2 blocks", "MQN-B"),
], ids=["A-01-CTG-B", "D-01 2 blocks-MQN-B"])
def test_names_stop_at_decode(monkeypatch, case, config_name):
    # Once build has returned, no column is found by name and no name is
    # spelled: decode reads x by the ids of model.runs, and validate and
    # recompute_cost read the result decode gives. A copy with doubled x
    # re-prices from its own x.
    instance = pinned_road(case)
    config = named_config(config_name)
    model = build(instance, config)
    columns = LookedUpColumns(model.columns)
    columns.looked = []
    model = replace(model, columns=columns)
    x = np.random.default_rng(5).uniform(0.0, 50.0, len(model.columns))
    solution = Solution("optimal", float(model.cost @ x), x, 0.0)

    def refuse(self, *args):
        raise AssertionError("a name list was built after build")

    monkeypatch.setattr(ArcIndex, "flow_names", refuse)
    monkeypatch.setattr(ArcIndex, "ctg_names", refuse)
    spelled = []
    for head in ("coeff", "offset", "cut", "fill", "removal"):
        spell = getattr(ArcIndex, head)
        monkeypatch.setattr(ArcIndex, head, staticmethod(
            lambda *args, spell=spell: spelled.append(spell(*args))
            or spelled[-1]))

    def check(result):
        for relative in (False, True):
            validate(instance, config, result, relative=relative)
        return recompute_cost(instance, config, result)

    result = decode(solution, instance, model)
    cost = check(result)
    assert check(replace(result, x=2.0 * result.x)) != cost
    assert spelled == [] and columns.looked == []


def nan_grade(result, model):
    (a1, _, a3), *rest = result.coefficients
    return replace(result, coefficients=((a1, math.nan, a3), *rest))


@pytest.mark.parametrize("fixture, offsets, tamper, families", [
    ("two_node_instance", TWO_NODE_OFFSETS,
     lambda r, model: bumped(r, model, ["FR_1_0_1_2"], math.nan),
     ["flow_conservation"]),
    ("two_node_instance", TWO_NODE_OFFSETS,
     lambda r, model: replace(r, offsets=(math.nan,) + r.offsets[1:]),
     ["volume", "bounds"]),
    ("two_node_instance", TWO_NODE_OFFSETS, nan_grade, ["slope"]),
    ("borrow_fill_instance", BORROW_FILL_OFFSETS,
     lambda r, model: replace(r, borrow_used=(math.nan,)),
     ["bounds", "capacity"]),
], ids=["flow", "offset", "grade", "borrow_used"])
def test_nan_residual_is_a_violation(request, fixture, offsets, tamper,
                                     families):
    # Each family the NaN reaches reads inf, not just the verdict.
    instance = request.getfixturevalue(fixture)
    config, model, result = solved(instance, offsets=offsets)
    for relative in (False, True):
        report = validate(instance, config, tamper(result, model),
                          relative=relative)
        assert not report.passed
        for family in families:
            assert report.families[family].worst == math.inf, family
            assert report.families[family].count >= 1, family
