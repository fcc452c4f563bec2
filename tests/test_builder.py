"""Model construction: counts, naming, config handling, lint, fix_offsets."""

import ast
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

import valign
from valign.builder import (
    BuildError,
    BuilderConfig,
    LinearConstraint,
    MilpModel,
    QNF_COST_PAIRS,
    SosSet,
    Variable,
    _Assembler,
    build,
    effective_hauls,
    fix_offsets,
    named_config,
)
from valign.instance import HaulClass, Pit
from valign.mps import emit_mps_text

from conftest import make_instance


def single_haul_config() -> BuilderConfig:
    return named_config("QNS-B")


def test_variable_count_three_sections_one_haul():
    inst = make_instance([100.0] * 3)
    model = build(inst, single_haul_config())
    flows = [v for v in model.variables if v.name[:2] in ("FR", "FU", "FL")]
    assert len(flows) == 6 * 3  # 6 per section: {FR,FU,FL} x 2 directions
    assert len(model.variables) == 30  # + VP,VM (6), U (3), A (3)
    assert model.binary_count == 0


def test_block_adds_time_steps_and_binaries():
    inst = make_instance([100.0] * 5, blocks=[3], access=[1])
    model = build(inst, single_haul_config())
    assert model.binary_count == 2  # n_b * |T| = 1 * 2
    names = {v.name for v in model.variables}
    assert "Y_1_0" in names and "Y_1_1" in names
    # flows double with the second time step
    flows = [v for v in model.variables if v.name.startswith("FR_")]
    assert len(flows) == 2 * 2 * 5


def test_qnf_equals_mhqnf_with_one_haul():
    inst = make_instance([100.0, 101.0, 100.0], areas=[30.0] * 3)
    for label, (loading, per_m) in QNF_COST_PAIRS.items():
        haul = HaulClass(label, loading_cost=loading, unit_haul_cost=per_m)
        qnf = build(inst, BuilderConfig(model="QNF", haul_subset=(haul,),
                                        name=f"QNF-{label}"))
        mh = build(inst, BuilderConfig(model="MHQNF", haul_subset=(haul,),
                                       name=f"MH-{label}"))
        assert [v.name for v in qnf.variables] == \
            [v.name for v in mh.variables]
        assert qnf.constraints == mh.constraints
        assert qnf.objective == mh.objective


def test_mhqnf_uses_all_hauls_by_default():
    inst = make_instance([100.0] * 3)
    config = named_config("MQN-B")
    assert len(effective_hauls(inst, config)) == 3
    model = build(inst, config)
    assert any(v.name.startswith("FR_3_") for v in model.variables)


def test_boundary_transit_flows_are_pinned():
    inst = make_instance([100.0] * 3)
    model = build(inst, single_haul_config())
    vmap = {v.name: v for v in model.variables}
    assert vmap["FR_1_0_3_4"].upper == 0.0  # off the right end
    assert vmap["FR_1_0_1_0"].upper == 0.0  # off the left end
    assert vmap["FR_1_0_1_2"].upper == math.inf


def test_ctg_arc_counts():
    inst = make_instance([100.0] * 3)
    model = build(inst, named_config("CTG-B"))
    arcs = [v for v in model.variables if v.name.startswith("X_")]
    assert len(arcs) == 6  # ordered section pairs

    with_pits = make_instance(
        [100.0] * 3, borrow=[Pit("borrow", 2, 10.0, 5.0)],
        waste=[Pit("waste", 2, 10.0, 5.0)])
    model = build(with_pits, named_config("CTG-B"))
    arcs = [v for v in model.variables if v.name.startswith("X_")]
    # 3 sections + borrow + waste = 5 nodes; borrow only ships out, waste
    # only receives, pit-to-pit arcs dropped: 6 + 3 + 3 + 1 = 13
    assert len(arcs) == 13


def test_ctg_refuses_blocks():
    inst = make_instance([100.0] * 5, blocks=[3], access=[1])
    with pytest.raises(BuildError):
        build(inst, named_config("CTG-B"))


def test_piecewise_needs_curves():
    inst = make_instance([100.0] * 3)
    with pytest.raises(BuildError):
        build(inst, BuilderConfig(volume_mode="piecewise-sos2", name="x"))


def test_sos1_block_technique_emits_sets():
    inst = make_instance([100.0] * 5, blocks=[3], access=[1])
    model = build(inst, named_config("MQN-S1"))
    assert model.sos_sets
    assert all(sos_type == 1 for sos_type, _, _ in model.sos_sets)
    # slack members are bounded so the sets stay binarizable
    for _, _, members in model.sos_sets:
        slack = members[0][0]
        assert model.columns[slack].startswith("BS_")
        assert math.isfinite(model.col_upper[slack])


def test_model_lint_passes_on_all_variants():
    inst = make_instance([100.0, 102.0, 100.0, 101.0], areas=[25.0] * 4,
                         segments=[2, 2],
                         borrow=[Pit("borrow", 2, 10.0, 5.0)],
                         waste=[Pit("waste", 3, 10.0, 5.0)])
    for name in ("MQN-B", "QNS-B", "QNA-B", "CTG-B"):
        model = build(inst, named_config(name))
        model.lint()  # raises on any inconsistency


SHORT = HaulClass("short", loading_cost=0.0, unit_haul_cost=0.008)


@pytest.mark.parametrize("model, hauls", [
    ("QNF", (2,)), ("QNF", ("x",)), ("MHQNF", ()), ("MHQNF", (SHORT, 2)),
    ("MHQNF", [SHORT]), ("CTG", ())])
def test_haul_subset_must_hold_haul_classes(model, hauls):
    inst = make_instance([100.0] * 5, blocks=[3], access=[1])
    config = BuilderConfig(model=model, haul_subset=hauls)
    with pytest.raises(BuildError, match="haul_subset must be None or a "
                       "non-empty tuple of HaulClass"):
        build(inst, config)


def test_named_config_rejects_unknown():
    with pytest.raises(BuildError):
        named_config("MQN-X")
    with pytest.raises(BuildError):
        named_config("FOO-B")


def test_zero_big_m_coefficient_is_written_positive_zero():
    # A block section whose offset window is 0..0 has a big-M of 0, so its
    # RIC/RIF rows carry a -0.0 coefficient unless it is normalised.
    inst = make_instance([100.0, 100.0, 101.0, 100.0, 100.0],
                         areas=[10.0] * 5, offset=4.0, blocks=[3],
                         access=[1, 5])
    sections = list(inst.sections)
    sections[2] = replace(sections[2], offset_lo=0.0, offset_hi=0.0)
    model = build(replace(inst, sections=tuple(sections)),
                  named_config("MQN-B"))
    values = model.entries["value"]
    zeros = values[values == 0.0]
    assert zeros.size and not np.signbit(zeros).any()


def test_fix_offsets_adds_rows_and_checks_bounds():
    inst = make_instance([100.0] * 3, offset=2.0)
    model = build(inst, single_haul_config())
    fixed = fix_offsets(model, (1.0, 0.0, -1.0))
    extra = [c for c in fixed.constraints if c.name.startswith("FIX_")]
    assert len(extra) == 3
    assert all(c.sense == "E" for c in extra)
    with pytest.raises(BuildError, match=r"offset 3.0 outside bounds "
                       r"\[-2.0, 2.0\] of section 1"):
        fix_offsets(model, (3.0, 0.0, 0.0))
    with pytest.raises(BuildError, match="need 3 offsets, got 2"):
        fix_offsets(model, (0.0, 0.0))


def test_fix_offsets_pins_the_offset_columns_of_every_model():
    # The offsets are found as the run of U_<i> columns, wherever the
    # model declares it: after the A_ columns in MH-QNF and in CTG alike.
    inst = make_instance([100.0] * 3, offset=2.0)
    for config_name in ("MQN-B", "CTG-B"):
        model = build(inst, named_config(config_name))
        fixed = fix_offsets(model, (1.0, 0.0, -1.0))
        added = fixed.entries[len(model.entries):]
        assert [fixed.columns[c] for c in added["col"].tolist()] == \
            ["U_1", "U_2", "U_3"]
        assert fixed.row_rhs[len(model.row_order):].tolist() == \
            [1.0, 0.0, -1.0]


def test_provenance_names_model_and_config():
    inst = make_instance([100.0] * 3)
    model = build(inst, named_config("MQN-B"))
    prov = dict(model.provenance)
    assert prov["model"] == "MHQNF"
    assert prov["config_name"] == "MQN-B"


def test_conservation_row_counts():
    inst = make_instance([100.0] * 4)
    model = build(inst, named_config("MQN-B"))
    fcr = [c for c in model.constraints if c.name.startswith("FCR_")]
    fcl = [c for c in model.constraints if c.name.startswith("FCL_")]
    # one row per (haul, time, section) and direction
    assert len(fcr) == 3 * 1 * 4
    assert len(fcl) == 3 * 1 * 4


def test_object_form_round_trip():
    # The object-form views rebuild the same columnar model.
    inst = make_instance([100.0, 101.0, 102.0, 101.0, 100.0], areas=[10.0] * 5,
                         offset=2.0, blocks=[2], access=[1],
                         borrow=[Pit("borrow", 3, 30.0, 15.0)])
    model = build(inst, named_config("MQN-S1"))
    sos_sets = [SosSet(name, sos_type, tuple((model.columns[col], weight)
                                             for col, weight in members))
                for sos_type, name, members in model.sos_sets]
    copy = MilpModel.from_objects(model.name, model.variables,
                                  model.constraints, sos_sets,
                                  model.objective, model.provenance)
    assert emit_mps_text(copy) == emit_mps_text(model)


X, Y = Variable("x", upper=4.0), Variable("y", "binary", 0.0, 1.0)


@pytest.mark.parametrize("message, variables, rows, objective, sos", [
    ("variable x declared twice", (X, X), (), (), ()),
    ("variable x: lower > upper", (Variable("x", lower=5.0, upper=4.0),),
     (), (), ()),
    ("variable y: binary outside", (Variable("y", "binary", 0.0, 2.0),),
     (), (), ()),
    ("row c declared twice", (X,),
     (LinearConstraint("c", (("x", 1.0),), "L", 1.0),) * 2, (), ()),
    ("row c: unknown variable z", (X,),
     (LinearConstraint("c", (("z", 1.0),), "L", 1.0),), (), ()),
    ("row c: duplicate variable x", (X,),
     (LinearConstraint("c", (("x", 1.0), ("x", 2.0)), "L", 1.0),), (), ()),
    ("row c: unknown sense '<='", (X,),
     (LinearConstraint("c", (("x", 1.0),), "<=", 1.0),), (), ()),
    ("row c: non-finite coefficient", (X,),
     (LinearConstraint("c", (("x", math.nan),), "L", 1.0),), (), ()),
    ("objective: unknown variable z", (X,), (), (("z", 1.0),), ()),
    ("objective: non-finite cost on x", (X,), (), (("x", math.inf),), ()),
    ("SOS set s: needs >= 2 members", (X, Y), (), (),
     (SosSet("s", 1, (("x", 1.0),)),)),
    ("SOS set s: duplicate weights", (X, Y), (), (),
     (SosSet("s", 1, (("x", 1.0), ("y", 1.0))),)),
    ("SOS set s: unknown variable z", (X, Y), (), (),
     (SosSet("s", 1, (("x", 1.0), ("z", 2.0))),)),
])
def test_lint_rejects_defects(message, variables, rows, objective, sos):
    with pytest.raises(BuildError, match=message):
        emit_mps_text(MilpModel.from_objects("bad", variables, rows, sos,
                                             objective))


def test_name_declared_by_two_columns_calls_is_rejected():
    # columns looks no name up; a clash between two calls is caught when
    # the model is finished.
    asm = _Assembler("clash")
    asm.columns(["x"], upper=1.0)
    asm.columns(["x"])
    with pytest.raises(BuildError, match="variable x declared twice"):
        asm.finish(())


# Prefixes of the model's variable names (see the builder module docstring).
VARIABLE_PREFIXES = ("A_", "U_", "VP_", "VM_", "Y_", "X_", "FR_", "FU_",
                     "FL_", "FB_", "FW_")


def test_variable_names_are_spelled_only_in_arc_index():
    # An f-string that starts with a variable prefix spells a name; only
    # ArcIndex may do that, so builder, decode, validate and recompute
    # cannot drift apart on the naming contract.
    package = pathlib.Path(valign.__file__).parent
    inside, stray = 0, []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        arc_index = {id(node) for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef)
                     and cls.name == "ArcIndex" for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr) and node.values \
                    and isinstance(node.values[0], ast.Constant) \
                    and node.values[0].value.startswith(VARIABLE_PREFIXES):
                if id(node) in arc_index:
                    inside += 1
                else:
                    stray.append(f"{path.name}:{node.lineno}")
    assert stray == []
    assert inside > 0  # the scan does see the names ArcIndex spells
