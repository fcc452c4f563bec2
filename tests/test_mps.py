"""MPS emission: golden file, determinism, sections, comment stripping."""

import hashlib
import math
import os
import tracemalloc

import pytest

from valign.bench import ROAD_TEMPLATES, generate_instance
from valign.builder import (
    BuilderConfig,
    MilpModel,
    _Assembler,
    build,
    named_config,
)
from valign.instance import Pit
from valign.mps import emit_mps, emit_mps_text, strip_comments
from valign.solve_core import solve_parsed

from conftest import make_instance, piecewise_instance, pinned_road

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "three_section_qns.mps")


def small_model() -> MilpModel:
    asm = _Assembler("toy")
    x, y, z = asm.columns(["x", "y", "z"], [1.5, -1.0, 0.0],
                          [0.0, 0.0, -math.inf], [4.0, 1.0, math.inf],
                          [False, True, False]).tolist()
    asm.bulk_rows([("c1", "L", 5.0), ("c2", "E", 1.0)],
                  [([0, 0, 1], [x, y, z], [1.0, 2.0, 1.0])])
    asm.add_sos("s1", 1, [(x, 1.0), (z, 2.0)])
    return asm.finish((("model", "TOY"),))


def test_golden_three_section_model():
    inst = make_instance([100.0, 101.0, 100.0], areas=[10.0] * 3, offset=2.0)
    model = build(inst, named_config("QNS-B"))
    with open(GOLDEN, encoding="ascii") as fh:
        assert emit_mps_text(model) == fh.read()


def pits_instance(**extra):
    """Six sections, one borrow pit at 3 and one waste pit at 4."""
    return make_instance([100.0, 101.0, 102.0, 101.0, 100.0, 99.0],
                         areas=[10.0] * 6, offset=2.0,
                         borrow=[Pit("borrow", 3, 30.0, 15.0)],
                         waste=[Pit("waste", 4, 30.0, 25.0)], **extra)


# Blocks at 2 and 5 with access only at 1: pair and right-region gating,
# with both pits inside the gated regions.
@pytest.mark.parametrize("blocked, config_name, golden", [
    (True, "MQN-B", "blocks_pits_mqn_b.mps"),
    (True, "MQN-S1", "blocks_pits_mqn_s1.mps"),
    (False, "CTG-B", "pits_ctg_b.mps"),
])
def test_golden_model(blocked, config_name, golden):
    inst = pits_instance(blocks=[2, 5], access=[1]) if blocked \
        else pits_instance()
    model = build(inst, named_config(config_name))
    with open(os.path.join(DATA, golden), encoding="ascii") as fh:
        assert emit_mps_text(model) == fh.read()


def test_emission_is_deterministic():
    inst = make_instance([100.0, 102.0, 100.0], areas=[25.0] * 3)
    a = emit_mps_text(build(inst, named_config("MQN-B")))
    b = emit_mps_text(build(inst, named_config("MQN-B")))
    assert a == b


def test_sections_present_and_ordered():
    text = emit_mps_text(small_model())
    lines = text.splitlines()
    order = [lines.index(k) for k in
             ("NAME toy", "ROWS", "COLUMNS", "RHS", "BOUNDS", "SOS",
              "ENDATA")]
    assert order == sorted(order)
    assert " N COST" in lines
    assert any(line.startswith(" S1 SET s1") for line in lines)


def test_binary_and_free_bounds():
    text = emit_mps_text(small_model())
    assert " BV BND y" in text
    assert " FR BND z" in text
    assert " UP BND x 4.0" in text


def test_objective_entries_written():
    text = emit_mps_text(small_model())
    assert "    x COST 1.5" in text
    assert "    y COST -1.0" in text


def test_strip_comments_removes_only_comment_lines():
    text = emit_mps_text(small_model())
    stripped = strip_comments(text)
    assert "* model: TOY" in text
    assert "*" not in stripped
    assert stripped.count("\n") < text.count("\n")
    assert "ENDATA" in stripped


def test_emit_to_file(tmp_path):
    path = tmp_path / "toy.mps"
    emit_mps(small_model(), str(path))
    assert path.read_text(encoding="ascii") == emit_mps_text(small_model())


def test_nonfinite_coefficients_rejected():
    asm = _Assembler("bad")
    x, = asm.columns(["x"], 1.0, upper=1.0).tolist()
    asm.bulk_rows([("c", "L", 1.0)], [(0, x, math.inf)])
    with pytest.raises(Exception):
        emit_mps_text(asm.finish(()))


# sha256 of emit_mps_text at scale: the 450-section G road (CTG-B has
# 203,523 columns, about 615k lines), a D road with blocks and both pit
# kinds under SOS1 block logic, and one piecewise-sos2 and one
# piecewise-binary model.
@pytest.mark.parametrize("case, config, digest", [
    ("G", named_config("CTG-B"),
     "1fb1bfcdb0f3c9180fb387a158db07b4593a9f7caa87fe39e884c0011fb0e2d9"),
    ("G", named_config("MQN-B"),
     "f339591f9c2b6ac1d221762e3b8943deb20ac685e20c64a37fcd7ee3de760a59"),
    ("D", named_config("MQN-S1"),
     "c1a34aba55ddd39fae09b934ce50d0be7accb5972cc9f6e1cf5936cc8c80f9fe"),
    ("piecewise", BuilderConfig(volume_mode="piecewise-sos2", name="PW-SOS2"),
     "9ae4272fa8f64a5273656c167d0386080c0584286a36c2f65baf998cf9b848c0"),
    ("piecewise", BuilderConfig(volume_mode="piecewise-binary", name="PW-BIN"),
     "bdaadd72851c2a3c62c890d579597d381698a9383751e35c46fe5e0c56fc58ad"),
])
def test_emitted_text_pinned_at_scale(case, config, digest):
    if case == "G":
        inst = generate_instance(1, ROAD_TEMPLATES["G"], 1)
    elif case == "D":
        inst = generate_instance(1, ROAD_TEMPLATES["D"], 2, blocks=2, pits=2)
    else:
        inst = piecewise_instance()
    text = emit_mps_text(build(inst, config))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


# sha256 of emit_mps_text for the flow-grid layouts: the G road with three
# blocks (33,876 columns), a C road with blocks and pits under a single haul
# class, and a road whose pits all share one section under SOS1 block logic.
@pytest.mark.parametrize("case, config_name, digest", [
    ("G-01 3 blocks", "MQN-B",
     "7ab85259626af79b4ba622c36af120c1ddc594b45ce863c4e56d7655ce2ca766"),
    ("C-02 3 blocks 2 pits", "QNA-B",
     "d053226969f6535bd38a233818b52654c591763d69945aa1a56bb697c153d018"),
    ("shared-pits", "MQN-S1",
     "f02442269f07378c34716a1bcfcdf3268eb941d345ceef41bdfb317f0c80b267"),
])
def test_flow_grid_models_pinned(case, config_name, digest):
    text = emit_mps_text(build(pinned_road(case), named_config(config_name)))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


def test_build_and_emit_stay_within_their_memory_bound(tmp_path):
    # The assembler keeps each declaration's values as arrays, and the
    # emitter renders with int32 ids, letting go of each array once used.
    # On C-01 CTG-B (10,227 columns) the traced peak of build plus emit_mps
    # was 7.7 MB with Python lists of floats and is 3.2 MB now.
    instance = generate_instance(1, ROAD_TEMPLATES["C"], 1)
    build(make_instance([100.0] * 3), named_config("CTG-B"))  # warm up
    tracemalloc.start()
    try:
        model = build(instance, named_config("CTG-B"))
        emit_mps(model, str(tmp_path / "model.mps"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.columns) == 10227
    assert peak < 4.5 * 2**20


def test_a_row_named_as_the_objective_row_is_not_written(tmp_path):
    # A reader takes a row named COST for the objective row: this model is
    # optimal at 2.0, and its file would read as infeasible.
    asm = _Assembler("clash")
    x, = asm.columns(["x"], [1.0], [0.0], [10.0], [False]).tolist()
    asm.bulk_rows([("COST", "G", 2.0)], [([0], [x], [1.0])])
    model = asm.finish(())
    assert solve_parsed(model, 60.0, None)[:2] == ("optimal", 2.0)
    message = "row 'COST' has the objective row's name in MPS output"
    with pytest.raises(ValueError) as err:
        emit_mps_text(model)
    assert str(err.value) == message
    path = tmp_path / "m.mps"
    with pytest.raises(ValueError) as err:
        emit_mps(model, str(path))
    assert str(err.value) == message
    assert not path.exists()
