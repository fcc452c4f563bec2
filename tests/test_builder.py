"""Model construction: counts, naming, config handling, lint, fix_offsets."""

import ast
import math
import pathlib
import sys
import tomllib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import valign
from valign import milp_solve
from valign.bench import ROAD_TEMPLATES, RoadTemplate, generate_instance
from valign.builder import (
    KNOWN_CONFIG_NAMES,
    ArcIndex,
    BuildError,
    BuilderConfig,
    QNF_COST_PAIRS,
    _Assembler,
    _repeated,
    build,
    effective_hauls,
    fix_offsets,
    named_config,
)
from valign.instance import HaulClass, Pit
from valign.mps import emit_mps, emit_mps_text

from conftest import make_instance, piecewise_instance, pinned_road


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
        assert qnf.cost.tolist() == mh.cost.tolist()


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


def test_last_segment_of_one_section_has_zero_length():
    inst = make_instance([100.0] * 4, segments=[3, 1])
    with pytest.raises(BuildError, match=r"^segment 2 has zero length "
                       r"\(stations 60\.0\.\.60\.0\)$"):
        build(inst, named_config("MQN-B"))


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
    # The object-form views, declared again by column id, rebuild the same
    # columnar model.
    inst = make_instance([100.0, 101.0, 102.0, 101.0, 100.0], areas=[10.0] * 5,
                         offset=2.0, blocks=[2], access=[1],
                         borrow=[Pit("borrow", 3, 30.0, 15.0)])
    model = build(inst, named_config("MQN-S1"))
    column = {v.name: c for c, v in enumerate(model.variables)}
    asm = _Assembler(model.name)
    asm.columns([v.name for v in model.variables], model.cost,
                [v.lower for v in model.variables],
                [v.upper for v in model.variables],
                [v.kind == "binary" for v in model.variables])
    rows = model.constraints
    entries = [(r, column[name], value) for r, row in enumerate(rows)
               for name, value in row.coeffs]
    asm.bulk_rows([(row.name, row.sense, row.rhs)
                   + (() if row.rhs_range is None else (row.rhs_range,))
                   for row in rows], [tuple(zip(*entries))])
    for sos_type, name, members in model.sos_sets:
        asm.add_sos(name, sos_type, members)
    copy = asm.finish(model.provenance)
    assert emit_mps_text(copy) == emit_mps_text(model)


def two_columns(asm, x_bounds=(0.0, 4.0), y_upper=1.0, x_cost=0.0):
    """Declare x (continuous) and y (binary) on asm, as ids 0 and 1."""
    asm.columns(["x"], x_cost, *x_bounds)
    asm.columns(["y"], upper=y_upper, binary=True)


LINT_DEFECTS = [
    ("variable x declared twice",
     lambda asm: asm.columns(["x", "x"])),
    ("variable x: lower > upper",
     lambda asm: two_columns(asm, x_bounds=(5.0, 4.0))),
    ("variable y: binary outside",
     lambda asm: two_columns(asm, y_upper=2.0)),
    ("row c declared twice",
     lambda asm: two_columns(asm) or asm.bulk_rows([("c", "L", 1.0)] * 2,
                                                   [([0, 1], 0, 1.0)])),
    ("row c: unknown variable 2",
     lambda asm: two_columns(asm) or asm.bulk_rows([("c", "L", 1.0)],
                                                   [(0, 2, 1.0)])),
    ("row c: duplicate variable x",
     lambda asm: two_columns(asm) or asm.bulk_rows([("c", "L", 1.0)],
                                                   [(0, 0, [1.0, 2.0])])),
    ("row c: unknown sense '<='",
     lambda asm: two_columns(asm) or asm.bulk_rows([("c", "<=", 1.0)],
                                                   [(0, 0, 1.0)])),
    ("row c: non-finite coefficient",
     lambda asm: two_columns(asm) or asm.bulk_rows([("c", "L", 1.0)],
                                                   [(0, 0, math.nan)])),
    ("objective: non-finite cost on x",
     lambda asm: two_columns(asm, x_cost=math.inf)),
    ("SOS set s: needs >= 2 members",
     lambda asm: two_columns(asm) or asm.add_sos("s", 1, [(0, 1.0)])),
    ("SOS set s: duplicate weights",
     lambda asm: two_columns(asm) or asm.add_sos("s", 1, [(0, 1.0),
                                                         (1, 1.0)])),
    ("SOS set s: unknown variable 2",
     lambda asm: two_columns(asm) or asm.add_sos("s", 1, [(0, 1.0),
                                                         (2, 2.0)])),
]


@pytest.mark.parametrize("message, declare", LINT_DEFECTS,
                         ids=[message for message, _ in LINT_DEFECTS])
def test_lint_rejects_defects(message, declare):
    asm = _Assembler("bad")
    with pytest.raises(BuildError, match=message):
        declare(asm)
        emit_mps_text(asm.finish(()))


def test_name_declared_by_two_columns_calls_is_rejected():
    # columns looks no name up; a clash between two calls is caught when
    # the model is finished.
    asm = _Assembler("clash")
    asm.columns(["x"], upper=1.0)
    asm.columns(["x"])
    with pytest.raises(BuildError, match="variable x declared twice"):
        asm.finish(())


def test_repeated_names_are_found_by_hash_then_by_name():
    # A repeat is the first name seen twice; equal hashes alone (-1 and -2
    # hash alike) are no repeat.
    assert _repeated(["a", "b", "c"]) is None
    assert _repeated(["a", "b", "c", "b", "a"]) == "b"
    assert hash(-1) == hash(-2)
    assert _repeated([-1, -2]) is None


def test_ctg_model_is_built_and_written_without_whole_model_copies(tmp_path):
    # Under tracemalloc, the peaks of building and of writing the CTG model
    # of a 225-section road (51,135 columns), each as a multiple of the
    # finished model's own allocations. Each stays within 1.9 of them: a
    # build that holds two copies of its entries as it lints, or a writer
    # that runs np.unique over every entry, peaks above 2.1.
    road = generate_instance(1, RoadTemplate("R", 4.5, 20.0, 225), 1)
    config = named_config("CTG-B")
    build(road, config)     # the road's cached arrays are not the model's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = build(road, config)
        size, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        emit_mps(model, str(tmp_path / "ctg.mps"))
        emit_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.columns) == 51135
    size -= before
    assert build_peak - before < 1.9 * size
    assert emit_peak - before < 1.9 * size


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


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import in source binds that nothing in
    source reads, annotations included."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(node.lineno, bound) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for bound in [alias.asname or alias.name.partition(".")[0]]
            if bound not in read]


def test_no_module_imports_a_name_it_does_not_use():
    # No linter runs on the package, so an import nothing reads is caught
    # here.
    package = pathlib.Path(valign.__file__).parent
    unused = [f"{path.name}:{line} {name}"
              for path in sorted(package.glob("*.py"))
              for line, name in unused_imports(path.read_text("utf-8"))]
    assert unused == []


def test_unused_imports_finds_each_form_of_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "from typing import Callable, Sequence\n"
              "import numpy.linalg\n"
              "size: Sequence = numpy.linalg.norm\n"
              "print('os', 'osp', 'Callable')\n")
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (4, "Callable")]


def unread_names(sources: dict[str, str], readers: dict[str, str],
                 private: bool) -> list[str]:
    """Each module-level name in sources (a function, class or assignment),
    private (one leading underscore) or public (none), that no module in
    sources or readers reads, by name, as an attribute or through an
    import, as "<module>:<line> <name>"."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for node in (node for tree in [*trees.values(), *map(
            ast.parse, readers.values())] for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                bound = [name.id for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            unread += [f"{module}:{node.lineno} {name}" for name in bound
                       if name.startswith("_") == private
                       and not name.startswith("__") and name not in read]
    return unread


def unread_private_names(sources: dict[str, str]) -> list[str]:
    return unread_names(sources, {}, private=True)


def test_no_module_keeps_a_private_name_nothing_reads():
    # A private helper or constant that no module of the package reads is
    # dead code; a test reading it does not keep it alive.
    package = pathlib.Path(valign.__file__).parent
    assert unread_private_names({
        path.name: path.read_text("utf-8")
        for path in sorted(package.glob("*.py"))}) == []


def test_unread_private_names_finds_each_form_of_definition():
    sources = {
        "a.py": ("_SIZE = 4\n"
                 "_WIDTH: int = 2\n"
                 "_LOW, _HIGH = 0, 1\n"
                 "def _helper():\n    return _LOW\n"
                 "class _Shape:\n    pass\n"
                 "def public():\n    _local = 1\n    return _local\n"
                 "def __getattr__(name):\n    raise AttributeError(name)\n"),
        "b.py": ("import a\n"
                 "from a import _helper\n"
                 "print(a._WIDTH, _helper)\n")}
    assert unread_private_names(sources) == [
        "a.py:1 _SIZE", "a.py:3 _HIGH", "a.py:6 _Shape"]


def test_no_module_keeps_a_public_name_nothing_reads():
    # A public name that nothing in the package or perfbench reads is dead
    # code too, unless it is the package's interface: an export, a console
    # script, or a name perfbench reads off milp_solve.
    package = pathlib.Path(valign.__file__).parent
    root = pathlib.Path(__file__).resolve().parent.parent
    scripts = tomllib.loads((root / "pyproject.toml").read_text("utf-8"))[
        "project"]["scripts"]
    allowed = {*valign.__all__, *milp_solve._FORWARDED,
               *(target.rpartition(":")[2] for target in scripts.values())}
    unread = unread_names(
        {path.name: path.read_text("utf-8")
         for path in sorted(package.glob("*.py"))},
        {path.name: path.read_text("utf-8")
         for path in sorted((root / "perfbench").glob("*.py"))},
        private=False)
    assert [entry for entry in unread
            if entry.rpartition(" ")[2] not in allowed] == []


def test_unread_public_names_counts_a_reader_module():
    sources = {"a.py": ("SIZE = 4\n_WIDTH = 2\n"
                        "def helper():\n    return _WIDTH\n"
                        "def shape():\n    return helper()\n"
                        "class Kept:\n    pass\n")}
    assert unread_names(sources, {}, private=False) == [
        "a.py:1 SIZE", "a.py:5 shape", "a.py:7 Kept"]
    assert unread_names(sources, {"r.py": "from a import Kept\n"
                                          "import a\nprint(a.shape)\n"},
                        private=False) == ["a.py:1 SIZE"]

def declared_runs(instance, config):
    """The names a model declares, run by run, in the shape of the
    model's ColumnRuns, spelled here from the module docstring's naming
    rules; "" where the CTG grid has no arc."""
    n, m = instance.n, instance.segment_layout.segment_count
    borrow, waste = instance.borrow_pits, instance.waste_pits
    supply = list(range(1, n + len(borrow) + 1))
    demand = list(range(1, n + 1)) + [n + len(borrow) + k
                                      for k in range(1, len(waste) + 1)]
    runs = {
        "coefficients": [[f"A_{g}_{k}" for k in (1, 2, 3)]
                         for g in range(1, m + 1)],
        "offsets": [f"U_{i}" for i in range(1, n + 1)],
        "cut": [f"VP_{node}" for node in supply],
        "fill": [f"VM_{node}" for node in demand],
        "removal": [],
    }
    if config.model == "CTG":
        runs["flows"] = [[[f"X_{s}_{d}" if s != d else "" for d in demand]
                          for s in supply]]
        return runs
    blocks = len(instance.blocks)
    runs["removal"] = [[f"Y_{k}_{t}" for t in range(blocks + 1)]
                       for k in range(1, blocks + 1)]
    hauls = range(1, len(effective_hauls(instance, config)) + 1)
    steps = range(blocks + 1)

    def chains(spell, count):
        return [[[[spell(h, t, i, d) for d in (1, -1)]
                  for i in range(1, count + 1)] for t in steps]
                for h in hauls]

    runs["flows"] = [
        chains(lambda h, t, i, d: f"FR_{h}_{t}_{i}_{i + d}", n),
        chains(lambda h, t, i, d: f"FU_{h}_{t}_{i}_{i + d}", n),
        chains(lambda h, t, i, d: f"FL_{h}_{t}_{i - d}_{i}", n),
        chains(lambda h, t, j, d: f"FB_{h}_{t}_{j}_"
               f"{borrow[j - 1].attached_section + d}", len(borrow)),
        chains(lambda h, t, k, d: f"FW_{h}_{t}_{k}_"
               f"{waste[k - 1].attached_section - d}", len(waste))]
    return runs


def layout_cases():
    for case in ("A-01", "G-01", "C-02 2 blocks", "D-01 2 blocks",
                 "D-02 2 blocks", "G-01 3 blocks", "C-02 3 blocks 2 pits",
                 "shared-pits"):
        instance = pinned_road(case)
        for name in KNOWN_CONFIG_NAMES:
            if not (name.startswith("CTG") and instance.blocks):
                yield case, instance, named_config(name)
    for mode in ("piecewise-sos2", "piecewise-binary"):
        yield mode, piecewise_instance(), BuilderConfig(volume_mode=mode)


@pytest.mark.parametrize("case, instance, config", [
    pytest.param(*args, id=f"{args[0]} {args[2].name or args[2].model}")
    for args in layout_cases()])
def test_column_runs_index_the_declared_names(case, instance, config):
    # The column layout is the contract decode, validate and recompute_cost
    # share: the ids the builder records in model.runs index model.columns
    # to the names it declared, and reach every A, U, VP, VM, Y and flow or
    # X column of the model.
    model = build(instance, config)
    columns = np.array(model.columns + ("",), object)  # -1 reads ""
    runs = model.runs
    reached = []
    for field, expected in declared_runs(instance, config).items():
        ids = getattr(runs, field)
        if field != "flows":
            ids, expected = (ids,), (expected,)
        for grid, names in zip(ids, expected, strict=True):
            names = np.array(names, object).reshape(grid.shape)
            assert (columns[grid] == names).all(), (case, field)
            reached += grid[grid >= 0].tolist()
    prefixes = ("A_", "U_", "VP_", "VM_", "Y_", "X_", "FR_", "FU_", "FL_",
                "FB_", "FW_")
    assert sorted(reached) == [c for c, name in enumerate(model.columns)
                               if name.startswith(prefixes)]


def spelled_roads():
    for template in "ABCDEFG":
        yield f"{template}-01", generate_instance(1, ROAD_TEMPLATES[template],
                                                  1)
    yield "C-01 2 pits", generate_instance(1, ROAD_TEMPLATES["C"], 1, pits=2)
    yield "C-02 3 blocks 2 pits", pinned_road("C-02 3 blocks 2 pits")
    yield "shared-pits", pinned_road("shared-pits")


@pytest.mark.parametrize("case, instance", [
    pytest.param(*args, id=args[0]) for args in spelled_roads()])
def test_spelled_column_names_are_distinct_and_found(case, instance):
    # The model keeps no name: lint hashes only the listed names, because
    # each scheme spells distinct names and no two schemes' prefixes meet.
    # Over every buildable config, the names are distinct, each run's start
    # with its scheme's prefixes and a listed run's with none of them, and
    # locate finds every name at its own id.
    for name in KNOWN_CONFIG_NAMES:
        if name.startswith("CTG") and instance.blocks:
            continue
        columns = build(instance, named_config(name)).columns
        names = list(columns)
        assert len(set(names)) == len(names) == len(columns), (case, name)
        prefixes = [p for run in columns.runs for p in run.prefixes]
        assert not [(a, b) for i, a in enumerate(prefixes)
                    for j, b in enumerate(prefixes)
                    if i != j and a.startswith(b)], (case, name)
        at = 0
        for run in columns.runs:
            spelled, at = names[at:at + run.count], at + run.count
            own = run.prefixes or tuple(prefixes)
            assert all(n.startswith(own) == bool(run.prefixes)
                       for n in spelled), (case, name, own)
        assert columns.locate(names).tolist() == list(range(len(names)))
        assert columns.locate([n + "_1" for n in names[::97]]
                              + ["", "_", "X_0_1", "FR_1_0_1_3"]
                              ).tolist() == [-1] * (len(names[::97]) + 4)


@pytest.mark.parametrize("instance, config", [
    (piecewise_instance(), BuilderConfig(volume_mode="piecewise-binary",
                                         block_technique="sos1")),
    (generate_instance(1, ROAD_TEMPLATES["A"], 1, pits=2),
     named_config("CTG-B"))], ids=["piecewise sos1", "A-01 2 pits CTG-B"])
def test_spelled_column_names_slice_as_a_list(instance, config):
    # An int, a slice with any step and take spell what a list of every
    # name gives, across the runs, listed and spelled.
    columns = build(instance, config).columns
    names = list(columns)
    n = len(names)
    bounds = (None, 0, 1, n // 3, n - 2, -5, -n - 3, n + 2)
    for start in bounds:
        for stop in bounds:
            for step in (None, 1, 2, 7, -1, -3):
                assert columns[start:stop:step] == names[start:stop:step], \
                    (start, stop, step)
    assert [columns[i] for i in (0, n - 1, -1, -n)] == \
        [names[i] for i in (0, n - 1, -1, -n)]
    ids = np.random.default_rng(5).integers(0, n, 300)
    assert columns.take(ids) == [names[i] for i in ids.tolist()]
    assert columns.index(names[n // 2]) == n // 2
    for outside in (n, -n - 1):
        with pytest.raises(IndexError):
            columns[outside]


def test_ctg_model_holds_little_more_than_its_arrays():
    # Under tracemalloc, the finished CTG model of a 225-section road holds
    # at most 1.15 times its arrays' bytes, those of runs too, plus its row
    # names: no column name is kept (7.03 MB against 3.79 MB of arrays when
    # the model held its 51,135 names).
    road = generate_instance(1, RoadTemplate("R", 4.5, 20.0, 225), 1)
    config = named_config("CTG-B")
    build(road, config)     # the road's cached arrays are not the model's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = build(road, config)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = [value for value in vars(model).values()
              if isinstance(value, np.ndarray)]
    arrays += [*model.runs[:-1], *model.runs.flows]
    rows = sys.getsizeof(model.row_order) + sum(map(sys.getsizeof,
                                                    model.row_order))
    assert len(model.columns) == 51135
    assert size <= 1.15 * (sum(a.nbytes for a in arrays) + rows)
