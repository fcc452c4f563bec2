"""Instance and run-config files: round trips, defaults, defect reporting."""

import json
from dataclasses import replace

import pytest

from valign.builder import KNOWN_CONFIG_NAMES, named_config
from valign.gateway import SolverLimits
from valign.instance import (
    DEFAULT_SLOPE_HI,
    DEFAULT_SLOPE_LO,
    InstanceError,
    Pit,
    VolumeCurve,
    default_cost_model,
)
from valign.instance_io import (
    parse_config,
    parse_config_dict,
    parse_instance,
    parse_instance_dict,
    write_instance,
)

from conftest import make_instance


def rich_instance():
    curve = VolumeCurve(section=2, offsets=(-4.0, 0.0, 4.0),
                        cut=(0.0, 0.0, 120.0), fill=(130.0, 0.0, 0.0))
    return make_instance(
        [100.0, 101.0, 99.5, 100.2, 100.0, 100.0, 100.0],
        areas=[10.0, 12.0, 9.0, 11.0, 10.0, 10.0, 10.0],
        offset=4.0, segments=[4, 3],
        borrow=(Pit("borrow", 2, 500.0, 30.0),),
        waste=(Pit("waste", 6, 400.0, 25.0),),
        blocks=[4], access=[2, 6], slope=(-0.07, 0.08),
        curves=(curve,))


MINIMAL_SECTIONS = [
    {"station": 20.0 * i, "ground_elevation": 100.0, "area": 10.0,
     "offset_lo": -2.0, "offset_hi": 2.0}
    for i in range(3)
]


def test_round_trip(tmp_path):
    inst = rich_instance()
    path = str(tmp_path / "inst.json")
    write_instance(inst, path)
    assert parse_instance(path) == inst


def test_reserialization_is_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_instance(rich_instance(), str(first))
    write_instance(parse_instance(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_defaults_fill_in():
    inst = parse_instance_dict({"sections": MINIMAL_SECTIONS})
    assert inst.slope_lo == DEFAULT_SLOPE_LO
    assert inst.slope_hi == DEFAULT_SLOPE_HI
    assert inst.cost_model == default_cost_model()
    assert inst.segment_layout.segment_sizes == (3,)
    assert all(sec.material == 1 for sec in inst.sections)
    assert inst.blocks == () and inst.borrow_pits == ()


def test_block_section_forms_are_equivalent():
    doc = {"sections": MINIMAL_SECTIONS, "blocks": [2], "access_roads": [1]}
    alt = {"sections": MINIMAL_SECTIONS, "blocks": [{"section": 2}],
           "access_roads": [{"section": 1}]}
    assert parse_instance_dict(doc) == parse_instance_dict(alt)


def test_boundary_pit_reported_with_field_path():
    doc = {"sections": MINIMAL_SECTIONS,
           "borrow_pits": [{"section": 1, "capacity": 10.0}]}
    with pytest.raises(InstanceError) as err:
        parse_instance_dict(doc)
    assert any(v.startswith("borrow_pits[0].section: pit must attach to an "
                            "interior section") for v in err.value.violations)


def test_structural_defects_all_reported():
    doc = {
        "sections": [
            {"ground_elevation": 100.0, "area": True,
             "offset_lo": -2.0, "offset_hi": 2.0},
        ],
        "slope": 3,
        "bogus": 1,
    }
    with pytest.raises(InstanceError) as err:
        parse_instance_dict(doc)
    text = "\n".join(err.value.violations)
    assert "sections[0].station: missing" in text
    assert "sections[0].area: expected number, got bool" in text
    assert "slope: expected object" in text
    assert "bogus: unknown top-level key" in text


def test_semantic_defects_all_reported():
    sections = [dict(s) for s in MINIMAL_SECTIONS]
    sections[1]["station"] = 0.0  # not increasing
    doc = {"sections": sections,
           "waste_pits": [{"section": 3, "capacity": 5.0}],
           "slope": {"lo": 0.2, "hi": 0.1}}
    with pytest.raises(InstanceError) as err:
        parse_instance_dict(doc)
    text = "\n".join(err.value.violations)
    assert "stations must be strictly increasing" in text
    assert "waste_pits[0].section" in text
    assert "slope: slope_lo must be < slope_hi" in text


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InstanceError, match="invalid JSON"):
        parse_instance(str(path))


def test_write_rejects_non_finite():
    # A road with a non-finite value cannot be made, so none is written.
    inst = make_instance([100.0] * 3)
    sections = (replace(inst.sections[0], ground_elevation=float("nan")),
                *inst.sections[1:])
    with pytest.raises(InstanceError, match=r"sections\[0\]\.ground_elevation: "
                       "must be finite"):
        replace(inst, sections=sections)


# -- run configuration -------------------------------------------------------

def test_config_defaults():
    run = parse_config_dict({})
    assert run.limits == SolverLimits(time_limit=600.0, mip_gap=0.01,
                                      feasibility_tol=1e-6)
    assert run.configs == ("MQN-B",)
    # No solver is chosen: gateway.solve falls back, the CLI asks for one.
    assert run.solver_command == ""
    # An absent limit takes SolverLimits' own default.
    run = parse_config_dict({"limits": {"mip_gap": 0.05}})
    assert run.limits == replace(SolverLimits(), mip_gap=0.05)


def test_config_file_round_trip(tmp_path):
    doc = {"solver_command": "mysolver {mps} {sol} {timelimit} {gap}",
           "limits": {"time_limit": 42.0, "mip_gap": 0.05},
           "configs": ["QNS-B", "MQN-S1"]}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    run = parse_config(str(path))
    assert run.solver_command == doc["solver_command"]
    assert run.limits.time_limit == 42.0
    assert run.limits.mip_gap == 0.05
    assert run.configs == ("QNS-B", "MQN-S1")


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="threads: unknown config key"):
        parse_config_dict({"threads": 4})


@pytest.mark.parametrize("limits, reason", [
    ({"timelimit": 5}, "limits.timelimit: unknown limit key"),
    ({"time_limit": 5, "gap": 0.1, "threads": 2},
     "limits.gap: unknown limit key; limits.threads: unknown limit key"),
])
def test_config_rejects_unknown_limit_keys(limits, reason):
    with pytest.raises(ValueError, match=reason):
        parse_config_dict({"limits": limits})


def test_config_rejects_unknown_config_name():
    with pytest.raises(ValueError, match="unknown name 'MQN-X'"):
        parse_config_dict({"configs": ["MQN-X"]})


def test_known_config_names_buildable():
    assert len(KNOWN_CONFIG_NAMES) == 12
    for name in KNOWN_CONFIG_NAMES:
        assert named_config(name).name == name
