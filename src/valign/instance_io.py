"""Instance and run-configuration files.

Instances travel as JSON documents with top-level keys: sections, segments,
materials, hauls, borrow_pits, waste_pits, blocks, access_roads, slope,
volume_curves. Parsing reports every defect with a field path rather than
stopping at the first; writing is canonical (stable key order, repr floats)
so re-serialization is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any

from valign.builder import KNOWN_CONFIG_NAMES
from valign.gateway import SolverLimits
from valign.instance import (
    DEFAULT_SLOPE_HI,
    DEFAULT_SLOPE_LO,
    AccessRoad,
    Block,
    CostModel,
    HaulClass,
    InstanceError,
    Material,
    Pit,
    RoadInstance,
    Section,
    SegmentLayout,
    VolumeCurve,
    default_cost_model,
)


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def num(self, obj: dict, key: str, path: str,
            default: float | None = None) -> float:
        if key not in obj:
            if default is not None:
                return default
            self.errors.append(f"{path}.{key}: missing")
            return 0.0
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.errors.append(f"{path}.{key}: expected number, "
                               f"got {type(value).__name__}")
            return 0.0
        return float(value)

    def integer(self, obj: dict, key: str, path: str,
                default: int | None = None) -> int:
        if key not in obj:
            if default is not None:
                return default
            self.errors.append(f"{path}.{key}: missing")
            return 0
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self.errors.append(f"{path}.{key}: expected integer, "
                               f"got {type(value).__name__}")
            return 0
        return value

    def text(self, obj: dict, key: str, path: str, default: str) -> str:
        value = obj.get(key, default)
        if not isinstance(value, str):
            self.errors.append(f"{path}.{key}: expected string")
            return default
        return value

    def array(self, doc: dict, key: str, required: bool = False) -> list:
        value = doc.get(key, [])
        if value is None:
            value = []
        if not isinstance(value, list):
            self.errors.append(f"{key}: expected array")
            return []
        if required and not value:
            self.errors.append(f"{key}: must not be empty")
        return value

    def obj(self, item: Any, path: str) -> dict:
        if not isinstance(item, dict):
            self.errors.append(f"{path}: expected object")
            return {}
        return item


def _parse_section_ref(col: _Collector, item: Any, path: str) -> int:
    """blocks/access_roads entries: bare integer or {"section": n}."""
    if isinstance(item, bool):
        col.errors.append(f"{path}: expected integer or object")
        return 0
    if isinstance(item, int):
        return item
    if isinstance(item, dict):
        return col.integer(item, "section", path)
    col.errors.append(f"{path}: expected integer or object")
    return 0


def parse_instance_dict(doc: dict) -> RoadInstance:
    col = _Collector()
    if not isinstance(doc, dict):
        raise InstanceError(["document: expected a JSON object"])

    sections = []
    for pos, item in enumerate(col.array(doc, "sections", required=True)):
        path = f"sections[{pos}]"
        obj = col.obj(item, path)
        sections.append(Section(
            index=pos + 1,
            station=col.num(obj, "station", path),
            ground_elevation=col.num(obj, "ground_elevation", path),
            area=col.num(obj, "area", path),
            material=col.integer(obj, "material", path, default=1),
            offset_lo=col.num(obj, "offset_lo", path),
            offset_hi=col.num(obj, "offset_hi", path),
        ))

    sizes: list[int] = []
    for pos, item in enumerate(col.array(doc, "segments")):
        if isinstance(item, int) and not isinstance(item, bool):
            sizes.append(item)
        elif isinstance(item, dict):
            sizes.append(col.integer(item, "count", f"segments[{pos}]"))
        else:
            col.errors.append(f"segments[{pos}]: expected integer")
            sizes.append(0)
    if not sizes:
        sizes = [len(sections)] if sections else [1]
    segment_sizes = tuple(sizes)

    materials = []
    for pos, item in enumerate(col.array(doc, "materials")):
        path = f"materials[{pos}]"
        obj = col.obj(item, path)
        materials.append(Material(
            name=col.text(obj, "name", path, f"M{pos + 1}"),
            excavation=col.num(obj, "excavation", path),
            embankment=col.num(obj, "embankment", path),
        ))
    hauls = []
    for pos, item in enumerate(col.array(doc, "hauls")):
        path = f"hauls[{pos}]"
        obj = col.obj(item, path)
        hauls.append(HaulClass(
            name=col.text(obj, "name", path, f"haul{pos + 1}"),
            loading_cost=col.num(obj, "loading_cost", path),
            unit_haul_cost=col.num(obj, "unit_haul_cost", path),
        ))
    default_cm = default_cost_model()
    cost_model = CostModel(
        materials=tuple(materials) or default_cm.materials,
        hauls=tuple(hauls) or default_cm.hauls,
    )

    def pits(key: str, kind: str) -> tuple[Pit, ...]:
        out = []
        for pos, item in enumerate(col.array(doc, key)):
            path = f"{key}[{pos}]"
            obj = col.obj(item, path)
            out.append(Pit(
                kind=kind,
                attached_section=col.integer(obj, "section", path),
                capacity=col.num(obj, "capacity", path),
                dead_haul=col.num(obj, "dead_haul", path, default=0.0),
            ))
        return tuple(out)

    blocks = tuple(
        Block(section=_parse_section_ref(col, item, f"blocks[{pos}]"))
        for pos, item in enumerate(col.array(doc, "blocks")))
    access = tuple(
        AccessRoad(section=_parse_section_ref(col, item,
                                              f"access_roads[{pos}]"))
        for pos, item in enumerate(col.array(doc, "access_roads")))

    slope_obj = doc.get("slope", {})
    if slope_obj and not isinstance(slope_obj, dict):
        col.errors.append("slope: expected object")
        slope_obj = {}
    slope_lo = col.num(slope_obj, "lo", "slope", default=DEFAULT_SLOPE_LO)
    slope_hi = col.num(slope_obj, "hi", "slope", default=DEFAULT_SLOPE_HI)

    curves = []
    for pos, item in enumerate(col.array(doc, "volume_curves")):
        path = f"volume_curves[{pos}]"
        obj = col.obj(item, path)
        arrays: dict[str, tuple[float, ...]] = {}
        well_formed = True
        for key in ("offsets", "cut", "fill"):
            arr = obj.get(key, [])
            if isinstance(arr, list) and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in arr):
                arrays[key] = tuple(float(v) for v in arr)
            else:
                col.errors.append(f"{path}.{key}: expected number array")
                well_formed = False
        if well_formed:
            curves.append(VolumeCurve(
                section=col.integer(obj, "section", path),
                offsets=arrays["offsets"], cut=arrays["cut"],
                fill=arrays["fill"]))

    unknown = set(doc) - {"sections", "segments", "materials", "hauls",
                          "borrow_pits", "waste_pits", "blocks",
                          "access_roads", "slope", "volume_curves"}
    for key in sorted(unknown):
        col.errors.append(f"{key}: unknown top-level key")

    if col.errors:
        raise InstanceError(col.errors)
    return RoadInstance(
        sections=tuple(sections),
        segment_layout=SegmentLayout(segment_sizes),
        cost_model=cost_model,
        borrow_pits=pits("borrow_pits", "borrow"),
        waste_pits=pits("waste_pits", "waste"),
        blocks=blocks,
        access_roads=access,
        slope_lo=slope_lo,
        slope_hi=slope_hi,
        volume_curves=tuple(curves),
    )


def parse_instance(path: str) -> RoadInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError([f"document: invalid JSON ({exc})"]) from exc
    return parse_instance_dict(doc)


def instance_to_dict(instance: RoadInstance) -> dict:
    doc: dict[str, Any] = {
        "sections": [
            {
                "station": s.station,
                "ground_elevation": s.ground_elevation,
                "area": s.area,
                "material": s.material,
                "offset_lo": s.offset_lo,
                "offset_hi": s.offset_hi,
            }
            for s in instance.sections
        ],
        "segments": list(instance.segment_layout.segment_sizes),
        "materials": [
            {"name": m.name, "excavation": m.excavation,
             "embankment": m.embankment}
            for m in instance.cost_model.materials
        ],
        "hauls": [
            {"name": h.name, "loading_cost": h.loading_cost,
             "unit_haul_cost": h.unit_haul_cost}
            for h in instance.cost_model.hauls
        ],
        "borrow_pits": [
            {"section": p.attached_section, "capacity": p.capacity,
             "dead_haul": p.dead_haul}
            for p in instance.borrow_pits
        ],
        "waste_pits": [
            {"section": p.attached_section, "capacity": p.capacity,
             "dead_haul": p.dead_haul}
            for p in instance.waste_pits
        ],
        "blocks": [{"section": b.section} for b in instance.blocks],
        "access_roads": [{"section": a.section}
                         for a in instance.access_roads],
        "slope": {"lo": instance.slope_lo, "hi": instance.slope_hi},
        "volume_curves": [
            {"section": c.section, "offsets": list(c.offsets),
             "cut": list(c.cut), "fill": list(c.fill)}
            for c in instance.volume_curves
        ],
    }
    return doc


def write_instance(instance: RoadInstance, path: str) -> str:
    text = json.dumps(instance_to_dict(instance), indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


@dataclass(frozen=True)
class RunConfig:
    """Tool configuration: how to reach a solver and what to run. An empty
    solver_command names none: gateway.solve then runs the bundled
    adapter, and the CLI asks for --solver."""

    solver_command: str
    limits: SolverLimits
    configs: tuple[str, ...]


def parse_config_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ValueError("config: expected a JSON object")
    errors: list[str] = []
    command = doc.get("solver_command") or ""
    if not isinstance(command, str):
        errors.append("solver_command: expected string")
        command = ""
    limits_obj = doc.get("limits", {})
    if not isinstance(limits_obj, dict):
        errors.append("limits: expected object")
        limits_obj = {}
    known = {f.name for f in fields(SolverLimits)}
    for key in sorted(set(limits_obj) - known):
        errors.append(f"limits.{key}: unknown limit key")
    try:
        limits = SolverLimits(**{key: float(value) for key, value
                                 in limits_obj.items() if key in known})
    except (TypeError, ValueError) as exc:
        errors.append(f"limits: {exc}")
        limits = SolverLimits()
    configs = doc.get("configs", ["MQN-B"])
    if not isinstance(configs, list) or not all(
            isinstance(c, str) for c in configs):
        errors.append("configs: expected array of names")
        configs = ["MQN-B"]
    for name in configs:
        if name not in KNOWN_CONFIG_NAMES:
            errors.append(f"configs: unknown name {name!r} "
                          f"(known: {', '.join(KNOWN_CONFIG_NAMES)})")
    unknown = set(doc) - {"solver_command", "limits", "configs"}
    for key in sorted(unknown):
        errors.append(f"{key}: unknown config key")
    if errors:
        raise ValueError("; ".join(errors))
    return RunConfig(command, limits, tuple(configs))


def parse_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_config_dict(doc)
