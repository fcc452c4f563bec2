"""Shared fixtures: canonical instances and the bundled solver command."""

from __future__ import annotations

import sys
import tempfile
from typing import Sequence

import pytest

from valign.instance import (
    AccessRoad,
    Block,
    Pit,
    RoadInstance,
    Section,
    SegmentLayout,
    VolumeCurve,
    default_cost_model,
)

BUNDLED_SOLVER = (f"{sys.executable} -m valign.milp_solve "
                  "--time-limit {timelimit} --gap {gap} --sos binarize "
                  "{mps} {sol}")


def make_instance(elevations: Sequence[float], spacing: float = 20.0,
                  areas: Sequence[float] | None = None,
                  materials: Sequence[int] | None = None,
                  offset: float = 5.0,
                  segments: Sequence[int] | None = None,
                  borrow: Sequence[Pit] = (), waste: Sequence[Pit] = (),
                  blocks: Sequence[int] = (), access: Sequence[int] = (),
                  slope: tuple[float, float] = (-0.1, 0.1),
                  curves: Sequence[VolumeCurve] = ()) -> RoadInstance:
    n = len(elevations)
    sections = tuple(
        Section(index=i + 1, station=spacing * i, ground_elevation=float(e),
                area=float(areas[i]) if areas is not None else 100.0,
                material=materials[i] if materials is not None else 1,
                offset_lo=-offset, offset_hi=offset)
        for i, e in enumerate(elevations))
    layout = SegmentLayout(tuple(segments) if segments is not None else (n,))
    return RoadInstance(
        sections=sections, segment_layout=layout,
        cost_model=default_cost_model(),
        borrow_pits=tuple(borrow), waste_pits=tuple(waste),
        blocks=tuple(Block(section=k) for k in blocks),
        access_roads=tuple(AccessRoad(section=a) for a in access),
        slope_lo=slope[0], slope_hi=slope[1],
        volume_curves=tuple(curves)).check()


@pytest.fixture(autouse=True)
def private_tempdir(tmp_path, monkeypatch):
    """Point the process temp dir (and TMPDIR for solver subprocesses) at
    the test's own tmp_path, so a workdir a test leaves behind, such as the
    one an error or timeout keeps for its log, never lands in the system
    temp dir."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))


@pytest.fixture(scope="session")
def solver_command() -> str:
    return BUNDLED_SOLVER


@pytest.fixture(scope="session")
def two_node_instance() -> RoadInstance:
    """Three flat sections; areas pick out a 10 m3 cut at section 1 and a
    10 m3 fill at section 3 once offsets are fixed to (1, 0, -1)."""
    return make_instance([100.0, 100.0, 100.0], areas=[10.0, 10.0, 10.0],
                         offset=2.0)


TWO_NODE_OFFSETS = (1.0, 0.0, -1.0)
TWO_NODE_COST = 63.2  # 10*(4+2) + 10*0.008*40

# Borrow-only fill: 10 m3 from a pit 50 m off section 2, embanked one
# 20 m hop away at section 3.
BORROW_FILL_COST = 65.6  # 10*(4+0+0.008*50) + 10*2 + 10*0.008*20


@pytest.fixture(scope="session")
def borrow_fill_instance() -> RoadInstance:
    return make_instance(
        [100.0, 100.0, 100.0], areas=[10.0, 10.0, 10.0], offset=2.0,
        borrow=[Pit(kind="borrow", attached_section=2, capacity=50.0,
                    dead_haul=50.0)])


BORROW_FILL_OFFSETS = (0.0, 0.0, -1.0)


@pytest.fixture(scope="session")
def hump_block_instance() -> RoadInstance:
    """Five sections with a hump at the blocked middle: cut at section 3
    must cross outward while the block gates movement over it."""
    return make_instance([100.0, 100.0, 102.0, 100.0, 100.0],
                         areas=[40.0, 40.0, 40.0, 40.0, 40.0],
                         offset=4.0, blocks=[3], access=[1, 5])


def shared_pit_road() -> RoadInstance:
    """Seven sections with a block at 3 (access only at 1) and two borrow
    and two waste pits all attached to section 5, inside the gated right
    region; chain nodes that join several pits at once."""
    pits = [Pit(kind, 5, capacity, dead_haul)
            for kind, capacity, dead_haul in (
                ("borrow", 40.0, 15.0), ("borrow", 25.0, 60.0),
                ("waste", 35.0, 20.0), ("waste", 30.0, 45.0))]
    return make_instance([100.0, 101.5, 103.0, 101.0, 99.5, 99.0, 100.5],
                         areas=[10.0] * 7, offset=2.0, blocks=[3],
                         access=[1], borrow=pits[:2], waste=pits[2:])


def pinned_road(case: str) -> RoadInstance:
    """Roads whose emitted models and validation results are pinned."""
    from valign.bench import ROAD_TEMPLATES, generate_instance
    if case == "shared-pits":
        return shared_pit_road()
    template, variant, blocks, pits = {
        "A-01": ("A", 1, 0, 0),
        "G-01": ("G", 1, 0, 0),
        "C-02 2 blocks": ("C", 2, 2, 0),
        "D-01 2 blocks": ("D", 1, 2, 0),
        "D-02 2 blocks": ("D", 2, 2, 0),
        "G-01 3 blocks": ("G", 1, 3, 0),
        "C-02 3 blocks 2 pits": ("C", 2, 3, 2),
    }[case]
    return generate_instance(1, ROAD_TEMPLATES[template], variant,
                             blocks=blocks, pits=pits)
