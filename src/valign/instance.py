"""Domain types for a road corridor and pure geometry/cost helpers.

A road is discretized into sections at increasing stations. The vertical
profile is a quadratic spline: one polynomial per segment, each segment
spanning a run of consecutive sections, evaluated in segment-local
coordinates for numerical conditioning on long roads.

A RoadInstance checks itself when it is made (violations), its frame
(spline_frame) places each section in its segment and each segment on the
road, and its chain_hops give the distance of each transit arc: the
builder, the validator and the oracle read these rules here.

The offset at a section is ground elevation minus road elevation, so a
positive offset means net excavation. Earthwork prices come from per-material
excavation/embankment rates and per-haul-class loading and movement rates.
Site features (borrow/waste pits, blocks, access roads) attach to sections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np


class InstanceError(ValueError):
    """Raised for invalid instances; carries the full violation list."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("invalid instance:\n" + "\n".join(self.violations))


@dataclass(frozen=True, slots=True)
class Section:
    """One discretization cell of the road."""

    index: int              # 1-based ordinal
    station: float          # meters from road start
    ground_elevation: float
    area: float             # square meters, volume per meter of offset
    material: int           # 1-based id into the cost model's materials
    offset_lo: float
    offset_hi: float


@dataclass(frozen=True, slots=True)
class SegmentLayout:
    """Sections per spline segment, in road order."""

    segment_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "segment_sizes", tuple(int(c) for c in self.segment_sizes))

    @property
    def segment_count(self) -> int:
        return len(self.segment_sizes)

    @property
    def section_count(self) -> int:
        return sum(self.segment_sizes)


@dataclass(frozen=True, slots=True)
class HaulClass:
    """Equipment category: fixed loading cost plus movement cost per meter."""

    name: str
    loading_cost: float     # $/m3
    unit_haul_cost: float   # $/(m3*m)


@dataclass(frozen=True, slots=True)
class Material:
    name: str
    excavation: float   # $/m3 cut
    embankment: float   # $/m3 fill


@dataclass(frozen=True, slots=True)
class CostModel:
    materials: tuple[Material, ...]
    hauls: tuple[HaulClass, ...]


@dataclass(frozen=True, slots=True)
class Pit:
    """Borrow (source) or waste (sink) pit attached to an interior section."""

    kind: str               # "borrow" | "waste"
    attached_section: int   # 1-based section index
    capacity: float         # m3
    dead_haul: float        # meters between pit and its attached section


@dataclass(frozen=True, slots=True)
class Block:
    """Obstacle over whose section no material may move until removed."""

    section: int


@dataclass(frozen=True, slots=True)
class AccessRoad:
    """Entry point to the corridor."""

    section: int


@dataclass(frozen=True, slots=True)
class VolumeCurve:
    """Piecewise-linear cut/fill volumes as functions of the offset."""

    section: int
    offsets: tuple[float, ...]
    cut: tuple[float, ...]
    fill: tuple[float, ...]

    def cut_at(self, u: float) -> float:
        return _interp(self.offsets, self.cut, u)

    def fill_at(self, u: float) -> float:
        return _interp(self.offsets, self.fill, u)


def _interp(xs: Sequence[float], ys: Sequence[float], x: float) -> float:
    if math.isnan(x):
        return math.nan     # validate books it as a volume violation
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    for a, b, ya, yb in zip(xs, xs[1:], ys, ys[1:]):
        if a <= x <= b:
            w = (x - a) / (b - a)
            return ya + w * (yb - ya)
    raise AssertionError("unreachable")


# Published benchmark cost set: four materials, three haul classes.
def default_cost_model() -> CostModel:
    return CostModel(
        materials=(
            Material("M1", excavation=4.0, embankment=2.0),
            Material("M2", excavation=4.0, embankment=2.0),
            Material("M3", excavation=20.0, embankment=1.8),
            Material("M4", excavation=4.0, embankment=2.0),
        ),
        hauls=(
            HaulClass("short", loading_cost=0.0, unit_haul_cost=0.008),
            HaulClass("middle", loading_cost=0.6, unit_haul_cost=0.004),
            HaulClass("long", loading_cost=2.6, unit_haul_cost=0.002),
        ),
    )


@dataclass(frozen=True, slots=True, eq=False)
class SplineFrame:
    """Read-only arrays: per section, its segment (0-based) and sigma, its
    station less its segment's start; per segment, its start (first
    station) and end (the next segment's start, or the last station)."""

    segment: np.ndarray
    sigma: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def locate(self, station: float) -> tuple[int, float]:
        """(0-based segment, local coordinate) of a station; a joint
        belongs to the later segment. ValueError outside the road."""
        lo, hi = float(self.start[0]), float(self.end[-1])
        if station < lo or station > hi:
            raise ValueError(f"station {station} outside road extent "
                             f"[{lo}, {hi}]")
        g = int(np.searchsorted(self.start, station, side="right")) - 1
        return g, station - float(self.start[g])


def spline_frame(segment_sizes: Sequence[int],
                 stations: Sequence[float]) -> SplineFrame:
    """The frame of segments of these sizes over these stations."""
    sizes = np.asarray(segment_sizes, dtype=np.intp)
    at = np.asarray(stations, dtype=np.float64)
    segment = np.repeat(np.arange(len(sizes)), sizes)
    start = at[np.cumsum(sizes) - sizes]
    frame = SplineFrame(segment, at - start[segment], start,
                        np.append(start[1:], at[-1]))
    for values in (frame.segment, frame.sigma, frame.start, frame.end):
        values.flags.writeable = False
    return frame


DEFAULT_SLOPE_LO = -0.1
DEFAULT_SLOPE_HI = 0.1


@dataclass(frozen=True)
class RoadInstance:
    """Complete problem input (corridor, costs, site features), checked when made."""

    sections: tuple[Section, ...]
    segment_layout: SegmentLayout
    cost_model: CostModel
    borrow_pits: tuple[Pit, ...] = ()
    waste_pits: tuple[Pit, ...] = ()
    blocks: tuple[Block, ...] = ()
    access_roads: tuple[AccessRoad, ...] = ()
    slope_lo: float = DEFAULT_SLOPE_LO
    slope_hi: float = DEFAULT_SLOPE_HI
    volume_curves: tuple[VolumeCurve, ...] = ()

    def __post_init__(self):
        bad = self.violations()
        if bad:
            raise InstanceError(bad)

    # -- derived views ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.sections)

    @cached_property
    def stations(self) -> tuple[float, ...]:
        return tuple(s.station for s in self.sections)

    @cached_property
    def sorted_blocks(self) -> tuple[Block, ...]:
        """Blocks in canonical order (by section index)."""
        return tuple(sorted(self.blocks, key=lambda b: b.section))

    @cached_property
    def curve_by_section(self) -> dict[int, VolumeCurve]:
        return {c.section: c for c in self.volume_curves}

    def section(self, i: int) -> Section:
        return self.sections[i - 1]

    def material_of(self, i: int) -> Material:
        return self.cost_model.materials[self.section(i).material - 1]

    def distance(self, i: int, j: int) -> float:
        return abs(self.stations[j - 1] - self.stations[i - 1])

    @cached_property
    def frame(self) -> SplineFrame:
        return spline_frame(self.segment_layout.segment_sizes, self.stations)

    @cached_property
    def chain_hops(self) -> np.ndarray:
        """Read-only, indexed (section, chain): the distance from section i
        to i+d on chain 0 (d = +1) and chain 1 (d = -1), 0 where the chain
        leaves the road."""
        hops = np.zeros((self.n, 2))
        hops[:-1, 0] = hops[1:, 1] = np.diff(self.stations)
        hops.flags.writeable = False
        return hops

    def profile(self, coeffs: Sequence[Sequence[float]], station: float) -> float:
        return evaluate_profile(coeffs, self.segment_layout, self.stations, station)

    def grade(self, coeffs: Sequence[Sequence[float]], station: float) -> float:
        return evaluate_grade(coeffs, self.segment_layout, self.stations, station)

    # -- validation --------------------------------------------------------

    def violations(self) -> list[str]:
        """All invariant violations, each tagged with a field path."""
        out: list[str] = []
        n = len(self.sections)
        if n == 0:
            out.append("sections: at least one section required")

        for pos, sec in enumerate(self.sections):
            path = f"sections[{pos}]"
            if sec.index != pos + 1:
                out.append(f"{path}.index: expected {pos + 1}, got {sec.index}")
            if not math.isfinite(sec.station):
                out.append(f"{path}.station: must be finite")
            if pos > 0 and sec.station <= self.sections[pos - 1].station:
                out.append(f"{path}.station: stations must be strictly increasing")
            if not (sec.area > 0) or not math.isfinite(sec.area):
                out.append(f"{path}.area: must be positive and finite")
            if not math.isfinite(sec.ground_elevation):
                out.append(f"{path}.ground_elevation: must be finite")
            if not 1 <= sec.material <= len(self.cost_model.materials):
                out.append(f"{path}.material: id {sec.material} not in 1..{len(self.cost_model.materials)}")
            if not (sec.offset_lo <= sec.offset_hi):
                out.append(f"{path}.offset_lo: must not exceed offset_hi")
            if not (math.isfinite(sec.offset_lo) and math.isfinite(sec.offset_hi)):
                out.append(f"{path}.offset_lo/offset_hi: must be finite")

        if self.segment_layout.section_count != n:
            out.append(
                f"segments: sizes sum to {self.segment_layout.section_count}, expected {n}")
        for pos, size in enumerate(self.segment_layout.segment_sizes):
            if size < 1:
                out.append(f"segments[{pos}]: size must be >= 1")

        if not self.cost_model.materials:
            out.append("materials: at least one material required")
        for pos, mat in enumerate(self.cost_model.materials):
            if mat.excavation < 0 or mat.embankment < 0:
                out.append(f"materials[{pos}]: rates must be >= 0")
            if not (math.isfinite(mat.excavation) and math.isfinite(mat.embankment)):
                out.append(f"materials[{pos}]: rates must be finite")
        if not self.cost_model.hauls:
            out.append("hauls: at least one haul class required")
        for pos, haul in enumerate(self.cost_model.hauls):
            if haul.loading_cost < 0 or not math.isfinite(haul.loading_cost):
                out.append(f"hauls[{pos}].loading_cost: must be >= 0 and finite")
            if not (haul.unit_haul_cost > 0) or not math.isfinite(haul.unit_haul_cost):
                out.append(f"hauls[{pos}].unit_haul_cost: must be > 0 and finite")

        for name, pits, kind in (("borrow_pits", self.borrow_pits, "borrow"),
                                 ("waste_pits", self.waste_pits, "waste")):
            for pos, pit in enumerate(pits):
                path = f"{name}[{pos}]"
                if pit.kind != kind:
                    out.append(f"{path}.kind: expected {kind!r}, got {pit.kind!r}")
                if not 2 <= pit.attached_section <= n - 1:
                    out.append(
                        f"{path}.section: pit must attach to an interior section "
                        f"(2..{n - 1}), got {pit.attached_section}")
                if pit.capacity < 0 or not math.isfinite(pit.capacity):
                    out.append(f"{path}.capacity: must be >= 0 and finite")
                if pit.dead_haul < 0 or not math.isfinite(pit.dead_haul):
                    out.append(f"{path}.dead_haul: must be >= 0 and finite")

        seen_blocks: set[int] = set()
        for pos, blk in enumerate(self.blocks):
            path = f"blocks[{pos}]"
            if not 2 <= blk.section <= n - 1:
                out.append(f"{path}.section: block must sit on an interior section "
                           f"(2..{n - 1}), got {blk.section}")
            if blk.section in seen_blocks:
                out.append(f"{path}.section: duplicate block section {blk.section}")
            seen_blocks.add(blk.section)

        for pos, road in enumerate(self.access_roads):
            if not 1 <= road.section <= n:
                out.append(f"access_roads[{pos}].section: out of range 1..{n}")

        if not (self.slope_lo < self.slope_hi):
            out.append("slope: slope_lo must be < slope_hi")
        if not (math.isfinite(self.slope_lo) and math.isfinite(self.slope_hi)):
            out.append("slope: bounds must be finite")

        seen_curves: set[int] = set()
        for pos, curve in enumerate(self.volume_curves):
            path = f"volume_curves[{pos}]"
            if not 1 <= curve.section <= n:
                out.append(f"{path}.section: out of range 1..{n}")
            if curve.section in seen_curves:
                out.append(f"{path}.section: duplicate curve for section {curve.section}")
            seen_curves.add(curve.section)
            k = len(curve.offsets)
            if k < 2 or len(curve.cut) != k or len(curve.fill) != k:
                out.append(f"{path}: needs >= 2 breakpoints with equal-length columns")
                continue
            if any(b <= a for a, b in zip(curve.offsets, curve.offsets[1:])):
                out.append(f"{path}.offsets: must be strictly increasing")
            if any(b < a for a, b in zip(curve.cut, curve.cut[1:])):
                out.append(f"{path}.cut: must be nondecreasing in offset")
            if any(b > a for a, b in zip(curve.fill, curve.fill[1:])):
                out.append(f"{path}.fill: must be nonincreasing in offset")
            vals = curve.offsets + curve.cut + curve.fill
            if not all(math.isfinite(v) for v in vals):
                out.append(f"{path}: all breakpoint values must be finite")
            if 1 <= curve.section <= n:
                sec = self.section(curve.section)
                if curve.offsets[0] > sec.offset_lo or curve.offsets[-1] < sec.offset_hi:
                    out.append(f"{path}.offsets: must cover the section's offset bounds")
        return out

    def check(self) -> "RoadInstance":
        """The instance itself: it was checked when it was made."""
        return self


def evaluate_profile(coeffs: Sequence[Sequence[float]], layout: SegmentLayout,
                     stations: Sequence[float], station: float) -> float:
    """Spline elevation at a station; coefficients are segment-local."""
    g, sigma = spline_frame(layout.segment_sizes, stations).locate(station)
    a1, a2, a3 = coeffs[g]
    return a1 + a2 * sigma + a3 * sigma * sigma


def evaluate_grade(coeffs: Sequence[Sequence[float]], layout: SegmentLayout,
                   stations: Sequence[float], station: float) -> float:
    """Spline slope (first derivative) at a station."""
    g, sigma = spline_frame(layout.segment_sizes, stations).locate(station)
    _, a2, a3 = coeffs[g]
    return a2 + 2.0 * a3 * sigma


def cheapest_haul(cost_model: CostModel | Sequence[HaulClass],
                  distance: float) -> tuple[int, float]:
    """Cheapest haul class for a move of the given length.

    Returns (0-based haul index, per-m3 cost including loading); ties go to
    the lowest index.
    """
    hauls = getattr(cost_model, "hauls", cost_model)
    best_idx = 0
    best_cost = math.inf
    for idx, haul in enumerate(hauls):
        cost = haul.loading_cost + haul.unit_haul_cost * distance
        if cost < best_cost:
            best_idx, best_cost = idx, cost
    return best_idx, best_cost


def cheapest_haul_costs(cost_model: CostModel | Sequence[HaulClass],
                        distances: np.ndarray) -> np.ndarray:
    """cheapest_haul's per-m3 cost for each distance: the same operations
    in the same order, so the same doubles."""
    hauls = getattr(cost_model, "hauls", cost_model)
    best = np.full(np.shape(distances), math.inf)
    for haul in hauls:
        cost = haul.loading_cost + haul.unit_haul_cost * distances
        best = np.where(cost < best, cost, best)
    return best


def block_access_sets(instance: RoadInstance) -> tuple[
        tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """Region-gating sets over canonically ordered blocks.

    Returns (pairs, left, right) of 1-based indices into
    ``instance.sorted_blocks``: consecutive block pairs with no access-road
    section strictly between them; blocks with no access road in sections
    1..section-1; blocks with no access road in sections section+1..n.
    """
    blocks = instance.sorted_blocks
    roads = sorted(r.section for r in instance.access_roads)
    n = instance.n

    def road_in(lo: int, hi: int) -> bool:
        return any(lo <= r <= hi for r in roads)

    pairs = tuple(
        (k, k + 1)
        for k, (a, b) in enumerate(zip(blocks, blocks[1:]), start=1)
        if not road_in(a.section + 1, b.section - 1))
    left = tuple(k for k, b in enumerate(blocks, start=1)
                 if not road_in(1, b.section - 1))
    right = tuple(k for k, b in enumerate(blocks, start=1)
                  if not road_in(b.section + 1, n))
    return pairs, left, right


class SealedRegion(NamedTuple):
    """Sections lo..hi, which blocks (1-based indices into
    instance.sorted_blocks) seal off from every access road until one of
    them is removed. The region holds the transit arcs between sections i
    and i+1 for lo <= i < hi, and the pits it admits."""

    blocks: tuple[int, ...]
    lo: int
    hi: int

    def admits(self, section: int) -> bool:
        """Whether a pit attached at section lies inside the region."""
        return self.lo < section < self.hi


def sealed_regions(instance: RoadInstance) -> tuple[SealedRegion, ...]:
    """The regions of block_access_sets, in its order: each pair's region
    between its two blocks, then each left block's from section 1 to it,
    then each right block's from it to section n. A pit sits on an interior
    section (violations), so a side region admits every pit on its side."""
    pairs, left, right = block_access_sets(instance)
    at = [0] + [blk.section for blk in instance.sorted_blocks]  # block k's
    return (tuple(SealedRegion((k1, k2), at[k1], at[k2]) for k1, k2 in pairs)
            + tuple(SealedRegion((k,), 1, at[k]) for k in left)
            + tuple(SealedRegion((k,), at[k], instance.n) for k in right))


def big_m(instance: RoadInstance, section: int, volume_mode: str = "linear") -> float:
    """Largest possible cut or fill volume at a section."""
    sec = instance.section(section)
    if volume_mode != "linear":
        curve = instance.curve_by_section.get(section)
        if curve is not None:
            return max(max(abs(v) for v in curve.cut),
                       max(abs(v) for v in curve.fill))
    return sec.area * max(abs(sec.offset_lo), abs(sec.offset_hi))


def global_big_m(instance: RoadInstance, volume_mode: str = "linear") -> float:
    """Flow-gating constant: total possible earthwork plus borrow capacity."""
    total = sum(big_m(instance, i, volume_mode) for i in range(1, instance.n + 1))
    return total + sum(p.capacity for p in instance.borrow_pits)
