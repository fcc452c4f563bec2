"""Independent re-check of decoded solutions.

Every constraint family is evaluated from first principles on the decoded
result (flow arithmetic, block reachability, spline evaluation), without
reusing the MILP rows. recompute_cost re-derives the objective from flows
and volumes by its own arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from valign.builder import DIRECTIONS, ArcIndex, BuilderConfig, effective_hauls
from valign.gateway import AlignmentResult
from valign.instance import (
    RoadInstance,
    block_access_sets,
    cheapest_haul_costs,
    evaluate_grade,
    evaluate_profile,
)

FAMILIES = (
    "flow_conservation",
    "balance",
    "capacity",
    "block_gating",
    "removal_logic",
    "continuity",
    "slope",
    "volume",
    "bounds",
)


@dataclass
class FamilyResult:
    worst: float = 0.0
    count: int = 0


@dataclass
class ViolationReport:
    tolerance: float
    families: dict[str, FamilyResult] = field(
        default_factory=lambda: {name: FamilyResult() for name in FAMILIES})

    @property
    def passed(self) -> bool:
        return all(f.worst <= self.tolerance for f in self.families.values())

    def summary(self) -> str:
        lines = []
        for name in FAMILIES:
            fam = self.families[name]
            verdict = "pass" if fam.worst <= self.tolerance else "FAIL"
            lines.append(f"{name}: worst={fam.worst:.3e} "
                         f"violations={fam.count} {verdict}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'} "
                     f"at tolerance {self.tolerance:g}")
        return "\n".join(lines)

    def _hit(self, family: str, magnitude: float, scale: float,
             relative: bool) -> None:
        if relative:
            magnitude = magnitude / max(1.0, scale)
        fam = self.families[family]
        fam.worst = max(fam.worst, magnitude)
        if magnitude > self.tolerance:
            fam.count += 1

    def _hits(self, family: str, magnitudes: np.ndarray,
              scales: np.ndarray | float, relative: bool) -> None:
        """_hit over an array; NaN magnitudes are skipped as _hit skips them."""
        if relative:
            magnitudes = magnitudes / np.maximum(1.0, scales)
        if magnitudes.size:
            fam = self.families[family]
            worst = float(np.fmax.reduce(magnitudes, axis=None))
            fam.worst = max(fam.worst, worst)
            fam.count += int(np.count_nonzero(magnitudes > self.tolerance))


def validate(instance: RoadInstance, config: BuilderConfig,
             result: AlignmentResult, tolerance: float = 1e-6,
             relative: bool = False) -> ViolationReport:
    instance.check()
    report = ViolationReport(tolerance=tolerance)
    val = result.values.get

    def hit(family: str, magnitude: float, scale: float = 1.0) -> None:
        report._hit(family, magnitude, scale, relative)

    def hits(family: str, magnitudes: np.ndarray,
             scales: np.ndarray | float = 1.0) -> None:
        report._hits(family, magnitudes, scales, relative)

    _check_geometry(instance, config, result, hit)
    names = ArcIndex(instance)
    if config.model == "CTG":
        _check_ctg_flows(instance, names, result, hits)
    else:
        hauls = effective_hauls(instance, config)
        steps = range(len(instance.blocks) + 1)
        _check_conservation(instance, names, hauls, steps, val, hit)
        _check_balance(instance, names, hauls, steps, result, val, hit)
        _check_blocks(instance, names, hauls, steps, result, val, hit)
        _check_flow_bounds(instance, names, hauls, steps, val, hit)
    return report


def _check_geometry(instance, config, result, hit) -> None:
    layout = instance.segment_layout
    coeffs = result.coefficients

    for g in range(2, layout.segment_count + 1):
        start_prev, end_prev = instance.segment_span(g - 1)
        span = end_prev - start_prev
        a1, a2, a3 = coeffs[g - 2]
        b1, b2, b3 = coeffs[g - 1]
        left_val = a1 + a2 * span + a3 * span * span
        left_grad = a2 + 2.0 * a3 * span
        hit("continuity", abs(left_val - b1), max(abs(left_val), abs(b1)))
        hit("continuity", abs(left_grad - b2), max(abs(left_grad), abs(b2)))

    for g in range(1, layout.segment_count + 1):
        start, end = instance.segment_span(g)
        span = end - start
        _, a2, a3 = coeffs[g - 1]
        for grade in (a2, a2 + 2.0 * a3 * span):
            hit("slope", max(0.0, instance.slope_lo - grade), 1.0)
            hit("slope", max(0.0, grade - instance.slope_hi), 1.0)

    stations = instance.stations
    for i in range(1, instance.n + 1):
        sec = instance.section(i)
        road = evaluate_profile(coeffs, layout, stations, sec.station)
        offset = result.offsets[i - 1]
        hit("volume", abs(offset - (sec.ground_elevation - road)),
            abs(sec.ground_elevation))
        cut = result.section_cut[i - 1]
        fill = result.section_fill[i - 1]
        if config.volume_mode == "linear":
            hit("volume", abs((cut - fill) - sec.area * offset),
                abs(sec.area * offset))
        else:
            curve = instance.curve_by_section[i]
            hit("volume", abs(cut - curve.cut_at(offset)), abs(cut))
            hit("volume", abs(fill - curve.fill_at(offset)), abs(fill))
        hit("bounds", max(0.0, sec.offset_lo - offset), 1.0)
        hit("bounds", max(0.0, offset - sec.offset_hi), 1.0)
        hit("bounds", max(0.0, -cut), 1.0)
        hit("bounds", max(0.0, -fill), 1.0)

    for amount in result.borrow_used + result.waste_used:
        hit("bounds", max(0.0, -amount), 1.0)
    for j, pit in enumerate(instance.borrow_pits):
        hit("capacity", max(0.0, result.borrow_used[j] - pit.capacity),
            pit.capacity)
    for k, pit in enumerate(instance.waste_pits):
        hit("capacity", max(0.0, result.waste_used[k] - pit.capacity),
            pit.capacity)


def _check_conservation(instance, names, hauls, steps, val, hit) -> None:
    n = instance.n
    for h in range(1, len(hauls) + 1):
        for t in steps:
            for i in range(1, n + 1):
                for d in DIRECTIONS:
                    acc = val(names.unload(h, t, i, d), 0.0)
                    scale = abs(acc)
                    if 1 <= i - d <= n:
                        flow = val(names.transit(h, t, i - d, d), 0.0)
                        acc += flow
                        scale += abs(flow)
                    for j, pit in enumerate(instance.borrow_pits, start=1):
                        if pit.attached_section == i:
                            acc += val(names.borrow(h, t, j, d), 0.0)
                    acc -= val(names.transit(h, t, i, d), 0.0)
                    acc -= val(names.load(h, t, i, d), 0.0)
                    for k, pit in enumerate(instance.waste_pits, start=1):
                        if pit.attached_section == i:
                            acc -= val(names.waste(h, t, k, d), 0.0)
                    hit("flow_conservation", abs(acc), scale)


def _both_chains(val, arc, *args) -> float:
    return sum(val(arc(*args, d), 0.0) for d in DIRECTIONS)


def _check_balance(instance, names, hauls, steps, result, val, hit) -> None:
    hs = range(1, len(hauls) + 1)
    for i in range(1, instance.n + 1):
        unload = sum(_both_chains(val, names.unload, h, t, i)
                     for h in hs for t in steps)
        load = sum(_both_chains(val, names.load, h, t, i)
                   for h in hs for t in steps)
        hit("balance", abs(unload - result.section_cut[i - 1]), abs(unload))
        hit("balance", abs(load - result.section_fill[i - 1]), abs(load))
    for j, pit in enumerate(instance.borrow_pits, start=1):
        total = sum(_both_chains(val, names.borrow, h, t, j)
                    for h in hs for t in steps)
        hit("balance", abs(total - result.borrow_used[j - 1]), abs(total))
        hit("capacity", max(0.0, total - pit.capacity), pit.capacity)
    for k, pit in enumerate(instance.waste_pits, start=1):
        total = sum(_both_chains(val, names.waste, h, t, k)
                    for h in hs for t in steps)
        hit("balance", abs(total - result.waste_used[k - 1]), abs(total))
        hit("capacity", max(0.0, total - pit.capacity), pit.capacity)


def _check_blocks(instance, names, hauls, steps, result, val, hit) -> None:
    blocks = instance.sorted_blocks
    if not blocks:
        return
    n = instance.n
    n_blocks = len(blocks)
    hs = range(1, len(hauls) + 1)

    def removed(k: int, t: int) -> bool:
        # Gate state for step t is the indicator at the end of step t-1.
        return t >= 1 and result.removal.get((k, t - 1), 0.0) >= 0.5

    # Until the block goes, each chain's transit into its section equals the
    # local load and transit out of it equals the local unload.
    for k, blk in enumerate(blocks, start=1):
        s = blk.section
        for h in hs:
            for t in steps:
                if removed(k, t):
                    continue
                for d in DIRECTIONS:
                    hit("block_gating",
                        abs(val(names.transit(h, t, s - d, d), 0.0)
                            - val(names.load(h, t, s, d), 0.0)), 1.0)
                    hit("block_gating",
                        abs(val(names.transit(h, t, s, d), 0.0)
                            - val(names.unload(h, t, s, d), 0.0)), 1.0)

    pairs, left_set, right_set = block_access_sets(instance)

    def region_check(ks: tuple[int, ...], lo_arc: int, hi_arc: int,
                     pit_ok) -> None:
        for h in hs:
            for t in steps:
                if any(removed(k, t) for k in ks):
                    continue
                for i in range(lo_arc, hi_arc):
                    hit("block_gating",
                        abs(val(names.transit(h, t, i, 1), 0.0)), 1.0)
                    hit("block_gating",
                        abs(val(names.transit(h, t, i + 1, -1), 0.0)), 1.0)
                for d in DIRECTIONS:
                    for j, pit in enumerate(instance.borrow_pits, start=1):
                        if pit_ok(pit.attached_section):
                            hit("block_gating",
                                abs(val(names.borrow(h, t, j, d), 0.0)), 1.0)
                    for w, pit in enumerate(instance.waste_pits, start=1):
                        if pit_ok(pit.attached_section):
                            hit("block_gating",
                                abs(val(names.waste(h, t, w, d), 0.0)), 1.0)

    for k1, k2 in pairs:
        s1, s2 = blocks[k1 - 1].section, blocks[k2 - 1].section
        region_check((k1, k2), s1, s2,
                     lambda sec: s1 <= sec - 1 and sec + 1 <= s2)
    for k in left_set:
        s = blocks[k - 1].section
        region_check((k,), 1, s, lambda sec: sec + 1 <= s)
    for k in right_set:
        s = blocks[k - 1].section
        region_check((k,), s, n, lambda sec: s <= sec - 1)

    # Removal bookkeeping.
    for k in range(1, n_blocks + 1):
        prev = None
        for t in steps:
            y = result.removal.get((k, t), 0.0)
            hit("bounds", abs(y - round(y)), 1.0)
            hit("bounds", max(0.0, -y, y - 1.0), 1.0)
            if prev is not None:
                hit("removal_logic", max(0.0, prev - y), 1.0)
            prev = y
    for u in range(1, n_blocks + 1):
        total = sum(result.removal.get((k, u), 0.0)
                    for k in range(1, n_blocks + 1))
        hit("removal_logic", max(0.0, float(u) - total), 1.0)
    for k, blk in enumerate(blocks, start=1):
        s = blk.section
        cut_needed = result.section_cut[s - 1]
        fill_needed = result.section_fill[s - 1]
        for u in steps:
            if result.removal.get((k, u), 0.0) < 0.5:
                continue
            unload = sum(_both_chains(val, names.unload, h, t, s)
                         for h in hs for t in range(u + 1))
            load = sum(_both_chains(val, names.load, h, t, s)
                       for h in hs for t in range(u + 1))
            hit("removal_logic", max(0.0, cut_needed - unload),
                abs(cut_needed))
            hit("removal_logic", max(0.0, fill_needed - load),
                abs(fill_needed))


def _check_flow_bounds(instance, names, hauls, steps, val, hit) -> None:
    n = instance.n
    for h in range(1, len(hauls) + 1):
        for t in steps:
            for d in DIRECTIONS:
                # The transit arc off the road's far end carries nothing.
                end = n if d > 0 else 1
                hit("bounds", abs(val(names.transit(h, t, end, d), 0.0)), 1.0)
                for i in range(1, n + 1):
                    for name in (names.transit(h, t, i, d),
                                 names.unload(h, t, i, d),
                                 names.load(h, t, i, d)):
                        hit("bounds", max(0.0, -val(name, 0.0)), 1.0)
                for j in range(1, len(instance.borrow_pits) + 1):
                    hit("bounds",
                        max(0.0, -val(names.borrow(h, t, j, d), 0.0)), 1.0)
                for k in range(1, len(instance.waste_pits) + 1):
                    hit("bounds",
                        max(0.0, -val(names.waste(h, t, k, d), 0.0)), 1.0)


def _check_ctg_flows(instance, names, result, hits) -> None:
    # Node totals are row and column sums of the (supply, demand) grid.
    n = instance.n
    flows = names.ctg_grid(result.values)
    out, into = flows.sum(axis=1), flows.sum(axis=0)
    for total, volume in ((out[:n], result.section_cut),
                          (into[:n], result.section_fill)):
        hits("balance", np.abs(total - np.array(volume)), np.abs(total))
    for total, used, pits in ((out[n:], result.borrow_used,
                               instance.borrow_pits),
                              (into[n:], result.waste_used,
                               instance.waste_pits)):
        capacity = np.array([pit.capacity for pit in pits], dtype=float)
        hits("balance", np.abs(total - np.array(used, dtype=float)),
             np.abs(total))
        hits("capacity", np.maximum(0.0, total - capacity), capacity)
    hits("bounds", np.maximum(0.0, -flows))


def recompute_cost(instance: RoadInstance, config: BuilderConfig,
                   result: AlignmentResult) -> float:
    """Objective re-derived from the decoded result's flows and volumes."""
    names = ArcIndex(instance)
    if config.model == "CTG":
        return _recompute_ctg(instance, names, result)
    hauls = effective_hauls(instance, config)
    steps = range(len(instance.blocks) + 1)
    n = instance.n
    stations = instance.stations

    total = 0.0
    for i in range(1, n + 1):
        mat = instance.material_of(i)
        total += mat.excavation * result.section_cut[i - 1]
        total += mat.embankment * result.section_fill[i - 1]

    val = result.values.get
    for h, haul in enumerate(hauls, start=1):
        for t in steps:
            for i in range(1, n + 1):
                for d in DIRECTIONS:
                    if 1 <= i + d <= n:
                        dist = d * (stations[i + d - 1] - stations[i - 1])
                        total += haul.unit_haul_cost * dist \
                            * val(names.transit(h, t, i, d), 0.0)
                total += haul.loading_cost \
                    * _both_chains(val, names.unload, h, t, i)
            for j, pit in enumerate(instance.borrow_pits, start=1):
                mat = instance.material_of(pit.attached_section)
                unit = mat.excavation + haul.loading_cost \
                    + haul.unit_haul_cost * pit.dead_haul
                total += unit * _both_chains(val, names.borrow, h, t, j)
            for k, pit in enumerate(instance.waste_pits, start=1):
                mat = instance.material_of(pit.attached_section)
                unit = mat.embankment + haul.unit_haul_cost * pit.dead_haul
                total += unit * _both_chains(val, names.waste, h, t, k)
    return total


def _recompute_ctg(instance: RoadInstance, names: ArcIndex,
                   result: AlignmentResult) -> float:
    stations = instance.stations

    def sites(nodes, rate: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(station, dead haul, material rate) per node."""
        rows = []
        for node in nodes:
            section, dead_haul = names.node_site(node)
            rows.append((stations[section - 1], dead_haul,
                         getattr(instance.material_of(section), rate)))
        return tuple(np.array(column) for column in zip(*rows))

    st_s, dead_s, exc_s = sites(names.supply_nodes, "excavation")
    st_d, dead_d, emb_d = sites(names.demand_nodes, "embankment")
    flows = names.ctg_grid(result.values)
    src, dst = np.nonzero(flows)  # row-major: the arcs' declaration order
    dist = np.abs(st_d[dst] - st_s[src]) + dead_s[src] + dead_d[dst]
    unit = exc_s[src] + cheapest_haul_costs(instance.cost_model.hauls, dist) \
        + emb_d[dst]
    total = 0.0
    for cost in (unit * flows[src, dst]).tolist():
        total += cost
    return total
