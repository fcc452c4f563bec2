"""Independent re-check of decoded solutions.

Every constraint family is evaluated from first principles on the decoded
result (flow arithmetic, block reachability, spline evaluation), without
reusing the MILP rows. recompute_cost re-derives the objective from flows
and volumes by its own arithmetic.

No variable name is read here: AlignmentResult.flows indexes the decoded x
by the column ids of the builder's model.runs, once per result, into CTG's
(supply, demand) grid or flow_grid's arrays. That column layout is the only
thing shared with the builder; conservation, balance, capacity, bounds,
block gating, removal and the re-priced cost are derived from the grids and
the instance data, never from the model's rows or cost vector. A NaN
residual counts as a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from valign.builder import ArcIndex, BuilderConfig, effective_hauls
from valign.gateway import OBJECTIVE_RTOL, AlignmentResult
from valign.instance import (
    RoadInstance,
    block_access_sets,
    cheapest_haul_costs,
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
        """Book one residual; a NaN counts as a violation of size inf."""
        if relative:
            magnitude = magnitude / max(1.0, scale)
        if math.isnan(magnitude):
            magnitude = math.inf
        fam = self.families[family]
        fam.worst = max(fam.worst, magnitude)
        if magnitude > self.tolerance:
            fam.count += 1

    def _hits(self, family: str, magnitudes: np.ndarray,
              scales: np.ndarray | float, relative: bool) -> None:
        """_hit over an array."""
        if relative:
            magnitudes = magnitudes / np.maximum(1.0, scales)
        if magnitudes.size:
            magnitudes = np.where(np.isnan(magnitudes), np.inf, magnitudes)
            fam = self.families[family]
            worst = float(magnitudes.max())
            fam.worst = max(fam.worst, worst)
            fam.count += int(np.count_nonzero(magnitudes > self.tolerance))


def validate(instance: RoadInstance, config: BuilderConfig,
             result: AlignmentResult, tolerance: float = 1e-6,
             relative: bool = False) -> ViolationReport:
    instance.check()
    report = ViolationReport(tolerance=tolerance)

    def hit(family: str, magnitude: float, scale: float = 1.0) -> None:
        report._hit(family, magnitude, scale, relative)

    def hits(family: str, magnitudes: np.ndarray,
             scales: np.ndarray | float = 1.0) -> None:
        report._hits(family, magnitudes, scales, relative)

    _check_geometry(instance, config, result, hit)
    if config.model == "CTG":
        _check_ctg_flows(instance, result, hits)
    else:
        _check_flows(instance, result, hits)
        _check_blocks(instance, result, hit, hits)
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


def _transit_in(transit: np.ndarray) -> np.ndarray:
    """Transit into each chain node from its predecessor i-d; none enters
    the node a chain starts from."""
    into = np.zeros_like(transit)
    into[:, :, 1:, 0] = transit[:, :, :-1, 0]
    into[:, :, :-1, 1] = transit[:, :, 1:, 1]
    return into


def _chain_sum(arcs: np.ndarray) -> np.ndarray:
    """Both chains of each (haul, step, node) added: the last axis summed."""
    return arcs[..., 0] + arcs[..., 1]


def _check_balance(instance, result, hits, totals) -> None:
    """Flow totals per section (cut, fill) and pit (borrow, waste) against
    the decoded volumes, and pit totals against capacity."""
    for total, volume, pits in zip(
            totals, (result.section_cut, result.section_fill,
                     result.borrow_used, result.waste_used),
            ((), (), instance.borrow_pits, instance.waste_pits)):
        hits("balance", np.abs(total - np.array(volume, dtype=float)),
             np.abs(total))
        if pits:
            capacity = np.array([pit.capacity for pit in pits])
            hits("capacity", np.maximum(0.0, total - capacity), capacity)


def _check_flows(instance, result, hits) -> None:
    """Conservation, balance, pit capacity and flow bounds on the grid."""
    flows = result.flows
    transit, unload, load, borrow, waste = flows
    into = _transit_in(transit)
    acc = unload + into
    scale = np.abs(unload) + np.abs(into)
    # One pit at a time: pits can share a section.
    for j, pit in enumerate(instance.borrow_pits):
        acc[:, :, pit.attached_section - 1] += borrow[:, :, j]
    acc -= transit
    acc -= load
    for k, pit in enumerate(instance.waste_pits):
        acc[:, :, pit.attached_section - 1] -= waste[:, :, k]
    hits("flow_conservation", np.abs(acc), scale)

    # Node totals: both chains, haul by haul and step by step.
    _check_balance(instance, result, hits, [
        sum(step for haul in _chain_sum(arcs) for step in haul)
        for arcs in (unload, load, borrow, waste)])

    # The transit arc off the road's far end carries nothing.
    hits("bounds", np.abs(transit[:, :, -1, 0]))
    hits("bounds", np.abs(transit[:, :, 0, 1]))
    for arcs in flows:
        hits("bounds", np.maximum(0.0, -arcs))


def _check_blocks(instance, result, hit, hits) -> None:
    blocks = instance.sorted_blocks
    if not blocks:
        return
    transit, unload, load, borrow, waste = result.flows
    steps = range(transit.shape[1])
    y = np.array([[result.removal.get((k, t), 0.0) for t in steps]
                  for k in range(1, len(blocks) + 1)])
    # Gate state for step t is the indicator at the end of step t-1.
    shut = np.ones(y.shape, dtype=bool)
    shut[:, 1:] = ~(y[:, :-1] >= 0.5)

    # Until the block goes, each chain's transit into its section equals the
    # local load and transit out of it equals the local unload.
    into = _transit_in(transit)
    for k, blk in enumerate(blocks):
        s = blk.section - 1
        for arcs, local in ((into, load), (transit, unload)):
            hits("block_gating",
                 np.abs(arcs[:, shut[k], s] - local[:, shut[k], s]))

    pairs, left_set, right_set = block_access_sets(instance)

    def region_check(ks: tuple[int, ...], lo_arc: int, hi_arc: int,
                     pit_ok) -> None:
        # Transit arcs (i, i+1) with lo_arc <= i, i+1 <= hi_arc, and the arcs
        # of the pits pit_ok admits, while no block of ks is removed.
        closed = shut[[k - 1 for k in ks]].all(axis=0)
        rightward = transit[:, closed, lo_arc - 1:hi_arc - 1, 0]  # i -> i+1
        leftward = transit[:, closed, lo_arc:hi_arc, 1]  # i+1 -> i
        hits("block_gating", np.abs(rightward))
        hits("block_gating", np.abs(leftward))
        for arcs, pits in ((borrow, instance.borrow_pits),
                           (waste, instance.waste_pits)):
            ok = [pit_ok(pit.attached_section) for pit in pits]
            hits("block_gating", np.abs(arcs[:, closed][:, :, ok]))

    for k1, k2 in pairs:
        s1, s2 = blocks[k1 - 1].section, blocks[k2 - 1].section
        region_check((k1, k2), s1, s2,
                     lambda sec: s1 <= sec - 1 and sec + 1 <= s2)
    for k in left_set:
        s = blocks[k - 1].section
        region_check((k,), 1, s, lambda sec: sec + 1 <= s)
    for k in right_set:
        s = blocks[k - 1].section
        region_check((k,), s, instance.n, lambda sec: s <= sec - 1)

    # Removal bookkeeping: indicators are binary and final, and by the end
    # of step u at least u blocks are gone.
    hits("bounds", np.abs(y - np.round(y)))
    hits("bounds", np.maximum(0.0, np.maximum(-y, y - 1.0)))
    hits("removal_logic", np.maximum(0.0, y[:, :-1] - y[:, 1:]))
    hits("removal_logic",
         np.maximum(0.0, np.arange(1, len(steps)) - sum(y[:, 1:])))
    # A block flagged removed by step u had its cut and fill moved by then:
    # both chains, haul by haul and step by step through step u.
    for k, blk in enumerate(blocks):
        s = blk.section - 1
        for u in steps:
            if y[k, u] < 0.5:
                continue
            for arcs, needed in ((unload, result.section_cut[s]),
                                 (load, result.section_fill[s])):
                moved = sum(_chain_sum(arcs[:, :u + 1, s]).ravel().tolist())
                hit("removal_logic", max(0.0, needed - moved), abs(needed))


def _check_ctg_flows(instance, result, hits) -> None:
    # Node totals are row and column sums of the (supply, demand) grid.
    n = instance.n
    grid, = result.flows
    out, into = grid.sum(axis=1), grid.sum(axis=0)
    _check_balance(instance, result, hits,
                   (out[:n], into[:n], out[n:], into[n:]))
    hits("bounds", np.maximum(0.0, -grid))


def repricing_error(recomputed: float, objective: float) -> str:
    """Why a re-priced cost disagrees with the solver's objective, or ""
    when the two agree to OBJECTIVE_RTOL relative (absolute below 1); a NaN
    on either side disagrees."""
    if abs(recomputed - objective) <= OBJECTIVE_RTOL * max(1.0,
                                                          abs(objective)):
        return ""
    return f"recomputed cost {recomputed!r} != objective {objective!r}"


def recompute_cost(instance: RoadInstance, config: BuilderConfig,
                   result: AlignmentResult) -> float:
    """Objective re-derived from the decoded result's flows and volumes."""
    if config.model == "CTG":
        return _recompute_ctg(instance, result)
    hauls = effective_hauls(instance, config)
    n = instance.n

    total = 0.0
    for i in range(1, n + 1):
        mat = instance.material_of(i)
        total += mat.excavation * result.section_cut[i - 1]
        total += mat.embankment * result.section_fill[i - 1]

    transit, unload, _, borrow, waste = result.flows
    # A transit arc off the road has distance 0, so it adds a zero term.
    dist = np.zeros((n, 2))  # (section, chain): distance from i to i+d
    dist[:-1, 0] = dist[1:, 1] = np.diff(instance.stations)
    for h, haul in enumerate(hauls):
        # Per step: each section's transit on both chains and its loading,
        # then each borrow pit, then each waste pit.
        sections = np.concatenate(
            (haul.unit_haul_cost * dist * transit[h],
             (haul.loading_cost * _chain_sum(unload[h]))[..., None]), axis=2)
        borrow_unit = np.array([
            instance.material_of(pit.attached_section).excavation
            + haul.loading_cost + haul.unit_haul_cost * pit.dead_haul
            for pit in instance.borrow_pits])
        waste_unit = np.array([
            instance.material_of(pit.attached_section).embankment
            + haul.unit_haul_cost * pit.dead_haul
            for pit in instance.waste_pits])
        terms = np.concatenate(
            (sections.reshape(len(sections), -1),
             borrow_unit * _chain_sum(borrow[h]),
             waste_unit * _chain_sum(waste[h])), axis=1)
        for term in terms.ravel().tolist():
            total += term
    return total


def _recompute_ctg(instance: RoadInstance, result: AlignmentResult) -> float:
    names, stations = ArcIndex(instance), instance.stations

    def sites(nodes, rate: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(station, dead haul, material rate) per node."""
        rows = [(stations[s - 1], dead, getattr(instance.material_of(s), rate))
                for s, dead in map(names.node_site, nodes)]
        return tuple(np.array(column) for column in zip(*rows))

    st_s, dead_s, exc_s = sites(names.supply_nodes, "excavation")
    st_d, dead_d, emb_d = sites(names.demand_nodes, "embankment")
    flows, = result.flows
    src, dst = np.nonzero(flows)  # row-major: the arcs' declaration order
    dist = np.abs(st_d[dst] - st_s[src]) + dead_s[src] + dead_d[dst]
    unit = exc_s[src] + cheapest_haul_costs(instance.cost_model.hauls, dist) \
        + emb_d[dst]
    total = 0.0
    for cost in (unit * flows[src, dst]).tolist():
        total += cost
    return total
