"""Independent re-check of decoded solutions.

Every constraint family is evaluated from first principles on the decoded
result (flow arithmetic, block reachability, spline evaluation), without
reusing the MILP rows. recompute_cost re-derives the objective from flows
and volumes by its own arithmetic.

No variable name is read here: AlignmentResult.flows indexes the decoded x
by the column ids of the builder's model.runs, once per result, into CTG's
(supply, demand) grid or flow_grid's arrays. That column layout is the only
thing shared with the model; conservation, balance, capacity, bounds,
block gating, removal and the re-priced cost are derived from the grids and
the instance data, never from the model's rows or cost vector. The instance
rules come from their one owner, as the builder's do: the segments and
local coordinates from the instance's frame (an instance checks itself when
made), the regions block gating closes from instance.sealed_regions, and
the CTG nodes' stations, dead hauls and rates from ArcIndex.node_sites.

Every family is computed on arrays and booked by one method,
ViolationReport.book: relative mode divides each residual by max(1, its
scale), and a NaN residual counts as a violation of size inf in its
family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from valign.builder import ArcIndex, BuilderConfig, effective_hauls
from valign.gateway import AlignmentResult, objectives_agree
from valign.instance import (
    RoadInstance,
    cheapest_haul_costs,
    sealed_regions,
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
    relative: bool = False
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

    def book(self, family: str, magnitudes, scales=1.0) -> None:
        """Book residuals into a family; relative mode divides each by
        max(1, its scale), and a NaN counts as a violation of size inf."""
        magnitudes = np.asarray(magnitudes, dtype=float)
        if self.relative:
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
    report = ViolationReport(tolerance, relative)
    _check_geometry(instance, config, result, report.book)
    if config.model == "CTG":
        _check_ctg_flows(instance, result, report.book)
    else:
        _check_flows(instance, result, report.book)
        _check_blocks(instance, result, report.book)
    return report


def _check_geometry(instance, config, result, book) -> None:
    frame = instance.frame
    span = frame.end - frame.start
    a1, a2, a3 = np.array(result.coefficients, dtype=float).T
    # Each segment's value and grade at its far end.
    end_val = a1 + a2 * span + a3 * span * span
    end_grad = a2 + 2.0 * a3 * span
    left_val, left_grad = end_val[:-1], end_grad[:-1]
    book("continuity", np.abs(left_val - a1[1:]),
         np.maximum(np.abs(left_val), np.abs(a1[1:])))
    book("continuity", np.abs(left_grad - a2[1:]),
         np.maximum(np.abs(left_grad), np.abs(a2[1:])))

    grades = np.concatenate((a2, end_grad))
    book("slope", np.maximum(0.0, instance.slope_lo - grades))
    book("slope", np.maximum(0.0, grades - instance.slope_hi))

    ground, area, lo, hi = np.array([
        (sec.ground_elevation, sec.area, sec.offset_lo, sec.offset_hi)
        for sec in instance.sections]).T
    seg, sigma = frame.segment, frame.sigma
    road = a1[seg] + a2[seg] * sigma + a3[seg] * sigma * sigma
    offset, cut, fill = (np.array(values, dtype=float) for values in (
        result.offsets, result.section_cut, result.section_fill))
    book("volume", np.abs(offset - (ground - road)), np.abs(ground))
    if config.volume_mode == "linear":
        book("volume", np.abs((cut - fill) - area * offset),
             np.abs(area * offset))
    else:
        # The curves' own interpolation: np.interp rounds differently.
        at = [(instance.curve_by_section[i], u)
              for i, u in enumerate(result.offsets, start=1)]
        book("volume", np.abs(cut - [c.cut_at(u) for c, u in at]),
             np.abs(cut))
        book("volume", np.abs(fill - [c.fill_at(u) for c, u in at]),
             np.abs(fill))
    book("bounds", np.maximum(0.0, lo - offset))
    book("bounds", np.maximum(0.0, offset - hi))
    book("bounds", np.maximum(0.0, -cut))
    book("bounds", np.maximum(0.0, -fill))

    for used, pits in ((result.borrow_used, instance.borrow_pits),
                       (result.waste_used, instance.waste_pits)):
        used = np.array(used, dtype=float)
        capacity = np.array([pit.capacity for pit in pits], dtype=float)
        book("bounds", np.maximum(0.0, -used))
        book("capacity", np.maximum(0.0, used - capacity), capacity)


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


def _check_balance(instance, result, book, totals) -> None:
    """Flow totals per section (cut, fill) and pit (borrow, waste) against
    the decoded volumes, and pit totals against capacity."""
    for total, volume, pits in zip(
            totals, (result.section_cut, result.section_fill,
                     result.borrow_used, result.waste_used),
            ((), (), instance.borrow_pits, instance.waste_pits)):
        book("balance", np.abs(total - np.array(volume, dtype=float)),
             np.abs(total))
        if pits:
            capacity = np.array([pit.capacity for pit in pits])
            book("capacity", np.maximum(0.0, total - capacity), capacity)


def _check_flows(instance, result, book) -> None:
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
    book("flow_conservation", np.abs(acc), scale)

    # Node totals: both chains, haul by haul and step by step.
    _check_balance(instance, result, book, [
        sum(step for haul in _chain_sum(arcs) for step in haul)
        for arcs in (unload, load, borrow, waste)])

    # The transit arc off the road's far end carries nothing.
    book("bounds", np.abs(transit[:, :, -1, 0]))
    book("bounds", np.abs(transit[:, :, 0, 1]))
    for arcs in flows:
        book("bounds", np.maximum(0.0, -arcs))


def _check_blocks(instance, result, book) -> None:
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
            book("block_gating",
                 np.abs(arcs[:, shut[k], s] - local[:, shut[k], s]))

    # A sealed region's transit arcs and the arcs of the pits it admits
    # carry nothing while none of its blocks is removed.
    for region in sealed_regions(instance):
        ks, lo, hi = region
        closed = shut[[k - 1 for k in ks]].all(axis=0)
        book("block_gating", np.abs(transit[:, closed, lo - 1:hi - 1, 0]))
        book("block_gating", np.abs(transit[:, closed, lo:hi, 1]))
        for arcs, pits in ((borrow, instance.borrow_pits),
                           (waste, instance.waste_pits)):
            inside = [region.admits(pit.attached_section) for pit in pits]
            book("block_gating", np.abs(arcs[:, closed][:, :, inside]))

    # Removal bookkeeping: indicators are binary and final, and by the end
    # of step u at least u blocks are gone.
    book("bounds", np.abs(y - np.round(y)))
    book("bounds", np.maximum(0.0, np.maximum(-y, y - 1.0)))
    book("removal_logic", np.maximum(0.0, y[:, :-1] - y[:, 1:]))
    book("removal_logic",
         np.maximum(0.0, np.arange(1, len(steps)) - sum(y[:, 1:])))
    # A block flagged removed by step u had its cut and fill moved by then:
    # both chains, haul by haul and step by step through step u.
    # The sums stay Python's, in that order: a numpy sum rounds differently.
    needed, moved = [], []
    for k, blk in enumerate(blocks):
        s = blk.section - 1
        for u in steps:
            if y[k, u] < 0.5:
                continue
            for arcs, volume in ((unload, result.section_cut[s]),
                                 (load, result.section_fill[s])):
                needed.append(volume)
                moved.append(
                    sum(_chain_sum(arcs[:, :u + 1, s]).ravel().tolist()))
    book("removal_logic", np.maximum(0.0, np.subtract(needed, moved)),
         np.abs(needed))


def _check_ctg_flows(instance, result, book) -> None:
    # Node totals are row and column sums of the (supply, demand) grid.
    n = instance.n
    grid, = result.flows
    out, into = grid.sum(axis=1), grid.sum(axis=0)
    _check_balance(instance, result, book,
                   (out[:n], into[:n], out[n:], into[n:]))
    book("bounds", np.maximum(0.0, -grid))


def repricing_error(recomputed: float, objective: float) -> str:
    """Why a re-priced cost disagrees with the solver's objective, or ""
    when the two agree as decode requires (objectives_agree)."""
    if objectives_agree(recomputed, objective):
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
    names = ArcIndex(instance)
    st_s, dead_s, exc_s, _ = names.node_sites(names.supply_nodes)
    st_d, dead_d, _, emb_d = names.node_sites(names.demand_nodes)
    flows, = result.flows
    src, dst = np.nonzero(flows)  # row-major: the arcs' declaration order
    dist = np.abs(st_d[dst] - st_s[src]) + dead_s[src] + dead_d[dst]
    unit = exc_s[src] + cheapest_haul_costs(instance.cost_model.hauls, dist) \
        + emb_d[dst]
    total = 0.0
    for cost in (unit * flows[src, dst]).tolist():
        total += cost
    return total
