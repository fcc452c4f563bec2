"""Brute-force ground truth for small instances.

Two pieces: an exact min-cost transportation solver for earthwork allocation
at fixed cut/fill volumes, and an offset-grid enumerator that scans all grid
combinations of section offsets, keeps those through which a feasible
quadratic profile passes, and prices each with the transportation solver.

Everything here is independent of the MILP construction: costs are assembled
from the domain cost model only, and the allocation optimum comes from a
successive-shortest-path network flow, not from an LP. Profiles are fitted
over the instance's frame, and a RoadInstance is checked when it is made.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from valign.instance import HaulClass, RoadInstance, cheapest_haul


class OracleInfeasible(ValueError):
    """No feasible allocation or alignment exists for the request."""


@dataclass(frozen=True, slots=True)
class FlowNode:
    """Supply or demand endpoint of the transportation problem.

    Firm nodes (sections) must ship/receive exactly `volume`; non-firm nodes
    (pits) may move anything in [0, volume]. unit_cost is charged per m3 that
    actually moves through the node; dead_haul extends every arc touching the
    node.
    """

    label: Hashable
    volume: float
    unit_cost: float
    station: float
    dead_haul: float = 0.0
    firm: bool = True


@dataclass(frozen=True, slots=True)
class TransportationProblem:
    supplies: tuple[FlowNode, ...]
    demands: tuple[FlowNode, ...]
    hauls: tuple[HaulClass, ...]

    def arc_cost(self, sup: FlowNode, dem: FlowNode) -> float | None:
        """Per-m3 cost from sup to dem; None for forbidden arcs."""
        if not sup.firm and not dem.firm:
            return None  # pit-to-pit movement is never part of a plan
        dist = abs(sup.station - dem.station) + sup.dead_haul + dem.dead_haul
        return sup.unit_cost + cheapest_haul(self.hauls, dist)[1] + dem.unit_cost


def solve_transportation(problem: TransportationProblem
                         ) -> tuple[dict[tuple[Hashable, Hashable], float], float]:
    """Exact optimum by successive shortest paths with potentials.

    Returns ({(supply label, demand label): m3}, total cost). Raises
    OracleInfeasible when the firm volumes cannot balance. Integral volumes
    yield an integral flow plan (augmentation amounts are mins of integers).
    """
    sups = [s for s in problem.supplies if s.volume > 0]
    dems = [d for d in problem.demands if d.volume > 0]
    firm_s = sum(s.volume for s in sups if s.firm)
    firm_d = sum(d.volume for d in dems if d.firm)
    cap_b = sum(s.volume for s in sups if not s.firm)
    cap_w = sum(d.volume for d in dems if not d.firm)
    scale = max(1.0, firm_s + firm_d + cap_b + cap_w)
    tol = 1e-9 * scale
    if firm_s > firm_d + cap_w + tol:
        raise OracleInfeasible("total cut exceeds fill plus waste capacity")
    if firm_d > firm_s + cap_b + tol:
        raise OracleInfeasible("total fill exceeds cut plus borrow capacity")

    # Node ids: supplies, then demands, then one slack transshipment node
    # that absorbs unused pit capacity so the network balances exactly.
    ns, nd = len(sups), len(dems)
    slack = ns + nd
    n_nodes = ns + nd + 1
    big = firm_s + firm_d + cap_b + cap_w + 1.0

    excess = [0.0] * n_nodes
    for i, s in enumerate(sups):
        excess[i] = s.volume
    for j, d in enumerate(dems):
        excess[ns + j] = -d.volume
    excess[slack] = (firm_d + cap_w) - (firm_s + cap_b)

    # Paired residual arcs: arc a and a^1 are mutual reverses.
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    arc_to: list[int] = []
    arc_cap: list[float] = []
    arc_cost: list[float] = []

    def add_arc(u: int, v: int, cost: float) -> None:
        adj[u].append(len(arc_to))
        arc_to.append(v)
        arc_cap.append(big)
        arc_cost.append(cost)
        adj[v].append(len(arc_to))
        arc_to.append(u)
        arc_cap.append(0.0)
        arc_cost.append(-cost)

    real_arcs: list[tuple[int, int, int, float]] = []  # (arc id, sup idx, dem idx, cost)
    for i, s in enumerate(sups):
        for j, d in enumerate(dems):
            cost = problem.arc_cost(s, d)
            if cost is not None:
                real_arcs.append((len(arc_to), i, j, cost))
                add_arc(i, ns + j, cost)
        if not s.firm:
            add_arc(i, slack, 0.0)
    for j, d in enumerate(dems):
        if not d.firm:
            add_arc(slack, ns + j, 0.0)

    pot = [0.0] * n_nodes
    while True:
        sources = [u for u in range(n_nodes) if excess[u] > tol]
        if not sources:
            break
        dist = [math.inf] * n_nodes
        prev_arc = [-1] * n_nodes
        heap: list[tuple[float, int]] = []
        for u in sources:
            dist[u] = 0.0
            heapq.heappush(heap, (0.0, u))
        while heap:
            d_u, u = heapq.heappop(heap)
            if d_u > dist[u] + 1e-12:
                continue
            for aid in adj[u]:
                if arc_cap[aid] <= tol:
                    continue
                v = arc_to[aid]
                nd_v = d_u + arc_cost[aid] + pot[u] - pot[v]
                if nd_v < dist[v] - 1e-12:
                    dist[v] = nd_v
                    prev_arc[v] = aid
                    heapq.heappush(heap, (nd_v, v))
        target = -1
        best = math.inf
        for v in range(n_nodes):
            if excess[v] < -tol and dist[v] < best:
                best = dist[v]
                target = v
        if target < 0:
            raise OracleInfeasible("no augmenting path between unbalanced nodes")

        # Bottleneck along the path, then push.
        amount = -excess[target]
        v = target
        while prev_arc[v] >= 0:
            aid = prev_arc[v]
            amount = min(amount, arc_cap[aid])
            v = arc_to[aid ^ 1]
        amount = min(amount, excess[v])
        v = target
        while prev_arc[v] >= 0:
            aid = prev_arc[v]
            arc_cap[aid] -= amount
            arc_cap[aid ^ 1] += amount
            v = arc_to[aid ^ 1]
        excess[v] -= amount
        excess[target] += amount
        if abs(excess[v]) < tol:
            excess[v] = 0.0
        if abs(excess[target]) < tol:
            excess[target] = 0.0
        for u in range(n_nodes):
            if dist[u] < math.inf:
                pot[u] += min(dist[u], best)
            else:
                pot[u] += best

    flows: dict[tuple[Hashable, Hashable], float] = {}
    total = 0.0
    for aid, i, j, cost in real_arcs:
        moved = arc_cap[aid ^ 1]  # reverse residual equals pushed flow
        if moved > tol:
            flows[(sups[i].label, dems[j].label)] = moved
            total += cost * moved
    return flows, total


def earthwork_problem(instance: RoadInstance,
                      cut: Sequence[float],
                      fill: Sequence[float]) -> TransportationProblem:
    """Transportation problem for given per-section cut/fill volumes."""
    supplies: list[FlowNode] = []
    demands: list[FlowNode] = []
    for i in range(1, instance.n + 1):
        mat = instance.material_of(i)
        st = instance.stations[i - 1]
        if cut[i - 1] > 0:
            supplies.append(FlowNode(("cut", i), cut[i - 1], mat.excavation, st))
        if fill[i - 1] > 0:
            demands.append(FlowNode(("fill", i), fill[i - 1], mat.embankment, st))
    for j, pit in enumerate(instance.borrow_pits, start=1):
        mat = instance.material_of(pit.attached_section)
        st = instance.stations[pit.attached_section - 1]
        supplies.append(FlowNode(("borrow", j), pit.capacity, mat.excavation,
                                 st, pit.dead_haul, firm=False))
    for k, pit in enumerate(instance.waste_pits, start=1):
        mat = instance.material_of(pit.attached_section)
        st = instance.stations[pit.attached_section - 1]
        demands.append(FlowNode(("waste", k), pit.capacity, mat.embankment,
                                st, pit.dead_haul, firm=False))
    return TransportationProblem(tuple(supplies), tuple(demands),
                                 instance.cost_model.hauls)


def section_volumes(instance: RoadInstance,
                    offsets: Sequence[float]) -> tuple[list[float], list[float]]:
    """Cut/fill per section from offsets (piecewise curves when present).
    Raises ValueError unless offsets holds one finite value per section."""
    if len(offsets) != instance.n:
        raise ValueError(f"need {instance.n} offsets, got {len(offsets)}")
    for i, u in enumerate(offsets, start=1):
        if not math.isfinite(u):
            raise ValueError(f"offset of section {i} is not finite: {u!r}")
    cut: list[float] = []
    fill: list[float] = []
    for i in range(1, instance.n + 1):
        u = offsets[i - 1]
        curve = instance.curve_by_section.get(i)
        if curve is not None:
            cut.append(curve.cut_at(u))
            fill.append(curve.fill_at(u))
        else:
            area = instance.section(i).area
            cut.append(area * max(u, 0.0))
            fill.append(area * max(-u, 0.0))
    return cut, fill


def allocation_cost(instance: RoadInstance, offsets: Sequence[float]) -> float:
    """Total earthwork cost at fixed offsets: excavation + embankment +
    loading + hauling, by the transportation oracle. Raises ValueError as
    section_volumes does."""
    cut, fill = section_volumes(instance, offsets)
    _, cost = solve_transportation(earthwork_problem(instance, cut, fill))
    return cost


def fit_profile(instance: RoadInstance,
                heights: Sequence[float]) -> tuple[tuple[float, float, float], float]:
    """Least-squares quadratic through (local coordinate, height) points of a
    single-segment road; returns (coefficients, max residual)."""
    sigma = instance.frame.sigma
    h = np.asarray(heights, dtype=float)
    if len(h) == 1:
        return (float(h[0]), 0.0, 0.0), 0.0
    if len(h) == 2:
        a2 = (h[1] - h[0]) / (sigma[1] - sigma[0])
        coeffs = (float(h[0] - a2 * sigma[0]), float(a2), 0.0)
    else:
        vand = np.column_stack([np.ones_like(sigma), sigma, sigma * sigma])
        sol, *_ = np.linalg.lstsq(vand, h, rcond=None)
        coeffs = (float(sol[0]), float(sol[1]), float(sol[2]))
    fitted = coeffs[0] + coeffs[1] * sigma + coeffs[2] * sigma * sigma
    return coeffs, float(np.max(np.abs(fitted - h)))


MAX_SECTIONS = 8
MAX_GRID = 5


def enumerate_optimal(instance: RoadInstance,
                      grids: Sequence[Sequence[float]],
                      fit_tol: float = 1e-6,
                      slope_tol: float = 1e-9
                      ) -> tuple[tuple[float, ...], float]:
    """Exhaustive optimum over per-section offset grids.

    Scans every combination, keeps those whose section heights admit a
    quadratic profile (exact for <= 3 sections, least-squares within fit_tol
    otherwise) with endpoint grades inside the slope bounds, and prices each
    survivor with the transportation solver. Returns the cheapest
    (offsets, cost); ties break lexicographically on offsets.
    """
    if instance.blocks:
        raise ValueError("offset enumeration does not support blocks")
    if instance.segment_layout.segment_count != 1:
        raise ValueError("offset enumeration requires a single-segment road")
    if instance.n > MAX_SECTIONS:
        raise ValueError(f"too many sections for enumeration (max {MAX_SECTIONS})")
    if len(grids) != instance.n:
        raise ValueError("need one offset grid per section")
    for i, grid in enumerate(grids, start=1):
        if not grid or len(grid) > MAX_GRID:
            raise ValueError(f"grid for section {i}: need 1..{MAX_GRID} values")
        sec = instance.section(i)
        for v in grid:
            if not sec.offset_lo - 1e-12 <= v <= sec.offset_hi + 1e-12:
                raise ValueError(f"grid value {v} outside offset bounds of section {i}")

    road_len = instance.stations[-1] - instance.stations[0]
    ground = [s.ground_elevation for s in instance.sections]
    best: tuple[float, tuple[float, ...]] | None = None
    for combo in itertools.product(*grids):
        heights = [e - u for e, u in zip(ground, combo)]
        coeffs, resid = fit_profile(instance, heights)
        if resid > fit_tol:
            continue
        grade_start = coeffs[1]
        grade_end = coeffs[1] + 2.0 * coeffs[2] * road_len
        lo, hi = instance.slope_lo - slope_tol, instance.slope_hi + slope_tol
        if not (lo <= grade_start <= hi and lo <= grade_end <= hi):
            continue
        try:
            cost = allocation_cost(instance, combo)
        except OracleInfeasible:
            continue
        key = (cost, tuple(combo))
        if best is None or key < best:
            best = key
    if best is None:
        raise OracleInfeasible("no feasible offset combination on the grid")
    return best[1], best[0]
