"""Benchmark harness: suite generation, run matrix, accuracy, profiles.

The suite generator produces seeded synthetic instances over the published
road geometries (length, section spacing, section count). The run matrix
solves every (instance, config) cell through the solver gateway, validates
each solution independently before it may count as successful, and emits
three CSV reports: per-cell wall times, per-config accuracy summaries, and
performance-profile curves.
"""

from __future__ import annotations

import csv
import math
import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from valign.builder import build, named_config
from valign.gateway import decode, solve
from valign.instance import (
    AccessRoad,
    Block,
    Pit,
    RoadInstance,
    Section,
    SegmentLayout,
    default_cost_model,
)
from valign.instance_io import RunConfig, write_instance
from valign.validate import recompute_cost, repricing_error, validate

SUCCESS_THRESHOLD = 0.01  # inclusive, on |relative_error|


@dataclass(frozen=True, slots=True)
class RoadTemplate:
    name: str
    length_km: float
    section_length_m: float
    sections: int


ROAD_TEMPLATES: dict[str, RoadTemplate] = {
    "A": RoadTemplate("A", 1.0, 20.0, 50),
    "B": RoadTemplate("B", 5.0, 100.0, 50),
    "C": RoadTemplate("C", 2.0, 20.0, 100),
    "D": RoadTemplate("D", 3.0, 20.0, 150),
    "E": RoadTemplate("E", 15.0, 100.0, 150),
    "F": RoadTemplate("F", 20.0, 100.0, 200),
    "G": RoadTemplate("G", 9.0, 20.0, 450),
}


def generate_instance(seed: int, template: RoadTemplate, variant: int,
                      blocks: int = 0, pits: int = 0,
                      access_roads: int | None = None) -> RoadInstance:
    """One deterministic synthetic instance over a road geometry.

    Terrain is a gentle trend plus two low-frequency waves plus bounded
    noise; the offset window always contains the trend line, so every
    instance admits a feasible alignment. Block instances always get at
    least one access road so earthwork can start somewhere.
    """
    rng = random.Random(f"{seed}:{template.name}:{variant}:{blocks}:{pits}")
    n = template.sections
    spacing = template.section_length_m
    length = spacing * (n - 1)

    base = rng.uniform(80.0, 120.0)
    trend = rng.uniform(-0.03, 0.03)
    waves = [(rng.uniform(0.4, 1.4),
              rng.uniform(length / 6.0, length / 2.0),
              rng.uniform(0.0, 2.0 * math.pi)) for _ in range(2)]
    noise = 0.25
    offset_level = rng.choice([4.0, 5.0, 6.0])

    sections = []
    for i in range(n):
        s = spacing * i
        elev = base + trend * s + sum(
            amp * math.sin(2.0 * math.pi * s / wavelength + phase)
            for amp, wavelength, phase in waves)
        elev += rng.uniform(-noise, noise)
        sections.append(Section(
            index=i + 1, station=s, ground_elevation=elev,
            area=rng.uniform(80.0, 120.0),
            material=rng.choices((1, 2, 3, 4), weights=(55, 20, 5, 20))[0],
            offset_lo=-offset_level, offset_hi=offset_level))

    sizes: list[int] = []
    remaining = n
    while remaining > 0:
        size = rng.randint(8, 15)
        if remaining - size < 5:
            size = remaining
        sizes.append(min(size, remaining))
        remaining -= sizes[-1]

    interior = list(range(2, n))
    block_secs = sorted(rng.sample(interior, k=min(blocks, len(interior))))
    pit_objs: list[Pit] = []
    for _ in range(pits):
        kind = rng.choice(("borrow", "waste"))
        pit_objs.append(Pit(
            kind=kind, attached_section=rng.choice(interior),
            capacity=rng.uniform(2000.0, 20000.0),
            dead_haul=rng.uniform(10.0, 200.0)))
    borrow = tuple(p for p in pit_objs if p.kind == "borrow")
    waste = tuple(p for p in pit_objs if p.kind == "waste")

    if access_roads is None:
        access_roads = rng.randint(0, 2)
    if block_secs:
        access_roads = max(1, access_roads)
    access_pool = [i for i in range(1, n + 1) if i not in block_secs]
    access = tuple(AccessRoad(section=s) for s in
                   sorted(rng.sample(access_pool,
                                     k=min(access_roads, len(access_pool)))))

    return RoadInstance(
        sections=tuple(sections),
        segment_layout=SegmentLayout(tuple(sizes)),
        cost_model=default_cost_model(),
        borrow_pits=borrow,
        waste_pits=waste,
        blocks=tuple(Block(section=s) for s in block_secs),
        access_roads=access,
    )


def generate_suite(seed: int, road_templates: Sequence[str | RoadTemplate],
                   out_dir: str, variants: int = 3, max_blocks: int = 3,
                   max_pits: int = 2) -> list[str]:
    """Write a deterministic instance suite; returns the file paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for entry in road_templates:
        template = ROAD_TEMPLATES[entry] if isinstance(entry, str) else entry
        for variant in range(1, variants + 1):
            rng = random.Random(f"{seed}:sprinkle:{template.name}:{variant}")
            blocks = rng.randint(0, max_blocks)
            pits = rng.randint(0, max_pits)
            instance = generate_instance(seed, template, variant,
                                         blocks=blocks, pits=pits)
            path = os.path.join(out_dir,
                                f"{template.name}-{variant:02d}.json")
            write_instance(instance, path)
            paths.append(path)
    return paths


def relative_error(obj_s: float, obj_b: float) -> float:
    """Signed relative deviation of obj_s from the benchmark obj_b."""
    if obj_b == 0.0:
        if obj_s == 0.0:
            return 0.0
        raise ValueError("relative_error undefined for zero benchmark")
    return (obj_s - obj_b) / obj_b


def is_success(status: str, error: float | None, validated: bool) -> bool:
    if status not in ("optimal", "feasible") or not validated:
        return False
    return error is not None and abs(error) <= SUCCESS_THRESHOLD


@dataclass(frozen=True)
class BenchmarkRecord:
    instance: str
    config: str
    status: str
    objective: float | None
    wall_time: float
    relative_error: float | None
    success: bool
    reason: str = ""  # why the cell failed, when known


@dataclass(frozen=True)
class ProfileCurve:
    config: str
    points: tuple[tuple[float, float], ...]

    def rho(self, alpha: float) -> float:
        best = 0.0
        for a, r in self.points:
            if a <= alpha:
                best = r
        return best

    @property
    def success_rate(self) -> float:
        return self.points[-1][1] if self.points else 0.0


def performance_profile(records: Sequence[BenchmarkRecord]
                        ) -> list[ProfileCurve]:
    """Time-ratio cumulative curves over the successful runs."""
    instances = sorted({r.instance for r in records})
    configs = sorted({r.config for r in records})
    if not instances or not configs:
        return []
    by_cell = {(r.instance, r.config): r for r in records}

    ratios: dict[str, list[float]] = {c: [] for c in configs}
    for inst in instances:
        times = {}
        for cfg in configs:
            rec = by_cell.get((inst, cfg))
            if rec is not None and rec.success:
                times[cfg] = rec.wall_time
        best = min(times.values()) if times else None
        for cfg in configs:
            if cfg in times and best is not None:
                ratios[cfg].append(max(1.0, times[cfg] / best)
                                   if best > 0 else 1.0)
            else:
                ratios[cfg].append(math.inf)

    total = len(instances)
    alphas = sorted({r for rs in ratios.values() for r in rs
                     if math.isfinite(r)})
    curves = []
    for cfg in configs:
        points = tuple(
            (alpha, sum(1 for r in ratios[cfg] if r <= alpha) / total)
            for alpha in alphas)
        curves.append(ProfileCurve(cfg, points))
    return curves


def benchmark_config_name(instance: RoadInstance) -> str:
    """Error baseline: transportation-graph model when blocks permit it."""
    return "MQN-B" if instance.blocks else "CTG-B"


@dataclass(frozen=True)
class _CellOutcome:
    status: str
    objective: float | None
    wall_time: float
    validated: bool
    reason: str = ""


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_cell(instance: RoadInstance, config_name: str,
              run: RunConfig) -> _CellOutcome:
    try:
        config = named_config(config_name)
        model = build(instance, config)
    except Exception as exc:
        return _CellOutcome("error", None, 0.0, False, _reason(exc))
    try:
        solution = solve(model, run.solver_command, run.limits)
    except Exception as exc:
        return _CellOutcome("error", None, 0.0, False, _reason(exc))
    if solution.status not in ("optimal", "feasible"):
        return _CellOutcome(solution.status, None, solution.wall_time, False,
                            solution.message)
    reason = ""
    try:
        result = decode(solution, instance, model)
        report = validate(instance, config, result,
                          tolerance=run.limits.feasibility_tol)
        recomputed = recompute_cost(instance, config, result)
        if not report.passed:
            reason = "validation failed: " + ", ".join(
                f"{name} {fam.worst:g}"
                for name, fam in report.families.items()
                if fam.worst > report.tolerance)
        else:
            reason = repricing_error(recomputed, result.objective)
    except Exception as exc:
        reason = _reason(exc)
    return _CellOutcome(solution.status, solution.objective,
                        solution.wall_time, not reason, reason)


def run_matrix(suite: Sequence[tuple[str, RoadInstance]],
               configs: Sequence[str], run: RunConfig,
               out_dir: str | None = None, workers: int = 4,
               progress: Callable[[str], None] | None = None
               ) -> list[BenchmarkRecord]:
    """Solve every (instance, config) cell; cell failures never abort."""
    config_list = list(configs)
    jobs: list[tuple[str, RoadInstance, str]] = []
    hidden: list[tuple[str, RoadInstance, str]] = []
    for name, instance in suite:
        bench_cfg = benchmark_config_name(instance)
        for cfg in config_list:
            jobs.append((name, instance, cfg))
        if bench_cfg not in config_list:
            hidden.append((name, instance, bench_cfg))

    outcomes: dict[tuple[str, str], _CellOutcome] = {}

    def work(job: tuple[str, RoadInstance, str]) -> None:
        name, instance, cfg = job
        outcome = _run_cell(instance, cfg, run)
        outcomes[(name, cfg)] = outcome
        if progress is not None:
            why = f" ({outcome.reason})" if outcome.reason else ""
            progress(f"{name} {cfg}: {outcome.status} "
                     f"{outcome.wall_time:.2f}s{why}")

    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        list(pool.map(work, jobs + hidden))

    records: list[BenchmarkRecord] = []
    for name, instance in suite:
        bench_cfg = benchmark_config_name(instance)
        bench_outcome = outcomes.get((name, bench_cfg))
        bench_obj = None
        if bench_outcome is not None and bench_outcome.validated:
            bench_obj = bench_outcome.objective
        for cfg in config_list:
            cell = outcomes[(name, cfg)]
            error: float | None = None
            reason = cell.reason
            if cell.status in ("optimal", "feasible") \
                    and cell.objective is not None:
                if cfg == bench_cfg:
                    error = 0.0
                elif bench_obj is None:
                    reason = reason or f"no validated {bench_cfg} reference"
                else:
                    try:
                        error = relative_error(cell.objective, bench_obj)
                    except ValueError:
                        error = None
            records.append(BenchmarkRecord(
                instance=name, config=cfg, status=cell.status,
                objective=cell.objective, wall_time=cell.wall_time,
                relative_error=error,
                success=is_success(cell.status, error, cell.validated),
                reason=reason))

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_times_csv(records, os.path.join(out_dir, "times.csv"))
        write_accuracy_csv(records, os.path.join(out_dir, "accuracy.csv"))
        write_profile_csv(performance_profile(records),
                          os.path.join(out_dir, "profile.csv"))
    return records


def write_times_csv(records: Sequence[BenchmarkRecord], path: str) -> str:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "config", "status", "seconds"])
        for rec in records:
            seconds = "NaN" if rec.status == "timeout" \
                else repr(rec.wall_time)
            writer.writerow([rec.instance, rec.config, rec.status, seconds])
    return path


def write_accuracy_csv(records: Sequence[BenchmarkRecord], path: str) -> str:
    configs = sorted({r.config for r in records})
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "opt_found", "min_err", "mean_err",
                         "max_err"])
        for cfg in configs:
            rows = [r for r in records if r.config == cfg]
            errs = [r.relative_error for r in rows
                    if r.relative_error is not None
                    and r.status in ("optimal", "feasible")]
            found = sum(1 for r in rows if r.success)
            if errs:
                writer.writerow([cfg, found, repr(min(errs)),
                                 repr(sum(errs) / len(errs)),
                                 repr(max(errs))])
            else:
                writer.writerow([cfg, found, "NaN", "NaN", "NaN"])
    return path


def write_profile_csv(curves: Sequence[ProfileCurve], path: str) -> str:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "alpha", "rho"])
        for curve in curves:
            for alpha, rho in curve.points:
                writer.writerow([curve.config, repr(alpha), repr(rho)])
    return path


def profile_svg(curves: Sequence[ProfileCurve], path: str,
                width: int = 640, height: int = 400) -> str:
    """Minimal standalone step-line chart of the profile curves."""
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
               "#aec7e8", "#98df8a")
    finite_alphas = [a for c in curves for a, _ in c.points]
    max_alpha = max(finite_alphas, default=1.0)
    pad = 40.0

    def sx(alpha: float) -> float:
        return pad + (alpha - 1.0) / max(max_alpha - 1.0, 1e-9) \
            * (width - 2 * pad)

    def sy(rho: float) -> float:
        return height - pad - rho * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
             f'y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" '
             f'y2="{height - pad}" stroke="black"/>']
    for pos, curve in enumerate(curves):
        color = palette[pos % len(palette)]
        prev_y = sy(0.0)
        coords = [f"{sx(1.0):.1f},{prev_y:.1f}"]
        for alpha, rho in curve.points:
            coords.append(f"{sx(alpha):.1f},{prev_y:.1f}")
            prev_y = sy(rho)
            coords.append(f"{sx(alpha):.1f},{prev_y:.1f}")
        coords.append(f"{sx(max_alpha):.1f},{prev_y:.1f}")
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{" ".join(coords)}"/>')
        parts.append(f'<text x="{width - pad - 70}" '
                     f'y="{pad + 14 * (pos + 1)}" font-size="11" '
                     f'fill="{color}">{curve.config}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
