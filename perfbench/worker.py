"""Run one perfbench workload in this interpreter and write its figures.

run.py starts this file in a fresh process, with PYTHONPATH at the
checkout's src/ and TMPDIR at a private directory, so every ``valign-*``
solver workdir found there was left behind by this run. Modes:

  --setup-only  import valign, write the workload's instance files, print
                "ready" and exit; run.py times this as setup_s;
  (default)     the timed run: whole passes over the workload's cells for
                about --seconds seconds, with no tracing;
  --trace       each cell once untraced and once traced, then the traced
                cell's MPS text re-solved in-process with the adapter's own
                functions (parse_mps, binarize_sos, solve_parsed).

Sequential workloads run each cell as ``valign.cli.main(["solve", ...])``
in-process with the bundled adapter as the solver; suite-matrix calls
``valign.bench.run_matrix``. Every cell passes the correctness gate or is
counted as failed with its reason.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import shlex
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from importlib import metadata

from spans import ModuleProxy, Tracer

# The bundled adapter, as a solver command template for gateway.solve.
SOLVER = (f"{shlex.quote(sys.executable)} -m valign.milp_solve "
          "--time-limit {timelimit} --gap {gap} --sos binarize {mps} {sol}")
GAP = 0.01            # the CLI's default relative MIP gap
TIME_LIMIT = 60.0     # per solve; a hit is a failed cell
RECOMPUTE_RTOL = 1e-5
SUITE_CONFIGS = ("MQN-B", "MQN-S1", "QNA-B")
CLI_FLAGS = {
    "MQN-B": [],
    "MQN-S1": ["--blocks", "sos1"],
    "CTG-B": ["--model", "ctg"],
    "QNA-B": ["--model", "qnf", "--haul", "avg"],
}
# (template, variant, blocks): C and D roads with one or two blocks.
BLOCKED_ROADS = (("C", 1, 1), ("C", 2, 2), ("D", 1, 1), ("D", 2, 2),
                 ("D", 3, 1))
# Every workload's roads come from generator seed 1, the same roads for
# every run; --seed then moves each section's ground elevation by up to
# TERRAIN_JITTER_M. When --seed also redrew segments, blocks and pits,
# cells_per_s differed by about a third from seed to seed, more than the
# changes this benchmark has to show.
STRUCTURE_SEED = 1
TERRAIN_JITTER_M = 0.25


@dataclass
class Cell:
    road: str
    config: str
    path: str

    @property
    def id(self) -> str:
        return f"{self.road}/{self.config}"


@dataclass
class Workload:
    name: str
    cells: list[Cell]
    roads: list[tuple[str, str, bool]]    # (road, instance path, blocked)


@dataclass
class Outcome:
    cell: str
    seconds: float
    objective: float | None = None
    reason: str | None = None            # None: passed the gate

    @property
    def ok(self) -> bool:
        return self.reason is None


@dataclass
class Tally:
    outcomes: list[Outcome] = field(default_factory=list)
    pass_walls: list[float] = field(default_factory=list)
    hidden_cells: int = 0                 # suite CTG-B references
    leaked_dirs: int = 0
    leaked_bytes: int = 0

    def sweep(self, tmpdir: str) -> None:
        """Count, size and delete the valign-* workdirs gateway.solve left."""
        for entry in os.scandir(tmpdir):
            if entry.is_dir() and entry.name.startswith("valign-"):
                self.leaked_dirs += 1
                for base, _, files in os.walk(entry.path):
                    self.leaked_bytes += sum(
                        os.path.getsize(os.path.join(base, f)) for f in files)
                shutil.rmtree(entry.path)


def _roads(workload: str):
    """(road, RoadInstance, configs) for a sequential workload."""
    from valign.bench import ROAD_TEMPLATES as templates
    from valign.bench import generate_instance
    if workload == "small-roads":
        for t in "ABC":
            for v in range(1, 7):
                yield (f"{t}-{v:02d}",
                       generate_instance(STRUCTURE_SEED, templates[t], v,
                                         pits=(v - 1) % 3), ("MQN-B",))
    elif workload == "blocked-roads":
        for t, v, b in BLOCKED_ROADS:
            yield (f"{t}-{v:02d}",
                   generate_instance(STRUCTURE_SEED, templates[t], v,
                                     blocks=b), ("MQN-B", "MQN-S1"))
    elif workload == "long-road":
        for v in (1, 2):
            yield (f"G-{v:02d}",
                   generate_instance(STRUCTURE_SEED, templates["G"], v),
                   ("CTG-B", "MQN-B"))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _jitter(instance, seed: int, road: str):
    """The instance with each ground elevation moved by the seed."""
    rng = random.Random(f"perfbench:{seed}:{road}")
    sections = tuple(
        replace(s, ground_elevation=s.ground_elevation
                + rng.uniform(-TERRAIN_JITTER_M, TERRAIN_JITTER_M))
        for s in instance.sections)
    return replace(instance, sections=sections).check()


def setup(workload: str, seed: int, inputs: str) -> Workload:
    """Import valign and write the workload's instance files."""
    import valign.bench
    import valign.cli  # noqa: F401  (imported here so setup_s covers it)
    from valign.instance_io import parse_instance, write_instance

    os.makedirs(inputs, exist_ok=True)
    cells: list[Cell] = []
    roads: list[tuple[str, str, bool]] = []
    if workload == "suite-matrix":
        for path in valign.bench.generate_suite(STRUCTURE_SEED, "ABC", inputs,
                                                variants=2):
            road = os.path.splitext(os.path.basename(path))[0]
            instance = _jitter(parse_instance(path), seed, road)
            write_instance(instance, path)
            roads.append((road, path, bool(instance.blocks)))
        return Workload(workload, cells, roads)
    for road, instance, configs in _roads(workload):
        instance = _jitter(instance, seed, road)
        path = write_instance(instance, os.path.join(inputs, f"{road}.json"))
        roads.append((road, path, bool(instance.blocks)))
        cells.extend(Cell(road, c, path) for c in configs)
    return Workload(workload, cells, roads)


def run_cli_cell(cell: Cell, scratch: str,
                 tracer: Tracer | None = None) -> Outcome:
    """One ``valign solve`` in-process, timed, then gated."""
    from valign import cli
    out = os.path.join(scratch, "cell.txt")
    argv = ["solve", cell.path, *CLI_FLAGS[cell.config],
            "--solver", SOLVER, "--gap", repr(GAP),
            "--time-limit", repr(TIME_LIMIT), "-o", out]
    sink = io.StringIO()
    code: object = None
    error = None
    root = tracer.span("cli.main") if tracer else nullcontext()
    start = time.perf_counter()
    try:
        with root, redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed cell, with its reason
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    outcome = Outcome(cell.id, seconds)

    if error is not None or code != 0:
        tail = sink.getvalue().strip().splitlines()[-1:] or [""]
        outcome.reason = error or f"exit code {code}: {tail[0]}"
        return outcome
    with open(out, encoding="ascii") as fh:
        head = dict(line.split(" ", 1) for line in fh.read().splitlines()[:4])
    os.remove(out)
    objective = float(head["objective"])
    recomputed = float(head["recomputed_cost"])
    outcome.objective = objective
    if head.get("validation") != "pass":
        outcome.reason = f"validation {head.get('validation')}"
    elif abs(recomputed - objective) > RECOMPUTE_RTOL * max(1.0,
                                                            abs(objective)):
        outcome.reason = (f"recomputed_cost {recomputed!r} != objective "
                          f"{objective!r}")
    return outcome


def _within_gap(a: float, b: float) -> bool:
    return abs(a - b) <= GAP * max(1.0, abs(a), abs(b)) + 1e-9


def gate_pairs(outcomes: list[Outcome], references: dict[str, float]) -> None:
    """Cross-config checks on the cells of one pass.

    Block-free roads: MQN-B agrees with CTG-B within the gap. QNA-B (one
    haul class) is never below MQN-B minus the gap.
    """
    by_cell = {o.cell: o for o in outcomes}
    for o in outcomes:
        road, _, config = o.cell.partition("/")
        if not o.ok or config not in ("MQN-B", "QNA-B"):
            continue
        if config == "MQN-B" and road in references:
            ctg = references[road]
            if ctg is None:
                o.reason = "no validated CTG-B reference"
            elif not _within_gap(o.objective, ctg):
                o.reason = f"MQN-B {o.objective!r} vs CTG-B {ctg!r}"
        if config == "QNA-B":
            mqn = by_cell.get(f"{road}/MQN-B")
            if mqn is not None and mqn.ok and o.objective < (
                    mqn.objective - GAP * max(1.0, abs(mqn.objective))):
                o.reason = f"QNA-B {o.objective!r} below MQN-B {mqn.objective!r}"


def cli_references(outcomes: list[Outcome], roads) -> dict[str, float]:
    """CTG-B objectives of the block-free roads a sequential pass solved."""
    by_cell = {o.cell: o for o in outcomes}
    refs = {}
    for road, _, blocked in roads:
        ctg = by_cell.get(f"{road}/CTG-B")
        if not blocked and ctg is not None:
            refs[road] = ctg.objective if ctg.ok else None
    return refs


def suite_references(workload: Workload, scratch: str, tmpdir: str,
                     tally: Tally) -> dict[str, float]:
    """Solve the block-free suite roads under CTG-B, untimed.

    run_matrix compares MQN-B with its hidden CTG-B reference but books a
    failed reference as zero error, so the benchmark checks it itself.
    """
    refs = {}
    for road, path, blocked in workload.roads:
        if blocked:
            continue
        ref = run_cli_cell(Cell(road, "CTG-B", path), scratch)
        refs[road] = ref.objective if ref.ok else None
        tally.sweep(tmpdir)
    return refs


def matrix_pass(workload: Workload, traced: "TracedRun | None" = None
                ) -> tuple[list[Outcome], int, float]:
    """One run_matrix over the suite files: (outcomes, hidden cells, wall)."""
    from valign.bench import benchmark_config_name, run_matrix
    from valign.gateway import SolverLimits
    from valign.instance_io import RunConfig, parse_instance
    run = RunConfig(solver_command=SOLVER,
                    limits=SolverLimits(TIME_LIMIT, GAP, 1e-6),
                    configs=SUITE_CONFIGS)
    workers = min(2, len(os.sched_getaffinity(0)))
    span = traced.tracer.span if traced else (lambda name: nullcontext())
    start = time.perf_counter()
    suite = []
    for road, path, _ in workload.roads:
        with span("instance_io.parse_instance"):
            suite.append((road, parse_instance(path)))
    if traced:
        traced.road_of = {id(inst): road for road, inst in suite}
    with span("bench.run_matrix"):
        records = run_matrix(suite, SUITE_CONFIGS, run, out_dir=None,
                             workers=workers)
    wall = time.perf_counter() - start
    # `success` means validated, re-priced and within 1% of the reference.
    # QNA-B may lawfully miss the 1% (one haul class), so there only the
    # status is read here; gate_pairs bounds its objective and the traced
    # run checks its validation.
    outcomes = []
    for r in records:
        o = Outcome(f"{r.instance}/{r.config}", r.wall_time, r.objective)
        solved = r.status in ("optimal", "feasible") and r.objective is not None
        if not (r.success or (r.config == "QNA-B" and solved)):
            o.reason = (f"status {r.status}, relative_error "
                        f"{r.relative_error!r}, not a success")
        outcomes.append(o)
    hidden = sum(1 for _, inst in suite
                 if benchmark_config_name(inst) not in SUITE_CONFIGS)
    return outcomes, hidden, wall


def timed_run(workload: Workload, seconds: float, scratch: str,
              tmpdir: str) -> Tally:
    """Whole passes until the next one would end well past `seconds`."""
    tally = Tally()
    refs: dict[str, float] | None = None
    start = time.perf_counter()
    while True:
        if workload.name == "suite-matrix":
            outcomes, hidden, wall = matrix_pass(workload)
            tally.sweep(tmpdir)
            if refs is None:
                refs = suite_references(workload, scratch, tmpdir, Tally())
            tally.hidden_cells += hidden
        else:
            outcomes = []
            for cell in workload.cells:
                outcomes.append(run_cli_cell(cell, scratch))
                tally.sweep(tmpdir)
            wall = sum(o.seconds for o in outcomes)
            refs = cli_references(outcomes, workload.roads)
        gate_pairs(outcomes, refs)
        tally.outcomes.extend(outcomes)
        tally.pass_walls.append(wall)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(tally.pass_walls) / 2 >= seconds:
            return tally


def end_to_end(tally: Tally) -> dict:
    ok = [o for o in tally.outcomes if o.ok]
    attempted = len(tally.outcomes) + tally.hidden_cells
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cells_per_s": (len(ok) + tally.hidden_cells)
        / sum(tally.pass_walls) if ok else 0.0,
        "cell_p50_s": statistics.median(o.seconds for o in ok) if ok else 0.0,
        "pass_rate": (len(ok) + tally.hidden_cells) / attempted,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "solver_peak_rss_mb": children.ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------- tracing

class TracedRun:
    """Spans and per-cell captures of the traced pass."""

    def __init__(self):
        self.tracer = Tracer()
        self.models: dict[str, object] = {}
        self.mps_bytes: dict[str, int] = {}
        self.adapter_wall: dict[str, float] = {}
        self.objective: dict[str, float] = {}
        self.residual: dict[str, float] = {}  # worst validation residual
        self.sizes: dict[str, list] = {}
        self.resolve: dict[str, dict] = {}
        self.failures: dict[str, str] = {}
        self.road_of: dict[int, str] = {}     # id(RoadInstance) -> road
        self.matrix_spans = 0

    def replacements(self, caller):
        """Traced stand-ins for the public calls `caller` (valign.cli or
        valign.bench) and valign.gateway make on the solve path."""
        import subprocess

        from valign import gateway
        t = self.tracer

        def stash(store, value):
            return lambda rec, args, result: store.__setitem__(
                t.cell, value(args, result))

        def residual(rec, args, report):
            worst = max(f.worst for f in report.families.values())
            self.residual[t.cell] = worst
            if not report.passed:
                self.failures[t.cell] = f"validation fail, worst {worst!r}"

        def repriced(rec, args, cost):
            objective = args[2].objective
            if abs(cost - objective) > RECOMPUTE_RTOL * max(1.0,
                                                            abs(objective)):
                self.failures.setdefault(
                    t.cell, f"recomputed_cost {cost!r} != {objective!r}")

        def solved(rec, args, solution):
            if solution.objective is not None:
                self.objective[t.cell] = solution.objective

        reps = [(caller, "build", t.wrap(
                    caller.build, "builder.build",
                    before=self._enter_cell if caller.__name__ == "valign.bench"
                    else None,
                    after=stash(self.models, lambda a, r: r))),
                (caller, "solve", t.wrap(caller.solve, "gateway.solve",
                                         after=solved)),
                (caller, "decode", t.wrap(caller.decode, "gateway.decode")),
                (caller, "validate", t.wrap(caller.validate,
                                            "validate.validate",
                                            after=residual)),
                (caller, "recompute_cost", t.wrap(
                    caller.recompute_cost, "validate.recompute_cost",
                    after=repriced)),
                (gateway, "emit_mps", t.wrap(
                    gateway.emit_mps, "mps.emit_mps",
                    after=stash(self.mps_bytes,
                                lambda a, path: os.path.getsize(path)))),
                (gateway, "subprocess", ModuleProxy(subprocess, run=t.wrap(
                    subprocess.run, "gateway.subprocess.run"))),
                (gateway, "parse_solution_text", t.wrap(
                    gateway.parse_solution_text,
                    "gateway.parse_solution_text",
                    after=stash(self.adapter_wall,
                                lambda a, sol: sol.wall_time)))]
        if caller.__name__ == "valign.cli":
            reps.append((caller, "parse_instance", t.wrap(
                caller.parse_instance, "instance_io.parse_instance")))
        return reps

    def _enter_cell(self, args):
        instance, config = args[0], args[1]
        self.tracer.cell = f"{self.road_of[id(instance)]}/{config.name}"

    def record_sizes(self, cell: str) -> None:
        model = self.models[cell]
        coeffs = [abs(c) for row in model.constraints for _, c in row.coeffs]
        self.sizes[cell] = [len(model.variables), len(model.constraints),
                            len(coeffs), model.binary_count,
                            max(coeffs, default=0.0),
                            self.mps_bytes.get(cell, 0)]

    def resolve_in_process(self, cell: str) -> None:
        """Re-solve the cell's MPS text with the adapter's functions."""
        from scipy import optimize

        from valign import milp_solve
        from valign.mps import emit_mps_text
        t = self.tracer
        model = self.models.pop(cell)
        text = emit_mps_text(model)          # pure; what gateway.solve wrote
        stats = {}

        def highs(rec, args, result):
            stats["nodes"] = result.mip_node_count or 0
            stats["gap"] = result.mip_gap or 0.0
            stats["dual_bound"] = result.mip_dual_bound

        t.cell = cell
        proxy = ModuleProxy(optimize, milp=t.wrap(optimize.milp,
                                                  "milp_solve.highs",
                                                  after=highs))
        with t.span("milp_solve.resolve"):
            with t.span("milp_solve.parse_mps"):
                parsed = milp_solve.parse_mps(text)
            counts = [len(parsed.columns), len(parsed.row_order),
                      len(parsed.entries)]
            if parsed.sos_sets:
                with t.span("milp_solve.binarize_sos"):
                    milp_solve.binarize_sos(parsed)
            with t.patched([(milp_solve, "optimize", proxy)]), \
                    t.span("milp_solve.solve_parsed"):
                status, objective, _ = milp_solve.solve_parsed(
                    parsed, TIME_LIMIT, GAP)
        self.resolve[cell] = {"status": status, "objective": objective,
                              **stats}
        sizes = self.sizes[cell]
        reference = self.objective.get(cell)
        if counts != sizes[:3]:
            self.failures[cell] = (f"re-parsed MPS has columns/rows/nnz "
                                   f"{counts}, builder made {sizes[:3]}")
        elif len(text) != sizes[5]:
            self.failures[cell] = (f"MPS text is {len(text)} bytes, "
                                   f"gateway wrote {sizes[5]}")
        elif status not in ("optimal", "feasible") or reference is None \
                or not _within_gap(objective, reference):
            self.failures[cell] = (f"in-process re-solve {status} "
                                   f"{objective!r} vs adapter {reference!r}")


def traced_run(workload: Workload, scratch: str, tmpdir: str
               ) -> tuple[Tally, Tally, TracedRun]:
    """One pass: each cell untraced then traced, then re-solved."""
    from valign import bench, cli
    untraced, traced, run = Tally(), Tally(), TracedRun()
    t = run.tracer
    if workload.name == "suite-matrix":
        outcomes, hidden, wall = matrix_pass(workload)
        untraced.outcomes, untraced.hidden_cells = outcomes, hidden
        untraced.pass_walls.append(wall)
        untraced.sweep(tmpdir)
        with t.patched(run.replacements(bench)):
            outcomes, hidden, wall = matrix_pass(workload, run)
        traced.outcomes, traced.hidden_cells = outcomes, hidden
        traced.pass_walls.append(wall)
        traced.sweep(tmpdir)
        refs = suite_references(workload, scratch, tmpdir, Tally())
        gate_pairs(untraced.outcomes, refs)
        gate_pairs(traced.outcomes, refs)
        run.matrix_spans = len(t.spans)
        for cell in sorted(run.models):
            run.record_sizes(cell)
            run.resolve_in_process(cell)
        return untraced, traced, run

    for cell in workload.cells:
        untraced.outcomes.append(run_cli_cell(cell, scratch))
        untraced.sweep(tmpdir)
        t.cell = cell.id
        with t.patched(run.replacements(cli)):
            traced.outcomes.append(run_cli_cell(cell, scratch, t))
        traced.sweep(tmpdir)
        if cell.id in run.models:
            run.record_sizes(cell.id)
            run.resolve_in_process(cell.id)
    for tally in (untraced, traced):
        refs = cli_references(tally.outcomes, workload.roads)
        gate_pairs(tally.outcomes, refs)
        tally.pass_walls.append(sum(o.seconds for o in tally.outcomes))
    return untraced, traced, run


def per_layer(workload: Workload, untraced: Tally, traced: Tally,
              run: TracedRun) -> dict:
    t = run.tracer
    spans = t.spans
    selfs = t.self_times()
    cells = max(1, len(traced.outcomes) + traced.hidden_cells)

    def total(name):
        return sum((s["end"] - s["start"] for s in spans if s["name"] == name),
                   0.0)

    def per_cell(value):
        return value / cells

    launch = total("gateway.subprocess.run") - sum(run.adapter_wall.values())
    sizes = list(run.sizes.values())
    resolves = list(run.resolve.values())
    metrics = {
        "cli.self_s": per_cell(selfs.get("cli.main", 0.0)),
        "instance_io.parse_s": per_cell(total("instance_io.parse_instance")),
        "builder.build_s": per_cell(selfs.get("builder.build", 0.0)),
        "mps.emit_s": per_cell(selfs.get("mps.emit_mps", 0.0)),
        "gateway.solve_s": per_cell(selfs.get("gateway.solve", 0.0)),
        "gateway.launch_s": per_cell(launch),
        "milp_solve.adapter_s": per_cell(sum(run.adapter_wall.values())),
        "gateway.read_solution_s": per_cell(
            total("gateway.parse_solution_text")),
        "gateway.decode_s": per_cell(selfs.get("gateway.decode", 0.0)),
        "validate.validate_s": per_cell(selfs.get("validate.validate", 0.0)),
        "validate.recompute_s": per_cell(
            selfs.get("validate.recompute_cost", 0.0)),
        "milp_solve.parse_mps_s": per_cell(total("milp_solve.parse_mps")),
        "milp_solve.binarize_s": per_cell(total("milp_solve.binarize_sos")),
        "milp_solve.arrays_s": per_cell(
            selfs.get("milp_solve.solve_parsed", 0.0)),
        "milp_solve.highs_s": per_cell(total("milp_solve.highs")),
        "milp_solve.nodes": sum(r.get("nodes", 0) for r in resolves),
        "milp_solve.gap_max": max((r.get("gap", 0.0) for r in resolves),
                                  default=0.0),
        "builder.columns": sum(s[0] for s in sizes),
        "builder.rows": sum(s[1] for s in sizes),
        "builder.nnz": sum(s[2] for s in sizes),
        "builder.binaries": sum(s[3] for s in sizes),
        "builder.max_abs_coeff": max((s[4] for s in sizes), default=0.0),
        "mps.bytes": sum(s[5] for s in sizes),
        "validate.worst_residual": max(run.residual.values(), default=0.0),
        "gateway.leaked_workdirs": traced.leaked_dirs,
        "gateway.leaked_bytes": traced.leaked_bytes,
        "bench.matrix_s": total("bench.run_matrix"),
        "bench.busy_ratio": 0.0,
        "trace.cell_s": sum(traced.pass_walls) / cells,
        "trace.overhead_pct": 100.0 * (sum(traced.pass_walls)
                                       / sum(untraced.pass_walls) - 1.0),
    }
    if workload.name == "suite-matrix":
        # A cell's busy time runs from its first span to its last, on the
        # pool thread that ran it; the re-solve spans come later.
        bounds: dict[str, list[float]] = {}
        for s in spans[:run.matrix_spans]:
            if s["cell"] is None:
                continue
            lo_hi = bounds.setdefault(s["cell"], [s["start"], s["end"]])
            lo_hi[0] = min(lo_hi[0], s["start"])
            lo_hi[1] = max(lo_hi[1], s["end"])
        busy = sum(hi - lo for lo, hi in bounds.values())
        workers = min(2, len(os.sched_getaffinity(0)))
        metrics["bench.busy_ratio"] = busy / (
            workers * metrics["bench.matrix_s"])
        metrics["trace.cell_s"] = busy / cells
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True,
                        help="private directory for inputs and scratch files")
    parser.add_argument("--out", help="result JSON path")
    parser.add_argument("--spans-out", help="span JSON path (--trace)")
    args = parser.parse_args(argv)

    tmpdir = os.path.join(args.workdir, "tmp")
    if os.path.realpath(tempfile.gettempdir()) != os.path.realpath(tmpdir):
        parser.error(f"TMPDIR must be {tmpdir}, the run's private directory")
    workload = setup(args.workload, args.seed,
                     os.path.join(args.workdir, "inputs"))
    if args.setup_only:
        print("ready", flush=True)
        return 0
    scratch = os.path.join(args.workdir, "scratch")
    os.makedirs(scratch, exist_ok=True)

    result: dict = {"workload": args.workload, "seed": args.seed,
                    "python": sys.version.split()[0],
                    "numpy": metadata.version("numpy"),
                    "scipy": metadata.version("scipy"),
                    "nproc": len(os.sched_getaffinity(0))}
    if args.trace:
        untraced, traced, run = traced_run(workload, scratch, tmpdir)
        tally = traced
        reasons = {o.cell: f"untraced: {o.reason}"
                   for o in untraced.outcomes if not o.ok}
        reasons.update(run.failures)
        for o in tally.outcomes:
            if o.ok and o.cell in reasons:
                o.reason = reasons.pop(o.cell)
        for cell, reason in reasons.items():      # a hidden suite reference
            if all(o.cell != cell for o in tally.outcomes):
                tally.hidden_cells -= 1
                tally.outcomes.append(Outcome(cell, 0.0, reason=reason))
        result["metrics"] = per_layer(workload, untraced, traced, run)
        result["sizes"] = run.sizes
        result["resolve"] = run.resolve
        if args.spans_out:
            with open(args.spans_out, "w", encoding="ascii") as fh:
                json.dump(run.tracer.spans, fh)
    else:
        tally = timed_run(workload, args.seconds, scratch, tmpdir)
        result["metrics"] = end_to_end(tally)
    failures = [o for o in tally.outcomes if not o.ok]
    result.update({
        "passes": len(tally.pass_walls),
        "attempted": len(tally.outcomes) + tally.hidden_cells,
        "failed": len(failures),
        "failures": {o.cell: o.reason for o in failures},
        "samples": sum(1 for o in tally.outcomes if o.ok),
        "cell_seconds": {o.cell: round(o.seconds, 4)
                         for o in tally.outcomes if o.ok},
    })
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
