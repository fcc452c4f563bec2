"""Drive an external MIP solver over the file protocol and decode results.

The solver is any command line obeying: read an MPS file, write a solution
file. Command templates carry substitution tokens {mps}, {sol}, {timelimit}
and {gap}; the default template (env var VALIGN_SOLVER_CMD, falling back to
the bundled adapter) is resolved by default_solver_command().

Two solution file layouts are understood, told apart by the first
character of the text: a leading "<" is an XML-ish sectioned layout with a
header element plus one element per variable, anything else is "name value"
pairs with reserved keys status/objective/wall_time.
"""

from __future__ import annotations

import math
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from operator import eq
from typing import Sequence
from xml.etree import ElementTree

import numpy as np

from valign.builder import (
    ArcIndex,
    BuilderConfig,
    MilpModel,
    effective_hauls,
)
from valign.instance import RoadInstance
from valign.milp_solve import text_lines
from valign.mps import emit_mps

GRACE_SECONDS = 10.0

STATUSES = ("optimal", "feasible", "infeasible", "timeout", "error")


class SolveError(RuntimeError):
    pass


class DecodeError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SolverLimits:
    time_limit: float = 600.0
    mip_gap: float = 0.01
    feasibility_tol: float = 1e-6

    def __post_init__(self):
        for name in ("time_limit", "mip_gap", "feasibility_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"SolverLimits.{name} must be > 0")


@dataclass(frozen=True)
class Solution:
    status: str
    objective: float | None
    values: dict[str, float]
    wall_time: float
    solver_log_path: str = ""
    solver_time: float = 0.0     # the solver's own report (wall_time key)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status in ("optimal", "feasible"):
            if self.objective is None or not math.isfinite(self.objective):
                raise ValueError(f"{self.status} solution without objective")
            if not self.values:
                raise ValueError(f"{self.status} solution without values")


@dataclass(frozen=True)
class AlignmentResult:
    status: str
    objective: float
    coefficients: tuple[tuple[float, float, float], ...]
    offsets: tuple[float, ...]
    section_cut: tuple[float, ...]
    section_fill: tuple[float, ...]
    borrow_used: tuple[float, ...]
    waste_used: tuple[float, ...]
    removal: dict[tuple[int, int], float]
    values: dict[str, float] = field(repr=False)
    # The names decode read values by, and the (hauls, steps) of the
    # MH-QNF flow grid; None for CTG.
    names: ArcIndex = field(repr=False, compare=False)
    flow_shape: tuple[int, int] | None

    @cached_property
    def flows(self) -> np.ndarray | tuple[np.ndarray, ...]:
        """The flow values, read from values once, on first use: CTG's
        (supply, demand) grid, or flow_grid's (transit, unload, load,
        borrow, waste) arrays. Absent names read 0. A copy made with
        dataclasses.replace reads its own values again."""
        if self.flow_shape is None:
            return self.names.ctg_grid(self.values)
        arcs, grid = self.names.flow_grid(*self.flow_shape)
        x = np.fromiter(map(self.values.get, arcs, repeat(0.0)), float,
                        len(arcs))
        return tuple(x[ids] for ids in grid)


def default_solver_command() -> str:
    """Configured command template, or the bundled adapter."""
    env = os.environ.get("VALIGN_SOLVER_CMD", "").strip()
    if env:
        return env
    return (f"{shlex.quote(sys.executable)} -m valign.milp_solve "
            "--time-limit {timelimit} --gap {gap} --sos binarize {mps} {sol}")


_RESERVED = ("status", "objective", "wall_time", "message")


def parse_pairs(text: str, columns: Sequence[str] = ()
                ) -> tuple[dict[str, str], dict[str, float]]:
    """First-token/rest-of-line pairs, a piece of text at a time, split
    into the reserved keys and the numeric values of the others; the first
    occurrence of a key wins, and a key whose first value is no number is
    left out. Keys that follow columns in order, as a solution file lists
    its model's columns, are the columns' own name objects, so the file's
    names do not stay alive beside the model's."""
    header: dict[str, str] = {}
    values: dict[str, float | None] = {}
    at = 0
    for line in text_lines(text):
        key, _, rest = line.strip().partition(" ")
        if not key or key.startswith("#"):
            continue
        if key in _RESERVED:
            header.setdefault(key, rest.strip())
            continue
        if at < len(columns) and key == columns[at]:
            key = columns[at]
            at += 1
        if key not in values:
            values[key] = _number(rest)
    return header, _numeric(values)


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _numeric(values: dict[str, float | None]) -> dict[str, float]:
    """values less the entries that are no number."""
    if None in values.values():
        return {k: v for k, v in values.items() if v is not None}
    return values


def parse_xmlish(text: str) -> dict[str, str]:
    """Sectioned XML layout: header attributes + <variable name= value=>."""
    root = ElementTree.fromstring(text)
    out: dict[str, str] = {}
    header = root.find("header")
    attrs = dict(root.attrib)
    if header is not None:
        attrs.update(header.attrib)
    for key, target in (("solutionStatusString", "status"),
                        ("status", "status"),
                        ("objectiveValue", "objective"),
                        ("objective", "objective")):
        if key in attrs and target not in out:
            out[target] = attrs[key]
    for var in root.iter("variable"):
        name = var.get("name")
        value = var.get("value")
        if name and value is not None and name not in out:
            out[name] = value
    return out


_STATUS_WORDS = (
    ("infeasible", "infeasible"),
    ("unbounded", "error"),
    ("time limit", "timeout"),
    ("timeout", "timeout"),
    ("optimal", "optimal"),
    ("feasible", "feasible"),
)


def _normalize_status(raw: str, has_values: bool) -> str:
    lowered = raw.strip().lower()
    if lowered in STATUSES:
        status = lowered
    else:
        status = next((s for word, s in _STATUS_WORDS if word in lowered),
                      "error")
    if status == "timeout" and has_values:
        return "feasible"
    return status


def parse_solution_text(text: str, columns: Sequence[str] = ()
                        ) -> Solution:
    """A solution file's text, in the dialect its first character names.
    columns, the model's, key the values where the pairs dialect lists
    them in order (parse_pairs)."""
    if text.lstrip().startswith("<"):
        try:
            raw = parse_xmlish(text)
        except ElementTree.ParseError as exc:
            raise SolveError(f"unparseable solution file: {exc}") from exc
        values = _numeric({k: _number(t) for k, t in raw.items()
                           if k not in _RESERVED})
    else:
        raw, values = parse_pairs(text, columns)
    status = _normalize_status(raw.get("status", "error"), bool(values))
    objective = None
    if "objective" in raw:
        try:
            objective = float(raw["objective"])
        except ValueError as exc:
            raise SolveError(f"bad objective {raw['objective']!r}") from exc
    if status in ("optimal", "feasible") and (
            objective is None or not values):
        status = "error"
        objective = None
        values = {}
    if status not in ("optimal", "feasible"):
        values = {}
        objective = None
    wall = 0.0
    if "wall_time" in raw:
        try:
            wall = float(raw["wall_time"])
        except ValueError:
            wall = 0.0
    return Solution(status, objective, values, wall, solver_time=wall)


def _substitute(template: str, mps_path: str, sol_path: str,
                limits: SolverLimits) -> list[str]:
    if "{mps}" not in template or "{sol}" not in template:
        raise SolveError(
            "solver command must contain the {mps} and {sol} tokens")
    mapping = {"{mps}": mps_path, "{sol}": sol_path,
               "{timelimit}": repr(float(limits.time_limit)),
               "{gap}": repr(float(limits.mip_gap))}
    args = []
    for token in shlex.split(template):
        for key, value in mapping.items():
            token = token.replace(key, value)
        args.append(token)
    return args


def solve(model: MilpModel, solver_command: str | None = None,
          limits: SolverLimits | None = None,
          workdir: str | None = None) -> Solution:
    """Emit, run, parse. Never blocks past time_limit + GRACE_SECONDS.

    The solver's output comes through a pipe, so its exit is seen when the
    pipe closes, not at the next poll, and goes to solver.log after the
    command line. A grandchild that holds the pipe open keeps the gateway
    waiting until that bound; a terminal status (optimal, feasible,
    infeasible) in the solution file still wins over the timeout.

    A caller's workdir is kept. A temporary one is removed once the solver
    has answered, and kept on error or timeout for the solver log.
    """
    limits = limits or SolverLimits()
    command = solver_command or default_solver_command()
    if workdir is not None:
        return _solve_in(model, command, limits, workdir)
    workdir = tempfile.mkdtemp(prefix="valign-")
    keep = False
    try:
        solution = _solve_in(model, command, limits, workdir)
        keep = solution.status in ("timeout", "error")
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)
    return solution if keep else replace(solution, solver_log_path="")


def _solve_in(model: MilpModel, command: str, limits: SolverLimits,
              workdir: str) -> Solution:
    os.makedirs(workdir, exist_ok=True)
    mps_path = os.path.join(workdir, "model.mps")
    sol_path = os.path.join(workdir, "model.sol")
    log_path = os.path.join(workdir, "solver.log")
    emit_mps(model, mps_path)
    args = _substitute(command, mps_path, sol_path, limits)

    start = time.monotonic()
    timed_out = False
    with open(log_path, "w", encoding="utf-8", errors="replace") as log:
        log.write(f"command: {args}\n")
        log.flush()
        try:
            output = subprocess.run(
                args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                timeout=limits.time_limit + GRACE_SECONDS).stdout
        except subprocess.TimeoutExpired as exc:
            timed_out = True
            output = exc.output
        except OSError as exc:
            log.write(f"launch failure: {exc}\n")
            return Solution("error", None, {},
                            time.monotonic() - start, log_path)
        wall = time.monotonic() - start
        log.write((output or b"").decode("utf-8", errors="replace"))

    text = None
    if os.path.exists(sol_path):
        try:
            with open(sol_path, "r", encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError:
            text = None
    if text is not None and text.strip():
        try:
            parsed = parse_solution_text(text, model.columns)
        except SolveError:
            return Solution("error", None, {}, wall, log_path)
        status = parsed.status
        if timed_out and status not in ("optimal", "feasible", "infeasible"):
            status = "timeout"
        return Solution(status, parsed.objective, parsed.values, wall,
                        log_path, parsed.solver_time)
    if timed_out:
        return Solution("timeout", None, {}, wall, log_path)
    return Solution("error", None, {}, wall, log_path)


def decode(solution: Solution, instance: RoadInstance,
           config: BuilderConfig, model: MilpModel,
           objective_tol: float = 1e-5) -> AlignmentResult:
    """Map canonical variable names back to a structured alignment.

    Variables absent from the solution values are taken as zero (sparse
    solution files); an empty overlap with the model or a non-finite value
    is an error. The objective is recomputed from the model's cost vector
    and must match the solver's report within objective_tol relative. The
    result keeps this ArcIndex and reads its flows from values on first use.
    """
    if solution.status not in ("optimal", "feasible"):
        raise DecodeError(f"cannot decode a {solution.status} solution")

    columns = model.columns
    values = solution.values
    # The values in model column order, absent names (sparse files) zero:
    # the solution's own dict when it lists the columns in order, as
    # parse_solution_text reads a full solution file of the model.
    if len(values) != len(columns) or not all(map(eq, values, columns)):
        if columns and values.keys().isdisjoint(columns):
            raise DecodeError("solution shares no variables with the model")
        values = dict(zip(columns, map(values.get, columns, repeat(0.0))))
    x = np.fromiter(values.values(), float, len(columns))
    bad = ~np.isfinite(x)
    if bad.any():
        column = columns[int(np.argmax(bad))]
        raise DecodeError(f"non-finite value {values[column]!r} for {column}")

    recomputed = float(model.cost @ x)
    assert solution.objective is not None
    scale = max(1.0, abs(solution.objective))
    if abs(recomputed - solution.objective) > objective_tol * scale:
        raise DecodeError(
            f"objective mismatch: solver {solution.objective!r} vs "
            f"recomputed {recomputed!r}")

    names = ArcIndex(instance)
    coeffs = tuple(
        tuple(values[names.coeff(g, k)] for k in (1, 2, 3))
        for g in range(1, instance.segment_layout.segment_count + 1))
    sections = range(1, instance.n + 1)
    offsets = tuple(values[names.offset(i)] for i in sections)
    cut = tuple(values[names.cut(i)] for i in sections)
    fill = tuple(values[names.fill(i)] for i in sections)
    borrow = tuple(values[names.borrow_used(j)]
                   for j in range(1, len(instance.borrow_pits) + 1))
    waste = tuple(values[names.waste_used(k)]
                  for k in range(1, len(instance.waste_pits) + 1))
    removal = {}
    for k in range(1, len(instance.blocks) + 1):
        for t in range(len(instance.blocks) + 1):
            key = names.removal(k, t)
            if key in values:
                removal[(k, t)] = values[key]
    flow_shape = None if config.model == "CTG" else (
        len(effective_hauls(instance, config)), len(instance.blocks) + 1)
    return AlignmentResult(
        status=solution.status, objective=solution.objective,
        coefficients=coeffs, offsets=offsets, section_cut=cut,
        section_fill=fill, borrow_used=borrow, waste_used=waste,
        removal=removal, values=values, names=names, flow_shape=flow_shape)
