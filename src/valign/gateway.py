"""Drive an external MIP solver over the file protocol and decode results.

The solver is any command line obeying: read an MPS file, write a solution
file. Command templates carry substitution tokens {mps}, {sol}, {timelimit}
and {gap}; the default template (env var VALIGN_SOLVER_CMD, falling back to
the bundled adapter) is resolved by default_solver_command().

Two solution file layouts are understood: "name value" pairs with reserved
keys status/objective/wall_time, and an XML-ish sectioned layout with a
header element plus one element per variable.
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
from itertools import repeat
from xml.etree import ElementTree

import numpy as np

from valign.builder import ArcIndex, BuilderConfig, MilpModel
from valign.instance import RoadInstance
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
    values: dict[str, float] = field(repr=False, default_factory=dict)


def default_solver_command() -> str:
    """Configured command template, or the bundled adapter."""
    env = os.environ.get("VALIGN_SOLVER_CMD", "").strip()
    if env:
        return env
    return (f"{shlex.quote(sys.executable)} -m valign.milp_solve "
            "--time-limit {timelimit} --gap {gap} --sos binarize {mps} {sol}")


_RESERVED = ("status", "objective", "wall_time", "message")


def parse_pairs(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """First-token/rest-of-line pairs in one pass, split into the reserved
    keys and the others; the first occurrence of a key wins."""
    header: dict[str, str] = {}
    tokens: dict[str, str] = {}
    for line in text.splitlines():
        key, _, rest = line.strip().partition(" ")
        if not key or key.startswith("#"):
            continue
        if key in _RESERVED:
            header.setdefault(key, rest.strip())
        elif key not in tokens:
            tokens[key] = rest
    return header, tokens


def _numeric(tokens: dict[str, str]) -> dict[str, float]:
    """The entries that are numbers, converted in place. Converting after
    the line pass, not during it, keeps the long-road peak RSS 2-3 MB
    lower: the floats are no longer made while the lines are alive."""
    for key, token in tokens.items():
        try:
            tokens[key] = float(token)
        except ValueError:
            tokens[key] = None
    if None in tokens.values():
        return {k: v for k, v in tokens.items() if v is not None}
    return tokens


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


def parse_solution_text(text: str, sol_format: str = "auto") -> Solution:
    if sol_format not in ("auto", "pairs", "xml"):
        raise ValueError(f"unknown solution format {sol_format!r}")
    if sol_format == "auto":
        sol_format = "xml" if text.lstrip().startswith("<") else "pairs"
    if sol_format == "pairs":
        raw, tokens = parse_pairs(text)
    else:
        try:
            raw = parse_xmlish(text)
        except ElementTree.ParseError as exc:
            raise SolveError(f"unparseable solution file: {exc}") from exc
        tokens = {k: t for k, t in raw.items() if k not in _RESERVED}
    values = _numeric(tokens)
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
          limits: SolverLimits | None = None, workdir: str | None = None,
          sol_format: str = "auto") -> Solution:
    """Emit, run, parse. Never blocks past time_limit + GRACE_SECONDS.

    A caller's workdir is kept. A temporary one is removed once the solver
    has answered, and kept on error or timeout for the solver log.
    """
    limits = limits or SolverLimits()
    command = solver_command or default_solver_command()
    if workdir is not None:
        return _solve_in(model, command, limits, workdir, sol_format)
    workdir = tempfile.mkdtemp(prefix="valign-")
    keep = False
    try:
        solution = _solve_in(model, command, limits, workdir, sol_format)
        keep = solution.status in ("timeout", "error")
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)
    return solution if keep else replace(solution, solver_log_path="")


def _solve_in(model: MilpModel, command: str, limits: SolverLimits,
              workdir: str, sol_format: str) -> Solution:
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
            subprocess.run(args, stdout=log, stderr=subprocess.STDOUT,
                           timeout=limits.time_limit + GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            timed_out = True
        except OSError as exc:
            log.write(f"launch failure: {exc}\n")
            return Solution("error", None, {},
                            time.monotonic() - start, log_path)
    wall = time.monotonic() - start

    text = None
    if os.path.exists(sol_path):
        try:
            with open(sol_path, "r", encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError:
            text = None
    if text is not None and text.strip():
        try:
            parsed = parse_solution_text(text, sol_format)
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
           config: BuilderConfig, model: MilpModel | None = None,
           objective_tol: float = 1e-5) -> AlignmentResult:
    """Map canonical variable names back to a structured alignment.

    Variables absent from the solution values are taken as zero (sparse
    solution files); an empty overlap with the model or a non-finite value
    is an error. The objective is recomputed from the model's cost vector
    and must match the solver's report within objective_tol relative.
    """
    if solution.status not in ("optimal", "feasible"):
        raise DecodeError(f"cannot decode a {solution.status} solution")
    if model is None:
        from valign.builder import build
        model = build(instance, config)

    columns = model.columns
    values = solution.values
    if columns and values.keys().isdisjoint(columns):
        raise DecodeError("solution shares no variables with the model")
    # One pass in model column order; absent names (sparse files) are zero.
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
    return AlignmentResult(
        status=solution.status, objective=solution.objective,
        coefficients=coeffs, offsets=offsets, section_cut=cut,
        section_fill=fill, borrow_used=borrow, waste_used=waste,
        removal=removal, values=values)
