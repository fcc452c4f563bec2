"""Drive an external MIP solver over the file protocol and decode results.

The solver is any command line obeying: read an MPS file, write a solution
file. Command templates carry substitution tokens {mps}, {sol}, {timelimit}
and {gap}; the default template (env var VALIGN_SOLVER_CMD, falling back to
the bundled adapter) is resolved by default_solver_command().

Two solution file layouts are understood, told apart by the first
character of the text: a leading "<" is an XML-ish sectioned layout with a
header element plus one element per variable, anything else is "name value"
pairs with reserved keys status/objective/wall_time/message.
parse_solution_text reads either onto x, in the model's column order,
finding the file's names among the model's (builder.Names.locate) a batch
at a time, with no dict of either's names; past that point columns are
ids, and decode reads x by the ids the builder recorded in model.runs.
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
from typing import Iterable, Iterator, Sequence
from xml.etree import ElementTree

import numpy as np

from valign.builder import ColumnRuns, MilpModel
from valign.instance import RoadInstance
from valign.mps import emit_mps, text_lines

GRACE_SECONDS = 10.0
OBJECTIVE_RTOL = 1e-5  # decode's bound on |cost . x - reported objective|

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
    """A solver's answer. x, read-only, holds the values in the model's
    column order; it is empty unless the status is optimal or feasible."""

    status: str
    objective: float | None
    x: np.ndarray = field(compare=False, repr=False)
    wall_time: float
    solver_log_path: str = ""
    solver_time: float = 0.0     # the solver's own report (wall_time key)
    message: str = ""            # the solution file's, or why none was read

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status in ("optimal", "feasible"):
            if self.objective is None or not math.isfinite(self.objective):
                raise ValueError(f"{self.status} solution without objective")
            if not self.x.size:
                raise ValueError(f"{self.status} solution without values")
        self.x.flags.writeable = False


_NO_VALUES = np.empty(0)  # the x of a solution that has none


@dataclass(frozen=True)
class AlignmentResult:
    """A decoded solution: x, the solution in the model's column order
    (read-only), and every other field read off x by the column ids in runs
    (the model's); no name is kept."""

    status: str
    objective: float
    coefficients: tuple[tuple[float, float, float], ...]
    offsets: tuple[float, ...]
    section_cut: tuple[float, ...]
    section_fill: tuple[float, ...]
    borrow_used: tuple[float, ...]
    waste_used: tuple[float, ...]
    removal: dict[tuple[int, int], float]
    x: np.ndarray = field(repr=False, compare=False)
    runs: ColumnRuns = field(repr=False, compare=False)

    @cached_property
    def flows(self) -> tuple[np.ndarray, ...]:
        """The flow values, read from x once, on first use: flow_grid's
        (transit, unload, load, borrow, waste) arrays, or CTG's one
        (supply, demand) grid, whose diagonal reads 0. A copy made with
        dataclasses.replace reads its own x again."""
        return tuple(np.where(ids < 0, 0.0, self.x[ids])
                     for ids in self.runs.flows)


def configured_solver_command() -> str:
    """VALIGN_SOLVER_CMD's template, or "" when it is unset or blank."""
    return os.environ.get("VALIGN_SOLVER_CMD", "").strip()


def default_solver_command() -> str:
    """Configured command template, or the bundled adapter."""
    return configured_solver_command() or (
        f"{shlex.quote(sys.executable)} -m valign.milp_solve "
        "--time-limit {timelimit} --gap {gap} --sos binarize {mps} {sol}")


def objectives_agree(recomputed: float, objective: float) -> bool:
    """Whether a cost recomputed from x agrees with the solver's objective
    to OBJECTIVE_RTOL relative (absolute below 1); a NaN never agrees."""
    return abs(recomputed - objective) <= OBJECTIVE_RTOL * max(1.0, abs(objective))


_RESERVED = ("status", "objective", "wall_time", "message")


_BATCH = 1 << 9     # names the pairs reader locates at once


def _pair_batches(text: str, header: dict[str, str]
                  ) -> Iterator[tuple[list[str], list[float | None]]]:
    """The keys and values of text's first-token/rest-of-line pairs, read
    a piece of text at a time, in batches of _BATCH; a value is None where
    it is no number. The reserved keys go to header instead, the first
    occurrence winning."""
    keys: list[str] = []
    numbers: list[float | None] = []
    for line in text_lines(text):
        key, _, rest = line.strip().partition(" ")
        if not key or key.startswith("#"):
            continue
        if key in _RESERVED:
            header.setdefault(key, rest.strip())
            continue
        keys.append(key)
        numbers.append(_number(rest))
        if len(keys) == _BATCH:
            yield keys, numbers
            keys, numbers = [], []
    yield keys, numbers


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


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


def parse_solution_text(text: str, columns: Sequence[str]) -> Solution:
    """A solution file's text, in the dialect its first character names,
    read onto x in the order of columns, the model's: a name the file does
    not list reads 0, and one no column has is ignored. A file whose values
    name none of the columns has no values. The pairs dialect is read a
    batch of lines at a time, each batch's names located among the
    columns (_onto), so neither the file's names nor the model's are
    kept."""
    if text.lstrip().startswith("<"):
        try:
            raw = parse_xmlish(text)
        except ElementTree.ParseError as exc:
            raise SolveError(f"unparseable solution file: {exc}") from exc
        values = {k: _number(t) for k, t in raw.items()
                  if k not in _RESERVED}
        x, named = _onto(columns, [(list(values), list(values.values()))])
    else:
        raw = {}
        x, named = _onto(columns, _pair_batches(text, raw))
    status = _normalize_status(raw.get("status", "error"), named)
    objective = None
    if "objective" in raw:
        try:
            objective = float(raw["objective"])
        except ValueError as exc:
            raise SolveError(f"bad objective {raw['objective']!r}") from exc
    if status in ("optimal", "feasible") and (
            objective is None or not named):
        status = "error"
    if status not in ("optimal", "feasible"):
        x, objective = _NO_VALUES, None
    wall = 0.0
    if "wall_time" in raw:
        try:
            wall = float(raw["wall_time"])
        except ValueError:
            wall = 0.0
    return Solution(status, objective, x, wall, solver_time=wall,
                    message=raw.get("message", ""))


def _onto(columns: Sequence[str],
          batches: Iterable[tuple[list[str], list[float | None]]]
          ) -> tuple[np.ndarray, bool]:
    """x over columns from batches of (names, values), and whether a
    column got a number. A column's first occurrence wins, and one whose
    first value is None reads 0. builder.Names locates each batch's names
    by their schemes; a plain sequence of columns is indexed by a dict of
    its names."""
    locate = getattr(columns, "locate", None)
    if locate is None:
        index = {name: c for c, name in enumerate(columns)}

        def locate(keys: list[str]) -> np.ndarray:
            return np.array([index.get(key, -1) for key in keys], np.int64)
    x = np.zeros(len(columns))
    seen = bytearray(len(columns))
    named = False
    for keys, numbers in batches:
        for c, number in zip(locate(keys).tolist(), numbers):
            if c >= 0 and not seen[c]:
                seen[c] = True
                if number is not None:
                    x[c] = number
                    named = True
    return x, named


def command_words(template: str) -> list[str]:
    """A solver command template split into words as a shell would; a
    SolveError if it lacks the {mps} or {sol} token or does not split, as
    with an unclosed quote."""
    if "{mps}" not in template or "{sol}" not in template:
        raise SolveError(
            "solver command must contain the {mps} and {sol} tokens")
    try:
        return shlex.split(template)
    except ValueError as exc:
        raise SolveError(f"solver command: {exc}") from exc


def _substitute(template: str, mps_path: str, sol_path: str,
                limits: SolverLimits) -> list[str]:
    mapping = {"{mps}": mps_path, "{sol}": sol_path,
               "{timelimit}": repr(float(limits.time_limit)),
               "{gap}": repr(float(limits.mip_gap))}
    args = []
    for token in command_words(template):
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
            done = subprocess.run(
                args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                timeout=limits.time_limit + GRACE_SECONDS)
            output, exit_code = done.stdout, done.returncode
        except subprocess.TimeoutExpired as exc:
            timed_out = True
            output, exit_code = exc.output, None
        except OSError as exc:
            reason = f"launch failure: {exc}"
            log.write(reason + "\n")
            return Solution("error", None, _NO_VALUES,
                            time.monotonic() - start, log_path,
                            message=reason)
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
        except SolveError as exc:
            return Solution("error", None, _NO_VALUES, wall, log_path,
                            message=str(exc))
        status = parsed.status
        if timed_out and status not in ("optimal", "feasible", "infeasible"):
            status = "timeout"
        return Solution(status, parsed.objective, parsed.x, wall,
                        log_path, parsed.solver_time, parsed.message)
    if timed_out:
        return Solution("timeout", None, _NO_VALUES, wall, log_path,
                        message="no solution file within the time limit")
    what = "no" if text is None else "empty"
    return Solution("error", None, _NO_VALUES, wall, log_path,
                    message=f"{what} solution file (exit code {exit_code})")


def decode(solution: Solution, instance: RoadInstance,
           model: MilpModel) -> AlignmentResult:
    """Map a solution onto a structured alignment by column id.

    x must have one value per column of the model, and a non-finite value
    is an error. The objective is recomputed from the model's cost vector
    and must agree with the solver's report (objectives_agree). Every field
    is read off x by the builder's model.runs.
    """
    if solution.status not in ("optimal", "feasible"):
        raise DecodeError(f"cannot decode a {solution.status} solution")

    x, columns = solution.x, model.columns
    if len(x) != len(columns):
        raise DecodeError(f"solution has {len(x)} values for a model of "
                          f"{len(columns)} columns")
    bad = ~np.isfinite(x)
    if bad.any():
        at = int(np.argmax(bad))
        raise DecodeError(f"non-finite value {x[at].item()!r} for "
                          f"{columns[at]}")

    # Finite values may overflow to a NaN, which the check below rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        recomputed = float(model.cost @ x)
    assert solution.objective is not None
    if not objectives_agree(recomputed, solution.objective):
        raise DecodeError(
            f"objective mismatch: solver {solution.objective!r} vs "
            f"recomputed {recomputed!r}")

    runs = model.runs
    n = instance.n
    cut, fill = x[runs.cut].tolist(), x[runs.fill].tolist()
    return AlignmentResult(
        status=solution.status, objective=solution.objective,
        coefficients=tuple(map(tuple, x[runs.coefficients].tolist())),
        offsets=tuple(x[runs.offsets].tolist()),
        section_cut=tuple(cut[:n]), section_fill=tuple(fill[:n]),
        borrow_used=tuple(cut[n:]), waste_used=tuple(fill[n:]),
        removal={(k, t): y for k, row in enumerate(
            x[runs.removal].tolist(), start=1) for t, y in enumerate(row)},
        x=x, runs=runs)
