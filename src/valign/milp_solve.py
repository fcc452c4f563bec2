"""Bundled MIP solver adapter.

A small command-line program speaking the same file protocol as any external
solver driven by the gateway: read an MPS file, optimize, write a solution
file of "name value" lines. Optimization is delegated to HiGHS through the
binding scipy ships, scipy.optimize._highspy._core. Installed as the
``valign-milp`` console script and used as the default solver command when
none is configured.

The reader is columnar: parse_mps fills arrays, not per-name structures.
Columns are numbered in first-seen order, with cost, bound and integer
arrays; rows in declaration order, with sense, rhs and range arrays (NaN:
no range); the matrix is one COO triple (row id, column id, value) in file
order. The text is split into lines about a megabyte at a time, and each
line's ids and values are appended to typed arrays, so no Python object per
token lives longer than its piece of text; costs are summed into a typed
array that grows with the columns. write_solution writes the solution in
column order.

solve_arrays is the one seam to HiGHS: cost, column bounds, integrality, a
CSC matrix and row bounds in; status word, objective and x out. It passes
the numpy arrays to the binding as they are and reads back only x and the
objective. HiGHS presolve runs only when a column is integral: on the
block-free cells, all pure LPs, the dual simplex is faster on the unreduced
model (42 cells, templates A-G under MQN-B, CTG-B and QNA-B: 6.5 s of
HiGHS time with presolve, 4.3 s without; on G CTG-B presolve took 0.6 s of
1.5 s, removed 593 of 1,962 rows, and raised the adapter's peak RSS from
about 170 to 248 MB), while the blocked MIPs take 2-4 times as long
without it. solve_parsed builds those arrays from a ParsedMps (csc_arrays,
row_bounds) and calls it. The binding is loaded on first use by
highs_core, straight from scipy's directory and under its own module name,
so the adapter never imports scipy.optimize or scipy.sparse, which were
most of its start-up, and a later import of scipy.optimize in the same
process reuses the loaded extension.

SOS sets are rejected unless ``--sos binarize`` is given, in which case each
set is rewritten with auxiliary binaries; this requires finite bounds on all
set members.
"""

from __future__ import annotations

import argparse
import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class MpsError(ValueError):
    """Raised on any defect in the MPS input."""


def __getattr__(name: str):
    # milp_solve.optimize is kept for perfbench's traced re-solve, its only
    # reader: it wraps optimize.milp, which solve_parsed no longer calls.
    # scipy.optimize is imported only when something reads the name.
    if name == "optimize":
        from scipy import optimize
        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


ENTRY = np.dtype([("row", np.intp), ("col", np.intp), ("value", np.float64)])

_PIECE_CHARS = 1 << 20


@dataclass
class ParsedMps:
    """An MPS file as arrays: columns in first-seen order, rows in
    declaration order (senses L/G/E, rhs, range or NaN), the matrix as
    ENTRY records in file order, and SOS sets as (type, name,
    [(column id, weight), ...])."""

    name: str
    objective_row: str
    columns: list[str]
    cost: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    col_integer: np.ndarray
    row_order: list[str]
    senses: np.ndarray
    row_rhs: np.ndarray
    row_range: np.ndarray
    entries: np.ndarray
    sos_sets: list[tuple[int, str, list[tuple[int, float]]]]


def parse_mps(text: str) -> ParsedMps:
    name = objective_row = ""
    columns: list[str] = []
    col_id: dict[str, int] = {}
    row_order: list[str] = []
    row_id: dict[str, int] = {}
    senses: list[str] = []
    # Costs by column id, grown in touch; the other column and row ids ->
    # values, for those the file gives.
    cost = array("d")
    lower: dict[int, float] = {}
    upper: dict[int, float] = {}
    rhs: dict[int, float] = {}
    ranges: dict[int, float] = {}
    integer: list[int] = []
    entry_row, entry_col, entry_value = array("q"), array("q"), array("d")
    sos_sets: list[tuple[int, str, list[tuple[int, float]]]] = []
    section = None
    in_integer = False
    current_sos: list[tuple[int, float]] | None = None
    # COLUMNS lines come grouped by column: the last line's name and id.
    last_var, last_col = None, -1

    def touch(var: str) -> int:
        col = col_id.get(var)
        if col is None:
            col = col_id[var] = len(columns)
            columns.append(var)
            cost.append(0.0)
        return col

    for lineno, raw in enumerate(_lines(text), start=1):
        tokens = raw.split()
        if not tokens or raw.startswith("*"):
            continue

        if not raw[0].isspace():
            head = tokens[0].upper()
            if head == "NAME":
                name = tokens[1] if len(tokens) > 1 else ""
                continue
            if head in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "SOS"):
                section = head
                in_integer = False
                current_sos = None
                continue
            if head == "ENDATA":
                break
            raise MpsError(f"line {lineno}: unknown section {tokens[0]!r}")

        if section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                marker = tokens[2].strip("'").upper()
                in_integer = marker == "INTORG"
                continue
            count = len(tokens)
            if count not in (3, 5):
                raise MpsError(f"line {lineno}: malformed column entry")
            if tokens[0] != last_var:
                last_var, last_col = tokens[0], touch(tokens[0])
            col = last_col
            if in_integer:
                integer.append(col)
            for pos in (1, 3) if count == 5 else (1,):
                row, value = tokens[pos], _parse_num(tokens[pos + 1], lineno)
                if row == objective_row:
                    cost[col] += value
                    continue
                r = row_id.get(row)
                if r is None:
                    raise MpsError(f"line {lineno}: unknown row {row!r}")
                entry_row.append(r)
                entry_col.append(col)
                entry_value.append(value)

        elif section == "ROWS":
            if len(tokens) != 2:
                raise MpsError(f"line {lineno}: malformed row declaration")
            sense, row = tokens[0].upper(), tokens[1]
            if sense == "N":
                if not objective_row:
                    objective_row = row
                continue
            if sense not in ("L", "G", "E"):
                raise MpsError(f"line {lineno}: unknown row sense {sense!r}")
            if row in row_id:
                raise MpsError(f"line {lineno}: duplicate row {row!r}")
            row_id[row] = len(row_order)
            row_order.append(row)
            senses.append(sense)

        elif section in ("RHS", "RANGES"):
            if len(tokens) not in (3, 5):
                raise MpsError(f"line {lineno}: malformed {section} entry")
            for pos in range(1, len(tokens), 2):
                row, value = tokens[pos], _parse_num(tokens[pos + 1], lineno)
                r = row_id.get(row)
                if r is not None:
                    (rhs if section == "RHS" else ranges)[r] = value
                elif section == "RANGES" or row != objective_row:
                    raise MpsError(f"line {lineno}: unknown row {row!r}")

        elif section == "BOUNDS":
            kind = tokens[0].upper()
            if len(tokens) != (3 if kind in ("FR", "MI", "PL", "BV") else 4):
                raise MpsError(f"line {lineno}: malformed bound")
            col = touch(tokens[2])
            if kind in ("UP", "LO", "FX", "UI", "LI"):
                value = _parse_num(tokens[3], lineno)
            if kind in ("UP", "UI"):
                upper[col] = value
            elif kind in ("LO", "LI"):
                lower[col] = value
            elif kind == "FX":
                lower[col] = upper[col] = value
            elif kind in ("FR", "MI"):
                lower[col] = -math.inf
                if kind == "FR":
                    upper[col] = math.inf
            elif kind == "PL":
                upper[col] = math.inf
            elif kind == "BV":
                lower[col], upper[col] = 0.0, 1.0
            else:
                raise MpsError(f"line {lineno}: unknown bound type {kind!r}")
            if kind in ("BV", "UI", "LI"):
                integer.append(col)

        elif section == "SOS":
            if tokens[0].upper() in ("S1", "S2"):
                current_sos = []
                sos_sets.append((int(tokens[0][1]), tokens[-1], current_sos))
            else:
                if current_sos is None or len(tokens) != 2:
                    raise MpsError(f"line {lineno}: malformed SOS entry")
                weight = _parse_num(tokens[1], lineno)
                current_sos.append((touch(tokens[0]), weight))

        else:
            raise MpsError(f"line {lineno}: data outside any section")

    if not objective_row:
        raise MpsError("no objective row declared")
    n, m = len(columns), len(row_order)
    col_integer = np.zeros(n, bool)
    col_integer[integer] = True
    entries = np.empty(len(entry_value), ENTRY)
    entries["row"] = np.frombuffer(entry_row, np.int64)
    entries["col"] = np.frombuffer(entry_col, np.int64)
    entries["value"] = np.frombuffer(entry_value, np.float64)
    return ParsedMps(
        name, objective_row, columns, np.frombuffer(cost, np.float64),
        _scatter(np.zeros(n), lower), _scatter(np.full(n, math.inf), upper),
        col_integer, row_order, np.array(senses, "U1"),
        _scatter(np.zeros(m), rhs), _scatter(np.full(m, math.nan), ranges),
        entries, sos_sets)


def _scatter(out: np.ndarray, values: dict[int, float]) -> np.ndarray:
    out[list(values)] = list(values.values())
    return out


def _lines(text: str) -> Iterator[str]:
    """text.splitlines(), about a megabyte at a time, so only one piece's
    lines exist as objects at once; each piece ends at a line feed."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _PIECE_CHARS) + 1 or len(text)
        yield from text[start:stop].splitlines()
        start = stop


def _parse_num(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise MpsError(f"line {lineno}: bad number {token!r}") from exc
    if value != value:
        raise MpsError(f"line {lineno}: NaN not allowed")
    return value


def binarize_sos(mps: ParsedMps) -> None:
    """Rewrite SOS sets with auxiliary binaries and linking rows, appended
    to the column, row and entry arrays."""
    columns: list[str] = []
    rows: list[tuple[str, str, float]] = []       # name, sense, rhs
    entries: list[tuple[int, int, float]] = []
    lower, upper = mps.col_lower, mps.col_upper

    def binary(name: str) -> int:
        columns.append(name)
        return len(mps.columns) + len(columns) - 1

    def row(name: str, sense: str, rhs: float = 0.0) -> int:
        rows.append((name, sense, rhs))
        return len(mps.row_order) + len(rows) - 1

    def link(row_base: str, col: int, *flags: int) -> None:
        hi, lo = float(upper[col]), float(lower[col])
        r = row(row_base + "U", "L")
        entries.append((r, col, 1.0))
        entries.extend((r, flag, -hi) for flag in flags)
        if lo < 0.0:
            r = row(row_base + "L", "G")
            entries.append((r, col, 1.0))
            entries.extend((r, flag, -lo) for flag in flags)

    for seq, (sos_type, name, members) in enumerate(mps.sos_sets, start=1):
        ordered = sorted(members, key=lambda m: m[1])
        for col, _ in ordered:
            if not (math.isfinite(lower[col]) and math.isfinite(upper[col])):
                raise MpsError(
                    f"SOS set {name}: member {mps.columns[col]} has "
                    "unbounded domain; cannot binarize")
        if sos_type == 1:
            flags = []
            for pos, (col, _) in enumerate(ordered, start=1):
                flags.append(binary(f"_SOSB_{seq}_{pos}"))
                link(f"_SOSL_{seq}_{pos}", col, flags[-1])
            r = row(f"_SOSC_{seq}", "L", 1.0)
            entries.extend((r, flag, 1.0) for flag in flags)
        else:
            segs = [binary(f"_SOSB_{seq}_{pos}")
                    for pos in range(1, len(ordered))]
            r = row(f"_SOSC_{seq}", "E", 1.0)
            entries.extend((r, seg, 1.0) for seg in segs)
            for pos, (col, _) in enumerate(ordered, start=1):
                # the segments on either side of the member's position
                link(f"_SOSL_{seq}_{pos}", col, *segs[max(pos - 2, 0):pos])
    mps.sos_sets.clear()

    n = len(columns)
    mps.columns.extend(columns)
    mps.cost = np.concatenate([mps.cost, np.zeros(n)])
    mps.col_lower = np.concatenate([lower, np.zeros(n)])
    mps.col_upper = np.concatenate([upper, np.ones(n)])
    mps.col_integer = np.concatenate([mps.col_integer, np.ones(n, bool)])
    names, senses, rhs = zip(*rows) if rows else ((), (), ())
    mps.row_order.extend(names)
    mps.senses = np.concatenate([mps.senses, np.array(senses, "U1")])
    mps.row_rhs = np.concatenate([mps.row_rhs, rhs])
    mps.row_range = np.concatenate([mps.row_range, np.full(len(rows),
                                                           math.nan)])
    mps.entries = np.concatenate([mps.entries, np.array(entries, ENTRY)])


def row_bounds(mps: ParsedMps) -> tuple[np.ndarray, np.ndarray]:
    """Each row's lower and upper bound: L is rhs from above, G from below,
    E both; a range r widens L to [rhs - |r|, rhs], G to [rhs, rhs + |r|],
    and E to [rhs, rhs + r] when r >= 0, else [rhs + r, rhs]."""
    rhs, rng, sense = mps.row_rhs, mps.row_range, mps.senses
    less, more = sense == "L", sense == "G"
    equal = ~(less | more)
    lower, upper = rhs.copy(), rhs.copy()
    lower[less] = -math.inf
    upper[more] = math.inf
    width = np.abs(rng)
    for at, out, value in (
            (less & (width >= 0), lower, rhs - width),
            (more & (width >= 0), upper, rhs + width),
            (equal & (rng >= 0), upper, rhs + rng),
            (equal & (rng < 0), lower, rhs + rng)):
        out[at] = value[at]     # NaN, no range, fails every test
    return lower, upper


def csc_arrays(mps: ParsedMps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The matrix in CSC form as HiGHS takes it: column starts, row ids and
    values, row ids ascending within each column and repeated (row,
    column) entries summed in file order."""
    entries, n = mps.entries, len(mps.columns)
    key = entries["col"] * len(mps.row_order) + entries["row"]
    order = np.argsort(key, kind="stable")
    first = np.ones(len(order), bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    kept = order[first]
    value = entries["value"][kept]
    if not first.all():
        np.add.at(value, np.cumsum(first)[~first] - 1,
                  entries["value"][order[~first]])
    start = np.zeros(n + 1, np.int32)
    np.cumsum(np.bincount(entries["col"][kept], minlength=n), out=start[1:])
    return start, entries["row"][kept].astype(np.int32), value


def solve_parsed(mps: ParsedMps, time_limit: float | None,
                 gap: float | None) -> tuple[str, float | None, np.ndarray | None]:
    """Returns (status, objective, values): status in optimal|feasible|
    timeout|infeasible|unbounded|error."""
    infinite = np.flatnonzero(~np.isfinite(mps.cost))
    if len(infinite):
        col = int(infinite[0])
        raise MpsError(f"column {mps.columns[col]}: objective coefficient "
                       f"{float(mps.cost[col])!r} is not finite")
    return solve_arrays(mps.cost, mps.col_lower, mps.col_upper,
                        mps.col_integer, *csc_arrays(mps), *row_bounds(mps),
                        time_limit, gap)


_CORE = "scipy.optimize._highspy._core"


def highs_core():
    """scipy's HiGHS binding, without importing scipy.optimize.

    A binding already loaded is reused. Otherwise it is loaded from scipy's
    directory under its own name and registered in sys.modules before it
    runs, so a later import of scipy.optimize finds it there: a pybind11
    extension must not be initialised twice."""
    core = sys.modules.get(_CORE)
    if core is not None:
        return core
    scipy_spec = importlib.util.find_spec("scipy")
    folders = [os.path.join(folder, "optimize", "_highspy")
               for folder in (scipy_spec.submodule_search_locations or ())
               ] if scipy_spec else []
    spec = importlib.machinery.PathFinder.find_spec(_CORE, folders)
    if spec is None:
        raise ImportError(f"scipy's HiGHS binding {_CORE} is not installed "
                          "(it ships with scipy 1.15 and later)")
    core = importlib.util.module_from_spec(spec)
    sys.modules[_CORE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return core


# HiGHS model status -> status word, as scipy's milp reported it. A time or
# iteration limit is "feasible" for a MIP that holds an incumbent (finite
# objective), else "timeout"; kModelError, a model HiGHS refused, counts as
# infeasible; every status not listed, kSolutionLimit and
# kUnboundedOrInfeasible among them, is "error".
_STATUS_WORDS = {"kOptimal": "optimal", "kTimeLimit": "timeout",
                 "kIterationLimit": "timeout", "kInfeasible": "infeasible",
                 "kModelError": "infeasible", "kUnbounded": "unbounded"}


def status_word(model_status: str, is_mip: bool, objective: float) -> str:
    word = _STATUS_WORDS.get(model_status, "error")
    if word == "timeout" and is_mip and objective != math.inf:
        return "feasible"
    return word


def solve_arrays(cost: np.ndarray, col_lower: np.ndarray,
                 col_upper: np.ndarray, integrality: np.ndarray,
                 start: np.ndarray, index: np.ndarray, value: np.ndarray,
                 row_lower: np.ndarray, row_upper: np.ndarray,
                 time_limit: float | None, gap: float | None
                 ) -> tuple[str, float | None, np.ndarray | None]:
    """Minimize cost @ x subject to row_lower <= A @ x <= row_upper and
    col_lower <= x <= col_upper, x integral where integrality is set; A is
    given as CSC (start, index, value). Returns (status, objective, x) as
    solve_parsed does.

    Presolve is on for a MIP and off for a pure LP, which HiGHS's dual
    simplex solves faster and in less memory unreduced (module docstring).
    Raises ValueError if HiGHS rejects an option value, such as a negative
    time limit or gap."""
    core = highs_core()
    highs = core._Highs()
    is_mip = bool(integrality.any())
    options = [("log_to_console", False),
               ("presolve", "on" if is_mip else "off")]
    if time_limit is not None:
        options.append(("time_limit", float(time_limit)))
    if gap is not None:
        options.append(("mip_rel_gap", float(gap)))
    for option, setting in options:
        if highs.setOptionValue(option, setting) == core.HighsStatus.kError:
            raise ValueError(f"HiGHS rejected option {option} = {setting!r}")
    # The binding reads raw buffers: each array goes in contiguous, as
    # float64 or as int32 (HiGHS's HighsInt).
    f64, i32 = np.float64, np.int32
    arrays = [np.ascontiguousarray(a, dtype) for a, dtype in (
        (cost, f64), (col_lower, f64), (col_upper, f64), (row_lower, f64),
        (row_upper, f64), (start, i32), (index, i32), (value, f64),
        (integrality, i32))]
    loaded = highs.passModel(
        len(cost), len(row_lower), len(index),
        int(core.MatrixFormat.kColwise), int(core.ObjSense.kMinimize), 0.0,
        *arrays)
    model_status, objective = "kModelError", math.inf
    if loaded != core.HighsStatus.kError:
        highs.run()     # a failed run leaves an error model status
        model_status = highs.getModelStatus().name
        objective = highs.getInfo().objective_function_value
    word = status_word(model_status, is_mip, objective)
    if word not in ("optimal", "feasible"):
        return word, None, None
    return word, float(objective), np.array(highs.getSolution().col_value)


_PIECE_LINES = 1 << 16


def write_solution(path: str, status: str, objective: float | None,
                   wall_time: float, columns: list[str],
                   values: np.ndarray | None) -> None:
    """One "name value" line per column, in column order. values may run
    on past columns: binarize_sos appends its binaries after the columns
    the file declared, and those are not written."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"status {status}\n")
        if objective is not None:
            fh.write(f"objective {objective!r}\n")
        fh.write(f"wall_time {wall_time!r}\n")
        if values is None:
            return
        for start in range(0, len(columns), _PIECE_LINES):
            part = slice(start, start + _PIECE_LINES)
            fh.write("".join([
                f"{var} {value!r}\n"
                for var, value in zip(columns[part], values[part].tolist())]))


def _number(text: str) -> float:
    # HiGHS accepts NaN for a numeric option without complaint.
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    return value


def _time_limit(text: str) -> float:
    # inf is no limit, HiGHS's own default; the gateway passes
    # SolverLimits.time_limit through as it is.
    value = _number(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _gap(text: str) -> float:
    value = _number(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="valign-milp",
        description="File-protocol MIP solver: MPS in, name-value solution out.")
    parser.add_argument("mps", help="input MPS file")
    parser.add_argument("solution", help="output solution file")
    parser.add_argument("--time-limit", type=_time_limit, default=None,
                        help="wall-clock limit in seconds")
    parser.add_argument("--gap", type=_gap, default=None,
                        help="relative MIP gap tolerance")
    parser.add_argument("--sos", choices=("reject", "binarize"),
                        default="reject",
                        help="how to treat SOS sections (default: reject)")
    args = parser.parse_args(argv)

    start = time.monotonic()
    try:
        # The text and the reader's name tables are gone once parse_mps
        # returns, before HiGHS allocates.
        with open(args.mps, "r", encoding="ascii") as fh:
            mps = parse_mps(fh.read())
        declared = len(mps.columns)
        if mps.sos_sets:
            if args.sos == "reject":
                raise MpsError(
                    "MPS contains SOS sections; rerun with --sos binarize")
            binarize_sos(mps)
        status, objective, values = solve_parsed(
            mps, args.time_limit, args.gap)
        write_solution(args.solution, status, objective,
                       time.monotonic() - start, mps.columns[:declared],
                       values)
    except (MpsError, OSError, ImportError) as exc:
        print(f"valign-milp: {exc}", file=sys.stderr)
        try:
            with open(args.solution, "w", encoding="ascii") as fh:
                fh.write("status error\n")
                fh.write(f"message {exc}\n")
        except OSError:
            pass
        return 3

    print(f"valign-milp: {status}"
          + (f" objective {objective}" if objective is not None else ""))
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
