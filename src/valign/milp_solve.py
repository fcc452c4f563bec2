"""Bundled MIP solver adapter.

A small command-line program speaking the same file protocol as any external
solver driven by the gateway: read an MPS file, optimize, write a solution
file of "name value" lines. Optimization is delegated to scipy's milp
(HiGHS). Installed as the ``valign-milp`` console script and used as the
default solver command when none is configured.

The reader is columnar: parse_mps fills arrays, not per-name structures.
Columns are numbered in first-seen order, with cost, bound and integer
arrays; rows in declaration order, with sense, rhs and range arrays (NaN:
no range); the matrix is one COO triple (row id, column id, value) in file
order. The text is split into lines about a megabyte at a time, and each
line's ids and values are appended to typed arrays, so no Python object per
token lives longer than its piece of text. The per-name forms (row_sense,
objective, integer, lower, upper, col_index) are read-only views built on
demand. solve_parsed hands the arrays to HiGHS and write_solution writes the
solution in column order.

SOS sets are rejected unless ``--sos binarize`` is given, in which case each
set is rewritten with auxiliary binaries; this requires finite bounds on all
set members.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy import optimize, sparse


class MpsError(ValueError):
    """Raised on any defect in the MPS input."""


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

    @property
    def row_sense(self) -> dict[str, str]:
        """Row name -> L/G/E."""
        return dict(zip(self.row_order, self.senses.tolist()))

    @property
    def objective(self) -> dict[str, float]:
        """Column name -> cost, for the nonzero costs."""
        priced = np.flatnonzero(self.cost)
        return dict(zip([self.columns[c] for c in priced.tolist()],
                        self.cost[priced].tolist()))

    @property
    def integer(self) -> set[str]:
        return {self.columns[c]
                for c in np.flatnonzero(self.col_integer).tolist()}

    @property
    def lower(self) -> dict[str, float]:
        return dict(zip(self.columns, self.col_lower.tolist()))

    @property
    def upper(self) -> dict[str, float]:
        return dict(zip(self.columns, self.col_upper.tolist()))

    @property
    def col_index(self) -> dict[str, int]:
        return {name: c for c, name in enumerate(self.columns)}


def parse_mps(text: str) -> ParsedMps:
    name = objective_row = ""
    columns: list[str] = []
    col_id: dict[str, int] = {}
    row_order: list[str] = []
    row_id: dict[str, int] = {}
    senses: list[str] = []
    # Column and row ids -> values, for those the file gives.
    cost: dict[int, float] = {}
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

    def touch(var: str) -> int:
        col = col_id.get(var)
        if col is None:
            col = col_id[var] = len(columns)
            columns.append(var)
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
            if len(tokens) not in (3, 5):
                raise MpsError(f"line {lineno}: malformed column entry")
            col = touch(tokens[0])
            if in_integer:
                integer.append(col)
            for pos in range(1, len(tokens), 2):
                row, value = tokens[pos], _parse_num(tokens[pos + 1], lineno)
                if row == objective_row:
                    cost[col] = cost.get(col, 0.0) + value
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
        name, objective_row, columns, _scatter(np.zeros(n), cost),
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


def solve_parsed(mps: ParsedMps, time_limit: float | None,
                 gap: float | None) -> tuple[str, float | None, np.ndarray | None]:
    """Returns (status, objective, values): status in optimal|feasible|
    timeout|infeasible|unbounded|error."""
    constraints = []
    if mps.row_order:
        entries = mps.entries
        matrix = sparse.csr_matrix(
            (entries["value"], (entries["row"], entries["col"])),
            shape=(len(mps.row_order), len(mps.columns)))
        constraints = [optimize.LinearConstraint(matrix, *row_bounds(mps))]

    options: dict[str, object] = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if gap is not None:
        options["mip_rel_gap"] = float(gap)

    result = optimize.milp(mps.cost, constraints=constraints,
                           integrality=mps.col_integer.astype(np.float64),
                           bounds=optimize.Bounds(mps.col_lower,
                                                  mps.col_upper),
                           options=options)

    if result.status == 0:
        return "optimal", float(result.fun), result.x
    if result.status == 1:
        if result.x is not None:
            return "feasible", float(result.fun), result.x
        return "timeout", None, None
    if result.status == 2:
        return "infeasible", None, None
    if result.status == 3:
        return "unbounded", None, None
    return "error", None, None


_PIECE_LINES = 1 << 16


def write_solution(path: str, status: str, objective: float | None,
                   wall_time: float, columns: list[str],
                   values: np.ndarray | None) -> None:
    """One "name value" line per column, in column order, leaving out the
    _SOSB_ binaries of binarize_sos."""
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
                for var, value in zip(columns[part], values[part].tolist())
                if not var.startswith("_SOSB_")]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="valign-milp",
        description="File-protocol MIP solver: MPS in, name-value solution out.")
    parser.add_argument("mps", help="input MPS file")
    parser.add_argument("solution", help="output solution file")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="wall-clock limit in seconds")
    parser.add_argument("--gap", type=float, default=None,
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
        if mps.sos_sets:
            if args.sos == "reject":
                raise MpsError(
                    "MPS contains SOS sections; rerun with --sos binarize")
            binarize_sos(mps)
        status, objective, values = solve_parsed(
            mps, args.time_limit, args.gap)
    except (MpsError, OSError) as exc:
        print(f"valign-milp: {exc}", file=sys.stderr)
        try:
            with open(args.solution, "w", encoding="ascii") as fh:
                fh.write("status error\n")
                fh.write(f"message {exc}\n")
        except OSError:
            pass
        return 3

    wall = time.monotonic() - start
    write_solution(args.solution, status, objective, wall,
                   mps.columns, values)
    print(f"valign-milp: {status}"
          + (f" objective {objective}" if objective is not None else ""))
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
