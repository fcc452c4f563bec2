"""Bundled MIP solver adapter.

A small command-line program speaking the same file protocol as any external
solver driven by the gateway: read an MPS file, optimize, write a solution
file of "name value" lines. Optimization is delegated to HiGHS through the
binding scipy ships, scipy.optimize._highspy._core. Installed as the
``valign-milp`` console script and used as the default solver command when
none is configured.

ColumnarModel is the one array layout of a model, from the builder's
MilpModel, which extends it, to HiGHS: columns with cost, bound and integer
arrays; rows with sense (L, E, G), rhs and range arrays (NaN: no range);
the matrix as ENTRY records (row id, column id, value) in any order; SOS
sets as (type, name, ((column id, weight), ...)). parse_mps reads a file
into it, columns in first-seen order, rows in declaration order and entries
in file order. The text is read in pieces of 64 KB (text_pieces, which the
gateway's solution reader shares), so no Python object per token lives
longer than its piece; ids and values go to typed arrays, and costs are
summed into one that grows with the columns. A piece of the COLUMNS
section whose every line is a plain entry line (ASCII, ending in a line
feed, starting with a blank, three tokens, no 'MARKER') is read as a
whole: one split, row ids and values mapped in C into numpy, new column
names registered with dict.fromkeys, costs summed with np.add.at in file
order, and one append to each typed array. Any other piece, and one
holding an unknown row, a bad number, NaN or an infinite value, is read
line by line, so every error names its line as before. On G-01 CTG-B,
615,000 lines, parse_mps took 0.50-0.53 s against 0.87-1.15 s line by
line (interleaved in one process, 2 shared vCPUs), and the adapter
0.92-1.00 s against 1.23-1.56 s. A matrix coefficient must be finite:
HiGHS refuses the model otherwise. write_solution writes the solution in
column order, the nonzero values only: a reader takes an absent name as 0.
On G-01 CTG-B, 1,390 of 203,523 columns are nonzero, and the file went
from 2.77 MB to 37 KB. run() ends the process with os._exit once the
solution file is closed and the output flushed: from main's return to
the exit took 44-60 ms with the interpreter's teardown and 3-9 ms
without it, on A-01 MQN-B and G-01 CTG-B.

solve_arrays is the one seam to HiGHS: cost, column bounds, integrality, a
CSC matrix and row bounds in, as one list; status word, objective and x
out. It passes the numpy arrays to the binding as they are
and reads back x, the objective and, where it prices columns, the duals.

main drops the parsed model, all but the declared column names that
write_solution needs, before the solve: HiGHS reads the CSC arrays, not
the model's matrix entries. The arrays stay with the caller while HiGHS
runs; a sifted LP prices with them anyway, while HiGHS holds only its
working set. The adapter's peak RSS on G-01 CTG-B reads 100-110 MB and
moves with incidental heap layout: another solution file path or
launching process, with the code unchanged, shifted it by up to 5 MB,
either way.

HiGHS presolve runs only when a column is integral: on the block-free
cells, all pure LPs, the dual simplex is faster on the unreduced model
(42 cells, templates A-G under MQN-B, CTG-B and QNA-B: 6.5 s of
HiGHS time with presolve, 4.3 s without; on G CTG-B presolve took 0.6 s of
1.5 s, removed 593 of 1,962 rows, and raised the adapter's peak RSS from
about 170 to 248 MB), while the blocked MIPs take 2-4 times as long
without it.

A pure LP with far more columns than rows is sifted (Bixby, Gregory,
Lustig, Marsten & Shanno, "Very large-scale linear programming: a case
study in combining interior point and simplex methods", Operations Research
40(5), 1992). Its working set holds every column that cannot rest at 0 and,
for each row, the _PER_ROW cheapest columns in that row that can; a column
can rest at 0 when its lower bound is exactly 0 and its upper bound above
0. HiGHS solves the LP over the working set. Each column outside it is then
priced with HiGHS's row duals y, d = c - A'y, on the CSC arrays, and every
column with d below minus HiGHS's dual_feasibility_tolerance joins the set
through addCols on the same warm object. The solve stops when no column
prices out; x is scattered back into the full column order, the columns
left out at 0. A working set that ends infeasible, unbounded or in error
gets every column left and one more run, whose answer stands: a restricted
LP's infeasibility is not the LP's. A time limit ends the solve as a
timeout with no x. When the working set holds every column, as it does for
every block-free MQN-B and QNA-B model measured, the LP goes to HiGHS whole
and runs once. G-01 CTG-B has 203,523 columns and 1,962 rows; its working
set holds 10,706 columns, 100 more price out, and the second LP is optimal.
HiGHS took 0.24-0.27 s of it, against 1.5-1.9 s for the whole LP, and the
adapter 1.8-2.4 s, against 3.4-4.0 s, with its peak down from 127.4 to
101.5 MB. _PER_ROW on G-01 CTG-B, one process each, three runs:

    _PER_ROW  HiGHS time   LPs  columns at the end
           1  1.51-1.93 s    2  203,523 (first set infeasible)
           3  2.98-3.08 s    4   40,776
           5  1.28-1.30 s    5   12,199
          10  0.30 s         3    6,343
          20  0.24-0.27 s    2   10,806
          50  0.30-0.32 s    2   25,192

A MIP is solved relaxation first. Its integer columns are relaxed and the
LP's objective is a bound. A fixed LP fixes every integer but the
binarized SOS flags, the switches, at 0 or 1 and is solved again on the
same object; it is the answer if it is optimal within the gap of the bound
(ub - lb <= gap * max(1, |ub|), HiGHS's own mip_rel_gap rule) and each
SOS set holds on its members within mip_feasibility_tolerance (at most one
nonzero in an SOS1 set, two adjacent in an SOS2 set). The flags stay
continuous and are set from their members in the answer: rounded up beside
the switches, a W complement's flag at 0.018 went to 1 beside its removal
indicator at 1 and closed the set's other member, and the fixed LPs of
D-03 and C-01 under MQN-S1 were infeasible. A switch within the tolerance
of its fixed value is written as that value, so a closed gate is exactly
closed. In the blocked models the switches are removal indicators: Y_k_t
opens block k's big-M gate rows from step t on.

The first fixed LP rounds each switch up, ceil(x - tolerance), warm from
the relaxation's basis: it keeps every gate the relaxation opened, so it
stays feasible, where rounding to nearest closed gates and left LPs HiGHS
could not settle. On the ten cells of perfbench's blocked-roads workload
this took the solve from 5.9-6.4 s to 3.2-3.9 s. If it misses, removal
schedules are tried. monotone_chains reads the switches' chains off the
matrix, with no name read, as the builder's MON_k_t rows lay them out, and
the search runs only when every switch lies on a chain. A schedule gives
each chain one threshold, its switches at 0 before it and at 1 from it on.
The candidates are the rounded schedule's neighbours, each with one block
removed a step later, at most one per chain (_Fixing.delays): the rounded
LP's reduced costs price that, and the block whose early removal costs
most goes first. Each of the 24 cells measured that rounding left open
(the suite's C-01 and B-02, unjittered and at perfbench seeds, and five
roads with 3 blocks) closed at its first neighbour. Schedules in order of
L1 distance from the relaxation did worse: the relaxation leaks through
the big-M gates, a Y of 0.0002-0.02 before a block's nearest threshold,
so its nearest schedule is often infeasible, and on the 3-block G road
under MQN-B the first that closes is the 24th, behind four feasible ones
at 2.2-3.5 s each. Each neighbour is solved cold (clearSolver, presolve
on), so an infeasible one ends in presolve, in 0.001-0.14 s on the roads
measured; warm, HiGHS skips presolve, and infeasible schedules of C-01
took 1.9-7.9 s each. The first that closes the MIP is the answer, noted "(schedule tau_1 ... tau_K, N
LPs)", N counting the rounded LP too. No neighbour starts once the
search's LPs have taken as long as the relaxation did.

Otherwise the MIP is solved by branch and bound on a fresh object, started
from the best MIP-feasible x the fixed LPs found: reusing the relaxation's
object kept its LP data alongside the MIP's, and the adapter's peak on
D-03 MQN-S1 rose from 50 to 56 MB. Each run gets what is left of the time
limit. An infeasible relaxation ends the solve as infeasible, one stopped
by the limit as a timeout; a fixed LP stopped by it ends the solve as
feasible with the best MIP-feasible x found, else as a timeout.

solve_parsed builds those arrays from a ColumnarModel, parsed
or built (csc_arrays, row_bounds), and calls it. The binding is loaded on
first use by highs_core, straight from scipy's directory and under its own
module name, so the adapter never imports scipy.optimize or scipy.sparse,
which were most of its start-up, and a later import of scipy.optimize in
the same process reuses the loaded extension.

SOS sets are rewritten with auxiliary binaries, which requires finite
bounds on all set members. ``--sos binarize`` names that rewrite; it is the
default and the only choice, accepted so existing command templates run.
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
from itertools import filterfalse, repeat
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

_PIECE_CHARS = 1 << 16

# For each row, how many of the cheapest columns that can rest at 0 a pure
# LP's first working set takes (working_set); the module docstring gives
# its sweep on G-01 CTG-B.
_PER_ROW = 20


@dataclass(eq=False)
class ColumnarModel:
    """A model as arrays, laid out as the module docstring says."""

    name: str
    columns: tuple[str, ...]
    cost: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    col_integer: np.ndarray
    row_order: tuple[str, ...]
    senses: np.ndarray
    row_rhs: np.ndarray
    row_range: np.ndarray
    entries: np.ndarray
    sos_sets: tuple[tuple[int, str, tuple[tuple[int, float], ...]], ...]
    # The sets binarize_sos replaced: (type, member ids in weight order,
    # flag ids), each flag of an SOS1 set beside its member, each flag of
    # an SOS2 set spanning members i and i + 1.
    sos_flags: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...] = ()


def entry_records(row, col, value) -> np.ndarray:
    """ENTRY records from row ids, column ids and values."""
    entries = np.empty(len(value), ENTRY)
    entries["row"], entries["col"], entries["value"] = row, col, value
    return entries


def parse_mps(text: str) -> ColumnarModel:
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
    # row_id with the objective row at -1, for _plain_entries; None once
    # a ROWS line changes either.
    row_lookup: dict[str, int] | None = None

    def touch(var: str) -> int:
        col = col_id.get(var)
        if col is None:
            col = col_id[var] = len(columns)
            columns.append(var)
            cost.append(0.0)
        return col

    lineno = 0
    for piece in text_pieces(text):
        if section == "COLUMNS":
            if row_lookup is None:
                row_lookup = {**row_id, objective_row: -1}
            plain = _plain_entries(piece, row_lookup)
            if plain is not None:
                names, rows, values = plain
                fresh = list(filterfalse(col_id.__contains__,
                                         dict.fromkeys(names)))
                first = len(columns)
                columns.extend(fresh)
                col_id.update(zip(fresh, range(first, len(columns))))
                cost.extend(repeat(0.0, len(fresh)))
                cols = np.fromiter(map(col_id.__getitem__, names), np.int64,
                                   len(names))
                priced = rows == -1
                # in file order, as cost[col] += value adds them
                np.add.at(np.frombuffer(cost), cols[priced], values[priced])
                kept = ~priced
                entry_row.frombytes(rows[kept].tobytes())
                entry_col.frombytes(cols[kept].tobytes())
                entry_value.frombytes(values[kept].tobytes())
                if in_integer:
                    integer.extend(cols.tolist())
                last_var, last_col = names[-1], int(cols[-1])
                lineno += len(names)
                continue

        for lineno, raw in enumerate(piece.splitlines(), start=lineno + 1):
            tokens = raw.split()
            if not tokens or raw.startswith("*"):
                continue

            if not raw[0].isspace():
                head = tokens[0].upper()
                if head == "NAME":
                    name = tokens[1] if len(tokens) > 1 else ""
                    continue
                if head in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS",
                            "SOS"):
                    section = head
                    in_integer = False
                    current_sos = None
                    continue
                if head == "ENDATA":
                    section = head
                    break
                raise MpsError(f"line {lineno}: unknown section "
                               f"{tokens[0]!r}")

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
                    row = tokens[pos]
                    value = _parse_num(tokens[pos + 1], lineno)
                    if row == objective_row:
                        cost[col] += value
                        continue
                    r = row_id.get(row)
                    if r is None:
                        raise MpsError(f"line {lineno}: unknown row {row!r}")
                    if not math.isfinite(value):
                        raise MpsError(f"line {lineno}: matrix coefficient "
                                       f"{value!r} is not finite")
                    entry_row.append(r)
                    entry_col.append(col)
                    entry_value.append(value)

            elif section == "ROWS":
                if len(tokens) != 2:
                    raise MpsError(f"line {lineno}: malformed row declaration")
                sense, row = tokens[0].upper(), tokens[1]
                row_lookup = None
                if sense == "N":
                    if not objective_row:
                        objective_row = row
                    continue
                if sense not in ("L", "G", "E"):
                    raise MpsError(f"line {lineno}: unknown row sense "
                                   f"{sense!r}")
                if row in row_id:
                    raise MpsError(f"line {lineno}: duplicate row {row!r}")
                row_id[row] = len(row_order)
                row_order.append(row)
                senses.append(sense)

            elif section in ("RHS", "RANGES"):
                if len(tokens) not in (3, 5):
                    raise MpsError(f"line {lineno}: malformed {section} entry")
                for pos in range(1, len(tokens), 2):
                    row = tokens[pos]
                    value = _parse_num(tokens[pos + 1], lineno)
                    r = row_id.get(row)
                    if r is not None:
                        (rhs if section == "RHS" else ranges)[r] = value
                    elif section == "RANGES" or row != objective_row:
                        raise MpsError(f"line {lineno}: unknown row {row!r}")

            elif section == "BOUNDS":
                kind = tokens[0].upper()
                if len(tokens) != (3 if kind in ("FR", "MI", "PL", "BV")
                                   else 4):
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
                    raise MpsError(f"line {lineno}: unknown bound type "
                                   f"{kind!r}")
                if kind in ("BV", "UI", "LI"):
                    integer.append(col)

            elif section == "SOS":
                if tokens[0].upper() in ("S1", "S2"):
                    current_sos = []
                    sos_sets.append((int(tokens[0][1]), tokens[-1],
                                     current_sos))
                else:
                    if current_sos is None or len(tokens) != 2:
                        raise MpsError(f"line {lineno}: malformed SOS entry")
                    weight = _parse_num(tokens[1], lineno)
                    current_sos.append((touch(tokens[0]), weight))

            else:
                raise MpsError(f"line {lineno}: data outside any section")
        if section == "ENDATA":
            break

    if not objective_row:
        raise MpsError("no objective row declared")
    n, m = len(columns), len(row_order)
    col_integer = np.zeros(n, bool)
    col_integer[integer] = True
    return ColumnarModel(
        name, tuple(columns), np.frombuffer(cost, np.float64),
        _scatter(np.zeros(n), lower), _scatter(np.full(n, math.inf), upper),
        col_integer, tuple(row_order), np.array(senses, "U1"),
        _scatter(np.zeros(m), rhs), _scatter(np.full(m, math.nan), ranges),
        entry_records(np.frombuffer(entry_row, np.int64),
                      np.frombuffer(entry_col, np.int64),
                      np.frombuffer(entry_value, np.float64)),
        tuple((kind, label, tuple(members))
              for kind, label, members in sos_sets))


def _scatter(out: np.ndarray, values: dict[int, float]) -> np.ndarray:
    out[list(values)] = list(values.values())
    return out


def text_pieces(text: str) -> Iterator[str]:
    """text in consecutive pieces of 64 KB or a little more, each ending at
    a line feed but the last, so only one piece's lines or tokens need
    exist as objects at once."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _PIECE_CHARS) + 1 or len(text)
        yield text[start:stop]
        start = stop


def text_lines(text: str) -> Iterator[str]:
    """text.splitlines(), one piece of text_pieces at a time."""
    for piece in text_pieces(text):
        yield from piece.splitlines()


# What a piece of plain entry lines does not hold: the ASCII characters
# but the line feed that end a line for str.splitlines, the NUL that
# _plain_entries marks line ends with, and the marker keyword.
_NOT_PLAIN = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\0", "'MARKER'")


def _plain_entries(piece: str, row_lookup: dict[str, int]
                   ) -> tuple[list[str], np.ndarray, np.ndarray] | None:
    """The column names, row ids and values of a piece of COLUMNS text
    whose every line is a plain entry line, else None: an ASCII line that
    ends in a line feed, starts with a blank, and holds exactly three
    tokens, none of them 'MARKER', whose row row_lookup knows and
    whose value is a finite number. Lines then number as str.splitlines
    counts them, one per line feed."""
    if not (piece.isascii() and piece.endswith("\n") and piece[0] in " \t"
            and not any(mark in piece for mark in _NOT_PLAIN)):
        return None
    # Each line feed as a NUL after a blank: three tokens a line, then a
    # NUL of its own, which a line that starts with no blank would join.
    lines = piece.count("\n")
    tokens = piece.replace("\n", " \0").split()
    if len(tokens) != 4 * lines or tokens[3::4].count("\0") != lines:
        return None
    try:
        rows = np.fromiter(map(row_lookup.__getitem__, tokens[1::4]),
                           np.int64, lines)
        values = np.fromiter(map(float, tokens[2::4]), np.float64, lines)
    except (KeyError, ValueError):
        return None
    if not np.isfinite(values).all():
        return None
    return tokens[0::4], rows, values


def _parse_num(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise MpsError(f"line {lineno}: bad number {token!r}") from exc
    if value != value:
        raise MpsError(f"line {lineno}: NaN not allowed")
    return value


def binarize_sos(mps: ColumnarModel) -> None:
    """Rewrite SOS sets with auxiliary binaries and linking rows, appended
    to the column, row and entry arrays, in place; the sets and their
    binaries, the flags, go to sos_flags."""
    columns: list[str] = []
    rows: list[tuple[str, str, float]] = []       # name, sense, rhs
    entries: list[tuple[int, int, float]] = []
    lower, upper = mps.col_lower, mps.col_upper
    flagged: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []

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
            flags = [binary(f"_SOSB_{seq}_{pos}")
                     for pos in range(1, len(ordered))]
            r = row(f"_SOSC_{seq}", "E", 1.0)
            entries.extend((r, seg, 1.0) for seg in flags)
            for pos, (col, _) in enumerate(ordered, start=1):
                # the segments on either side of the member's position
                link(f"_SOSL_{seq}_{pos}", col, *flags[max(pos - 2, 0):pos])
        flagged.append((sos_type, tuple(col for col, _ in ordered),
                        tuple(flags)))
    mps.sos_sets = ()
    mps.sos_flags += tuple(flagged)

    n = len(columns)
    mps.columns += tuple(columns)
    mps.cost = np.concatenate([mps.cost, np.zeros(n)])
    mps.col_lower = np.concatenate([lower, np.zeros(n)])
    mps.col_upper = np.concatenate([upper, np.ones(n)])
    mps.col_integer = np.concatenate([mps.col_integer, np.ones(n, bool)])
    names, senses, rhs = zip(*rows) if rows else ((), (), ())
    mps.row_order += names
    mps.senses = np.concatenate([mps.senses, np.array(senses, "U1")])
    mps.row_rhs = np.concatenate([mps.row_rhs, rhs])
    mps.row_range = np.concatenate([mps.row_range, np.full(len(rows),
                                                           math.nan)])
    mps.entries = np.concatenate([mps.entries, np.array(entries, ENTRY)])


def row_bounds(model: ColumnarModel) -> tuple[np.ndarray, np.ndarray]:
    """Each row's lower and upper bound: L is rhs from above, G from below,
    E both; a range r widens L to [rhs - |r|, rhs], G to [rhs, rhs + |r|],
    and E to [rhs, rhs + r] when r >= 0, else [rhs + r, rhs]."""
    rhs, rng, sense = model.row_rhs, model.row_range, model.senses
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


def csc_arrays(model: ColumnarModel
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The matrix in CSC form as HiGHS takes it: column starts, row ids and
    values, row ids ascending within each column and repeated (row,
    column) entries summed in the entries' order."""
    entries, n = model.entries, len(model.columns)
    key = entries["col"] * len(model.row_order) + entries["row"]
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


def model_arrays(model: ColumnarModel) -> list[np.ndarray]:
    """solve_arrays' model, in the order HiGHS's passModel takes it: cost,
    column bounds, row bounds, the CSC matrix and integrality. SOS sets
    must be binarized first."""
    if model.sos_sets:
        raise MpsError("model holds SOS sets; binarize them first")
    infinite = np.flatnonzero(~np.isfinite(model.cost))
    if len(infinite):
        col = int(infinite[0])
        raise MpsError(f"column {model.columns[col]}: objective coefficient "
                       f"{float(model.cost[col])!r} is not finite")
    return [model.cost, model.col_lower, model.col_upper, *row_bounds(model),
            *csc_arrays(model), model.col_integer]


def solve_parsed(model: ColumnarModel, time_limit: float | None,
                 gap: float | None) -> tuple[str, float | None, np.ndarray | None]:
    """Returns (status, objective, values): status in optimal|feasible|
    timeout|infeasible|unbounded|error."""
    return solve_arrays(model_arrays(model), time_limit, gap,
                        model.sos_flags)[:3]


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


def solve_arrays(arrays: list[np.ndarray], time_limit: float | None,
                 gap: float | None,
                 sos_flags: tuple[tuple[int, tuple[int, ...],
                                        tuple[int, ...]], ...]
                 ) -> tuple[str, float | None, np.ndarray | None, str]:
    """Minimize cost @ x subject to row_lower <= A @ x <= row_upper and
    col_lower <= x <= col_upper, x integral where integrality is set.
    arrays holds, as model_arrays lays them out, cost, col_lower,
    col_upper, row_lower, row_upper, A as CSC (start, index, value) and
    integrality; sos_flags holds the sets binarize_sos replaced, as
    ColumnarModel.sos_flags does. Returns (status, objective, x) as
    solve_parsed does, and a note on how a MIP closed: its bound and path,
    or "" when there is none to tell.

    A pure LP runs without presolve: one run() when its working set holds
    every column, else sifted, one run() a round, with the note "(sifted:
    N LPs, K of n columns)" (module docstring). A MIP closes from its
    relaxation when it can (module docstring), else by branch and bound,
    which loads the arrays again. Each run() gets what is left of
    time_limit. Raises ValueError if HiGHS rejects an option value, such
    as a negative time limit or gap."""
    core = highs_core()
    deadline = None if time_limit is None else time.monotonic() + time_limit
    # The binding reads raw buffers: each array goes in contiguous, as
    # float64 or as int32 (HiGHS's HighsInt).
    f64, i32 = np.float64, np.int32
    buffers = [np.ascontiguousarray(a, dtype) for a, dtype in zip(
        arrays, (f64, f64, f64, f64, f64, i32, i32, f64, i32), strict=True)]
    is_mip = bool(buffers[-1].any())
    options = [("log_to_console", False),
               ("presolve", "on" if is_mip else "off")]
    if time_limit is not None:
        options.append(("time_limit", float(time_limit)))
    if gap is not None:
        options.append(("mip_rel_gap", float(gap)))

    if not is_mip:
        working = working_set(buffers)
        if not working.all():
            return _sift(core, options, buffers, working, deadline)
    highs = _load(core, options, buffers)
    if highs is None:
        return "infeasible", None, None, ""
    if not is_mip:
        return _answer(highs, _run(highs, deadline), False, "")

    # The relaxation: its objective is a bound on the MIP's.
    ints = np.flatnonzero(buffers[-1]).astype(i32)
    highs.changeColsIntegrality(len(ints), ints, np.zeros(len(ints), np.uint8))
    began = time.monotonic()
    relaxed = _run(highs, deadline)
    # An infeasible relaxation proves the MIP infeasible; an unbounded one
    # proves nothing, so that goes on to branch and bound.
    if relaxed == "kInfeasible" or _STATUS_WORDS.get(relaxed) == "timeout":
        return _STATUS_WORDS[relaxed], None, None, ""
    start_x = None
    if relaxed == "kOptimal":
        fixing = _Fixing(highs, buffers, sos_flags, deadline)
        answer = fixing.close(budget=time.monotonic() - began)
        if answer is not None:
            return answer
        start_x = fixing.best_x

    # Branch and bound on a fresh object: the relaxation's would keep its
    # LP data alongside the MIP's (module docstring).
    del highs
    highs = _load(core, options, buffers)
    if highs is None:
        return "infeasible", None, None, ""
    if start_x is not None:
        highs.setSolution(len(start_x), np.arange(len(start_x), dtype=i32),
                          start_x)
    model_status = _run(highs, deadline)
    info = highs.getInfo()
    return _answer(highs, model_status, True,
                   f"bound {info.mip_dual_bound} (branch and bound, "
                   f"{info.mip_node_count} nodes, gap {info.mip_gap})")


def working_set(arrays: list[np.ndarray]) -> np.ndarray:
    """The first working set of a pure LP, as a mask over its columns:
    every column that cannot rest at 0 and, for each row, the _PER_ROW
    cheapest columns in it that can, the lower column id first among equal
    costs. A column can rest at 0 when its lower bound is exactly 0 and
    its upper bound above 0. arrays are laid out as model_arrays does."""
    cost, col_lower, col_upper, row_lower, _, start, index, _, _ = arrays
    n, m = len(cost), len(row_lower)
    rests = (col_lower == 0.0) & (col_upper > 0.0)
    working = ~rests
    by_cost = np.argsort(cost, kind="stable")   # lower id first on a tie
    cost_rank = np.empty(n, np.int64)
    cost_rank[by_cost] = np.arange(n)
    col = np.repeat(np.arange(n), np.diff(start))
    at = np.flatnonzero(rests[col])
    # One sort by row, then cost: each entry as row * n + its cost rank.
    key = index[at] * np.int64(n) + cost_rank[col[at]]
    key.sort()
    row = key // n
    first = np.zeros(m + 1, np.int64)   # each row's first position in key
    np.cumsum(np.bincount(row, minlength=m), out=first[1:])
    near = np.arange(len(key)) - first[row] < _PER_ROW
    working[by_cost[key[near] - row[near] * n]] = True
    return working


def _sift(core, options, buffers: list[np.ndarray], working: np.ndarray,
          deadline: float | None):
    """A wide LP solved over a working set of its columns and priced with
    the duals, round by round (module docstring); it marks in working each
    column that joins."""
    cost, col_lower, col_upper, row_lower, row_upper, start, index, value, \
        _ = buffers
    n = len(cost)

    def gather(cols: np.ndarray) -> list[np.ndarray]:
        """cost, bounds and CSC matrix (start, index, value) of cols."""
        counts = np.diff(start)[cols]
        sub = np.zeros(len(cols) + 1, np.int32)
        np.cumsum(counts, out=sub[1:])
        at = np.repeat(start[cols] - sub[:-1], counts) + np.arange(sub[-1])
        return [cost[cols], col_lower[cols], col_upper[cols], sub, index[at],
                value[at]]

    order = np.flatnonzero(working)     # HiGHS's columns, as full ids
    part = gather(order)
    highs = _load(core, options, [*part[:3], row_lower, row_upper, *part[3:],
                                  np.zeros(len(order), np.int32)])
    if highs is None:
        return "infeasible", None, None, ""
    tolerance = highs.getOptionValue("dual_feasibility_tolerance")[1]
    col = np.repeat(np.arange(n), np.diff(start))
    runs = 0
    while True:
        model_status = _run(highs, deadline)
        runs += 1
        if model_status == "kOptimal":
            # d = c - A'y over the columns HiGHS has not got
            y = np.array(highs.getSolution().row_dual)
            reduced = cost - np.bincount(col, weights=value * y[index],
                                         minlength=n)
            entering = np.flatnonzero(~working & (reduced < -tolerance))
            if not len(entering):
                break
        elif _STATUS_WORDS.get(model_status) == "timeout" or working.all():
            break
        else:
            # A working set's infeasibility or unboundedness is not the
            # LP's: the whole LP decides.
            entering = np.flatnonzero(~working)
        part = gather(entering)
        added = highs.addCols(len(entering), *part[:3], len(part[5]),
                              part[3][:-1], *part[4:])
        if added == core.HighsStatus.kError:
            return "infeasible", None, None, ""
        working[entering] = True
        order = np.concatenate([order, entering])
    word, objective, x, _ = _answer(highs, model_status, False, "")
    if x is None:
        return word, None, None, ""
    full = np.zeros(n)
    full[order] = x
    return (word, objective, full,
            f"(sifted: {runs} LPs, {len(order)} of {n} columns)")


class _Fixing:
    """Fixed LPs on the relaxed object, which has just solved the
    relaxation: the switches, every integer but the binarized SOS flags,
    are fixed at 0 or 1 and the LP solved again; the flags stay
    continuous and are left to their members (module docstring)."""

    def __init__(self, highs, buffers, sos_flags, deadline: float | None):
        self.highs, self.deadline = highs, deadline
        self.sets = [(kind, np.array(members), np.array(flags, np.intp))
                     for kind, members, flags in sos_flags]
        _, self.col_lower, self.col_upper, *_, integrality = buffers
        switch = integrality.astype(bool)
        for _, _, flags in self.sets:
            switch[flags] = False
        self.switches = np.flatnonzero(switch).astype(np.int32)
        self.arrays = buffers
        self.bound = highs.getInfo().objective_function_value
        self.tolerance = highs.getOptionValue("mip_feasibility_tolerance")[1]
        self.rel_gap = highs.getOptionValue("mip_rel_gap")[1]
        self.relaxed_x = np.array(highs.getSolution().col_value)
        self.best_x, self.best = None, math.inf
        self.lps = 0

    def close(self, budget: float):
        """solve_arrays' answer when a fixed LP closes the MIP or the time
        limit stops one, else None, with best_x the best MIP-feasible x
        found for branch and bound to start from, if any."""
        # Each switch rounded up: a gate the relaxation opened stays open.
        x = self.relaxed_x[self.switches]
        rounded = np.clip(np.ceil(x - self.tolerance),
                          self.col_lower[self.switches],
                          self.col_upper[self.switches])
        if np.array_equal(rounded, np.round(rounded)):
            outcome = self.solve(rounded, cold=False)
            if outcome != "open":
                return self.answer(outcome, "rounded relaxation")
        chains = monotone_chains(self.arrays, self.switches)
        if not chains:
            return None
        spent = 0.0
        for taus in self.delays(chains, rounded):
            if spent >= budget:
                return None
            fixed = np.empty(len(self.col_lower))
            for chain, tau in zip(chains, taus):
                fixed[chain] = np.arange(len(chain)) >= tau
            began = time.monotonic()
            outcome = self.solve(fixed[self.switches], cold=True)
            spent += time.monotonic() - began
            if outcome != "open":
                return self.answer(outcome, "schedule " + " ".join(
                    map(str, taus)) + f", {self.lps} LPs")
        return None

    def delays(self, chains: list[np.ndarray], rounded: np.ndarray
               ) -> list[tuple[int, ...]]:
        """The rounded schedule with one chain's threshold a step later,
        for each chain whose first switch at 1 has a positive reduced cost
        in the rounded LP, the largest first: lowering that switch, so
        removing the block a step later, lowers the LP's cost most; none
        when the rounded LP has no optimum to read them from."""
        if self.highs.getModelStatus().name != "kOptimal":
            return []
        reduced = np.array(self.highs.getSolution().col_dual)
        at = np.zeros(len(self.col_lower))
        at[self.switches] = rounded
        up = [int(np.count_nonzero(at[chain] == 0.0)) for chain in chains]
        later = sorted((-reduced[chain[tau]], k)
                       for k, (chain, tau) in enumerate(zip(chains, up))
                       if tau < len(chain) and reduced[chain[tau]] > 0.0)
        return [tuple(tau + (j == k) for j, tau in enumerate(up))
                for _, k in later]

    def solve(self, fixed: np.ndarray, cold: bool) -> str:
        """One fixed LP: "closed" when it is MIP-feasible within the gap
        of the bound, "timeout" when the time limit stopped it, else
        "open". A MIP-feasible x better than best_x replaces it. A cold
        LP starts from no basis, so HiGHS presolve runs and ends an
        infeasible one quickly."""
        highs = self.highs
        highs.changeColsBounds(len(self.switches), self.switches, fixed,
                               fixed)
        if cold:
            highs.clearSolver()
        self.lps += 1
        model_status = _run(highs, self.deadline)
        if _STATUS_WORDS.get(model_status) == "timeout":
            return "timeout"
        if model_status != "kOptimal":
            return "open"
        x = np.array(highs.getSolution().col_value)
        if not self.sets_hold(x):
            return "open"
        # Each gate exactly closed or open: HiGHS may leave a fixed column
        # a rounding error off its bound.
        near = np.abs(x[self.switches] - fixed) <= self.tolerance
        x[self.switches[near]] = fixed[near]
        self.set_flags(x)
        objective = highs.getInfo().objective_function_value
        if objective < self.best:
            self.best, self.best_x = objective, x
        if objective - self.bound <= self.rel_gap * max(1.0, abs(objective)):
            return "closed"
        return "open"

    def answer(self, outcome: str, path: str):
        if outcome == "closed":
            return ("optimal", float(self.best), self.best_x,
                    f"bound {self.bound} ({path})")
        if self.best_x is None:
            return "timeout", None, None, ""
        return ("feasible", float(self.best), self.best_x,
                f"bound {self.bound} (time limit, {self.lps} LPs)")

    def sets_hold(self, x: np.ndarray) -> bool:
        """Whether each SOS set holds on its members: at most one nonzero
        in an SOS1 set, at most two in an SOS2 set, and those adjacent."""
        for kind, members, _ in self.sets:
            at = np.flatnonzero(np.abs(x[members]) > self.tolerance)
            if len(at) > kind or (len(at) == 2 and at[1] - at[0] != 1):
                return False
        return True

    def set_flags(self, x: np.ndarray) -> None:
        """Each flag at 0 or 1 as its set's members are, whose sets hold:
        an SOS1 flag at 1 beside a nonzero member, the SOS2 segment at 1
        that spans its nonzero members, the first when none is."""
        for kind, members, flags in self.sets:
            nonzero = np.abs(x[members]) > self.tolerance
            if kind == 1:
                x[flags] = nonzero
            elif len(flags):
                at = np.flatnonzero(nonzero)
                x[flags] = 0.0
                x[flags[min(at[0] if len(at) else 0, len(flags) - 1)]] = 1.0


def monotone_chains(arrays: list[np.ndarray], switches: np.ndarray
                    ) -> list[np.ndarray] | None:
    """The monotone chains through the switches, each as its column ids
    from the one that stays at 0 longest to the one at 1 first; None
    unless every switch lies on exactly one chain, in order.

    A chain link is a row of two entries, on [0, 1] switches, with
    coefficients +1 and -1 and row bounds [0, inf) or (-inf, 0]: it keeps
    one switch at or below the other, as the builder's MON_k_t rows keep a
    removed block removed. No name is read."""
    _, col_lower, col_upper, row_lower, row_upper, start, index, value, _ = \
        arrays
    n = len(col_lower)
    binary = np.zeros(n, bool)
    binary[switches] = (col_lower[switches] == 0.0) \
        & (col_upper[switches] == 1.0)
    at_least = (row_lower == 0.0) & (row_upper == math.inf)
    at_most = (row_lower == -math.inf) & (row_upper == 0.0)
    pair = (np.bincount(index, minlength=len(row_lower)) == 2) \
        & (at_least | at_most)
    at = np.flatnonzero(pair[index])
    at = at[np.argsort(index[at], kind="stable")]   # by row, two by two
    col = np.repeat(np.arange(n), np.diff(start))[at]
    row, coeff = index[at[::2]], value[at]
    first, second = col[::2], col[1::2]
    link = binary[first] & binary[second] \
        & (np.abs(coeff[::2]) == 1.0) & (coeff[::2] == -coeff[1::2])
    # plus - minus >= 0 keeps minus below plus; <= 0 keeps plus below.
    plus = np.where(coeff[::2] == 1.0, first, second)[link]
    minus = np.where(coeff[::2] == 1.0, second, first)[link]
    upward = at_least[row[link]]
    low = np.where(upward, minus, plus)
    high = np.where(upward, plus, minus)
    if np.bincount(low, minlength=n).max(initial=0) > 1 \
            or np.bincount(high, minlength=n).max(initial=0) > 1:
        return None
    above = np.full(n, -1)
    above[low] = high
    below = np.zeros(n, bool)
    below[high] = True
    chains = []
    for head in np.flatnonzero(binary & ~below & (above >= 0)).tolist():
        chain = [head]
        while above[chain[-1]] >= 0:
            chain.append(int(above[chain[-1]]))
        chains.append(np.array(chain))
    if sum(map(len, chains)) != len(switches):
        return None     # a switch off every chain, or a cycle
    return chains


def _load(core, options, arrays):
    """A fresh HiGHS object holding the model, or None if HiGHS refused
    the model."""
    highs = core._Highs()
    for option, setting in options:
        if highs.setOptionValue(option, setting) == core.HighsStatus.kError:
            raise ValueError(f"HiGHS rejected option {option} = {setting!r}")
    cost, _, _, row_lower, _, _, _, value, _ = arrays
    loaded = highs.passModel(
        len(cost), len(row_lower), len(value),
        int(core.MatrixFormat.kColwise), int(core.ObjSense.kMinimize), 0.0,
        *arrays)
    return None if loaded == core.HighsStatus.kError else highs


def _run(highs, deadline: float | None) -> str:
    """highs.run() within what is left until deadline; the model status's
    name. HiGHS's run clock adds up over one object's runs."""
    if deadline is not None:
        left = max(deadline - time.monotonic(), 0.0)
        highs.setOptionValue("time_limit", highs.getRunTime() + left)
    highs.run()     # a failed run leaves an error model status
    return highs.getModelStatus().name


def _answer(highs, model_status: str, is_mip: bool, note: str
            ) -> tuple[str, float | None, np.ndarray | None, str]:
    """solve_arrays' return value from the object's last run."""
    objective = highs.getInfo().objective_function_value
    word = status_word(model_status, is_mip, objective)
    if word not in ("optimal", "feasible"):
        return word, None, None, ""
    return (word, float(objective), np.array(highs.getSolution().col_value),
            note)


def write_solution(path: str, status: str, objective: float | None,
                   wall_time: float, columns: tuple[str, ...],
                   values: np.ndarray | None) -> None:
    """The reserved keys, then one "name value" line per column whose value
    is not 0.0 (-0.0 is 0.0), in column order, and the first column's line
    in any case: a reader turns an optimal file with no values into an
    error, and reads an absent name as 0. values may run on past columns:
    binarize_sos appends its binaries after the columns the file declared,
    and those are not written."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"status {status}\n")
        if objective is not None:
            fh.write(f"objective {objective!r}\n")
        fh.write(f"wall_time {wall_time!r}\n")
        if values is None or not columns:
            return
        # A mask, not np.union1d, which imports numpy.ma in numpy 2.
        nonzero = values[:len(columns)] != 0.0
        nonzero[0] = True
        kept = np.flatnonzero(nonzero)
        fh.write("".join([f"{columns[at]} {value!r}\n" for at, value in zip(
            kept.tolist(), values[kept].tolist())]))


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
    parser.add_argument("--sos", choices=("binarize",), default="binarize",
                        help="how to treat SOS sections (default and only "
                             "choice: binarize)")
    args = parser.parse_args(argv)

    start = time.monotonic()
    try:
        # The text and the reader's name tables are gone once parse_mps
        # returns, before HiGHS allocates.
        with open(args.mps, "r", encoding="ascii") as fh:
            mps = parse_mps(fh.read())
        declared = len(mps.columns)
        # binarize_sos copies every array even with no set to rewrite.
        if mps.sos_sets:
            binarize_sos(mps)
        columns = mps.columns[:declared]
        arrays, sos_flags = model_arrays(mps), mps.sos_flags
        del mps     # its matrix entries: HiGHS reads the CSC copy
        status, objective, values, note = solve_arrays(
            arrays, args.time_limit, args.gap, sos_flags)
        write_solution(args.solution, status, objective,
                       time.monotonic() - start, columns, values)
    except (MpsError, OSError, ImportError, UnicodeDecodeError) as exc:
        print(f"valign-milp: {exc}", file=sys.stderr)
        try:
            with open(args.solution, "w", encoding="ascii") as fh:
                fh.write("status error\n")
                fh.write(f"message {exc}\n")
        except OSError:
            pass
        return 3

    print(f"valign-milp: {status}"
          + (f" objective {objective}" if objective is not None else "")
          + (f" {note}" if note else ""))
    return 0


def run() -> None:
    """The console script and ``python -m``: main's code as the exit
    status, with no interpreter teardown once the solution file is closed
    and the output flushed. A usage error or an uncaught exception exits
    as usual."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
