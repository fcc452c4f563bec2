"""The MPS format, both ways: the deterministic free-format writer and the
reader the bundled adapter uses. This module imports no numpy until a
model is written or made from a file.

Layout contract of the writer (parse_mps reads it back into the model's
layout):

* leading comment lines ``* key: value`` carry model provenance;
* fixed ``NAME VALIGN`` record so files differ only where models differ;
* one objective row ``N COST``, and no other row of that name;
* COLUMNS is column-major, rows in declaration order: one (variable, row,
  coefficient) triple per line, grouped by variable in declaration order,
  the objective entry first and then the variable's rows in the order they
  were declared; a variable with no entry at all gets a zero objective
  entry;
* ranged rows (two-sided inequalities) appear as sense L plus a RANGES
  entry, meaning rhs - range <= expr <= rhs;
* binaries are declared in BOUNDS with BV;
* SOS sets use a header line `` S<type> SET <name>`` followed by indented
  ``variable weight`` member lines.

The writer checks only that no row is named as the objective row: a
MilpModel lints itself when it is made. It writes the text in pieces of
bounded size. Over the model's entries it keeps one int32 stable order by
column; a piece is a run of whole columns (_pieces), which gathers its
columns' entries in that order and merges in their cost lines
(_column_lines). The model keeps no column name (builder.Names): a piece
spells its columns' names once, as one slice, and BOUNDS and SOS spell
theirs by id. Each distinct value is formatted once, by its bit pattern,
so -0.0 keeps its sign.

parse_mps reads a free-format file into a solve_core.ColumnarModel:
columns in first-seen order, rows in declaration order, entries in file
order. One table holds every row's id, the N rows' too: the first N row
is the objective row, and an N row past it is a free row, whose entries
are read, their numbers checked, and dropped, as HiGHS's readModel drops
them. A row's name is declared once, and a matrix coefficient must be
finite (HiGHS refuses the model otherwise). The text is read 64 KB at a
time (text_pieces, which the gateway's solution reader shares through
text_lines) into typed arrays, with no numpy (_Read); a piece of plain
COLUMNS lines is read as a whole (_plain_entries, over the same row
table), any other line by line. Every defect raises MpsError, which names
the line when one line is at fault.
"""

from __future__ import annotations

import math
import os
import struct
from array import array
from collections import Counter
from itertools import chain, compress, filterfalse, islice, repeat
from operator import add, lt, mul
from typing import TYPE_CHECKING, Iterator

from valign.highs import _PER_ROW

if TYPE_CHECKING:
    import numpy as np

    from valign.builder import MilpModel
    from valign.solve_core import ColumnarModel

OBJECTIVE_ROW = "COST"
BOUND_SET = "BND"
RHS_SET = "RHS"
RANGE_SET = "RNG"


def _num(value: float) -> str:
    if value != value or math.isinf(value):
        raise ValueError(f"non-finite coefficient {value!r} in MPS output")
    return repr(float(value))


class _Texts(dict):
    """_num of a float64 by its bit pattern, and a line feed, formatted
    when first asked for, so -0.0 keeps its sign."""

    def __missing__(self, bits: int) -> str:
        value, = struct.unpack("d", struct.pack("q", bits))
        text = self[bits] = _num(value) + "\n"
        return text


_CHUNK_LINES = 1 << 13


def _mps_chunks(model: MilpModel) -> Iterator[str]:
    """The rendering of a model as consecutive pieces of text of bounded
    size."""
    import numpy as np
    columns, row_order = model.columns, model.row_order
    lines = [f"* {key}: {value}" for key, value in model.provenance]
    lines += [f"NAME {model.name}", "ROWS", f" N {OBJECTIVE_ROW}"]
    lines += [f" {sense} {row}"
              for row, sense in zip(row_order, model.senses.tolist())]
    lines.append("COLUMNS")
    yield "\n".join(lines) + "\n"

    # One entry per line: a column's cost first when nonzero (a column
    # with no other entry gets a zero cost), then its matrix entries in row
    # order. An int32 stable order by column over the entries gives each
    # column's, from starts[c] to starts[c + 1]; a piece is the lines of a
    # run of columns, about _CHUNK_LINES of them, whose names it spells
    # once.
    col = model.entries["col"].astype(np.int32)
    order = np.argsort(col, kind="stable").astype(np.int32)
    col = col[order]
    starts = np.searchsorted(col, np.arange(len(columns) + 1, dtype=np.int32))
    del col
    costed = (model.cost != 0.0) | (starts[1:] == starts[:-1])
    rows = np.array([row + " " for row in (*row_order, OBJECTIVE_ROW)],
                    object)
    text = _Texts()
    for c0, c1 in _pieces(starts, costed):
        yield _column_lines(model, order, starts, costed, c0, c1, rows, text)

    lines = ["RHS"]
    rhs = model.row_rhs
    lines += [f"    {RHS_SET} {row_order[r]} {_num(rhs[r])}"
              for r in np.flatnonzero(rhs != 0.0).tolist()]
    ranged = np.flatnonzero(~np.isnan(model.row_range)).tolist()
    if ranged:
        lines.append("RANGES")
        lines += [f"    {RANGE_SET} {row_order[r]} {_num(model.row_range[r])}"
                  for r in ranged]

    lines.append("BOUNDS")
    lower, upper, binary = model.col_lower, model.col_upper, model.col_integer
    bounded = np.flatnonzero(binary | (lower != 0.0) | (upper != math.inf))
    for c, name in zip(bounded.tolist(), columns.take(bounded)):
        if binary[c]:
            lines.append(f" BV {BOUND_SET} {name}")
            continue
        lo, hi = float(lower[c]), float(upper[c])
        if lo == hi:
            lines.append(f" FX {BOUND_SET} {name} {_num(lo)}")
            continue
        if lo == -math.inf and hi == math.inf:
            lines.append(f" FR {BOUND_SET} {name}")
            continue
        if lo == -math.inf:
            lines.append(f" MI {BOUND_SET} {name}")
        elif lo != 0.0:
            lines.append(f" LO {BOUND_SET} {name} {_num(lo)}")
        if hi != math.inf:
            lines.append(f" UP {BOUND_SET} {name} {_num(hi)}")

    if model.sos_sets:
        lines.append("SOS")
        for sos_type, name, members in model.sos_sets:
            lines.append(f" S{sos_type} SET {name}")
            cols, weights = zip(*members)
            lines += [f"    {member} {_num(weight)}" for member, weight in zip(
                columns.take(cols), weights)]

    lines.append("ENDATA")
    yield "\n".join(lines) + "\n"


def _pieces(starts: np.ndarray, costed: np.ndarray) -> list[tuple[int, int]]:
    """The COLUMNS pieces, as (first, end) column ids, of columns whose
    entries start at starts (and end at the last) and whose cost lines
    costed marks: each a run of whole columns that ends with the one whose
    lines reach the next multiple of _CHUNK_LINES."""
    import numpy as np
    lines = starts[1:] + np.cumsum(costed)
    ends = np.searchsorted(lines, np.arange(
        _CHUNK_LINES, lines[-1] if len(lines) else 0, _CHUNK_LINES)) + 1
    stops = list(dict.fromkeys([*ends.tolist(), len(lines)]))
    return list(zip([0] + stops[:-1], stops)) if len(lines) else []


def _column_lines(model: MilpModel, order: np.ndarray, starts: np.ndarray,
                  costed: np.ndarray, c0: int, c1: int, rows: np.ndarray,
                  text: _Texts) -> str:
    """The COLUMNS lines of columns c0 to c1 (_mps_chunks): rows holds
    each row's name and a blank as an object array, the objective row's
    last, and text the values and a line feed."""
    import numpy as np
    entries, cost = model.entries, model.cost
    heads = costed[c0:c1]
    per_column = np.diff(starts[c0:c1 + 1]) + heads
    head = (np.cumsum(per_column) - per_column)[heads]
    body = np.ones(int(per_column.sum()), bool)
    body[head] = False
    line_row = np.empty(len(body), np.int64)
    line_bits = np.empty(len(body), np.int64)
    at = order[starts[c0]:starts[c1]]
    line_row[body] = entries["row"][at]
    line_bits[body] = entries["value"][at].view(np.int64)
    line_row[head] = len(rows) - 1
    line_bits[head] = np.where(cost[c0:c1] != 0.0, cost[c0:c1], 0.0)[
        heads].view(np.int64)
    # Each line as its five pieces, three of them put in place in C.
    pieces = ["    ", "", " ", "", ""] * len(body)
    pieces[1::5] = chain.from_iterable(map(
        repeat, model.columns[c0:c1], per_column.tolist()))
    pieces[3::5] = rows[line_row].tolist()
    pieces[4::5] = map(text.__getitem__, line_bits.tolist())
    return "".join(pieces)


def _check_row_names(model: MilpModel) -> None:
    """No row is named as the objective row, which a reader takes for it."""
    if OBJECTIVE_ROW in model.row_order:
        raise ValueError(f"row {OBJECTIVE_ROW!r} has the objective row's name "
                         "in MPS output")


def emit_mps_text(model: MilpModel) -> str:
    """Render the model; pure function of its contents."""
    _check_row_names(model)
    return "".join(_mps_chunks(model))


def emit_mps(model: MilpModel, path: str) -> str:
    """Write the rendering to path piece by piece; returns the path. A
    rendering that fails part way removes the partial file."""
    _check_row_names(model)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(_mps_chunks(model))
    except ValueError:
        os.remove(path)
        raise
    return path


def strip_comments(text: str) -> str:
    """Drop comment lines; used to compare models modulo provenance."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("*")) + "\n"


class MpsError(ValueError):
    """Raised on any defect in the MPS input."""


def parse_mps(text: str) -> ColumnarModel:
    return _read_mps(text).model()


# The sections of a conventional file (_Read), in the order they come.
_SECTIONS = ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS")


class _Read:
    """A file as parse_mps's reader leaves it, before any numpy array:
    names, row senses, and bounds, RHS and ranges by id; integer column
    ids; SOS sets; and every COLUMNS entry in file order, as typed arrays
    of row ids, column ids and values, an objective entry on row -1 and a
    free row's on -2.

    conventional: the file holds none of what HiGHS's own reader was
    seen to read otherwise, with kOk, apart from what plain_lp checks on
    the entries: its sections come in the order of _SECTIONS, each once;
    no free row follows the objective row; no RHS falls on an N row
    (HiGHS reads an offset); no row has two RHS or two range entries; no
    RHS or RANGES set is named as a row and no bound set as a column; no
    number holds an underscore (float reads 1_0 as 10)."""

    name: str
    columns: list[str]
    row_order: list[str]
    senses: list[str]
    lower: dict[int, float]
    upper: dict[int, float]
    rhs: dict[int, float]
    ranges: dict[int, float]
    integer: list[int]
    entry_row: array
    entry_col: array
    entry_value: array
    sos_sets: list[tuple[int, str, list[tuple[int, float]]]]
    conventional: bool

    def __init__(self, *fields) -> None:
        # The fields above, in their order. Not a dataclass: dataclasses
        # imports inspect, which the plain-LP route need not load.
        vars(self).update(zip(_Read.__annotations__, fields, strict=True))

    def model(self) -> ColumnarModel:
        """The file as a ColumnarModel: each cost the sum of its column's
        objective entries in file order, the matrix entries as they come,
        and no free row's entry."""
        import numpy as np

        from valign.solve_core import ENTRY, ColumnarModel
        n, m = len(self.columns), len(self.row_order)
        row = np.frombuffer(self.entry_row, np.int64)
        col = np.frombuffer(self.entry_col, np.int64)
        value = np.frombuffer(self.entry_value, np.float64)
        priced = row == -1
        cost = np.zeros(n)
        np.add.at(cost, col[priced], value[priced])   # in file order
        kept = row >= 0
        entries = np.empty(int(np.count_nonzero(kept)), ENTRY)
        for field, data in (("row", row), ("col", col), ("value", value)):
            entries[field] = data[kept]
        col_integer = np.zeros(n, bool)
        col_integer[self.integer] = True
        return ColumnarModel(
            self.name, tuple(self.columns), cost,
            _scatter(np.zeros(n), self.lower),
            _scatter(np.full(n, math.inf), self.upper), col_integer,
            tuple(self.row_order), np.array(self.senses, "U1"),
            _scatter(np.zeros(m), self.rhs),
            _scatter(np.full(m, math.nan), self.ranges), entries,
            tuple((kind, label, tuple(members))
                  for kind, label, members in self.sos_sets))

    def plain_lp(self) -> bool:
        """Whether HiGHS's own reader may load the file (milp_solve's
        docstring): a conventional LP with no SOS set and finite costs,
        whose entry keys (column, row + 1) strictly increase in file order
        (each column's lines together and in first-seen order, rows in
        declaration order within it, the objective's first, none
        repeated), with at most _PER_ROW entries in a row and one for
        each column that can rest at 0. The last two make
        solve_core.working_set take every column, so the LP would not be sifted."""
        if self.integer or self.sos_sets or not self.conventional:
            return False
        n, m = len(self.columns), len(self.row_order)
        rows, cols = self.entry_row, self.entry_col
        # A column has at most one objective entry, so the matrix at least
        # len(rows) - n: a wide LP, such as CTG's, ends here.
        if len(rows) - n > _PER_ROW * m:
            return False
        if not all(map(math.isfinite, self.entry_value)):
            return False
        keys = list(map(add, map(mul, cols, repeat(m + 1)), rows))
        if not all(map(lt, keys, islice(keys, 1, None))):
            return False
        per_row = Counter(rows)
        per_row.pop(-1, None)
        if max(per_row.values(), default=0) > _PER_ROW:
            return False
        entered = set(compress(cols, map((-1).__ne__, rows)))
        return not any(self.lower.get(col, 0.0) == 0.0
                       and self.upper.get(col, math.inf) > 0.0
                       for col in set(range(n)).difference(entered))


def _read_mps(text: str) -> _Read:
    name = objective_row = ""
    columns: list[str] = []
    col_id: dict[str, int] = {}
    row_order: list[str] = []
    # Every row's id, an N row's too: -1 for the objective row, the first,
    # and -2 for any later one, a free row, whose entries model() drops as
    # HiGHS's reader drops them.
    row_id: dict[str, int] = {}
    senses: list[str] = []
    # Column and row ids -> values, for those the file gives.
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
    # What makes a file conventional (_Read): the sections in file order,
    # how many RHS and RANGES entries there are, and the set names.
    sections: list[str] = []
    set_entries = 0
    set_names: set[str] = set()
    bound_sets: set[str] = set()
    conventional = True

    def touch(var: str) -> int:
        col = col_id.get(var)
        if col is None:
            col = col_id[var] = len(columns)
            columns.append(var)
        return col

    def number(token: str, lineno: int) -> float:
        nonlocal conventional
        if "_" in token:
            conventional = False
        return _parse_num(token, lineno)

    lineno = 0
    for piece in text_pieces(text):
        if section == "COLUMNS":
            # A file too wide for plain_lp needs no scan of its numbers.
            plain = _plain_entries(piece, row_id, conventional and len(
                entry_row) - len(columns) <= _PER_ROW * len(row_order))
            if plain is not None:
                names, rows, values = plain
                fresh = list(filterfalse(col_id.__contains__,
                                         dict.fromkeys(names)))
                first = len(columns)
                columns.extend(fresh)
                col_id.update(zip(fresh, range(first, len(columns))))
                mark = len(entry_col)
                entry_col.fromlist(list(map(col_id.__getitem__, names)))
                entry_row.extend(rows)
                entry_value.extend(values)
                if in_integer:
                    integer.extend(entry_col[mark:])
                last_var, last_col = names[-1], entry_col[-1]
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
                    sections.append(head)
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
                    value = number(tokens[pos + 1], lineno)
                    r = row_id.get(row)
                    if r is None:
                        raise MpsError(f"line {lineno}: unknown row {row!r}")
                    if r >= 0 and not math.isfinite(value):
                        raise MpsError(f"line {lineno}: matrix coefficient "
                                       f"{value!r} is not finite")
                    entry_row.append(r)
                    entry_col.append(col)
                    entry_value.append(value)

            elif section == "ROWS":
                if len(tokens) != 2:
                    raise MpsError(f"line {lineno}: malformed row declaration")
                sense, row = tokens[0].upper(), tokens[1]
                if sense not in ("N", "L", "G", "E"):
                    raise MpsError(f"line {lineno}: unknown row sense "
                                   f"{sense!r}")
                if row in row_id:
                    raise MpsError(f"line {lineno}: duplicate row {row!r}")
                if sense == "N":
                    if objective_row:
                        row_id[row] = -2
                        conventional = False
                    else:
                        row_id[row], objective_row = -1, row
                    continue
                row_id[row] = len(row_order)
                row_order.append(row)
                senses.append(sense)

            elif section in ("RHS", "RANGES"):
                if len(tokens) not in (3, 5):
                    raise MpsError(f"line {lineno}: malformed {section} entry")
                set_names.add(tokens[0])
                for pos in range(1, len(tokens), 2):
                    row = tokens[pos]
                    value = number(tokens[pos + 1], lineno)
                    r = row_id.get(row)
                    if r is None or (r < 0 and section == "RANGES"):
                        raise MpsError(f"line {lineno}: unknown row {row!r}")
                    if r < 0:   # an N row's RHS; HiGHS reads an offset
                        conventional = False
                        continue
                    (rhs if section == "RHS" else ranges)[r] = value
                    set_entries += 1

            elif section == "BOUNDS":
                kind = tokens[0].upper()
                if len(tokens) != (3 if kind in ("FR", "MI", "PL", "BV")
                                   else 4):
                    raise MpsError(f"line {lineno}: malformed bound")
                bound_sets.add(tokens[1])
                col = touch(tokens[2])
                if kind in ("UP", "LO", "FX", "UI", "LI"):
                    value = number(tokens[3], lineno)
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
                    weight = number(tokens[1], lineno)
                    current_sos.append((touch(tokens[0]), weight))

            else:
                raise MpsError(f"line {lineno}: data outside any section")
        if section == "ENDATA":
            break

    if not objective_row:
        raise MpsError("no objective row declared")
    conventional = (
        conventional and sections == [s for s in _SECTIONS if s in sections]
        and set_entries == len(rhs) + len(ranges)
        and not any(s in row_id for s in set_names)
        and not any(s in col_id for s in bound_sets))
    return _Read(name, columns, row_order, senses, lower, upper, rhs, ranges,
                 integer, entry_row, entry_col, entry_value, sos_sets,
                 conventional)


def _scatter(out: np.ndarray, values: dict[int, float]) -> np.ndarray:
    out[list(values)] = list(values.values())
    return out


_PIECE_CHARS = 1 << 16


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


def _plain_entries(piece: str, row_id: dict[str, int], scan: bool
                   ) -> tuple[list[str], array, array] | None:
    """The column names, row ids and values of a piece of COLUMNS text
    whose every line is a plain entry line, else None: an ASCII line that
    ends in a line feed, starts with a blank, and holds exactly three
    tokens, none of them 'MARKER', whose row row_id knows and
    whose value is a finite number, with no underscore if scan is set
    (the reader notes one line by line). Lines then number as
    str.splitlines counts them, one per line feed."""
    if not (piece.isascii() and piece.endswith("\n") and piece[0] in " \t"
            and not any(mark in piece for mark in _NOT_PLAIN)):
        return None
    # Each line feed as a NUL after a blank: three tokens a line, then a
    # NUL of its own, which a line that starts with no blank would join.
    lines = piece.count("\n")
    tokens = piece.replace("\n", " \0").split()
    if len(tokens) != 4 * lines or tokens[3::4].count("\0") != lines:
        return None
    numbers = tokens[2::4]
    if scan and "_" in "".join(numbers):
        return None
    # Lists first: an array grows item by item from an iterator.
    try:
        rows = array("q", list(map(row_id.__getitem__, tokens[1::4])))
        values = list(map(float, numbers))
    except (KeyError, ValueError):
        return None
    # Finite values have a finite sum but for an overflow, which only
    # sends the piece line by line.
    if not math.isfinite(sum(values)):
        return None
    return tokens[0::4], rows, array("d", values)


def _parse_num(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise MpsError(f"line {lineno}: bad number {token!r}") from exc
    if value != value:
        raise MpsError(f"line {lineno}: NaN not allowed")
    return value
