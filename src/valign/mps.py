"""Deterministic free-format MPS writer.

Layout contract (also consumed by the bundled adapter in milp_solve):

* leading comment lines ``* key: value`` carry model provenance;
* fixed ``NAME VALIGN`` record so files differ only where models differ;
* one objective row ``N COST``;
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
"""

from __future__ import annotations

import math
import os
from typing import Iterator

import numpy as np

from valign.builder import MilpModel

_SENSE = {"<=": "L", "=": "E", ">=": "G"}

OBJECTIVE_ROW = "COST"
BOUND_SET = "BND"
RHS_SET = "RHS"
RANGE_SET = "RNG"


def _num(value: float) -> str:
    if value != value or math.isinf(value):
        raise ValueError(f"non-finite coefficient {value!r} in MPS output")
    return repr(float(value))


def _formatted(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """_num of each distinct bit pattern in values (so -0.0 keeps its sign),
    and the index of every value's text in that list."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return [_num(v) for v in distinct.view(np.float64).tolist()], inverse


_CHUNK_LINES = 1 << 16


def _mps_chunks(model: MilpModel) -> Iterator[str]:
    """The rendering of a linted model as consecutive pieces of text of
    bounded size."""
    col_names, row_names = model.col_names, model.row_names
    lines = [f"* {key}: {value}" for key, value in model.provenance]
    lines += [f"NAME {model.name}", "ROWS", f" N {OBJECTIVE_ROW}"]
    lines += [f" {_SENSE[sense]} {row}"
              for row, sense in zip(row_names, model.row_sense)]
    lines.append("COLUMNS")
    yield "\n".join(lines) + "\n"

    # One entry per line: the cost first when nonzero (a column with no
    # other entry gets a zero cost), then the matrix entries in row order.
    priced = model.cost != 0.0
    unused = np.bincount(model.coo_col, minlength=len(col_names)) == 0
    cost_cols = np.flatnonzero(priced | unused)
    cols = np.concatenate([cost_cols, model.coo_col])
    order = np.argsort(cols, kind="stable")
    entry_col = cols[order]
    entry_row = np.concatenate([np.full(len(cost_cols), len(row_names)),
                                model.coo_row])[order]
    costs = np.where(priced, model.cost, 0.0)[cost_cols]
    text, entry_text = _formatted(
        np.concatenate([costs, model.coo_val])[order])
    rows = (*row_names, OBJECTIVE_ROW)
    for start in range(0, len(entry_col), _CHUNK_LINES):
        part = slice(start, start + _CHUNK_LINES)
        yield "".join([
            f"    {col_names[c]} {rows[r]} {text[v]}\n" for c, r, v in zip(
                entry_col[part].tolist(), entry_row[part].tolist(),
                entry_text[part].tolist())])

    lines = ["RHS"]
    rhs = model.row_rhs
    lines += [f"    {RHS_SET} {row_names[r]} {_num(rhs[r])}"
              for r in np.flatnonzero(rhs != 0.0).tolist()]
    ranged = np.flatnonzero(~np.isnan(model.row_range)).tolist()
    if ranged:
        lines.append("RANGES")
        lines += [f"    {RANGE_SET} {row_names[r]} {_num(model.row_range[r])}"
                  for r in ranged]

    lines.append("BOUNDS")
    lower, upper, binary = model.col_lower, model.col_upper, model.col_binary
    bounded = binary | (lower != 0.0) | (upper != math.inf)
    for c in np.flatnonzero(bounded).tolist():
        name = col_names[c]
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
        for sos in model.sos_sets:
            lines.append(f" S{sos.sos_type} SET {sos.name}")
            for var, weight in sos.members:
                lines.append(f"    {var} {_num(weight)}")

    lines.append("ENDATA")
    yield "\n".join(lines) + "\n"


def emit_mps_text(model: MilpModel) -> str:
    """Render the model; pure function of its contents."""
    model.lint()
    return "".join(_mps_chunks(model))


def emit_mps(model: MilpModel, path: str) -> str:
    """Write the rendering to path piece by piece; returns the path. A
    rendering that fails part way removes the partial file."""
    model.lint()
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
