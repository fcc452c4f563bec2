"""Bundled MIP solver adapter: the valign-milp program.

It speaks the gateway's file protocol: read an MPS file, optimize with
HiGHS through scipy's binding (valign.highs), write a solution file of
"name value" lines. Installed as the ``valign-milp`` console script and
the default solver command when none is configured.

mps's reader reads and checks the whole file first, and it alone picks
one of two routes into HiGHS:

- A plain LP (mps._Read.plain_lp) in a file named .mps is loaded by
  HiGHS's own reader, readModel, and solved once, as solve_core would
  solve it, with no numpy imported. The reader admits only LPs that
  readModel loads as parse_mps reads them (_Read.conventional) and that
  solve_core would not sift.
- Everything else goes to solve_core as arrays: MIPs, SOS models (``--sos
  binarize``, the default and only choice, accepted so existing command
  templates run), wide LPs, every file with an error, and a plain LP that
  readModel reads with a warning or an error, or to another shape. main
  drops the parsed model before the solve: HiGHS reads the CSC copy of its
  matrix.

write_solution lists the nonzero values only, in column order: a reader
takes an absent name as 0. run() ends the process with os._exit once the
output is flushed, with no interpreter teardown.

main exits 0 after one closing line: the status, the objective and how
the solve closed. A bad option value exits 2. A defect in the input (an
MpsError, which names its line when one line is at fault, or a byte that
is not ASCII), a file that cannot be read or written and a missing binding
exit 3, with "status error" and the message in the solution file when it
can be written. CHANGES.md holds the measurements behind the routes.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
import time
from itertools import compress
from typing import Sequence

from valign.highs import _answer, _highs, _options, _run, highs_core
from valign.mps import MpsError, _read_mps

# perfbench's traced re-solve reads these names off this module, where they
# lived before the reader and the solve core moved out, and wraps
# optimize.milp, which nothing calls any more. Each is served from its home
# on first read (__getattr__).
_FORWARDED = {"parse_mps": "valign.mps", "binarize_sos": "valign.solve_core",
              "solve_parsed": "valign.solve_core", "optimize": "scipy"}


def __getattr__(name: str):
    home = _FORWARDED.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(home), name)


def _solve_file(path: str, shape: tuple[int, int], time_limit: float | None,
                gap: float | None
                ) -> tuple[str, float | None, list[float] | None, str] | None:
    """solve_arrays' answer, x as a list, for a plain LP (_Read.plain_lp)
    that HiGHS loads from path itself and solves once; None if HiGHS
    reads the file with a warning or an error, or to another shape than
    (columns, rows)."""
    core = highs_core()
    deadline = None if time_limit is None else time.monotonic() + time_limit
    highs = _highs(core, _options(False, time_limit, gap))
    if highs.readModel(path) != core.HighsStatus.kOk \
            or (highs.getNumCol(), highs.getNumRow()) != shape:
        return None
    return _answer(highs, _run(highs, deadline), False, "")


def write_solution(path: str, status: str, objective: float | None,
                   wall_time: float, columns: Sequence[str],
                   values: Sequence[float] | None) -> None:
    """The reserved keys, then one "name value" line per column whose value
    is not 0.0 (-0.0 is 0.0), in column order, and the first column's line
    in any case: a reader turns an optimal file with no values into an
    error, and reads an absent name as 0. values, a list or a numpy array,
    may run on past columns: binarize_sos appends its binaries after the
    columns the file declared, and those are not written."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"status {status}\n")
        if objective is not None:
            fh.write(f"objective {objective!r}\n")
        fh.write(f"wall_time {wall_time!r}\n")
        if values is None or not columns:
            return
        if not isinstance(values, list):
            values = values[:len(columns)].tolist()
        kept = list(map(bool, values))      # NaN is kept, -0.0 is not
        kept[0] = True
        fh.write("".join([f"{name} {value!r}\n" for name, value in compress(
            zip(columns, values), kept)]))



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
        # The text and the reader's name tables are gone once the reader
        # returns, before numpy or HiGHS allocates.
        with open(args.mps, "r", encoding="ascii") as fh:
            read = _read_mps(fh.read())
        columns, answer = read.columns, None
        # HiGHS picks its reader by the file name's extension.
        if args.mps.endswith(".mps") and read.plain_lp():
            answer = _solve_file(args.mps, (len(columns), len(read.row_order)),
                                 args.time_limit, args.gap)
        if answer is None:
            from valign.solve_core import (
                binarize_sos,
                model_arrays,
                solve_arrays,
            )
            mps = read.model()
            del read    # its typed arrays
            declared = len(mps.columns)
            # binarize_sos copies every array even with no set to rewrite.
            if mps.sos_sets:
                binarize_sos(mps)
            columns = mps.columns[:declared]
            arrays, sos_flags = model_arrays(mps), mps.sos_flags
            del mps     # its matrix entries: HiGHS reads the CSC copy
            answer = solve_arrays(arrays, args.time_limit, args.gap,
                                  sos_flags)
        status, objective, values, note = answer
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

