"""The array solve core: a model as arrays in, HiGHS's answer out.

ColumnarModel is the one array layout of a model, from the builder's
MilpModel, which extends it, to HiGHS: columns with cost, bound and integer
arrays; rows with sense (L, E, G), rhs and range arrays (NaN: no range);
the matrix as ENTRY records (row id, column id, value) in any order; SOS
sets as (type, name, ((column id, weight), ...)). mps.parse_mps reads a
file into it; nothing here reads text.

solve_parsed hands a model with no SOS set (binarize_sos rewrites them
with auxiliary binaries) to solve_arrays, the one seam to HiGHS: the
arrays of model_arrays in; status word, objective and x out. A defect in
the model raises MpsError, an option HiGHS rejects ValueError. The rules:

- HiGHS presolve runs only when a column is integral: the dual simplex is
  faster on an unreduced pure LP, the blocked MIPs slower without it.
- A MIP's every run, relaxation, fixed LPs and branch and bound alike,
  prices the dual simplex with Devex (Harris, "Pivot selection methods of
  the Devex LP code", Mathematical Programming 5, 1973) in place of HiGHS's
  default dual steepest edge. A fixed LP starts from the relaxation's
  basis, which is not logical, and steepest edge first computes its exact
  weights there; the relaxation's big-M gate rows also price faster under
  Devex. A pure LP keeps the default, which is as fast or faster on it.
- A pure LP with far more columns than rows is sifted (Bixby, Gregory,
  Lustig, Marsten & Shanno, "Very large-scale linear programming: a case
  study in combining interior point and simplex methods", Operations
  Research 40(5), 1992): solved over a working set of its columns
  (working_set), then priced with the duals, round by round (_sift). A
  working set's infeasibility is not the LP's: one that ends infeasible,
  unbounded or in error gets every column left and one more run.
- A MIP is solved relaxation first, and the relaxation's objective is a
  bound. Fixed LPs on the same object fix the switches, every integer but
  the binarized SOS flags, at 0 or 1 (_Fixing); one is the answer if it is
  optimal within the gap of the bound (ub - lb <= gap * max(1, |ub|),
  HiGHS's own mip_rel_gap rule) and each SOS set holds on its members. In
  the blocked models the switches are removal indicators: Y_k_t opens
  block k's big-M gate rows from step t on.
- Otherwise the MIP goes to branch and bound on a fresh object, started
  from the best MIP-feasible x the fixed LPs found: the relaxation's object
  would keep its LP data alongside the MIP's. An infeasible relaxation
  ends the solve as infeasible.
- Each run gets what is left of the time limit. A limit that stops the
  relaxation or a sifted LP ends the solve as a timeout; one that stops a
  fixed LP, as feasible with the best MIP-feasible x found, else as a
  timeout.

CHANGES.md holds the measurements behind these rules.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from valign.highs import (
    _PER_ROW,
    _STATUS_WORDS,
    _answer,
    _highs,
    _options,
    _run,
    highs_core,
)
from valign.mps import MpsError

# The record type of a matrix entry.
ENTRY = np.dtype([("row", np.intp), ("col", np.intp), ("value", np.float64)])


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
    mps.entries = np.concatenate([mps.entries,
                                  np.array(entries, ENTRY)])


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
    options = _options(is_mip, time_limit, gap)

    if not is_mip:
        working = working_set(buffers)
        if not working.all():
            return _sift(core, options, buffers, working, deadline)
    highs = _load(core, options, buffers)
    if highs is None:
        return "infeasible", None, None, ""
    if not is_mip:
        return _with_array(_answer(highs, _run(highs, deadline), False, ""))

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
    return _with_array(_answer(
        highs, model_status, True,
        f"bound {info.mip_dual_bound} (branch and bound, "
        f"{info.mip_node_count} nodes, gap {info.mip_gap})"))


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
    """A wide LP solved over a working set of its columns, marking in
    working each column that joins. Each round prices every column outside
    the set with HiGHS's row duals y, d = c - A'y on the CSC arrays, and
    the columns with d below minus dual_feasibility_tolerance join through
    addCols on the same warm object. The solve stops when none prices out;
    x holds the columns left out at 0."""
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
    relaxation: the switches are fixed at 0 or 1 and the LP solved again.
    The flags stay continuous and are set from their members in the
    answer: rounded up beside the switches, a flag near 0 would close its
    set's other members and could leave the fixed LP infeasible.

    The first fixed LP rounds each switch up, warm from the relaxation's
    basis, which keeps every gate the relaxation opened. If it misses,
    removal schedules along monotone_chains are tried: each chain gets one
    threshold, its switches at 0 before it and at 1 from it on. The
    candidates are the rounded schedule's neighbours (delays), each solved
    cold (clearSolver, presolve on), so an infeasible one ends in presolve.
    The first that closes the MIP is the answer, noted "(schedule tau_1 ...
    tau_K, N LPs)", N counting the rounded LP too. No neighbour starts once
    the search's LPs have taken as long as the relaxation did."""

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
    highs = _highs(core, options)
    cost, _, _, row_lower, _, _, _, value, _ = arrays
    loaded = highs.passModel(
        len(cost), len(row_lower), len(value),
        int(core.MatrixFormat.kColwise), int(core.ObjSense.kMinimize), 0.0,
        *arrays)
    return None if loaded == core.HighsStatus.kError else highs


def _with_array(answer):
    word, objective, x, note = answer
    return word, objective, None if x is None else np.array(x), note
