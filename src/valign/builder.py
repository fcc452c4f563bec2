"""Construction of the alignment MILP variants as solver-neutral models.

Three model families share the spline, volume, and slope rows:

* MHQNF: per-haul directed transit chains with time-expanded block logic.
* QNF: the same construction restricted to a single haul class.
* CTG: a block-free complete transportation graph with one arc per
  (supply node, demand node) pair, quadratic in the section count.

Variable names are a stable external contract (they appear in MPS files and
solution files), and ArcIndex is the only code that spells them: A_<g>_<k>,
U_<i>, VP_<i>, VM_<i>, Y_<k>_<t>, X_<i>_<j> (CTG), and for haul h and time
step t the chain arcs FR/FU/FL_<h>_<t>_<i>_<j>, where j - i is the chain's
direction d (+1 rightward, -1 leftward), and the pit arcs
FB/FW_<h>_<t>_<pit>_<dir>. Pit volume variables and CTG pit nodes use node
indices n+j (borrow) and n+n_borrow+k (waste).

A MilpModel has the columnar layout of milp_solve.ColumnarModel, the one
the bundled adapter parses MPS files into and hands to HiGHS. Its integer
columns are all binary, and its matrix entries come in row-declaration
order, each row's entries in the order they were declared.

Every model is assembled by _Assembler, its flow columns declared at once
from an ArcIndex grid: ctg_arcs puts the X arcs on the (supply node, demand
node) grid, and flow_grid lays out the MH-QNF chains, indexed (haul, step,
section or pit, chain). The rows over the flows (CTS/CTD/CTB/CTW; FCR/FCL,
BALC/BALF, BALB/CAPB and BALW/CAPW; the block rows) go through the one bulk
path, _Assembler.bulk_rows, from the grid's column ids; no flow column is
looked up by name. Spline rows, and the block rows over removal indicators
only (WDEF, ENF, MON), are declared one at a time by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from valign.instance import (
    HaulClass,
    RoadInstance,
    big_m,
    block_access_sets,
    cheapest_haul_costs,
    global_big_m,
)
from valign.milp_solve import ENTRY, ColumnarModel, entry_records


class BuildError(ValueError):
    """Raised when a model cannot be constructed for an instance/config."""


@dataclass(frozen=True, slots=True)
class Variable:
    name: str
    kind: str = "continuous"    # "continuous" | "binary"
    lower: float = 0.0
    upper: float = math.inf


@dataclass(frozen=True, slots=True)
class LinearConstraint:
    """Row: sum(coeff * var) <sense> rhs, sense L (<=), E (=) or G (>=).

    A ranged row (rhs_range is not None, sense L) additionally satisfies
    expr >= rhs - rhs_range.
    """

    name: str
    coeffs: tuple[tuple[str, float], ...]
    sense: str                  # "L" | "E" | "G"
    rhs: float
    rhs_range: float | None = None


@dataclass(frozen=True, slots=True)
class SosSet:
    name: str
    sos_type: int               # 1 or 2
    members: tuple[tuple[str, float], ...]


def _repeated(names: Sequence[str]) -> str | None:
    """The first name that occurs twice, if any."""
    if len(set(names)) == len(names):
        return None
    seen: set[str] = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


@dataclass(eq=False)
class MilpModel(ColumnarModel):
    """A MILP in the columnar layout the module docstring describes, with
    its objective sense and provenance.

    The arrays are read-only; variables, constraints, objective and
    binary_count are views built from them. from_objects takes the object
    form (Variable, LinearConstraint, SosSet and (name, cost) pairs), as
    hand-built models do; the builders use _Assembler directly.
    """

    sense: str = "min"
    provenance: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self._lint_passed = False

    @classmethod
    def from_objects(cls, name: str, variables: Iterable[Variable] = (),
                     constraints: Iterable[LinearConstraint] = (),
                     sos_sets: Iterable[SosSet] = (),
                     objective: Iterable[tuple[str, float]] = (),
                     sense: str = "min",
                     provenance: Iterable[tuple[str, str]] = ()) -> MilpModel:
        asm = _Assembler(name, sense)
        for v in variables:
            asm.var(v.name, v.lower, v.upper, v.kind)
        for var, coeff in objective:
            asm.add_cost(var, coeff)
        for row in constraints:
            asm.row(row.name, row.coeffs, row.sense, row.rhs, row.rhs_range)
        for sos in sos_sets:
            cols = [asm.column(var) for var, _ in sos.members]
            if None in cols:
                raise BuildError(f"SOS set {sos.name}: unknown variable "
                                 f"{sos.members[cols.index(None)][0]}")
            asm.add_sos(sos.name, sos.sos_type,
                        zip(cols, [weight for _, weight in sos.members]))
        return asm.model(provenance)

    @cached_property
    def variables(self) -> tuple[Variable, ...]:
        kinds = ("continuous", "binary")
        return tuple(
            Variable(name, kinds[binary], lo, hi) for name, binary, lo, hi
            in zip(self.columns, self.col_integer.tolist(),
                   self.col_lower.tolist(), self.col_upper.tolist()))

    @cached_property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        names, entries = self.columns, self.entries
        bounds = np.searchsorted(entries["row"],
                                 np.arange(len(self.row_order) + 1)).tolist()
        cols, vals = entries["col"].tolist(), entries["value"].tolist()
        return tuple(
            LinearConstraint(
                row, tuple((names[c], v) for c, v in zip(
                    cols[bounds[r]:bounds[r + 1]],
                    vals[bounds[r]:bounds[r + 1]])),
                sense, rhs, None if math.isnan(rng) else rng)
            for r, (row, sense, rhs, rng) in enumerate(zip(
                self.row_order, self.senses.tolist(), self.row_rhs.tolist(),
                self.row_range.tolist())))

    @cached_property
    def objective(self) -> tuple[tuple[str, float], ...]:
        priced = np.flatnonzero(self.cost)
        return tuple(zip([self.columns[c] for c in priced.tolist()],
                         self.cost[priced].tolist()))

    @property
    def binary_count(self) -> int:
        return int(np.count_nonzero(self.col_integer))

    def lint(self) -> None:
        """Check referential integrity; raises BuildError on any defect.

        The model cannot change, so a pass is remembered.
        """
        if self._lint_passed:
            return
        names = self.columns
        repeat = _repeated(names)
        if repeat is not None:
            raise BuildError(f"variable {repeat} declared twice")
        for bad, what in ((self.col_lower > self.col_upper, "lower > upper"),
                          (self.col_integer & ((self.col_lower < 0)
                                               | (self.col_upper > 1)),
                           "binary outside [0,1]")):
            if bad.any():
                raise BuildError(
                    f"variable {names[int(np.argmax(bad))]}: {what}")
        rows = self.row_order
        repeat = _repeated(rows)
        if repeat is not None:
            raise BuildError(f"row {repeat} declared twice")
        row, col = self.entries["row"], self.entries["col"]
        outside = (col < 0) | (col >= len(names))
        if outside.any():
            at = int(np.argmax(outside))
            raise BuildError(f"row {rows[row[at]]}: unknown "
                             f"variable {int(col[at])}")
        keys = np.sort(row * len(names) + col)
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            r, c = divmod(int(keys[1:][repeated][0]), len(names))
            raise BuildError(f"row {rows[r]}: duplicate variable {names[c]}")
        bad = ~np.isfinite(self.entries["value"])
        if bad.any():
            raise BuildError(f"row {rows[row[np.argmax(bad)]]}: "
                             "non-finite coefficient")
        bad = ~np.isfinite(self.cost)
        if bad.any():
            raise BuildError("objective: non-finite cost on "
                             f"{names[int(np.argmax(bad))]}")
        for _, name, members in self.sos_sets:
            if len(members) < 2:
                raise BuildError(f"SOS set {name}: needs >= 2 members")
            weights = [w for _, w in members]
            if len(set(weights)) != len(weights):
                raise BuildError(f"SOS set {name}: duplicate weights")
        self._lint_passed = True


BLOCK_TECHNIQUES = ("basic", "sos1")
VOLUME_MODES = ("linear", "piecewise-sos2", "piecewise-binary")
MODELS = ("MHQNF", "QNF", "CTG")


@dataclass(frozen=True)
class BuilderConfig:
    """Which model variant to build and with which formulation switches."""

    model: str = "MHQNF"
    haul_subset: tuple[HaulClass, ...] | None = None
    block_technique: str = "basic"
    volume_mode: str = "linear"
    name: str = ""

    def validate(self) -> None:
        if self.model not in MODELS:
            raise BuildError(f"unknown model {self.model!r}")
        if self.block_technique not in BLOCK_TECHNIQUES:
            raise BuildError(f"unknown block technique {self.block_technique!r}")
        if self.volume_mode not in VOLUME_MODES:
            raise BuildError(f"unknown volume mode {self.volume_mode!r}")
        hauls = self.haul_subset
        if hauls is not None and not (
                isinstance(hauls, tuple) and hauls
                and all(isinstance(h, HaulClass) for h in hauls)):
            raise BuildError("haul_subset must be None or a non-empty tuple "
                             f"of HaulClass, got {hauls!r}")
        if self.model == "QNF":
            if hauls is None or len(hauls) != 1:
                raise BuildError("QNF requires exactly one haul class")


# Published single-haul benchmark cost pairs (loading, per-meter).
QNF_COST_PAIRS: dict[str, tuple[float, float]] = {
    "short": (0.000, 0.008),
    "middle": (0.600, 0.004),
    "long": (2.600, 0.002),
    "avg": (1.067, 0.005),
}

_NAMED_QNF = {"QNS": "short", "QNM": "middle", "QNL": "long", "QNA": "avg"}


def named_config(name: str) -> BuilderConfig:
    """Benchmark configuration registry: MQN/CTG/QNS/QNM/QNL/QNA x -B/-S1."""
    base, _, suffix = name.partition("-")
    if suffix not in ("B", "S1"):
        raise BuildError(f"unknown config name {name!r} (expected -B or -S1 suffix)")
    technique = "basic" if suffix == "B" else "sos1"
    if base == "MQN":
        return BuilderConfig(model="MHQNF", block_technique=technique, name=name)
    if base == "CTG":
        return BuilderConfig(model="CTG", block_technique=technique, name=name)
    if base in _NAMED_QNF:
        label = _NAMED_QNF[base]
        loading, per_m = QNF_COST_PAIRS[label]
        haul = HaulClass(label, loading_cost=loading, unit_haul_cost=per_m)
        return BuilderConfig(model="QNF", haul_subset=(haul,),
                             block_technique=technique, name=name)
    raise BuildError(f"unknown config name {name!r}")


def effective_hauls(instance: RoadInstance,
                    config: BuilderConfig) -> tuple[HaulClass, ...]:
    hauls = config.haul_subset if config.haul_subset is not None \
        else instance.cost_model.hauls
    return tuple(hauls)


DIRECTIONS = (1, -1)  # rightward chain, leftward chain


class ArcIndex:
    """Variable names of one instance's models (see the module docstring).

    Chain d carries material from section i toward i+d. flow_grid lays out
    its arcs: the transit arc i -> i+d, the unload arc that puts section i's
    cut on the chain, the load arc that takes the chain's material into
    section i's fill, and the borrow and waste arcs that join a pit to the
    chain at the pit's attached section.
    """

    def __init__(self, instance: RoadInstance):
        self.n = instance.n
        self.borrow_pits = instance.borrow_pits
        self.waste_pits = instance.waste_pits
        self._pits = instance.borrow_pits + instance.waste_pits
        sections = list(range(1, self.n + 1))
        self.supply_nodes = sections + [
            self.borrow_node(j) for j in range(1, len(self.borrow_pits) + 1)]
        self.demand_nodes = sections + [
            self.waste_node(k) for k in range(1, len(self.waste_pits) + 1)]

    @staticmethod
    def coeff(g: int, k: int) -> str:
        return f"A_{g}_{k}"

    @staticmethod
    def offset(i: int) -> str:
        return f"U_{i}"

    @staticmethod
    def cut(node: int) -> str:
        return f"VP_{node}"

    @staticmethod
    def fill(node: int) -> str:
        return f"VM_{node}"

    @staticmethod
    def removal(k: int, t: int) -> str:
        return f"Y_{k}_{t}"

    def borrow_node(self, j: int) -> int:
        return self.n + j

    def waste_node(self, k: int) -> int:
        return self.n + len(self.borrow_pits) + k

    def borrow_used(self, j: int) -> str:
        return self.cut(self.borrow_node(j))

    def waste_used(self, k: int) -> str:
        return self.fill(self.waste_node(k))

    def node_site(self, node: int) -> tuple[int, float]:
        """(section, dead haul) of a CTG supply or demand node."""
        if node <= self.n:
            return node, 0.0
        pit = self._pits[node - self.n - 1]
        return pit.attached_section, pit.dead_haul

    @cached_property
    def ctg_arcs(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """CTG arcs in declaration order (supply node major): their names
        and 0-based (supply, demand) positions on the node grid. A section
        never ships to itself, so the grid diagonal has no arc."""
        supply, demand = self.supply_nodes, self.demand_nodes
        tails = [str(dst) for dst in demand]
        names: list[str] = []
        for src in supply:
            head = f"X_{src}_"
            names += [head + tail for dst, tail in zip(demand, tails)
                      if dst != src]
        src, dst = np.divmod(np.arange(len(supply) * len(demand)),
                             len(demand))
        keep = np.array(supply)[src] != np.array(demand)[dst]
        return names, src[keep], dst[keep]

    def ctg_grid(self, values: Mapping[str, float]) -> np.ndarray:
        """CTG arc values looked up by name on the (supply, demand) node
        grid; the diagonal and names absent from values read 0."""
        names, src, dst = self.ctg_arcs
        grid = np.zeros((len(self.supply_nodes), len(self.demand_nodes)))
        grid[src, dst] = np.fromiter(map(values.get, names, repeat(0.0)),
                                     float, len(names))
        return grid

    def flow_grid(self, n_hauls: int, n_steps: int
                  ) -> tuple[list[str], tuple[np.ndarray, ...]]:
        """MH-QNF flow names in declaration order, and the offsets into
        them of the transit, unload and load arcs, indexed (haul, step,
        section, chain), and of the borrow and waste arcs, indexed (haul,
        step, pit, chain), all from 0, chain 0 being DIRECTIONS[0]. Per
        haul, then per step, come every section's three arcs on both
        chains, then both chains of every borrow pit, then of every waste
        pit."""
        n = self.n
        n_borrow, n_waste = len(self.borrow_pits), len(self.waste_pits)
        names: list[str] = []
        for h in range(1, n_hauls + 1):
            for t in range(n_steps):
                for i in range(1, n + 1):
                    for d in DIRECTIONS:
                        names += [f"FR_{h}_{t}_{i}_{i + d}",
                                  f"FU_{h}_{t}_{i}_{i + d}",
                                  f"FL_{h}_{t}_{i - d}_{i}"]
                names += [f"FB_{h}_{t}_{j}_{pit.attached_section + d}"
                          for j, pit in enumerate(self.borrow_pits, start=1)
                          for d in DIRECTIONS]
                names += [f"FW_{h}_{t}_{k}_{pit.attached_section - d}"
                          for k, pit in enumerate(self.waste_pits, start=1)
                          for d in DIRECTIONS]
        per_step = np.arange(len(names)).reshape(n_hauls, n_steps, -1)
        arcs = per_step[:, :, :6 * n].reshape(n_hauls, n_steps, n, 2, 3)
        pits = per_step[:, :, 6 * n:].reshape(n_hauls, n_steps,
                                              n_borrow + n_waste, 2)
        return names, (arcs[..., 0], arcs[..., 1], arcs[..., 2],
                       pits[:, :, :n_borrow], pits[:, :, n_borrow:])

    def flow_values(self, values: Mapping[str, float], n_hauls: int,
                    n_steps: int) -> tuple[np.ndarray, ...]:
        """flow_grid's arrays holding each flow's value, looked up by name;
        names absent from values read 0."""
        names, grid = self.flow_grid(n_hauls, n_steps)
        x = np.fromiter(map(values.get, names, repeat(0.0)), float,
                        len(names))
        return tuple(x[ids] for ids in grid)


class _Assembler:
    """Accumulates a model; rejects duplicate and unknown names as they appear.

    var and row declare one column or row at a time, by name; columns and
    bulk_rows declare many at once, by column id, and leave their repeats to
    lint. All of it is kept in declaration order, and fill turns it into the
    model's arrays.
    """

    def __init__(self, name: str, sense: str = "min"):
        self.name = name
        self.sense = sense
        self.col_names: list[str] = []
        self.col_index: dict[str, int] = {}  # the names var declared
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.binary: list[bool] = []
        self.cost: list[float] = []
        self.row_names: list[str] = []
        self.row_set: set[str] = set()
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.rhs_range: list[float] = []
        # Matrix entries: ENTRY arrays, then the entries of the rows
        # declared one at a time since the last array.
        self.chunks: list[np.ndarray] = []
        self.pending: list[tuple[int, int, float]] = []
        self.sos: list[tuple[int, str, tuple[tuple[int, float], ...]]] = []

    def column(self, name: str) -> int | None:
        """Column id of a name var declared. Columns declared in bulk are
        known by the ids columns returns, never by name."""
        return self.col_index.get(name)

    def var(self, name: str, lower: float = 0.0, upper: float = math.inf,
            kind: str = "continuous", cost: float = 0.0) -> str:
        if name in self.col_index:
            raise BuildError(f"variable {name} declared twice")
        self.col_index[name] = len(self.col_names)
        self.col_names.append(name)
        self.lower.append(lower)
        self.upper.append(upper)
        self.binary.append(kind == "binary")
        self.cost.append(cost)
        return name

    def columns(self, names: Sequence[str], cost: np.ndarray,
                upper: np.ndarray) -> int:
        """Declare non-negative continuous columns; returns the first id.
        A repeated name is caught by lint, which finish runs."""
        first = len(self.col_names)
        self.col_names.extend(names)
        self.lower.extend([0.0] * len(names))
        self.upper.extend(upper.tolist())
        self.binary.extend([False] * len(names))
        self.cost.extend(cost.tolist())
        return first

    def add_cost(self, name: str, cost: float) -> None:
        col = self.column(name)
        if col is None:
            raise BuildError(f"objective: unknown variable {name}")
        self.cost[col] += cost

    def _new_row(self, name: str, sense: str, rhs: float,
                 rhs_range: float | None) -> int:
        if name in self.row_set:
            raise BuildError(f"row {name} declared twice")
        if sense not in ("L", "E", "G"):
            raise BuildError(f"row {name}: unknown sense {sense!r}")
        self.row_set.add(name)
        self.row_names.append(name)
        self.senses.append(sense)
        self.rhs.append(rhs)
        self.rhs_range.append(math.nan if rhs_range is None else rhs_range)
        return len(self.row_names) - 1

    def row(self, name: str, coeffs: Iterable[tuple[str, float]],
            sense: str, rhs: float, rhs_range: float | None = None) -> None:
        entries: dict[int, float] = {}
        for var, coeff in coeffs:
            col = self.column(var)
            if col is None:
                raise BuildError(f"row {name}: unknown variable {var}")
            if col in entries:
                raise BuildError(f"row {name}: duplicate variable {var}")
            entries[col] = 0.0 + coeff  # a -0.0 coefficient is written 0.0
        r = self._new_row(name, sense, rhs, rhs_range)
        self.pending += [(r, col, value) for col, value in entries.items()]

    def bulk_rows(self, rows: Iterable[tuple[str, str, float]],
                  parts: Sequence[tuple]) -> None:
        """Declare rows, each (name, sense, rhs), and their entries as
        (row, column ids, coefficient) parts broadcast to one shape, row
        counting from the first of rows. A row's entries follow the order
        of the parts, then their order within a part. A column repeated
        within a row is caught by lint."""
        first = len(self.row_names)
        for name, sense, rhs in rows:
            self._new_row(name, sense, rhs, None)
        shaped = [np.broadcast_arrays(*part) for part in parts]
        row, col, val = (np.concatenate([np.ravel(p[at]) for p in shaped])
                         for at in range(3))
        order = np.argsort(row, kind="stable")
        self._flush()
        # + 0.0: a -0.0 coefficient is written 0.0, as row writes it
        self.chunks.append(entry_records(first + row[order], col[order],
                                         np.add(val[order], 0.0)))

    def _flush(self) -> None:
        if self.pending:
            self.chunks.append(np.array(self.pending, ENTRY))
            self.pending = []

    def add_sos(self, name: str, sos_type: int,
                members: Iterable[tuple[int, float]]) -> None:
        """Declare an SOS set by its members' column ids and weights."""
        self.sos.append((sos_type, name, tuple(members)))

    def model(self, provenance: Iterable[tuple[str, str]]) -> MilpModel:
        """The declarations as a model of read-only arrays."""
        self._flush()
        return MilpModel(
            self.name, tuple(self.col_names), np.array(self.cost, np.float64),
            np.array(self.lower, np.float64), np.array(self.upper, np.float64),
            np.array(self.binary, bool), tuple(self.row_names),
            np.array(self.senses, "U"), np.array(self.rhs, np.float64),
            np.array(self.rhs_range, np.float64),
            np.concatenate(self.chunks or [np.empty(0, ENTRY)]),
            tuple(self.sos), self.sense, tuple(provenance))

    def finish(self, provenance: Sequence[tuple[str, str]]) -> MilpModel:
        model = self.model(provenance)
        model.lint()
        return model


def _check_segments(instance: RoadInstance) -> None:
    layout = instance.segment_layout
    for g in range(1, layout.segment_count + 1):
        start, end = instance.segment_span(g)
        if end <= start:
            raise BuildError(f"segment {g} has zero length (stations {start}..{end})")


def _spline_rows(asm: _Assembler, instance: RoadInstance, names: ArcIndex,
                 volume_mode: str) -> None:
    """Shared rows: coefficients, offsets, volumes, continuity, slope."""
    layout = instance.segment_layout
    m = layout.segment_count
    coeff, offset, cut, fill = names.coeff, names.offset, names.cut, names.fill

    for g in range(1, m + 1):
        for k in (1, 2, 3):
            asm.var(coeff(g, k), -math.inf, math.inf)
    for i in range(1, instance.n + 1):
        sec = instance.section(i)
        asm.var(offset(i), sec.offset_lo, sec.offset_hi)

    for i in range(1, instance.n + 1):
        cap = big_m(instance, i, volume_mode)
        asm.var(cut(i), 0.0, cap, cost=instance.material_of(i).excavation)
    for j, pit in enumerate(instance.borrow_pits, start=1):
        asm.var(names.borrow_used(j), 0.0, pit.capacity)
    for i in range(1, instance.n + 1):
        cap = big_m(instance, i, volume_mode)
        asm.var(fill(i), 0.0, cap, cost=instance.material_of(i).embankment)
    for k, pit in enumerate(instance.waste_pits, start=1):
        asm.var(names.waste_used(k), 0.0, pit.capacity)

    # Offset definition: U_i + P(s_i) = E_i, expanded over local coordinates.
    for i in range(1, instance.n + 1):
        g = layout.segment_of(i)
        sigma = instance.local_coordinate(i)
        asm.row(f"OFF_{i}",
                [(offset(i), 1.0), (coeff(g, 1), 1.0), (coeff(g, 2), sigma),
                 (coeff(g, 3), sigma * sigma)],
                "E", instance.section(i).ground_elevation)

    if volume_mode == "linear":
        for i in range(1, instance.n + 1):
            asm.row(f"VOL_{i}",
                    [(cut(i), 1.0), (fill(i), -1.0),
                     (offset(i), -instance.section(i).area)],
                    "E", 0.0)
    else:
        missing = [i for i in range(1, instance.n + 1)
                   if i not in instance.curve_by_section]
        if missing:
            raise BuildError(
                "piecewise volume mode needs a curve for every section; "
                f"missing for sections {missing}")
        for i in range(1, instance.n + 1):
            curve = instance.curve_by_section[i]
            breaks = len(curve.offsets)
            lams = [asm.var(f"LAM_{i}_{b}", 0.0, 1.0) for b in range(1, breaks + 1)]
            asm.row(f"PWS_{i}", [(lam, 1.0) for lam in lams], "E", 1.0)
            asm.row(f"PWU_{i}",
                    [(offset(i), 1.0)] + [(lam, -off) for lam, off
                                         in zip(lams, curve.offsets)],
                    "E", 0.0)
            asm.row(f"PWC_{i}",
                    [(cut(i), 1.0)] + [(lam, -c) for lam, c
                                          in zip(lams, curve.cut)],
                    "E", 0.0)
            asm.row(f"PWF_{i}",
                    [(fill(i), 1.0)] + [(lam, -fl) for lam, fl
                                          in zip(lams, curve.fill)],
                    "E", 0.0)
            if volume_mode == "piecewise-sos2":
                asm.add_sos(f"SV_{i}", 2,
                            [(asm.column(lam), off)
                             for lam, off in zip(lams, curve.offsets)])
            else:
                zs = [asm.var(f"Z_{i}_{b}", 0.0, 1.0, kind="binary")
                      for b in range(1, breaks)]
                asm.row(f"PWZ_{i}", [(z, 1.0) for z in zs], "E", 1.0)
                for b in range(1, breaks + 1):
                    adjacent = []
                    if b >= 2:
                        adjacent.append((zs[b - 2], -1.0))
                    if b <= breaks - 1:
                        adjacent.append((zs[b - 1], -1.0))
                    asm.row(f"PWA_{i}_{b}", [(lams[b - 1], 1.0)] + adjacent,
                            "L", 0.0)

    # Continuity at each internal boundary: segment g-1 evaluated at its far
    # end equals segment g at its origin (local coordinate 0).
    for g in range(2, m + 1):
        start_prev, end_prev = instance.segment_span(g - 1)
        span = end_prev - start_prev
        asm.row(f"C0_{g}",
                [(coeff(g - 1, 1), 1.0), (coeff(g - 1, 2), span),
                 (coeff(g - 1, 3), span * span), (coeff(g, 1), -1.0)],
                "E", 0.0)
        asm.row(f"C1_{g}",
                [(coeff(g - 1, 2), 1.0), (coeff(g - 1, 3), 2.0 * span),
                 (coeff(g, 2), -1.0)],
                "E", 0.0)

    # Grade is affine per segment: bounding both endpoints bounds the segment.
    slope_range = instance.slope_hi - instance.slope_lo
    for g in range(1, m + 1):
        start, end = instance.segment_span(g)
        span = end - start
        asm.row(f"SLP_{g}_S", [(coeff(g, 2), 1.0)],
                "L", instance.slope_hi, rhs_range=slope_range)
        asm.row(f"SLP_{g}_E", [(coeff(g, 2), 1.0), (coeff(g, 3), 2.0 * span)],
                "L", instance.slope_hi, rhs_range=slope_range)


def build(instance: RoadInstance, config: BuilderConfig) -> MilpModel:
    """Build the MHQNF or QNF flow model (or dispatch to CTG)."""
    config.validate()
    instance.check()
    if config.model == "CTG":
        return build_ctg(instance, config)
    _check_segments(instance)

    hauls = effective_hauls(instance, config)
    n = instance.n
    blocks = instance.sorted_blocks
    n_blocks = len(blocks)
    steps = list(range(n_blocks + 1))  # time steps 0..n_b

    names = ArcIndex(instance)
    asm = _Assembler("VALIGN")
    _spline_rows(asm, instance, names, config.volume_mode)
    hs = range(1, len(hauls) + 1)

    # Flow columns, laid out by ArcIndex.flow_grid. Transit arcs leaving the
    # road at either end exist with zero bounds so conservation rows keep a
    # uniform shape.
    flow_names, grid = names.flow_grid(len(hauls), len(steps))
    transit, unload, load, borrow, waste = grid
    hop = np.zeros((n, 2))  # (section, chain): distance from i to i+d
    hop[:-1, 0] = hop[1:, 1] = np.diff(instance.stations)
    cost = np.zeros(len(flow_names))
    for h, haul in enumerate(hauls):
        cost[transit[h]] = haul.unit_haul_cost * hop
        cost[unload[h]] = haul.loading_cost
        for j, pit in enumerate(instance.borrow_pits):
            mat = instance.material_of(pit.attached_section)
            cost[borrow[h, :, j]] = mat.excavation + haul.loading_cost \
                + haul.unit_haul_cost * pit.dead_haul
        for k, pit in enumerate(instance.waste_pits):
            mat = instance.material_of(pit.attached_section)
            cost[waste[h, :, k]] = mat.embankment \
                + haul.unit_haul_cost * pit.dead_haul
    upper = np.full(len(flow_names), math.inf)
    upper[transit[:, :, -1, 0]] = upper[transit[:, :, 0, 1]] = 0.0
    first = asm.columns(flow_names, cost, upper)
    # From here on, the grid holds column ids.
    grid = tuple(first + ids for ids in grid)
    transit, unload, load, borrow, waste = grid

    # Removal indicators Y_k_t; y holds their ids by (block, step) from 0.
    y = len(asm.col_names) + np.arange(n_blocks * len(steps)).reshape(
        n_blocks, len(steps))
    for k in range(1, n_blocks + 1):
        for t in steps:
            asm.var(names.removal(k, t), 0.0, 1.0, kind="binary")

    # Conservation at every node i of chain d (FCR rightward, FCL leftward):
    # transit in from i-d + unload + borrow = transit out + load + waste.
    node = np.arange(transit.size).reshape(transit.shape)
    asm.bulk_rows(
        [(f"FC{chain}_{h}_{t}_{i}", "E", 0.0) for h in hs for t in steps
         for i in range(1, n + 1) for chain in "RL"],
        [(node[:, :, 1:, 0], transit[:, :, :-1, 0], 1.0),
         (node[:, :, :-1, 1], transit[:, :, 1:, 1], 1.0),
         (node, unload, 1.0),
         *[(node[:, :, pit.attached_section - 1], borrow[:, :, j], 1.0)
           for j, pit in enumerate(instance.borrow_pits)],
         (node, transit, -1.0), (node, load, -1.0),
         *[(node[:, :, pit.attached_section - 1], waste[:, :, k], -1.0)
           for k, pit in enumerate(instance.waste_pits)]])

    # Balance: a node's arcs over both chains, hauls and steps, in that
    # order, equal its volume variable; a pit's arcs are also capped. Rows
    # are BALC_i, BALF_i per section, then BALB_j, CAPB_j per borrow pit and
    # BALW_k, CAPW_k per waste pit.
    n_borrow = len(instance.borrow_pits)
    rows = [(f"BAL{kind}_{i}", "E", 0.0)
            for i in range(1, n + 1) for kind in "CF"]
    rows += [(f"{tag}{kind}_{j}", sense, value)
             for kind, pits in (("B", instance.borrow_pits),
                                ("W", instance.waste_pits))
             for j, pit in enumerate(pits, start=1)
             for tag, sense, value in (("BAL", "E", 0.0),
                                       ("CAP", "L", pit.capacity))]
    parts = []
    for start, arcs, volume, capped in (
            (0, unload, names.cut, False), (1, load, names.fill, False),
            (2 * n, borrow, names.borrow_used, True),
            (2 * (n + n_borrow), waste, names.waste_used, True)):
        row = start + 2 * np.arange(arcs.shape[2])
        node_arcs = (row[:, None, None, None], arcs.transpose(2, 3, 0, 1), 1.0)
        volumes = [asm.column(volume(i)) for i in range(1, len(row) + 1)]
        parts += [node_arcs, (row, volumes, -1.0)]
        if capped:  # the CAP row follows each pit's BAL row
            parts.append((node_arcs[0] + 1,) + node_arcs[1:])
    asm.bulk_rows(rows, parts)

    if blocks:
        _block_rows(asm, instance, names, config, grid, y)

    provenance = _provenance(instance, config, hauls, steps)
    return asm.finish(provenance)


def _block_rows(asm: _Assembler, instance: RoadInstance, names: ArcIndex,
                config: BuilderConfig, grid: tuple[np.ndarray, ...],
                y: np.ndarray) -> None:
    """Block gating, region gating, removal indicators, enforcement.

    grid holds the column ids of flow_grid's arrays, y[k, t] those of the
    removal indicators Y_<k+1>_<t>."""
    transit, unload, load, borrow, waste = grid
    n_hauls, n_steps = transit.shape[:2]
    blocks = instance.sorted_blocks
    n_blocks = len(blocks)
    sections = [blk.section for blk in blocks]
    m_flow = global_big_m(instance, config.volume_mode)
    removal = names.removal
    keys = [(k, h, t) for k in range(1, n_blocks + 1)
            for h in range(1, n_hauls + 1) for t in range(n_steps)]
    tags = [side + end for side in "LR" for end in "IO"]

    def at_blocks(arcs: np.ndarray, shift=0) -> np.ndarray:
        """arcs at each block's section less shift (per chain), indexed
        (block, haul, step, chain)."""
        at = np.array(sections)[:, None] - 1 - shift
        return arcs[:, :, at, [0, 1]].transpose(2, 0, 1, 3)

    # Four gated pairs per block: on each chain (L rightward, R leftward),
    # transit into/out of the block section must match the local load/unload
    # until the block is removed. Rows are numbered on the slots (block,
    # haul, step, chain, into/out, P/N); at step 0 nothing is removed yet,
    # so each pair has one E row.
    flow = np.stack([at_blocks(transit, np.array(DIRECTIONS)),
                     at_blocks(transit)], -1)
    local = np.stack([at_blocks(load), at_blocks(unload)], -1)
    used = np.ones(flow.shape + (2,), bool)
    used[:, :, 0, ..., 1] = False
    slot = np.cumsum(used).reshape(used.shape) - 1
    e, pn = slot[:, :, 0, ..., 0], slot[:, :, 1:]
    if config.block_technique == "sos1":
        # Complement of the removal indicator, shared across pair sets.
        for k in range(1, n_blocks + 1):
            for u in range(n_blocks):
                asm.var(f"W_{k}_{u}", 0.0, 1.0)
                asm.row(f"WDEF_{k}_{u}",
                        [(f"W_{k}_{u}", 1.0), (removal(k, u), 1.0)], "E", 1.0)
        # Finite slack bound keeps the set convertible to binaries by
        # solvers without native SOS support.
        sets = [(f"{tag}_{k}_{h}_{t}", f"W_{k}_{t - 1}")
                for k, h, t in keys if t for tag in tags]
        first = asm.columns([f"BS_{key}" for key, _ in sets],
                            np.zeros(len(sets)), np.full(len(sets), m_flow))
        for col, (key, complement) in enumerate(sets, start=first):
            asm.add_sos(f"SB_{key}", 1,
                        [(col, 1.0), (asm.column(complement), 2.0)])
        release = first + np.arange(len(sets)).reshape(pn.shape[:-1])
        release_coeff = -1.0
    else:  # Y_k_<t-1> releases step t
        release, release_coeff = y[:, None, :-1, None, None], -m_flow
    sign = np.array([1.0, -1.0])  # P, N
    asm.bulk_rows(
        [(f"B{tag}{kind}_{k}_{h}_{t}", "L" if t else "E", 0.0)
         for k, h, t in keys for tag in tags for kind in ("PN" if t else "E")],
        [(e, flow[:, :, 0], 1.0), (e, local[:, :, 0], -1.0),
         (pn, flow[:, :, 1:, ..., None], sign),
         (pn, local[:, :, 1:, ..., None], -sign),
         (pn, release[..., None], release_coeff)])

    # Region gating: all movement inside regions sealed off by unremoved
    # blocks (no access road) is forbidden until a sealing block is removed.
    def region(tag: str, ks: tuple[int, ...], lo_arc: int, hi_arc: int,
               pit_ok, key: str) -> None:
        # lo_arc..hi_arc: transit arcs (i, i+1) with lo_arc <= i, i+1 <= hi_arc
        # on both chains, then both arcs of each admitted pit. Row tags name
        # the arc's end: P for section+1, M for -1.
        ok_borrow = np.array([pit_ok(p.attached_section)
                              for p in instance.borrow_pits], bool)
        ok_waste = np.array([pit_ok(p.attached_section)
                             for p in instance.waste_pits], bool)
        arcs = np.concatenate(
            [np.stack([transit[:, :, lo_arc - 1:hi_arc - 1, 0],
                       transit[:, :, lo_arc:hi_arc, 1]], -1),
             borrow[:, :, ok_borrow], waste[:, :, ok_waste]], axis=2)
        ends = [(arc, i) for i in range(lo_arc, hi_arc) for arc in "RL"]
        ends += [(f"B{end}", j + 1) for j in np.flatnonzero(ok_borrow).tolist()
                 for end in "PM"]
        ends += [(f"W{end}", w + 1) for w in np.flatnonzero(ok_waste).tolist()
                 for end in "MP"]
        rows = np.arange(arcs.size).reshape(arcs.shape)
        asm.bulk_rows(
            [(f"G{tag}{arc}_{key}_{h}_{t}_{i}", "L", 0.0)
             for h in range(1, n_hauls + 1) for t in range(n_steps)
             for arc, i in ends],
            [(rows, arcs, 1.0)]
            + [(rows[:, 1:], y[k - 1, :-1, None, None], -m_flow) for k in ks])

    pairs, left_set, right_set = block_access_sets(instance)
    for k1, k2 in pairs:
        s1, s2 = sections[k1 - 1], sections[k2 - 1]
        region("2", (k1, k2), s1, s2,
               lambda sec: s1 <= sec - 1 and sec + 1 <= s2, f"{k1}_{k2}")
    for k in left_set:
        s = sections[k - 1]
        region("L", (k,), 1, s, lambda sec: sec + 1 <= s, str(k))
    for k in right_set:
        s = sections[k - 1]
        region("R", (k,), s, instance.n, lambda sec: s <= sec - 1, str(k))

    # Removal indicators: a block may be flagged removed at step u only once
    # its section's full cut and fill have been moved by then. RIC_k_u and
    # RIF_k_u alternate, block by block.
    m_vol = np.array([big_m(instance, s, config.volume_mode)
                      for s in sections])
    ric = 2 * np.arange(y.size).reshape(y.shape)
    parts = []
    for row, arcs, volume in ((ric, unload, names.cut),
                              (ric + 1, load, names.fill)):
        moved = at_blocks(arcs)
        parts += [(row[:, u, None, None, None], moved[:, :, :u + 1], 1.0)
                  for u in range(n_steps)]
        parts += [(row, [[asm.column(volume(s))] for s in sections], -1.0),
                  (row, y, -m_vol[:, None])]
    asm.bulk_rows([(f"RI{kind}_{k}_{u}", "G", -m)
                   for k, m in enumerate(m_vol.tolist(), start=1)
                   for u in range(n_steps) for kind in "CF"], parts)

    # At least u blocks are removed by the end of step u; removal is final.
    for u in range(1, n_blocks + 1):
        asm.row(f"ENF_{u}",
                [(removal(k, u), 1.0) for k in range(1, n_blocks + 1)],
                "G", float(u))
    for k in range(1, n_blocks + 1):
        for t in range(1, n_blocks + 1):
            asm.row(f"MON_{k}_{t}",
                    [(removal(k, t), 1.0), (removal(k, t - 1), -1.0)], "G", 0.0)


def build_ctg(instance: RoadInstance,
              config: BuilderConfig | None = None) -> MilpModel:
    """Complete transportation graph variant (block-free instances only)."""
    config = config or BuilderConfig(model="CTG")
    if config.model != "CTG":
        config = replace(config, model="CTG")
    config.validate()
    instance.check()
    if instance.blocks:
        raise BuildError("CTG requires a block-free instance")
    _check_segments(instance)

    names = ArcIndex(instance)
    asm = _Assembler("VALIGN")
    _spline_rows(asm, instance, names, config.volume_mode)

    # Material cost is carried on arcs, so strip VP/VM objective entries.
    asm.cost = [0.0] * len(asm.cost)

    hauls = instance.cost_model.hauls
    stations = instance.stations

    def node_info(nodes: Sequence[int]) -> tuple[np.ndarray, ...]:
        """(station, dead haul, excavation rate, embankment rate) per node."""
        rows = []
        for node in nodes:
            section, dead_haul = names.node_site(node)
            mat = instance.material_of(section)
            rows.append((stations[section - 1], dead_haul, mat.excavation,
                         mat.embankment))
        return tuple(np.array(column) for column in zip(*rows))

    st_s, dead_s, exc_s, _ = node_info(names.supply_nodes)
    st_d, dead_d, _, emb_d = node_info(names.demand_nodes)
    arcs, src, dst = names.ctg_arcs
    dist = np.abs(st_d[dst] - st_s[src]) + dead_s[src] + dead_d[dst]
    cost = exc_s[src] + cheapest_haul_costs(hauls, dist) + emb_d[dst]
    first = asm.columns(arcs, cost, np.full(len(arcs), math.inf))

    # Each node's row takes its arcs in declaration order, less the node's
    # volume variable: CTS_i, CTD_i per section, then CTB_j, then CTW_k.
    n, n_borrow = instance.n, len(instance.borrow_pits)
    n_waste = len(instance.waste_pits)
    supply_row = np.append(2 * np.arange(n), 2 * n + np.arange(n_borrow))
    demand_row = np.append(2 * np.arange(n) + 1,
                           2 * n + n_borrow + np.arange(n_waste))
    ids = np.arange(first, first + len(arcs))
    asm.bulk_rows(
        [(f"{tag}_{i}", "E", 0.0) for i in range(1, n + 1)
         for tag in ("CTS", "CTD")]
        + [(f"CTB_{j}", "E", 0.0) for j in range(1, n_borrow + 1)]
        + [(f"CTW_{k}", "E", 0.0) for k in range(1, n_waste + 1)],
        [(supply_row[src], ids, 1.0), (demand_row[dst], ids, 1.0),
         (supply_row, [asm.column(names.cut(node))
                       for node in names.supply_nodes], -1.0),
         (demand_row, [asm.column(names.fill(node))
                       for node in names.demand_nodes], -1.0)])

    provenance = _provenance(instance, config, hauls, [0])
    return asm.finish(provenance)


def fix_offsets(model: MilpModel, offsets: Sequence[float]) -> MilpModel:
    """Pin every section offset, reducing the MILP to earthwork allocation:
    the model with one more row per section, FIX_<i>: U_<i> = offset."""
    column = {name: c for c, name in enumerate(model.columns)}
    cols: list[int] = []
    while ArcIndex.offset(len(cols) + 1) in column:
        cols.append(column[ArcIndex.offset(len(cols) + 1)])
    n, m = len(cols), len(model.row_order)
    if len(offsets) != n:
        raise BuildError(f"need {n} offsets, got {len(offsets)}")
    for i, (col, value) in enumerate(zip(cols, offsets), start=1):
        lower, upper = model.col_lower[col].item(), model.col_upper[col].item()
        if not lower - 1e-9 <= value <= upper + 1e-9:
            raise BuildError(f"offset {value} outside bounds [{lower}, "
                             f"{upper}] of section {i}")
    out = replace(
        model,
        row_order=model.row_order + tuple(f"FIX_{i}" for i in range(1, n + 1)),
        senses=np.append(model.senses, ["E"] * n),
        row_rhs=np.append(model.row_rhs, offsets),
        row_range=np.append(model.row_range, np.full(n, math.nan)),
        entries=np.append(model.entries, entry_records(
            m + np.arange(n), cols, np.ones(n))),
        provenance=model.provenance + (("fixed_offsets", "yes"),))
    out.lint()
    return out


def _provenance(instance: RoadInstance, config: BuilderConfig,
                hauls: Sequence[HaulClass], steps: Sequence[int]
                ) -> list[tuple[str, str]]:
    return [
        ("model", config.model),
        ("config_name", config.name or "-"),
        ("block_technique", config.block_technique),
        ("volume_mode", config.volume_mode),
        ("hauls", ";".join(f"{h.name}:{h.loading_cost}:{h.unit_haul_cost}"
                           for h in hauls)),
        ("sections", str(instance.n)),
        ("blocks", str(len(instance.blocks))),
        ("time_steps", str(len(steps))),
    ]
