"""Construction of the alignment MILP variants as solver-neutral models.

Three model families share the spline, volume, and slope rows:

* MHQNF: per-haul directed transit chains with time-expanded block logic.
* QNF: the same construction restricted to a single haul class.
* CTG: a block-free complete transportation graph with one arc per
  (supply node, demand node) pair, quadratic in the section count.

Variable names (in MPS and solution files) and the column order (decode
reads solutions by column id) are a stable external contract, and ArcIndex
is the only code that states them: A_<g>_<k>, U_<i>, VP_<i>, VM_<i>,
Y_<k>_<t>, X_<i>_<j> (CTG), and for haul h and time step t the chain arcs
FR/FU/FL_<h>_<t>_<i>_<j>, where j - i is the chain's direction d (+1
rightward, -1 leftward), and the pit arcs FB/FW_<h>_<t>_<pit>_<dir>. Pit
volume variables and CTG pit nodes use node indices n+j (borrow) and
n+n_borrow+k (waste).

A MilpModel has the columnar layout of solve_core.ColumnarModel, the one
the bundled adapter parses MPS files into and hands to HiGHS. Its integer
columns are all binary, and its matrix entries come in row-declaration
order, each row's entries in the order they were declared.

Every model is assembled by _Assembler, which knows columns by id only:
each declaration returns the ids of its columns, and every row and SOS set
is declared over ids, so no column is ever looked up by name. Rows are
declared a family at a time, over arrays of ids and coefficients, by
_Assembler.bulk_rows, the one way to declare a row. build declares the
spline rows all three families share (_spline_rows), then the flow
model's columns and rows or CTG's (_ctg_model). The flow columns are
declared at once from an ArcIndex grid: ctg_arcs puts the X arcs on the
(supply node, demand node) grid, and flow_grid lays out the MH-QNF chains,
indexed (haul, step, section or pit, chain), in the order of ctg_names and
flow_names. _spline_rows returns the A and U ids, and the VP and VM ids by
node for the rows over the flows (CTS/CTD/CTB/CTW; FCR/FCL, BALC/BALF,
BALB/CAPB and BALW/CAPW; RIC/RIF), and the Y and W ids by (block, step)
index the block rows. The model keeps the ids of its A, U, VP, VM, Y and
flow runs as MilpModel.runs, so decode and fix_offsets find no column by
name either.

Each rule has one owner, which validate reads too: the spline rows place
sections by the instance's frame, the G rows gate the regions of
instance.sealed_regions, CTG prices its arcs from ArcIndex.node_sites, and
a MilpModel lints itself when it is made, as a RoadInstance checks itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from valign.instance import (
    HaulClass,
    RoadInstance,
    big_m,
    cheapest_haul_costs,
    global_big_m,
    sealed_regions,
)
from valign.solve_core import ENTRY, ColumnarModel, entry_records


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


class ColumnRuns(NamedTuple):
    """Column ids of a built model's runs, indexed from 0: A_<g>_<k> by
    (segment, k), U_<i>, VP over supply_nodes, VM over demand_nodes,
    Y_<k>_<t> by (block, step), and flow_grid's five arrays or CTG's one
    (supply, demand) node grid, -1 where no arc is."""

    coefficients: np.ndarray
    offsets: np.ndarray
    cut: np.ndarray
    fill: np.ndarray
    removal: np.ndarray
    flows: tuple[np.ndarray, ...]


@dataclass(eq=False)
class MilpModel(ColumnarModel):
    """A MILP to minimize, in the columnar layout the module docstring
    describes, with its provenance and, when the builder made it, the ids
    of its column runs, by which decode reads a solution.

    The arrays, those of runs too, are read-only, and the model is linted
    when it is made, so every MilpModel is valid; variables, constraints
    and binary_count are views built from them.
    """

    provenance: tuple[tuple[str, str], ...] = ()
    runs: ColumnRuns | None = None

    def __post_init__(self):
        arrays = list(vars(self).values())
        if self.runs is not None:
            arrays += [*self.runs[:-1], *self.runs.flows]
        for value in arrays:
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.lint()

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

    @property
    def binary_count(self) -> int:
        return int(np.count_nonzero(self.col_integer))

    def lint(self) -> None:
        """Check referential integrity; raises BuildError on any defect."""
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
            outside = [c for c, _ in members if not 0 <= c < len(names)]
            if outside:
                raise BuildError(
                    f"SOS set {name}: unknown variable {outside[0]}")
            weights = [w for _, w in members]
            if len(set(weights)) != len(weights):
                raise BuildError(f"SOS set {name}: duplicate weights")


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
_NAMED_TECHNIQUES = {"B": "basic", "S1": "sos1"}
# Every name named_config accepts, model by model.
KNOWN_CONFIG_NAMES = tuple(f"{base}-{suffix}"
                           for base in ("MQN", "CTG", *_NAMED_QNF)
                           for suffix in _NAMED_TECHNIQUES)


def qnf_haul(label: str) -> HaulClass:
    """The single haul class of a QNF benchmark config, priced by
    QNF_COST_PAIRS[label]."""
    loading, per_m = QNF_COST_PAIRS[label]
    return HaulClass(label, loading_cost=loading, unit_haul_cost=per_m)


def named_config(name: str) -> BuilderConfig:
    """Benchmark configuration registry: MQN/CTG/QNS/QNM/QNL/QNA x -B/-S1."""
    base, _, suffix = name.partition("-")
    if suffix not in _NAMED_TECHNIQUES:
        raise BuildError(f"unknown config name {name!r} (expected -B or -S1 suffix)")
    technique = _NAMED_TECHNIQUES[suffix]
    if base == "MQN":
        return BuilderConfig(model="MHQNF", block_technique=technique, name=name)
    if base == "CTG":
        return BuilderConfig(model="CTG", block_technique=technique, name=name)
    if base in _NAMED_QNF:
        return BuilderConfig(model="QNF", haul_subset=(qnf_haul(
            _NAMED_QNF[base]),), block_technique=technique, name=name)
    raise BuildError(f"unknown config name {name!r}")


def effective_hauls(instance: RoadInstance,
                    config: BuilderConfig) -> tuple[HaulClass, ...]:
    hauls = config.haul_subset if config.haul_subset is not None \
        else instance.cost_model.hauls
    return tuple(hauls)


DIRECTIONS = (1, -1)  # rightward chain, leftward chain


class ArcIndex:
    """Names and column layout of one instance's models (module docstring).

    Chain d carries material from section i toward i+d. flow_grid lays out
    its arcs: the transit arc i -> i+d, the unload arc that puts section i's
    cut on the chain, the load arc that takes the chain's material into
    section i's fill, and the borrow and waste arcs that join a pit to the
    chain at the pit's attached section.

    The builder declares each family of columns as one run: A_<g>_<k>
    (segment major), U_<i>, VP over supply_nodes, VM over demand_nodes, the
    flows (ctg_names or flow_names) and Y_<k>_<t> (block major), in this
    order, with piecewise and SOS1 columns between or after them. It keeps
    the ids the declarations return as the model's ColumnRuns.
    """

    def __init__(self, instance: RoadInstance):
        self.instance = instance
        self.n = n = instance.n
        self.borrow_pits = instance.borrow_pits
        self.waste_pits = instance.waste_pits
        self._pits = instance.borrow_pits + instance.waste_pits
        after = n + len(self.borrow_pits)
        self.supply_nodes = list(range(1, after + 1))
        self.demand_nodes = list(range(1, n + 1)) + list(
            range(after + 1, n + len(self._pits) + 1))

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

    def node_sites(self, nodes: Sequence[int]) -> tuple[np.ndarray, ...]:
        """(station, dead haul, excavation rate, embankment rate) per CTG
        supply or demand node: a section's own, or for a pit its attached
        section's, with the pit's dead haul."""
        instance, rows = self.instance, []
        for node in nodes:
            section, dead_haul = node, 0.0
            if node > self.n:
                pit = self._pits[node - self.n - 1]
                section, dead_haul = pit.attached_section, pit.dead_haul
            mat = instance.material_of(section)
            rows.append((instance.stations[section - 1], dead_haul,
                         mat.excavation, mat.embankment))
        return tuple(np.array(column) for column in zip(*rows))

    @cached_property
    def ctg_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """The 0-based (supply, demand) positions on the node grid of the
        CTG arcs, in declaration order (supply node major). A section never
        ships to itself, so the grid diagonal has no arc."""
        return np.nonzero(np.array(self.supply_nodes)[:, None]
                          != np.array(self.demand_nodes))

    def ctg_names(self) -> list[str]:
        """The names of the ctg_arcs, in the same order."""
        heads = [(src, f"X_{src}_") for src in self.supply_nodes]
        tails = [(dst, str(dst)) for dst in self.demand_nodes]
        return [head + tail for src, head in heads
                for dst, tail in tails if dst != src]

    def flow_grid(self, n_hauls: int, n_steps: int) -> tuple[np.ndarray, ...]:
        """Offsets into the MH-QNF flow run of the transit, unload and load
        arcs, indexed (haul, step, section, chain), and of the borrow and
        waste arcs, indexed (haul, step, pit, chain), all from 0, chain 0
        being DIRECTIONS[0]. Per haul, then per step, come every section's
        three arcs on both chains, then both chains of every borrow pit,
        then of every waste pit: 6n + 2 (borrow + waste) arcs a step."""
        n = self.n
        n_borrow, n_waste = len(self.borrow_pits), len(self.waste_pits)
        size = n_hauls * n_steps * (6 * n + 2 * (n_borrow + n_waste))
        per_step = np.arange(size).reshape(n_hauls, n_steps, -1)
        arcs = per_step[:, :, :6 * n].reshape(n_hauls, n_steps, n, 2, 3)
        pits = per_step[:, :, 6 * n:].reshape(n_hauls, n_steps,
                                              n_borrow + n_waste, 2)
        return (arcs[..., 0], arcs[..., 1], arcs[..., 2],
                pits[:, :, :n_borrow], pits[:, :, n_borrow:])

    def flow_names(self, n_hauls: int, n_steps: int) -> list[str]:
        """The names of the MH-QNF flow run, in flow_grid's order."""
        names: list[str] = []
        for h in range(1, n_hauls + 1):
            for t in range(n_steps):
                for i in range(1, self.n + 1):
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
        return names


class _Assembler:
    """Accumulates a model by column id.

    columns declares columns and returns their ids; bulk_rows declares rows
    over those ids, many at once, as arrays. All of it is kept in
    declaration order, and finish turns it into the model's arrays.
    Repeated names and repeated columns in a row are left to the model's
    lint.
    """

    def __init__(self, name: str):
        self.name = name
        self.col_names: list[str] = []
        # Each columns call's cost, lower and upper bounds and binary flags,
        # as arrays of its length.
        self.col_values: list[tuple[np.ndarray, ...]] = []
        self.row_names: list[str] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.rhs_range: list[float] = []
        self.chunks: list[np.ndarray] = []     # ENTRY arrays
        self.sos: list[tuple[int, str, tuple[tuple[int, float], ...]]] = []

    def columns(self, names: Sequence[str], cost=0.0, lower=0.0,
                upper=math.inf, binary=False) -> np.ndarray:
        """Declare columns, each value broadcast over names; returns their
        ids."""
        first, count = len(self.col_names), len(names)
        self.col_names.extend(names)
        self.col_values.append(tuple(
            np.broadcast_to(np.array(value, dtype), count)
            for value, dtype in ((cost, np.float64), (lower, np.float64),
                                 (upper, np.float64), (binary, bool))))
        return np.arange(first, first + count)

    def bulk_rows(self, rows: Iterable[tuple], parts: Sequence[tuple]
                  ) -> None:
        """Declare rows, each (name, sense, rhs) or, ranged, (name, sense,
        rhs, range), and their entries as (row, column ids, coefficient)
        parts broadcast to one shape, row counting from the first of rows.
        A row's entries follow the order of the parts, then their order
        within a part. A column repeated within a row is caught by lint."""
        first = len(self.row_names)
        for name, sense, rhs, *rhs_range in rows:
            if sense not in ("L", "E", "G"):
                raise BuildError(f"row {name}: unknown sense {sense!r}")
            self.row_names.append(name)
            self.senses.append(sense)
            self.rhs.append(rhs)
            self.rhs_range.append(rhs_range[0] if rhs_range else math.nan)
        shaped = [np.broadcast_arrays(*part) for part in parts]
        row, col, val = (np.concatenate([np.ravel(p[at]) for p in shaped])
                         for at in range(3))
        order = np.argsort(row, kind="stable")
        # + 0.0: a -0.0 coefficient is written 0.0
        self.chunks.append(entry_records(first + row[order], col[order],
                                         np.add(val[order], 0.0)))

    def add_sos(self, name: str, sos_type: int,
                members: Iterable[tuple[int, float]]) -> None:
        """Declare an SOS set by its members' column ids and weights."""
        self.sos.append((sos_type, name, tuple(members)))

    def finish(self, provenance: Iterable[tuple[str, str]],
               runs: ColumnRuns | None = None) -> MilpModel:
        """The declarations as a model of read-only arrays."""
        cost, lower, upper, binary = (
            np.concatenate([np.empty(0, dtype)]
                           + [values[at] for values in self.col_values])
            for at, dtype in enumerate((np.float64,) * 3 + (bool,)))
        return MilpModel(
            self.name, tuple(self.col_names), cost, lower, upper, binary,
            tuple(self.row_names),
            np.array(self.senses, "U"), np.array(self.rhs, np.float64),
            np.array(self.rhs_range, np.float64),
            np.concatenate(self.chunks or [np.empty(0, ENTRY)]),
            tuple(self.sos), provenance=tuple(provenance), runs=runs)


def _check_segments(instance: RoadInstance) -> None:
    start, end = instance.frame.start, instance.frame.end
    short = np.flatnonzero(end <= start)
    if short.size:
        g = short[0]
        raise BuildError(f"segment {g + 1} has zero length "
                         f"(stations {float(start[g])}..{float(end[g])})")


def _spline_rows(asm: _Assembler, instance: RoadInstance, names: ArcIndex,
                 volume_mode: str, price_volumes: bool
                 ) -> tuple[np.ndarray, ...]:
    """Shared rows: coefficients, offsets, volumes, continuity, slope.

    The section volumes carry their material's excavation and embankment
    rates as cost when price_volumes is set; CTG carries them on its arcs.
    Returns the column ids of the coefficients A by (segment, k), of the
    offsets U, of the cut volumes VP over names.supply_nodes and of the fill
    volumes VM over names.demand_nodes."""
    frame = instance.frame
    m, n = instance.segment_layout.segment_count, instance.n
    sections = [instance.section(i) for i in range(1, n + 1)]
    materials = [instance.material_of(i) for i in range(1, n + 1)]
    caps = [big_m(instance, i, volume_mode) for i in range(1, n + 1)]

    a_ids = asm.columns([names.coeff(g, k) for g in range(1, m + 1)
                         for k in (1, 2, 3)], lower=-math.inf).reshape(m, 3)
    u_ids = asm.columns([names.offset(i) for i in range(1, n + 1)],
                        lower=[sec.offset_lo for sec in sections],
                        upper=[sec.offset_hi for sec in sections])
    borrow, waste = instance.borrow_pits, instance.waste_pits
    vp = asm.columns([names.cut(node) for node in names.supply_nodes],
                     cost=[mat.excavation if price_volumes else 0.0
                           for mat in materials]
                     + [0.0] * len(borrow),
                     upper=caps + [pit.capacity for pit in borrow])
    vm = asm.columns([names.fill(node) for node in names.demand_nodes],
                     cost=[mat.embankment if price_volumes else 0.0
                           for mat in materials]
                     + [0.0] * len(waste),
                     upper=caps + [pit.capacity for pit in waste])

    # Offset definition: U_i + P(s_i) = E_i, expanded over local coordinates.
    row, a, sigma = np.arange(n), a_ids[frame.segment], frame.sigma
    asm.bulk_rows(
        [(f"OFF_{i}", "E", sec.ground_elevation)
         for i, sec in enumerate(sections, start=1)],
        [(row, u_ids, 1.0), (row, a[:, 0], 1.0), (row, a[:, 1], sigma),
         (row, a[:, 2], sigma * sigma)])

    if volume_mode == "linear":
        asm.bulk_rows(
            [(f"VOL_{i}", "E", 0.0) for i in range(1, n + 1)],
            [(row, vp[:n], 1.0), (row, vm[:n], -1.0),
             (row, u_ids, -np.array([sec.area for sec in sections]))])
    else:
        missing = [i for i in range(1, n + 1)
                   if i not in instance.curve_by_section]
        if missing:
            raise BuildError(
                "piecewise volume mode needs a curve for every section; "
                f"missing for sections {missing}")
        for i in range(1, n + 1):
            # Rows PWS, then PWU, PWC and PWF, then for piecewise-binary
            # PWZ and PWA_<b> per breakpoint.
            curve = instance.curve_by_section[i]
            breaks = len(curve.offsets)
            lams = asm.columns([f"LAM_{i}_{b}" for b in range(1, breaks + 1)],
                               upper=1.0)
            rows = [(f"PWS_{i}", "E", 1.0)] + [
                (f"{tag}_{i}", "E", 0.0) for tag in ("PWU", "PWC", "PWF")]
            laws = np.arange(1, 4)      # the PWU, PWC and PWF rows
            parts = [(0, lams, 1.0),
                     (laws, [u_ids[i - 1], vp[i - 1], vm[i - 1]], 1.0),
                     (laws[:, None], lams,
                      -np.array([curve.offsets, curve.cut, curve.fill]))]
            if volume_mode == "piecewise-sos2":
                asm.add_sos(f"SV_{i}", 2, zip(lams.tolist(), curve.offsets))
            else:
                zs = asm.columns([f"Z_{i}_{b}" for b in range(1, breaks)],
                                 upper=1.0, binary=True)
                rows += [(f"PWZ_{i}", "E", 1.0)] + [
                    (f"PWA_{i}_{b}", "L", 0.0) for b in range(1, breaks + 1)]
                # LAM_<i>_<b> is at most the Z on either side of it.
                pwa = 5 + np.arange(breaks)
                parts += [(4, zs, 1.0), (pwa, lams, 1.0),
                          (pwa[1:], zs, -1.0), (pwa[:-1], zs, -1.0)]
            asm.bulk_rows(rows, parts)

    # Continuity at each internal boundary: segment g-1 evaluated at its far
    # end equals segment g at its origin (local coordinate 0). C0_<g> and
    # C1_<g> alternate.
    spans = frame.end - frame.start
    prev, span, c0 = a_ids[:-1], spans[:-1], 2 * np.arange(m - 1)
    asm.bulk_rows(
        [(f"C{order}_{g}", "E", 0.0) for g in range(2, m + 1)
         for order in "01"],
        [(c0, prev[:, 0], 1.0), (c0, prev[:, 1], span),
         (c0, prev[:, 2], span * span), (c0, a_ids[1:, 0], -1.0),
         (c0 + 1, prev[:, 1], 1.0), (c0 + 1, prev[:, 2], 2.0 * span),
         (c0 + 1, a_ids[1:, 1], -1.0)])

    # Grade is affine per segment: bounding both endpoints bounds the
    # segment. SLP_<g>_S and SLP_<g>_E alternate.
    slope = (instance.slope_hi, instance.slope_hi - instance.slope_lo)
    slp = 2 * np.arange(m)
    asm.bulk_rows(
        [(f"SLP_{g}_{end}", "L", *slope) for g in range(1, m + 1)
         for end in "SE"],
        [(slp, a_ids[:, 1], 1.0), (slp + 1, a_ids[:, 1], 1.0),
         (slp + 1, a_ids[:, 2], 2.0 * spans)])
    return a_ids, u_ids, vp, vm


def build(instance: RoadInstance, config: BuilderConfig) -> MilpModel:
    """Build the model config names: the MHQNF or QNF flow model, or CTG
    (_ctg_model) on a block-free instance."""
    config.validate()
    ctg = config.model == "CTG"
    if ctg and instance.blocks:
        raise BuildError("CTG requires a block-free instance")
    _check_segments(instance)

    names = ArcIndex(instance)
    asm = _Assembler("VALIGN")
    # CTG carries the material cost on its arcs, not on the volumes.
    a, u, vp, vm = _spline_rows(asm, instance, names, config.volume_mode,
                                price_volumes=not ctg)
    if ctg:
        return _ctg_model(asm, instance, config, names, a, u, vp, vm)

    hauls = effective_hauls(instance, config)
    n = instance.n
    blocks = instance.sorted_blocks
    n_blocks = len(blocks)
    steps = list(range(n_blocks + 1))  # time steps 0..n_b
    hs = range(1, len(hauls) + 1)

    # Flow columns, laid out by ArcIndex.flow_grid. Transit arcs leaving the
    # road at either end exist with zero bounds so conservation rows keep a
    # uniform shape.
    flow_names = names.flow_names(len(hauls), len(steps))
    grid = names.flow_grid(len(hauls), len(steps))
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
    ids = asm.columns(flow_names, cost, upper=upper)
    # From here on, the grid holds column ids.
    grid = tuple(ids[offsets] for offsets in grid)
    transit, unload, load, borrow, waste = grid

    # Removal indicators Y_k_t; y holds their ids by (block, step) from 0.
    y = asm.columns([names.removal(k, t) for k in range(1, n_blocks + 1)
                     for t in steps], upper=1.0, binary=True
                    ).reshape(n_blocks, len(steps))

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
    for start, arcs, volumes, capped in (
            (0, unload, vp[:n], False), (1, load, vm[:n], False),
            (2 * n, borrow, vp[n:], True),
            (2 * (n + n_borrow), waste, vm[n:], True)):
        row = start + 2 * np.arange(arcs.shape[2])
        node_arcs = (row[:, None, None, None], arcs.transpose(2, 3, 0, 1), 1.0)
        parts += [node_arcs, (row, volumes, -1.0)]
        if capped:  # the CAP row follows each pit's BAL row
            parts.append((node_arcs[0] + 1,) + node_arcs[1:])
    asm.bulk_rows(rows, parts)

    if blocks:
        _block_rows(asm, instance, config, grid, y, vp, vm)

    provenance = _provenance(instance, config, hauls, steps)
    return asm.finish(provenance, ColumnRuns(a, u, vp, vm, y, grid))


def _block_rows(asm: _Assembler, instance: RoadInstance,
                config: BuilderConfig, grid: tuple[np.ndarray, ...],
                y: np.ndarray, vp: np.ndarray, vm: np.ndarray) -> None:
    """Block gating, region gating, removal indicators, enforcement.

    grid holds the column ids of flow_grid's arrays, y[k, t] those of the
    removal indicators Y_<k+1>_<t>, and vp and vm those of the volumes, as
    _spline_rows returns them."""
    transit, unload, load, borrow, waste = grid
    n_hauls, n_steps = transit.shape[:2]
    blocks = instance.sorted_blocks
    n_blocks = len(blocks)
    sections = [blk.section for blk in blocks]
    m_flow = global_big_m(instance, config.volume_mode)
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
        # W_k_u, the complement of the removal indicator Y_k_u, shared
        # across pair sets.
        w = asm.columns([f"W_{k}_{u}" for k in range(1, n_blocks + 1)
                         for u in range(n_blocks)], upper=1.0
                        ).reshape(n_blocks, n_blocks)
        wdef = np.arange(w.size).reshape(w.shape)
        asm.bulk_rows([(f"WDEF_{k}_{u}", "E", 1.0)
                       for k in range(1, n_blocks + 1) for u in range(n_blocks)],
                      [(wdef, w, 1.0), (wdef, y[:, :-1], 1.0)])
        # Finite slack bound keeps the set convertible to binaries by
        # solvers without native SOS support.
        sets = [(f"{tag}_{k}_{h}_{t}", w[k - 1, t - 1].item())
                for k, h, t in keys if t for tag in tags]
        slack = asm.columns([f"BS_{key}" for key, _ in sets], upper=m_flow)
        for col, (key, complement) in zip(slack.tolist(), sets):
            asm.add_sos(f"SB_{key}", 1, [(col, 1.0), (complement, 2.0)])
        release = slack.reshape(pn.shape[:-1])
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
    # Per region: its transit arcs on both chains, then both arcs of each
    # pit it admits. Rows are G2 between two blocks, GL and GR beside one
    # (a left region starts at section 1), and their tags name the arc's
    # end: P for section+1, M for -1.
    for region in sealed_regions(instance):
        ks, lo, hi = region
        tag = "2" if len(ks) == 2 else "L" if lo == 1 else "R"
        in_borrow, in_waste = (
            np.array([region.admits(pit.attached_section) for pit in pits],
                     bool)
            for pits in (instance.borrow_pits, instance.waste_pits))
        arcs = np.concatenate(
            [np.stack([transit[:, :, lo - 1:hi - 1, 0],
                       transit[:, :, lo:hi, 1]], -1),
             borrow[:, :, in_borrow], waste[:, :, in_waste]], axis=2)
        ends = [(arc, i) for i in range(lo, hi) for arc in "RL"]
        ends += [(f"B{end}", j + 1) for j in np.flatnonzero(in_borrow).tolist()
                 for end in "PM"]
        ends += [(f"W{end}", w + 1) for w in np.flatnonzero(in_waste).tolist()
                 for end in "MP"]
        key = "_".join(map(str, ks))
        rows = np.arange(arcs.size).reshape(arcs.shape)
        asm.bulk_rows(
            [(f"G{tag}{arc}_{key}_{h}_{t}_{i}", "L", 0.0)
             for h in range(1, n_hauls + 1) for t in range(n_steps)
             for arc, i in ends],
            [(rows, arcs, 1.0)]
            + [(rows[:, 1:], y[k - 1, :-1, None, None], -m_flow) for k in ks])

    # Removal indicators: a block may be flagged removed at step u only once
    # its section's full cut and fill have been moved by then. RIC_k_u and
    # RIF_k_u alternate, block by block.
    m_vol = np.array([big_m(instance, s, config.volume_mode)
                      for s in sections])
    ric = 2 * np.arange(y.size).reshape(y.shape)
    at = np.array(sections) - 1
    parts = []
    for row, arcs, volumes in ((ric, unload, vp[at]), (ric + 1, load, vm[at])):
        moved = at_blocks(arcs)
        parts += [(row[:, u, None, None, None], moved[:, :, :u + 1], 1.0)
                  for u in range(n_steps)]
        parts += [(row, volumes[:, None], -1.0), (row, y, -m_vol[:, None])]
    asm.bulk_rows([(f"RI{kind}_{k}_{u}", "G", -m)
                   for k, m in enumerate(m_vol.tolist(), start=1)
                   for u in range(n_steps) for kind in "CF"], parts)

    # At least u blocks are removed by the end of step u (ENF_u, one row
    # per step); removal is final (MON_k_t, block by block).
    enf = np.arange(n_blocks)
    mon = n_blocks + np.arange(n_blocks * n_blocks).reshape(n_blocks, n_blocks)
    asm.bulk_rows(
        [(f"ENF_{u}", "G", float(u)) for u in range(1, n_blocks + 1)]
        + [(f"MON_{k}_{t}", "G", 0.0) for k in range(1, n_blocks + 1)
           for t in range(1, n_blocks + 1)],
        [(enf, y[:, 1:], 1.0), (mon, y[:, 1:], 1.0), (mon, y[:, :-1], -1.0)])


def _ctg_model(asm: _Assembler, instance: RoadInstance, config: BuilderConfig,
              names: ArcIndex, a: np.ndarray, u: np.ndarray, vp: np.ndarray,
              vm: np.ndarray) -> MilpModel:
    """The CTG model: the complete transportation graph's arcs and node
    rows, declared on asm after the spline rows, whose column ids a, u, vp
    and vm are as _spline_rows returns them."""
    hauls = instance.cost_model.hauls
    st_s, dead_s, exc_s, _ = names.node_sites(names.supply_nodes)
    st_d, dead_d, _, emb_d = names.node_sites(names.demand_nodes)
    # arcs stays alive until the model is finished: freed before the
    # model's lint, it left the next G-01 build 6 MB higher in peak RSS
    # (heap reuse).
    arcs, (src, dst) = names.ctg_names(), names.ctg_arcs
    dist = np.abs(st_d[dst] - st_s[src]) + dead_s[src] + dead_d[dst]
    cost = exc_s[src] + cheapest_haul_costs(hauls, dist) + emb_d[dst]
    ids = asm.columns(arcs, cost)

    # Each node's row takes its arcs in declaration order, less the node's
    # volume variable: CTS_i, CTD_i per section, then CTB_j, then CTW_k.
    n, n_borrow = instance.n, len(instance.borrow_pits)
    n_waste = len(instance.waste_pits)
    supply_row = np.append(2 * np.arange(n), 2 * n + np.arange(n_borrow))
    demand_row = np.append(2 * np.arange(n) + 1,
                           2 * n + n_borrow + np.arange(n_waste))
    asm.bulk_rows(
        [(f"{tag}_{i}", "E", 0.0) for i in range(1, n + 1)
         for tag in ("CTS", "CTD")]
        + [(f"CTB_{j}", "E", 0.0) for j in range(1, n_borrow + 1)]
        + [(f"CTW_{k}", "E", 0.0) for k in range(1, n_waste + 1)],
        [(supply_row[src], ids, 1.0), (demand_row[dst], ids, 1.0),
         (supply_row, vp, -1.0), (demand_row, vm, -1.0)])

    # The arcs by (supply node, demand node), -1 on the diagonal. int32, as
    # the MPS writer's ids: as int64 (1.6 MB on G-01) the grid left the next
    # long-road build 8 MB higher in peak RSS (heap reuse).
    grid = np.full((len(names.supply_nodes), len(names.demand_nodes)), -1,
                   np.int32)
    grid[src, dst] = ids
    provenance = _provenance(instance, config, hauls, [0])
    return asm.finish(provenance, ColumnRuns(a, u, vp, vm,
                                             np.empty((0, 1), int), (grid,)))


def fix_offsets(model: MilpModel, offsets: Sequence[float]) -> MilpModel:
    """Pin every section offset, reducing the MILP to earthwork allocation:
    the model with one more row per section, FIX_<i>: U_<i> = offset, over
    the offset run of model.runs. replace makes a new model, which lints
    itself."""
    cols = model.runs.offsets
    n = len(cols)
    m = len(model.row_order)
    if len(offsets) != n:
        raise BuildError(f"need {n} offsets, got {len(offsets)}")
    for i, (col, value) in enumerate(zip(cols, offsets), start=1):
        lower, upper = model.col_lower[col].item(), model.col_upper[col].item()
        if not lower - 1e-9 <= value <= upper + 1e-9:
            raise BuildError(f"offset {value} outside bounds [{lower}, "
                             f"{upper}] of section {i}")
    return replace(
        model,
        row_order=model.row_order + tuple(f"FIX_{i}" for i in range(1, n + 1)),
        senses=np.append(model.senses, ["E"] * n),
        row_rhs=np.append(model.row_rhs, offsets),
        row_range=np.append(model.row_range, np.full(n, math.nan)),
        entries=np.append(model.entries, entry_records(
            m + np.arange(n), cols, np.ones(n))),
        provenance=model.provenance + (("fixed_offsets", "yes"),))


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
