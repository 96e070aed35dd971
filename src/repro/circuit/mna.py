"""Descriptor-form modified nodal analysis (MNA), assembled columnar.

Every analysis in the simulator works from one algebraic form::

    G x(t) + C dx(t)/dt = b(t)

where ``x`` stacks the node voltages and the branch currents of the
elements that need one (inductors, voltage sources, VCVS, CCVS).  ``G``
collects the resistive / topological stamps, ``C`` the reactive stamps
(capacitors, inductors, mutual couplings), and ``b`` the independent
sources.  Then:

- DC:        solve ``G x = b(0)``       (inductors short, capacitors open);
- AC:        solve ``(G + j w C) x = b_ac`` per frequency;
- transient: integrate with backward Euler or the trapezoidal rule.

Assembly is *grouped by element class*: one pass over the circuit's
entries gathers each class's node-index and value columns (columnar
stores contribute their arrays wholesale; scalar records are buffered
and flushed in order), then a single vectorized stamp call per class
emits its COO triplets -- there is no Python-level ``add()`` per matrix
entry.  The ``mna_stamp_groups`` profiling counter records how many
vectorized stamp calls one assembly needed (a dense 256-bit PEEC model
is ~33k mutual couplings in *one* group).

The independent sources are additionally summarized as a sparse
*incidence matrix* ``B`` (``size x num_sources``) so the right-hand side
over a whole time axis and a whole scenario batch is one
``B @ stimulus_matrix`` product per scenario
(:meth:`MnaSystem.rhs_transient_batch_multi`), and an AC scenario batch is
one ``B @ amplitude_matrix`` product (:meth:`MnaSystem.rhs_ac_batch`) --
the transient and AC engines then only do back-substitutions.

This grouping is exactly the structural effect the paper exploits:
PEEC's dense mutual-inductance block lands in ``C`` (dense
branch-to-branch coupling), while the VPEC model replaces it with a
resistive block in ``G`` whose sparsified variants keep the
factorization sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.circuit.columns import (
    COLUMN_STORE_TYPES,
    CapacitorColumns,
    CccsColumns,
    CurrentSourceColumns,
    InductorColumns,
    MutualColumns,
    ResistorColumns,
    VccsColumns,
    VcvsColumns,
    VoltageSourceColumns,
)
from repro.circuit.elements import (
    CCCS,
    CCVS,
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Inductor,
    MutualInductance,
    Resistor,
    SusceptanceSet,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.circuit.sources import Stimulus
from repro.pipeline.profiling import add_counter

_INT = np.int64


class _ClassColumns:
    """Ordered column accumulator for one element class.

    Scalar records buffer into Python lists; columnar stores flush the
    buffer and contribute their arrays as whole chunks, so the final
    concatenated columns preserve exact per-class insertion order --
    which makes a columnar-built circuit's matrices bit-identical to the
    same circuit built record by record.
    """

    def __init__(self, dtypes: Tuple[type, ...]) -> None:
        self._dtypes = dtypes
        self._chunks: List[Tuple[np.ndarray, ...]] = []
        self._buffer: List[Tuple] = []

    def scalar(self, *values) -> None:
        self._buffer.append(values)

    def arrays(self, *columns) -> None:
        self._flush()
        self._chunks.append(tuple(np.asarray(c) for c in columns))

    def _flush(self) -> None:
        if not self._buffer:
            return
        columns = tuple(
            np.array([row[k] for row in self._buffer], dtype=dtype)
            for k, dtype in enumerate(self._dtypes)
        )
        self._chunks.append(columns)
        self._buffer = []

    def columns(self) -> Optional[Tuple[np.ndarray, ...]]:
        self._flush()
        if not self._chunks:
            return None
        if len(self._chunks) == 1:
            return self._chunks[0]
        width = len(self._dtypes)
        return tuple(
            np.concatenate([chunk[k] for chunk in self._chunks])
            for k in range(width)
        )


Triplets = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _assemble(chunks: List[Triplets], size: int) -> sparse.csc_matrix:
    """One COO build from all of a matrix's triplet chunks.

    Ground references carry index -1; they are masked out here, once,
    instead of per entry.
    """
    if not chunks:
        return sparse.csc_matrix((size, size))
    rows = np.concatenate([chunk[0] for chunk in chunks])
    cols = np.concatenate([chunk[1] for chunk in chunks])
    vals = np.concatenate([chunk[2] for chunk in chunks])
    keep = (rows >= 0) & (cols >= 0)
    if not np.all(keep):
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return sparse.coo_matrix(
        (vals, (rows, cols)), shape=(size, size)
    ).tocsc()


@dataclass
class MnaSystem:
    """Assembled MNA description of a circuit.

    Attributes
    ----------
    circuit:
        The source netlist.
    num_nodes, size:
        Number of node-voltage unknowns / total unknowns.
    G, C:
        Sparse system matrices of ``G x + C x' = b``.
    branch_index:
        Absolute row of each branch element's current unknown, by element
        name.
    voltage_rows:
        ``(row, stimulus)`` of independent voltage sources.
    current_injections:
        ``(n1, n2, stimulus)`` node indices of independent current sources
        (current flows n1 -> n2; -1 is ground).
    stimuli:
        Every independent source's stimulus, in source-column order
        (voltage sources first, then current sources).
    source_index:
        Source element name -> column in :meth:`source_incidence` /
        :attr:`stimuli` (the handle the multi-scenario RHS builders use).
    """

    circuit: Circuit
    num_nodes: int
    size: int
    G: sparse.csc_matrix
    C: sparse.csc_matrix
    branch_index: Dict[str, int]
    voltage_rows: List[Tuple[int, Stimulus]] = field(default_factory=list)
    current_injections: List[Tuple[int, int, Stimulus]] = field(default_factory=list)
    stimuli: List[Stimulus] = field(default_factory=list)
    source_index: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Unknown lookup
    # ------------------------------------------------------------------
    def node_row(self, node: str) -> int:
        """Row of a node voltage (-1 for ground)."""
        return self.circuit.node_index(node)

    def branch_row(self, element_name: str) -> int:
        """Row of a branch current unknown."""
        try:
            return self.branch_index[element_name]
        except KeyError:
            raise KeyError(
                f"element {element_name!r} has no branch current"
            ) from None

    def voltage_of(self, x: np.ndarray, node: str) -> complex:
        """Extract a node voltage from a solution vector."""
        row = self.node_row(node)
        return 0.0 if row < 0 else x[row]

    # ------------------------------------------------------------------
    # Source incidence
    # ------------------------------------------------------------------
    def source_incidence(self) -> sparse.csc_matrix:
        """Sparse ``B`` with ``b(t) = B @ [stim_k(t)]_k`` (cached).

        Column ``k`` belongs to :attr:`stimuli` ``[k]``: a voltage
        source puts ``+1`` on its branch row; a current source puts
        ``-1`` on its ``n1`` row and ``+1`` on its ``n2`` row (ground
        rows dropped).
        """
        cached = self.__dict__.get("_incidence")
        if cached is not None:
            return cached
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for column, (row, _) in enumerate(self.voltage_rows):
            rows.append(row)
            cols.append(column)
            vals.append(1.0)
        offset = len(self.voltage_rows)
        for column, (n1, n2, _) in enumerate(self.current_injections):
            if n1 >= 0:
                rows.append(n1)
                cols.append(offset + column)
                vals.append(-1.0)
            if n2 >= 0:
                rows.append(n2)
                cols.append(offset + column)
                vals.append(1.0)
        incidence = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(self.size, len(self.stimuli))
        ).tocsc()
        self.__dict__["_incidence"] = incidence
        return incidence

    def stimulus_matrix(self, times: np.ndarray) -> np.ndarray:
        """``(num_sources, num_times)`` transient source values.

        Each row is one :meth:`Stimulus.over` call: array math for the
        factory stimuli, per-sample ``at`` calls only for custom
        callables.
        """
        times = np.asarray(times, dtype=float)
        values = np.empty((len(self.stimuli), len(times)))
        for row, stim in enumerate(self.stimuli):
            values[row] = stim.over(times)
        return values

    def quiescent_samples(
        self,
        times: np.ndarray,
        scenarios: Sequence[Mapping[str, Stimulus]],
    ) -> int:
        """Leading samples of ``times`` at which no source is nonzero.

        Counts the samples, from the first, at which every source of
        every scenario (base stimuli with each scenario's overrides
        applied) is exactly ``0.0``; ``len(times)`` when all of them
        are.  The transient engine skips integrating that silent prefix.
        """
        times = np.asarray(times, dtype=float)
        base = _first_nonzero(self.stimulus_matrix(times))
        quiet = len(times)
        for overrides in scenarios:
            kept = np.ones(len(self.stimuli), dtype=bool)
            for name, stim in overrides.items():
                row = self._source_column(name)
                kept[row] = False
                quiet = min(quiet, int(_first_nonzero(stim.over(times)[None])[0]))
            quiet = min(quiet, int(base[kept].min(initial=len(times))))
        return quiet

    def _source_column(self, name: str) -> int:
        try:
            return self.source_index[name]
        except KeyError:
            raise KeyError(
                f"{name!r} is not an independent source of this circuit"
            ) from None

    # ------------------------------------------------------------------
    # Right-hand sides
    # ------------------------------------------------------------------
    def rhs_transient(self, t: float) -> np.ndarray:
        """Source vector ``b(t)`` for transient / DC analysis."""
        b = np.zeros(self.size)
        for row, stim in self.voltage_rows:
            b[row] = stim.at(t)
        for n1, n2, stim in self.current_injections:
            value = stim.at(t)
            if n1 >= 0:
                b[n1] -= value
            if n2 >= 0:
                b[n2] += value
        return b

    def rhs_transient_batch_multi(
        self,
        times: np.ndarray,
        scenarios: Sequence[Mapping[str, Stimulus]],
    ) -> np.ndarray:
        """``(num_times, size, num_scenarios)`` source block, shared base.

        The base trajectory is evaluated *once*; each scenario copies it
        and re-evaluates only its overridden rows, which is
        bit-identical to a full per-scenario evaluation because the
        same :meth:`Stimulus.over` calls produce the replaced rows.

        The time axis leads so that ``out[n]`` -- the ``(size,
        num_scenarios)`` slice the integrator reads every step -- is
        one contiguous block; with the time axis in the middle every
        per-step read strides across the whole array and thrashes the
        cache once the batch outgrows it.  Pass only the samples the
        integrator will read: the block is the largest array of a
        transient run.
        """
        times = np.asarray(times, dtype=float)
        base = self.stimulus_matrix(times)
        incidence = self.source_incidence()
        out = np.empty((len(times), self.size, len(scenarios)))
        for k, overrides in enumerate(scenarios):
            if overrides:
                values = base.copy()
                for name, stim in overrides.items():
                    values[self._source_column(name)] = stim.over(times)
                out[:, :, k] = (incidence @ values).T
            else:
                out[:, :, k] = (incidence @ base).T
        return out

    def rhs_dc(self) -> np.ndarray:
        """Source vector at the DC operating point (t = 0 values)."""
        return self.rhs_transient(0.0)

    def rhs_ac(self) -> np.ndarray:
        """Complex AC source vector."""
        b = np.zeros(self.size, dtype=complex)
        for row, stim in self.voltage_rows:
            b[row] = stim.ac
        for n1, n2, stim in self.current_injections:
            value = stim.ac
            if n1 >= 0:
                b[n1] -= value
            if n2 >= 0:
                b[n2] += value
        return b

    def rhs_ac_batch(
        self,
        scenarios: Sequence[Mapping[str, complex]],
    ) -> np.ndarray:
        """``(size, num_scenarios)`` complex AC source matrix.

        Each scenario maps independent-source names to AC phasors;
        unnamed sources keep their own ``Stimulus.ac``.  An empty
        mapping reproduces :meth:`rhs_ac` exactly -- scenario ``k`` is
        column ``k``.
        """
        count = len(self.stimuli)
        amplitudes = np.empty((count, len(scenarios)), dtype=complex)
        base = np.array([stim.ac for stim in self.stimuli], dtype=complex)
        for k, overrides in enumerate(scenarios):
            column = base.copy()
            for name, phasor in overrides.items():
                column[self._source_column(name)] = phasor
            amplitudes[:, k] = column
        return np.asarray(self.source_incidence() @ amplitudes)


def _first_nonzero(values: np.ndarray) -> np.ndarray:
    """Per row, the index of the first entry that is not ``0.0``.

    Rows with none give the row length; NaN counts as nonzero.
    """
    active = values != 0.0
    return np.where(active.any(axis=1), active.argmax(axis=1), values.shape[1])


def build_mna(circuit: Circuit) -> MnaSystem:
    """Assemble the descriptor-form MNA matrices of a circuit.

    One entry walk assigns branch rows and gathers per-class columns;
    one vectorized stamp call per element class (plus one per
    susceptance set) emits the COO triplets; two COO builds produce
    ``G`` and ``C``.
    """
    num_nodes = circuit.num_nodes
    branch_index: Dict[str, int] = {}
    next_row = num_nodes
    store_rows: Dict[int, np.ndarray] = {}
    for entry in circuit.entries():
        if isinstance(entry, (InductorColumns, VoltageSourceColumns, VcvsColumns)):
            count = len(entry)
            rows = np.arange(next_row, next_row + count, dtype=_INT)
            store_rows[id(entry)] = rows
            branch_index.update(zip(entry.names, rows.tolist()))
            next_row += count
        elif isinstance(entry, (Inductor, VoltageSource, VCVS, CCVS)):
            branch_index[entry.name] = next_row
            next_row += 1
        elif isinstance(entry, SusceptanceSet):
            first = next_row
            for k in range(len(entry.branches)):
                branch_index[entry.branch_name(k)] = next_row
                next_row += 1
            store_rows[id(entry)] = np.arange(first, next_row, dtype=_INT)
    size = next_row

    idx = circuit.node_index
    g_chunks: List[Triplets] = []
    c_chunks: List[Triplets] = []
    voltage_rows: List[Tuple[int, Stimulus]] = []
    current_injections: List[Tuple[int, int, Stimulus]] = []
    source_names: List[str] = []
    current_names: List[str] = []
    current_stimuli: List[Stimulus] = []

    pair = (_INT, _INT, float)
    acc = {
        Resistor: _ClassColumns(pair),
        Capacitor: _ClassColumns(pair),
        Inductor: _ClassColumns((_INT, _INT, _INT, float)),
        MutualInductance: _ClassColumns((_INT, _INT, float)),
        VoltageSource: _ClassColumns((_INT, _INT, _INT)),
        VCVS: _ClassColumns((_INT, _INT, _INT, _INT, _INT, float)),
        VCCS: _ClassColumns((_INT, _INT, _INT, _INT, float)),
        CCCS: _ClassColumns((_INT, _INT, _INT, float)),
        CCVS: _ClassColumns((_INT, _INT, _INT, _INT, float)),
    }
    susceptance_sets: List[Tuple[SusceptanceSet, np.ndarray]] = []

    for entry in circuit.entries():
        if isinstance(entry, ResistorColumns):
            acc[Resistor].arrays(entry.n1_index, entry.n2_index, entry.value)
        elif isinstance(entry, CapacitorColumns):
            acc[Capacitor].arrays(entry.n1_index, entry.n2_index, entry.value)
        elif isinstance(entry, InductorColumns):
            acc[Inductor].arrays(
                entry.n1_index,
                entry.n2_index,
                store_rows[id(entry)],
                entry.value,
            )
        elif isinstance(entry, MutualColumns):
            if entry.ref_store is not None:
                # Positional refs: branch rows come straight from the
                # referenced inductor store's row range.
                base_rows = store_rows[id(entry.ref_store)]
                rows1 = base_rows[entry.pos1]
                rows2 = base_rows[entry.pos2]
            else:
                # map(dict.__getitem__, ...) stays in C for by-name
                # gathers over large coupling stores.
                lookup = branch_index.__getitem__
                rows1 = np.array(
                    list(map(lookup, entry.inductor1)), dtype=_INT
                )
                rows2 = np.array(
                    list(map(lookup, entry.inductor2)), dtype=_INT
                )
            acc[MutualInductance].arrays(rows1, rows2, entry.value)
        elif isinstance(entry, VoltageSourceColumns):
            rows = store_rows[id(entry)]
            acc[VoltageSource].arrays(entry.n1_index, entry.n2_index, rows)
            voltage_rows.extend(zip(rows.tolist(), entry.stimuli))
            source_names.extend(entry.names)
        elif isinstance(entry, CurrentSourceColumns):
            current_injections.extend(
                zip(
                    entry.n1_index.tolist(),
                    entry.n2_index.tolist(),
                    entry.stimuli,
                )
            )
            current_names.extend(entry.names)
            current_stimuli.extend(entry.stimuli)
        elif isinstance(entry, VcvsColumns):
            acc[VCVS].arrays(
                entry.n1_index,
                entry.n2_index,
                entry.nc1_index,
                entry.nc2_index,
                store_rows[id(entry)],
                entry.gain,
            )
        elif isinstance(entry, VccsColumns):
            acc[VCCS].arrays(
                entry.n1_index,
                entry.n2_index,
                entry.nc1_index,
                entry.nc2_index,
                entry.gain,
            )
        elif isinstance(entry, CccsColumns):
            controls = np.fromiter(
                (branch_index[name] for name in entry.control),
                dtype=_INT,
                count=len(entry),
            )
            acc[CCCS].arrays(entry.n1_index, entry.n2_index, controls, entry.gain)
        elif isinstance(entry, Resistor):
            acc[Resistor].scalar(idx(entry.n1), idx(entry.n2), entry.value)
        elif isinstance(entry, Capacitor):
            acc[Capacitor].scalar(idx(entry.n1), idx(entry.n2), entry.value)
        elif isinstance(entry, Inductor):
            acc[Inductor].scalar(
                idx(entry.n1), idx(entry.n2), branch_index[entry.name], entry.value
            )
        elif isinstance(entry, MutualInductance):
            acc[MutualInductance].scalar(
                branch_index[entry.inductor1],
                branch_index[entry.inductor2],
                entry.value,
            )
        elif isinstance(entry, VoltageSource):
            row = branch_index[entry.name]
            acc[VoltageSource].scalar(idx(entry.n1), idx(entry.n2), row)
            voltage_rows.append((row, entry.stimulus))
            source_names.append(entry.name)
        elif isinstance(entry, CurrentSource):
            current_injections.append(
                (idx(entry.n1), idx(entry.n2), entry.stimulus)
            )
            current_names.append(entry.name)
            current_stimuli.append(entry.stimulus)
        elif isinstance(entry, VCVS):
            acc[VCVS].scalar(
                idx(entry.n1),
                idx(entry.n2),
                idx(entry.nc1),
                idx(entry.nc2),
                branch_index[entry.name],
                entry.gain,
            )
        elif isinstance(entry, VCCS):
            acc[VCCS].scalar(
                idx(entry.n1),
                idx(entry.n2),
                idx(entry.nc1),
                idx(entry.nc2),
                entry.gain,
            )
        elif isinstance(entry, CCCS):
            acc[CCCS].scalar(
                idx(entry.n1),
                idx(entry.n2),
                branch_index[entry.control],
                entry.gain,
            )
        elif isinstance(entry, CCVS):
            acc[CCVS].scalar(
                idx(entry.n1),
                idx(entry.n2),
                branch_index[entry.name],
                branch_index[entry.control],
                entry.gain,
            )
        elif isinstance(entry, SusceptanceSet):
            susceptance_sets.append((entry, store_rows[id(entry)]))
        else:  # pragma: no cover - the element union is closed
            raise TypeError(f"unknown element type {type(entry).__name__}")

    groups = 0
    for kind, accumulator in acc.items():
        columns = accumulator.columns()
        if columns is None:
            continue
        _STAMPS[kind](columns, g_chunks, c_chunks)
        groups += 1
    for element, rows in susceptance_sets:
        _stamp_susceptance_set(element, rows, idx, g_chunks, c_chunks)
        groups += 1
    add_counter("mna_stamp_groups", groups)

    return MnaSystem(
        circuit=circuit,
        num_nodes=num_nodes,
        size=size,
        G=_assemble(g_chunks, size),
        C=_assemble(c_chunks, size),
        branch_index=branch_index,
        voltage_rows=voltage_rows,
        current_injections=current_injections,
        stimuli=[stim for _, stim in voltage_rows] + current_stimuli,
        source_index={
            name: column
            for column, name in enumerate(source_names + current_names)
        },
    )


# ----------------------------------------------------------------------
# Per-class vectorized stamps
# ----------------------------------------------------------------------
def _stamp_resistors(columns, g_chunks, c_chunks) -> None:
    n1, n2, value = columns
    g = 1.0 / value
    g_chunks.append(
        (
            np.concatenate([n1, n2, n1, n2]),
            np.concatenate([n1, n2, n2, n1]),
            np.concatenate([g, g, -g, -g]),
        )
    )


def _stamp_capacitors(columns, g_chunks, c_chunks) -> None:
    n1, n2, value = columns
    c_chunks.append(
        (
            np.concatenate([n1, n2, n1, n2]),
            np.concatenate([n1, n2, n2, n1]),
            np.concatenate([value, value, -value, -value]),
        )
    )


def _branch_voltage_pattern(n1, n2, rows) -> Triplets:
    """KCL + branch-voltage rows shared by L / V / VCVS / CCVS."""
    ones = np.ones(n1.size)
    return (
        np.concatenate([n1, n2, rows, rows]),
        np.concatenate([rows, rows, n1, n2]),
        np.concatenate([ones, -ones, ones, -ones]),
    )


def _stamp_inductors(columns, g_chunks, c_chunks) -> None:
    n1, n2, rows, value = columns
    g_chunks.append(_branch_voltage_pattern(n1, n2, rows))
    c_chunks.append((rows, rows, -value))


def _stamp_mutuals(columns, g_chunks, c_chunks) -> None:
    rows1, rows2, value = columns
    c_chunks.append(
        (
            np.concatenate([rows1, rows2]),
            np.concatenate([rows2, rows1]),
            np.concatenate([-value, -value]),
        )
    )


def _stamp_voltage_sources(columns, g_chunks, c_chunks) -> None:
    n1, n2, rows = columns
    g_chunks.append(_branch_voltage_pattern(n1, n2, rows))


def _stamp_vcvs(columns, g_chunks, c_chunks) -> None:
    n1, n2, nc1, nc2, rows, gain = columns
    g_chunks.append(_branch_voltage_pattern(n1, n2, rows))
    g_chunks.append(
        (
            np.concatenate([rows, rows]),
            np.concatenate([nc1, nc2]),
            np.concatenate([-gain, gain]),
        )
    )


def _stamp_vccs(columns, g_chunks, c_chunks) -> None:
    n1, n2, nc1, nc2, gain = columns
    g_chunks.append(
        (
            np.concatenate([n1, n1, n2, n2]),
            np.concatenate([nc1, nc2, nc1, nc2]),
            np.concatenate([gain, -gain, -gain, gain]),
        )
    )


def _stamp_cccs(columns, g_chunks, c_chunks) -> None:
    n1, n2, ctrl, gain = columns
    g_chunks.append(
        (
            np.concatenate([n1, n2]),
            np.concatenate([ctrl, ctrl]),
            np.concatenate([gain, -gain]),
        )
    )


def _stamp_ccvs(columns, g_chunks, c_chunks) -> None:
    n1, n2, rows, ctrl, gain = columns
    g_chunks.append(_branch_voltage_pattern(n1, n2, rows))
    g_chunks.append((rows, ctrl, -gain))


_STAMPS = {
    Resistor: _stamp_resistors,
    Capacitor: _stamp_capacitors,
    Inductor: _stamp_inductors,
    MutualInductance: _stamp_mutuals,
    VoltageSource: _stamp_voltage_sources,
    VCVS: _stamp_vcvs,
    VCCS: _stamp_vccs,
    CCCS: _stamp_cccs,
    CCVS: _stamp_ccvs,
}


def _stamp_susceptance_set(
    element: SusceptanceSet,
    rows: np.ndarray,
    idx,
    g_chunks: List[Triplets],
    c_chunks: List[Triplets],
) -> None:
    """Stamp a K-element branch set, fully vectorized.

    Branch ``m``: KCL contributions like an inductor, plus the row
    ``sum_n K[m, n] (v1_n - v2_n) - d i_m / d t = 0`` -- i.e. the K
    entries land in ``G`` (resistive-like sparsity) and only ``-1``
    lands in ``C``, which is the formulation's entire selling point.
    """
    count = len(element.branches)
    n1 = np.fromiter((idx(a) for a, _ in element.branches), dtype=_INT, count=count)
    n2 = np.fromiter((idx(b) for _, b in element.branches), dtype=_INT, count=count)
    ones = np.ones(count)
    g_chunks.append(
        (
            np.concatenate([n1, n2]),
            np.concatenate([rows, rows]),
            np.concatenate([ones, -ones]),
        )
    )
    c_chunks.append((rows, rows, -ones))

    k_matrix = element.k_matrix
    if sparse.issparse(k_matrix):
        coo = k_matrix.tocoo()
        m, n, data = coo.row, coo.col, np.asarray(coo.data, dtype=float)
    else:
        dense = np.asarray(k_matrix, dtype=float)
        m, n = np.nonzero(dense)
        data = dense[m, n]
    g_chunks.append(
        (
            np.concatenate([rows[m], rows[m]]),
            np.concatenate([n1[n], n2[n]]),
            np.concatenate([data, -data]),
        )
    )


__all__ = ["MnaSystem", "build_mna"]
