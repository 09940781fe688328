"""Modified nodal analysis (MNA) matrix assembly for power-grid netlists.

The stamper turns a :class:`~repro.grid.netlist.PowerGridNetlist` into the
sparse matrices of the MNA equation of the paper (Eq. (1)):

``(G + sC) x(s) = U(s)``  with  ``U(s) = G1 * VDD - i(s)``

where ``x`` are the node voltages, ``G1 * VDD`` is the contribution of the
VDD pads (ideal supply through a series resistance) and ``i(s)`` are the
functional-block drain currents.

Because the process-variation model needs to perturb different element groups
differently (interconnect conductance follows W/T, gate-load capacitance
follows Leff, the package resistance is off-die), the stamper keeps the
groups separate:

* ``g_wire``    -- conductance of wires and vias,
* ``g_package`` -- conductance of the pad series resistances,
* ``c_gate``    -- MOS gate-load capacitance,
* ``c_fixed``   -- wire + diffusion capacitance.

The full nominal matrices are simply the sums of the group matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..errors import StampingError
from ..waveforms import Waveform, WaveformTable
from .netlist import PowerGridNetlist

__all__ = ["StampedSystem", "stamp"]


def _two_terminal_stamp(rows, cols, vals, i: Optional[int], j: Optional[int], value: float):
    """Append the 2x2 conductance/capacitance stamp for a branch value."""
    if i is not None:
        rows.append(i)
        cols.append(i)
        vals.append(value)
    if j is not None:
        rows.append(j)
        cols.append(j)
        vals.append(value)
    if i is not None and j is not None:
        rows.append(i)
        cols.append(j)
        vals.append(-value)
        rows.append(j)
        cols.append(i)
        vals.append(-value)


def _incidence(source_nodes: np.ndarray, num_nodes: int, keep: np.ndarray) -> sp.csr_matrix:
    """Node-by-source 0/1 matrix of the ``keep`` sources, columns sorted per row.

    A CSR product then adds each node's sources in source order, starting
    from zero -- the same sums as a per-source accumulation loop.
    """
    sources = np.flatnonzero(keep)
    matrix = sp.csr_matrix(
        (np.ones(sources.size), (source_nodes[sources], sources)),
        shape=(num_nodes, source_nodes.size),
    )
    matrix.sort_indices()
    return matrix


@dataclass
class StampedSystem:
    """Sparse MNA matrices and excitation data for a power grid.

    All matrices are ``n x n`` CSR matrices over the non-ground nodes, indexed
    consistently with ``node_names``.
    """

    node_names: Tuple[str, ...]
    vdd: float
    g_wire: sp.csr_matrix
    g_package: sp.csr_matrix
    c_gate: sp.csr_matrix
    c_fixed: sp.csr_matrix
    pad_current: np.ndarray
    source_nodes: np.ndarray
    source_waveforms: Tuple[Waveform, ...]
    source_is_leakage: np.ndarray
    pad_nodes: np.ndarray

    def __post_init__(self):
        # The excitation's source table, built once: the waveforms grouped
        # by class for vectorised evaluation, plus the node-by-source
        # incidence matrices that scatter the values to nodes (one for all
        # sources, one without the leakage sources).
        self.source_table = WaveformTable(self.source_waveforms)
        nodes = np.asarray(self.source_nodes, dtype=int)
        leakage = np.asarray(self.source_is_leakage, dtype=bool)
        self._incidence = {
            True: _incidence(nodes, self.num_nodes, np.ones_like(leakage)),
            False: _incidence(nodes, self.num_nodes, ~leakage),
        }

    # ------------------------------------------------------------ properties
    @property
    def num_nodes(self) -> int:
        return len(self.node_names)

    @property
    def conductance(self) -> sp.csr_matrix:
        """Nominal conductance matrix ``G = G_wire + G_package``."""
        return (self.g_wire + self.g_package).tocsr()

    @property
    def capacitance(self) -> sp.csr_matrix:
        """Nominal capacitance matrix ``C = C_gate + C_fixed``."""
        return (self.c_gate + self.c_fixed).tocsr()

    # ------------------------------------------------------------ excitation
    def drain_current_matrix(
        self, times: Sequence[float], include_leakage: bool = True
    ) -> np.ndarray:
        """Drain currents for all ``times`` at once; shape ``(n_times, n_nodes)``.

        The single evaluator from waveforms to node currents: the source
        table evaluates every waveform over ``times`` and an incidence
        product sums them per node in source order, so each entry equals the
        scalar sum ``sum(float(w(t)))`` over the node's sources bit for bit.
        """
        values = self.source_table(times)
        return np.ascontiguousarray((self._incidence[bool(include_leakage)] @ values).T)

    def drain_current_vector(self, t: float, include_leakage: bool = True) -> np.ndarray:
        """Total drain current drawn at each node at time ``t`` (amps, >= 0).

        The one-row view of :meth:`drain_current_matrix`.
        """
        return self.drain_current_matrix([t], include_leakage=include_leakage)[0]

    def rhs(self, t: float) -> np.ndarray:
        """MNA right-hand side ``U(t) = G1*VDD - i(t)`` at time ``t``."""
        return self.pad_current - self.drain_current_vector(t)

    def rhs_matrix(self, times: Sequence[float]) -> np.ndarray:
        """Right-hand sides for all ``times``; shape ``(n_times, n_nodes)``."""
        return self.pad_current[None, :] - self.drain_current_matrix(times)

    # ---------------------------------------------------------------- helpers
    def node_index(self, name: str) -> int:
        try:
            return self.node_names.index(name)
        except ValueError:
            raise StampingError(f"unknown node {name!r}") from None

    def drop(self, voltages: np.ndarray) -> np.ndarray:
        """Convert node voltages to voltage drops ``VDD - V``."""
        return self.vdd - np.asarray(voltages)


def stamp(netlist: PowerGridNetlist, validate: bool = True) -> StampedSystem:
    """Assemble the sparse MNA matrices for ``netlist``.

    Parameters
    ----------
    netlist:
        The power-grid netlist to stamp.
    validate:
        If true (default), run :meth:`PowerGridNetlist.validate` first so that
        singular systems are rejected with a clear message.
    """
    if validate:
        netlist.validate()

    n = netlist.num_nodes
    vdd = netlist.vdd

    def idx(node: str) -> Optional[int]:
        return None if netlist.is_ground(node) else netlist.node_index(node)

    # --- conductances -------------------------------------------------------
    wire_rows: List[int] = []
    wire_cols: List[int] = []
    wire_vals: List[float] = []
    for r in netlist.resistors:
        _two_terminal_stamp(wire_rows, wire_cols, wire_vals, idx(r.a), idx(r.b), r.conductance)
    g_wire = sp.coo_matrix((wire_vals, (wire_rows, wire_cols)), shape=(n, n)).tocsr()

    pad_rows: List[int] = []
    pad_cols: List[int] = []
    pad_vals: List[float] = []
    pad_current = np.zeros(n)
    pad_nodes: List[int] = []
    for pad in netlist.pads:
        i = netlist.node_index(pad.node)
        pad_rows.append(i)
        pad_cols.append(i)
        pad_vals.append(pad.conductance)
        pad_current[i] += pad.conductance * pad.vdd
        pad_nodes.append(i)
    g_package = sp.coo_matrix((pad_vals, (pad_rows, pad_cols)), shape=(n, n)).tocsr()

    # --- capacitances -------------------------------------------------------
    gate_rows: List[int] = []
    gate_cols: List[int] = []
    gate_vals: List[float] = []
    fixed_rows: List[int] = []
    fixed_cols: List[int] = []
    fixed_vals: List[float] = []
    for c in netlist.capacitors:
        if c.is_gate_load:
            _two_terminal_stamp(gate_rows, gate_cols, gate_vals, idx(c.a), idx(c.b), c.capacitance)
        else:
            _two_terminal_stamp(
                fixed_rows, fixed_cols, fixed_vals, idx(c.a), idx(c.b), c.capacitance
            )
    c_gate = sp.coo_matrix((gate_vals, (gate_rows, gate_cols)), shape=(n, n)).tocsr()
    c_fixed = sp.coo_matrix((fixed_vals, (fixed_rows, fixed_cols)), shape=(n, n)).tocsr()

    # --- current sources ----------------------------------------------------
    source_nodes = np.array(
        [netlist.node_index(s.node) for s in netlist.current_sources], dtype=int
    )
    source_waveforms = tuple(s.waveform for s in netlist.current_sources)
    source_is_leakage = np.array([s.is_leakage for s in netlist.current_sources], dtype=bool)

    return StampedSystem(
        node_names=tuple(netlist.node_names),
        vdd=vdd,
        g_wire=g_wire,
        g_package=g_package,
        c_gate=c_gate,
        c_fixed=c_fixed,
        pad_current=pad_current,
        source_nodes=source_nodes,
        source_waveforms=source_waveforms,
        source_is_leakage=source_is_leakage,
        pad_nodes=np.array(sorted(set(pad_nodes)), dtype=int),
    )
