"""Tests for MNA stamping of power-grid netlists."""

import numpy as np
import pytest

from repro.errors import StampingError
from repro.grid.netlist import PowerGridNetlist
from repro.grid.stamping import stamp
from repro.waveforms import PiecewiseLinear


class TestManualLadder:
    """The 3-node ladder from conftest has hand-checkable matrices."""

    def test_conductance_matrix_values(self, manual_netlist):
        stamped = stamp(manual_netlist)
        G = stamped.conductance.toarray()
        i1 = manual_netlist.node_index("n1")
        i2 = manual_netlist.node_index("n2")
        i3 = manual_netlist.node_index("n3")
        # pad 0.1 ohm -> 10 S at n1; R12 = 1 ohm; R23 = 2 ohm
        assert G[i1, i1] == pytest.approx(10.0 + 1.0)
        assert G[i2, i2] == pytest.approx(1.0 + 0.5)
        assert G[i3, i3] == pytest.approx(0.5)
        assert G[i1, i2] == pytest.approx(-1.0)
        assert G[i2, i3] == pytest.approx(-0.5)
        assert G[i1, i3] == pytest.approx(0.0)

    def test_conductance_symmetry(self, manual_netlist):
        G = stamp(manual_netlist).conductance.toarray()
        np.testing.assert_allclose(G, G.T)

    def test_capacitance_split_by_gate_flag(self, manual_netlist):
        stamped = stamp(manual_netlist)
        i2 = manual_netlist.node_index("n2")
        i3 = manual_netlist.node_index("n3")
        assert stamped.c_fixed.toarray()[i2, i2] == pytest.approx(1.0e-12)
        assert stamped.c_gate.toarray()[i3, i3] == pytest.approx(2.0e-12)
        assert stamped.capacitance.toarray()[i3, i3] == pytest.approx(2.0e-12)

    def test_pad_current_vector(self, manual_netlist):
        stamped = stamp(manual_netlist)
        i1 = manual_netlist.node_index("n1")
        expected = 1.2 / 0.1
        assert stamped.pad_current[i1] == pytest.approx(expected)
        assert np.count_nonzero(stamped.pad_current) == 1

    def test_rhs_subtracts_drain_currents(self, manual_netlist):
        stamped = stamp(manual_netlist)
        i3 = manual_netlist.node_index("n3")
        rhs = stamped.rhs(0.0)
        assert rhs[i3] == pytest.approx(-(0.01 + 0.001))

    @pytest.mark.parametrize("include_leakage", [True, False])
    def test_drain_current_matrix_matches_vector(self, manual_netlist, include_leakage):
        stamped = stamp(manual_netlist)
        times = [-1e-9, 0.0, 1e-9, 2e-9]
        matrix = stamped.drain_current_matrix(times, include_leakage=include_leakage)
        for row, t in zip(matrix, times):
            # The scalar per-source sum the table evaluator replaces, bit for bit.
            reference = np.zeros(stamped.num_nodes)
            for node, waveform, leak in zip(
                stamped.source_nodes, stamped.source_waveforms, stamped.source_is_leakage
            ):
                if include_leakage or not leak:
                    reference[node] += float(waveform(t))
            vector = stamped.drain_current_vector(t, include_leakage=include_leakage)
            assert row.tobytes() == reference.tobytes() == vector.tobytes()

    def test_leakage_exclusion(self, manual_netlist):
        stamped = stamp(manual_netlist)
        i3 = manual_netlist.node_index("n3")
        with_leak = stamped.drain_current_vector(0.0, include_leakage=True)
        without = stamped.drain_current_vector(0.0, include_leakage=False)
        assert with_leak[i3] - without[i3] == pytest.approx(0.001)

    def test_drop_helper(self, manual_netlist):
        stamped = stamp(manual_netlist)
        drops = stamped.drop(np.full(stamped.num_nodes, 1.1))
        np.testing.assert_allclose(drops, 0.1)

    def test_node_index_lookup(self, manual_netlist):
        stamped = stamp(manual_netlist)
        assert stamped.node_names[stamped.node_index("n2")] == "n2"
        with pytest.raises(StampingError):
            stamped.node_index("nope")


class TestStampedProperties:
    def test_generated_grid_spd(self, small_stamped):
        """The grid conductance matrix must be symmetric positive definite."""
        G = small_stamped.conductance
        asymmetry = abs(G - G.T).max()
        assert asymmetry < 1e-12
        # positive definiteness via Cholesky-like check on a dense copy
        eigenvalues = np.linalg.eigvalsh(G.toarray())
        assert eigenvalues.min() > 0

    def test_capacitance_positive_semidefinite(self, small_stamped):
        C = small_stamped.capacitance
        eigenvalues = np.linalg.eigvalsh(C.toarray())
        assert eigenvalues.min() > -1e-18

    def test_row_sums_nonnegative(self, small_stamped):
        """Diagonal dominance: row sums equal the conductance to ground/pads."""
        G = small_stamped.conductance
        row_sums = np.asarray(G.sum(axis=1)).ravel()
        assert np.all(row_sums >= -1e-12)

    def test_rhs_matrix_shape(self, small_stamped, fast_transient):
        times = fast_transient.times()
        rhs = small_stamped.rhs_matrix(times)
        assert rhs.shape == (times.size, small_stamped.num_nodes)

    def test_pad_nodes_recorded(self, small_stamped):
        assert small_stamped.pad_nodes.size > 0
        assert np.all(small_stamped.pad_current[small_stamped.pad_nodes] > 0)

    def test_validation_runs_by_default(self):
        netlist = PowerGridNetlist()
        netlist.add_resistor("a", "b", 1.0)  # no pads
        with pytest.raises(Exception):
            stamp(netlist)

    def test_time_varying_source_changes_rhs(self):
        netlist = PowerGridNetlist()
        netlist.add_pad("a", 0.1, 1.0)
        netlist.add_resistor("a", "b", 1.0)
        netlist.add_current_source("b", PiecewiseLinear([0.0, 1.0], [0.0, 1.0]))
        stamped = stamp(netlist)
        idx = 1  # node b
        assert stamped.rhs(0.0)[idx] == pytest.approx(0.0)
        assert stamped.rhs(1.0)[idx] == pytest.approx(-1.0)
