"""Tests for DC analysis, transient integration and result containers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.grid.netlist import PowerGridNetlist
from repro.grid.stamping import stamp
from repro.sim.dc import dc_operating_point, solve_dc
from repro.sim.mna import MNASystem
from repro.sim.results import DCResult, TransientResult
from repro.sim.transient import TransientConfig, run_transient, transient_analysis
from repro.waveforms import PeriodicPulse


@pytest.fixture(scope="module")
def rc_circuit():
    """Single-pole RC circuit with an analytic step response.

    Pad (Rs = 1 ohm, VDD = 1 V) -> node with C = 1 F to ground and a constant
    1 A drain switched on at t = 0: v(t) = v_inf + (v_0 - v_inf) exp(-t/RC).
    """
    netlist = PowerGridNetlist("rc")
    netlist.add_pad("n1", resistance=1.0, vdd=1.0)
    netlist.add_capacitor("n1", "0", 1.0)
    netlist.add_current_source("n1", 0.5)
    return stamp(netlist)


class TestDC:
    def test_manual_ladder_dc_drop(self, manual_netlist):
        """DC voltages of the hand-built ladder match nodal analysis by hand."""
        stamped = stamp(manual_netlist)
        result = dc_operating_point(stamped)
        i1 = manual_netlist.node_index("n1")
        i3 = manual_netlist.node_index("n3")
        total_current = 0.011
        # All the current flows through the pad and both series resistors.
        assert result.drops[i1] == pytest.approx(total_current * 0.1, rel=1e-9)
        assert result.drops[i3] == pytest.approx(total_current * (0.1 + 1.0 + 2.0), rel=1e-9)

    def test_worst_node_is_furthest_from_pad(self, manual_netlist):
        stamped = stamp(manual_netlist)
        result = dc_operating_point(stamped)
        assert result.worst_node() == manual_netlist.node_index("n3")

    def test_no_current_means_no_drop(self):
        netlist = PowerGridNetlist()
        netlist.add_pad("a", 0.1, 1.2)
        netlist.add_resistor("a", "b", 1.0)
        result = dc_operating_point(stamp(netlist))
        np.testing.assert_allclose(result.voltages, 1.2, atol=1e-12)

    def test_solve_dc_with_cg(self, small_stamped):
        direct = solve_dc(small_stamped.conductance, small_stamped.rhs(0.0))
        iterative = solve_dc(small_stamped.conductance, small_stamped.rhs(0.0), solver="cg")
        np.testing.assert_allclose(direct, iterative, rtol=1e-6, atol=1e-9)

    def test_solve_dc_with_mean_block_cg(self, small_stamped):
        # A plain MNA matrix is one block: DC needs no block size from the caller.
        direct = solve_dc(small_stamped.conductance, small_stamped.rhs(0.0))
        blocked = solve_dc(
            small_stamped.conductance, small_stamped.rhs(0.0), solver="mean-block-cg"
        )
        np.testing.assert_allclose(blocked, direct, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("engine", ["deterministic", "montecarlo"])
    def test_dc_engines_accept_mean_block_cg(self, engine):
        from repro.api import Analysis

        options = {"samples": 4, "seed": 3} if engine == "montecarlo" else {}
        session = Analysis.from_spec(120, seed=5)
        blocked = session.run(engine, mode="dc", solver="mean-block-cg", **options)
        direct = session.run(engine, mode="dc", solver="direct", **options)
        np.testing.assert_allclose(blocked.mean(), direct.mean(), rtol=0.0, atol=1e-12)

    def test_dcresult_drops(self):
        result = DCResult(voltages=np.array([1.0, 0.9]), vdd=1.2)
        np.testing.assert_allclose(result.drops, [0.2, 0.3])
        assert result.worst_drop == pytest.approx(0.3)


class TestTransientConfig:
    def test_num_steps_rounding(self):
        config = TransientConfig(t_stop=1.0e-9, dt=0.3e-9)
        assert config.num_steps == 3

    def test_times_include_endpoints(self):
        config = TransientConfig(t_stop=1.0e-9, dt=0.25e-9)
        times = config.times()
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1.0e-9)
        assert times.size == config.num_steps + 1

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            TransientConfig(t_stop=1.0, dt=0.0)
        with pytest.raises(ValueError):
            TransientConfig(t_stop=0.0, dt=0.1, t_start=1.0)
        with pytest.raises(ValueError):
            TransientConfig(t_stop=1.0, dt=0.1, method="magic")


class TestTransientAccuracy:
    def test_rc_step_response_backward_euler(self, rc_circuit):
        """Backward Euler converges to the analytic single-pole response."""
        config = TransientConfig(t_stop=5.0, dt=0.01)
        result = transient_analysis(rc_circuit, config)
        # v(t) = 0.5 + 0.5 exp(-t)  (R = 1, C = 1, v_inf = 0.5, v_0 = 1... )
        # Initial condition is the DC solution with the drain on: v_0 = 0.5,
        # so the waveform should remain at 0.5 for all times.
        np.testing.assert_allclose(result.voltages[:, 0], 0.5, atol=1e-9)

    def test_rc_transient_follows_exponential(self):
        """Start from a DC point, then switch the load: exponential settling."""
        netlist = PowerGridNetlist("rc-switch")
        netlist.add_pad("n1", resistance=1.0, vdd=1.0)
        netlist.add_capacitor("n1", "0", 1.0)
        netlist.add_current_source(
            "n1",
            PeriodicPulse(
                low=0.0, high=0.5, delay=0.002, rise=0.0, fall=0.0, width=50.0, period=100.0
            ),
        )
        stamped = stamp(netlist)
        config = TransientConfig(t_stop=5.0, dt=0.002, method="trapezoidal")
        result = transient_analysis(stamped, config)
        t = result.times
        expected = 0.5 + 0.5 * np.exp(-np.maximum(t - 0.002, 0.0))
        # exclude the first instants where the pulse edge is being resolved
        np.testing.assert_allclose(result.voltages[5:, 0], expected[5:], atol=5e-3)

    def test_trapezoidal_more_accurate_than_backward_euler(self):
        netlist = PowerGridNetlist("rc-accuracy")
        netlist.add_pad("n1", resistance=1.0, vdd=1.0)
        netlist.add_capacitor("n1", "0", 1.0)
        netlist.add_current_source(
            "n1",
            PeriodicPulse(
                low=0.0, high=0.5, delay=0.05, rise=0.0, fall=0.0, width=50.0, period=100.0
            ),
        )
        stamped = stamp(netlist)
        dt = 0.05
        t_stop = 3.0
        exact = lambda t: 0.5 + 0.5 * np.exp(-np.maximum(t - 0.05, 0.0))
        be = transient_analysis(stamped, TransientConfig(t_stop=t_stop, dt=dt))
        trap = transient_analysis(
            stamped, TransientConfig(t_stop=t_stop, dt=dt, method="trapezoidal")
        )
        be_error = np.max(np.abs(be.voltages[5:, 0] - exact(be.times[5:])))
        trap_error = np.max(np.abs(trap.voltages[5:, 0] - exact(trap.times[5:])))
        assert trap_error < be_error

    def test_steady_state_reached_with_constant_load(self, manual_netlist):
        stamped = stamp(manual_netlist)
        config = TransientConfig(t_stop=100e-12, dt=1e-12)
        result = transient_analysis(stamped, config)
        dc = dc_operating_point(stamped)
        np.testing.assert_allclose(result.voltages[-1], dc.voltages, rtol=1e-6)

    def test_grid_transient_drops_bounded(self, small_stamped, fast_transient):
        result = transient_analysis(small_stamped, fast_transient)
        assert result.worst_drop() < 0.10 * small_stamped.vdd
        assert np.all(result.drops >= -1e-9)


class TestTransientMechanics:
    def test_callback_called_per_step(self, small_stamped, fast_transient):
        seen = []
        transient_analysis(small_stamped, fast_transient, callback=lambda k, t, x: seen.append(k))
        assert seen == list(range(fast_transient.num_steps + 1))

    def test_streaming_mode_stores_nothing(self, small_stamped, fast_transient):
        result = transient_analysis(small_stamped, fast_transient, store=False)
        assert result.voltages is None
        with pytest.raises(ValueError):
            _ = result.drops

    def test_explicit_initial_condition(self, rc_circuit):
        config = TransientConfig(t_stop=1.0, dt=0.5)
        x0 = np.array([0.9])
        result = run_transient(
            rc_circuit.conductance,
            rc_circuit.capacitance,
            rc_circuit.rhs,
            config,
            x0=x0,
            vdd=1.0,
        )
        assert result.voltages[0, 0] == pytest.approx(0.9)

    def test_wrong_initial_condition_shape_rejected(self, rc_circuit):
        config = TransientConfig(t_stop=1.0, dt=0.5)
        with pytest.raises(SolverError):
            run_transient(
                rc_circuit.conductance,
                rc_circuit.capacitance,
                rc_circuit.rhs,
                config,
                x0=np.zeros(3),
            )

    def test_mismatched_matrix_shapes_rejected(self):
        G = sp.identity(3, format="csr")
        C = sp.identity(4, format="csr")
        with pytest.raises(SolverError):
            run_transient(G, C, lambda t: np.zeros(3), TransientConfig(t_stop=1.0, dt=0.5))


class TestTransientResult:
    def make(self):
        times = np.linspace(0, 1e-9, 6)
        voltages = np.linspace(1.2, 1.0, 6)[:, None] * np.ones((1, 3))
        voltages[:, 2] -= 0.05
        return TransientResult(times, voltages, vdd=1.2)

    def test_shapes(self):
        result = self.make()
        assert result.num_steps == 5
        assert result.num_nodes == 3

    def test_peak_drop_per_node(self):
        result = self.make()
        peaks = result.peak_drop_per_node()
        assert peaks.shape == (3,)
        assert peaks[2] == pytest.approx(0.25)

    def test_worst_node_and_time(self):
        result = self.make()
        assert result.worst_node() == 2
        assert result.time_of_peak_drop(2) == pytest.approx(1e-9)

    def test_at_time_interpolates(self):
        result = self.make()
        mid = result.at_time(0.5e-9)
        assert mid.shape == (3,)
        assert mid[0] == pytest.approx(1.1)

    def test_node_series(self):
        result = self.make()
        assert result.node_series(1).shape == (6,)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TransientResult(np.linspace(0, 1, 3), np.zeros((4, 2)), vdd=1.0)


class TestMNASystem:
    def test_from_netlist_matches_stamped(self, manual_netlist):
        system = MNASystem.from_netlist(manual_netlist)
        stamped = stamp(manual_netlist)
        np.testing.assert_allclose(system.conductance.toarray(), stamped.conductance.toarray())
        assert system.vdd == stamped.vdd

    def test_dc_and_transient_consistent(self, manual_netlist):
        system = MNASystem.from_netlist(manual_netlist)
        dc = system.dc()
        tr = system.transient(TransientConfig(t_stop=50e-12, dt=1e-12))
        np.testing.assert_allclose(tr.voltages[-1], dc.voltages, rtol=1e-6)

    def test_node_index_lookup(self, manual_netlist):
        system = MNASystem.from_netlist(manual_netlist)
        assert system.node_names[system.node_index("n2")] == "n2"
        with pytest.raises(SolverError):
            system.node_index("zzz")

    def test_node_names_length_checked(self):
        G = sp.identity(2, format="csr")
        with pytest.raises(SolverError):
            MNASystem(G, G, lambda t: np.zeros(2), node_names=("a",))
