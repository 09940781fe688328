"""The time-axis excitation evaluator and the consumers routed through it.

The reference everywhere is the scalar per-source sum ``sum(float(w(t)))``
in source order -- the evaluation the vectorised source table replaces --
and equality is bitwise.
"""

import pickle

import numpy as np
import pytest

from repro import telemetry
from repro.chaos.basis import PolynomialChaosBasis
from repro.grid.netlist import PowerGridNetlist
from repro.grid.stamping import StampedSystem, stamp
from repro.montecarlo import engine as mc_engine
from repro.montecarlo.engine import (
    MonteCarloConfig,
    run_monte_carlo_dc,
    run_monte_carlo_transient,
)
from repro.montecarlo.sampler import GermSampler
from repro.montecarlo.statistics import RunningMoments
from repro.opera.config import OperaConfig
from repro.opera.engine import run_opera_transient
from repro.regression import engine as regression_engine
from repro.regression.engine import run_regression_dc
from repro.sim.dc import solve_dc
from repro.sim.transient import run_transient
from repro.variation.model import (
    AffineExcitation,
    SummedExcitation,
    VariationSpec,
    build_stochastic_system,
)
from repro.waveforms import (
    ClockedActivity,
    Constant,
    PeriodicPulse,
    PiecewiseLinear,
    Scaled,
    Summed,
    Waveform,
    WaveformTable,
)

#: Before the time origin, on cycle and breakpoint boundaries, and far out.
TIMES = np.array(
    [-1.0e-9, 0.0, 0.13e-9, 0.2e-9, 0.3e-9, 0.5e-9, 1.0e-9, 1.7e-9, 2.4e-9, 4.0e-9, 1.0e-7]
)


class Ramp(Waveform):
    """A user-defined waveform class: no group kernel, evaluated one by one."""

    def __init__(self, slope: float):
        self.slope = slope

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.slope * np.maximum(t, 0.0)
        return out if out.ndim else float(out)


class DoubledClock(ClockedActivity):
    """A subclass overriding ``__call__``: must not take the parent's kernel."""

    def __call__(self, t):
        return 2.0 * np.asarray(super().__call__(t))


def every_waveform_class():
    return [
        ClockedActivity(period=0.5e-9, peak=1.0e-3),
        ClockedActivity(
            period=0.3e-9,
            peak=2.0e-3,
            activity=(0.2, 1.0, 0.7),
            rise_fraction=0.1,
            duty_fraction=0.9,
        ),
        Constant(1.0e-4),
        PiecewiseLinear([0.0, 1.0e-9, 2.0e-9], [0.0, 1.0e-3, 2.0e-4]),
        ClockedActivity(period=0.7e-9, peak=0.5e-3, activity=(1.0, 0.0, 0.3, 0.9, 0.5)),
        PeriodicPulse(
            low=0.0,
            high=1.0e-3,
            delay=0.1e-9,
            rise=0.05e-9,
            fall=0.05e-9,
            width=0.2e-9,
            period=0.6e-9,
        ),
        Constant(3.0e-5),
        Scaled(ClockedActivity(period=0.4e-9, peak=1.0e-3, activity=(0.5, 1.0)), 0.5),
        Summed((Constant(1.0e-4), PiecewiseLinear([0.0, 2.0e-9], [0.0, 5.0e-4]))),
        Ramp(1.0e5),
        DoubledClock(period=0.4e-9, peak=1.0e-3, activity=(0.5, 1.0)),
        ClockedActivity(period=0.25e-9, peak=3.0e-3, activity=(0.9, 0.1)),
    ]


@pytest.fixture(scope="module")
def mixed_stamped() -> StampedSystem:
    """Every waveform class, several sources per node, some tagged leakage."""
    netlist = PowerGridNetlist(name="mixed-sources")
    netlist.add_pad("n0", resistance=0.1, vdd=1.0)
    for k in range(4):
        netlist.add_resistor(f"n{k}", f"n{k + 1}", 1.0)
        netlist.add_capacitor(f"n{k + 1}", "0", 1.0e-12, is_gate_load=bool(k % 2))
    for index, waveform in enumerate(every_waveform_class()):
        netlist.add_current_source(f"n{1 + index % 4}", waveform, is_leakage=index % 3 == 2)
    return stamp(netlist)


def reference_drain(stamped: StampedSystem, t: float, include_leakage: bool = True):
    """The scalar per-source sum, in source order."""
    currents = np.zeros(stamped.num_nodes)
    for node, waveform, leak in zip(
        stamped.source_nodes, stamped.source_waveforms, stamped.source_is_leakage
    ):
        if include_leakage or not leak:
            currents[node] += float(waveform(t))
    return currents


class TestSourceTable:
    def test_groups_by_exact_class(self, mixed_stamped):
        sizes = {
            type(group).__name__: rows.size for rows, group in mixed_stamped.source_table.groups
        }
        # Four plain ClockedActivity and two Constant sources take the group
        # kernels; the subclass, the composites and the rest are evaluated
        # one by one.
        assert sizes == {"_ClockedActivityGroup": 4, "_ConstantGroup": 2, "_EachWaveform": 6}

    def test_rows_equal_each_waveform(self):
        waveforms = every_waveform_class()
        values = WaveformTable(waveforms)(TIMES)
        for row, waveform in zip(values, waveforms):
            expected = np.array([float(waveform(t)) for t in TIMES])
            assert row.tobytes() == expected.tobytes(), waveform

    def test_shared_waveform_evaluated_once(self):
        shared = ClockedActivity(period=0.3e-9, peak=1.0e-3, activity=(0.5, 1.0))
        other = Constant(2.0e-4)
        table = WaveformTable([shared, other, shared, shared])
        assert table.num_distinct == 2
        values = table(TIMES)
        assert values.shape == (4, TIMES.size)
        for row in (0, 2, 3):
            assert values[row].tobytes() == np.asarray(shared(TIMES)).tobytes()

    @pytest.mark.parametrize("include_leakage", [True, False])
    def test_matrix_bitwise_equals_scalar_sum(self, mixed_stamped, include_leakage):
        matrix = mixed_stamped.drain_current_matrix(TIMES, include_leakage=include_leakage)
        assert matrix.shape == (TIMES.size, mixed_stamped.num_nodes)
        for row, t in zip(matrix, TIMES):
            assert row.tobytes() == reference_drain(mixed_stamped, t, include_leakage).tobytes()

    @pytest.mark.parametrize("include_leakage", [True, False])
    def test_generated_grid_bitwise_equals_scalar_sum(self, small_stamped, include_leakage):
        matrix = small_stamped.drain_current_matrix(TIMES, include_leakage=include_leakage)
        for row, t in zip(matrix, TIMES):
            assert row.tobytes() == reference_drain(small_stamped, t, include_leakage).tobytes()

    def test_clocked_activity_call_keeps_shape(self):
        waveform = ClockedActivity(period=0.3e-9, peak=1.0, activity=(0.5, 1.0, 0.25))
        grid = TIMES[:10].reshape(2, 5)
        values = waveform(grid)
        assert values.shape == (2, 5)
        assert isinstance(waveform(0.1e-9), float)
        for t, value in zip(grid.ravel(), values.ravel()):
            assert value == waveform(float(t))


class TestExcitationSeries:
    def test_affine_sample_matches_scalar_reference(self, small_stamped):
        spec = VariationSpec.paper_defaults()
        system = build_stochastic_system(small_stamped, spec)
        xi = np.array([0.7, -1.3])
        series = system.excitation.over(TIMES)
        scale = spec.current_leff_sensitivity * spec.sigma_l
        pad_sensitivity = spec.sigma_g * small_stamped.pad_current
        for row, t in zip(series.sample(xi), TIMES):
            drain = reference_drain(small_stamped, t)
            expected = small_stamped.pad_current - drain
            expected += xi[0] * pad_sensitivity
            expected += xi[1] * (-scale * drain)
            assert row.tobytes() == expected.tobytes()

    def test_per_time_views_are_rows(self, small_system, small_leakage_system):
        for system in (small_system, small_leakage_system):
            basis = PolynomialChaosBasis(
                families=system.variable_families(), order=2, num_vars=system.num_variables
            )
            xi = np.linspace(-1.0, 1.0, system.num_variables)
            series = system.excitation.over(TIMES)
            samples = series.sample(xi)
            tables = series.pc_coefficients(basis)
            for k, t in enumerate(TIMES):
                assert samples[k].tobytes() == system.excitation.sample(t, xi).tobytes()
                coefficients = system.excitation.pc_coefficients(basis, t)
                assert sorted(coefficients) == sorted(tables)
                for index, vector in coefficients.items():
                    assert vector.tobytes() == tables[index][k].tobytes()

    def test_sample_into_buffer(self, small_system, small_leakage_system):
        leakage = small_leakage_system.excitation
        summed = SummedExcitation([leakage, leakage])
        for excitation in (small_system.excitation, leakage, summed):
            xi = np.linspace(-0.5, 1.5, excitation.num_variables)
            series = excitation.over(TIMES)
            buffer = np.full((TIMES.size, small_system.num_nodes), np.nan)
            assert series.sample(xi, buffer) is buffer
            assert buffer.tobytes() == series.sample(xi).tobytes()
        single = leakage.over(TIMES).sample(xi)
        assert summed.over(TIMES).sample(xi).tobytes() == (single + single).tobytes()

    def test_leakage_sample_matches_scalar_reference(self, small_stamped, small_leakage_system):
        excitation = small_leakage_system.excitation
        xi = np.array([0.4, -0.9])
        factors = excitation.spec.factor(xi)
        leakage = excitation.region_leakage_vectors
        unassigned = excitation._unassigned_leakage
        for row, t in zip(excitation.over(TIMES).sample(xi), TIMES):
            expected = (
                small_stamped.pad_current
                - reference_drain(small_stamped, t, include_leakage=False)
                - unassigned
            )
            for factor, vector in zip(factors, leakage):
                expected = expected - factor * vector
            assert row.tobytes() == expected.tobytes()

    def test_one_drain_evaluation_per_grid(self, small_stamped, small_leakage_system, monkeypatch):
        calls = []
        original = StampedSystem.drain_current_matrix

        def counting(self, times, include_leakage=True):
            calls.append(bool(include_leakage))
            return original(self, times, include_leakage)

        monkeypatch.setattr(StampedSystem, "drain_current_matrix", counting)
        system = build_stochastic_system(small_stamped)
        system.excitation.over(TIMES)
        # The nominal G1*VDD - i term and the -scale*i term share one table.
        assert calls == [True]
        calls.clear()
        both = SummedExcitation([small_leakage_system.excitation, small_leakage_system.excitation])
        both.over(TIMES)
        assert calls == [False]

    def test_plain_callables_are_stacked_per_time(self):
        nominal = lambda t: np.array([t, 1.0])
        sensitivity = lambda t: np.array([1.0, 2.0 * t])
        excitation = AffineExcitation(nominal, {0: sensitivity}, num_variables=1)
        sample = excitation.over(TIMES).sample(np.array([3.0]))
        expected = np.column_stack([TIMES + 3.0, 1.0 + 3.0 * (2.0 * TIMES)])
        assert sample.tobytes() == expected.tobytes()

    def test_system_pickles_with_source_table(self, small_system):
        restored = pickle.loads(pickle.dumps(small_system))
        stamped = restored.excitation._nominal.stamped
        original = small_system.excitation._nominal.stamped
        groups = [rows.tolist() for rows, _ in stamped.source_table.groups]
        assert groups == [rows.tolist() for rows, _ in original.source_table.groups]
        xi = np.array([0.3, -0.2])
        assert (
            restored.excitation.over(TIMES).sample(xi).tobytes()
            == small_system.excitation.over(TIMES).sample(xi).tobytes()
        )


class TestConsumers:
    def test_monte_carlo_matches_per_time_sample_loop(self, small_system, fast_transient):
        config = MonteCarloConfig(transient=fast_transient, num_samples=6, seed=3)
        result = run_monte_carlo_transient(small_system, config)
        moments = RunningMoments()
        for xi in GermSampler(small_system, seed=3).sample(6):
            conductance, capacitance = small_system.realize_matrices(xi)
            run = run_transient(
                conductance,
                capacitance,
                lambda t, xi=xi: small_system.excitation.sample(t, xi),
                fast_transient,
                vdd=small_system.vdd,
            )
            moments.update(run.voltages)
        assert result.mean_voltage.tobytes() == moments.mean.tobytes()
        assert result.variance.tobytes() == moments.variance(ddof=1).tobytes()

    @pytest.mark.parametrize("chunk_size", [None, 4])
    def test_monte_carlo_dc_matches_per_time_sample_loop(
        self, small_system, small_leakage_system, chunk_size
    ):
        t = 0.3e-9
        for system in (small_system, small_leakage_system):
            result = run_monte_carlo_dc(system, num_samples=10, t=t, seed=6, chunk_size=chunk_size)
            if chunk_size is None:
                chunks = [(6, 10)]
            else:
                chunks = list(zip(np.random.SeedSequence(6).spawn(3), (4, 4, 2)))
            moments = RunningMoments()
            for chunk_seed, size in chunks:
                chunk = RunningMoments()
                for xi in GermSampler(system, seed=chunk_seed).sample(size):
                    conductance, _ = system.realize_matrices(xi)
                    chunk.update(solve_dc(conductance, system.excitation.sample(t, xi)))
                moments.merge(chunk)
            assert result.mean_voltage.tobytes() == moments.mean.tobytes()
            assert result.variance.tobytes() == moments.variance(ddof=1).tobytes()

    def test_regression_dc_matches_per_time_sample_loop(self, small_system, monkeypatch):
        def reference_job(args):
            t, chunk_seed, chunk_samples, solver = args
            system = mc_engine._CHUNK_SYSTEM
            germs = GermSampler(system, seed=chunk_seed).sample(chunk_samples)
            voltages = np.empty((chunk_samples, system.num_nodes))
            for i, xi in enumerate(germs):
                conductance, _ = system.realize_matrices(xi)
                voltages[i] = solve_dc(
                    conductance, system.excitation.sample(t, xi), solver=solver
                )
            return germs, voltages

        def run():
            return run_regression_dc(
                small_system, order=2, t=0.3e-9, samples=24, seed=2, chunk_size=10
            )

        field = run()
        monkeypatch.setattr(regression_engine, "_dc_sample_job", reference_job)
        reference = run()
        assert field.coefficients.tobytes() == reference.coefficients.tobytes()

    def test_monte_carlo_two_workers_match_one(self, small_system, fast_transient):
        def run(workers):
            config = MonteCarloConfig(
                transient=fast_transient, num_samples=8, seed=5, workers=workers, chunk_size=4
            )
            return run_monte_carlo_transient(small_system, config)

        serial, parallel = run(1), run(2)
        assert serial.mean_voltage.tobytes() == parallel.mean_voltage.tobytes()
        assert serial.variance.tobytes() == parallel.variance.tobytes()

    def test_results_bit_identical_with_telemetry(self, small_system, fast_transient):
        def run():
            mc = run_monte_carlo_transient(
                small_system, MonteCarloConfig(transient=fast_transient, num_samples=4, seed=1)
            )
            opera = run_opera_transient(
                small_system, OperaConfig(transient=fast_transient, order=2)
            )
            return mc, opera

        mc_off, opera_off = run()
        with telemetry.profile() as tele:
            mc_on, opera_on = run()
        assert "excite" in tele.summary()["phases"]
        assert mc_on.mean_voltage.tobytes() == mc_off.mean_voltage.tobytes()
        assert mc_on.variance.tobytes() == mc_off.variance.tobytes()
        assert opera_on.mean_voltage.tobytes() == opera_off.mean_voltage.tobytes()
        assert opera_on.variance.tobytes() == opera_off.variance.tobytes()
