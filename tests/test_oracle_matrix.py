"""Cross-engine oracle matrix on systems with a closed-form chaos expansion.

With RHS-only variation (the ``rhs-only`` corner: deterministic ``G`` and
``C``, Gaussian germs entering the excitation affinely,
``u(t, xi) = u_0(t) + sum_k u_k(t) xi_k``) every time-discrete response is
exactly affine in the germs:

    v(t, xi) = v(t, 0) + sum_k (v(t, e_k) - v(t, 0)) xi_k.

In a Hermite chaos basis ``psi_{e_k}(xi) = xi_k``, so this already is the
expansion, at any order: the mean coefficient is ``v(0)``, the first-order
coefficient of germ ``k`` is ``v(e_k) - v(0)`` and every coefficient of
degree >= 2 is zero.  ``v`` comes from plain ``direct`` transients of the
realised deterministic system on the same time axis and scheme.

Every surviving intrusive engine x solver must recover those coefficients
to its solver's accuracy, relative to the largest coefficient: 1e-12 for
the direct backends (``direct``, ``schur``), 1e-8 for the CG backends
(their ``rtol`` is 1e-10 or tighter).  Regression with ``ols`` fits an
affine response exactly (1e-10); the Monte Carlo mean must fall within 4
standard errors of ``v(0)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Analysis
from repro.grid import stamp
from repro.sim.transient import run_transient
from repro.stepping import StackedRhsSeries
from repro.sweep.plan import corner_spec
from repro.variation.model import (
    AffineExcitation,
    ConstantSensitivity,
    GermVariable,
    NominalRhs,
    ScaledDrainCurrentSensitivity,
    StochasticSystem,
)

ORDER = 3
SOLVER_BOUNDS = {"direct": 1e-12, "schur": 1e-12, "cg": 1e-8, "mean-block-cg": 1e-8}
ENGINES = {
    "opera-decoupled": ("opera", {}),
    "opera-coupled": ("opera", {"force_coupled": True}),
    "decoupled": ("decoupled", {}),
    "hierarchical": ("hierarchical", {"store_coefficients": True}),
}


def _with_supply_germ(stamped) -> StochasticSystem:
    """The ``rhs-only`` corner plus a second Gaussian germ: a 1% supply shift.

    The pad injection ``G_pad * VDD`` scales with the supply, so the germ
    enters the excitation affinely and the response stays exactly affine --
    now in two germs, so the mixed second-order coefficient must vanish too.
    """
    spec = corner_spec("rhs-only")
    leff_scale = spec.current_leff_sensitivity * spec.sigma_l
    excitation = AffineExcitation(
        nominal=NominalRhs(stamped),
        sensitivities={
            0: ScaledDrainCurrentSensitivity(stamped, leff_scale),
            1: ConstantSensitivity(0.01 * stamped.pad_current),
        },
        num_variables=2,
    )
    return StochasticSystem(
        variables=(GermVariable("xi_L"), GermVariable("xi_V")),
        g_nominal=stamped.conductance,
        c_nominal=stamped.capacitance,
        g_sensitivities={},
        c_sensitivities={},
        excitation=excitation,
        vdd=stamped.vdd,
        node_names=stamped.node_names,
    )


class Oracle:
    """A session plus the exact chaos coefficients of its response."""

    def __init__(self, session: Analysis):
        self.session = session
        system = session.system
        assert not system.has_matrix_variation
        transient = session.transient
        times = transient.times()
        series = system.excitation.over(times)

        def response(xi: np.ndarray) -> np.ndarray:
            conductance, capacitance = system.realize_matrices(xi)
            rhs = series.sample(xi)
            return run_transient(
                conductance,
                capacitance,
                None,
                transient,
                vdd=system.vdd,
                rhs_series=StackedRhsSeries(times, rhs[:, None]),
            ).voltages

        germs = np.eye(system.num_variables)
        self.mean = response(np.zeros(system.num_variables))
        self.first_order = [response(unit) - self.mean for unit in germs]
        self.scale = float(np.max(np.abs(self.mean)))

    def coefficients(self, basis) -> np.ndarray:
        """``(num_times, basis.size, num_nodes)``: zero beyond degree one."""
        out = np.zeros((self.mean.shape[0], basis.size, self.mean.shape[1]))
        out[:, 0] = self.mean
        for germ, coefficient in enumerate(self.first_order):
            out[:, basis.first_order_index(germ)] = coefficient
        return out

    def relative_error(self, result) -> float:
        raw = result.raw
        return float(np.max(np.abs(raw.coefficients - self.coefficients(raw.basis)))) / self.scale


@pytest.fixture(scope="module", params=["rhs-only", "rhs-only+supply"])
def oracle(request, small_netlist) -> Oracle:
    if request.param == "rhs-only":
        session = Analysis.from_netlist(small_netlist, variation=corner_spec("rhs-only"))
    else:
        session = Analysis(small_netlist, system=_with_supply_germ(stamp(small_netlist)))
    session.with_transient(t_stop=1.0e-9, dt=0.25e-9)
    return Oracle(session)


def test_the_oracle_has_first_order_content(oracle):
    """Guard against a vacuous matrix: every germ moves the response."""
    for coefficient in oracle.first_order:
        assert np.max(np.abs(coefficient)) > 1e-6 * oracle.scale


@pytest.mark.parametrize("solver", sorted(SOLVER_BOUNDS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_intrusive_engines_recover_the_exact_expansion(oracle, engine, solver):
    name, options = ENGINES[engine]
    result = oracle.session.run(name, order=ORDER, solver=solver, **options)
    assert result.raw.basis.order == ORDER
    assert oracle.relative_error(result) <= SOLVER_BOUNDS[solver]


def test_ols_regression_fits_the_exact_expansion(oracle):
    result = oracle.session.run("pce-regression", order=ORDER, samples=40, seed=1, fit="ols")
    assert oracle.relative_error(result) <= 1e-10


def test_montecarlo_mean_within_four_standard_errors(oracle):
    samples = 60
    result = oracle.session.run("montecarlo", samples=samples, seed=4)
    standard_error = result.std() / np.sqrt(samples)
    assert np.all(
        np.abs(result.mean() - oracle.mean) <= 4.0 * standard_error + 1e-12 * oracle.scale
    )
