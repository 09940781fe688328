"""Decoupled OPERA analysis for right-hand-side-only variation (Section 5.1).

When the grid matrices ``G`` and ``C`` are deterministic and only the
excitation ``U(t, xi)`` is stochastic (e.g. lognormal leakage currents from
threshold-voltage variation), the Galerkin system block-diagonalises: the
chaos coefficients of the response satisfy *independent* deterministic
equations

``(G + sC) a_j(s) = U_j(s)``    for  ``j = 0 .. N``

(Eq. (27) of the paper).  A single factorisation of the stepping matrix is
therefore shared by every coefficient and every time step, which is what
makes this special case almost as cheap as a single nominal simulation.

The marching runs on the shared :mod:`repro.stepping` core: the active
coefficients are stacked into one state vector behind a
:class:`~repro.stepping.DecoupledSystemAdapter` (block-diagonal step matrix
``I_J (x) (aG + bC/h)``), so each step is a single multi-RHS solve of the
one ``n x n`` factorisation and any registered scheme applies.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..chaos.basis import PolynomialChaosBasis
from ..chaos.response import StochasticTransientResult
from ..errors import AnalysisError
from ..stepping import DecoupledSystemAdapter, StackedRhsSeries, StepLoop
from ..telemetry import current_telemetry
from ..variation.model import StochasticSystem
from .config import OperaConfig

__all__ = ["run_decoupled_transient", "run_decoupled_transient_stacked"]


def run_decoupled_transient(
    system: StochasticSystem,
    config: OperaConfig,
    basis: Optional[PolynomialChaosBasis] = None,
    solver_factory: Optional[Callable] = None,
) -> StochasticTransientResult:
    """Stochastic transient analysis with deterministic G and C.

    Raises :class:`AnalysisError` if the system actually has matrix
    variation; use the general engine in that case.  ``solver_factory``
    optionally supplies (possibly cached) linear solvers in place of
    :func:`~repro.sim.linear.make_solver`.
    """
    if system.has_matrix_variation:
        raise AnalysisError(
            "the decoupled special case requires deterministic G and C; "
            "this system has matrix variation"
        )
    if basis is None:
        basis = PolynomialChaosBasis(
            families=system.variable_families(),
            order=config.order,
            num_vars=system.num_variables,
        )

    started = time.perf_counter()
    transient = config.effective_transient
    times = transient.times()
    n = system.num_nodes

    conductance = system.g_nominal.tocsr()
    capacitance = system.c_nominal.tocsr()

    # The set of active chaos coefficients is fixed by the excitation structure.
    tables = system.excitation.over(times).pc_coefficients(basis)
    active = sorted(tables.keys())

    coefficients = np.zeros((times.size, basis.size, n))
    if active:
        series = StackedRhsSeries.from_coefficients(times, tables, active)
        adapter = DecoupledSystemAdapter(
            conductance,
            capacitance,
            tracks=len(active),
            rhs_series=series,
            solver=config.effective_solver,
            solver_factory=solver_factory,
        )
        active_rows = np.asarray(active, dtype=int)

        def scatter(step: int, t: float, stacked: np.ndarray) -> None:
            coefficients[step, active_rows] = stacked.reshape(len(active), n)

        StepLoop(adapter, transient.scheme, times, transient.dt).run(
            callback=scatter, store=False
        )

    elapsed = time.perf_counter() - started
    if config.store_coefficients:
        return StochasticTransientResult(
            times=times,
            basis=basis,
            vdd=system.vdd,
            coefficients=coefficients,
            node_names=system.node_names,
            wall_time=elapsed,
        )
    mean = coefficients[:, 0, :]
    variance = np.sum(coefficients[:, 1:, :] ** 2, axis=1)
    return StochasticTransientResult(
        times=times,
        basis=basis,
        vdd=system.vdd,
        mean=mean,
        variance=variance,
        node_names=system.node_names,
        wall_time=elapsed,
    )


def run_decoupled_transient_stacked(
    systems: Sequence[StochasticSystem],
    config: OperaConfig,
    bases: Sequence[PolynomialChaosBasis],
    solver_factory: Optional[Callable] = None,
) -> List[StochasticTransientResult]:
    """One multi-RHS march for several RHS-only systems on one topology.

    The batched counterpart of :func:`run_decoupled_transient`: every
    system (one per sweep case/corner) shares the deterministic nominal
    ``G`` and ``C``, so their active chaos tracks are concatenated into a
    single :class:`~repro.stepping.DecoupledSystemAdapter` state vector and
    the whole stack advances through one :class:`~repro.stepping.StepLoop`
    run -- one factorisation, one multi-RHS solve per step, for *all*
    cases.  Because the direct multi-RHS solve and the stacked matvecs are
    column-wise operations, each case's coefficient trajectory is bitwise
    identical to its own :func:`run_decoupled_transient` run.

    Results are returned in input order; per-case wall times apportion the
    shared march by track count.  Raises :class:`AnalysisError` when a
    system has matrix variation or the nominal matrices do not match.
    """
    if not systems:
        return []
    if len(bases) != len(systems):
        raise AnalysisError("need one chaos basis per stacked system")
    reference = systems[0]
    for system in systems:
        if system.has_matrix_variation:
            raise AnalysisError(
                "the decoupled special case requires deterministic G and C; "
                "this system has matrix variation"
            )
        if system.num_nodes != reference.num_nodes:
            raise AnalysisError("stacked systems must share one grid topology")

    started = time.perf_counter()
    transient = config.effective_transient
    times = transient.times()
    n = reference.num_nodes
    conductance = reference.g_nominal.tocsr()
    capacitance = reference.c_nominal.tocsr()

    actives: List[np.ndarray] = []
    tables: List[np.ndarray] = []
    spans: List[Optional[tuple]] = []
    offset = 0
    for system, basis in zip(systems, bases):
        case_tables = system.excitation.over(times).pc_coefficients(basis)
        active = sorted(case_tables.keys())
        actives.append(np.asarray(active, dtype=int))
        if active:
            series = StackedRhsSeries.from_coefficients(times, case_tables, active)
            tables.append(series._waveforms)
            spans.append((offset, offset + len(active)))
            offset += len(active)
        else:
            spans.append(None)

    coefficients = [np.zeros((times.size, basis.size, n)) for basis in bases]
    total_tracks = offset
    if total_tracks:
        combined = StackedRhsSeries(times, np.concatenate(tables, axis=1))
        adapter = DecoupledSystemAdapter(
            conductance,
            capacitance,
            tracks=total_tracks,
            rhs_series=combined,
            solver=config.effective_solver,
            solver_factory=solver_factory,
            # One solve_many call per case, each with exactly the shape of
            # that case's own unbatched solve: SuperLU's multi-RHS back-
            # substitution is not bitwise invariant to the column count.
            track_spans=[span[1] - span[0] for span in spans if span is not None],
        )

        def scatter(step: int, t: float, stacked: np.ndarray) -> None:
            blocks = stacked.reshape(total_tracks, n)
            for index, span in enumerate(spans):
                if span is not None:
                    coefficients[index][step, actives[index]] = blocks[span[0] : span[1]]

        StepLoop(adapter, transient.scheme, times, transient.dt).run(callback=scatter, store=False)
        current_telemetry().count("batched_cases", len(systems))

    elapsed = time.perf_counter() - started
    results: List[StochasticTransientResult] = []
    for index, (system, basis) in enumerate(zip(systems, bases)):
        span = spans[index]
        share = (span[1] - span[0]) / total_tracks if span is not None and total_tracks else 0.0
        wall = elapsed * share
        if config.store_coefficients:
            results.append(
                StochasticTransientResult(
                    times=times,
                    basis=basis,
                    vdd=system.vdd,
                    coefficients=coefficients[index],
                    node_names=system.node_names,
                    wall_time=wall,
                )
            )
        else:
            block = coefficients[index]
            results.append(
                StochasticTransientResult(
                    times=times,
                    basis=basis,
                    vdd=system.vdd,
                    mean=block[:, 0, :],
                    variance=np.sum(block[:, 1:, :] ** 2, axis=1),
                    node_names=system.node_names,
                    wall_time=wall,
                )
            )
    return results
