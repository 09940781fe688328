"""Topology-grouped batched execution of sweep cases.

Corner/scenario sweeps run many cases on the *same* grid topology; the
unbatched runner treats each as an island.  This module groups plan cases by
:func:`topology_key` -- ``(nodes, grid_seed, order, scheme)`` -- and executes
each group through a :class:`BatchedCaseRunner` that shares everything the
topology determines:

* the generated netlist and stamped MNA system (one per grid, shared across
  the group's corner sessions via the runner's session cache);
* LU work: identical step matrices share one LU through the session's
  content-fingerprint solver cache (:meth:`repro.api.Analysis.solver`), and
  a stacked march factorises its nominal step matrix once for the group;
* the transient march itself, for cases that block-diagonalise: RHS-only
  ``opera``/``decoupled`` cases on the group's topology stack their active
  chaos tracks into one multi-RHS :class:`~repro.stepping.StepLoop` run
  (:func:`repro.opera.special_case.run_decoupled_transient_stacked`), and
  ``deterministic`` cases -- whose result ignores the corner entirely --
  execute once per distinct solver and replicate.

Every per-case result is bit-identical to the unbatched path: stacking uses
only column-wise operations (multi-RHS direct solves, stacked matvecs), the
shared grid resources are deterministic functions of the case identity, and
the sampled engines (whose statistics depend on their own seeded streams)
simply run per-case inside the group.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..opera.config import OperaConfig
from ..opera.special_case import run_decoupled_transient_stacked
from ..sim.transient import TransientConfig
from ..telemetry import profile
from .plan import SweepCase
from .runner import SweepCaseResult, _run_case, _session_for, result_from_view

__all__ = ["topology_key", "group_cases", "BatchedCaseRunner"]


def topology_key(case: SweepCase) -> Tuple:
    """The grouping identity: cases sharing it share grid structure and march
    shape (same stamped matrices, same stepping scheme).

    The chaos order is deliberately *not* part of the key: the grid
    matrices, the excitation and the active first-order tracks are
    order-independent (the excitation is affine in the germ), so cases that
    differ only in order still stack into one march -- each brings its own
    basis and scatters into its own coefficient array.
    """
    return (case.nodes, case.grid_seed, case.scheme)


def group_cases(cases: Sequence[SweepCase]) -> List[List[SweepCase]]:
    """Partition cases into topology groups, preserving plan order within
    each group (first-appearance order across groups)."""
    groups: Dict[Tuple, List[SweepCase]] = {}
    for case in cases:
        groups.setdefault(topology_key(case), []).append(case)
    return list(groups.values())


class BatchedCaseRunner:
    """Executes one topology group of cases with shared setup and marches.

    Parameters mirror the worker-side knobs of
    :class:`~repro.sweep.runner.SweepRunner`; ``session_provider`` defaults
    to the runner's per-process session cache (grid resources shared across
    corners).
    """

    def __init__(
        self,
        transient: TransientConfig,
        *,
        keep_statistics: bool = False,
        keep_raw: bool = False,
        profile_case: bool = False,
        session_provider=None,
    ):
        self.transient = transient
        self.keep_statistics = bool(keep_statistics)
        self.keep_raw = bool(keep_raw)
        self.profile_case = bool(profile_case)
        self._session_for = session_provider if session_provider is not None else _session_for

    # ------------------------------------------------------------ scheduling
    def _stackable(self, case: SweepCase, session) -> bool:
        """True when the case rides the stacked decoupled march.

        Requires the RHS-only special case (deterministic G and C) and the
        direct solver: iterative inner solvers warm-start across stacked
        columns, which would couple cases numerically.
        """
        if case.engine not in ("opera", "decoupled"):
            return False
        solver = case.solver if case.solver is not None else self.transient.solver
        if str(solver) != "direct":
            return False
        return not session.system.has_matrix_variation

    def run_group(self, cases: Sequence[SweepCase]) -> List[Tuple[SweepCase, SweepCaseResult]]:
        """Execute the group; returns ``(case, result)`` in input order."""
        cases = list(cases)
        if not cases:
            return []
        key = topology_key(cases[0])
        for case in cases:
            if topology_key(case) != key:
                raise AnalysisError(
                    f"case {case.name!r} does not belong to topology group {key!r}"
                )
        sessions = {case: self._session_for(case, self.transient) for case in cases}
        stacked = [case for case in cases if self._stackable(case, sessions[case])]
        stacked_set = set(stacked)
        results: Dict[SweepCase, SweepCaseResult] = {}

        if stacked:
            for case, result in self._run_stacked(stacked, sessions):
                results[case] = result

        deterministic_first: Dict[Optional[str], SweepCaseResult] = {}
        for case in cases:
            if case in stacked_set:
                continue
            session = sessions[case]
            if case.engine == "deterministic":
                # The nominal run ignores the corner: execute once per
                # distinct solver and replicate for the other corners.
                executed = deterministic_first.get(case.solver)
                if executed is None:
                    result = dataclasses.replace(
                        _run_case(
                            case, session, self.keep_statistics, self.keep_raw, self.profile_case
                        ),
                        reused_factorization=False,
                    )
                    deterministic_first[case.solver] = result
                else:
                    result = dataclasses.replace(
                        executed,
                        corner=case.corner,
                        seed=case.seed,
                        name=case.name,
                        telemetry=None,
                        reused_factorization=True,
                    )
            else:
                result = _run_case(
                    case, session, self.keep_statistics, self.keep_raw, self.profile_case
                )
            results[case] = result

        return [(case, results[case]) for case in cases]

    # ------------------------------------------------------------ stacked march
    def _run_stacked(
        self, stacked: List[SweepCase], sessions: Dict[SweepCase, object]
    ) -> List[Tuple[SweepCase, SweepCaseResult]]:
        from ..api.result import StochasticResultView  # deferred like the engines

        first = stacked[0]
        transient = self.transient
        if first.scheme is not None:
            transient = dataclasses.replace(transient, method=str(first.scheme))
        config = OperaConfig(
            transient=transient,
            order=int(first.order if first.order is not None else 2),
            solver=first.solver,
            store_coefficients=True,
        )
        # Scenario dedup: on an RHS-only system the ``opera`` engine falls
        # back to the very same decoupled march as the ``decoupled`` engine
        # (same session, basis, config), so cases that differ only in engine
        # name share one march span and one raw trajectory.
        scenario_of: Dict[SweepCase, Tuple] = {
            case: (case.corner, case.order, case.solver) for case in stacked
        }
        leaders: Dict[Tuple, SweepCase] = {}
        for case in stacked:
            leaders.setdefault(scenario_of[case], case)
        unique = list(leaders.values())
        systems = [sessions[case].system for case in unique]
        bases = [
            sessions[case].basis(int(case.order if case.order is not None else 2))
            for case in unique
        ]
        # One session's solver cache serves the whole march (the nominal G
        # and the step matrix are shared by construction).
        solver_factory = sessions[first].solver

        started = time.perf_counter()
        tele_summary = None
        if self.profile_case:
            with profile() as tele:
                raw_results = run_decoupled_transient_stacked(
                    systems, config, bases, solver_factory=solver_factory
                )
            tele_summary = tele.summary()
        else:
            raw_results = run_decoupled_transient_stacked(
                systems, config, bases, solver_factory=solver_factory
            )
        elapsed = time.perf_counter() - started

        raw_of = {scenario_of[case]: raw for case, raw in zip(unique, raw_results)}
        leader_set = set(unique)
        out: List[Tuple[SweepCase, SweepCaseResult]] = []
        for index, case in enumerate(stacked):
            raw = raw_of[scenario_of[case]]
            view = StochasticResultView(
                case.engine, "transient", raw, sessions[case].system.vdd
            )
            result = result_from_view(
                case,
                view,
                vdd=float(sessions[case].vdd),
                elapsed=elapsed / len(stacked),
                keep_statistics=self.keep_statistics,
                keep_raw=self.keep_raw,
                telemetry=tele_summary if index == 0 else None,
                reused_factorization=index > 0 or case not in leader_set,
            )
            out.append((case, result))
        return out
