"""DC (steady-state) power grid analysis.

The DC operating point solves ``G x = U`` where ``U`` collects the pad
injections and the drain currents at a chosen time instant (or their peak
values).  It is used to obtain nominal IR-drop maps, to calibrate synthetic
grids, and to provide initial conditions for the transient integrator.
"""

from __future__ import annotations


import numpy as np
import scipy.sparse as sp

from ..grid.stamping import StampedSystem
from .linear import LinearSolver, make_solver
from .results import DCResult

__all__ = ["solve_dc", "dc_operating_point"]


def solve_dc(
    conductance: sp.spmatrix,
    rhs: np.ndarray,
    solver: str = "direct",
    **solver_options,
) -> np.ndarray:
    """Solve ``G x = rhs`` and return the node voltages."""
    if solver == "mean-block-cg":
        # A plain MNA matrix is one block: its mean block is itself.
        solver_options.setdefault("num_nodes", conductance.shape[0])
    linear: LinearSolver = make_solver(conductance, method=solver, **solver_options)
    return linear.solve(np.asarray(rhs, dtype=float))


def dc_operating_point(
    system: StampedSystem,
    t: float = 0.0,
    solver: str = "direct",
    **solver_options,
) -> DCResult:
    """DC operating point of a stamped power grid at time ``t``.

    The capacitors are open at DC, so only the conductance matrix and the
    excitation ``U(t) = G1*VDD - i(t)`` enter the solve.
    """
    voltages = solve_dc(system.conductance, system.rhs(t), solver=solver, **solver_options)
    return DCResult(voltages=voltages, vdd=system.vdd)
