"""Stochastic power-grid system construction (Eq. (12)-(14) of the paper).

This module converts a deterministic stamped power grid plus a
:class:`VariationSpec` into a :class:`StochasticSystem`:

``G(xi) = G_a + sum_k G_k xi_k``,  ``C(xi) = C_a + sum_k C_k xi_k``,
``U(t, xi) = U_a(t) + sum_k U_k(t) xi_k``  (or a general polynomial-chaos
expansion of ``U`` for nonlinear excitations such as lognormal leakage).

The sensitivities follow the paper's first-order physical model:

* wire/via conductance scales linearly with metal width ``W`` and thickness
  ``T`` (``G ~ W*T / rho``), so its relative sensitivity to the normalised
  germs is ``sigma_W`` and ``sigma_T``;  since both act identically on ``G``
  they can be combined into a single germ ``xi_G`` with relative sigma
  ``sqrt(sigma_W^2 + sigma_T^2)`` (Eq. (14));
* the MOS gate-load part of the capacitance scales linearly with the channel
  length ``Leff`` (``Cgate ~ Weff*Leff*Cox``);
* the block drain currents scale with ``Leff`` through a first-order
  sensitivity coefficient;
* the pad injection term ``G1*VDD`` of the excitation inherits the
  conductance variation when the pad resistance is treated as on-die metal.

The same module defines the excitation abstraction shared by the OPERA
(Galerkin) engine and the Monte Carlo baseline.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..errors import VariationModelError
from ..grid.stamping import StampedSystem
from ..telemetry import current_telemetry

__all__ = [
    "VariationSpec",
    "GermVariable",
    "StochasticExcitation",
    "ExcitationSeries",
    "DrainTables",
    "term_table",
    "AffineExcitation",
    "AffineSeries",
    "SummedExcitation",
    "SummedSeries",
    "NominalRhs",
    "ConstantSensitivity",
    "ScaledDrainCurrentSensitivity",
    "StochasticSystem",
    "build_stochastic_system",
]


@dataclass(frozen=True)
class VariationSpec:
    """Inter-die process variation magnitudes (1-sigma, relative to nominal).

    The paper's experiments use maximum 3-sigma variations of 20 % in W,
    15 % in T (hence 25 % in the combined conductance germ) and 20 % in
    Leff; :meth:`paper_defaults` reproduces exactly those settings.

    Attributes
    ----------
    sigma_w, sigma_t, sigma_l:
        Relative 1-sigma variation of interconnect width, interconnect
        thickness and device channel length.
    gate_cap_fraction:
        Fraction of the total grid capacitance that follows Leff; only used
        as a fallback when the netlist does not tag gate-load capacitors.
    current_leff_sensitivity:
        First-order sensitivity of the block drain currents to the
        normalised Leff germ (dI/I per unit xi_L, in units of sigma_l).
    pads_vary:
        Whether the pad series conductance (and hence the ``G1*VDD`` part of
        the excitation) follows the W/T variation.
    combine_wt:
        Combine the W and T germs into the single conductance germ ``xi_G``
        as in Eq. (14) of the paper (2 germs total); otherwise keep W, T and
        Leff as three separate germs.
    vary_conductance, vary_capacitance, vary_currents:
        Master switches for each variation mechanism (used by ablations).
    """

    sigma_w: float = 0.20 / 3.0
    sigma_t: float = 0.15 / 3.0
    sigma_l: float = 0.20 / 3.0
    gate_cap_fraction: float = 0.40
    current_leff_sensitivity: float = 1.3
    pads_vary: bool = True
    combine_wt: bool = True
    vary_conductance: bool = True
    vary_capacitance: bool = True
    vary_currents: bool = True

    def __post_init__(self):
        for label, value in (
            ("sigma_w", self.sigma_w),
            ("sigma_t", self.sigma_t),
            ("sigma_l", self.sigma_l),
        ):
            if value < 0 or value >= 1.0 / 3.0 + 1e-12:
                raise VariationModelError(
                    f"{label} must lie in [0, 1/3) so that 3-sigma excursions "
                    f"keep the parameters physical; got {value}"
                )
        if not (0.0 <= self.gate_cap_fraction <= 1.0):
            raise VariationModelError("gate_cap_fraction must lie in [0, 1]")

    @classmethod
    def paper_defaults(cls) -> "VariationSpec":
        """The exact setting of the paper's experiments (Section 6)."""
        return cls(
            sigma_w=0.20 / 3.0,
            sigma_t=0.15 / 3.0,
            sigma_l=0.20 / 3.0,
            gate_cap_fraction=0.40,
            current_leff_sensitivity=1.3,
            pads_vary=True,
            combine_wt=True,
        )

    @classmethod
    def from_three_sigma_percent(
        cls, w: float = 20.0, t: float = 15.0, l: float = 20.0, **kwargs
    ) -> "VariationSpec":
        """Build a spec from 3-sigma percentages (the paper's convention)."""
        return cls(
            sigma_w=w / 100.0 / 3.0,
            sigma_t=t / 100.0 / 3.0,
            sigma_l=l / 100.0 / 3.0,
            **kwargs,
        )

    @property
    def sigma_g(self) -> float:
        """Relative 1-sigma variation of the combined conductance germ xi_G."""
        return math.sqrt(self.sigma_w**2 + self.sigma_t**2)


@dataclass(frozen=True)
class GermVariable:
    """One normalised (zero-mean, unit-variance) random variable of the model."""

    name: str
    family: str = "hermite"

    def __post_init__(self):
        if not self.name:
            raise VariationModelError("germ variables need a non-empty name")


# ---------------------------------------------------------------------------
# Excitations
# ---------------------------------------------------------------------------
class DrainTables:
    """Drain-current matrices of one time axis, evaluated once per grid.

    Every term of an excitation that needs ``i(t)`` of a stamped grid asks
    this object, so one :meth:`StampedSystem.drain_current_matrix` call per
    ``(grid, include_leakage)`` feeds the nominal ``G1*VDD - i`` term, every
    ``-scale * i`` sensitivity and every part of a summed excitation.
    """

    def __init__(self, times):
        self.times = np.asarray(times, dtype=float).reshape(-1)
        # Keyed by grid identity; each entry keeps its grid alive so the id
        # cannot be reused while the tables live.
        self._tables: Dict[Tuple[int, bool], Tuple[StampedSystem, np.ndarray]] = {}

    def __call__(self, stamped: StampedSystem, include_leakage: bool = True) -> np.ndarray:
        key = (id(stamped), bool(include_leakage))
        entry = self._tables.get(key)
        if entry is None:
            entry = (stamped, stamped.drain_current_matrix(self.times, include_leakage))
            self._tables[key] = entry
        return entry[1]


def term_table(term, drains: DrainTables) -> np.ndarray:
    """The ``(T, n)`` table of one excitation term over ``drains.times``.

    Terms with a ``table(drains)`` method are evaluated over the whole axis
    at once; a plain callable of time is called per time point and stacked.
    """
    if hasattr(term, "table"):
        return term.table(drains)
    return np.array([np.asarray(term(float(t)), dtype=float) for t in drains.times])


class NominalRhs:
    """``t -> G1*VDD - i(t)``: the nominal MNA right-hand side of a grid."""

    def __init__(self, stamped: StampedSystem):
        self.stamped = stamped

    def table(self, drains: DrainTables) -> np.ndarray:
        return self.stamped.pad_current[None, :] - drains(self.stamped)


class ConstantSensitivity:
    """A time-independent sensitivity vector.

    A plain class (rather than a closure) so that excitations built from it
    -- and hence whole :class:`StochasticSystem` objects -- can be pickled
    and shipped to worker processes by the chunked Monte Carlo engine and
    the :mod:`repro.sweep` runner.
    """

    def __init__(self, vector: np.ndarray):
        self.vector = np.asarray(vector, dtype=float)

    def table(self, drains: DrainTables) -> np.ndarray:
        return np.repeat(self.vector[None, :], drains.times.size, axis=0)


class ScaledDrainCurrentSensitivity:
    """``t -> -scale * i(t)``: drain-current sensitivity to the Leff germ.

    ``U = G1*VDD - i(t)`` gives ``dU/dxi_L = -dI/dxi_L = -scale * i(t)``.
    Implemented as a picklable class for the same reason as
    :class:`ConstantSensitivity`.
    """

    def __init__(self, stamped: StampedSystem, scale: float):
        self.stamped = stamped
        self.scale = float(scale)

    def table(self, drains: DrainTables) -> np.ndarray:
        return -self.scale * drains(self.stamped)


class ExcitationSeries(abc.ABC):
    """An excitation evaluated over one time axis (see :meth:`StochasticExcitation.over`).

    Holds ``(T, n)`` tables, so a sample's right-hand side or the chaos
    coefficients over the whole axis are a few array operations.
    """

    @abc.abstractmethod
    def sample(self, xi: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``U(t, xi)`` for every time point; shape ``(T, n)``.

        ``out`` is an optional ``(T, n)`` buffer to write into, so a loop
        over samples can reuse one buffer.
        """

    @abc.abstractmethod
    def pc_coefficients(self, basis) -> Dict[int, np.ndarray]:
        """Chaos coefficients of ``U``: basis index -> ``(T, n)`` table."""


class StochasticExcitation(abc.ABC):
    """Right-hand side ``U(t, xi)`` of the stochastic MNA system.

    :meth:`over` evaluates it over a whole time axis once, into an
    :class:`ExcitationSeries`; two per-time views of the same object remain:

    * :meth:`sample` -- exact evaluation at a germ realisation;
    * :meth:`pc_coefficients` -- the coefficients of the excitation in the
      orthonormal chaos basis, used by the Galerkin projection.

    Both are one-row views of :meth:`over`, so every path from waveforms to
    right-hand sides is the same arithmetic.
    """

    def over(self, times) -> ExcitationSeries:
        """The excitation over the time axis ``times``."""
        drains = DrainTables(times)
        with current_telemetry().span("excitation.over", phase="excite", times=drains.times.size):
            return self.series(drains)

    @abc.abstractmethod
    def series(self, drains: DrainTables) -> ExcitationSeries:
        """The excitation over ``drains.times``, its drain currents from ``drains``."""

    def sample(self, t: float, xi: np.ndarray) -> np.ndarray:
        """Evaluate ``U(t, xi)`` for one germ realisation ``xi``."""
        return self.series(DrainTables([t])).sample(xi)[0]

    def pc_coefficients(self, basis, t: float) -> Dict[int, np.ndarray]:
        """Coefficients of ``U(t, .)`` on the orthonormal basis.

        Returns a mapping from basis index to coefficient vector; absent
        indices are zero.
        """
        tables = self.series(DrainTables([t])).pc_coefficients(basis)
        return {index: table[0] for index, table in tables.items()}

    def nominal(self, t: float) -> np.ndarray:
        """Mean excitation (the coefficient of the constant basis function)."""
        return self.sample(t, np.zeros(self.num_variables))

    @property
    @abc.abstractmethod
    def num_variables(self) -> int:
        """Number of germ variables this excitation depends on."""


class AffineSeries(ExcitationSeries):
    """:class:`AffineExcitation` over one time axis: ``U0`` and one ``U_k`` per germ."""

    def __init__(self, nominal: np.ndarray, sensitivities: Tuple[Tuple[int, np.ndarray], ...]):
        self.nominal = nominal
        self.sensitivities = sensitivities

    def sample(self, xi: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        value = np.empty_like(self.nominal) if out is None else out
        np.copyto(value, self.nominal)
        for var, table in self.sensitivities:
            value += xi[var] * table
        return value

    def pc_coefficients(self, basis) -> Dict[int, np.ndarray]:
        coefficients = {0: self.nominal}
        if getattr(basis, "order", 1) >= 1:
            for var, table in self.sensitivities:
                coefficients[basis.first_order_index(var)] = table
        return coefficients


class AffineExcitation(StochasticExcitation):
    """``U(t, xi) = u0(t) + sum_k u_k(t) xi_k`` (first-order germ dependence).

    ``nominal`` and the values of ``sensitivities`` (keyed by germ *variable
    index*) are excitation terms: objects with a ``table(drains)`` method
    such as :class:`NominalRhs`, or plain callables of time (see
    :func:`term_table`).
    """

    def __init__(
        self,
        nominal,
        sensitivities: Mapping[int, object],
        num_variables: int,
    ):
        self._nominal = nominal
        self._sensitivities = dict(sensitivities)
        self._num_variables = int(num_variables)
        for var in self._sensitivities:
            if not (0 <= var < self._num_variables):
                raise VariationModelError(
                    f"sensitivity refers to variable {var} but only "
                    f"{self._num_variables} germ variables exist"
                )

    @property
    def num_variables(self) -> int:
        return self._num_variables

    def series(self, drains: DrainTables) -> AffineSeries:
        return AffineSeries(
            term_table(self._nominal, drains),
            tuple(
                (var, term_table(sensitivity, drains))
                for var, sensitivity in self._sensitivities.items()
            ),
        )


class SummedSeries(ExcitationSeries):
    """:class:`SummedExcitation` over one time axis."""

    def __init__(self, parts: Sequence[ExcitationSeries]):
        self.parts = list(parts)

    def sample(self, xi: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        total = self.parts[0].sample(xi, out)
        for part in self.parts[1:]:
            total += part.sample(xi)
        return total

    def pc_coefficients(self, basis) -> Dict[int, np.ndarray]:
        combined: Dict[int, np.ndarray] = {}
        for part in self.parts:
            for index, table in part.pc_coefficients(basis).items():
                if index in combined:
                    combined[index] = combined[index] + table
                else:
                    combined[index] = np.array(table, copy=True)
        return combined


class SummedExcitation(StochasticExcitation):
    """Point-wise sum of several excitations sharing the same germ vector."""

    def __init__(self, parts: Sequence[StochasticExcitation]):
        if not parts:
            raise VariationModelError("SummedExcitation needs at least one part")
        sizes = {part.num_variables for part in parts}
        if len(sizes) > 1:
            raise VariationModelError("all excitation parts must share the germ vector")
        self.parts = list(parts)

    @property
    def num_variables(self) -> int:
        return self.parts[0].num_variables

    def series(self, drains: DrainTables) -> SummedSeries:
        return SummedSeries([part.series(drains) for part in self.parts])


# ---------------------------------------------------------------------------
# Stochastic system
# ---------------------------------------------------------------------------
@dataclass
class StochasticSystem:
    """The stochastic MNA system ``(G(xi) + sC(xi)) x = U(s, xi)``.

    Attributes
    ----------
    variables:
        Ordered germ variables; their order defines the meaning of a germ
        realisation vector ``xi``.
    g_nominal, c_nominal:
        Mean conductance and capacitance matrices.
    g_sensitivities, c_sensitivities:
        First-order sensitivity matrices keyed by germ variable index.
    excitation:
        The stochastic right-hand side.
    vdd:
        Supply voltage (for drop conversions).
    node_names:
        Node labels aligned with the matrix ordering.
    """

    variables: Tuple[GermVariable, ...]
    g_nominal: sp.csr_matrix
    c_nominal: sp.csr_matrix
    g_sensitivities: Dict[int, sp.csr_matrix]
    c_sensitivities: Dict[int, sp.csr_matrix]
    excitation: StochasticExcitation
    vdd: float
    node_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        self.g_nominal = sp.csr_matrix(self.g_nominal)
        self.c_nominal = sp.csr_matrix(self.c_nominal)
        if self.g_nominal.shape != self.c_nominal.shape:
            raise VariationModelError("G and C must have identical shapes")
        for mapping_name, mapping in (
            ("g_sensitivities", self.g_sensitivities),
            ("c_sensitivities", self.c_sensitivities),
        ):
            for var, matrix in mapping.items():
                if not (0 <= var < len(self.variables)):
                    raise VariationModelError(
                        f"{mapping_name} refers to unknown variable index {var}"
                    )
                if matrix.shape != self.g_nominal.shape:
                    raise VariationModelError(
                        f"{mapping_name}[{var}] has shape {matrix.shape}, "
                        f"expected {self.g_nominal.shape}"
                    )
        if self.excitation.num_variables != len(self.variables):
            raise VariationModelError("excitation germ count does not match the system's variables")

    # ------------------------------------------------------------------ shape
    @property
    def num_nodes(self) -> int:
        return self.g_nominal.shape[0]

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def has_matrix_variation(self) -> bool:
        """True when G or C depends on the germs (the general OPERA case)."""
        return bool(self.g_sensitivities) or bool(self.c_sensitivities)

    def variable_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def variable_families(self) -> Tuple[str, ...]:
        return tuple(v.family for v in self.variables)

    # --------------------------------------------------------------- sampling
    def realize_matrices(self, xi: np.ndarray) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
        """Return ``(G(xi), C(xi))`` for one germ realisation."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.num_variables,):
            raise VariationModelError(f"xi must have shape ({self.num_variables},), got {xi.shape}")
        conductance = self.g_nominal.copy()
        for var, matrix in self.g_sensitivities.items():
            conductance = conductance + float(xi[var]) * matrix
        capacitance = self.c_nominal.copy()
        for var, matrix in self.c_sensitivities.items():
            capacitance = capacitance + float(xi[var]) * matrix
        return conductance.tocsr(), capacitance.tocsr()


# ---------------------------------------------------------------------------
# Builder (paper Eq. (13)-(14))
# ---------------------------------------------------------------------------
def build_stochastic_system(
    stamped: StampedSystem,
    spec: Optional[VariationSpec] = None,
) -> StochasticSystem:
    """Build the stochastic system for inter-die W/T/Leff variation.

    Parameters
    ----------
    stamped:
        The stamped (nominal) power grid.
    spec:
        Variation magnitudes and switches; defaults to the paper's settings.
    """
    spec = spec or VariationSpec.paper_defaults()

    variables: List[GermVariable] = []
    g_sens: Dict[int, sp.csr_matrix] = {}
    c_sens: Dict[int, sp.csr_matrix] = {}
    rhs_sens: Dict[int, object] = {}

    if spec.pads_vary:
        g_varying = (stamped.g_wire + stamped.g_package).tocsr()
        pad_varying = stamped.pad_current
    else:
        g_varying = stamped.g_wire.tocsr()
        pad_varying = np.zeros(stamped.num_nodes)

    def add_variable(name: str) -> int:
        variables.append(GermVariable(name=name, family="hermite"))
        return len(variables) - 1

    # --- conductance (and the pad part of the excitation) --------------------
    if spec.vary_conductance and (spec.sigma_w > 0 or spec.sigma_t > 0):
        if spec.combine_wt:
            index = add_variable("xi_G")
            g_sens[index] = (spec.sigma_g * g_varying).tocsr()
            if spec.pads_vary:
                rhs_sens[index] = ConstantSensitivity(spec.sigma_g * pad_varying)
        else:
            if spec.sigma_w > 0:
                index = add_variable("xi_W")
                g_sens[index] = (spec.sigma_w * g_varying).tocsr()
                if spec.pads_vary:
                    rhs_sens[index] = ConstantSensitivity(spec.sigma_w * pad_varying)
            if spec.sigma_t > 0:
                index = add_variable("xi_T")
                g_sens[index] = (spec.sigma_t * g_varying).tocsr()
                if spec.pads_vary:
                    rhs_sens[index] = ConstantSensitivity(spec.sigma_t * pad_varying)

    # --- channel length: gate capacitance and drain currents -----------------
    needs_leff = (spec.vary_capacitance or spec.vary_currents) and spec.sigma_l > 0
    if needs_leff:
        index = add_variable("xi_L")
        if spec.vary_capacitance:
            gate_cap = stamped.c_gate
            if gate_cap.nnz == 0:
                # Untagged netlist: fall back to a fraction of the total capacitance.
                gate_cap = spec.gate_cap_fraction * stamped.capacitance
            c_sens[index] = (spec.sigma_l * gate_cap).tocsr()
        if spec.vary_currents:
            rhs_sens[index] = ScaledDrainCurrentSensitivity(
                stamped, spec.current_leff_sensitivity * spec.sigma_l
            )

    if not variables:
        raise VariationModelError(
            "the variation spec enables no random variables; nothing to analyse"
        )

    excitation = AffineExcitation(
        nominal=NominalRhs(stamped),
        sensitivities=rhs_sens,
        num_variables=len(variables),
    )

    return StochasticSystem(
        variables=tuple(variables),
        g_nominal=stamped.conductance,
        c_nominal=stamped.capacitance,
        g_sensitivities=g_sens,
        c_sensitivities=c_sens,
        excitation=excitation,
        vdd=stamped.vdd,
        node_names=stamped.node_names,
    )
