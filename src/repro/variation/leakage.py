"""Leakage-current variation model (the special case of Section 5.1).

When only the drain currents vary -- for instance because intra-die threshold
voltage (Vth) variation makes the subthreshold leakage currents random -- the
grid matrices stay deterministic and the stochastic MNA system becomes

``(G + sC) x(s, xi) = U(s, xi)``.

A Gaussian Vth produces *lognormal* leakage currents.  The chip is divided
into a small number of regions (see :class:`~repro.variation.regions.RegionPartition`),
each with its own Vth germ, and the lognormal factor of every region is
expanded analytically on the Hermite basis:

``exp(s*xi - s^2/2) = sum_k  (s^k / sqrt(k!)) * psi_k(xi)``

with orthonormal Hermite polynomials ``psi_k``.  The Galerkin projection then
decouples into one deterministic solve per retained basis function with the
*same* ``(G + sC)`` matrix -- a single LU factorisation and repeated
back-substitutions, which is what gives the special case its speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import VariationModelError
from ..grid.stamping import StampedSystem
from .model import (
    DrainTables,
    ExcitationSeries,
    GermVariable,
    StochasticExcitation,
    StochasticSystem,
)
from .regions import RegionPartition

__all__ = [
    "LeakageVariationSpec",
    "RegionLeakageExcitation",
    "LeakageSeries",
    "build_leakage_system",
]


@dataclass(frozen=True)
class LeakageVariationSpec:
    """Intra-die threshold-voltage variation and its leakage consequence.

    The subthreshold leakage obeys ``I = I0 * exp(-dVth / (n * vT))``; with
    Gaussian ``dVth`` of standard deviation ``vth_sigma`` the leakage is
    lognormal with log-domain sigma ``s = vth_sigma / (n * vT)``.

    Attributes
    ----------
    vth_sigma:
        1-sigma intra-die threshold voltage variation per region, in volts.
    subthreshold_factor:
        Subthreshold slope factor ``n`` (typically 1.2 - 1.6).
    thermal_voltage:
        ``kT/q`` in volts (0.0259 V at 300 K).
    mean_preserving:
        When true (default) the lognormal factor is normalised so its mean is
        exactly the nominal leakage (``exp(s*xi - s^2/2)``); otherwise the
        plain ``exp(s*xi)`` convention is used and the mean leakage exceeds
        the nominal value by ``exp(s^2/2)``.
    """

    vth_sigma: float = 0.030
    subthreshold_factor: float = 1.5
    thermal_voltage: float = 0.0259
    mean_preserving: bool = True

    def __post_init__(self):
        if self.vth_sigma < 0:
            raise VariationModelError("vth_sigma must be non-negative")
        if self.subthreshold_factor <= 0 or self.thermal_voltage <= 0:
            raise VariationModelError("subthreshold_factor and thermal_voltage must be positive")

    @property
    def lognormal_sigma(self) -> float:
        """Log-domain sigma ``s`` of the per-region lognormal leakage factor."""
        return self.vth_sigma / (self.subthreshold_factor * self.thermal_voltage)

    def hermite_coefficients(self, max_degree: int) -> np.ndarray:
        """Coefficients of the lognormal factor on orthonormal Hermite polynomials.

        Returns ``c[0..max_degree]`` such that the leakage multiplication
        factor equals ``sum_k c[k] * psi_k(xi)`` (exactly, in the limit of
        infinite degree).
        """
        s = self.lognormal_sigma
        coefficients = np.array(
            [s**k / math.sqrt(math.factorial(k)) for k in range(max_degree + 1)]
        )
        if not self.mean_preserving:
            coefficients *= math.exp(0.5 * s * s)
        return coefficients

    def factor(self, xi: np.ndarray) -> np.ndarray:
        """Exact lognormal multiplication factor for germ values ``xi``."""
        s = self.lognormal_sigma
        shift = -0.5 * s * s if self.mean_preserving else 0.0
        return np.exp(s * np.asarray(xi, dtype=float) + shift)


class RegionLeakageExcitation(StochasticExcitation):
    """Excitation with per-region lognormal leakage currents.

    ``U(t, xi) = G1*VDD - i_switch(t) - sum_r leak_r * factor(xi_r)``

    where ``leak_r`` is the nominal leakage current vector of region ``r`` and
    ``factor`` is the lognormal multiplication factor of
    :class:`LeakageVariationSpec`.
    """

    def __init__(
        self,
        stamped: StampedSystem,
        partition: RegionPartition,
        spec: Optional[LeakageVariationSpec] = None,
    ):
        self.spec = spec or LeakageVariationSpec()
        self._stamped = stamped
        self._partition = partition

        region_map = partition.region_map(stamped.node_names)
        leakage_total = stamped.drain_current_vector(
            0.0, include_leakage=True
        ) - stamped.drain_current_vector(0.0, include_leakage=False)
        if not np.any(leakage_total > 0):
            raise VariationModelError(
                "the grid carries no leakage current sources; tag them with "
                "is_leakage=True before building a leakage excitation"
            )

        self._region_leakage: List[np.ndarray] = []
        for region in range(partition.num_regions):
            vector = np.where(region_map == region, leakage_total, 0.0)
            self._region_leakage.append(vector)
        unassigned = leakage_total.copy()
        for vector in self._region_leakage:
            unassigned = unassigned - vector
        #: leakage on nodes outside every region stays deterministic
        self._unassigned_leakage = unassigned

    # ----------------------------------------------------------------- sizes
    @property
    def num_variables(self) -> int:
        return self._partition.num_regions

    @property
    def region_leakage_vectors(self) -> List[np.ndarray]:
        """Nominal leakage current vector of each region."""
        return [vector.copy() for vector in self._region_leakage]

    # ------------------------------------------------------------ evaluation
    def series(self, drains: DrainTables) -> "LeakageSeries":
        # Pad injection minus switching currents minus unassigned leakage.
        switching = drains(self._stamped, include_leakage=False)
        deterministic = (
            self._stamped.pad_current[None, :] - switching - self._unassigned_leakage[None, :]
        )
        return LeakageSeries(deterministic, self)


class LeakageSeries(ExcitationSeries):
    """:class:`RegionLeakageExcitation` over one time axis.

    The region leakage vectors are constant in time, so only the
    deterministic part is a ``(T, n)`` table; they are broadcast over it.
    """

    def __init__(self, deterministic: np.ndarray, excitation: RegionLeakageExcitation):
        self.deterministic = deterministic
        self.spec = excitation.spec
        self.num_variables = excitation.num_variables
        self.region_leakage = excitation._region_leakage

    def sample(self, xi: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.num_variables,):
            raise VariationModelError(f"xi must have shape ({self.num_variables},), got {xi.shape}")
        value = self.deterministic
        factors = self.spec.factor(xi)
        # A partition has at least one region, so ``out`` is always written.
        for region, vector in enumerate(self.region_leakage):
            value = np.subtract(value, factors[region] * vector, out=out)
        return value

    def pc_coefficients(self, basis) -> Dict[int, np.ndarray]:
        max_degree = basis.order
        hermite = self.spec.hermite_coefficients(max_degree)
        shape = self.deterministic.shape

        coefficients: Dict[int, np.ndarray] = {}
        mean = self.deterministic
        for vector in self.region_leakage:
            mean = mean - hermite[0] * vector
        coefficients[0] = mean

        for region, vector in enumerate(self.region_leakage):
            for degree in range(1, max_degree + 1):
                multi_index = tuple(
                    degree if dim == region else 0 for dim in range(self.num_variables)
                )
                index = basis.index_of(multi_index)
                contribution = np.broadcast_to(-hermite[degree] * vector, shape)
                if index in coefficients:
                    coefficients[index] = coefficients[index] + contribution
                else:
                    coefficients[index] = contribution.copy()
        return coefficients


def build_leakage_system(
    stamped: StampedSystem,
    partition: RegionPartition,
    spec: Optional[LeakageVariationSpec] = None,
) -> StochasticSystem:
    """Build the Section-5.1 special-case system: deterministic G and C,
    stochastic (lognormal, per-region) leakage currents on the right-hand side."""
    excitation = RegionLeakageExcitation(stamped, partition, spec)
    variables = tuple(
        GermVariable(name=f"xi_vth_r{region}", family="hermite")
        for region in range(partition.num_regions)
    )
    return StochasticSystem(
        variables=variables,
        g_nominal=stamped.conductance,
        c_nominal=stamped.capacitance,
        g_sensitivities={},
        c_sensitivities={},
        excitation=excitation,
        vdd=stamped.vdd,
        node_names=stamped.node_names,
    )
