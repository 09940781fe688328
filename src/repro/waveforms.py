"""Time-domain waveforms used as excitations of the power grid.

Functional blocks are modelled (as in the paper) as *known* transient current
sources.  The classes here provide the waveform shapes used by the synthetic
grid generator and by the transient simulator:

* :class:`Constant` -- a DC value.
* :class:`PiecewiseLinear` -- SPICE-style PWL source.
* :class:`PeriodicPulse` -- trapezoidal periodic pulse (SPICE ``PULSE``).
* :class:`ClockedActivity` -- clock-synchronised triangular current pulses
  whose per-cycle amplitude follows a per-cycle activity factor, mimicking the
  current signatures obtained from logic simulation of functional blocks.
* :class:`Scaled` / :class:`Summed` -- composition helpers.

All waveforms are callables mapping a scalar or ``numpy`` array of times to
values of the same shape.

:class:`WaveformTable` evaluates many waveforms over one time axis at once:
it groups them by class and runs one vectorised kernel per group
(``ClockedActivity`` and ``Constant``); any other class is evaluated as
``w(times)`` per waveform.  ``ClockedActivity.__call__`` runs the same
kernel on a group of one, so both paths share one formula.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Waveform",
    "Constant",
    "PiecewiseLinear",
    "PeriodicPulse",
    "ClockedActivity",
    "Scaled",
    "Summed",
    "WaveformTable",
    "as_waveform",
]


class Waveform(abc.ABC):
    """Abstract time-domain waveform ``w(t)``."""

    @abc.abstractmethod
    def __call__(self, t):
        """Evaluate the waveform at time(s) ``t`` (scalar or array)."""

    def scaled(self, factor: float) -> "Waveform":
        """Return this waveform multiplied by ``factor``."""
        return Scaled(self, float(factor))

    def __mul__(self, factor: float) -> "Waveform":
        return self.scaled(factor)

    __rmul__ = __mul__

    def __add__(self, other: "Waveform") -> "Waveform":
        return Summed((self, as_waveform(other)))

    def max_abs(self, t_end: float, n_samples: int = 2048) -> float:
        """Return the maximum absolute value over ``[0, t_end]`` by sampling."""
        t = np.linspace(0.0, float(t_end), int(n_samples))
        return float(np.max(np.abs(self(t))))


def as_waveform(value) -> Waveform:
    """Coerce a number or waveform into a :class:`Waveform` instance."""
    if isinstance(value, Waveform):
        return value
    return Constant(float(value))


@dataclass(frozen=True)
class Constant(Waveform):
    """A constant (DC) waveform."""

    value: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.value, dtype=float)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Scaled(Waveform):
    """A waveform multiplied by a constant factor."""

    base: Waveform
    factor: float

    def __call__(self, t):
        return self.factor * np.asarray(self.base(t), dtype=float)


@dataclass(frozen=True)
class Summed(Waveform):
    """Point-wise sum of several waveforms."""

    parts: tuple

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        total = np.zeros_like(t, dtype=float)
        for part in self.parts:
            total = total + np.asarray(part(t), dtype=float)
        return total if total.ndim else float(total)


class PiecewiseLinear(Waveform):
    """SPICE-style piecewise-linear waveform.

    Values are held constant before the first and after the last breakpoint.
    """

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise ValueError("times and values must be 1-D sequences of equal length")
        if times.size < 2:
            raise ValueError("a PWL waveform needs at least two breakpoints")
        if np.any(np.diff(times) <= 0):
            raise ValueError("PWL breakpoint times must be strictly increasing")
        self.times = times
        self.values = values

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.times, self.values)
        return out if out.ndim else float(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PiecewiseLinear(n_points={self.times.size})"


@dataclass(frozen=True)
class PeriodicPulse(Waveform):
    """Trapezoidal periodic pulse, equivalent to a SPICE ``PULSE`` source.

    Parameters mirror SPICE: the waveform sits at ``low``, rises linearly to
    ``high`` over ``rise``, stays for ``width``, falls over ``fall``, and
    repeats every ``period`` seconds after an initial ``delay``.
    """

    low: float
    high: float
    delay: float
    rise: float
    fall: float
    width: float
    period: float

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if min(self.rise, self.fall, self.width) < 0:
            raise ValueError("rise, fall and width must be non-negative")
        if self.rise + self.width + self.fall > self.period:
            raise ValueError("rise + width + fall must fit inside one period")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        tau = np.mod(t - self.delay, self.period)
        tau = np.where(t < self.delay, -1.0, tau)

        out = np.full_like(tau, self.low, dtype=float)
        rise_end = self.rise
        width_end = self.rise + self.width
        fall_end = self.rise + self.width + self.fall

        rising = (tau >= 0) & (tau < rise_end)
        if self.rise > 0:
            out = np.where(rising, self.low + (self.high - self.low) * tau / self.rise, out)
        else:
            out = np.where(rising, self.high, out)
        out = np.where((tau >= rise_end) & (tau < width_end), self.high, out)
        falling = (tau >= width_end) & (tau < fall_end)
        if self.fall > 0:
            out = np.where(
                falling,
                self.high - (self.high - self.low) * (tau - width_end) / self.fall,
                out,
            )
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ClockedActivity(Waveform):
    """Clock-synchronised triangular current pulses with per-cycle activity.

    Each clock cycle ``k`` produces a triangular current pulse of peak
    ``peak * activity[k]`` that starts at the cycle boundary, rises for
    ``rise_fraction`` of the cycle and decays back to zero by
    ``duty_fraction`` of the cycle.  This is the shape commonly used to mimic
    the switching-current signature of a logic block: a sharp draw right
    after the clock edge followed by a decay.
    """

    period: float
    peak: float
    activity: tuple = field(default=(1.0,))
    rise_fraction: float = 0.2
    duty_fraction: float = 0.6

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not (0 < self.rise_fraction < self.duty_fraction <= 1.0):
            raise ValueError("need 0 < rise_fraction < duty_fraction <= 1")
        if len(self.activity) == 0:
            raise ValueError("activity must contain at least one factor")
        # A group of one: __call__ runs the same kernel as a source table.
        object.__setattr__(self, "_group", _ClockedActivityGroup((self,)))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self._group(t.reshape(-1)).reshape(t.shape)
        return out if out.ndim else float(out)


def _clocked_activity(t, period, peak, activity, length, rise, duty):
    """The :class:`ClockedActivity` formula for a group of waveforms.

    ``t`` is a ``(1, T)`` row of times; ``period``, ``peak``, ``length``,
    ``rise`` and ``duty`` are ``(G, 1)`` columns, one row per waveform, and
    ``activity`` is the ``(G, max cycles)`` activity table, padded past each
    row's ``length``.  Returns the ``(G, T)`` values.
    """
    cycle = np.floor_divide(t, period).astype(int)
    cycle = np.clip(cycle, 0, None)
    rows = np.arange(activity.shape[0])[:, None]
    amp = peak * activity[rows, np.mod(cycle, length)]

    tau = np.mod(t, period) / period
    shape = np.zeros_like(tau)
    rising = tau < rise
    shape = np.where(rising, tau / rise, shape)
    decaying = (tau >= rise) & (tau < duty)
    shape = np.where(decaying, 1.0 - (tau - rise) / (duty - rise), shape)
    return np.where(t < 0, 0.0, amp * shape)


class _ClockedActivityGroup:
    """Struct-of-arrays parameters of many :class:`ClockedActivity` waveforms."""

    def __init__(self, waveforms: Sequence[ClockedActivity]):
        def column(name):
            return np.array([getattr(w, name) for w in waveforms], dtype=float)[:, None]

        self.period = column("period")
        self.peak = column("peak")
        self.rise = column("rise_fraction")
        self.duty = column("duty_fraction")
        lengths = [len(w.activity) for w in waveforms]
        self.length = np.array(lengths)[:, None]
        self.activity = np.zeros((len(waveforms), max(lengths)))
        for row, waveform in enumerate(waveforms):
            self.activity[row, : lengths[row]] = waveform.activity

    def __call__(self, times: np.ndarray) -> np.ndarray:
        return _clocked_activity(
            times[None, :], self.period, self.peak, self.activity, self.length, self.rise, self.duty
        )


class _ConstantGroup:
    """Many :class:`Constant` waveforms: one broadcast of their values."""

    def __init__(self, waveforms: Sequence[Constant]):
        self.values = np.array([w.value for w in waveforms], dtype=float)[:, None]

    def __call__(self, times: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.values, (self.values.shape[0], times.size))


class _EachWaveform:
    """Waveforms without a group kernel, evaluated as ``w(times)`` one by one."""

    def __init__(self, waveforms: Sequence[Waveform]):
        self.waveforms = tuple(waveforms)

    def __call__(self, times: np.ndarray) -> np.ndarray:
        out = np.empty((len(self.waveforms), times.size))
        for row, waveform in enumerate(self.waveforms):
            out[row] = np.asarray(waveform(times), dtype=float)
        return out


#: Group kernels by *exact* class: a subclass may override ``__call__``, so
#: it is evaluated one by one like every class without a kernel.
_GROUP_KERNELS = {ClockedActivity: _ClockedActivityGroup, Constant: _ConstantGroup}


class WaveformTable:
    """Many waveforms evaluated over a time axis in one pass per class.

    Built once from a sequence of waveforms; calling it with ``times``
    returns the ``(len(waveforms), len(times))`` values, row ``s`` being
    ``waveforms[s](times)``.  Each value equals the scalar ``float(w(t))``
    bit for bit.  A waveform object shared by several entries (a block's
    waveform drives every node of the block) is evaluated once and its row
    copied.  The table holds plain arrays and waveforms, so it pickles.
    """

    def __init__(self, waveforms: Sequence[Waveform]):
        positions = {}
        distinct = []
        index = []
        for waveform in waveforms:
            if id(waveform) not in positions:
                positions[id(waveform)] = len(distinct)
                distinct.append(waveform)
            index.append(positions[id(waveform)])
        #: Row of each entry in the table of distinct waveforms.
        self.index = np.array(index, dtype=int)
        members = {}
        for row, waveform in enumerate(distinct):
            kernel = _GROUP_KERNELS.get(type(waveform), _EachWaveform)
            members.setdefault(kernel, []).append(row)
        self.num_distinct = len(distinct)
        self.groups = tuple(
            (np.array(rows), kernel([distinct[row] for row in rows]))
            for kernel, rows in members.items()
        )

    def __call__(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float).reshape(-1)
        values = np.empty((self.num_distinct, times.size))
        for rows, group in self.groups:
            values[rows] = group(times)
        return values[self.index]
