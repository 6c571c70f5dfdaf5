"""Piecewise-sinusoidal cycle model: domain types, evaluation, synthetic generators.

A single cardiac cycle is modeled as two coupled sinusoids sharing a mean
offset: one over systole (before the dicrotic notch) and one over diastole
(after it), tied together by a continuity condition at the notch and a
periodicity condition at the cycle end. This module owns the sampled-cycle
and parameter types, evaluates the model on a uniform grid, checks the two
coupling constraints, and generates synthetic test signals, including a
damped multi-harmonic form useful as a more realistic signal source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


class InvalidParameterError(ValueError):
    """Model parameters are non-finite, out of range, or break the coupling constraints."""


class InvalidSpecError(ValueError):
    """A harmonic series description is empty or malformed."""


def _as_finite_float(value, name: str) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return out


class SegmentPlan(NamedTuple):
    """One segment's fixed inputs to the moment kernel (see ``SampledCycle.segment_plans``)."""

    first: int  # time index of the first sample: 0 systolic, 1 diastolic
    count: int  # samples in the segment, n or m
    end: float  # segment-local time of the segment end, T0 or T - T0
    block: np.ndarray  # A x B complex block of the centered samples
    height: int  # A, the rows of the block
    exponents: np.ndarray  # 1j*B*a for a < A, then 1j*b for b < B
    dt: float


@dataclass(frozen=True, eq=False)
class SampledCycle:
    """One uniformly sampled cardiac cycle split at the dicrotic notch.

    The first ``n`` samples cover systole on the grid ``0, dt, ..., (n-1)*dt``
    and the remaining ``m`` samples cover diastole on the segment-local grid
    ``dt, 2*dt, ..., m*dt``. The notch time is therefore ``T0 = (n-1)*dt`` and
    the cycle period is ``T = T0 + m*dt``.

    Instances are immutable: the sample array is copied and marked read-only.

    Parameters
    ----------
    samples : array_like
        Pressure samples, length ``n + m``. Uncalibrated units are fine.
    dt : float
        Sampling interval in seconds, > 0.
    n, m : int
        Systolic and diastolic sample counts, each >= 3 so that both
        segments overdetermine their two or three free coefficients.
    """

    samples: np.ndarray
    dt: float
    n: int
    m: int

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 1:
            raise InvalidParameterError("samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise InvalidParameterError("samples must all be finite")
        dt = _as_finite_float(self.dt, "dt")
        if dt <= 0.0:
            raise InvalidParameterError(f"dt must be > 0, got {dt}")
        n = int(self.n)
        m = int(self.m)
        if n < 3 or m < 3:
            raise InvalidParameterError(f"need n >= 3 and m >= 3, got n={n}, m={m}")
        if samples.size != n + m:
            raise InvalidParameterError(
                f"samples has length {samples.size}, expected n + m = {n + m}"
            )
        samples.setflags(write=False)
        t1 = dt * np.arange(n)
        t2 = dt * np.arange(1, m + 1)
        t1.setflags(write=False)
        t2.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_t1", t1)
        object.__setattr__(self, "_t2", t2)

    @property
    def T0(self) -> float:
        """Notch time (n-1)*dt."""
        return (self.n - 1) * self.dt

    @property
    def T(self) -> float:
        """Cycle period T0 + m*dt."""
        return (self.n - 1 + self.m) * self.dt

    @property
    def t1(self) -> np.ndarray:
        """Systolic time grid 0..T0 (length n, read-only)."""
        return self._t1  # type: ignore[attr-defined]

    @property
    def t2(self) -> np.ndarray:
        """Diastolic segment-local time grid dt..T-T0 (length m, read-only)."""
        return self._t2  # type: ignore[attr-defined]

    @cached_property
    def mean(self) -> float:
        """Mean of the samples, computed on first use."""
        return float(self.samples.mean())

    @cached_property
    def centered(self) -> np.ndarray:
        """Samples minus their mean (read-only), computed on first use."""
        centered = self.samples - self.mean
        centered.setflags(write=False)
        return centered

    @cached_property
    def centered_energy(self) -> float:
        """Sum of squares of the centered samples, computed on first use."""
        return float(self.centered @ self.centered)

    @cached_property
    def segment_plans(self) -> tuple[SegmentPlan, SegmentPlan]:
        """What the moment kernel reads of segment 0 (systole) and 1 (diastole).

        Each :class:`SegmentPlan` holds the centered samples as an A x B complex
        block: entry ``[a, b]`` is the centered sample at time index
        ``k = B*a + b``, i.e. at ``t = k*dt`` on that segment's grid. Systole
        fills ``k = 0 .. n-1``, diastole ``k = 1 .. m``, and the remaining slots
        are zero. With ``B = isqrt(max(n, m + 1))``, ``sum_k f_c[k] *
        exp(1j*theta*k)`` is ``e_a . block . e_b`` for ``e_a = exp(1j*theta*B*a)``
        and ``e_b = exp(1j*theta*b)``, which takes A + B exponentials instead of
        one per sample. The exponent vector, shared by both plans, holds
        ``1j*B*a`` for ``a < A``, then ``1j*b`` for ``b < B``. Computed on first
        use; the arrays are read-only.
        """
        length = max(self.n, self.m + 1)
        width = math.isqrt(length)
        height = -(-length // width)
        blocks = np.zeros((2, height * width), dtype=complex)
        blocks[0, : self.n] = self.centered[: self.n]
        blocks[1, 1 : self.m + 1] = self.centered[self.n :]
        blocks = blocks.reshape(2, height, width)
        exponents = 1j * np.concatenate((width * np.arange(height), np.arange(width)))
        blocks.setflags(write=False)
        exponents.setflags(write=False)
        return (
            SegmentPlan(0, self.n, self.T0, blocks[0], height, exponents, self.dt),
            SegmentPlan(1, self.m, self.T - self.T0, blocks[1], height, exponents, self.dt),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampledCycle):
            return NotImplemented
        return (
            self.dt == other.dt
            and self.n == other.n
            and self.m == other.m
            and np.array_equal(self.samples, other.samples)
        )

    def __repr__(self) -> str:
        return (
            f"SampledCycle(n={self.n}, m={self.m}, dt={self.dt}, "
            f"T0={self.T0:.6g}, T={self.T:.6g})"
        )


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the two-segment sinusoidal model.

    ``a1, b1`` and ``a2, b2`` are the systolic and diastolic envelope
    coefficients, ``pbar`` the shared mean-pressure offset, and
    ``omega1, omega2`` the two angular frequencies in rad/s.

    Construction validates finiteness and positivity of the frequencies only.
    The continuity and periodicity constraints depend on the cycle geometry
    (T0, T), which this type does not carry; use :func:`constraint_residuals`
    or :func:`check_constraints` with a concrete geometry.
    """

    a1: float
    b1: float
    a2: float
    b2: float
    pbar: float
    omega1: float
    omega2: float

    def __post_init__(self) -> None:
        for name in ("a1", "b1", "a2", "b2", "pbar", "omega1", "omega2"):
            object.__setattr__(self, name, _as_finite_float(getattr(self, name), name))
        if self.omega1 <= 0.0 or self.omega2 <= 0.0:
            raise InvalidParameterError(
                f"frequencies must be > 0, got omega1={self.omega1}, omega2={self.omega2}"
            )

    @property
    def envelope_scale(self) -> float:
        """max(|a1|, |b1|, |a2|, |b2|, 1); reference scale for residual tolerances."""
        return max(abs(self.a1), abs(self.b1), abs(self.a2), abs(self.b2), 1.0)

    @property
    def freqs(self) -> "FreqPair":
        return FreqPair(self.omega1, self.omega2)


@dataclass(frozen=True)
class FreqPair:
    """A candidate frequency pair (omega1, omega2) in rad/s, both > 0."""

    omega1: float
    omega2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega1", _as_finite_float(self.omega1, "omega1"))
        object.__setattr__(self, "omega2", _as_finite_float(self.omega2, "omega2"))
        if self.omega1 <= 0.0 or self.omega2 <= 0.0:
            raise InvalidParameterError(
                f"frequencies must be > 0, got ({self.omega1}, {self.omega2})"
            )

    def dimensionless(self, T0: float, T: float) -> tuple[float, float]:
        """Return (u1, u2) = (omega1*T0/pi, omega2*(T-T0)/pi) for a cycle geometry."""
        return self.omega1 * T0 / math.pi, self.omega2 * (T - T0) / math.pi

    @classmethod
    def from_dimensionless(cls, u1: float, u2: float, T0: float, T: float) -> "FreqPair":
        """Build the rad/s pair whose dimensionless coordinates are (u1, u2)."""
        return cls(u1 * math.pi / T0, u2 * math.pi / (T - T0))

    def bpm(self) -> tuple[float, float]:
        """Both frequencies converted to beats per minute, 60*omega/(2*pi)."""
        return (60.0 * self.omega1 / (2.0 * math.pi), 60.0 * self.omega2 / (2.0 * math.pi))


@dataclass(frozen=True)
class HarmonicSeriesSpec:
    """Damped multi-harmonic signal description, one term list per segment.

    Each term is a ``(amp_sin, amp_cos, omega)`` triple; the generated signal is

        p(t) = pbar + exp(-damping_ratio * t) * sum_k(amp_sin_k * sin(omega_k * t)
                                                      + amp_cos_k * cos(omega_k * t))

    evaluated with the systolic term list before the notch and the diastolic
    list after it (in absolute cycle time). ``damping_ratio = 0`` gives the
    undamped form.
    """

    pbar: float
    damping_ratio: float
    systolic_terms: tuple[tuple[float, float, float], ...]
    diastolic_terms: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pbar", _as_finite_float(self.pbar, "pbar"))
        damping = _as_finite_float(self.damping_ratio, "damping_ratio")
        if damping < 0.0:
            raise InvalidSpecError(f"damping_ratio must be >= 0, got {damping}")
        object.__setattr__(self, "damping_ratio", damping)
        for attr in ("systolic_terms", "diastolic_terms"):
            raw = getattr(self, attr)
            terms = tuple(
                (float(amp_sin), float(amp_cos), float(omega)) for amp_sin, amp_cos, omega in raw
            )
            if not terms:
                raise InvalidSpecError(f"{attr} must contain at least one term")
            for amp_sin, amp_cos, omega in terms:
                if not (math.isfinite(amp_sin) and math.isfinite(amp_cos) and math.isfinite(omega)):
                    raise InvalidSpecError(f"non-finite entry in {attr}")
                if omega <= 0.0:
                    raise InvalidSpecError(f"term frequencies must be > 0, got {omega}")
            object.__setattr__(self, attr, terms)


def grid_counts(T0: float, T: float, dt: float) -> tuple[int, int]:
    """Sample counts (n, m) for a cycle of period T with notch at T0, grid step dt.

    T0 is snapped to the nearest grid point, so n = round(T0/dt) + 1 and
    m = round((T - T0)/dt); callers that need the applied rounding can compare
    (n-1)*dt against the supplied T0.
    """
    if dt <= 0.0 or not math.isfinite(dt):
        raise InvalidParameterError(f"dt must be finite and > 0, got {dt}")
    if not (0.0 < T0 < T):
        raise InvalidParameterError(f"need 0 < T0 < T, got T0={T0}, T={T}")
    n = int(round(T0 / dt)) + 1
    m = int(round((T - T0) / dt))
    return n, m


def evaluate_model(params: ModelParams, dt: float, n: int, m: int) -> np.ndarray:
    """Evaluate the two-segment model on the uniform cycle grid.

    Returns the length ``n + m`` vector whose first ``n`` entries are
    ``a1*cos(omega1*t) + b1*sin(omega1*t) + pbar`` on the systolic grid
    ``0..(n-1)*dt`` and whose last ``m`` entries are the diastolic sinusoid on
    the segment-local grid ``dt..m*dt``. Linear in (a1, b1, a2, b2, pbar) at
    fixed frequencies.
    """
    if n < 1 or m < 1:
        raise InvalidParameterError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if dt <= 0.0 or not math.isfinite(dt):
        raise InvalidParameterError(f"dt must be finite and > 0, got {dt}")
    return _evaluate_on(params, dt * np.arange(n), dt * np.arange(1, m + 1))


def _evaluate_on(params: ModelParams, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """:func:`evaluate_model` on given systolic and diastolic time grids, unchecked."""
    n = t1.size
    out = np.empty(n + t2.size)
    out[:n] = params.a1 * np.cos(params.omega1 * t1) + params.b1 * np.sin(params.omega1 * t1)
    out[n:] = params.a2 * np.cos(params.omega2 * t2) + params.b2 * np.sin(params.omega2 * t2)
    out += params.pbar
    return out


def constraint_residuals(params: ModelParams, T0: float, T: float) -> tuple[float, float]:
    """Left-minus-right residuals of the two coupling constraints.

    The continuity residual compares the systolic sinusoid at the notch
    against ``a2``; the periodicity residual compares ``a1`` against the
    diastolic sinusoid at its segment end ``T - T0``. Both are exactly zero
    for a parameter set that satisfies the constrained model.
    """
    dT = T - T0
    continuity = (
        params.a1 * math.cos(params.omega1 * T0)
        + params.b1 * math.sin(params.omega1 * T0)
        - params.a2
    )
    periodicity = params.a1 - (
        params.a2 * math.cos(params.omega2 * dT) + params.b2 * math.sin(params.omega2 * dT)
    )
    return continuity, periodicity


def check_constraints(params: ModelParams, T0: float, T: float, tol: float = 1e-9) -> None:
    """Raise InvalidParameterError unless both constraint residuals are within tol*scale."""
    continuity, periodicity = constraint_residuals(params, T0, T)
    bound = tol * params.envelope_scale
    if abs(continuity) > bound or abs(periodicity) > bound:
        raise InvalidParameterError(
            "parameters violate the coupling constraints: "
            f"continuity={continuity:.3e}, periodicity={periodicity:.3e}, allowed={bound:.3e}"
        )


def synthesize_cycle(
    params: ModelParams,
    T0: float,
    T: float,
    dt: float,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | int | None = None,
) -> SampledCycle:
    """Sample the constrained model on a uniform grid, optionally adding noise.

    The notch is snapped to the nearest grid point. ``noise_sigma`` is the
    standard deviation of i.i.d. additive Gaussian noise; with ``noise_sigma=0``
    the samples equal :func:`evaluate_model` exactly. Passing a seed (or a
    Generator) makes noisy output deterministic.
    """
    if noise_sigma < 0.0 or not math.isfinite(noise_sigma):
        raise InvalidParameterError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    n, m = grid_counts(T0, T, dt)
    check_constraints(params, (n - 1) * dt, (n - 1 + m) * dt)
    samples = evaluate_model(params, dt, n, m)
    if noise_sigma > 0.0:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        samples = samples + gen.normal(0.0, noise_sigma, size=samples.size)
    return SampledCycle(samples=samples, dt=dt, n=n, m=m)


def synthesize_appendix_cycle(
    spec: HarmonicSeriesSpec, T0: float, T: float, dt: float
) -> SampledCycle:
    """Sample a damped multi-harmonic signal on a uniform cycle grid.

    Unlike :func:`evaluate_model`, both segments are evaluated in absolute
    cycle time: the diastolic terms and the exponential damping factor see
    ``t = T0 + k*dt``, not the segment-local time. The notch is snapped to
    the nearest grid point.
    """
    n, m = grid_counts(T0, T, dt)
    t1 = dt * np.arange(n)
    t2_abs = (n - 1) * dt + dt * np.arange(1, m + 1)

    def segment(terms: tuple[tuple[float, float, float], ...], t: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(t)
        for amp_sin, amp_cos, omega in terms:
            acc += amp_sin * np.sin(omega * t) + amp_cos * np.cos(omega * t)
        if spec.damping_ratio > 0.0:
            acc *= np.exp(-spec.damping_ratio * t)
        return acc

    samples = np.concatenate(
        [segment(spec.systolic_terms, t1), segment(spec.diastolic_terms, t2_abs)]
    )
    samples += spec.pbar
    return SampledCycle(samples=samples, dt=dt, n=n, m=m)
