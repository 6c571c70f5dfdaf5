"""Reduced objective P(omega1, omega2) via analytic elimination of the linear coefficients.

The constrained fit is separable: at fixed frequencies the envelope
coefficients and the mean offset solve a small linear least-squares problem.
Eliminating the two coupling constraints leaves either

* the general case: two basis vectors ``v1, v2`` plus the constant vector,
  solved through a 3x3 Gram system for ``(b1, b2, pbar)`` with ``a1, a2``
  recovered in closed form, or
* the degenerate case: frequency pairs on the lattice where
  ``cos(omega1*T0) * cos(omega2*(T-T0)) = 1`` and the constraint matrix loses
  rank. There the constraints collapse to ``a1 = -a2`` (odd-multiple branch)
  or ``a1 = a2`` (even-multiple branch) and a 4x4 Gram system over
  ``(a1, b1, b2, pbar)`` applies.

``objective_p`` returns the residual sum of squares of the optimal fit; it is
the function the outer search minimizes over the frequency plane.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .model import FreqPair, SampledCycle

# Degeneracy neighborhood on |1 - cos(omega1*T0)*cos(omega2*(T-T0))|: within it
# the closed-form elimination divides by a vanishing quantity, so the lattice
# solve is used instead.
EPSILON_DEGENERATE = 1e-8

# Gram systems with a condition estimate above this raise GramConditioningError.
CONDITION_LIMIT = 1e12

# Uniform draws Domain.draw tries before it declares the accepted set empty.
MAX_DRAWS = 10_000

_T = TypeVar("_T")


class Case(enum.Enum):
    """Which elimination applies at a frequency pair."""

    GENERAL = "general"
    GAMMA1 = "gamma1"  # omega1*T0 and omega2*(T-T0) both odd multiples of pi
    GAMMA2 = "gamma2"  # both even multiples of pi

    @property
    def degenerate(self) -> bool:
        return self is not Case.GENERAL


class DegenerateFrequencyError(ValueError):
    """General-case elimination requested at (or too close to) a lattice node."""


class GramConditioningError(RuntimeError):
    """The Gram system is singular or too ill-conditioned to trust.

    Carries the condition estimate in ``condition``; callers running a search
    treat the objective as +inf at such points.
    """

    def __init__(self, condition: float):
        super().__init__(f"Gram matrix condition estimate {condition:.3e} exceeds limit")
        self.condition = condition


class InfeasibleDomainError(ValueError):
    """Rejection sampling found no acceptable point in a domain within MAX_DRAWS draws."""


@dataclass(frozen=True)
class Domain:
    """Closed rectangle in the dimensionless frequency plane (u1, u2)."""

    u1_min: float = 0.5
    u1_max: float = 1.5
    u2_min: float = 0.5
    u2_max: float = 3.0

    def __post_init__(self) -> None:
        if not (0.0 < self.u1_min < self.u1_max and 0.0 < self.u2_min < self.u2_max):
            raise ValueError(f"invalid domain rectangle {self}")

    def contains(self, u1: float, u2: float) -> bool:
        return self.u1_min <= u1 <= self.u1_max and self.u2_min <= u2 <= self.u2_max

    def draw(self, rng: np.random.Generator, accept: Callable[[float, float], _T | None]) -> _T:
        """First non-None ``accept(u1, u2)`` over uniform draws from the rectangle.

        Each attempt draws u1, then u2, from ``rng``; ``accept`` may draw more.
        Raises InfeasibleDomainError once MAX_DRAWS attempts found nothing.
        """
        for _ in range(MAX_DRAWS):
            u1 = rng.uniform(self.u1_min, self.u1_max)
            u2 = rng.uniform(self.u2_min, self.u2_max)
            found = accept(u1, u2)
            if found is not None:
                return found
        raise InfeasibleDomainError(f"no acceptable point in {self} after {MAX_DRAWS} draws")


#: Default search rectangle: physiological minimizers fall in this window.
DEFAULT_DOMAIN = Domain(0.5, 1.5, 0.5, 3.0)


@dataclass(frozen=True)
class LatticeNode:
    """One node of the degenerate lattice.

    On the odd branch (``Case.GAMMA1``) the dimensionless coordinates are
    ``(2*k1 + 1, 2*k2 + 1)``; on the even branch (``Case.GAMMA2``) they are
    ``(2*k1, 2*k2)``. ``omega1``/``omega2`` are the rad/s frequencies for the
    geometry the node was enumerated with.
    """

    k1: int
    k2: int
    branch: Case
    omega1: float
    omega2: float

    @property
    def u1(self) -> int:
        return 2 * self.k1 + 1 if self.branch is Case.GAMMA1 else 2 * self.k1

    @property
    def u2(self) -> int:
        return 2 * self.k2 + 1 if self.branch is Case.GAMMA1 else 2 * self.k2


@dataclass(frozen=True, eq=False)
class BasisVectors:
    """Basis spanning the constraint-eliminated model at fixed frequencies.

    General case: the span is ``b1*v1 + b2*v2 + pbar*1``. Degenerate case:
    ``v1``/``v2`` hold the sine half-vectors (disjoint supports) and ``w0``
    carries the cosine vector, so the span is ``a1*w0 + b1*v1 + b2*v2 + pbar*1``.
    """

    case: Case
    v1: np.ndarray
    v2: np.ndarray
    w0: np.ndarray | None = None


@dataclass(frozen=True)
class InnerSolution:
    """Optimal linear coefficients at fixed frequencies and the attained objective.

    ``objective_value`` is the residual sum of squares of the fit;
    ``gram_condition`` is the 2-norm condition estimate of the Gram system
    that produced the coefficients.
    """

    case: Case
    a1: float
    a2: float
    b1: float
    b2: float
    pbar: float
    objective_value: float
    gram_condition: float


def _nearest_odd(x: float) -> int:
    return max(2 * round((x - 1.0) / 2.0) + 1, 1)


def _nearest_even(x: float) -> int:
    return max(2 * round(x / 2.0), 2)


def nearest_node_dimensionless(u1: float, u2: float) -> tuple[int, int, Case]:
    """Nearest lattice node to (u1, u2) in Euclidean distance; ties go to the odd branch."""
    odd = (_nearest_odd(u1), _nearest_odd(u2))
    even = (_nearest_even(u1), _nearest_even(u2))
    d_odd = math.hypot(u1 - odd[0], u2 - odd[1])
    d_even = math.hypot(u1 - even[0], u2 - even[1])
    if d_odd <= d_even:
        return odd[0], odd[1], Case.GAMMA1
    return even[0], even[1], Case.GAMMA2


def node_distance(u1: float, u2: float) -> float:
    """Dimensionless Euclidean distance from (u1, u2) to the nearest lattice node."""
    n1, n2, _ = nearest_node_dimensionless(u1, u2)
    return math.hypot(u1 - n1, u2 - n2)


def classify(
    freqs: FreqPair, T0: float, T: float, eps: float = EPSILON_DEGENERATE
) -> Case:
    """Decide which elimination applies at ``freqs`` for the given geometry.

    Degenerate when ``|1 - cos(omega1*T0)*cos(omega2*(T-T0))| <= eps``, with
    the branch chosen by the nearest lattice node; general otherwise.
    """
    cc = math.cos(freqs.omega1 * T0) * math.cos(freqs.omega2 * (T - T0))
    if abs(1.0 - cc) <= eps:
        u1, u2 = freqs.dimensionless(T0, T)
        return nearest_node_dimensionless(u1, u2)[2]
    return Case.GENERAL


def reduce_constraints(
    freqs: FreqPair,
    b1: float,
    b2: float,
    T0: float,
    T: float,
    eps: float = EPSILON_DEGENERATE,
) -> tuple[float, float]:
    """Closed-form ``(a1, a2)`` that satisfy both coupling constraints given ``(b1, b2)``.

    Only valid in the general case; raises DegenerateFrequencyError when the
    eliminating denominator ``1 - cos(omega1*T0)*cos(omega2*(T-T0))`` is within
    ``eps`` of zero, in which case the caller should use the lattice solve.
    """
    dT = T - T0
    cos1 = math.cos(freqs.omega1 * T0)
    sin1 = math.sin(freqs.omega1 * T0)
    cos2 = math.cos(freqs.omega2 * dT)
    sin2 = math.sin(freqs.omega2 * dT)
    denom = 1.0 - cos1 * cos2
    if abs(denom) <= eps:
        raise DegenerateFrequencyError(
            f"frequencies lie on the degenerate lattice (denominator {denom:.3e}); "
            "use the lattice solve"
        )
    a1 = (b1 * sin1 * cos2 + b2 * sin2) / denom
    a2 = (b1 * sin1 + b2 * cos1 * sin2) / denom
    return a1, a2


def build_basis(
    freqs: FreqPair, cycle: SampledCycle, eps: float = EPSILON_DEGENERATE
) -> BasisVectors:
    """Construct the constraint-eliminated basis vectors for a cycle at ``freqs``."""
    case = classify(freqs, cycle.T0, cycle.T, eps)
    c1 = np.cos(freqs.omega1 * cycle.t1)
    s1 = np.sin(freqs.omega1 * cycle.t1)
    c2 = np.cos(freqs.omega2 * cycle.t2)
    s2 = np.sin(freqs.omega2 * cycle.t2)
    if case is Case.GENERAL:
        dT = cycle.T - cycle.T0
        cos1 = math.cos(freqs.omega1 * cycle.T0)
        sin1 = math.sin(freqs.omega1 * cycle.T0)
        cos2 = math.cos(freqs.omega2 * dT)
        sin2 = math.sin(freqs.omega2 * dT)
        denom = 1.0 - cos1 * cos2
        v1 = np.concatenate([(sin1 * cos2 / denom) * c1 + s1, (sin1 / denom) * c2])
        v2 = np.concatenate([(sin2 / denom) * c1, (cos1 * sin2 / denom) * c2 + s2])
        return BasisVectors(case=case, v1=v1, v2=v2)
    # Degenerate: sine half-vectors with disjoint supports, plus the cosine
    # vector whose diastolic block flips sign on the odd branch (a2 = -a1).
    zeros1 = np.zeros(cycle.m)
    zeros2 = np.zeros(cycle.n)
    w1 = np.concatenate([s1, zeros1])
    w2 = np.concatenate([zeros2, s2])
    bottom = -c2 if case is Case.GAMMA1 else c2
    w0 = np.concatenate([c1, bottom])
    return BasisVectors(case=case, v1=w1, v2=w2, w0=w0)


def _checked_solve(gram: np.ndarray, rhs: np.ndarray, cond_max: float) -> tuple[np.ndarray, float]:
    condition = float(np.linalg.cond(gram))
    if not math.isfinite(condition) or condition > cond_max:
        raise GramConditioningError(condition)
    try:
        solution = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise GramConditioningError(float("inf")) from None
    return solution, condition


def solve_inner(
    freqs: FreqPair,
    cycle: SampledCycle,
    eps: float = EPSILON_DEGENERATE,
    cond_max: float = CONDITION_LIMIT,
) -> InnerSolution:
    """Exact minimizer of the fixed-frequency least-squares fit.

    Solves the normal equations of the constraint-eliminated problem (3x3 in
    the general case, 4x4 on the lattice) and returns all five model
    coefficients together with the attained residual sum of squares.

    Raises GramConditioningError when the Gram condition estimate exceeds
    ``cond_max``.
    """
    basis = build_basis(freqs, cycle, eps)
    f = cycle.samples
    size = float(f.size)
    f_sum = float(f.sum())
    v1, v2 = basis.v1, basis.v2
    v1v1, v1v2, v2v2 = v1 @ v1, v1 @ v2, v2 @ v2
    v1_sum, v2_sum = v1.sum(), v2.sum()
    if basis.case is Case.GENERAL:
        gram = np.array(
            [
                [v1v1, v1v2, v1_sum],
                [v1v2, v2v2, v2_sum],
                [v1_sum, v2_sum, size],
            ]
        )
        rhs = np.array([v1 @ f, v2 @ f, f_sum])
        (b1, b2, pbar), condition = _checked_solve(gram, rhs, cond_max)
        a1, a2 = reduce_constraints(freqs, b1, b2, cycle.T0, cycle.T, eps)
        residual = b1 * v1 + b2 * v2 + pbar - f
    else:
        w0 = basis.w0
        assert w0 is not None
        w0v1, w0v2, w0_sum = w0 @ v1, w0 @ v2, w0.sum()
        gram = np.array(
            [
                [w0 @ w0, w0v1, w0v2, w0_sum],
                [w0v1, v1v1, v1v2, v1_sum],
                [w0v2, v1v2, v2v2, v2_sum],
                [w0_sum, v1_sum, v2_sum, size],
            ]
        )
        rhs = np.array([w0 @ f, v1 @ f, v2 @ f, f_sum])
        (a1, b1, b2, pbar), condition = _checked_solve(gram, rhs, cond_max)
        a2 = -a1 if basis.case is Case.GAMMA1 else a1
        residual = a1 * w0 + b1 * v1 + b2 * v2 + pbar - f
    objective_value = float(residual @ residual)
    return InnerSolution(
        case=basis.case,
        a1=float(a1),
        a2=float(a2),
        b1=float(b1),
        b2=float(b2),
        pbar=float(pbar),
        objective_value=objective_value,
        gram_condition=condition,
    )


def objective_p(
    freqs: FreqPair,
    cycle: SampledCycle,
    eps: float = EPSILON_DEGENERATE,
    cond_max: float = CONDITION_LIMIT,
) -> float:
    """Residual sum of squares of the optimal fit at ``freqs``; +inf if unsolvable.

    This is the reduced objective the outer search minimizes. Conditioning
    failures are mapped to the +inf sentinel rather than raised.
    """
    try:
        return solve_inner(freqs, cycle, eps, cond_max).objective_value
    except GramConditioningError:
        return float("inf")


def valley_skew(freqs: FreqPair, cycle: SampledCycle, h: float = 0.01) -> float:
    """Off-axis coupling |H12| / sqrt(H11*H22) of the objective's local curvature.

    Estimated by central differences in dimensionless coordinates around
    ``freqs``. Values near 0 mean the local landscape separates along the two
    frequency axes; values near 1 mean a diagonal valley, which coordinate
    search localizes poorly. Returns 1.0 when the curvature estimate is not
    positive definite (saddle, ridge, or dominated by rounding).
    """
    u1, u2 = freqs.dimensionless(cycle.T0, cycle.T)

    def p_at(a: float, b: float) -> float:
        return objective_p(FreqPair.from_dimensionless(a, b, cycle.T0, cycle.T), cycle)

    center = p_at(u1, u2)
    h11 = (p_at(u1 + h, u2) - 2.0 * center + p_at(u1 - h, u2)) / h**2
    h22 = (p_at(u1, u2 + h) - 2.0 * center + p_at(u1, u2 - h)) / h**2
    h12 = (
        p_at(u1 + h, u2 + h)
        - p_at(u1 + h, u2 - h)
        - p_at(u1 - h, u2 + h)
        + p_at(u1 - h, u2 - h)
    ) / (4.0 * h**2)
    if not (h11 > 0.0 and h22 > 0.0) or not math.isfinite(h12):
        return 1.0
    return abs(h12) / math.sqrt(h11 * h22)


def centered_energy(cycle: SampledCycle) -> float:
    """Sum of squares of the mean-removed samples; upper bound for the objective."""
    centered = cycle.samples - cycle.samples.mean()
    return float(centered @ centered)


def normalized_objective(p_value: float, cycle: SampledCycle) -> float:
    """Objective value divided by the cycle's centered energy (0 for a flat cycle fit)."""
    denom = centered_energy(cycle)
    if denom == 0.0:
        return 0.0 if p_value == 0.0 else float("inf")
    return p_value / denom


def enumerate_nodes(T0: float, T: float, domain: Domain) -> list[LatticeNode]:
    """All lattice nodes whose dimensionless coordinates fall inside the closed rectangle."""
    dT = T - T0

    def ints_in(lo: float, hi: float, parity: int) -> list[int]:
        # parity 1 -> odd integers >= 1, parity 0 -> even integers >= 2
        start = max(math.ceil(lo), 1 if parity == 1 else 2)
        if start % 2 != parity % 2:
            start += 1
        return list(range(start, math.floor(hi) + 1, 2))

    nodes: list[LatticeNode] = []
    for u1 in ints_in(domain.u1_min, domain.u1_max, 1):
        for u2 in ints_in(domain.u2_min, domain.u2_max, 1):
            nodes.append(
                LatticeNode(
                    k1=(u1 - 1) // 2,
                    k2=(u2 - 1) // 2,
                    branch=Case.GAMMA1,
                    omega1=u1 * math.pi / T0,
                    omega2=u2 * math.pi / dT,
                )
            )
    for u1 in ints_in(domain.u1_min, domain.u1_max, 0):
        for u2 in ints_in(domain.u2_min, domain.u2_max, 0):
            nodes.append(
                LatticeNode(
                    k1=u1 // 2,
                    k2=u2 // 2,
                    branch=Case.GAMMA2,
                    omega1=u1 * math.pi / T0,
                    omega2=u2 * math.pi / dT,
                )
            )
    nodes.sort(key=lambda node: (node.u1, node.u2, node.branch.value))
    return nodes
