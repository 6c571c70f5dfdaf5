"""Reduced objective P(omega1, omega2) via analytic elimination of the linear coefficients.

The constrained fit is separable: at fixed frequencies the envelope
coefficients and the mean offset solve a small linear least-squares problem.
Eliminating the two coupling constraints leaves either

* the general case: two basis vectors ``v1, v2`` plus the constant vector,
  solved through the adjugate of a 3x3 Gram system for ``(b1, b2, pbar)``
  with ``a1, a2`` recovered in closed form, or
* the degenerate case: frequency pairs on the lattice where
  ``cos(omega1*T0) * cos(omega2*(T-T0)) = 1`` and the constraint matrix loses
  rank. There both cosines are -1, and ``a1 = -a2`` (odd branch), or both are
  +1, and ``a1 = a2`` (even branch); a 4x4 Gram system over
  ``(a1, b1, b2, pbar)`` applies.

Both systems come from moments (variable projection, Golub & Pereyra 1973),
never from the basis vectors: from nine floats per segment, :func:`segment_terms`
(end-point trig, closed-form trigonometric sums, and blocked phase sums of the
centered samples), which depend on that segment's frequency alone and which
both searches reuse. Only the two phase sums read the samples: the other
seven, and the row of exponentials the phase sums take, are
:func:`geometry_terms` of the segment's sampling geometry and frequency, so
the fast search's kernel shares them between cycles of one geometry through
a bounded memo (``search._Kernel``); every function here computes them
afresh. :func:`objective_from_terms` combines two in O(1) into
``objective_p``, the residual sum of squares of the optimal fit; it checks the
Gram condition against a trace bound first and computes the closed-form
estimate only when the bound is too high; past CONDITION_LIMIT P is +inf.
``solve_inner`` gives the five coefficients from the same systems.
:func:`segment_slopes` adds the derivatives of the nine floats in the
segment's frequency, from which :func:`gradient_from_terms` gives the exact
gradient of P in O(1) (variable projection: ``dP/domega = -2 z . dr + z . dG z``
with ``z = inv(G) r``).

The fast search runs the kernel one frequency at a time, and on inputs this
small Python's call overhead costs as much as the arithmetic, so the kernel
functions are straight-line code: no helper per trig sum, no closure, no
tuple per matrix. :func:`segment_terms` makes one helper call, to
:func:`geometry_terms`, so that the memo and this module share one
implementation. P, the gradient and the solve share one helper,
:func:`_general_system`, which returns the Gram matrix, its adjugate and
determinant, and the right-hand side as one flat tuple. Where two functions
repeat an expression (the closed-form sums in :func:`_closed_terms` and
:func:`segment_slopes`, the trace bound in P and the gradient), the tests
pin each function, bit for bit, to a reference composed of small helpers.
The grid computes every point's terms in batches through
:func:`segment_term_arrays` (the phase sums as array products, the
closed-form sums by the same :func:`_closed_terms`) and combines them
through :func:`objective_from_term_arrays`, the same expressions on numpy
arrays; the tests pin the two to :func:`segment_terms` and
:func:`objective_from_terms` at every element.
``build_basis`` forms the vectors and stays the explicit reference the
moments are checked against.

The closed-form Dirichlet sums live in two bodies: :func:`_closed_terms`,
which :func:`geometry_terms` runs on one omega and :func:`segment_term_arrays`
on a block, and :func:`segment_slopes`. The loop costs :func:`geometry_terms`
3.89 us per call against 3.34 written out in its body (x1.16), and
``objective_p`` 13.8 us against 12.7 (x1.08; process CPU time; CPython 3.11,
numpy 2.4, a shared 2-vCPU host). Where n and m jitter by up to 3 samples
from beat to beat, so that the fast search's memo misses, paired ``fast_if``
CPU read x1.011-1.029, median x1.019, in 6 runs of 120 noisy beats (A/A:
x0.986-1.000). Sharing the sums otherwise was measured slower: a helper call
per grid element took ``brute_force_if`` from 76-79 to 80-85 ms per cycle
(paired x1.03-1.09 on 6 cycles), and :func:`segment_slopes` taking its terms
from :func:`geometry_terms`, and so computing its slopes' trig twice, from
9.4 to 10.9 us per call, at 10 or more calls per ``fast_if``.

The trace-bound gate stays written out in :func:`objective_from_terms` and
:func:`gradient_from_terms` as well. A single gate inside
:func:`_general_system`, returning None past the limit, needs a flag there,
because the solve and the array form must not be gated. Replayed over the
1,019 ``objective_from_terms`` calls of 10 ``recover`` cycles (seed 123500;
a cycle makes 145.1 ``_Kernel.objective`` calls, 43.2 of them hits in its
value memo), it read medians of 1.32 to 1.35 us per call against 1.30 to
1.32 us, paired x1.02 (quartiles x0.99 to x1.06) in 3 runs of 60
alternating blocks: slower, with unchanged values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .model import FreqPair, ModelParams, SampledCycle, SegmentPlan, _evaluate_on

# Degeneracy neighborhood on |1 - cos(omega1*T0)*cos(omega2*(T-T0))|: within it
# the closed-form elimination divides by a vanishing quantity, so the lattice
# solve is used instead.
EPSILON_DEGENERATE = 1e-8

# Gram systems with a condition estimate above this raise GramConditioningError.
CONDITION_LIMIT = 1e12

# Dimensionless radius of the tube around each lattice node that both searches
# exclude: the compass search never steps into one, the grid scan flags its
# points and leaves them out of the argmin.
NODE_EXCLUSION_RADIUS = 0.02

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
    """No acceptable point in a domain: none drawn in MAX_DRAWS tries."""


@dataclass(frozen=True)
class Domain:
    """Closed rectangle in the dimensionless frequency plane (u1, u2)."""

    u1_min: float = 0.5
    u1_max: float = 1.5
    u2_min: float = 0.5
    u2_max: float = 3.0

    def __post_init__(self) -> None:
        if not (0.0 < self.u1_min < self.u1_max < math.inf
                and 0.0 < self.u2_min < self.u2_max < math.inf):
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
DEFAULT_DOMAIN = Domain()


@dataclass(frozen=True)
class LatticeNode:
    """One node of the degenerate lattice, at integer dimensionless coordinates.

    Odd nodes are ``(2*k1 + 1, 2*k2 + 1)`` and lie on the odd branch
    (``Case.GAMMA1``); even nodes are ``(2*k1, 2*k2)`` and lie on the even
    branch (``Case.GAMMA2``). ``omega1``/``omega2`` are the rad/s frequencies
    for the geometry the node was enumerated with.
    """

    u1: int
    u2: int
    omega1: float
    omega2: float

    @property
    def branch(self) -> Case:
        return Case.GAMMA1 if self.u1 % 2 else Case.GAMMA2


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

    ``params`` carries the same coefficients, validated, with the frequencies;
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
    params: ModelParams


def node_distance(u1: float, u2: float) -> float:
    """Dimensionless Euclidean distance from (u1, u2) to the nearest lattice node.

    The odd branch's nearest coordinate is the nearest odd integer, at least 1;
    the even branch's is the nearest even integer, 0 included (its end-point
    cosine is +1, as at every even node). Ties round half to even, as
    ``round`` does. Straight-line code: the search's feasibility test calls
    this wherever both coordinates are near an integer.
    """
    odd1 = 2 * round((u1 - 1.0) / 2.0) + 1
    odd2 = 2 * round((u2 - 1.0) / 2.0) + 1
    odd = math.hypot(u1 - (odd1 if odd1 > 1 else 1), u2 - (odd2 if odd2 > 1 else 1))
    even = math.hypot(u1 - 2 * round(u1 / 2.0), u2 - 2 * round(u2 / 2.0))
    return even if even < odd else odd


def endpoint_trig(freqs: FreqPair, T0: float, T: float) -> tuple[float, float, float, float]:
    """``(cos1, sin1, cos2, sin2)`` of ``omega1*T0`` and ``omega2*(T-T0)``.

    The two coupling constraints read the model only through these four values,
    the same ones :func:`segment_terms` opens with.
    """
    phase1, phase2 = freqs.omega1 * T0, freqs.omega2 * (T - T0)
    return math.cos(phase1), math.sin(phase1), math.cos(phase2), math.sin(phase2)


def _on_lattice(cos1: float, cos2: float) -> bool:
    """``|1 - cos1*cos2| <= EPSILON_DEGENERATE`` for the end-point cosines."""
    return abs(1.0 - cos1 * cos2) <= EPSILON_DEGENERATE


def _case(cos1: float, cos2: float) -> Case:
    """The elimination at end-point cosines ``cos1, cos2``.

    On the lattice both lie within ~1e-8 of -1 (odd branch) or of +1 (even branch).
    """
    if not _on_lattice(cos1, cos2):
        return Case.GENERAL
    return Case.GAMMA1 if cos1 < 0.0 else Case.GAMMA2


def classify(freqs: FreqPair, T0: float, T: float) -> Case:
    """Decide which elimination applies at ``freqs`` for the given geometry.

    Degenerate when ``|1 - cos(omega1*T0)*cos(omega2*(T-T0))|`` is at most
    EPSILON_DEGENERATE: the odd branch where both cosines are near -1, the
    even branch where both are near +1. General otherwise.
    """
    cos1, _, cos2, _ = endpoint_trig(freqs, T0, T)
    return _case(cos1, cos2)


def reduce_constraints(
    freqs: FreqPair, b1: float, b2: float, T0: float, T: float
) -> tuple[float, float]:
    """Closed-form ``(a1, a2)`` that satisfy both coupling constraints given ``(b1, b2)``.

    Only valid in the general case; raises DegenerateFrequencyError when the
    eliminating denominator ``1 - cos(omega1*T0)*cos(omega2*(T-T0))`` is within
    EPSILON_DEGENERATE of zero, in which case the caller should use the lattice
    solve.
    """
    cos1, sin1, cos2, sin2 = endpoint_trig(freqs, T0, T)
    if _on_lattice(cos1, cos2):
        raise DegenerateFrequencyError(
            f"frequencies lie on the degenerate lattice (denominator {1.0 - cos1 * cos2:.3e}); "
            "use the lattice solve"
        )
    return _cosine_coefficients(b1, b2, cos1, sin1, cos2, sin2)


def _cosine_coefficients(
    b1: float, b2: float, cos1: float, sin1: float, cos2: float, sin2: float
) -> tuple[float, float]:
    """:func:`reduce_constraints` from the end-point trig, off the lattice."""
    denom = 1.0 - cos1 * cos2
    a1 = (b1 * sin1 * cos2 + b2 * sin2) / denom
    a2 = (b1 * sin1 + b2 * cos1 * sin2) / denom
    return a1, a2


def build_basis(freqs: FreqPair, cycle: SampledCycle) -> BasisVectors:
    """Construct the constraint-eliminated basis vectors for a cycle at ``freqs``."""
    case = classify(freqs, cycle.T0, cycle.T)
    c1 = np.cos(freqs.omega1 * cycle.t1)
    s1 = np.sin(freqs.omega1 * cycle.t1)
    c2 = np.cos(freqs.omega2 * cycle.t2)
    s2 = np.sin(freqs.omega2 * cycle.t2)
    if case is Case.GENERAL:
        cos1, sin1, cos2, sin2 = endpoint_trig(freqs, cycle.T0, cycle.T)
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


#: Upper triangle (a11, a12, a13, a22, a23, a33) of a symmetric 3x3 matrix.
Sym3 = tuple[float, float, float, float, float, float]
#: The nine floats of :func:`segment_terms`.
SegmentTerms = tuple[float, ...]
#: :func:`geometry_terms`: the two halves of the row of exponentials, and the first seven terms.
GeometryTerms = tuple[np.ndarray, np.ndarray, SegmentTerms]
#: The fifteen floats of :func:`_general_system`: G and adj G as :data:`Sym3`, det G, r1, r2.
GeneralSystem = tuple[float, ...]


def _largest_eigenvalue(a: Sym3) -> float:
    """Largest eigenvalue of a symmetric 3x3 matrix by the trigonometric formula."""
    a11, a12, a13, a22, a23, a33 = a
    q = (a11 + a22 + a33) / 3.0
    b11, b22, b33 = a11 - q, a22 - q, a33 - q
    p2 = (b11 * b11 + b22 * b22 + b33 * b33 + 2.0 * (a12 * a12 + a13 * a13 + a23 * a23)) / 6.0
    if p2 <= 0.0:
        return q
    p = math.sqrt(p2)
    det_b = (
        b11 * (b22 * b33 - a23 * a23)
        - a12 * (a12 * b33 - a23 * a13)
        + a13 * (a12 * a23 - b22 * a13)
    )
    r = min(1.0, max(-1.0, det_b / (2.0 * p2 * p)))
    return q + 2.0 * p * math.cos(math.acos(r) / 3.0)


def _condition(system: GeneralSystem) -> float:
    """2-norm condition number of the Gram matrix G of a :func:`_general_system`, in closed form.

    ``adj G = det G * inv(G)`` has largest eigenvalue ``det G / lambda_min``, so
    the condition is ``lambda_max(G) * lambda_max(adj G) / det G``, each
    largest eigenvalue by the trigonometric formula; +inf when ``det G <= 0``.
    The trigonometric formula's own smallest eigenvalue is not used: it loses
    to cancellation once the condition passes ~1e8.
    """
    det = system[12]
    if not det > 0.0:
        return math.inf
    return _largest_eigenvalue(system[:6]) * _largest_eigenvalue(system[6:12]) / det


def geometry_terms(plan: SegmentPlan, omega: float) -> GeometryTerms:
    """The data-free part of :func:`segment_terms`: ``(left, right, closed)``.

    ``left`` and ``right`` are the two halves, A and B long, of the row of
    exponentials ``exp(theta * plan.exponents)``, and ``closed`` holds the
    first seven of the nine terms (the end-point trig and the five trig sums).
    Of the plan it reads ``first``, ``count``, ``end``, ``height``,
    ``exponents`` and ``dt``, never the samples' ``block``: cycles of one
    sampling geometry (n, m, dt) share the result at a frequency, and only
    the phase sums ``left . block . right`` are the cycle's own.
    """
    first, count, end, _, height, exponents, dt = plan
    theta = omega * dt
    # numpy multiplies a complex array by the float theta as by theta + 0j,
    # but casts a float operand first: the same bits, ~0.1 us sooner
    row = np.exp((theta + 0j) * exponents)
    return row[:height], row[height:], tuple(_closed_terms(first, count, end, (omega,), (theta,)))


def _closed_terms(
    first: int, count: int, end: float, omegas: Sequence[float], thetas: Sequence[float]
) -> list[float]:
    """The seven closed-form terms of :func:`segment_terms` at each omega, in one flat list.

    ``thetas`` holds each ``omega * dt``, and ``first``, ``count`` and ``end``
    are the segment plan's: :func:`geometry_terms` and the grid share this body.
    """
    mid = first + 0.5 * (count - 1)
    closed: list[float] = []
    for omega, theta in zip(omegas, thetas):
        phase = omega * end
        half = 0.5 * theta
        s = math.sin(half)
        if abs(s) < 1e-9:
            d1 = count * math.cos(count * half) / math.cos(half)
        else:
            d1 = math.sin(count * half) / s
        s = math.sin(theta)
        if abs(s) < 1e-9:
            d2 = count * math.cos(count * theta) / math.cos(theta)
        else:
            d2 = math.sin(count * theta) / s
        c2 = d2 * math.cos(2.0 * mid * theta)
        closed += (
            math.cos(phase), math.sin(phase),
            d1 * math.cos(mid * theta), d1 * math.sin(mid * theta),
            0.5 * (count + c2), 0.5 * d2 * math.sin(2.0 * mid * theta), 0.5 * (count - c2),
        )
    return closed


def segment_terms(cycle: SampledCycle, segment: int, omega: float) -> SegmentTerms:
    """The nine floats P reads from segment 0 (systole) or 1 (diastole) at one frequency.

    Systole has ``k = 0 .. n-1`` and ends at ``T0``, diastole ``k = 1 .. m`` and
    ends at ``T - T0``. In order:

    * the cos and sin of the end-point phase ``omega*end``;
    * the sums of cos, sin, cos^2, cos*sin and sin^2 of ``k*theta``
      (``theta = omega*dt``), in closed form: ``sum exp(i*k*x) =
      exp(i*mid*x) * D`` with ``mid = first + (count-1)/2`` and the Dirichlet
      kernel ``D = sin(count*x/2) / sin(x/2)``, at ``x = theta`` and, for the
      squares, at ``x = 2*theta``. Where ``sin(x/2)`` is 0 to rounding, D is
      its limit ``count*cos(count*x/2) / cos(x/2)``, off by O((count*sin(x/2))^2);
    * the sums of ``c*f_c`` and ``s*f_c``, blocked (see
      ``SampledCycle.segment_plans``): with ``k = B*a + b``,
      ``exp(1j*theta*k) = exp(1j*theta*B*a) * exp(1j*theta*b)``, so one
      exponential over A + B angles and one ``e_a . block . e_b`` give both.
      The products are ``ndarray.dot``, not ``@``: numpy runs ``@`` as a
      generalized ufunc, whose dispatch costs more than the arithmetic on
      operands this small, and the two give the same bits here.

    All but the phase sums are data-free: this is :func:`geometry_terms`
    plus ``left . block . right``, which the fast search's kernel also
    computes from a memoised :func:`geometry_terms`. :func:`segment_slopes`
    repeats the closed-form expressions, and the tests pin it and
    :func:`segment_term_arrays`, bit for bit, to this function.
    """
    plan = cycle.segment_plans[segment]
    left, right, closed = geometry_terms(plan, omega)
    sums = complex(left.dot(plan.block).dot(right))
    return closed + (sums.real, sums.imag)


def segment_term_arrays(cycle: SampledCycle, segment: int, omega: np.ndarray) -> np.ndarray:
    """:func:`segment_terms` at every element of the 1-D ``omega``, bit for bit.

    Returns a ``(9, omega.size)`` array: row ``i`` holds term ``i`` of every
    element. The phase sums are batched: one ``np.exp`` over ``(K, A + B)``
    angles, then two stacked ``np.matmul`` products, ``(K, 1, A) @ block``
    and ``(K, 1, B) @ (K, B, 1)``, which round as the scalar's two ``.dot``
    products do (a 2-D gemm or ``einsum`` does not). The seven closed-form
    terms are the scalar's loop, :func:`_closed_terms`, in ``math`` per
    element: numpy does not promise that ``np.sin`` has ``math.sin``'s bits.
    """
    first, count, end, block, height, exponents, dt = cycle.segment_plans[segment]
    theta = omega * dt
    row = np.exp(theta[:, None] * exponents)
    sums = np.matmul(np.matmul(row[:, None, :height], block), row[:, height:, None])
    terms = np.empty((9, omega.size))
    closed = _closed_terms(first, count, end, omega.tolist(), theta.tolist())
    terms[:7] = np.reshape(closed, (omega.size, 7)).T
    terms[7] = sums.real[:, 0, 0]
    terms[8] = sums.imag[:, 0, 0]
    return terms


def segment_slopes(
    cycle: SampledCycle, segment: int, omega: float
) -> tuple[SegmentTerms, SegmentTerms]:
    """:func:`segment_terms`, bit for bit, and the derivative of each term in ``omega``.

    The end-point pair differentiates to ``(-end*sin, end*cos)``. The trig
    sums differentiate to ``dt`` times sums of ``k*cos`` and ``k*sin`` of
    ``k*theta`` and ``2*k*theta``; differentiating the closed form gives
    ``sum k*exp(i*k*x) = exp(i*mid*x) * (mid*D - 0.5j*D')`` with ``D' =
    (count*cos(count*x/2) - D*cos(x/2)) / sin(x/2)``, and where ``sin(x/2)``
    is 0 to rounding the limit ``D' = -D*tan(x/2)*(count^2 - 1)/3`` replaces
    the 0/0. The phase sums, ``sum f_c*exp(1j*k*theta) = e_a . block . e_b``,
    differentiate to ``dt`` times ``de_a . block . e_b + e_a . block . de_b``
    with ``de = 1j*k*e``: the exponent vector times the row of exponentials,
    and two more products with the same block. At ``x = 2*theta``, ``x/2`` is
    ``theta`` and ``mid*x`` is ``2*mid*theta`` exactly, so the slopes reuse
    the terms' trig.
    """
    first, count, end, block, height, exponents, dt = cycle.segment_plans[segment]
    theta = omega * dt
    row = np.exp(theta * exponents)
    left = row[:height].dot(block)
    sums = complex(left.dot(row[height:]))
    d_row = exponents * row
    d_sums = complex(d_row[:height].dot(block).dot(row[height:]) + left.dot(d_row[height:]))
    phase = omega * end
    cos_end, sin_end = math.cos(phase), math.sin(phase)
    mid = first + 0.5 * (count - 1)
    half = 0.5 * theta
    sin_half, cos_half = math.sin(half), math.cos(half)
    if abs(sin_half) < 1e-9:
        d1 = count * math.cos(count * half) / cos_half
        slope1 = -d1 * (count * count - 1) / 3.0 * (sin_half / cos_half)
    else:
        d1 = math.sin(count * half) / sin_half
        slope1 = (count * math.cos(0.5 * count * theta) - d1 * cos_half) / sin_half
    sin_theta, cos_theta = math.sin(theta), math.cos(theta)
    if abs(sin_theta) < 1e-9:
        d2 = count * math.cos(count * theta) / cos_theta
        slope2 = -d2 * (count * count - 1) / 3.0 * (sin_theta / cos_theta)
    else:
        d2 = math.sin(count * theta) / sin_theta
        slope2 = (count * math.cos(count * theta) - d2 * cos_theta) / sin_theta
    cos_mid, sin_mid = math.cos(mid * theta), math.sin(mid * theta)
    cos_mid2, sin_mid2 = math.cos(2.0 * mid * theta), math.sin(2.0 * mid * theta)
    c2 = d2 * cos_mid2
    # sum k*cos(k*x) and sum k*sin(k*x) at x = theta and x = 2*theta
    kc1 = mid * d1 * cos_mid + 0.5 * slope1 * sin_mid
    ks1 = mid * d1 * sin_mid - 0.5 * slope1 * cos_mid
    kc2 = mid * d2 * cos_mid2 + 0.5 * slope2 * sin_mid2
    ks2 = mid * d2 * sin_mid2 - 0.5 * slope2 * cos_mid2
    return (
        (cos_end, sin_end, d1 * cos_mid, d1 * sin_mid,
         0.5 * (count + c2), 0.5 * d2 * sin_mid2, 0.5 * (count - c2), sums.real, sums.imag),
        (-end * sin_end, end * cos_end, dt * -ks1, dt * kc1, dt * -ks2, dt * kc2, dt * ks2,
         dt * d_sums.real, dt * d_sums.imag),
    )


def _general_system(
    systolic: SegmentTerms, diastolic: SegmentTerms, size: float
) -> GeneralSystem:
    """Gram matrix G of ``(v1, v2, 1)``, its adjugate and determinant, and ``(v1 . f_c, v2 . f_c)``.

    One flat tuple, ``(*G, *adj G, det G, r1, r2)``, each matrix as its upper
    triangle; ``size`` is ``n + m``, the constant vector's square, and
    ``1 . f_c`` is 0.
    """
    cos1, sin1, c1, s1, cc1, cs1, ss1, cf1, sf1 = systolic
    cos2, sin2, c2, s2, cc2, cs2, ss2, cf2, sf2 = diastolic
    denom = 1.0 - cos1 * cos2
    # build_basis's general case: v1 = [x1*c1 + s1, y1*c2], v2 = [x2*c1, y2*c2 + s2]
    x1, y1 = sin1 * cos2 / denom, sin1 / denom
    x2, y2 = sin2 / denom, cos1 * sin2 / denom
    g11 = x1 * x1 * cc1 + 2.0 * x1 * cs1 + ss1 + y1 * y1 * cc2
    g12 = x2 * (x1 * cc1 + cs1) + y1 * (y2 * cc2 + cs2)
    g13 = x1 * c1 + s1 + y1 * c2
    g22 = x2 * x2 * cc1 + y2 * y2 * cc2 + 2.0 * y2 * cs2 + ss2
    g23 = x2 * c1 + y2 * c2 + s2
    adj11 = g22 * size - g23 * g23
    adj12 = g13 * g23 - g12 * size
    adj13 = g12 * g23 - g22 * g13
    return (
        g11, g12, g13, g22, g23, size,
        adj11, adj12, adj13, g11 * size - g13 * g13, g12 * g13 - g11 * g23, g11 * g22 - g12 * g12,
        g11 * adj11 + g12 * adj12 + g13 * adj13,
        x1 * cf1 + sf1 + y1 * cf2, x2 * cf1 + y2 * cf2 + sf2,
    )


def _general_coefficients(
    system: GeneralSystem, systolic: SegmentTerms, diastolic: SegmentTerms
) -> tuple[float, float, float, float, float]:
    """General-case ``(a1, b1, a2, b2, offset)`` from ``adj G . r / det G`` and the end trig."""
    _, _, _, _, _, _, adj11, adj12, adj13, adj22, adj23, _, det, r1, r2 = system
    b1 = (adj11 * r1 + adj12 * r2) / det
    b2 = (adj12 * r1 + adj22 * r2) / det
    offset = (adj13 * r1 + adj23 * r2) / det
    a1, a2 = _cosine_coefficients(b1, b2, *systolic[:2], *diastolic[:2])
    return a1, b1, a2, b2, offset


def _lattice_system(
    systolic: SegmentTerms, diastolic: SegmentTerms, cycle: SampledCycle, case: Case
) -> tuple[np.ndarray, np.ndarray]:
    """4x4 Gram matrix of ``(w0, w1, w2, 1)`` and its right-hand side, from the same terms.

    build_basis's lattice vectors: ``w0 = [c1, sign*c2]`` (``sign`` -1 on the
    odd branch), ``w1 = [s1, 0]`` and ``w2 = [0, s2]``, so ``w1 . w2 = 0``.
    """
    sign = -1.0 if case is Case.GAMMA1 else 1.0
    _, _, c1, s1, cc1, cs1, ss1, cf1, sf1 = systolic
    _, _, c2, s2, cc2, cs2, ss2, cf2, sf2 = diastolic
    w0_sum = c1 + sign * c2
    gram = np.array(
        [
            [cc1 + cc2, cs1, sign * cs2, w0_sum],
            [cs1, ss1, 0.0, s1],
            [sign * cs2, 0.0, ss2, s2],
            [w0_sum, s1, s2, float(cycle.n + cycle.m)],
        ]
    )
    return gram, np.array([cf1 + sign * cf2, sf1, sf2, 0.0])


def solve_inner(freqs: FreqPair, cycle: SampledCycle) -> InnerSolution:
    """Exact minimizer of the fixed-frequency least-squares fit.

    Solves the moment normal equations of the centered samples, 3x3 over
    ``(b1, b2, pbar - mean f)`` in the general case (through the adjugate,
    with ``a1, a2`` by :func:`reduce_constraints`) and 4x4 over
    ``(a1, b1, b2, pbar - mean f)`` on the lattice, on the branch
    :func:`classify` picks. ``objective_value`` is the explicit residual
    ``|f - evaluate_model(params)|^2``: the moment formula's rounding floor
    (~1e-11 of the centered energy) can exceed a well-fitted cycle's residual.

    Raises GramConditioningError when the condition estimate (closed form for
    the 3x3, SVD for the 4x4) exceeds CONDITION_LIMIT.
    """
    terms = segment_terms(cycle, 0, freqs.omega1), segment_terms(cycle, 1, freqs.omega2)
    return solve_from_terms(cycle, *terms, freqs)


def solve_from_terms(
    cycle: SampledCycle, systolic: SegmentTerms, diastolic: SegmentTerms, freqs: FreqPair
) -> InnerSolution:
    """:func:`solve_inner` from both segments' :func:`segment_terms` at ``freqs``.

    The terms open with the end-point trig, so no trig is recomputed: the
    case is :func:`classify`'s, from their cosines, and ``(a1, a2)`` come from
    their cosines and sines.
    """
    case = _case(systolic[0], diastolic[0])
    if case is Case.GENERAL:
        system = _general_system(systolic, diastolic, float(cycle.n + cycle.m))
        condition = _condition(system)
    else:
        matrix, rhs = _lattice_system(systolic, diastolic, cycle, case)
        condition = float(np.linalg.cond(matrix))
    if not condition <= CONDITION_LIMIT:
        raise GramConditioningError(condition)
    if case is Case.GENERAL:
        a1, b1, a2, b2, offset = _general_coefficients(system, systolic, diastolic)
    else:
        try:
            a1, b1, b2, offset = np.linalg.solve(matrix, rhs).tolist()
        except np.linalg.LinAlgError:
            raise GramConditioningError(math.inf) from None
        a2 = -a1 if case is Case.GAMMA1 else a1
    pbar = offset + cycle.mean
    params = ModelParams(a1, b1, a2, b2, pbar, freqs.omega1, freqs.omega2)
    residual = _evaluate_on(params, cycle.t1, cycle.t2) - cycle.samples  # the cycle's own grids
    return InnerSolution(
        case=case,
        a1=a1,
        a2=a2,
        b1=b1,
        b2=b2,
        pbar=pbar,
        objective_value=float(residual @ residual),
        gram_condition=condition,
        params=params,
    )


def objective_p(freqs: FreqPair, cycle: SampledCycle) -> float:
    """Residual sum of squares of the optimal fit at ``freqs``; +inf if unsolvable.

    This is the reduced objective the outer search minimizes. Conditioning
    failures are mapped to the +inf sentinel rather than raised.

    On the lattice it returns ``solve_inner(...).objective_value``. In the
    general case it takes ``G`` and ``r`` from the same sums as
    :func:`solve_inner` and returns ``|f_c|^2 - r . inv(G) r``, clamped at 0,
    with f_c the centered samples (the constant vector is in the span, so P
    does not change); no coefficient is formed. The +inf decision is the
    closed-form condition estimate against CONDITION_LIMIT, as in
    :func:`solve_inner`, but reached through a trace bound that settles
    almost every point without the eigenvalue formulas (see
    :func:`objective_from_terms`).

    Away from the nodes this agrees with ``solve_inner``'s explicit residual
    to rounding (1e-9 relative, plus 1e-11 of the centered energy, at node
    distance > 0.02). The difference grows with the Gram condition: inside
    the node exclusion tubes it reaches ~1e-7 of the centered energy at node
    distance 1e-4 (4e-6 relative), where the explicit residual is the better
    one. Those points only reach heat maps, never an argmin.
    """
    terms = segment_terms(cycle, 0, freqs.omega1), segment_terms(cycle, 1, freqs.omega2)
    return objective_from_terms(cycle, *terms, freqs.omega1, freqs.omega2)


def objective_from_terms(
    cycle: SampledCycle, systolic: SegmentTerms, diastolic: SegmentTerms,
    omega1: float, omega2: float,
) -> float:
    """:func:`objective_p` in O(1) from both segments' terms; the omegas serve the lattice.

    Off the lattice ``r = (r1, r2, 0)``, so ``r . inv(G) r`` reads only the
    leading 2x2 of ``adj G / det G``. The conditioning check comes first:
    when ``det G``, ``trace G`` and ``trace adj G`` are all positive, G is
    positive definite, so each largest eigenvalue is at most its matrix's
    trace and ``trace G * trace adj G / det G`` is never below the estimate
    of :func:`_condition`. At or under CONDITION_LIMIT the point passes on
    that bound; otherwise the estimate decides, so the answer is the
    estimate's at every point. The body makes one helper call,
    :func:`_general_system`, which the solve and the gradient share.
    """
    if abs(1.0 - systolic[0] * diastolic[0]) <= EPSILON_DEGENERATE:
        try:
            freqs = FreqPair(omega1, omega2)
            return solve_from_terms(cycle, systolic, diastolic, freqs).objective_value
        except GramConditioningError:
            return math.inf
    system = _general_system(systolic, diastolic, float(cycle.n + cycle.m))
    g11, _, _, g22, _, g33, adj11, adj12, _, adj22, _, adj33, det, r1, r2 = system
    trace, adj_trace = g11 + g22 + g33, adj11 + adj22 + adj33
    if not (
        det > 0.0 and trace > 0.0 and adj_trace > 0.0
        and trace * adj_trace <= CONDITION_LIMIT * det
    ) and not _condition(system) <= CONDITION_LIMIT:
        return math.inf
    residual = cycle.centered_energy - (
        adj11 * r1 * r1 + 2.0 * adj12 * r1 * r2 + adj22 * r2 * r2
    ) / det
    return 0.0 if residual < 0.0 else residual


def objective_from_term_arrays(
    cycle: SampledCycle, systolic: Sequence[np.ndarray], diastolic: Sequence[np.ndarray],
    omega1: np.ndarray, omega2: np.ndarray,
) -> np.ndarray:
    """:func:`objective_from_terms` at every element of broadcast arrays, bit for bit.

    ``systolic`` and ``diastolic`` are the nine :func:`segment_terms` as nine
    arrays each; they and the omegas broadcast to the shape of the result.
    :func:`_general_system` runs unchanged on the arrays, and the trace bound,
    the residual and its clamp at 0 are the same expressions elementwise, so
    every element that passes the bound off the lattice has the scalar's
    bits: numpy's elementwise float arithmetic rounds as Python's does. Every
    element on the lattice or failing the bound, where the scalar would solve
    or take the eigenvalue estimate, is the scalar :func:`objective_from_terms`
    of that element's terms. numpy's floating-point warnings are silenced: a
    vanishing ``denom`` or ``det`` divides only at elements the scalar takes
    over, and an overflow to inf, silent in Python float arithmetic, stays
    silent here.
    """
    *arrays, omega1, omega2 = np.broadcast_arrays(*systolic, *diastolic, omega1, omega2)
    systolic, diastolic = arrays[:9], arrays[9:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        system = _general_system(systolic, diastolic, float(cycle.n + cycle.m))
        g11, _, _, g22, _, g33, adj11, adj12, _, adj22, _, adj33, det, r1, r2 = system
        trace, adj_trace = g11 + g22 + g33, adj11 + adj22 + adj33
        passes = (
            (np.abs(1.0 - systolic[0] * diastolic[0]) > EPSILON_DEGENERATE)
            & (det > 0.0) & (trace > 0.0) & (adj_trace > 0.0)
            & (trace * adj_trace <= CONDITION_LIMIT * det)
        )
        residual = cycle.centered_energy - (
            adj11 * r1 * r1 + 2.0 * adj12 * r1 * r2 + adj22 * r2 * r2
        ) / det
        values = np.where(residual < 0.0, 0.0, residual)
    for index in zip(*np.nonzero(~passes)):
        values[index] = objective_from_terms(
            cycle, tuple(float(a[index]) for a in systolic),
            tuple(float(a[index]) for a in diastolic),
            float(omega1[index]), float(omega2[index]),
        )
    return values


def gradient_from_terms(
    cycle: SampledCycle, systolic: SegmentTerms, diastolic: SegmentTerms,
    systolic_slopes: SegmentTerms, diastolic_slopes: SegmentTerms,
) -> tuple[float, float]:
    """``(dP/domega1, dP/domega2)`` in O(1) from both segments' :func:`segment_slopes`.

    Variable projection: with ``z = inv(G) r`` the coefficients of the
    optimal fit, ``dP/domega = -2 z . dr + z . dG z``. Written through the
    five coefficients ``(a1, b1, a2, b2, offset)`` and the multipliers of the
    two coupling constraints (fixed by the normal equations of the two cosine
    columns), each derivative reads only its own segment's slopes: the
    segment's quadratic form in the slopes of its sums, plus twice its
    constraint's multiplier times that constraint's slope. NaN on the lattice
    and wherever :func:`objective_from_terms` returns the +inf sentinel, by
    the same lattice test and trace-bound check.
    """
    cos1, sin1, c1, _, cc1, cs1, _, cf1, _ = systolic
    cos2, sin2, c2, _, cc2, cs2, _, cf2, _ = diastolic
    denom = 1.0 - cos1 * cos2
    if abs(denom) <= EPSILON_DEGENERATE:
        return math.nan, math.nan
    system = _general_system(systolic, diastolic, float(cycle.n + cycle.m))
    g11, _, _, g22, _, g33, adj11, _, _, adj22, _, adj33, det, _, _ = system
    trace, adj_trace = g11 + g22 + g33, adj11 + adj22 + adj33
    if not (
        det > 0.0 and trace > 0.0 and adj_trace > 0.0
        and trace * adj_trace <= CONDITION_LIMIT * det
    ) and not _condition(system) <= CONDITION_LIMIT:
        return math.nan, math.nan
    a1, b1, a2, b2, offset = _general_coefficients(system, systolic, diastolic)
    # continuity a1*cos1 + b1*sin1 = a2 and periodicity a1 = a2*cos2 + b2*sin2,
    # with multipliers from the a1 and a2 rows of the stationarity condition
    g1 = cc1 * a1 + cs1 * b1 + c1 * offset - cf1
    g2 = cc2 * a2 + cs2 * b2 + c2 * offset - cf2
    continuity = (g2 + cos2 * g1) / denom
    periodicity = -(g1 + cos1 * g2) / denom
    dcos1, dsin1, dc1, ds1, dcc1, dcs1, dss1, dcf1, dsf1 = systolic_slopes
    dcos2, dsin2, dc2, ds2, dcc2, dcs2, dss2, dcf2, dsf2 = diastolic_slopes
    return (
        a1 * a1 * dcc1 + 2.0 * a1 * b1 * dcs1 + b1 * b1 * dss1
        + 2.0 * offset * (a1 * dc1 + b1 * ds1) - 2.0 * (a1 * dcf1 + b1 * dsf1)
        + 2.0 * continuity * (a1 * dcos1 + b1 * dsin1),
        a2 * a2 * dcc2 + 2.0 * a2 * b2 * dcs2 + b2 * b2 * dss2
        + 2.0 * offset * (a2 * dc2 + b2 * ds2) - 2.0 * (a2 * dcf2 + b2 * dsf2)
        - 2.0 * periodicity * (a2 * dcos2 + b2 * dsin2),
    )


def objective_gradient(freqs: FreqPair, cycle: SampledCycle) -> tuple[float, float]:
    """``(dP/domega1, dP/domega2)`` at ``freqs``, by :func:`gradient_from_terms`."""
    systolic, systolic_slopes = segment_slopes(cycle, 0, freqs.omega1)
    diastolic, diastolic_slopes = segment_slopes(cycle, 1, freqs.omega2)
    return gradient_from_terms(cycle, systolic, diastolic, systolic_slopes, diastolic_slopes)


def normalized_objective(p_value: float, cycle: SampledCycle) -> float:
    """Objective value divided by the cycle's centered energy (0 for a flat cycle fit)."""
    denom = cycle.centered_energy
    if denom == 0.0:
        return 0.0 if p_value == 0.0 else float("inf")
    return p_value / denom


def enumerate_nodes(T0: float, T: float, domain: Domain) -> list[LatticeNode]:
    """All lattice nodes whose dimensionless coordinates fall inside the closed rectangle.

    Nodes are the pairs of integers >= 1 of equal parity, in (u1, u2) order.
    """
    dT = T - T0
    return [
        LatticeNode(u1, u2, u1 * math.pi / T0, u2 * math.pi / dT)
        for u1 in range(max(math.ceil(domain.u1_min), 1), math.floor(domain.u1_max) + 1)
        for u2 in range(max(math.ceil(domain.u2_min), 1), math.floor(domain.u2_max) + 1)
        if (u1 - u2) % 2 == 0
    ]
