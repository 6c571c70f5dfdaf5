"""Reference solvers used to cross-check the analytic inner solve and the moment kernel.

The dense oracle never touches the package's basis-vector machinery: it builds
the explicit five-column design matrix, eliminates the two coupling constraint
rows through an SVD nullspace, and solves the reduced problem with a QR-based
least-squares call. The helper-based kernel reference at the end of this
module is the kernel's own arithmetic, and the node distance, kept composed
from small functions, for bit-for-bit comparisons. The search-loop reference
after it is the compass search, the Newton finish and fast_if's start loop as
they were written before the loop was flattened for speed, kept to pin the
flat loop bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from ifreq import FreqPair, SampledCycle, SearchConfig, objective, search
from ifreq.search import StartTrace, TraceStep


def dense_constrained_lstsq(
    freqs: FreqPair, cycle: SampledCycle
) -> tuple[np.ndarray, float]:
    """Optimal (a1, a2, b1, b2, pbar) and objective by explicit constrained least squares."""
    t1, t2, f = cycle.t1, cycle.t2, cycle.samples
    n, m = cycle.n, cycle.m
    design = np.zeros((n + m, 5))
    design[:n, 0] = np.cos(freqs.omega1 * t1)
    design[n:, 1] = np.cos(freqs.omega2 * t2)
    design[:n, 2] = np.sin(freqs.omega1 * t1)
    design[n:, 3] = np.sin(freqs.omega2 * t2)
    design[:, 4] = 1.0

    dT = cycle.T - cycle.T0
    constraints = np.array(
        [
            [math.cos(freqs.omega1 * cycle.T0), -1.0, math.sin(freqs.omega1 * cycle.T0), 0.0, 0.0],
            [1.0, -math.cos(freqs.omega2 * dT), 0.0, -math.sin(freqs.omega2 * dT), 0.0],
        ]
    )
    _, singular, vt = np.linalg.svd(constraints)
    rank = int(np.sum(singular > 1e-12 * singular[0]))
    nullspace = vt[rank:].T  # orthonormal basis of the feasible coefficient space

    reduced, *_ = np.linalg.lstsq(design @ nullspace, f, rcond=None)
    theta = nullspace @ reduced
    residual = design @ theta - f
    return theta, float(residual @ residual)


def dense_p(omega1: complex, omega2: complex, cycle: SampledCycle) -> complex:
    """The constrained least-squares objective P from the explicit five-column design.

    Written with analytic operations only: the constraints enter through the
    KKT system ``[[X^T X, C^T], [C, 0]]`` (one LU solve, no SVD) and the
    residual is squared without conjugation, so complex frequencies carry
    complex-step derivatives through it.
    """
    t1, t2, f = cycle.t1, cycle.t2, cycle.samples
    n, m = cycle.n, cycle.m
    design = np.zeros((n + m, 5), dtype=complex)
    design[:n, 0] = np.cos(omega1 * t1)
    design[n:, 1] = np.cos(omega2 * t2)
    design[:n, 2] = np.sin(omega1 * t1)
    design[n:, 3] = np.sin(omega2 * t2)
    design[:, 4] = 1.0

    dT = cycle.T - cycle.T0
    phase1, phase2 = omega1 * cycle.T0, omega2 * dT
    constraints = np.array(
        [
            [np.cos(phase1), -1.0, np.sin(phase1), 0.0, 0.0],
            [1.0, -np.cos(phase2), 0.0, -np.sin(phase2), 0.0],
        ]
    )
    kkt = np.zeros((7, 7), dtype=complex)
    kkt[:5, :5] = design.T @ design
    kkt[:5, 5:] = constraints.T
    kkt[5:, :5] = constraints
    rhs = np.concatenate([design.T @ f, np.zeros(2)])
    theta = np.linalg.solve(kkt, rhs)[:5]
    residual = design @ theta - f
    return residual @ residual


def complex_step_gradient(freqs: FreqPair, cycle: SampledCycle) -> tuple[float, float]:
    """``(dP/domega1, dP/domega2)`` by complex steps of :func:`dense_p` (exact to rounding)."""
    h = 1e-30
    w1, w2 = freqs.omega1, freqs.omega2
    return (
        float(dense_p(w1 + 1j * h, w2, cycle).imag / h),
        float(dense_p(w1, w2 + 1j * h, cycle).imag / h),
    )


# ---------------------------------------------------------------------------
# Helper-based reference of the moment kernel
#
# The kernel in ``ifreq.objective`` is written as straight-line arithmetic for
# speed. These functions compose the same floating-point operations, in the
# same order, from small helpers (end-point trig, Dirichlet kernel, closed-form
# sums, adjugate, trace-bound check), so the tests can require the flat kernel
# to equal them bit for bit. The node distance the searches exclude tubes by is
# kept here too, composed from its nearest-odd and nearest-even helpers.

Sym3 = tuple[float, float, float, float, float, float]


def nearest_odd(x: float) -> int:
    return max(2 * round((x - 1.0) / 2.0) + 1, 1)


def nearest_even(x: float) -> int:
    return 2 * round(x / 2.0)


def node_distance(u1: float, u2: float) -> float:
    """``objective.node_distance``: the nearer of the odd and the even branch's nearest node."""
    return min(
        math.hypot(u1 - nearest_odd(u1), u2 - nearest_odd(u2)),
        math.hypot(u1 - nearest_even(u1), u2 - nearest_even(u2)),
    )


def end_trig(omega: float, end: float) -> tuple[float, float]:
    """Cos and sin of a segment's phase ``omega*end`` at its end point."""
    phase = omega * end
    return math.cos(phase), math.sin(phase)


def dirichlet(count: int, x: float) -> float:
    """``sin(count*x) / sin(x)``, continued by its limit where ``x`` is a multiple of pi."""
    s = math.sin(x)
    if abs(s) < 1e-9:
        return count * math.cos(count * x) / math.cos(x)
    return math.sin(count * x) / s


def trig_sums(first: int, count: int, theta: float) -> tuple[float, float, float, float, float]:
    """Sums of cos, sin, cos^2, cos*sin and sin^2 of ``k*theta``, ``k = first .. first+count-1``."""
    mid = first + 0.5 * (count - 1)
    d1 = dirichlet(count, 0.5 * theta)
    d2 = dirichlet(count, theta)
    c2 = d2 * math.cos(2.0 * mid * theta)
    return (
        d1 * math.cos(mid * theta),
        d1 * math.sin(mid * theta),
        0.5 * (count + c2),
        0.5 * d2 * math.sin(2.0 * mid * theta),
        0.5 * (count - c2),
    )


def trig_sum_slopes(first: int, count: int, theta: float) -> tuple[float, ...]:
    """Derivatives in ``theta`` of the five :func:`trig_sums`."""
    mid = first + 0.5 * (count - 1)

    def weighted(x: float) -> tuple[float, float]:
        """``sum k*cos(k*x)`` and ``sum k*sin(k*x)``."""
        d = dirichlet(count, 0.5 * x)
        s, c = math.sin(0.5 * x), math.cos(0.5 * x)
        if abs(s) < 1e-9:
            slope = -d * (count * count - 1) / 3.0 * (s / c)
        else:
            slope = (count * math.cos(0.5 * count * x) - d * c) / s
        phase_c, phase_s = math.cos(mid * x), math.sin(mid * x)
        return mid * d * phase_c + 0.5 * slope * phase_s, mid * d * phase_s - 0.5 * slope * phase_c

    kc1, ks1 = weighted(theta)
    kc2, ks2 = weighted(2.0 * theta)
    return -ks1, kc1, -ks2, kc2, ks2


def adjugate(a: Sym3) -> tuple[Sym3, float]:
    """Adjugate and determinant of a symmetric 3x3 matrix."""
    a11, a12, a13, a22, a23, a33 = a
    c11 = a22 * a33 - a23 * a23
    c12 = a13 * a23 - a12 * a33
    c13 = a12 * a23 - a22 * a13
    adj = (c11, c12, c13, a11 * a33 - a13 * a13, a12 * a13 - a11 * a23, a11 * a22 - a12 * a12)
    return adj, a11 * c11 + a12 * c12 + a13 * c13


def condition(gram: Sym3, adj: Sym3, det: float) -> float:
    """Closed-form 2-norm condition of ``gram`` from its :func:`adjugate` ``adj, det``."""
    if not det > 0.0:
        return math.inf
    return objective._largest_eigenvalue(gram) * objective._largest_eigenvalue(adj) / det


def condition_estimate(gram: Sym3) -> float:
    """2-norm condition number of a symmetric positive definite 3x3 matrix, in closed form."""
    return condition(gram, *adjugate(gram))


def within_condition(gram: Sym3, adj: Sym3, det: float, cond_max: float) -> bool:
    """``condition_estimate(gram) <= cond_max``, from a trace bound wherever that suffices."""
    trace = gram[0] + gram[3] + gram[5]
    adj_trace = adj[0] + adj[3] + adj[5]
    if det > 0.0 and trace > 0.0 and adj_trace > 0.0 and trace * adj_trace <= cond_max * det:
        return True
    return condition(gram, adj, det) <= cond_max


def segment_terms(cycle: SampledCycle, segment: int, omega: float) -> tuple[float, ...]:
    """The nine floats of ``objective.segment_terms``, from the helpers."""
    first, count, end, block, height, exponents, dt = cycle.segment_plans[segment]
    theta = omega * dt
    row = np.exp(theta * exponents)
    sums = complex(row[:height].dot(block).dot(row[height:]))
    return (*end_trig(omega, end), *trig_sums(first, count, theta), sums.real, sums.imag)


def segment_slopes(
    cycle: SampledCycle, segment: int, omega: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``objective.segment_slopes``, from the helpers."""
    first, count, end, block, height, exponents, dt = cycle.segment_plans[segment]
    theta = omega * dt
    row = np.exp(theta * exponents)
    left = row[:height].dot(block)
    sums = complex(left.dot(row[height:]))
    d_row = exponents * row
    d_sums = complex(d_row[:height].dot(block).dot(row[height:]) + left.dot(d_row[height:]))
    cos_end, sin_end = end_trig(omega, end)
    dc, ds, dcc, dcs, dss = trig_sum_slopes(first, count, theta)
    return (
        (cos_end, sin_end, *trig_sums(first, count, theta), sums.real, sums.imag),
        (-end * sin_end, end * cos_end, dt * dc, dt * ds, dt * dcc, dt * dcs, dt * dss,
         dt * d_sums.real, dt * d_sums.imag),
    )


def general_system(
    systolic: tuple[float, ...], diastolic: tuple[float, ...], cycle: SampledCycle
) -> tuple[Sym3, Sym3, float, float, float]:
    """``(G, adj G, det G, r1, r2)`` of the general case, from the helpers."""
    cos1, sin1, c1, s1, cc1, cs1, ss1, cf1, sf1 = systolic
    cos2, sin2, c2, s2, cc2, cs2, ss2, cf2, sf2 = diastolic
    denom = 1.0 - cos1 * cos2
    x1, y1 = sin1 * cos2 / denom, sin1 / denom
    x2, y2 = sin2 / denom, cos1 * sin2 / denom
    gram = (
        x1 * x1 * cc1 + 2.0 * x1 * cs1 + ss1 + y1 * y1 * cc2,
        x2 * (x1 * cc1 + cs1) + y1 * (y2 * cc2 + cs2),
        x1 * c1 + s1 + y1 * c2,
        x2 * x2 * cc1 + y2 * y2 * cc2 + 2.0 * y2 * cs2 + ss2,
        x2 * c1 + y2 * c2 + s2,
        float(cycle.n + cycle.m),
    )
    adj, det = adjugate(gram)
    return gram, adj, det, x1 * cf1 + sf1 + y1 * cf2, x2 * cf1 + y2 * cf2 + sf2


def general_coefficients(
    systolic: tuple[float, ...], diastolic: tuple[float, ...],
    adj: Sym3, det: float, r1: float, r2: float,
) -> tuple[float, float, float, float, float]:
    """General-case ``(a1, b1, a2, b2, offset)`` from ``adj G . r / det G`` and the end trig."""
    b1 = (adj[0] * r1 + adj[1] * r2) / det
    b2 = (adj[1] * r1 + adj[3] * r2) / det
    offset = (adj[2] * r1 + adj[4] * r2) / det
    cos1, sin1 = systolic[:2]
    cos2, sin2 = diastolic[:2]
    denom = 1.0 - cos1 * cos2
    a1 = (b1 * sin1 * cos2 + b2 * sin2) / denom
    a2 = (b1 * sin1 + b2 * cos1 * sin2) / denom
    return a1, b1, a2, b2, offset


def on_lattice(cos1: float, cos2: float) -> bool:
    """``|1 - cos1*cos2| <= EPSILON_DEGENERATE`` for the end-point cosines."""
    return abs(1.0 - cos1 * cos2) <= objective.EPSILON_DEGENERATE


def objective_from_terms(
    cycle: SampledCycle, systolic: tuple[float, ...], diastolic: tuple[float, ...],
    omega1: float, omega2: float,
) -> float:
    """``objective.objective_from_terms``, from the helpers; the lattice solve is the package's."""
    if on_lattice(systolic[0], diastolic[0]):
        try:
            freqs = FreqPair(omega1, omega2)
            return objective.solve_from_terms(cycle, systolic, diastolic, freqs).objective_value
        except objective.GramConditioningError:
            return float("inf")
    gram, adj, det, r1, r2 = general_system(systolic, diastolic, cycle)
    if not within_condition(gram, adj, det, objective.CONDITION_LIMIT):
        return float("inf")
    fitted = (adj[0] * r1 * r1 + 2.0 * adj[1] * r1 * r2 + adj[3] * r2 * r2) / det
    return max(cycle.centered_energy - fitted, 0.0)


def gradient_from_terms(
    cycle: SampledCycle, systolic: tuple[float, ...], diastolic: tuple[float, ...],
    systolic_slopes: tuple[float, ...], diastolic_slopes: tuple[float, ...],
) -> tuple[float, float]:
    """``objective.gradient_from_terms``, from the helpers."""
    cos1, sin1, c1, _, cc1, cs1, _, cf1, _ = systolic
    cos2, sin2, c2, _, cc2, cs2, _, cf2, _ = diastolic
    if on_lattice(cos1, cos2):
        return math.nan, math.nan
    gram, adj, det, r1, r2 = general_system(systolic, diastolic, cycle)
    if not within_condition(gram, adj, det, objective.CONDITION_LIMIT):
        return math.nan, math.nan
    a1, b1, a2, b2, offset = general_coefficients(systolic, diastolic, adj, det, r1, r2)
    denom = 1.0 - cos1 * cos2
    g1 = cc1 * a1 + cs1 * b1 + c1 * offset - cf1
    g2 = cc2 * a2 + cs2 * b2 + c2 * offset - cf2
    continuity = (g2 + cos2 * g1) / denom
    periodicity = -(g1 + cos1 * g2) / denom

    def fit_slope(a: float, b: float, slopes: tuple[float, ...]) -> float:
        _, _, dc, ds, dcc, dcs, dss, dcf, dsf = slopes
        return (
            a * a * dcc + 2.0 * a * b * dcs + b * b * dss
            + 2.0 * offset * (a * dc + b * ds) - 2.0 * (a * dcf + b * dsf)
        )

    dcos1, dsin1 = systolic_slopes[:2]
    dcos2, dsin2 = diastolic_slopes[:2]
    return (
        fit_slope(a1, b1, systolic_slopes) + 2.0 * continuity * (a1 * dcos1 + b1 * dsin1),
        fit_slope(a2, b2, diastolic_slopes) - 2.0 * periodicity * (a2 * dcos2 + b2 * dsin2),
    )


# ---------------------------------------------------------------------------
# Composed reference of fast_if's search loop
#
# ``search.compass_search``, ``search._newton_finish`` and their helpers are
# written with hoisted locals, inline clipping and trace steps built without
# the named-tuple constructor. These are the same steps as loops over
# directions and axes, with ``_clip`` tuples and ``dataclasses.replace``,
# so the tests can require the flat loop to equal them bit for bit.

_DIRECTIONS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


def lattice_point(config: SearchConfig, x1: float, x2: float) -> tuple[float, float]:
    domain = config.domain
    return domain.u1_min + config.delta0 * x1, domain.u2_min + config.delta0 * x2


def lattice_coordinates(config: SearchConfig, u1: float, u2: float) -> tuple[float, float]:
    domain = config.domain
    coordinates = []
    for u, corner in ((u1, domain.u1_min), (u2, domain.u2_min)):
        x = (u - corner) / config.delta0
        coordinates.append(float(round(x)) if abs(x - round(x)) <= search._SNAP else x)
    return coordinates[0], coordinates[1]


def compass_search(
    objective: Callable[[float, float], float],
    start: tuple[float, float],
    config: SearchConfig,
    visited: dict | None = None,
    index: int = 0,
) -> StartTrace:
    """``search.compass_search``, as a loop over the four directions."""
    feasible = config.feasible
    x1, x2 = lattice_coordinates(config, start[0], start[1])
    u1, u2 = lattice_point(config, x1, x2)
    shared = feasible(u1, u2)
    if not shared:
        u1, u2 = float(start[0]), float(start[1])
        if not feasible(u1, u2):
            raise ValueError(f"start ({u1}, {u2}) is infeasible for the configured domain")
    value = float(objective(u1, u2))
    evals = 1
    step = 1.0
    steps = [TraceStep("start", u1, u2, config.delta0, value)]
    converged = False
    joined = None
    while True:
        if shared and visited is not None:
            held = visited.setdefault((x1, x2, step), index)
            if held != index:
                joined = held
                break
        moved = out_of_budget = False
        for d1, d2 in _DIRECTIONS:
            cand_x1, cand_x2 = x1 + step * d1, x2 + step * d2
            cand1, cand2 = lattice_point(config, cand_x1, cand_x2)
            if not feasible(cand1, cand2):
                continue
            if evals >= config.max_evals:
                out_of_budget = True
                break
            cand_value = float(objective(cand1, cand2))
            evals += 1
            if cand_value < value:
                x1, x2, u1, u2, value = cand_x1, cand_x2, cand1, cand2, cand_value
                steps.append(TraceStep("move", u1, u2, config.delta0 * step, value))
                moved = shared = True
                break
        if out_of_budget:
            break
        if not moved:
            step *= 0.5
            steps.append(TraceStep("halve", u1, u2, config.delta0 * step, value))
            if config.delta0 * step < config.delta_tol:
                converged = True
                break
    return StartTrace(
        start=(float(start[0]), float(start[1])),
        steps=tuple(steps),
        final=(u1, u2),
        final_value=value,
        evals=evals,
        converged=converged,
        joined=joined,
    )


def hessian(
    gradient: Callable[[float, float], tuple[float, float]],
    u: tuple[float, float],
    g: tuple[float, float],
    config: SearchConfig,
) -> tuple[float, float, float] | None:
    """``search._hessian``, as a loop over the axes."""
    columns = []
    for axis in (0, 1):
        for offset in (search._HESSIAN_STEP, -search._HESSIAN_STEP):
            probe = list(u)
            probe[axis] += offset
            if config.feasible(*probe):
                break
        else:
            return None
        moved = gradient(*probe)
        width = probe[axis] - u[axis]
        columns.append(((moved[0] - g[0]) / width, (moved[1] - g[1]) / width))
    return columns[0][0], 0.5 * (columns[0][1] + columns[1][0]), columns[1][1]


def clip(u: tuple[float, float], domain: objective.Domain) -> tuple[float, float]:
    """The nearest point of the domain rectangle to ``u``."""
    return (
        min(max(u[0], domain.u1_min), domain.u1_max),
        min(max(u[1], domain.u2_min), domain.u2_max),
    )


def newton_step(
    u: tuple[float, float],
    g: tuple[float, float],
    hessian: tuple[float, float, float],
    domain: objective.Domain,
    margin: float,
) -> tuple[float, float] | None:
    """``search._newton_step``, with tuples and a generator over the axes."""
    h11, h12, h22 = hessian
    curvatures = (abs(h11), abs(h22))
    if not all(0.0 < h < math.inf for h in curvatures):
        return None
    diagonal = (-g[0] / curvatures[0], -g[1] / curvatures[1])
    moved = clip((u[0] + diagonal[0], u[1] + diagonal[1]), domain)
    margin = min(margin, math.hypot(moved[0] - u[0], moved[1] - u[1]))
    bounds = ((domain.u1_min, domain.u1_max), (domain.u2_min, domain.u2_max))
    if any(
        (x - lo <= margin and slope > 0.0) or (hi - x <= margin and slope < 0.0)
        for (lo, hi), x, slope in zip(bounds, u, g)
    ):
        return diagonal
    mean, radius = 0.5 * (h11 + h22), math.hypot(0.5 * (h11 - h22), h12)
    major, minor = abs(mean + radius), abs(mean - radius)
    if not minor > 0.0:
        return None
    angle = 0.5 * math.atan2(2.0 * h12, h11 - h22)
    c, s = math.cos(angle), math.sin(angle)
    along = -(c * g[0] + s * g[1]) / major
    across = -(c * g[1] - s * g[0]) / minor
    return c * along - s * across, s * along + c * across


def parabola_vertex(value: float, slope: float, t: float, value_t: float) -> float | None:
    curvature = (value_t - value - slope * t) / (t * t)
    if not (slope < 0.0 and curvature > 0.0 and math.isfinite(curvature)):
        return None
    return -slope / (2.0 * curvature)


def line_search(
    probe: Callable[[float], float | None], value: float, slope: float
) -> tuple[float, float] | None:
    """``search._line_search``, with ``min`` and ``max`` for the clipping."""
    t = 1.0
    for _ in range(search._BACKTRACKS + 1):
        value_t = probe(t)
        if value_t is None:
            return None
        vertex = parabola_vertex(value, slope, t, value_t)
        if value_t < value:
            if vertex is not None and abs(vertex / t - 1.0) > 0.25:
                moved = min(vertex, 4.0 * t)
                value_moved = probe(moved)
                if value_moved is not None and value_moved < value_t:
                    return moved, value_moved
            return t, value_t
        t = 0.5 * t if vertex is None else min(max(vertex, 0.1 * t), 0.5 * t)
    return None


def newton_finish(
    objective: Callable[[float, float], float],
    gradient: Callable[[float, float], tuple[float, float]],
    trace: StartTrace,
    config: SearchConfig,
) -> StartTrace:
    """``search._newton_finish``, with closures and ``dataclasses.replace``."""
    if not trace.converged:
        return trace
    domain = config.domain
    margin = config.delta_tol
    (u1, u2), value, evals = trace.final, trace.final_value, trace.evals
    steps = list(trace.steps)

    def ended(converged: bool) -> StartTrace:
        return dataclasses.replace(
            trace, steps=tuple(steps), final=(u1, u2), final_value=value, evals=evals,
            converged=converged,
        )

    def short(step: tuple[float, float] | None) -> bool:
        if step is None:
            return False
        end1, end2 = clip((u1 + step[0], u2 + step[1]), domain)
        return math.hypot(end1 - u1, end2 - u2) <= search.NEWTON_TOL

    def counted(a: float, b: float) -> tuple[float, float]:
        nonlocal evals
        evals += 1
        return gradient(a, b)

    def probe(t: float) -> float | None:
        nonlocal evals
        point = clip((u1 + t * step[0], u2 + t * step[1]), domain)
        if not config.feasible(*point):
            return math.inf
        if evals >= config.max_evals:
            return None
        evals += 1
        return float(objective(*point))

    last = None
    for iteration in range(search.NEWTON_ITERATIONS + 1):
        if evals >= config.max_evals:
            return ended(False)
        g = counted(u1, u2)
        if last is not None and short(newton_step((u1, u2), g, last, domain, margin)):
            return ended(True)
        if iteration == search.NEWTON_ITERATIONS:
            break
        if evals + 2 > config.max_evals:
            return ended(False)
        last = hessian(counted, (u1, u2), g, config)
        step = None if last is None else newton_step((u1, u2), g, last, domain, margin)
        if step is None or not all(map(math.isfinite, step)) or short(step):
            break
        end1, end2 = clip((u1 + step[0], u2 + step[1]), domain)
        found = line_search(probe, value, g[0] * (end1 - u1) + g[1] * (end2 - u2))
        if found is None:
            return ended(evals < config.max_evals)
        t, value = found
        moved1, moved2 = clip((u1 + t * step[0], u2 + t * step[1]), domain)
        length = math.hypot(moved1 - u1, moved2 - u2)
        steps.append(TraceStep("newton", moved1, moved2, length, value))
        u1, u2 = moved1, moved2
    return ended(True)


def fast_traces(cycle: SampledCycle, config: SearchConfig) -> tuple[tuple[StartTrace, ...], int]:
    """``fast_if``'s traces and winning index from the reference loop, on one ``search._Kernel``."""
    kernel = search._Kernel(cycle)
    visited: dict = {}
    traces: list[StartTrace] = []
    for index, start in enumerate(config.starts):
        trace = compass_search(kernel.objective, start, config, visited, index)
        if trace.joined is not None:
            held = traces[trace.joined]
            trace = dataclasses.replace(
                trace, final=held.final, final_value=held.final_value, converged=held.converged
            )
        traces.append(trace)
    cutoff = (min(trace.final_value for trace in traces)
              + search._TIE_TOLERANCE * cycle.centered_energy)
    index = next(i for i, trace in enumerate(traces) if trace.final_value <= cutoff)
    traces[index] = newton_finish(kernel.newton_objective, kernel.gradient, traces[index], config)
    return tuple(traces), index
