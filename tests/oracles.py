"""Independent reference solvers used to cross-check the analytic inner solve.

The dense oracle never touches the package's basis-vector machinery: it builds
the explicit five-column design matrix, eliminates the two coupling constraint
rows through an SVD nullspace, and solves the reduced problem with a QR-based
least-squares call.
"""

from __future__ import annotations

import math

import numpy as np

from ifreq import FreqPair, SampledCycle


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
