"""Shared helpers: deterministic synthetic cycles with known ground truth."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ifreq
from ifreq import (
    FreqPair,
    ModelParams,
    SampledCycle,
    reduce_constraints,
    synthesize_cycle,
)

T0 = 0.36
T = 1.0
DT = 0.002


def constrained_params(
    u1: float,
    u2: float,
    b1: float = 1.0,
    b2: float = 0.7,
    pbar: float = 100.0,
    amplitude: float = 20.0,
    t0: float = T0,
    t_period: float = T,
) -> ModelParams:
    """Constraint-satisfying parameters at dimensionless (u1, u2), envelope max = amplitude."""
    freqs = FreqPair.from_dimensionless(u1, u2, t0, t_period)
    a1, a2 = reduce_constraints(freqs, b1, b2, t0, t_period)
    scale = max(abs(a1), abs(b1), abs(a2), abs(b2))
    return ModelParams(
        a1=a1 / scale * amplitude,
        b1=b1 / scale * amplitude,
        a2=a2 / scale * amplitude,
        b2=b2 / scale * amplitude,
        pbar=pbar,
        omega1=freqs.omega1,
        omega2=freqs.omega2,
    )


def make_cycle(
    u1: float,
    u2: float,
    b1: float = 1.0,
    b2: float = 0.7,
    noise_sigma: float = 0.0,
    seed: int = 0,
    pbar: float = 100.0,
    amplitude: float = 20.0,
    t0: float = T0,
    t_period: float = T,
    dt: float = DT,
) -> tuple[SampledCycle, ModelParams]:
    params = constrained_params(
        u1, u2, b1, b2, pbar=pbar, amplitude=amplitude, t0=t0, t_period=t_period
    )
    cycle = synthesize_cycle(params, t0, t_period, dt, noise_sigma=noise_sigma, rng=seed)
    return cycle, params


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


def random_general_freqs(
    rng: np.random.Generator, t0: float = T0, t_period: float = T, min_node_distance: float = 0.05
) -> FreqPair:
    """Uniform draw over the default domain, at least min_node_distance from any node."""
    from ifreq import DEFAULT_DOMAIN, node_distance

    while True:
        u1 = rng.uniform(DEFAULT_DOMAIN.u1_min, DEFAULT_DOMAIN.u1_max)
        u2 = rng.uniform(DEFAULT_DOMAIN.u2_min, DEFAULT_DOMAIN.u2_max)
        if node_distance(u1, u2) >= min_node_distance:
            return FreqPair.from_dimensionless(u1, u2, t0, t_period)


def rotate_to_absolute(a2: float, b2: float, omega2: float, t0: float) -> tuple[float, float]:
    """Diastolic (amp_sin, amp_cos) in absolute time matching segment-local (a2, b2).

    The segment-local sinusoid a2*cos(w*tau) + b2*sin(w*tau) with tau = t - t0
    equals amp_cos*cos(w*t) + amp_sin*sin(w*t) for the rotated coefficients.
    """
    phi = omega2 * t0
    amp_cos = a2 * math.cos(phi) - b2 * math.sin(phi)
    amp_sin = a2 * math.sin(phi) + b2 * math.cos(phi)
    return amp_sin, amp_cos


def run_bounded(code: str, seconds: float = 60.0) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports ifreq from this tree.

    A call that never returns fails the test with TimeoutExpired after
    ``seconds`` instead of hanging the suite.
    """
    src = str(Path(ifreq.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=seconds,
        env={**os.environ, "PYTHONPATH": path},
    )
