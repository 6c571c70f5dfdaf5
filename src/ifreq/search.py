"""Outer minimization over the frequency plane.

Three entry points:

* ``brute_force_if``: exhaustive scan of the reduced objective on a uniform
  grid. Slow but assumption-free; serves as the reference result and produces
  the dense objective matrix for heat-map export.
* ``compass_search``: derivative-free pattern search stepping along the
  coordinate directions, halving the step after a failed sweep. Every point
  lies on one lattice anchored at the domain corner with spacing ``delta0``,
  the same for every start.
* ``fast_if``: multi-start compass search with lobe-based default guesses,
  each start stopped at the coarse hand-off step ``delta_tol``, or where it
  meets the path of an earlier start, which it then joins; then a projected
  Newton finish on the winning start from the exact gradient of the moment
  kernel. The production extractor.

All searching happens in dimensionless coordinates ``u1 = omega1*T0/pi``,
``u2 = omega2*(T-T0)/pi`` so step sizes and tolerances are cycle-independent;
a point goes to rad/s only in ``_Kernel``, the grid's axes in ``_grid_axes``.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import FreqPair, ModelParams, SampledCycle
from .objective import (
    DEFAULT_DOMAIN,
    NODE_EXCLUSION_RADIUS,
    Domain,
    GeometryTerms,
    InnerSolution,
    SegmentTerms,
    geometry_terms,
    gradient_from_terms,
    node_distance,
    normalized_objective,
    objective_from_term_arrays,
    objective_from_terms,
    segment_slopes,
    segment_term_arrays,
    solve_from_terms,
)


#: Default bound on the larger per-frequency mean |omega_fast - omega_grid|
#: (rad/s) for a fast-vs-grid comparison to pass.
COMPARE_THRESHOLD = 0.0475

#: Grid scans with more points than this raise GridTooLargeError.
MAX_GRID_POINTS = 2_000_000

# Points the grid scores in one batch of terms and one array combine: a block
# holds as many whole rows as fit. Measured on the default grid: peak traced
# memory 5 MB at 2**12 points, 19 MB at 2**14 and 32 MB at 2**16, at the same
# speed; 2**10 is ~6% slower.
_GRID_BLOCK_POINTS = 2**12

#: Grid spacing units: rad/s, or the dimensionless (u1, u2) the fast search uses.
MESH_UNITS = ("rad/s", "dimensionless")

#: Newton iterations of the finish, at most.
NEWTON_ITERATIONS = 10

#: A Newton step shorter than this (dimensionless) ends the finish converged.
NEWTON_TOL = 1e-6

# Dimensionless offset of the one-sided differences of the exact gradient that
# give the finish its Hessian.
_HESSIAN_STEP = 1e-7

# Halvings of one Newton step before the finish stops trying it.
_BACKTRACKS = 10

# Ties between fast_if's starts, as a fraction of the centered energy.
_TIE_TOLERANCE = 1e-11


class GridTooLargeError(ValueError):
    """Requested grid has more than MAX_GRID_POINTS points."""

    def __init__(self, points: int, budget: int):
        super().__init__(f"grid would have {points} points, budget is {budget}")
        self.points = points
        self.budget = budget


class UnconvergedSearchError(RuntimeError):
    """Every start exhausted its evaluation budget; carries the best effort found."""

    def __init__(self, outcome: "SearchOutcome"):
        super().__init__("no start converged within the evaluation budget")
        self.outcome = outcome


@dataclass(frozen=True)
class SearchConfig:
    """Settings for the multi-start compass search and its Newton finish.

    Defaults: initial step 0.1 (dimensionless) and the two lobe guesses (1, 2)
    and (1, 0.9) of the reference protocol; the command line reads its
    defaults from here. ``delta_tol`` (0.02) is the hand-off step: every
    compass start stops once its step falls below it, and :func:`fast_if`
    finishes the winner by Newton steps from there. ``delta0`` must be finite
    and above ``delta_tol``, or halving would never reach it.
    ``random_guesses`` adds seeded extra starts on the compass's ``delta0``
    lattice: uniform draws rounded to the nearest lattice point inside the
    domain, rejection-sampled outside the node exclusion tubes of radius
    ``NODE_EXCLUSION_RADIUS``. ``starts`` holds the guesses, then those
    extras, drawn once when the config is built, so a config with
    ``seed=None`` gives the same starts at every call; a domain whose lattice
    yields no feasible draw raises InfeasibleDomainError then. ``max_evals``
    caps the evaluations of each start, the winner's Newton finish included.
    """

    domain: Domain = DEFAULT_DOMAIN
    delta0: float = 0.1
    delta_tol: float = 0.02
    guesses: tuple[tuple[float, float], ...] = ((1.0, 2.0), (1.0, 0.9))
    random_guesses: int = 0
    seed: int | None = None
    max_evals: int = 10000
    starts: tuple[tuple[float, float], ...] = dataclasses.field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta0) and self.delta0 > self.delta_tol > 0.0):
            raise ValueError(
                f"need finite delta0 > delta_tol > 0, got {self.delta0}, {self.delta_tol}"
            )
        if self.random_guesses < 0:
            raise ValueError("random_guesses must be >= 0")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        object.__setattr__(
            self, "guesses", tuple((float(u1), float(u2)) for u1, u2 in self.guesses)
        )
        if not self.guesses and self.random_guesses == 0:
            raise ValueError("need at least one start")
        for u1, u2 in self.guesses:
            if not self.feasible(u1, u2):
                raise ValueError(f"guess ({u1}, {u2}) is outside the domain or in a node tube")
        object.__setattr__(self, "starts", self.guesses + tuple(_random_starts(self)))

    def feasible(self, u1: float, u2: float) -> bool:
        """Inside the domain and outside every node exclusion tube."""
        d = self.domain
        if not (d.u1_min <= u1 <= d.u1_max and d.u2_min <= u2 <= d.u2_max):
            return False
        r = NODE_EXCLUSION_RADIUS  # nodes sit at integers; remainder(u, 1) is exact
        if abs(math.remainder(u1, 1.0)) > r or abs(math.remainder(u2, 1.0)) > r:
            return True
        return node_distance(u1, u2) > r


@dataclass(frozen=True)
class GridConfig:
    """Settings for the exhaustive grid scan over ``domain``.

    ``mesh`` is the grid spacing, by default 0.02*pi rad/s; set
    ``mesh_unit="dimensionless"`` to space the grid in (u1, u2) instead. The
    default domain is the same dimensionless rectangle the fast search uses,
    and the command line reads its defaults from here.
    """

    domain: Domain = DEFAULT_DOMAIN
    mesh: float = 0.02 * math.pi
    mesh_unit: str = "rad/s"

    def __post_init__(self) -> None:
        if self.mesh <= 0.0 or not math.isfinite(self.mesh):
            raise ValueError(f"mesh must be finite and > 0, got {self.mesh}")
        if self.mesh_unit not in MESH_UNITS:
            raise ValueError(f"mesh_unit must be one of {MESH_UNITS}, got {self.mesh_unit!r}")


class TraceStep(NamedTuple):
    """One recorded search event: the incumbent point, step length, and objective."""

    kind: str  # "start" | "move" | "halve" | "newton" (delta: the step length taken)
    u1: float
    u2: float
    delta: float
    value: float


@dataclass(frozen=True)
class StartTrace:
    """Per-start search record: events, cost, and where the start ended up.

    ``steps`` is a tuple of :class:`TraceStep`, which the search builds with
    ``tuple.__new__`` (no per-step constructor call). ``joined`` is the index
    of the earlier start whose state this start reached; its steps end there,
    ``final``, ``final_value`` and ``converged`` are that start's at its
    hand-off, and ``evals`` counts its own evaluations. :func:`fast_if` makes
    that copy, and :func:`_newton_finish` its result, with this constructor.
    """

    start: tuple[float, float]
    steps: tuple[TraceStep, ...]
    final: tuple[float, float]
    final_value: float
    evals: int
    converged: bool
    joined: int | None = None


@dataclass(frozen=True, eq=False)
class ObjectiveGrid:
    """Dense objective matrix over the scan grid.

    ``values[i, j]`` is the objective at ``(omega1[i], omega2[j])`` (equally
    ``(u1[i], u2[j])``); ``node_tube[i, j]`` flags points within the node
    exclusion radius of a lattice node.
    """

    omega1: np.ndarray
    omega2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    values: np.ndarray
    node_tube: np.ndarray
    argmin: tuple[int, int]
    flat: bool


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one extraction run on a cycle."""

    algorithm: str  # "fast" | "brute"
    best: FreqPair
    params: ModelParams
    objective_value: float
    normalized_objective_value: float
    traces: tuple[StartTrace, ...]
    evals: int
    wall_ms: float
    converged: bool
    lobe: str  # "upper" | "lower", from the winning start's u2
    winning_start: tuple[float, float]
    newton_iterations: int  # Newton steps the winning start took (0 for "brute")
    gradient_norm: float  # |grad_u P| / centered energy at ``best``; NaN on the lattice
    gram_condition: float  # of the final solve's Gram system at ``best``
    flat_objective: bool = False

    def dimensionless(self, cycle: SampledCycle) -> tuple[float, float]:
        return self.best.dimensionless(cycle.T0, cycle.T)


@dataclass(frozen=True)
class CycleComparison:
    """Fast-vs-brute deltas for one cycle."""

    index: int
    fast: SearchOutcome
    brute: SearchOutcome
    abs_domega: tuple[float, float]  # rad/s per frequency
    abs_du: tuple[float, float]  # dimensionless per frequency
    wall_ratio: float


@dataclass(frozen=True)
class ComparisonReport:
    """Aggregate fast-vs-brute statistics over a batch of cycles."""

    per_cycle: tuple[CycleComparison, ...]
    mean_abs_domega: tuple[float, float]
    max_mean_abs_domega: float
    median_wall_ratio: float
    threshold: float
    passed: bool


# A start within this many lattice steps of a lattice point enters on it.
_SNAP = 1e-9


def _lattice_point(config: SearchConfig, x1: float, x2: float) -> tuple[float, float]:
    """The point ``corner + delta0*x`` of the compass lattice anchored at the domain corner."""
    domain = config.domain
    return domain.u1_min + config.delta0 * x1, domain.u2_min + config.delta0 * x2


def _lattice_coordinates(config: SearchConfig, u1: float, u2: float) -> tuple[float, float]:
    """``(u - corner)/delta0``, rounded to whole steps where it is within _SNAP of them."""
    domain, delta0 = config.domain, config.delta0
    x1, x2 = (u1 - domain.u1_min) / delta0, (u2 - domain.u2_min) / delta0
    whole1, whole2 = round(x1), round(x2)
    return (
        float(whole1) if abs(x1 - whole1) <= _SNAP else x1,
        float(whole2) if abs(x2 - whole2) <= _SNAP else x2,
    )


def compass_search(
    objective: Callable[[float, float], float],
    start: tuple[float, float],
    config: SearchConfig,
    visited: dict[tuple[float, float, float], int] | None = None,
    index: int = 0,
) -> StartTrace:
    """Pattern search along the coordinate directions from one start, on the lattice.

    The search keeps its point as lattice coordinates x, with u = corner +
    delta0*x and the corner ``(u1_min, u2_min)`` of ``config.domain``: the
    start enters at x = (u - corner)/delta0 (:func:`_lattice_coordinates`),
    a move adds the step (1, 1/2, 1/4, ... in x) to one coordinate, and every
    u is computed from x alone, as :func:`_lattice_point` computes it, so a
    point has the same floats from any start (Torczon 1997). Where the
    start's lattice point, a few ulps off the start, is not feasible, the
    start is evaluated where it was given and its first state is not shared.
    Scans +u1, -u1, +u2, -u2 in that fixed order and accepts the first strict
    improvement; after a sweep with no improvement the step halves, and the
    search stops once ``delta0`` times the step drops below
    ``config.delta_tol``. A proposal whose lattice point fails
    :meth:`SearchConfig.feasible` (outside the domain or inside a node
    exclusion tube) is treated as non-improving without spending an
    evaluation. Exceeding ``config.max_evals`` ends the start unconverged.
    Each move and halving is one :class:`TraceStep`, built without the
    named-tuple constructor's argument handling. The poll order is fixed
    because it decides which basin a start walks into: polling the last
    successful direction first, and skipping the point just left, cut
    extract-style cycles from 82.0 to 59.7 evaluations (perfbench seed 60451,
    300 cycles), but on acceptance criterion 7's lower-lobe cycle the start
    (1, 2) then reached that lobe's minimum first, (1, 0.9) joined its path,
    and the upper-lobe start won.

    ``visited`` maps each state (x1, x2, step) to the ``index`` of the first
    start that held it. A start that reaches a state another start held stops
    there with ``joined`` set to that start: the search is deterministic in
    its state and objective, so the rest of its path would be the other
    start's. The caller copies the end of that start's trace; with
    ``visited=None`` every start runs to its own end.
    """
    feasible = config.feasible
    corner1, corner2 = config.domain.u1_min, config.domain.u2_min
    delta0, delta_tol, max_evals = config.delta0, config.delta_tol, config.max_evals
    record = tuple.__new__
    x1, x2 = _lattice_coordinates(config, start[0], start[1])
    u1, u2 = corner1 + delta0 * x1, corner2 + delta0 * x2
    shared = feasible(u1, u2)
    if not shared:
        u1, u2 = float(start[0]), float(start[1])
        if not feasible(u1, u2):
            raise ValueError(f"start ({u1}, {u2}) is infeasible for the configured domain")
    value = float(objective(u1, u2))
    evals = 1
    step = 1.0
    steps = [record(TraceStep, ("start", u1, u2, delta0, value))]
    converged = False
    joined = None
    while True:
        if shared and visited is not None:
            held = visited.setdefault((x1, x2, step), index)
            if held != index:
                joined = held
                break
        moved = out_of_budget = False
        sweep = (x1 + step, x2), (x1 - step, x2), (x1, x2 + step), (x1, x2 - step)
        for cand_x1, cand_x2 in sweep:
            cand1, cand2 = corner1 + delta0 * cand_x1, corner2 + delta0 * cand_x2
            if not feasible(cand1, cand2):
                continue
            if evals >= max_evals:
                out_of_budget = True
                break
            cand_value = float(objective(cand1, cand2))
            evals += 1
            if cand_value < value:
                x1, x2, u1, u2, value = cand_x1, cand_x2, cand1, cand2, cand_value
                steps.append(record(TraceStep, ("move", u1, u2, delta0 * step, value)))
                moved = shared = True
                break
        if out_of_budget:
            break
        if not moved:
            step *= 0.5
            steps.append(record(TraceStep, ("halve", u1, u2, delta0 * step, value)))
            if delta0 * step < delta_tol:
                converged = True
                break
    return StartTrace(
        (float(start[0]), float(start[1])), tuple(steps), (u1, u2), value, evals, converged, joined
    )


def _random_starts(config: SearchConfig) -> list[tuple[float, float]]:
    """``config.random_guesses`` feasible points of the compass lattice, from seeded draws.

    Each uniform draw of ``Domain.draw`` goes to the nearest lattice point
    inside the domain; a point that is not feasible is drawn again.
    """
    if not config.random_guesses:
        return []
    rng = np.random.default_rng(config.seed)
    d = config.domain
    top = _lattice_coordinates(config, d.u1_max, d.u2_max)

    def accept(u1: float, u2: float) -> tuple[float, float] | None:
        x = _lattice_coordinates(config, u1, u2)
        point = _lattice_point(config, *(min(round(a), math.floor(b)) for a, b in zip(x, top)))
        return point if config.feasible(*point) else None

    return [d.draw(rng, accept) for _ in range(config.random_guesses)]


# The memo of geometry_terms that every _Kernel shares: one slot, holding the
# sampling geometry (n, m, dt) of the last kernel that joined it and, from the
# second kernel in a row of that geometry on, each segment's terms by exact
# omega. (n, m, dt) fixes every plan field geometry_terms reads. A kernel of
# another geometry takes the slot and keeps nothing, so a stream whose beat
# lengths change from beat to beat stores almost nothing. At most
# _SHARED_TERMS_PER_SEGMENT terms per segment (~0.33 MB at n = 181, m = 320);
# a miss that finds its segment full clears it first. The default config's
# compass visits at most 41 systolic and 101 diastolic frequencies per geometry.
_SHARED_TERMS_PER_SEGMENT = 128
_shared_geometry: tuple = ()
_shared_terms: tuple[dict[float, GeometryTerms], ...] = ()


def _geometry_memo(cycle: SampledCycle) -> tuple[dict[float, GeometryTerms], ...]:
    """Both segments' shared terms for ``cycle``'s geometry; () where the slot held another."""
    global _shared_geometry, _shared_terms
    geometry = cycle.n, cycle.m, cycle.dt
    if geometry != _shared_geometry:
        _shared_geometry, _shared_terms = geometry, ()
    elif not _shared_terms:
        _shared_terms = {}, {}
    return _shared_terms


class _Kernel:
    """P, its exact gradient and the final solve on one cycle, at dimensionless points.

    The one place this module turns a point (u1, u2) into rad/s, as
    :meth:`FreqPair.from_dimensionless` does. An instance keeps
    :func:`segment_terms` per exact u1 and u2 and P per exact point, so a
    compass probe (one coordinate moves) computes at most one segment.
    :meth:`objective` computes a segment's terms as :func:`segment_terms`
    does, :func:`geometry_terms` plus the phase sums, but takes the
    data-free :func:`geometry_terms` from a memo that every kernel in the
    process shares: one slot, keyed by the sampling geometry (n, m, dt) and
    then by the exact omega (see ``_shared_terms``). A kernel joins it at its
    first :meth:`objective` miss; from the second kernel in a row of one
    geometry on, kernels keep and read that geometry's terms, so a stream
    whose beats share (n, m, dt) computes them once per frequency, and one
    whose beat lengths change from beat to beat keeps almost nothing and
    pays one geometry comparison per kernel. :meth:`newton_objective`
    and :meth:`gradient` compute :func:`segment_slopes` instead, which repeat
    the terms bit for bit, kept per kernel only, and :meth:`solve` reads what
    is kept. In any call order, with the memo empty, filled or evicting,
    every method gives the bits of a fresh :func:`objective_p`,
    :func:`objective_gradient` or :func:`solve_inner`, none of which reads
    the memo; nor does the grid scan.
    """

    __slots__ = ("cycle", "_T0", "_dT", "_plans", "_memos", "_terms", "_slopes", "_values")

    def __init__(self, cycle: SampledCycle):
        self.cycle = cycle
        self._T0, self._dT = cycle.T0, cycle.T - cycle.T0
        self._plans = cycle.segment_plans
        self._memos: tuple[dict[float, GeometryTerms], ...] | None = None
        self._terms: tuple[dict[float, SegmentTerms], ...] = ({}, {})
        self._slopes: tuple[dict[float, SegmentTerms], ...] = ({}, {})
        self._values: dict[tuple[float, float], float] = {}

    def objective(self, u1: float, u2: float) -> float:
        """P at (u1, u2)."""
        key = u1, u2
        value = self._values.get(key)
        if value is None:
            cycle, (systolic, diastolic) = self.cycle, self._terms
            omega1, omega2 = u1 * math.pi / self._T0, u2 * math.pi / self._dT
            s = systolic.get(u1)
            if s is None:
                s = systolic[u1] = self._segment_terms(0, omega1)
            d = diastolic.get(u2)
            if d is None:
                d = diastolic[u2] = self._segment_terms(1, omega2)
            value = self._values[key] = objective_from_terms(cycle, s, d, omega1, omega2)
        return value

    def _segment_terms(self, segment: int, omega: float) -> SegmentTerms:
        """:func:`segment_terms` at ``omega``, its :func:`geometry_terms` through the shared memo."""
        memos = self._memos
        if memos is None:
            memos = self._memos = _geometry_memo(self.cycle)
        plan = self._plans[segment]
        if memos:
            # omega > 0, since a Domain's bounds are: float keys equate 0.0
            # and -0.0, whose trig differs
            memo = memos[segment]
            shared = memo.get(omega)
            if shared is None:
                if len(memo) >= _SHARED_TERMS_PER_SEGMENT:
                    memo.clear()
                shared = memo[omega] = geometry_terms(plan, omega)
                # read-only, as segment_plans' arrays are: later cycles read them
                shared[0].setflags(write=False)
                shared[1].setflags(write=False)
            left, right, closed = shared
        else:
            left, right, closed = geometry_terms(plan, omega)
        sums = complex(left.dot(plan.block).dot(right))
        return closed + (sums.real, sums.imag)

    def _segments(self, u1: float, u2: float) -> tuple[SegmentTerms, ...]:
        """Both segments' terms, then both segments' slopes, at (u1, u2)."""
        (systolic, diastolic), (systolic_slopes, diastolic_slopes) = self._terms, self._slopes
        if u1 not in systolic_slopes:
            omega1 = u1 * math.pi / self._T0
            systolic[u1], systolic_slopes[u1] = segment_slopes(self.cycle, 0, omega1)
        if u2 not in diastolic_slopes:
            omega2 = u2 * math.pi / self._dT
            diastolic[u2], diastolic_slopes[u2] = segment_slopes(self.cycle, 1, omega2)
        return systolic[u1], diastolic[u2], systolic_slopes[u1], diastolic_slopes[u2]

    def newton_objective(self, u1: float, u2: float) -> float:
        """P at (u1, u2), keeping the slopes the gradient there reads."""
        self._segments(u1, u2)
        return self.objective(u1, u2)

    def gradient(self, u1: float, u2: float) -> tuple[float, float]:
        """``(dP/du1, dP/du2)``; NaN on the lattice."""
        g1, g2 = gradient_from_terms(self.cycle, *self._segments(u1, u2))
        return g1 * math.pi / self._T0, g2 * math.pi / self._dT

    def solve(self, u1: float, u2: float) -> tuple[FreqPair, InnerSolution]:
        """(u1, u2) in rad/s, and :func:`solve_from_terms` there."""
        systolic, diastolic, _, _ = self._segments(u1, u2)
        freqs = FreqPair.from_dimensionless(u1, u2, self.cycle.T0, self.cycle.T)
        return freqs, solve_from_terms(self.cycle, systolic, diastolic, freqs)


def _outcome_at(
    kernel: _Kernel, u1: float, u2: float, algorithm: str, traces: tuple[StartTrace, ...],
    evals: int, started: float, converged: bool, winning_start: tuple[float, float],
    newton_iterations: int = 0, flat_objective: bool = False,
) -> SearchOutcome:
    """The outcome reported at (u1, u2), from ``kernel``'s final solve and gradient there.

    ``wall_ms`` runs from the ``time.perf_counter()`` reading ``started`` to
    the end of the final solve.
    """
    cycle = kernel.cycle
    freqs, solution = kernel.solve(u1, u2)
    gradient = kernel.gradient(u1, u2)
    wall_ms = (time.perf_counter() - started) * 1000.0
    return SearchOutcome(
        algorithm=algorithm,
        best=freqs,
        params=solution.params,
        objective_value=solution.objective_value,
        normalized_objective_value=normalized_objective(solution.objective_value, cycle),
        traces=traces,
        evals=evals,
        wall_ms=wall_ms,
        converged=converged,
        lobe="upper" if winning_start[1] > 1.0 else "lower",
        winning_start=winning_start,
        newton_iterations=newton_iterations,
        gradient_norm=normalized_objective(math.hypot(*gradient), cycle),
        gram_condition=solution.gram_condition,
        flat_objective=flat_objective,
    )


def _hessian(
    gradient: Callable[[float, float], tuple[float, float]],
    u: tuple[float, float],
    g: tuple[float, float],
    config: SearchConfig,
) -> tuple[float, float, float] | None:
    """``(H11, H12, H22)`` by one-sided differences of the exact gradient about ``u``.

    ``g`` is the gradient at ``u``. Each axis is probed forward, or backward
    where the forward probe is not feasible, so every point the gradient sees
    passes ``config.feasible``; None if neither is. The u1 probe is taken
    before the u2 probe is tried. By separability a probe recomputes one
    segment's slopes only.
    """
    feasible = config.feasible
    (u1, u2), (g1, g2) = u, g
    probe = u1 + _HESSIAN_STEP
    if not feasible(probe, u2):
        probe = u1 - _HESSIAN_STEP
        if not feasible(probe, u2):
            return None
    moved1, moved2 = gradient(probe, u2)
    width = probe - u1
    h11, h21 = (moved1 - g1) / width, (moved2 - g2) / width
    probe = u2 + _HESSIAN_STEP
    if not feasible(u1, probe):
        probe = u2 - _HESSIAN_STEP
        if not feasible(u1, probe):
            return None
    moved1, moved2 = gradient(u1, probe)
    width = probe - u2
    return h11, 0.5 * (h21 + (moved1 - g1) / width), (moved2 - g2) / width


def _clamp(x: float, lo: float, hi: float) -> float:
    """``min(max(x, lo), hi)`` bit for bit, at a fraction of the two builtin calls' cost."""
    return lo if lo > x else hi if hi < x else x


def _newton_step(
    u: tuple[float, float],
    g: tuple[float, float],
    hessian: tuple[float, float, float],
    domain: Domain,
    margin: float,
) -> tuple[float, float] | None:
    """Projected Newton direction (Bertsekas 1982) from ``u``, tried clipped to the domain.

    A coordinate whose gradient points out of the domain is active when it
    lies within ``margin`` of that bound, and within the length of the
    clipped diagonal Newton step, which shrinks to 0 at an interior
    stationary point. An active coordinate takes its own diagonal Newton
    step, so on the bound the clipping holds it there. The free coordinates
    take the Newton step of their own block of the Hessian, each eigenvalue
    taken by its absolute value, so that along a direction of negative
    curvature the step still goes downhill. None where a curvature the step
    divides by is zero or not finite.
    """
    h11, h12, h22 = hessian
    (u1, u2), (g1, g2) = u, g
    curvature1, curvature2 = abs(h11), abs(h22)
    if not (0.0 < curvature1 < math.inf and 0.0 < curvature2 < math.inf):
        return None
    diagonal1, diagonal2 = -g1 / curvature1, -g2 / curvature2
    lo1, hi1, lo2, hi2 = domain.u1_min, domain.u1_max, domain.u2_min, domain.u2_max
    reach = math.hypot(_clamp(u1 + diagonal1, lo1, hi1) - u1, _clamp(u2 + diagonal2, lo2, hi2) - u2)
    if reach < margin:
        margin = reach
    if (
        (u1 - lo1 <= margin and g1 > 0.0) or (hi1 - u1 <= margin and g1 < 0.0)
        or (u2 - lo2 <= margin and g2 > 0.0) or (hi2 - u2 <= margin and g2 < 0.0)
    ):
        return diagonal1, diagonal2
    # H = R diag(major, minor) R^T, R the rotation by ``angle``
    mean, radius = 0.5 * (h11 + h22), math.hypot(0.5 * (h11 - h22), h12)
    major, minor = abs(mean + radius), abs(mean - radius)
    if not minor > 0.0:
        return None
    angle = 0.5 * math.atan2(2.0 * h12, h11 - h22)
    c, s = math.cos(angle), math.sin(angle)
    along = -(c * g1 + s * g2) / major
    across = -(c * g2 - s * g1) / minor
    return c * along - s * across, s * along + c * across


def _parabola_vertex(value: float, slope: float, t: float, value_t: float) -> float | None:
    """Minimiser of the parabola through ``(0, value)`` with ``slope`` there and ``(t, value_t)``.

    None where that parabola has no minimum or the data are not finite.
    """
    curvature = (value_t - value - slope * t) / (t * t)
    if not (slope < 0.0 and curvature > 0.0 and math.isfinite(curvature)):
        return None
    return -slope / (2.0 * curvature)


def _line_search(
    probe: Callable[[float], float | None], value: float, slope: float
) -> tuple[float, float] | None:
    """A scale ``t`` of a Newton step at which P falls below ``value``, and P there.

    ``probe(t)`` is P at scale ``t`` (+inf where that point is not feasible,
    None once the evaluation budget is spent); ``slope`` is dP/dt at 0. The
    full step comes first; while P does not fall, ``t`` shrinks to the
    minimiser of the parabola through P(0), the slope and P(t), kept within
    ``[0.1*t, 0.5*t]`` (halved where there is none). Where an accepted
    ``t`` is far from that parabola's minimiser, as on a curved valley floor,
    the minimiser (at most ``4*t``) is tried once too and the lower one kept.
    None if P has not fallen after _BACKTRACKS shortenings.
    """
    t = 1.0
    for _ in range(_BACKTRACKS + 1):
        value_t = probe(t)
        if value_t is None:
            return None
        vertex = _parabola_vertex(value, slope, t, value_t)
        if value_t < value:
            if vertex is not None and abs(vertex / t - 1.0) > 0.25:
                moved = min(vertex, 4.0 * t)
                value_moved = probe(moved)
                if value_moved is not None and value_moved < value_t:
                    return moved, value_moved
            return t, value_t
        t = 0.5 * t if vertex is None else _clamp(vertex, 0.1 * t, 0.5 * t)
    return None


def _newton_finish(
    objective: Callable[[float, float], float],
    gradient: Callable[[float, float], tuple[float, float]],
    trace: StartTrace,
    config: SearchConfig,
) -> StartTrace:
    """Refine a start that stopped at the hand-off step ``config.delta_tol`` by Newton steps.

    At most NEWTON_ITERATIONS projected Newton steps (:func:`_newton_step`,
    the active margin being the hand-off step), each from the exact gradient
    and a Hessian of its one-sided differences: three evaluations. Each step's
    points are clipped to the domain, and :func:`_line_search` scales the step
    until it lands on a feasible point where P falls; each accepted step is a
    "newton" TraceStep. The finish ends converged once a step, from the
    fresh Hessian or from the last one, is shorter than NEWTON_TOL. Otherwise
    (a singular Hessian, no fall in P, the iterations spent) Newton stalls
    and the finish ends where it stopped, converged as the compass was: every
    accepted step lowered P. Newton's evaluations count toward
    ``config.max_evals`` with the start's; spending them ends the start
    unconverged. The finished start is a new StartTrace with ``trace``'s
    ``start`` and ``joined``.
    """
    if not trace.converged:
        return trace
    feasible, domain, margin, max_evals = (
        config.feasible, config.domain, config.delta_tol, config.max_evals
    )
    lo1, hi1, lo2, hi2 = domain.u1_min, domain.u1_max, domain.u2_min, domain.u2_max
    (u1, u2), value, evals = trace.final, trace.final_value, trace.evals
    steps = list(trace.steps)
    converged = True

    def counted(a: float, b: float) -> tuple[float, float]:
        nonlocal evals
        evals += 1
        return gradient(a, b)

    def probe(t: float) -> float | None:
        nonlocal evals
        point1, point2 = _clamp(u1 + t * step1, lo1, hi1), _clamp(u2 + t * step2, lo2, hi2)
        if not feasible(point1, point2):
            return math.inf
        if evals >= max_evals:
            return None
        evals += 1
        return float(objective(point1, point2))

    hessian = None
    for iteration in range(NEWTON_ITERATIONS + 1):
        if evals >= max_evals:
            converged = False
            break
        evals += 1
        g = gradient(u1, u2)
        if hessian is not None:
            # the last Hessian's step from here, clipped: a short one ends the finish
            step = _newton_step((u1, u2), g, hessian, domain, margin)
            if step is not None and math.hypot(
                _clamp(u1 + step[0], lo1, hi1) - u1, _clamp(u2 + step[1], lo2, hi2) - u2
            ) <= NEWTON_TOL:
                break
        if iteration == NEWTON_ITERATIONS:
            break
        if evals + 2 > max_evals:
            converged = False
            break
        hessian = _hessian(counted, (u1, u2), g, config)
        step = None if hessian is None else _newton_step((u1, u2), g, hessian, domain, margin)
        if step is None:
            break
        step1, step2 = step
        if not (math.isfinite(step1) and math.isfinite(step2)):
            break
        end1, end2 = _clamp(u1 + step1, lo1, hi1), _clamp(u2 + step2, lo2, hi2)
        if math.hypot(end1 - u1, end2 - u2) <= NEWTON_TOL:
            break
        found = _line_search(probe, value, g[0] * (end1 - u1) + g[1] * (end2 - u2))
        if found is None:
            converged = evals < max_evals
            break
        t, value = found
        moved1, moved2 = _clamp(u1 + t * step1, lo1, hi1), _clamp(u2 + t * step2, lo2, hi2)
        length = math.hypot(moved1 - u1, moved2 - u2)
        steps.append(tuple.__new__(TraceStep, ("newton", moved1, moved2, length, value)))
        u1, u2 = moved1, moved2
    return StartTrace(trace.start, tuple(steps), (u1, u2), value, evals, converged, trace.joined)


def fast_if(cycle: SampledCycle, config: SearchConfig | None = None) -> SearchOutcome:
    """Multi-start compass search and a Newton finish for the intrinsic frequencies of a cycle.

    Runs a compass search from every start of ``config.starts`` (the guesses,
    then any seeded random extras), in order, until its step falls below
    ``config.delta_tol``, keeps the start with the lowest objective, and
    refines that start by :func:`_newton_finish`. All starts walk one lattice
    and share one map of the states (lattice point, step) they held in this
    call: a start that reaches a state an earlier start held stops there and
    takes that start's end (``StartTrace.joined``), which is exact because the
    compass is deterministic in its state. Starts whose hand-off values are
    within 1e-11 of the centered energy of the lowest are tied, and the first
    of them in start order wins (so a joined start never beats the start it
    joined): that is the rounding floor :func:`objective_p` documents, so
    starts converging to one point from different sides can end that close,
    and which one reads lower is rounding, not the landscape. One
    :class:`_Kernel` serves the whole call: the compass, the finish and the
    final solve share what it keeps, and a revisit still counts as an
    evaluation. Raises UnconvergedSearchError, carrying the best effort, if
    no start converges.
    """
    config = config or SearchConfig()
    t_begin = time.perf_counter()
    kernel = _Kernel(cycle)
    visited: dict[tuple[float, float, float], int] = {}
    traces: list[StartTrace] = []
    for index, start in enumerate(config.starts):
        trace = compass_search(kernel.objective, start, config, visited, index)
        if trace.joined is not None:
            held = traces[trace.joined]
            trace = StartTrace(
                trace.start, trace.steps, held.final, held.final_value, trace.evals,
                held.converged, trace.joined,
            )
        traces.append(trace)
    cutoff = min(trace.final_value for trace in traces) + _TIE_TOLERANCE * cycle.centered_energy
    index = next(i for i, trace in enumerate(traces) if trace.final_value <= cutoff)
    winner = traces[index] = _newton_finish(
        kernel.newton_objective, kernel.gradient, traces[index], config
    )
    outcome = _outcome_at(
        kernel, *winner.final, algorithm="fast", traces=tuple(traces),
        evals=sum(trace.evals for trace in traces), started=t_begin,
        converged=winner.converged, winning_start=winner.start,
        newton_iterations=sum(step.kind == "newton" for step in winner.steps),
    )
    if not any(trace.converged for trace in traces):
        raise UnconvergedSearchError(outcome)
    return outcome


def _axis_size(lo: float, hi: float, step: float) -> int:
    return max(int(math.floor((hi - lo) / step + 1e-9)) + 1, 1)


def _grid_axes(
    cycle: SampledCycle, grid: GridConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The grid's (omega1, omega2, u1, u2) axes.

    Raises GridTooLargeError before any axis is allocated if the grid has more
    than ``MAX_GRID_POINTS`` points.
    """
    T0 = cycle.T0
    dT = cycle.T - T0
    domain = grid.domain
    if grid.mesh_unit == "rad/s":
        bounds = (
            (domain.u1_min * math.pi / T0, domain.u1_max * math.pi / T0),
            (domain.u2_min * math.pi / dT, domain.u2_max * math.pi / dT),
        )
    else:
        bounds = ((domain.u1_min, domain.u1_max), (domain.u2_min, domain.u2_max))
    sizes = [_axis_size(lo, hi, grid.mesh) for lo, hi in bounds]
    points = sizes[0] * sizes[1]
    if points > MAX_GRID_POINTS:
        raise GridTooLargeError(points, MAX_GRID_POINTS)
    axis1, axis2 = (lo + grid.mesh * np.arange(size) for (lo, _), size in zip(bounds, sizes))
    if grid.mesh_unit == "rad/s":
        return axis1, axis2, axis1 * T0 / math.pi, axis2 * dT / math.pi
    return axis1 * math.pi / T0, axis2 * math.pi / dT, axis1, axis2


def brute_force_if(
    cycle: SampledCycle, grid: GridConfig | None = None
) -> tuple[SearchOutcome, ObjectiveGrid]:
    """Exhaustive objective scan over a uniform frequency grid on ``grid.domain``.

    Evaluates the reduced objective at every grid point (lattice nodes go
    through the degenerate solve automatically) and returns the argmin plus
    the full matrix. It works in blocks of whole rows, at most
    ``_GRID_BLOCK_POINTS`` points each where a row fits. A row computes its
    systolic terms once, but the diastolic terms are computed at every point,
    from the columns repeated once per row of the block: this is the per-point
    reference scan the fast search is timed against. Both come from
    :func:`segment_term_arrays`, and :func:`objective_from_term_arrays`
    combines them into P; each gives every point the bits of the scalar
    :func:`segment_terms` and :func:`objective_from_terms`. Points within
    ``NODE_EXCLUSION_RADIUS`` of a lattice node (``node_distance`` runs only
    where both axes are near an integer) are flagged and left out of the
    argmin unless every point is inside one; ties break toward the lowest
    (u1, u2) in scan order. The final solve and gradient at the argmin come
    from a fresh :class:`_Kernel`, one :func:`segment_slopes` per axis. A
    grid of more than ``MAX_GRID_POINTS`` points raises GridTooLargeError
    before anything is allocated.
    """
    grid = grid or GridConfig()
    t_begin = time.perf_counter()
    omega1, omega2, u1, u2 = _grid_axes(cycle, grid)
    points = omega1.size * omega2.size
    if points > 1_000_000:
        warnings.warn(f"grid has {points} points; this scan will be slow", stacklevel=2)

    values = np.empty((omega1.size, omega2.size))
    height = max(1, _GRID_BLOCK_POINTS // omega2.size)  # whole rows per block
    for start in range(0, omega1.size, height):
        rows = omega1[start:start + height]
        diastolic = segment_term_arrays(cycle, 1, np.tile(omega2, rows.size))
        values[start:start + height] = objective_from_term_arrays(
            cycle, segment_term_arrays(cycle, 0, rows)[:, :, None],
            diastolic.reshape(9, rows.size, omega2.size), rows[:, None], omega2,
        )
    node_tube = np.zeros((omega1.size, omega2.size), dtype=bool)
    near1, near2 = (np.abs(u - np.round(u)) <= NODE_EXCLUSION_RADIUS for u in (u1, u2))
    for i in np.flatnonzero(near1):
        for j in np.flatnonzero(near2):
            node_tube[i, j] = node_distance(u1[i], u2[j]) <= NODE_EXCLUSION_RADIUS

    eligible = values.copy()
    if node_tube.all():
        warnings.warn("every grid point is inside a node tube; argmin over all points",
                      stacklevel=2)
    else:
        eligible[node_tube] = np.inf
    finite_mask = np.isfinite(eligible)
    finite = eligible[finite_mask]
    flat = bool(finite.size > 1 and (finite.max() - finite.min()) <= 1e-12 * max(1.0, finite.max()))
    if flat:
        warnings.warn("flat objective over the grid; argmin is the first point in scan order",
                      stacklevel=2)
        best_index = int(np.flatnonzero(finite_mask.ravel())[0])
    else:
        best_index = int(np.argmin(eligible))  # ties: lowest (u1, u2) in scan order
    argmin = (best_index // omega2.size, best_index % omega2.size)

    objective_grid = ObjectiveGrid(
        omega1=omega1,
        omega2=omega2,
        u1=u1,
        u2=u2,
        values=values,
        node_tube=node_tube,
        argmin=argmin,
        flat=flat,
    )
    best_u1 = float(u1[argmin[0]])
    best_u2 = float(u2[argmin[1]])
    outcome = _outcome_at(
        _Kernel(cycle), best_u1, best_u2, algorithm="brute", traces=(), evals=points,
        started=t_begin, converged=True, winning_start=(best_u1, best_u2), flat_objective=flat,
    )
    return outcome, objective_grid


def compare_cycle(
    index: int, cycle: SampledCycle, fast: SearchOutcome, brute: SearchOutcome
) -> CycleComparison:
    """Fast-vs-brute deltas for one cycle both extractors finished."""
    fast_u = fast.dimensionless(cycle)
    brute_u = brute.dimensionless(cycle)
    return CycleComparison(
        index=index,
        fast=fast,
        brute=brute,
        abs_domega=(
            abs(fast.best.omega1 - brute.best.omega1),
            abs(fast.best.omega2 - brute.best.omega2),
        ),
        abs_du=(abs(fast_u[0] - brute_u[0]), abs(fast_u[1] - brute_u[1])),
        wall_ratio=brute.wall_ms / fast.wall_ms if fast.wall_ms > 0 else float("inf"),
    )


def comparison_report(per_cycle: Sequence[CycleComparison], threshold: float) -> ComparisonReport:
    """Aggregate per-cycle comparisons against ``threshold``.

    The headline statistic is the larger of the two per-frequency mean
    absolute differences in rad/s. With no cycles every statistic is NaN and
    the report fails.
    """
    if not per_cycle:
        nan = math.nan
        return ComparisonReport((), (nan, nan), nan, nan, threshold, False)
    mean_abs_domega = (
        float(np.mean([c.abs_domega[0] for c in per_cycle])),
        float(np.mean([c.abs_domega[1] for c in per_cycle])),
    )
    max_mean = max(mean_abs_domega)
    return ComparisonReport(
        per_cycle=tuple(per_cycle),
        mean_abs_domega=mean_abs_domega,
        max_mean_abs_domega=max_mean,
        median_wall_ratio=float(np.median([c.wall_ratio for c in per_cycle])),
        threshold=threshold,
        passed=max_mean <= threshold,
    )


def compare_algorithms(
    cycles: Sequence[SampledCycle],
    grid: GridConfig | None = None,
    config: SearchConfig | None = None,
    threshold: float = COMPARE_THRESHOLD,
) -> ComparisonReport:
    """Run the grid scan, then the fast search, on every cycle and aggregate their disagreement.

    A failing search raises; ``run_batch(mode="compare")`` isolates failures instead.
    """
    if not cycles:
        raise ValueError("need at least one cycle")
    per_cycle = []
    for index, cycle in enumerate(cycles):
        brute, _ = brute_force_if(cycle, grid)
        per_cycle.append(compare_cycle(index, cycle, fast_if(cycle, config), brute))
    return comparison_report(per_cycle, threshold)
