"""Outer minimization over the frequency plane.

Three entry points:

* ``brute_force_if``: exhaustive scan of the reduced objective on a uniform
  grid. Slow but assumption-free; serves as the reference result and produces
  the dense objective matrix for heat-map export.
* ``compass_search``: derivative-free pattern search stepping along the
  coordinate directions, halving the step after a failed sweep.
* ``fast_if``: multi-start compass search with lobe-based default guesses;
  the production extractor.

All searching happens in dimensionless coordinates ``u1 = omega1*T0/pi``,
``u2 = omega2*(T-T0)/pi`` so step sizes and tolerances are cycle-independent;
conversion to rad/s happens at the boundary.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import FreqPair, ModelParams, SampledCycle
from .objective import (
    DEFAULT_DOMAIN,
    NODE_EXCLUSION_RADIUS,
    Domain,
    InfeasibleDomainError,
    SegmentTerms,
    nearest_node_dimensionless,
    node_distance,
    normalized_objective,
    objective_from_terms,
    segment_terms,
    solve_inner,
)


#: Default bound on the larger per-frequency mean |omega_fast - omega_grid|
#: (rad/s) for a fast-vs-grid comparison to pass.
COMPARE_THRESHOLD = 0.0475

#: Grid scans with more points than this raise GridTooLargeError.
MAX_GRID_POINTS = 2_000_000

#: Grid spacing units: rad/s, or the dimensionless (u1, u2) the fast search uses.
MESH_UNITS = ("rad/s", "dimensionless")

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
    """Settings for the multi-start compass search.

    Defaults follow the reference protocol: initial step 0.1, tolerance 0.001
    (dimensionless), and the two lobe guesses (1, 2) and (1, 0.9); the command
    line reads its defaults from here. ``delta0`` must be finite, or halving
    would never reach ``delta_tol``. ``random_guesses`` adds seeded uniform
    extra starts, rejection-sampled outside the node exclusion tubes of radius
    ``NODE_EXCLUSION_RADIUS``; a domain inside one tube raises
    InfeasibleDomainError. ``max_evals`` caps the evaluations of each start.
    """

    domain: Domain = DEFAULT_DOMAIN
    delta0: float = 0.1
    delta_tol: float = 0.001
    guesses: tuple[tuple[float, float], ...] = ((1.0, 2.0), (1.0, 0.9))
    random_guesses: int = 0
    seed: int | None = None
    max_evals: int = 10000

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
        d = self.domain  # the tubes are disjoint discs: empty iff one holds all four corners
        corners = [(a, b) for a in (d.u1_min, d.u1_max) for b in (d.u2_min, d.u2_max)]
        n1, n2, _ = nearest_node_dimensionless(d.u1_min, d.u2_min)
        if all(math.hypot(a - n1, b - n2) <= NODE_EXCLUSION_RADIUS for a, b in corners):
            raise InfeasibleDomainError(f"every point of {d} is inside one node exclusion tube")

    def feasible(self, u1: float, u2: float) -> bool:
        """Inside the domain and outside every node exclusion tube."""
        r = NODE_EXCLUSION_RADIUS  # nodes sit at integers, and u - round(u) is exact
        far = abs(u1 - round(u1)) > r or abs(u2 - round(u2)) > r
        return self.domain.contains(u1, u2) and (far or node_distance(u1, u2) > r)


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


@dataclass(frozen=True)
class TraceStep:
    """One recorded search event: the incumbent point, step length, and objective."""

    kind: str  # "start" | "move" | "halve"
    u1: float
    u2: float
    delta: float
    value: float


@dataclass(frozen=True)
class StartTrace:
    """Per-start search record: events, cost, and where the start ended up."""

    start: tuple[float, float]
    steps: tuple[TraceStep, ...]
    final: tuple[float, float]
    final_value: float
    evals: int
    converged: bool


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


_DIRECTIONS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


def compass_search(
    objective: Callable[[float, float], float],
    start: tuple[float, float],
    config: SearchConfig,
) -> StartTrace:
    """Pattern search along the coordinate directions from one start.

    Scans +u1, -u1, +u2, -u2 in that fixed order and accepts the first strict
    improvement; after a sweep with no improvement the step halves, and the
    search stops once the step drops below ``config.delta_tol``. Proposals
    outside the domain or inside a node exclusion tube are treated as
    non-improving without spending an evaluation. Exceeding
    ``config.max_evals`` ends the start unconverged.
    """
    u1, u2 = float(start[0]), float(start[1])
    if not config.feasible(u1, u2):
        raise ValueError(f"start ({u1}, {u2}) is infeasible for the configured domain")
    value = float(objective(u1, u2))
    evals = 1
    delta = config.delta0
    steps = [TraceStep("start", u1, u2, delta, value)]
    converged = False
    out_of_budget = False
    while not out_of_budget:
        moved = False
        for d1, d2 in _DIRECTIONS:
            cand1 = u1 + delta * d1
            cand2 = u2 + delta * d2
            if not config.feasible(cand1, cand2):
                continue
            if evals >= config.max_evals:
                out_of_budget = True
                break
            cand_value = float(objective(cand1, cand2))
            evals += 1
            if cand_value < value:
                u1, u2, value = cand1, cand2, cand_value
                steps.append(TraceStep("move", u1, u2, delta, value))
                moved = True
                break
        if out_of_budget:
            break
        if not moved:
            delta *= 0.5
            steps.append(TraceStep("halve", u1, u2, delta, value))
            if delta < config.delta_tol:
                converged = True
                break
    return StartTrace(
        start=(float(start[0]), float(start[1])),
        steps=tuple(steps),
        final=(u1, u2),
        final_value=value,
        evals=evals,
        converged=converged,
    )


def _random_starts(config: SearchConfig) -> list[tuple[float, float]]:
    rng = np.random.default_rng(config.seed)

    def accept(u1: float, u2: float) -> tuple[float, float] | None:
        return (u1, u2) if config.feasible(u1, u2) else None

    return [config.domain.draw(rng, accept) for _ in range(config.random_guesses)]


def _outcome_at(
    cycle: SampledCycle,
    u1: float,
    u2: float,
    algorithm: str,
    traces: tuple[StartTrace, ...],
    evals: int,
    wall_ms: float,
    converged: bool,
    winning_start: tuple[float, float],
    flat_objective: bool = False,
) -> SearchOutcome:
    freqs = FreqPair.from_dimensionless(u1, u2, cycle.T0, cycle.T)
    solution = solve_inner(freqs, cycle)
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
        flat_objective=flat_objective,
    )


def fast_if(cycle: SampledCycle, config: SearchConfig | None = None) -> SearchOutcome:
    """Multi-start compass search for the intrinsic frequencies of one cycle.

    Runs a compass search from every configured guess (plus any seeded random
    extras) and keeps the start with the lowest objective. For this call only,
    the objective keeps :func:`segment_terms` per exact u1 and u2 and P per
    exact point, so a compass probe (one coordinate moves) computes at most one
    segment; a revisit still counts as an evaluation. Starts whose final
    values are within 1e-11 of the centered energy of the lowest are tied, and
    the first of them in start order wins: that is the rounding floor
    :func:`objective_p` documents, so starts converging to one point from
    different sides can end that close, and which one reads lower is rounding,
    not the landscape. Raises UnconvergedSearchError, carrying the best
    effort, if no start converges.
    """
    config = config or SearchConfig()
    t_begin = time.perf_counter()
    T0, dT = cycle.T0, cycle.T - cycle.T0
    systolic: dict[float, SegmentTerms] = {}
    diastolic: dict[float, SegmentTerms] = {}
    values: dict[tuple[float, float], float] = {}

    def objective(u1: float, u2: float) -> float:
        value = values.get((u1, u2))
        if value is None:
            omega1, omega2 = u1 * math.pi / T0, u2 * math.pi / dT  # as from_dimensionless
            s = systolic.get(u1) or systolic.setdefault(u1, segment_terms(cycle, 0, omega1))
            d = diastolic.get(u2) or diastolic.setdefault(u2, segment_terms(cycle, 1, omega2))
            value = values[u1, u2] = objective_from_terms(cycle, s, d, omega1, omega2)
        return value

    starts = list(config.guesses) + _random_starts(config)
    traces = tuple(compass_search(objective, start, config) for start in starts)
    cutoff = min(trace.final_value for trace in traces) + _TIE_TOLERANCE * cycle.centered_energy
    winner = next(trace for trace in traces if trace.final_value <= cutoff)
    wall_ms = (time.perf_counter() - t_begin) * 1000.0
    outcome = _outcome_at(
        cycle,
        winner.final[0],
        winner.final[1],
        algorithm="fast",
        traces=traces,
        evals=sum(trace.evals for trace in traces),
        wall_ms=wall_ms,
        converged=winner.converged,
        winning_start=winner.start,
    )
    if not any(trace.converged for trace in traces):
        raise UnconvergedSearchError(outcome)
    return outcome


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(max(count, 1))


def _grid_axes(
    cycle: SampledCycle, grid: GridConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    T0 = cycle.T0
    dT = cycle.T - T0
    domain = grid.domain
    if grid.mesh_unit == "rad/s":
        omega1 = _axis(domain.u1_min * math.pi / T0, domain.u1_max * math.pi / T0, grid.mesh)
        omega2 = _axis(domain.u2_min * math.pi / dT, domain.u2_max * math.pi / dT, grid.mesh)
        return omega1, omega2, omega1 * T0 / math.pi, omega2 * dT / math.pi
    u1 = _axis(domain.u1_min, domain.u1_max, grid.mesh)
    u2 = _axis(domain.u2_min, domain.u2_max, grid.mesh)
    return u1 * math.pi / T0, u2 * math.pi / dT, u1, u2


def brute_force_if(
    cycle: SampledCycle, grid: GridConfig | None = None
) -> tuple[SearchOutcome, ObjectiveGrid]:
    """Exhaustive objective scan over a uniform frequency grid on ``grid.domain``.

    Evaluates the reduced objective at every grid point (lattice nodes go
    through the degenerate solve automatically) and returns the argmin plus
    the full matrix. A row computes its systolic :func:`segment_terms` once,
    but the diastolic half runs at every point: this is the per-point
    reference scan the fast search is timed against. Points within
    ``NODE_EXCLUSION_RADIUS`` of a lattice node (``node_distance`` runs only
    where both axes are near an integer) are flagged and left out of the
    argmin unless every point is inside one; ties break toward the lowest
    (u1, u2) in scan order. A grid of more than ``MAX_GRID_POINTS`` points
    raises GridTooLargeError.
    """
    grid = grid or GridConfig()
    t_begin = time.perf_counter()
    omega1, omega2, u1, u2 = _grid_axes(cycle, grid)
    points = omega1.size * omega2.size
    if points > MAX_GRID_POINTS:
        raise GridTooLargeError(points, MAX_GRID_POINTS)
    if points > 1_000_000:
        warnings.warn(f"grid has {points} points; this scan will be slow", stacklevel=2)

    values = np.empty((omega1.size, omega2.size))
    for i, w1 in enumerate(omega1.tolist()):
        row = segment_terms(cycle, 0, w1)
        for j, w2 in enumerate(omega2.tolist()):
            values[i, j] = objective_from_terms(cycle, row, segment_terms(cycle, 1, w2), w1, w2)
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
    wall_ms = (time.perf_counter() - t_begin) * 1000.0
    outcome = _outcome_at(
        cycle,
        best_u1,
        best_u2,
        algorithm="brute",
        traces=(),
        evals=points,
        wall_ms=wall_ms,
        converged=True,
        winning_start=(best_u1, best_u2),
        flat_objective=flat,
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
