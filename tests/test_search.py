"""Compass search, exhaustive grid scan, multi-start driver, and the comparison harness."""

from __future__ import annotations

import contextlib
import copy as copy_module
import dataclasses
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ifreq import search
from ifreq import (
    NODE_EXCLUSION_RADIUS,
    Domain,
    FreqPair,
    GridConfig,
    GridTooLargeError,
    InfeasibleDomainError,
    SampledCycle,
    SearchConfig,
    UnconvergedSearchError,
    brute_force_if,
    compare_algorithms,
    compass_search,
    fast_if,
    node_distance,
    objective_gradient,
    objective_p,
    sample_params,
    solve_inner,
    synthesize_cycle,
)

import oracles
from conftest import DT, T, T0, make_cycle, random_general_freqs, run_bounded


def reference_compass(objective, start, corner, delta0, delta_tol, feasible):
    """Straight transcription of the step rules, kept independent of the implementation.

    ``start`` is a point of the lattice corner + delta0*x; the walk keeps x and
    computes every point from it.
    """
    x = [round((s - c) / delta0) for s, c in zip(start, corner)]

    def point(x):
        return [c + delta0 * a for c, a in zip(corner, x)]

    assert point(x) == list(start)
    fx = objective(*point(x))
    step = 1.0
    while True:
        for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            cand = [x[0] + step * d[0], x[1] + step * d[1]]
            if not feasible(*point(cand)):
                continue
            fc = objective(*point(cand))
            if fc < fx:
                x, fx = cand, fc
                break
        else:
            step *= 0.5
            if delta0 * step < delta_tol:
                return tuple(point(x)), fx
            continue


class TestCompassSearch:
    def test_quadratic_reaches_grid_aligned_minimizer(self):
        # pure step-mechanics check: from this start the walk stays clear of
        # every node tube
        config = SearchConfig(delta0=0.1, delta_tol=0.05)
        objective = lambda u1, u2: (u1 - 1.0) ** 2 + (u2 - 2.0) ** 2
        trace = compass_search(objective, (0.6, 1.6), config)
        expected, expected_value = reference_compass(
            objective, (0.6, 1.6), (0.5, 0.5), 0.1, 0.05, config.feasible
        )
        assert trace.final == expected
        assert trace.final_value == expected_value
        assert trace.final[0] == pytest.approx(1.0, abs=1e-12)
        assert trace.final[1] == pytest.approx(2.0, abs=1e-12)
        assert trace.converged

    def test_start_at_minimizer_only_halves(self):
        config = SearchConfig(delta0=0.01, delta_tol=0.002)
        objective = lambda u1, u2: (u1 - 1.0) ** 2 + (u2 - 0.8) ** 2
        trace = compass_search(objective, (1.0, 0.8), config)
        assert trace.final == (1.0, 0.8)
        kinds = {step.kind for step in trace.steps}
        assert kinds == {"start", "halve"}
        assert trace.evals == 1 + 4 * sum(1 for s in trace.steps if s.kind == "halve")

    def test_trace_invariants(self):
        cycle, _ = make_cycle(1.22, 2.47, noise_sigma=1.0, seed=5)
        config = SearchConfig()
        objective = lambda u1, u2: objective_p(
            FreqPair.from_dimensionless(u1, u2, T0, T), cycle
        )
        for start in config.guesses:
            trace = compass_search(objective, start, config)
            deltas = [step.delta for step in trace.steps]
            assert all(d2 <= d1 for d1, d2 in zip(deltas, deltas[1:]))
            for previous, step in zip(trace.steps, trace.steps[1:]):
                if step.kind == "move":
                    assert step.value < previous.value
                    assert step.delta == previous.delta
                else:
                    assert step.kind == "halve"
                    assert step.delta == previous.delta / 2
                    assert step.value == previous.value
            for step in trace.steps:
                assert config.feasible(step.u1, step.u2)

    def test_out_of_domain_moves_rejected_without_evaluation(self):
        calls = []

        def objective(u1, u2):
            calls.append((u1, u2))
            return (u1 - 0.5) ** 2 + (u2 - 0.5) ** 2

        config = SearchConfig(delta0=0.2, delta_tol=0.15)
        compass_search(objective, (0.55, 0.55), config)
        for u1, u2 in calls:
            assert config.feasible(u1, u2)

    def test_infeasible_start_rejected(self):
        config = SearchConfig()
        with pytest.raises(ValueError):
            compass_search(lambda a, b: 0.0, (0.1, 0.1), config)

    def test_budget_exhaustion_flags_unconverged(self):
        cycle, _ = make_cycle(1.22, 2.47)
        config = SearchConfig(max_evals=5)
        objective = lambda u1, u2: objective_p(
            FreqPair.from_dimensionless(u1, u2, T0, T), cycle
        )
        trace = compass_search(objective, (1.0, 2.0), config)
        assert not trace.converged
        assert trace.evals <= 5


class TestSearchConfig:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            SearchConfig(delta0=0.001, delta_tol=0.01)

    def test_rejects_infinite_initial_step(self):
        # halving an infinite step never reaches delta_tol
        with pytest.raises(ValueError, match="finite"):
            SearchConfig(delta0=math.inf)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"delta_tol": 0.0}, "need finite delta0 > delta_tol > 0"),
            ({"delta_tol": math.nan}, "need finite delta0 > delta_tol > 0"),
            ({"random_guesses": -1}, "random_guesses must be >= 0"),
            ({"max_evals": 0}, "max_evals must be >= 1"),
            ({"guesses": ()}, "need at least one start"),
        ],
    )
    def test_rejects_bad_settings(self, settings, message):
        with pytest.raises(ValueError) as excinfo:
            SearchConfig(**settings)
        assert str(excinfo.value).startswith(message)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"mesh": 0.0}, "mesh must be finite and > 0"),
            ({"mesh": -0.1}, "mesh must be finite and > 0"),
            ({"mesh": math.inf}, "mesh must be finite and > 0"),
            ({"mesh": math.nan}, "mesh must be finite and > 0"),
            ({"mesh_unit": "Hz"}, "mesh_unit must be one of"),
        ],
    )
    def test_grid_config_rejects_bad_settings(self, settings, message):
        with pytest.raises(ValueError) as excinfo:
            GridConfig(**settings)
        assert str(excinfo.value).startswith(message)

    def test_rejects_guess_outside_domain(self):
        with pytest.raises(ValueError):
            SearchConfig(guesses=((0.1, 2.0),))

    def test_rejects_guess_in_node_tube(self):
        with pytest.raises(ValueError):
            SearchConfig(guesses=((1.0, 1.01),))

    def test_rejects_domain_inside_one_node_tube(self):
        # no random start can be drawn on the lattice: refused when the config
        # is built, not at the first search
        with pytest.raises(InfeasibleDomainError):
            SearchConfig(domain=Domain(0.99, 1.01, 0.99, 1.01), guesses=(), random_guesses=1)
        with pytest.raises(InfeasibleDomainError):
            SearchConfig(domain=Domain(1.99, 2.005, 3.99, 4.01), guesses=(), random_guesses=1)
        # a feasible guess, but the only lattice point (0.99, 0.99) is in the tube
        with pytest.raises(InfeasibleDomainError):
            SearchConfig(
                domain=Domain(0.99, 1.01, 0.99, 1.03), guesses=((1.01, 1.03),), random_guesses=1
            )

    def test_accepts_domain_with_a_corner_outside_the_tube(self):
        # corner (1.005, 1.02) is 0.0206 from the node: feasible points exist
        config = SearchConfig(
            domain=Domain(0.995, 1.005, 0.98, 1.02), guesses=(), random_guesses=1
        )
        assert config.feasible(1.005, 1.02)

    def test_feasible_matches_node_distance(self):
        # the integer pre-filter and the inline box test must never change the
        # predicate: random points, points at the radius on both branches'
        # nodes, and points on each domain bound, one ulp outside it, and
        # beside a node on an edge of a domain whose bounds are integers
        config = SearchConfig(domain=Domain(0.5, 4.5, 0.5, 4.5))
        rng = np.random.default_rng(7)
        points = [tuple(p) for p in rng.uniform(0.5, 4.5, size=(20000, 2))]
        r = NODE_EXCLUSION_RADIUS
        for n1, n2 in [(1, 1), (1, 3), (3, 3), (2, 2), (2, 4), (4, 4), (1, 2), (2, 3)]:
            for k in range(64):
                angle = 2.0 * math.pi * k / 64
                for radius in (r, math.nextafter(r, 0.0), math.nextafter(r, 1.0), 0.5 * r):
                    points.append((n1 + radius * math.cos(angle), n2 + radius * math.sin(angle)))
            for d1 in (-r, r, math.nextafter(r, 0.0), math.nextafter(r, 1.0)):
                points += [(n1 + d1, float(n2)), (float(n1), n2 + d1), (n1 + d1, n2 + d1)]
        # u - round(u) equals the radius exactly only beside integer 0: beside
        # the node (0, 2), on the radius and one ulp either side of it
        points += [(u1, 2.0) for u1 in (r, math.nextafter(r, 0.0), math.nextafter(r, 1.0))]
        near_u1_axis = SearchConfig(domain=Domain(0.01, 1.5, 0.5, 3.0))
        # its edges pass through nodes, so the points above beside (1, n) and
        # (n, 1) lie on them too
        integer_edges = SearchConfig(domain=Domain(1.0, 3.0, 1.0, 4.0), guesses=((1.5, 2.5),))
        for config in (config, near_u1_axis, integer_edges):
            d = config.domain
            axes = [
                [0.5 * (lo + hi), lo, hi]
                + [math.nextafter(b, toward) for b in (lo, hi) for toward in (-math.inf, math.inf)]
                for lo, hi in ((d.u1_min, d.u1_max), (d.u2_min, d.u2_max))
            ]  # the middle, each bound, and one ulp either side of it
            for u1, u2 in points + [(u1, u2) for u1 in axes[0] for u2 in axes[1]]:
                expected = config.domain.contains(u1, u2) and node_distance(u1, u2) > r
                assert config.feasible(u1, u2) == expected, (u1, u2)
        assert not integer_edges.feasible(1.0, 3.0 + 0.5 * r)  # beside node (1, 3), on u1_min
        assert integer_edges.feasible(1.0, 2.0)  # (1, 2) is no node
        assert not integer_edges.feasible(math.nextafter(1.0, 0.0), 2.0)

    def test_copies_compare_equal_and_search_alike(self):
        # a config is a plain immutable value: a copy or an unpickled config
        # equals it, hashes as it does and gives the same outcomes, whatever
        # calls the original served first
        config = SearchConfig(random_guesses=2, seed=3)
        cycles = plain_envelope_cycles(5, 2, 0.0)
        fast_if(cycles[0], config)
        copies = pickle.loads(pickle.dumps(config)), copy_module.deepcopy(config)
        for copy in copies:
            assert copy == config and hash(copy) == hash(config)
            assert copy.starts == config.starts
        outcome = dataclasses.replace(fast_if(cycles[1], config), wall_ms=0.0)
        for copy in copies:
            assert dataclasses.replace(fast_if(cycles[1], copy), wall_ms=0.0) == outcome

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_feasible_matches_its_definition_at_random_lattice_points(self, data):
        # random domains and steps; the lattice points of coordinates on dyadic
        # steps, beside the nodes and anywhere: feasible is in the domain and
        # outside every node tube
        lo1, lo2 = data.draw(st.floats(0.05, 4.0)), data.draw(st.floats(0.05, 4.0))
        hi1 = lo1 + data.draw(st.floats(0.01, 5.0))
        hi2 = lo2 + data.draw(st.floats(0.01, 5.0))
        delta_tol = data.draw(st.floats(1e-4, 0.05))
        delta0 = delta_tol * data.draw(st.floats(1.0, 200.0, exclude_min=True))
        assume(delta0 > delta_tol and node_distance(lo1, lo2) > NODE_EXCLUSION_RADIUS)
        config = SearchConfig(
            domain=Domain(lo1, hi1, lo2, hi2), delta0=delta0, delta_tol=delta_tol,
            guesses=((lo1, lo2),),
        )
        r = NODE_EXCLUSION_RADIUS

        def coordinate(lo: float, hi: float) -> st.SearchStrategy[float]:
            span = (hi - lo) / delta0
            dyadic = st.builds(
                lambda k, f: round(f * span * 2**k) / 2**k, st.integers(0, 10), st.floats(-0.1, 1.1)
            )
            offset = st.one_of(st.floats(-0.03, 0.03), st.sampled_from([0.0, r, -r]))
            node = st.builds(
                lambda n, e: (n + e - lo) / delta0,
                st.integers(math.floor(lo) - 1, math.ceil(hi) + 1), offset,
            )
            anywhere = st.floats(-0.1 * span - 2.0, 1.1 * span + 2.0)
            return st.one_of(dyadic, node, anywhere)

        points = data.draw(
            st.lists(st.tuples(coordinate(lo1, hi1), coordinate(lo2, hi2)), min_size=1, max_size=40)
        )
        for x1, x2 in points:
            u1, u2 = search._lattice_point(config, x1, x2)
            expected = config.domain.contains(u1, u2) and node_distance(u1, u2) > r
            assert config.feasible(u1, u2) == expected, (x1, x2)

    def test_builds_no_generator_without_random_starts(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no random start needs a generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        config = SearchConfig()
        assert config.starts == config.guesses


class TestFastIf:
    def test_noiseless_recovery_within_tolerance(self):
        # offset-dominated scale (raw uncalibrated units): the residual energy
        # threshold is meaningful because ||f||^2 dwarfs the termination error
        cycle, params = make_cycle(1.23, 2.42, b1=0.5, b2=1.0, pbar=2200.0)
        outcome = fast_if(cycle)
        truth = params.freqs.dimensionless(T0, T)
        got = outcome.dimensionless(cycle)
        assert abs(got[0] - truth[0]) <= 0.002
        assert abs(got[1] - truth[1]) <= 0.002
        assert outcome.converged
        assert outcome.objective_value <= 1e-10 * float(cycle.samples @ cycle.samples)

    def test_deterministic_without_random_starts(self):
        cycle, _ = make_cycle(0.8, 1.3, noise_sigma=1.0, seed=11)
        one = fast_if(cycle)
        two = fast_if(cycle)
        assert one.best == two.best
        assert one.params == two.params
        assert one.evals == two.evals
        assert one.traces == two.traces

    def test_seeded_random_starts_reproducible_and_feasible(self):
        cycle, _ = make_cycle(0.8, 1.3, noise_sigma=1.0, seed=11)
        config = SearchConfig(random_guesses=3, seed=77)
        one = fast_if(cycle, config)
        two = fast_if(cycle, config)
        assert one.traces == two.traces
        assert len(one.traces) == 5
        for trace in one.traces[2:]:
            assert config.feasible(*trace.start)

    def test_traces_start_at_the_config_starts(self):
        # the random starts are drawn once, when the config is built: unseeded
        # too, every call on that config walks the same starts
        cycle, _ = make_cycle(0.8, 1.3, noise_sigma=1.0, seed=11)
        for config in (SearchConfig(random_guesses=3, seed=77), SearchConfig(random_guesses=3)):
            assert config.starts[:2] == config.guesses and len(config.starts) == 5
            for _ in range(2):
                assert tuple(t.start for t in fast_if(cycle, config).traces) == config.starts

    def test_upper_lobe_cycle_default_guesses(self):
        # the start in the matching lobe wins; the other start reports a
        # distinct local minimum near the odd lattice node
        cycle, params = make_cycle(1.05, 2.2, b1=-0.8, b2=0.9)
        outcome = fast_if(cycle)
        assert outcome.lobe == "upper"
        assert outcome.winning_start == (1.0, 2.0)
        upper, lower = outcome.traces
        assert upper.final_value < lower.final_value
        truth = params.freqs.dimensionless(T0, T)
        assert abs(upper.final[0] - truth[0]) <= 0.002
        assert abs(upper.final[1] - truth[1]) <= 0.002
        assert math.hypot(lower.final[0] - truth[0], lower.final[1] - truth[1]) > 0.05

    def test_objective_value_matches_reevaluation(self):
        cycle, _ = make_cycle(0.9, 1.6, noise_sigma=2.0, seed=21)
        outcome = fast_if(cycle)
        assert outcome.objective_value == pytest.approx(
            objective_p(outcome.best, cycle), rel=1e-10
        )

    def test_all_starts_unconverged_raises_with_best_effort(self):
        cycle, _ = make_cycle(1.22, 2.47)
        with pytest.raises(UnconvergedSearchError) as excinfo:
            fast_if(cycle, SearchConfig(max_evals=5))
        assert excinfo.value.outcome.algorithm == "fast"
        assert not excinfo.value.outcome.converged

    @pytest.mark.parametrize(
        "ulps, energy_fraction, winner",
        [(0, 0.0, (1.0, 2.0)), (4, 0.0, (1.0, 2.0)), (0, 1e-9, (1.1, 2.1))],
    )
    def test_near_ties_go_to_the_lowest_start_index(
        self, monkeypatch, ulps, energy_fraction, winner
    ):
        # the second start ends on the first one's point with a final value a
        # few ulps lower: that is rounding, so the first start keeps the win;
        # 1e-9 of the centered energy lower is a real difference
        cycle, _ = make_cycle(1.05, 2.2, noise_sigma=2.0, seed=5)
        real = search.compass_search
        ends = []

        def ending_together(objective, start, config, *joining):
            # each start runs alone: the second reaches the first one's end
            # instead of joining it
            trace = real(objective, start, config)
            if ends:
                value = ends[0].final_value - ulps * math.ulp(ends[0].final_value)
                value -= energy_fraction * cycle.centered_energy
                trace = dataclasses.replace(trace, final=ends[0].final, final_value=value)
            ends.append(trace)
            return trace

        monkeypatch.setattr(search, "compass_search", ending_together)
        outcome = fast_if(cycle, SearchConfig(guesses=((1.0, 2.0), (1.1, 2.1))))
        assert outcome.winning_start == winner
        assert [trace.start for trace in outcome.traces] == [(1.0, 2.0), (1.1, 2.1)]


class TestBruteForce:
    def test_on_grid_generator_is_exact_argmin(self):
        cycle, params = make_cycle(0.9, 1.7, b1=0.4, b2=1.0)
        grid = GridConfig(mesh=0.05, mesh_unit="dimensionless")
        outcome, matrix = brute_force_if(cycle, grid)
        got = outcome.dimensionless(cycle)
        assert got[0] == pytest.approx(0.9, abs=1e-9)
        assert got[1] == pytest.approx(1.7, abs=1e-9)
        assert matrix.values.min() >= 0.0

    def test_grid_inside_one_node_tube_warns_and_takes_the_argmin_over_all_points(self):
        cycle, _ = make_cycle(1.1, 2.2)
        grid = GridConfig(domain=Domain(0.995, 1.005, 0.995, 1.005), mesh=0.005,
                          mesh_unit="dimensionless")
        with pytest.warns(UserWarning, match="every grid point is inside a node tube"):
            outcome, matrix = brute_force_if(cycle, grid)
        assert matrix.node_tube.all() and np.isfinite(matrix.values).all()
        assert matrix.argmin == np.unravel_index(np.argmin(matrix.values), matrix.values.shape)
        assert outcome.converged and outcome.objective_value == matrix.values.min()

    def test_off_grid_generator_within_one_cell(self):
        cycle, params = make_cycle(0.913, 1.733, b1=0.4, b2=1.0)
        truth = params.freqs.dimensionless(T0, T)
        coarse, _ = brute_force_if(cycle, GridConfig(mesh=0.05, mesh_unit="dimensionless"))
        got = coarse.dimensionless(cycle)
        assert abs(got[0] - truth[0]) <= 0.05
        assert abs(got[1] - truth[1]) <= 0.05
        refined, _ = brute_force_if(cycle, GridConfig(mesh=0.025, mesh_unit="dimensionless"))
        refined_u = refined.dimensionless(cycle)
        assert abs(refined_u[0] - truth[0]) <= 0.025
        assert abs(refined_u[1] - truth[1]) <= 0.025

    def test_constant_cycle_flat_objective(self):
        cycle = SampledCycle(np.full(300, 5.0), dt=DT, n=120, m=180)
        with pytest.warns(UserWarning, match="flat objective"):
            outcome, matrix = brute_force_if(
                cycle, GridConfig(mesh=0.25, mesh_unit="dimensionless")
            )
        assert outcome.flat_objective
        assert outcome.converged
        finite = matrix.values[np.isfinite(matrix.values)]
        assert np.all(np.abs(finite) <= 1e-12)
        got = outcome.dimensionless(cycle)
        assert got[0] == pytest.approx(matrix.u1[0])
        assert got[1] == pytest.approx(matrix.u2[0])

    def test_oversized_grid_refused_with_estimate(self):
        cycle, _ = make_cycle(1.1, 2.2)
        grid = GridConfig(mesh=1e-4, mesh_unit="dimensionless")
        with pytest.raises(GridTooLargeError) as excinfo:
            brute_force_if(cycle, grid)
        assert excinfo.value.points > search.MAX_GRID_POINTS

    def test_oversized_grid_refused_before_its_axes_are_allocated(self):
        # the axes grow as 1/mesh, so the budget is checked before they exist:
        # at mesh 1e-5 they would take 5.6 MB, at mesh 1e-9 tens of gigabytes
        cycle, _ = make_cycle(1.1, 2.2)
        grid = GridConfig(mesh=1e-5, mesh_unit="dimensionless")
        tracemalloc.start()
        try:
            with pytest.raises(GridTooLargeError):
                brute_force_if(cycle, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_node_tubes_flagged_and_excluded(self):
        cycle, _ = make_cycle(1.1, 2.2)
        grid = GridConfig(mesh=0.25, mesh_unit="dimensionless")
        _, matrix = brute_force_if(cycle, grid)
        i1 = int(np.argmin(np.abs(matrix.u1 - 1.0)))
        j1 = int(np.argmin(np.abs(matrix.u2 - 1.0)))
        assert matrix.node_tube[i1, j1]
        best = matrix.argmin
        assert not matrix.node_tube[best[0], best[1]]


class TestRandomStarts:
    def test_empty_feasible_set_raises(self):
        # every point of this domain lies inside the (1, 1) node tube; the
        # config refuses it, and nothing hangs on the way
        done = run_bounded(
            "import numpy as np\n"
            "from ifreq import Domain, InfeasibleDomainError, SampledCycle, SearchConfig, fast_if\n"
            "cycle = SampledCycle(np.linspace(0.0, 1.0, 501), dt=0.002, n=181, m=320)\n"
            "try:\n"
            "    config = SearchConfig(domain=Domain(0.99, 1.01, 0.99, 1.01), guesses=(),"
            " random_guesses=1)\n"
            "    fast_if(cycle, config)\n"
            "except InfeasibleDomainError:\n"
            "    print('raised')\n"
        )
        assert done.stdout.strip() == "raised", done.stderr


def plain_objective(cycle: SampledCycle):
    """fast_if's objective with nothing reused: a fresh objective_p at every call."""

    def objective(u1: float, u2: float) -> float:
        return objective_p(FreqPair.from_dimensionless(u1, u2, cycle.T0, cycle.T), cycle)

    return objective


def plain_envelope_cycles(seed: int, count: int, noise_sigma: float) -> list[SampledCycle]:
    """Random frequencies over the default domain with a random envelope phase."""
    rng = np.random.default_rng(seed)
    cycles = []
    for index in range(count):
        u1, u2 = random_general_freqs(rng).dimensionless(T0, T)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        cycle, _ = make_cycle(
            u1, u2, b1=math.cos(phase), b2=math.sin(phase), pbar=2200.0,
            noise_sigma=noise_sigma, seed=index,
        )
        cycles.append(cycle)
    return cycles


def plain_gradient(cycle: SampledCycle):
    """fast_if's gradient in (u1, u2) with nothing reused: a fresh objective_gradient per call."""

    def gradient(u1: float, u2: float) -> tuple[float, float]:
        g1, g2 = objective_gradient(FreqPair.from_dimensionless(u1, u2, cycle.T0, cycle.T), cycle)
        return g1 * math.pi / cycle.T0, g2 * math.pi / (cycle.T - cycle.T0)

    return gradient


def plain_fast_traces(cycle: SampledCycle, config: SearchConfig) -> tuple:
    """fast_if's traces rebuilt from objective_p and objective_gradient, from the same starts.

    Every start runs alone, with no visited map, so none joins another.
    """
    objective = plain_objective(cycle)
    traces = [compass_search(objective, start, config) for start in config.starts]
    cutoff = min(trace.final_value for trace in traces) + 1e-11 * cycle.centered_energy
    index = next(i for i, trace in enumerate(traces) if trace.final_value <= cutoff)
    traces[index] = search._newton_finish(objective, plain_gradient(cycle), traces[index], config)
    return tuple(traces)


def same_geometry(cycle: SampledCycle) -> SampledCycle:
    """Another cycle of ``cycle``'s sampling geometry (n, m, dt), with other samples."""
    samples = cycle.samples[::-1] + np.linspace(0.0, 5.0, cycle.samples.size)
    return SampledCycle(samples, dt=cycle.dt, n=cycle.n, m=cycle.m)


#: How a test sets up the geometry-terms memo that every search kernel shares.
MEMO_STATES = ("cold", "recorded", "warm", "evicting")


def clear_memo() -> None:
    """Empty the shared memo's slot, as a fresh process has it."""
    search._shared_geometry = search._shared_terms = ()


def memo_within_caps() -> bool:
    return all(len(memo) <= search._SHARED_TERMS_PER_SEGMENT for memo in search._shared_terms)


@contextlib.contextmanager
def memo_state(state: str, cycle: SampledCycle, config: SearchConfig):
    """The shared memo as ``state`` leaves it for a search on ``cycle``.

    ``cold``: empty, so the search only records its geometry. ``recorded``:
    after ``fast_if`` on another cycle of the same geometry, so the search
    keeps the terms it computes. ``warm``: after two such searches, so the
    search reads terms the second one kept. ``evicting``: as ``warm``, but
    with room for 3 terms per segment, so the memo clears itself many times.
    """
    with pytest.MonkeyPatch.context() as patch:
        clear_memo()
        if state == "evicting":
            patch.setattr(search, "_SHARED_TERMS_PER_SEGMENT", 3)
        sibling = same_geometry(cycle)
        for _ in range({"cold": 0, "recorded": 1}.get(state, 2)):
            outcome_or_best_effort(sibling, config)
        yield
        assert memo_within_caps()


REUSE_CYCLES = [
    make_cycle(1.23, 2.42, b1=0.5, b2=1.0, pbar=2200.0)[0],
    make_cycle(0.8, 1.3, noise_sigma=1.0, seed=11)[0],
    SampledCycle(np.random.default_rng(3).normal(100.0, 10.0, 12), dt=DT, n=5, m=7),
]


class TestSegmentReuse:
    """Reused segment terms leave every output bit-identical to per-point objective_p."""

    @pytest.mark.parametrize(
        "noise_sigma, config",
        [(0.0, SearchConfig(random_guesses=8, seed=2024)), (0.4, SearchConfig())],
        ids=["recover", "extract"],
    )
    def test_traces_match_plain_objective(self, noise_sigma, config):
        # a start that joined an earlier one ends where it would have ended
        # alone, in each state of the shared memo
        newton_steps = joined = 0
        for cycle, memo in itertools.product(
            plain_envelope_cycles(123500, 20, noise_sigma), MEMO_STATES
        ):
            with memo_state(memo, cycle, config):
                outcome = fast_if(cycle, config)
            solo = plain_fast_traces(cycle, config)
            assert len(outcome.traces) == len(solo)
            for trace, alone in zip(outcome.traces, solo):
                if trace.joined is None:
                    assert trace == alone
                    continue
                joined += 1
                assert trace.final == alone.final
                assert trace.final_value == alone.final_value
                assert trace.converged == alone.converged
                assert trace.steps == alone.steps[: len(trace.steps)]
                assert trace.evals <= alone.evals
            newton_steps += outcome.newton_iterations
        assert newton_steps > 0
        if config.random_guesses:
            assert joined > 0

    def test_shared_config_matches_a_fresh_config_per_cycle(self):
        # a config keeps nothing from one call to the next: reused over
        # cycles it gives the outcomes and traces of one built for each cycle
        # alone
        for delta_tol in (0.02, 0.0005):
            settings = dict(delta_tol=delta_tol, random_guesses=8, seed=2024)
            shared = SearchConfig(**settings)
            for noise_sigma in (0.0, 0.4):
                for cycle in plain_envelope_cycles(4242, 6, noise_sigma):
                    fresh = SearchConfig(**settings)
                    one, two = fast_if(cycle, shared), fast_if(cycle, fresh)
                    assert dataclasses.replace(one, wall_ms=0.0) == dataclasses.replace(
                        two, wall_ms=0.0
                    )

    def test_final_solve_matches_solve_inner(self):
        # the final solve reads the winner's kept terms: the same bits as a fresh solve
        for cycle in plain_envelope_cycles(77, 4, 0.4):
            outcome = fast_if(cycle)
            solution = solve_inner(outcome.best, cycle)
            assert outcome.params == solution.params
            assert outcome.objective_value == solution.objective_value

    def test_repeated_calls_give_equal_outcomes(self):
        cycle = plain_envelope_cycles(99, 1, 0.4)[0]
        config = SearchConfig(random_guesses=3, seed=5)
        one, two = fast_if(cycle, config), fast_if(cycle, config)
        assert dataclasses.replace(one, wall_ms=0.0) == dataclasses.replace(two, wall_ms=0.0)

    @pytest.mark.parametrize(
        "grid, acceptance_style, block_rows",
        [
            # lattice nodes on the grid
            (GridConfig(mesh=0.05, mesh_unit="dimensionless"), False, None),
            (GridConfig(domain=Domain(0.9, 1.1, 0.9, 2.1), mesh=0.005, mesh_unit="dimensionless"),
             False, None),
            (GridConfig(domain=Domain(0.5, 1.5, 0.5, 1.5)), False, None),
            # 21 rows in blocks of 4: five full blocks and a last one of 1 row
            (GridConfig(mesh=0.05, mesh_unit="dimensionless"), False, 4),
            (GridConfig(), True, None),
            # 139 rows in blocks of 6: the last block has 1 row
            (GridConfig(), True, 6),
        ],
        ids=["nodes", "tubes", "rad/s", "nodes-blocks", "default", "default-blocks"],
    )
    def test_grid_matches_per_point_kernel(
        self, grid, acceptance_style, block_rows, monkeypatch
    ):
        if acceptance_style:
            cycle = acceptance_style_cycle(2718)
        else:
            cycle = make_cycle(1.1, 1.4, noise_sigma=1.0, seed=3)[0]
        if block_rows is not None:
            columns = search._grid_axes(cycle, grid)[1].size
            monkeypatch.setattr(search, "_GRID_BLOCK_POINTS", block_rows * columns + columns - 1)
        _, matrix = brute_force_if(cycle, grid)
        if block_rows is not None:
            assert matrix.omega1.size % block_rows == 1
        values = np.array([
            [objective_p(FreqPair(w1, w2), cycle) for w2 in matrix.omega2]
            for w1 in matrix.omega1
        ])
        tube = np.array([
            [node_distance(a, b) <= NODE_EXCLUSION_RADIUS for b in matrix.u2] for a in matrix.u1
        ])
        assert matrix.values.tobytes() == values.tobytes()
        assert np.array_equal(matrix.node_tube, tube)
        assert matrix.node_tube.any()
        eligible = np.where(tube, np.inf, values)
        assert matrix.argmin == np.unravel_index(np.argmin(eligible), eligible.shape)

    @pytest.mark.parametrize(
        "grid, block_rows",
        [
            (GridConfig(mesh=0.05, mesh_unit="dimensionless"), None),
            # 21 rows in blocks of 4: five full blocks and a last one of 1 row
            (GridConfig(mesh=0.05, mesh_unit="dimensionless"), 4),
            (GridConfig(), None),
        ],
        ids=["one-block", "blocks", "default"],
    )
    def test_grid_computes_the_terms_of_every_point(self, grid, block_rows, monkeypatch):
        # criterion 3 times the grid as the per-point reference: every row
        # computes its systolic terms and every point its diastolic terms, in
        # scan order, so a column cache or terms reused across blocks fail here
        cycle = make_cycle(1.1, 1.4, noise_sigma=1.0, seed=3)[0]
        omega1, omega2 = search._grid_axes(cycle, grid)[:2]
        if block_rows is not None:
            monkeypatch.setattr(search, "_GRID_BLOCK_POINTS", block_rows * omega2.size)
        calls = ([], [])
        array_terms = search.segment_term_arrays

        def spy(cycle, segment, omega):
            calls[segment].append(omega.copy())
            return array_terms(cycle, segment, omega)

        monkeypatch.setattr(search, "segment_term_arrays", spy)
        brute_force_if(cycle, grid)
        systolic, diastolic = (np.concatenate(omegas) for omegas in calls)
        assert systolic.size == omega1.size
        assert diastolic.size == omega1.size * omega2.size
        assert systolic.tobytes() == omega1.tobytes()
        assert diastolic.tobytes() == np.tile(omega2, omega1.size).tobytes()
        blocks = -(-omega1.size // max(1, search._GRID_BLOCK_POINTS // omega2.size))
        assert len(calls[0]) == len(calls[1]) == blocks
        if block_rows is not None:
            assert blocks == 6

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(range(len(REUSE_CYCLES))),
        st.booleans(),
        st.lists(
            st.tuples(
                st.sampled_from(["objective", "newton_objective", "gradient"]),
                st.sampled_from([0.5, 0.73, 0.9, 1.0, 1.0 + 1e-9, 1.0 + 0.1, 1.23, 1.5]),
                st.sampled_from([0.5, 0.9, 1.0, 2.0, 2.0 - 1e-7, 2.42, 3.0]),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @example(0, False, [("objective", 0.5, 0.9), ("newton_objective", 0.9, 0.5)])
    def test_memoised_objective_is_order_independent(self, index, searched, calls):
        # any call order over the three methods, repeats and shared
        # coordinates included, points on the lattice, after a compass search
        # or on a fresh kernel, and in each state of the shared memo: the
        # same bits as a fresh objective_p or objective_gradient
        cycle = REUSE_CYCLES[index]
        objective, gradient = plain_objective(cycle), plain_gradient(cycle)
        for memo in MEMO_STATES:
            with memo_state(memo, cycle, SearchConfig()):
                kernel = search._Kernel(cycle)
                if searched:
                    compass_search(kernel.objective, (1.0, 2.0), SearchConfig())
                for method, u1, u2 in calls:
                    got = getattr(kernel, method)(u1, u2)
                    if method == "gradient":
                        assert [g.hex() for g in got] == [g.hex() for g in gradient(u1, u2)]
                    else:
                        assert got.hex() == objective(u1, u2).hex()


def acceptance_style_cycle(seed: int) -> SampledCycle:
    """A cycle drawn as the acceptance suite's criteria 2-3 draw theirs.

    Raw-unit offset and pulse, frequencies at least 0.05 from every node, and
    Gaussian noise of 1% of the peak to peak.
    """
    rng = np.random.default_rng(seed)
    params = sample_params(
        rng, T0, T, min_node_distance=0.05, pbar_range=(1800.0, 2600.0),
        amplitude_range=(12.0, 24.0),
    )
    sigma = 0.01 * float(np.ptp(synthesize_cycle(params, T0, T, DT).samples))
    return synthesize_cycle(params, T0, T, DT, noise_sigma=sigma, rng=int(rng.integers(2**31)))


def bits(value: float) -> str:
    """A float's exact bits, so that 0.0 and -0.0 differ and a NaN equals itself."""
    return float(value).hex()


def trace_bits(trace: search.StartTrace) -> tuple:
    """Every field of a start's trace, each float by its bits."""
    return (
        trace.start,
        [(step.kind, *map(bits, step[1:])) for step in trace.steps],
        trace.evals,
        trace.joined,
        tuple(map(bits, trace.final)),
        bits(trace.final_value),
        trace.converged,
    )


def outcome_or_best_effort(cycle: SampledCycle, config: SearchConfig) -> search.SearchOutcome:
    try:
        return fast_if(cycle, config)
    except UnconvergedSearchError as error:
        return error.outcome


def field_bits(value):
    """``value`` with every float replaced by its bits, through tuples and dataclasses."""
    if isinstance(value, float):
        return bits(value)
    if dataclasses.is_dataclass(value):
        return tuple(field_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(map(field_bits, value))
    return value


def outcome_bits(outcome: search.SearchOutcome) -> tuple:
    """Every field of an outcome but ``wall_ms``, its traces included, each float by its bits."""
    return tuple(
        field_bits(getattr(outcome, f.name))
        for f in dataclasses.fields(outcome) if f.name != "wall_ms"
    )


class TestSharedGeometryTerms:
    """The memo of data-free segment terms that every search kernel shares changes no output."""

    def test_cold_warm_and_evicting_memo_give_the_same_outcomes(self):
        # the first search of a run of one geometry records it, the second
        # keeps its terms, later ones read them; a search of another geometry
        # takes the slot
        cycles = [
            *plain_envelope_cycles(123500, 3, 0.0),
            acceptance_style_cycle(7),
            make_cycle(1.1, 2.2, t_period=1.02, noise_sigma=0.3)[0],
            make_cycle(1.3, 1.7, t0=0.398, t_period=1.038, noise_sigma=0.3)[0],
            REUSE_CYCLES[2],
        ]
        # (181, 330) shares (181, 320)'s systolic count, and (200, 320) its
        # diastolic count
        assert [(c.n, c.m) for c in cycles[3:]] == [(181, 320), (181, 330), (200, 320), (5, 7)]
        runs = [(config, cycle) for config in (SearchConfig(random_guesses=8, seed=2024),
                                               SearchConfig()) for cycle in cycles]

        def outcomes(runs, clear=False):
            found = {}
            for config, cycle in runs:
                if clear:
                    clear_memo()
                found[id(config), id(cycle)] = outcome_bits(outcome_or_best_effort(cycle, config))
                assert memo_within_caps()
            return found

        first = outcomes(runs)
        assert outcomes(runs, clear=True) == first  # no kept term is ever read
        assert outcomes(runs[::-1]) == first  # each after the others of its run
        assert any(search._shared_terms)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_SHARED_TERMS_PER_SEGMENT", 3)
            clear_memo()
            assert outcomes(runs + runs) == first

    @pytest.mark.parametrize(
        "other, point, other_point, segment",
        [
            # half the dt: the same omegas at half the u, and another end time
            ((181, 320, DT / 2), (1.0, 2.0), (0.5, 1.0), 0),
            # ten more diastolic samples: one more block column, so the
            # systolic terms at the same u1 take another row of exponentials
            ((181, 330, DT), (1.0, 2.0), (1.0, 1.9), 0),
            # n = 31 rounds the diastolic end time T - T0 one ulp higher: the
            # same omega2 at the next float above u2 = 0.53
            ((31, 320, DT), (1.0, 0.53), (1.0, 0.5300000000000001), 1),
        ],
        ids=["dt", "block-width", "end"],
    )
    def test_an_equal_omega_of_another_geometry_is_not_shared(
        self, other, point, other_point, segment
    ):
        cycle = acceptance_style_cycle(11)
        n, m, dt = other
        other_cycle = make_cycle(
            1.1, 2.2, noise_sigma=0.3, t0=(n - 1) * dt, t_period=(n - 1 + m) * dt, dt=dt
        )[0]
        assert (other_cycle.n, other_cycle.m, other_cycle.dt) == other
        clear_memo()
        # the slot holds the first geometry, with its terms at ``point`` kept
        search._Kernel(other_cycle).objective(0.7, 0.7)
        search._Kernel(cycle).objective(0.7, 0.7)
        search._Kernel(cycle).objective(*point)
        # the second kernel asks for an omega the first one kept
        plans = cycle.segment_plans[segment], other_cycle.segment_plans[segment]
        assert point[segment] * math.pi / plans[0].end == (
            other_point[segment] * math.pi / plans[1].end
        )
        got = search._Kernel(other_cycle).objective(*other_point)
        assert bits(got) == bits(plain_objective(other_cycle)(*other_point))

    def test_grid_and_direct_callers_never_read_the_memo(self, monkeypatch):
        # every kernel reaches the memo through _geometry_memo
        cycle = acceptance_style_cycle(11)
        reads = []
        geometry_memo = search._geometry_memo

        def spy(cycle):
            reads.append((cycle.n, cycle.m))
            return geometry_memo(cycle)

        monkeypatch.setattr(search, "_geometry_memo", spy)
        clear_memo()
        freqs = FreqPair.from_dimensionless(1.1, 2.3, cycle.T0, cycle.T)
        brute_force_if(cycle, GridConfig(mesh=0.1, mesh_unit="dimensionless"))
        objective_p(freqs, cycle)
        objective_gradient(freqs, cycle)
        solve_inner(freqs, cycle)
        kernel = search._Kernel(cycle)  # the Newton finish's and final solve's calls
        kernel.newton_objective(1.1, 2.3)
        kernel.gradient(1.2, 2.3)
        kernel.solve(1.2, 2.4)
        assert reads == [] and search._shared_geometry == ()
        fast_if(cycle)  # the spy sees the compass's one lookup
        assert reads == [(181, 320)] and search._shared_geometry == (181, 320, cycle.dt)

    def test_a_geometry_is_kept_from_its_second_search_in_a_row_on(self, monkeypatch):
        cycle = acceptance_style_cycle(11)
        other = make_cycle(1.1, 2.2, t_period=1.02, noise_sigma=0.3)[0]
        computed = []
        geometry_terms = search.geometry_terms

        def spy(plan, omega):
            computed.append((plan.first, omega))
            return geometry_terms(plan, omega)

        def kept() -> int:
            return sum(map(len, search._shared_terms))

        monkeypatch.setattr(search, "geometry_terms", spy)
        clear_memo()
        fast_if(cycle)
        first = len(computed)
        assert first == len(set(computed)) and kept() == 0
        fast_if(same_geometry(cycle))
        assert kept() == len(computed) - first
        # what later cycles read cannot be written through
        assert not any(
            array.flags.writeable
            for memo in search._shared_terms for left, right, _ in memo.values()
            for array in (left, right)
        )
        del computed[:]
        fast_if(cycle)
        assert len(computed) < first
        del computed[:]
        fast_if(cycle)
        assert computed == []
        # another geometry takes the slot, and the next search records anew
        fast_if(other)
        assert kept() == 0
        del computed[:]
        fast_if(cycle)
        assert len(computed) == first and kept() == 0


class TestFlatLoop:
    """fast_if's flat search loop gives the bits of the composed reference loop in oracles."""

    @staticmethod
    def matches_reference(cycle: SampledCycle, config: SearchConfig):
        """fast_if against ``oracles.fast_traces``: every trace, and the outcome the winner gives."""
        outcome = outcome_or_best_effort(cycle, config)
        traces, index = oracles.fast_traces(cycle, config)
        assert [trace_bits(t) for t in outcome.traces] == [trace_bits(t) for t in traces]
        winner = traces[index]
        assert outcome.winning_start == winner.start
        assert outcome.evals == sum(trace.evals for trace in traces)
        assert outcome.converged == winner.converged
        assert outcome.newton_iterations == sum(step.kind == "newton" for step in winner.steps)
        best = FreqPair.from_dimensionless(*winner.final, cycle.T0, cycle.T)
        assert (bits(outcome.best.omega1), bits(outcome.best.omega2)) == (
            bits(best.omega1), bits(best.omega2)
        )
        assert bits(outcome.objective_value) == bits(solve_inner(best, cycle).objective_value)
        return outcome

    @pytest.mark.parametrize(
        "noise_sigma, config",
        [(0.0, SearchConfig(random_guesses=8, seed=2024)), (0.4, SearchConfig())],
        ids=["recover", "extract"],
    )
    def test_cycles_match_the_reference_loop(self, noise_sigma, config):
        newton_steps = joined = 0
        for cycle in plain_envelope_cycles(8086, 20, noise_sigma):
            outcome = self.matches_reference(cycle, config)
            newton_steps += outcome.newton_iterations
            joined += sum(trace.joined is not None for trace in outcome.traces)
        assert newton_steps > 0
        if config.random_guesses:
            assert joined > 0

    def test_evaluation_caps_match_the_reference_loop(self):
        # every cap up to the uncapped total: starts end mid-sweep below their
        # hand-off count, and the winner ends mid-Newton above it
        cycle = plain_envelope_cycles(8086, 1, 0.4)[0]
        config = SearchConfig(random_guesses=2, seed=11)
        handoff = {
            start: compass_search(plain_objective(cycle), start, config).evals
            for start in config.starts
        }
        mid_sweep = mid_newton = 0
        for cap in range(1, fast_if(cycle, config).evals + 1):
            outcome = self.matches_reference(cycle, dataclasses.replace(config, max_evals=cap))
            for trace in outcome.traces:
                if not trace.converged and trace.joined is None:
                    if trace.evals < handoff[trace.start]:
                        mid_sweep += 1
                    else:
                        mid_newton += 1
        assert mid_sweep > 0 and mid_newton > 0

    @pytest.mark.parametrize(
        "config",
        [
            SearchConfig(guesses=((1.03, 2.07), (1.0, 0.9))),
            # corner + 0.1*19 is one ulp above 2.4: the start is evaluated where given
            SearchConfig(domain=Domain(0.5, 1.5, 0.5, 2.4), guesses=((1.0, 2.4), (1.0, 0.9))),
        ],
        ids=["off-lattice", "lattice-point-infeasible"],
    )
    def test_off_lattice_starts_match_the_reference_loop(self, config):
        for cycle in plain_envelope_cycles(8087, 4, 0.4):
            self.matches_reference(cycle, config)

    @pytest.mark.parametrize(
        "cycle, axis, edge",
        [
            (make_cycle(0.45, 1.7)[0], 0, 0.5),
            (make_cycle(1.55, 1.3, noise_sigma=1.0, seed=3)[0], 0, 1.5),
            (make_cycle(1.3, 0.46)[0], 1, 0.5),
            (make_cycle(1.2, 3.05, noise_sigma=1.0, seed=3)[0], 1, 3.0),
        ],
        ids=["u1=0.5", "u1=1.5", "u2=0.5", "u2=3.0"],
    )
    def test_a_minimiser_on_an_edge_matches_the_reference_loop(self, cycle, axis, edge):
        # the finish holds the bound coordinate, and a Hessian probe there goes backward
        for config in (SearchConfig(), SearchConfig(random_guesses=8, seed=2024)):
            outcome = self.matches_reference(cycle, config)
            newton = [step for step in winning_trace(outcome).steps if step.kind == "newton"]
            assert newton and all(step[1 + axis] == edge for step in newton)

    def test_analytic_landscapes_match_the_reference_loop(self):
        # compass_search and _newton_finish called directly, as the reference's,
        # on landscapes whose Newton steps overshoot and backtrack, aim into a
        # node tube, or follow a curved valley
        scale = 0.01

        def cone(u1, u2):
            return math.sqrt(1.0 + ((u1 - 1.2) ** 2 + (u2 - 2.2) ** 2) / scale**2)

        def cone_gradient(u1, u2):
            p = cone(u1, u2)
            return (u1 - 1.2) / (scale**2 * p), (u2 - 2.2) / (scale**2 * p)

        def valley(u1, u2):
            return 100.0 * (u2 - 2.0 - (u1 - 1.0) ** 2) ** 2 + (1.3 - u1) ** 2

        def valley_gradient(u1, u2):
            bend = u2 - 2.0 - (u1 - 1.0) ** 2
            return -400.0 * bend * (u1 - 1.0) - 2.0 * (1.3 - u1), 200.0 * bend

        landscapes = [
            (cone, cone_gradient, (1.0, 2.0)),
            (lambda u1, u2: (u1 - 1.0) ** 2 + 2.0 * (u2 - 1.0) ** 2,
             lambda u1, u2: (2.0 * (u1 - 1.0), 4.0 * (u2 - 1.0)), (1.2, 1.3)),
            (valley, valley_gradient, (0.7, 2.4)),
        ]
        newton_steps = 0
        for objective, gradient, start in landscapes:
            for delta_tol in (0.02, 0.05):
                config = SearchConfig(delta_tol=delta_tol)
                ours = compass_search(objective, start, config)
                theirs = oracles.compass_search(objective, start, config)
                assert trace_bits(ours) == trace_bits(theirs)
                ours = search._newton_finish(objective, gradient, ours, config)
                theirs = oracles.newton_finish(objective, gradient, theirs, config)
                assert trace_bits(ours) == trace_bits(theirs)
                newton_steps += sum(step.kind == "newton" for step in ours.steps)
        assert newton_steps > 0


class TestLatticeJoins:
    """Every start walks the lattice anchored at the domain corner; a start meeting another joins it."""

    @pytest.mark.parametrize(
        "domain",
        [search.DEFAULT_DOMAIN, Domain(0.55, 1.47, 0.6, 2.4)],
        ids=["default", "bounds-off-lattice"],
    )
    def test_random_starts_are_feasible_lattice_points(self, domain):
        config = SearchConfig(domain=domain, guesses=(), random_guesses=200, seed=31)
        starts = search._random_starts(config)
        assert starts == search._random_starts(config)
        assert len(set(starts)) > 50
        for u1, u2 in starts:
            x = [(u - c) / config.delta0 for u, c in ((u1, domain.u1_min), (u2, domain.u2_min))]
            whole = [round(a) for a in x]
            assert max(abs(a - w) for a, w in zip(x, whole)) <= 1e-9
            assert (u1, u2) == (
                domain.u1_min + config.delta0 * whole[0],
                domain.u2_min + config.delta0 * whole[1],
            )
            assert config.feasible(u1, u2)

    @pytest.mark.parametrize("guess", [(1.0, 2.0), (1.0, 0.9), (0.6, 2.4), (1.4, 2.4), (1.5, 3.0)])
    def test_guesses_enter_on_the_lattice(self, guess):
        # the default and comparison guesses are lattice points: the start is
        # evaluated at corner + delta0*x, within an ulp of the guess
        config = SearchConfig()
        seen = []

        def objective(u1, u2):
            seen.append((u1, u2))
            return (u1 - 1.23) ** 2 + (u2 - 1.7) ** 2

        trace = compass_search(objective, guess, config)
        x = [round((g - 0.5) / 0.1) for g in guess]
        assert seen[0] == (0.5 + 0.1 * x[0], 0.5 + 0.1 * x[1])
        assert all(math.isclose(a, b, rel_tol=0.0, abs_tol=5e-16) for a, b in zip(seen[0], guess))
        assert trace.start == guess and trace.converged

    def test_duplicated_guess_joins_at_its_first_state(self):
        cycle = plain_envelope_cycles(4242, 1, 0.0)[0]
        config = SearchConfig(guesses=((1.0, 2.0), (1.0, 2.0), (1.0, 0.9)))
        first, duplicate, other = fast_if(cycle, config).traces
        assert duplicate.joined == 0 and duplicate.evals == 1
        assert [step.kind for step in duplicate.steps] == ["start"]
        alone = compass_search(plain_objective(cycle), (1.0, 2.0), config)
        assert (duplicate.final, duplicate.final_value) == (alone.final, alone.final_value)
        assert duplicate.converged and first.joined is None

    def test_joined_starts_never_win(self):
        config = SearchConfig(random_guesses=8, seed=2024)
        for cycle in plain_envelope_cycles(777, 10, 0.0):
            outcome = fast_if(cycle, config)
            winner = winning_trace(outcome)
            assert winner.joined is None
            for index, trace in enumerate(outcome.traces):
                assert trace.joined is None or trace.joined < index

    def test_visited_map_names_the_first_start_of_each_state(self):
        config = SearchConfig()
        objective = lambda u1, u2: (u1 - 1.23) ** 2 + 3.0 * (u2 - 1.74) ** 2
        visited = {}
        first = compass_search(objective, (1.0, 2.0), config, visited, 0)
        held = dict(visited)
        second = compass_search(objective, (1.0, 1.6), config, visited, 1)
        assert first.joined is None and set(held.values()) == {0}
        assert second.joined == 0 and second.evals < first.evals
        assert all(visited[state] == 0 for state in held)
        met = second.steps[-1]
        x1, x2 = search._lattice_coordinates(config, met.u1, met.u2)
        assert held[x1, x2, met.delta / config.delta0] == 0

    def test_traces_keep_their_public_shape(self):
        # every step is a TraceStep; a joined start keeps its own start, steps,
        # evals and joined, and takes the end of the start it joined, at the
        # hand-off
        fields = ("kind", "u1", "u2", "delta", "value")
        config = SearchConfig(random_guesses=8, seed=2024)
        joined = 0
        for cycle in plain_envelope_cycles(8087, 6, 0.0):
            outcome = fast_if(cycle, config)
            kernel, visited = search._Kernel(cycle), {}
            alone = [
                compass_search(kernel.objective, start, config, visited, index)
                for index, start in enumerate(config.starts)
            ]
            ends = []
            for trace in alone:
                own = (trace.final, trace.final_value, trace.converged)
                ends.append(own if trace.joined is None else ends[trace.joined])
            for trace, own, end in zip(outcome.traces, alone, ends):
                assert type(trace) is search.StartTrace and type(trace.steps) is tuple
                for step in trace.steps:
                    assert isinstance(step, search.TraceStep) and step._fields == fields
                    assert step == search.TraceStep(*step)
                if trace.joined is None:
                    continue
                joined += 1
                assert (trace.start, trace.steps, trace.evals, trace.joined) == (
                    own.start, own.steps, own.evals, own.joined
                )
                assert (trace.final, trace.final_value, trace.converged) == end
        assert joined > 0

    def test_off_lattice_guess_converges(self):
        cycle, params = make_cycle(1.23, 2.42, b1=0.5, b2=1.0, pbar=2200.0)
        outcome = fast_if(cycle, SearchConfig(guesses=((1.03, 2.07),)))
        truth = params.freqs.dimensionless(T0, T)
        got = outcome.dimensionless(cycle)
        assert outcome.converged and outcome.winning_start == (1.03, 2.07)
        assert max(abs(got[0] - truth[0]), abs(got[1] - truth[1])) <= 0.002

    def test_start_whose_lattice_point_is_infeasible_is_evaluated_where_given(self):
        # corner + 0.1*19 is one ulp above 2.4, outside this domain
        config = SearchConfig(domain=Domain(0.5, 1.5, 0.5, 2.4), guesses=((1.0, 2.4),))
        assert 0.5 + 0.1 * 19 > 2.4
        trace = compass_search(lambda u1, u2: (u1 - 1.2) ** 2 + (u2 - 2.0) ** 2, (1.0, 2.4), config)
        assert (trace.steps[0].u1, trace.steps[0].u2) == (1.0, 2.4)
        assert trace.converged and all(config.feasible(s.u1, s.u2) for s in trace.steps)


def winning_trace(outcome):
    return next(trace for trace in outcome.traces if trace.start == outcome.winning_start)


def finish_from(start, objective, gradient, config):
    """_newton_finish on a start that has just stopped at the hand-off step."""
    value = objective(*start)
    trace = search.StartTrace(
        start, (search.TraceStep("start", *start, config.delta0, value),), start, value, 1, True
    )
    return search._newton_finish(objective, gradient, trace, config)


FINISH_CYCLES = [
    *plain_envelope_cycles(4321, 4, 0.0),
    *plain_envelope_cycles(4322, 4, 0.4),
    make_cycle(0.45, 1.7)[0],  # minimiser on the edge u1 = 0.5
    make_cycle(1.55, 1.3, noise_sigma=1.0, seed=3)[0],  # on the edge u1 = 1.5
    make_cycle(1.04, 1.03, noise_sigma=1.0, seed=7)[0],  # 0.05 from the (1, 1) node
]


class TestNewtonFinish:
    """The projected Newton finish fast_if runs on its winning start."""

    def test_every_point_it_evaluates_is_feasible(self, monkeypatch):
        # every P and every gradient fast_if asks for, the Hessian's
        # difference probes included, passes SearchConfig.feasible
        config = SearchConfig(random_guesses=8, seed=2024)
        seen = []

        def recording(function):
            def instrumented(u1, u2):
                seen.append((u1, u2))
                return function(u1, u2)

            return instrumented

        real_compass, real_finish = search.compass_search, search._newton_finish
        monkeypatch.setattr(
            search, "compass_search",
            lambda objective, start, cfg, *joining: real_compass(
                recording(objective), start, cfg, *joining
            ),
        )
        monkeypatch.setattr(
            search, "_newton_finish",
            lambda objective, gradient, trace, cfg: real_finish(
                recording(objective), recording(gradient), trace, cfg
            ),
        )
        newton_steps = 0
        for cycle in FINISH_CYCLES:
            seen.clear()
            newton_steps += fast_if(cycle, config).newton_iterations
            assert seen and all(config.feasible(u1, u2) for u1, u2 in seen)
        assert newton_steps > 0

    def test_steps_stop_short_of_a_node_tube(self):
        # a bowl whose minimiser is the (1, 1) node itself: every Newton step
        # aims into the tube, so each must be shortened to a feasible point
        config = SearchConfig()
        seen = []

        def objective(u1, u2):
            seen.append((u1, u2))
            return (u1 - 1.0) ** 2 + 2.0 * (u2 - 1.0) ** 2

        def gradient(u1, u2):
            seen.append((u1, u2))
            return 2.0 * (u1 - 1.0), 4.0 * (u2 - 1.0)

        finished = finish_from((1.05, 1.04), objective, gradient, config)
        assert any(step.kind == "newton" for step in finished.steps)
        assert finished.final_value < objective(1.05, 1.04) and config.feasible(*finished.final)
        assert all(config.feasible(u1, u2) for u1, u2 in seen)
        assert node_distance(*finished.final) <= NODE_EXCLUSION_RADIUS + 0.002

    def test_an_overshooting_step_backtracks_until_p_falls(self):
        # sqrt(1 + r^2/s^2) flattens away from its centre, so a full Newton step
        # from r = 5s lands about 130s beyond it, where P is far higher
        config = SearchConfig()
        scale = 0.01

        def objective(u1, u2):
            return math.sqrt(1.0 + ((u1 - 1.2) ** 2 + (u2 - 2.2) ** 2) / scale**2)

        def gradient(u1, u2):
            p = objective(u1, u2)
            return (u1 - 1.2) / (scale**2 * p), (u2 - 2.2) / (scale**2 * p)

        start = (1.2 + 3 * scale, 2.2 + 4 * scale)
        finished = finish_from(start, objective, gradient, config)
        values = [objective(*start)] + [s.value for s in finished.steps if s.kind == "newton"]
        assert len(values) > 2 and all(b < a for a, b in zip(values, values[1:]))
        assert finished.converged
        assert math.hypot(finished.final[0] - 1.2, finished.final[1] - 2.2) <= 1e-6

    @pytest.mark.parametrize(
        "cycle, edge",
        [(FINISH_CYCLES[-3], 0.5), (FINISH_CYCLES[-2], 1.5)],
        ids=["u1=0.5", "u1=1.5"],
    )
    def test_holds_an_active_bound_and_refines_the_free_coordinate(self, cycle, edge):
        outcome = fast_if(cycle)
        newton = [step for step in winning_trace(outcome).steps if step.kind == "newton"]
        assert newton and all(step.u1 == edge for step in newton)
        assert outcome.dimensionless(cycle)[0] == edge
        g1, g2 = objective_gradient(outcome.best, cycle)
        energy = cycle.centered_energy
        # the bound coordinate's gradient points out of the domain; the free one's vanishes
        assert (g1 > 0.0) == (edge == 0.5)
        assert abs(g1 * math.pi / cycle.T0) >= 1e-3 * energy
        assert abs(g2 * math.pi / (cycle.T - cycle.T0)) <= 1e-6 * energy

    def test_never_ends_above_its_handoff_value(self):
        config = SearchConfig(random_guesses=3, seed=8)
        for cycle in FINISH_CYCLES:
            outcome = fast_if(cycle, config)
            winner = winning_trace(outcome)
            at_handoff = compass_search(plain_objective(cycle), winner.start, config)
            assert winner.final_value <= at_handoff.final_value
            values = [step.value for step in winner.steps if step.kind == "newton"]
            assert all(b < a for a, b in zip([at_handoff.final_value, *values], values))

    def test_a_stalled_finish_ends_where_newton_stopped(self, monkeypatch):
        # regression: a finish whose Newton steps stop lowering P used to hand
        # its point back to the compass, which resumed at the hand-off step.
        # On this noiseless draw Newton takes five steps to within 2e-6 of the
        # truth, where rounding leaves no fall in P for its next step.
        phase = 3.384732558209628
        cycle, _ = make_cycle(
            0.8165783017474437, 0.7209485618087276, b1=math.cos(phase), b2=math.sin(phase),
            pbar=2599.4032187991256, amplitude=13.588959558116764,
        )
        config = SearchConfig(random_guesses=8, seed=2024)
        calls = []
        real_finish = search._newton_finish

        def counted(function):
            def call(u1, u2):
                calls.append((u1, u2))
                return function(u1, u2)

            return call

        monkeypatch.setattr(
            search, "_newton_finish",
            lambda objective, gradient, trace, cfg: real_finish(
                counted(objective), counted(gradient), trace, cfg
            ),
        )
        winner = winning_trace(fast_if(cycle, config))
        kinds = [step.kind for step in winner.steps]
        assert kinds.count("newton") == 5
        assert set(kinds[kinds.index("newton"):]) == {"newton"}
        at_handoff = compass_search(plain_objective(cycle), winner.start, config)
        assert winner.evals == at_handoff.evals + len(calls)
        assert winner.converged
        # a stall, not a convergence: Newton still asks for a step beyond NEWTON_TOL
        gradient = plain_gradient(cycle)
        g = gradient(*winner.final)
        hessian = search._hessian(gradient, winner.final, g, config)
        step = search._newton_step(winner.final, g, hessian, config.domain, config.delta_tol)
        assert math.hypot(*step) > search.NEWTON_TOL

    def test_max_evals_caps_newton_evaluations(self):
        cycle = plain_envelope_cycles(4321, 1, 0.0)[0]
        config = SearchConfig(guesses=((1.0, 2.0),))
        full = fast_if(cycle, config)
        handoff_evals = compass_search(plain_objective(cycle), (1.0, 2.0), config).evals
        assert full.newton_iterations >= 2 and full.evals > handoff_evals
        for cap in range(handoff_evals, full.evals):
            with pytest.raises(UnconvergedSearchError) as excinfo:
                fast_if(cycle, dataclasses.replace(config, max_evals=cap))
            [trace] = excinfo.value.outcome.traces
            assert not trace.converged and trace.evals <= cap
        capped = fast_if(cycle, dataclasses.replace(config, max_evals=full.evals))
        assert capped.traces == full.traces

    def test_recovers_plain_noiseless_draws(self):
        # regression: with the compass alone down to a 0.001 step, about one
        # plain draw in ten stalled in a diagonal valley more than 0.002 from
        # the truth
        rng = np.random.default_rng(20261018)
        config = SearchConfig(random_guesses=8, seed=2024)
        for _ in range(50):
            params = sample_params(
                rng, T0, T, pbar_range=(1800.0, 2600.0), amplitude_range=(12.0, 24.0)
            )
            cycle = synthesize_cycle(params, T0, T, DT)
            truth = params.freqs.dimensionless(T0, T)
            got = fast_if(cycle, config).dimensionless(cycle)
            assert max(abs(got[0] - truth[0]), abs(got[1] - truth[1])) <= 0.002, truth

    def test_reaches_the_end_of_long_curved_valleys(self):
        # regression: with five Newton iterations the third and twelfth of these
        # lower-lobe draws ended 0.026 and 0.031 from the truth, part way
        # along a curved valley; ten reach its end
        rng = np.random.default_rng(33)
        config = SearchConfig(random_guesses=8, seed=2024)
        for _ in range(12):
            params = sample_params(
                rng, T0, T, pbar_range=(1800.0, 2600.0), amplitude_range=(12.0, 24.0)
            )
            cycle = synthesize_cycle(params, T0, T, DT)
            truth = params.freqs.dimensionless(T0, T)
            got = fast_if(cycle, config).dimensionless(cycle)
            assert max(abs(got[0] - truth[0]), abs(got[1] - truth[1])) <= 0.002, truth

    def test_outcome_reports_newton_iterations_and_gradient_norm(self):
        cycle = FINISH_CYCLES[0]
        outcome = fast_if(cycle)
        steps = winning_trace(outcome).steps
        assert outcome.newton_iterations == sum(step.kind == "newton" for step in steps) > 0
        assert outcome.gradient_norm < 1e-6
        brute, _ = brute_force_if(cycle, GridConfig(mesh=0.1, mesh_unit="dimensionless"))
        assert brute.newton_iterations == 0 and brute.gradient_norm > outcome.gradient_norm
        for result in (outcome, brute):  # the same bits as a fresh gradient and solve
            g1, g2 = objective_gradient(result.best, cycle)
            norm = math.hypot(g1 * math.pi / cycle.T0, g2 * math.pi / (cycle.T - cycle.T0))
            assert result.gradient_norm == norm / cycle.centered_energy
            assert result.params == solve_inner(result.best, cycle).params


class TestNewtonExits:
    """Each way out of the Hessian, the Newton step and the finish, on synthetic gradients."""

    def test_hessian_is_none_where_neither_u1_probe_is_feasible(self):
        # the domain is narrower than a probe step in u1
        config = SearchConfig(domain=Domain(1.2, 1.2 + 1e-8, 1.5, 2.5), guesses=((1.2, 2.0),))
        calls = []
        assert search._hessian(lambda *u: calls.append(u), (1.2, 2.0), (1.0, 1.0), config) is None
        assert calls == []

    def test_hessian_is_none_where_neither_u2_probe_is_feasible(self):
        # the u1 probe is taken before the u2 probes are tried
        config = SearchConfig(domain=Domain(0.5, 1.5, 2.0, 2.0 + 1e-8), guesses=((1.2, 2.0),))
        calls = []

        def gradient(u1, u2):
            calls.append((u1, u2))
            return 1.0, 1.0

        assert search._hessian(gradient, (1.2, 2.0), (1.0, 1.0), config) is None
        assert calls == [(1.2 + search._HESSIAN_STEP, 2.0)]

    @pytest.mark.parametrize(
        "hessian",
        [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (math.nan, 0.0, 1.0), (1.0, 0.0, math.inf)],
    )
    def test_newton_step_is_none_without_a_finite_nonzero_curvature(self, hessian):
        domain = SearchConfig().domain
        assert search._newton_step((1.2, 2.0), (0.3, -0.2), hessian, domain, 0.02) is None

    def test_newton_step_is_none_where_the_free_block_is_singular(self):
        # both diagonals are nonzero, but [[1, 1], [1, 1]] has a zero eigenvalue
        domain = SearchConfig().domain
        assert search._newton_step((1.2, 2.0), (0.3, -0.2), (1.0, 1.0, 1.0), domain, 0.02) is None

    def assert_stalled_at_the_start(self, finished, start, evals):
        # a stall, not a failure: the finish keeps the compass's convergence
        assert finished.converged
        assert finished.final == start and finished.evals == evals
        assert [step.kind for step in finished.steps] == ["start"]

    def test_finish_without_a_hessian_ends_converged_at_its_start(self):
        config = SearchConfig(domain=Domain(1.2, 1.2 + 1e-8, 1.5, 2.5), guesses=((1.2, 2.0),))
        finished = finish_from((1.2, 2.0), lambda u1, u2: 0.0, lambda u1, u2: (1.0, 1.0), config)
        self.assert_stalled_at_the_start(finished, (1.2, 2.0), 2)  # P, then one gradient

    def test_finish_without_a_step_ends_converged_at_its_start(self):
        # a constant gradient has a zero Hessian: no Newton step exists
        config = SearchConfig()
        finished = finish_from((1.2, 2.2), lambda u1, u2: 0.0, lambda u1, u2: (0.3, -0.2), config)
        self.assert_stalled_at_the_start(finished, (1.2, 2.2), 4)  # P, the gradient, two probes

    def test_finish_with_a_non_finite_step_ends_converged_at_its_start(self):
        # a concave quadratic whose gradient is near the largest float: along
        # the Hessian's eigenvectors it overflows, so the step is -inf
        config = SearchConfig()
        start = (1.2, 2.2)

        def gradient(u1, u2):
            d1, d2 = u1 - start[0], u2 - start[1]
            return 1.7e308 - 1e306 * d1 - 0.5e306 * d2, 1.7e308 - 0.5e306 * d1 - 1e306 * d2

        g = gradient(*start)
        hessian = search._hessian(gradient, start, g, config)
        step = search._newton_step(start, g, hessian, config.domain, config.delta_tol)
        assert all(math.isfinite(h) for h in hessian) and not all(map(math.isfinite, step))
        finished = finish_from(start, lambda u1, u2: 0.0, gradient, config)
        self.assert_stalled_at_the_start(finished, start, 4)


class TestCompareAlgorithms:
    def test_noiseless_on_grid_agreement(self):
        cycle, _ = make_cycle(0.9, 1.7, b1=0.4, b2=1.0)
        report = compare_algorithms(
            [cycle],
            grid=GridConfig(mesh=0.05, mesh_unit="dimensionless"),
            threshold=0.0475,
        )
        comparison = report.per_cycle[0]
        assert comparison.abs_du[0] <= 0.002
        assert comparison.abs_du[1] <= 0.002
        assert report.passed

    def test_fast_never_worse_than_grid_best(self, rng):
        cycles = [
            make_cycle(
                float(rng.uniform(0.6, 1.4)),
                float(rng.uniform(0.6, 2.9)),
                noise_sigma=1.0,
                seed=trial,
            )[0]
            for trial in range(3)
        ]
        report = compare_algorithms(
            cycles, grid=GridConfig(mesh=0.05, mesh_unit="dimensionless")
        )
        for comparison in report.per_cycle:
            assert comparison.fast.converged
            slack = 1e-12 * max(1.0, comparison.brute.objective_value)
            assert comparison.fast.objective_value <= comparison.brute.objective_value + slack

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            compare_algorithms([])
