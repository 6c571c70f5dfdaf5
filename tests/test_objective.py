"""Case classification, constraint elimination, the Gram solves, and the reduced objective."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifreq import (
    CONDITION_LIMIT,
    DEFAULT_DOMAIN,
    EPSILON_DEGENERATE,
    Case,
    DegenerateFrequencyError,
    Domain,
    FreqPair,
    GramConditioningError,
    ModelParams,
    SampledCycle,
    SearchConfig,
    build_basis,
    classify,
    enumerate_nodes,
    evaluate_model,
    node_distance,
    objective,
    objective_gradient,
    objective_p,
    reduce_constraints,
    solve_inner,
)
from ifreq.objective import (
    endpoint_trig,
    geometry_terms,
    gradient_from_terms,
    objective_from_term_arrays,
    objective_from_terms,
    segment_slopes,
    segment_term_arrays,
    segment_terms,
)

import oracles
from conftest import DT, T, T0, make_cycle, random_general_freqs
from oracles import (
    adjugate,
    complex_step_gradient,
    condition_estimate,
    dense_constrained_lstsq,
    within_condition,
)


def at(u1: float, u2: float) -> FreqPair:
    return FreqPair.from_dimensionless(u1, u2, T0, T)


class TestClassify:
    def test_odd_node_is_gamma1(self):
        assert classify(at(1.0, 1.0), T0, T) is Case.GAMMA1

    def test_even_node_is_gamma2(self):
        assert classify(at(2.0, 2.0), T0, T) is Case.GAMMA2

    def test_quarter_period_is_general(self):
        assert classify(at(0.5, 0.5), T0, T) is Case.GENERAL

    def test_mixed_parity_integer_pair_is_general(self):
        # cos product is -1 there, far from the degenerate value +1
        assert classify(at(1.0, 2.0), T0, T) is Case.GENERAL

    def test_near_node_inside_tolerance_routes_to_branch(self):
        offset = 1e-5  # |1 - cos*cos| ~ 1e-9, inside the default tolerance
        assert classify(at(1.0 + offset, 1.0), T0, T) is Case.GAMMA1
        assert classify(at(2.0, 2.0 + offset), T0, T) is Case.GAMMA2

    def test_branch_follows_the_cosines_next_to_the_u1_axis(self):
        # at u1 ~ 0 both end-point cosines are +1 (even branch), though the
        # nearest node with u1 >= 1 is the odd (1, 1): the lattice solve must
        # keep a1 = a2 and meet the periodicity constraint a1 = a2*cos2 + b2*sin2
        n, m, dt = 181, 320, 0.002
        samples = np.random.default_rng(1).normal(100.0, 10.0, size=n + m)
        cycle = SampledCycle(samples, dt=dt, n=n, m=m)
        assert not SearchConfig(domain=Domain(4e-5, 1.5, 0.5, 3.0)).feasible(4e-5, 2.0)
        freqs = FreqPair.from_dimensionless(4e-5, 2.0, cycle.T0, cycle.T)
        solution = solve_inner(freqs, cycle)
        assert classify(freqs, cycle.T0, cycle.T) is solution.case is Case.GAMMA2
        assert solution.a1 == solution.a2
        _, _, cos2, sin2 = endpoint_trig(freqs, cycle.T0, cycle.T)
        periodicity = solution.a1 - solution.a2 * cos2 - solution.b2 * sin2
        assert abs(periodicity) <= 1e-12 * (abs(solution.a1) + abs(solution.b2))


class TestDomain:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("slot", range(4))
    def test_rejects_non_finite_bounds(self, bad, slot):
        bounds = [0.5, 1.5, 0.5, 3.0]
        bounds[slot] = bad
        with pytest.raises(ValueError, match="invalid domain"):
            Domain(*bounds)

    def test_accepts_finite_bounds(self):
        assert Domain(0.5, 1e6, 0.5, 3.0).contains(1e5, 1.0)


#: Coordinates where node_distance's rounding matters: exact integers (where
#: both roundings tie, half to even), their float neighbours, values near 0,
#: negative ones (the odd branch stops at 1), the default domain's edges, and
#: generic and very large values.
node_coordinates = st.one_of(
    st.integers(-4, 12).map(float),
    st.integers(-4, 12).flatmap(
        lambda k: st.sampled_from([math.nextafter(k, -math.inf), math.nextafter(k, math.inf)])
    ),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 4e-5, 0.02, 0.5, 1.5, 3.0, 2.0**53,
                     2.0**53 + 2.0, 1e300]),
    st.floats(-1.0, 1.0),
    st.floats(-10.0, 10.0),
    st.floats(-1e18, 1e18),
)

#: An integer or one of its float neighbours.
near_integer = st.tuples(st.integers(-2, 6), st.sampled_from([-1, 0, 1])).map(
    lambda x: float(x[0]) if x[1] == 0 else math.nextafter(x[0], x[1] * math.inf)
)
#: Points at or one ulp from an integer pair of either parity: where the
#: nearest odd and the nearest even node are at nearly equal distances.
near_integer_points = st.tuples(near_integer, near_integer)


class TestNodeDistance:
    def test_exact_nodes(self):
        assert node_distance(1.0, 1.0) == 0.0
        assert node_distance(2.0, 4.0) == 0.0

    def test_even_node_on_the_u1_axis(self):
        # both end-point cosines are +1 at u1 = 0: (0, 2) is an even node, and
        # its tube keeps the search off the ill-conditioned points next to it
        assert node_distance(4e-5, 2.0) == 4e-5
        assert not SearchConfig(domain=Domain(4e-5, 1.5, 0.5, 3.0)).feasible(4e-5, 2.0)

    def test_mixed_parity_is_not_a_node(self):
        assert node_distance(1.0, 2.0) == pytest.approx(1.0)

    def test_generic_point(self):
        assert node_distance(1.1, 0.95) == pytest.approx(math.hypot(0.1, 0.05))

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.tuples(node_coordinates, node_coordinates), near_integer_points))
    def test_matches_the_helper_reference(self, point):
        u1, u2 = point
        # straight-line code, the same float as the nearest-odd/nearest-even form
        assert node_distance(u1, u2).hex() == oracles.node_distance(u1, u2).hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_raises_as_the_helper_reference(self, bad):
        for u1, u2 in [(bad, 1.0), (1.0, bad), (bad, math.nan), (math.inf, bad)]:
            with pytest.raises((ValueError, OverflowError)) as want:
                oracles.node_distance(u1, u2)
            with pytest.raises(type(want.value), match=re.escape(str(want.value))):
                node_distance(u1, u2)


class TestReduceConstraints:
    def test_quarter_period_swaps_envelopes(self):
        a1, a2 = reduce_constraints(at(0.5, 0.5), b1=3.0, b2=5.0, T0=T0, T=T)
        assert a1 == pytest.approx(5.0, abs=1e-12)
        assert a2 == pytest.approx(3.0, abs=1e-12)

    def test_zero_envelopes(self):
        assert reduce_constraints(at(0.7, 1.3), 0.0, 0.0, T0, T) == (0.0, 0.0)

    def test_degenerate_input_rejected(self):
        with pytest.raises(DegenerateFrequencyError):
            reduce_constraints(at(1.0, 1.0), 1.0, 1.0, T0, T)


class TestBuildBasis:
    def test_degenerate_sine_vectors_have_disjoint_support(self):
        cycle, _ = make_cycle(1.2, 2.5)
        for node in [(1.0, 1.0), (1.0, 3.0), (2.0, 2.0)]:
            basis = build_basis(at(*node), cycle)
            assert basis.case.degenerate
            assert float(basis.v1 @ basis.v2) == 0.0

    def test_gamma1_cosine_vector_blocks(self):
        cycle, _ = make_cycle(1.2, 2.5)
        freqs = at(1.0, 1.0)
        basis = build_basis(freqs, cycle)
        assert basis.case is Case.GAMMA1
        np.testing.assert_array_equal(basis.w0[: cycle.n], np.cos(freqs.omega1 * cycle.t1))
        np.testing.assert_array_equal(basis.w0[cycle.n :], -np.cos(freqs.omega2 * cycle.t2))

    def test_gamma2_cosine_vector_blocks(self):
        cycle, _ = make_cycle(1.2, 2.5)
        freqs = at(2.0, 2.0)
        basis = build_basis(freqs, cycle)
        assert basis.case is Case.GAMMA2
        np.testing.assert_array_equal(basis.w0[cycle.n :], np.cos(freqs.omega2 * cycle.t2))

    def test_general_quarter_period_first_vector_is_sine(self):
        # cos(omega2*(T-T0)) = 0 kills the cosine mix-in on the systolic block
        cycle, _ = make_cycle(1.2, 2.5)
        freqs = at(0.5, 0.5)
        basis = build_basis(freqs, cycle)
        assert basis.case is Case.GENERAL
        np.testing.assert_allclose(
            basis.v1[: cycle.n], np.sin(freqs.omega1 * cycle.t1), atol=1e-12
        )


class TestSolveInner:
    def test_constant_cycle_fits_offset_only(self):
        cycle = SampledCycle(np.full(200, 7.0), dt=DT, n=80, m=120)
        sol = solve_inner(at(0.8, 1.7), cycle)
        assert sol.b1 == pytest.approx(0.0, abs=1e-9)
        assert sol.b2 == pytest.approx(0.0, abs=1e-9)
        assert sol.pbar == pytest.approx(7.0, rel=1e-12)
        assert sol.objective_value <= 1e-16 * float(cycle.samples @ cycle.samples)

    def test_exact_recovery_at_generating_frequencies(self):
        cycle, params = make_cycle(1.15, 2.35, b1=0.3, b2=1.0)
        sol = solve_inner(params.freqs, cycle)
        f_energy = float(cycle.samples @ cycle.samples)
        assert sol.objective_value <= 1e-16 * f_energy
        assert sol.a1 == pytest.approx(params.a1, rel=1e-8, abs=1e-10)
        assert sol.b1 == pytest.approx(params.b1, rel=1e-8, abs=1e-10)
        assert sol.a2 == pytest.approx(params.a2, rel=1e-8, abs=1e-10)
        assert sol.b2 == pytest.approx(params.b2, rel=1e-8, abs=1e-10)
        assert sol.pbar == pytest.approx(params.pbar, rel=1e-10)

    def test_generating_point_is_the_unique_zero(self):
        cycle, params = make_cycle(1.15, 2.35, b1=0.3, b2=1.0)
        truth = params.freqs.dimensionless(T0, T)
        f_energy = float(cycle.samples @ cycle.samples)
        for u1 in np.arange(0.5, 1.51, 0.1):
            for u2 in np.arange(0.5, 3.01, 0.1):
                if node_distance(u1, u2) < 0.05:
                    continue
                value = objective_p(at(u1, u2), cycle)
                if math.hypot(u1 - truth[0], u2 - truth[1]) > 0.1:
                    assert value > 1e-6 * f_energy
        assert objective_p(params.freqs, cycle) <= 1e-16 * f_energy

    def test_conditioning_error_carries_estimate(self, monkeypatch):
        cycle, _ = make_cycle(1.1, 2.2)
        monkeypatch.setattr(objective, "CONDITION_LIMIT", 1.0)
        with pytest.raises(GramConditioningError) as excinfo:
            solve_inner(at(0.8, 1.7), cycle)
        assert excinfo.value.condition > 1.0
        assert objective_p(at(0.8, 1.7), cycle) == math.inf

    def test_matches_dense_oracle_general_case(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 21))
            m = int(rng.integers(5, 21))
            dt = 0.005
            t0, t_period = (n - 1) * dt, (n - 1 + m) * dt
            cycle = SampledCycle(rng.normal(50.0, 10.0, size=n + m), dt=dt, n=n, m=m)
            freqs = random_general_freqs(rng, t0, t_period)
            sol = solve_inner(freqs, cycle)
            theta, p_ref = dense_constrained_lstsq(freqs, cycle)
            got = np.array([sol.a1, sol.a2, sol.b1, sol.b2, sol.pbar])
            scale = max(1.0, float(np.max(np.abs(theta))))
            np.testing.assert_allclose(got, theta, rtol=1e-8, atol=1e-8 * scale)
            assert sol.objective_value == pytest.approx(p_ref, rel=1e-8, abs=1e-10)

    def test_matches_dense_oracle_on_nodes(self, rng):
        # the oracle's numeric rank detection reduces to one constraint row there
        n, m = 12, 16
        dt = 0.005
        t0, t_period = (n - 1) * dt, (n - 1 + m) * dt
        for node_u in [(1.0, 1.0), (2.0, 2.0), (1.0, 3.0)]:
            cycle = SampledCycle(rng.normal(50.0, 10.0, size=n + m), dt=dt, n=n, m=m)
            freqs = FreqPair.from_dimensionless(*node_u, t0, t_period)
            sol = solve_inner(freqs, cycle)
            assert sol.case.degenerate
            theta, p_ref = dense_constrained_lstsq(freqs, cycle)
            got = np.array([sol.a1, sol.a2, sol.b1, sol.b2, sol.pbar])
            scale = max(1.0, float(np.max(np.abs(theta))))
            np.testing.assert_allclose(got, theta, rtol=1e-8, atol=1e-8 * scale)
            assert sol.objective_value == pytest.approx(p_ref, rel=1e-8, abs=1e-10)

    def test_residual_orthogonal_to_basis(self, rng):
        for trial in range(20):
            cycle, _ = make_cycle(
                float(rng.uniform(0.6, 1.4)),
                float(rng.uniform(0.6, 2.9)),
                noise_sigma=2.0,
                seed=trial,
            )
            freqs = random_general_freqs(rng)
            sol = solve_inner(freqs, cycle)
            basis = build_basis(freqs, cycle)
            fitted = sol.b1 * basis.v1 + sol.b2 * basis.v2 + sol.pbar
            residual = fitted - cycle.samples
            f_norm = float(np.linalg.norm(cycle.samples))
            for vec in (basis.v1, basis.v2):
                assert abs(float(vec @ residual)) <= 1e-8 * f_norm * float(np.linalg.norm(vec))
            ones_norm = math.sqrt(cycle.samples.size)
            assert abs(float(residual.sum())) <= 1e-8 * f_norm * ones_norm

    @pytest.mark.parametrize("node", [(1.0, 1.0), (1.0, 3.0), (2.0, 2.0)])
    def test_node_tubes_match_explicit_lstsq(self, node):
        # on the lattice (distance 0, 1e-6) and inside the node tubes, where the
        # Gram matrix is worst conditioned, the moment solve must fit as well as
        # an SVD least-squares fit on build_basis's explicit columns
        for seed, noise in enumerate([0.0, 0.1, 2.0]):
            cycle, _ = make_cycle(1.2, 2.6, noise_sigma=noise, seed=seed)
            for distance in [0.0, 1e-6, 1e-4, 1e-3]:
                for angle in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
                    u1 = node[0] + distance * math.cos(angle)
                    u2 = node[1] + distance * math.sin(angle)
                    basis = build_basis(at(u1, u2), cycle)
                    columns = [basis.v1, basis.v2, np.ones(cycle.samples.size)]
                    if basis.w0 is not None:
                        columns.append(basis.w0)
                    design = np.stack(columns, axis=1)
                    coef, *_ = np.linalg.lstsq(design, cycle.samples, rcond=None)
                    residual = design @ coef - cycle.samples
                    sol = solve_inner(at(u1, u2), cycle)
                    assert sol.case is basis.case
                    assert sol.objective_value == pytest.approx(
                        float(residual @ residual), rel=0, abs=1e-10 * cycle.centered_energy
                    )


class TestObjectiveP:
    def test_zero_at_generator_nonnegative_everywhere(self, rng):
        cycle, params = make_cycle(0.95, 1.45, b1=1.0, b2=-0.6)
        assert objective_p(params.freqs, cycle) <= 1e-16 * float(
            cycle.samples @ cycle.samples
        )
        for _ in range(25):
            assert objective_p(random_general_freqs(rng), cycle) >= 0.0

    def test_bounded_by_centered_energy(self, rng):
        for trial in range(10):
            cycle, _ = make_cycle(
                float(rng.uniform(0.6, 1.4)),
                float(rng.uniform(0.6, 2.9)),
                noise_sigma=3.0,
                seed=100 + trial,
            )
            bound = cycle.centered_energy
            for _ in range(5):
                assert objective_p(random_general_freqs(rng), cycle) <= bound * (1 + 1e-12)

    def test_degenerate_solve_dominates_general_limit(self, rng):
        # approaching a node from four sides, the general-case objective cannot
        # undercut the lattice solve at the node itself
        cycle, _ = make_cycle(1.2, 2.6, noise_sigma=2.0, seed=9)
        for node_u in [(1.0, 1.0), (1.0, 3.0)]:
            p_node = objective_p(FreqPair.from_dimensionless(*node_u, T0, T), cycle)
            for direction in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
                step = 0.004
                u1 = node_u[0] + direction[0] * step
                u2 = node_u[1] + direction[1] * step
                p_limit = objective_p(FreqPair.from_dimensionless(u1, u2, T0, T), cycle)
                assert p_node <= p_limit + 1e-6 * max(1.0, p_limit)

    def test_gradient_smoothness_away_from_nodes(self):
        # central differences at h and h/2 should behave like an O(h^2) scheme
        cycle, _ = make_cycle(1.1, 2.3, b1=0.7, b2=1.0)
        point = (0.95, 1.9)  # generic slope region, >= 0.05 from every node

        def directional(h: float, axis: int) -> float:
            up = list(point)
            down = list(point)
            up[axis] += h
            down[axis] -= h
            p_up = objective_p(FreqPair.from_dimensionless(*up, T0, T), cycle)
            p_dn = objective_p(FreqPair.from_dimensionless(*down, T0, T), cycle)
            return (p_up - p_dn) / (2 * h)

        for axis in (0, 1):
            d1 = directional(0.04, axis)
            d2 = directional(0.02, axis)
            d3 = directional(0.01, axis)
            ratio = (d1 - d2) / (d2 - d3)
            assert 0.8 * 4 <= ratio <= 1.2 * 4


class TestEnumerateNodes:
    def test_default_window(self):
        nodes = enumerate_nodes(T0, T, Domain(0.5, 1.5, 0.5, 3.0))
        coords = sorted((node.u1, node.u2) for node in nodes)
        assert coords == [(1, 1), (1, 3)]
        assert all(node.branch is Case.GAMMA1 for node in nodes)

    def test_closed_rectangle_includes_boundary(self):
        nodes = enumerate_nodes(T0, T, Domain(0.5, 1.5, 1.001, 3.0))
        assert [(n.u1, n.u2) for n in nodes] == [(1, 3)]

    def test_wide_window_has_both_branches(self):
        nodes = enumerate_nodes(T0, T, Domain(0.5, 4.5, 0.5, 4.5))
        odd = sorted((n.u1, n.u2) for n in nodes if n.branch is Case.GAMMA1)
        even = sorted((n.u1, n.u2) for n in nodes if n.branch is Case.GAMMA2)
        assert odd == [(1, 1), (1, 3), (3, 1), (3, 3)]
        assert even == [(2, 2), (2, 4), (4, 2), (4, 4)]

    def test_node_frequencies_satisfy_degeneracy_exactly(self):
        for node in enumerate_nodes(T0, T, Domain(0.5, 4.5, 0.5, 4.5)):
            cc = math.cos(node.omega1 * T0) * math.cos(node.omega2 * (T - T0))
            assert cc == pytest.approx(1.0, abs=1e-12)


@st.composite
def cycles(draw) -> SampledCycle:
    """A small (3-40 samples per segment) or full-size cycle: model, model plus noise, or noise."""
    if draw(st.booleans()):
        n, m, dt = 181, 320, DT
    else:
        n, m, dt = draw(st.integers(3, 40)), draw(st.integers(3, 40)), 0.005
    t0, t_period = (n - 1) * dt, (n - 1 + m) * dt
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pbar = draw(st.sampled_from([0.0, 100.0, 2000.0]))
    noise = draw(st.sampled_from([0.0, 0.05, 2.0, None]))
    if noise is None:
        return SampledCycle(pbar + rng.normal(0.0, 10.0, n + m), dt=dt, n=n, m=m)
    freqs = random_general_freqs(rng, t0, t_period)
    a1, a2 = reduce_constraints(freqs, 10.0, -7.0, t0, t_period)
    params = ModelParams(a1, 10.0, a2, -7.0, pbar, freqs.omega1, freqs.omega2)
    samples = evaluate_model(params, dt, n, m) + rng.normal(0.0, noise, n + m)
    return SampledCycle(samples, dt=dt, n=n, m=m)


units1 = st.floats(DEFAULT_DOMAIN.u1_min, DEFAULT_DOMAIN.u1_max)
units2 = st.floats(DEFAULT_DOMAIN.u2_min, DEFAULT_DOMAIN.u2_max)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def general_freqs(cycle: SampledCycle, u1: float, u2: float) -> FreqPair:
    assume(node_distance(u1, u2) > 0.02)
    return FreqPair.from_dimensionless(u1, u2, cycle.T0, cycle.T)


def reference_p(freqs: FreqPair, cycle: SampledCycle) -> float:
    """solve_inner's explicit residual, +inf where its Gram check fails (tiny cycles can alias)."""
    try:
        return solve_inner(freqs, cycle).objective_value
    except GramConditioningError:
        return math.inf


class TestMomentKernelProperties:
    """objective_p against solve_inner's explicit residual and the dense oracle.

    solve_inner solves the same moment system as objective_p and only its
    residual is explicit; the dense-oracle properties are the independent check.
    """

    @PROPERTY
    @given(cycles(), units1, units2)
    def test_between_zero_and_centered_energy(self, cycle, u1, u2):
        freqs = FreqPair.from_dimensionless(u1, u2, cycle.T0, cycle.T)
        p = objective_p(freqs, cycle)
        if p == math.inf:  # the conditioning sentinel, which the reference must share
            assert reference_p(freqs, cycle) == math.inf
        else:
            assert 0.0 <= p <= cycle.centered_energy * (1 + 1e-12)

    @PROPERTY
    @given(cycles(), units1, units2, st.floats(-1e3, 1e3))
    def test_invariant_under_constant_offset(self, cycle, u1, u2, offset):
        freqs = general_freqs(cycle, u1, u2)
        shifted = SampledCycle(cycle.samples + offset, dt=cycle.dt, n=cycle.n, m=cycle.m)
        p = objective_p(freqs, cycle)
        tol = 1e-9 * p + 1e-11 * cycle.centered_energy
        assert objective_p(freqs, shifted) == pytest.approx(p, rel=0, abs=tol)

    @PROPERTY
    @given(cycles(), units1, units2)
    def test_matches_explicit_reference(self, cycle, u1, u2):
        freqs = general_freqs(cycle, u1, u2)
        p_ref = reference_p(freqs, cycle)
        if p_ref == math.inf:
            assert objective_p(freqs, cycle) == math.inf
        else:
            tol = 1e-9 * p_ref + 1e-11 * cycle.centered_energy
            assert objective_p(freqs, cycle) == pytest.approx(p_ref, rel=0, abs=tol)

    @PROPERTY
    @given(cycles(), units1, units2)
    def test_reference_matches_dense_oracle(self, cycle, u1, u2):
        freqs = general_freqs(cycle, u1, u2)
        try:
            sol = solve_inner(freqs, cycle)
        except GramConditioningError:
            assume(False)
        assume(sol.gram_condition < 1e8)  # tiny cycles can alias into near-rank loss
        theta, p_ref = dense_constrained_lstsq(freqs, cycle)
        got = np.array([sol.a1, sol.a2, sol.b1, sol.b2, sol.pbar])
        scale = max(1.0, float(np.max(np.abs(theta))))
        np.testing.assert_allclose(got, theta, rtol=1e-8, atol=1e-8 * scale)
        energy = cycle.centered_energy
        assert sol.objective_value == pytest.approx(p_ref, rel=1e-8, abs=1e-11 * energy)

    @PROPERTY
    @given(cycles(), units1, units2)
    def test_kernel_and_solve_match_dense_oracle(self, cycle, u1, u2):
        # the oracle fits the explicit five-column design, independent of the moment sums
        freqs = general_freqs(cycle, u1, u2)
        p = objective_p(freqs, cycle)
        assume(p != math.inf)  # tiny cycles can alias into rank loss
        _, p_ref = dense_constrained_lstsq(freqs, cycle)
        tol = 1e-9 * p_ref + 1e-11 * cycle.centered_energy
        assert p == pytest.approx(p_ref, rel=0, abs=tol)
        assert solve_inner(freqs, cycle).objective_value == pytest.approx(p_ref, rel=0, abs=tol)

    @PROPERTY
    @given(
        cycles(),
        st.sampled_from([(1.0, 1.0), (1.0, 3.0), (2.0, 2.0)]),
        st.floats(-9.0, -3.0),
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_lattice_routing_follows_criterion_6(self, cycle, node, log_offset, angle):
        # criterion 6: the lattice solve applies exactly where |1 - cos*cos| <= 1e-8
        offset = 10.0**log_offset
        u1 = node[0] + offset * math.cos(angle)
        u2 = node[1] + offset * math.sin(angle)
        freqs = FreqPair.from_dimensionless(u1, u2, cycle.T0, cycle.T)
        cos1, _, cos2, _ = endpoint_trig(freqs, cycle.T0, cycle.T)
        on_lattice = abs(1.0 - cos1 * cos2) <= 1e-8
        assert classify(freqs, cycle.T0, cycle.T).degenerate == on_lattice
        if on_lattice:
            assert objective_p(freqs, cycle) == reference_p(freqs, cycle)


class TestSegmentTerms:
    """Per-segment terms: end-point trig, closed-form sums, and blocked phase sums."""

    @PROPERTY
    @given(cycles(), units1, units2)
    def test_trig_terms_are_the_shared_helpers(self, cycle, u1, u2):
        freqs = FreqPair.from_dimensionless(u1, u2, cycle.T0, cycle.T)
        systolic = segment_terms(cycle, 0, freqs.omega1)
        diastolic = segment_terms(cycle, 1, freqs.omega2)
        assert len(systolic) == len(diastolic) == 9
        cos1, sin1, cos2, sin2 = endpoint_trig(freqs, cycle.T0, cycle.T)
        assert systolic[:2] == (cos1, sin1) and diastolic[:2] == (cos2, sin2)
        assert systolic[2:7] == oracles.trig_sums(0, cycle.n, freqs.omega1 * cycle.dt)
        assert diastolic[2:7] == oracles.trig_sums(1, cycle.m, freqs.omega2 * cycle.dt)

    @PROPERTY
    @given(cycles(), units1, units2)
    def test_geometry_terms_read_no_sample(self, cycle, u1, u2):
        # the search shares them between cycles of one geometry: a cycle with
        # other samples gives the same bits, and adding its own phase sums
        # gives its segment_terms
        other = SampledCycle(cycle.samples[::-1] * 3.0 + 1.0, dt=cycle.dt, n=cycle.n, m=cycle.m)
        freqs = FreqPair.from_dimensionless(u1, u2, cycle.T0, cycle.T)
        for segment, omega in enumerate((freqs.omega1, freqs.omega2)):
            left, right, closed = geometry_terms(cycle.segment_plans[segment], omega)
            other_left, other_right, other_closed = geometry_terms(
                other.segment_plans[segment], omega
            )
            assert left.tobytes() == other_left.tobytes()
            assert right.tobytes() == other_right.tobytes()
            # the row is numpy's exp of the float theta times the exponents,
            # which geometry_terms takes as a complex theta
            plan = cycle.segment_plans[segment]
            row = np.exp(omega * plan.dt * plan.exponents)
            assert np.concatenate((left, right)).tobytes() == row.tobytes()
            assert_same_bits(closed, other_closed)
            for c in (cycle, other):
                sums = complex(left.dot(c.segment_plans[segment].block).dot(right))
                assert_same_bits(closed + (sums.real, sums.imag), segment_terms(c, segment, omega))


class TestPhaseSums:
    """The blocked sums of the centered samples against cos and sin, sample by sample."""

    @staticmethod
    def assert_matches_direct_sums(cycle: SampledCycle, freqs: FreqPair) -> None:
        f1, f2 = cycle.centered[: cycle.n], cycle.centered[cycle.n :]
        direct = [
            f1 @ np.cos(freqs.omega1 * cycle.t1),
            f1 @ np.sin(freqs.omega1 * cycle.t1),
            f2 @ np.cos(freqs.omega2 * cycle.t2),
            f2 @ np.sin(freqs.omega2 * cycle.t2),
        ]
        tol = 1e-12 * float(np.abs(cycle.centered).sum())
        sums = segment_terms(cycle, 0, freqs.omega1)[7:] + segment_terms(cycle, 1, freqs.omega2)[7:]
        np.testing.assert_allclose(sums, direct, rtol=0, atol=tol)

    @PROPERTY
    @given(cycles(), units1, units2)
    def test_match_direct_sums(self, cycle, u1, u2):
        self.assert_matches_direct_sums(
            cycle, FreqPair.from_dimensionless(u1, u2, cycle.T0, cycle.T)
        )

    @pytest.mark.parametrize("n, m", [(3, 3), (16, 15), (17, 40), (40, 7), (181, 320), (330, 181)])
    def test_segments_that_do_not_fill_the_block(self, n, m):
        # systole fills k = 0..n-1 and diastole k = 1..m of an A x B block with at
        # least max(n, m + 1) slots: (16, 15) fills it exactly, the others pad
        plans = SampledCycle(np.zeros(n + m), dt=DT, n=n, m=m).segment_plans
        height, width = plans[0].block.shape
        assert plans[1].block.shape == (height, width)
        assert plans[0].height == plans[1].height == height
        assert plans[0].exponents.size == height + width
        assert height * width >= max(n, m + 1)
        rng = np.random.default_rng(n * 1000 + m)
        cycle = SampledCycle(rng.normal(100.0, 10.0, n + m), dt=DT, n=n, m=m)
        for u1, u2 in [(0.5, 0.5), (1.23, 2.47), (1.5, 3.0)]:
            self.assert_matches_direct_sums(
                cycle, FreqPair.from_dimensionless(u1, u2, cycle.T0, cycle.T)
            )


_UNIT_STEP_CYCLE = SampledCycle(np.zeros(181 + 320), dt=1.0, n=181, m=320)
#: Segments with k = 0..180, 1..320 and 1..3 at dt = 1, so theta is omega exactly.
UNIT_STEP_SEGMENTS = [
    (_UNIT_STEP_CYCLE, 0),
    (_UNIT_STEP_CYCLE, 1),
    (SampledCycle(np.zeros(3 + 3), dt=1.0, n=3, m=3), 1),
]


class TestTrigSums:
    """The closed-form sums the moment kernel builds its Gram matrix from."""

    @pytest.mark.parametrize(
        "theta", [1e-4, 0.03, 1.0, math.pi, 2 * math.pi, 2 * math.pi + 1e-11, 5.0]
    )
    def test_match_direct_sums(self, theta):
        # theta = pi, 2*pi put sin(theta/2) or sin(theta) at 0: the guarded limit
        for cycle, segment in UNIT_STEP_SEGMENTS:
            plan = cycle.segment_plans[segment]
            k = np.arange(plan.first, plan.first + plan.count)
            c, s = np.cos(k * theta), np.sin(k * theta)
            direct = [c.sum(), s.sum(), c @ c, c @ s, s @ s]
            sums = segment_terms(cycle, segment, theta)[2:7]
            np.testing.assert_allclose(sums, direct, rtol=0, atol=1e-9)


class TestObjectiveGradient:
    """The moment gradient of P against a dense complex-step oracle and differences of P."""

    @PROPERTY
    @given(cycles(), units1, units2)
    def test_slopes_keep_the_segment_terms(self, cycle, u1, u2):
        freqs = FreqPair.from_dimensionless(u1, u2, cycle.T0, cycle.T)
        for segment, omega in enumerate((freqs.omega1, freqs.omega2)):
            terms, slopes = segment_slopes(cycle, segment, omega)
            assert terms == segment_terms(cycle, segment, omega)
            assert len(slopes) == 9

    @PROPERTY
    @given(cycles(), units1, units2)
    def test_matches_complex_step_oracle(self, cycle, u1, u2):
        freqs = general_freqs(cycle, u1, u2)
        try:
            sol = solve_inner(freqs, cycle)
        except GramConditioningError:
            assume(False)
        assume(sol.gram_condition < 1e8)  # tiny cycles can alias into near-rank loss
        # |dP/domega| is at most about 2 * centered energy * T
        scale = cycle.centered_energy * cycle.T
        want = complex_step_gradient(freqs, cycle)
        for got, expected in zip(objective_gradient(freqs, cycle), want):
            assert got == pytest.approx(expected, rel=1e-7, abs=1e-10 * scale)

    @PROPERTY
    @given(cycles(), units1, units2)
    def test_matches_central_differences_of_objective_p(self, cycle, u1, u2):
        freqs = general_freqs(cycle, u1, u2)
        assume(objective_p(freqs, cycle) != math.inf)
        h = 1e-5  # dimensionless
        spans = (cycle.T0, cycle.T - cycle.T0)
        got = objective_gradient(freqs, cycle)
        for axis, (slope, span) in enumerate(zip(got, spans)):
            up, down = [u1, u2], [u1, u2]
            up[axis] += h
            down[axis] -= h
            p_up = objective_p(FreqPair.from_dimensionless(*up, cycle.T0, cycle.T), cycle)
            p_down = objective_p(FreqPair.from_dimensionless(*down, cycle.T0, cycle.T), cycle)
            assume(math.isfinite(p_up) and math.isfinite(p_down))
            difference = (p_up - p_down) / (2.0 * h)
            assert slope * math.pi / span == pytest.approx(
                difference, rel=1e-4, abs=1e-5 * cycle.centered_energy
            )

    def test_lattice_gives_nan(self):
        cycle, _ = make_cycle(1.2, 2.6, noise_sigma=1.0, seed=4)
        slopes = objective_gradient(at(1.0, 3.0), cycle)
        assert all(math.isnan(value) for value in slopes)

    @pytest.mark.parametrize(
        "theta", [1e-4, 0.03, 1.0, math.pi, 2 * math.pi, 2 * math.pi + 1e-11, 5.0]
    )
    def test_trig_sum_slopes_match_direct_sums(self, theta):
        # the derivative of each closed-form sum, through the guarded limits too
        for cycle, segment in UNIT_STEP_SEGMENTS:
            plan = cycle.segment_plans[segment]
            k = np.arange(plan.first, plan.first + plan.count)
            c1, s1 = np.cos(k * theta), np.sin(k * theta)
            c2, s2 = np.cos(2 * k * theta), np.sin(2 * k * theta)
            direct = [-(k @ s1), k @ c1, -(k @ s2), k @ c2, k @ s2]
            scale = float(k @ k)
            slopes = segment_slopes(cycle, segment, theta)[1][2:7]
            np.testing.assert_allclose(slopes, direct, rtol=0, atol=1e-11 * scale)


@st.composite
def spd_matrices(draw) -> tuple[float, ...]:
    """Upper triangle of a random SPD 3x3 matrix with condition 1 to 1e14.

    The middle eigenvalue keeps ``lambda_2 * lambda_3 >= 1e-14 * lambda_1^2``,
    so the determinant stays above the rounding of its products.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_condition = draw(st.floats(0.0, 14.0))
    log_middle = draw(st.floats(0.0, min(log_condition, 14.0 - log_condition)))
    scale = 10.0 ** draw(st.floats(-3.0, 6.0))
    eigenvalues = scale * 10.0 ** -np.array([0.0, log_middle, log_condition])
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    matrix = rotation @ np.diag(eigenvalues) @ rotation.T
    return tuple(float(x) for x in matrix[np.triu_indices(3)])


class TestConditionCheck:
    """The reference trace-bound check decides exactly as the closed-form estimate.

    The kernel's inline copies of the check are pinned to this reference, bit
    for bit, by TestFlatKernel.
    """

    @PROPERTY
    @given(spd_matrices())
    def test_passes_exactly_when_the_estimate_is_within_the_limit(self, gram):
        exact = condition_estimate(gram)
        adj, det = adjugate(gram)
        bound = (gram[0] + gram[3] + gram[5]) * (adj[0] + adj[3] + adj[5]) / det
        assert bound >= exact
        limits = [exact * (1 - 1e-9), exact, exact * (1 + 1e-9)]
        limits += [bound * (1 - 1e-12), bound * (1 + 1e-12), CONDITION_LIMIT]
        for cond_max in limits:
            assert within_condition(gram, adj, det, cond_max) == (exact <= cond_max)

    def test_singular_and_indefinite_matrices_defer_to_the_estimate(self):
        # det <= 0, or det > 0 with two negative eigenvalues (the estimate reads 1
        # there): the trace bound says nothing, so the estimate decides
        singular = (1.0, 1.0, 0.0, 1.0, 0.0, 1.0)
        for gram in [singular, (3.0, 0.0, 0.0, -1.0, 0.0, -1.0), (0.1, 0.0, 0.0, -1.0, 0.0, -1.0)]:
            adj, det = adjugate(gram)
            for cond_max in [0.5, 1.0, 1e12]:
                expected = condition_estimate(gram) <= cond_max
                assert within_condition(gram, adj, det, cond_max) == expected


class TestConditionEstimate:
    """The closed-form Gram condition estimate that replaced the SVD in objective_p."""

    @pytest.mark.parametrize("distance", [0.3, 0.02, 1e-3, 1e-4])
    def test_matches_svd_on_explicit_gram(self, distance):
        cycle, _ = make_cycle(1.2, 2.6, noise_sigma=2.0, seed=9)
        for angle in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            freqs = at(1.0 + distance * math.cos(angle), 1.0 + distance * math.sin(angle))
            basis = build_basis(freqs, cycle)
            assert basis.case is Case.GENERAL
            columns = np.stack([basis.v1, basis.v2, np.ones(cycle.samples.size)], axis=1)
            gram = columns.T @ columns
            estimate = condition_estimate(tuple(gram[np.triu_indices(3)]))
            assert estimate == pytest.approx(np.linalg.cond(gram), rel=1e-6)

    @pytest.mark.parametrize("distance", [0.3, 0.02, 1e-3, 1e-4])
    def test_sentinel_threshold_matches_solve_inner(self, distance, monkeypatch):
        # objective_p turns to +inf just where solve_inner's condition passes CONDITION_LIMIT
        cycle, _ = make_cycle(1.2, 2.6, noise_sigma=2.0, seed=9)
        freqs = at(1.0 - distance * 0.6, 3.0 + distance * 0.8)
        condition = solve_inner(freqs, cycle).gram_condition
        monkeypatch.setattr(objective, "CONDITION_LIMIT", condition * (1 + 1e-6))
        assert math.isfinite(objective_p(freqs, cycle))
        monkeypatch.setattr(objective, "CONDITION_LIMIT", condition * (1 - 1e-6))
        assert objective_p(freqs, cycle) == math.inf

    def test_singular_and_scalar_matrices(self):
        assert condition_estimate((1.0, 1.0, 0.0, 1.0, 0.0, 1.0)) == math.inf
        assert condition_estimate((2.0, 0.0, 0.0, 2.0, 0.0, 2.0)) == pytest.approx(1.0)

    def test_tube_difference_bounded(self):
        # inside node tubes the moment objective may drift from the explicit one
        # by ~eps * condition of the centered energy; bound it at distance 1e-4
        for seed, noise in enumerate([0.0, 0.1, 2.0]):
            cycle, _ = make_cycle(1.2, 2.6, noise_sigma=noise, seed=seed)
            energy = cycle.centered_energy
            for node in [(1.0, 1.0), (1.0, 3.0)]:
                for angle in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
                    freqs = at(node[0] + 1e-4 * math.cos(angle), node[1] + 1e-4 * math.sin(angle))
                    p_ref = solve_inner(freqs, cycle).objective_value
                    assert abs(objective_p(freqs, cycle) - p_ref) <= 1e-6 * energy


def lattice_offset(gap: float) -> float:
    """Distance from a node at which ``|1 - cos1*cos2|`` is ``gap``, to leading order."""
    return math.sqrt(2.0 * gap) / math.pi


@st.composite
def kernel_points(draw) -> tuple[SampledCycle, float, float]:
    """A cycle of random n, m and dt, and a frequency pair for the flat-kernel pin.

    The pair is generic, or has theta = omega*dt within 1e-9 of a multiple of
    pi on one or both segments (the Dirichlet limit branch), or lies next to a
    lattice node, where ``|1 - cos1*cos2|`` is 1e-14 to 1e-6: on either side
    of EPSILON_DEGENERATE.
    """
    n, m = draw(st.integers(3, 400)), draw(st.integers(3, 400))
    dt = draw(st.floats(1e-3, 1e-2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pbar = draw(st.sampled_from([0.0, 100.0]))
    cycle = SampledCycle(pbar + rng.normal(0.0, 10.0, n + m), dt=dt, n=n, m=m)
    spans = (cycle.T0, cycle.T - cycle.T0)
    kind = draw(st.sampled_from(["generic", "pi multiple", "lattice"]))
    if kind == "lattice":
        node = draw(st.sampled_from([(1, 1), (1, 3), (2, 2), (3, 1)]))
        offset = lattice_offset(10.0 ** draw(st.floats(-14.0, -6.0)))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        units = (node[0] + offset * math.cos(angle), node[1] + offset * math.sin(angle))
    else:
        units = (draw(units1), draw(units2))
    omegas = [u * math.pi / span for u, span in zip(units, spans)]
    if kind == "pi multiple":
        for segment in draw(st.sampled_from([(0,), (1,), (0, 1)])):
            turns = draw(st.integers(1, 8)) * math.pi
            omegas[segment] = (turns + draw(st.floats(-1e-9, 1e-9))) / dt
    return cycle, omegas[0], omegas[1]


def assert_same_bits(got, want) -> None:
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


def assert_kernel_matches_reference(cycle: SampledCycle, omega1: float, omega2: float) -> bool:
    """The flat kernel equals the helper-based reference in tests/oracles.py, bit for bit.

    P and the gradient are compared under CONDITION_LIMIT and, off the
    lattice, under a limit between the closed-form condition estimate and the
    trace bound (the bound fails, the estimate passes) and one just below the
    estimate. Returns whether that middle limit was tried.
    """
    terms, slopes = [], []
    for segment, omega in enumerate((omega1, omega2)):
        got = segment_terms(cycle, segment, omega)
        assert_same_bits(got, oracles.segment_terms(cycle, segment, omega))
        got_terms, got_slopes = segment_slopes(cycle, segment, omega)
        want_terms, want_slopes = oracles.segment_slopes(cycle, segment, omega)
        assert_same_bits(got_terms + got_slopes, want_terms + want_slopes)
        terms.append(got)
        slopes.append(got_slopes)
    limits = [CONDITION_LIMIT]
    if not oracles.on_lattice(terms[0][0], terms[1][0]):
        gram, adj, det, _, _ = oracles.general_system(*terms, cycle)
        estimate = oracles.condition(gram, adj, det)
        bound = (gram[0] + gram[3] + gram[5]) * (adj[0] + adj[3] + adj[5]) / det
        if 0.0 < estimate < bound < math.inf:
            limits += [math.sqrt(estimate * bound), estimate * (1 - 1e-9)]
    for limit in limits:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(objective, "CONDITION_LIMIT", limit)
            assert_same_bits(
                [objective_from_terms(cycle, *terms, omega1, omega2)],
                [oracles.objective_from_terms(cycle, *terms, omega1, omega2)],
            )
            assert_same_bits(
                gradient_from_terms(cycle, *terms, *slopes),
                oracles.gradient_from_terms(cycle, *terms, *slopes),
            )
    return len(limits) > 1


class TestFlatKernel:
    """The flat kernel functions equal their helper-based reference bit for bit.

    segment_terms, segment_slopes, objective_from_terms and gradient_from_terms
    are straight-line arithmetic; tests/oracles.py composes the same operations,
    in the same order, from small helpers.
    """

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(kernel_points())
    def test_matches_the_helper_reference(self, point):
        assert_kernel_matches_reference(*point)

    def test_each_branch_is_reached(self):
        # the branches the random draws may miss: both Dirichlet limits, the
        # lattice test on either side of EPSILON_DEGENERATE, and a limit the
        # trace bound fails but the estimate passes
        n, m, dt = 181, 320, DT
        cycle = SampledCycle(np.random.default_rng(7).normal(100.0, 10.0, n + m), dt=dt, n=n, m=m)
        spans = (cycle.T0, cycle.T - cycle.T0)
        for theta in [2.0 * math.pi, 2.0 * math.pi + 1e-10, 3.0 * math.pi - 1e-10]:
            assert abs(math.sin(theta)) < 1e-9
            assert_kernel_matches_reference(cycle, theta / dt, 2.1 * math.pi / spans[1])
            assert_kernel_matches_reference(cycle, 0.9 * math.pi / spans[0], theta / dt)
        for gap in [1e-14, 0.9 * EPSILON_DEGENERATE, 1.1 * EPSILON_DEGENERATE, 1e-6]:
            u1, u2 = 1.0 + lattice_offset(gap), 1.0
            omega1, omega2 = u1 * math.pi / spans[0], u2 * math.pi / spans[1]
            on_lattice = classify(FreqPair(omega1, omega2), cycle.T0, cycle.T).degenerate
            assert on_lattice == (gap < EPSILON_DEGENERATE)
            assert assert_kernel_matches_reference(cycle, omega1, omega2) is not on_lattice


@st.composite
def term_axes(draw) -> tuple[SampledCycle, list[float], list[float]]:
    """A cycle of random n, m and dt, and the omega1 and omega2 axes of a small grid.

    Each dimensionless coordinate is generic, an exact integer, or an integer
    plus a lattice offset of 1e-14 to 1e-2, so the grid holds points on a
    lattice node (the lattice solve), next to one (the trace bound fails, and
    the closed-form estimate decides) and away from every node.
    """
    n, m = draw(st.integers(3, 400)), draw(st.integers(3, 400))
    dt = draw(st.floats(1e-3, 1e-2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pbar = draw(st.sampled_from([0.0, 100.0]))
    cycle = SampledCycle(pbar + rng.normal(0.0, 10.0, n + m), dt=dt, n=n, m=m)

    def coordinates(generic):
        near = st.tuples(
            st.integers(1, 3), st.floats(-14.0, -2.0), st.sampled_from([-1.0, 1.0])
        ).map(lambda x: x[0] + x[2] * lattice_offset(10.0 ** x[1]))
        return st.lists(
            st.one_of(generic, st.integers(1, 3).map(float), near), min_size=1, max_size=6
        )

    spans = (cycle.T0, cycle.T - cycle.T0)
    return (
        cycle,
        [u * math.pi / spans[0] for u in draw(coordinates(units1))],
        [u * math.pi / spans[1] for u in draw(coordinates(units2))],
    )


def assert_array_combine_matches(
    cycle: SampledCycle, omega1: list[float], omega2: list[float]
) -> set[str]:
    """objective_from_term_arrays equals objective_from_terms bit for bit at every element.

    The terms are broadcast as rows by columns. The arrays are compared under
    CONDITION_LIMIT and, where some general element's closed-form estimate
    lies below its trace bound, under a limit between the two for the element
    with the largest such estimate (the bound fails, the estimate passes) and
    one just below that estimate (+inf). Returns which of "lattice",
    "estimate", "inf" and "clamp" (a residual below 0, read as 0) were reached.
    """
    rows = [segment_terms(cycle, 0, w) for w in omega1]
    columns = [segment_terms(cycle, 1, w) for w in omega2]
    reached, candidates = set(), []
    for i, s in enumerate(rows):
        for j, d in enumerate(columns):
            if oracles.on_lattice(s[0], d[0]):
                reached.add("lattice")
                continue
            gram, adj, det, _, _ = oracles.general_system(s, d, cycle)
            estimate = oracles.condition(gram, adj, det)
            bound = (gram[0] + gram[3] + gram[5]) * (adj[0] + adj[3] + adj[5]) / det
            if 0.0 < estimate < bound < math.inf:
                candidates.append((estimate, bound, (i, j)))
    limits = [(CONDITION_LIMIT, None)]
    if candidates:
        estimate, bound, index = max(candidates)
        limits += [(math.sqrt(estimate * bound), index), (estimate * (1 - 1e-9), index)]
    for k, (limit, index) in enumerate(limits):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(objective, "CONDITION_LIMIT", limit)
            got = objective_from_term_arrays(
                cycle, np.array(rows).T[:, :, None], np.array(columns).T,
                np.array(omega1)[:, None], np.array(omega2),
            )
            want = [
                [objective_from_terms(cycle, s, d, w1, w2) for d, w2 in zip(columns, omega2)]
                for s, w1 in zip(rows, omega1)
            ]
        assert got.shape == (len(rows), len(columns))
        assert [[x.hex() for x in row] for row in got.tolist()] == [
            [x.hex() for x in row] for row in want
        ]
        if k == 0 and (got == 0.0).any():
            reached.add("clamp")
        if index is not None:
            if k == 1 and math.isfinite(got[index]):
                reached.add("estimate")
            if k == 2 and got[index] == math.inf:
                reached.add("inf")
    return reached


class TestArrayCombine:
    """The grid's array combine equals the scalar P bit for bit at every element."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(term_axes())
    def test_matches_the_scalar_objective(self, axes):
        assert_array_combine_matches(*axes)

    def test_each_branch_is_reached(self):
        # a noiseless cycle: at its own frequencies the residual rounds below 0
        cycle, params = make_cycle(1.3, 2.2)
        u1 = [0.73, 1.0, 1.0 + lattice_offset(1e-6), 1.0 + lattice_offset(1e-9)]
        u2 = [1.0, 1.0 + lattice_offset(1e-7), 2.42]
        reached = assert_array_combine_matches(
            cycle,
            [u * math.pi / T0 for u in u1] + [params.omega1],
            [u * math.pi / (T - T0) for u in u2] + [params.omega2],
        )
        assert reached == {"lattice", "estimate", "inf", "clamp"}


@st.composite
def omega_arrays(draw) -> tuple[SampledCycle, list[tuple[str, float]]]:
    """A cycle of random n, m and dt, and 0 to 8 tagged dimensionless frequencies.

    n and m are drawn independently (n = m = 3 among them), so most segments
    leave zeros in their phase-sum block. Each frequency is ``("units", u)``,
    generic or an exact lattice node ``u`` in units of pi over the segment's
    span, or ``("theta", x)``: ``theta = omega*dt`` itself, a multiple of pi
    within 1e-9, where ``sin(theta)`` is 0 to rounding and, at even multiples,
    ``sin(theta/2)`` too.
    """
    n = draw(st.one_of(st.just(3), st.integers(3, 400)))
    m = draw(st.one_of(st.just(3), st.integers(3, 400)))
    dt = draw(st.floats(1e-3, 1e-2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cycle = SampledCycle(100.0 + rng.normal(0.0, 10.0, n + m), dt=dt, n=n, m=m)
    element = st.one_of(
        st.tuples(st.just("units"), st.floats(0.05, 4.0)),
        st.tuples(st.just("units"), st.integers(1, 4).map(float)),
        st.tuples(st.just("theta"), st.tuples(st.integers(1, 8), st.floats(-1e-9, 1e-9)).map(
            lambda x: x[0] * math.pi + x[1]
        )),
    )
    return cycle, draw(st.lists(element, max_size=8))


def assert_term_arrays_match(cycle: SampledCycle, tagged: list[tuple[str, float]]) -> set[str]:
    """segment_term_arrays equals segment_terms bit for bit, per element, on both segments.

    Returns which of the Dirichlet limits were reached: "half" (``sin(theta/2)``
    is 0 to rounding) and "full" (``sin(theta)`` is).
    """
    reached = set()
    for segment, span in enumerate((cycle.T0, cycle.T - cycle.T0)):
        omega = [u * math.pi / span if kind == "units" else u / cycle.dt for kind, u in tagged]
        got = segment_term_arrays(cycle, segment, np.array(omega, dtype=float))
        assert got.shape == (9, len(omega))
        for k, w in enumerate(omega):
            assert_same_bits(got[:, k], segment_terms(cycle, segment, w))
            theta = w * cycle.dt
            if abs(math.sin(0.5 * theta)) < 1e-9:
                reached.add("half")
            if abs(math.sin(theta)) < 1e-9:
                reached.add("full")
    return reached


class TestArrayTerms:
    """The grid's batched segment terms equal the scalar segment_terms at every element."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(omega_arrays())
    def test_matches_the_scalar_terms(self, case):
        assert_term_arrays_match(*case)

    def test_each_branch_is_reached(self):
        n, m = 181, 320
        cycle = SampledCycle(np.random.default_rng(7).normal(100.0, 10.0, n + m), dt=DT, n=n, m=m)
        tagged = [("units", 0.9), ("units", 1.0), ("units", 2.0), ("theta", 2.0 * math.pi),
                  ("theta", 3.0 * math.pi - 1e-10), ("theta", 4.0 * math.pi + 1e-10)]
        assert assert_term_arrays_match(cycle, tagged) == {"half", "full"}

    @pytest.mark.parametrize("n, m", [(3, 3), (181, 320)])
    @pytest.mark.parametrize("size", [0, 1])
    def test_empty_and_single_arrays(self, n, m, size):
        cycle = SampledCycle(np.random.default_rng(3).normal(100.0, 10.0, n + m), dt=DT, n=n, m=m)
        assert assert_term_arrays_match(cycle, [("units", 1.3)] * size) == set()
