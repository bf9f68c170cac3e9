"""Route times, the three predicates, the fixed-point map, and the solver."""

from __future__ import annotations

import math

import numpy as np
import pytest

from wardrop import equilibrium
from wardrop import fixtures as nets
from wardrop.compiled import compile_network
from wardrop.costs import Constant, ExtReal
from wardrop.equilibrium import (
    Assignment,
    DimensionMismatchError,
    MultistartParams,
    NonMonotoneCostError,
    PreconditionError,
    SolveParams,
    check_conditional_optimality,
    compress_time,
    default_eps,
    fixed_point_map,
    fixed_point_residual,
    is_eps_nash,
    is_equilibrium,
    is_nash,
    mean_times,
    nonmonotone_cost,
    route_times,
    simplex_grid,
    solve_fixed_point,
    solve_multistart,
    verify,
    vertex_assignment,
)
from wardrop.netcore import Junction, Network, PopulationSpec, Road, RouteSpec

HALF = Assignment.make([[0.5, 0.5], [0.5, 0.5]])


def single_route_net() -> Network:
    return Network(
        junctions=(Junction("a"), Junction("b")),
        roads=(Road("r1", "a", "b"),),
        populations=(
            PopulationSpec("only", "a", "b", (RouteSpec(("r1",)),), {"r1": Constant(2.0)}),
        ),
    )


def constant_pair_net() -> Network:
    """Two parallel constant-cost roads; the cheap vertex is conditionally
    minimal and Nash."""
    return Network(
        junctions=(Junction("a"), Junction("b")),
        roads=(Road("r1", "a", "b"), Road("r2", "a", "b")),
        populations=(
            PopulationSpec(
                "only", "a", "b",
                (RouteSpec(("r1",)), RouteSpec(("r2",))),
                {"r1": Constant(1.0), "r2": Constant(2.0)},
            ),
        ),
    )


class TestAssignment:
    def test_normalizes_once(self):
        theta = Assignment.make([[0.5 + 4e-13, 0.5 - 1e-13]])
        assert sum(theta.shares[0]) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Assignment.make([[0.6, 0.5]])

    def test_clamps_tiny_negative(self):
        theta = Assignment.make([[1.0 + 5e-13, -5e-13]])
        assert theta.shares[0][1] == 0.0

    def test_rejects_genuinely_negative(self):
        with pytest.raises(ValueError):
            Assignment.make([[1.1, -0.1]])


class TestRouteTimes:
    def test_delay_half_half_all_seven_halves(self, delay_net):
        rt = route_times(delay_net, HALF)
        for pop_times in rt.times:
            for t in pop_times:
                assert t.finite == pytest.approx(3.5)
        assert [m.finite for m in rt.means] == [pytest.approx(3.5)] * 2

    def test_corridor_blowup_when_central_routes_saturate(self, corridor_net):
        theta = Assignment.make([[0.5, 0.5], [0.5, 0.5]])
        rt = route_times(corridor_net, theta)
        assert rt.times[0][0].is_infinite  # both central shares sum to 1
        assert rt.times[1][0].is_infinite
        assert rt.times[0][1].finite == pytest.approx(2.5)

    def test_single_route_mean_equals_route_time(self):
        net = single_route_net()
        rt = route_times(net, Assignment.make([[1.0]]))
        assert rt.means[0].finite == rt.times[0][0].finite == 2.0

    def test_dimension_mismatch(self, delay_net):
        with pytest.raises(DimensionMismatchError):
            route_times(delay_net, Assignment.make([[1.0]]))
        with pytest.raises(DimensionMismatchError):
            route_times(delay_net, Assignment.make([[0.5, 0.5], [0.3, 0.3, 0.4]]))


class TestMeanTimes:
    def test_braess_base_half(self, braess_net):
        rt = route_times(braess_net, HALF)
        means = mean_times(HALF, rt.times)
        assert means[0].finite == pytest.approx(65.0)
        assert means[1].finite == pytest.approx(44.0)

    def test_vertex_picks_single_time(self, delay_net):
        theta = vertex_assignment(delay_net, (1, 0))
        rt = route_times(delay_net, theta)
        means = mean_times(theta, rt.times)
        assert means[0].finite == rt.times[0][1].finite
        assert means[1].finite == rt.times[1][0].finite

    def test_zero_share_infinite_time_contributes_nothing(self, corridor_net):
        # central routes saturated by the other population: the unused route
        # has infinite time but must not poison the mean
        theta = Assignment.make([[0.0, 1.0], [1.0, 0.0]])
        rt = route_times(corridor_net, theta)
        assert rt.times[0][0].is_infinite
        assert rt.means[0].finite == pytest.approx(3.0)  # 2 + share on bypass


class TestPredicates:
    def test_pathological_vertices_are_equilibria(self, pathological_net):
        for k in (0, 1):
            theta = vertex_assignment(pathological_net, (k,))
            assert is_equilibrium(pathological_net, theta).holds

    def test_pathological_vertices_not_nash(self, pathological_net):
        # the empty route is faster than the mean at both vertices
        first = vertex_assignment(pathological_net, (0,))
        rt = route_times(pathological_net, first)
        assert rt.times[0][0].finite == pytest.approx(4.0)
        assert rt.times[0][1].finite == pytest.approx(3.0)
        assert rt.means[0].finite == pytest.approx(4.0)
        assert not is_nash(pathological_net, first).holds
        assert not is_nash(pathological_net, vertex_assignment(pathological_net, (1,))).holds

    def test_pathological_split_nash_not_eps(self, pathological_net):
        theta = Assignment.make([[0.5, 0.5]])
        assert is_nash(pathological_net, theta).holds
        assert not is_eps_nash(pathological_net, theta, eps=0.1).holds

    def test_delay_half_is_eps_nash(self, delay_net):
        assert is_equilibrium(delay_net, HALF).holds
        assert is_nash(delay_net, HALF).holds
        assert is_eps_nash(delay_net, HALF, eps=0.1).holds

    def test_delay_vertex_with_balanced_lower_not_equilibrium(self, delay_net):
        # upper at its vertex pushes the shared road to flow 1, so the lower
        # population's route times split to 4 vs 3.5
        theta = Assignment.make([[1.0, 0.0], [0.5, 0.5]])
        rt = route_times(delay_net, theta)
        assert rt.times[1][0].finite == pytest.approx(4.0)
        assert rt.times[1][1].finite == pytest.approx(3.5)
        assert not is_equilibrium(delay_net, theta).holds

    def test_delay_perturbed_lower_not_equilibrium(self, delay_net):
        theta = Assignment.make([[0.5, 0.5], [0.6, 0.4]])
        assert not is_equilibrium(delay_net, theta).holds

    def test_braess_augmented_vertex_is_nash(self, braess5_net):
        theta = Assignment.make([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        rt = route_times(braess5_net, theta)
        assert [t.finite for t in rt.times[0]] == [pytest.approx(85.0)] * 2 + [pytest.approx(80.0)]
        assert [t.finite for t in rt.times[1]] == [pytest.approx(58.0)] * 2 + [pytest.approx(56.0)]
        assert is_nash(braess5_net, theta).holds
        assert is_eps_nash(braess5_net, theta, eps=0.1).holds

    def test_eps_ladder_strict_mode(self, delay_net, pathological_net):
        assert is_eps_nash(delay_net, HALF, eps=0.1, ladder=True).holds
        split = Assignment.make([[0.5, 0.5]])
        assert not is_eps_nash(pathological_net, split, eps=0.1, ladder=True).holds

    def test_default_eps_is_half_min_positive_share(self):
        theta = Assignment.make([[0.25, 0.75], [0.1, 0.9]])
        assert default_eps(theta) == pytest.approx(0.05)

    def test_verify_report_nesting(self, pathological_net):
        report = verify(pathological_net, vertex_assignment(pathological_net, (0,)))
        assert report.is_equilibrium and not report.is_nash and not report.is_eps_nash
        report = verify(pathological_net, Assignment.make([[0.5, 0.5]]))
        assert report.is_equilibrium and report.is_nash and not report.is_eps_nash


@pytest.fixture(scope="module")
def corridor_solution(corridor_net):
    return solve_fixed_point(corridor_net).assignment.shares


class TestEvaluationMemo:
    """The last evaluation is reused only for the same share values."""

    @pytest.mark.parametrize(
        "query",
        [is_equilibrium, is_nash, lambda net, theta: is_eps_nash(net, theta, eps=1e-3), route_times],
        ids=["is_equilibrium", "is_nash", "is_eps_nash", "route_times"],
    )
    def test_shares_changed_in_place_are_evaluated_afresh(self, corridor_net, corridor_solution, query):
        shares = [[0.9, 0.1], [0.9, 0.1]]
        before = query(corridor_net, shares)
        for vec, solved in zip(shares, corridor_solution):
            vec[:] = solved
        after = query(corridor_net, shares)
        fresh = query(corridor_net, [list(vec) for vec in shares])
        assert fresh != before
        assert after == fresh

    def test_verify_evaluates_route_times_once(self):
        net = nets.congestion_corridor()
        core = compile_network(net)
        shapes = []
        times = core.times
        core.times = lambda x: shapes.append(x.shape) or times(x)
        verify(net, Assignment.make([[0.9, 0.1], [0.9, 0.1]]))
        # the eps-shifts evaluate as one batch, of three dimensions
        assert shapes.count((core.pop_count, core.width)) == 1


class TestOneEvaluation:
    """Every query evaluates its assignment afresh and keeps nothing."""

    def test_queries_leave_the_compiled_network_as_built(self):
        net = nets.congestion_corridor()
        core = compile_network(net)
        before = dict(vars(core))
        theta = Assignment.make([[0.9, 0.1], [0.9, 0.1]])
        for query in (is_equilibrium, is_nash, is_eps_nash, verify, route_times):
            query(net, theta)
        solve_fixed_point(net, theta, SolveParams(max_iters=200))
        after = vars(core)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())

    def test_verify_calls_no_public_predicate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify called a public predicate")

        for name in ("is_equilibrium", "is_nash", "is_eps_nash"):
            monkeypatch.setattr(equilibrium, name, refuse)
        net = nets.congestion_corridor()
        core = compile_network(net)
        shapes = []
        times = core.times
        monkeypatch.setattr(core, "times", lambda x: shapes.append(x.shape) or times(x))
        verify(net, Assignment.make([[0.9, 0.1], [0.9, 0.1]]))
        assert shapes[0] == (core.pop_count, core.width)
        assert all(len(shape) == 3 for shape in shapes[1:])


class TestCompressTime:
    def test_endpoints(self):
        assert compress_time(0.0) == 0.0
        assert compress_time(ExtReal.infinity()) == 1.0
        assert compress_time(1.0) == 0.5

    def test_monotone_and_bounded(self):
        xs = np.linspace(0, 50, 101)
        ys = [compress_time(float(x)) for x in xs]
        assert all(0 <= y < 1 for y in ys)
        assert all(a < b for a, b in zip(ys, ys[1:]))


class TestFixedPointMap:
    def test_nash_point_is_fixed(self, delay_net):
        assert fixed_point_residual(delay_net, HALF) < 1e-12

    def test_single_route_population_maps_to_one(self):
        net = single_route_net()
        theta = Assignment.make([[1.0]])
        assert fixed_point_map(net, theta).shares == ((1.0,),)

    def test_vertex_image_matches_hand_evaluation(self, delay_net):
        # at the all-central vertex the times are (5, 3) for both
        # populations; squashing gives (5/6, 3/4), step 1/4, and the
        # clip-and-rescale lands on (48/49, 1/49)
        theta = vertex_assignment(delay_net, (0, 0))
        image = fixed_point_map(delay_net, theta)
        for vec in image.shares:
            assert vec[0] == pytest.approx(48 / 49, abs=1e-15)
            assert vec[1] == pytest.approx(1 / 49, abs=1e-15)

    def test_equilibrium_but_not_nash_vertex_moves(self, pathological_net):
        theta = vertex_assignment(pathological_net, (0,))
        assert fixed_point_residual(pathological_net, theta) > 1e-3


class TestSolver:
    def test_delay_base_from_uniform(self, delay_net):
        result = solve_fixed_point(delay_net)
        assert result.success
        assert result.residual < 1e-10
        for vec in result.assignment.shares:
            assert vec[0] == pytest.approx(0.5, abs=1e-8)

    def test_delay_with_unit_delay(self):
        from wardrop.fixtures import delay_spillover

        net = delay_spillover(1.0)
        result = solve_fixed_point(net)
        assert result.success
        assert result.assignment.shares[0][0] == pytest.approx(7 / 8, abs=1e-8)
        assert result.assignment.shares[1][0] == pytest.approx(3 / 8, abs=1e-8)
        times = [t.finite for t in result.verified.common_times]
        assert times[0] == pytest.approx(33 / 8, abs=1e-8)
        assert times[1] == pytest.approx(29 / 8, abs=1e-8)

    def test_corridor_closed_form(self, corridor_net):
        result = solve_fixed_point(corridor_net)
        assert result.success
        root = math.sqrt(17.0)
        assert result.assignment.shares[0][0] == pytest.approx((5 - root) / 4, abs=1e-7)
        assert result.assignment.shares[1][0] == pytest.approx((5 - root) / 4, abs=1e-7)
        for t in result.verified.common_times:
            assert t.finite == pytest.approx((7 + root) / 4, abs=1e-7)

    def test_nonmonotone_refused_without_override(self, pathological_net):
        with pytest.raises(NonMonotoneCostError):
            solve_fixed_point(pathological_net)

    def test_nonmonotone_override_finds_split(self, pathological_net):
        result = solve_fixed_point(
            pathological_net, params=SolveParams(allow_nonmonotone=True)
        )
        assert result.converged
        assert result.assignment.shares[0][0] == pytest.approx(0.5, abs=1e-9)

    def test_non_convergence_flagged_not_raised(self, braess_net):
        result = solve_fixed_point(
            braess_net,
            vertex_assignment(braess_net, (0, 0)),
            SolveParams(max_iters=5),
        )
        assert not result.converged
        assert not result.success
        assert result.trajectory  # residual history is recorded

    def test_trajectory_residuals_shrink(self, merge_net):
        result = solve_fixed_point(merge_net)
        assert result.trajectory[-1] <= result.trajectory[0]


class TestMultistart:
    def test_delay_single_equilibrium(self, delay_net):
        results = solve_multistart(delay_net, MultistartParams(random_starts=2))
        assert len(results) == 1
        for vec in results[0].assignment.shares:
            assert vec[0] == pytest.approx(0.5, abs=1e-8)

    def test_braess_augmented_every_start_reaches_the_shortcut(self, braess5_net):
        # run each corner start explicitly: all converge to the same vertex
        for i in range(3):
            for j in range(3):
                result = solve_fixed_point(braess5_net, vertex_assignment(braess5_net, (i, j)))
                assert result.success, (i, j)
                assert result.assignment.shares[0][2] == pytest.approx(1.0, abs=1e-7)
                assert result.assignment.shares[1][2] == pytest.approx(1.0, abs=1e-7)

    def test_merge_base_matches_exact_rationals(self, merge_net):
        results = solve_multistart(merge_net, MultistartParams(random_starts=2))
        assert len(results) == 1
        theta = results[0].assignment
        assert theta.shares[0][0] == pytest.approx(3 / 13, abs=1e-8)
        assert theta.shares[1][0] == pytest.approx(6 / 13, abs=1e-8)


class TestConditionalOptimality:
    def test_cheap_vertex_is_conditionally_minimal_and_nash(self):
        net = constant_pair_net()
        theta = Assignment.make([[1.0, 0.0]])
        result = check_conditional_optimality(net, theta, resolution=1000)
        assert result.holds
        assert is_nash(net, theta).holds

    def test_delay_equilibrium_is_not_conditionally_minimal(self, delay_net):
        # the user equilibrium mean time (3.5) exceeds the conditional
        # minimum (3x^2 - 2.5x + 4 at x = 5/12, i.e. 3.479...), so the
        # sufficient condition fails even though the point is Nash
        result = check_conditional_optimality(delay_net, HALF, resolution=10001)
        assert not result.holds
        name, at_theta, grid_min, attained = result.per_population[0]
        assert at_theta == pytest.approx(3.5, abs=1e-9)
        assert grid_min == pytest.approx(3 * (5 / 12) ** 2 - 2.5 * (5 / 12) + 4, abs=1e-6)
        assert not attained

    def test_braess_augmented_vertex_reported_not_minimal(self, braess5_net):
        theta = Assignment.make([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        result = check_conditional_optimality(braess5_net, theta, resolution=100)
        assert not result.holds  # Nash yet far from the conditional optimum

    def test_requires_equilibrium(self, delay_net):
        with pytest.raises(PreconditionError):
            check_conditional_optimality(delay_net, Assignment.make([[0.9, 0.1], [0.5, 0.5]]))


def test_simplex_grid_counts_and_membership():
    points = list(simplex_grid(3, 4))
    assert len(points) == math.comb(4 + 2, 2)
    for p in points:
        assert sum(p) == pytest.approx(1.0)
        assert all(x >= 0 for x in p)
    assert list(simplex_grid(1, 10)) == [(1.0,)]


def _recursive_simplex_grid(n, resolution):
    """The recursive enumeration that stars and bars replaced."""
    if n == 1:
        yield (1.0,)
        return

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first, *rest)

    for combo in compositions(resolution, n):
        yield tuple(c / resolution for c in combo)


@pytest.mark.parametrize("n", range(1, 6))
def test_simplex_grid_equals_the_recursive_enumeration(n):
    for resolution in range(1, 13):
        assert list(simplex_grid(n, resolution)) == list(_recursive_simplex_grid(n, resolution))


@pytest.mark.parametrize("resolution", [0, -1])
def test_simplex_grid_refuses_a_resolution_below_one(resolution):
    with pytest.raises(ValueError, match="resolution"):
        simplex_grid(2, resolution)


@pytest.mark.parametrize("max_iters", [0, -1, True, 1.5, 100.0])
def test_solve_params_refuse_a_bad_iteration_budget(max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        SolveParams(max_iters=max_iters)


def test_one_iteration_is_a_valid_budget(braess_net):
    assert solve_fixed_point(braess_net, vertex_assignment(braess_net, (0, 0)),
                             SolveParams(max_iters=1)).iterations == 1


@pytest.mark.parametrize("field, value", [
    ("grid_depth", 0),
    ("grid_depth", -1),
    ("grid_depth", 1.5),
    ("grid_depth", True),
    ("random_starts", -1),
    ("random_starts", 2.5),
    ("random_starts", True),
    ("dedup_tolerance", -1e-9),
    ("dedup_tolerance", math.inf),
    ("dedup_tolerance", math.nan),
])
def test_multistart_params_refuse_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        MultistartParams(**{field: value})


def test_multistart_params_allow_no_random_starts_and_no_dedup_gap(delay_net):
    params = MultistartParams(random_starts=0, dedup_tolerance=0.0)
    assert solve_multistart(delay_net, params)


def test_the_monotonicity_scan_names_the_first_offender(pathological_net, delay_net):
    assert nonmonotone_cost(pathological_net) == ("commuters", "r2")
    assert nonmonotone_cost(delay_net) is None


@pytest.mark.parametrize("omega", [0, 1.5, -0.5, math.nan])
def test_solve_params_refuse_a_damping_outside_the_unit_interval(omega):
    with pytest.raises(ValueError, match="damping"):
        SolveParams(omega=omega)


CORNER = Assignment.make([[1.0, 0.0], [1.0, 0.0]])  # not Nash on congestion_corridor


@pytest.mark.parametrize(
    "query, match",
    [
        pytest.param(lambda net: is_nash(net, CORNER, tol=math.nan), "tol", id="is_nash-tol-nan"),
        pytest.param(lambda net: is_nash(net, CORNER, tol=math.inf), "tol", id="is_nash-tol-inf"),
        pytest.param(lambda net: is_nash(net, CORNER, tol=0.0), "tol", id="is_nash-tol-0"),
        pytest.param(lambda net: verify(net, CORNER, tol=math.nan), "tol", id="verify-tol-nan"),
        pytest.param(lambda net: is_nash(net, CORNER, share_tol=math.nan), "share_tol",
                     id="is_nash-share_tol-nan"),
        pytest.param(lambda net: is_equilibrium(net, CORNER, share_tol=2.0), "share_tol",
                     id="is_equilibrium-share_tol-2"),
        pytest.param(lambda net: is_equilibrium(net, CORNER, share_tol=1.0), "share_tol",
                     id="is_equilibrium-share_tol-1"),
        pytest.param(lambda net: is_eps_nash(net, CORNER, share_tol=-1e-9), "share_tol",
                     id="is_eps_nash-share_tol-negative"),
        pytest.param(lambda net: is_eps_nash(net, CORNER, eps=math.inf), "eps must be positive",
                     id="is_eps_nash-eps-inf"),
        pytest.param(lambda net: verify(net, CORNER, eps=math.nan), "eps must be positive",
                     id="verify-eps-nan"),
        pytest.param(lambda net: verify(net, CORNER, eps=0.0), "eps must be positive",
                     id="verify-eps-0"),
    ],
)
def test_predicates_refuse_tolerances_that_would_certify_anything(query, match, corridor_net):
    assert not verify(corridor_net, CORNER).is_nash
    with pytest.raises(ValueError, match=match):
        query(corridor_net)


@pytest.mark.parametrize("query", [is_equilibrium, is_nash, is_eps_nash, verify])
def test_tolerances_are_checked_before_any_evaluation(query, corridor_net, monkeypatch):
    def evaluate(net, theta):
        raise AssertionError("evaluated")

    monkeypatch.setattr(equilibrium, "_evaluate", evaluate)
    with pytest.raises(ValueError, match="tol"):
        query(corridor_net, CORNER, tol=math.nan)


def test_a_zero_share_tolerance_is_accepted(corridor_net):
    assert not verify(corridor_net, CORNER, share_tol=0.0).is_nash


def test_multistart_params_refuse_a_negative_bool_or_fractional_seed():
    for seed in (-1, True, 1.5):
        with pytest.raises(ValueError, match="seed"):
            MultistartParams(seed=seed)
    MultistartParams(seed=0)
