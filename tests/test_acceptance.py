"""Acceptance suite: every contract-level criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Expected values are frozen from independent oracles
(bisection on equilibrium conditions, closed forms checked by hand, grid
enumeration, eigenvalue checks, finite differences); none are produced by
the code paths they test.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

from wardrop import fixtures as nets
from wardrop.analysis import (
    SegmentMatrices,
    brute_force_equilibria,
    check_defpos,
    check_pair_orthogonality,
    compare_scenarios,
    segment_matrices,
)
from wardrop.compiled import compile_network
from wardrop.costs import eval_cost, eval_partial
from wardrop.equilibrium import (
    Assignment,
    SolveParams,
    fixed_point_map,
    fixed_point_residual,
    is_eps_nash,
    is_equilibrium,
    is_nash,
    solve_fixed_point,
    solve_starts,
    uniform_assignment,
    verify,
    vertex_assignment,
)

from wardrop.netcore import build_incidence

from conftest import nested_times, random_monotone_expr, random_cost_network


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def _max_gap(theta: Assignment, expected) -> float:
    return max(
        abs(a - b) for va, vb in zip(theta.shares, expected) for a, b in zip(va, vb)
    )


# -- criterion 1: base two-population network ------------------------------

def test_criterion_1_base_network_and_oracle():
    with criterion("1 (base network: even split, times 7/2, single oracle cluster)"):
        net = nets.delay_spillover()
        for start in (None, vertex_assignment(net, (0, 0))):
            result = solve_fixed_point(net, start)
            assert result.success
            assert _max_gap(result.assignment, ((0.5, 0.5), (0.5, 0.5))) < 1e-8
        eng = compile_network(net)
        times = nested_times(eng, result.assignment.shares)
        for pop_times in times:
            for t in pop_times:
                assert abs(t - 3.5) < 1e-8
        oracle = brute_force_equilibria(net, 400)
        assert len(oracle.equilibria) == 1
        assert _max_gap(oracle.equilibria[0][0], ((0.5, 0.5), (0.5, 0.5))) <= 1 / 400


# -- criterion 2: delay family ---------------------------------------------

@pytest.mark.parametrize("delta", [0.25, 0.5, 1.0])
def test_criterion_2_delay_family(delta):
    with criterion(f"2 (delay {delta}: closed-form shares and times)"):
        net = nets.delay_spillover(delta)
        result = solve_fixed_point(net)
        assert result.success
        expected = (
            (0.5 + 3 * delta / 8, 0.5 - 3 * delta / 8),
            (0.5 - delta / 8, 0.5 + delta / 8),
        )
        assert _max_gap(result.assignment, expected) < 1e-8
        times = [t.finite for t in result.verified.common_times]
        assert abs(times[0] - (3.5 + 5 * delta / 8)) < 1e-8
        assert abs(times[1] - (3.5 + delta / 8)) < 1e-8


# -- criterion 3: unbounded costs ------------------------------------------

def _corridor_equilibrium_oracle(delta: float) -> tuple[float, float]:
    """Bisection on the interior equilibrium conditions of the corridor
    network: returns (first population's central share x, its companion
    x - delta).  Fully independent of the solver and of any closed form."""

    def gap(x: float) -> float:
        s = 2 * x - delta
        return s / (1 - s) - (1 - x + delta)

    lo, hi = delta / 2 + 1e-12, (1 + delta) / 2 - 1e-9
    assert gap(lo) < 0 < gap(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return x, x - delta


@pytest.mark.parametrize("delta", [0.0, 0.25])
def test_criterion_3_unbounded_costs(delta):
    with criterion(f"3 (unbounded costs, delay {delta}: closed form, finite times)"):
        x, y = _corridor_equilibrium_oracle(delta)
        root = math.sqrt(delta**2 + 6 * delta + 17)
        closed_form = ((5 + 3 * delta - root) / 4, (5 - delta - root) / 4)
        assert abs(x - closed_form[0]) < 1e-12
        assert abs(y - closed_form[1]) < 1e-12
        if delta == 0.0:
            # the published closed form, verbatim, coincides at delta = 0
            assert abs(x - (5 - math.sqrt(17)) / 4) < 1e-12
        net = nets.congestion_corridor(delta)
        result = solve_fixed_point(net)
        assert result.success
        expected = ((x, 1 - x), (y, 1 - y))
        assert _max_gap(result.assignment, expected) < 1e-7
        theta = result.assignment
        assert theta.shares[0][0] + theta.shares[1][0] < 1.0  # finite times
        common = (7 + delta + root) / 4
        for t in result.verified.common_times:
            assert abs(t.finite - common) < 1e-7


# -- criterion 4: paradox for both populations ------------------------------

def test_criterion_4_shortcut_worsens_everyone():
    with criterion("4 (shortcut: 65/44 -> 80/56, both populations flagged)"):
        base = nets.braess_base()
        result = solve_fixed_point(base)
        assert result.success
        times = [t.finite for t in result.verified.common_times]
        assert abs(times[0] - 65.0) < 1e-6
        assert abs(times[1] - 44.0) < 1e-6

        augmented = nets.braess_augmented()
        vertex = Assignment.make([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        report = verify(augmented, vertex)
        assert report.is_nash
        assert abs(report.common_times[0].finite - 80.0) < 1e-6
        assert abs(report.common_times[1].finite - 56.0) < 1e-6
        solved = solve_fixed_point(augmented)
        assert solved.success
        assert _max_gap(solved.assignment, ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))) < 1e-6

        comparison = compare_scenarios(base, augmented)
        assert comparison.paradox == (True, True)


# -- criterion 5: paradox induced on the other population --------------------

def test_criterion_5_connector_hurts_the_other_population():
    with criterion("5 (connector: times (4, 35/13) -> (4, 3), second population flagged)"):
        linked = nets.merge_linked()
        result = solve_fixed_point(linked)
        assert result.success
        assert _max_gap(result.assignment, ((1 / 15, 2 / 3, 4 / 15), (2 / 3, 1 / 3))) < 1e-8
        times = [t.finite for t in result.verified.common_times]
        assert abs(times[0] - 4.0) < 1e-8
        assert abs(times[1] - 3.0) < 1e-8

        base = nets.merge_base()
        base_result = solve_fixed_point(base)
        assert base_result.success
        expected = ((3 / 13, 10 / 13), (6 / 13, 7 / 13))
        assert _max_gap(base_result.assignment, expected) < 1e-6
        base_times = [t.finite for t in base_result.verified.common_times]
        assert abs(base_times[0] - 4.0) < 1e-6
        assert abs(base_times[1] - 35 / 13) < 1e-6
        oracle = brute_force_equilibria(base, 1000)
        assert len(oracle.equilibria) == 1
        assert _max_gap(oracle.equilibria[0][0], expected) <= 2 / 1000

        comparison = compare_scenarios(base, linked)
        flags = dict(zip(comparison.population_names, comparison.paradox))
        assert flags == {"west": False, "east": True}


# -- criterion 6: equilibrium / Nash / eps-Nash separation -------------------

def test_criterion_6_pathological_separation():
    with criterion("6 (pathological: vertices split the equilibrium notions)"):
        net = nets.nonmonotone_pair()
        for k in (0, 1):
            vertex = vertex_assignment(net, (k,))
            assert is_equilibrium(net, vertex).holds
            assert not is_nash(net, vertex).holds
        split = Assignment.make([[0.5, 0.5]])
        assert is_nash(net, split).holds
        for eps in (0.1, 0.01, 0.001):
            assert not is_eps_nash(net, split, eps=eps).holds


# -- criterion 7: randomized property suites --------------------------------

def test_criterion_7a_incidence_quadratic_inequality():
    with criterion("7a (1000 cases: diagonal form favors its own route)"):
        rng = np.random.default_rng(100)
        for _ in range(1000):
            n_roads = int(rng.integers(1, 9))
            n_routes = int(rng.integers(1, 6))
            gamma = (rng.random((n_roads, n_routes)) < rng.uniform(0.2, 0.8)).astype(float)
            form = gamma.T @ np.diag(rng.uniform(0, 5, n_roads)) @ gamma
            for j in range(n_routes):
                assert (form[j, j] + 1e-12 >= form[j, :]).all()


def test_criterion_7b_map_stays_on_simplices():
    with criterion("7b (1000 cases: the equilibrium map lands on the simplices)"):
        rng = np.random.default_rng(101)
        for k in range(1000):
            net = random_cost_network(rng) if k % 4 else nets.congestion_corridor()
            theta = Assignment.make(
                [rng.dirichlet(np.ones(len(p.routes))) for p in net.populations],
                tolerance=1e-9,
            )
            image = fixed_point_map(net, theta)
            for vec in image.shares:
                assert all(x >= 0 for x in vec)
                assert abs(sum(vec) - 1.0) <= 1e-12


EXACT_EQUILIBRIA = []


def _exact_equilibria():
    if EXACT_EQUILIBRIA:
        return EXACT_EQUILIBRIA
    root = math.sqrt(17.0)
    x = (5 - root) / 4
    EXACT_EQUILIBRIA.extend([
        (nets.delay_spillover(), ((0.5, 0.5), (0.5, 0.5))),
        (nets.delay_spillover(0.25), ((19 / 32, 13 / 32), (15 / 32, 17 / 32))),
        (nets.delay_spillover(1.0), ((7 / 8, 1 / 8), (3 / 8, 5 / 8))),
        (nets.congestion_corridor(), ((x, 1 - x), (x, 1 - x))),
        (nets.braess_base(), ((0.5, 0.5), (0.5, 0.5))),
        (nets.braess_augmented(), ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))),
        (nets.merge_base(), ((3 / 13, 10 / 13), (6 / 13, 7 / 13))),
        (nets.merge_linked(), ((1 / 15, 2 / 3, 4 / 15), (2 / 3, 1 / 3))),
    ])
    return EXACT_EQUILIBRIA


def test_criterion_7c_nash_points_are_fixed_points():
    with criterion("7c (closed-form Nash points: map residual < 1e-9)"):
        for net, point in _exact_equilibria():
            theta = Assignment.make([list(v) for v in point])
            assert is_nash(net, theta, tol=1e-10).holds
            assert fixed_point_residual(net, theta) < 1e-9


def test_criterion_7d_segment_reconstruction_identity():
    with criterion("7d (1000 cases: averaged-derivative reconstruction <= 1e-8)"):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            net = random_cost_network(rng)
            eng = compile_network(net)
            a = Assignment.make([rng.dirichlet(np.ones(2)) for _ in range(2)], tolerance=1e-9)
            b = Assignment.make([rng.dirichlet(np.ones(2)) for _ in range(2)], tolerance=1e-9)
            sm = segment_matrices(net, a, b)
            g0, g1 = (build_incidence(net, p).entries.astype(float) for p in range(2))
            d0 = np.subtract(b.shares[0], a.shares[0])
            d1 = np.subtract(b.shares[1], a.shares[1])
            for p, (own, cross, gp, gq) in enumerate(
                [(sm.own[0], sm.cross[0], g0, g1), (sm.own[1], sm.cross[1], g1, g0)]
            ):
                lhs = np.array(nested_times(eng, b.shares)[p]) - np.array(
                    nested_times(eng, a.shares)[p]
                )
                dp, dq = (d0, d1) if p == 0 else (d1, d0)
                rhs = gp.T @ np.diag(own) @ gp @ dp + gp.T @ np.diag(cross) @ gq @ dq
                assert np.abs(lhs - rhs).max() < 1e-8


def test_criterion_7e_block_classification_matches_eigenvalues():
    with criterion("7e (10000 cases: PSD classifier == eigenvalue sign)"):
        rng = np.random.default_rng(103)
        theta = Assignment.make([[1.0]])
        for _ in range(10_000):
            vals = rng.uniform(0, 3, 4)
            vals[rng.random(4) < 0.4] = 0.0
            q0, q1, p0, p1 = vals
            sm = SegmentMatrices(
                own=(np.array([q0]), np.array([q1])),
                cross=(np.array([p0]), np.array([p1])),
                endpoints=(theta, theta),
                quadrature_nodes=16,
            )
            classified_ok = check_defpos(sm).ok
            block = np.array([[q0, (p0 + p1) / 2], [(p0 + p1) / 2, q1]])
            eig_ok = bool(np.linalg.eigvalsh(block).min() >= -1e-9)
            assert classified_ok == eig_ok, (q0, q1, p0, p1)


def _start_points(net, rng, random_starts=4):
    counts = [len(p.routes) for p in net.populations]
    starts = [
        vertex_assignment(net, combo)
        for combo in itertools.product(*(range(n) for n in counts))
    ]
    starts.append(uniform_assignment(net))
    for _ in range(random_starts):
        starts.append(
            Assignment.make(
                [rng.dirichlet(np.ones(n)) for n in counts], tolerance=1e-9
            )
        )
    return starts


def test_criterion_7f_all_multistart_pairs_satisfy_the_orthogonality_identity():
    with criterion("7f (multistart pairs on every fixture: residuals < 1e-6)"):
        rng = np.random.default_rng(104)
        total_pairs = 0
        for name, builder in nets.BUILDERS.items():
            net = builder()
            params = SolveParams(allow_nonmonotone=(name == "nonmonotone_pair"))
            results = solve_starts(net, _start_points(net, rng), params)
            found = [result.assignment for result in results if result.success]
            assert found, name
            for a, b in itertools.combinations(found, 2):
                residuals = check_pair_orthogonality(net, a, b)
                total_pairs += 1
                assert max(abs(r) for r in residuals) < 1e-6, name
        assert total_pairs > 50


def test_criterion_7g_shift_and_segment_monotonicity():
    with criterion("7g (mass shifts and segment scans are monotone on fixtures)"):
        rng = np.random.default_rng(105)
        eps = 1e-3
        fixture_nets = [
            nets.delay_spillover(), nets.congestion_corridor(),
            nets.braess_base(), nets.braess_augmented(),
            nets.merge_base(), nets.merge_linked(),
        ]
        for net in fixture_nets:
            eng = compile_network(net)
            for _ in range(25):
                theta = Assignment.make(
                    [rng.dirichlet(np.ones(n)) for n in eng.route_counts],
                    tolerance=1e-9,
                )
                times = nested_times(eng, theta.shares)
                for p in range(eng.pop_count):
                    vec = list(theta.shares[p])
                    n = len(vec)
                    for i, j in itertools.permutations(range(n), 2):
                        if vec[i] < eps:
                            continue
                        shifted = list(vec)
                        shifted[i] -= eps
                        shifted[j] += eps
                        after = nested_times(eng, theta.shares, p, shifted)[p]
                        if math.isfinite(times[p][i]):
                            # giving up mass never slows the abandoned route
                            assert after[i] <= times[p][i] + 1e-12
                        # and never speeds up the route that receives it
                        assert after[j] >= times[p][j] - 1e-12
                    # pushing a route's share toward 1 weakly slows it
                    for j in range(n):
                        grid = np.linspace(0.0, 1.0, 21)
                        previous = -math.inf
                        for sigma in grid:
                            stretched = [
                                sigma * (1.0 if k == j else 0.0) + (1 - sigma) * vec[k]
                                for k in range(n)
                            ]
                            value = nested_times(eng, theta.shares, p, stretched)[p][j]
                            assert value >= previous - 1e-12
                            previous = value


# -- criterion 8: cost engine ------------------------------------------------

def test_criterion_8a_partials_match_finite_differences():
    with criterion("8a (1000 cases: analytic partials vs central differences)"):
        rng = np.random.default_rng(106)
        names = ["first", "second"]
        step = 1e-6
        checked = 0
        while checked < 1000:
            expr = random_monotone_expr(rng, names)
            point = {n: float(rng.uniform(0.05, 0.95)) for n in names}
            target = names[int(rng.integers(2))]
            value = eval_cost(expr, point)
            if value.is_infinite:
                continue
            analytic = eval_partial(expr, point, target)
            up = dict(point, **{target: point[target] + step})
            down = dict(point, **{target: point[target] - step})
            numeric = (eval_cost(expr, up).finite - eval_cost(expr, down).finite) / (2 * step)
            assert abs(analytic - numeric) <= max(1e-6, 1e-6 * abs(analytic)), expr
            checked += 1


def test_criterion_8b_monotone_forms_are_weakly_increasing():
    with criterion("8b (1000 random monotone costs: weakly increasing)"):
        rng = np.random.default_rng(107)
        names = ["first", "second"]
        for _ in range(1000):
            expr = random_monotone_expr(rng, names)
            lower = {n: float(rng.uniform(0, 1)) for n in names}
            upper = {n: float(rng.uniform(lower[n], 1)) for n in names}
            a, b = eval_cost(expr, lower), eval_cost(expr, upper)
            assert a <= b or (a.is_infinite and b.is_infinite)
