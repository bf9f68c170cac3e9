"""The batched solver: every start of `solve_starts` equals its solo solve."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_compiled import EVALUATION_ERRORS, SETTINGS, assignments, networks
from wardrop import fixtures as nets
from wardrop import equilibrium
from wardrop.compiled import NormalizationError, compile_network
from wardrop.costs import Affine, CostDomainError, NonMonotoneAffine
from wardrop.equilibrium import (
    DEDUP_TOLERANCE,
    Assignment,
    EquilibriumReport,
    MultistartParams,
    SolveParams,
    SolveResult,
    _start_points,
    compositions,
    solve_fixed_point,
    solve_multistart,
    solve_starts,
    uniform_assignment,
    verify,
)
from wardrop.netcore import Junction, Network, PopulationSpec, Road, RouteSpec

FIXTURES = [
    "nonmonotone_pair",
    "delay_spillover",
    "congestion_corridor",
    "braess_base",
    "braess_augmented",
    "merge_base",
    "merge_linked",
]


def solo(net: Network, starts, params: SolveParams) -> list[SolveResult]:
    return [solve_fixed_point(net, start, params) for start in starts]


def reference_solve(net: Network, theta0: Assignment, params: SolveParams) -> SolveResult:
    """The damped iteration of one start as a plain loop, as `solve_fixed_point`
    ran it before starts were batched."""
    core = compile_network(net)
    x = core.pack(theta0)
    residual = best_residual = math.inf
    best = x
    trajectory = []
    for iterations in range(1, params.max_iters + 1):
        image = core.map_step(x, core.times(x))
        residual = float(np.abs(x - image).max())
        if residual < best_residual:
            best_residual, best = residual, x
        if iterations % 100 == 1:
            trajectory.append(residual)
        if residual < params.residual_tol:
            x = image
            break
        x = (1 - params.omega) * x + params.omega * image
    converged = residual < params.residual_tol
    if converged:
        best, best_residual = x, residual
    trajectory.append(best_residual)
    final = Assignment.make(core.unpack(best), tolerance=1e-9)
    return SolveResult(final, iterations, best_residual, converged,
                       verify(net, final, tol=params.verify_tol), tuple(trajectory))


@pytest.mark.parametrize("name", FIXTURES)
def test_every_start_equals_its_solo_solve(name):
    # 5000 iterations: merge_base converges from every start, the Braess
    # networks from some, merge_linked from none
    net = getattr(nets, name)()
    params = SolveParams(max_iters=5000, allow_nonmonotone=name == "nonmonotone_pair")
    starts = _start_points(net, MultistartParams(random_starts=1, solve=params))
    assert solve_starts(net, starts, params) == solo(net, starts, params)


@pytest.mark.parametrize("name", FIXTURES)
def test_solo_and_batched_solves_equal_the_reference_loop(name):
    # 1000 iterations: most starts stop unconverged, on their best iterate,
    # with ten trajectory entries; three congestion_corridor starts converge
    net = getattr(nets, name)()
    params = SolveParams(max_iters=1000, allow_nonmonotone=name == "nonmonotone_pair")
    starts = _start_points(net, MultistartParams(random_starts=1, solve=params))
    reference = [reference_solve(net, start, params) for start in starts]
    assert solve_starts(net, starts, params) == reference
    assert solve_fixed_point(net, starts[-1], params) == reference[-1]
    assert solve_fixed_point(net, None, params) == reference_solve(net, uniform_assignment(net), params)


def test_a_mixed_batch_stops_each_start_on_its_own(corridor_net):
    params = SolveParams(max_iters=600)
    starts = _start_points(corridor_net, MultistartParams(solve=params))
    results = solve_starts(corridor_net, starts, params)
    assert results == solo(corridor_net, starts, params)
    assert {r.converged for r in results} == {True, False}
    assert {r.iterations for r in results if not r.converged} == {600}
    assert all(r.iterations < 600 for r in results if r.converged)


def test_empty_and_one_start_batches(merge_net):
    assert solve_starts(merge_net, []) == []
    start = Assignment.make([[0.25, 0.75], [0.5, 0.5]])
    assert solve_starts(merge_net, [start]) == [solve_fixed_point(merge_net, start)]


@SETTINGS
@given(st.data())
def test_batches_of_drawn_networks_equal_solo_solves(data):
    net = data.draw(networks())
    starts = [data.draw(assignments(net)) for _ in range(data.draw(st.integers(1, 4)))]
    params = SolveParams(
        max_iters=data.draw(st.integers(1, 300)),
        residual_tol=data.draw(st.sampled_from([1e-12, 1e-6, 1e-3])),
        allow_nonmonotone=True,
    )
    errors = set()
    for start in starts:
        try:
            solve_fixed_point(net, start, params)
        except (*EVALUATION_ERRORS, NormalizationError) as exc:
            errors.add(type(exc))
    if errors:  # a batch raises the error of whichever start fails first
        with pytest.raises(tuple(errors)):
            solve_starts(net, starts, params)
    else:
        assert solve_starts(net, starts, params) == solo(net, starts, params)


def _crossed_pair() -> Network:
    """Population a's second road gets cheaper as b fills it, and its cost
    turns negative once b's share there passes 0.8; b alone settles at an
    even split."""
    roads = (Road("r1", "o", "d"), Road("r2", "o", "d"))
    routes = (RouteSpec(("r1",)), RouteSpec(("r2",)))
    a = PopulationSpec("a", "o", "d", routes, {
        "r1": Affine(1.0, {"a": 1.0}), "r2": NonMonotoneAffine(2.0, {"b": -2.5}),
    })
    b = PopulationSpec("b", "o", "d", routes, {
        "r1": Affine(1.0, {"b": 1.0}), "r2": Affine(1.0, {"b": 1.0}),
    })
    return Network((Junction("o"), Junction("d")), roads, (a, b))


def test_a_start_with_a_negative_cost_fails_the_batch():
    net = _crossed_pair()
    params = SolveParams(allow_nonmonotone=True)
    safe = Assignment.make([[0.5, 0.5], [0.5, 0.5]])
    negative = Assignment.make([[0.5, 0.5], [0.0, 1.0]])
    assert solve_fixed_point(net, safe, params).converged
    with pytest.raises(CostDomainError):
        solve_fixed_point(net, negative, params)
    for starts in ([safe, negative], [negative, safe], [safe, safe, negative]):
        with pytest.raises(CostDomainError):
            solve_starts(net, starts, params)


def sequential_multistart(net: Network, params: MultistartParams) -> list[SolveResult]:
    """`solve_multistart` as it was before it batched its starts: one solve
    per start, then the same sort and deduplication."""
    results = [solve_fixed_point(net, start, params.solve) for start in _start_points(net, params)]
    return sequential_multistart_of(results)


def sequential_multistart_of(results: list[SolveResult]) -> list[SolveResult]:
    successes = [r for r in results if r.success]
    successes.sort(key=lambda r: r.assignment.shares)
    distinct: list[SolveResult] = []
    for result in successes:
        duplicate = False
        for kept in distinct:
            gap = max(
                abs(a - b)
                for va, vb in zip(result.assignment.shares, kept.assignment.shares)
                for a, b in zip(va, vb)
            )
            if gap < DEDUP_TOLERANCE:
                duplicate = True
                if result.residual < kept.residual:
                    distinct[distinct.index(kept)] = result
                break
        if not duplicate:
            distinct.append(result)
    return distinct


def _fake_result(shares, residual: float) -> SolveResult:
    report = EquilibriumReport(True, True, True, (), 0.0, 0.0, 0.0, 0.5)
    return SolveResult(Assignment.make(shares), 1, residual, True, report)


def test_multistart_keeps_the_best_residual_of_each_duplicate_group(merge_net, monkeypatch):
    a = _fake_result([[0.0, 1.0], [0.5, 0.5]], 3e-13)
    b = _fake_result([[0.5, 0.5], [0.5, 0.5]], 2e-13)
    b_better = _fake_result([[0.5 + 1e-9, 0.5 - 1e-9], [0.5, 0.5]], 1e-13)
    a_worse = _fake_result([[1e-9, 1.0 - 1e-9], [0.5, 0.5]], 4e-13)
    results = [b_better, a_worse, b, a]
    monkeypatch.setattr(equilibrium, "solve_starts", lambda net, starts, params: results)
    params = MultistartParams(random_starts=0)
    assert solve_multistart(merge_net, params) == [a, b_better]
    assert sequential_multistart_of(results) == [a, b_better]


@pytest.mark.parametrize("name", ["nonmonotone_pair", "delay_spillover", "merge_base"])
def test_multistart_equals_the_sequential_driver(name):
    net = getattr(nets, name)()
    params = MultistartParams(
        random_starts=2, solve=SolveParams(allow_nonmonotone=name == "nonmonotone_pair")
    )
    assert solve_multistart(net, params) == sequential_multistart(net, params)


@pytest.mark.parametrize("name", sorted(nets.BUILDERS))
def test_start_points_are_the_vertices_the_barycenter_then_random_points(name):
    net = nets.BUILDERS[name]()
    params = MultistartParams(random_starts=3, seed=5)
    vertices = [(compositions(len(pop.routes), 1) / 1).tolist() for pop in net.populations]
    expected = [Assignment.make(combo) for combo in itertools.product(*vertices)]
    expected.append(uniform_assignment(net))
    rng = np.random.default_rng(params.seed)
    for _ in range(params.random_starts):
        vecs = [rng.dirichlet(np.ones(len(pop.routes))) for pop in net.populations]
        expected.append(Assignment.make([v / v.sum() for v in vecs], tolerance=1e-9))
    assert _start_points(net, params) == expected
