"""Segment matrices, semidefiniteness, uniqueness sampling, oracle, comparison."""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wardrop import analysis, equilibrium
from wardrop import fixtures as nets
from wardrop.analysis import (
    GammaConditionError,
    HSampler,
    OracleBudgetError,
    SegmentMatrices,
    UniquenessReport,
    _CASES,
    _block_ranks,
    brute_force_equilibria,
    check_defpos,
    check_hypothesis_coupling,
    check_pair_orthogonality,
    check_uniqueness,
    compare_scenarios,
    gauss_legendre_unit,
    _cluster_hits,
    segment_matrices,
)
from wardrop.compiled import CompiledNetwork, compile_network
from wardrop.costs import (
    Affine,
    CongestionRational,
    Constant,
    CostDomainError,
    CostExpr,
    ExtRealGuardError,
    InfiniteCostError,
    MonomialTerm,
    NonMonotoneAffine,
    Polynomial,
    Scale,
    Sum,
)
from wardrop.equilibrium import (
    DEFAULT_SHARE_TOLERANCE,
    Assignment,
    MultistartParams,
    PreconditionError,
    SolveParams,
    compositions,
    solve_fixed_point,
    uniform_assignment,
    vertex_assignment,
)
from wardrop.netcore import Junction, Network, PopulationSpec, Road, RouteSpec, build_incidence

from conftest import (
    blocking_network,
    flat_network,
    layered,
    nested_times,
    parallel_network,
    random_cost_network,
)
from test_compiled import SETTINGS, networks


def incidence_arrays(net: Network) -> list[np.ndarray]:
    """Each population's incidence matrix as floats."""
    return [build_incidence(net, p).entries.astype(float) for p in range(len(net.populations))]


def block_case(q0: float, q1: float, p0: float, p1: float) -> str:
    """The case of the one block [[q0, p0], [p1, q1]], through the array classifier."""
    return _CASES[_block_ranks(*np.array([[q0], [q1], [p0], [p1]], dtype=float))[0]]


def _manual_matrices(own0, cross0, own1, cross1) -> SegmentMatrices:
    theta = Assignment.make([[1.0]])
    return SegmentMatrices(
        own=(np.asarray(own0, dtype=float), np.asarray(own1, dtype=float)),
        cross=(np.asarray(cross0, dtype=float), np.asarray(cross1, dtype=float)),
        endpoints=(theta, theta),
        quadrature_nodes=16,
    )


def test_gauss_legendre_integrates_polynomials_exactly():
    nodes, weights = gauss_legendre_unit(16)
    # degree-31 polynomial integrated exactly on [0, 1]
    coeffs = np.arange(1, 33, dtype=float)
    value = sum(w * sum(c * x**k for k, c in enumerate(coeffs)) for x, w in zip(nodes, weights))
    exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
    assert value == pytest.approx(exact, rel=1e-13)


def test_gauss_legendre_rule_is_computed_once_and_read_only():
    nodes, weights = gauss_legendre_unit(16)
    assert gauss_legendre_unit(16)[0] is nodes
    with pytest.raises(ValueError):
        nodes[0] = 0.5
    with pytest.raises(ValueError):
        weights[0] = 0.5


class TestSegmentMatrices:
    def test_affine_network_constant_entries(self, delay_net):
        a = Assignment.make([[0.2, 0.8], [0.9, 0.1]])
        b = Assignment.make([[0.7, 0.3], [0.4, 0.6]])
        sm = segment_matrices(delay_net, a, b)
        assert sm.own[0].tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]
        assert sm.own[1].tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
        assert sm.cross[0].tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert sm.cross[1].tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
        # affine derivatives are constant: any other segment gives the same
        sm2 = segment_matrices(delay_net, b, a)
        assert np.allclose(sm.own[0], sm2.own[0])

    def test_degenerate_segment_equals_point_derivatives(self, corridor_net):
        theta = Assignment.make([[0.2, 0.8], [0.2, 0.8]])
        sm = segment_matrices(corridor_net, theta, theta)
        # corridor load is 0.4, derivative 1/(1-0.4)^2
        expected = 1.0 / 0.6**2
        idx = corridor_net.road_index()["r5"]
        for matrix in (*sm.own, *sm.cross):
            assert matrix[idx] == pytest.approx(expected, rel=1e-12)

    def test_reconstruction_identity_on_corridor(self, corridor_net):
        # segment kept inside the finite region (central loads well below 1)
        a = Assignment.make([[0.2, 0.8], [0.1, 0.9]])
        b = Assignment.make([[0.35, 0.65], [0.3, 0.7]])
        sm = segment_matrices(corridor_net, a, b)
        eng = compile_network(corridor_net)
        g0, g1 = incidence_arrays(corridor_net)
        d0 = np.subtract(b.shares[0], a.shares[0])
        d1 = np.subtract(b.shares[1], a.shares[1])
        t0 = [np.array(nested_times(eng, x)[0]) for x in (a, b)]
        t1 = [np.array(nested_times(eng, x)[1]) for x in (a, b)]
        lhs0 = t0[1] - t0[0]
        rhs0 = g0.T @ np.diag(sm.own[0]) @ g0 @ d0 + g0.T @ np.diag(sm.cross[0]) @ g1 @ d1
        assert np.abs(lhs0 - rhs0).max() < 1e-8
        lhs1 = t1[1] - t1[0]
        rhs1 = g1.T @ np.diag(sm.cross[1]) @ g0 @ d0 + g1.T @ np.diag(sm.own[1]) @ g1 @ d1
        assert np.abs(lhs1 - rhs1).max() < 1e-8

    def test_one_population_variation_matches_direct_difference(self, corridor_net):
        # vary only the first population: the identity reduces to the
        # own-sensitivity term alone
        lower = [0.1, 0.9]
        a = Assignment.make([[0.2, 0.8], lower])
        b = Assignment.make([[0.5, 0.5], lower])
        sm = segment_matrices(corridor_net, a, b)
        eng = compile_network(corridor_net)
        g0 = incidence_arrays(corridor_net)[0]
        d0 = np.subtract(b.shares[0], a.shares[0])
        lhs = np.array(nested_times(eng, b)[0]) - np.array(nested_times(eng, a)[0])
        rhs = g0.T @ np.diag(sm.own[0]) @ g0 @ d0
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_infinite_segment_raises_naming_road(self, corridor_net):
        a = Assignment.make([[1.0, 0.0], [1.0, 0.0]])  # corridor load 2 >= 1
        b = Assignment.make([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(InfiniteCostError, match="r5"):
            segment_matrices(corridor_net, a, b)

    def test_costs_on_unused_roads_are_left_out(self, delay_net):
        # upper does not use r5; a cost there that blows up changes nothing
        from dataclasses import replace

        from wardrop.costs import CongestionRational

        upper = delay_net.populations[0]
        costs = dict(upper.costs, r5=CongestionRational({"lower": 1.0}, 0.01))
        tainted = replace(delay_net, populations=(replace(upper, costs=costs),
                                                  delay_net.populations[1]))
        a = Assignment.make([[0.2, 0.8], [0.9, 0.1]])
        b = Assignment.make([[0.7, 0.3], [0.4, 0.6]])
        sm, reference = segment_matrices(tainted, a, b), segment_matrices(delay_net, a, b)
        for got, expected in zip((*sm.own, *sm.cross), (*reference.own, *reference.cross)):
            assert got.tolist() == expected.tolist()

    def test_requires_two_populations(self, pathological_net):
        theta = Assignment.make([[0.5, 0.5]])
        with pytest.raises(PreconditionError):
            segment_matrices(pathological_net, theta, theta)

    def test_requires_monotone_costs(self, braess_net, pathological_net):
        # graft the non-monotone cost onto a two-population network
        from wardrop.netcore import Network, PopulationSpec

        pop = braess_net.populations[0]
        costs = dict(pop.costs)
        costs["r1"] = pathological_net.populations[0].costs["r2"]
        tainted = Network(
            braess_net.junctions,
            braess_net.roads,
            (PopulationSpec(pop.name, pop.origin, pop.destination, pop.routes, costs),
             braess_net.populations[1]),
        )
        theta = Assignment.make([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(PreconditionError, match="monotone"):
            segment_matrices(tainted, theta, theta)


class TestDefpos:
    def test_all_zero_is_admissible(self):
        sm = _manual_matrices([0, 0], [0, 0], [0, 0], [0, 0])
        result = check_defpos(sm)
        assert result.ok
        assert result.cases == ("all-zero", "all-zero")

    def test_boundary_discriminant_admissible(self):
        sm = _manual_matrices([1.0], [1.0], [1.0], [1.0])  # 4*1*1 == (1+1)^2
        result = check_defpos(sm)
        assert result.ok
        assert result.cases == ("coupled",)

    def test_pure_cross_coupling_is_violation(self):
        sm = _manual_matrices([0.0], [1.0], [0.0], [0.0])
        result = check_defpos(sm)
        assert not result.ok
        assert result.cases == ("violation",)
        # eigenvalue oracle on the symmetrized block [[0, 1/2], [1/2, 0]]
        eigs = np.linalg.eigvalsh(np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert eigs.min() < -1e-9

    def test_single_sided_cases(self):
        sm = _manual_matrices([2.0, 0.0], [0.0, 0.0], [0.0, 3.0], [0.0, 0.0])
        result = check_defpos(sm)
        assert result.ok
        assert result.cases == ("first-only", "second-only")

    def test_negative_entry_is_violation(self):
        result = check_defpos(_manual_matrices([-1.0], [0.0], [2.0], [0.0]))
        assert not result.ok
        assert result.cases == ("violation",)


# check_defpos's name for each uniqueness case code.
DEFPOS_NAMES = {
    "H0": "coupled",
    "H4": "coupled",
    "H1": "all-zero",
    "H2": "first-only",
    "H3": "second-only",
    "violation": "violation",
}


LISTED_BLOCKS = [
    (1e-6, 1e-6, 1.05e-6, 1.05e-6),  # smaller eigenvalue -5e-8: not PSD
    (1e-6, 1e-6, 1e-6, 1e-6),  # on the boundary, at any scale
    (1.0, 1.0, 1.0, 1.0),
    (1e6, 1e6, 1e6, 1e6 * (1 + 1e-12)),
    (2.0, 3.0, 0.5, 0.25),
    (1.0, 1.0, 1.0, 1.1),
    (0.0, 0.0, 0.0, 0.0),
    (2.0, 0.0, 0.0, 0.0),
    (0.0, 3.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
    (-1.0, 0.0, 2.0, 0.0),
    (1.0, 1.0, -1e-9, 0.0),
]


@pytest.mark.parametrize("block", LISTED_BLOCKS)
def test_defpos_cases_are_the_uniqueness_cases(block):
    q0, q1, p0, p1 = block
    result = check_defpos(_manual_matrices([q0], [p0], [q1], [p1]))
    assert result.cases == (DEFPOS_NAMES[block_case(q0, q1, p0, p1)],)


def test_small_indefinite_block_is_a_violation():
    q0, q1, p0, p1 = 1e-6, 1e-6, 1.05e-6, 1.05e-6
    sym = np.array([[q0, (p0 + p1) / 2], [(p0 + p1) / 2, q1]])
    assert np.linalg.eigvalsh(sym).min() < -4e-8
    assert block_case(q0, q1, p0, p1) == "violation"
    assert check_defpos(_manual_matrices([q0], [p0], [q1], [p1])).cases == ("violation",)


def random_blocks() -> np.ndarray:
    """2,000 blocks (q0, q1, p0, p1), 30% of the entries 0, at scales 1e-8 to 1e7."""
    rng = np.random.default_rng(7)
    blocks = rng.uniform(0.0, 3.0, (2000, 4))
    blocks[rng.random(blocks.shape) < 0.3] = 0.0
    blocks *= 10.0 ** rng.integers(-8, 8, (2000, 1))
    return blocks


def test_defpos_agrees_with_the_uniqueness_cases_at_every_scale():
    blocks = random_blocks()
    q0, q1, p0, p1 = blocks.T
    result = check_defpos(_manual_matrices(q0, p0, q1, p1))
    assert result.cases == tuple(DEFPOS_NAMES[block_case(*b)] for b in blocks.tolist())


def scalar_case(q0: float, q1: float, p0: float, p1: float) -> str:
    """The case of one block [[q0, p0], [p1, q1]], branch by branch."""
    zero = 1e-12
    if min(q0, q1, p0, p1) < -zero:
        return "violation"
    p_sum = p0 + p1
    if q0 > zero and q1 > zero:
        disc = 4 * q0 * q1 - p_sum**2
        slack = 1e-9 * max(4 * q0 * q1, p_sum**2)
        if disc > slack:
            return "H0"
        if disc >= -slack:
            return "H4"
        return "violation"
    if q0 <= zero and q1 <= zero and p_sum <= zero:
        return "H1"
    if q0 > zero and q1 <= zero and p_sum <= zero:
        return "H2"
    if q0 <= zero and q1 > zero and p_sum <= zero:
        return "H3"
    return "violation"


def test_block_classifier_equals_the_scalar_rule():
    blocks = np.concatenate([np.array(LISTED_BLOCKS), random_blocks()])
    expected = [scalar_case(*b) for b in blocks.tolist()]
    assert [block_case(*b) for b in blocks.tolist()] == expected
    q0, q1, p0, p1 = blocks.T
    cases = check_defpos(_manual_matrices(q0, p0, q1, p1)).cases
    assert cases == tuple(DEFPOS_NAMES[case] for case in expected)


SEVERITY = ["n/a", "H0", "H1", "H2", "H3", "H4", "violation"]


def loop_coupling(net: Network, sampler: HSampler) -> UniquenessReport:
    """check_hypothesis_coupling as a loop over the sampled pairs: one
    segment_matrices call per pair, pairs with an infinite cost skipped, and
    the scalar rule on each road both populations use."""
    counts = [len(pop.routes) for pop in net.populations]
    rng = np.random.default_rng(sampler.seed)
    corners = itertools.product(*(range(n) for n in counts))
    vertices = [vertex_assignment(net, combo) for combo in corners]
    pairs = [*itertools.combinations(vertices, 2)]
    pairs += [(uniform_assignment(net), v) for v in vertices]
    for _ in range(sampler.pairs):
        pairs.append(tuple(
            Assignment.make([rng.dirichlet(np.ones(n)) for n in counts], tolerance=1e-9)
            for _ in range(2)
        ))
    shared = set.intersection(*(pop.road_ids() for pop in net.populations))
    worst = {road.id: "n/a" for road in net.roads}
    worst_exceptional, satisfied, skipped = 0, True, 0
    for first, second in pairs:
        try:
            sm = segment_matrices(net, first, second, sampler.quadrature_nodes)
        except InfiniteCostError:
            skipped += 1
            continue
        exceptional = 0
        for h, road in enumerate(net.roads):
            if road.id in shared:
                case = scalar_case(sm.own[0][h], sm.own[1][h], sm.cross[0][h], sm.cross[1][h])
                worst[road.id] = max(worst[road.id], case, key=SEVERITY.index)
                exceptional += case != "H0"
                satisfied &= case != "violation"
        worst_exceptional = max(worst_exceptional, exceptional)
        satisfied &= exceptional <= 1
    evaluated = len(pairs) - skipped
    if evaluated == 0:
        verdict = "no finite sample pairs"
    else:
        verdict = "at-most-one (sampled)" if satisfied else "hypothesis fails (sampled)"
    return UniquenessReport(
        defpos_ok="violation" not in worst.values(),
        road_cases=tuple(worst.items()),
        exceptional_roads=worst_exceptional,
        hypothesis_satisfied=satisfied and evaluated > 0,
        pairs_sampled=evaluated,
        pairs_skipped_infinite=skipped,
        verdict=verdict,
    )


TWO_POPULATION_FIXTURES = sorted(set(nets.BUILDERS) - {"nonmonotone_pair"})


@pytest.mark.parametrize("name", TWO_POPULATION_FIXTURES)
def test_coupling_equals_a_loop_over_the_pairs_on_the_fixtures(name):
    net = nets.BUILDERS[name]()
    sampler = HSampler(pairs=100)
    report = check_hypothesis_coupling(net, sampler)
    assert report == loop_coupling(net, sampler)
    if name == "congestion_corridor":
        assert (report.pairs_sampled, report.pairs_skipped_infinite) == (23, 87)


def test_coupling_equals_a_loop_over_the_pairs_on_random_networks():
    rng = np.random.default_rng(17)
    for k in range(12):
        net = random_cost_network(rng)
        sampler = HSampler(pairs=20, seed=k, quadrature_nodes=int(rng.choice([1, 5, 16])))
        assert check_hypothesis_coupling(net, sampler) == loop_coupling(net, sampler)


@pytest.fixture
def segment_batches(monkeypatch) -> list[int]:
    """The pair count of every `_segments` call, in call order."""
    seen, segments = [], analysis._segments

    def spy(core, first, second, nodes):
        seen.append(first.shape[-1])
        return segments(core, first, second, nodes)

    monkeypatch.setattr(analysis, "_segments", spy)
    return seen


@pytest.mark.parametrize("per_chunk, sizes", [(1, [1] * 23), (7, [7, 7, 7, 2])])
def test_coupling_is_the_same_in_any_pair_chunks(
    per_chunk, sizes, corridor_net, segment_batches, monkeypatch
):
    # 110 pairs with the corners; the 87 whose congestion load reaches its
    # capacity at an end node never reach `_segments`.
    sampler = HSampler(pairs=100)
    expected = check_hypothesis_coupling(corridor_net, sampler)
    core = analysis.compile_network(corridor_net)
    flow_rows = core.pop_count * core.road_count + 1
    per_pair = sampler.quadrature_nodes * (flow_rows + core.program.slot_count)
    monkeypatch.setattr(analysis, "SEGMENT_BATCH", per_chunk * per_pair)
    segment_batches.clear()
    assert check_hypothesis_coupling(corridor_net, sampler) == expected
    assert segment_batches == sizes


def parallel_pair(first_routes: int, second_routes: int) -> Network:
    """Two populations from a to b on parallel roads, one road a route: the
    first on the first `first_routes` roads, the second on the last
    `second_routes`.  A road both use costs a congestion load of capacity
    1.5, below its peak load of 2; the others an affine cost."""
    count = max(first_routes, second_routes)
    roads = tuple(Road(f"r{k}", "a", "b") for k in range(count))
    used = [roads[:first_routes], roads[count - second_routes :]]
    shared = set(used[0]) & set(used[1])
    return Network(
        junctions=(Junction("a"), Junction("b")),
        roads=roads,
        populations=tuple(
            PopulationSpec(name, "a", "b", tuple(RouteSpec((r.id,)) for r in mine), {
                r.id: CongestionRational({"A": 1.0, "B": 1.0}, 1.5) if r in shared
                else Affine(1.0, {name: 1.0}) for r in mine
            })
            for name, mine in zip("AB", used)
        ),
    )


def blocking_at(capacity: float, cost=None) -> Network:
    """`blocking_network` with B's cost on r1 a load of A's of this capacity,
    or `cost` of it."""
    net = blocking_network()
    a, b = net.populations
    load = CongestionRational({"A": 1.0}, capacity)
    costs = {**b.costs, "r1": load if cost is None else cost(load)}
    return Network(net.junctions, net.roads, (a, PopulationSpec(b.name, b.origin, b.destination, b.routes, costs)))


# Networks where a congestion capacity lies below the peak load, so that
# some sampled pairs meet an infinite cost; in "blocking-folded" only a
# folded term of a cost does, which `_segments` alone decides.
PAST_CAPACITY = {
    "corridor": nets.congestion_corridor,
    "blocking": blocking_network,
    "blocking-folded": lambda: blocking_at(1.0, lambda load: Sum((Constant(0.5), Scale(2.0, load)))),
    **{f"layered-{m}": functools.partial(layered, 2, 1, 2, 0, m) for m in range(3)},
    **{f"parallel-{a}-{b}": functools.partial(parallel_pair, a, b) for a, b in [(1, 9), (2, 3), (3, 2), (9, 1)]},
}


@pytest.mark.parametrize("pairs", [0, 3, 100])
@pytest.mark.parametrize("name", sorted(PAST_CAPACITY))
def test_coupling_past_capacity_equals_the_loop(name, pairs):
    net = PAST_CAPACITY[name]()
    sampler = HSampler(pairs=pairs, seed=pairs)
    report = check_hypothesis_coupling(net, sampler)
    assert report == loop_coupling(net, sampler)
    assert report.pairs_skipped_infinite > 0


@pytest.mark.parametrize("nodes", [1, 2, 16])
def test_a_load_at_capacity_at_one_node_alone_is_infinite(nodes, segment_batches):
    # From the barycenter to a vertex with A on r1, A's load on r1 rises from
    # 0.5 to 1 while B moves: at the last node it is exactly this capacity,
    # below it at every other node and wherever A is frozen at the barycenter.
    last = gauss_legendre_unit(nodes)[0][-1]
    capacity = float((1 - last) * 0.5 + last * 1.0)
    sampler = HSampler(pairs=0, quadrature_nodes=nodes)
    reports = []
    for cap in (capacity, math.nextafter(capacity, 2.0)):  # then finite, if barely
        net = blocking_at(cap)
        expected = loop_coupling(net, sampler)
        segment_batches.clear()
        reports.append(check_hypothesis_coupling(net, sampler))
        assert reports[-1] == expected
        assert sum(segment_batches) == expected.pairs_sampled  # every infinite pair is caught first
    # the barycenter with each of the two vertices that put A on r1
    assert reports[0].pairs_skipped_infinite == reports[1].pairs_skipped_infinite + 2


def test_a_zero_scaled_load_at_capacity_raises_as_the_loop_does():
    net = blocking_at(1.0, lambda load: Sum((Constant(1.0), Scale(0.0, load))))
    with pytest.raises(ExtRealGuardError):
        loop_coupling(net, HSampler(pairs=3))
    for pairs in (0, 3, 100):
        with pytest.raises(ExtRealGuardError, match="0 \\* inf is not defined"):
            check_hypothesis_coupling(net, HSampler(pairs=pairs))


LINEAR_NETWORKS = {
    "flat": flat_network,
    **{name: nets.BUILDERS[name] for name in
       ("braess_augmented", "braess_base", "delay_spillover", "merge_base", "merge_linked")},
}


@pytest.mark.parametrize("pairs", [0, 3, 100])
@pytest.mark.parametrize("name", sorted(LINEAR_NETWORKS))
def test_a_linear_network_is_decided_by_one_segment(name, pairs, segment_batches, monkeypatch):
    net = LINEAR_NETWORKS[name]()
    sampler = HSampler(pairs=pairs, seed=pairs)
    expected = loop_coupling(net, sampler)

    def draw(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(analysis, "_sample_pairs", draw)
    segment_batches.clear()
    assert check_hypothesis_coupling(net, sampler) == expected
    assert segment_batches == [1]


@pytest.mark.parametrize("counts", [(2, 2), (2, 3), (3, 2), (9, 9), (1, 4), (12, 5), (27, 27)])
def test_the_draws_are_dirichlet_draws_made_one_by_one(counts):
    core = compile_network(parallel_pair(*counts))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        expected = np.stack([
            core.pack(Assignment.make([rng.dirichlet(np.ones(n)) for n in counts], tolerance=1e-9))
            for _ in range(7)
        ], axis=-1)
        assert np.array_equal(analysis._draw_shares(core, 7, seed), expected)


def test_coupling_memory_does_not_grow_with_the_vertex_pairs():
    # 100 vertices, so 5,050 pairs, all finite: their padded shares alone
    # would take 1.8 MB.
    net = parallel_network(10)
    tracemalloc.start()
    try:
        report = check_hypothesis_coupling(net, HSampler(pairs=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.pairs_sampled, report.pairs_skipped_infinite) == (5050, 0)
    assert peak < 2**20


def coupling_peak(net: Network, sampler: HSampler) -> int:
    tracemalloc.start()
    try:
        check_hypothesis_coupling(net, sampler)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coupling_memory_does_not_grow_with_the_random_pairs(corridor_net):
    check_hypothesis_coupling(corridor_net, HSampler(pairs=10))  # compiles, caches the quadrature rule
    assert coupling_peak(corridor_net, HSampler(pairs=50_000)) < 2 * coupling_peak(corridor_net, HSampler(pairs=1_000))


def draw_pairs_per_batch(monkeypatch, net: Network, pairs: int) -> None:
    """Set `DRAW_BATCH` so that the sample of `net` draws `pairs` pairs a batch."""
    core = compile_network(net)
    monkeypatch.setattr(analysis, "DRAW_BATCH", pairs * 2 * (core.pop_count * core.width + core._flow_gather.shape[1]))


@pytest.mark.parametrize("per_batch", [1, 7, 30])
@pytest.mark.parametrize("name", ["corridor", "blocking-folded", "parallel-2-3"])
def test_coupling_is_the_same_in_any_draw_batches(name, per_batch, monkeypatch):
    net = PAST_CAPACITY[name]()
    sampler = HSampler(pairs=30, seed=3)
    expected = loop_coupling(net, sampler)
    counts, draw = [], analysis._draw_shares

    def spy(core, count, rng):
        counts.append(count)
        return draw(core, count, rng)

    monkeypatch.setattr(analysis, "_draw_shares", spy)
    draw_pairs_per_batch(monkeypatch, net, per_batch)
    assert check_hypothesis_coupling(net, sampler) == expected
    whole, rest = divmod(30, per_batch)
    assert counts == [2 * per_batch] * whole + [2 * rest] * (rest > 0)


@pytest.mark.parametrize("per_batch", [1, 4, 23, 100])
def test_the_sample_batches_pair_one_whole_draw(per_batch, monkeypatch):
    net = parallel_pair(2, 3)
    core = compile_network(net)
    sampler = HSampler(pairs=23, seed=5)
    draws = analysis._draw_shares(core, 2 * sampler.pairs, sampler.seed)
    vertices = [core.pack(vertex_assignment(net, combo)) for combo in itertools.product(range(2), range(3))]
    barycenter = core.pack(uniform_assignment(net))
    expected = [*itertools.combinations(vertices, 2), *((barycenter, v) for v in vertices)]
    expected += [(draws[..., 2 * k], draws[..., 2 * k + 1]) for k in range(sampler.pairs)]
    draw_pairs_per_batch(monkeypatch, net, per_batch)
    pairs = [(points[..., i], points[..., j])
             for points, first, second in analysis._sample_pairs(net, core, sampler)
             for i, j in zip(first.tolist(), second.tolist())]
    assert len(pairs) == len(expected)
    for (a, b), (c, d) in zip(pairs, expected):
        assert a.tobytes() == c.tobytes() and b.tobytes() == d.tobytes()


class SpoiltGammas:
    """Draws as `np.random.default_rng(seed)` does, except that population
    p's variates of draw k are `value` for each (k, p) in `spoilt`: at 0 or
    nan, a draw that `Assignment.make` refuses."""

    def __init__(self, seed: int, counts: list[int], spoilt: list[tuple[int, int]], value: float):
        self.rng, self.spoilt, self.drawn = np.random.Generator(np.random.PCG64(seed)), spoilt, 0
        self.first, self.value = np.cumsum([0, *counts]).tolist(), value

    def standard_gamma(self, shape, size):
        variates = self.rng.standard_gamma(shape, size)
        for k, p in self.spoilt:
            if self.drawn <= k < self.drawn + size[0]:
                variates[k - self.drawn, self.first[p] : self.first[p + 1]] = self.value
        self.drawn += size[0]
        return variates


@pytest.mark.parametrize("value", [0.0, math.nan])
@pytest.mark.parametrize("per_batch", [3, 100])
def test_a_refused_draw_raises_the_error_of_make_for_the_first_one(per_batch, value, monkeypatch):
    # Draw 17 spoils population B (3 routes), draw 30 population A (2 routes);
    # variates summing to 0 give nan shares, as `dirichlet` does, and no warning.
    net = parallel_pair(2, 3)

    def rng(seed):
        return seed if isinstance(seed, SpoiltGammas) else SpoiltGammas(seed, [2, 3], [(30, 0), (17, 1)], value)

    with pytest.raises(ValueError) as expected:
        Assignment.make([[0.5, 0.5], [math.nan] * 3], tolerance=1e-9)
    draw_pairs_per_batch(monkeypatch, net, per_batch)
    monkeypatch.setattr(np.random, "default_rng", rng)
    with pytest.raises(ValueError) as raised:
        check_hypothesis_coupling(net, HSampler(pairs=40))
    assert str(raised.value) == str(expected.value) == "share vector has a non-finite component in [nan, nan, nan]"


def test_a_sample_past_the_budget_is_refused_before_it_is_built():
    # 300 routes each: 90,000 vertices and about 4e9 vertex pairs.
    start = time.perf_counter()
    with pytest.raises(OracleBudgetError, match="sample of 4050045000 pairs exceeds the budget of 1000000$"):
        check_uniqueness(parallel_network(300), HSampler(pairs=0))
    assert time.perf_counter() - start < 0.5
    # A network that fails the distinguishing-road condition keeps that answer.
    with pytest.raises(GammaConditionError):
        check_hypothesis_coupling(layered(4, 3, 2, 0), HSampler(pairs=0))
    # delay_spillover samples 10 pairs besides the random ones.
    with pytest.raises(OracleBudgetError, match="sample of 1000001 pairs"):
        check_hypothesis_coupling(nets.delay_spillover(), HSampler(pairs=analysis.UNIQUENESS_BUDGET - 9))


@pytest.mark.parametrize("field, value", [
    ("pairs", -2),
    ("pairs", 2.5),
    ("pairs", True),
    ("quadrature_nodes", 0),
    ("quadrature_nodes", 2.5),
    ("quadrature_nodes", True),
])
def test_sampler_refuses_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        HSampler(**{field: value})
    HSampler(pairs=0, quadrature_nodes=1)


@pytest.mark.parametrize("nodes", [True, 1.5, 0, analysis.MAX_QUADRATURE_NODES + 1, 100_000])
def test_segment_matrices_refuse_a_node_count_before_a_rule_is_built(nodes, corridor_net, monkeypatch):
    def leggauss(count):
        raise AssertionError(f"built a {count}-node rule")

    monkeypatch.setattr("numpy.polynomial.legendre.leggauss", leggauss)
    a = Assignment.make([[0.2, 0.8], [0.1, 0.9]])
    b = Assignment.make([[0.35, 0.65], [0.3, 0.7]])
    with pytest.raises(ValueError, match="quadrature_nodes must be"):
        segment_matrices(corridor_net, a, b, quadrature_nodes=nodes)


class TestHypothesisCoupling:
    def test_delay_network_satisfied(self, delay_net):
        report = check_hypothesis_coupling(delay_net, HSampler(pairs=100, seed=0))
        assert report.hypothesis_satisfied
        assert report.verdict == "at-most-one (sampled)"
        cases = dict(report.road_cases)
        assert cases["r3"] == "H4"  # equal unit sensitivities: boundary case
        for rid in ("r1", "r2", "r4", "r5"):
            assert cases[rid] == "n/a"
        assert report.exceptional_roads == 1

    def test_two_shared_constant_roads_fail(self, braess_net):
        # r1 and r3 are shared constant-cost roads: two inert exceptions
        report = check_hypothesis_coupling(braess_net, HSampler(pairs=20, seed=1))
        assert not report.hypothesis_satisfied
        assert report.verdict == "hypothesis fails (sampled)"
        cases = dict(report.road_cases)
        assert cases["r1"] == "H1" and cases["r3"] == "H1"
        assert report.exceptional_roads >= 2

    def test_corridor_reports_shared_road_and_skips_infinite(self, corridor_net):
        report = check_hypothesis_coupling(corridor_net, HSampler(pairs=60, seed=0))
        assert report.pairs_skipped_infinite > 0
        assert report.pairs_sampled > 0
        cases = dict(report.road_cases)
        assert cases["r5"] in ("H4", "violation")  # the only shared road
        for rid in ("r1", "r2", "r3", "r4", "r6", "r7"):
            assert cases[rid] == "n/a"

    def test_gamma_failure_names_population_and_route(self, braess_net):
        pop = braess_net.populations[0]
        twin = PopulationSpec(
            pop.name, pop.origin, pop.destination, (pop.routes[0], pop.routes[0]), pop.costs
        )
        net = Network(braess_net.junctions, braess_net.roads, (twin, braess_net.populations[1]))
        with pytest.raises(GammaConditionError) as err:
            check_hypothesis_coupling(net)
        assert err.value.population == "trucks"
        assert err.value.route_index == 0


class TestUnique0:
    def test_identical_points_vanish(self, merge_net):
        result = solve_fixed_point(merge_net)
        residuals = check_pair_orthogonality(merge_net, result.assignment, result.assignment)
        assert residuals == (0.0, 0.0)

    def test_independent_solves_nearly_vanish(self, merge_net):
        a = solve_fixed_point(merge_net).assignment
        b = solve_fixed_point(
            merge_net, Assignment.make([[0.9, 0.1], [0.1, 0.9]])
        ).assignment
        residuals = check_pair_orthogonality(merge_net, a, b)
        assert max(abs(r) for r in residuals) < 1e-8

    def test_rejects_non_nash_input(self, merge_net):
        good = solve_fixed_point(merge_net).assignment
        with pytest.raises(PreconditionError):
            check_pair_orthogonality(merge_net, good, Assignment.make([[1.0, 0.0], [1.0, 0.0]]))

    def test_evaluates_both_points_in_one_batch(self, merge_net, monkeypatch):
        good = solve_fixed_point(merge_net).assignment
        corner = Assignment.make([[1.0, 0.0], [1.0, 0.0]])
        shapes = []
        times = CompiledNetwork.times

        def counted(self, x, *args):
            shapes.append(x.shape)
            return times(self, x, *args)

        monkeypatch.setattr(CompiledNetwork, "times", counted)
        check_pair_orthogonality(merge_net, good, good)
        assert shapes == [(2, 3, 2)]
        for first, second, label in ((corner, good, "first"), (good, corner, "second")):
            with pytest.raises(PreconditionError, match=f"^{label} assignment is not a Nash"):
                check_pair_orthogonality(merge_net, first, second)


class TestCheckUniqueness:
    def test_the_flat_network_has_several_equilibria(self):
        report = check_uniqueness(flat_network(), HSampler(pairs=5), MultistartParams(random_starts=1))
        assert report.verdict == "several equilibria (6 found)"
        assert report.pair_residuals == ((0.0, 0.0),) * 15

    def test_one_equilibrium_keeps_the_sampled_verdict(self, merge_net):
        sampler = HSampler(pairs=5)
        report = check_uniqueness(merge_net, sampler, MultistartParams(random_starts=1))
        assert report == check_hypothesis_coupling(merge_net, sampler)
        assert report.pair_residuals == ()

    @pytest.mark.parametrize("builder", [flat_network, blocking_network])
    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_residuals_of_verified_equilibria_are_at_most_a_tolerance(self, builder, tol):
        # At Nash points a and b, a't(a) <= b't(a) + tol * scale and
        # b't(b) <= a't(b) + tol * scale, and routes whose share is at most
        # the share tolerance count as unused; the residual is the sum of
        # the two gaps.
        net = builder()
        params = MultistartParams(random_starts=3, seed=1, solve=SolveParams(verify_tol=tol))
        found = equilibrium.solve_multistart(net, params)
        core = compile_network(net)
        times = np.stack([core.times(core.pack(r.assignment)) for r in found])
        largest = max(1.0, times[times < math.inf].max())
        bound = 2 * (tol + core.width * DEFAULT_SHARE_TOLERANCE) * largest
        report = check_uniqueness(net, HSampler(pairs=3), params)
        assert len(report.pair_residuals) == math.comb(len(found), 2) > 0
        finite = [r for pair in report.pair_residuals for r in pair if r is not None]
        assert finite and max(finite) <= bound

    @pytest.mark.parametrize("builder", [flat_network, blocking_network])
    def test_pair_k_is_the_kth_pair_of_the_equilibria(self, builder):
        net = builder()
        params = MultistartParams(random_starts=3, seed=1)
        found = [r.assignment for r in equilibrium.solve_multistart(net, params)]
        report = check_uniqueness(net, HSampler(pairs=3), params)
        pairs = list(itertools.combinations(found, 2))
        assert len(pairs) == len(report.pair_residuals)
        for (a, b), residuals in zip(pairs, report.pair_residuals):
            if None in residuals:
                with pytest.raises(PreconditionError, match="infinite route time"):
                    check_pair_orthogonality(net, a, b)
            else:
                assert check_pair_orthogonality(net, a, b) == residuals
        assert any(None in residuals for residuals in report.pair_residuals) == (
            builder is blocking_network
        )


class TestOracle:
    @pytest.mark.parametrize("resolution", [0, -1])
    def test_refuses_a_resolution_below_one(self, delay_net, resolution):
        with pytest.raises(ValueError, match="resolution"):
            brute_force_equilibria(delay_net, resolution)

    def test_delay_single_cluster_at_half(self, delay_net):
        result = brute_force_equilibria(delay_net, 400)
        assert len(result.equilibria) == 1
        theta, residual = result.equilibria[0]
        for vec in theta.shares:
            assert vec[0] == pytest.approx(0.5, abs=1 / 400)
        assert residual <= result.tolerance

    def test_pathological_single_cluster(self, pathological_net):
        result = brute_force_equilibria(pathological_net, 1000)
        assert len(result.equilibria) == 1
        assert result.equilibria[0][0].shares[0][0] == pytest.approx(0.5, abs=1e-12)

    def test_merge_cluster_near_exact_rationals(self, merge_net):
        result = brute_force_equilibria(merge_net, 1000)
        assert len(result.equilibria) == 1
        theta, _ = result.equilibria[0]
        assert theta.shares[0][0] == pytest.approx(3 / 13, abs=2 / 1000)
        assert theta.shares[1][0] == pytest.approx(6 / 13, abs=2 / 1000)

    def test_three_route_population_cluster_lands_on_exact_point(self, merge6_net):
        # 1/15 and 2/3 are exact points of the 90-step grid; the coarse
        # spacing-scaled tolerance may admit extra approximate clusters, but
        # the best-residual one must be the rational equilibrium itself
        result = brute_force_equilibria(merge6_net, 90)
        assert result.equilibria
        theta, residual = min(result.equilibria, key=lambda pair: pair[1])
        assert theta.shares[0] == pytest.approx((1 / 15, 2 / 3, 4 / 15), abs=1e-12)
        assert theta.shares[1] == pytest.approx((2 / 3, 1 / 3), abs=1e-12)
        assert residual < 1e-12

    def test_every_returned_point_verifies(self, delay_net):
        from wardrop.equilibrium import is_nash

        result = brute_force_equilibria(delay_net, 100)
        for theta, _ in result.equilibria:
            assert is_nash(delay_net, theta, tol=result.tolerance).holds

    def test_budget_guard(self, braess5_net):
        with pytest.raises(OracleBudgetError):
            brute_force_equilibria(braess5_net, 400)

    def test_solver_output_lands_in_an_oracle_cell(
        self, delay_net, corridor_net, braess_net, merge_net
    ):
        resolution = 200
        for net in (delay_net, corridor_net, braess_net, merge_net):
            solved = solve_fixed_point(net)
            assert solved.success
            oracle = brute_force_equilibria(net, resolution)
            gaps = [
                max(
                    abs(a - b)
                    for va, vb in zip(solved.assignment.shares, theta.shares)
                    for a, b in zip(va, vb)
                )
                for theta, _ in oracle.equilibria
            ]
            assert min(gaps) <= 2 / resolution


def loop_clusters(steps, residuals):
    """The oracle's clustering as a loop over every pair of hits: union-find
    on "largest coordinate gap <= 2", the gap counted in whole grid steps,
    each component represented by its row with the smallest (residual,
    row), the representatives' indices ascending."""
    rows = [tuple(row) for row in steps.tolist()]
    parent = list(range(len(rows)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, a in enumerate(rows):
        for j in range(i + 1, len(rows)):
            if max(abs(u - v) for u, v in zip(a, rows[j])) <= 2:
                parent[find(j)] = find(i)
    groups = {}
    for i in range(len(rows)):
        groups.setdefault(find(i), []).append(i)
    return sorted(min(members, key=lambda k: (residuals[k], k)) for members in groups.values())


# The (fixture, grid) of every oracle run of the benchmark's workloads.
BENCHMARK_ORACLE_RUNS = [
    ("delay_spillover", 100), ("merge_base", 100), ("congestion_corridor", 200),
    ("congestion_corridor", 800), ("braess_base", 24), ("merge_linked", 12),
]


@pytest.fixture
def grid_scans(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (steps, residuals) hits of every oracle grid scan, in call order."""
    seen, scan = [], analysis._scan_product_grid

    def spy(*args):
        seen.append(scan(*args))
        return seen[-1]

    monkeypatch.setattr(analysis, "_scan_product_grid", spy)
    return seen


@pytest.mark.parametrize("name, grid", BENCHMARK_ORACLE_RUNS)
def test_clusters_equal_the_pairwise_loop_on_the_oracle_hits(name, grid, grid_scans):
    # The oracle clusters the scan's hits, or takes the best one where they
    # are every grid point (braess_base at grid 24).
    result = brute_force_equilibria(nets.BUILDERS[name](), grid)
    (steps, residuals), = grid_scans
    rows = [tuple(row) for row in steps.tolist()]
    assert len(rows) > 1 and rows == sorted(set(rows))
    heads = loop_clusters(steps, residuals)
    assert _cluster_hits(steps, residuals).tolist() == heads
    assert [
        (tuple(round(x * grid) for vec in theta.shares for x in vec), residual)
        for theta, residual in result.equilibria
    ] == [(rows[k], residuals[k]) for k in heads]


@st.composite
def grid_hits(draw):
    """Hits on a product simplex grid, as integer rows in sorted order: 1-3
    populations of 1-4 routes, some rows repeated, residuals drawn from few
    values so that they tie."""
    resolution = draw(st.integers(2, 24))
    routes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    grids = [compositions(n, resolution).tolist() for n in routes]
    row = st.tuples(*(st.sampled_from(g) for g in grids)).map(
        lambda parts: tuple(step for part in parts for step in part)
    )
    residual = st.sampled_from([0.0, 0.0, 1e-3, 0.25, 0.5])
    hits = sorted(draw(st.lists(st.tuples(row, residual), max_size=60)))
    steps = np.array([r for r, _ in hits], dtype=np.int64).reshape(len(hits), sum(routes))
    return steps, np.array([r for _, r in hits])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(grid_hits())
def test_clusters_equal_the_pairwise_loop_on_grid_hits(drawn):
    steps, residuals = drawn
    assert _cluster_hits(steps, residuals).tolist() == loop_clusters(steps, residuals)


@pytest.mark.parametrize("moved", [0, 1])
@pytest.mark.parametrize(
    "near, far, clusters",
    [
        pytest.param((0, 3), (2, 1), 1, id="3-two-steps"),
        pytest.param((0, 3), (3, 0), 2, id="3-three-steps"),
        pytest.param((2, 2, 2), (4, 0, 2), 1, id="6-two-steps"),
        pytest.param((2, 2, 2), (5, 0, 1), 2, id="6-three-steps"),
    ],
)
def test_hits_two_grid_steps_apart_join_and_three_apart_split(moved, near, far, clusters):
    # The pair differs in one population: in 0, the sweep's sort column.
    steps = np.array(sorted([near + near, far + near if moved == 0 else near + far]))
    residuals = np.full(2, 0.25)
    found = _cluster_hits(steps, residuals)
    assert len(found) == clusters
    assert found.tolist() == loop_clusters(steps, residuals)


def test_every_point_of_a_fine_grid_is_one_cluster():
    steps = compositions(3, 200)
    assert len(steps) == 20301
    (k,) = _cluster_hits(steps, np.zeros(len(steps))).tolist()
    assert steps[k].tolist() == [0, 0, 200]


def test_when_every_grid_point_is_a_hit_the_best_one_is_the_answer(grid_scans):
    # braess_augmented's sampled time variation is 20: up to grid 20 the
    # tolerance is at least 1, so every grid point is a hit, and a pair sweep
    # over the 53,361 hits of grid 20 would weigh about 671M candidate pairs.
    net = nets.braess_augmented()
    start = time.perf_counter()
    fine = brute_force_equilibria(net, 20)
    assert time.perf_counter() - start < 2.0
    assert fine.tolerance >= 1.0 and len(fine.equilibria) == 1
    coarse = brute_force_equilibria(net, 8)
    steps, residuals = grid_scans[-1]
    assert len(steps) == coarse.points_scanned
    (k,) = _cluster_hits(steps, residuals).tolist()
    (theta, residual), = coarse.equilibria
    assert [round(x * 8) for vec in theta.shares for x in vec] == steps[k].tolist()
    assert residual == residuals[k]


class TestCompare:
    def test_braess_paradox_for_both_populations(self, braess_net, braess5_net):
        report = compare_scenarios(braess_net, braess5_net)
        assert report.population_names == ("trucks", "cars")
        assert report.base_times == (pytest.approx(65.0, abs=1e-6), pytest.approx(44.0, abs=1e-6))
        assert report.variant_times == (pytest.approx(80.0, abs=1e-6), pytest.approx(56.0, abs=1e-6))
        assert report.paradox == (True, True)

    def test_induced_paradox_hits_other_population(self, merge_net, merge6_net):
        report = compare_scenarios(merge_net, merge6_net)
        flags = dict(zip(report.population_names, report.paradox))
        before = dict(zip(report.population_names, report.base_times))
        after = dict(zip(report.population_names, report.variant_times))
        assert before["west"] == pytest.approx(4.0, abs=1e-6)
        assert after["west"] == pytest.approx(4.0, abs=1e-6)
        assert before["east"] == pytest.approx(35 / 13, abs=1e-6)
        assert after["east"] == pytest.approx(3.0, abs=1e-6)
        assert flags == {"west": False, "east": True}

    def test_identical_networks_no_flags(self, braess_net):
        report = compare_scenarios(braess_net, braess_net)
        assert report.deltas == (0.0, 0.0)
        assert report.paradox == (False, False)

    def test_mismatched_populations_rejected(self, braess_net, merge_net):
        with pytest.raises(PreconditionError):
            compare_scenarios(braess_net, merge_net)


def test_random_network_reconstruction_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = random_cost_network(rng)
        eng = compile_network(net)
        a = Assignment.make([rng.dirichlet(np.ones(2)) for _ in range(2)], tolerance=1e-9)
        b = Assignment.make([rng.dirichlet(np.ones(2)) for _ in range(2)], tolerance=1e-9)
        sm = segment_matrices(net, a, b)
        g0, g1 = incidence_arrays(net)
        d0 = np.subtract(b.shares[0], a.shares[0])
        d1 = np.subtract(b.shares[1], a.shares[1])
        lhs0 = np.array(nested_times(eng, b)[0]) - np.array(nested_times(eng, a)[0])
        rhs0 = g0.T @ np.diag(sm.own[0]) @ g0 @ d0 + g0.T @ np.diag(sm.cross[0]) @ g1 @ d1
        assert np.abs(lhs0 - rhs0).max() < 1e-8


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_oracle_refuses_a_tolerance_before_scanning(tol, corridor_net, monkeypatch):
    def variation(net):
        raise AssertionError("scanned")

    monkeypatch.setattr(analysis, "_estimate_time_variation", variation)
    with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
        brute_force_equilibria(corridor_net, 10, tol=tol)


@pytest.mark.parametrize("tol", [1.0, 5.0, 1e300])
def test_oracle_refuses_a_tolerance_of_1_or_more_before_scanning(tol, corridor_net, monkeypatch):
    # at such a tolerance every grid point whose relevant times are finite is a hit
    def variation(net):
        raise AssertionError("scanned")

    monkeypatch.setattr(analysis, "_estimate_time_variation", variation)
    with pytest.raises(ValueError, match=f"^tol must be below 1, got {re.escape(str(tol))}$"):
        brute_force_equilibria(corridor_net, 10, tol=tol)


def test_oracle_accepts_a_zero_tolerance(delay_net):
    assert len(brute_force_equilibria(delay_net, 10, tol=0.0).equilibria) == 1


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e300])
def test_block_classification_holds_past_the_float_range_of_a_square(scale):
    # Scaling a block changes neither side of 4*q0*q1 >= (p0 + p1)^2 relative to the other.
    for block in ([1.0, 1.0, 0.5, 0.5], [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 2.0, 0.5], [1.0, 0.0, 0.5, 0.0]):
        assert block_case(*(scale * v for v in block)) == block_case(*block)


def allocating_scan(net, grids, resolution, tolerance):
    """The product-grid scan with fresh arrays for every batch and every
    evaluation, in the grid product's order."""
    core = compile_network(net)
    last = len(grids) - 1
    outer = np.array(list(itertools.product(*(range(len(g)) for g in grids[:last]))), dtype=int)
    inner = len(grids[last])
    per_batch = max(1, core._chunk // inner)
    steps, residuals = [], []
    for start in range(0, len(outer), per_batch):
        rows = np.repeat(outer[start : start + per_batch], inner, axis=0)
        x = np.zeros((core.pop_count, core.width, len(rows)))
        for p in range(last):
            x[p, : core.route_counts[p]] = grids[p][rows[:, p]].T / resolution
        x[last, : core.route_counts[last]] = np.tile(grids[last].T / resolution, len(rows) // inner)
        t = np.concatenate(
            [core.times(x[..., k : k + core._chunk]) for k in range(0, x.shape[2], core._chunk)],
            axis=2,
        )
        s = core.spreads(x, t, 0.0)
        ok = np.logical_and.reduce(s.spread <= tolerance * s.scale)
        ok &= np.logical_and.reduce((s.shortfall <= tolerance * s.mean_scale).reshape(-1, len(rows)))
        shortfall = s.shortfall.reshape(-1, len(rows)).max(axis=0).clip(0.0)
        worst = np.maximum(s.spread.max(axis=0), shortfall)
        for k in np.flatnonzero(ok).tolist():
            parts = [grids[p][rows[k, p]] for p in range(last)] + [grids[last][k % inner]]
            steps.append(np.concatenate(parts))
            residuals.append(float(worst[k]))
    return np.array(steps).reshape(len(steps), sum(core.route_counts)), np.array(residuals)


@pytest.mark.parametrize("name, resolution", [
    ("braess_base", 50),
    ("braess_augmented", 10),
    ("congestion_corridor", 50),
    ("delay_spillover", 50),
    ("merge_base", 50),
    ("merge_linked", 20),
    ("nonmonotone_pair", 10_000),
])
def test_oracle_equals_a_scan_that_allocates_per_batch(name, resolution, monkeypatch):
    net = nets.BUILDERS[name]()
    core = compile_network(net)
    sizes = [math.comb(resolution + n - 1, n - 1) for n in core.route_counts]
    per_batch = max(1, core._chunk // sizes[-1])
    # a short last batch of whole last-population grids, or (one population)
    # a short last chunk inside the one batch
    assert math.prod(sizes[:-1]) % per_batch or sizes[-1] % core._chunk
    result = brute_force_equilibria(net, resolution)
    grids = [compositions(n, resolution) for n in core.route_counts]
    steps, residuals = analysis._scan_product_grid(net, grids, resolution, result.tolerance)
    expected_steps, expected_residuals = allocating_scan(net, grids, resolution, result.tolerance)
    assert len(steps) and steps.dtype == expected_steps.dtype
    assert np.array_equal(steps, expected_steps) and np.array_equal(residuals, expected_residuals)
    monkeypatch.setattr(analysis, "_scan_product_grid", allocating_scan)
    assert brute_force_equilibria(net, resolution) == result


def test_sampler_refuses_a_negative_bool_or_fractional_seed():
    for seed in (-1, True, 1.5):
        with pytest.raises(ValueError, match="seed"):
            HSampler(seed=seed)
    HSampler(seed=0)


# -- the oracle before its screened scan and one-pass sample -------------------
# `_estimate_time_variation` and `_scan_product_grid` as they were before the
# variation sample drew each base point in one call and the scan tested
# shortfalls only where the spreads pass; renamed, bodies unchanged.  The
# oracle's two phases must give the same estimate and the same hits and
# residuals, bit for bit, and so the same `OracleResult`.

def reference_time_variation(net: Network) -> float:
    """Route-time variation per unit share change, sampled at 64 seeded points.

    A high percentile of the finite sampled ratios, not the maximum:
    unbounded costs make the true Lipschitz constant infinite near their
    blow-up set, and an exploding estimate would drown the oracle in
    false hits.
    """
    core = compile_network(net)
    rng = np.random.default_rng(0)
    step = 1e-3
    pairs = []
    for _ in range(64):
        base = [rng.dirichlet(np.ones(n)) for n in core.route_counts]
        for p in range(core.pop_count):
            if core.route_counts[p] < 2:
                continue
            moved = [b.copy() for b in base]
            i, j = rng.choice(core.route_counts[p], size=2, replace=False)
            if moved[p][i] < step:
                continue
            moved[p][i] -= step
            moved[p][j] += step
            pairs += [core.pack(base), core.pack(moved)]
    ratios = [1.0]
    if pairs:
        times = core.times(np.stack(pairs, axis=-1))[core.valid]
        before, after = times[:, 0::2], times[:, 1::2]
        finite = (before < math.inf) & (after < math.inf)
        with np.errstate(over="ignore"):  # a ratio past the float range is +inf, the steepest
            ratios += (np.abs(after[finite] - before[finite]) / step).tolist()
    ratios.sort()
    return ratios[int(0.75 * (len(ratios) - 1))]


def reference_scan(
    net: Network, grids: list[np.ndarray], resolution: int, tolerance: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nash scan of the product of the populations' composition grids, in
    batches of whole last-population grids, in the grid product's order.
    A point is a hit when every population's relevant times spread by at
    most tolerance * scale and no unused route undercuts the mean by more
    than tolerance * mean scale; its residual is the largest absolute spread
    or shortfall.  Returns each hit's compositions side by side as one int
    row, in scan order, which is lexicographic, and the hits' residuals."""
    core = compile_network(net)
    last = len(grids) - 1
    outer = np.array(list(itertools.product(*(range(len(g)) for g in grids[:last]))), dtype=int)
    inner = len(grids[last])
    per_batch = max(1, core._chunk // inner)  # the working set `core.times` evaluates at once
    # Every batch reuses one share array and the evaluation's buffers.  The
    # last population's grid and the padding are the same in every batch.
    shares = np.zeros((core.pop_count, core.width, per_batch, inner))
    shares[last, : core.route_counts[last]] = (grids[last] / resolution).T[:, None, :]
    scratch: dict = {}
    found, residuals = [], []  # per batch: the hits' indices into the grid product, their residuals
    for start in range(0, len(outer), per_batch):
        block = outer[start : start + per_batch]
        for p in range(last):
            rows = grids[p][block[:, p]] / resolution
            shares[p, : core.route_counts[p], : len(block)] = rows.T[..., None]
        x = shares[:, :, : len(block)].reshape(core.pop_count, core.width, -1)
        s = core.spreads(x, core.times(x, scratch), 0.0)
        points = x.shape[2]
        shortfall = s.shortfall.reshape(-1, points)
        with np.errstate(over="ignore"):  # a bound past the float range is +inf, met by all
            ok = np.logical_and.reduce(s.spread <= tolerance * s.scale)
            undercut = (s.shortfall <= tolerance * s.mean_scale).reshape(-1, points)
        ok &= np.logical_and.reduce(undercut)
        worst = np.maximum(s.spread.max(axis=0), shortfall.max(axis=0).clip(0.0))
        found.append(start * inner + np.flatnonzero(ok))
        residuals.append(worst[ok])
    row, column = np.divmod(np.concatenate(found), inner)
    steps = [grids[p][outer[row, p]] for p in range(last)] + [grids[last][column]]
    return np.concatenate(steps, axis=1), np.concatenate(residuals)


def outcome(f, *args):
    """f(*args), or the type and message of the evaluation error it raises."""
    try:
        return f(*args)
    except (CostDomainError, ExtRealGuardError) as exc:
        return type(exc), str(exc)


def assert_same_hits(found, expected) -> None:
    if isinstance(expected[0], type):  # an error
        assert found == expected
        return
    (steps, residuals), (expected_steps, expected_residuals) = found, expected
    assert steps.dtype == expected_steps.dtype and np.array_equal(steps, expected_steps)
    assert residuals.dtype == expected_residuals.dtype and np.array_equal(residuals, expected_residuals)


def assert_oracle_unchanged(net: Network, resolution: int, tolerances=()) -> None:
    """The estimate, the scan at the oracle's tolerance and at each of
    `tolerances`, and the oracle's result equal the references', errors
    included."""
    variation = outcome(reference_time_variation, net)
    assert outcome(analysis._estimate_time_variation, net) == variation
    if isinstance(variation, tuple):
        return
    grids = [compositions(n, resolution) for n in compile_network(net).route_counts]
    for tolerance in (variation / resolution, *tolerances):
        assert_same_hits(
            outcome(analysis._scan_product_grid, net, grids, resolution, tolerance),
            outcome(reference_scan, net, grids, resolution, tolerance),
        )
    result = outcome(brute_force_equilibria, net, resolution)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_estimate_time_variation", reference_time_variation)
        patch.setattr(analysis, "_scan_product_grid", reference_scan)
        assert outcome(brute_force_equilibria, net, resolution) == result


def grid_points(net: Network, resolution: int) -> int:
    return math.prod(math.comb(resolution + n - 1, n - 1) for n in compile_network(net).route_counts)


# Every shipped fixture at every grid of the benchmark's oracle runs that
# fits the default budget.
FIXTURE_ORACLE_RUNS = [
    (name, grid)
    for name in sorted(nets.BUILDERS)
    for grid in (12, 24, 100, 200, 800)
    if grid_points(nets.BUILDERS[name](), grid) <= analysis.DEFAULT_ORACLE_BUDGET
]


@pytest.mark.parametrize("name, grid", FIXTURE_ORACLE_RUNS)
def test_the_oracle_equals_its_reference_on_the_fixtures(name, grid):
    assert_oracle_unchanged(nets.BUILDERS[name](), grid)


def solo_and_wide() -> Network:
    """`solo` has one route, r1, whose cost blows up once `wide` puts half
    its mass there; `wide`'s own cost on r1 blows up past 0.8 of its mass,
    r2 costs less the more `wide` takes it, and r3 is affine."""
    roads = tuple(Road(f"r{k}", "a", "b") for k in (1, 2, 3))
    return Network(
        junctions=(Junction("a"), Junction("b")),
        roads=roads,
        populations=(
            PopulationSpec("solo", "a", "b", (RouteSpec(("r1",)),),
                           {"r1": CongestionRational({"solo": 0.5, "wide": 1.0}, 1.0)}),
            PopulationSpec("wide", "a", "b", tuple(RouteSpec((r.id,)) for r in roads), {
                "r1": CongestionRational({"wide": 1.0, "solo": 0.2}, 1.0),
                "r2": NonMonotoneAffine(1.0, {"wide": -0.5, "solo": 0.1}),
                "r3": Affine(0.5, {"wide": 1.0}),
            }),
        ),
    )


@pytest.mark.parametrize("resolution", [10, 80, 400])
def test_the_oracle_equals_its_reference_with_a_lone_route_blow_ups_and_a_falling_cost(resolution):
    assert_oracle_unchanged(solo_and_wide(), resolution, tolerances=(0.0, 0.5, 1.0))


@pytest.mark.parametrize("shape", [(2, 1, 2), (3, 2, 2), (2, 3, 3), (3, 3, 1), (3, 2, 3), (5, 2, 2)])
def test_the_oracle_equals_its_reference_on_layered_networks(shape):
    # 2 to 27 routes a population: from 8 on, numpy's own sum of a base point's
    # shares would be pairwise, not left to right as `dirichlet` sums them
    net = layered(*shape, seed=0)
    resolution = max(r for r in (1, 2, 3, 4, 40) if grid_points(net, r) <= 2_500 or r == 1)
    assert_oracle_unchanged(net, resolution)


@SETTINGS
@given(networks())
def test_the_oracle_equals_its_reference_on_random_networks(net):
    resolution = max(r for r in (1, 2, 3, 4, 6) if grid_points(net, r) <= 5_000 or r == 1)
    assert_oracle_unchanged(net, resolution, tolerances=(0.0, 1.0))


def seven_and_solo() -> Network:
    """`seven` on seven parallel roads at constant costs 1 to 7, so W = 8,
    and `solo` last on a road of its own: a batch is a run of `seven`'s grid
    points, only its vertices pass the spread test at tolerance 0, and only
    the vertex on r0 is a hit."""
    roads = tuple(Road(f"r{k}", "a", "b") for k in range(8))
    return Network(
        junctions=(Junction("a"), Junction("b")),
        roads=roads,
        populations=(
            PopulationSpec("seven", "a", "b", tuple(RouteSpec((f"r{k}",)) for k in range(7)),
                           {f"r{k}": Constant(1.0 + k) for k in range(7)}),
            PopulationSpec("solo", "a", "b", (RouteSpec(("r7",)),), {"r7": Constant(1.0)}),
        ),
    )


def test_a_batch_of_one_survivor_at_w_8_equals_the_reference(monkeypatch):
    net = seven_and_solo()
    core = compile_network(net)
    survivors, shortfalls = [], CompiledNetwork.shortfalls

    def spy(self, x, *args):
        survivors.append(x.shape[2])
        return shortfalls(self, x, *args)

    monkeypatch.setattr(CompiledNetwork, "shortfalls", spy)
    grids = [compositions(7, 10), compositions(1, 10)]
    steps, residuals = analysis._scan_product_grid(net, grids, 10, 0.0)
    # 8,008 points in batches of _chunk; the last two batches hold one vertex each
    assert core.width == 8 and survivors == [5, 1, 1]
    assert steps.tolist() == [[10, 0, 0, 0, 0, 0, 0, 10]] and residuals.tolist() == [0.0]
    assert_same_hits((steps, residuals), reference_scan(net, grids, 10, 0.0))
    assert_oracle_unchanged(net, 10, tolerances=(0.0, 0.2, 1.0))


def test_a_grid_of_hits_only_equals_the_reference():
    net = seven_and_solo()
    grids = [compositions(7, 6), compositions(1, 6)]
    steps, residuals = analysis._scan_product_grid(net, grids, 6, 1.0)
    assert len(steps) == len(grids[0]) == 924
    assert_same_hits((steps, residuals), reference_scan(net, grids, 6, 1.0))


def test_a_grid_without_hits_equals_the_reference():
    # t(a) = share of a, t(b) = 1/3: the one Nash split, (1/3, 2/3), is off the grid
    net = Network(
        junctions=(Junction("a"), Junction("b")),
        roads=(Road("ra", "a", "b"), Road("rb", "a", "b")),
        populations=(PopulationSpec("only", "a", "b", (RouteSpec(("ra",)), RouteSpec(("rb",))),
                                    {"ra": Affine(0.0, {"only": 1.0}), "rb": Constant(1 / 3)}),),
    )
    grids = [compositions(2, 100)]
    steps, residuals = analysis._scan_product_grid(net, grids, 100, 0.0)
    assert steps.shape == (0, 2) and residuals.shape == (0,)
    assert_same_hits((steps, residuals), reference_scan(net, grids, 100, 0.0))


def test_the_two_halves_of_spreads_on_survivors_equal_spreads_of_the_batch():
    # Survivors are fancy-indexed out of a batch: one survivor is a (P, W, 1)
    # slice, whose route sums at W = 8 go through `_total`'s cumulative sum.
    core = compile_network(seven_and_solo())
    rng = np.random.default_rng(5)
    x = np.zeros((2, 8, 40))
    x[0, :7] = rng.dirichlet(np.ones(7), 40).T * (rng.random((7, 40)) < 0.8)
    x[0, :7, 0] = 1.0
    x[0, :7] /= x[0, :7].sum(axis=0)
    x[1, 0] = 1.0
    t = core.times(x) * rng.random((2, 8, 40))
    t[0, 3, 9] = t[0, 6, 2] = np.inf
    whole = core.spreads(x, t, 0.0)
    spread, scale, relevant, kept = core.relevant_spreads(x, t, 0.0)
    for picked in [[k] for k in range(40)] + [[0, 9], list(range(40))]:
        halves = [spread[..., picked], scale[..., picked], *core.shortfalls(
            *(a[..., picked] for a in (x, t, relevant, kept))
        )]
        for field, value in zip(whole, halves):
            assert np.array_equal(field[..., picked], value)


# -- the scan's bound pass ------------------------------------------------------

def spy_on_times(monkeypatch) -> list[int]:
    """The points of every `CompiledNetwork.times` evaluation, in call order;
    a batch that `times` cuts into chunks counts once, by its chunks."""
    seen, times = [], CompiledNetwork.times

    def spy(self, x, scratch=None):
        if x.ndim < 3 or x.shape[2] <= self._chunk:
            seen.append(x.shape[2] if x.ndim == 3 else 1)
        return times(self, x, scratch)

    monkeypatch.setattr(CompiledNetwork, "times", spy)
    return seen


@pytest.fixture
def times_points(monkeypatch) -> list[int]:
    return spy_on_times(monkeypatch)


def blow_up_and_folds(fold: CostExpr | None = None) -> Network:
    """`vans` on two parallel roads and `cars` on those and a third: a
    congestion load that blows up, monomials, and folded sums and scales of
    them; `fold`, if given, joins cars' cost on r3 as a last term."""
    roads = tuple(Road(f"r{k}", "a", "b") for k in (1, 2, 3))
    r3 = (Affine(0.2, {"cars": 1.0}), Scale(3.0, Polynomial((MonomialTerm(1.0, {"cars": 3}),))))
    return Network(
        junctions=(Junction("a"), Junction("b")),
        roads=roads,
        populations=(
            PopulationSpec("vans", "a", "b", (RouteSpec(("r1",)), RouteSpec(("r2",))), {
                "r1": Scale(2.0, CongestionRational({"cars": 0.5, "vans": 1.0}, 1.0)),
                "r2": Affine(0.3, {"vans": 2.0}),
            }),
            PopulationSpec("cars", "a", "b", tuple(RouteSpec((r.id,)) for r in roads), {
                "r1": CongestionRational({"cars": 1.0, "vans": 1.0}, 1.2),
                "r2": Polynomial((MonomialTerm(2.0, {"cars": 2, "vans": 1}), MonomialTerm(0.5, {"cars": 1}))),
                "r3": Sum(r3 + ((fold,) if fold else ())),
            }),
        ),
    )


def scanned_points(times_points: list[int], scan, net: Network, resolution: int, tolerance: float):
    """(outcome of `scan` on net's grid, the points its evaluations took)."""
    grids = [compositions(n, resolution) for n in compile_network(net).route_counts]
    times_points.clear()
    found = outcome(scan, net, grids, resolution, tolerance)
    return found, sum(times_points)


@pytest.mark.parametrize("build, resolution", [
    pytest.param(nets.congestion_corridor, 800, id="congestion_corridor"),
    pytest.param(blow_up_and_folds, 60, id="blow-up-and-folds"),
])
def test_the_bound_pass_skips_points_and_keeps_every_hit(build, resolution, times_points):
    net = build()
    for tolerance in (analysis._estimate_time_variation(net) / resolution, 0.0, 0.5):
        found, evaluated = scanned_points(times_points, analysis._scan_product_grid, net, resolution, tolerance)
        expected, everything = scanned_points(times_points, reference_scan, net, resolution, tolerance)
        assert everything == grid_points(net, resolution)
        assert evaluated < everything
        assert_same_hits(found, expected)


def zero_scaled_fold(capacity: float) -> Network:
    """`blow_up_and_folds` with a congestion load scaled by 0 in a fold:
    0 * inf raises where cars put `capacity` on r3."""
    return blow_up_and_folds(Scale(0.0, CongestionRational({"cars": 1.0}, capacity)))


@pytest.mark.parametrize("build, resolution, error", [
    pytest.param(solo_and_wide, 400, None, id="non-monotone"),
    pytest.param(functools.partial(zero_scaled_fold, 2.0), 60, None, id="zero-scaled-fold"),
    pytest.param(functools.partial(zero_scaled_fold, 0.9), 60, ExtRealGuardError, id="zero-scaled-fold-raises"),
])
def test_a_scan_that_can_raise_evaluates_every_point(build, resolution, error, times_points):
    # A skipped point could hide an error the full scan raises.
    net = build()
    assert compile_network(net).program.raising_slots() is not None
    for tolerance in (0.0, 0.5):
        found, evaluated = scanned_points(times_points, analysis._scan_product_grid, net, resolution, tolerance)
        expected, everything = scanned_points(times_points, reference_scan, net, resolution, tolerance)
        assert evaluated == everything
        assert_same_hits(found, expected)
        if error is None:
            assert everything == grid_points(net, resolution)
        else:
            assert found[0] is error and everything < grid_points(net, resolution)


@pytest.mark.parametrize("build, resolutions", [
    pytest.param(nets.congestion_corridor, range(36, 46), id="one-batch"),  # 1,369-2,116 points, _chunk 1,680
    pytest.param(nets.merge_linked, range(28, 36), id="one-run"),  # 29-36 last-population points
])
def test_the_bound_pass_runs_past_one_batch_and_one_run(build, resolutions, monkeypatch):
    # Below either size the pass was measured to cost more than it saves.
    net = build()
    core, bound, calls = compile_network(net), analysis._hit_free_points, []
    monkeypatch.setattr(analysis, "_hit_free_points", lambda *args: calls.append(1) or bound(*args))
    ran = []
    for resolution in resolutions:
        grids = [compositions(n, resolution) for n in core.route_counts]
        calls.clear()
        found = analysis._scan_product_grid(net, grids, resolution, 0.05)
        size, inner = grid_points(net, resolution), len(grids[-1])
        assert len(calls) == (size > core._chunk and inner > analysis.BOUND_RUN)
        ran.append(len(calls))
        assert_same_hits(found, reference_scan(net, grids, resolution, 0.05))
    assert 0 < sum(ran) < len(ran)  # both sides of the size condition


def test_the_bound_pass_keeps_every_hit_on_random_monotone_networks():
    """Random monotone networks at the coarsest grid the pass runs on: one
    of more than one batch, with more than BOUND_RUN points in the last
    population's grid.  Every scan runs the pass and evaluates the corners
    and the points it leaves; enough of them evaluate fewer points than
    the grid that the draws are known to skip some."""
    fewer = []  # per scan: whether it evaluated fewer points than the grid

    @settings(SETTINGS, max_examples=60)
    @given(networks(raising=False))
    def check(net):
        core = compile_network(net)
        last = core.route_counts[-1]
        assume(last > 1)  # one route: one point per last-population grid, never a run
        assert core.program.raising_slots() is None
        resolution = 1
        while math.comb(resolution + last - 1, last - 1) <= analysis.BOUND_RUN or grid_points(net, resolution) <= core._chunk:
            resolution += 1
        size = grid_points(net, resolution)
        assume(size <= 20_000)  # too fine a grid for a property test
        inner = len(compositions(last, resolution))
        runs = size // inner * -(-inner // analysis.BOUND_RUN)
        grids = [compositions(n, resolution) for n in core.route_counts]
        with pytest.MonkeyPatch.context() as patch:
            seen, bound = spy_on_times(patch), analysis._hit_free_points
            dead = []
            patch.setattr(analysis, "_hit_free_points", lambda *args: dead.append(bound(*args)) or dead[-1])
            for tolerance in (0.0, 0.05, analysis._estimate_time_variation(net) / resolution):
                seen.clear()
                dead.clear()
                found = outcome(analysis._scan_product_grid, net, grids, resolution, tolerance)
                assert len(dead) == 1 and dead[0].size == size
                # the corners of every run, then every point not proven hit-free
                assert sum(seen) == 2 * runs + size - dead[0].sum()
                fewer.append(sum(seen) < size)
                assert_same_hits(found, outcome(reference_scan, net, grids, resolution, tolerance))

    check()
    # seen: 180 scans (60 networks, 3 tolerances), 124 of them evaluating fewer points
    assert len(fewer) >= 150 and sum(fewer) >= 60, (len(fewer), sum(fewer))


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the process's VmSize")
def test_clusters_take_memory_linear_in_the_hits():
    """layered (3, 3, 1) at grid 3: 3,654 points, nearly all hits, whose
    pairs of neighbours once took about 330 MiB at once."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    child = f"""
import resource, sys
sys.path.insert(0, {bench!r})
from layered import layered
from wardrop.analysis import brute_force_equilibria
net = layered(3, 3, 1, seed=0)
for line in open("/proc/self/status"):
    if line.startswith("VmSize:"):
        cap = int(line.split()[1]) * 1024 + (128 << 20)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
result = brute_force_equilibria(net, 3)
print(result.points_scanned, len(result.equilibria))
"""
    src = str(Path(analysis.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "3654 1\n", "")
