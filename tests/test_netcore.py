"""Network model: validation, incidence, route enumeration, flows."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from wardrop.costs import Constant
from wardrop.netcore import (
    Finding,
    Junction,
    Network,
    NetworkIndexError,
    PopulationSpec,
    Road,
    RouteSpec,
    build_incidence,
    check_condition_gamma,
    enumerate_routes,
    flows_on_roads,
    validate_network,
)
from conftest import rational_rank


def _codes(report, severity=None):
    return [
        f.code for f in report.findings if severity is None or f.severity == severity
    ]


class TestValidate:
    def test_delay_network_is_clean(self, delay_net):
        report = validate_network(delay_net)
        assert report.ok
        assert report.findings == ()

    def test_all_fixture_networks_are_clean(
        self, corridor_net, braess_net, braess5_net, merge_net, merge6_net, pathological_net
    ):
        for net in (corridor_net, braess_net, braess5_net, merge_net, merge6_net, pathological_net):
            assert validate_network(net).ok

    def test_broken_adjacency(self):
        net = Network(
            junctions=(Junction("a"), Junction("b"), Junction("c")),
            roads=(Road("r1", "a", "b"), Road("r2", "a", "c")),
            populations=(
                PopulationSpec(
                    "only", "a", "c",
                    (RouteSpec(("r1", "r2")),),
                    {"r1": Constant(1.0), "r2": Constant(1.0)},
                ),
            ),
        )
        report = validate_network(net)
        assert not report.ok
        assert "route-adjacency" in _codes(report, "error")

    def test_two_cycle_not_acyclic(self):
        # the second route doubles back once, so its (distinct) roads hold a
        # 2-cycle between a and b
        net = Network(
            junctions=(Junction("o"), Junction("a"), Junction("b"), Junction("d")),
            roads=(
                Road("r1", "o", "a"),
                Road("r2", "a", "b"),
                Road("r3", "b", "a"),
                Road("r4", "a", "d"),
                Road("r5", "b", "d"),
            ),
            populations=(
                PopulationSpec(
                    "only", "o", "d",
                    (RouteSpec(("r1", "r2", "r5")), RouteSpec(("r1", "r2", "r3", "r4"))),
                    {r: Constant(1.0) for r in ("r1", "r2", "r3", "r4", "r5")},
                ),
            ),
        )
        report = validate_network(net)
        assert not report.ok
        assert "not-acyclic" in _codes(report, "error")

    def test_self_loop_and_unknown_road(self):
        net = Network(
            junctions=(Junction("a"), Junction("b")),
            roads=(Road("r1", "a", "a"), Road("r2", "a", "b")),
            populations=(
                PopulationSpec("only", "a", "b", (RouteSpec(("rX",)),), {}),
            ),
        )
        codes = _codes(validate_network(net), "error")
        assert "self-loop" in codes
        assert "unknown-road" in codes

    def test_missing_cost_and_wrong_endpoints(self):
        net = Network(
            junctions=(Junction("a"), Junction("b"), Junction("c")),
            roads=(Road("r1", "a", "b"), Road("r2", "b", "c")),
            populations=(
                PopulationSpec("only", "a", "b", (RouteSpec(("r1", "r2")),), {"r1": Constant(1.0)}),
            ),
        )
        codes = _codes(validate_network(net), "error")
        assert "missing-cost" in codes
        assert "route-endpoints" in codes

    def test_population_without_routes(self, braess_net):
        trucks = dataclasses.replace(braess_net.populations[0], routes=())
        net = dataclasses.replace(braess_net, populations=(trucks, *braess_net.populations[1:]))
        report = validate_network(net)
        assert not report.ok
        expected = Finding("error", "no-routes", "population 'trucks' has no routes", ("trucks",))
        assert expected in report.findings

    def test_dangling_junction_is_warning_only(self):
        net = Network(
            junctions=(Junction("a"), Junction("b"), Junction("x")),
            roads=(Road("r1", "a", "b"),),
            populations=(
                PopulationSpec("only", "a", "b", (RouteSpec(("r1",)),), {"r1": Constant(1.0)}),
            ),
        )
        report = validate_network(net)
        assert report.ok
        assert "isolated-junction" in _codes(report, "warning")


    @staticmethod
    def _one_population(roads, routes, origin="o", destination="d"):
        junctions = sorted({j for _, tail, head in roads for j in (tail, head)})
        return Network(
            junctions=tuple(Junction(j) for j in junctions),
            roads=tuple(Road(*road) for road in roads),
            populations=(
                PopulationSpec(
                    "only", origin, destination,
                    tuple(RouteSpec(route) for route in routes),
                    {rid: Constant(1.0) for route in routes for rid in route},
                ),
            ),
        )

    def _subnetwork_findings(self, net):
        codes = ("not-acyclic", "not-connected", "source-sink")
        return [f for f in validate_network(net).findings if f.code in codes]

    def test_disconnected_subnetwork(self):
        # the second route lies apart from the first: two sources, two sinks
        net = self._one_population([("r1", "o", "d"), ("r2", "x", "y")], [("r1",), ("r2",)])
        assert self._subnetwork_findings(net) == [
            Finding("error", "not-connected", "subnetwork of 'only' is disconnected", ("only",)),
            Finding(
                "error", "source-sink",
                "subnetwork of 'only' has sources ['o', 'x'], expected ['o']",
                ("only", "o", "x"),
            ),
            Finding(
                "error", "source-sink",
                "subnetwork of 'only' has sinks ['d', 'y'], expected ['d']",
                ("only", "d", "y"),
            ),
        ]

    def test_second_source(self):
        net = self._one_population(
            [("r1", "o", "m"), ("r2", "x", "m"), ("r3", "m", "d")], [("r1", "r3"), ("r2", "r3")]
        )
        assert self._subnetwork_findings(net) == [
            Finding(
                "error", "source-sink",
                "subnetwork of 'only' has sources ['o', 'x'], expected ['o']",
                ("only", "o", "x"),
            ),
        ]

    def test_sink_other_than_the_destination(self):
        net = self._one_population([("r1", "o", "m"), ("r2", "m", "y")], [("r1", "r2")])
        assert self._subnetwork_findings(net) == [
            Finding(
                "error", "source-sink",
                "subnetwork of 'only' has sinks ['y'], expected ['d']",
                ("only", "y"),
            ),
        ]

    def test_cycle_suppresses_source_sink(self):
        # no junction of a 2-cycle is a source or a sink, but that is not reported
        net = self._one_population([("r1", "a", "b"), ("r2", "b", "a")], [("r1", "r2")])
        assert self._subnetwork_findings(net) == [
            Finding("error", "not-acyclic", "subnetwork of 'only' contains a cycle", ("only",)),
        ]

    def test_junction_degree_warnings(self):
        # a has no entering road and y no exiting one; neither is an origin
        # or a destination, so both only warn
        net = self._one_population(
            [("r1", "o", "d"), ("r2", "a", "d"), ("r3", "o", "y")], [("r1",)]
        )
        report = validate_network(net)
        assert report.ok
        assert report.findings == (
            Finding("warning", "junction-degree", "junction 'a' has no entering road", ("a",)),
            Finding("warning", "junction-degree", "junction 'y' has no exiting road", ("y",)),
        )


class TestIncidence:
    def test_delay_upper_matrix(self, delay_net):
        inc = build_incidence(delay_net, 0)
        expected = np.array([[1, 0], [0, 1], [1, 0], [0, 0], [0, 0]])
        assert (inc.entries == expected).all()

    def test_delay_lower_matrix(self, delay_net):
        inc = build_incidence(delay_net, 1)
        expected = np.array([[0, 0], [0, 0], [1, 0], [1, 0], [0, 1]])
        assert (inc.entries == expected).all()

    def test_single_route_population_is_rank_one(self):
        net = Network(
            junctions=(Junction("a"), Junction("b"), Junction("c")),
            roads=(Road("r1", "a", "b"), Road("r2", "b", "c")),
            populations=(
                PopulationSpec(
                    "only", "a", "c", (RouteSpec(("r1", "r2")),),
                    {"r1": Constant(1.0), "r2": Constant(1.0)},
                ),
            ),
        )
        inc = build_incidence(net, 0)
        assert inc.entries.shape == (2, 1)
        assert inc.entries.sum() == 2
        assert rational_rank(inc.entries) == 1

    def test_unknown_population_index(self, delay_net):
        with pytest.raises(NetworkIndexError):
            build_incidence(delay_net, 5)

    def test_every_column_has_a_one(self, delay_net, corridor_net, braess5_net, merge6_net):
        for net in (delay_net, corridor_net, braess5_net, merge6_net):
            for p in range(len(net.populations)):
                inc = build_incidence(net, p)
                assert (inc.entries.sum(axis=0) >= 1).all()


class TestConditionGamma:
    def test_delay_upper_witnesses(self, delay_net):
        holds, witnesses = check_condition_gamma(delay_net, 0)
        assert holds
        assert witnesses == {0: "r1", 1: "r2"}

    def test_braess_augmented_witnesses(self, braess5_net):
        holds, witnesses = check_condition_gamma(braess5_net, 0)
        assert holds
        assert witnesses == {0: "r3", 1: "r1", 2: "r5"}

    def test_duplicate_routes_fail(self, braess_net):
        pop = braess_net.populations[0]
        twin = PopulationSpec(
            pop.name, pop.origin, pop.destination,
            (pop.routes[0], pop.routes[0]), pop.costs,
        )
        net = Network(braess_net.junctions, braess_net.roads, (twin, braess_net.populations[1]))
        holds, witnesses = check_condition_gamma(net, 0)
        assert not holds
        assert witnesses == {}

    def test_gamma_implies_full_rational_rank(
        self, delay_net, corridor_net, braess_net, braess5_net, merge_net, merge6_net
    ):
        for net in (delay_net, corridor_net, braess_net, braess5_net, merge_net, merge6_net):
            for p, pop in enumerate(net.populations):
                holds, _ = check_condition_gamma(net, p)
                if holds:
                    inc = build_incidence(net, p)
                    assert rational_rank(inc.entries) == len(pop.routes)


class TestEnumerateRoutes:
    def test_braess_base_diamond(self, braess_net):
        routes = enumerate_routes(braess_net, "o", "d")
        assert [r.road_ids for r in routes] == [("r1", "r4"), ("r2", "r3")]

    def test_braess_augmented_includes_shortcut(self, braess5_net):
        routes = enumerate_routes(braess5_net, "o", "d")
        assert [r.road_ids for r in routes] == [
            ("r1", "r4"), ("r2", "r3"), ("r2", "r5", "r4"),
        ]

    def test_origin_equals_destination(self, braess_net):
        assert enumerate_routes(braess_net, "o", "o") == []

    def test_unknown_junction(self, braess_net):
        with pytest.raises(NetworkIndexError):
            enumerate_routes(braess_net, "o", "nowhere")

    def test_repeated_calls_identical(self, merge6_net):
        first = enumerate_routes(merge6_net, "o1", "d")
        second = enumerate_routes(merge6_net, "o1", "d")
        assert first == second
        # enumerated routes satisfy the route invariants: adjacency and
        # pairwise-distinct roads
        roads = {r.id: r for r in merge6_net.roads}
        for route in first:
            assert len(set(route.road_ids)) == len(route.road_ids)
            for a, b in zip(route.road_ids, route.road_ids[1:]):
                assert roads[a].head == roads[b].tail


class TestFlows:
    def test_delay_half_half_on_shared_road(self, delay_net):
        incs = [build_incidence(delay_net, p) for p in range(2)]
        flows = flows_on_roads(incs, [[0.5, 0.5], [0.5, 0.5]])
        shared_row = list(delay_net.road_index().items())[2]
        assert shared_row[0] == "r3"
        assert flows[2].tolist() == [0.5, 0.5]

    def test_vertex_assignment_reads_column(self, braess5_net):
        incs = [build_incidence(braess5_net, p) for p in range(2)]
        flows = flows_on_roads(incs, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert flows[:, 0].tolist() == incs[0].entries[:, 2].tolist()
        assert flows[:, 1].tolist() == incs[1].entries[:, 0].tolist()
        index = braess5_net.road_index()
        for rid in ("r2", "r5", "r4"):
            assert flows[index[rid], 0] == 1.0
        for rid in ("r1", "r3"):
            assert flows[index[rid], 0] == 0.0

    def test_dimension_mismatch(self, delay_net):
        incs = [build_incidence(delay_net, p) for p in range(2)]
        with pytest.raises(ValueError):
            flows_on_roads(incs, [[0.5, 0.5]])
        with pytest.raises(ValueError):
            flows_on_roads(incs, [[0.5, 0.5, 0.0], [1.0, 0.0]])

    def test_simplex_violation_rejected(self, delay_net):
        incs = [build_incidence(delay_net, p) for p in range(2)]
        with pytest.raises(ValueError):
            flows_on_roads(incs, [[0.7, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            flows_on_roads(incs, [[1.2, -0.2], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_share_rejected(self, delay_net, bad):
        incs = [build_incidence(delay_net, p) for p in range(2)]
        with pytest.raises(ValueError, match="non-finite"):
            flows_on_roads(incs, [[bad, 1.0], [0.5, 0.5]])

    def test_linearity(self, braess5_net):
        rng = np.random.default_rng(3)
        incs = [build_incidence(braess5_net, p) for p in range(2)]
        for _ in range(50):
            a = [rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))]
            b = [rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))]
            alpha = float(rng.uniform())
            mixed = [alpha * x + (1 - alpha) * y for x, y in zip(a, b)]
            left = flows_on_roads(incs, mixed)
            right = alpha * flows_on_roads(incs, a) + (1 - alpha) * flows_on_roads(incs, b)
            assert np.allclose(left, right, atol=1e-12)

    def test_renumbering_roads_permutes_rows_only(self, delay_net):
        perm = [4, 2, 0, 3, 1]
        renumbered = Network(
            junctions=delay_net.junctions,
            roads=tuple(delay_net.roads[i] for i in perm),
            populations=delay_net.populations,
        )
        incs_a = [build_incidence(delay_net, p) for p in range(2)]
        incs_b = [build_incidence(renumbered, p) for p in range(2)]
        shares = [[0.3, 0.7], [0.6, 0.4]]
        flows_a = flows_on_roads(incs_a, shares)
        flows_b = flows_on_roads(incs_b, shares)
        by_id_a = dict(zip([r.id for r in delay_net.roads], flows_a.tolist()))
        by_id_b = dict(zip([r.id for r in renumbered.roads], flows_b.tolist()))
        assert by_id_a == by_id_b


def test_index_errors_name_the_kind_of_id(delay_net, braess_net):
    stray = Network(
        junctions=(Junction("a"), Junction("b")),
        roads=(Road("r1", "a", "b"),),
        populations=(PopulationSpec("only", "a", "b", (RouteSpec(("r9",)),), {}),),
    )
    for call, message in [
        (lambda: build_incidence(delay_net, 5), "no population at index 5"),
        (lambda: build_incidence(stray, 0), "unknown road 'r9'"),
        (lambda: enumerate_routes(braess_net, "zz", "d"), "unknown junction 'zz'"),
    ]:
        with pytest.raises(NetworkIndexError) as err:
            call()
        assert str(err.value) == message
