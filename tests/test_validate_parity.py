"""`validate_network` against the implementation it replaced.

The reference below is the former validator, kept verbatim apart from its
names and the `no-routes` rule added since: a colour DFS for cycles and a second degree scan for sources and
sinks.  The current one decides both from one set of degree counts, and
must report the same findings in the same order.
"""

from __future__ import annotations

from typing import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from wardrop.costs import Affine, Constant
from wardrop.netcore import (
    Finding,
    Junction,
    Network,
    PopulationSpec,
    Road,
    RouteSpec,
    ValidationReport,
    validate_network,
)


def reference_validate(net: Network) -> ValidationReport:
    findings: list[Finding] = []

    def err(code: str, message: str, *witnesses: str) -> None:
        findings.append(Finding("error", code, message, tuple(witnesses)))

    def warn(code: str, message: str, *witnesses: str) -> None:
        findings.append(Finding("warning", code, message, tuple(witnesses)))

    junction_ids = [j.id for j in net.junctions]
    seen: set[str] = set()
    for jid in junction_ids:
        if jid in seen:
            err("duplicate-id", f"junction id {jid!r} repeats", jid)
        seen.add(jid)
    junctions = set(junction_ids)

    road_ids: list[str] = []
    for road in net.roads:
        if road.id in road_ids:
            err("duplicate-id", f"road id {road.id!r} repeats", road.id)
        road_ids.append(road.id)
        for endpoint in (road.tail, road.head):
            if endpoint not in junctions:
                err(
                    "unknown-junction",
                    f"road {road.id!r} references unknown junction {endpoint!r}",
                    road.id,
                    endpoint,
                )
        if road.tail == road.head:
            err("self-loop", f"road {road.id!r} is a self-loop", road.id)
    roads_by_id = {r.id: r for r in net.roads}

    pop_names = [p.name for p in net.populations]
    for name in pop_names:
        if pop_names.count(name) > 1:
            err("duplicate-id", f"population name {name!r} repeats", name)

    for pop in net.populations:
        if pop.origin not in junctions:
            err("unknown-junction", f"population {pop.name!r} has unknown origin", pop.name, pop.origin)
        if pop.destination not in junctions:
            err("unknown-junction", f"population {pop.name!r} has unknown destination", pop.name, pop.destination)
        if not pop.routes:
            err("no-routes", f"population {pop.name!r} has no routes", pop.name)
        for ri, route in enumerate(pop.routes):
            label = f"{pop.name}:route{ri}"
            if not route.road_ids:
                err("route-empty", f"route {label} is empty", label)
                continue
            missing = [r for r in route.road_ids if r not in roads_by_id]
            if missing:
                err("unknown-road", f"route {label} uses unknown roads {missing}", label, *missing)
                continue
            if len(set(route.road_ids)) != len(route.road_ids):
                err("route-duplicate-road", f"route {label} repeats a road", label)
            for a, b in zip(route.road_ids, route.road_ids[1:]):
                if roads_by_id[a].head != roads_by_id[b].tail:
                    err(
                        "route-adjacency",
                        f"route {label}: head of {a!r} is not tail of {b!r}",
                        label, a, b,
                    )
            if roads_by_id[route.road_ids[0]].tail != pop.origin:
                err("route-endpoints", f"route {label} does not start at the origin", label)
            if roads_by_id[route.road_ids[-1]].head != pop.destination:
                err("route-endpoints", f"route {label} does not end at the destination", label)
        used = {r for route in pop.routes for r in route.road_ids if r in roads_by_id}
        for rid in sorted(used):
            if rid not in pop.costs:
                err("missing-cost", f"population {pop.name!r} has no cost for road {rid!r}", pop.name, rid)
        for rid in sorted(set(pop.costs) - used):
            warn("unused-cost", f"population {pop.name!r} defines a cost for unused road {rid!r}", pop.name, rid)
        for rid, expr in sorted(pop.costs.items()):
            unknown = sorted(expr.populations() - set(pop_names))
            if unknown:
                err(
                    "unknown-cost-population",
                    f"cost for road {rid!r} of {pop.name!r} references unknown populations {unknown}",
                    pop.name, rid, *unknown,
                )
        findings.extend(reference_check_subnetwork(pop, roads_by_id))

    in_deg = {j: 0 for j in junctions}
    out_deg = {j: 0 for j in junctions}
    for road in net.roads:
        if road.tail in junctions:
            out_deg[road.tail] += 1
        if road.head in junctions:
            in_deg[road.head] += 1
    origins = {p.origin for p in net.populations}
    destinations = {p.destination for p in net.populations}
    for jid in sorted(junctions):
        if in_deg[jid] == 0 and out_deg[jid] == 0:
            warn("isolated-junction", f"junction {jid!r} touches no road", jid)
            continue
        if in_deg[jid] == 0 and jid not in origins:
            warn("junction-degree", f"junction {jid!r} has no entering road", jid)
        if out_deg[jid] == 0 and jid not in destinations:
            warn("junction-degree", f"junction {jid!r} has no exiting road", jid)

    ok = not any(f.severity == "error" for f in findings)
    return ValidationReport(ok=ok, findings=tuple(findings))


def reference_check_subnetwork(pop: PopulationSpec, roads_by_id: Mapping[str, Road]) -> list[Finding]:
    findings: list[Finding] = []
    used = [roads_by_id[r] for route in pop.routes for r in route.road_ids if r in roads_by_id]
    if not used:
        return findings
    edges = {(r.tail, r.head, r.id) for r in used}
    nodes = {r.tail for r in used} | {r.head for r in used}

    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for tail, head, _ in edges:
        adj[tail].append(head)

    color = {n: 0 for n in nodes}  # 0 white, 1 gray, 2 black
    acyclic = True

    def visit(node: str) -> None:
        nonlocal acyclic
        stack = [(node, iter(adj[node]))]
        color[node] = 1
        while stack:
            current, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    acyclic = False
                elif color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[current] = 2
                stack.pop()

    for n in sorted(nodes):
        if color[n] == 0:
            visit(n)
    if not acyclic:
        findings.append(
            Finding("error", "not-acyclic", f"subnetwork of {pop.name!r} contains a cycle", (pop.name,))
        )

    undirected: dict[str, set[str]] = {n: set() for n in nodes}
    for tail, head, _ in edges:
        undirected[tail].add(head)
        undirected[head].add(tail)
    reached = {next(iter(sorted(nodes)))}
    frontier = list(reached)
    while frontier:
        n = frontier.pop()
        for m in undirected[n]:
            if m not in reached:
                reached.add(m)
                frontier.append(m)
    if reached != nodes:
        findings.append(
            Finding("error", "not-connected", f"subnetwork of {pop.name!r} is disconnected", (pop.name,))
        )

    sub_in = {n: 0 for n in nodes}
    sub_out = {n: 0 for n in nodes}
    for tail, head, _ in edges:
        sub_out[tail] += 1
        sub_in[head] += 1
    sources = sorted(n for n in nodes if sub_in[n] == 0)
    sinks = sorted(n for n in nodes if sub_out[n] == 0)
    if acyclic and sources != [pop.origin]:
        findings.append(
            Finding(
                "error", "source-sink",
                f"subnetwork of {pop.name!r} has sources {sources}, expected [{pop.origin!r}]",
                (pop.name, *sources),
            )
        )
    if acyclic and sinks != [pop.destination]:
        findings.append(
            Finding(
                "error", "source-sink",
                f"subnetwork of {pop.name!r} has sinks {sinks}, expected [{pop.destination!r}]",
                (pop.name, *sinks),
            )
        )
    return findings


# Junction "z", road "rz" and population "zz" are referenced but never declared.
_ENDPOINTS = st.sampled_from("abcdefz")
_ROAD_IDS = st.sampled_from([f"r{k}" for k in range(8)])
_ROUTE_ROADS = st.sampled_from([f"r{k}" for k in range(8)] + ["rz"])
_COSTS = st.one_of(
    st.just(Constant(1.0)),
    st.builds(Affine, st.just(1.0), st.dictionaries(st.sampled_from(["p", "q", "zz"]), st.just(1.0))),
)
_POPULATIONS = st.builds(
    PopulationSpec,
    st.sampled_from(["p", "q", "s"]),
    _ENDPOINTS,
    _ENDPOINTS,
    st.lists(st.builds(RouteSpec, st.lists(_ROUTE_ROADS, max_size=5)), max_size=4),
    st.dictionaries(_ROUTE_ROADS, _COSTS, max_size=6),
)
NETWORKS = st.builds(
    Network,
    st.lists(st.builds(Junction, st.sampled_from("abcdef")), min_size=1, max_size=8),
    st.lists(st.builds(Road, _ROAD_IDS, _ENDPOINTS, _ENDPOINTS), max_size=10),
    st.lists(_POPULATIONS, min_size=1, max_size=3),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(NETWORKS)
def test_findings_equal_the_reference(net):
    assert validate_network(net) == reference_validate(net)
