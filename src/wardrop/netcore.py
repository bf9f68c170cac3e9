"""Network data model: junctions, one-way roads, routes, populations.

A network is a set of one-way roads between junctions plus one or more
traveler populations.  Each population has an origin, a destination, an
ordered list of routes (route order is authoritative: share vectors index
it), and a cost expression for every road its routes use.  Each
population's subnetwork must be a connected DAG with the origin as unique
source and the destination as unique sink.

All values here are immutable after construction and all operations are
pure, so concurrent readers need no coordination.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .costs import CostExpr


class NetworkIndexError(KeyError):
    """An unknown junction id, road id, or population index was referenced."""

    def __str__(self) -> str:  # the message, not KeyError's repr of it
        return Exception.__str__(self)


@dataclass(frozen=True, slots=True)
class Junction:
    id: str


@dataclass(frozen=True, slots=True)
class Road:
    """A one-way road from junction `tail` to junction `head`."""

    id: str
    tail: str
    head: str


@dataclass(frozen=True, slots=True)
class RouteSpec:
    """An ordered tuple of adjacent, pairwise-distinct road ids."""

    road_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "road_ids", tuple(self.road_ids))


@dataclass(frozen=True, slots=True)
class PopulationSpec:
    """One traveler class: origin/destination, routes and per-road costs."""

    name: str
    origin: str
    destination: str
    routes: tuple[RouteSpec, ...]
    costs: Mapping[str, CostExpr] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "routes", tuple(self.routes))
        object.__setattr__(self, "costs", dict(self.costs))

    def road_ids(self) -> set[str]:
        return {r for route in self.routes for r in route.road_ids}


@dataclass(frozen=True)
class Network:
    junctions: tuple[Junction, ...]
    roads: tuple[Road, ...]
    populations: tuple[PopulationSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "junctions", tuple(self.junctions))
        object.__setattr__(self, "roads", tuple(self.roads))
        object.__setattr__(self, "populations", tuple(self.populations))

    def road_index(self) -> dict[str, int]:
        return {r.id: i for i, r in enumerate(self.roads)}

    def population_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.populations)

    def population(self, index: int) -> PopulationSpec:
        if not 0 <= index < len(self.populations):
            raise NetworkIndexError(f"no population at index {index}")
        return self.populations[index]


@dataclass(frozen=True, slots=True)
class Finding:
    severity: str  # "error" | "warning"
    code: str
    message: str
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class ValidationReport:
    ok: bool
    findings: tuple[Finding, ...]


@dataclass(frozen=True, slots=True)
class IncidenceMatrix:
    """0/1 matrix, rows = network roads in order, columns = routes in order."""

    road_ids: tuple[str, ...]
    entries: np.ndarray  # shape (N, n), dtype int8; treat as read-only


def validate_network(net: Network) -> ValidationReport:
    """Check every structural invariant; problems become findings, not raises.

    Error-level rules: unique ids, known endpoints, no self-loops, at least
    one route per population, route adjacency, distinct roads per route,
    origin/destination endpoints, per-population connected-DAG with unique
    source/sink, costs defined for every used road, cost coefficients
    naming known populations.  Degree anomalies in the union network are
    warnings.
    """
    findings: list[Finding] = []

    def err(code: str, message: str, *witnesses: str) -> None:
        findings.append(Finding("error", code, message, tuple(witnesses)))

    def warn(code: str, message: str, *witnesses: str) -> None:
        findings.append(Finding("warning", code, message, tuple(witnesses)))

    junctions: set[str] = set()
    for junction in net.junctions:
        if junction.id in junctions:
            err("duplicate-id", f"junction id {junction.id!r} repeats", junction.id)
        junctions.add(junction.id)

    roads_by_id: dict[str, Road] = {}
    for road in net.roads:
        if road.id in roads_by_id:
            err("duplicate-id", f"road id {road.id!r} repeats", road.id)
        roads_by_id[road.id] = road
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

    pop_names = Counter(p.name for p in net.populations)
    for pop in net.populations:
        if pop_names[pop.name] > 1:
            err("duplicate-id", f"population name {pop.name!r} repeats", pop.name)

    for pop in net.populations:
        if pop.origin not in junctions:
            err("unknown-junction", f"population {pop.name!r} has unknown origin", pop.name, pop.origin)
        if pop.destination not in junctions:
            err("unknown-junction", f"population {pop.name!r} has unknown destination", pop.name, pop.destination)
        if not pop.routes:
            err("no-routes", f"population {pop.name!r} has no routes", pop.name)
        used: dict[str, Road | None] = {}  # the roads of the routes, None if unknown
        before = len(findings)
        for ri, route in enumerate(pop.routes):
            ids = route.road_ids
            roads = [roads_by_id.get(rid) for rid in ids]
            used.update(zip(ids, roads))
            label = f"{pop.name}:route{ri}"
            if not ids:
                err("route-empty", f"route {label} is empty", label)
                continue
            if not all(roads):
                missing = [rid for rid, road in zip(ids, roads) if road is None]
                err("unknown-road", f"route {label} uses unknown roads {missing}", label, *missing)
                continue
            if len(set(ids)) != len(ids):
                err("route-duplicate-road", f"route {label} repeats a road", label)
            for a, b in zip(roads, roads[1:]):
                if a.head != b.tail:
                    err(
                        "route-adjacency",
                        f"route {label}: head of {a.id!r} is not tail of {b.id!r}",
                        label, a.id, b.id,
                    )
            if roads[0].tail != pop.origin:
                err("route-endpoints", f"route {label} does not start at the origin", label)
            if roads[-1].head != pop.destination:
                err("route-endpoints", f"route {label} does not end at the destination", label)
        routed = len(findings) == before  # every route runs from the origin to the destination
        known = {rid: road for rid, road in used.items() if road is not None}
        for rid in sorted(known.keys() - pop.costs.keys()):
            err("missing-cost", f"population {pop.name!r} has no cost for road {rid!r}", pop.name, rid)
        for rid in sorted(pop.costs.keys() - known.keys()):
            warn("unused-cost", f"population {pop.name!r} defines a cost for unused road {rid!r}", pop.name, rid)
        strangers = [(rid, e.populations() - pop_names.keys()) for rid, e in pop.costs.items()]
        for rid, unknown in sorted((rid, sorted(names)) for rid, names in strangers if names):
            err(
                "unknown-cost-population",
                f"cost for road {rid!r} of {pop.name!r} references unknown populations {unknown}",
                pop.name, rid, *unknown,
            )
        _check_subnetwork(pop, known.values(), err, routed)

    # Union-network degree rule: every junction should have at least one
    # entering and one exiting road, except on the side where it serves as
    # some population's origin (entering) or destination (exiting).
    heads = {road.head for road in net.roads}
    tails = {road.tail for road in net.roads}
    origins = {p.origin for p in net.populations}
    destinations = {p.destination for p in net.populations}
    for jid in sorted(junctions):
        if jid not in heads and jid not in tails:
            warn("isolated-junction", f"junction {jid!r} touches no road", jid)
            continue
        if jid not in heads and jid not in origins:
            warn("junction-degree", f"junction {jid!r} has no entering road", jid)
        if jid not in tails and jid not in destinations:
            warn("junction-degree", f"junction {jid!r} has no exiting road", jid)

    ok = not any(f.severity == "error" for f in findings)
    return ValidationReport(ok=ok, findings=tuple(findings))


def _check_subnetwork(pop: PopulationSpec, used: Iterable[Road], err: Callable[..., None], routed: bool) -> None:
    """Connected-DAG / unique-source / unique-sink checks for one population
    on the known roads its routes use; if every route is `routed` from the
    origin to the destination, only a cycle can leave a second source or sink."""
    successors: dict[str, list[str]] = {}
    entering: dict[str, int] = {}  # roads entering each junction
    for road in used:
        successors.setdefault(road.tail, []).append(road.head)
        successors.setdefault(road.head, [])
        entering[road.head] = entering.get(road.head, 0) + 1
    if not successors:
        return
    sources = sorted(n for n in successors if n not in entering)

    # Kahn: acyclic exactly when deleting the junctions that no remaining
    # road enters deletes them all.
    ready, deleted = list(sources), 0
    while ready:
        deleted += 1
        for head in successors[ready.pop()]:
            entering[head] -= 1
            if not entering[head]:
                ready.append(head)
    acyclic = deleted == len(successors)
    if not acyclic:
        err("not-acyclic", f"subnetwork of {pop.name!r} contains a cycle", pop.name)
    if routed:
        return

    # Weak connectivity.
    neighbours = {n: list(heads) for n, heads in successors.items()}
    for n, heads in successors.items():
        for head in heads:
            neighbours[head].append(n)
    reached = {min(successors)}
    frontier = list(reached)
    while frontier:
        for m in neighbours[frontier.pop()]:
            if m not in reached:
                reached.add(m)
                frontier.append(m)
    if len(reached) != len(successors):
        err("not-connected", f"subnetwork of {pop.name!r} is disconnected", pop.name)

    sinks = sorted(n for n, heads in successors.items() if not heads)
    ends = (("sources", sources, pop.origin), ("sinks", sinks, pop.destination))
    for kind, found, expected in ends:
        if acyclic and found != [expected]:
            err(
                "source-sink",
                f"subnetwork of {pop.name!r} has {kind} {found}, expected [{expected!r}]",
                pop.name, *found,
            )


def build_incidence(net: Network, population: int) -> IncidenceMatrix:
    """0/1 road-by-route incidence for one population.

    Row order is the network road order, column order the population route
    order, both deterministic.
    """
    pop = net.population(population)
    index = net.road_index()
    entries = np.zeros((len(net.roads), len(pop.routes)), dtype=np.int8)
    for col, route in enumerate(pop.routes):
        for rid in route.road_ids:
            try:
                entries[index[rid], col] = 1
            except KeyError:
                raise NetworkIndexError(f"unknown road {rid!r}") from None
    return IncidenceMatrix(road_ids=tuple(r.id for r in net.roads), entries=entries)


def check_condition_gamma(net: Network, population: int) -> tuple[bool, dict[int, str]]:
    """Does every route own a road used by no other route of this population?

    Returns (holds, witnesses) where witnesses maps route index to the first
    distinguishing road in route order; routes without one are absent.
    Holding implies the incidence matrix has full column rank.
    """
    pop = net.population(population)
    inc = build_incidence(net, population)
    row_of = {rid: i for i, rid in enumerate(inc.road_ids)}
    row_sums = inc.entries.sum(axis=1)
    witnesses: dict[int, str] = {}
    for col, route in enumerate(pop.routes):
        for rid in route.road_ids:
            if row_sums[row_of[rid]] == 1:
                witnesses[col] = rid
                break
    return len(witnesses) == len(pop.routes), witnesses


def enumerate_routes(net: Network, origin: str, destination: str) -> list[RouteSpec]:
    """All simple directed road paths from origin to destination.

    Deterministic: output is sorted lexicographically by road-id tuple, and
    repeated calls are bit-identical.  The subgraph between the endpoints is
    expected to be acyclic (junction-simple paths are enumerated, so cycles
    are never followed).
    """
    junctions = {j.id for j in net.junctions}
    if origin not in junctions:
        raise NetworkIndexError(f"unknown junction {origin!r}")
    if destination not in junctions:
        raise NetworkIndexError(f"unknown junction {destination!r}")
    if origin == destination:
        return []
    outgoing: dict[str, list[Road]] = {}
    for road in net.roads:
        outgoing.setdefault(road.tail, []).append(road)
    for roads in outgoing.values():
        roads.sort(key=lambda r: r.id)

    found: list[tuple[str, ...]] = []
    path: list[str] = []
    visited = {origin}

    def walk(node: str) -> None:
        if node == destination:
            found.append(tuple(path))
            return
        for road in outgoing.get(node, []):
            if road.head in visited:
                continue
            visited.add(road.head)
            path.append(road.id)
            walk(road.head)
            path.pop()
            visited.discard(road.head)

    walk(origin)
    found.sort()
    return [RouteSpec(p) for p in found]


def flows_on_roads(
    incidences: Sequence[IncidenceMatrix],
    shares: Sequence[Sequence[float]],
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Per-road, per-population flows induced by route shares.

    flows[h, p] is the mass of population p on road h, the left-to-right
    sum of the shares of p's routes through h, as the compiled network
    forms it.  Each share vector must lie on its simplex within
    `tolerance`; flows are linear in the shares and land in [0, 1].
    """
    if hasattr(shares, "shares"):  # accept an Assignment as-is
        shares = shares.shares
    if len(incidences) != len(shares):
        raise ValueError(
            f"{len(incidences)} incidence matrices but {len(shares)} share vectors"
        )
    width = 1 + max([0] + [inc.entries.shape[1] for inc in incidences])
    roads = len(incidences[0].entries) if incidences else 0
    padded = np.zeros((len(shares), width))
    columns = [[] for _ in range(len(shares) * roads + 1)]  # each flow row's flat routes, then padding
    for p, (inc, theta) in enumerate(zip(incidences, shares)):
        vec = np.asarray(theta, dtype=float)
        if vec.shape != (inc.entries.shape[1],):
            raise ValueError(
                f"share vector of shape {vec.shape} does not match {inc.entries.shape[1]} routes"
            )
        if not np.isfinite(vec).all():
            raise ValueError(f"share vector has a non-finite component in {vec.tolist()}")
        if abs(vec.sum() - 1.0) > tolerance:
            raise ValueError(f"share vector sums to {vec.sum()}, not 1")
        if (vec < -tolerance).any():
            raise ValueError("share vector has a negative component")
        padded[p, : len(vec)] = np.clip(vec, 0.0, None)
        for h, j in zip(*(a.tolist() for a in inc.entries.nonzero())):  # by road, then route
            columns[p * roads + h].append(p * width + j)
    from .compiled import _gather_sum, _padded

    flows = _gather_sum(padded.reshape(-1), _padded(columns, width - 1)[:, :-1])
    return flows.reshape(len(shares), -1).T
