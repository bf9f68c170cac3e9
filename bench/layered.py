"""Seeded synthetic networks: layered o -> d DAGs with per-population costs.

`layered(width, depth, populations, seed, member)` builds junction `o`, `depth`
layers of `width` junctions each, and junction `d`, with a road from every
junction of one layer to every junction of the next.  Every population
travels o -> d on every simple route (`netcore.enumerate_routes`), and has its own
cost on every road: an affine cost or a congestion cost.  Congestion
capacities lie below the road's peak load (every population on it at
once), so corner assignments see +inf times.

`member` picks the family member, that is its base costs, and `seed`
perturbs every cost parameter by up to +-5%, so that different
seeds pose different numbers for about the same work (iterations to
tolerance move by a few percent, where independent draws move them by tens
of percent and would drown any change being measured).  Costs are
load-dominated (small free-flow constants, steep own-flow slopes); the
heavy-tailed slow solves stay covered by the shipped fixtures.  Only public
constructors are used, and the same arguments give byte-identical
documents through `fileio.save_network`.
"""

from __future__ import annotations

import random

from wardrop import Affine, CongestionRational, Junction, Network, PopulationSpec, Road, netcore


JITTER = 0.05


def layered(width: int, depth: int, populations: int, seed: int, member: int = 0) -> Network:
    if width < 1 or depth < 1 or populations < 1:
        raise ValueError("width, depth and populations must be positive")
    rng = random.Random(f"layered/{width}/{depth}/{populations}/{member}")
    jitter = random.Random(f"jitter/{width}/{depth}/{populations}/{member}/{seed}")
    layers = [["o"]]
    layers += [[f"n{level}_{k}" for k in range(width)] for level in range(1, depth + 1)]
    layers += [["d"]]
    junctions = tuple(Junction(j) for layer in layers for j in layer)
    roads: list[Road] = []
    for tails, heads in zip(layers, layers[1:]):
        for tail in tails:
            for head in heads:
                roads.append(Road(f"e{len(roads):03d}", tail, head))
    routes = tuple(netcore.enumerate_routes(Network(junctions, tuple(roads), ()), "o", "d"))
    names = [f"p{i}" for i in range(populations)]

    def draw(low: float, high: float) -> float:
        return round(rng.uniform(low, high) * (1 + jitter.uniform(-JITTER, JITTER)), 6)

    specs = []
    for name in names:
        costs = {}
        for road in roads:
            if rng.random() < 0.5:
                coeffs = {q: draw(2.0, 2.4) if q == name else draw(0.5, 0.7) for q in names}
                costs[road.id] = Affine(draw(0.2, 0.3), coeffs)
            else:
                weights = {q: draw(1.0, 1.2) if q == name else draw(0.25, 0.35) for q in names}
                capacity = round(draw(0.7, 0.8) * sum(weights.values()), 6)
                costs[road.id] = CongestionRational(weights, capacity)
        specs.append(PopulationSpec(name, "o", "d", routes, costs))
    return Network(junctions, tuple(roads), tuple(specs))


def with_express(net: Network, seed: int) -> Network:
    """The same network plus a direct o -> d road that every population may
    take: the scenario `compare` weighs against the plain network."""
    rng = random.Random(f"express/{seed}")
    express = Road("express", "o", "d")

    def draw(value: float) -> float:
        return round(value * (1 + rng.uniform(-JITTER, JITTER)), 6)

    specs = []
    for pop in net.populations:
        routes = pop.routes + tuple(netcore.enumerate_routes(
            Network(net.junctions, (express,), ()), "o", "d"))
        costs = dict(pop.costs)
        costs["express"] = Affine(draw(1.75), {pop.name: draw(3.5)})
        specs.append(PopulationSpec(pop.name, pop.origin, pop.destination, routes, costs))
    return Network(net.junctions, net.roads + (express,), tuple(specs))
