"""Shared fixtures and independent oracle helpers for the test suite."""

from __future__ import annotations

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wardrop import fixtures as nets
from wardrop.costs import (
    Affine,
    CongestionRational,
    Constant,
    CostDomainError,
    CostExpr,
    ExtRealGuardError,
    FLOW_TOLERANCE,
    MonomialTerm,
    NonMonotoneAffine,
    Polynomial,
    Scale,
    Sum,
)
from wardrop.netcore import Junction, Network, PopulationSpec, Road, RouteSpec

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("layered", ROOT / "bench" / "layered.py")
_layered = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_layered)
layered = _layered.layered  # the benchmark's synthetic family


@pytest.fixture(scope="session")
def delay_net() -> Network:
    return nets.delay_spillover()


@pytest.fixture(scope="session")
def corridor_net() -> Network:
    return nets.congestion_corridor()


@pytest.fixture(scope="session")
def braess_net() -> Network:
    return nets.braess_base()


@pytest.fixture(scope="session")
def braess5_net() -> Network:
    return nets.braess_augmented()


@pytest.fixture(scope="session")
def merge_net() -> Network:
    return nets.merge_base()


@pytest.fixture(scope="session")
def merge6_net() -> Network:
    return nets.merge_linked()


@pytest.fixture(scope="session")
def pathological_net() -> Network:
    return nets.nonmonotone_pair()


def flat_network() -> Network:
    """Two populations on roads of their own, every cost 1: every assignment
    is Nash."""
    return Network(
        junctions=(Junction("a"), Junction("b"), Junction("c"), Junction("d")),
        roads=(Road("r1", "a", "b"), Road("r2", "a", "b"),
               Road("r3", "c", "d"), Road("r4", "c", "d")),
        populations=tuple(
            PopulationSpec(name, o, d, (RouteSpec((r,)), RouteSpec((q,))),
                           {r: Constant(1.0), q: Constant(1.0)})
            for name, o, d, r, q in [("east", "a", "b", "r1", "r2"),
                                     ("west", "c", "d", "r3", "r4")]
        ),
    )


def parallel_network(routes: int) -> Network:
    """Two populations from a to b on the same `routes` parallel roads, each
    road a route of its own, with affine costs: every sampled pair is finite."""
    roads = tuple(Road(f"r{k}", "a", "b") for k in range(routes))
    return Network(
        junctions=(Junction("a"), Junction("b")),
        roads=roads,
        populations=tuple(
            PopulationSpec(name, "a", "b", tuple(RouteSpec((r.id,)) for r in roads),
                           {r.id: Affine(1.0 + k, {name: 2.0, other: 0.5}) for k, r in enumerate(roads)})
            for name, other in [("east", "west"), ("west", "east")]
        ),
    )


def blocking_network() -> Network:
    """A takes r1 or r2, each at cost 1; B takes r1, at A's load / (1 - A's
    load), or r3 at cost 1.  Every split of A is Nash for A, and where A is
    all on r1, B's time on r1 is infinite."""
    return Network(
        junctions=(Junction("a"), Junction("b")),
        roads=(Road("r1", "a", "b"), Road("r2", "a", "b"), Road("r3", "a", "b")),
        populations=(
            PopulationSpec("A", "a", "b", (RouteSpec(("r1",)), RouteSpec(("r2",))),
                           {"r1": Constant(1.0), "r2": Constant(1.0)}),
            PopulationSpec("B", "a", "b", (RouteSpec(("r1",)), RouteSpec(("r3",))),
                           {"r1": CongestionRational({"A": 1.0}, 1.0), "r3": Constant(1.0)}),
        ),
    )


def left_sum(values) -> float:
    """The left-to-right sum from 0.0 that the program's sums equal bit for
    bit; Python's `sum` of floats compensates from 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


def reference_cost(expr: CostExpr, flows) -> float:
    """The scalar tree walk that `CostProgram` equals bit for bit (math.inf
    at blow-ups).  Flows outside [0, 1] by more than FLOW_TOLERANCE, or
    missing, raise `CostDomainError`, the rest are clamped into it; then the
    left-to-right sum from 0 of multiplier * leaf value over `_terms()`,
    raising at the first leaf that fails: a negative non-monotone value, or
    a zero multiplier of an infinite one (`ExtRealGuardError`)."""
    clean = {}
    for name in expr.populations():
        if name not in flows:
            raise CostDomainError(f"no flow supplied for population {name!r}")
        value = float(flows[name])
        if not -FLOW_TOLERANCE <= value <= 1 + FLOW_TOLERANCE:  # NaN included
            raise CostDomainError(f"flow {value} for {name!r} outside [0, 1]")
        clean[name] = min(1.0, max(0.0, value))
    total = 0.0
    for factor, leaf in expr._terms():
        if isinstance(leaf, MonomialTerm):
            v = leaf.coeff
            for n, k in leaf.exponents.items():
                v *= clean[n] ** k
        elif isinstance(leaf, CongestionRational):
            s = left_sum(w * clean[n] for n, w in leaf.weights.items())
            v = math.inf if s >= leaf.capacity else s / (leaf.capacity - s)
        elif isinstance(leaf, Constant):
            v = leaf.value
        else:  # Affine or NonMonotoneAffine
            v = leaf.constant + left_sum(c * clean[n] for n, c in leaf.coeffs.items())
            if isinstance(leaf, NonMonotoneAffine) and v < 0:
                raise CostDomainError(f"non-monotone affine cost evaluated negative ({v})")
        if factor == 0 and math.isinf(v):
            raise ExtRealGuardError("0 * inf is not defined")
        total += factor * v
    return total


def rational_rank(matrix: np.ndarray) -> int:
    """Exact matrix rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(int(x)) for x in row] for row in matrix]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next(
            (r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def random_monotone_expr(rng: np.random.Generator, pop_names: list[str], depth: int = 0) -> CostExpr:
    """A random cost expression from the monotone forms (class-C by design)."""
    kinds = ["constant", "affine", "poly", "congestion"]
    if depth < 2:
        kinds += ["sum", "scale"]
    kind = kinds[rng.integers(len(kinds))]
    if kind == "constant":
        return Constant(float(rng.uniform(0, 5)))
    if kind == "affine":
        return Affine(
            float(rng.uniform(0, 3)),
            {n: float(rng.uniform(0, 3)) for n in pop_names if rng.random() < 0.8},
        )
    if kind == "poly":
        terms = []
        for _ in range(rng.integers(1, 4)):
            exps = {n: int(rng.integers(0, 4)) for n in pop_names if rng.random() < 0.7}
            terms.append(MonomialTerm(float(rng.uniform(0, 2)), exps))
        return Polynomial(tuple(terms))
    if kind == "congestion":
        return CongestionRational(
            {n: float(rng.uniform(0, 1)) for n in pop_names},
            float(rng.uniform(2.5, 4.0)),  # capacity above any reachable load
        )
    if kind == "sum":
        return Sum(
            tuple(
                random_monotone_expr(rng, pop_names, depth + 1)
                for _ in range(rng.integers(2, 4))
            )
        )
    return Scale(float(rng.uniform(0, 2)), random_monotone_expr(rng, pop_names, depth + 1))


def random_cost_network(rng: np.random.Generator) -> Network:
    """The diamond topology with freshly randomized monotone class-C1 costs.

    Congestion capacities stay above the worst-case road load, so every
    evaluation is finite: convenient for derivative and segment tests.
    """
    names = ["first", "second"]
    routes = (RouteSpec(("r2", "r3")), RouteSpec(("r1", "r4")))
    pops = []
    for name in names:
        costs = {
            rid: random_monotone_expr(rng, names) for rid in ("r1", "r2", "r3", "r4")
        }
        pops.append(PopulationSpec(name, "o", "d", routes, costs))
    return Network(
        junctions=(Junction("o"), Junction("a"), Junction("b"), Junction("d")),
        roads=(
            Road("r1", "o", "b"),
            Road("r2", "o", "a"),
            Road("r3", "a", "d"),
            Road("r4", "b", "d"),
        ),
        populations=tuple(pops),
    )


def random_assignment(rng: np.random.Generator, net: Network):
    from wardrop.equilibrium import Assignment

    return Assignment.make(
        [rng.dirichlet(np.ones(len(pop.routes))) for pop in net.populations],
        tolerance=1e-9,
    )


def all_vertex_assignments(net: Network):
    from wardrop.equilibrium import vertex_assignment

    counts = [len(p.routes) for p in net.populations]
    for combo in itertools.product(*(range(n) for n in counts)):
        yield vertex_assignment(net, combo)


def nested_times(core, shares, pop: int | None = None, vector=None) -> list[list[float]]:
    """Per-population route times (math.inf allowed) of one assignment or
    nested share lists on the compiled network `core`, with population
    `pop`'s share vector replaced by `vector` if `pop` is given."""
    shares = list(getattr(shares, "shares", shares))
    if pop is not None:
        shares[pop] = vector
    return core.unpack(core.times(core.pack(shares)))
