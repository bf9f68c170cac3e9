"""The eps-shift gains equal the whole-network batch, bit for bit.

`reference_eps_gains` evaluates every shifted assignment over the whole
network, all on one batch axis.  `CompiledNetwork.eps_gains` does the same
through one `times` batch where the shifts fit one evaluation (`_chunk`),
and road by road where they do not: both sides must return the same four
arrays, or raise the same error class where the reference raises.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from wardrop import fixtures as nets
from wardrop.cli import main
from wardrop.compiled import compile_network
from wardrop.costs import (
    Affine,
    CongestionRational,
    Constant,
    CostDomainError,
    ExtRealGuardError,
    NonMonotoneAffine,
    Scale,
    Sum,
)
from wardrop.equilibrium import INPUT_TOLERANCE, Assignment, default_eps, uniform_assignment, verify
from wardrop.fileio import save_network
from wardrop.netcore import Junction, Network, PopulationSpec, Road, RouteSpec

from conftest import layered, reference_cost
from test_compiled import EVALUATION_ERRORS, SETTINGS, assignments, networks, program_error, raised

FIXTURES = [
    "nonmonotone_pair",
    "delay_spillover",
    "congestion_corridor",
    "braess_base",
    "braess_augmented",
    "merge_base",
    "merge_linked",
]
LAYERED = [(3, 2, 2), (5, 2, 2), (3, 3, 2)]


def whole_times(core, x: np.ndarray) -> np.ndarray:
    """`core.times` of a batch in one piece, not in chunks, so that every
    sign is checked before any 0 * inf, as `CostProgram.values` orders them."""
    flat = x.reshape((core.pop_count * core.width,) + x.shape[2:])
    gathered = core.program.values(core._flows(flat))[core._route_gather]
    total = gathered[0] + 0.0
    for row in gathered[1:]:
        total += row
    return total.reshape(x.shape)


def feasible(core, x, eps) -> np.ndarray:
    """Which of `core._shifts` move eps from a route that holds it."""
    p, i, _ = core._shifts
    return x[p, i] >= eps - INPUT_TOLERANCE


def reference_eps_gains(core, x, t, eps):
    """Every feasible mass shift of one assignment, evaluated as one batch of
    shifted assignments, each over the whole network."""
    p, i, j = core._shifts[:, feasible(core, x, eps)]
    rows = np.arange(len(p))
    batch = np.repeat(x[..., None], len(p), axis=-1)
    batch[p, i, rows] = np.maximum(x[p, i] - eps, 0.0)
    batch[p, j, rows] = x[p, j] + eps
    after = whole_times(core, batch)[p, j, rows]
    before = t[p, i]
    saving = np.subtract(before, after, out=np.full(len(p), -np.inf), where=after < np.inf)
    gain = saving / np.maximum(1.0, np.where(before < np.inf, before, 1.0))
    return p, i, j, gain


@contextlib.contextmanager
def chunked(core, chunk: int):
    """`core` evaluating at most `chunk` assignments at once, as built
    after; yields the batch shapes of its `times` calls meanwhile."""
    built, times, batches = core._chunk, core.times, []
    core._chunk = chunk
    core.times = lambda x: batches.append(x.shape[2:]) or times(x)
    try:
        yield batches
    finally:
        core._chunk = built
        del core.times


def assert_gains_equal_the_reference(net: Network, theta: Assignment, eps_values) -> bool:
    """Each eps of `eps_values` alone, on both sides of the size rule: with
    every feasible shift in one `times` batch, and with one shift too many
    for it, road by road.  False, and nothing checked, where the assignment
    itself fails to evaluate."""
    core = compile_network(net)
    x = core.pack(theta)
    t, error = raised(core.times, x)
    if error is not None:
        return False
    for eps in eps_values:
        expected, error = raised(reference_eps_gains, core, x, t, eps)
        count = int(np.count_nonzero(feasible(core, x, eps)))
        for chunk in (count, count - 1):
            with chunked(core, chunk) as batches:
                if error is None:
                    got = core.eps_gains(x, t, eps)
                    assert len(got) == len(expected) == 4
                    for a, b in zip(got, expected):
                        assert a.dtype == b.dtype and np.array_equal(a, b)
                else:
                    with pytest.raises(EVALUATION_ERRORS) as info:
                        core.eps_gains(x, t, eps)
                    assert info.type is error
            assert batches == ([(count,)] if chunk == count else [])
    return True


@SETTINGS
@given(st.data())
def test_point_evaluations_equal_the_reference(data):
    # `CostProgram.at`: a cost slot at a flow point with one row patched, K at once
    net = data.draw(networks())
    core = compile_network(net)
    base = core._flows(core.pack(data.draw(assignments(net))).ravel())
    names, roads = net.population_names(), core.road_count
    costed = [(p, h) for p in range(core.pop_count) for h in range(roads)
              if core.cost_slots[p, h] != core.program.zero_slot]
    picks = data.draw(st.lists(st.sampled_from(costed), min_size=1, max_size=6))
    rows = [data.draw(st.integers(0, core.pop_count - 1)) * roads + h for _, h in picks]
    patched = [data.draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0))) for _ in picks]
    expected, errors = [], set()
    for (p, h), row, value in zip(picks, rows, patched):
        flows = base.copy()
        flows[row] = value
        point = {name: flows[q * roads + h] for q, name in enumerate(names)}
        expr = net.populations[p].costs[net.roads[h].id]
        cost, error = raised(reference_cost, expr, point)
        expected.append(cost)
        errors.add(error and program_error(expr, point, error))
    slots = np.array([core.cost_slots[p, h] for p, h in picks])
    evaluate = functools.partial(core.program.at, slots, base, np.array(rows), np.array(patched))
    if errors == {None}:
        assert evaluate().tolist() == expected
    else:  # every sign is checked first, at every point
        with pytest.raises(EVALUATION_ERRORS) as info:
            evaluate()
        assert info.type is (CostDomainError if CostDomainError in errors else ExtRealGuardError)


def ladders(theta: Assignment) -> list[list[float]]:
    eps = default_eps(theta)
    return [[eps], [eps, eps / 2, eps / 4], [1.0], [0.1, 0.05, 0.025]]


def points(net: Network, seed: int, count: int) -> list[Assignment]:
    """The barycenter and `count` seeded interior points."""
    rng = np.random.default_rng(seed)
    drawn = [
        Assignment.make([rng.dirichlet(np.ones(len(pop.routes))) for pop in net.populations],
                        tolerance=1e-9)
        for _ in range(count)
    ]
    return [uniform_assignment(net), *drawn]


def vertices(net: Network) -> list[Assignment]:
    corners = itertools.product(*(range(len(pop.routes)) for pop in net.populations))
    return [
        Assignment.make([[float(k == c) for k in range(len(pop.routes))]
                         for pop, c in zip(net.populations, combo)])
        for combo in corners
    ]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_gains_equal_the_reference(name):
    net = getattr(nets, name)()
    for theta in vertices(net) + points(net, seed=7, count=4):
        for eps_values in ladders(theta):
            assert_gains_equal_the_reference(net, theta, eps_values)


@pytest.mark.parametrize("shape", LAYERED, ids=str)
def test_layered_gains_equal_the_reference(shape):
    net = layered(*shape, seed=0)
    for theta in points(net, seed=3, count=1):
        eps = default_eps(theta)
        for eps_values in ([eps], [eps, eps / 2], [0.02]):
            assert assert_gains_equal_the_reference(net, theta, eps_values)


@SETTINGS
@given(st.data())
def test_drawn_gains_equal_the_reference(data):
    net = data.draw(networks())
    theta = data.draw(assignments(net))
    eps = data.draw(st.sampled_from([1.0, 0.5, 0.1, 1e-3]))
    ladder = data.draw(st.booleans())
    assume(assert_gains_equal_the_reference(net, theta, [eps, eps / 2, eps / 4] if ladder else [eps]))


@SETTINGS
@given(st.data())
def test_drawn_gains_of_costs_that_cannot_raise_equal_the_reference(data):
    # road by road, no point is evaluated for its errors alone, and the
    # roads of j that i does not use take the per-route values
    net = data.draw(networks(raising=False))
    theta = data.draw(assignments(net))
    eps = data.draw(st.sampled_from([1.0, 0.5, 0.1, 1e-3]))
    ladder = data.draw(st.booleans())
    assert assert_gains_equal_the_reference(net, theta, [eps, eps / 2, eps / 4] if ladder else [eps])


def _parallel(costs: list, b_costs: list | None = None) -> Network:
    """Population a (and b, if given costs) between o and d on parallel
    roads r0, r1, ..., one route each."""
    roads = tuple(Road(f"r{k}", "o", "d") for k in range(len(costs)))
    routes = tuple(RouteSpec((road.id,)) for road in roads)
    pops = [PopulationSpec("a", "o", "d", routes, {road.id: c for road, c in zip(roads, costs)})]
    if b_costs is not None:
        pops.append(PopulationSpec("b", "o", "d", routes, {road.id: c for road, c in zip(roads, b_costs)}))
    return Network((Junction("o"), Junction("d")), roads, tuple(pops))


def _blowing(capacity: float) -> Sum:
    """a's load, plus 0 times a congestion cost that blows up at `capacity`."""
    return Sum((Affine(1.0, {"a": 1.0}), Scale(0.0, CongestionRational({"a": 1.0}, capacity))))


SINKS = Affine(1.0, {"a": 1.0})  # a's own cost, never raising
FALLING = NonMonotoneAffine(-0.2, {"a": 1.0})  # negative once a's flow drops below 0.2


# (network, eps, error) at even splits.  Moving 0.4 of a from r0 (route i)
# to r1 (route j):
BUILT = {
    # a's own cost on a road of i, which j does not use, turns negative
    "own-cost-on-i": (_parallel([FALLING, SINKS]), 0.4, CostDomainError),
    # b's cost on a road of a's route i reads a's flow and turns negative
    "other-cost-on-i": (_parallel([SINKS, SINKS], [FALLING, Constant(1.0)]), 0.4, CostDomainError),
    # the same shift turns i's cost negative and blows up j's zero-scaled load: signs first
    "sign-and-guard": (_parallel([FALLING, _blowing(0.8)]), 0.4, CostDomainError),
    "guard-alone": (_parallel([SINKS, _blowing(0.8)]), 0.4, ExtRealGuardError),
    # b's zero-scaled load on a's route j blows up
    "other-guard-on-j": (_parallel([SINKS, SINKS], [Constant(1.0), _blowing(0.8)]), 0.4, ExtRealGuardError),
    # 40 routes, 1,560 shifts, more than one batch of `times` holds: every shift
    # into r1 blows up its zero-scaled load, and only the last ones, out of r39,
    # turn r39's cost negative; signs are still checked first
    "sign-after-guard": (_parallel([SINKS, _blowing(0.04)] + [SINKS] * 37
                                   + [NonMonotoneAffine(-0.02, {"a": 1.0})]), 0.025, CostDomainError),
}


@pytest.mark.parametrize("name", BUILT)
def test_built_errors_equal_the_reference(name, tmp_path):
    net, eps, error = BUILT[name]
    shares = [[1 / len(pop.routes)] * len(pop.routes) for pop in net.populations]
    theta = Assignment.make(shares)
    assert raised(reference_eps_gains, *_evaluated(net, theta), eps)[1] is error
    assert assert_gains_equal_the_reference(net, theta, [eps])
    # the CLI maps a negative cost to exit 4 and 0 * inf to exit 2, whichever else occurs
    save_network(net, tmp_path / "net.json")
    (tmp_path / "shares.json").write_text(json.dumps({pop.name: v for pop, v in zip(net.populations, shares)}))
    code = main(["verify", str(tmp_path / "net.json"), str(tmp_path / "shares.json"), "--eps", str(eps)])
    assert code == (4 if error is CostDomainError else 2)


@pytest.mark.parametrize("cost", [NonMonotoneAffine(0.95, {"a": -1.0}), _blowing(0.95)], ids=["sign", "guard"])
def test_costs_that_can_raise_are_evaluated_only_at_feasible_shifts(cost):
    # Routes r0-r3 start on road R, r4 and r5 on road S; each ends on a road
    # of its own.  At shares 0.225 on R's routes and 0.05 on S's, only R's
    # routes hold eps = 0.1, so no shift moves 0.1 onto road R from outside:
    # R's flow would reach 1 and its cost raise, at no real shift.  Road by
    # road, the other roads are evaluated per route; S's cost could raise
    # too (it never does), so it is evaluated per shift.
    ends = [Road(f"b{k}", "m" if k < 4 else "n", "d") for k in range(6)]
    roads = (Road("R", "o", "m"), Road("S", "o", "n"), *ends)
    routes = tuple(RouteSpec(("R" if k < 4 else "S", end.id)) for k, end in enumerate(ends))
    costs = {road.id: SINKS for road in roads} | {"R": cost, "S": NonMonotoneAffine(1.0, {"a": -0.5})}
    junctions = tuple(Junction(name) for name in "omnd")
    net = Network(junctions, roads, (PopulationSpec("a", "o", "d", routes, costs),))
    theta = Assignment.make([[0.225] * 4 + [0.05] * 2])
    assert raised(reference_eps_gains, *_evaluated(net, theta), 0.1)[1] is None
    assert assert_gains_equal_the_reference(net, theta, [0.1])


def _raising_both_ways() -> Network:
    """At shares (0.45, 0.1, 0.45) and eps 0.4, moving r0 to r1 fills r1's
    zero-scaled load to its capacity (0 * inf), moving r2 to r0 turns r2's
    cost negative, and moving r2 to r1 does both; at (0.6, 0.1, 0.3) only
    r0 holds eps, and only r0 to r1 raises (0 * inf)."""
    return _parallel([SINKS, _blowing(0.5), NonMonotoneAffine(-0.1, {"a": 1.0})])


# network, then (shares, eps, the error of the reference or None) to check
BOUNDARY = {
    "congestion_corridor": (nets.congestion_corridor, [([[0.9, 0.1], [0.9, 0.1]], 0.1, None)]),
    "layered (3,2,2)": (lambda: layered(3, 2, 2, seed=0), [(None, 0.02, None)]),
    "nonmonotone_pair": (nets.nonmonotone_pair, [([[0.5, 0.5]], 0.1, None), ([[0.5, 0.5]], 0.5, None)]),
    "raising-both-ways": (_raising_both_ways, [([[0.45, 0.1, 0.45]], 0.4, CostDomainError),
                                               ([[0.6, 0.1, 0.3]], 0.4, ExtRealGuardError),
                                               ([[0.45, 0.1, 0.45]], 0.1, None)]),
}


@pytest.mark.parametrize("name", BOUNDARY)
def test_gains_equal_the_reference_at_the_most_shifts_one_batch_takes(name):
    # `assert_gains_equal_the_reference` sets `_chunk` to the feasible shifts
    # and to one fewer: one `times` batch, then road by road
    build, cases = BOUNDARY[name]
    net = build()
    for shares, eps, error in cases:
        theta = uniform_assignment(net) if shares is None else Assignment.make(shares)
        core, x, t = _evaluated(net, theta)
        assert np.count_nonzero(feasible(core, x, eps)) > 0
        assert raised(reference_eps_gains, core, x, t, eps)[1] is error
        assert assert_gains_equal_the_reference(net, theta, [eps])


def test_populations_of_one_route_shift_nothing():
    net = _parallel([SINKS], [Constant(1.0)])
    theta = Assignment.make([[1.0], [1.0]])
    core, x, t = _evaluated(net, theta)
    assert all(a.size == 0 for a in core.eps_gains(x, t, 0.5))
    assert assert_gains_equal_the_reference(net, theta, [0.5, 1.0])
    assert verify(net, theta).eps_residual == 0.0


def _evaluated(net: Network, theta: Assignment):
    core = compile_network(net)
    x = core.pack(theta)
    return core, x, core.times(x)


def test_verify_memory_does_not_grow_with_the_shifts_times_the_network():
    # 125 routes per population: 31,000 shifts, whose batch of shifted
    # assignments alone took about 62 MB
    net = layered(5, 3, 2, seed=0)
    theta = points(net, seed=5, count=1)[1]
    compile_network(net)
    tracemalloc.start()
    try:
        verify(net, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
