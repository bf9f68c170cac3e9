"""The compiled network: equal to the reference semantics, bit for bit.

`eval_cost` is the reference.  Route times are sums of its values at flows
summed in route order; a batch of assignments evaluates row by row as each
assignment would alone; the batched eps-Nash check equals a loop over the
shifts.  Non-finite numbers are refused wherever they enter.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wardrop import fixtures as nets
from wardrop.analysis import gauss_legendre_unit, segment_matrices
from wardrop.cli import main
from wardrop.compiled import compile_network
from wardrop.costs import (
    Affine,
    CongestionRational,
    Constant,
    CostDomainError,
    ExtRealGuardError,
    InfiniteCostError,
    MonomialTerm,
    NonMonotoneAffine,
    Polynomial,
    Scale,
    Sum,
    compile_scalar,
    eval_array,
    eval_cost,
    eval_partial,
)
from wardrop.equilibrium import (
    Assignment,
    EquilibriumReport,
    PredicateVerdict,
    SolveParams,
    default_eps,
    is_eps_nash,
    is_equilibrium,
    is_nash,
    route_times,
    solve_fixed_point,
    verify,
)
from wardrop.fileio import ParseError, load_assignment, load_network, network_to_obj
from wardrop.netcore import (
    Junction,
    Network,
    PopulationSpec,
    Road,
    build_incidence,
    enumerate_routes,
    flows_on_roads,
)

EVALUATION_ERRORS = (CostDomainError, ExtRealGuardError)
SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

# -- strategies ------------------------------------------------------------

NAMES = ("p0", "p1", "p2")
coefficient = st.floats(0.0, 3.0)


def _some(names: tuple[str, ...], values: st.SearchStrategy) -> st.SearchStrategy:
    """A mapping from some of the names (in order) to drawn values."""
    drawn = st.fixed_dictionaries({n: st.one_of(st.none(), values) for n in names})
    return drawn.map(lambda d: {n: v for n, v in d.items() if v is not None})


@functools.lru_cache(maxsize=None)
def cost_exprs(names: tuple[str, ...], depth: int = 2, signed: bool = True) -> st.SearchStrategy:
    """Every cost kind: congestion capacities low enough to blow up, signed
    non-monotone coefficients that can go negative (nonnegative ones unless
    `signed`), zero scale factors."""
    nonmonotone = st.floats(-3.0, 3.0) if signed else coefficient
    leaves = st.one_of(
        st.builds(Constant, coefficient),
        st.builds(Affine, coefficient, _some(names, coefficient)),
        st.builds(NonMonotoneAffine, st.floats(0.0, 2.0), _some(names, nonmonotone)),
        st.builds(CongestionRational, _some(names, st.floats(0.0, 2.0)), st.floats(0.05, 1.5)),
        st.builds(
            Polynomial,
            st.lists(st.builds(MonomialTerm, coefficient, _some(names, st.integers(0, 3))),
                     max_size=3).map(tuple),
        ),
    )
    if depth == 0:
        return leaves
    inner = cost_exprs(names, depth - 1, signed)
    return st.one_of(
        leaves,
        st.lists(inner, max_size=3).map(lambda ts: Sum(tuple(ts))),
        st.builds(Scale, st.one_of(st.just(0.0), coefficient), inner),
    )


@st.composite
def networks(draw, populations: int | None = None, signed: bool = True) -> Network:
    """o -> m -> d and o -> d with parallel roads: up to 11 routes, so both
    short and long left-to-right sums occur.  1 to 3 populations unless
    `populations` is given; `signed` as for `cost_exprs`."""
    counts = [draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))]
    roads = [Road(f"a{k}", "o", "m") for k in range(counts[0])]
    roads += [Road(f"b{k}", "m", "d") for k in range(counts[1])]
    roads += [Road(f"c{k}", "o", "d") for k in range(counts[2])]
    junctions = (Junction("o"), Junction("m"), Junction("d"))
    routes = enumerate_routes(Network(junctions, tuple(roads), ()), "o", "d")
    names = NAMES[: populations or draw(st.integers(1, 3))]
    pops = []
    for name in names:
        keep = draw(st.one_of(st.just([True] * len(routes)),
                              st.lists(st.booleans(), min_size=len(routes), max_size=len(routes))))
        own = [r for r, k in zip(routes, keep) if k] or routes[:1]
        used = sorted({rid for route in own for rid in route.road_ids})
        costs = {rid: draw(cost_exprs(names, signed=signed)) for rid in used}
        pops.append(PopulationSpec(name, "o", "d", tuple(own), costs))
    return Network(junctions, tuple(roads), tuple(pops))


@st.composite
def assignments(draw, net: Network) -> Assignment:
    vectors = []
    for pop in net.populations:
        weights = draw(
            st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.just(1.0)),
                     min_size=len(pop.routes), max_size=len(pop.routes))
        )
        if not any(weights):
            weights[0] = 1.0
        total = sum(weights)
        vectors.append([w / total for w in weights])
    return Assignment.make(vectors, tolerance=1e-9)


# -- the reference, written out here -----------------------------------------

def reference_flows(net: Network, shares) -> dict[tuple[int, str], float]:
    """Population q's flow on road r: its routes' shares through r, in route order."""
    return {
        (q, road.id): sum(s for s, route in zip(shares[q], pop.routes) if road.id in route.road_ids)
        for q, pop in enumerate(net.populations)
        for road in net.roads
    }


def reference_times(net: Network, shares) -> list[list[float]]:
    """Route times as sums of `eval_cost` values; raises what it raises."""
    flows = reference_flows(net, shares)
    names = net.population_names()
    times = []
    for pop in net.populations:
        cost = {}
        for rid in sorted(pop.road_ids()):
            point = {n: flows[q, rid] for q, n in enumerate(names)}
            cost[rid] = eval_cost(pop.costs[rid], point).as_float()
        times.append([sum(cost[rid] for rid in route.road_ids) for route in pop.routes])
    return times


def raised(fn, *args):
    """(result, None) or (None, exception class) for the reference errors."""
    try:
        return fn(*args), None
    except EVALUATION_ERRORS as exc:
        return None, type(exc)


def reference_errors(net: Network, shares) -> set[type]:
    """Every error `eval_cost` raises on some road used at these shares."""
    flows = reference_flows(net, shares)
    names = net.population_names()
    errors = set()
    for pop in net.populations:
        for rid in pop.road_ids():
            point = {n: flows[q, rid] for q, n in enumerate(names)}
            _, error = raised(eval_cost, pop.costs[rid], point)
            if error:
                errors.add(error)
    return errors


# -- equivalence -------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_route_times_are_sums_of_reference_costs(data):
    net = data.draw(networks())
    theta = data.draw(assignments(net))
    expected, error = raised(reference_times, net, theta.shares)
    core = compile_network(net)
    if error is None:
        assert core.route_times(theta.shares) == expected
        assert [[t.as_float() for t in row] for row in route_times(net, theta).times] == expected
    else:
        with pytest.raises(tuple(reference_errors(net, theta.shares))):
            core.route_times(theta.shares)


@SETTINGS
@given(st.data())
def test_views_equal_the_reference(data):
    net = data.draw(networks())
    theta = data.draw(assignments(net))
    incidences = [build_incidence(net, p) for p in range(len(net.populations))]
    flows = reference_flows(net, theta.shares)
    got = flows_on_roads(incidences, theta.shares)
    assert [[got[h, q] for q in range(len(incidences))] for h in range(len(net.roads))] == [
        [flows[q, road.id] for q in range(len(incidences))] for road in net.roads
    ]
    names = list(net.population_names())
    expr = data.draw(cost_exprs(tuple(names)))
    points = [data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(names), max_size=len(names)))
              for _ in range(4)]
    outcomes = [raised(eval_cost, expr, dict(zip(names, point))) for point in points]
    fn = compile_scalar(expr, names)
    for point, (value, error) in zip(points, outcomes):
        if error is None:
            assert fn(point) == value.as_float()
        else:
            with pytest.raises(error):
                fn(point)
    columns = {n: np.array([point[k] for point in points]) for k, n in enumerate(names)}
    if all(error is None for _, error in outcomes):
        values = np.broadcast_to(eval_array(expr, columns), (len(points),))
        assert values.tolist() == [v.as_float() for v, _ in outcomes]
    else:
        with pytest.raises(tuple({error for _, error in outcomes if error})):
            eval_array(expr, columns)


@SETTINGS
@given(st.data())
def test_batch_rows_equal_single_evaluations(data):
    net = data.draw(networks())
    core = compile_network(net)
    thetas = [data.draw(assignments(net)) for _ in range(data.draw(st.integers(1, 4)))]
    assume(not any(reference_errors(net, theta.shares) for theta in thetas))
    batch = np.stack([core.pack(theta) for theta in thetas], axis=-1)
    times = core.times(batch)
    images = core.map_step(batch, times)
    spreads = core.spreads(batch, times, 1e-9)
    for k, theta in enumerate(thetas):
        x = core.pack(theta)
        t = core.times(x)
        assert np.array_equal(times[..., k], t)
        assert np.array_equal(images[..., k], core.map_step(x, t))
        for field, value in zip(spreads, core.spreads(x, t, 1e-9)):
            assert np.array_equal(field[..., k], value)


def loop_eps_nash(net: Network, theta: Assignment, eps: float, ladder: bool) -> PredicateVerdict:
    """is_eps_nash as one evaluation per shift."""
    core = compile_network(net)
    eq = is_equilibrium(net, theta)
    before = core.route_times(theta.shares)
    worst, detail = 0.0, list(eq.detail)
    for p, pop in enumerate(net.populations):
        vec = list(theta.shares[p])
        for i, j in itertools.permutations(range(len(vec)), 2):
            for e in ([eps, eps / 2, eps / 4] if ladder else [eps]):
                if vec[i] < e - 1e-12:
                    continue
                shifted = list(vec)
                shifted[i] = max(0.0, shifted[i] - e)
                shifted[j] = shifted[j] + e
                after = core.shifted_times(theta.shares, p, shifted)[j]
                if math.isinf(after):
                    continue
                t = before[p][i]
                gain = math.inf if math.isinf(t) else (t - after) / max(1.0, abs(t))
                worst = max(worst, gain)
                if gain > 1e-9:
                    detail.append(
                        f"{pop.name}: moving {e:g} from route {i} to route {j} gains {gain:.3e}"
                    )
    return PredicateVerdict(eq.holds and len(detail) == len(eq.detail), worst, tuple(detail))


@SETTINGS
@given(st.data())
def test_batched_eps_nash_equals_a_loop_over_the_shifts(data):
    net = data.draw(networks())
    theta = data.draw(assignments(net))
    eps = data.draw(st.sampled_from([0.5, 0.1, 1e-3]))
    ladder = data.draw(st.booleans())
    expected, error = raised(loop_eps_nash, net, theta, eps, ladder)
    if error is None:
        assert is_eps_nash(net, theta, eps=eps, ladder=ladder) == expected
    else:
        with pytest.raises(EVALUATION_ERRORS):
            is_eps_nash(net, theta, eps=eps, ladder=ladder)


def predicate_report(net: Network, theta: Assignment, eps: float | None) -> EquilibriumReport:
    """verify's report, built from the three public predicates."""
    eq = is_equilibrium(net, theta)
    nash = is_nash(net, theta)
    eps_used = default_eps(theta) if eps is None else eps
    eps_verdict = is_eps_nash(net, theta, eps=eps_used)
    return EquilibriumReport(
        is_equilibrium=eq.holds,
        is_nash=eq.holds and nash.holds,
        is_eps_nash=eq.holds and nash.holds and eps_verdict.holds,
        common_times=route_times(net, theta).means,
        equilibrium_residual=eq.residual,
        nash_residual=nash.residual,
        eps_residual=eps_verdict.residual,
        eps_used=eps_used,
    )


def outcome(fn, *args):
    """(result, None) or (None, the class of the error raised): evaluation
    errors, and the ValueError of a non-positive eps."""
    try:
        return fn(*args), None
    except (ValueError, ArithmeticError) as exc:
        return None, type(exc)


@SETTINGS
@given(st.data())
def test_verify_equals_the_public_predicates(data):
    net = data.draw(networks())
    theta = data.draw(assignments(net))
    eps = data.draw(st.sampled_from([None, 0.5, 0.1, 1e-3, 0.0, -0.1]))
    assert outcome(verify, net, theta, 1e-9, 1e-9, eps) == outcome(predicate_report, net, theta, eps)


def loop_segment_matrices(net: Network, first: Assignment, second: Assignment, nodes: int):
    """segment_matrices as one eval_partial call per quadrature node, road and
    population, node weights summed left to right.  A 0 * inf anywhere on the
    segments raises; otherwise the first (population, road) whose cost is
    infinite somewhere on them."""
    points, weights = gauss_legendre_unit(nodes)
    names = net.population_names()
    flows = [reference_flows(net, theta.shares) for theta in (first, second)]

    def at(end: int, q: int, rid: str) -> float:
        return min(1.0, flows[end][q, rid])  # clamped at 1, as eval_cost does

    own = [np.zeros(len(net.roads)) for _ in range(2)]
    cross = [np.zeros(len(net.roads)) for _ in range(2)]
    infinite = []
    for p, pop in enumerate(net.populations):
        o = 1 - p
        for h, road in enumerate(net.roads):
            rid = road.id
            if rid not in pop.road_ids():
                continue
            own_acc = cross_acc = 0.0
            for s, w in zip(points, weights):
                # p moves with o frozen at the second endpoint for p = 0 and
                # at the first for p = 1; o moves likewise with p frozen.
                own_point = {names[p]: (1 - s) * at(0, p, rid) + s * at(1, p, rid),
                             names[o]: at(o, o, rid)}
                cross_point = {names[o]: (1 - s) * at(0, o, rid) + s * at(1, o, rid),
                               names[p]: at(p, p, rid)}
                try:
                    own_acc += w * eval_partial(pop.costs[rid], own_point, names[p])
                    cross_acc += w * eval_partial(pop.costs[rid], cross_point, names[o])
                except InfiniteCostError:
                    infinite.append((rid, pop.name))
            own[p][h] = own_acc
            cross[p][h] = cross_acc
    if infinite:
        rid, name = infinite[0]
        raise InfiniteCostError(
            f"cost of road {rid!r} for population {name!r} is infinite along the segment"
        )
    return [*own, *cross]


@SETTINGS
@given(st.data())
def test_segment_matrices_equal_a_loop_of_eval_partial(data):
    net = data.draw(networks(populations=2, signed=False))
    first, second = data.draw(assignments(net)), data.draw(assignments(net))
    nodes = data.draw(st.sampled_from([1, 3, 16]))
    try:
        expected = loop_segment_matrices(net, first, second, nodes)
    except (InfiniteCostError, ExtRealGuardError) as exc:
        with pytest.raises(type(exc)) as got:
            segment_matrices(net, first, second, nodes)
        assert str(got.value) == str(exc)
    else:
        sm = segment_matrices(net, first, second, nodes)
        assert [m.tolist() for m in (*sm.own, *sm.cross)] == [m.tolist() for m in expected]


@SETTINGS
@given(st.data())
def test_eval_partial_raises_where_eval_cost_raises(data):
    names = NAMES[: data.draw(st.integers(1, 3))]
    expr = data.draw(cost_exprs(names))
    point = dict(zip(names, data.draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))))
    target = data.draw(st.sampled_from(names))
    value, error = raised(eval_cost, expr, point)
    if error is not None:
        with pytest.raises(error):
            eval_partial(expr, point, target)
    elif value.is_infinite:
        with pytest.raises(InfiniteCostError):
            eval_partial(expr, point, target)
    else:
        assert math.isfinite(eval_partial(expr, point, target))


def test_compiled_network_is_kept_on_the_instance(delay_net):
    core = compile_network(delay_net)
    assert compile_network(delay_net) is core
    assert compile_network(dataclasses.replace(delay_net)) is not core


# -- domain errors where eval_cost raises them -------------------------------

SIGNED = NonMonotoneAffine(0.5, {"a": -1.0})


def _negative_going() -> Network:
    net = nets.nonmonotone_pair()
    pop = net.populations[0]
    costs = dict(pop.costs, r2=NonMonotoneAffine(1.0, {pop.name: -3.0}))
    return dataclasses.replace(net, populations=(dataclasses.replace(pop, costs=costs),))


def test_compile_scalar_raises_where_eval_cost_raises():
    with pytest.raises(CostDomainError):
        eval_cost(SIGNED, {"a": 1.0})
    with pytest.raises(CostDomainError):
        compile_scalar(SIGNED, ["a"])([1.0])
    assert compile_scalar(SIGNED, ["a"])([0.25]) == eval_cost(SIGNED, {"a": 0.25}).as_float()
    with pytest.raises(CostDomainError):
        compile_scalar(Affine(1.0, {"a": 1.0}), ["a"])([1.5])
    with pytest.raises(ExtRealGuardError):
        compile_scalar(Scale(0.0, CongestionRational({"a": 1.0}, 1.0)), ["a"])([1.0])


def test_route_times_raise_on_a_negative_cost():
    net = _negative_going()
    with pytest.raises(CostDomainError):
        route_times(net, Assignment.make([[0.5, 0.5]]))
    assert route_times(net, Assignment.make([[0.9, 0.1]])).times[0][1].finite == pytest.approx(0.7)


def test_solver_raises_on_a_negative_cost():
    with pytest.raises(CostDomainError):
        solve_fixed_point(_negative_going(), None, SolveParams(allow_nonmonotone=True))


# -- non-finite numbers are refused where they enter ------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: Constant(v),
        lambda v: Affine(v),
        lambda v: Affine(1.0, {"a": v}),
        lambda v: NonMonotoneAffine(v),
        lambda v: NonMonotoneAffine(1.0, {"a": v}),
        lambda v: MonomialTerm(v),
        lambda v: MonomialTerm(1.0, {"a": v}),
        lambda v: CongestionRational({"a": 1.0}, v),
        lambda v: CongestionRational({"a": v}, 1.0),
        lambda v: Scale(v, Constant(1.0)),
    ],
    ids=["constant", "affine-constant", "affine-coeff", "nonmonotone-constant",
         "nonmonotone-coeff", "monomial-coeff", "monomial-exponent", "capacity", "weight", "scale"],
)
def test_cost_constructors_refuse_non_finite(build, bad):
    with pytest.raises(ValueError):
        build(bad)


def _corridor_doc() -> dict:
    return network_to_obj(nets.congestion_corridor())


def test_load_network_turns_a_non_finite_parameter_into_parse_error(tmp_path):
    doc = _corridor_doc()
    doc["populations"][0]["costs"]["r5"]["capacity"] = "nan"
    path = tmp_path / "nan_capacity.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="capacity"):
        load_network(path)
    assert main(["solve", str(path)]) == 2


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_fileio_refuses_non_finite_literals(tmp_path, literal):
    text = json.dumps(_corridor_doc()).replace('"capacity": 1.0', f'"capacity": {literal}', 1)
    path = tmp_path / "literal.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=literal):
        load_network(path)
    shares = tmp_path / "shares.json"
    shares.write_text(f'{{"upper": [{literal}, 1.0], "lower": [0.5, 0.5]}}')
    with pytest.raises(ParseError, match=literal):
        load_assignment(shares, nets.congestion_corridor())


def test_flows_refuse_nan():
    expr = Affine(1.0, {"a": 1.0})
    with pytest.raises(CostDomainError):
        eval_cost(expr, {"a": math.nan})
    with pytest.raises(CostDomainError):
        eval_array(expr, {"a": np.array([0.5, math.nan])})
    with pytest.raises(CostDomainError):
        compile_scalar(expr, ["a"])([math.nan])


@pytest.mark.parametrize("vector", [[math.nan, 1.0], [math.nan, math.nan], [math.inf, 0.0]])
def test_assignment_refuses_non_finite_shares(vector):
    with pytest.raises(ValueError, match="non-finite"):
        Assignment.make([vector])


def test_root_max_is_the_largest_float_whose_square_is_finite():
    from wardrop.compiled import _ROOT_MAX

    assert math.isfinite(math.pow(_ROOT_MAX, 2))
    with pytest.raises(OverflowError):
        math.pow(math.nextafter(_ROOT_MAX, math.inf), 2)


@pytest.mark.parametrize("capacity", [1e155, 1e200, 1e300])
@pytest.mark.parametrize("flow", [0.0, 0.25, 1.0])
def test_congestion_slope_where_the_square_of_the_room_overflows(capacity, flow):
    expr = CongestionRational({"a": 1.0, "b": 2.0}, capacity)
    room = capacity - (flow + 2.0 * flow)
    assert eval_partial(expr, {"a": flow, "b": flow}, "b") == 2.0 * capacity / room / room


@SETTINGS
@given(st.data())
def test_chunked_batch_equals_each_column_alone(data):
    # Wider than one chunk, with a short last chunk: the chunks share one
    # set of buffers, and each must still equal its columns evaluated alone.
    net = data.draw(networks())
    core = compile_network(net)
    thetas = [core.pack(data.draw(assignments(net))) for _ in range(data.draw(st.integers(1, 3)))]
    width = 2 * core._chunk + data.draw(st.integers(1, max(1, core._chunk - 1)))
    batch = np.stack([thetas[k % len(thetas)] for k in range(width)], axis=-1)
    alone = [raised(core.times, x) for x in thetas]
    errors = {error for _, error in alone if error}
    if errors:
        with pytest.raises(tuple(errors)):
            core.times(batch)
        return
    times = core.times(batch)
    for k in range(width):
        assert times[..., k].tobytes() == alone[k % len(thetas)][0].tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flow", [0.0, 1.0])
def test_congestion_slope_where_weight_times_capacity_overflows(flow):
    # d(s / (c - s)) = w * c / (c - s)^2 with s = w * flow, where w * c passes
    # the float range; c - s rounds to c, so the closed form is w / c.
    weight, capacity = 1e10, 1e300
    slope = eval_partial(CongestionRational({"a": weight}, capacity), {"a": flow}, "a")
    assert slope == weight / capacity
