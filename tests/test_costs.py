"""Cost engine: extended reals, evaluation, derivatives, classification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from wardrop import costs
from wardrop.costs import (
    Affine,
    CongestionRational,
    Constant,
    CostClassReport,
    CostDomainError,
    ExtReal,
    ExtRealGuardError,
    InfiniteCostError,
    MonomialTerm,
    NonMonotoneAffine,
    Polynomial,
    Scale,
    Sum,
    _lattice,
    classify_cost,
    cost_from_obj,
    cost_to_obj,
    eval_array,
    eval_cost,
    eval_partial,
)
from conftest import random_monotone_expr, reference_cost


class TestExtReal:
    def test_finite_arithmetic(self):
        a, b = ExtReal.of(1.5), ExtReal.of(2.0)
        assert (a + b).finite == 3.5
        assert a.scaled(2.0).finite == 3.0
        assert a < b and b >= a

    def test_infinity_propagates(self):
        inf = ExtReal.infinity()
        assert (ExtReal.of(1.0) + inf).is_infinite
        assert inf.scaled(0.5).is_infinite
        assert ExtReal.of(7.0) < inf
        assert str(inf) == "inf"

    def test_zero_times_infinity_guarded(self):
        with pytest.raises(ExtRealGuardError):
            ExtReal.infinity().scaled(0.0)

    def test_constructor_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExtReal.of(-1.0)
        with pytest.raises(ValueError):
            ExtReal.of(math.inf)

    def test_an_extended_real_is_its_float(self):
        assert isinstance(ExtReal.of(2.5), float)
        assert ExtReal.of(2.5) == 2.5
        assert ExtReal.infinity() == math.inf
        assert ExtReal.from_float(math.inf) is ExtReal.infinity()
        assert ExtReal.of(2.5).finite == 2.5 and ExtReal.infinity().finite is None
        assert type(ExtReal.of(1.5) + ExtReal.of(2.0)) is ExtReal
        assert type(ExtReal.of(1.5).scaled(2.0)) is ExtReal
        assert sorted([ExtReal.infinity(), ExtReal.of(3.0), 1.0]) == [1.0, 3.0, math.inf]
        with pytest.raises(ValueError):
            ExtReal.of(math.nan)


SHARED_AFFINE = Affine(1.0, {"upper": 1.0, "lower": 1.0})
CORRIDOR = CongestionRational({"upper": 1.0, "lower": 1.0}, 1.0)


class TestEval:
    def test_shared_affine_at_half_half(self):
        assert eval_cost(SHARED_AFFINE, {"upper": 0.5, "lower": 0.5}).finite == 2.0

    def test_congestion_blows_up_at_capacity(self):
        assert eval_cost(CORRIDOR, {"upper": 0.5, "lower": 0.5}).is_infinite
        assert eval_cost(CORRIDOR, {"upper": 1.0, "lower": 0.5}).is_infinite

    def test_congestion_finite_below_capacity(self):
        v = eval_cost(CORRIDOR, {"upper": 0.25, "lower": 0.25})
        assert v.finite == pytest.approx(1.0)  # 0.5 / (1 - 0.5)

    def test_constant(self):
        assert eval_cost(Constant(3.0), {}).finite == 3.0

    def test_flow_out_of_range(self):
        with pytest.raises(CostDomainError):
            eval_cost(SHARED_AFFINE, {"upper": 1.5, "lower": 0.0})
        with pytest.raises(CostDomainError):
            eval_cost(SHARED_AFFINE, {"upper": 0.5})  # missing population

    def test_scale_sum_algebra(self):
        inner = Affine(1.0, {"a": 2.0})
        flows = {"a": 0.25}
        assert eval_cost(Scale(3.0, inner), flows).finite == pytest.approx(
            3.0 * eval_cost(inner, flows).finite
        )
        total = Sum((inner, Constant(2.0), Scale(0.5, inner)))
        assert eval_cost(total, flows).finite == pytest.approx(1.5 + 2.0 + 0.75)

    def test_nonmonotone_affine_negative_value_rejected(self):
        expr = NonMonotoneAffine(0.5, {"a": -1.0})
        with pytest.raises(CostDomainError):
            eval_cost(expr, {"a": 1.0})


class TestPartial:
    def test_affine_coefficient(self):
        assert eval_partial(SHARED_AFFINE, {"upper": 0.3, "lower": 0.9}, "upper") == 1.0

    def test_constant_derivative(self):
        assert eval_partial(Constant(5.0), {}, "upper") == 0.0

    def test_congestion_derivative_at_half_load(self):
        # weight * capacity / (capacity - s)^2 = 1 * 1 / 0.25 = 4 at s = 1/2
        got = eval_partial(CORRIDOR, {"upper": 0.25, "lower": 0.25}, "upper")
        assert got == pytest.approx(4.0)
        # central finite difference oracle
        h = 1e-6
        up = eval_cost(CORRIDOR, {"upper": 0.25 + h, "lower": 0.25}).finite
        down = eval_cost(CORRIDOR, {"upper": 0.25 - h, "lower": 0.25}).finite
        assert got == pytest.approx((up - down) / (2 * h), rel=1e-6)

    def test_derivative_at_blowup_is_error(self):
        with pytest.raises(InfiniteCostError):
            eval_partial(CORRIDOR, {"upper": 0.75, "lower": 0.75}, "upper")

    def test_polynomial_partial(self):
        expr = Polynomial((MonomialTerm(2.0, {"a": 2, "b": 1}),))
        got = eval_partial(expr, {"a": 0.5, "b": 0.25}, "a")
        assert got == pytest.approx(2.0 * 2 * 0.5 * 0.25)


    @pytest.mark.parametrize(
        "expr",
        [
            NonMonotoneAffine(2.0, {"a": -1.5, "b": 0.75}),
            Scale(0.5, Sum((
                CongestionRational({"a": 1.0, "b": 0.5}, 2.0),
                Polynomial((MonomialTerm(1.5, {"a": 2, "b": 1}), MonomialTerm(0.5, {"b": 3}))),
                Affine(0.25, {"b": 2.0}),
            ))),
        ],
        ids=["nonmonotone-affine", "scale-of-sum"],
    )
    @pytest.mark.parametrize("target", ["a", "b"])
    def test_partial_matches_central_differences(self, expr, target):
        point = {"a": 0.4, "b": 0.3}
        h = 1e-6
        up = eval_cost(expr, dict(point, **{target: point[target] + h})).finite
        down = eval_cost(expr, dict(point, **{target: point[target] - h})).finite
        got = eval_partial(expr, point, target)
        assert got == pytest.approx((up - down) / (2 * h), rel=1e-7, abs=1e-9)

    def test_partial_raises_where_the_value_is_undefined(self):
        with pytest.raises(CostDomainError):
            eval_partial(NonMonotoneAffine(0.5, {"a": -1.0}), {"a": 1.0}, "a")
        with pytest.raises(CostDomainError):
            eval_partial(Affine(1.0, {"a": 1.0}), {"a": 1.5}, "a")


class TestClassify:
    def test_nonmonotone_escape_form_flagged(self):
        report = classify_cost(NonMonotoneAffine(3.0, {"commuters": -1.0}))
        assert not report.monotone
        assert report.c1_smooth_where_finite

    def test_affine_is_monotone_convex(self):
        report = classify_cost(Affine(1.0, {"a": 1.0, "b": 1.0}))
        assert report.monotone and report.convex

    def test_congestion_convex_on_finite_domain(self):
        report = classify_cost(CongestionRational({"a": 1.0, "b": 1.0}, 1.0), grid=101)
        assert report.monotone and report.convex
        assert report.samples_used > 0

    def test_cross_term_monomial_not_convex(self):
        report = classify_cost(Polynomial((MonomialTerm(1.0, {"a": 1, "b": 1}),)))
        assert report.monotone and not report.convex

    def test_affine_rejects_signed_coefficients(self):
        # signed slopes must go through the explicit escape form
        with pytest.raises(ValueError, match="NonMonotoneAffine"):
            Affine(3.0, {"a": -1.0})


def _recursive_combinations(names, points):
    """The recursive enumeration that `itertools.product` replaced."""
    if not names:
        yield {}
        return
    head, *tail = names
    for rest in _recursive_combinations(tail, points):
        for x in points:
            combo = dict(rest)
            combo[head] = float(x)
            yield combo


@pytest.mark.parametrize("count", range(4))
def test_combinations_equal_the_recursive_enumeration(count):
    names = ["a", "b", "c"][:count]
    for size in range(1, 10):
        points = np.linspace(0.0, 1.0, size)
        coordinates = _lattice(count, points, np.arange(size**count))
        got = [dict(zip(names, column)) for column in coordinates.T.tolist()]
        assert got == list(_recursive_combinations(names, points))  # in order too


def _classify_point_by_point(expr, grid):
    """`classify_cost` as a loop over lattice points, one `reference_cost` each."""
    pops = sorted(expr.populations())
    samples, monotone = 0, expr.structurally_monotone()
    for axis in pops:
        rest = [p for p in pops if p != axis]
        for combo in _recursive_combinations(rest, np.linspace(0.0, 1.0, min(grid, 5))):
            prev = None
            for x in np.linspace(0.0, 1.0, grid):
                v = reference_cost(expr, dict(combo, **{axis: float(x)}))
                samples += 1
                if prev is not None and v < prev - 1e-12:
                    monotone = False
                prev = v
    structural = expr.structurally_convex()
    convex = True if structural is None else structural
    if pops and structural is not False:
        rng = np.random.default_rng(0)
        lattice = list(_recursive_combinations(pops, np.linspace(0.0, 1.0, min(grid, 9))))
        for _ in range(min(2000, 4 * len(lattice))):
            a = lattice[rng.integers(len(lattice))]
            b = lattice[rng.integers(len(lattice))]
            mid = {p: 0.5 * (a[p] + b[p]) for p in pops}
            va, vb, vm = (reference_cost(expr, p) for p in (a, b, mid))
            samples += 3
            if math.isinf(va) or math.isinf(vb):
                continue
            if vm > 0.5 * (va + vb) + 1e-9 * max(1.0, abs(va), abs(vb)):
                convex = False
                break
    return CostClassReport(monotone, True, convex, samples)


def test_classification_equals_the_point_by_point_loop():
    rng = np.random.default_rng(29)
    names = ["a", "b", "c", "d"]
    exprs = [random_monotone_expr(rng, names[: 1 + k % 4]) for k in range(300)]
    cross = Polynomial((MonomialTerm(1.0, {"a": 1, "b": 1}),))
    exprs += [cross, NonMonotoneAffine(3.0, {"c": -1.0}), Constant(2.0)]
    # costs that blow up to +inf inside the flow box
    exprs += [CongestionRational({"a": 1.0, "b": 1.0}, 1.0),
              Sum((CongestionRational({"a": 1.0, "b": 0.5}, 1.2), cross)),
              Scale(2.0, Sum((CongestionRational({"c": 1.0}, 0.7),
                              NonMonotoneAffine(3.0, {"a": -1.0, "c": 1.0}))))]
    grids = (2, 3, 5, 9, 21, 101)
    for k, expr in enumerate(exprs):
        grid = grids[k // 4 % 6]  # every grid for each population count
        if grid == 101 and len(expr.populations()) > 2:
            grid = 21
        assert classify_cost(expr, grid) == _classify_point_by_point(expr, grid), (expr, grid)


@pytest.mark.parametrize("count", range(4))
def test_classification_evaluates_one_batch_per_lattice(count, monkeypatch):
    calls = []

    def counting(expr, flows):
        calls.append(flows)
        return eval_array(expr, flows)

    monkeypatch.setattr(costs, "eval_array", counting)
    names = ["a", "b", "c"][:count]
    cross = Polynomial((MonomialTerm(1.0, dict.fromkeys(names, 1)),))  # convexity sampled
    classify_cost(cross)
    assert len(calls) == (count + 1 if count else 0)


def test_classification_raises_where_a_cost_goes_negative():
    with pytest.raises(CostDomainError, match="negative"):
        classify_cost(NonMonotoneAffine(-1.0, {"a": 3.0}))


@pytest.mark.parametrize("grid", [0, 1, -3, True, False, 2.5, 21.0, "21", None])
def test_classification_refuses_a_bad_grid(grid):
    with pytest.raises(ValueError, match="grid must be an int of at least 2"):
        classify_cost(Affine(1.0, {"a": 1.0}), grid)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: Constant(-1.0), id="constant"),
        pytest.param(lambda: Affine(-0.5, {"a": 1.0}), id="affine-constant"),
        pytest.param(lambda: MonomialTerm(-2.0, {"a": 1}), id="monomial-coefficient"),
        pytest.param(lambda: Scale(-1.0, Constant(1.0)), id="scale-factor"),
        pytest.param(lambda: ExtReal.of(1.0).scaled(-0.5), id="extreal-factor"),
        pytest.param(lambda: CongestionRational({"a": 1.0}, 0.0), id="zero-capacity"),
        pytest.param(lambda: CongestionRational({"a": 1.0}, -2.0), id="negative-capacity"),
        pytest.param(lambda: CongestionRational({"a": -1.0}, 2.0), id="negative-weight"),
    ],
)
def test_negative_parameters_are_refused(build):
    with pytest.raises(ValueError, match="nonnegative|positive"):
        build()


def test_blowup_boundary_values_grow_without_bound():
    # grid refinement toward the congestion boundary: values exceed any bound
    for bound in (10.0, 1e3, 1e6):
        loads = 1.0 - np.logspace(-1, -9, 17)
        values = [
            eval_cost(CORRIDOR, {"upper": float(s) / 2, "lower": float(s) / 2})
            for s in loads
        ]
        assert any(v.finite is not None and v.finite > bound for v in values)
    assert eval_cost(CORRIDOR, {"upper": 0.5, "lower": 0.5}).is_infinite


def test_values_converge_along_sampled_sequences():
    # continuity into the extended reals, checked at interior limits
    rng = np.random.default_rng(19)
    names = ["a", "b"]
    for _ in range(100):
        expr = random_monotone_expr(rng, names)
        target = {n: float(rng.uniform(0.1, 0.9)) for n in names}
        limit = eval_cost(expr, target)
        if limit.is_infinite:
            continue
        for k in (1e-2, 1e-4, 1e-6, 1e-8):
            nearby = {n: v + k * (0.5 - rng.random()) for n, v in target.items()}
            value = eval_cost(expr, nearby)
            assert not value.is_infinite
            assert abs(value.finite - limit.finite) <= 1e3 * k + 1e-12


def test_serialization_round_trip():
    samples = [
        Constant(2.5),
        Affine(1.0, {"a": 2.0, "b": 0.5}),
        Polynomial((MonomialTerm(1.5, {"a": 2}), MonomialTerm(0.5, {"b": 1}))),
        CongestionRational({"a": 1.0, "b": 1.0}, 1.0),
        Sum((Constant(1.0), Affine(0.0, {"a": 3.0}))),
        Scale(2.0, CongestionRational({"a": 1.0}, 2.0)),
        NonMonotoneAffine(3.0, {"a": -1.0}),
    ]
    for expr in samples:
        assert cost_from_obj(cost_to_obj(expr)) == expr


def test_from_obj_rejects_malformed():
    with pytest.raises(ValueError):
        cost_from_obj({"kind": "mystery"})
    with pytest.raises(ValueError):
        cost_from_obj({"kind": "congestion", "weights": {"a": 1.0}})
    with pytest.raises(ValueError):
        cost_from_obj(["not", "a", "mapping"])


def test_compiled_matches_ast_evaluation():
    rng = np.random.default_rng(7)
    names = ["first", "second"]
    for _ in range(200):
        expr = random_monotone_expr(rng, names)
        point = {n: float(rng.uniform(0, 1)) for n in names}
        fast = float(eval_array(expr, point))
        exact = reference_cost(expr, point)
        if math.isinf(exact):
            assert math.isinf(fast)
        else:
            assert fast == pytest.approx(exact, rel=1e-12, abs=1e-12)
        vec = eval_array(expr, {n: np.array([point[n]]) for n in names})
        vec_value = float(np.asarray(vec).reshape(-1)[0])
        if math.isinf(exact):
            assert math.isinf(vec_value)
        else:
            assert vec_value == pytest.approx(exact, rel=1e-12, abs=1e-12)


def _recursive_terms(expr):
    """`_terms` as `Sum`, `Scale` and `Polynomial` each once wrote it, a
    recursion of its own: the reference of the flattening."""
    if isinstance(expr, Sum):
        for t in expr.terms:
            yield from _recursive_terms(t)
    elif isinstance(expr, Scale):
        for factor, leaf in _recursive_terms(expr.inner):
            yield expr.factor * factor, leaf
    elif isinstance(expr, Polynomial):
        yield from ((1.0, t) for t in expr.terms)
    else:
        yield 1.0, expr


def _recursive_answers(expr):
    """(populations, structurally_monotone, structurally_convex) as the
    forms' own recursive methods once answered them."""
    if isinstance(expr, Sum):
        parts = [_recursive_answers(t) for t in expr.terms]
        convex = [c for _, _, c in parts]
        return (
            frozenset(n for p, _, _ in parts for n in p),
            all(m for _, m, _ in parts),
            True if all(c is True for c in convex) else False if any(c is False for c in convex) else None,
        )
    if isinstance(expr, Scale):
        return _recursive_answers(expr.inner)
    if isinstance(expr, Polynomial):
        return (frozenset(n for t in expr.terms for n in t.exponents), True,
                True if all(len(t.exponents) <= 1 for t in expr.terms) else None)
    if isinstance(expr, NonMonotoneAffine):
        return frozenset(expr.coeffs), all(c >= 0 for c in expr.coeffs.values()), True
    if isinstance(expr, CongestionRational):
        return frozenset(expr.weights), True, True
    return frozenset(getattr(expr, "coeffs", ())), True, True  # Affine or Constant


def _flattening(pairs) -> list:
    """(multiplier bits, leaf identity) of each (multiplier, leaf) pair."""
    return [(factor.hex(), id(leaf)) for factor, leaf in pairs]


def _wrapped(rng, expr, layers: int):
    """`expr` under `layers` random `Scale` and `Sum` layers; a `Sum` layer
    may add a signed affine sibling, so some trees are not monotone."""
    names = ["first", "second"]
    for _ in range(layers):
        if rng.random() < 0.5:
            expr = Scale(float(rng.choice([0.0, 0.1, 0.2, 0.3, 0.7, 1.1, 3.0])), expr)
        else:
            others = [random_monotone_expr(rng, names, depth=1) for _ in range(rng.integers(0, 3))]
            if rng.random() < 0.3:
                others.append(NonMonotoneAffine(2.0, {"first": float(rng.uniform(-1, 1))}))
            at = int(rng.integers(len(others) + 1))
            expr = Sum((*others[:at], expr, *others[at:]))
    return expr


def _outermost_first(expr, product=1.0):
    """The flattening with each product formed from the root down: (a * b) * c."""
    if isinstance(expr, Sum):
        return [pair for t in expr.terms for pair in _outermost_first(t, product)]
    if isinstance(expr, Scale):
        return _outermost_first(expr.inner, product * expr.factor)
    return [(product * 1.0, leaf) for leaf in (expr.terms if isinstance(expr, Polynomial) else (expr,))]


def test_the_flattening_equals_the_recursive_walks():
    """Multipliers bit for bit and leaves by identity, in order, and the
    three answers of the old recursive methods, on random trees."""
    rng = np.random.default_rng(11)
    regrouped = 0  # trees whose multipliers differ from the outermost-first products
    for _ in range(300):
        expr = _wrapped(rng, random_monotone_expr(rng, ["first", "second"]), int(rng.integers(0, 6)))
        assert _flattening(expr._terms()) == _flattening(_recursive_terms(expr))
        assert (expr.populations(), expr.structurally_monotone(), expr.structurally_convex()) \
            == _recursive_answers(expr)
        regrouped += _flattening(expr._terms()) != _flattening(_outermost_first(expr))
    assert regrouped >= 10, regrouped


@pytest.mark.parametrize("composite", ["sum", "scale", "both"])
def test_a_chain_of_five_thousand_composites_flattens(composite):
    """Past any recursion limit: each question about the chain is answered,
    and its one leaf's multiplier is the innermost-first product."""
    poly = Polynomial((MonomialTerm(2.0, {"a": 1, "b": 1}), MonomialTerm(1.0, {"a": 3})))
    expr, multiplier = poly, 1.0
    factors = np.random.default_rng(5).uniform(0.9, 1.1, 5000)
    for k, factor in enumerate(factors.tolist()):
        if composite == "sum" or (composite == "both" and k % 2):
            expr = Sum((expr,))
        else:
            expr, multiplier = Scale(factor, expr), factor * multiplier
    assert _flattening(expr._terms()) == _flattening([(multiplier, t) for t in poly.terms])
    assert (expr.populations(), expr.structurally_monotone(), expr.structurally_convex()) \
        == (frozenset("ab"), True, None)
