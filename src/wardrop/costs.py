"""Road cost functions over per-population flows, valued in [0, +inf].

A cost function maps the flows of each traveler population on one road to a
nonnegative travel cost that may be +infinity (fully congested road).  Costs
are built from a small closed set of expression forms; every form with
nonnegative coefficients is continuous and weakly increasing in each flow
argument, which is what the equilibrium theory requires.

Costs are evaluated in floats by `compiled.CostProgram`, +infinity as IEEE
inf; the program raises `ExtRealGuardError` on 0 * inf instead of a silent
NaN.  Reported times are `ExtReal`, a float subclass that refuses negative
and NaN values and names +infinity (no evaluation uses its `+` or
`scaled`).  The convention that a zero-share route adds nothing to the mean
time lives in the equilibrium layer.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Mapping

import numpy as np

FLOW_TOLERANCE = 1e-12


class CostDomainError(ValueError):
    """A flow argument is outside [0, 1] or an evaluation left the domain."""


class ExtRealGuardError(ArithmeticError):
    """A guarded extended-real operation was attempted (e.g. 0 * inf)."""


class InfiniteCostError(ValueError):
    """A derivative was requested at a point where the cost is +infinity."""


class ExtReal(float):
    """A nonnegative real number extended with +infinity, as an IEEE float.

    +infinity is `math.inf`, so comparisons, hashing, formatting and JSON
    are the float's.  `finite` is None exactly when the value is +infinity.
    Addition and positive scaling propagate infinity; scaling infinity by
    zero raises `ExtRealGuardError` because no reachable computation should
    do it.
    """

    __slots__ = ()

    @staticmethod
    def of(value: float) -> "ExtReal":
        if not math.isfinite(value):
            raise ValueError("use ExtReal.infinity() for non-finite values")
        if value < 0:
            raise ValueError(f"extended reals are nonnegative, got {value}")
        return ExtReal(value)

    @staticmethod
    def infinity() -> "ExtReal":
        return _INFINITY

    @staticmethod
    def from_float(value: float) -> "ExtReal":
        """The extended real of an IEEE value, math.inf as +infinity."""
        return _INFINITY if math.isinf(value) else ExtReal.of(value)

    @property
    def finite(self) -> float | None:
        return None if self.is_infinite else float(self)

    @property
    def is_infinite(self) -> bool:
        return self == math.inf

    def as_float(self) -> float:
        return float(self)

    def __add__(self, other: float) -> "ExtReal":
        return ExtReal(float(self) + other)

    def scaled(self, factor: float) -> "ExtReal":
        if factor < 0:
            raise ValueError("extended reals only scale by nonnegative factors")
        if factor == 0 and self.is_infinite:
            raise ExtRealGuardError("0 * inf is not defined")
        return ExtReal(factor * float(self))


_INFINITY = ExtReal(math.inf)


def _finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")


@dataclass(frozen=True, slots=True)
class CostExpr:
    """Base class of the cost-expression forms; use the concrete subclasses."""

    def populations(self) -> frozenset[str]:
        raise NotImplementedError

    def _terms(self) -> Iterable[tuple[float, "CostExpr | MonomialTerm"]]:
        """(multiplier, leaf) pairs; `Sum`, `Polynomial` and `Scale` are the
        left-to-right sum of multiplier * leaf value over their terms."""
        return ((1.0, self),)

    def structurally_monotone(self) -> bool:
        return True

    def structurally_convex(self) -> bool | None:
        """True/False when decidable from the AST, None when sampling decides."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Constant(CostExpr):
    value: float

    def __post_init__(self) -> None:
        _finite(self.value, "constant cost")
        if self.value < 0:
            raise ValueError("constant cost must be nonnegative")

    def populations(self) -> frozenset[str]:
        return frozenset()

    def structurally_convex(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class Affine(CostExpr):
    """constant + sum of coeff[p] * flow[p], all coefficients nonnegative."""

    constant: float
    coeffs: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _finite(self.constant, "affine constant")
        if self.constant < 0:
            raise ValueError("affine constant must be nonnegative")
        for name, c in self.coeffs.items():
            if not (math.isfinite(c) and c >= 0):  # the messages only where one is raised
                _finite(c, f"affine coefficient for {name!r}")
                raise ValueError(
                    f"affine coefficient for {name!r} must be nonnegative; "
                    "use NonMonotoneAffine for signed coefficients"
                )
        object.__setattr__(self, "coeffs", dict(self.coeffs))

    def populations(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def structurally_convex(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class MonomialTerm:
    """coeff * prod_p flow[p]**exponent[p] with nonnegative integer exponents."""

    coeff: float
    exponents: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _finite(self.coeff, "monomial coefficient")
        if self.coeff < 0:
            raise ValueError("monomial coefficient must be nonnegative")
        for name, k in self.exponents.items():
            if not math.isfinite(k) or k < 0 or int(k) != k:
                raise ValueError(f"exponent for {name!r} must be a nonnegative integer")
        object.__setattr__(
            self, "exponents", {n: int(k) for n, k in self.exponents.items() if k != 0}
        )


@dataclass(frozen=True, slots=True)
class Polynomial(CostExpr):
    terms: tuple[MonomialTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    def populations(self) -> frozenset[str]:
        return frozenset(n for t in self.terms for n in t.exponents)

    def _terms(self) -> Iterator[tuple[float, MonomialTerm]]:
        return ((1.0, t) for t in self.terms)

    def structurally_convex(self) -> bool | None:
        # A sum of single-population powers is convex; cross-population
        # monomials (e.g. x*y) are generally not, so sampling decides.
        if all(len(t.exponents) <= 1 for t in self.terms):
            return True
        return None


@dataclass(frozen=True, slots=True)
class CongestionRational(CostExpr):
    """s / (capacity - s) with s = sum of weights[p] * flow[p]; +inf for s >= capacity."""

    weights: Mapping[str, float]
    capacity: float

    def __post_init__(self) -> None:
        _finite(self.capacity, "capacity")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        for name, w in self.weights.items():
            if not (math.isfinite(w) and w >= 0):
                _finite(w, f"weight for {name!r}")
                raise ValueError(f"weight for {name!r} must be nonnegative")
        object.__setattr__(self, "weights", dict(self.weights))

    def populations(self) -> frozenset[str]:
        return frozenset(self.weights)

    def structurally_convex(self) -> bool:
        # Convex increasing function of a nonnegative linear form.
        return True


@dataclass(frozen=True, slots=True)
class Sum(CostExpr):
    terms: tuple[CostExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    def populations(self) -> frozenset[str]:
        return frozenset(n for t in self.terms for n in t.populations())

    def _terms(self) -> Iterator[tuple[float, CostExpr | MonomialTerm]]:
        for t in self.terms:
            yield from t._terms()

    def structurally_monotone(self) -> bool:
        return all(t.structurally_monotone() for t in self.terms)

    def structurally_convex(self) -> bool | None:
        parts = [t.structurally_convex() for t in self.terms]
        if all(p is True for p in parts):
            return True
        if any(p is False for p in parts):
            return False
        return None


@dataclass(frozen=True, slots=True)
class Scale(CostExpr):
    factor: float
    inner: CostExpr

    def __post_init__(self) -> None:
        _finite(self.factor, "scale factor")
        if self.factor < 0:
            raise ValueError("scale factor must be nonnegative")

    def populations(self) -> frozenset[str]:
        return self.inner.populations()

    def _terms(self) -> Iterator[tuple[float, CostExpr | MonomialTerm]]:
        for factor, leaf in self.inner._terms():
            yield self.factor * factor, leaf

    def structurally_monotone(self) -> bool:
        return self.inner.structurally_monotone()

    def structurally_convex(self) -> bool | None:
        return self.inner.structurally_convex()


@dataclass(frozen=True, slots=True)
class NonMonotoneAffine(CostExpr):
    """Affine form with signed coefficients.

    Escape hatch for deliberately non-monotone costs (used to separate the
    plain-equilibrium and Nash notions on a pathological fixture).  The
    solver refuses networks containing it unless explicitly overridden.
    Evaluation must stay nonnegative on the flow box; a negative value is a
    domain error.
    """

    constant: float
    coeffs: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _finite(self.constant, "non-monotone affine constant")
        for name, c in self.coeffs.items():
            _finite(c, f"non-monotone affine coefficient for {name!r}")
        object.__setattr__(self, "coeffs", dict(self.coeffs))

    def populations(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def structurally_monotone(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def structurally_convex(self) -> bool:
        return True


def eval_cost(expr: CostExpr, flows: Mapping[str, float]) -> ExtReal:
    """Evaluate a cost expression at the given per-population flows.

    A view of `eval_array` at one point, as an `ExtReal`:
    congestion forms give +infinity exactly when the weighted load reaches
    capacity.  Flows follow `_lowered`'s rule.
    """
    return ExtReal.from_float(float(eval_array(expr, flows)))


def eval_partial(expr: CostExpr, flows: Mapping[str, float], population: str) -> float:
    """Partial derivative with respect to one population's flow.

    A view of `CostProgram.slopes`, flows under `_lowered`'s rule.  Only
    defined where the expression is finite; raises `InfiniteCostError` at a
    blow-up point (the theory only demands derivatives at points of finite
    value), and where `eval_array` raises.
    """
    program, read, rows = _lowered(expr, flows)
    tangent = np.zeros_like(rows)
    if population in read:
        tangent[read.index(population)] = 1.0
    slope = float(program.slopes(rows, tangent)[program.roots[0]])
    if math.isinf(slope):
        raise InfiniteCostError("derivative requested where the cost is +inf")
    return slope


@dataclass(frozen=True)
class CostClassReport:
    monotone: bool
    c1_smooth_where_finite: bool
    convex: bool
    samples_used: int


def classify_cost(expr: CostExpr, grid: int = 21) -> CostClassReport:
    """Classify a cost expression as monotone / smooth / convex.

    Monotonicity and convexity are decided structurally where the AST
    allows; a sampled check on a `grid`-per-axis lattice confirms the
    structural verdict or decides the undecidable cases.  Sampling is
    advisory: it feeds the report, it never alters evaluation behavior.
    Each lattice is one `eval_array` batch, so classification raises where
    evaluation raises, a negative non-monotone value included.
    """
    if isinstance(grid, bool) or not isinstance(grid, int) or grid < 2:
        raise ValueError(f"grid must be an int of at least 2, got {grid!r}")
    pops = sorted(expr.populations())
    samples = 0
    monotone = expr.structurally_monotone()
    if pops:
        # Each population's axis (last) against a coarse companion grid of the others.
        companions = np.linspace(0.0, 1.0, min(grid, 5))
        rest = _lattice(len(pops) - 1, companions, np.arange(len(companions) ** (len(pops) - 1)))
        for name in pops:
            flows = dict(zip([p for p in pops if p != name], rest[..., None]))
            flows[name] = np.linspace(0.0, 1.0, grid)[None]
            v = eval_array(expr, flows)
            samples += v.size
            monotone = monotone and not (v[:, 1:] < v[:, :-1] - 1e-12).any()  # no np.diff: inf - inf is NaN
    structural_convex = expr.structurally_convex()
    convex = structural_convex if structural_convex is not None else True
    if pops and structural_convex is not False:
        # Midpoint convexity on finite pairs of lattice points, up to the first violation.
        points = np.linspace(0.0, 1.0, min(grid, 9))
        size = len(points) ** len(pops)
        draws = np.random.default_rng(0).integers(size, size=(min(2000, 4 * size), 2))
        ends = _lattice(len(pops), points, draws.T)  # (P, 2, draws)
        mid = 0.5 * (ends[:, 0] + ends[:, 1])
        va, vb, vm = eval_array(expr, dict(zip(pops, np.concatenate([ends, mid[:, None]], 1))))
        bound = 0.5 * (va + vb) + 1e-9 * np.maximum(np.maximum(1.0, abs(va)), abs(vb))
        bad = np.flatnonzero(vm > bound)  # never where an end is +inf: the bound is +inf
        samples += 3 * (int(bad[0]) + 1 if bad.size else len(draws))
        convex = convex and not bad.size
    return CostClassReport(
        monotone=monotone,
        c1_smooth_where_finite=True,
        convex=convex,
        samples_used=samples,
    )


def _lattice(count: int, points: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Coordinates (count, *index.shape) of the points numbered `index` of
    the `count`-fold product of `points`, the first coordinate fastest."""
    m = len(points)
    place = m ** np.arange(count).reshape((count,) + (1,) * np.ndim(index))
    return points[index // place % m]


# ---------------------------------------------------------------------------
# Array evaluation: views of the compiled cost program
# ---------------------------------------------------------------------------

def eval_array(expr: CostExpr, flows: Mapping[str, object]) -> np.ndarray:
    """Evaluation over numpy arrays of flows (np.inf at blow-ups).

    A view of `CostProgram`: the flows, under `_lowered`'s rule, broadcast
    against each other and give its values.
    """
    program, _, rows = _lowered(expr, flows)
    return program.values(rows)[program.roots[0]]


def _lowered(expr: CostExpr, flows: Mapping[str, object]):
    """(program, population names, flow rows) of one expression: the names it
    reads, sorted, one row each, broadcast together, then the program's zero
    row.  The flow rule of every evaluation here: each name read must have
    flows, in [0, 1] within FLOW_TOLERANCE, else `CostDomainError`; they are
    clamped into [0, 1].  `reference_cost` in `tests/conftest.py` is the
    scalar tree walk that the program equals bit for bit."""
    read = sorted(expr.populations())
    columns = []
    for name in read:
        if name not in flows:
            raise CostDomainError(f"no flow supplied for population {name!r}")
        column = np.asarray(flows[name], dtype=float)
        outside = ~((column >= -FLOW_TOLERANCE) & (column <= 1 + FLOW_TOLERANCE))
        if outside.any():
            raise CostDomainError(f"flow {column[outside].flat[0]} for {name!r} outside [0, 1]")
        columns.append(np.where(column > 0.0, np.minimum(column, 1.0), 0.0))
    columns = np.broadcast_arrays(*columns, np.zeros(()))
    from .compiled import CostProgram

    program = CostProgram([expr], lambda _, name: read.index(name), len(read))
    return program, read, np.stack(columns)


# ---------------------------------------------------------------------------
# File format: cost expression objects
# ---------------------------------------------------------------------------

def cost_to_obj(expr: CostExpr) -> dict:
    """Serialize to the kind-discriminated JSON object format."""
    if isinstance(expr, Constant):
        return {"kind": "constant", "value": expr.value}
    if isinstance(expr, Affine):
        return {"kind": "affine", "constant": expr.constant, "coeffs": dict(expr.coeffs)}
    if isinstance(expr, Polynomial):
        return {
            "kind": "poly",
            "terms": [
                {"coeff": t.coeff, "exponents": dict(t.exponents)} for t in expr.terms
            ],
        }
    if isinstance(expr, CongestionRational):
        return {
            "kind": "congestion",
            "weights": dict(expr.weights),
            "capacity": expr.capacity,
        }
    if isinstance(expr, Sum):
        return {"kind": "sum", "terms": [cost_to_obj(t) for t in expr.terms]}
    if isinstance(expr, Scale):
        return {"kind": "scale", "factor": expr.factor, "expr": cost_to_obj(expr.inner)}
    if isinstance(expr, NonMonotoneAffine):
        return {
            "kind": "nonmonotone_affine",
            "constant": expr.constant,
            "coeffs": dict(expr.coeffs),
        }
    raise TypeError(f"unknown cost expression {type(expr).__name__}")


def cost_from_obj(obj: Mapping) -> CostExpr:
    """Parse a kind-discriminated cost object; raises ValueError on bad input,
    and on a cost whose values on the flow box can leave the float range."""
    expr = _parse_cost(obj)
    bound = 0.0  # of |value|: each leaf's bound at flows in [0, 1], times its multiplier
    for factor, leaf in expr._terms():
        if isinstance(leaf, MonomialTerm):
            bound += factor * leaf.coeff
        elif isinstance(leaf, CongestionRational):  # its load, and its largest finite value
            load = sum(leaf.weights.values())
            top = load / (leaf.capacity - load) if load < leaf.capacity else 2.0**54
            bound += factor * max(load, top)
        elif isinstance(leaf, Constant):
            bound += factor * leaf.value
        else:  # a linear form, signed or not
            bound += factor * (abs(leaf.constant) + sum(map(abs, leaf.coeffs.values())))
    if not math.isfinite(bound):
        raise ValueError(f"cost {obj.get('kind')!r} can take values past the float range")
    return expr


def json_number(value: object, what: str) -> int | float:
    """`value` if it is a JSON number: an int or a float, never a bool, and
    never a string of digits; `what` names it in the error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {reprlib.repr(value)}")
    return value


def _float(value: object, what: str) -> float:
    return value if type(value) is float else float(json_number(value, what))  # most are floats


def _by_name(value: object, what: str, convert=_float) -> dict:
    """A JSON object of numbers, each `convert`ed; a list of pairs is none."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be an object, got {reprlib.repr(value)}")
    if convert is _float and set(map(type, value.values())) <= {float}:
        return value  # the cost copies it
    return {name: convert(v, what) for name, v in value.items()}


def _parse_cost(obj: Mapping) -> CostExpr:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise ValueError("cost object must be a mapping with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "constant":
            return Constant(_float(obj["value"], "value"))
        if kind in ("affine", "nonmonotone_affine"):
            form = Affine if kind == "affine" else NonMonotoneAffine
            constant = _float(obj.get("constant", 0.0), "constant")
            return form(constant, _by_name(obj.get("coeffs", {}), "coeffs"))
        if kind == "poly":
            return Polynomial(tuple(
                MonomialTerm(
                    _float(t["coeff"], "coeff"),
                    # as written: MonomialTerm refuses a non-integral exponent
                    _by_name(t.get("exponents", {}), "exponents", json_number),
                )
                for t in obj["terms"]
            ))
        if kind == "congestion":
            weights = _by_name(obj["weights"], "weights")
            return CongestionRational(weights, _float(obj["capacity"], "capacity"))
        if kind == "sum":
            return Sum(tuple(_parse_cost(t) for t in obj["terms"]))
        if kind == "scale":
            return Scale(_float(obj["factor"], "factor"), _parse_cost(obj["expr"]))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {reprlib.repr(kind)} cost object: {exc}") from exc
    raise ValueError(f"unknown cost kind {reprlib.repr(kind)}")
