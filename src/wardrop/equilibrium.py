"""Route travel times, equilibrium predicates, and the fixed-point solver.

Three nested notions are checked for an assignment of route shares:

* *equilibrium*: within each population, all routes carrying positive share
  have equal travel time;
* *Nash*: additionally, every unused route is at least as slow as the
  population's mean time, so nobody gains by switching;
* *eps-Nash*: moving a mass eps between any two routes never lets the
  movers arrive faster.

Existence is constructive: a continuous self-map of the product of share
simplices is built from bounded-compressed route times, a conservative step
size, and a clip-and-rescale normalization; its fixed points are exactly
the Nash equilibria, and the solver runs a damped iteration of that map to
a verified fixed point.

Everything here is pure.  The solver iterates any number of starts as one
batch, each exactly as it would alone; the multistart driver merges their
results deterministically, so results are independent of start order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .compiled import (
    CompiledNetwork,
    DimensionMismatchError,
    NormalizationError,
    compile_network,
    share_mean,
)
from .costs import ExtReal
from .netcore import Network

INPUT_TOLERANCE = 1e-12
DEFAULT_TIME_TOLERANCE = 1e-9
DEFAULT_SHARE_TOLERANCE = 1e-9


class NonMonotoneCostError(ValueError):
    """The solver was asked to run on non-monotone costs without an override."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the inputs."""


@dataclass(frozen=True)
class Assignment:
    """One share vector per population; each lies exactly on its simplex."""

    shares: tuple[tuple[float, ...], ...]

    @staticmethod
    def make(vectors: Sequence[Sequence[float]], tolerance: float = INPUT_TOLERANCE) -> "Assignment":
        """Validate, clamp tiny negatives, and renormalize exactly once."""
        cleaned = []
        for vec in vectors:
            arr = [float(x) for x in vec]
            if not arr:
                raise DimensionMismatchError("empty share vector")
            if not all(math.isfinite(x) for x in arr):
                raise ValueError(f"share vector has a non-finite component in {arr}")
            total = sum(arr)
            if abs(total - 1.0) > tolerance:
                raise ValueError(f"share vector sums to {total}, not 1")
            if any(x < -tolerance for x in arr):
                raise ValueError(f"share vector has negative component in {arr}")
            clamped = [max(0.0, x) for x in arr]
            s = sum(clamped)
            cleaned.append(tuple(x / s for x in clamped))
        return Assignment(tuple(cleaned))


def uniform_assignment(net: Network) -> Assignment:
    return Assignment.make([[1.0 / len(p.routes)] * len(p.routes) for p in net.populations])


def vertex_assignment(net: Network, route_indices: Sequence[int]) -> Assignment:
    vecs = []
    for pop, k in zip(net.populations, route_indices):
        v = [0.0] * len(pop.routes)
        v[k] = 1.0
        vecs.append(v)
    return Assignment.make(vecs)


@dataclass(frozen=True)
class RouteTimes:
    """Per-population route travel times and share-weighted mean times."""

    times: tuple[tuple[ExtReal, ...], ...]
    means: tuple[ExtReal, ...]


@dataclass(frozen=True)
class PredicateVerdict:
    holds: bool
    residual: float
    detail: tuple[str, ...] = ()


@dataclass(frozen=True)
class EquilibriumReport:
    is_equilibrium: bool
    is_nash: bool
    is_eps_nash: bool
    common_times: tuple[ExtReal, ...]
    equilibrium_residual: float
    nash_residual: float
    eps_residual: float
    eps_used: float


def _require_int(record, name: str, least: int) -> None:
    """Refuse field `name` of `record` unless it is an int, not a bool, >= `least`."""
    value = getattr(record, name)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an int of at least {least}")


def _require_tolerance(name: str, value: float, positive: bool = True, below: float = math.inf) -> None:
    """Refuse a tolerance unless it lies in (0, below), or [0, below) when
    not `positive`; NaN lies in neither."""
    if not ((value > 0 if positive else value >= 0) and value < below):
        sign = "positive" if positive else "nonnegative"
        bound = "finite" if below == math.inf else f"below {below:g}"
        raise ValueError(f"{name} must be {sign} and {bound}, got {value}")


def _require_tolerances(tol: float, share_tol: float) -> None:
    """The predicates' tolerances: a positive finite time tolerance, and a
    share tolerance in [0, 1) (at 1 or above, no route would be relevant)."""
    _require_tolerance("tol", tol)
    _require_tolerance("share_tol", share_tol, positive=False, below=1.0)


@dataclass(frozen=True)
class SolveParams:
    omega: float = 0.5
    max_iters: int = 100_000
    residual_tol: float = 1e-12
    verify_tol: float = DEFAULT_TIME_TOLERANCE
    allow_nonmonotone: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.omega <= 1:
            raise ValueError("damping must lie in (0, 1]")
        _require_int(self, "max_iters", 1)
        for name in ("residual_tol", "verify_tol"):
            _require_tolerance(name, getattr(self, name))


@dataclass(frozen=True)
class SolveResult:
    assignment: Assignment
    iterations: int
    residual: float
    converged: bool
    verified: EquilibriumReport
    trajectory: tuple[float, ...] = ()

    @property
    def success(self) -> bool:
        return self.converged and self.verified.is_nash


@dataclass(frozen=True)
class MultistartParams:
    grid_depth: int = 1
    random_starts: int = 4
    seed: int = 0
    dedup_tolerance: float = 1e-6
    solve: SolveParams = field(default_factory=SolveParams)

    def __post_init__(self) -> None:
        _require_int(self, "grid_depth", 1)
        _require_int(self, "random_starts", 0)
        _require_int(self, "seed", 0)
        _require_tolerance("dedup_tolerance", self.dedup_tolerance, positive=False)


_engine = compile_network  # the compiled network's former internal name


def _evaluate(net: Network, theta: Assignment) -> tuple[CompiledNetwork, np.ndarray, np.ndarray]:
    core = compile_network(net)
    x = core.pack(theta)
    return core, x, core.times(x)


def _to_extreal(x: float) -> ExtReal:
    return ExtReal.infinity() if math.isinf(x) else ExtReal.of(x)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def route_times(net: Network, theta: Assignment) -> RouteTimes:
    """Travel time of every route of every population at the assignment.

    A route's time is the sum of its roads' costs at the induced flows;
    +infinity propagates through the sums.  Means use the zero-share
    convention (a route with zero share and infinite time contributes 0).
    """
    core, x, t = _evaluate(net, theta)
    times = tuple(tuple(_to_extreal(v) for v in row) for row in core.unpack(t))
    means = tuple(_to_extreal(m) for m in share_mean(x, t, 0.0).tolist())
    return RouteTimes(times=times, means=means)


def mean_times(theta: Assignment, times: Sequence[Sequence[ExtReal]]) -> tuple[ExtReal, ...]:
    """Share-weighted mean route times with the 0*inf = 0 convention."""
    out = []
    for vec, pop_times in zip(theta.shares, times):
        if len(vec) != len(pop_times):
            raise DimensionMismatchError("share vector and time vector differ in length")
        t = np.array([[x.as_float() for x in pop_times]])
        out.append(_to_extreal(float(share_mean(np.array([vec], dtype=float), t, 0.0)[0])))
    return tuple(out)


def _predicates(
    core: CompiledNetwork, x: np.ndarray, t: np.ndarray, tol: float, share_tol: float
) -> tuple[PredicateVerdict, PredicateVerdict]:
    """The equilibrium verdict, and the verdict on the unused routes alone
    (the part Nash adds to it)."""
    s = core.spreads(x, t, share_tol)
    spreads = (s.spread / s.scale).tolist()
    detail = []
    for name, spread in zip(core.names, spreads):
        if math.isinf(spread):  # mixed finite/infinite relevant times can never agree
            detail.append(f"{name}: finite and infinite relevant times")
        elif spread > tol:
            detail.append(f"{name}: relevant times spread {spread:.3e}")
    eq = PredicateVerdict(holds=not detail, residual=max([0.0] + spreads), detail=tuple(detail))
    shortfalls = s.shortfall / s.mean_scale
    detail = [
        f"{core.names[p]}: unused route {i} beats the mean by {shortfalls[p, i]:.3e}"
        for p, i in zip(*np.nonzero(shortfalls > tol))
    ]
    unused = PredicateVerdict(
        holds=not detail, residual=max(0.0, float(shortfalls.max())), detail=tuple(detail)
    )
    return eq, unused


def _nash(eq: PredicateVerdict, unused: PredicateVerdict) -> PredicateVerdict:
    return PredicateVerdict(eq.holds and unused.holds, unused.residual, eq.detail + unused.detail)


def _eps_nash(
    core: CompiledNetwork, x: np.ndarray, t: np.ndarray, eq: PredicateVerdict,
    eps_values: list[float], tol: float,
) -> PredicateVerdict:
    """The eps-Nash verdict from the gains of every feasible shift."""
    p, i, j, e, gain = core.eps_gains(x, t, eps_values, INPUT_TOLERANCE)
    paying = gain > tol
    shifts = zip(*(a[paying].tolist() for a in (p, i, j, e, gain)))
    detail = [
        f"{core.names[q]}: moving {mass:g} from route {a} to route {b} gains {g:.3e}"
        for q, a, b, mass, g in shifts
    ]
    return PredicateVerdict(
        holds=eq.holds and not detail,
        residual=max(0.0, float(gain.max(initial=0.0))),
        detail=eq.detail + tuple(detail),
    )


def is_equilibrium(
    net: Network,
    theta: Assignment,
    tol: float = DEFAULT_TIME_TOLERANCE,
    share_tol: float = DEFAULT_SHARE_TOLERANCE,
) -> PredicateVerdict:
    """Do all relevant (positive-share) routes of each population agree in time?

    Finite pairs compare with relative tolerance `tol`; two infinite times
    count as equal.  Simplex vertices pass trivially.
    """
    _require_tolerances(tol, share_tol)
    return _predicates(*_evaluate(net, theta), tol, share_tol)[0]


def is_nash(
    net: Network,
    theta: Assignment,
    tol: float = DEFAULT_TIME_TOLERANCE,
    share_tol: float = DEFAULT_SHARE_TOLERANCE,
) -> PredicateVerdict:
    """Equilibrium, and no unused route is faster than the population mean."""
    _require_tolerances(tol, share_tol)
    return _nash(*_predicates(*_evaluate(net, theta), tol, share_tol))


def default_eps(theta: Assignment, share_tol: float = DEFAULT_SHARE_TOLERANCE) -> float:
    """Half the smallest positive share over all populations."""
    smallest = 1.0
    for vec in theta.shares:
        positive = [x for x in vec if x > share_tol]
        smallest = min(smallest, 0.5 * min(positive))
    return smallest


def is_eps_nash(
    net: Network,
    theta: Assignment,
    eps: float | None = None,
    tol: float = DEFAULT_TIME_TOLERANCE,
    share_tol: float = DEFAULT_SHARE_TOLERANCE,
    ladder: bool = False,
) -> PredicateVerdict:
    """Equilibrium, and no eps-mass route change pays off for the movers.

    For every feasible shift of `eps` mass from route i to route j, the
    time of route j *after* the shift must be at least the time of route i
    before it.  `ladder=True` additionally tests eps/2 and eps/4.  Each
    population's shifts are evaluated as one batch.
    """
    _require_tolerances(tol, share_tol)
    if eps is None:
        eps = default_eps(theta, share_tol)
    _require_tolerance("eps", eps)
    core, x, t = _evaluate(net, theta)
    eq, _ = _predicates(core, x, t, tol, share_tol)
    return _eps_nash(core, x, t, eq, [eps, eps / 2, eps / 4] if ladder else [eps], tol)


def verify(
    net: Network,
    theta: Assignment,
    tol: float = DEFAULT_TIME_TOLERANCE,
    share_tol: float = DEFAULT_SHARE_TOLERANCE,
    eps: float | None = None,
) -> EquilibriumReport:
    """Evaluate all three predicates; the report's verdicts are nested so
    eps-Nash implies Nash implies equilibrium by construction.  Route times
    are evaluated once, and shared by the three predicates."""
    _require_tolerances(tol, share_tol)
    core, x, t = _evaluate(net, theta)
    eq, unused = _predicates(core, x, t, tol, share_tol)
    nash = _nash(eq, unused)
    eps_used = default_eps(theta, share_tol) if eps is None else eps
    _require_tolerance("eps", eps_used)
    eps_verdict = _eps_nash(core, x, t, eq, [eps_used], tol)
    return EquilibriumReport(
        is_equilibrium=eq.holds,
        is_nash=nash.holds,
        is_eps_nash=nash.holds and eps_verdict.holds,
        common_times=tuple(_to_extreal(m) for m in share_mean(x, t, 0.0).tolist()),
        equilibrium_residual=eq.residual,
        nash_residual=nash.residual,
        eps_residual=eps_verdict.residual,
        eps_used=eps_used,
    )


def compress_time(x: ExtReal | float) -> float:
    """Squash a nonnegative extended-real time into [0, 1].

    Finite x maps to x/(1+x); +infinity maps to 1.  Strictly increasing and
    continuous, which is exactly what the fixed-point construction needs.
    """
    if isinstance(x, ExtReal):
        x = x.as_float()
    if x < 0:
        raise ValueError("times are nonnegative")
    if math.isinf(x):
        return 1.0
    return x / (1.0 + x)


def fixed_point_map(net: Network, theta: Assignment) -> Assignment:
    """The simplex self-map whose fixed points are the Nash equilibria.

    Per population: subtract a conservative multiple of the compressed
    route times' deviation from their share-weighted mean, clip negatives
    to zero, and rescale to the simplex.  Infinite times enter only through
    the compression (as 1).
    """
    core = compile_network(net)
    x = core.pack(theta)
    return Assignment.make(core.unpack(core.map_step(x, core.times(x))))


def fixed_point_residual(net: Network, theta: Assignment) -> float:
    core = compile_network(net)
    x = core.pack(theta)
    return float(np.abs(x - core.map_step(x, core.times(x))).max())


def nonmonotone_cost(net: Network) -> tuple[str, str] | None:
    """(population name, road id) of the first cost, in population and cost
    order, that is not structurally monotone; None if every cost is."""
    for pop in net.populations:
        for rid, expr in pop.costs.items():
            if not expr.structurally_monotone():
                return pop.name, rid
    return None


def _require_monotone(net: Network, allow_nonmonotone: bool) -> None:
    found = None if allow_nonmonotone else nonmonotone_cost(net)
    if found is not None:
        raise NonMonotoneCostError(
            f"cost of road {found[1]!r} for population {found[0]!r} is not "
            "monotone; pass allow_nonmonotone to solve anyway"
        )


class _Run:
    """One start's state in the damped iteration: its best iterate and
    residual so far, its residual trajectory, and how it stopped."""

    __slots__ = ("best", "best_residual", "trajectory", "iterations", "converged")

    def __init__(self, x: np.ndarray):
        self.best = x
        self.best_residual = math.inf
        self.trajectory: list[float] = []
        self.iterations = 0
        self.converged = False

    def observe(self, x: np.ndarray, residual: float, iteration: int) -> None:
        """Record the map residual at iterate `x`, the iteration-th one."""
        if residual < self.best_residual:
            self.best, self.best_residual = x, residual
        if iteration % 100 == 1:
            self.trajectory.append(residual)

    def converge(self, image: np.ndarray, residual: float, iteration: int) -> None:
        self.best, self.best_residual = image, residual
        self.iterations, self.converged = iteration, True


def _iterate(core: CompiledNetwork, runs: list[_Run], params: SolveParams) -> None:
    """Damped iteration of every run at once, one run per batch column.

    A batch column evaluates bit for bit as its start alone, so each run
    takes the path its solo iteration takes.  A run that converges leaves
    the batch; the last one left runs unbatched, on (P, W) arrays, where
    each step costs less.
    """
    active = list(runs)  # the run of each column of x
    x = runs[0].best if len(runs) == 1 else np.stack([run.best for run in runs], axis=-1)
    omega, tol = params.omega, params.residual_tol
    keep = 1 - omega
    for iteration in range(1, params.max_iters + 1):
        image = core.map_step(x, core.times(x))
        if x.ndim == 2:
            residual = float(np.abs(x - image).max())
            active[0].observe(x, residual, iteration)
            if residual < tol:
                active[0].converge(image, residual, iteration)
                return
            x = keep * x + omega * image
            continue
        residuals = np.abs(x - image).max(axis=(0, 1)).tolist()
        left = []  # the columns that go on
        for j, (run, residual) in enumerate(zip(active, residuals)):
            run.observe(x[..., j], residual, iteration)
            if residual < tol:
                run.converge(image[..., j], residual, iteration)
            else:
                left.append(j)
        x = keep * x + omega * image
        if len(left) < len(active):
            if not left:
                return
            active = [active[j] for j in left]
            x = x[..., left[0]] if len(left) == 1 else x[..., left]
    for run in active:
        run.iterations = params.max_iters


def _solve(net: Network, starts: Sequence[Assignment], params: SolveParams) -> list[SolveResult]:
    _require_monotone(net, params.allow_nonmonotone)
    core = compile_network(net)
    runs = [_Run(core.pack(start)) for start in starts]
    if runs:
        _iterate(core, runs, params)
    results = []
    for run in runs:
        final = Assignment.make(core.unpack(run.best), tolerance=1e-9)
        results.append(SolveResult(
            assignment=final,
            iterations=run.iterations,
            residual=run.best_residual,
            converged=run.converged,
            verified=verify(net, final, tol=params.verify_tol),
            trajectory=(*run.trajectory, run.best_residual),
        ))
    return results


def solve_starts(
    net: Network, starts: Sequence[Assignment], params: SolveParams = SolveParams()
) -> list[SolveResult]:
    """Damped fixed-point iteration from every start at once.

    Result k equals `solve_fixed_point(net, starts[k], params)` field for
    field: the starts share one batched iteration, and each stops as its
    own would.  An evaluation error from any start fails the whole call,
    with the first such error the batch meets.
    """
    return _solve(net, starts, params)


def solve_fixed_point(
    net: Network,
    theta0: Assignment | None = None,
    params: SolveParams = SolveParams(),
) -> SolveResult:
    """Damped fixed-point iteration to a verified Nash equilibrium.

    Iterates theta <- (1-omega)*theta + omega*map(theta) until the map
    residual drops below `residual_tol` or `max_iters` is hit.  The result
    always carries a verification report; non-convergence is flagged on the
    best iterate, never raised.  The trajectory holds the residual every
    100 iterations, then the best one.
    """
    # Calls `_solve` directly, so that the benchmark's spans charge a lone
    # solve's iterations to this function.
    return _solve(net, [theta0 if theta0 is not None else uniform_assignment(net)], params)[0]


def simplex_grid(n: int, resolution: int) -> Iterator[tuple[float, ...]]:
    """All points of the uniform simplex grid with `resolution` subdivisions,
    in deterministic lexicographic order of the composition.

    Stars and bars: each choice of n - 1 bar positions among
    resolution + n - 1 slots splits the stars between the bars into one
    composition, and choices in lexicographic order give compositions in
    lexicographic order.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    end = resolution + n - 1
    return (
        tuple((b - a - 1) / resolution for a, b in zip((-1, *bars), (*bars, end)))
        for bars in itertools.combinations(range(end), n - 1)
    )


def _start_points(net: Network, params: MultistartParams) -> list[Assignment]:
    per_pop_grids = [
        [list(point) for point in simplex_grid(len(pop.routes), params.grid_depth)]
        for pop in net.populations
    ]
    starts = [
        Assignment.make(list(combo)) for combo in itertools.product(*per_pop_grids)
    ]
    starts.append(uniform_assignment(net))
    rng = np.random.default_rng(params.seed)
    for _ in range(params.random_starts):
        vecs = [rng.dirichlet(np.ones(len(pop.routes))) for pop in net.populations]
        starts.append(Assignment.make([v / v.sum() for v in vecs], tolerance=1e-9))
    return starts


def solve_multistart(net: Network, params: MultistartParams = MultistartParams()) -> list[SolveResult]:
    """Solve from simplex-grid corners, the barycenter, and seeded random
    interior points; return distinct verified equilibria.

    Results are sorted by assignment and deduplicated at `dedup_tolerance`
    in the max norm, so output is independent of start order.  Starts that
    fail to converge or verify are dropped; the list is empty only if every
    start fails.
    """
    results = solve_starts(net, _start_points(net, params), params.solve)
    successes = [r for r in results if r.success]
    successes.sort(key=lambda r: r.assignment.shares)
    distinct: list[SolveResult] = []
    for result in successes:
        for k, kept in enumerate(distinct):
            gap = max(
                abs(a - b)
                for va, vb in zip(result.assignment.shares, kept.assignment.shares)
                for a, b in zip(va, vb)
            )
            if gap < params.dedup_tolerance:
                if result.residual < kept.residual:
                    distinct[k] = result
                break
        else:
            distinct.append(result)
    return distinct


@dataclass(frozen=True)
class ConditionalOptimalityResult:
    holds: bool
    per_population: tuple[tuple[str, float, float, bool], ...]
    """(name, value at assignment, grid minimum, attained) per population."""


def check_conditional_optimality(
    net: Network,
    theta: Assignment,
    resolution: int = 201,
) -> ConditionalOptimalityResult:
    """Does each population's mean time attain its conditional minimum?

    With the other populations frozen at `theta`, the population's mean
    time is grid-minimized over its own simplex; the verdict tolerance
    scales with grid spacing times an empirical variation bound.  This is
    a sufficient condition for Nash, not a consequence of it.
    """
    core, x, t = _evaluate(net, theta)
    eq, _ = _predicates(core, x, t, DEFAULT_TIME_TOLERANCE, DEFAULT_SHARE_TOLERANCE)
    if not eq.holds:
        raise PreconditionError("assignment is not an equilibrium")
    at_theta = share_mean(x, t, 0.0).tolist()
    rows = []
    holds = True
    for p, pop in enumerate(net.populations):
        n = len(pop.routes)
        points = simplex_grid(n, resolution)
        values = []
        while chunk := list(itertools.islice(points, 4096)):
            batch = np.repeat(x[..., None], len(chunk), axis=-1)
            batch[p, :n] = np.transpose(chunk)
            values.append(share_mean(batch, core.times(batch), 0.0)[p])
        values = np.concatenate(values)
        finite = values[values < math.inf]
        grid_min = float(values.min())
        span = float(finite.max() - finite.min()) if finite.size else 0.0
        tol = max(1e-9, 2.0 * span / resolution)
        attained = at_theta[p] <= grid_min + tol
        holds = holds and attained
        rows.append((pop.name, at_theta[p], grid_min, attained))
    return ConditionalOptimalityResult(holds=holds, per_population=tuple(rows))
