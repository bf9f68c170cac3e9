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

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .compiled import (
    COMPUTED_TOLERANCE,
    INPUT_TOLERANCE,
    CompiledNetwork,
    DimensionMismatchError,
    NormalizationError,
    compile_network,
    share_mean,
)
from .costs import ExtReal
from .netcore import Network

DEFAULT_TIME_TOLERANCE = 1e-9
# Relative spreads, shortfalls and eps gains are at most 1 where the times
# they compare are finite, so a time tolerance of 1 or more certifies them all.
TIME_TOLERANCE_BOUND = 1.0
DEFAULT_SHARE_TOLERANCE = 1e-9
DEDUP_TOLERANCE = 1e-6  # max-norm gap below which two multistart equilibria are one
# The lowest residual a run aims below: shares near 1 lie 1.1e-16 apart, so
# a map residual much under this measures rounding, which iterating on
# need not lower.
LOWEST_TARGET = 1e-15


class NonMonotoneCostError(ValueError):
    """The solver was asked to run on non-monotone costs without an override."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the inputs."""


def require_simplex(shares: list[float], tolerance: float) -> None:
    """Refuse a share vector unless it is finite, sums to 1 (left to right
    from 0) within `tolerance`, and has no component below -tolerance."""
    if not all(map(math.isfinite, shares)):
        raise ValueError(f"share vector has a non-finite component in {shares}")
    total = functools.reduce(operator.add, shares, 0.0)  # not `sum`: from 3.12 it compensates
    if abs(total - 1.0) > tolerance:
        raise ValueError(f"share vector sums to {total}, not 1")
    if min(shares) < -tolerance:
        raise ValueError(f"share vector has negative component in {shares}")


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
            require_simplex(arr, tolerance)
            clamped = [max(0.0, x) for x in arr]
            s = functools.reduce(operator.add, clamped, 0.0)
            cleaned.append(tuple([x / s for x in clamped]))
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


def _require_int(name: str, value: int, least: int, most: float = math.inf) -> None:
    """Refuse `value` unless it is an int, not a bool, in [least, most]."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an int of at least {least}")
    if value > most:
        raise ValueError(f"{name} must be at most {most}")


def _require_tolerance(name: str, value: float, positive: bool = True, below: float = math.inf) -> None:
    """Refuse a tolerance unless it is positive (nonnegative when not
    `positive`) and finite, then unless it is below `below`; NaN is
    neither."""
    if not ((value > 0 if positive else value >= 0) and value < math.inf):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be {sign} and finite, got {value}")
    if value >= below:
        raise ValueError(f"{name} must be below {below:g}, got {value}")


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
        _require_int("max_iters", self.max_iters, 1)
        _require_tolerance("residual_tol", self.residual_tol)
        _require_tolerance("verify_tol", self.verify_tol, below=TIME_TOLERANCE_BOUND)


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
    random_starts: int = 4
    seed: int = 0
    solve: SolveParams = field(default_factory=SolveParams)

    def __post_init__(self) -> None:
        _require_int("random_starts", self.random_starts, 0)
        _require_int("seed", self.seed, 0)


def _evaluate(net: Network, theta: Assignment) -> tuple[CompiledNetwork, np.ndarray, np.ndarray]:
    core = compile_network(net)
    x = core.pack(theta)
    return core, x, core.times(x)


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
    times = tuple(tuple(ExtReal.from_float(v) for v in row) for row in core.unpack(t))
    means = tuple(ExtReal.from_float(m) for m in share_mean(x, t).tolist())
    return RouteTimes(times=times, means=means)


def mean_times(theta: Assignment, times: Sequence[Sequence[ExtReal]]) -> tuple[ExtReal, ...]:
    """Share-weighted mean route times with the 0*inf = 0 convention."""
    out = []
    for vec, pop_times in zip(theta.shares, times):
        if len(vec) != len(pop_times):
            raise DimensionMismatchError("share vector and time vector differ in length")
        t = np.array([pop_times], dtype=float)
        out.append(ExtReal.from_float(float(share_mean(np.array([vec], dtype=float), t)[0])))
    return tuple(out)


def _verdicts(
    core: CompiledNetwork, x: np.ndarray, t: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The relative spreads (P, ...) and shortfalls (P, W, ...) of assignments
    x (P, W, ...) with times t, and their equilibrium and Nash verdicts
    (...) at `tol`: no spread, and then no shortfall either, above it.
    Routes whose share exceeds `DEFAULT_SHARE_TOLERANCE` are relevant."""
    s = core.spreads(x, t, DEFAULT_SHARE_TOLERANCE)
    spread, shortfall = s.spread / s.scale, s.shortfall / s.mean_scale
    eq = ~(spread > tol).any(axis=0)
    return spread, shortfall, eq, eq & ~(shortfall > tol).any(axis=(0, 1))


def _spread_witnesses(names: list[str], spread: np.ndarray, tol: float) -> tuple[str, ...]:
    """One line per population whose relevant times disagree."""
    return tuple(
        f"{name}: finite and infinite relevant times" if math.isinf(v)  # they can never agree
        else f"{name}: relevant times spread {v:.3e}"
        for name, v in zip(names, spread.tolist()) if v > tol
    )


def is_equilibrium(net: Network, theta: Assignment, tol: float = DEFAULT_TIME_TOLERANCE) -> PredicateVerdict:
    """Do all relevant (positive-share) routes of each population agree in time?

    Finite pairs compare with relative tolerance `tol`, in (0, 1); two
    infinite times count as equal.  Simplex vertices pass trivially.
    """
    _require_tolerance("tol", tol, below=TIME_TOLERANCE_BOUND)
    core, x, t = _evaluate(net, theta)
    spread, _, eq, _ = _verdicts(core, x, t, tol)
    witnesses = _spread_witnesses(core.names, spread, tol)
    return PredicateVerdict(bool(eq), max(0.0, float(spread.max())), witnesses)


def is_nash(net: Network, theta: Assignment, tol: float = DEFAULT_TIME_TOLERANCE) -> PredicateVerdict:
    """Equilibrium, and no unused route is faster than the population mean."""
    _require_tolerance("tol", tol, below=TIME_TOLERANCE_BOUND)
    core, x, t = _evaluate(net, theta)
    spread, shortfall, _, nash = _verdicts(core, x, t, tol)
    unused = tuple(
        f"{core.names[p]}: unused route {i} beats the mean by {shortfall[p, i]:.3e}"
        for p, i in zip(*np.nonzero(shortfall > tol))
    )
    return PredicateVerdict(
        bool(nash), max(0.0, float(shortfall.max())), _spread_witnesses(core.names, spread, tol) + unused
    )


def default_eps(theta: Assignment) -> float:
    """Half the smallest relevant share over all populations: of the shares
    above `DEFAULT_SHARE_TOLERANCE`.  Each population has one, since its
    shares sum to 1; without populations, 1."""
    return min((0.5 * min(x for x in vec if x > DEFAULT_SHARE_TOLERANCE) for vec in theta.shares), default=1.0)


def is_eps_nash(
    net: Network, theta: Assignment, eps: float | None = None, tol: float = DEFAULT_TIME_TOLERANCE
) -> PredicateVerdict:
    """Equilibrium, and no eps-mass route change pays off for the movers.

    For every feasible shift of `eps` mass from route i to route j, the
    time of route j *after* the shift must be at least the time of route i
    before it (`CompiledNetwork.eps_gains`).
    """
    _require_tolerance("tol", tol, below=TIME_TOLERANCE_BOUND)
    if eps is None:
        eps = default_eps(theta)
    _require_tolerance("eps", eps)
    core, x, t = _evaluate(net, theta)
    spread, _, eq, _ = _verdicts(core, x, t, tol)
    p, i, j, gain = core.eps_gains(x, t, eps)
    paying = gain > tol
    shifts = zip(*(a[paying].tolist() for a in (p, i, j, gain))) if paying.any() else ()
    detail = _spread_witnesses(core.names, spread, tol) + tuple(
        f"{core.names[q]}: moving {eps:g} from route {a} to route {b} gains {g:.3e}"
        for q, a, b, g in shifts
    )
    return PredicateVerdict(bool(eq) and not paying.any(), max(0.0, float(gain.max(initial=0.0))), detail)


def verify(
    net: Network, theta: Assignment, tol: float = DEFAULT_TIME_TOLERANCE, eps: float | None = None
) -> EquilibriumReport:
    """Evaluate all three predicates; the report's verdicts are nested so
    eps-Nash implies Nash implies equilibrium by construction.  Route times
    are evaluated once, and shared by the three predicates."""
    _require_tolerance("tol", tol, below=TIME_TOLERANCE_BOUND)
    core, x, t = _evaluate(net, theta)
    spread, shortfall, eq, nash = _verdicts(core, x, t, tol)
    eps_used = default_eps(theta) if eps is None else eps
    _require_tolerance("eps", eps_used)
    gain = core.eps_gains(x, t, eps_used)[-1]
    eps_residual = max(0.0, float(gain.max(initial=0.0)))
    return EquilibriumReport(
        is_equilibrium=bool(eq),
        is_nash=bool(nash),
        is_eps_nash=bool(nash) and eps_residual <= tol,
        common_times=tuple(ExtReal.from_float(m) for m in share_mean(x, t).tolist()),
        equilibrium_residual=max(0.0, float(spread.max())),
        nash_residual=max(0.0, float(shortfall.max())),
        eps_residual=eps_residual,
        eps_used=eps_used,
    )


def compress_time(x: float) -> float:
    """Squash a nonnegative extended-real time into [0, 1].

    Finite x maps to x/(1+x); +infinity maps to 1.  Strictly increasing and
    continuous, which is exactly what the fixed-point construction needs.
    """
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
    core, x, t = _evaluate(net, theta)
    return Assignment.make(core.unpack(core.map_step(x, t)))


def fixed_point_residual(net: Network, theta: Assignment) -> float:
    core, x, t = _evaluate(net, theta)
    return float(np.abs(x - core.map_step(x, t)).max())


def nonmonotone_cost(net: Network) -> tuple[str, str] | None:
    """(population name, road id) of the first cost, in population and cost
    order, that is not structurally monotone; None if every cost is."""
    for pop in net.populations:
        for rid, expr in pop.costs.items():
            if not expr.structurally_monotone():
                return pop.name, rid
    return None


def _require_monotone(net: Network, error: type[Exception], hint: str) -> None:
    found = nonmonotone_cost(net)
    if found is not None:
        raise error(f"cost of road {found[1]!r} for population {found[0]!r} is not monotone; {hint}")


class _Run:
    """One start's state in the damped iteration: its best iterate and
    residual so far, its residual trajectory, the residual it aims below,
    and how it stopped."""

    __slots__ = ("best", "best_residual", "trajectory", "target", "iterations", "converged")

    def __init__(self, x: np.ndarray, target: float):
        self.best = x
        self.best_residual = math.inf
        self.trajectory: list[float] = []
        self.target = target
        self.iterations = 0
        self.converged = False

    def observe(self, x: np.ndarray, residual: float, iteration: int) -> None:
        """Record the map residual at iterate `x`, the iteration-th one."""
        if residual < self.best_residual:
            self.best, self.best_residual = x, residual
        if iteration % 100 == 1:
            self.trajectory.append(residual)

    def settle(self, core: CompiledNetwork, x: np.ndarray, t: np.ndarray, image: np.ndarray,
               residual: float, iteration: int, verify_tol: float) -> bool:
        """At a residual below the target: stop on `image` if x passes the
        Nash gate of `verify` by its times t, else aim tenfold lower.  Stop
        too where iterating on cannot help: at a fixed point (residual 0),
        or once the target is down to `LOWEST_TARGET`."""
        if (residual > 0.0 and self.target > LOWEST_TARGET
                and not _verdicts(core, x, t, verify_tol)[3]):
            self.target = max(self.target / 10, LOWEST_TARGET)
            return False
        self.best, self.best_residual = image, residual
        self.iterations, self.converged = iteration, True
        return True


def _iterate(core: CompiledNetwork, runs: list[_Run], params: SolveParams) -> None:
    """Damped iteration of every run at once, one run per batch column.

    A batch column evaluates bit for bit as its start alone, so each run
    takes the path its solo iteration takes.  A run that settles leaves the
    batch; the last one left runs unbatched, on (P, W) arrays, where each
    step costs less.  A run still going at `max_iters` converged if its
    residual ever passed `residual_tol`.
    """
    active = list(runs)  # the run of each column of x
    x = runs[0].best if len(runs) == 1 else np.stack([run.best for run in runs], axis=-1)
    omega, verify_tol = params.omega, params.verify_tol
    keep = 1 - omega
    for iteration in range(1, params.max_iters + 1):
        t = core.times(x)
        image = core.map_step(x, t)
        if x.ndim == 2:
            residual = float(np.abs(x - image).max())
            run = active[0]
            run.observe(x, residual, iteration)
            if residual < run.target and run.settle(core, x, t, image, residual, iteration, verify_tol):
                return
            x = keep * x + omega * image
            continue
        residuals = np.abs(x - image).max(axis=(0, 1)).tolist()
        left = []  # the columns that go on
        for j, (run, residual) in enumerate(zip(active, residuals)):
            run.observe(x[..., j], residual, iteration)
            settled = residual < run.target and run.settle(
                core, x[..., j], t[..., j], image[..., j], residual, iteration, verify_tol)
            if not settled:
                left.append(j)
        x = keep * x + omega * image
        if len(left) < len(active):
            if not left:
                return
            active = [active[j] for j in left]
            x = x[..., left[0]] if len(left) == 1 else x.take(left, -1)  # C-ordered, as `x[..., left]` is not
    for run in active:
        run.iterations = params.max_iters
        run.converged = run.best_residual < params.residual_tol


def _solve(net: Network, starts: Sequence[Assignment], params: SolveParams) -> list[SolveResult]:
    if not params.allow_nonmonotone:
        _require_monotone(net, NonMonotoneCostError, "pass allow_nonmonotone to solve anyway")
    core = compile_network(net)
    runs = [_Run(core.pack(start), params.residual_tol) for start in starts]
    if runs:
        _iterate(core, runs, params)
    results = []
    for run in runs:
        final = Assignment.make(core.unpack(run.best), tolerance=COMPUTED_TOLERANCE)
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
    residual drops below `residual_tol` or `max_iters` is hit.  Where the
    iterate then fails the Nash gate at `verify_tol`, the iteration goes on
    below a tenfold smaller residual, as often as needed down to
    `LOWEST_TARGET`, unless the map holds the iterate fixed.  The result
    always carries a verification report; non-convergence is flagged on the
    best iterate, never raised.  The trajectory holds the residual every
    100 iterations, then the best one.
    """
    # Calls `_solve` directly, so that the benchmark's spans charge a lone
    # solve's iterations to this function.
    return _solve(net, [theta0 if theta0 is not None else uniform_assignment(net)], params)[0]


def compositions(n: int, resolution: int) -> np.ndarray:
    """Every composition of `resolution` into n nonnegative parts, one row
    each of an int array, in lexicographic order.

    Stars and bars: each choice of n - 1 bar positions among
    resolution + n - 1 slots splits the stars between the bars into one
    composition, and choices in lexicographic order give compositions in
    lexicographic order.
    """
    _require_int("n", n, 1)
    _require_int("resolution", resolution, 1)
    end = resolution + n - 1
    bars = np.array(list(itertools.combinations(range(end), n - 1)), dtype=np.int64)
    return np.diff(bars, axis=1, prepend=-1, append=end) - 1


def _start_points(net: Network, params: MultistartParams) -> list[Assignment]:
    """The vertices (each population's last route first), the barycenter, then random points."""
    corners = (reversed(range(len(pop.routes))) for pop in net.populations)
    starts = [vertex_assignment(net, combo) for combo in itertools.product(*corners)]
    starts.append(uniform_assignment(net))
    rng = np.random.default_rng(params.seed)
    for _ in range(params.random_starts):
        vecs = [rng.dirichlet(np.ones(len(pop.routes))) for pop in net.populations]
        starts.append(Assignment.make([v / v.sum() for v in vecs], tolerance=COMPUTED_TOLERANCE))
    return starts


def solve_multistart(net: Network, params: MultistartParams = MultistartParams()) -> list[SolveResult]:
    """Solve from the vertices of the product of simplices, the barycenter,
    and seeded random interior points; return distinct verified equilibria.

    Results are sorted by assignment and deduplicated at `DEDUP_TOLERANCE`
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
            if gap < DEDUP_TOLERANCE:
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
    _require_int("resolution", resolution, 1)
    core, x, t = _evaluate(net, theta)
    if not _verdicts(core, x, t, DEFAULT_TIME_TOLERANCE)[2]:
        raise PreconditionError("assignment is not an equilibrium")
    at_theta = share_mean(x, t).tolist()
    rows = []
    holds = True
    for p, pop in enumerate(net.populations):
        n = len(pop.routes)
        grid = compositions(n, resolution) / resolution
        values = []
        for chunk in np.split(grid, range(4096, len(grid), 4096)):
            batch = np.repeat(x[..., None], len(chunk), axis=-1)
            batch[p, :n] = chunk.T
            values.append(share_mean(batch, core.times(batch))[p])
        values = np.concatenate(values)
        finite = values[values < math.inf]
        grid_min = float(values.min())
        span = float(finite.max() - finite.min()) if finite.size else 0.0
        tol = max(1e-9, 2.0 * span / resolution)
        attained = at_theta[p] <= grid_min + tol
        holds = holds and attained
        rows.append((pop.name, at_theta[p], grid_min, attained))
    return ConditionalOptimalityResult(holds=holds, per_population=tuple(rows))
