"""Uniqueness diagnostics, the brute-force grid oracle, and scenario comparison.

The uniqueness machinery averages cost derivatives along the segment between
two assignments into four diagonal matrices (own- and cross-sensitivities of
each population's road costs), classifies the per-road 2x2 blocks for
positive semidefiniteness, and samples the coupling hypothesis under which
at most one Nash equilibrium can exist.  Exhaustive verification over all
assignment pairs is impossible, so verdicts are always "sampled".

The grid oracle enumerates product simplex grids and returns every point
that verifies as Nash at a tolerance scaled to the grid spacing; it is the
independent check used against the solver.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import equilibrium
from .compiled import _POW, CompiledNetwork, _route_total, compile_network
from .costs import InfiniteCostError
from .equilibrium import (
    Assignment,
    MultistartParams,
    PreconditionError,
    SolveParams,
    _require_int,
    _require_tolerance,
    compositions,
    nonmonotone_cost,
    solve_fixed_point,
    uniform_assignment,
)
from .netcore import Network, check_condition_gamma

ZERO_TOLERANCE = 1e-12
DISCRIMINANT_TOLERANCE = 1e-9
DEFAULT_ORACLE_BUDGET = 2_000_000  # grid points `brute_force_equilibria` scans at most
MAX_QUADRATURE_NODES = 1000  # per segment: an n-node rule solves an n x n eigenproblem
PARADOX_TOLERANCE = 1e-9  # time increase past which `compare_scenarios` flags a paradox


class OracleBudgetError(ValueError):
    """The requested grid is larger than the enumeration budget."""


class GammaConditionError(ValueError):
    """A population violates the distinguishing-road condition."""

    def __init__(self, population: str, route_index: int):
        self.population = population
        self.route_index = route_index
        super().__init__(
            f"population {population!r}, route {route_index}: no road of its own"
        )


@functools.cache
def gauss_legendre_unit(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], computed once per node
    count and read-only, since every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class SegmentMatrices:
    """Diagonal averaged-derivative matrices along a segment of assignments.

    `own[p][h]` averages the derivative of population p's cost on road h
    with respect to its own flow; `cross[p][h]` with respect to the other
    population's flow.  Own derivatives are averaged along population p's
    flow segment with the other population frozen at the segment's second
    endpoint (for p=0) or first endpoint (for p=1), matching the exact
    telescoping decomposition of route-time differences.
    """

    own: tuple[np.ndarray, np.ndarray]
    cross: tuple[np.ndarray, np.ndarray]
    endpoints: tuple[Assignment, Assignment]
    quadrature_nodes: int


def segment_matrices(
    net: Network,
    first: Assignment,
    second: Assignment,
    quadrature_nodes: int = 16,
) -> SegmentMatrices:
    """Average cost derivatives along the segment between two assignments.

    Requires a two-population network and smooth costs that stay finite on
    the whole segment; an infinite evaluation raises `InfiniteCostError`
    naming the first such (population, road), and a cost undefined on the
    segment raises as `eval_array` does.  Costs on roads a population does
    not use are left out, as in route times.  With these matrices,
    route-time differences between the endpoints factor exactly through
    the incidence matrices:

        T_0(second) - T_0(first) = G0' @ diag(own[0]) @ G0 @ d0
                                 + G0' @ diag(cross[0]) @ G1 @ d1
        T_1(second) - T_1(first) = G1' @ diag(cross[1]) @ G0 @ d0
                                 + G1' @ diag(own[1]) @ G1 @ d1

    where d_p is the share difference and G_p the incidence matrix.
    """
    if len(net.populations) != 2:
        raise PreconditionError("segment matrices are defined for exactly 2 populations")
    _require_int("quadrature_nodes", quadrature_nodes, 1, MAX_QUADRATURE_NODES)
    _require_monotone(net)
    core = compile_network(net)
    ends = (core._flows(core.pack(x).reshape(-1, 1)) for x in (first, second))
    blocks, infinite = _segments(core, *ends, quadrature_nodes)
    if infinite.any():
        p, h, _ = np.argwhere(infinite)[0]
        raise InfiniteCostError(
            f"cost of road {net.roads[h].id!r} for population {net.populations[p].name!r} is "
            f"infinite along the segment"
        )
    q0, q1, p0, p1 = blocks[..., 0]
    return SegmentMatrices(
        own=(q0, q1), cross=(p0, p1), endpoints=(first, second), quadrature_nodes=quadrature_nodes
    )


def _require_monotone(net: Network) -> None:
    found = nonmonotone_cost(net)
    if found is not None:
        raise PreconditionError(
            f"cost of road {found[1]!r} for population {found[0]!r} is not "
            "monotone; averaged sensitivities require increasing costs"
        )


def _segments(
    core: CompiledNetwork, first: np.ndarray, second: np.ndarray, quadrature_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """(blocks, infinite) of the K segments from first[:, k] to second[:, k]
    (road flows of `core._flows`, (P*N + 1, K)): the averaged derivatives
    own[0], own[1], cross[0] and cross[1] of `SegmentMatrices`, (4, N, K),
    and whether a cost is infinite somewhere on its segment, (P, N, K).  A
    batch entry equals its segment alone, bit for bit: pairs come before the
    quadrature nodes, whose weighted sums run left to right from 0."""
    nodes, weights = gauss_legendre_unit(quadrature_nodes)
    start, end = first[..., None], second[..., None]  # the last flow row is the zero row
    population = np.arange(len(start)) // core.road_count  # of each flow row; 2 for the zero row
    line = np.minimum((1 - nodes) * start + nodes * end, 1.0)
    averages, infinite = [], []
    # Population 0 moves with population 1 frozen at the second endpoint,
    # then population 1 moves with population 0 frozen at the first: the
    # order that makes the telescoping identity exact.
    for p, frozen in ((0, end), (1, start)):
        moving = (population == p)[:, None, None]
        tangent = np.where(moving, 1.0, np.zeros_like(line))
        slopes = core.program.slopes(np.where(moving, line, frozen), tangent)
        infinite.append(np.isinf(slopes).any(axis=-1))
        averages.append(np.cumsum(slopes * weights, axis=-1)[..., -1] + 0.0)
    # Moving population 0 gives own[0] and cross[1]; moving 1 gives cross[0] and own[1].
    blocks = np.stack(averages)[[[0], [1], [1], [0]], core.cost_slots[[0, 1, 0, 1]]]
    return blocks, (infinite[0] | infinite[1])[core.cost_slots]


# Case codes of a road's 2x2 sensitivity block, most benign first.
H_STRICT = "H0"
H_INERT = "H1"
H_FIRST = "H2"
H_SECOND = "H3"
H_BOUNDARY = "H4"
H_VIOLATION = "violation"
H_NOT_SHARED = "n/a"

CASE_LEGEND = {
    H_STRICT: "strictly coupled (both own-sensitivities positive, strict discriminant)",
    H_INERT: "all four sensitivities zero",
    H_FIRST: "only the first population's own-sensitivity positive",
    H_SECOND: "only the second population's own-sensitivity positive",
    H_BOUNDARY: "discriminant exactly at the semidefiniteness boundary",
    H_VIOLATION: "block not positive semidefinite",
    H_NOT_SHARED: "road not used by both populations",
}

# The cases in rising severity; a block's rank is its index here.
_CASES = (H_NOT_SHARED, H_STRICT, H_INERT, H_FIRST, H_SECOND, H_BOUNDARY, H_VIOLATION)
_RANK = {case: rank for rank, case in enumerate(_CASES)}


def _block_ranks(q0: np.ndarray, q1: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """The case rank of every block [[q0, p0], [p1, q1]].  With nonnegative
    entries a block is PSD exactly when 4*q0*q1 >= (p0+p1)^2, tested
    relative to the larger side; a negative entry is outside the lemma."""
    zero = ZERO_TOLERANCE
    p_sum = p0 + p1
    # Both sides are quadratic: blocks past 2^500 are tested scaled by an exact power of two.
    largest = np.maximum(np.maximum(abs(q0), abs(q1)), abs(p_sum))
    shift = np.ldexp(1.0, -np.maximum(np.frexp(largest)[1] - 500, 0))
    product = 4 * (q0 * shift) * (q1 * shift)
    square = _POW(p_sum * shift, 2).astype(float)  # libm pow, as `float ** 2`
    disc = product - square
    slack = DISCRIMINANT_TOLERANCE * np.maximum(product, square)
    first, second = q0 > zero, q1 > zero
    both = first & second
    cases = [
        (np.minimum(np.minimum(q0, q1), np.minimum(p0, p1)) < -zero, H_VIOLATION),
        (both & (disc > slack), H_STRICT),
        (both & (disc >= -slack), H_BOUNDARY),
        (both | (p_sum > zero), H_VIOLATION),
        (first, H_FIRST),
        (second, H_SECOND),
    ]
    return np.select([c for c, _ in cases], [_RANK[case] for _, case in cases], _RANK[H_INERT])


_DEFPOS_CASES = {
    H_STRICT: "coupled",
    H_BOUNDARY: "coupled",
    H_INERT: "all-zero",
    H_FIRST: "first-only",
    H_SECOND: "second-only",
    H_VIOLATION: "violation",
}


@dataclass(frozen=True)
class DefposResult:
    ok: bool
    cases: tuple[str, ...]  # per road: all-zero | first-only | second-only | coupled | violation


def check_defpos(sm: SegmentMatrices) -> DefposResult:
    """Classify each road's 2x2 sensitivity block for positive semidefiniteness:
    the block's case under its admissible-case name."""
    ranks = _block_ranks(sm.own[0], sm.own[1], sm.cross[0], sm.cross[1])
    cases = tuple(_DEFPOS_CASES[_CASES[rank]] for rank in ranks.tolist())
    return DefposResult(ok="violation" not in cases, cases=cases)


@dataclass(frozen=True)
class UniquenessReport:
    defpos_ok: bool
    road_cases: tuple[tuple[str, str], ...]  # (road id, worst case over sampled pairs)
    exceptional_roads: int  # worst pair's count of shared roads short of strict
    hypothesis_satisfied: bool
    pairs_sampled: int
    pairs_skipped_infinite: int
    verdict: str
    pair_residuals: tuple[tuple[float | None, ...], ...] = ()
    """`check_pair_orthogonality` of every pair of the distinct multistart
    equilibria, in pair order; None where a route time is infinite."""


@dataclass(frozen=True)
class HSampler:
    pairs: int = 100
    seed: int = 0
    quadrature_nodes: int = 16

    def __post_init__(self) -> None:
        _require_int("pairs", self.pairs, 0)
        _require_int("seed", self.seed, 0)
        _require_int("quadrature_nodes", self.quadrature_nodes, 1, MAX_QUADRATURE_NODES)


def check_hypothesis_coupling(net: Network, sampler: HSampler = HSampler()) -> UniquenessReport:
    """Sample assignment pairs and test the at-most-one-equilibrium hypothesis.

    Preconditions: exactly two populations, each satisfying the
    distinguishing-road condition (raises `GammaConditionError` naming the
    first offender), and monotone costs.  The sample is every two vertices
    of the product of simplices, the barycenter with each vertex, then
    `sampler.pairs` random pairs; past `UNIQUENESS_BUDGET` pairs it is
    refused with `OracleBudgetError` before any of it is built.  For each
    sampled pair, every road used by both populations must satisfy the
    strict coupling case, except at most one road falling in one of the
    degenerate admissible cases.  Roads outside either population's
    subnetwork are excluded (`n/a`).  Pairs whose segment meets an infinite
    cost are skipped and counted.  The verdict is "at-most-one (sampled)" or
    "hypothesis fails (sampled)"; sampling never proves the hypothesis for
    all pairs.  Memory grows with the pair count only through two index
    arrays: the points' road flows are computed once, and each batch of
    segments is reduced to the report's maxima before the next.
    """
    if len(net.populations) != 2:
        raise PreconditionError("uniqueness analysis is defined for exactly 2 populations")
    for p, pop in enumerate(net.populations):
        holds, witnesses = check_condition_gamma(net, p)
        if not holds:
            offender = next(i for i in range(len(pop.routes)) if i not in witnesses)
            raise GammaConditionError(pop.name, offender)
    _require_monotone(net)
    vertices = math.prod(len(pop.routes) for pop in net.populations)
    sample = math.comb(vertices, 2) + vertices + sampler.pairs
    if sample > UNIQUENESS_BUDGET:
        raise OracleBudgetError(
            f"uniqueness sample of {sample} pairs exceeds the budget of {UNIQUENESS_BUDGET}"
        )
    core = compile_network(net)
    points, first, second = _sample_pairs(net, core, sampler)
    flows = core._flows(points.reshape(-1, points.shape[-1]))  # (P*N + 1, points)
    nodes = sampler.quadrature_nodes
    chunk = max(1, SEGMENT_BATCH // (nodes * (len(flows) + core.program.slot_count)))
    shared = (core.cost_slots != core.program.zero_slot).all(axis=0)
    worst = np.zeros(core.road_count, dtype=int)  # rank 0: not shared
    exceptional = evaluated = 0
    for k in range(0, len(first), chunk):
        pairs = slice(k, k + chunk)
        blocks, infinite = _segments(core, flows[:, first[pairs]], flows[:, second[pairs]], nodes)
        ranks = _block_ranks(*blocks[:, shared][..., ~infinite.any(axis=(0, 1))])  # (shared roads, finite pairs)
        worst[shared] = np.maximum(worst[shared], ranks.max(axis=1, initial=0))
        exceptional = max(exceptional, int(np.count_nonzero(ranks != _RANK[H_STRICT], axis=0).max(initial=0)))
        evaluated += ranks.shape[1]
    defpos_ok = bool(worst.max() < _RANK[H_VIOLATION])
    satisfied = defpos_ok and exceptional <= 1 and evaluated > 0
    if evaluated == 0:
        verdict = "no finite sample pairs"
    else:
        verdict = "at-most-one (sampled)" if satisfied else "hypothesis fails (sampled)"
    return UniquenessReport(
        defpos_ok=defpos_ok,
        road_cases=tuple((road.id, _CASES[rank]) for road, rank in zip(net.roads, worst.tolist())),
        exceptional_roads=exceptional,
        hypothesis_satisfied=satisfied,
        pairs_sampled=evaluated,
        pairs_skipped_infinite=len(first) - evaluated,
        verdict=verdict,
    )


UNIQUENESS_BUDGET = 1_000_000  # pairs `check_hypothesis_coupling` samples at most
# Flow rows and slots times quadrature nodes of one segment batch.  Batches
# as large as the compiled working set (`_WORKING_SET`, 1 << 17) speed up
# only samples of thousands of pairs, and cost the small ones memory.  On a
# shared 2-vCPU x86_64 box, in-process: `delay_spillover` at 400 pairs took
# the same time either way (37 ms, interleaved) while its traced peak rose
# from 0.43 to 3.96 MiB, against the 44 MiB peak RSS of the benchmark's
# `analysis` workload; layered (4, 2, 2) at 0 pairs, which no benchmark op
# runs, fell from 10.9 to 8.6 s.
SEGMENT_BATCH = 1 << 13


def _sample_pairs(net: Network, core: CompiledNetwork, sampler: HSampler) -> tuple[np.ndarray, ...]:
    """(points, first, second): padded shares (P, W, T) of the V vertices of
    the product of simplices in product order, the barycenter, then
    2 * `sampler.pairs` random draws; and the index arrays into them of the
    sampled pairs, every two vertices, the barycenter with each vertex, then
    the draws two by two."""
    vertices = math.prod(core.route_counts)
    points = np.zeros((core.pop_count, core.width, vertices + 1 + 2 * sampler.pairs))
    corners = np.array(np.unravel_index(np.arange(vertices), core.route_counts))  # (P, V)
    points[np.arange(core.pop_count)[:, None], corners, np.arange(vertices)] = 1.0
    points[..., vertices] = core.pack(uniform_assignment(net))
    rng = np.random.default_rng(sampler.seed)
    for k in range(vertices + 1, points.shape[-1]):
        shares = [rng.dirichlet(np.ones(n)) for n in core.route_counts]
        points[..., k] = core.pack(Assignment.make(shares, tolerance=1e-9))
    i, j = np.triu_indices(vertices, 1)  # in `itertools.combinations` order
    draws = np.arange(vertices + 1, points.shape[-1], 2)
    first = np.concatenate([i, np.full(vertices, vertices), draws])
    second = np.concatenate([j, np.arange(vertices), draws + 1])
    return points, first, second


def check_uniqueness(
    net: Network, sampler: HSampler = HSampler(), multistart: MultistartParams = MultistartParams()
) -> UniquenessReport:
    """The sampled verdict of `check_hypothesis_coupling`, unless
    `solve_multistart` finds k >= 2 distinct verified equilibria: then the
    verdict is "several equilibria (k found)", with every pair's residuals."""
    report = check_hypothesis_coupling(net, sampler)
    found = [r.assignment for r in equilibrium.solve_multistart(net, multistart)]
    if len(found) < 2:
        return report
    verdict = f"several equilibria ({len(found)} found)"
    core = compile_network(net)
    x = np.stack([core.pack(a) for a in found], axis=-1)
    return replace(report, verdict=verdict, pair_residuals=_pair_residuals(x, core.times(x)))


def _pair_residuals(x: np.ndarray, t: np.ndarray) -> tuple[tuple[float | None, ...], ...]:
    """Per-population (b - a)' (t(b) - t(a)) of the pairs (a, b) of the
    `itertools.combinations` of the columns of padded shares x (P, W, K) and
    their batched times t, None where a route time is infinite."""
    finite = (t < math.inf).all(axis=1)  # (P, K)
    t = np.where(finite[:, None], t, 0.0)
    i, j = np.triu_indices(x.shape[-1], 1)  # i < j, by i
    residuals = _route_total((x[..., j] - x[..., i]) * (t[..., j] - t[..., i]))
    return tuple(map(tuple, np.where(finite[:, i] & finite[:, j], residuals, None).T.tolist()))


def check_pair_orthogonality(net: Network, first: Assignment, second: Assignment) -> tuple[float, ...]:
    """Per-population residual (d_shares)' (d_times) between two Nash points:
    at most 0 up to the tolerance, since a' t(a) = min t(a) <= b' t(a) and
    b' t(b) <= a' t(b).  A clearly positive value flags a false positive
    from the solver, a clearly negative one two distinct equilibria.  Both
    inputs must verify as Nash at `is_nash`'s default tolerances, and every
    route time must be finite.  Both points are evaluated in one batch.
    """
    core = compile_network(net)
    x = np.stack([core.pack(first), core.pack(second)], axis=-1)
    t = core.times(x)
    tolerances = equilibrium.DEFAULT_TIME_TOLERANCE, equilibrium.DEFAULT_SHARE_TOLERANCE
    for label, nash in zip(("first", "second"), equilibrium._verdicts(core, x, t, *tolerances)[3]):
        if not nash:
            raise PreconditionError(f"{label} assignment is not a Nash equilibrium")
    residuals = _pair_residuals(x, t)[0]
    if None in residuals:
        raise PreconditionError("infinite route time in uniqueness residual")
    return residuals


@dataclass(frozen=True)
class OracleResult:
    resolution: int
    equilibria: tuple[tuple[Assignment, float], ...]
    tolerance: float
    points_scanned: int


def _estimate_time_variation(net: Network) -> float:
    """Route-time variation per unit share change, sampled at 64 seeded points.

    A high percentile of the finite sampled ratios, not the maximum:
    unbounded costs make the true Lipschitz constant infinite near their
    blow-up set, and an exploding estimate would drown the oracle in
    false hits.
    """
    core = compile_network(net)
    rng = np.random.default_rng(0)
    step = 1e-3
    pairs = []
    for _ in range(64):
        base = [rng.dirichlet(np.ones(n)) for n in core.route_counts]
        for p in range(core.pop_count):
            if core.route_counts[p] < 2:
                continue
            moved = [b.copy() for b in base]
            i, j = rng.choice(core.route_counts[p], size=2, replace=False)
            if moved[p][i] < step:
                continue
            moved[p][i] -= step
            moved[p][j] += step
            pairs += [core.pack(base), core.pack(moved)]
    ratios = [1.0]
    if pairs:
        times = core.times(np.stack(pairs, axis=-1))[core.valid]
        before, after = times[:, 0::2], times[:, 1::2]
        finite = (before < math.inf) & (after < math.inf)
        with np.errstate(over="ignore"):  # a ratio past the float range is +inf, the steepest
            ratios += (np.abs(after[finite] - before[finite]) / step).tolist()
    ratios.sort()
    return ratios[int(0.75 * (len(ratios) - 1))]


def brute_force_equilibria(
    net: Network,
    resolution: int,
    tol: float | None = None,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> OracleResult:
    """Enumerate product simplex grids and keep the Nash points.

    The Nash tolerance is max(tol, variation/resolution) with an empirically
    sampled variation bound, so coarse grids do not miss equilibria and fine
    grids do not sprout spurious ones.  A route is relevant when its share
    is positive: every grid share is 0 or at least 1/resolution.  A
    tolerance of 1 or more passes every grid point whose relevant times are
    finite, since a spread is at most its scale and a shortfall at most its
    mean scale.  Adjacent hits (no share more than two grid steps apart)
    merge into one cluster represented by the hit with the smallest
    residual.  Raises `OracleBudgetError` when the grid would exceed
    `budget` points.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    if tol is not None:
        _require_tolerance("tol", tol, positive=False)
    counts = compile_network(net).route_counts
    sizes = [math.comb(resolution + n - 1, n - 1) for n in counts]
    total = math.prod(sizes)
    if total > budget:
        raise OracleBudgetError(
            f"grid of {total} points exceeds the budget of {budget}"
        )
    variation = _estimate_time_variation(net)
    tolerance = max(tol or 0.0, variation / resolution)

    grids = [compositions(n, resolution) for n in counts]
    steps, residuals = _scan_product_grid(net, grids, resolution, tolerance)
    populations = np.cumsum(counts)[:-1]  # where each population's columns start
    return OracleResult(
        resolution=resolution,
        equilibria=tuple(
            (Assignment.make(np.split(steps[k] / resolution, populations), tolerance=1e-9),
             float(residuals[k]))
            for k in _cluster_hits(steps, residuals).tolist()
        ),
        tolerance=tolerance,
        points_scanned=total,
    )


def _scan_product_grid(
    net: Network, grids: list[np.ndarray], resolution: int, tolerance: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nash scan of the product of the populations' composition grids, in
    batches of whole last-population grids, in the grid product's order.
    A point is a hit when every population's relevant times spread by at
    most tolerance * scale and no unused route undercuts the mean by more
    than tolerance * mean scale; its residual is the largest absolute spread
    or shortfall.  Returns each hit's compositions side by side as one int
    row, in scan order, which is lexicographic, and the hits' residuals."""
    core = compile_network(net)
    last = len(grids) - 1
    outer = np.array(list(itertools.product(*(range(len(g)) for g in grids[:last]))), dtype=int)
    inner = len(grids[last])
    per_batch = max(1, core._chunk // inner)  # the working set `core.times` evaluates at once
    # Every batch reuses one share array and the evaluation's buffers.  The
    # last population's grid and the padding are the same in every batch.
    shares = np.zeros((core.pop_count, core.width, per_batch, inner))
    shares[last, : core.route_counts[last]] = (grids[last] / resolution).T[:, None, :]
    scratch: dict = {}
    found, residuals = [], []  # per batch: the hits' indices into the grid product, their residuals
    for start in range(0, len(outer), per_batch):
        block = outer[start : start + per_batch]
        for p in range(last):
            rows = grids[p][block[:, p]] / resolution
            shares[p, : core.route_counts[p], : len(block)] = rows.T[..., None]
        x = shares[:, :, : len(block)].reshape(core.pop_count, core.width, -1)
        s = core.spreads(x, core.times(x, scratch), 0.0)
        points = x.shape[2]
        shortfall = s.shortfall.reshape(-1, points)
        with np.errstate(over="ignore"):  # a bound past the float range is +inf, met by all
            ok = np.logical_and.reduce(s.spread <= tolerance * s.scale)
            undercut = (s.shortfall <= tolerance * s.mean_scale).reshape(-1, points)
        ok &= np.logical_and.reduce(undercut)
        worst = np.maximum(s.spread.max(axis=0), shortfall.max(axis=0).clip(0.0))
        found.append(start * inner + np.flatnonzero(ok))
        residuals.append(worst[ok])
    row, column = np.divmod(np.concatenate(found), inner)
    steps = [grids[p][outer[row, p]] for p in range(last)] + [grids[last][column]]
    return np.concatenate(steps, axis=1), np.concatenate(residuals)


CLUSTER_BLOCK = 1 << 12  # candidate pairs whose gaps one block of the sweep holds


def _cluster_hits(steps: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the hits that represent the components under
    "no coordinate more than two grid steps apart": each component's hit
    with the smallest (residual, index).  Rows of `steps` are sorted."""
    label = _components(len(steps), *_neighbour_pairs(steps))
    order = np.lexsort((residuals, label))  # stable: ties stay in row order
    return np.sort(order[np.flatnonzero(np.diff(label[order], prepend=-1))])


def _neighbour_pairs(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) arrays, i < j, of the rows of the integer grid coordinates
    `steps` whose largest coordinate gap is at most 2.  Rows are sorted, so
    column 0 never decreases and the candidates j of row i form the window
    i < j < end[i].  Gaps are computed one coordinate at a time, in blocks
    of about CLUSTER_BLOCK candidates (one whole row at least)."""
    count = len(steps)
    lead = steps[:, 0]
    widths = np.searchsorted(lead, lead + 2, side="right") - np.arange(1, count + 1)
    offsets = np.concatenate(([0], np.cumsum(widths)))
    columns = np.ascontiguousarray(steps.T)
    found = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int))]  # no pairs without rows
    start = 0
    while start < count:
        stop = np.searchsorted(offsets, offsets[start] + CLUSTER_BLOCK, side="right") - 1
        stop = max(stop, start + 1)
        counts = widths[start:stop]
        i = np.repeat(np.arange(start, stop), counts)
        row_start = np.repeat(offsets[start:stop] - offsets[start], counts)
        j = i + 1 + np.arange(len(i)) - row_start  # i + 1 up to the window's end
        gap = np.abs(columns[0, i] - columns[0, j])
        for column in columns[1:]:
            np.maximum(gap, np.abs(column[i] - column[j]), out=gap)
        near = gap <= 2
        found.append((i[near], j[near]))
        start = stop
    return np.concatenate([i for i, _ in found]), np.concatenate([j for _, j in found])


def _components(count: int, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Each node's smallest connected node, for the graph with edges
    (first[e], second[e]).  Every round hooks each root that an edge joins
    to a smaller root onto the smallest such root, then compresses every
    path to its root.  Labels only fall, and a round leaves fewer roots
    while any edge joins two, so the last root of a component is its
    smallest node."""
    label = np.arange(count)
    while True:
        a, b = label[first], label[second]
        if np.array_equal(a, b):
            return label
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


@dataclass(frozen=True)
class BraessReport:
    population_names: tuple[str, ...]
    base_assignment: Assignment
    variant_assignment: Assignment
    base_times: tuple[float, ...]
    variant_times: tuple[float, ...]
    deltas: tuple[float, ...]
    paradox: tuple[bool, ...]


class CompareError(RuntimeError):
    """A scenario comparison failed because a solve did not verify."""


def compare_scenarios(
    base: Network,
    variant: Network,
    params: SolveParams = SolveParams(),
) -> BraessReport:
    """Solve both networks and flag populations whose time strictly worsens.

    Populations are matched by name; both networks must solve to verified
    Nash equilibria from the barycenter (otherwise `CompareError`).  A
    population's paradox flag is set when its equilibrium travel time in the
    variant exceeds the base time by more than `PARADOX_TOLERANCE`.
    """
    base_names = base.population_names()
    if set(base_names) != set(variant.population_names()):
        raise PreconditionError("base and variant must share population names")
    results = {}
    for label, net in (("base", base), ("variant", variant)):
        result = solve_fixed_point(net, uniform_assignment(net), params)
        if not result.success:
            raise CompareError(f"{label} network did not solve to a verified equilibrium")
        results[label] = result
    base_times = dict(zip(base_names, results["base"].verified.common_times))
    variant_times = dict(zip(variant.population_names(), results["variant"].verified.common_times))
    before = tuple(base_times[n] for n in base_names)
    after = tuple(variant_times[n] for n in base_names)
    deltas = tuple(a - b for a, b in zip(after, before))
    return BraessReport(
        population_names=base_names,
        base_assignment=results["base"].assignment,
        variant_assignment=results["variant"].assignment,
        base_times=before,
        variant_times=after,
        deltas=deltas,
        paradox=tuple(d > PARADOX_TOLERANCE for d in deltas),
    )
