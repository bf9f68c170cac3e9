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
from typing import Iterator

import numpy as np

from . import equilibrium
from .compiled import _POW, COMPUTED_TOLERANCE, CompiledNetwork, _buffer, _total, compile_network
from .costs import InfiniteCostError
from .equilibrium import (
    DEFAULT_TIME_TOLERANCE,
    TIME_TOLERANCE_BOUND,
    Assignment,
    MultistartParams,
    PreconditionError,
    SolveParams,
    _require_int,
    _require_monotone,
    _require_tolerance,
    compositions,
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
    _require_monotone(net, PreconditionError, "averaged sensitivities require increasing costs")
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
    averages, infinite = [], []
    for moving, points in _segment_points(core, first[..., None], second[..., None], nodes):
        tangent = np.where(moving, 1.0, np.zeros_like(points))
        slopes = core.program.slopes(points, tangent)
        infinite.append(np.isinf(slopes).any(axis=-1))
        averages.append(_total(slopes * weights, -1))
    # Moving population 0 gives own[0] and cross[1]; moving 1 gives cross[0] and own[1].
    blocks = np.stack(averages)[[[0], [1], [1], [0]], core.cost_slots[[0, 1, 0, 1]]]
    return blocks, (infinite[0] | infinite[1])[core.cost_slots]


def _segment_points(
    core: CompiledNetwork, start: np.ndarray, end: np.ndarray, nodes: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per moving population p: whether each flow row is p's (P*N + 1, 1, 1),
    and the flow points (P*N + 1, K, nodes) of the K segments from
    start[:, k, 0] to end[:, k, 0], p's rows on the line clamped at 1.
    Population 0 moves with 1 frozen at the end, then 1 with 0 frozen at
    the start: the order that makes the telescoping identity exact."""
    population = np.arange(len(start))[:, None, None] // core.road_count
    line = np.minimum((1 - nodes) * start + nodes * end, 1.0)
    for p, frozen in ((0, end), (1, start)):
        moving = population == p
        yield moving, np.where(moving, line, frozen)


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
    all pairs.

    The report is that of evaluating every pair's segment, reached in one
    of three ways:
    - Where every cost is a linear form or a fold of them and none can
      raise, slopes are constant, so every pair's blocks are those of one
      segment: that one is evaluated, for the whole sample, and nothing is
      drawn.
    - Else, where no cost can raise, a pair whose congestion load reaches
      its capacity at the first or last quadrature node
      (`_certainly_infinite`) is skipped before its segment is evaluated.
    - The other pairs' segments are evaluated in batches, each reduced to
      the report's maxima before the next.
    The random pairs are drawn, flowed and evaluated `_sample_pairs` batch
    by batch, so memory grows with the pair count only through the index
    arrays of the vertex pairs.  A refused draw raises as `_draw_shares`
    does, after the evaluation of the batches before its own.
    """
    if len(net.populations) != 2:
        raise PreconditionError("uniqueness analysis is defined for exactly 2 populations")
    for p, pop in enumerate(net.populations):
        holds, witnesses = check_condition_gamma(net, p)
        if not holds:
            offender = next(i for i in range(len(pop.routes)) if i not in witnesses)
            raise GammaConditionError(pop.name, offender)
    _require_monotone(net, PreconditionError, "averaged sensitivities require increasing costs")
    vertices = math.prod(len(pop.routes) for pop in net.populations)
    sample = math.comb(vertices, 2) + vertices + sampler.pairs
    if sample > UNIQUENESS_BUDGET:
        raise OracleBudgetError(
            f"uniqueness sample of {sample} pairs exceeds the budget of {UNIQUENESS_BUDGET}"
        )
    core = compile_network(net)
    raising = core.program.raising_slots()
    linear = core.program.is_linear() and raising is None
    if linear:  # the barycenter with itself stands for every pair
        batches = [(core.pack(uniform_assignment(net))[..., None], *np.zeros((2, 1), dtype=int))]
    else:
        batches = _sample_pairs(net, core, sampler)
    nodes = sampler.quadrature_nodes
    chunk = max(1, SEGMENT_BATCH // (nodes * (core._flow_gather.shape[1] + core.program.slot_count)))
    shared = (core.cost_slots != core.program.zero_slot).all(axis=0)
    worst = np.zeros(core.road_count, dtype=int)  # rank 0: not shared
    exceptional = evaluated = 0
    for points, first, second in batches:
        flows = core._flows(points.reshape(-1, points.shape[-1]))  # (P*N + 1, points)
        if raising is None:
            finite = ~_certainly_infinite(core, flows, first, second, gauss_legendre_unit(nodes)[0])
            first, second = first[finite], second[finite]
        for k in range(0, len(first), chunk):
            pairs = slice(k, k + chunk)
            blocks, infinite = _segments(core, flows[:, first[pairs]], flows[:, second[pairs]], nodes)
            ranks = _block_ranks(*blocks[:, shared][..., ~infinite.any(axis=(0, 1))])  # (shared roads, finite pairs)
            worst[shared] = np.maximum(worst[shared], ranks.max(axis=1, initial=0))
            exceptional = max(exceptional, int(np.count_nonzero(ranks != _RANK[H_STRICT], axis=0).max(initial=0)))
            evaluated += ranks.shape[1]
    if linear:
        evaluated *= sample  # the one segment stands for every pair
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
        pairs_skipped_infinite=sample - evaluated,
        verdict=verdict,
    )


UNIQUENESS_BUDGET = 1_000_000  # pairs `check_hypothesis_coupling` samples at most
# Flow rows and slots times quadrature nodes of one segment batch, and flow
# rows and loads times end nodes of one batch of `_certainly_infinite`.
# Against batches as large as the compiled working set (`_WORKING_SET`,
# 1 << 17), in-process on a shared 2-vCPU x86_64 box, medians of 5-21 runs:
# layered (4, 2, 2) at 0 pairs, where 138 of 32,896 pairs reach the
# segments, took 0.23-0.26 s against 0.17-0.23 s, at a traced peak of 1.08
# against 4.83 MiB; `congestion_corridor` at 400 pairs took 5.7-6.4 ms
# against 3.0-3.7 ms, at 0.45 against 1.29 MiB.  The smaller batch keeps
# the peak well inside the 44 MiB peak RSS of the benchmark's `analysis`
# workload.
SEGMENT_BATCH = 1 << 13
# Shares and road flows of the drawn points of one `_sample_pairs` batch:
# `congestion_corridor` draws 780 pairs a batch, and its traced peak was
# 0.61 MiB at 1,000 pairs, 0.71 MiB at 10,000 and 0.72 MiB at 50,000,
# where drawing the whole sample at once peaked at 28.2 MiB at 50,000.
DRAW_BATCH = 1 << 15


def _certainly_infinite(
    core: CompiledNetwork, flows: np.ndarray, first: np.ndarray, second: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Whether the segment of each pair (first[k], second[k]) of flow points
    meets an infinite cost in `_segments` at its first or last quadrature
    node, for either moving population: a congestion load that is a cost of
    its own (not a folded term) reaches its capacity there.  Both take
    their points from `_segment_points`, and `CostProgram.loads` sums the
    loads as `slopes` does, so a flagged pair is infinite, bit for bit;
    the others are left to `_segments`.  Along a segment
    a population's load on a road is linear, so these two nodes hold its
    largest loads, up to rounding.  Pairs go in batches of SEGMENT_BATCH
    flow rows and loads times nodes."""
    slots, capacity = core.program.load_slots()
    own = np.isin(slots, core.cost_slots)
    flagged = np.zeros(len(first), dtype=bool)
    if not own.any():
        return flagged
    capacity = capacity[own, None, None]
    ends = np.unique(nodes[[0, -1]])
    chunk = max(1, SEGMENT_BATCH // (len(ends) * (len(flows) + len(slots))))
    for k in range(0, len(first), chunk):
        pairs = slice(k, k + chunk)
        start, end = flows[:, first[pairs], None], flows[:, second[pairs], None]
        for _, points in _segment_points(core, start, end, ends):
            flagged[pairs] |= (core.program.loads(points)[own] >= capacity).any(axis=(0, 2))
    return flagged


def _sample_pairs(
    net: Network, core: CompiledNetwork, sampler: HSampler
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The sampled pairs in batches (points, first, second): padded shares
    (P, W, T), and the index arrays into them of the batch's pairs.  The
    first batch holds the V vertices of the product of simplices in product
    order, the barycenter and the first draws, and pairs every two vertices,
    the barycenter with each vertex, then the draws two by two; each later
    batch holds the next draws, two by two.  The 2 * `sampler.pairs` random
    draws come from one generator seeded with `sampler.seed`, in order, and
    each batch draws as many pairs as fill `DRAW_BATCH` shares and road
    flows, at least one."""
    rng = np.random.default_rng(sampler.seed)
    per_batch = max(1, DRAW_BATCH // (2 * (core.pop_count * core.width + core._flow_gather.shape[1])))
    drawn = min(sampler.pairs, per_batch)
    vertices = math.prod(core.route_counts)
    points = np.zeros((core.pop_count, core.width, vertices + 1 + 2 * drawn))
    corners = np.array(np.unravel_index(np.arange(vertices), core.route_counts))  # (P, V)
    points[np.arange(core.pop_count)[:, None], corners, np.arange(vertices)] = 1.0
    points[..., vertices] = core.pack(uniform_assignment(net))
    points[..., vertices + 1 :] = _draw_shares(core, 2 * drawn, rng)
    i, j = np.triu_indices(vertices, 1)  # in `itertools.combinations` order
    draws = np.arange(vertices + 1, points.shape[-1], 2)
    first = np.concatenate([i, np.full(vertices, vertices), draws])
    second = np.concatenate([j, np.arange(vertices), draws + 1])
    yield points, first, second
    for k in range(drawn, sampler.pairs, per_batch):
        draws = np.arange(0, 2 * min(per_batch, sampler.pairs - k), 2)
        yield _draw_shares(core, 2 * len(draws), rng), draws, draws + 1


def _draw_shares(core: CompiledNetwork, count: int, seed: int | np.random.Generator) -> np.ndarray:
    """Padded shares (P, W, count) of `count` draws from the generator `seed`
    (or one seeded with it), equal bit for bit to drawing each one
    population by population as
    `Assignment.make([rng.dirichlet(np.ones(n)) for n in core.route_counts],
    tolerance=COMPUTED_TOLERANCE)`, and raising where that raises.  For alpha 1,
    `dirichlet` normalizes standard gamma variates, drawn in that same order:
    it multiplies by the reciprocal of their left-to-right sum.  `make`
    checks that sum again, clamps at 0, which leaves nonnegative variates
    as they are, and divides by it."""
    gammas = np.random.default_rng(seed).standard_gamma(1.0, (count, sum(core.route_counts))).T
    blocks = np.split(gammas, np.cumsum(core.route_counts)[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):  # variates summing to 0: nan shares, refused below
        drawn = [block * (1 / _total(block)) for block in blocks]
    totals = [_total(block) for block in drawn]
    refused = np.logical_or.reduce([~(abs(t - 1.0) <= COMPUTED_TOLERANCE) for t in totals])  # also where not finite
    if refused.any():  # `make`'s error for the first draw it refuses
        Assignment.make([block[:, refused.argmax()] for block in drawn], tolerance=COMPUTED_TOLERANCE)
    shares = np.zeros((core.pop_count, core.width, count))
    for p, (block, total) in enumerate(zip(drawn, totals)):
        shares[p, : len(block)] = block / total
    return shares


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
    residuals = _total((x[..., j] - x[..., i]) * (t[..., j] - t[..., i]), 1)
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
    for label, nash in zip(("first", "second"), equilibrium._verdicts(core, x, t, DEFAULT_TIME_TOLERANCE)[3]):
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

    Each base point is drawn population by population as
    `rng.dirichlet(np.ones(n))` would draw it: for alpha 1, `dirichlet`
    multiplies n standard exponential variates by the reciprocal of their
    left-to-right sum, so one `standard_exponential` call per base point,
    normalized that way, gives the same shares from the same stream.  Each
    population of two routes or more then moves a step of share from
    route i to route j, (i, j) drawn by `rng.choice`; the point before and
    after the step are columns 2k and 2k + 1 of one batch.
    """
    core = compile_network(net)
    rng = np.random.default_rng(0)
    step = 1e-3
    counts = core.route_counts
    bounds = np.cumsum([0] + counts).tolist()
    movable = [p for p in range(core.pop_count) if counts[p] >= 2]
    points = np.zeros((core.pop_count, core.width, 2 * 64 * len(movable)))
    k = 0
    for _ in range(64):
        drawn = rng.standard_exponential(bounds[-1])
        base = np.zeros((core.pop_count, core.width))
        for p, (a, b) in enumerate(itertools.pairwise(bounds)):
            base[p, : b - a] = drawn[a:b] * (1.0 / _total(drawn[a:b]))
        for p in movable:
            i, j = rng.choice(counts[p], size=2, replace=False)
            if base[p, i] < step:
                continue
            points[..., k] = points[..., k + 1] = base
            points[p, i, k + 1] -= step
            points[p, j, k + 1] += step
            k += 2
    ratios = [1.0]
    if k:
        times = core.times(points[..., :k])[core.valid]
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
    mean scale: `tol` must lie in [0, 1), though the variation bound of a
    coarse grid can reach 1.  Adjacent hits (no share more than two grid
    steps apart) merge into one cluster represented by the hit with the
    smallest residual.  Raises `OracleBudgetError` when the grid would
    exceed `budget` points, a positive int.  `points_scanned` is the grid's
    size: every point is decided, evaluated by the scan or skipped by its
    bound pass (`_scan_product_grid`), which never changes the hits.
    """
    _require_int("resolution", resolution, 1)
    _require_int("budget", budget, 1)
    if tol is not None:
        _require_tolerance("tol", tol, positive=False, below=TIME_TOLERANCE_BOUND)
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
    if len(steps) == total:  # every point is a hit: one component, moved a step at a time
        heads = np.argsort(residuals, kind="stable")[:1]
    else:
        heads = _cluster_hits(steps, residuals)
    populations = np.cumsum(counts)[:-1]  # where each population's columns start
    return OracleResult(
        resolution=resolution,
        equilibria=tuple(
            (Assignment.make(np.split(steps[k] / resolution, populations), tolerance=COMPUTED_TOLERANCE),
             float(residuals[k]))
            for k in heads.tolist()
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
    or shortfall.  Each batch is screened by the spread test first; only the
    points that pass go on to the shortfall test (the two halves of
    `CompiledNetwork.spreads`).  Returns each hit's compositions side by
    side as one int row, in scan order, which is lexicographic, and the
    hits' residuals.

    Where no cost can raise and the grid is more than one batch
    (`core._chunk` points) with more than BOUND_RUN points in the last
    population's grid, a bound pass first marks the runs of points that
    `_hit_free_points` proves hit-free, and each batch evaluates only its
    other points (one `take`).  Costs that cannot raise have no
    non-monotone term and no 0 scale factor, so they are monotone, which
    makes the bounds sound; and a skipped point cannot hide an error.  The
    two size conditions keep the pass where it can pay: a grid of one batch
    is one `times` call, which the corners' call and the `take` would add
    to, and a last-population grid of at most BOUND_RUN points is one run,
    whose box spans that population's whole grid (every low share 0, so
    none of its routes is always relevant; with one route, two corners per
    point).  Timed without them, the pass cost more than it saved on every
    such grid tried.  Hits, residuals and their order are those of
    evaluating every point, bit for bit."""
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
    # per batch: the hits' indices into the grid product, their residuals (none before the first)
    found, residuals = [np.zeros(0, dtype=int)], [np.zeros(0)]
    with np.errstate(over="ignore"):  # a bound past the float range is +inf, met by all
        dead = None
        if core.program.raising_slots() is None and len(outer) * inner > core._chunk and inner > BOUND_RUN:
            dead = _hit_free_points(core, grids, outer, resolution, tolerance, scratch)
        for start in range(0, len(outer), per_batch):
            block = outer[start : start + per_batch]
            columns = None  # the batch's points still to decide: all of them
            if dead is not None:
                alive = ~dead[start : start + per_batch]
                if not alive.any():
                    continue
                if not alive.all():
                    columns = np.flatnonzero(alive)
            for p in range(last):
                rows = grids[p][block[:, p]] / resolution
                shares[p, : core.route_counts[p], : len(block)] = rows.T[..., None]
            x = shares[:, :, : len(block)].reshape(core.pop_count, core.width, -1)
            if columns is not None:
                x = x.take(columns, 2, _buffer(scratch, "alive", x.shape[:2] + columns.shape), "clip")
            t = core.times(x, scratch)
            spread, scale, relevant, kept = core.relevant_spreads(x, t, 0.0)
            within = np.flatnonzero(np.logical_and.reduce(spread <= tolerance * scale))
            if not within.size:
                continue
            if within.size < x.shape[2]:  # only the points within the spread bound go on
                x, t, relevant, kept, spread = (a[..., within] for a in (x, t, relevant, kept, spread))
            shortfall, mean_scale = core.shortfalls(x, t, relevant, kept)
            ok = np.logical_and.reduce(shortfall <= tolerance * mean_scale, (0, 1))
            worst = np.maximum(spread.max(axis=0), shortfall.max(axis=(0, 1)).clip(0.0))
            hits = within[ok] if columns is None else columns[within[ok]]
            found.append(start * inner + hits)
            residuals.append(worst[ok])
    row, column = np.divmod(np.concatenate(found), inner)
    steps = [grids[p][outer[row, p]] for p in range(last)] + [grids[last][column]]
    return np.concatenate(steps, axis=1), np.concatenate(residuals)


BOUND_RUN = 32  # consecutive last-population grid points that one bound box covers
# Relative widening of the corner bounds: libm pow is not monotone to the
# last bit, and every other step of `times` is a monotone rounded operation.
BOUND_MARGIN = 1e-12


def _hit_free_points(
    core: CompiledNetwork,
    grids: list[np.ndarray],
    outer: np.ndarray,
    resolution: int,
    tolerance: float,
    scratch: dict,
) -> np.ndarray:
    """Whether each point of the grid product is proven to be no hit of
    `_scan_product_grid`, (len(outer), last population's grid points): it
    lies in a run of BOUND_RUN consecutive points of the last population's
    grid, after its outer row, that holds no hit.

    The run's box spans the per-coordinate min and max of its shares, the
    outer row's shares fixed.  Costs that cannot raise are monotone, so
    route times over the box lie between L and U, their values at its low
    and high corners widened by BOUND_MARGIN.  Per population, the routes of
    positive low share are relevant at every point of the box (`always`),
    those of positive high share at some (`possible`).  A run is hit-free
    when in some population the spread's bound, the largest `always` L
    minus the smallest `always` U, exceeds tolerance times the scale's:
    - (a) where the largest L is finite, the scale's bound is max(1, the
      largest `possible` U), since the scale is max(1, the largest relevant
      time) where that is finite and 1 where it is not;
    - (b) where it is +inf, that route's time is +inf at every point, so
      the scale is 1, and an `always` U below +inf makes the spread +inf.
    Both sides are rounded as the scan rounds them, and rounding is
    monotone, so a run found hit-free has no point within the spread bound.
    Corners go to `core.times` in batches of `core._chunk`."""
    last = len(grids) - 1
    inner = grids[last] / resolution
    starts = np.arange(0, len(inner), BOUND_RUN)
    corners = np.stack([np.minimum.reduceat(inner, starts), np.maximum.reduceat(inner, starts)])  # (2, runs, n)
    per_chunk = max(1, core._chunk // (2 * len(starts)))  # outer rows a batch of corners serves
    # (P, W, low or high corner, outer row, run); the last population's corners and the padding stay
    x = np.zeros((core.pop_count, core.width, 2, min(per_chunk, len(outer)), len(starts)))
    x[last, : core.route_counts[last]] = corners.transpose(2, 0, 1)[:, :, None]
    dead = np.zeros((len(outer), len(starts)), dtype=bool)
    for start in range(0, len(outer), per_chunk):
        block = outer[start : start + per_chunk]
        for p in range(last):
            rows = grids[p][block[:, p]] / resolution
            x[p, : core.route_counts[p], :, : len(block)] = rows.T[:, None, :, None]
        box = x[:, :, :, : len(block)]
        t = core.times(box.reshape(core.pop_count, core.width, -1), scratch).reshape(box.shape)
        always, possible = box[:, :, 0] > 0.0, box[:, :, 1] > 0.0
        low, high = t[:, :, 0] * (1.0 - BOUND_MARGIN), t[:, :, 1] * (1.0 + BOUND_MARGIN)
        top = np.where(always, low, -np.inf).max(axis=1)  # (P, rows, runs)
        bottom = np.where(always, high, np.inf).min(axis=1)
        scale = np.where(top < np.inf, np.maximum(1.0, np.where(possible, high, 0.0).max(axis=1)), 1.0)
        with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf are nan: not hit-free
            dead[start : start + len(block)] = np.logical_or.reduce(top - bottom > tolerance * scale)
    return np.repeat(dead, np.diff(np.append(starts, len(inner))), axis=1)


CLUSTER_BLOCK = 1 << 12  # candidate pairs whose gaps one block of the sweep holds


def _cluster_hits(steps: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the hits that represent the components under
    "no coordinate more than two grid steps apart": each component's hit
    with the smallest (residual, index).  Rows of `steps` are sorted."""
    label = _neighbour_labels(steps)
    order = np.lexsort((residuals, label))  # stable: ties stay in row order
    return np.sort(order[np.flatnonzero(np.diff(label[order], prepend=-1))])


def _neighbour_labels(steps: np.ndarray) -> np.ndarray:
    """Each row's smallest connected row, for the graph joining the rows of
    the integer grid coordinates `steps` whose largest coordinate gap is at
    most 2.  Rows are sorted, so column 0 never decreases and the
    candidates j of row i form the window i < j < end[i].  Candidates go in
    blocks of about CLUSTER_BLOCK (one whole row at least): a block's pairs
    already in one component are dropped, the others' gaps are computed one
    coordinate at a time, and its near pairs join the running labels before
    the next block, so memory grows with the rows, not with the pairs."""
    count = len(steps)
    lead = steps[:, 0]
    widths = np.searchsorted(lead, lead + 2, side="right") - np.arange(1, count + 1)
    offsets = np.concatenate(([0], np.cumsum(widths)))
    columns = np.ascontiguousarray(steps.T)
    label = np.arange(count)
    start = 0
    while start < count:
        stop = np.searchsorted(offsets, offsets[start] + CLUSTER_BLOCK, side="right") - 1
        stop = max(stop, start + 1)
        counts = widths[start:stop]
        i = np.repeat(np.arange(start, stop), counts)
        row_start = np.repeat(offsets[start:stop] - offsets[start], counts)
        j = i + 1 + np.arange(len(i)) - row_start  # i + 1 up to the window's end
        span = _roots(label, np.arange(start, stop + widths[stop - 1]))  # the last row's window ends last
        a, b = span[i - start], span[j - start]
        apart = np.flatnonzero(a != b)
        i, j = i[apart], j[apart]
        gap = np.abs(columns[0, i] - columns[0, j])
        for column in columns[1:]:
            np.maximum(gap, np.abs(column[i] - column[j]), out=gap)
        near = apart[gap <= 2]
        _join(label, a[near], b[near])
        start = stop
    return _roots(label, np.arange(count))


def _roots(label: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The root of each node, the node its label chain ends at (its own
    label), and each node's label pointed at it."""
    found = label[nodes]
    while True:
        up = label[found]
        if np.array_equal(up, found):
            break
        found = up
    label[nodes] = found
    return found


def _join(label: np.ndarray, first: np.ndarray, second: np.ndarray) -> None:
    """Merge the components of the roots first[e] and second[e], for each
    edge e.  Every round hooks each larger root of an edge onto the
    smallest root an edge joins it to, then finds the edges' roots again.
    Labels only fall and stay within their component, and a round leaves
    fewer roots while any edge joins two, so the root of a component is its
    smallest node."""
    while first.size:
        np.minimum.at(label, np.maximum(first, second), np.minimum(first, second))
        first, second = _roots(label, first), _roots(label, second)
        apart = first != second
        first, second = first[apart], second[apart]


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
