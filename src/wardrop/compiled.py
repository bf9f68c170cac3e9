"""The compiled network: one array core for road costs, route times, the
fixed-point map and the equilibrium predicates.

`compile_network(net)` lowers a network once and keeps the result on it:
every (population, used road) cost joins one `CostProgram`, and road flows
and route times become padded index gathers.  An assignment is a padded
share array `x` of shape (P, W, ...): population p's shares fill
x[p, :n_p], the rest is 0 (W exceeds every route count, so each row ends
in a zero the gathers pad with).  Trailing axes batch assignments, so each
gather copies whole rows, and a batch entry equals its assignment evaluated
alone, bit for bit.  Every sum runs left to right from 0, as Python's
`sum` and `eval_cost` do: another order changes the last bits.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .costs import Affine, CongestionRational, Constant, CostDomainError, CostExpr
from .costs import ExtRealGuardError, MonomialTerm, NonMonotoneAffine
from .netcore import IncidenceMatrix, Network, build_incidence


class DimensionMismatchError(ValueError):
    """Assignment shape does not match the network's populations/routes."""


class NormalizationError(ArithmeticError):
    """Internal invariant violation: normalization denominator not positive."""


def _buffer(scratch: dict | None, name: str, shape: tuple[int, ...]) -> np.ndarray | None:
    """The `out=` of one evaluation step: None without `scratch`, so numpy
    allocates; else a C-contiguous prefix of the float buffer scratch[name],
    grown to the largest size asked of it.  A loop that keeps one `scratch`
    reuses one allocation per name, where a fresh batch-sized array past
    glibc's mmap threshold pays its page faults on every batch."""
    if scratch is None:
        return None
    size = math.prod(shape)
    if name not in scratch or scratch[name].size < size:
        scratch[name] = np.empty(size)
    return scratch[name][:size].reshape(shape)


def _column_total(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Left-to-right sums from 0 down the first axis, into `out` if given."""
    total = np.add(values[0], 0.0, out=out)
    for k in range(1, len(values)):
        total += values[k]
    return total


def _gather(values: np.ndarray, table: np.ndarray, scratch: dict | None) -> np.ndarray:
    """values[table], in the one gather buffer of `scratch` if given: each
    gather is consumed before the next, so one buffer serves them all.
    Without `scratch`, plain indexing: for one small evaluation numpy's own
    allocation costs less than `take`.  The indices are in range, so clip
    mode changes nothing; raise mode would copy through a temporary."""
    if scratch is None:
        return values[table]
    return values.take(table, 0, _buffer(scratch, "gather", table.shape + values.shape[1:]), "clip")


def _gather_sum(
    values: np.ndarray, table: np.ndarray, scratch: dict | None = None, name: str = "sum"
) -> np.ndarray:
    """Left-to-right sums from 0 of values[table[k, c]] over k, per c, in
    scratch[name] if given."""
    gathered = _gather(values, table, scratch)
    return _column_total(gathered, _buffer(scratch, name, gathered.shape[1:]))


def _route_total(values: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Sums over the routes (axis 1) of (P, W, ...): row by row for a batch,
    else one reduce, which numpy adds one by one below 8 elements."""
    if values.ndim > 2:
        total = _column_total(values.swapaxes(0, 1))
    elif values.shape[1] < 8:
        return np.add.reduce(values, 1, None, None, keepdims, 0.0)
    else:
        total = np.cumsum(values, axis=1)[:, -1] + 0.0  # + 0.0: the sum's leading 0
    return total[:, None] if keepdims else total


def _per_row(coefficients: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    """Per-row coefficients, broadcast over the trailing batch axes."""
    return coefficients.reshape(coefficients.shape + (1,) * len(batch)) if batch else coefficients


def _table(columns: Sequence[Sequence[tuple[int, float]]], pad: int) -> tuple[np.ndarray, ...]:
    """(indices, values), one column per entry, padded with (pad, 0.0)."""
    depth = max([1] + [len(c) for c in columns])
    flat = [entry for c in columns for entry in [*c, *[(pad, 0.0)] * (depth - len(c))]]
    index = np.array([i for i, _ in flat], dtype=int).reshape(len(columns), depth)
    value = np.array([v for _, v in flat], dtype=float).reshape(len(columns), depth)
    return np.ascontiguousarray(index.T), np.ascontiguousarray(value.T)


def share_mean(x: np.ndarray, t: np.ndarray, share_tol: float) -> np.ndarray:
    """Share-weighted mean times (P, ...) over the routes whose share exceeds
    `share_tol`; the others contribute nothing, even at +inf."""
    return _route_total(x * np.where(x > share_tol, t, 0.0))


def flow_gather(incidences: Sequence[IncidenceMatrix], width: int) -> np.ndarray:
    """Gather table of the road flows from flat padded shares (route j of
    population p at p*width + j): column p*N + h lists p's routes through
    road h in route order; a last column of padding gives a zero flow."""
    columns = [
        [(p * width + j, 0.0) for j, used in enumerate(row) if used]
        for p, inc in enumerate(incidences)
        for row in inc.entries.tolist()
    ]
    return _table(columns + [[]], width - 1)[0]


_POW = np.frompyfunc(math.pow, 2, 1)  # libm pow, as `float ** int` in `_value`
_ROOT_MAX = math.sqrt(sys.float_info.max)  # the largest float whose square is finite


class CostProgram:
    """Cost expressions lowered to flat per-kind coefficient arrays.

    An expression is the left-to-right sum of its `_terms`, multiplier times
    leaf (`Sum`, `Polynomial` and `Scale` folded in).  Leaves are linear forms
    (constant, affine and non-monotone affine values c0 + sum c*f, and
    congestion loads) and monomials.  `column(i, name)` is the flow row that
    expression i reads for population `name`; flow row `zero` must hold 0.

    `values(flows)` evaluates every slot at any number of flow points, batch
    axes last; expression i sits in slot `roots[i]`, and slot `zero_slot`
    holds 0.  Values equal `eval_cost` bit for bit, and raise where it raises
    (`CostDomainError` for a negative non-monotone value, `ExtRealGuardError`
    for 0 * inf).  Flows are used as given: callers validate them.

    `slopes(flows, tangent)` is the forward-mode view of the same slots:
    each one's directional derivative along `tangent` over the flow rows.
    """

    def __init__(self, exprs: Sequence[CostExpr], column: Callable[[int, str], int], zero: int):
        leaves: dict[str, list] = {"affine": [], "congestion": [], "monomial": []}

        def lower(leaf, i: int) -> tuple[str, int]:
            if isinstance(leaf, MonomialTerm):
                factors = [(column(i, n), k) for n, k in leaf.exponents.items()]
                kind, entry = "monomial", (leaf.coeff, factors)
            elif isinstance(leaf, CongestionRational):
                load = [(column(i, n), w) for n, w in leaf.weights.items()]
                kind, entry = "congestion", (leaf.capacity, load)
            elif isinstance(leaf, Constant):
                kind, entry = "affine", (leaf.value, [], False)
            elif isinstance(leaf, (Affine, NonMonotoneAffine)):
                terms = [(column(i, n), c) for n, c in leaf.coeffs.items()]
                kind, entry = "affine", (leaf.constant, terms, isinstance(leaf, NonMonotoneAffine))
            else:
                raise TypeError(f"unknown cost expression {type(leaf).__name__}")
            leaves[kind].append(entry)
            return kind, len(leaves[kind]) - 1

        terms = [[(f, lower(leaf, i)) for f, leaf in expr._terms()] for i, expr in enumerate(exprs)]
        affine, congestion, monomials = leaves["affine"], leaves["congestion"], leaves["monomial"]
        affine.append((0.0, [], False))  # the zero slot
        a, b = len(affine), len(affine) + len(congestion)
        self._bounds = (a, b, b + len(monomials))
        self.zero_slot = a - 1
        base = {"affine": 0, "congestion": a, "monomial": b}

        def slot(ref: tuple[str, int]) -> int:
            return base[ref[0]] + ref[1]

        linear = [t for _, t, _ in affine] + [t for _, t in congestion]
        self._lin_cols, self._lin_coeffs = _table(linear, zero)
        self._c0 = np.array([c for c, _, _ in affine] + [0.0] * len(congestion))  # loads take 0
        self._nonmono = np.array([k for k, (*_, signed) in enumerate(affine) if signed], dtype=int)
        self._cap = np.array([cap for cap, _ in congestion])
        # Monomial padding is zero ** 0 == 1, which leaves a product unchanged.
        self._mono_cols, exps = _table([f for _, f in monomials], zero)
        self._mono_exps = exps.astype(int)
        self._mono_coeff = np.array([c for c, _ in monomials])
        # A lone unscaled leaf is its own expression; the rest are folded.
        plain = [len(t) == 1 and t[0][0] == 1.0 for t in terms]
        folded = [[(slot(ref), f) for f, ref in t] for t, p in zip(terms, plain) if not p]
        self._fold_idx, self._fold_mult = _table(folded, self.zero_slot)
        self._guarded = np.array(sorted({i for t in folded for i, f in t if f == 0.0}), dtype=int)
        self.slot_count = self._bounds[2] + len(folded)
        extra = iter(range(self._bounds[2], self.slot_count))
        self.roots = np.array([slot(t[0][1]) if p else next(extra) for t, p in zip(terms, plain)])

    def values(self, flows: np.ndarray, scratch: dict | None = None) -> np.ndarray:
        """Every slot at each flow point: (flow rows, ...) -> (slots, ...).
        With `scratch`, intermediates and result live in its buffers."""
        batch = flows.shape[1:]
        a, b, m = self._bounds
        linear = _gather(flows, self._lin_cols, scratch)
        linear *= _per_row(self._lin_coeffs, batch)
        shape = (self.slot_count,) + batch
        if self.slot_count == b:  # linear forms only: their totals are the slots
            slots = total = _column_total(linear, _buffer(scratch, "slots", shape))
        else:
            slots = np.empty(shape) if scratch is None else _buffer(scratch, "slots", shape)
            total = _column_total(linear, slots[:b])
        total += _per_row(self._c0, batch)
        if self._nonmono.size:
            signed = slots[self._nonmono]
            if (signed < 0.0).any():
                raise CostDomainError(
                    f"non-monotone affine cost evaluated negative ({signed[signed < 0.0][0]})"
                )
        if b > a:
            load = slots[a:b]
            cap = _per_row(self._cap, batch)
            room = np.subtract(cap, load, out=_buffer(scratch, "room", load.shape))
            if room.min(initial=np.inf) > 0.0:  # no road at capacity
                np.divide(load, room, out=load)
            else:  # s >= capacity exactly where capacity - s <= 0
                blown = room <= 0.0
                np.divide(load, room, out=load, where=~blown)
                load[blown] = np.inf
        if m > b:
            powers = _POW(flows[self._mono_cols], _per_row(self._mono_exps, batch)).astype(float)
            slots[b:m] = _per_row(self._mono_coeff, batch) * powers[0]
            for k in range(1, len(powers)):
                slots[b:m] *= powers[k]
        if self.slot_count > m:
            if self._guarded.size and np.isinf(slots[self._guarded]).any():
                raise ExtRealGuardError("0 * inf is not defined")
            folded = _gather(slots, self._fold_idx, scratch)
            folded *= _per_row(self._fold_mult, batch)
            _column_total(folded, slots[m:])
        return slots

    def slopes(self, flows: np.ndarray, tangent: np.ndarray) -> np.ndarray:
        """Every slot's derivative along `tangent` (shaped as `flows`, 0 in the
        zero row) at each flow point: (slots, ...), +inf where the value is
        +inf.  Raises where `values` raises."""
        self.values(flows)  # for its errors: negative non-monotone values, 0 * inf
        batch = flows.shape[1:]
        a, b, m = self._bounds
        coeffs = _per_row(self._lin_coeffs, batch)
        slopes = np.empty((self.slot_count,) + batch)
        slopes[:b] = _column_total(tangent[self._lin_cols] * coeffs)
        if b > a:  # d(s / (c - s)) = ds * c / (c - s)^2
            load = _column_total(flows[self._lin_cols[:, a:b]] * coeffs[:, a:b])
            cap = _per_row(self._cap, batch)
            room = cap - load
            dload = slopes[a:b]
            with np.errstate(over="ignore"):  # where ds * c overflows, divide first
                scaled = dload * cap
                over = np.isinf(scaled) & (room > 0.0)
                stretch = np.broadcast_to(cap, room.shape)[over] / room[over]  # c / (c - s) >= 1
                split = dload[over] / room[over] * stretch
            square = _POW(np.minimum(room, _ROOT_MAX), 2).astype(float)  # libm pow, as `float ** 2`
            np.divide(scaled, square, out=dload, where=room > 0.0)
            dload[room <= 0.0] = np.inf
            vast = room > _ROOT_MAX  # where (c - s)^2 passes the float range, divide twice
            if vast.any():
                dload[vast] = scaled[vast] / room[vast] / room[vast]
            dload[over] = split
        if m > b:  # sum over factors j of coeff * k_j f_j^(k_j - 1) * the others * tangent_j
            base = flows[self._mono_cols]
            exps = _per_row(self._mono_exps, batch)
            powers = _POW(base, exps).astype(float)
            lowered = _POW(base, np.maximum(exps - 1, 0)).astype(float)  # padding: 0 * 0^0
            coeff = _per_row(self._mono_coeff, batch)
            total = np.zeros((m - b,) + batch)
            for j in range(len(powers)):
                term = coeff * exps[j] * lowered[j]
                for i in range(len(powers)):
                    if i != j:
                        term *= powers[i]
                total += term * tangent[self._mono_cols[j]]
            slopes[b:m] = total
        if self.slot_count > m:
            slopes[m:] = _column_total(slopes[self._fold_idx] * _per_row(self._fold_mult, batch))
        return slopes


class Spreads(NamedTuple):
    """The predicates' raw material, per population; the predicates divide by
    the scales, the grid oracle compares with tolerance * scale."""

    spread: np.ndarray  # (P, ...) max - min relevant time; inf if finite meets infinite
    scale: np.ndarray  # (P, ...) max(1, max relevant time), 1 unless that is finite
    shortfall: np.ndarray  # (P, W, ...) mean relevant time - t on unused finite routes, else -inf
    mean_scale: np.ndarray  # (P, 1, ...) max(1, mean relevant time), 1 unless that is finite


_WORKING_SET = 1 << 17  # array elements an evaluation may hold per intermediate


class CompiledNetwork:
    """A network lowered to index tables and one cost program, fixed once built."""

    def __init__(self, net: Network):
        self.names = net.population_names()
        self.pop_count = len(self.names)
        if self.pop_count == 0:
            raise DimensionMismatchError("network has no populations")
        self.route_counts = [len(pop.routes) for pop in net.populations]
        self.width = max(self.route_counts) + 1
        self.valid = np.arange(self.width) < np.array(self.route_counts)[:, None]
        self.incidences = [build_incidence(net, p) for p in range(self.pop_count)]
        self.inc_float = [inc.entries.astype(float) for inc in self.incidences]
        # Shared step size: half the reciprocal of the largest route count.
        self.step = 0.5 * min(1.0 / n for n in self.route_counts)
        self.road_count = len(net.roads)
        self._flow_gather = flow_gather(self.incidences, self.width)
        road_index = net.road_index()
        costed = [
            (p, h, pop.costs[net.roads[h].id])
            for p, pop in enumerate(net.populations)
            for h in sorted(road_index[rid] for rid in pop.road_ids())
        ]
        first_row = {name: q * self.road_count for q, name in enumerate(self.names)}
        self.program = CostProgram(
            [expr for _, _, expr in costed],
            lambda i, name: first_row[name] + costed[i][1],
            zero=self.pop_count * self.road_count,
        )
        # The slot of population p's cost on road h; the zero slot if p does not use h.
        self.cost_slots = np.full((self.pop_count, self.road_count), self.program.zero_slot)
        for (p, h, _), root in zip(costed, self.program.roots.tolist()):
            self.cost_slots[p, h] = root
        slot = self.cost_slots.tolist()
        routes = [[] for _ in range(self.pop_count * self.width)]
        for p, pop in enumerate(net.populations):
            for j, route in enumerate(pop.routes):
                roads = route.road_ids
                routes[p * self.width + j] = [(slot[p][road_index[rid]], 0.0) for rid in roads]
        self._route_gather = _table(routes, self.program.zero_slot)[0]
        # Batches of more assignments than this are evaluated in pieces.
        per_assignment = self._flow_gather.size + 2 * self.program._lin_cols.size
        per_assignment += self.program.slot_count + self._route_gather.size
        self._chunk = max(1, _WORKING_SET // per_assignment)
        # Past the routes, squashed times of 2 push the map's raw step below 0.
        self._pad_phi = np.where(self.valid, 0.0, 2.0)
        # (population, from route, to route) of every mass shift, in order
        self._shifts = np.concatenate(
            [[np.full(n * (n - 1), p), *np.nonzero(~np.eye(n, dtype=bool))]
             for p, n in enumerate(self.route_counts)],
            axis=1,
        )

    def pack(self, shares) -> np.ndarray:
        """Padded (P, W) share array of an assignment or nested share lists."""
        shares = getattr(shares, "shares", shares)
        if len(shares) != self.pop_count:
            raise DimensionMismatchError(
                f"assignment has {len(shares)} populations, network has {self.pop_count}"
            )
        x = np.zeros((self.pop_count, self.width))
        for p, (vec, n) in enumerate(zip(shares, self.route_counts)):
            if len(vec) != n:
                raise DimensionMismatchError(
                    f"share vector of length {len(vec)} does not match {n} routes"
                )
            x[p, :n] = vec
        return x

    def unpack(self, x: np.ndarray) -> list[list[float]]:
        """Nested per-population lists of one padded (P, W) array."""
        return [row[:n].tolist() for row, n in zip(x, self.route_counts)]

    def _flows(self, shares: np.ndarray, scratch: dict | None = None) -> np.ndarray:
        """Road flows (P*N + 1, ...) of flat shares (P*W, ...), population q's
        on road h in row q*N + h, 0 in the last.  Shares on their simplices
        give flows in [0, 1] up to rounding, clamped away as `eval_cost` does."""
        flows = _gather_sum(shares, self._flow_gather, scratch, "flows")
        return np.minimum(flows, 1.0, out=flows)

    def times(self, x: np.ndarray, scratch: dict | None = None) -> np.ndarray:
        """Route times (P, W, ...), np.inf at blow-ups, 0 past the routes.

        With `scratch`, a dict the caller keeps across a loop of evaluations,
        every intermediate and the result live in its buffers: the result
        holds until the next evaluation with the same `scratch`."""
        if x.ndim == 3 and x.shape[2] > self._chunk:  # bound the working memory
            scratch = {} if scratch is None else scratch  # one set of buffers for every chunk
            out = _buffer(scratch, "chunked times", x.shape)
            for k in range(0, x.shape[2], self._chunk):
                out[..., k : k + self._chunk] = self.times(x[..., k : k + self._chunk], scratch)
            return out
        flat = x.reshape((self.pop_count * self.width,) + x.shape[2:])
        values = self.program.values(self._flows(flat, scratch), scratch)
        return _gather_sum(values, self._route_gather, scratch, "times").reshape(x.shape)

    def map_step(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """One application of the equilibrium self-map (clip-and-rescale).

        Times are squashed by t/(1+t), +inf to 1, as `compress_time` does:
        capping at 1e300 changes no finite result, since 1 + t == t there.
        """
        capped = np.minimum(t, 1e300)
        phi = capped / (1.0 + capped) + _per_row(self._pad_phi, x.shape[2:])
        mean = _route_total(x * phi, keepdims=True)
        clipped = np.maximum(x - self.step * (phi - mean), 0.0)
        total = _route_total(clipped, keepdims=True)
        if np.count_nonzero(total) < total.size:
            raise NormalizationError(
                "normalization denominator vanished; step size invariant broken"
            )
        return clipped / total

    def spreads(self, x: np.ndarray, t: np.ndarray, share_tol: float) -> Spreads:
        """Routes whose share exceeds `share_tol` are relevant, others unused."""
        valid = _per_row(self.valid, x.shape[2:])
        relevant = (x > share_tol) & valid
        hi = np.where(relevant, t, 0.0).max(axis=1)  # times are >= 0
        lo = np.minimum(np.where(relevant, t, np.inf).min(axis=1), hi)
        # lo == inf: every relevant time is infinite, so they agree
        spread = np.subtract(hi, lo, out=np.zeros(hi.shape), where=lo < np.inf)
        scale = np.where(hi < np.inf, np.maximum(1.0, hi), 1.0)
        mean = _route_total(x * np.where(relevant, t, 0.0), keepdims=True)
        unused = valid ^ relevant
        unused &= t < np.inf
        shortfall = np.subtract(mean, t, out=np.full(t.shape, -np.inf), where=unused)
        mean_scale = np.where(mean < np.inf, np.maximum(1.0, mean), 1.0)
        return Spreads(spread, scale, shortfall, mean_scale)

    def eps_gains(
        self, x: np.ndarray, t: np.ndarray, eps_values: Sequence[float], slack: float
    ) -> tuple[np.ndarray, ...]:
        """Every feasible mass shift of one assignment, evaluated as one batch.

        A shift moves e from route i of population p (if x[p, i] >= e -
        slack) to its route j; shifts run over p, the ordered pairs (i, j),
        then `eps_values`.  Returns (p, i, j, e, gain): gain is the movers'
        relative time saving (t_i before - t_j after) / max(1, t_i), +inf
        from an infinite route, -inf (never a gain) into a route that turns
        infinite.
        """
        p, i, j = np.repeat(self._shifts, len(eps_values), axis=1)
        e = np.tile(np.asarray(eps_values, dtype=float), len(p) // len(eps_values))
        keep = x[p, i] >= e - slack
        p, i, j, e = p[keep], i[keep], j[keep], e[keep]
        rows = np.arange(len(e))
        batch = np.repeat(x[..., None], len(e), axis=-1)
        batch[p, i, rows] = np.maximum(x[p, i] - e, 0.0)
        batch[p, j, rows] = x[p, j] + e
        after = self.times(batch)[p, j, rows]
        before = t[p, i]
        saving = np.subtract(before, after, out=np.full(len(e), -np.inf), where=after < np.inf)
        gain = saving / np.maximum(1.0, np.where(before < np.inf, before, 1.0))
        return p, i, j, e, gain

    # -- nested-list views -------------------------------------------------

    def route_times(self, shares) -> list[list[float]]:
        """Per-population route times of one assignment (math.inf allowed)."""
        return self.unpack(self.times(self.pack(shares)))

    def shifted_times(self, shares, pop: int, vector: Sequence[float]) -> list[float]:
        """Times of population `pop` with only its own share vector replaced."""
        modified = list(getattr(shares, "shares", shares))
        modified[pop] = vector
        return self.route_times(modified)[pop]


def compile_network(net: Network) -> CompiledNetwork:
    """The compiled network of `net`, built on first use and kept on it."""
    compiled = net.__dict__.get("_compiled")
    if compiled is None:
        compiled = CompiledNetwork(net)
        object.__setattr__(net, "_compiled", compiled)
    return compiled
