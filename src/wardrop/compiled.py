"""The compiled network: one array core for road costs, route times, the
fixed-point map and the equilibrium predicates.

`compile_network(net)` lowers a network once and keeps the result on it:
every (population, used road) cost joins one `CostProgram`, and road flows
and route times become padded index gathers.  An assignment is a padded
share array `x` of shape (P, W, ...): population p's shares fill
x[p, :n_p], the rest is 0 (W exceeds every route count, so each row ends
in a zero the gathers pad with).  Trailing axes batch assignments, so each
gather copies whole rows, and a batch entry equals its assignment evaluated
alone, bit for bit.  Every sum runs left to right from 0, as the scalar
reference in `tests/conftest.py` does: another order changes the last
bits.  One primitive, `_total`, does every sum: a numpy reduce, which numpy
adds one row at a time where the axes after the summed one hold 2 elements
or more in a C-ordered array; elsewhere it sums pairwise from 8 terms on,
so there a cumulative sum stands in.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .costs import Affine, CongestionRational, Constant, CostDomainError, CostExpr
from .costs import ExtRealGuardError, MonomialTerm, NonMonotoneAffine
from .netcore import Network, NetworkIndexError


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


def _total(values: np.ndarray, axis: int = 0, out: np.ndarray | None = None, keepdims: bool = False) -> np.ndarray:
    """Left-to-right sums from 0 along `axis`, into `out` if given: one
    reduce.  Where numpy would sum the reduce pairwise, a cumulative sum,
    which runs left to right in any layout, stands in (+ 0.0: the sum's
    leading 0)."""
    if values.shape[axis] >= 8 and not (values.flags.c_contiguous and values.strides[axis] > values.itemsize):
        return np.add(values.cumsum(axis).take([-1] if keepdims else -1, axis), 0.0, out=out)
    return np.add.reduce(values, axis, None, out, keepdims, 0.0)


def _gather(values: np.ndarray, table: np.ndarray, scratch: dict | None) -> np.ndarray:
    """values[table], in the one gather buffer of `scratch` if given: each
    gather is consumed before the next, so one buffer serves them all.
    Without `scratch`, plain indexing of one assignment's values, where
    numpy's own allocation costs less than `take`, and `take` of a batch's,
    where indexing pays for numpy's general fancy-index path.  The indices
    are in range, so clip mode changes nothing; raise mode would copy
    through a temporary."""
    if scratch is None:
        return values[table] if values.ndim == 1 else values.take(table, 0)
    return values.take(table, 0, _buffer(scratch, "gather", table.shape + values.shape[1:]), "clip")


def _gather_sum(
    values: np.ndarray, table: np.ndarray, scratch: dict | None = None, name: str = "sum"
) -> np.ndarray:
    """Left-to-right sums from 0 of values[table[k, c]] over k, per c, in
    scratch[name] if given."""
    gathered = _gather(values, table, scratch)
    return _total(gathered, out=_buffer(scratch, name, gathered.shape[1:]))


def _per_row(batch: tuple[int, ...]) -> tuple:
    """The index that views per-row coefficients broadcast over the
    trailing `batch` axes: one per evaluation, a view per coefficient."""
    return (...,) + (None,) * len(batch)


def _padded(rows: Sequence[Iterable], pad: int | float, dtype: type = int) -> np.ndarray:
    """(depth, len(rows)) table whose column c is rows[c] padded with `pad`;
    depth is the longest row's length, at least 1."""
    levels = list(itertools.zip_longest(*rows, fillvalue=pad)) or [(pad,) * len(rows)]
    return np.array(levels, dtype)


def share_mean(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Share-weighted mean times (P, ...) over the routes of positive share;
    the others contribute nothing, even at +inf."""
    return _total(x * np.where(x > 0.0, t, 0.0), 1)


def flow_gather(routes: Sequence[Sequence[int]], rows: int, width: int) -> np.ndarray:
    """Gather table of the `rows` road flows from flat padded shares (route j of
    population p at p*width + j), given each flat route's flow rows: column r lists
    the routes through row r in order, once each; a last padding column gives 0."""
    columns = [[] for _ in range(rows + 1)]
    for k, used in enumerate(routes):
        for r in used:
            if not columns[r] or columns[r][-1] != k:  # a road a route repeats counts once
                columns[r].append(k)
    return _padded(columns, width - 1)


_POW = np.frompyfunc(math.pow, 2, 1)  # libm pow, as the scalar reference's `float ** int`
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
    holds 0.  Values equal the scalar tree walk `reference_cost` of
    `tests/conftest.py` bit for bit, and raise where it raises
    (`CostDomainError` for a negative non-monotone value, `ExtRealGuardError`
    for 0 * inf), except that every sign is checked first: where both
    occur, `CostDomainError`.  Flows are used as given: callers validate
    them (`costs._lowered` states the rule).

    `at(slots, flows, rows, patched)` evaluates one slot per point, at
    points that each differ from one flow point in one row, with the same
    code and the same results.  `slopes(flows, tangent)` is the forward-mode
    view of the slots: each one's directional derivative along `tangent`
    over the flow rows.
    """

    def __init__(self, exprs: Sequence[CostExpr], column: Callable[[int, str], int], zero: int):
        # Per kind (linear forms, loads, monomials), in order of appearance: each leaf's
        # flow rows, their coefficients (exponents) and its constant (capacity for loads).
        rows, coeffs, consts = ([], [], []), ([], [], []), ([], [], [])
        # A lone unscaled leaf is its own expression; the rest are folded, their terms kept as
        # (multiplier, kind, index in the kind).  roots: each expression's (kind, index), or (-1, k).
        nonmono, folded, roots = [], [], []
        for i, expr in enumerate(exprs):
            refs = []
            for f, leaf in expr._terms():
                if isinstance(leaf, Affine):
                    kind, factors, const = 0, leaf.coeffs, leaf.constant
                elif isinstance(leaf, CongestionRational):
                    kind, factors, const = 1, leaf.weights, leaf.capacity
                elif isinstance(leaf, Constant):
                    kind, factors, const = 0, {}, leaf.value
                elif isinstance(leaf, MonomialTerm):
                    kind, factors, const = 2, leaf.exponents, leaf.coeff
                elif isinstance(leaf, NonMonotoneAffine):
                    kind, factors, const = 0, leaf.coeffs, leaf.constant
                    nonmono.append(len(consts[0]))
                else:
                    raise TypeError(f"unknown cost expression {type(leaf).__name__}")
                refs.append((f, kind, len(consts[kind])))
                rows[kind].append([column(i, n) for n in factors])
                coeffs[kind].append(factors.values())
                consts[kind].append(const)
            if len(refs) == 1 and refs[0][0] == 1.0:
                roots.append(refs[0][1:])
            else:
                roots.append((-1, len(folded)))
                folded.append(refs)
        a = len(consts[0]) + 1  # the zero slot closes the linear forms
        b = a + len(consts[1])
        m = b + len(consts[2])
        self._bounds = (a, b, m)
        self.zero_slot = a - 1
        self._lin_cols = _padded(rows[0] + [[]] + rows[1], zero)
        self._lin_coeffs = _padded(coeffs[0] + [[]] + coeffs[1], 0.0, float)
        self._c0 = np.array(consts[0] + [0.0] * (b - a + 1))  # loads take 0
        self._nonmono = np.array(nonmono, dtype=int)
        self._cap = np.array(consts[1])
        # Monomial padding is zero ** 0 == 1, which leaves a product unchanged.
        self._mono_cols = _padded(rows[2], zero)
        self._mono_exps = _padded(coeffs[2], 0)
        self._mono_coeff = np.array(consts[2])
        base = (0, a, b, m)  # the first slot of each kind, folded last
        self._fold_idx = _padded([[base[kind] + k for _, kind, k in t] for t in folded], a - 1)
        self._fold_mult = _padded([[f for f, _, _ in t] for t in folded], 0.0, float)
        guarded = {base[kind] + k for t in folded for f, kind, k in t if f == 0.0}
        self._guarded = np.array(sorted(guarded), dtype=int)
        self.slot_count = m + len(folded)
        self.roots = np.array([base[kind] + k for kind, k in roots])

    def values(self, flows: np.ndarray, scratch: dict | None = None) -> np.ndarray:
        """Every slot at each flow point: (flow rows, ...) -> (slots, ...).
        With `scratch`, intermediates and result live in its buffers.

        Reads the monomial tables only where the program has monomial
        slots, and the fold tables and guarded leaves only where it has
        folded slots: `at` leaves them unset in programs without."""
        batch = flows.shape[1:]
        per_row = _per_row(batch)
        a, b, m = self._bounds
        linear = _gather(flows, self._lin_cols, scratch)
        linear *= self._lin_coeffs[per_row]
        shape = (self.slot_count,) + batch
        if self.slot_count == b:  # linear forms only: their totals are the slots
            slots = total = _total(linear, out=_buffer(scratch, "slots", shape))
        else:
            slots = np.empty(shape) if scratch is None else _buffer(scratch, "slots", shape)
            total = _total(linear, out=slots[:b])
        total += self._c0[per_row]
        if self._nonmono.size:
            signed = slots[self._nonmono]
            if (signed < 0.0).any():
                raise CostDomainError(
                    f"non-monotone affine cost evaluated negative ({signed[signed < 0.0][0]})"
                )
        if b > a:
            load = slots[a:b]
            room = np.subtract(self._cap[per_row], load, out=_buffer(scratch, "room", load.shape))
            if room.min(initial=np.inf) > 0.0:  # no road at capacity
                np.divide(load, room, out=load)
            else:  # s >= capacity exactly where capacity - s <= 0
                blown = room <= 0.0
                np.divide(load, room, out=load, where=~blown)
                load[blown] = np.inf
        if m > b:
            powers = _POW(flows[self._mono_cols], self._mono_exps[per_row]).astype(float)
            slots[b:m] = self._mono_coeff[per_row] * powers[0]
            for k in range(1, len(powers)):
                slots[b:m] *= powers[k]
        if self.slot_count > m:
            if self._guarded.size and np.isinf(slots[self._guarded]).any():
                raise ExtRealGuardError("0 * inf is not defined")
            folded = _gather(slots, self._fold_idx, scratch)
            folded *= self._fold_mult[per_row]
            _total(folded, out=slots[m:])
        return slots

    def is_linear(self) -> bool:
        """Whether every slot is a linear form or a fold of them: no loads
        and no monomials, so every slope is the same at every flow point."""
        a, b, m = self._bounds
        return a == b == m

    def load_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(slots, capacities) of the congestion leaves, in `loads` order."""
        a, b, _ = self._bounds
        return np.arange(a, b), self._cap

    def loads(self, flows: np.ndarray) -> np.ndarray:
        """Each congestion leaf's load s at each flow point, (leaves, ...),
        as `slopes` sums it: its value and slope are +inf where s >= its
        capacity."""
        a, b, _ = self._bounds
        coeffs = self._lin_coeffs[:, a:b][_per_row(flows.shape[1:])]
        return _total(flows[self._lin_cols[:, a:b]] * coeffs)

    def raising_slots(self) -> np.ndarray | None:
        """Per slot, whether evaluating it can raise: it is or folds a
        non-monotone linear form or a leaf scaled by 0; None if none can."""
        if not (self._nonmono.size or self._guarded.size):
            return None
        raising = np.zeros(self.slot_count, dtype=bool)
        raising[self._nonmono] = raising[self._guarded] = True
        raising[self._bounds[2] :] = raising[self._fold_idx].any(0)
        return raising

    def at(self, slots: np.ndarray, flows: np.ndarray, rows: np.ndarray, patched: np.ndarray) -> np.ndarray:
        """Slot slots[k] at the flow point `flows` (flow rows,) with row
        rows[k] replaced by patched[k], for each k: (K,).

        `values` evaluates them all as the one flow point of a program of
        the slots' leaves, every k with leaves of its own that read
        patched[k] from a row appended past `flows`.  So each value equals
        `values` at its patched point bit for bit, and errors are those of
        `values` at all the patched points at once: signs first."""
        a, b, m = self._bounds
        folded = (slots >= m).nonzero()[0]
        leaf, owner = slots, np.arange(len(slots))
        if folded.size:  # a folded slot's leaves are its terms
            lone = slots < m
            terms = self._fold_idx[:, slots[folded] - m]
            leaf = np.concatenate([slots[lone], terms.ravel()])
            owner = np.concatenate([owner[lone], np.broadcast_to(folded, terms.shape).ravel()])
        # In slot order, the leaves are in kind order: linear forms, zero slots
        # (fold padding), loads, monomials.
        order = leaf.argsort(kind="stable")
        leaf, owner = leaf[order], owner[order]
        a2, b2 = leaf.searchsorted((a, b)).tolist()
        m2 = len(leaf)
        place = order.argsort()  # each term's slot in the new program

        def patch(cols: np.ndarray, reader: np.ndarray) -> np.ndarray:
            return np.where(cols == rows[reader], len(flows) + reader, cols)

        def among(chosen: np.ndarray, count: int) -> np.ndarray:
            if not chosen.size:
                return chosen
            hit = np.zeros(m, dtype=bool)
            hit[chosen] = True
            return hit[leaf[:count]].nonzero()[0]

        # Tables of kinds without slots stay unset, as `values` allows.
        sub = CostProgram.__new__(CostProgram)
        sub._bounds, sub.slot_count = (a2, b2, m2), m2 + len(folded)
        lin = leaf[:b2]
        sub._lin_cols = patch(self._lin_cols.take(lin, 1), owner[:b2])
        sub._lin_coeffs, sub._c0 = self._lin_coeffs.take(lin, 1), self._c0[lin]
        sub._nonmono = among(self._nonmono, a2)
        sub._cap = self._cap[leaf[a2:b2] - a]
        if m2 > b2:
            mono = leaf[b2:] - b
            sub._mono_cols = patch(self._mono_cols.take(mono, 1), owner[b2:])
            sub._mono_exps, sub._mono_coeff = self._mono_exps.take(mono, 1), self._mono_coeff[mono]
        if not folded.size:
            return sub.values(np.concatenate([flows, patched]))[place]
        sub._fold_idx = place[m2 - terms.size :].reshape(terms.shape)
        sub._fold_mult = self._fold_mult[:, slots[folded] - m]
        sub._guarded = among(self._guarded, m2)
        values = sub.values(np.concatenate([flows, patched]))
        out = np.empty(len(slots))
        out[lone] = values[place[: m2 - terms.size]]
        out[folded] = values[m2:]
        return out

    def slopes(self, flows: np.ndarray, tangent: np.ndarray) -> np.ndarray:
        """Every slot's derivative along `tangent` (shaped as `flows`, 0 in the
        zero row) at each flow point: (slots, ...), +inf where the value is
        +inf.  Raises where `values` raises."""
        self.values(flows)  # for its errors: negative non-monotone values, 0 * inf
        batch = flows.shape[1:]
        per_row = _per_row(batch)
        a, b, m = self._bounds
        slopes = np.empty((self.slot_count,) + batch)
        slopes[:b] = _total(tangent[self._lin_cols] * self._lin_coeffs[per_row])
        if b > a:  # d(s / (c - s)) = ds * c / (c - s)^2
            cap = self._cap[per_row]
            room = cap - self.loads(flows)
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
            exps = self._mono_exps[per_row]
            powers = _POW(base, exps).astype(float)
            lowered = _POW(base, np.maximum(exps - 1, 0)).astype(float)  # padding: 0 * 0^0
            coeff = self._mono_coeff[per_row]
            total = np.zeros((m - b,) + batch)
            for j in range(len(powers)):
                term = coeff * exps[j] * lowered[j]
                for i in range(len(powers)):
                    if i != j:
                        term *= powers[i]
                total += term * tangent[self._mono_cols[j]]
            slopes[b:m] = total
        if self.slot_count > m:
            slopes[m:] = _total(slopes[self._fold_idx] * self._fold_mult[per_row])
        return slopes


class Spreads(NamedTuple):
    """The predicates' raw material, per population; the predicates divide by
    the scales, the grid oracle compares with tolerance * scale."""

    spread: np.ndarray  # (P, ...) max - min relevant time; inf if finite meets infinite
    scale: np.ndarray  # (P, ...) max(1, max relevant time), 1 unless that is finite
    shortfall: np.ndarray  # (P, W, ...) mean relevant time - t on unused finite routes, else -inf
    mean_scale: np.ndarray  # (P, 1, ...) max(1, mean relevant time), 1 unless that is finite


_WORKING_SET = 1 << 17  # array elements an evaluation may hold per intermediate
INPUT_TOLERANCE = 1e-12  # slack on shares read as input: on their simplices, and holding eps
COMPUTED_TOLERANCE = 1e-9  # slack on computed shares (iterates, draws, grid points) on their simplices


class CompiledNetwork:
    """A network lowered to index tables and one cost program, fixed once built."""

    def __init__(self, net: Network):
        self.names = net.population_names()
        self.pop_count = len(self.names)
        if self.pop_count == 0:
            raise DimensionMismatchError("network has no populations")
        self.route_counts = [len(pop.routes) for pop in net.populations]
        self.width = max(self.route_counts) + 1
        counts = np.array(self.route_counts)
        self.valid = np.arange(self.width) < counts[:, None]
        self.road_count = roads = len(net.roads)
        rows = self.pop_count * roads  # flow rows: p's flow on road h in row p*N + h, then 0
        index = net.road_index()
        routes = [[] for _ in range(self.pop_count * self.width)]  # each flat route's flow rows
        for p, pop in enumerate(net.populations):
            first = p * roads
            try:
                routes[p * self.width : p * self.width + len(pop.routes)] = [
                    [first + index[rid] for rid in route.road_ids] for route in pop.routes
                ]
            except KeyError as exc:
                raise NetworkIndexError(f"unknown road {exc.args[0]!r}") from None
        # Shared step size: half the reciprocal of the largest route count.
        self.step = 0.5 * min(1.0 / n for n in self.route_counts)
        self._flow_gather = flow_gather(routes, rows, self.width)
        costed = sorted(set().union(*routes))  # the flow rows that some route uses
        first_row = {name: q * roads for q, name in enumerate(self.names)}
        self.program = CostProgram(
            [net.populations[r // roads].costs[net.roads[r % roads].id] for r in costed],
            lambda i, name: first_row[name] + costed[i] % roads,
            zero=rows,
        )
        # The slot of population p's cost on road h; the zero slot if p does not use h.
        self.cost_slots = np.full((self.pop_count, roads), self.program.zero_slot)
        self.cost_slots.ravel()[costed] = self.program.roots
        # The flow rows of each route's roads, in route order, padded with the zero row.
        self._route_rows = _padded(routes, rows)
        self._route_gather = np.concatenate([self.cost_slots.ravel(), [self.program.zero_slot]]).take(self._route_rows)
        # Batches of more assignments than this are evaluated in pieces.
        per_assignment = self._flow_gather.size + 2 * self.program._lin_cols.size
        per_assignment += self.program.slot_count + self._route_gather.size
        self._chunk = max(1, _WORKING_SET // per_assignment)
        # Past the routes, squashed times of 2 push the map's raw step below 0.
        self._pad_phi = np.where(self.valid, 0.0, 2.0)
        # (population, from route, to route) of every mass shift, in order
        index = np.arange(self.width - 1)
        i, j = np.nonzero(index[:, None] != index)
        p, k = np.nonzero(np.maximum(i, j) < counts[:, None])
        self._shifts = np.array([p, i[k], j[k]])

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
        give flows in [0, 1] up to rounding, clamped away as `_lowered` does."""
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
        phi = capped / (1.0 + capped) + self._pad_phi[_per_row(x.shape[2:])]
        mean = _total(x * phi, 1, keepdims=True)
        clipped = np.maximum(x - self.step * (phi - mean), 0.0)
        total = _total(clipped, 1, keepdims=True)
        if np.count_nonzero(total) < total.size:
            raise NormalizationError(
                "normalization denominator vanished; step size invariant broken"
            )
        return clipped / total

    def spreads(self, x: np.ndarray, t: np.ndarray, share_tol: float) -> Spreads:
        """Routes whose share exceeds `share_tol` are relevant, others unused."""
        spread, scale, relevant, kept = self.relevant_spreads(x, t, share_tol)
        return Spreads(spread, scale, *self.shortfalls(x, t, relevant, kept))

    def relevant_spreads(self, x: np.ndarray, t: np.ndarray, share_tol: float) -> tuple[np.ndarray, ...]:
        """The first half of `spreads`: its spread and scale, and the relevant
        routes and their times (0 elsewhere) that `shortfalls` reads."""
        relevant = (x > share_tol) & self.valid[_per_row(x.shape[2:])]
        kept = np.where(relevant, t, 0.0)
        hi = kept.max(axis=1)  # times are >= 0
        lo = np.minimum(np.where(relevant, t, np.inf).min(axis=1), hi)
        # lo == inf: every relevant time is infinite, so they agree
        spread = np.subtract(hi, lo, out=np.zeros(hi.shape), where=lo < np.inf)
        scale = np.where(hi < np.inf, np.maximum(1.0, hi), 1.0)
        return spread, scale, relevant, kept

    def shortfalls(
        self, x: np.ndarray, t: np.ndarray, relevant: np.ndarray, kept: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The second half of `spreads`, from the first's `relevant` and
        `kept`: its shortfall and mean scale."""
        mean = _total(x * kept, 1, keepdims=True)
        unused = self.valid[_per_row(x.shape[2:])] ^ relevant
        unused &= t < np.inf
        shortfall = np.subtract(mean, t, out=np.full(t.shape, -np.inf), where=unused)
        mean_scale = np.where(mean < np.inf, np.maximum(1.0, mean), 1.0)
        return shortfall, mean_scale

    def eps_gains(self, x: np.ndarray, t: np.ndarray, eps: float) -> tuple[np.ndarray, ...]:
        """Every feasible mass shift of one assignment, and what it gains.

        A shift moves `eps` from route i of population p (if x[p, i] >= eps
        - INPUT_TOLERANCE) to its route j; shifts run over p, then the
        ordered pairs (i, j).  Returns (p, i, j, gain): gain is the movers'
        relative time saving (t_i before - t_j after) / max(1, t_i), +inf
        from an infinite route, -inf (never a gain) into a route that turns
        infinite.

        Shifts that fit one evaluation (`_chunk`) are evaluated as one
        `times` batch of the shifted assignments, which checks every sign
        before any 0 * inf.  More go road by road (`_costs_after`), with the
        same gains bit for bit and the same errors.
        """
        p, i, j = self._shifts
        p, i, j = self._shifts.compress(x[p, i] >= eps - INPUT_TOLERANCE, 1)
        if len(p) <= self._chunk:
            s = np.arange(len(p))
            shifted = np.repeat(x[..., None], len(p), 2)
            shifted[p, i, s] = np.maximum(x[p, i] - eps, 0.0)
            shifted[p, j, s] += eps
            after = self.times(shifted)[p, j, s]
        else:
            after = _total(self._costs_after(x.ravel(), p * self.width + i, p * self.width + j, eps))
        before = t[p, i]
        saving = np.subtract(before, after, out=np.full(len(p), -np.inf), where=after < np.inf)
        gain = saving / np.maximum(1.0, np.where(before < np.inf, before, 1.0))
        return p, i, j, gain

    def _costs_after(self, flat: np.ndarray, src: np.ndarray, dst: np.ndarray, eps: float) -> np.ndarray:
        """p's cost on each road of each shift's flat route j = dst (0 past
        j's roads), after eps moves from flat route i = src: (route depth,
        shifts).

        A shift changes only p's flows on the roads of i and j.  A cost on a
        road of j that i does not use is evaluated once per road of every
        route, as eps moved onto the route; the rest once per shift: on the
        roads i and j share, and where it can raise.  So that errors are
        those of evaluating each shifted assignment whole (signs first),
        every population's cost that can raise on every road of i and j is
        evaluated per shift too (`raising_slots`)."""
        padding = self.pop_count * self.road_count
        raising = self.program.raising_slots()
        into, out = self._route_rows.take(dst, 1), self._route_rows.take(src, 1)  # (route depth, shifts)
        own = self._route_gather.take(dst, 1)
        each = (into[:, None] == out).any(1) & (into < padding)
        routed = self._route_gather.ravel()  # by road position, then flat route
        if raising is not None:
            each |= raising[own]
            routed = np.where(raising[routed], self.program.zero_slot, routed)
        apart = each.ravel().nonzero()[0]
        rows, slots, s = into.ravel()[apart], own.ravel()[apart], apart % len(src)  # s: each point's shift
        if raising is not None:
            both = np.concatenate([into, out])
            every = self.cost_slots[:, both % self.road_count]  # (population, road position, shift)
            hit = (raising[every] & (both < padding)).ravel().nonzero()[0]
            rows = np.concatenate([rows, both.ravel()[hit % both.size]])
            slots = np.concatenate([slots, every.ravel()[hit]])
            s = np.concatenate([s, hit % len(src)])
        grid = routed.size
        rows = np.concatenate([self._route_rows.ravel(), rows])
        source = np.concatenate([np.full(grid, -1), src[s]])
        target = np.concatenate([np.arange(grid) % len(flat), dst[s]])
        flows = self._patched_flows(flat, rows, source, target, eps)
        values = self.program.at(np.concatenate([routed, slots]), self._flows(flat), rows, flows)
        costs = values[:grid].reshape(len(into), -1).take(dst, 1)
        np.put(costs, apart, values[grid : grid + len(apart)])
        return costs

    def _patched_flows(
        self, flat: np.ndarray, rows: np.ndarray, source: np.ndarray, target: np.ndarray, mass: float
    ) -> np.ndarray:
        """Flow rows[k] after moving `mass` from flat route source[k] to flat
        route target[k] (-1: none) of one population, summed and clamped as
        `_flows` does, in pieces of a bounded working set."""
        out = np.empty(len(rows))
        step = max(1, _WORKING_SET // len(self._flow_gather))
        for k in range(0, len(rows), step):
            part = slice(k, k + step)
            table = self._flow_gather.take(rows[part], 1)
            shares = flat[table]
            # (table == k) * e is e at route k and 0.0 elsewhere: shares become
            # max(x - e, 0) and x + e at the two routes, bit for bit, and stay x
            # elsewhere (shares are nonnegative)
            shares -= (table == source[part]) * mass
            np.maximum(shares, 0.0, out=shares)
            shares += (table == target[part]) * mass
            _total(shares, out=out[part])
        return np.minimum(out, 1.0, out=out)


def compile_network(net: Network) -> CompiledNetwork:
    """The compiled network of `net`, built on first use and kept on it."""
    compiled = net.__dict__.get("_compiled")
    if compiled is None:
        compiled = CompiledNetwork(net)
        object.__setattr__(net, "_compiled", compiled)
    return compiled
