"""The compiled network's tables equal those of the reference construction,
array for array: values, shape, dtype and C-contiguity.

The reference below is the straightforward lowering the compiled network was
first written with (lists of (index, value) pairs, transposed into padded
tables).  Solver, oracle and verification all read these tables, so an equal
table means an unchanged evaluation.  Polynomial, `Sum` and `Scale` costs
fill the monomial and folded slots, which no shipped fixture reaches.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wardrop.compiled import CompiledNetwork, CostProgram
from wardrop.costs import (
    Affine,
    CongestionRational,
    Constant,
    MonomialTerm,
    NonMonotoneAffine,
    Polynomial,
    Scale,
    Sum,
)
from wardrop.fileio import load_network
from wardrop.netcore import build_incidence

from conftest import ROOT, layered
from test_compiled import SETTINGS, networks

FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))
LAYERED = [(3, 2, 2), (5, 2, 2), (3, 3, 2)]


# -- the reference construction ------------------------------------------------

def reference_table(columns, pad):
    """(indices, values), one column per entry, padded with (pad, 0.0)."""
    depth = max([1] + [len(c) for c in columns])
    flat = [entry for c in columns for entry in [*c, *[(pad, 0.0)] * (depth - len(c))]]
    index = np.array([i for i, _ in flat], dtype=int).reshape(len(columns), depth)
    value = np.array([v for _, v in flat], dtype=float).reshape(len(columns), depth)
    return np.ascontiguousarray(index.T), np.ascontiguousarray(value.T)


def reference_incidence(net, population):
    pop = net.populations[population]
    index = net.road_index()
    entries = np.zeros((len(net.roads), len(pop.routes)), dtype=np.int8)
    for col, route in enumerate(pop.routes):
        for rid in route.road_ids:
            entries[index[rid], col] = 1
    return entries


def reference_flow_gather(incidences, width):
    columns = [
        [(p * width + j, 0.0) for j, used in enumerate(row) if used]
        for p, entries in enumerate(incidences)
        for row in entries.tolist()
    ]
    return reference_table(columns + [[]], width - 1)[0]


def reference_program(exprs, column, zero) -> dict:
    """The attributes of a `CostProgram` of `exprs`."""
    leaves = {"affine": [], "congestion": [], "monomial": []}

    def lower(leaf, i):
        if isinstance(leaf, MonomialTerm):
            factors = [(column(i, n), k) for n, k in leaf.exponents.items()]
            kind, entry = "monomial", (leaf.coeff, factors)
        elif isinstance(leaf, CongestionRational):
            load = [(column(i, n), w) for n, w in leaf.weights.items()]
            kind, entry = "congestion", (leaf.capacity, load)
        elif isinstance(leaf, Constant):
            kind, entry = "affine", (leaf.value, [], False)
        else:
            terms = [(column(i, n), c) for n, c in leaf.coeffs.items()]
            kind, entry = "affine", (leaf.constant, terms, isinstance(leaf, NonMonotoneAffine))
        leaves[kind].append(entry)
        return kind, len(leaves[kind]) - 1

    p = SimpleNamespace()
    terms = [[(f, lower(leaf, i)) for f, leaf in expr._terms()] for i, expr in enumerate(exprs)]
    affine, congestion, monomials = leaves["affine"], leaves["congestion"], leaves["monomial"]
    affine.append((0.0, [], False))
    a, b = len(affine), len(affine) + len(congestion)
    p._bounds = (a, b, b + len(monomials))
    p.zero_slot = a - 1
    base = {"affine": 0, "congestion": a, "monomial": b}

    def slot(ref):
        return base[ref[0]] + ref[1]

    linear = [t for _, t, _ in affine] + [t for _, t in congestion]
    p._lin_cols, p._lin_coeffs = reference_table(linear, zero)
    p._c0 = np.array([c for c, _, _ in affine] + [0.0] * len(congestion))
    p._nonmono = np.array([k for k, (*_, signed) in enumerate(affine) if signed], dtype=int)
    p._cap = np.array([cap for cap, _ in congestion])
    p._mono_cols, exps = reference_table([f for _, f in monomials], zero)
    p._mono_exps = exps.astype(int)
    p._mono_coeff = np.array([c for c, _ in monomials])
    plain = [len(t) == 1 and t[0][0] == 1.0 for t in terms]
    folded = [[(slot(ref), f) for f, ref in t] for t, q in zip(terms, plain) if not q]
    p._fold_idx, p._fold_mult = reference_table(folded, p.zero_slot)
    p._guarded = np.array(sorted({i for t in folded for i, f in t if f == 0.0}), dtype=int)
    p.slot_count = p._bounds[2] + len(folded)
    extra = iter(range(p._bounds[2], p.slot_count))
    p.roots = np.array([slot(t[0][1]) if q else next(extra) for t, q in zip(terms, plain)])
    return vars(p)


def reference_network(net) -> dict:
    """The attributes of a `CompiledNetwork` of `net`, its program's apart."""
    c = SimpleNamespace()
    c.names = net.population_names()
    c.pop_count = len(c.names)
    c.route_counts = [len(pop.routes) for pop in net.populations]
    c.width = max(c.route_counts) + 1
    c.valid = np.arange(c.width) < np.array(c.route_counts)[:, None]
    incidences = [reference_incidence(net, p) for p in range(c.pop_count)]
    c.step = 0.5 * min(1.0 / n for n in c.route_counts)
    c.road_count = len(net.roads)
    c._flow_gather = reference_flow_gather(incidences, c.width)
    road_index = net.road_index()
    costed = [
        (p, h, pop.costs[net.roads[h].id])
        for p, pop in enumerate(net.populations)
        for h in sorted(road_index[rid] for rid in pop.road_ids())
    ]
    first_row = {name: q * c.road_count for q, name in enumerate(c.names)}
    program = reference_program(
        [expr for _, _, expr in costed],
        lambda i, name: first_row[name] + costed[i][1],
        c.pop_count * c.road_count,
    )
    c.program = program
    c.cost_slots = np.full((c.pop_count, c.road_count), program["zero_slot"])
    for (p, h, _), root in zip(costed, program["roots"].tolist()):
        c.cost_slots[p, h] = root
    slot = c.cost_slots.tolist()
    routes = [[] for _ in range(c.pop_count * c.width)]
    route_rows = [[] for _ in range(c.pop_count * c.width)]
    for p, pop in enumerate(net.populations):
        for j, route in enumerate(pop.routes):
            routes[p * c.width + j] = [(slot[p][road_index[rid]], 0.0) for rid in route.road_ids]
            route_rows[p * c.width + j] = [(p * c.road_count + road_index[rid], 0.0)
                                           for rid in route.road_ids]
    c._route_rows = reference_table(route_rows, c.pop_count * c.road_count)[0]
    c._route_gather = reference_table(routes, program["zero_slot"])[0]
    per_assignment = c._flow_gather.size + 2 * program["_lin_cols"].size
    per_assignment += program["slot_count"] + c._route_gather.size
    c._chunk = max(1, (1 << 17) // per_assignment)
    c._pad_phi = np.where(c.valid, 0.0, 2.0)
    c._shifts = np.concatenate(
        [[np.full(n * (n - 1), p), *np.nonzero(~np.eye(n, dtype=bool))]
         for p, n in enumerate(c.route_counts)],
        axis=1,
    )
    return vars(c)


# -- equality, array for array --------------------------------------------------

def assert_same(actual, expected, where: str) -> None:
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray), where
        assert actual.dtype == expected.dtype, where
        assert actual.shape == expected.shape, where
        assert actual.flags.c_contiguous == expected.flags.c_contiguous, where
        assert np.array_equal(actual, expected), where
    elif isinstance(expected, (list, tuple)):
        assert type(actual) is type(expected) and len(actual) == len(expected), where
        for k, (a, e) in enumerate(zip(actual, expected)):
            assert_same(a, e, f"{where}[{k}]")
    else:
        assert type(actual) is type(expected) and actual == expected, where


def assert_program(program: CostProgram, expected: dict) -> None:
    actual = vars(program)
    assert actual.keys() == expected.keys()
    for name, value in expected.items():
        assert_same(actual[name], value, f"program.{name}")


def assert_compiled(net) -> None:
    core = CompiledNetwork(net)
    expected = reference_network(net)
    actual = dict(vars(core))
    assert actual.keys() == expected.keys()
    assert_program(actual.pop("program"), expected.pop("program"))
    incidences = [build_incidence(net, p) for p in range(core.pop_count)]
    assert [inc.road_ids for inc in incidences] == [tuple(r.id for r in net.roads)] * len(incidences)
    reference = [reference_incidence(net, p) for p in range(core.pop_count)]
    assert_same([inc.entries for inc in incidences], reference, "incidences")
    for name, value in expected.items():
        assert_same(actual[name], value, name)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_tables_equal_the_reference(path):
    assert_compiled(load_network(path))


@pytest.mark.parametrize("shape", LAYERED, ids=str)
def test_layered_tables_equal_the_reference(shape):
    assert_compiled(layered(*shape, seed=0))


@SETTINGS
@given(networks())
def test_drawn_network_tables_equal_the_reference(net):
    assert_compiled(net)


FOLDED = [
    Polynomial((MonomialTerm(2.0, {"p0": 2, "p1": 1}), MonomialTerm(0.5, {}))),
    Sum((Affine(1.0, {"p0": 1.0}), CongestionRational({"p1": 1.0}, 0.9), Constant(0.0))),
    Scale(0.0, CongestionRational({"p0": 2.0}, 0.5)),
    Scale(3.0, Sum((Polynomial((MonomialTerm(1.0, {"p1": 3}),)), NonMonotoneAffine(1.0, {"p0": -0.5})))),
    Sum(()),
    Affine(0.5, {"p1": 2.0, "p0": 1.0}),
]


@pytest.mark.parametrize("count", range(1, len(FOLDED) + 1))
def test_program_of_folded_costs_equals_the_reference(count):
    exprs = FOLDED[:count]
    rows = {"p0": 0, "p1": 1}

    def column(i, name):
        return 2 * i + rows[name]

    assert_program(CostProgram(exprs, column, 2 * count), reference_program(exprs, column, 2 * count))


@SETTINGS
@given(st.lists(st.sampled_from(FOLDED), max_size=4))
def test_program_of_drawn_cost_lists_equals_the_reference(exprs):
    def column(i, name):
        return 3 * i + int(name[1])

    zero = 3 * len(exprs)
    assert_program(CostProgram(exprs, column, zero), reference_program(exprs, column, zero))
