"""The one sum primitive equals the row-by-row loop, bit for bit.

`compiled._total` sums along any axis with one numpy reduce where numpy adds
it a row at a time, and keeps the order elsewhere.  The cases that
break a bare reduce are drawn on purpose: a trailing size of 1 at a depth
of 8 or more (a lone column, one population with W >= 8 routes, an eps
batch of one shift), and layouts whose innermost axis is the summed one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wardrop.compiled import _total

from test_compiled import SETTINGS


def loop_total(values: np.ndarray, axis: int) -> np.ndarray:
    """Left-to-right sums from 0 along `axis`, one row at a time."""
    rows = np.moveaxis(values, axis, 0)
    total = np.zeros(rows.shape[1:])
    for row in rows:
        total = total + row
    return total


def layouts(values: np.ndarray) -> list[np.ndarray]:
    """`values` C-ordered, F-ordered, with its last axis outermost in memory
    (as `x[..., columns]` leaves a batch), and as a strided view."""
    outer = np.moveaxis(np.ascontiguousarray(np.moveaxis(values, -1, 0)), 0, -1)
    strided = np.repeat(values, 2, axis=-1)[..., ::2]
    return [values, np.asfortranarray(values), outer, strided]


def assert_total_is_the_loop(values: np.ndarray, axis: int) -> None:
    expected = loop_total(values, axis)
    for view in layouts(values):
        assert np.array_equal(view, values)
        assert _total(view, axis).tobytes() == expected.tobytes()
        out = np.empty(expected.shape)
        assert _total(view, axis, out) is out
        assert out.tobytes() == expected.tobytes()
        kept = _total(view, axis, keepdims=True)
        assert kept.shape == np.expand_dims(expected, axis).shape
        assert kept.tobytes() == expected.tobytes()


def spread(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Values over 30 orders of magnitude and both signs, so that any other
    order of addition shows in the last bits; some +inf and some -0.0."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-15, 15, shape)
    values[rng.random(shape) < 0.03] = math.inf
    values[rng.random(shape) < 0.05] = -0.0
    return values


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 24), min_size=1, max_size=4),
    st.integers(-4, 3),
)
def test_total_equals_the_loop_on_drawn_shapes(seed, shape, axis):
    axis = axis % len(shape) - len(shape) if axis < 0 else min(axis, len(shape) - 1)
    assert_total_is_the_loop(spread(np.random.default_rng(seed), tuple(shape)), axis)


@pytest.mark.parametrize("shape, axis", [
    ((12,), 0),  # a lone column
    ((30, 1), 0),
    ((9, 1, 1), 0),  # an eps batch of one shift
    ((1, 12), 1),  # one population with W >= 8 routes, alone
    ((1, 12, 1), 1),
    ((3, 12), 1),  # several populations, alone
    ((3, 12, 1), 1),
    ((3, 12, 2), 1),  # batched (P, W, K) route totals
    ((2, 28, 5), 1),
    ((1, 28, 3), 1),
    ((7, 1), 0),  # shorter than 8: in order in any layout
    ((2, 7), 1),
    ((4, 3, 16), -1),  # quadrature sums: (slots, pairs, nodes)
    ((4, 3, 16), 2),
    ((5, 1, 9, 2), 2),
    ((40, 3, 700), 0),  # larger than numpy's buffer
    ((0, 4), 0),
    ((9, 0), 0),
])
def test_total_equals_the_loop_where_a_bare_reduce_need_not(shape, axis):
    rng = np.random.default_rng(len(shape) * 100 + shape[axis])
    for _ in range(5):
        assert_total_is_the_loop(spread(rng, shape), axis)


def test_a_bare_reduce_sums_pairwise_where_the_primitive_does_not():
    # Why the primitive takes care: numpy's reduce over a trailing size of 1
    # sums pairwise from 8 terms on.
    rng = np.random.default_rng(1)
    columns = [spread(rng, (12, 1)) for _ in range(200)]
    assert any(not np.array_equal(np.add.reduce(v, 0, initial=0.0), loop_total(v, 0)) for v in columns)
    assert all(_total(v).tobytes() == loop_total(v, 0).tobytes() for v in columns)
