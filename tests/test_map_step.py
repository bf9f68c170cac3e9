"""The map step equals a scalar reference in Python floats, bit for bit.

`reference_map_step` is the clip-and-rescale map written out one population
at a time, every sum left to right from 0: squash each route time, take the
share-weighted mean over all W entries of the padded row, clip the step at
0, rescale to the simplex.  `CompiledNetwork.map_step` must equal it on one
assignment and on every column of a batch, whatever the batch's memory
layout, with +inf times and with rows of 8 entries or more.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from wardrop.compiled import compile_network
from wardrop.equilibrium import Assignment

from conftest import layered, left_sum
from test_compiled import SETTINGS, assignments, networks, reference_errors


def reference_map_step(shares, times, width: int) -> list[list[float]]:
    """One map step of nested share lists at nested route times (math.inf
    allowed), as padded rows of `width` entries.  A time t squashes to
    t / (1 + t), +inf to 1.  Past the routes a row holds share 0 and a
    squashed time of 2, so that the clip takes it to 0.  The step is half
    the reciprocal of the largest route count."""
    step = 0.5 * min(1.0 / len(vec) for vec in shares)
    image = []
    for vec, t in zip(shares, times):
        pad = width - len(vec)
        x = [*vec, *[0.0] * pad]
        phi = [1.0 if v == math.inf else v / (1.0 + v) for v in t] + [2.0] * pad
        mean = left_sum(a * f for a, f in zip(x, phi))
        clipped = [max(a - step * (f - mean), 0.0) for a, f in zip(x, phi)]
        total = left_sum(clipped)
        image.append([c / total for c in clipped])
    return image


def assert_bitwise(got: np.ndarray, expected: list[list[float]]) -> None:
    assert got.tobytes() == np.array(expected).tobytes()


def layouts(batch: np.ndarray) -> list[np.ndarray]:
    """The batch C-ordered, and with the batch axis outermost in memory, as
    `x[..., columns]` leaves it."""
    outer = np.ascontiguousarray(np.moveaxis(batch, -1, 0))
    return [batch, np.moveaxis(outer, 0, -1)]


def assert_map_step_is_the_reference(net, thetas, times=None) -> None:
    """map_step of each assignment alone and of all of them as one batch,
    at their route times or at the given per-assignment nested `times`."""
    core = compile_network(net)
    x = np.stack([core.pack(theta) for theta in thetas], axis=-1)
    if times is None:
        t = core.times(x)
    else:
        t = np.stack([core.pack(rows) for rows in times], axis=-1)
    expected = [reference_map_step(theta.shares, core.unpack(t[..., k]), core.width)
                for k, theta in enumerate(thetas)]
    for k in range(len(thetas)):
        assert_bitwise(core.map_step(x[..., k].copy(), t[..., k].copy()), expected[k])
    for batch in layouts(x):
        images = core.map_step(batch, t)
        for k in range(len(thetas)):
            assert_bitwise(images[..., k], expected[k])


@SETTINGS
@given(st.data())
def test_map_step_equals_the_reference_at_route_times(data):
    net = data.draw(networks())
    thetas = [data.draw(assignments(net)) for _ in range(data.draw(st.integers(1, 4)))]
    assume(not any(reference_errors(net, theta.shares) for theta in thetas))
    assert_map_step_is_the_reference(net, thetas)


times = st.one_of(st.floats(0.0, 10.0), st.floats(1e290, 1e308), st.just(math.inf))


@SETTINGS
@given(st.data())
def test_map_step_equals_the_reference_at_any_times(data):
    net = data.draw(networks())
    counts = [len(pop.routes) for pop in net.populations]
    thetas = [data.draw(assignments(net)) for _ in range(data.draw(st.integers(1, 4)))]
    drawn = [[data.draw(st.lists(times, min_size=n, max_size=n)) for n in counts] for _ in thetas]
    assert_map_step_is_the_reference(net, thetas, drawn)


def test_map_step_equals_the_reference_on_rows_of_8_entries_or_more():
    net = layered(3, 2, 2, 0)
    core = compile_network(net)
    assert core.width >= 8
    rng = np.random.default_rng(0)
    thetas = [Assignment.make([rng.dirichlet(np.ones(n)) for n in core.route_counts], tolerance=1e-9)
              for _ in range(3)]
    thetas.append(Assignment.make([[1.0] + [0.0] * (n - 1) for n in core.route_counts]))
    assert_map_step_is_the_reference(net, thetas)
    # +inf times on some routes of every population
    infinite = [[[math.inf if j % 3 == k else float(j) for j in range(n)] for n in core.route_counts]
                for k in range(len(thetas))]
    assert_map_step_is_the_reference(net, thetas, infinite)
