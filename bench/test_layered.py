"""Tests of the benchmark's own generator and reference evaluator.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wardrop import Assignment, fileio, route_times, validate_network  # noqa: E402

import reference  # noqa: E402
from layered import layered, with_express  # noqa: E402

SIZES = [(3, 2, 2), (5, 2, 2), (3, 3, 2), (2, 1, 2), (3, 2, 3)]


@pytest.mark.parametrize("size", SIZES)
def test_same_seed_gives_byte_identical_documents(size, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    fileio.save_network(layered(*size, seed=7), first)
    fileio.save_network(layered(*size, seed=7), second)
    assert first.read_bytes() == second.read_bytes()
    fileio.save_network(layered(*size, seed=8), second)
    assert first.read_bytes() != second.read_bytes()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_networks_validate(size, seed):
    net = layered(*size, seed)
    assert validate_network(net).ok
    assert validate_network(with_express(net, seed)).ok
    width, depth, pops = size
    assert len(net.roads) == 2 * width + (depth - 1) * width * width
    assert all(len(p.routes) == width**depth for p in net.populations)
    assert len(net.populations) == pops


def test_some_capacity_is_below_peak_load():
    obj = fileio.network_to_obj(layered(3, 2, 2, 0))
    congested = [
        c for p in obj["populations"] for c in p["costs"].values() if c["kind"] == "congestion"
    ]
    assert congested
    assert all(c["capacity"] < sum(c["weights"].values()) for c in congested)


@pytest.mark.parametrize("source", ["layered", "braess_augmented", "congestion_corridor"])
def test_reference_times_match_the_library(source, tmp_path):
    if source == "layered":
        net = layered(3, 2, 2, 3)
    else:
        net = fileio.load_network(Path(__file__).resolve().parents[1] / "fixtures" / f"{source}.json")
    path = tmp_path / "net.json"
    fileio.save_network(net, path)
    ev = reference.Evaluator(json.loads(path.read_text()))
    rng = random.Random(0)
    for _ in range(5):
        shares = []
        for pop in net.populations:
            raw = [rng.random() for _ in pop.routes]
            shares.append([x / sum(raw) for x in raw])
        theta = Assignment.make(shares, tolerance=1e-9)
        library = route_times(net, theta).times
        ours = ev.times([list(v) for v in theta.shares])
        for lib_pop, our_pop in zip(library, ours):
            for lib, our in zip(lib_pop, our_pop):
                if math.isinf(our):
                    assert lib.is_infinite
                else:
                    assert lib.as_float() == pytest.approx(our, rel=1e-12, abs=1e-12)


def test_reference_verdicts_separate_the_three_predicates():
    doc = json.loads((Path(__file__).resolve().parents[1] / "fixtures" / "nonmonotone_pair.json").read_text())
    ev = reference.Evaluator(doc)
    # Both vertices equalize relevant times without being Nash; the even
    # split is Nash but not eps-Nash.
    assert reference.residuals(ev, [[1.0, 0.0]]).holds(1e-9) == (True, False, False)
    assert reference.residuals(ev, [[0.5, 0.5]]).holds(1e-9) == (True, True, False)
