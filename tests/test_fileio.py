"""Network/assignment documents, structured rendering, shipped fixture files."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardrop import fixtures as nets
from wardrop.costs import ExtReal
from wardrop.fixtures import write_fixture_files
from wardrop.equilibrium import Assignment, PredicateVerdict, solve_fixed_point, verify
from wardrop.fileio import (
    ParseError,
    assignment_from_obj,
    assignment_to_obj,
    dumps_structured,
    jsonable,
    load_assignment,
    load_network,
    network_from_obj,
    network_to_obj,
    save_network,
)

REPO_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_network_round_trip(tmp_path, braess5_net):
    path = tmp_path / "net.json"
    save_network(braess5_net, path)
    loaded = load_network(path)
    assert loaded == braess5_net


def test_all_builders_round_trip():
    for name, builder in nets.BUILDERS.items():
        net = builder()
        assert network_from_obj(network_to_obj(net)) == net, name


def test_shipped_fixture_files_match_builders():
    for name, builder in nets.BUILDERS.items():
        path = REPO_FIXTURES / f"{name}.json"
        assert path.exists(), f"missing shipped fixture {path}"
        assert load_network(path) == builder(), name


def test_shipped_fixture_files_are_the_written_builders_byte_for_byte(tmp_path):
    written = write_fixture_files(tmp_path)
    assert sorted(p.name for p in written) == sorted(p.name for p in REPO_FIXTURES.glob("*.json"))
    for path in written:
        assert path.read_bytes() == (REPO_FIXTURES / path.name).read_bytes(), path.name


def test_rich_cost_forms_round_trip(tmp_path):
    from wardrop.costs import MonomialTerm, Polynomial, Scale, Sum, Constant
    from wardrop.netcore import Junction, Network, PopulationSpec, Road, RouteSpec

    costs = {
        "r1": Sum((Constant(1.0), Scale(2.0, Polynomial((
            MonomialTerm(0.5, {"only": 2}),
        ))))),
    }
    net = Network(
        junctions=(Junction("a"), Junction("b")),
        roads=(Road("r1", "a", "b"),),
        populations=(PopulationSpec("only", "a", "b", (RouteSpec(("r1",)),), costs),),
    )
    path = tmp_path / "rich.json"
    save_network(net, path)
    assert load_network(path) == net


def test_parse_error_names_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "junctions": [,]\n}\n')
    with pytest.raises(ParseError, match=r"line 2, column"):
        load_network(path)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"upper": [1, 0], "upper": [0.5, 0.5], "lower": [0.5, 0.5]}', "upper"),
        ('{"lower": {"a": 1, "b": 2, "a": 3}}', "a"),
    ],
)
def test_a_repeated_key_is_refused_by_name(tmp_path, delay_net, text, key):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"key '{key}' repeats"):
        load_assignment(path, delay_net)
    with pytest.raises(ParseError, match=f"key '{key}' repeats"):
        load_network(path)


def test_malformed_document_raises_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"junctions": ["a"], "roads": [{"id": "r"}]}))
    with pytest.raises(ParseError):
        load_network(path)


def test_a_cost_nested_too_deeply_to_parse_is_a_parse_error():
    obj = network_to_obj(nets.delay_spillover())
    cost = obj["populations"][0]["costs"]["r1"]
    for _ in range(5000):
        cost = {"kind": "scale", "factor": 1.0, "expr": cost}
    obj["populations"][0]["costs"]["r1"] = cost
    with pytest.raises(ParseError, match="^malformed network document: nested too deeply to read$"):
        network_from_obj(obj)


def test_assignment_round_trip(tmp_path, delay_net):
    theta = Assignment.make([[0.25, 0.75], [0.5, 0.5]])
    obj = assignment_to_obj(theta, delay_net)
    assert obj == {"upper": [0.25, 0.75], "lower": [0.5, 0.5]}
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(obj))
    assert load_assignment(path, delay_net) == theta


def test_assignment_reordered_by_name(delay_net):
    theta = assignment_from_obj({"lower": [0.5, 0.5], "upper": [1.0, 0.0]}, delay_net)
    assert theta.shares[0] == (1.0, 0.0)


def test_assignment_errors(delay_net):
    with pytest.raises(ParseError, match="missing"):
        assignment_from_obj({"upper": [1.0, 0.0]}, delay_net)
    with pytest.raises(ParseError, match="unknown"):
        assignment_from_obj(
            {"upper": [1, 0], "lower": [1, 0], "ghost": [1]}, delay_net
        )
    with pytest.raises(ParseError, match="expects 2 shares"):
        assignment_from_obj({"upper": [1.0], "lower": [1.0, 0.0]}, delay_net)


def test_infinity_renders_as_token(corridor_net):
    theta = Assignment.make([[0.5, 0.5], [0.5, 0.5]])
    report = verify(corridor_net, theta)
    text = dumps_structured(report)
    payload = json.loads(text)
    assert payload["common_times"][0] == "inf"


@pytest.mark.parametrize("value", [0.0, 2.5, 1 / 3, 5e-324, 1.7976931348623157e308, math.inf])
def test_extended_reals_render_as_their_floats(value):
    extended = ExtReal.from_float(value)
    assert dumps_structured({"t": [extended, (extended,)]}) == dumps_structured(
        {"t": [value, (value,)]}
    )


def test_structured_output_is_deterministic_and_full_precision(merge_net):
    result = solve_fixed_point(merge_net)
    first = dumps_structured(result)
    second = dumps_structured(result)
    assert first == second
    payload = json.loads(first)
    # full-precision round trip: parsed floats equal the in-memory values
    for parsed, vec in zip(payload["assignment"]["shares"], result.assignment.shares):
        assert tuple(parsed) == vec


_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.floats(min_value=0.0).map(ExtReal.from_float)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text() | st.integers(), inner, max_size=4)
        | st.builds(PredicateVerdict, st.booleans(), st.floats(), st.lists(st.text(), max_size=2).map(tuple))
        | st.lists(st.floats(), max_size=4).map(np.array)
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_VALUES)
def test_structured_rendering_is_json_dumps_byte_for_byte(value):
    assert dumps_structured(value) == json.dumps(jsonable(value), sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [[], {}, (), {"a": []}, [{}], "\u00e9\n\"\\\x00\ud83d", [True, False, None]])
def test_structured_rendering_of_edge_values(value):
    assert dumps_structured(value) == json.dumps(jsonable(value), sort_keys=True, indent=2)
