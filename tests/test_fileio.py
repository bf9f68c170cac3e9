"""Network/assignment documents, structured rendering, shipped fixture files."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from wardrop import fixtures as nets
from wardrop.costs import ExtReal
from wardrop.fixtures import write_fixture_files
from wardrop.equilibrium import Assignment, solve_fixed_point, verify
from wardrop.fileio import (
    ParseError,
    assignment_from_obj,
    assignment_to_obj,
    dumps_structured,
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


def test_malformed_document_raises_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"junctions": ["a"], "roads": [{"id": "r"}]}))
    with pytest.raises(ParseError):
        load_network(path)


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
