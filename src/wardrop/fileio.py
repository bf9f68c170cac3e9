"""Reading and writing networks, assignments, and reports.

Networks and assignments travel as JSON documents; +infinity renders as the
token "inf".  Structured output is deterministic (sorted keys, shortest
round-trip floats) so identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from .costs import cost_from_obj, cost_to_obj, json_number
from .equilibrium import Assignment
from .netcore import Junction, Network, PopulationSpec, Road, RouteSpec


class ParseError(ValueError):
    """Input document is unreadable or malformed; message says where."""


def _reject_constant(name: str) -> Any:
    raise ParseError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ParseError(f"number {text} overflows to infinity")
    return value


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object, refused if a key repeats: json would keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ParseError(f"key {key!r} repeats in one object")
    return obj


def _load_json(path: str | Path) -> Any:
    try:
        with open(path, "rb", buffering=0) as file:  # a text-mode file costs more than the read
            text = file.read().decode("utf-8")
        text = text.replace("\r\n", "\n").replace("\r", "\n")  # newlines as text mode reads them
        return json.loads(
            text, object_pairs_hook=_object, parse_constant=_reject_constant, parse_float=_finite_float
        )
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # a refused number or key, or text that is not UTF-8
        raise ParseError(f"{path}: {exc}") from None


def _text(value: Any) -> str:
    """`value` if it is a string: an id or a name is never converted to one."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _texts(value: Any) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"expected an array of strings, got {value!r}")
    return tuple(value)


def _array(value: Any) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {value!r}")
    return value


def network_from_obj(obj: Mapping) -> Network:
    try:
        junctions = tuple([Junction(j) for j in _texts(obj["junctions"])])
        roads = tuple(
            [Road(_text(r["id"]), _text(r["tail"]), _text(r["head"])) for r in _array(obj["roads"])]
        )
        populations = []
        for pop in _array(obj["populations"]):
            routes = tuple([RouteSpec(_texts(route)) for route in _array(pop["routes"])])
            costs = pop.get("costs", {})
            if not isinstance(costs, dict):
                raise TypeError(f"expected costs keyed by road id, got {costs!r}")
            populations.append(
                PopulationSpec(
                    name=_text(pop["name"]),
                    origin=_text(pop["origin"]),
                    destination=_text(pop["destination"]),
                    routes=routes,
                    costs={rid: cost_from_obj(cobj) for rid, cobj in costs.items()},  # keys are strings
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed network document: {exc}") from exc
    return Network(junctions=junctions, roads=roads, populations=tuple(populations))


def network_to_obj(net: Network) -> dict:
    return {
        "junctions": [j.id for j in net.junctions],
        "roads": [{"id": r.id, "tail": r.tail, "head": r.head} for r in net.roads],
        "populations": [
            {
                "name": p.name,
                "origin": p.origin,
                "destination": p.destination,
                "routes": [list(route.road_ids) for route in p.routes],
                "costs": {rid: cost_to_obj(expr) for rid, expr in sorted(p.costs.items())},
            }
            for p in net.populations
        ],
    }


def load_network(path: str | Path) -> Network:
    return network_from_obj(_load_json(path))


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(dumps_structured(network_to_obj(net)) + "\n", encoding="utf-8")


def assignment_from_obj(obj: Mapping, net: Network) -> Assignment:
    """Shares keyed by population name, reordered to the network's order."""
    if not isinstance(obj, Mapping):
        raise ParseError("assignment document must map population names to share arrays")
    names = net.population_names()
    missing = [n for n in names if n not in obj]
    if missing:
        raise ParseError(f"assignment missing populations {missing}")
    extra = [n for n in obj if n not in names]
    if extra:
        raise ParseError(f"assignment names unknown populations {extra}")
    vectors = []
    for name, pop in zip(names, net.populations):
        vec = obj[name]
        if not isinstance(vec, Sequence) or len(vec) != len(pop.routes):
            raise ParseError(
                f"population {name!r} expects {len(pop.routes)} shares, got {vec!r}"
            )
        vectors.append(vec)
    try:
        return Assignment.make([[json_number(x, "every share") for x in vec] for vec in vectors])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(str(exc)) from exc


def load_assignment(path: str | Path, net: Network) -> Assignment:
    return assignment_from_obj(_load_json(path), net)


def assignment_to_obj(theta: Assignment, net: Network) -> dict:
    return {
        name: list(vec) for name, vec in zip(net.population_names(), theta.shares)
    }


def jsonable(value: Any) -> Any:
    """Recursively convert package values into JSON-encodable data.

    Float infinity (`ExtReal`'s included) becomes the token "inf";
    dataclasses become dicts; numpy scalars and arrays become plain floats
    and lists.
    """
    if isinstance(value, float):
        return "inf" if math.isinf(value) else value
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return jsonable(value.tolist())
    if hasattr(value, "item") and not isinstance(value, (int, str, bool)):
        return value.item()
    return value


def dumps_structured(value: Any) -> str:
    """Deterministic JSON rendering (sorted keys, full float precision): the
    text of `json.dumps(jsonable(value), sort_keys=True, indent=2)`, whose
    indent would take json's pure-Python encoder."""
    return _render(jsonable(value), "\n")


def _render(value: Any, indent: str) -> str:
    """JSON text of plain data as json's encoder writes it with sorted keys
    and an indent of 2; `indent` is a newline and the indentation of the
    line that `value` starts on."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else _CONSTANTS.get(value, "NaN")
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items, ends = [_render(v, inner) for v in value], "[]"
    elif isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_render(v, inner)}" for k, v in sorted(value.items())]
        ends = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


_CONSTANTS = {None: "null", True: "true", False: "false", math.inf: "Infinity", -math.inf: "-Infinity"}
