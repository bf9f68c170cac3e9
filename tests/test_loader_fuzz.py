"""Mutated network and assignment documents end in a documented exit.

Each example takes a shipped fixture and its barycenter assignment, damages
one of the two documents (a wrong type, a deleted key, a NaN, huge or
infinite literal, a duplicated entry or key, or truncated text), and runs
`validate`, `solve --max-iters 50`, `verify`, `oracle --grid 3`, `compare
--max-iters 50` (the intact fixture against the damaged network) and
`routes` on the result; fewer examples, each with a damaged network, run
`uniqueness --pairs 2 --starts 1`, which has no iteration cap.  Intact
documents of extreme shape (costs or arrays nested up to thousands of
levels deep, a chain of up to 1,500 junctions, up to 60 parallel routes)
run `validate`, `routes` and `solve --max-iters 5`.  Every run must return
0, 1 or the exit code of a refusal in `cli._REFUSALS`, never raise, and
print exactly one `error:` line whenever it exits 2 or more, and none when
it exits 0 or 1, except the one of a `uniqueness` refused with 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wardrop import cli

FIXTURES = sorted((Path(__file__).resolve().parents[1] / "fixtures").glob("*.json"))
EXITS = {cli.EXIT_OK, cli.EXIT_FAIL} | {code for _, code in cli._REFUSALS}


class Raw(str):
    """A JSON literal written as is (NaN, Infinity, 1e999, ...)."""


class Pairs(list):
    """An object as its (key, value) pairs, so that a key may repeat."""


def render(node) -> str:
    if isinstance(node, Raw):
        return str(node)
    if isinstance(node, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in node) + "}"
    if isinstance(node, dict):
        return render(Pairs(node.items()))
    if isinstance(node, list):
        return "[" + ", ".join(render(v) for v in node) + "]"
    return json.dumps(node)


def paths(node, prefix=()):
    """Every position in the tree, the root first."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from paths(child, (*prefix, key))


def numbers(node) -> list[tuple]:
    """The positions of the numbers in the tree."""
    found = []
    for path in paths(node):
        leaf = node
        for step in path:
            leaf = leaf[step]
        if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
            found.append(path)
    return found


LITERALS = [
    Raw("NaN"), Raw("Infinity"), Raw("-Infinity"), Raw("1e999"), Raw("-1e999"),
    Raw("1e308"), Raw("1.7976931348623157e308"), Raw("123456789" * 40), Raw("-1e-400"),
]
WRONG_TYPES = [None, True, False, 0, -1, 2.5, "", "x", [], {}, [[]], {"kind": "x"}]


@st.composite
def damaged(draw, doc):
    """The text of `doc` with one mutation."""
    kind = draw(st.sampled_from(["replace", "delete", "duplicate", "truncate"]))
    if kind == "truncate":
        text = render(doc)
        return text[: draw(st.integers(0, len(text) - 1))]
    doc = json.loads(json.dumps(doc))  # a copy to damage
    where = draw(st.sampled_from(numbers(doc) if draw(st.booleans()) else list(paths(doc))))
    if not where:
        return render(draw(st.sampled_from(WRONG_TYPES + LITERALS)))
    *up, key = where
    parent = doc
    for step in up:
        parent = parent[step]
    if kind == "replace":
        parent[key] = draw(st.sampled_from(WRONG_TYPES + LITERALS))
    elif kind == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    else:  # the key twice, the second time with a drawn value
        again = draw(st.sampled_from(WRONG_TYPES + LITERALS + [parent[key]]))
        pairs = Pairs([*parent.items(), (key, again)])
        if not up:
            return render(pairs)
        holder = doc
        for step in up[:-1]:
            holder = holder[step]
        holder[up[-1]] = pairs
    return render(doc)


@st.composite
def cases(draw, shares_too: bool = True):
    """(fixture, network text, assignment text) with one of the two texts
    damaged, or the network text alone without `shares_too`."""
    fixture = draw(st.sampled_from(FIXTURES))
    network = json.loads(fixture.read_text(encoding="utf-8"))
    shares = {p["name"]: [1 / len(p["routes"])] * len(p["routes"]) for p in network["populations"]}
    if not shares_too or draw(st.booleans()):
        return fixture, draw(damaged(network)), render(shares)
    return fixture, render(network), draw(damaged(shares))


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def check(case, commands) -> None:
    """Run each command of `commands(fixture, network path, shares path)` on
    the case's documents, and check its exit and its error lines."""
    fixture, network, shares = case
    with tempfile.TemporaryDirectory() as tmp:
        net_path, shares_path = Path(tmp, "network.json"), Path(tmp, "shares.json")
        net_path.write_text(network, encoding="utf-8")
        shares_path.write_text(shares, encoding="utf-8")
        for argv in commands(str(fixture), str(net_path), str(shares_path)):
            code, printed = run(argv)
            assert code in EXITS, (argv[0], code, printed)
            assert "Traceback" not in printed, (argv[0], code, printed)
            errors = [line for line in printed.splitlines() if line.startswith("error:")]
            if argv[0] == "uniqueness" and code == cli.EXIT_FAIL:
                # a population without a road of its own is refused with exit 1
                assert len(errors) <= 1, (argv[0], code, printed)
            else:
                assert len(errors) == (1 if code >= 2 else 0), (argv[0], code, printed)


def _ends(fixture: str) -> list[str]:
    population = json.loads(Path(fixture).read_text(encoding="utf-8"))["populations"][0]
    return ["--origin", population["origin"], "--destination", population["destination"]]


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_damaged_documents_end_in_a_documented_exit(case):
    check(case, lambda fixture, net, shares: [
        ["validate", net],
        ["solve", net, "--max-iters", "50"],
        ["verify", net, shares],
        ["oracle", net, "--grid", "3"],
        ["compare", fixture, net, "--max-iters", "50"],
        ["routes", net, *_ends(fixture)],
    ])


# Each intact two-population network runs the whole multistart.
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases(shares_too=False))
def test_damaged_networks_end_uniqueness_in_a_documented_exit(case):
    check(case, lambda fixture, net, shares: [["uniqueness", net, "--pairs", "2", "--starts", "1"]])


def _nested(kind: str, depth: int, leaf: str) -> str:
    """`leaf` wrapped `depth` times in a scale or sum cost, or in arrays."""
    opening, closing = {
        "scale": ('{"kind": "scale", "factor": 1.0, "expr": ', "}"),
        "sum": ('{"kind": "sum", "terms": [', "]}"),
        "array": ("[", "]"),
    }[kind]
    return opening * depth + leaf + closing * depth


@st.composite
def shaped(draw):
    """(fixture, network text, assignment text) of an intact network of
    extreme shape, its origin "o" and its destination "d"; the assignment
    is unused."""
    shape = draw(st.sampled_from(["nested", "long", "wide"]))
    if shape == "nested":  # one cost of braess_base, or one of its arrays, nested
        fixture = next(f for f in FIXTURES if f.stem == "braess_base")
        network = json.loads(fixture.read_text(encoding="utf-8"))
        kind = draw(st.sampled_from(["scale", "sum", "array"]))
        depth = draw(st.integers(1, 1200) | st.sampled_from([3000, 20_000]))
        where = network["populations"][0]["costs"] if kind != "array" else network["populations"][0]["routes"]
        key = draw(st.sampled_from(sorted(where) if kind != "array" else range(len(where))))
        leaf = json.dumps(where[key])
        where[key] = "@"
        return fixture, json.dumps(network).replace('"@"', _nested(kind, depth, leaf)), "{}"
    if shape == "long":  # one route along a chain of n junctions
        n = draw(st.integers(2, 1500))
        junctions = ["o", *(f"j{i}" for i in range(1, n - 1)), "d"]
        roads = [{"id": f"r{i}", "tail": a, "head": b} for i, (a, b) in enumerate(zip(junctions, junctions[1:]))]
        costs = {road["id"]: {"kind": "affine", "constant": 1.0, "coeffs": {"p": 1.0}} for road in roads}
        routes = [[road["id"] for road in roads]]
    else:  # m parallel roads, one route each
        m = draw(st.integers(1, 60))
        junctions = ["o", "d"]
        roads = [{"id": f"r{i}", "tail": "o", "head": "d"} for i in range(m)]
        costs = {road["id"]: {"kind": "affine", "constant": float(i), "coeffs": {"p": 1.0}}
                 for i, road in enumerate(roads)}
        routes = [[road["id"]] for road in roads]
    population = {"name": "p", "origin": "o", "destination": "d", "routes": routes, "costs": costs}
    return None, json.dumps({"junctions": junctions, "roads": roads, "populations": [population]}), "{}"


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shaped())
def test_deep_long_and_wide_documents_end_in_a_documented_exit(case):
    check(case, lambda fixture, net, shares: [
        ["validate", net],
        ["routes", net, "--origin", "o", "--destination", "d"],
        ["solve", net, "--max-iters", "5"],
    ])
