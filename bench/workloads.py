"""The three workloads: the documents each one writes and the CLI calls of
one pass over them, with the check each call's output must pass.

Every workload calls every measured command (`solve`, `verify`, `compare`,
`oracle`, `uniqueness`) so that each end-to-end metric is measured on each
workload; what differs is which layer dominates:

* `fixtures`: the seven shipped networks (<= 7 roads, <= 3 routes).  Per-op
  parse, validate, engine build and render, and per-iteration overhead
  dominate, so a core that is slower at n ~ 2 shows here.
* `layered`: seeded layered DAGs (up to 35 roads and 27 routes per
  population).  Cost evaluation, map steps and the eps-Nash shifts of
  `verify` dominate.
* `analysis`: the oracle in its scan-dominated and cluster-dominated
  regimes, and `uniqueness`, whose time is mostly its internal multistart
  solves, plus one quadrature-heavy run.

The seed perturbs the costs of the layered networks (fixed family members,
see layered.py) and picks the interior points `verify` checks and the
`--seed` of `uniqueness`; the shipped fixtures are fixed.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference
from layered import layered, with_express

FIXTURES = (
    "nonmonotone_pair", "delay_spillover", "congestion_corridor",
    "braess_base", "braess_augmented", "merge_base", "merge_linked",
)
TOL = 1e-9  # the CLI's default --tol
AGREE = 1e-12  # relative slack (floor 1) when library and reference residuals are compared

# Verdicts of `uniqueness`, as the shipped fixtures give them today.
UNIQUENESS_VERDICTS = {
    "delay_spillover": "at-most-one (sampled)",
    "merge_base": "at-most-one (sampled)",
    "congestion_corridor": "hypothesis fails (sampled)",
}

Outputs = dict  # op label -> parsed structured output of that op in this pass
# (parsed output, outputs of the pass so far, exit code) -> problem or None
Check = Callable[[object, Outputs, int], "str | None"]


@dataclass
class Op:
    command: str
    label: str
    args: list[str]
    expect: tuple[int, ...] = (0,)
    check: Check | None = None
    # Untimed step after a successful op, e.g. writing the solved point as
    # the assignment document a later `verify` reads.
    then: Callable[[object], None] | None = None


@dataclass
class Network:
    path: Path
    doc: dict
    evaluator: reference.Evaluator

    @property
    def names(self) -> list[str]:
        return self.evaluator.names

    def route_counts(self) -> list[int]:
        return [len(r) for r in self.evaluator.routes]


@dataclass
class Workload:
    networks: dict[str, Network] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    known_failures: list[Op] = field(default_factory=list)


def num(x) -> float:
    return math.inf if x == "inf" else float(x)


def close(a: float, b: float, rel: float = 1e-6) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(b))


def max_gap(a, b) -> float:
    return max(abs(x - y) for va, vb in zip(a, b) for x, y in zip(va, vb))


class Builder:
    """Writes input documents into `workdir` and collects the ops over them."""

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.rng = random.Random(f"points/{seed}")
        self.w = Workload()
        self._residuals: dict[tuple, reference.Residuals] = {}

    # -- documents ---------------------------------------------------------

    def network(self, name: str, source) -> Network:
        """`source` is a Network object or the path of a shipped document."""
        path = self.dir / f"{name}.json"
        if isinstance(source, Path):
            shutil.copyfile(source, path)
        else:
            from wardrop import fileio

            fileio.save_network(source, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        net = Network(path, doc, reference.Evaluator(doc))
        self.w.networks[name] = net
        return net

    def assignment(self, net: Network, name: str, shares: list[list[float]]) -> Path:
        path = self.dir / f"{name}.assignment.json"
        path.write_text(json.dumps(dict(zip(net.names, shares))) + "\n", encoding="utf-8")
        return path

    def barycenter(self, net: Network) -> list[list[float]]:
        return [[1.0 / n] * n for n in net.route_counts()]

    def interior(self, net: Network) -> list[list[float]]:
        """A seeded point strictly inside every simplex (all routes used)."""
        out = []
        for n in net.route_counts():
            raw = [self.rng.uniform(0.5, 1.5) for _ in range(n)]
            total = sum(raw)
            out.append([x / total for x in raw])
        return out

    def residuals(self, net: Network, shares) -> reference.Residuals:
        key = (str(net.path), json.dumps(shares))
        if key not in self._residuals:
            self._residuals[key] = reference.residuals(net.evaluator, shares)
        return self._residuals[key]

    # -- ops ---------------------------------------------------------------

    def add(self, op: Op) -> Op:
        self.w.ops.append(op)
        return op

    def validate(self, name: str) -> None:
        net = self.w.networks[name]

        def check(out, _, code):
            return None if out.get("ok") is True else "network reported invalid"

        self.add(Op("validate", f"validate:{name}", ["validate", str(net.path)], check=check))

    def routes(self, name: str) -> None:
        """Simple routes between the first population's endpoints; every
        route of every population with those endpoints must be among them."""
        net = self.w.networks[name]
        first = net.doc["populations"][0]
        ends = (first["origin"], first["destination"])
        expected = {
            tuple(route)
            for pop in net.doc["populations"] if (pop["origin"], pop["destination"]) == ends
            for route in pop["routes"]
        }

        def check(out, _, code):
            found = {tuple(route) for route in out}
            return None if expected <= found else f"routes {sorted(expected - found)} not enumerated"

        self.add(Op("routes", f"routes:{name}", ["routes", str(net.path), "--origin", ends[0],
                                                 "--destination", ends[1]], check=check))

    def solve(self, name: str, *flags: str) -> None:
        """`solve`, then `verify` of the solved point it writes."""
        net = self.w.networks[name]
        label = f"solve:{name}"
        solved_doc = self.dir / f"{name}.solved.assignment.json"

        def check(out, _, code):
            if not (out["converged"] and out["verified"]["is_nash"]):
                return "solve did not return a verified Nash point"
            shares = out["assignment"]["shares"]
            res = self.residuals(net, shares)
            eq, nash, _eps = res.holds(TOL)
            if eq is False or nash is False:
                return (f"reference evaluator rejects the solution: spread {res.spread:.3g}, "
                        f"shortfall {res.shortfall:.3g}")
            return None

        def then(out):
            self.assignment(net, f"{name}.solved", out["assignment"]["shares"])

        self.add(Op("solve", label, ["solve", str(net.path), *flags], check=check, then=then))
        self.verify(name, solved_doc, "solved")

    def verify(self, name: str, doc: Path, tag: str, shares=None) -> None:
        """`verify` of an assignment document; `shares` are its contents when
        known before the pass (otherwise read back from the document).  The
        exit code must be 0 exactly when the reported Nash verdict holds."""
        net = self.w.networks[name]

        def check(out, _, code):
            pts = shares
            if pts is None:
                obj = json.loads(doc.read_text(encoding="utf-8"))
                pts = [obj[n] for n in net.names]
            if code != (0 if out["is_nash"] else 1):
                return f"exit code {code} with Nash verdict {out['is_nash']}"
            res = self.residuals(net, pts)
            ref = res.holds(TOL)
            got = (out["is_equilibrium"], out["is_nash"], out["is_eps_nash"])
            for pred, r, g in zip(("equilibrium", "nash", "eps-nash"), ref, got):
                if r is not None and r != g:
                    return f"{pred} verdict {g}, reference says {r}"
            pairs = (
                ("equilibrium_residual", res.spread),
                ("nash_residual", res.shortfall),
                ("eps_residual", res.gain),
                ("eps_used", res.eps),
            )
            for key, want in pairs:
                got_v = num(out[key])
                if not (got_v == want or abs(got_v - want) <= AGREE * max(1.0, abs(want))):
                    return f"{key} {got_v!r}, reference {want!r}"
            return None

        self.add(Op("verify", f"verify:{name}:{tag}", ["verify", str(net.path), str(doc)],
                    expect=(0, 1), check=check))

    def verify_point(self, name: str, tag: str, shares) -> None:
        net = self.w.networks[name]
        doc = self.assignment(net, f"{name}.{tag}", shares)
        self.verify(name, doc, tag, shares=shares)

    def compare(self, base: str, variant: str, check: Check | None = None) -> None:
        nets = self.w.networks[base], self.w.networks[variant]

        def default_check(out, outputs, code):
            for net, key in zip(nets, ("base_assignment", "variant_assignment")):
                eq, nash, _ = self.residuals(net, out[key]["shares"]).holds(TOL)
                if eq is False or nash is False:
                    return f"reference evaluator rejects the {key}"
            flags = [d > 1e-9 for d in out["deltas"]]
            if flags != out["paradox"]:
                return "paradox flags disagree with the time deltas"
            return None if check is None else check(out, outputs, code)

        self.add(Op("compare", f"compare:{base}:{variant}",
                    ["compare", str(nets[0].path), str(nets[1].path)], check=default_check))

    def oracle(self, name: str, grid: int) -> None:
        """Needs `solve:<name>` earlier in the pass: the oracle must find a
        cluster within 2/grid of the solver's point."""
        net = self.w.networks[name]
        points = math.prod(math.comb(grid + n - 1, n - 1) for n in net.route_counts())

        def check(out, outputs, code):
            if out["points_scanned"] != points:
                return f"scanned {out['points_scanned']} points, grid has {points}"
            solved = outputs.get(f"solve:{name}")
            if solved is None:
                return "no solver point to compare with"
            target = solved["assignment"]["shares"]
            gaps = [max_gap(theta["shares"], target) for theta, _ in out["equilibria"]]
            if not gaps or min(gaps) > 2.0 / grid:
                return f"no oracle cluster within 2/{grid} of the solver's point"
            return None

        self.add(Op("oracle", f"oracle:{name}:{grid}",
                    ["oracle", str(net.path), "--grid", str(grid)], check=check))

    def uniqueness(self, name: str, *flags: str, verdict: str | None = None) -> None:
        net = self.w.networks[name]
        pairs = int(flags[flags.index("--pairs") + 1]) if "--pairs" in flags else 100
        n0, n1 = net.route_counts()
        vertices = n0 * n1
        # vertex pairs, barycenter-vertex pairs, then the random ones
        expected_pairs = vertices * (vertices - 1) // 2 + vertices + pairs

        def check(out, _, code):
            if verdict is not None and out["verdict"] != verdict:
                return f"verdict {out['verdict']!r}, pinned {verdict!r}"
            seen = out["pairs_sampled"] + out["pairs_skipped_infinite"]
            if seen != expected_pairs:
                return f"{seen} pairs accounted for, {expected_pairs} drawn"
            return None

        expect = (0, 1) if verdict is None else ((0,) if verdict.startswith("at-most") else (1,))
        self.add(Op("uniqueness", f"uniqueness:{name}:{' '.join(flags)}",
                    ["uniqueness", str(net.path), "--seed", str(self.seed), *flags],
                    expect=expect, check=check))

    def known_failure(self, label: str, args: list[str]) -> None:
        """An input the program should refuse with a documented exit code
        and a one-line message, and which so far ends in a traceback."""
        self.w.known_failures.append(Op(label.split(":")[0], label, args, expect=(1, 2, 3, 4)))


def _shipped(b: Builder, root: Path) -> None:
    for name in FIXTURES:
        b.network(name, root / "fixtures" / f"{name}.json")


def fixtures(workdir: Path, seed: int, root: Path) -> Workload:
    b = Builder(workdir, seed)
    _shipped(b, root)
    for name in FIXTURES:
        b.validate(name)
        b.routes(name)
        b.solve(name, *(["--allow-nonmonotone"] if name == "nonmonotone_pair" else []))
        net = b.w.networks[name]
        b.verify_point(name, "barycenter", b.barycenter(net))
        b.verify_point(name, "interior", b.interior(net))

    def braess(out, *_):
        if not (all(close(a, b) for a, b in zip(out["base_times"], (65.0, 44.0)))
                and all(close(a, b) for a, b in zip(out["variant_times"], (80.0, 56.0)))):
            return f"Braess times {out['base_times']} -> {out['variant_times']}, want 65/44 -> 80/56"
        return None

    def merge(out, *_):
        shares = out["base_assignment"]["shares"]
        want = ((3 / 13, 10 / 13), (6 / 13, 7 / 13))
        if max_gap(shares, want) > 1e-6:
            return f"merge shares {shares}, want {want}"
        if not (close(out["base_times"][1], 35 / 13) and close(out["variant_times"][1], 3.0)):
            return f"merge east time {out['base_times'][1]} -> {out['variant_times'][1]}, want 35/13 -> 3"
        return None

    b.compare("braess_base", "braess_augmented", braess)
    b.compare("merge_base", "merge_linked", merge)
    b.oracle("delay_spillover", 100)
    b.oracle("merge_base", 100)
    b.oracle("congestion_corridor", 200)
    b.uniqueness("delay_spillover", "--pairs", "10", "--starts", "1",
                 verdict=UNIQUENESS_VERDICTS["delay_spillover"])

    # The three inputs known to end in a traceback instead of a refusal.
    b.known_failure("uniqueness:one-population",
                    ["uniqueness", str(b.w.networks["nonmonotone_pair"].path)])
    doc = json.loads(b.w.networks["nonmonotone_pair"].path.read_text(encoding="utf-8"))
    doc["populations"][0]["costs"]["r2"] = {
        "kind": "nonmonotone_affine", "constant": 1.0, "coeffs": {"commuters": -3.0}}
    negative = workdir / "negative_going.json"
    negative.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    b.known_failure("solve:negative-going", ["solve", str(negative), "--allow-nonmonotone"])
    doc = json.loads(b.w.networks["delay_spillover"].path.read_text(encoding="utf-8"))
    doc["populations"][0]["costs"]["r2"]["constant"] = float("nan")
    nan_doc = workdir / "nan_constant.json"
    nan_doc.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    b.known_failure("solve:nan-constant", ["solve", str(nan_doc)])
    return b.w


# Layered family members of the `layered` workload, as (width, depth,
# populations, member).  SOLVED are solved and verified; VERIFIED, whose
# solves take 9k-16k iterations (2.5-4.3 s on a 2-vCPU x86_64 box;
# together more than the rest of a pass), are only verified at interior
# points; SMALL
# (two routes per population, so that `uniqueness` solves only four
# vertex starts) carry `compare`, `oracle` and `uniqueness`.
SOLVED = [(3, 2, 2, m) for m in range(4)]
VERIFIED = [(5, 2, 2, 0), (3, 3, 2, 0)]
SMALL = [(2, 1, 2, m) for m in range(3)]


def layered_workload(workdir: Path, seed: int, root: Path) -> Workload:
    b = Builder(workdir, seed)
    solved = [f"solved{k}" for k in range(len(SOLVED))]
    large = [f"large{k}" for k in range(len(VERIFIED))]
    for name, (w, d, p, m) in zip(solved + large, SOLVED + VERIFIED):
        b.network(name, layered(w, d, p, seed, m))
    small = [f"small{k}" for k in range(len(SMALL))]
    for name, (w, d, p, m) in zip(small, SMALL):
        net = layered(w, d, p, seed, m)
        b.network(name, net)
        b.network(f"{name}_express", with_express(net, seed))
    for name in solved + large:
        b.validate(name)
        b.routes(name)
    for name in solved:
        b.solve(name)
        b.verify_point(name, "interior", b.interior(b.w.networks[name]))
    for name in large:
        b.verify_point(name, "interior", b.interior(b.w.networks[name]))
    for name in small:
        b.solve(name)
        b.compare(name, f"{name}_express")
        b.oracle(name, 200)
        b.uniqueness(name, "--starts", "1")
    return b.w


def analysis(workdir: Path, seed: int, root: Path) -> Workload:
    b = Builder(workdir, seed)
    _shipped(b, root)
    # Scan-dominated, then two cluster-dominated oracle runs.
    for name, grid in (("congestion_corridor", 800), ("braess_base", 24), ("merge_linked", 12)):
        b.routes(name)
        b.solve(name)
        b.oracle(name, grid)
    # Multistart-dominated runs, and one where quadrature is about half.
    for name in ("merge_base", "congestion_corridor"):
        b.uniqueness(name, "--starts", "1", verdict=UNIQUENESS_VERDICTS[name])
    b.uniqueness("delay_spillover", "--pairs", "400", "--starts", "1",
                 verdict=UNIQUENESS_VERDICTS["delay_spillover"])
    b.compare("braess_base", "braess_augmented")
    return b.w


WORKLOADS = {"fixtures": fixtures, "layered": layered_workload, "analysis": analysis}
