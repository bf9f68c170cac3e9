"""A small evaluator of route times, independent of the wardrop package.

It reads network documents as plain JSON and knows the cost kinds the
benchmark's inputs use: `constant`, `affine`, `nonmonotone_affine` and
`congestion` (value s / (capacity - s), +inf once the weighted load s
reaches capacity).  The predicates restate the documented definitions of
equilibrium, Nash and eps-Nash; outputs of `wardrop solve` and
`wardrop verify` are checked against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SHARE_TOL = 1e-9  # the library's default share tolerance
INPUT_TOL = 1e-12
UNDECIDED = 1e-12  # half-width of the band around tol left undecided


def _road_cost(obj: dict, flows: dict[str, float]) -> float:
    kind = obj["kind"]
    if kind == "constant":
        return float(obj["value"])
    if kind in ("affine", "nonmonotone_affine"):
        return float(obj.get("constant", 0.0)) + sum(
            c * flows[n] for n, c in obj.get("coeffs", {}).items()
        )
    if kind == "congestion":
        load = sum(w * flows[n] for n, w in obj["weights"].items())
        cap = obj["capacity"]
        return math.inf if load >= cap else load / (cap - load)
    raise ValueError(f"reference evaluator does not know cost kind {kind!r}")


class Evaluator:
    """Route times of a network document at given route shares."""

    def __init__(self, doc: dict):
        self.names = [p["name"] for p in doc["populations"]]
        self.routes = [[list(r) for r in p["routes"]] for p in doc["populations"]]
        self.costs = [p["costs"] for p in doc["populations"]]

    def times(self, shares: list[list[float]]) -> list[list[float]]:
        flows: dict[str, dict[str, float]] = {}
        for name, routes, vec in zip(self.names, self.routes, shares):
            for route, share in zip(routes, vec):
                for rid in route:
                    per_pop = flows.setdefault(rid, dict.fromkeys(self.names, 0.0))
                    per_pop[name] += max(share, 0.0)
        out = []
        for routes, costs in zip(self.routes, self.costs):
            cost = {rid: _road_cost(costs[rid], flows[rid]) for route in routes for rid in route}
            out.append([sum(cost[rid] for rid in route) for route in routes])
        return out


@dataclass(frozen=True)
class Residuals:
    """Worst violation of each predicate's own condition, measured as the
    library reports it: relevant-time spread, unused-route shortfall below
    the mean, and eps-shift gain."""

    spread: float
    shortfall: float
    gain: float
    eps: float

    def holds(self, tol: float) -> tuple[bool | None, bool | None, bool | None]:
        """(equilibrium, nash, eps-nash) verdicts; None marks the few ulps
        around `tol` where summation order alone could flip the answer."""
        eq = verdict(self.spread, tol)
        nash = _and(eq, verdict(self.shortfall, tol))
        return eq, nash, _and(nash, verdict(self.gain, tol))


def verdict(residual: float, tol: float) -> bool | None:
    if abs(residual - tol) <= UNDECIDED * max(1.0, tol):
        return None
    return residual <= tol


def _and(a: bool | None, b: bool | None) -> bool | None:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def residuals(ev: Evaluator, shares: list[list[float]], eps: float | None = None) -> Residuals:
    times = ev.times(shares)
    spread = 0.0
    shortfall = 0.0
    for vec, ts in zip(shares, times):
        relevant = [t for th, t in zip(vec, ts) if th > SHARE_TOL]
        finite = [t for t in relevant if not math.isinf(t)]
        if len(relevant) > 1 and finite:
            if len(finite) != len(relevant):
                spread = math.inf
            else:
                spread = max(spread, (max(finite) - min(finite)) / max(1.0, abs(max(finite))))
        mean = sum(th * t for th, t in zip(vec, ts) if th > SHARE_TOL)
        for th, t in zip(vec, ts):
            if th > SHARE_TOL or math.isinf(t):
                continue
            short = math.inf if math.isinf(mean) else (mean - t) / max(1.0, abs(mean))
            shortfall = max(shortfall, short)
    if eps is None:
        eps = min(0.5 * min(x for x in vec if x > SHARE_TOL) for vec in shares)
    gain = 0.0
    for p, vec in enumerate(shares):
        for i in range(len(vec)):
            if vec[i] < eps - INPUT_TOL:
                continue
            for j in range(len(vec)):
                if i == j:
                    continue
                moved = list(vec)
                moved[i] = max(0.0, moved[i] - eps)
                moved[j] += eps
                after = ev.times(shares[:p] + [moved] + shares[p + 1:])[p][j]
                before = times[p][i]
                if math.isinf(after):
                    continue
                g = math.inf if math.isinf(before) else (before - after) / max(1.0, abs(before))
                gain = max(gain, g)
    return Residuals(spread, shortfall, gain, eps)
