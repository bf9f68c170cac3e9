"""Command-line front end.

Exit codes are a total function of the outcome class:

* 0 - success / requested predicate holds
* 1 - validation errors, predicate fails, uniqueness hypothesis fails, or
  uniqueness finds several distinct verified equilibria
* 2 - unreadable or malformed input, dimension mismatch, bad flag value,
  unknown junction, a cost undefined at reachable flows (0 * inf), or a
  network the command is not defined for (uniqueness needs two populations)
* 3 - solver did not converge or its result failed verification
* 4 - non-monotone costs without --allow-nonmonotone, or with it, a
  non-monotone cost that evaluates negative
* 5 - the oracle grid or the uniqueness sample exceeds its budget

Every exit of 2 or more that `main` returns prints exactly one `error:`
line on stderr, a solve that ends in 3 after its report; a bad flag value
exits 2 through argparse's usage message.

Structured output (--format structured) is deterministic JSON: identical
inputs and seed give byte-identical bytes.  Text output rounds to 9
significant digits; the structured form keeps full precision.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Sequence

from . import analysis, equilibrium, fileio
from .analysis import (
    CASE_LEGEND,
    DEFAULT_ORACLE_BUDGET,
    CompareError,
    GammaConditionError,
    HSampler,
    OracleBudgetError,
)
from .costs import CostDomainError, ExtRealGuardError
from .equilibrium import (
    DEFAULT_TIME_TOLERANCE,
    DimensionMismatchError,
    MultistartParams,
    NonMonotoneCostError,
    PreconditionError,
    SolveParams,
)
from .fileio import ParseError
from .netcore import NetworkIndexError, enumerate_routes, validate_network

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_NONMONOTONE = 4
EXIT_BUDGET = 5


def _fmt(x) -> str:
    """9-significant-digit text rendering; infinities become the token inf."""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return format(x, ".9g")


def _checked(kind: type, holds, message: str):
    """An argparse type: `kind` of the text, refused with `message` unless `holds(value)`.
    Named as `kind`, so that unreadable text is refused as "invalid int value"."""
    def parse(text: str):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = kind.__name__
    return parse


def _positive(kind: type, name: str):
    return _checked(kind, lambda v: 0 < v < math.inf, f"{name} must be positive and finite")


def _count(name: str):
    return _checked(int, lambda v: v >= 0, f"{name} must be a nonnegative integer")


_seed = _count("seed")
_omega = _checked(float, lambda v: 0 < v <= 1, "omega must lie in (0, 1]")
_quadrature = _checked(int, lambda v: 0 < v <= analysis.MAX_QUADRATURE_NODES,
                       f"quadrature must be positive and at most {analysis.MAX_QUADRATURE_NODES}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on first use and shared after."""
    parser = argparse.ArgumentParser(
        prog="wardrop",
        description="Multi-population Nash equilibria on road networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, solver: bool = False, tol: bool = True) -> None:
        p.add_argument("--format", choices=["text", "structured"], default="text")
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write the report here instead of standard output")
        if tol:
            p.add_argument("--tol", type=_positive(float, "tol"), default=DEFAULT_TIME_TOLERANCE,
                           help="time-equality tolerance (relative)")
        if solver:
            p.add_argument("--omega", type=_omega, default=SolveParams.omega,
                           help="damping in (0, 1]")
            p.add_argument("--max-iters", type=_positive(int, "max-iters"),
                           default=SolveParams.max_iters)
            p.add_argument("--residual-tol", type=_positive(float, "residual-tol"),
                           default=SolveParams.residual_tol)
            p.add_argument("--allow-nonmonotone", action="store_true")

    p_validate = sub.add_parser("validate", help="structural checks on a network file")
    p_validate.add_argument("network")
    common(p_validate, tol=False)

    p_solve = sub.add_parser("solve", help="solve for a verified Nash equilibrium")
    p_solve.add_argument("network")
    common(p_solve, solver=True)

    p_verify = sub.add_parser("verify", help="check an assignment against a predicate")
    p_verify.add_argument("network")
    p_verify.add_argument("assignment")
    p_verify.add_argument(
        "--predicate", choices=["equilibrium", "nash", "eps-nash"], default="nash"
    )
    p_verify.add_argument("--eps", type=_positive(float, "eps"), default=None)
    common(p_verify)

    p_compare = sub.add_parser("compare", help="solve two networks and flag worsened populations")
    p_compare.add_argument("base")
    p_compare.add_argument("variant")
    common(p_compare, solver=True)

    p_oracle = sub.add_parser("oracle", help="brute-force grid search for Nash points")
    p_oracle.add_argument("network")
    p_oracle.add_argument("--grid", type=_positive(int, "grid"), default=200,
                          help="simplex grid resolution")
    p_oracle.add_argument("--budget", type=_positive(int, "budget"), default=DEFAULT_ORACLE_BUDGET)
    common(p_oracle)

    p_unique = sub.add_parser("uniqueness", help="sampled at-most-one-equilibrium diagnostic")
    p_unique.add_argument("network")
    p_unique.add_argument("--pairs", type=_count("pairs"), default=HSampler.pairs)
    p_unique.add_argument("--quadrature", type=_quadrature, default=HSampler.quadrature_nodes)
    p_unique.add_argument("--starts", type=_count("starts"),
                          default=MultistartParams.random_starts,
                          help="random multistart count for the residual check")
    p_unique.add_argument("--seed", type=_seed, default=HSampler.seed)
    common(p_unique)

    p_routes = sub.add_parser("routes", help="enumerate simple routes between two junctions")
    p_routes.add_argument("network")
    p_routes.add_argument("--origin", required=True)
    p_routes.add_argument("--destination", required=True)
    common(p_routes, tol=False)

    return parser


def _emit(args, payload, text_lines: list[str]) -> None:
    if args.format == "structured":
        rendered = fileio.dumps_structured(payload)
    else:
        rendered = "\n".join(text_lines)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    else:
        print(rendered)


def _load_net(path: str):
    net = fileio.load_network(path)
    report = validate_network(net)
    if not report.ok:
        raise _ValidationFailed(report)
    return net


class _ValidationFailed(Exception):
    def __init__(self, report):
        self.report = report
        super().__init__("network failed validation")


def _finding_lines(report) -> list[str]:
    return [
        f"{f.severity.upper()} {f.code}: {f.message} [{', '.join(f.witnesses)}]"
        for f in report.findings
    ]


# Exit code of each refusal, reported as one `error:` line.
_REFUSALS = (
    (ParseError, EXIT_INPUT),
    (OSError, EXIT_INPUT),
    (DimensionMismatchError, EXIT_INPUT),
    (NetworkIndexError, EXIT_INPUT),
    (ExtRealGuardError, EXIT_INPUT),
    (PreconditionError, EXIT_INPUT),
    (NonMonotoneCostError, EXIT_NONMONOTONE),
    (CostDomainError, EXIT_NONMONOTONE),
    (OracleBudgetError, EXIT_BUDGET),
    (GammaConditionError, EXIT_FAIL),
    (CompareError, EXIT_SOLVER),
)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except _ValidationFailed as exc:
        for line in _finding_lines(exc.report):
            print(line)
        return EXIT_FAIL
    except tuple(kind for kind, _ in _REFUSALS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _REFUSALS if isinstance(exc, kind))


def _dispatch(args) -> int:
    if args.command == "validate":
        net = fileio.load_network(args.network)
        report = validate_network(net)
        _emit(args, report, _finding_lines(report) + [f"ok: {report.ok}"])
        return EXIT_OK if report.ok else EXIT_FAIL

    if args.command == "solve":
        net = _load_net(args.network)
        result = equilibrium.solve_fixed_point(net, None, _solve_params(args))
        _emit(args, result, _solve_lines(net, result))
        if result.success:
            return EXIT_OK
        if result.converged:
            print("error: the solver's fixed point failed verification", file=sys.stderr)
        else:
            print(f"error: no convergence in {result.iterations} iterations "
                  f"(residual {_fmt(result.residual)})", file=sys.stderr)
        return EXIT_SOLVER

    if args.command == "verify":
        net = _load_net(args.network)
        theta = fileio.load_assignment(args.assignment, net)
        report = equilibrium.verify(net, theta, tol=args.tol, eps=args.eps)
        verdict = {
            "equilibrium": report.is_equilibrium,
            "nash": report.is_nash,
            "eps-nash": report.is_eps_nash,
        }[args.predicate]
        lines = [
            f"equilibrium: {report.is_equilibrium} (residual {_fmt(report.equilibrium_residual)})",
            f"nash: {report.is_nash} (residual {_fmt(report.nash_residual)})",
            f"eps-nash: {report.is_eps_nash} (eps {_fmt(report.eps_used)}, "
            f"residual {_fmt(report.eps_residual)})",
        ]
        for name, t in zip(net.population_names(), report.common_times):
            lines.append(f"population {name}: mean relevant time {_fmt(t)}")
        lines.append(f"{args.predicate}: {verdict}")
        _emit(args, report, lines)
        return EXIT_OK if verdict else EXIT_FAIL

    if args.command == "compare":
        base = _load_net(args.base)
        variant = _load_net(args.variant)
        report = analysis.compare_scenarios(base, variant, _solve_params(args))
        header = f"{'population':<16}{'before':>16}{'after':>16}{'delta':>16}  paradox"
        lines = [header, "-" * len(header)]
        for name, b, a, d, flag in zip(
            report.population_names, report.base_times, report.variant_times,
            report.deltas, report.paradox,
        ):
            lines.append(
                f"{name:<16}{_fmt(b):>16}{_fmt(a):>16}{_fmt(d):>16}  {'YES' if flag else 'no'}"
            )
        _emit(args, report, lines)
        return EXIT_OK

    if args.command == "oracle":
        net = _load_net(args.network)
        result = analysis.brute_force_equilibria(
            net, args.grid, tol=args.tol, budget=args.budget
        )
        lines = [
            f"grid resolution: {result.resolution}",
            f"points scanned: {result.points_scanned}",
            f"tolerance: {_fmt(result.tolerance)}",
            f"clusters: {len(result.equilibria)}",
        ]
        for theta, residual in result.equilibria:
            shares = "; ".join(
                f"{name} [" + ", ".join(_fmt(x) for x in vec) + "]"
                for name, vec in zip(net.population_names(), theta.shares)
            )
            lines.append(f"  {shares} (residual {_fmt(residual)})")
        _emit(args, result, lines)
        return EXIT_OK

    if args.command == "uniqueness":
        net = _load_net(args.network)
        sampler = HSampler(pairs=args.pairs, seed=args.seed, quadrature_nodes=args.quadrature)
        solve = SolveParams(verify_tol=args.tol)
        starts = MultistartParams(random_starts=args.starts, seed=args.seed, solve=solve)
        report = analysis.check_uniqueness(net, sampler, starts)
        lines = [
            f"verdict: {report.verdict}",
            f"pairs sampled: {report.pairs_sampled} "
            f"(skipped for infinite costs: {report.pairs_skipped_infinite})",
            f"worst exceptional shared-road count: {report.exceptional_roads}",
            "per-road worst case:",
            *(f"  {rid}: {case} - {CASE_LEGEND[case]}" for rid, case in report.road_cases),
        ]
        for k, pair in enumerate(report.pair_residuals):
            rendered = ", ".join("n/a" if r is None else _fmt(r) for r in pair)
            lines.append(f"equilibrium-pair residuals {k}: [{rendered}]")
        _emit(args, report, lines)
        return EXIT_OK if report.verdict.startswith("at-most-one") else EXIT_FAIL

    if args.command == "routes":
        net = _load_net(args.network)
        found = enumerate_routes(net, args.origin, args.destination)
        lines = [" -> ".join(r.road_ids) for r in found] or ["(no routes)"]
        _emit(args, [list(r.road_ids) for r in found], lines)
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def _solve_params(args) -> SolveParams:
    return SolveParams(
        omega=args.omega,
        max_iters=args.max_iters,
        residual_tol=args.residual_tol,
        verify_tol=args.tol,
        allow_nonmonotone=args.allow_nonmonotone,
    )


def _solve_lines(net, result) -> list[str]:
    status = "verified-nash" if result.success else (
        "not-converged" if not result.converged else "verification-failed"
    )
    lines = [
        f"status: {status}",
        f"iterations: {result.iterations}",
        f"residual: {_fmt(result.residual)}",
    ]
    for name, vec, t in zip(
        net.population_names(), result.assignment.shares, result.verified.common_times
    ):
        shares = ", ".join(_fmt(x) for x in vec)
        lines.append(f"population {name}: shares [{shares}] time {_fmt(t)}")
    return lines


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
