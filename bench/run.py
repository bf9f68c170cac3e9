"""Benchmark of the wardrop command line, end to end and layer by layer.

    python3 bench/run.py --workload fixtures|layered|analysis \\
        --seed N --seconds S --trace 0|1

Run from the root of a source tree (the one holding `src/wardrop` and
`fixtures/`).  One process, one client, closed loop: every pass calls
`wardrop.cli.main([...])` in-process on each op of the workload in turn, the
next op starting when the previous returns.  Passes repeat until `--seconds`
is spent.  A time metric is one pass with every op at its median over the
run's passes, at reference speed: each op's seconds are scaled by how much
slower than nominal a fixed reference snippet ran just before and after it
(see `calibrate`), because other tenants of a shared machine move its
speed by up to 2x for minutes at a time.  The report gives the plain
seconds too, with high percentiles.
Every op's output is checked after the passes (see workloads.py), and the
structured output of every pass must be byte-identical to the first.

`--trace 0` prints the end-to-end metrics.  `--trace 1` spends half the time
untraced and half with spans around each layer's public functions
(spans.py), then prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics; the lines before it are a readable report.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is a single client, and the box is shared.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict, namedtuple
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
MEASURED = ("solve", "verify", "compare", "oracle", "uniqueness")
DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5}
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["fixtures", "layered", "analysis"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_wardrop() -> None:
    """Import the package from this tree's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "wardrop" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        sys.exit(f"error: run from a wardrop source tree; no src/wardrop or fixtures/ in {ROOT}")
    sys.path[:0] = [str(src), str(BENCH)]
    import wardrop.cli

    if Path(wardrop.cli.__file__).resolve().parent != (src / "wardrop").resolve():
        sys.exit(f"error: imported wardrop from {wardrop.cli.__file__}, not from {src}")


IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import wardrop.cli; print(time.perf_counter() - t)"
)


def time_import() -> float:
    """Seconds to import the CLI in a fresh interpreter (the cost every
    `wardrop` invocation pays before its first op)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

# One op of one pass: its parsed output, the problem that failed it (None
# if none so far), bytes written, exit code, seconds inside cli.main, and
# those seconds at reference speed (see `calibrate`).
Result = namedtuple("Result", "op out problem size code seconds scaled")

# Seconds the reference snippet takes at reference speed; about its fastest
# on the machine the benchmark was written on.
REFERENCE_S = 1e-3


def calibrate() -> float:
    """Seconds one run of a fixed reference snippet takes now.

    The snippet does the kind of work the program does (dict updates, float
    arithmetic, small numpy arrays) and touches nothing of the program.  On
    a shared machine other tenants slow everything down by up to 2x for
    seconds to minutes at a time; an op's time times REFERENCE_S over the
    snippet's time around it is the op's time at reference speed, which
    stays put while the machine's speed moves.
    """
    start = time.perf_counter()
    table: dict[int, float] = {}
    total = 0.0
    row = np.arange(8.0)
    for i in range(400):
        table[i % 13] = table.get(i % 13, 0.0) + i * 0.5
        total += float((row * i).sum()) / (1.0 + i)
    return time.perf_counter() - start


def call(args: list[str]):
    """One CLI call: (exit code or None, stdout, problem, seconds)."""
    import wardrop.cli

    out, err = io.StringIO(), io.StringIO()
    problem = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = wardrop.cli.main(args)
    except SystemExit as exc:  # argparse rejects a flag
        code = exc.code
    except Exception as exc:  # the program ended in a traceback
        code = None
        problem = f"traceback: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if problem is None and code not in DOCUMENTED_EXITS:
        problem = f"undocumented exit code {code!r}"
    return code, out.getvalue(), problem, seconds


def run_pass(work) -> dict:
    """Run every op once, each between two runs of the reference snippet;
    outputs are checked after the passes."""
    results = []
    digest = hashlib.sha256()
    start = time.perf_counter()
    before = calibrate()
    for op in work.ops:
        code, text, problem, seconds = call(op.args + ["--format", "structured"])
        after = calibrate()
        scaled = seconds * REFERENCE_S / (0.5 * (before + after))
        before = after
        digest.update(text.encode())
        out = None
        if problem is None and code not in op.expect:
            problem = f"exit code {code}, expected {op.expect}"
        if problem is None:
            try:
                out = json.loads(text)
            except json.JSONDecodeError:
                problem = "output is not a structured document"
        if problem is None and op.then is not None:
            op.then(out)
        results.append(Result(op, out, problem, len(text.encode()), code, seconds, scaled))
    return {"wall_s": time.perf_counter() - start, "results": results,
            "digest": digest.hexdigest()}


def check_pass(record) -> list[str]:
    """One line per failed op of the pass."""
    outputs = {r.op.label: r.out for r in record["results"] if r.problem is None}
    failures = []
    for r in record["results"]:
        problem = r.problem
        if problem is None and r.op.check is not None:
            try:
                problem = r.op.check(r.out, outputs, r.code)
            except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
                problem = f"output does not have the documented shape: {exc!r}"
        if problem is not None:
            failures.append(f"{r.op.label}: {problem}")
    return failures


def run_passes(work, seconds: float, tracer=None, counts=None) -> list[dict]:
    """Passes until `seconds` is spent, at least one; no pass starts that
    the median pass so far says would end after `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            counts.append(Counter())
            tracer.counts = counts[-1]
        passes.append(run_pass(work))
        spent = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if spent + typical > seconds:
            return passes


def op_times(passes, statistic=statistics.median, field="scaled") -> list[tuple[str, float]]:
    """(command, statistic over passes of its seconds, raw or at reference
    speed) for each op of the pass."""
    return [
        (results[0].op.command, statistic(getattr(r, field) for r in results))
        for results in zip(*(p["results"] for p in passes))
    ]


def pass_time(times, command: str | None = None) -> float:
    """Seconds of a pass with every op at the given time, for one command or all."""
    return sum(s for c, s in times if command is None or c == command)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def set_up(name: str, seed: int, parent: Path):
    """Write every input document and make one warm-up call per network."""
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix="run_", dir=parent))
    start = time.perf_counter()
    work = workloads.WORKLOADS[name](workdir, seed, ROOT)
    for net in work.networks.values():
        code, _, problem, _ = call(["validate", str(net.path), "--format", "structured"])
        if problem is not None or code != 0:
            raise RuntimeError(f"warm-up validate of {net.path.name} failed: {problem or code}")
    return work, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Tracing: count hooks and probes
# ---------------------------------------------------------------------------

def _used_roads(net) -> int:
    return sum(len(pop.road_ids()) for pop in net.populations)


def _feasible_shifts(shares, eps_values) -> int:
    return sum(
        sum(1 for i in range(len(vec)) if vec[i] >= e - 1e-12) * (len(vec) - 1)
        for vec in shares
        for e in eps_values
    )


def install_hooks(tracer) -> None:
    from wardrop import analysis, equilibrium

    eps_sig = inspect.signature(equilibrium.is_eps_nash)
    seg_sig = inspect.signature(analysis.segment_matrices)

    def solve(args, kwargs, result, parents):
        c = tracer.counts
        c["iterations"] += result.iterations
        c["cost_evals"] += result.iterations * _used_roads(args[0])
        if "equilibrium.solve_multistart" in parents:
            c["starts"] += 1

    def eps_nash(args, kwargs, result, parents):
        bound = eps_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        eps = a["eps"] if a["eps"] is not None else equilibrium.default_eps(a["theta"], a["share_tol"])
        values = [eps, eps / 2, eps / 4] if a["ladder"] else [eps]
        shifts = _feasible_shifts(a["theta"].shares, values)
        tracer.counts["eps_shifts"] += shifts
        tracer.counts["cost_evals"] += shifts * _used_roads(a["net"])

    def multistart(args, kwargs, result, parents):
        tracer.counts["distinct"] += len(result)

    def oracle(args, kwargs, result, parents):
        tracer.counts["points_scanned"] += result.points_scanned
        tracer.counts["clusters"] += len(result.equilibria)

    def eval_array(args, kwargs, result, parents):
        flows = args[1] if len(args) > 1 else kwargs["flows"]
        tracer.counts["array_points"] += max([1] + [getattr(v, "size", 1) for v in flows.values()])

    def segments(args, kwargs, result, parents):
        a = seg_sig.bind(*args, **kwargs)
        a.apply_defaults()
        net = a.arguments["net"]
        roads = {r.id for r in net.roads}
        costed = sum(len(set(pop.costs) & roads) for pop in net.populations)
        tracer.counts["quadrature_evals"] += 2 * costed * a.arguments["quadrature_nodes"]

    def coupling(args, kwargs, result, parents):
        tracer.counts["pairs_sampled"] += result.pairs_sampled
        tracer.counts["pairs_skipped"] += result.pairs_skipped_infinite

    def routes(args, kwargs, result, parents):
        tracer.counts["routes"] += len(result)

    tracer.hooks.update({
        "equilibrium.solve_fixed_point": solve,
        "equilibrium.is_eps_nash": eps_nash,
        "equilibrium.solve_multistart": multistart,
        "analysis.brute_force_equilibria": oracle,
        "costs.eval_array": eval_array,
        "analysis.segment_matrices": segments,
        "analysis.check_hypothesis_coupling": coupling,
        "netcore.enumerate_routes": routes,
    })


PROBE_REPEATS = 20


def probe(work, last_pass) -> None:
    """Direct calls, through the traced names, to the public functions the
    CLI path does not reach (or reaches once per op): one map step, route
    times, road flows, scalar cost evaluation, the 2x2 block classifier and
    the pair residual, on every network of the workload at its solved point
    or barycenter."""
    from wardrop import analysis, costs, equilibrium, fileio, netcore
    from wardrop.costs import InfiniteCostError

    solved = {r.op.label.split(":")[1]: r.out["assignment"]["shares"]
              for r in last_pass["results"] if r.problem is None and r.op.command == "solve"}
    for name, doc in work.networks.items():
        net = fileio.load_network(doc.path)
        counts = [len(p.routes) for p in net.populations]
        bary = equilibrium.Assignment.make([[1.0 / n] * n for n in counts])
        theta = equilibrium.Assignment.make(solved[name], tolerance=1e-9) if name in solved else bary
        incidences = [netcore.build_incidence(net, p) for p in range(len(counts))]
        for _ in range(PROBE_REPEATS):
            flows = netcore.flows_on_roads(incidences, theta.shares)
            equilibrium.fixed_point_map(net, theta)
            equilibrium.route_times(net, theta)
        index = net.road_index()
        names = net.population_names()
        points = [
            (expr, {q: float(flows[index[rid], k]) for k, q in enumerate(names)})
            for pop in net.populations
            for rid, expr in sorted(pop.costs.items())
        ]
        for _ in range(PROBE_REPEATS):
            for expr, point in points:
                try:
                    costs.eval_cost(expr, point)
                except costs.CostDomainError:
                    pass
        if len(counts) == 2 and name in solved:
            try:
                sm = analysis.segment_matrices(net, bary, theta)
            except InfiniteCostError:
                continue
            for _ in range(PROBE_REPEATS):
                analysis.check_defpos(sm)
                try:
                    analysis.check_pair_orthogonality(net, theta, theta)
                except equilibrium.PreconditionError:
                    break


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def high_percentile(values):
    """(label, value) of the highest percentile with >= 10 samples beyond
    it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


def environment() -> list[str]:
    import numpy

    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches.append(f"L{level}{kind[0].lower()}={size}")
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return [
        f"nproc {usable} (cpu_count {os.cpu_count()}), python {platform.python_version()}, "
        f"numpy {numpy.__version__}, BLAS threads {os.environ['OMP_NUM_THREADS']}",
        f"caches {' '.join(caches) or 'unknown'}, {platform.machine()} {platform.processor() or ''}".rstrip(),
    ]


def summarize_known(work) -> tuple[list[str], int]:
    """Run each known-failure input once: (report lines, how many failed)."""
    lines, failed = [], 0
    for op in work.known_failures:
        code, _, problem, _ = call(op.args + ["--format", "structured"])
        if problem is None and code not in op.expect:
            problem = f"exit code {code}, expected one of {op.expect}"
        failed += problem is not None
        lines.append(f"  {op.label}: {problem or f'refused with exit code {code}'}")
    return lines, failed


class Terminated(BaseException):
    """SIGTERM, raised past the CLI's exception handling so that clean-up runs."""


def _terminate(signum, frame):
    raise Terminated(signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    import_wardrop()
    scratch = Path(tempfile.mkdtemp(prefix=".bench_work_", dir=ROOT))
    try:
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch: Path) -> int:
    from spans import Tracer

    report = [f"wardrop benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}"]
    report += environment()

    setups = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        import_s = time_import()
        work, seconds = set_up(args.workload, args.seed, scratch)
        setups.append((import_s + seconds) * REFERENCE_S / (0.5 * (before + calibrate())))
    report.append(f"{len(work.ops)} ops per pass over {len(work.networks)} networks")

    tracer = None
    if args.trace:
        budget = args.seconds / 2
        plain = run_passes(work, budget)
        tracer = Tracer()
        install_hooks(tracer)
        tracer.install()
        try:
            set_up(args.workload, args.seed, scratch)
            setup_counts = tracer.counts
            counts: list[Counter] = []
            passes = run_passes(work, budget, tracer, counts)
            tracer.counts = Counter()
            probe(work, passes[-1])
        finally:
            tracer.uninstall()
    else:
        passes = run_passes(work, args.seconds)

    failures = []
    for k, record in enumerate(passes):
        failures += [f"pass {k}: {f}" for f in check_pass(record)]
    attempted = len(work.ops) * len(passes)
    failed = len(failures)
    digests = {p["digest"] for p in passes}
    consistent = len(digests) == 1
    if not consistent:
        failures.append("structured output differs between passes of one run")
    if tracer is not None and any(c != counts[0] for c in counts):
        failures.append("counts differ between traced passes of one run")
    known_lines, known_failed = summarize_known(work)

    report.append(f"passes {len(passes)}, ops attempted {attempted}, failed {failed} "
                  f"(failed_frac {failed / attempted:.4f}), output digest "
                  f"{sorted(digests)[0][:16]}{'' if consistent else ' (differs between passes)'}")
    if work.known_failures:
        known = len(work.known_failures)
        report.append(f"known-failure inputs, run once outside the passes and the JSON counts: "
                      f"{known_failed} of {known} fail; failed_frac counting them "
                      f"{(failed + known_failed) / (attempted + known):.4f}")
        report += known_lines
    for line in failures[:20]:
        report.append(f"FAILED {line}")

    if tracer is None:
        metrics = end_to_end(passes, setups, report)
    else:
        metrics = per_layer(tracer, passes, plain, counts, setup_counts, known_failed, report)
    print("\n".join(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def end_to_end(passes, setups, report) -> dict:
    metrics = {"setup_s": (statistics.median(setups), "s")}
    report.append("value: one pass with every op at its median over passes, at reference speed; "
                  "raw median and raw fastest: the same in plain seconds; high: highest "
                  "percentile of the passes' own plain sums with >= 10 passes beyond it")
    report.append(f"{'metric':<14}{'value':>12}{'raw median':>12}{'raw fastest':>12}"
                  f"{'high':>20}{'n':>5}  unit")
    report.append(f"{'setup_s':<14}{metrics['setup_s'][0]:>12.6f}{'':>44}{len(setups):>5}  s"
                  "  (median of set-ups: fresh-interpreter import, documents, warm-up calls)")
    scaled = op_times(passes)
    raw = op_times(passes, field="seconds")
    fastest = op_times(passes, min, field="seconds")
    for command in (None,) + MEASURED:
        key = "wall_s" if command is None else f"{command}_s"
        sums = [pass_time(op_times([p], field="seconds"), command) for p in passes]
        metrics[key] = (pass_time(scaled, command), "s")
        high = high_percentile(sums)
        high_text = f"{high[0]} {high[1]:.6f}" if high else "n/a"
        report.append(f"{key:<14}{metrics[key][0]:>12.6f}{pass_time(raw, command):>12.6f}"
                      f"{pass_time(fastest, command):>12.6f}{high_text:>20}{len(sums):>5}  s")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss, "MiB")
    report.append(f"{'peak_rss_mb':<14}{rss:>12.3f}{'':>44}{1:>5}  MiB")
    report.append("per-op latency by command in plain seconds, all ops of all passes:")
    merged = defaultdict(list)
    for p in passes:
        for r in p["results"]:
            merged[r.op.command].append(r.seconds)
    for command, values in sorted(merged.items()):
        high = high_percentile(values)
        high_text = f"{high[0]} {1e3 * high[1]:.3f} ms" if high else "n/a"
        report.append(f"  {command:<12} median {1e3 * statistics.median(values):10.3f} ms"
                      f"  {high_text:>20}  n {len(values)}")
    return metrics


def per_layer(tracer, passes, plain, counts, setup_counts, known_failed, report) -> dict:
    per_pass = counts[0]
    n = len(passes)
    ms = lambda name: tracer.mean_us(name) / 1e3
    us = tracer.mean_us
    iterations = per_pass["iterations"]
    solve_self = tracer.self_s["equilibrium.solve_fixed_point"] / n
    oracle_total = tracer.total_s["analysis.brute_force_equilibria"] / n
    pairs = per_pass["pairs_sampled"] + per_pass["pairs_skipped"]
    bytes_per_pass = sum(r.size for r in passes[0]["results"])
    traced_wall = pass_time(op_times(passes))
    plain_wall = pass_time(op_times(plain))
    metrics = {
        "fileio.load_network.ms": (ms("fileio.load_network"), "ms"),
        "fileio.dumps_structured.ms": (ms("fileio.dumps_structured"), "ms"),
        "fileio.report_bytes": (bytes_per_pass, "bytes"),
        "netcore.validate_network.ms": (ms("netcore.validate_network"), "ms"),
        "netcore.build_incidence.ms": (ms("netcore.build_incidence"), "ms"),
        "netcore.flows_on_roads.us": (us("netcore.flows_on_roads"), "us"),
        "netcore.enumerate_routes.ms": (ms("netcore.enumerate_routes"), "ms"),
        "netcore.routes": (setup_counts["routes"] + per_pass["routes"], "count"),
        "costs.eval_cost.us": (us("costs.eval_cost"), "us"),
        "costs.evals": (per_pass["cost_evals"], "count"),
        "costs.eval_array.ns_per_point": (
            1e9 * tracer.self_s["costs.eval_array"] / n / max(per_pass["array_points"], 1), "ns"),
        "costs.eval_partial.us": (us("costs.eval_partial"), "us"),
        "equilibrium.fixed_point_map.us": (us("equilibrium.fixed_point_map"), "us"),
        "equilibrium.route_times.us": (us("equilibrium.route_times"), "us"),
        "equilibrium.solve_fixed_point.iterations": (iterations, "count"),
        "equilibrium.solve_fixed_point.us_per_iter": (1e6 * solve_self / max(iterations, 1), "us"),
        "equilibrium.is_equilibrium.ms": (ms("equilibrium.is_equilibrium"), "ms"),
        "equilibrium.is_nash.ms": (ms("equilibrium.is_nash"), "ms"),
        "equilibrium.is_eps_nash.ms": (ms("equilibrium.is_eps_nash"), "ms"),
        "equilibrium.verify.ms": (ms("equilibrium.verify"), "ms"),
        "equilibrium.eps_shifts": (per_pass["eps_shifts"], "count"),
        "equilibrium.solve_multistart.starts": (per_pass["starts"], "count"),
        "equilibrium.solve_multistart.distinct_frac": (
            per_pass["distinct"] / max(per_pass["starts"], 1), "ratio"),
        "analysis.brute_force_equilibria.ms": (ms("analysis.brute_force_equilibria"), "ms"),
        "analysis.oracle.points_scanned": (per_pass["points_scanned"], "count"),
        "analysis.oracle.points_per_s": (per_pass["points_scanned"] / max(oracle_total, 1e-12), "1/s"),
        "analysis.oracle.clusters": (per_pass["clusters"], "count"),
        "analysis.segment_matrices.ms": (ms("analysis.segment_matrices"), "ms"),
        "analysis.quadrature_evals": (per_pass["quadrature_evals"], "count"),
        "analysis.check_defpos.us": (us("analysis.check_defpos"), "us"),
        "analysis.check_hypothesis_coupling.ms": (ms("analysis.check_hypothesis_coupling"), "ms"),
        "analysis.pairs_sampled": (per_pass["pairs_sampled"], "count"),
        "analysis.pairs_skipped_frac": (per_pass["pairs_skipped"] / max(pairs, 1), "ratio"),
        "analysis.check_pair_orthogonality.ms": (ms("analysis.check_pair_orthogonality"), "ms"),
        "analysis.compare_scenarios.ms": (ms("analysis.compare_scenarios"), "ms"),
        "cli.main.self_ms": (ms("cli.main"), "ms"),
        "cli.known_input_failures": (known_failed, "count"),
        "trace.overhead_frac": (traced_wall / plain_wall - 1.0, "ratio"),
    }
    report.append(f"traced passes {n}, untraced passes {len(plain)}; wall_s traced "
                  f"{traced_wall:.6f} s, untraced {plain_wall:.6f} s (ops at their medians, reference speed)")
    report.append("netcore.routes counts one set-up and one pass; the other counts are per "
                  "pass and exact; the computed ones are derived from the "
                  "inputs and results of traced calls, not counted inside the program:")
    report.append("  costs.evals = iterations x used roads + eps shifts x used roads; "
                  "equilibrium.eps_shifts = feasible (p, i, j, eps) shifts; "
                  "analysis.quadrature_evals = 2 x costed roads x nodes per segment")
    report.append("time metrics are self time per call (span minus child spans); "
                  "flows_on_roads, eval_cost, fixed_point_map, check_defpos and "
                  "check_pair_orthogonality are timed "
                  f"by direct calls ({PROBE_REPEATS} per network) after the passes")
    for name, (value, unit) in metrics.items():
        report.append(f"  {name:<44}{value:>18.6f}  {unit}")
    return metrics


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated as exc:
        sys.exit(128 + exc.args[0])
    except Exception:
        traceback.print_exc()
        sys.exit(1)
