"""Command-line interface: exit codes, rendering, determinism."""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wardrop
from wardrop import analysis, equilibrium, fileio
from wardrop import fixtures as nets
from wardrop.analysis import HSampler, check_uniqueness
from wardrop.cli import _fmt, build_parser, main
from wardrop.costs import ExtReal, Sum
from wardrop.equilibrium import MultistartParams, SolveParams
from wardrop.fileio import dumps_structured, network_to_obj, save_network

from conftest import blocking_network, flat_network, parallel_network


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, builder in nets.BUILDERS.items():
        path = tmp_path / f"{name}.json"
        save_network(builder(), path)
        paths[name] = str(path)
    return paths


def _write(tmp_path, name, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestValidate:
    def test_clean_network_exits_zero(self, files, capsys):
        assert main(["validate", files["delay_spillover"]]) == 0
        assert "ok: True" in capsys.readouterr().out

    def test_broken_adjacency_exits_one(self, tmp_path, capsys):
        obj = {
            "junctions": ["a", "b", "c"],
            "roads": [
                {"id": "r1", "tail": "a", "head": "b"},
                {"id": "r2", "tail": "a", "head": "c"},
            ],
            "populations": [
                {
                    "name": "only", "origin": "a", "destination": "c",
                    "routes": [["r1", "r2"]],
                    "costs": {
                        "r1": {"kind": "constant", "value": 1},
                        "r2": {"kind": "constant", "value": 1},
                    },
                }
            ],
        }
        path = _write(tmp_path, "bad.json", obj)
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "ERROR route-adjacency" in out

    def test_malformed_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nonsense.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2
        assert "line" in capsys.readouterr().err


class TestSolve:
    def test_delay_network(self, files, capsys):
        assert main(["solve", files["delay_spillover"]]) == 0
        out = capsys.readouterr().out
        assert "status: verified-nash" in out
        assert out.count("0.5") >= 4
        assert "3.5" in out

    def test_corridor_common_time(self, files, capsys):
        assert main(["solve", files["congestion_corridor"]]) == 0
        out = capsys.readouterr().out
        assert "2.78077641" in out  # (7 + sqrt(17)) / 4 to 9 significant digits

    def test_nonmonotone_without_override_exits_four(self, files, capsys):
        assert main(["solve", files["nonmonotone_pair"]]) == 4
        assert "monotone" in capsys.readouterr().err

    def test_nonmonotone_with_override(self, files, capsys):
        assert main(["solve", files["nonmonotone_pair"], "--allow-nonmonotone"]) == 0

    def test_negative_nonmonotone_cost_exits_four(self, tmp_path, capsys):
        obj = json.loads(dumps_structured(network_to_obj(nets.nonmonotone_pair())))
        obj["populations"][0]["costs"]["r2"] = {
            "kind": "nonmonotone_affine", "constant": 1.0, "coeffs": {"commuters": -3.0}}
        path = _write(tmp_path, "negative.json", obj)
        assert main(["solve", path, "--allow-nonmonotone"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "negative" in err
        assert err.count("\n") == 1

    def test_non_convergence_exits_three(self, files, capsys):
        assert main(["solve", files["merge_linked"], "--max-iters", "3"]) == 3
        out, err = capsys.readouterr()
        assert "not-converged" in out
        assert err.startswith("error: no convergence in 3 iterations") and err.count("\n") == 1


class TestVerify:
    def test_pathological_split(self, files, tmp_path, capsys):
        theta = _write(tmp_path, "theta.json", {"commuters": [0.5, 0.5]})
        assert main(["verify", files["nonmonotone_pair"], theta]) == 0
        assert main(["verify", files["nonmonotone_pair"], theta, "--predicate", "eps-nash"]) == 1

    def test_braess_augmented_vertex(self, files, tmp_path):
        theta = _write(tmp_path, "theta.json", {"trucks": [0, 0, 1], "cars": [0, 0, 1]})
        assert main(["verify", files["braess_augmented"], theta]) == 0

    def test_split_vertices_fail_with_detail(self, files, tmp_path, capsys):
        theta = _write(tmp_path, "theta.json", {"upper": [1, 0], "lower": [0, 1]})
        assert main(["verify", files["delay_spillover"], theta]) == 1
        out = capsys.readouterr().out
        assert "nash: False" in out

    def test_dimension_mismatch_exits_two(self, files, tmp_path, capsys):
        theta = _write(tmp_path, "theta.json", {"upper": [1, 0, 0], "lower": [0, 1]})
        assert main(["verify", files["delay_spillover"], theta]) == 2


class TestCompare:
    def test_braess_flags_both(self, files, capsys):
        assert main(["compare", files["braess_base"], files["braess_augmented"]]) == 0
        out = capsys.readouterr().out
        assert out.count("YES") == 2

    def test_merge_flags_east_only(self, files, capsys):
        assert main(["compare", files["merge_base"], files["merge_linked"]]) == 0
        out = capsys.readouterr().out
        assert out.count("YES") == 1
        assert out.count("no") >= 1

    def test_identical_no_flags(self, files, capsys):
        assert main(["compare", files["braess_base"], files["braess_base"]]) == 0
        assert "YES" not in capsys.readouterr().out


class TestOracle:
    def test_delay_single_cluster(self, files, capsys):
        assert main(["oracle", files["delay_spillover"], "--grid", "200"]) == 0
        assert "clusters: 1" in capsys.readouterr().out

    def test_pathological_cluster_at_half(self, files, capsys):
        assert main(["oracle", files["nonmonotone_pair"], "--grid", "1000"]) == 0
        out = capsys.readouterr().out
        assert "clusters: 1" in out
        assert "[0.5, 0.5]" in out

    @pytest.mark.parametrize("road, cost", [
        ("r1", {"kind": "constant", "value": 1e308}),
        ("r2", {"kind": "affine", "constant": 0.0, "coeffs": {"trucks": 1.7976931348623157e308}}),
    ])
    def test_times_near_the_float_range_scan_without_overflow(self, tmp_path, road, cost, capsys):
        # The sampled variation and the scan's bounds pass the float range:
        # they are +inf, and no RuntimeWarning escapes.
        obj = json.loads(dumps_structured(network_to_obj(nets.braess_augmented())))
        obj["populations"][0]["costs"][road] = cost
        assert main(["oracle", _write(tmp_path, "steep.json", obj), "--grid", "3"]) == 0
        assert "clusters: 1" in capsys.readouterr().out

    def test_a_tolerance_of_1_or_more_is_noted_as_vacuous(self, files, capsys):
        # nonmonotone_pair's equilibrium is (0.5, 0.5); at grid 3 the
        # tolerance is 1 and the one cluster sits at (1/3, 2/3).
        assert main(["oracle", files["nonmonotone_pair"], "--grid", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:4] == [
            "tolerance: 1",
            "note: at a tolerance of 1 or more every grid point with finite relevant times passes, "
            "so the clusters are no evidence of an equilibrium; a finer --grid lowers it",
        ]
        assert "[0.333333333, 0.666666667] (residual 0.333333333)" in lines[-1]

    def test_braess_augmented_at_grid_20_is_noted(self, files, capsys):
        # its sampled time variation is 20, so the tolerance is 20 / grid
        assert main(["oracle", files["braess_augmented"], "--grid", "20"]) == 0
        out = capsys.readouterr().out
        assert "tolerance: 1\n" in out and out.count("\nnote: ") == 1

    @pytest.mark.parametrize("name, grid", [("nonmonotone_pair", 200), ("braess_augmented", 24)])
    def test_a_tolerance_below_1_has_no_note(self, name, grid, files, capsys):
        assert main(["oracle", files[name], "--grid", str(grid)]) == 0
        out = capsys.readouterr().out
        assert "tolerance: 0." in out and "note:" not in out

    def test_the_note_is_not_in_structured_output(self, files, capsys):
        assert main(["oracle", files["nonmonotone_pair"], "--grid", "3", "--format", "structured"]) == 0
        out = capsys.readouterr().out
        assert '"tolerance": 1.0' in out and "note" not in out

    def test_budget_overflow_exits_five(self, files, capsys):
        assert main(["oracle", files["braess_augmented"], "--grid", "400"]) == 5

    @pytest.mark.parametrize("error, line", [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 9.1 GiB"), "error: Unable to allocate 9.1 GiB\n"),
    ], ids=["bare", "with-text"])
    def test_running_out_of_memory_exits_five(self, error, line, files, capsys, monkeypatch):
        def scan(*_, **__):
            raise error

        monkeypatch.setattr(analysis, "brute_force_equilibria", scan)
        assert main(["oracle", files["braess_augmented"]]) == 5
        assert capsys.readouterr() == ("", line)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the process's VmSize")
    def test_a_grid_within_budget_past_the_memory_exits_five(self, tmp_path):
        """layered (6, 1, 1) at grid 40: 1,221,759 points, within the
        budget, whose compositions do not fit in 128 MiB more than the
        process holds once loaded."""
        bench = str(Path(__file__).resolve().parents[1] / "bench")
        path = str(tmp_path / "layered.json")
        child = f"""
import resource, sys
sys.path.insert(0, {bench!r})
from layered import layered
from wardrop import cli, fileio
fileio.save_network(layered(6, 1, 1, 0), {path!r})
for line in open("/proc/self/status"):
    if line.startswith("VmSize:"):
        cap = int(line.split()[1]) * 1024 + (128 << 20)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(cli.main(["oracle", {path!r}, "--grid", "40"]))
"""
        src = str(Path(wardrop.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 5, done.stderr
        assert done.stdout == "" and done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")


class TestUniqueness:
    def test_delay_satisfied(self, files, capsys):
        assert main(["uniqueness", files["delay_spillover"], "--pairs", "40"]) == 0
        out = capsys.readouterr().out
        assert "at-most-one (sampled)" in out

    def test_zero_pairs_and_starts_are_accepted(self, files, capsys):
        argv = ["uniqueness", files["delay_spillover"], "--pairs", "0", "--starts", "0",
                "--format", "structured"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["pairs_sampled"] == 10  # the vertex pairs

    def test_a_sample_past_the_budget_exits_five_before_any_solve(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "parallel.json"
        save_network(parallel_network(300), path)
        monkeypatch.setattr(equilibrium, "solve_multistart", lambda *_: pytest.fail("solved"))
        assert main(["uniqueness", str(path)]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: uniqueness sample of 4050045100 pairs exceeds the budget of 1000000\n"

    def test_gamma_failure_exits_one_naming_route(self, tmp_path, capsys):
        net = nets.braess_base()
        obj = json.loads(dumps_structured(__import__("wardrop.fileio", fromlist=["network_to_obj"]).network_to_obj(net)))
        obj["populations"][0]["routes"] = [["r2", "r3"], ["r2", "r3"]]
        path = _write(tmp_path, "dup.json", obj)
        assert main(["uniqueness", path]) == 1
        assert "route" in capsys.readouterr().err

    def test_one_population_exits_two(self, files, capsys):
        assert main(["uniqueness", files["nonmonotone_pair"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2 populations" in err
        assert err.count("\n") == 1

    def test_every_pair_of_multistart_equilibria_has_its_residuals(self, tmp_path, capsys):
        # Every assignment of the flat network is Nash, so the six starts
        # give six equilibria and fifteen pairs, each with residual 0 for
        # both populations.
        path = tmp_path / "flat.json"
        save_network(flat_network(), path)
        argv = ["uniqueness", str(path), "--pairs", "5", "--starts", "1"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "verdict: several equilibria (6 found)"
        assert [line for line in lines if line.startswith("equilibrium-pair")] == [
            f"equilibrium-pair residuals {k}: [0, 0]" for k in range(15)
        ]
        assert main([*argv, "--format", "structured"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "several equilibria (6 found)"
        assert report["pair_residuals"] == [[0.0, 0.0]] * 15

    def test_a_pair_with_an_infinite_time_keeps_its_slot(self, tmp_path, capsys):
        # Where A is all on r1, B's r1 time is infinite: B's residual of
        # every pair with such a point is n/a (null), and no pair is dropped.
        path = tmp_path / "blocking.json"
        save_network(blocking_network(), path)
        argv = ["uniqueness", str(path), "--pairs", "3", "--starts", "1"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "verdict: several equilibria (4 found)"
        assert [line for line in lines if line.startswith("equilibrium-pair")] == [
            "equilibrium-pair residuals 0: [0, 0]",
            "equilibrium-pair residuals 1: [0, -0.5]",
            "equilibrium-pair residuals 2: [0, n/a]",
            "equilibrium-pair residuals 3: [0, -0.166568342]",
            "equilibrium-pair residuals 4: [0, n/a]",
            "equilibrium-pair residuals 5: [0, n/a]",
        ]
        assert main([*argv, "--format", "structured"]) == 1
        residuals = json.loads(capsys.readouterr().out)["pair_residuals"]
        assert len(residuals) == 6
        assert [b is None for _, b in residuals] == [False, False, True, False, True, True]

    @pytest.mark.parametrize("name", [name for name, builder in nets.BUILDERS.items()
                                      if len(builder().populations) == 2])
    def test_structured_output_is_the_library_report(self, files, name, capsys):
        argv = ["uniqueness", files[name], "--pairs", "5", "--starts", "1", "--seed", "3",
                "--format", "structured"]
        code = main(argv)
        report = check_uniqueness(
            nets.BUILDERS[name](), HSampler(pairs=5, seed=3),
            MultistartParams(random_starts=1, seed=3),
        )
        assert capsys.readouterr().out == dumps_structured(report) + "\n"
        assert code == (0 if report.verdict.startswith("at-most-one") else 1)

    def test_corridor_reports_case_table(self, files, capsys):
        code = main(["uniqueness", files["congestion_corridor"], "--pairs", "30"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "r5:" in out
        assert "per-road worst case" in out


def _guarded_delay(tmp_path) -> str:
    """delay_spillover with lower's r5 cost plus 0 times a congestion term
    that blows up at reachable flows."""
    obj = json.loads(dumps_structured(network_to_obj(nets.delay_spillover())))
    costs = obj["populations"][1]["costs"]
    blow_up = {"kind": "congestion", "weights": {"lower": 1}, "capacity": 0.5}
    zero_times = {"kind": "scale", "factor": 0, "expr": blow_up}
    costs["r5"] = {"kind": "sum", "terms": [costs["r5"], zero_times]}
    return _write(tmp_path, "guarded.json", obj)


def _poly_exponent(tmp_path, literal: str) -> str:
    """delay_spillover with upper's r1 cost a monomial whose exponent is `literal`."""
    obj = json.loads(dumps_structured(network_to_obj(nets.delay_spillover())))
    term = {"coeff": 1.0, "exponents": {"upper": "EXPONENT"}}
    obj["populations"][0]["costs"]["r1"] = {"kind": "poly", "terms": [term]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(obj).replace('"EXPONENT"', literal))
    return str(path)


def _damaged(tmp_path, damage) -> str:
    """delay_spillover with one value of the wrong JSON type, set by `damage`
    on the document's upper population."""
    obj = json.loads(dumps_structured(network_to_obj(nets.delay_spillover())))
    damage(obj["populations"][0])
    return _write(tmp_path, "damaged.json", obj)


def _not_utf8(tmp_path) -> str:
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(network_to_obj(nets.delay_spillover())).encode("latin-1")
                     .replace(b'"upper"', b'"\xe9upper"'))
    return str(path)


def _shares(tmp_path, upper: str) -> str:
    """A delay_spillover assignment whose upper shares are written `upper`."""
    path = tmp_path / "shares.json"
    path.write_text(f'{{"upper": [{upper}], "lower": [0.5, 0.5]}}')
    return str(path)


def _half(tmp_path) -> str:
    return _write(tmp_path, "half.json", {"upper": [0.5, 0.5], "lower": [0.5, 0.5]})


def _repeated(tmp_path, source: str, once: str, twice: str) -> str:
    """The text of the document at `source`, its first `once` written `twice`."""
    path = tmp_path / "repeated.json"
    path.write_text(Path(source).read_text(encoding="utf-8").replace(once, twice, 1))
    return str(path)


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(lambda f, t: ["solve", _guarded_delay(t)], 2, id="solve-0-times-inf"),
        pytest.param(lambda f, t: ["verify", _guarded_delay(t), _half(t)], 2,
                     id="verify-0-times-inf"),
        pytest.param(lambda f, t: ["oracle", _guarded_delay(t), "--grid", "20"], 2,
                     id="oracle-0-times-inf"),
        pytest.param(lambda f, t: ["uniqueness", _guarded_delay(t), "--starts", "1"], 2,
                     id="uniqueness-0-times-inf"),
        pytest.param(lambda f, t: ["routes", f["braess_base"], "--origin", "zz",
                                   "--destination", "d"], 2, id="routes-unknown-junction"),
        pytest.param(lambda f, t: ["validate", str(t)], 2, id="network-is-a-directory"),
        pytest.param(lambda f, t: ["verify", f["delay_spillover"], str(t)], 2,
                     id="assignment-is-a-directory"),
        pytest.param(lambda f, t: ["validate", _not_utf8(t)], 2, id="network-not-utf8"),
        pytest.param(lambda f, t: ["verify", f["delay_spillover"], _shares(t, '"a", 1')], 2,
                     id="share-not-a-number"),
        pytest.param(lambda f, t: ["verify", f["delay_spillover"], _shares(t, "9" * 401 + ", 0")],
                     2, id="share-too-large-for-a-float"),
        pytest.param(lambda f, t: ["validate", _poly_exponent(t, "1e400")], 2,
                     id="exponent-overflows-to-inf"),
        pytest.param(lambda f, t: ["validate", _poly_exponent(t, "9" * 401)], 2,
                     id="exponent-too-large-for-a-float"),
        pytest.param(lambda f, t: ["validate", _poly_exponent(t, "2.5")], 2,
                     id="exponent-not-integral"),
        pytest.param(lambda f, t: ["solve", _poly_exponent(t, "2.5")], 2,
                     id="solve-exponent-not-integral"),
        pytest.param(lambda f, t: ["validate", _poly_exponent(t, "true")], 2,
                     id="exponent-a-boolean"),
        pytest.param(lambda f, t: ["verify", f["delay_spillover"], _shares(t, "true, false")], 2,
                     id="share-a-boolean"),
        pytest.param(lambda f, t: ["verify", f["delay_spillover"], _shares(t, '"0.5", "0.5"')], 2,
                     id="share-a-numeric-string"),
        pytest.param(lambda f, t: ["validate", _damaged(t, lambda p: p.update(name=None))], 2,
                     id="name-not-a-string"),
        pytest.param(lambda f, t: ["validate", _damaged(t, lambda p: p["routes"].append([7]))], 2,
                     id="route-road-id-not-a-string"),
        pytest.param(lambda f, t: ["validate", _damaged(
            t, lambda p: p["costs"].update(r2={"kind": "constant", "value": True}))], 2,
                     id="cost-number-a-boolean"),
        pytest.param(lambda f, t: ["validate", _damaged(t, lambda p: p["costs"].update(
            r2={"kind": "congestion", "weights": {"upper": 1}, "capacity": "2"}))], 2,
                     id="cost-number-a-string"),
        pytest.param(lambda f, t: ["validate", _damaged(
            t, lambda p: p["costs"]["r2"].update(coeffs=[["upper", 1.0]]))], 2,
                     id="coeffs-a-list-of-pairs"),
        pytest.param(lambda f, t: ["validate", _damaged(
            t, lambda p: p.update(costs=list(p["costs"].items())))], 2,
                     id="costs-a-list-of-pairs"),
        pytest.param(lambda f, t: ["validate", _damaged(t, lambda p: p["routes"].__setitem__(1, "r2"))],
                     2, id="route-a-string"),
        pytest.param(lambda f, t: ["verify", f["delay_spillover"], _repeated(
            t, _half(t), '"upper":', '"upper": [1, 0], "upper":')], 2, id="assignment-population-repeats"),
        pytest.param(lambda f, t: ["solve", _repeated(
            t, f["delay_spillover"], '"constant": 3.0', '"constant": 3.0, "constant": 300.0')], 2,
                     id="cost-field-repeats"),
    ],
)
def test_refused_input_exits_with_one_error_line(argv, code, files, tmp_path, capsys):
    capsys.readouterr()
    assert main(argv(files, tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _routeless(tmp_path) -> str:
    """braess_base with its first population's routes emptied."""
    obj = network_to_obj(nets.braess_base())
    obj["populations"][0]["routes"] = []
    return _write(tmp_path, "routeless.json", obj)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(lambda n, f, t: ["solve", n], id="solve"),
        pytest.param(lambda n, f, t: ["verify", n, _half(t)], id="verify"),
        pytest.param(lambda n, f, t: ["compare", f["braess_base"], n], id="compare"),
        pytest.param(lambda n, f, t: ["oracle", n, "--grid", "4"], id="oracle"),
        pytest.param(lambda n, f, t: ["uniqueness", n], id="uniqueness"),
        pytest.param(lambda n, f, t: ["routes", n, "--origin", "o", "--destination", "d"],
                     id="routes"),
    ],
)
def test_population_without_routes_exits_one_with_findings(argv, files, tmp_path, capsys):
    assert main(argv(_routeless(tmp_path), files, tmp_path)) == 1
    out, err = capsys.readouterr()
    assert "ERROR no-routes: population 'trucks' has no routes [trucks]" in out.splitlines()
    assert err == ""


class TestRoutes:
    def test_braess_augmented_routes(self, files, capsys):
        assert main([
            "routes", files["braess_augmented"], "--origin", "o", "--destination", "d",
        ]) == 0
        out = capsys.readouterr().out
        assert "r1 -> r4" in out
        assert "r2 -> r3" in out
        assert "r2 -> r5 -> r4" in out


    def test_a_route_through_1200_junctions(self, tmp_path, capsys):
        junctions = [f"j{i}" for i in range(1200)]
        roads = [{"id": f"r{i}", "tail": a, "head": b} for i, (a, b) in enumerate(zip(junctions, junctions[1:]))]
        route = [road["id"] for road in roads]
        population = {"name": "p", "origin": "j0", "destination": "j1199", "routes": [route],
                      "costs": {rid: {"kind": "constant", "value": 1.0} for rid in route}}
        path = _write(tmp_path, "chain.json", {"junctions": junctions, "roads": roads, "populations": [population]})
        assert main(["routes", path, "--origin", "j0", "--destination", "j1199"]) == 0
        assert capsys.readouterr().out == " -> ".join(route) + "\n"


class TestStructuredOutput:
    def test_solve_structured_is_byte_identical(self, files, capsys):
        assert main(["solve", files["merge_base"], "--format", "structured"]) == 0
        first = capsys.readouterr().out
        assert main(["solve", files["merge_base"], "--format", "structured"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["converged"] is True

    def test_text_numbers_round_trip_through_structured(self, files, capsys):
        assert main(["solve", files["merge_base"], "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        shares = payload["assignment"]["shares"]
        assert main(["solve", files["merge_base"]]) == 0
        text = capsys.readouterr().out
        for vec in shares:
            for value in vec:
                assert format(value, ".9g") in text

    def test_every_command_renders_structured_json(self, files, tmp_path):
        theta = _write(tmp_path, "theta.json", {"trucks": [0, 0, 1], "cars": [0, 0, 1]})
        invocations = [
            ["validate", files["braess_base"]],
            ["solve", files["merge_base"]],
            ["verify", files["braess_augmented"], theta],
            ["compare", files["braess_base"], files["braess_augmented"]],
            ["oracle", files["nonmonotone_pair"], "--grid", "200"],
            ["uniqueness", files["delay_spillover"], "--pairs", "10"],
            ["routes", files["braess_base"], "--origin", "o", "--destination", "d"],
        ]
        import io
        from contextlib import redirect_stdout

        for argv in invocations:
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = main(argv + ["--format", "structured"])
            assert code == 0, argv
            json.loads(buffer.getvalue())  # must be well-formed JSON

    def test_verify_accepts_explicit_eps(self, files, tmp_path):
        theta = _write(tmp_path, "theta.json", {"commuters": [0.5, 0.5]})
        assert main(["verify", files["nonmonotone_pair"], theta,
                     "--predicate", "eps-nash", "--eps", "0.01"]) == 1

    def test_output_flag_writes_file(self, files, tmp_path):
        out = tmp_path / "report.json"
        assert main(["solve", files["merge_base"], "--format", "structured",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_bad_flag_value_rejected(self, files, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", files["delay_spillover"], "--omega", "1.5"])
        assert err.value.code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_non_finite_tolerances_are_refused(value, files, tmp_path, capsys):
    # Without the flag this corner is not Nash (exit 1); no tolerance may certify it.
    corner = _write(tmp_path, "corner.json", {"trucks": [1, 0], "cars": [1, 0]})
    assert main(["verify", files["braess_base"], corner]) == 1
    for argv in (["verify", files["braess_base"], corner, f"--tol={value}"],
                 ["solve", files["braess_base"], f"--residual-tol={value}"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "must be positive and finite" in capsys.readouterr().err
    for field in ("residual_tol", "verify_tol"):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SolveParams(**{field: float(value)})


@pytest.mark.parametrize(
    "command, flag",
    [("validate", "--tol"), ("routes", "--tol"),
     *((command, "--seed") for command in ("validate", "solve", "verify", "compare", "oracle", "routes"))],
)
def test_flags_a_command_would_ignore_are_refused(command, flag, files, tmp_path, capsys):
    net = files["braess_base"]
    corner = _write(tmp_path, "corner.json", {"trucks": [1, 0], "cars": [1, 0]})
    operands = {
        "verify": [net, corner],
        "compare": [net, files["braess_augmented"]],
        "routes": [net, "--origin", "o", "--destination", "d"],
    }.get(command, [net])
    assert main([command, *operands]) in (0, 1)  # accepted without the flag
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main([command, *operands, flag, "1"])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_uniqueness_tol_is_the_multistart_verification_tolerance(files, monkeypatch):
    seen = []

    def solve_multistart(net, params):
        seen.append(params.solve.verify_tol)
        return []

    monkeypatch.setattr(equilibrium, "solve_multistart", solve_multistart)
    main(["uniqueness", files["delay_spillover"], "--pairs", "1", "--tol", "1e-6"])
    main(["uniqueness", files["delay_spillover"], "--pairs", "1"])
    assert seen == [1e-6, SolveParams().verify_tol]


@pytest.mark.parametrize("tol, shown", [("1e-9", "2")])
def test_oracle_tolerance_is_the_larger_of_tol_and_the_grid_bound(tol, shown, files, capsys):
    assert main(["oracle", files["braess_base"], "--grid", "10", "--tol", tol]) == 0
    assert f"tolerance: {shown}\n" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["0.5", "0.9"])
def test_oracle_tolerance_is_tol_where_tol_exceeds_the_grid_bound(tol, files, capsys):
    # braess_base's grid bound is 20 / grid: 0.4 at grid 50
    assert main(["oracle", files["braess_base"], "--grid", "50", "--tol", tol]) == 0
    assert f"tolerance: {tol}\n" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "verify", "compare", "oracle", "uniqueness"])
def test_a_tolerance_of_1_or_more_is_refused(command, files, tmp_path, capsys):
    # at --tol 1 this corner passed as Nash, and every oracle grid point was a hit
    net = files["braess_base"]
    corner = _write(tmp_path, "corner.json", {"trucks": [1, 0], "cars": [1, 0]})
    operands = {"verify": [net, corner], "compare": [net, files["braess_augmented"]]}.get(command, [net])
    for value in ("1", "5", "1e300"):
        with pytest.raises(SystemExit) as err:
            main([command, *operands, f"--tol={value}"])
        assert err.value.code == 2
        assert "argument --tol: tol must be below 1:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--origin", "zz", "--destination", "d"], "error: unknown junction 'zz'\n"),
        (["--origin", "o", "--destination", "zz"], "error: unknown junction 'zz'\n"),
    ],
)
def test_unknown_junction_error_names_the_kind_of_id(argv, line, files, capsys):
    capsys.readouterr()
    assert main(["routes", files["braess_base"], *argv]) == 2
    assert capsys.readouterr().err == line


def test_a_negative_cost_parameter_exits_two_with_one_error_line(tmp_path, capsys):
    obj = network_to_obj(nets.delay_spillover())
    obj["populations"][0]["costs"]["r1"] = {"kind": "constant", "value": -1.0}
    assert main(["solve", _write(tmp_path, "negative.json", obj)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "constant cost must be nonnegative" in err


PAST_THE_FLOAT_RANGE = {
    "affine-sum": {"kind": "affine", "constant": 1.7e308, "coeffs": {"trucks": 1.7e308}},
    "scale-of-scale": {"kind": "scale", "factor": 1e200, "expr": {
        "kind": "scale", "factor": 1e200, "expr": {"kind": "constant", "value": 0}}},
    "scaled-congestion": {"kind": "scale", "factor": 1e303, "expr": {  # 1e7 below capacity
        "kind": "congestion", "weights": {"trucks": 1.0}, "capacity": 1.0000001}},
}


@pytest.mark.parametrize("command", ["validate", "solve", "verify"])
@pytest.mark.parametrize("cost", list(PAST_THE_FLOAT_RANGE))
def test_a_cost_that_can_pass_the_float_range_is_refused_at_load(cost, command, tmp_path, capsys):
    obj = network_to_obj(nets.braess_base())
    obj["populations"][0]["costs"]["r1"] = PAST_THE_FLOAT_RANGE[cost]
    argv = [command, _write(tmp_path, "vast.json", obj)]
    if command == "verify":
        argv.append(_write(tmp_path, "shares.json", {"trucks": [0.5, 0.5], "cars": [0.5, 0.5]}))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "float range" in err and "Traceback" not in err


def test_uniqueness_with_a_vast_congestion_capacity_prints_a_verdict(tmp_path, capsys):
    obj = network_to_obj(nets.delay_spillover())
    obj["populations"][0]["costs"]["r1"] = {
        "kind": "congestion", "weights": {"upper": 1}, "capacity": 1e200,
    }
    code = main(["uniqueness", _write(tmp_path, "vast.json", obj)])
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert out.startswith("verdict: ")
    assert err == ""


def test_solve_with_an_omega_flag_verifies(files, capsys):
    assert main(["solve", files["delay_spillover"], "--omega", "0.7"]) == 0
    assert "status: verified-nash" in capsys.readouterr().out


@pytest.mark.parametrize("omega", ["0", "1.5", "nan"])
def test_an_omega_outside_the_unit_interval_exits_two(omega, files, capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", files["delay_spillover"], "--omega", omega])
    assert err.value.code == 2
    assert "omega must lie in (0, 1]" in capsys.readouterr().err


def test_verify_renders_infinite_times_as_inf(files, tmp_path, capsys):
    corner = _write(tmp_path, "corner.json", {"upper": [1, 0], "lower": [1, 0]})
    assert main(["verify", files["congestion_corridor"], corner]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "nash: False (residual inf)" in lines
    assert "population upper: mean relevant time inf" in lines


def test_structured_verify_renders_infinite_times_as_the_inf_token(files, tmp_path, capsys):
    corner = _write(tmp_path, "corner.json", {"upper": [1, 0], "lower": [1, 0]})
    argv = ["verify", files["congestion_corridor"], corner, "--format", "structured"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["common_times"] == ["inf", "inf"]


@pytest.mark.parametrize("value", [0.0, 2.5, 1 / 3, 123456789.123, 1.7976931348623157e308, math.inf])
def test_extended_reals_render_as_their_floats(value):
    assert _fmt(ExtReal.from_float(value)) == _fmt(value)


def test_parsed_defaults_are_the_library_defaults():
    parser = build_parser()
    solve = parser.parse_args(["solve", "net.json"])
    assert (solve.tol, solve.omega, solve.max_iters, solve.residual_tol) == (
        equilibrium.DEFAULT_TIME_TOLERANCE, SolveParams().omega, SolveParams().max_iters,
        SolveParams().residual_tol,
    )
    oracle = parser.parse_args(["oracle", "net.json"])
    assert oracle.budget == analysis.DEFAULT_ORACLE_BUDGET
    budget = inspect.signature(analysis.brute_force_equilibria).parameters["budget"]
    assert budget.default == analysis.DEFAULT_ORACLE_BUDGET
    unique = parser.parse_args(["uniqueness", "net.json"])
    sampler, starts = HSampler(), MultistartParams()
    assert (unique.pairs, unique.quadrature, unique.seed) == (
        sampler.pairs, sampler.quadrature_nodes, sampler.seed,
    )
    assert (unique.starts, unique.seed) == (starts.random_starts, starts.seed)
    assert unique.tol == starts.solve.verify_tol == equilibrium.DEFAULT_TIME_TOLERANCE


@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_a_negative_or_fractional_seed_exits_two(seed, files, capsys):
    with pytest.raises(SystemExit) as err:
        main(["uniqueness", files["delay_spillover"], "--seed", seed])
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--seed" in errors[0]


@pytest.mark.parametrize("argv, line", [
    (["solve", "delay_spillover", "--tol=x"], "argument --tol: invalid float value: 'x'"),
    (["uniqueness", "merge_base", "--seed=1e400"], "argument --seed: invalid int value: '1e400'"),
    (["solve", "delay_spillover", "--omega=x"], "argument --omega: invalid float value: 'x'"),
])
def test_an_unreadable_flag_value_is_refused_naming_the_expected_type(argv, line, files, capsys):
    command, name, flag = argv
    with pytest.raises(SystemExit) as err:
        main([command, files[name], flag])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(line)


def test_quadrature_past_its_maximum_is_refused_before_a_rule_is_built(files, monkeypatch, capsys):
    def leggauss(nodes):
        raise AssertionError(f"built a {nodes}-node rule")

    monkeypatch.setattr("numpy.polynomial.legendre.leggauss", leggauss)
    top = analysis.MAX_QUADRATURE_NODES
    assert HSampler(quadrature_nodes=top).quadrature_nodes == top
    with pytest.raises(ValueError, match=f"quadrature_nodes must be at most {top}"):
        HSampler(quadrature_nodes=top + 1)
    parsed = build_parser().parse_args(["uniqueness", "net.json", "--quadrature", str(top)])
    assert parsed.quadrature == top
    with pytest.raises(SystemExit) as err:
        main(["uniqueness", files["merge_base"], "--quadrature", str(top + 1)])
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--quadrature" in errors[0] and f"at most {top}" in errors[0]


def _nested_cost(tmp_path, kind: str, depth: int) -> str:
    """delay_spillover with upper's r1 cost wrapped `depth` times in a scale or a sum."""
    obj = json.loads(dumps_structured(network_to_obj(nets.delay_spillover())))
    leaf = json.dumps(obj["populations"][0]["costs"]["r1"])
    obj["populations"][0]["costs"]["r1"] = "COST"
    opening, closing = ('{"kind": "scale", "factor": 1.0, "expr": ', "}") if kind == "scale" else (
        '{"kind": "sum", "terms": [', "]}")
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(obj).replace('"COST"', opening * depth + leaf + closing * depth))
    return str(path)


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("kind", ["scale", "sum"])
def test_a_document_nested_too_deeply_to_read_exits_two(kind, command, tmp_path, capsys):
    assert main([command, _nested_cost(tmp_path, kind, 20_000)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply to read" in err


def _long_value(tmp_path, place: str, value: str) -> list[str]:
    """The argv of a command whose input holds the JSON text `value` where
    `place` expects something else."""
    obj = json.loads(dumps_structured(network_to_obj(nets.delay_spillover())))
    upper = obj["populations"][0]
    if place == "route":
        upper["routes"][0] = "LONG"
    elif place == "costs":
        upper["costs"] = "LONG"
    elif place == "cost value":
        upper["costs"]["r1"] = {"kind": "constant", "value": "LONG"}
    network = tmp_path / "network.json"
    network.write_text(json.dumps(obj).replace('"LONG"', value))
    if place != "shares":
        return ["validate", str(network)]
    shares = tmp_path / "shares.json"
    shares.write_text('{"upper": %s, "lower": [0.5, 0.5]}' % value)
    return ["verify", str(network), str(shares)]


@pytest.mark.parametrize("value", [
    pytest.param("[" * 400 + '"r1"' + "]" * 400, id="400-deep"),
    pytest.param(json.dumps([["r1"]] * 1000), id="1000-wide"),
])
@pytest.mark.parametrize("place", ["route", "costs", "cost value", "shares"])
def test_a_long_value_is_echoed_in_one_short_error_line(place, value, tmp_path, capsys):
    # 1,000 levels of arrays are refused before any value is checked
    assert main(_long_value(tmp_path, place, value)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 201
    assert "nested too deeply" not in err


def test_a_cost_of_any_depth_that_loads_is_solved(monkeypatch, capsys):
    """Past any recursion limit: every walk of a cost's tree after loading
    keeps its own stack."""
    net = nets.delay_spillover()
    upper = net.populations[0]
    deep = upper.costs["r1"]
    for _ in range(5000):
        deep = Sum((deep,))
    upper = dataclasses.replace(upper, costs={**upper.costs, "r1": deep})
    net = dataclasses.replace(net, populations=(upper, *net.populations[1:]))
    monkeypatch.setattr(fileio, "load_network", lambda path: net)
    assert main(["solve", "network.json"]) == 0
    assert "status: verified-nash" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["sum", "scale"])
def test_validate_and_solve_agree_on_every_depth(kind, tmp_path, capsys):
    """One cost of delay_spillover nested 100 to 1,000 levels deep: deep
    ones meet the recursion limit at load, and both commands refuse them
    alike; no depth that loads is refused later."""
    doc = json.loads((Path(__file__).resolve().parents[1] / "fixtures" / "delay_spillover.json").read_text())
    costs = doc["populations"][0]["costs"]
    leaf, costs["r1"] = json.dumps(costs["r1"]), "@"
    opening, closing = {"sum": ('{"kind": "sum", "terms": [', "]}"),
                        "scale": ('{"kind": "scale", "factor": 1.0, "expr": ', "}")}[kind]
    path = tmp_path / "nested.json"
    verdicts = {}
    for depth in range(100, 1001, 10):
        path.write_text(json.dumps(doc).replace('"@"', opening * depth + leaf + closing * depth))
        verdicts[depth] = (main(["validate", str(path)]), main(["solve", str(path)]))
    capsys.readouterr()
    assert all(v == s for v, s in verdicts.values()), verdicts
    assert {v for v, _ in verdicts.values()} == {0, 2}  # the range spans the load limit


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(lambda f, t: ["validate", f["braess_base"]], id="validate"),
        pytest.param(lambda f, t: ["oracle", f["braess_augmented"], "--grid", "20"], id="oracle"),
        pytest.param(lambda f, t: ["solve", f["merge_linked"], "--max-iters", "3"], id="solve-not-converged"),
        pytest.param(lambda f, t: ["solve", _routeless(t)], id="solve-findings"),
        pytest.param(lambda f, t: ["solve", "--help"], id="help"),
    ],
)
def test_a_closed_reader_exits_141_with_nothing_on_stderr(argv, files, tmp_path):
    """Standard output is a pipe whose reading end is closed before the
    command starts; it is block-buffered, as it is by default."""
    src = str(Path(wardrop.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "wardrop", *argv(files, tmp_path)], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")
