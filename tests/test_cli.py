"""Command-line interface: exit codes, rendering, determinism."""

from __future__ import annotations

import inspect
import json
import math
from pathlib import Path

import pytest

from wardrop import analysis, equilibrium
from wardrop import fixtures as nets
from wardrop.analysis import HSampler, check_uniqueness
from wardrop.cli import _fmt, build_parser, main
from wardrop.costs import ExtReal
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

    def test_budget_overflow_exits_five(self, files, capsys):
        assert main(["oracle", files["braess_augmented"], "--grid", "400"]) == 5


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


@pytest.mark.parametrize("tol, shown", [("1e-9", "2"), ("5", "5"), ("50", "50")])
def test_oracle_tolerance_is_the_larger_of_tol_and_the_grid_bound(tol, shown, files, capsys):
    assert main(["oracle", files["braess_base"], "--grid", "10", "--tol", tol]) == 0
    assert f"tolerance: {shown}\n" in capsys.readouterr().out


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
