"""Every value of a numeric flag ends in a documented exit.

Each example runs one of `solve`, `verify`, `compare`, `oracle` and
`uniqueness` on a small shipped fixture.  At most one of the command's
numeric flags takes a drawn odd value: NaN, an infinity, a negative, zero,
a number past the float range, a fraction (which an integer flag refuses),
or an empty or non-numeric text.  Every other one takes a small valid
value or is left out.  The flags that count work (`--max-iters`, `--grid`,
`--budget`, `--pairs`, `--quadrature` and `--starts`) are always given,
and their valid values are small: only `--quadrature` has an upper bound,
so a vast count of the others asks for time or memory without end.

A run must either return 0, 1 or a refusal's code of `cli._REFUSALS`,
printing exactly one `error:` line when it returns 2 or more and none
otherwise, or be refused by argparse: `SystemExit(2)` after its usage
message and one error line naming the flag.  It never raises anything
else.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from wardrop import cli

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
EXITS = {cli.EXIT_OK, cli.EXIT_FAIL} | {code for _, code in cli._REFUSALS}
BAD = ["nan", "inf", "-inf", "-1", "0", "1e400", "1.5", "", "x"]
VALID = {
    "--tol": ["1e-9", "1e-6", "0.5"],
    "--omega": ["0.5", "1"],
    "--residual-tol": ["1e-12", "1e-6"],
    "--eps": ["1e-6", "0.25", "1"],
    "--seed": ["0", "7"],
    "--max-iters": ["1", "50"],
    "--grid": ["1", "3"],
    "--budget": ["1", "10", "1000"],
    "--pairs": ["1", "3"],
    "--quadrature": ["1", "4"],
    "--starts": ["1", "2"],
}
COUNTS = {"--max-iters", "--grid", "--budget", "--pairs", "--quadrature", "--starts"}
SOLVER = ["--tol", "--omega", "--max-iters", "--residual-tol"]
FLAGS = {
    "solve": SOLVER,
    "verify": ["--tol", "--eps"],
    "compare": SOLVER,
    "oracle": ["--tol", "--grid", "--budget"],
    "uniqueness": ["--tol", "--pairs", "--quadrature", "--starts", "--seed"],
}


@st.composite
def invocations(draw):
    """(command, fixture name, flag arguments)."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    fixture = draw(st.sampled_from(["delay_spillover", "congestion_corridor"]))
    odd = draw(st.sampled_from([None, *FLAGS[command]]))
    flags = []
    for flag in FLAGS[command]:
        values = st.sampled_from(BAD if flag == odd else VALID[flag])
        if flag not in COUNTS:
            values = st.none() | values
        value = draw(values)
        if value is not None:
            flags.append(f"{flag}={value}")  # one token, so that "-1" is not an option
    return command, fixture, flags


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(invocations())
def test_flag_values_end_in_a_documented_exit(invocation):
    command, fixture, flags = invocation
    network = str(FIXTURES / f"{fixture}.json")
    populations = json.loads(Path(network).read_text(encoding="utf-8"))["populations"]
    shares = {p["name"]: [1 / len(p["routes"])] * len(p["routes"]) for p in populations}
    with tempfile.TemporaryDirectory() as tmp:
        shares_path = Path(tmp, "shares.json")
        shares_path.write_text(json.dumps(shares), encoding="utf-8")
        operands = {"verify": [network, str(shares_path)], "compare": [network, network]}
        argv = [command, *operands.get(command, [network]), *flags]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, refused = cli.main(argv), False
            except SystemExit as exc:
                code, refused = exc.code, True
    printed = out.getvalue() + err.getvalue()
    assert "Traceback" not in printed, (argv, code, printed)
    if refused:
        assert code == cli.EXIT_INPUT and out.getvalue() == "", (argv, code, printed)
        assert err.getvalue().startswith(f"usage: wardrop {command} "), (argv, printed)
        errors = [line for line in printed.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith(f"wardrop {command}: error: argument --")
    else:
        assert code in EXITS, (argv, code, printed)
        errors = [line for line in printed.splitlines() if line.startswith("error:")]
        assert len(errors) == (1 if code >= 2 else 0), (argv, code, printed)
