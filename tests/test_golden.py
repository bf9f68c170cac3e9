"""Structured output on the shipped fixtures, byte for byte as committed.

The commands are those of the benchmark's `fixtures` workload that draw no
random numbers: `validate`, `routes`, `verify` at the barycenter, `solve`
then `verify` at the solved point, and `compare` on the Braess and merge
pairs, each with `--format structured`.  `oracle` and `uniqueness` are left
out: they draw from numpy's `Generator`, whose stream numpy does not promise
to keep across versions.

A change that means to move this output rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and names each moved field where it is recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from wardrop import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden_structured.txt"
FIXTURES = (
    "nonmonotone_pair", "delay_spillover", "congestion_corridor",
    "braess_base", "braess_augmented", "merge_base", "merge_linked",
)
PAIRS = (("braess_base", "braess_augmented"), ("merge_base", "merge_linked"))


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--format", "structured"])
    return code, out.getvalue()


def transcript(workdir: Path) -> str:
    """Each command line, paths relative to the repository and the work
    directory, followed by its exit code and standard output."""
    parts = []

    def run(argv: list[str]) -> str:
        code, out = _run(argv)
        shown = [a.replace(str(workdir), "$WORK").replace(str(ROOT) + "/", "") for a in argv]
        parts.append(f"$ wardrop {' '.join(shown)} --format structured\n[exit {code}]\n{out}")
        return out

    def assignment(name: str, tag: str, doc: dict, shares: list) -> str:
        path = workdir / f"{name}.{tag}.json"
        names = [p["name"] for p in doc["populations"]]
        path.write_text(json.dumps(dict(zip(names, shares))) + "\n", encoding="utf-8")
        return str(path)

    for name in FIXTURES:
        path = str(ROOT / "fixtures" / f"{name}.json")
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        first = doc["populations"][0]
        run(["validate", path])
        run(["routes", path, "--origin", first["origin"], "--destination", first["destination"]])
        flags = ["--allow-nonmonotone"] if name == "nonmonotone_pair" else []
        solved = json.loads(run(["solve", path, *flags]))
        run(["verify", path, assignment(name, "solved", doc, solved["assignment"]["shares"])])
        bary = [[1.0 / len(p["routes"])] * len(p["routes"]) for p in doc["populations"]]
        run(["verify", path, assignment(name, "barycenter", doc, bary)])
    for base, variant in PAIRS:
        run(["compare", *(str(ROOT / "fixtures" / f"{n}.json") for n in (base, variant))])
    return "".join(parts)


def test_structured_output_on_the_fixtures_is_the_committed_one(tmp_path):
    assert transcript(tmp_path).encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_bytes(transcript(Path(tmp)).encode())
    sys.exit(0)
