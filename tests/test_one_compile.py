"""Each command compiles each network document it reads exactly once.

Compiling is a fixed cost of every call; a second table build of the same
network inside one command would double it without changing any output.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from wardrop import compiled
from wardrop.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture()
def compiles(monkeypatch):
    """The number of compiled networks built so far."""
    count = [0]
    build = compiled.CompiledNetwork.__init__

    def counted(self, net):
        count[0] += 1
        build(self, net)

    monkeypatch.setattr(compiled.CompiledNetwork, "__init__", counted)
    return count


def _fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", _fixture("merge_linked")],
        ["oracle", _fixture("congestion_corridor"), "--grid", "40"],
        ["uniqueness", _fixture("delay_spillover"), "--pairs", "5", "--starts", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_on_one_network_compiles_it_once(argv, compiles, capsys):
    assert main([*argv, "--format", "structured"]) in (0, 1)
    json.loads(capsys.readouterr().out)
    assert compiles[0] == 1


def test_verify_compiles_its_network_once(tmp_path, compiles, capsys):
    shares = tmp_path / "shares.json"
    shares.write_text(json.dumps({"trucks": [0.5, 0.5], "cars": [0.5, 0.5]}))
    assert main(["verify", _fixture("braess_base"), str(shares)]) in (0, 1)
    assert compiles[0] == 1


def test_compare_compiles_each_network_once(compiles, capsys):
    assert main(["compare", _fixture("braess_base"), _fixture("braess_augmented")]) == 0
    assert compiles[0] == 2


def test_nothing_is_carried_from_one_call_to_the_next(tmp_path, compiles, monkeypatch, capsys):
    """Two identical calls each decode both documents and each build their
    own compiled network: no cache or memo outlives a call."""
    shares = tmp_path / "shares.json"
    shares.write_text(json.dumps({"trucks": [0.5, 0.5], "cars": [0.5, 0.5]}))
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: decoded.append(text) or loads(text, **kw))
    argv = ["verify", _fixture("braess_base"), str(shares), "--format", "structured"]
    outputs = []
    for _ in range(2):
        assert main(argv) in (0, 1)
        outputs.append(capsys.readouterr().out)
    network = (FIXTURES / "braess_base.json").read_text(encoding="utf-8")
    assert decoded == [network, shares.read_text(), network, shares.read_text()]
    assert compiles[0] == 2
    assert outputs[0] == outputs[1]
