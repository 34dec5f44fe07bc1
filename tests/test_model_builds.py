"""Each command builds its model's matrix once.

Below the command layer the exact functions take H, so the builds are
counted where they happen: `build_hamiltonian` calls made through `cli`.
"""

import pytest

import hamca.cli as cli
from hamca.dynamics import evolve
from hamca.gaussian import GaussVector
from hamca.models import basis_state, build_hamiltonian, make_cyclic_model
from oracles import write_trajectory


@pytest.fixture
def calls(monkeypatch):
    """Count build_hamiltonian calls in cli."""
    counts = {"build": 0}

    def counted(*args, **kwargs):
        counts["build"] += 1
        return build_hamiltonian(*args, **kwargs)

    monkeypatch.setattr(cli, "build_hamiltonian", counted)
    return counts


def test_scan_builds_once(calls, capsys):
    assert cli.main(["cycle", "--model", "Hm:30"]) == cli.EXIT_OK
    assert capsys.readouterr().out.count("period 120") == 29
    assert calls == {"build": 1}


@pytest.mark.parametrize("pair", [["k=2"], ["1,0,0", "--psi1", "0,1,0"]], ids=["k", "explicit"])
def test_cycle_one_pair_builds_once(calls, pair, capsys):
    assert cli.main(["cycle", "--model", "Hm:3", "--pair", *pair]) == cli.EXIT_OK
    assert calls == {"build": 1}


def test_check_hamiltonian_builds_once(tmp_path, calls):
    spec = make_cyclic_model(4)
    path = tmp_path / "traj.jsonl"
    traj = evolve(basis_state(4, 1), GaussVector.of(0, 1, 1, 0), build_hamiltonian(spec), 20)
    write_trajectory(spec, 1.0, traj, path)
    assert cli.main(["check", str(path), "--g", "hamiltonian"]) == cli.EXIT_OK
    assert calls == {"build": 1}
