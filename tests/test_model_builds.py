"""Each entry point resolves its model to a matrix once.

`dynamics.model_matrix` builds H from a spec, or takes a GaussMatrix as
given, and the entry points hand the matrix on instead of the model.  The
counts below are of `build_hamiltonian` calls made through the modules
that call it.
"""

import pytest

import hamca.cli as cli
import hamca.dynamics as dynamics
from hamca.dynamics import evolve
from hamca.gaussian import GaussVector
from hamca.models import basis_state, build_hamiltonian, make_cyclic_model
from hamca.ontology import find_period, scan_ontological_pairs
from oracles import write_trajectory


@pytest.fixture
def calls(monkeypatch):
    """Count build_hamiltonian calls in dynamics and cli."""
    counts = {"build": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts["build"] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(dynamics, "build_hamiltonian", counted(dynamics.build_hamiltonian))
    monkeypatch.setattr(cli, "build_hamiltonian", counted(cli.build_hamiltonian))
    return counts


def test_scan_builds_once(calls):
    reports = scan_ontological_pairs(make_cyclic_model(30))
    assert len(reports) == 29
    assert calls == {"build": 1}


def test_evolve_spec_builds_once(calls):
    evolve(basis_state(3, 1), basis_state(3, 2), make_cyclic_model(3), 10)
    assert calls == {"build": 1}


def test_evolve_matrix_builds_nothing(calls):
    H = build_hamiltonian(make_cyclic_model(3))
    assert len(evolve(basis_state(3, 1), basis_state(3, 2), H, 10)) == 12
    assert calls == {"build": 0}


def test_find_period_matrix_builds_nothing(calls):
    H = build_hamiltonian(make_cyclic_model(3))
    assert find_period(basis_state(3, 1), basis_state(3, 2), H, 100).period == 12
    assert calls["build"] == 0


def test_check_hamiltonian_builds_once(tmp_path, calls):
    spec = make_cyclic_model(4)
    path = tmp_path / "traj.jsonl"
    write_trajectory(spec, 1.0, evolve(basis_state(4, 1), GaussVector.of(0, 1, 1, 0), spec, 20), path)
    calls.update(build=0)
    assert cli.main(["check", str(path), "--g", "hamiltonian"]) == cli.EXIT_OK
    assert calls == {"build": 1}
