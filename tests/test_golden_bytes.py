"""Byte-for-byte guard on the exact commands' outputs.

Each digest below was recorded from the same command line before the
per-state loops of `cycle`, `run` and `check` were last optimised, so any
change to the bytes those commands write or print fails here, whatever
the cause.  Record a digest again only for an output change made on purpose.
"""

import hashlib

from hamca.cli import EXIT_OK, main

PSI0 = "1, -i, 2, 0, 1+i, 0, -3, 0, 0, 2i, 0, 1, 0, 0, -1, 0"
PSI1 = "0, 1, 0, 2-i, 0, 0, 1, -1, 0, 0, 3, 0, i, 0, 0, 1"


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def test_cycle_scan_of_the_30_ring(tmp_path, capsys):
    out = tmp_path / "cycles.csv"
    assert main(["cycle", "--model", "Hm:30", "--out", str(out)]) == EXIT_OK
    assert sha256(capsys.readouterr().out) == "5ae4f79fe61dde6a30c0845389dde0a6db0cc10cacc789bd62a0c5ede151e02f"
    assert sha256(out.read_bytes()) == "658eae61541eb34a93a07fac48b2e9c2a8f0e1c1f3daef73cd87c90365db49cc"


def test_run_and_check_report_on_the_16_ring(tmp_path, capsys):
    # a superposed pair with link total L = -3, so the report has fractional weights
    traj, report = tmp_path / "traj.jsonl", tmp_path / "report.csv"
    argv = ["run", "--model", "Hm:16", f"--psi0={PSI0}", f"--psi1={PSI1}", "--steps", "300", "--out", str(traj)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == f"wrote 302 states to {traj}\n"
    assert sha256(traj.read_bytes()) == "66f6774e2bab88980a5527c6b5b3a370546862927fae6a6ddff218d043a15dfe"
    assert main(["check", str(traj), "--g", "hamiltonian", "--report", str(report)]) == EXIT_OK
    assert capsys.readouterr().out == "OK: q_G = -6 constant over 301 pairs (l = 1)\n"
    assert sha256(report.read_bytes()) == "3b8a533eec6a52049a1c9f13a8fbbda867d0ab07bc9469301781a233e3997046"
