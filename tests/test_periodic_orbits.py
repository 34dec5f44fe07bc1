"""A periodic orbit through the trajectory round trip, against memo-free references.

On a periodic orbit the writer, the reader, `verify_stream` and the
conservation report each meet a state or pair again and reuse what they made
for it the first time.  These tests hold each stage to the references in
`oracles.py`, which build every record, state, LinkReport and report row
afresh, on an orbit with parts past 64 bits over several periods, clean and
with one record corrupted in its second period.  The last two check that
the reader's and the writer's memos stop growing: a growing orbit never
repeats a state.
"""

import io
import os
import tracemalloc

import pytest

from hamca.cli import EXIT_OK, EXIT_VIOLATION, main
from hamca.conservation import verify_stream
from hamca.dynamics import evolve, stream_states
from hamca.gaussian import GaussMatrix, GaussVector
from hamca.models import HamiltonianSpec, basis_state, build_hamiltonian, resolve_builtin
from hamca.ontology import find_period
from hamca.serialization import ConservationCsvWriter, TrajectoryWriter, read_trajectory_stream
from oracles import (
    conservation_csv_reference,
    read_trajectory_reference,
    scaled,
    trajectory_text_reference,
    verify_stream_reference,
    write_trajectory,
)

E = GaussVector.of
HM8 = resolve_builtin("Hm:8")
H = build_hamiltonian(HM8)
SCALE = 2**80 + 1  # every nonzero part is past 64 bits
PSI0 = scaled(E(1, (0, -1), 2, 0, 0, -1, (1, 1), 0), SCALE)
PSI1 = scaled(E(0, 1, (-1, 0), 0, (2, -1), 0, 1, 3), SCALE)
PERIOD = 32
STATES = evolve(PSI0, PSI1, H, 4 * PERIOD)  # four periods and the pair that closes the last


def test_the_orbit_repeats_past_64_bits():
    assert find_period(PSI0, PSI1, H, 100).period == PERIOD
    assert STATES[PERIOD:2 * PERIOD] == STATES[:PERIOD]
    assert len(set(STATES)) == PERIOD < len(STATES)
    assert max(abs(x).bit_length() for psi in STATES for x in psi.re + psi.im) > 64


def corrupt(states: tuple, how: str) -> tuple:
    """The states with one state of the second period changed: one part
    raised by 1, or the state replaced by a copy of an earlier one."""
    states = list(states)
    k = PERIOD + 5
    if how == "changed-part":
        psi = states[k]
        states[k] = GaussVector(psi.re, psi.im[:3] + (psi.im[3] + 1,) + psi.im[4:])
    elif how == "copy-of-earlier":
        states[k] = states[k - 3]
    return tuple(states)


CASES = ["clean", "changed-part", "copy-of-earlier"]


@pytest.mark.parametrize("how", CASES)
def test_writer_and_reader_match_the_references(tmp_path, how):
    states = corrupt(STATES, how)
    path = tmp_path / "t.jsonl"
    write_trajectory(HM8, 0.5, states, path)
    assert path.read_text() == trajectory_text_reference(HM8, 0.5, states)
    assert read_trajectory_reference(path) == states
    model, l, stream = read_trajectory_stream(path)
    assert tuple(stream) == states


@pytest.mark.parametrize("G", [GaussMatrix.identity(8), H], ids=["identity", "hamiltonian"])
@pytest.mark.parametrize("how", CASES)
def test_rows_and_report_match_the_references(how, G):
    states = corrupt(STATES, how)
    rows, expected_rows = [], []
    report = verify_stream(states, H, G, rows)
    assert report == verify_stream_reference(states, H, G, expected_rows)
    assert report.ok == (how == "clean")
    assert rows == expected_rows
    out = io.StringIO()
    with ConservationCsvWriter(out, 8) as csv_rows:
        for row in rows:
            csv_rows.append(row)
    assert out.getvalue() == conservation_csv_reference(8, expected_rows)


@pytest.mark.parametrize("how", CASES)
def test_check_prints_the_reference_verdict(tmp_path, capsys, how):
    """`check --report` on the file: the exit code, the OK or FAIL line and
    the report bytes are those of the memo-free references."""
    states = corrupt(STATES, how)
    path, report = tmp_path / "t.jsonl", tmp_path / "r.csv"
    path.write_text(trajectory_text_reference(HM8, 1.0, states))
    expected_rows = []
    expected = verify_stream_reference(states, H, H, expected_rows)
    code = main(["check", str(path), "--g", "hamiltonian", "--report", str(report)])
    out = capsys.readouterr().out
    if how == "clean":
        assert (code, out) == (EXIT_OK, f"OK: q_G = {expected.q_value} constant over {4 * PERIOD + 1} pairs (l = 1)\n")
    else:
        assert (code, out) == (EXIT_VIOLATION, f"FAIL at step {expected.first_violation}: {expected.message}\n")
    assert report.read_text() == conservation_csv_reference(8, expected_rows)


@pytest.mark.parametrize("how", CASES[1:])
def test_the_change_in_the_second_period_is_found_where_it_is(how):
    # state PERIOD + 5 changed: the q of the pair that ends in it is the first to differ
    report = verify_stream(corrupt(STATES, how), H, H)
    assert (report.first_violation, report.message[:13]) == (PERIOD + 4, "q_G changed f")


@pytest.mark.parametrize("shared", ["re", "im"])
def test_records_that_share_one_part_list(tmp_path, shared):
    """States that agree in one part list and not in the other are told apart
    by the writer, the reader and the report alike."""
    a = STATES[3]
    b = GaussVector(a.re, STATES[4].im) if shared == "re" else GaussVector(STATES[4].re, a.im)
    c = STATES[5]
    states = (a, c, b, c, a, c, b, c)
    path = tmp_path / "t.jsonl"
    write_trajectory(HM8, 1.0, states, path)
    assert path.read_text() == trajectory_text_reference(HM8, 1.0, states)
    assert tuple(read_trajectory_stream(path)[2]) == states
    rows, expected_rows = [], []
    verify_stream(states, H, H, rows)
    verify_stream_reference(states, H, H, expected_rows)
    assert rows == expected_rows


# ---------------------------------------------------------------------------
# bounded memos: tridiag(1, 2, 1), m = 4, as TestReportMemory
# ---------------------------------------------------------------------------

M = 4
TRIDIAG = HamiltonianSpec(M, tuple(tuple(2 if i == j else int(abs(i - j) == 1) for j in range(M)) for i in range(M)),
                          ((0,) * M,) * M)


def growing(n_records: int):
    psi = basis_state(M, 2)
    return stream_states(psi, psi, build_hamiltonian(TRIDIAG), n_records - 2)


def traced_peak(work) -> int:
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_is_bounded():
    """A growing orbit never repeats a state: the writer's peak memory at
    2000 records stays within 2 MiB of its peak at 500."""
    def peak(n_records: int) -> int:
        states = list(growing(n_records))
        with open(os.devnull, "w") as fh:
            writer = TrajectoryWriter(fh, TRIDIAG, 1.0)

            def write() -> None:
                for psi in states:
                    writer.write_state(psi)

            return traced_peak(write)

    small, big = peak(500), peak(2000)
    assert big - small < 2 * 2**20


def test_reader_memory_is_bounded(tmp_path):
    """The reader's peak memory over 2000 records of a growing orbit stays
    within 2 MiB of its peak over 500."""
    def peak(n_records: int) -> int:
        path = tmp_path / f"grow{n_records}.jsonl"
        write_trajectory(TRIDIAG, 1.0, growing(n_records), path)

        def read() -> None:
            model, l, states = read_trajectory_stream(path)
            for _ in states:
                pass

        return traced_peak(read)

    small, big = peak(500), peak(2000)
    assert big - small < 2 * 2**20
