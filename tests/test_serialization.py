import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamca.cli import EXIT_OK, EXIT_VALIDATION, EXIT_VIOLATION, main
from hamca.conservation import verify_stream
from hamca.dynamics import evolve
from hamca.errors import ModelValidationError
from hamca.gaussian import GaussInt, GaussMatrix, GaussVector
from hamca.models import HamiltonianSpec, build_hamiltonian, make_cyclic_model
from hamca.serialization import (
    _header_record,
    _state_record,
    format_float,
    load_gauss_vector,
    load_model,
    parse_gauss,
    parse_gauss_vector,
    read_trajectory_stream,
    write_conservation_csv,
    write_cycle_csv,
    write_float_csv,
)
from oracles import cycle_csv_reference, float_csv_reference, load_trajectory, save_model, write_trajectory

E = GaussVector.of


class TestLiteralSigns:
    """A sign joins the real and the imaginary part, with optional spaces
    around it; two numbers side by side are not one literal."""

    @pytest.mark.parametrize(
        "text,value",
        [
            ("1 + i", GaussInt(1, 1)),
            ("1 - 2i", GaussInt(1, -2)),
            (" 1+i ", GaussInt(1, 1)),
            ("1 2i", None),
            ("1 + + i", None),
            ("1 +- i", None),
        ],
    )
    def test_accept_reject_table(self, text, value):
        if value is None:
            with pytest.raises(ValueError):
                parse_gauss(text)
        else:
            assert parse_gauss(text) == value

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(2**200), 2**200), st.integers(-(2**200), 2**200))
    def test_round_trip_through_str(self, re_part, im_part):
        z = GaussInt(re_part, im_part)
        assert parse_gauss(str(z)) == z


class TestGaussLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", GaussInt(0)),
            ("-3", GaussInt(-3)),
            ("i", GaussInt(0, 1)),
            ("-i", GaussInt(0, -1)),
            ("+i", GaussInt(0, 1)),
            ("2i", GaussInt(0, 2)),
            ("-2i", GaussInt(0, -2)),
            ("1+i", GaussInt(1, 1)),
            ("1-i", GaussInt(1, -1)),
            ("4-7i", GaussInt(4, -7)),
            (" -12+40i ", GaussInt(-12, 40)),
            ("123456789012345678901234567890", GaussInt(123456789012345678901234567890)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_gauss(text) == value

    @pytest.mark.parametrize("text", ["", "x", "1+", "i2", "1 2", "2.5", "--3"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_gauss(text)

    def test_round_trip_through_str(self):
        for z in (GaussInt(0), GaussInt(5, -3), GaussInt(0, 7), GaussInt(-1, -1)):
            assert parse_gauss(str(z)) == z

    def test_vector_literal(self):
        assert parse_gauss_vector("1-i, 0, 2i") == E((1, -1), 0, (0, 2))
        with pytest.raises(ValueError):
            parse_gauss_vector("")


class TestVectorFile:
    def test_mixed_component_forms(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(["1-i", [2, 3], 5]))
        assert load_gauss_vector(path) == E((1, -1), (2, 3), 5)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(ValueError):
            load_gauss_vector(path)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        spec = make_cyclic_model(5)
        path = tmp_path / "model.json"
        save_model(spec, path)
        assert load_model(path) == spec

    def test_rejects_invalid_symmetry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "S": [[0, 1], [2, 0]], "A": [[0, 0], [0, 0]]}))
        with pytest.raises(ModelValidationError):
            load_model(path)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(ModelValidationError):
            load_model(path)


class TestTrajectoryFile:
    def test_round_trip_exact(self, tmp_path):
        spec = make_cyclic_model(2)
        traj = evolve(E(1, 0), E(0, 1), build_hamiltonian(spec), 7)
        path = tmp_path / "traj.jsonl"
        write_trajectory(spec, 0.25, traj, path)
        assert load_trajectory(path) == (spec, 0.25, traj)

    def test_huge_magnitudes_survive(self, tmp_path):
        big = 10**120 + 9
        spec = make_cyclic_model(2)
        traj = evolve(E((big, -big), 1), E(0, (3, big)), build_hamiltonian(spec), 3)
        path = tmp_path / "big.jsonl"
        write_trajectory(spec, 1.0, traj, path)
        assert load_trajectory(path)[2] == traj

    @pytest.mark.parametrize("limit", [4300, 640])
    def test_parts_past_the_digit_limit_round_trip(self, tmp_path, limit):
        """Decimal parts of any size are written and read back, under the
        default int/str digit limit (4300) and a caller's own, which is
        restored after every call, including one that rejects a record."""
        big = 2**20_000 + 7  # 6021 digits
        spec = make_cyclic_model(2)
        traj = evolve(E((big, -(3**40_000)), 1), E(0, (3, big)), build_hamiltonian(spec), 3)
        path = tmp_path / "big.jsonl"
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            write_trajectory(spec, 1.0, traj, path)
            assert sys.get_int_max_str_digits() == limit
            _, _, again = load_trajectory(path)
            assert sys.get_int_max_str_digits() == limit
            assert again == traj
            assert max(abs(v).bit_length() for psi in again for v in psi.re) >= 63_000

            lines = path.read_text().splitlines()
            rec = json.loads(lines[1])
            rec["re"][0] = "+" + rec["re"][0]  # int() takes it; the canonical check must not
            path.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n")
            with pytest.raises(ValueError, match="canonical"):
                load_trajectory(path)
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize("limit", [4300, 640])
    def test_small_parts_leave_the_callers_digit_limit(self, tmp_path, limit):
        """Every record is formatted and parsed in a scope that restores the caller's limit."""
        spec = make_cyclic_model(3)
        traj = evolve(E((1, 1), 2, (0, -1)), E(0, (2, 1), 1), build_hamiltonian(spec), 30)
        path = tmp_path / "small.jsonl"
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            write_trajectory(spec, 1.0, traj, path)
            assert sys.get_int_max_str_digits() == limit
            assert load_trajectory(path)[2] == traj
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(previous)

    def test_integers_are_decimal_strings(self, tmp_path):
        spec = make_cyclic_model(2)
        path = tmp_path / "traj.jsonl"
        write_trajectory(spec, 1.0, evolve(E(1, 0), E(0, 1), build_hamiltonian(spec), 2), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        assert all(isinstance(v, str) for v in rec["re"] + rec["im"])

    def test_byte_identical_rewrites(self, tmp_path):
        spec = make_cyclic_model(2)
        traj = evolve(E(1, 0), E(0, 1), build_hamiltonian(spec), 5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trajectory(spec, 1.0, traj, p1)
        write_trajectory(spec, 1.0, traj, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_streaming_reader(self, tmp_path):
        spec = make_cyclic_model(2)
        traj = evolve(E(1, 0), E(0, 1), build_hamiltonian(spec), 9)
        path = tmp_path / "traj.jsonl"
        write_trajectory(spec, 1.0, traj, path)
        model, l, stream = read_trajectory_stream(path)
        assert model == spec
        count = 0
        for n, psi in enumerate(stream):
            assert psi == traj[n]
            count += 1
        assert count == len(traj)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trajectory(path)


class TestCsv:
    def test_float_formatting(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert format_float(2.5e-11) == "2.5000000000000001e-11"

    def test_conservation_csv_columns(self, tmp_path):
        H = build_hamiltonian(make_cyclic_model(2))
        stats = []
        verify_stream(evolve(E(1, 0), E(1, 1), H, 4), H, GaussMatrix.identity(2), stats)
        path = tmp_path / "report.csv"
        with open(path, "w", newline="") as fh:
            write_conservation_csv(fh, 2, stats)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,q_re,q_im,L,L_1,L_2,w_1,w_2"
        assert len(lines) == 1 + len(stats)
        first = lines[1].split(",")
        assert first[0] == "0"
        # q1 of (1,0),(1,1) is 2, L is 1, w_1 = 1
        assert first[1] == "2"
        assert first[3] == "1"
        assert first[4] == "1"

    def test_cycle_csv_blank_cells_for_superposed(self, tmp_path):
        from hamca.ontology import find_period, neighbour_pair_period
        from hamca.models import basis_state

        spec = make_cyclic_model(3)
        H = build_hamiltonian(spec)
        superposed = find_period(basis_state(3, 1), basis_state(3, 1), H, 20)
        unfound = find_period(basis_state(3, 1), basis_state(3, 1), H, 2)  # pair and period blank
        assert unfound.pair_index is None and unfound.period is None
        reports = [superposed, unfound, neighbour_pair_period(H, 1, 40)]
        path = tmp_path / "cycle.csv"
        with open(path, "w", newline="") as fh:
            write_cycle_csv(fh, reports)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("pair,period,ontological")
        assert any(",,," in line or line.endswith(",,") for line in lines[1:])
        assert path.read_text() == cycle_csv_reference(reports)

    def test_float_csv_is_what_csv_writer_wrote(self, tmp_path):
        header = ["t", "value", "steps"]
        rows = [(math.nan, math.inf, 3), (-math.inf, -0.0, 10**20), (5e-324, 0.1, -7), (np.float64(2.5), 1.0, 0)]
        path = tmp_path / "float.csv"
        with open(path, "w", newline="") as fh:
            write_float_csv(fh, header, rows)
        assert path.read_text() == float_csv_reference(header, rows)
        assert path.read_text().splitlines()[1:3] == ["nan,inf,3", "-inf,-0,100000000000000000000"]

    def test_cycle_csv_past_the_digit_limit(self, tmp_path, digit_limit):
        from hamca.ontology import find_period

        big = E(10**5000, 0)
        rep = find_period(big, big, build_hamiltonian(make_cyclic_model(2)), 20)
        path = tmp_path / "cycle.csv"
        with open(path, "w", newline="") as fh:
            write_cycle_csv(fh, [rep])
        assert sys.get_int_max_str_digits() == digit_limit
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == rep.period == 12
        # L = |10^5000|^2, written in full on every row
        assert {row.split(",")[3] for row in rows} == {"1" + "0" * 10_000}
        assert path.read_text() == cycle_csv_reference([rep])
        assert sys.get_int_max_str_digits() == digit_limit


class TestInputsPastTheDigitLimit:
    """Model files, trajectory headers, vector files and literals hold
    integers of any size, and each call restores the caller's limit."""

    BIG = 2**15_000  # 4516 digits

    def test_model_entry_round_trips(self, tmp_path, digit_limit):
        spec = HamiltonianSpec(dim=1, S=[[self.BIG]], A=[[0]], label="big")
        path = tmp_path / "big.json"
        save_model(spec, path)
        assert sys.get_int_max_str_digits() == digit_limit
        assert load_model(path) == spec
        assert sys.get_int_max_str_digits() == digit_limit

    def test_model_entry_round_trips_through_a_trajectory_header(self, tmp_path, digit_limit):
        spec = HamiltonianSpec(dim=1, S=[[self.BIG]], A=[[0]], label="big")
        traj = evolve(E(1), E(0), build_hamiltonian(spec), 2)
        path = tmp_path / "big.jsonl"
        write_trajectory(spec, 1.0, traj, path)
        assert sys.get_int_max_str_digits() == digit_limit
        again = load_trajectory(path)
        assert sys.get_int_max_str_digits() == digit_limit
        assert again == (spec, 1.0, traj)

    def test_literal_of_5000_digits(self, digit_limit):
        ones = (10**5000 - 1) // 9  # 5000 ones
        assert parse_gauss("1" * 5000) == GaussInt(ones, 0)
        assert sys.get_int_max_str_digits() == digit_limit
        assert parse_gauss("-" + "1" * 5000 + " + " + "2" * 5000 + "i") == GaussInt(-ones, 2 * ones)
        assert sys.get_int_max_str_digits() == digit_limit

    def test_vector_file_entry_of_5000_digits(self, tmp_path, digit_limit):
        path = tmp_path / "v.json"
        path.write_text("[[" + "7" * 5000 + ", 0], \"i\"]")
        vec = load_gauss_vector(path)
        assert sys.get_int_max_str_digits() == digit_limit
        assert vec == E(7 * (10**5000 - 1) // 9, (0, 1))


def _record_oracle(n, psi):
    """The state record as the json module writes it."""
    rec = {"n": n, "re": [str(v) for v in psi.re], "im": [str(v) for v in psi.im]}
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


PART = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**200), 2**200))


class TestStateRecord:
    """The state record is built by joining strings; json.dumps is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 10**9), parts=st.lists(st.tuples(PART, PART), min_size=1, max_size=6))
    def test_matches_json_dumps(self, n, parts):
        psi = GaussVector(tuple(x for x, _ in parts), tuple(p for _, p in parts))
        assert _state_record(n, psi) == _record_oracle(n, psi)

    @pytest.mark.parametrize("parts", [
        [(10**5000, 0)],
        [(0, -(3**12_000)), (7, 2**20_000 + 7), (0, 0)],
    ], ids=["5001-digit-re", "im-past-the-limit"])
    def test_parts_past_the_digit_limit(self, digit_limit, parts):
        psi = GaussVector(tuple(x for x, _ in parts), tuple(p for _, p in parts))
        line = _state_record(3, psi)
        assert sys.get_int_max_str_digits() == digit_limit
        sys.set_int_max_str_digits(0)  # the oracle's own str() calls; the fixture restores the limit
        assert line == _record_oracle(3, psi)


# ---------------------------------------------------------------------------
# the reader's grammar: exactly the lines the writer emits
# ---------------------------------------------------------------------------

H2_SPEC = make_cyclic_model(2)
HEADER = _header_record(H2_SPEC, 1.0) + "\n"
SWAP = [_state_record(n, psi) + "\n" for n, psi in enumerate(evolve(E(1, 0), E(0, 1), build_hamiltonian(H2_SPEC), 3))]
NOT_A_RECORD = "is not a canonical record line"
NOT_CANONICAL = "has parts that are not canonical decimal integers"
RECORD_CHARS = '{}[]",:nrei0123456789-+ \n\r\t\u0661x'


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One file that the examples of a hypothesis test rewrite in turn."""
    return tmp_path_factory.mktemp("grammar") / "t.jsonl"


def read_states(path):
    _, _, states = read_trajectory_stream(path)
    return list(states)


@st.composite
def edited_swap_file(draw):
    """The swap orbit's records with one character inserted, deleted or replaced."""
    lines = list(SWAP)
    k = draw(st.integers(0, len(lines) - 1))
    i = draw(st.integers(0, len(lines[k]) - 1))
    c = draw(st.sampled_from(RECORD_CHARS))
    head, tail = lines[k][:i], lines[k][i:]
    lines[k] = draw(st.sampled_from([head + c + tail, head + tail[1:], head + c + tail[1:]]))
    return "".join(lines)


TAIL = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",)), max_size=60),
    st.text(RECORD_CHARS, max_size=60),
    edited_swap_file(),
)
BIG_PART = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**5000), 2**5000))


class TestReaderGrammar:
    """A state line reads only as the bytes _state_record writes at its
    position, and a newline; anything else is a ValueError and `check` exits 3."""

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.tuples(BIG_PART, BIG_PART), min_size=1, max_size=4))
    def test_every_written_record_reads_back(self, scratch, parts):
        m = len(parts)
        psi = GaussVector(tuple(x for x, _ in parts), tuple(p for _, p in parts))
        zero = [[0] * m] * m
        lines = [_header_record(HamiltonianSpec(m, zero, zero), 1.0), _state_record(0, psi), _state_record(1, -psi)]
        scratch.write_text("\n".join(lines) + "\n")
        assert read_states(scratch) == [psi, -psi]

    @settings(max_examples=150, deadline=None)
    @given(tail=TAIL)
    def test_any_text_after_a_header_raises_only_value_error(self, scratch, tail):
        scratch.write_bytes((HEADER + tail).encode())
        try:
            read_states(scratch)
        except ValueError:
            assert main(["check", str(scratch)]) == EXIT_VALIDATION
        else:  # a readable file (an edited digit, too few states): never exit 1 or 9
            assert main(["check", str(scratch)]) in (EXIT_OK, EXIT_VALIDATION, EXIT_VIOLATION)

    @pytest.mark.parametrize("line, position, fault", [
        (json.dumps({"n": 1, "re": ["0", "1"], "im": ["0", "0"]}, separators=(",", ":")) + "\n", 1, NOT_A_RECORD),
        (json.dumps({"im": ["0", "0"], "n": 1, "re": ["0", "1"]}, sort_keys=True) + "\n", 1, NOT_A_RECORD),
        (" " + SWAP[1], 1, NOT_A_RECORD),
        (SWAP[1][:-1] + "\r\n", 1, NOT_A_RECORD),
        (SWAP[1] + "\n", 2, NOT_A_RECORD),
        (SWAP[1].replace('"1"', '"1\u0661"'), 1, NOT_CANONICAL),  # int() reads 11
        (SWAP[1].replace('"1"', '"\uff11"'), 1, NOT_CANONICAL),
        (SWAP[1].replace('"1"', '"1","0"'), 1, "has wrong length"),
    ], ids=["reordered-keys", "spaces", "leading-space", "crlf", "blank-line", "arabic-indic-digit",
            "fullwidth-digit", "three-parts"])
    def test_lines_the_writer_never_emits(self, tmp_path, capsys, line, position, fault):
        path = tmp_path / "t.jsonl"
        path.write_bytes((HEADER + SWAP[0] + line + "".join(SWAP[2:])).encode())
        message = f"{path}: state record {position} {fault}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_states(path)
        assert main(["check", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text, position", [
        (HEADER + "".join(SWAP) + "\n", len(SWAP)),
        (HEADER + "".join(SWAP)[:-1], len(SWAP) - 1),
    ], ids=["trailing-blank-line", "no-final-newline"])
    def test_file_ends_after_the_last_newline(self, tmp_path, text, position):
        path = tmp_path / "t.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"state record {position} is not a canonical record line"):
            read_states(path)
