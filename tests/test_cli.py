import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import hamca.cli as cli
from hamca.cli import (
    EXIT_BUDGET,
    EXIT_INSTABILITY,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_ONTOLOGICAL,
    EXIT_SINGULAR,
    EXIT_TOLERANCE,
    EXIT_VALIDATION,
    EXIT_VIOLATION,
    main,
)
from hamca import continuum as ct
from hamca.conservation import q_G
from hamca.dynamics import evolve
from hamca.gaussian import GaussInt, GaussMatrix, GaussVector
from hamca.models import HamiltonianSpec, build_hamiltonian, make_cyclic_model
from hamca import probe, serialization
from oracles import load_trajectory, save_model, scaled, write_trajectory

E = GaussVector.of


def run_cli(*argv):
    return main(list(argv))


def write_swap_orbit(path):
    """A trajectory file of the first five states of H2 from (1, 0), (0, 1)."""
    spec = make_cyclic_model(2)
    write_trajectory(spec, 1.0, evolve(E(1, 0), E(0, 1), build_hamiltonian(spec), 3), path)


def past_memory(option, rows, dim=2):
    """The message of a continuum size option that asks for `rows` float
    states of `dim` complex values, more than this machine's memory."""
    return (f"{option}: needs {rows * dim * 16 >> 20} MiB of float states, "
            f"more than this machine's {cli._memory_bytes() >> 20} MiB")


def report_oracle(states):
    """`check --report` of a trajectory with G = identity, weights from Fraction."""
    m = len(states[0])
    lines = [",".join(["n", "q_re", "q_im", "L"] + [f"L_{a}" for a in range(1, m + 1)]
                      + [f"w_{a}" for a in range(1, m + 1)])]
    for n, (a, b) in enumerate(zip(states, states[1:])):
        per = [x1 * x0 + p1 * p0 for x0, p0, x1, p1 in zip(a.re, a.im, b.re, b.im)]
        total = sum(per)
        weights = [str(Fraction(la, total)) for la in per] if total else [""] * m
        lines.append(",".join(map(str, [n, 2 * total, 0, total, *per, *weights])))
    return "\n".join(lines) + "\n"


class TestRun:
    def test_two_state_run_matches_exact_layer(self, tmp_path, capsys):
        out = tmp_path / "traj.jsonl"
        code = run_cli(
            "run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1",
            "--steps", "6", "--out", str(out),
        )
        assert code == EXIT_OK
        _, _, traj = load_trajectory(out)
        assert traj == evolve(E(1, 0), E(0, 1), build_hamiltonian(make_cyclic_model(2)), 6)
        assert len(traj) == 8

    def test_zero_steps_writes_two_records(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code = run_cli("run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1",
                       "--steps", "0", "--out", str(out))
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 2  # header + two states

    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert run_cli("run", "--model", "Hm:5", "--psi0", "1,0,0,0,0",
                           "--psi1", "0,1,0,0,0", "--steps", "25", "--out", str(path)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_five_state_recurrence_at_twenty(self, tmp_path):
        out = tmp_path / "t.jsonl"
        assert run_cli("run", "--model", "Hm:5", "--psi0", "1,0,0,0,0",
                       "--psi1", "0,1,0,0,0", "--steps", "40", "--out", str(out)) == EXIT_OK
        _, _, traj = load_trajectory(out)
        assert traj[20] == traj[0]
        assert traj[21] == traj[1]
        # and no earlier pair recurrence
        for p in range(1, 20):
            assert (traj[p], traj[p + 1]) != (traj[0], traj[1])

    def test_probe_streams_without_output_file(self, capsys):
        code = run_cli("run", "--model", "H2", "--psi0", "1,0", "--psi1", "1,1",
                       "--steps", "200", "--probe")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "q1 = 2" in out
        assert "L = 1" in out

    def test_bad_vector_literal(self, tmp_path):
        code = run_cli("run", "--model", "H2", "--psi0", "nope", "--psi1", "0,1",
                       "--steps", "1", "--out", str(tmp_path / "x.jsonl"))
        assert code == EXIT_VALIDATION

    def test_wrong_dimension(self, tmp_path):
        code = run_cli("run", "--model", "H3", "--psi0", "1,0", "--psi1", "0,1",
                       "--steps", "1", "--out", str(tmp_path / "x.jsonl"))
        assert code == EXIT_VALIDATION

    def test_model_file_path(self, tmp_path):
        model_path = tmp_path / "m.json"
        save_model(make_cyclic_model(3), model_path)
        out = tmp_path / "t.jsonl"
        code = run_cli("run", "--model", str(model_path), "--psi0", "0,1,0",
                       "--psi1", "0,0,1", "--steps", "3", "--out", str(out))
        assert code == EXIT_OK

    def test_unknown_model(self, tmp_path):
        code = run_cli("run", "--model", "H99x", "--psi0", "1,0", "--psi1", "0,1",
                       "--steps", "1", "--out", str(tmp_path / "x.jsonl"))
        assert code == EXIT_VALIDATION


class TestCheck:
    def make_traj(self, tmp_path, steps=12):
        out = tmp_path / "traj.jsonl"
        assert run_cli("run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1",
                       "--steps", str(steps), "--out", str(out)) == EXIT_OK
        return out

    def test_clean_trajectory_passes(self, tmp_path, capsys):
        path = self.make_traj(tmp_path)
        assert run_cli("check", str(path)) == EXIT_OK
        assert "q_G = 0" in capsys.readouterr().out

    def test_hamiltonian_g(self, tmp_path):
        path = self.make_traj(tmp_path)
        assert run_cli("check", str(path), "--g", "hamiltonian") == EXIT_OK

    def test_report_csv(self, tmp_path):
        path = self.make_traj(tmp_path, steps=5)
        report = tmp_path / "report.csv"
        assert run_cli("check", str(path), "--report", str(report)) == EXIT_OK
        lines = report.read_text().splitlines()
        assert lines[0].startswith("n,q_re,q_im,L")
        assert len(lines) == 1 + 6

    def test_corrupted_sign_fails_at_index(self, tmp_path, capsys):
        path = self.make_traj(tmp_path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[6])  # state n=5
        rec["re"] = [str(-int(v)) for v in rec["re"]]
        rec["im"] = [str(-int(v)) for v in rec["im"]]
        lines[6] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        code = run_cli("check", str(path))
        assert code == EXIT_VIOLATION
        out = capsys.readouterr().out
        assert "FAIL at step" in out

    def test_noncommuting_g_rejected(self, tmp_path):
        path = self.make_traj(tmp_path)
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps({"dim": 2, "S": [[1, 0], [0, -1]], "A": [[0, 0], [0, 0]]}))
        assert run_cli("check", str(path), "--g", str(gfile)) == EXIT_VALIDATION

    def test_commuting_g_from_file(self, tmp_path):
        path = self.make_traj(tmp_path)
        gfile = tmp_path / "g.json"
        # G = H2 itself, supplied as a model file
        gfile.write_text(json.dumps({"dim": 2, "S": [[0, 1], [1, 0]], "A": [[0, 0], [0, 0]]}))
        assert run_cli("check", str(path), "--g", str(gfile)) == EXIT_OK

    def test_long_random_run_passes(self, tmp_path):
        spec = make_cyclic_model(4)
        traj = evolve(E(3, (1, -2), 0, (0, 5)), E((2, 2), -1, 4, 0), build_hamiltonian(spec), 2000)
        path = tmp_path / "h4.jsonl"
        write_trajectory(spec, 1.0, traj, path)
        assert run_cli("check", str(path), "--g", "hamiltonian") == EXIT_OK


class TestCheckFileHandling:
    make_traj = TestCheck.make_traj

    @pytest.mark.parametrize("argv, code", [
        (["--g", "{tmp}/missing.json"], EXIT_VALIDATION),
        (["--g", "{tmp}/wrong_dim.json"], EXIT_VALIDATION),
        (["--g", "{tmp}/noncommuting.json"], EXIT_VALIDATION),
        (["--report", "{tmp}/missing/r.csv"], EXIT_VALIDATION),
        (["--report", "{tmp}/r.csv"], EXIT_OK),
        ([], EXIT_VIOLATION),
    ], ids=["g-missing", "g-wrong-dim", "g-noncommuting", "report-missing-dir", "report", "violation"])
    def test_trajectory_is_closed_on_every_exit(self, tmp_path, monkeypatch, argv, code):
        path = self.make_traj(tmp_path)
        save_model(make_cyclic_model(3), tmp_path / "wrong_dim.json")
        (tmp_path / "noncommuting.json").write_text(
            json.dumps({"dim": 2, "S": [[1, 0], [0, -1]], "A": [[0, 0], [0, 0]]}))
        if code == EXIT_VIOLATION:
            _rewrite_line(path, 1 + 4, lambda rec: rec.update(re=["5", "0"]))
        files = []

        def recording_open(*args, **kwargs):
            files.append(open(*args, **kwargs))
            return files[-1]

        monkeypatch.setattr(serialization, "open", recording_open, raising=False)
        assert run_cli("check", str(path), *(a.format(tmp=tmp_path) for a in argv)) == code
        assert files and all(f.closed for f in files)

    @pytest.mark.parametrize("header, message", [
        (b"garbage\n", "header is not JSON (Expecting value at column 1)"),
        (b'{"format": \n', "header is not JSON (Expecting value at column 13)"),
        (b"\xff{}\n", "not UTF-8 text (invalid start byte)"),
    ], ids=["not-json", "truncated-json", "not-utf8"])
    def test_unreadable_header_names_the_file(self, tmp_path, capsys, header, message):
        path = self.make_traj(tmp_path)
        path.write_bytes(header + path.read_bytes().split(b"\n", 1)[1])
        assert run_cli("check", str(path)) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: trajectory: {path}: {message}\n"

    @pytest.mark.parametrize("l", [0, "0", -1.5], ids=["zero", "zero-string", "negative"])
    def test_header_l_must_be_positive(self, tmp_path, capsys, l):
        path = self.make_traj(tmp_path)
        _rewrite_line(path, 0, lambda head: head.update(l=l))
        capsys.readouterr()  # the output of the run that wrote the file
        assert run_cli("check", str(path)) == EXIT_VALIDATION
        assert capsys.readouterr() == (
            "", f"error: trajectory: {path}: header l = {l!r} is not a finite positive number\n")


class TestGrowingOrbit:
    def test_run_and_check_past_the_digit_limit(self, tmp_path, capsys):
        """An orbit that grows past 4300 decimal digits (about 14 300 bits),
        Python's default int/str limit, is written, verified and reported."""
        model = tmp_path / "grow.json"
        model.write_text(json.dumps({"dim": 2, "label": "grow", "S": [[2**1000, 1], [1, 0]], "A": [[0, 0], [0, 0]]}))
        out, report = tmp_path / "t.jsonl", tmp_path / "r.csv"
        assert run_cli("run", "--model", str(model), "--psi0", "1,0", "--psi1", "1,0",
                       "--steps", "24", "--out", str(out)) == EXIT_OK
        last = json.loads(out.read_text().splitlines()[-1])
        assert max(len(v) for v in last["re"] + last["im"]) > 4300
        assert run_cli("check", str(out), "--g", "hamiltonian", "--report", str(report)) == EXIT_OK
        assert "constant over 25 pairs" in capsys.readouterr().out
        assert max(len(cell) for cell in report.read_text().split(",")) > 4300


class TestCycle:
    def test_three_state_all_pairs(self, tmp_path, capsys):
        out = tmp_path / "cycles.csv"
        code = run_cli("cycle", "--model", "H3", "--out", str(out))
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert printed.count("period 12") == 2
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 12  # header + 12 visits per pair

    def test_two_state_measured_period(self, capsys):
        code = run_cli("cycle", "--model", "H2", "--pair", "k=1")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "period 12" in out
        assert "differs from expected 8" in out

    def test_explicit_template_pair_not_ontological(self, capsys):
        code = run_cli("cycle", "--model", "Hm:4", "--pair", "1,0,0,0", "--psi1", "1,0,0,0",
                       "--budget", "64")
        assert code in (EXIT_OK, EXIT_BUDGET)
        out = capsys.readouterr().out
        assert "ontological=False" in out

    def test_budget_exhausted_exit_code(self):
        assert run_cli("cycle", "--model", "H3", "--pair", "k=1", "--budget", "5") == EXIT_BUDGET


class TestContinuum:
    def test_closedform_band_edge_model_passes(self, tmp_path, capsys):
        out = tmp_path / "closed.csv"
        code = run_cli("continuum", "closedform", "--model", "H3", "--pairs", "20",
                       "--nmax", "60", "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "pair,max_rel_dev"
        assert len(lines) == 21

    def test_closedform_strict_band_rejects(self):
        code = run_cli("continuum", "closedform", "--model", "H3", "--strict-band",
                       "--pairs", "2", "--nmax", "10")
        assert code == EXIT_SINGULAR

    def test_sinh_residual_decreases(self, tmp_path):
        out = tmp_path / "sinh.csv"
        code = run_cli("continuum", "sinh", "--model", "H3", "--steps", "300",
                       "--windows", "16,32,64", "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "window,mean_residual,max_residual"
        means = [float(line.split(",")[1]) for line in lines[1:]]
        assert means[0] > means[1] > means[2]

    def test_q1_constancy(self, tmp_path):
        code = run_cli("continuum", "q1", "--model", "H2", "--steps", "300",
                       "--tol", "1e-2", "--out", str(tmp_path / "q1.csv"))
        assert code == EXIT_OK

    def test_born_converges(self, tmp_path):
        out = tmp_path / "born.csv"
        code = run_cli("continuum", "born", "--model", "H2", "--psi", "0.8,0.6",
                       "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        errs = [float(line.split(",")[3]) for line in lines[1:]]
        assert errs[0] > errs[1] > errs[2]

    def test_born_ontological_pair_exit_code(self):
        code = run_cli("continuum", "born", "--model", "H2", "--psi", "1,0", "--psi1", "0,1")
        assert code == EXIT_ONTOLOGICAL

    def test_born_state_near_the_float_maximum(self, tmp_path):
        # the norm of (1e308, -6e307) overflows unless the state is scaled
        # first; a power-of-two scale is exact, so 2**-1000 times it agrees
        huge, scaled = tmp_path / "huge.csv", tmp_path / "scaled.csv"
        codes = [
            run_cli("continuum", "born", "--model", "H2", "--psi", psi, "--out", str(out))
            for psi, out in (("1e308,-6e307", huge), (f"{1e308 / 2**1000!r},{-6e307 / 2**1000!r}", scaled))
        ]
        assert codes == [EXIT_OK, EXIT_OK]
        assert huge.read_bytes() == scaled.read_bytes()

    def test_born_zero_partner_is_ontological(self):
        code = run_cli("continuum", "born", "--model", "H2", "--psi", "1,0", "--psi1", "0,0")
        assert code == EXIT_ONTOLOGICAL

    def test_born_random_state_by_default(self, capsys):
        assert run_cli("continuum", "born", "--model", "H2") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and all(line.startswith("born: l=") for line in lines)

    def test_born_eigenstate_agrees_exactly_and_converges(self, capsys):
        # (1, 1) is an eigenstate of H2: link fractions equal the probabilities at every l
        assert run_cli("continuum", "born", "--model", "H2", "--psi", "1,1") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and all(line.endswith(" max|w-p|=0") for line in lines)

    @pytest.mark.parametrize("errors, code", [
        ([0.5, 0.0, 0.0], EXIT_OK),
        ([0.0, 0.5, 0.25], EXIT_TOLERANCE),
        ([0.5, 0.0, 0.25], EXIT_TOLERANCE),
        ([0.5, 0.25, 0.25], EXIT_TOLERANCE),
    ], ids=["falls-to-zero", "rises-from-zero", "zero-then-rises", "stalls"])
    @pytest.mark.parametrize("mode", ["sinh", "born"])
    def test_verdict_counts_an_exact_zero_as_converged(self, monkeypatch, capsys, mode, errors, code):
        if mode == "born":
            def fake(H, psi0, ls, **kw):
                return ct.BornReport([ct.BornEntry(l, 1, 1.0, e) for l, e in zip(ls, errors)])

            monkeypatch.setattr(ct, "born_convergence", fake)
        else:
            windows = [16, 32, 64]
            monkeypatch.setattr(ct, "sinh_residual",
                                lambda sig, H, ts: ct.np.full(len(ts), errors[windows.index(sig.window)]))
        assert run_cli("continuum", mode, "--model", "H2") == code
        capsys.readouterr()

    @pytest.mark.parametrize("mode", ["sinh", "q1"])
    def test_band_edge_model_falls_back_then_overflows(self, tmp_path, capsys, mode):
        # tridiag(1,2,1), m = 3: the eigenvalue 2 sits on the band edge, so
        # smooth_partner raises SingularSpectrumError (exit 6 unless caught)
        # and the start falls back to psi1 = psi0; 2 + sqrt(2) lies outside
        # the band, so that trajectory grows until it overflows: exit 8
        path = tmp_path / "tridiag.json"
        save_model(HamiltonianSpec(3, [[2, 1, 0], [1, 2, 1], [0, 1, 2]], [[0] * 3] * 3, "tridiag"), path)
        assert run_cli("continuum", mode, "--model", str(path), "--steps", "1200") == EXIT_INSTABILITY
        assert capsys.readouterr().err == "error: non-finite amplitude first appeared at step 632\n"

    @pytest.mark.parametrize("mode", ["closedform", "sinh", "q1", "born"])
    def test_model_entry_past_the_float_range(self, tmp_path, capsys, mode):
        path = tmp_path / "big.json"
        save_model(HamiltonianSpec(2, [[10**400, 1], [1, 0]], [[0, 0], [0, 0]], "big"), path)
        assert run_cli("continuum", mode, "--model", str(path)) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: matrix has entries too large for a float\n"


def _rewrite_line(path, index, edit):
    """Apply edit to the JSON object on line `index` of a trajectory file."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[index])
    edit(rec)
    lines[index] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")


class TestCheckMerged:
    make_traj = TestCheck.make_traj

    def test_negated_state_breaks_only_the_update_rule(self, tmp_path, capsys):
        # the swap orbit keeps q_G = 0 under negation of one state, so only
        # the update-rule check can see it
        path = self.make_traj(tmp_path)

        def negate(rec):
            rec["re"] = [str(-int(v)) for v in rec["re"]]
            rec["im"] = [str(-int(v)) for v in rec["im"]]

        _rewrite_line(path, 1 + 4, negate)
        capsys.readouterr()
        assert run_cli("check", str(path)) == EXIT_VIOLATION
        assert capsys.readouterr().out == "FAIL at step 4: update rule violated\n"

    @pytest.mark.parametrize("edit", [
        lambda head: head.update(l="-1"),
        lambda head: head.update(version=99),
        lambda head: head.update(l=10**400),  # past the float range
    ], ids=["negative-l", "unknown-version", "huge-int-l"])
    def test_bad_header_is_a_validation_error(self, tmp_path, edit):
        path = self.make_traj(tmp_path)
        _rewrite_line(path, 0, edit)
        assert run_cli("check", str(path)) == EXIT_VALIDATION
        with pytest.raises(ValueError):
            load_trajectory(path)

    @pytest.mark.parametrize("edit", [
        lambda rec: rec.pop("re"),
        lambda rec: rec.update(re=5),
    ], ids=["missing-re", "scalar-re"])
    def test_malformed_record_is_a_validation_error(self, tmp_path, capsys, edit):
        path = self.make_traj(tmp_path)
        _rewrite_line(path, 3, edit)
        assert run_cli("check", str(path)) == EXIT_VALIDATION
        assert "state record 2" in capsys.readouterr().err

    def test_out_of_order_record(self, tmp_path, capsys):
        path = self.make_traj(tmp_path)
        _rewrite_line(path, 3, lambda rec: rec.update(n=7))
        assert run_cli("check", str(path)) == EXIT_VALIDATION
        assert "out of order at n = 7" in capsys.readouterr().err

    # state 2 of the swap orbit is (1 - i, 0); each spelling below but "x"
    # denotes its real part 1, which int() accepts but the writer never emits
    @pytest.mark.parametrize("part", ["+1", " 1 ", "0_1", "01", "\u0661", "x"])
    def test_non_canonical_part_is_a_validation_error(self, tmp_path, capsys, part):
        path = self.make_traj(tmp_path)
        _rewrite_line(path, 3, lambda rec: rec["re"].__setitem__(0, part))
        assert run_cli("check", str(path)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{path}: state record 2 has parts that are not canonical decimal integers" in err

    def test_report_rows_carry_exact_link_weights(self, tmp_path):
        spec = make_cyclic_model(3)
        traj = evolve(E(1, (0, 2), 0), E((1, 1), 0, -1), build_hamiltonian(spec), 6)
        path, report = tmp_path / "t.jsonl", tmp_path / "r.csv"
        write_trajectory(spec, 1.0, traj, path)
        assert run_cli("check", str(path), "--report", str(report)) == EXIT_OK
        expected = ["n,q_re,q_im,L,L_1,L_2,L_3,w_1,w_2,w_3"]
        for n, (a, b) in enumerate(zip(traj, traj[1:])):
            per = [x1 * x0 + p1 * p0 for x0, p0, x1, p1 in zip(a.re, a.im, b.re, b.im)]
            total = sum(per)
            weights = [str(Fraction(la, total)) for la in per] if total else [""] * 3
            expected.append(",".join(map(str, [n, 2 * total, 0, total, *per, *weights])))
        assert report.read_text() == "\n".join(expected) + "\n"

    def test_report_matches_the_fraction_oracle(self, tmp_path):
        """The weight cells, written from reduced int pairs, read as
        str(Fraction(L_a, L)); test_import_contract shows no Fraction is built."""
        spec = make_cyclic_model(6)
        traj = evolve(E((1, 2), 0, 3, 0, (0, -1), 1), E(2, (1, 1), 1, 0, 1, -2), build_hamiltonian(spec), 30)
        assert q_G(traj[0], traj[1], GaussMatrix.identity(6)) == GaussInt(6)  # L = 3
        path, report = tmp_path / "t.jsonl", tmp_path / "r.csv"
        write_trajectory(spec, 1.0, traj, path)
        assert run_cli("check", str(path), "--report", str(report)) == EXIT_OK
        assert report.read_text() == report_oracle(traj)


class TestStrictModelEntries:
    def test_fractional_entry_rejected(self, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"dim": 2, "S": [[0, 0.5], [0.5, 0]], "A": [[0, 0], [0, 0]]}))
        assert run_cli("run", "--model", str(path), "--psi0", "1,0", "--psi1", "0,1",
                       "--steps", "3", "--probe") == EXIT_VALIDATION

    def test_float_in_flat_matrix_rejected(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"dim": 2, "S": [0, 1, 1.0, 0], "A": [0, 0, 0, 0]}))
        assert run_cli("run", "--model", str(path), "--psi0", "1,0", "--psi1", "0,1",
                       "--steps", "3", "--probe") == EXIT_VALIDATION
        assert "must be an integer" in capsys.readouterr().err


class TestCycleMerged:
    def test_single_pair_matches_full_scan(self, tmp_path):
        full, single = tmp_path / "all.csv", tmp_path / "k3.csv"
        assert run_cli("cycle", "--model", "Hm:9", "--out", str(full)) == EXIT_OK
        assert run_cli("cycle", "--model", "Hm:9", "--pair", "k=3", "--out", str(single)) == EXIT_OK
        header, *rows = full.read_text().splitlines()
        assert single.read_text().splitlines() == [header] + [r for r in rows if r.startswith("3,")]
        assert len(rows) == 8 * 36


class TestFileErrors:
    """A file that cannot be read or written exits 3; one read for an
    argument is named by the argument, and by its path when it is opened."""

    NO_FILE = "[Errno 2] No such file or directory: "

    @pytest.mark.parametrize("argv, message", [
        (["run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1", "--steps", "3",
          "--out", "{missing}/t.jsonl"], "out: " + NO_FILE),
        (["run", "--model", "{dir}", "--psi0", "1,0", "--psi1", "0,1", "--steps", "3"],
         "model: [Errno 21] Is a directory: "),
        (["cycle", "--model", "H3", "--out", "{missing}/c.csv"], "out: " + NO_FILE),
        (["continuum", "born", "--model", "H2", "--psi", "0.8,0.6", "--out", "{missing}/b.csv"], "out: " + NO_FILE),
        (["check", "{dir}/t.jsonl", "--g", "{dir}"], "G: [Errno 21] Is a directory: "),
        (["run", "--model", "H2", "--psi0", "@{dir}/v.json", "--psi1", "0,1", "--steps", "3", "--probe"],
         "psi0: {dir}/v.json: not valid JSON (Expecting value: line 1 column 1 (char 0))\n"),
    ], ids=["run-out", "run-model-dir", "cycle-out", "born-out", "check-g-dir", "run-psi0-not-json"])
    def test_unusable_path_is_a_validation_error(self, tmp_path, capsys, argv, message):
        write_swap_orbit(tmp_path / "t.jsonl")
        (tmp_path / "v.json").write_text("not JSON\n")
        argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
        assert run_cli(*argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(dir=tmp_path))
        assert "Traceback" not in err

    def test_model_name_too_long_for_a_path_names_the_argument(self, capsys):
        name = "m" * 5000
        assert run_cli("run", "--model", name, "--psi0", "1,0", "--psi1", "0,1", "--steps", "3") == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: model: [Errno 36] File name too long: {name!r}\n"

    def test_g_name_too_long_for_a_path_names_the_argument(self, tmp_path, capsys):
        write_swap_orbit(tmp_path / "t.jsonl")
        name = "g" * 5000
        assert run_cli("check", str(tmp_path / "t.jsonl"), "--g", name) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: G: [Errno 36] File name too long: {name!r}\n"


class TestStrictVectorFiles:
    @pytest.mark.parametrize("components", [
        [[1.5, 0], [True, 0]],
        [[1, 0], [True, 0]],
        [True, 0],
        [["3", 0], 0],
        [1.0, 0],
        [[1, 2, 3], 0],
    ], ids=repr)
    def test_non_integer_component_rejected(self, tmp_path, capsys, components):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(components))
        assert run_cli("run", "--model", "H2", "--psi0", f"@{path}", "--psi1", "0,1",
                       "--steps", "3", "--probe") == EXIT_VALIDATION
        assert "cannot interpret component" in capsys.readouterr().err

    def test_literals_pairs_and_integers_accepted(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(["1-i", [2, 3], 0]))
        out = tmp_path / "t.jsonl"
        assert run_cli("run", "--model", "H3", "--psi0", f"@{path}", "--psi1", "0,1,0",
                       "--steps", "2", "--out", str(out)) == EXIT_OK
        assert load_trajectory(out)[2][0] == E((1, -1), (2, 3), 0)


class TestDeeplyNestedJson:
    """JSON nested past the interpreter's recursion limit is a validation
    error that names the file (exit 3), not an internal error (exit 9)."""

    DEEP = "[" * 100_000

    @pytest.mark.parametrize("name, content, argv, prefix", [
        ("t.jsonl", DEEP + "\n", ["check", "{path}"], "trajectory: {path}: header is not JSON ("),
        ("m.json", '{"dim": 1, "S": ' + DEEP, ["run", "--model", "{path}", "--psi0", "1", "--psi1", "0",
                                               "--steps", "1", "--probe"], "model: {path}: not valid JSON ("),
        ("v.json", DEEP, ["run", "--model", "H2", "--psi0", "@{path}", "--psi1", "0,1", "--steps", "1",
                          "--probe"], "psi0: {path}: not valid JSON ("),
    ], ids=["check-header", "run-model", "run-psi0-file"])
    def test_nesting_past_the_recursion_limit_exits_3(self, tmp_path, capsys, name, content, argv, prefix):
        path = tmp_path / name
        path.write_text(content)
        assert run_cli(*[a.format(path=path) for a in argv]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: " + prefix.format(path=path))
        assert "recursion" in err and "internal error" not in err


class TestSampleTimes:
    @pytest.mark.parametrize("mode, window", [("sinh", "--windows"), ("q1", "--window")])
    def test_short_trajectory_rejected(self, capsys, mode, window):
        code = run_cli("continuum", mode, "--model", "H3", "--steps", "50", window, "32")
        assert code == EXIT_VALIDATION
        name = window.lstrip("-")
        assert capsys.readouterr().err == f"error: {name}: 2 * max({name}) + 3 = 67 is not below steps = 50\n"

    @pytest.mark.parametrize("mode", ["sinh", "q1"])
    def test_no_points_rejected(self, capsys, mode):
        assert run_cli("continuum", mode, "--model", "H3", "--points", "0") == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: points: must be an int >= 1, got 0\n"

    @pytest.mark.parametrize("mode, window", [("sinh", "--windows"), ("q1", "--window")])
    def test_smallest_run_still_valid(self, tmp_path, mode, window):
        out = tmp_path / f"{mode}.csv"
        assert run_cli("continuum", mode, "--model", "Hm:8", "--steps", "24", window, "8",
                       "--points", "1", "--tol", "0.02", "--out", str(out)) == EXIT_OK
        assert len(out.read_text().splitlines()) == 2


class TestNumericOptionRange:
    """Numeric options outside their range exit 3 instead of running on."""

    @pytest.mark.parametrize("horizon", ["-5", "inf"])
    def test_born_horizon_must_be_finite_and_positive(self, horizon, capsys):
        code = run_cli("continuum", "born", "--model", "H2", "--psi", "0.8,0.6",
                       f"--horizon={horizon}")
        assert code == EXIT_VALIDATION
        assert f"horizon: must be a finite float > 0, got {float(horizon)}" in capsys.readouterr().err

    def test_born_horizon_below_one_runs(self):
        assert run_cli("continuum", "born", "--model", "H2", "--psi", "0.8,0.6", "--horizon", "0.5",
                       "--l-values", "0.1") == EXIT_OK

    def test_closedform_negative_pairs_rejected(self, capsys):
        code = run_cli("continuum", "closedform", "--model", "H2", "--pairs", "-2", "--nmax", "5")
        assert code == EXIT_VALIDATION
        assert "pairs: must be an int >= 0, got -2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option", [
        (["closedform", "--seed", "-1"], "seed"),
        (["sinh", "--seed", "-1"], "seed"),
        (["q1", "--seed", "-1"], "seed"),
        (["born", "--seed", "-1"], "seed"),
        (["sinh", "--steps", "-1"], "steps"),
        (["q1", "--steps", "-1"], "steps"),
        (["closedform", "--nmax", "-1", "--pairs", "1"], "nmax"),
        (["closedform", "--nmax", "-1", "--pairs", "0"], "nmax"),
    ])
    def test_continuum_range_errors_name_their_option(self, capsys, argv, option):
        assert run_cli("continuum", argv[0], "--model", "H2", *argv[1:]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {option}: must be an int >= 0, got -1\n")

    @pytest.mark.parametrize("argv, message", [
        (["sinh", "--model", "Hm:8", "--windows=-4,16", "--steps", "200000"], "windows: must be an int >= 8, got -4"),
        (["sinh", "--windows", "4,16"], "windows: must be an int >= 8, got 4"),
        (["q1", "--window", "4"], "window: must be an int >= 8, got 4"),
        (["sinh", "--points", "0"], "points: must be an int >= 1, got 0"),
        (["q1", "--points", "0"], "points: must be an int >= 1, got 0"),
        (["sinh", "--steps", "20"], "windows: 2 * max(windows) + 3 = 131 is not below steps = 20"),
        (["sinh", "--windows", "8,16", "--steps", "34"], "windows: 2 * max(windows) + 3 = 35 is not below steps = 34"),
        (["q1", "--steps", "60"], "window: 2 * max(window) + 3 = 67 is not below steps = 60"),
        (["q1", "--window", "400"], "window: 2 * max(window) + 3 = 803 is not below steps = 400"),
        # windows past float range: (W + 2) * l would raise OverflowError, an internal error
        (["sinh", "--windows", "8," + "9" * 400], f"windows: 2 * max(windows) + 3 = {2 * 10**400 + 1} is not below steps = 400"),
        (["q1", "--window", "9" * 310], f"window: 2 * max(window) + 3 = {2 * 10**310 + 1} is not below steps = 400"),
        # steps past float range: (steps - 1 - W) * l would raise OverflowError; memory stops them first
        (["sinh", "--steps", "9" * 400], past_memory("steps", 10**400 + 1)),
        (["q1", "--steps", "9" * 400], past_memory("steps", 10**400 + 1)),
        (["sinh", "--points", str(10**17)], past_memory("points", 10**17)),
        # (2l)**2 past float range would raise OverflowError, and below it divide by 0
        (["q1", "--l", "1e300", "--steps", "100000"],
         "l: must be a finite float >= 7.46e-155 and <= 6.7e+153, got 1e+300"),
        (["q1", "--l", "1e-320"],
         "l: must be a finite float >= 7.46e-155 and <= 6.7e+153, got 1e-320"),
        (["sinh", "--l", "1e305", "--steps", "100000"],
         "l: (steps - 1 - min(windows)) * l = inf is not finite"),
        (["sinh", "--l", "0"], "l: must be a finite float > 0, got 0.0"),
        (["q1", "--l=-1"], "l: must be a finite float >= 7.46e-155 and <= 6.7e+153, got -1.0"),
        (["born", "--l-values=0.5,-0.1"], "l-values: must be a finite float > 0, got -0.1"),
        (["born", "--l-values", "0.1,0.2"], "l-values: must be strictly decreasing, got '0.1,0.2'"),
        (["born", "--l-values", "0.1,0.1"], "l-values: must be strictly decreasing, got '0.1,0.1'"),
    ], ids=["sinh-negative-window", "sinh-small-window", "q1-small-window", "sinh-points", "q1-points",
            "sinh-steps", "sinh-steps-second-window", "q1-steps", "q1-window-at-steps", "sinh-window-past-float-range",
            "q1-window-past-float-range", "sinh-steps-past-float-range", "q1-steps-past-float-range",
            "sinh-points-past-memory", "q1-l-square-past-float-range",
            "q1-l-square-below-float-range", "sinh-time-past-float-range", "sinh-l", "q1-l", "born-negative-l",
            "born-increasing-l", "born-repeated-l"])
    def test_continuum_option_errors_come_before_float_work(self, monkeypatch, capsys, argv, message):
        """Each of these names its option and exits 3 before the report evolves anything."""
        def no_float_work(*args, **kwargs):
            raise AssertionError("float work ran before the options were checked")

        monkeypatch.setattr(ct, "evolve_float", no_float_work)
        monkeypatch.setattr(ct, "born_convergence", no_float_work)
        if "--model" not in argv:
            argv = [argv[0], "--model", "H2", *argv[1:]]
        assert run_cli("continuum", *argv) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_cycle_budget_must_be_positive(self, capsys, budget):
        assert run_cli("cycle", "--model", "H3", "--budget", budget) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: budget: must be an int >= 1, got {budget}\n")

    def test_closedform_zero_pairs_still_runs(self):
        assert run_cli("continuum", "closedform", "--model", "H2", "--pairs", "0", "--nmax", "5") == EXIT_OK

    @pytest.mark.parametrize("mode", ["closedform", "q1"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, mode, tol):
        code = run_cli("continuum", mode, "--model", "H2", f"--tol={tol}")
        assert code == EXIT_VALIDATION
        assert f"tol: must be a finite float >= 0, got {float(tol)}" in capsys.readouterr().err

    @pytest.mark.parametrize("l", ["nan", "inf"])
    def test_run_l_must_be_finite(self, tmp_path, l):
        out = tmp_path / "t.jsonl"
        code = run_cli("run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1",
                       "--steps", "3", f"--l={l}", "--out", str(out))
        assert code == EXIT_VALIDATION
        assert not out.exists()


class TestLiteralSignsOnTheCommandLine:
    def test_two_numbers_are_not_one_component(self, capsys):
        code = run_cli("run", "--model", "H2", "--psi0", "1 2i, 0", "--psi1", "0,1", "--steps", "1")
        assert code == EXIT_VALIDATION
        assert "psi0" in capsys.readouterr().err

    def test_spaced_sign_joins_the_parts(self, tmp_path):
        spaced, packed = tmp_path / "spaced.jsonl", tmp_path / "packed.jsonl"
        for out, psi0 in ((spaced, "1 + i, 0"), (packed, "1+i,0")):
            assert run_cli("run", "--model", "H2", "--psi0", psi0, "--psi1", "0,1",
                           "--steps", "4", "--out", str(out)) == EXIT_OK
        assert spaced.read_bytes() == packed.read_bytes()


RUN_H2 = ["run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1"]
CLOSEDFORM_H2 = ["continuum", "closedform", "--model", "H2"]

#: (argv, option, kind) for each option that argparse reads as one int or float
NUMBER_OPTIONS = [
    (RUN_H2, "--steps", "int"),
    (RUN_H2 + ["--steps", "1"], "--l", "float"),
    (["cycle", "--model", "H2"], "--budget", "int"),
    *((CLOSEDFORM_H2, option, "int") for option in ("--seed", "--pairs", "--nmax", "--steps", "--window", "--points")),
    *((CLOSEDFORM_H2, option, "float") for option in ("--tol", "--l", "--horizon")),
]


class TestAsciiDigits:
    @pytest.mark.parametrize("argv, message", [
        (["run", "--model", "H2", "--psi0", "\u0661,0", "--psi1", "0,1", "--steps", "1"],
         "psi0: cannot parse Gaussian integer from '\u0661'"),
        (["run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,\uff11i", "--steps", "1"],
         "psi1: cannot parse Gaussian integer from '\uff11i'"),
        (["run", "--model", "H2", "--psi0", "@v.json", "--psi1", "0,1", "--steps", "1"],
         "psi0: cannot parse Gaussian integer from '\u0663'"),
        (["continuum", "sinh", "--model", "H2", "--windows", "\u0661\u0666,32"],
         "windows: expected comma-separated int values, got '\u0661\u0666,32'"),
        (["continuum", "born", "--model", "H2", "--psi", "\uff10.8,0.6"],
         "psi: expected comma-separated complex values, got '\uff10.8,0.6'"),
        (["continuum", "born", "--model", "H2", "--l-values", "0.2,\u0660.1"],
         "l-values: expected comma-separated float values, got '0.2,\u0660.1'"),
    ], ids=["psi0-arabic-indic", "psi1-fullwidth", "vector-file", "sinh-windows", "born-psi", "born-l-values"])
    def test_non_ascii_digits_exit_3(self, tmp_path, monkeypatch, capsys, argv, message):
        # int(), float() and complex() read these digits as 1, 16, 0.8, ...
        monkeypatch.chdir(tmp_path)
        (tmp_path / "v.json").write_text('["\u0663", 0]')
        assert run_cli(*argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["\u0661\u0660", "1_0"], ids=["arabic-indic", "underscore"])
    @pytest.mark.parametrize("argv, option, kind", NUMBER_OPTIONS,
                             ids=[f"{argv[0]}{option}" for argv, option, _ in NUMBER_OPTIONS])
    def test_number_option_is_a_usage_error(self, capsys, argv, option, kind, value):
        # argparse's type=int and type=float read both values as 10
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, option, value)
        assert exc.value.code == 2
        assert f"argument {option}: invalid {kind} value: {value!r}" in capsys.readouterr().err


class TestInternalError:
    @pytest.mark.parametrize("exc", [RuntimeError("boom"), AssertionError("broken invariant")],
                             ids=["RuntimeError", "AssertionError"])
    def test_uncaught_exception_exits_9_not_1(self, monkeypatch, capsys, exc):
        def broken(args, spec):
            raise exc

        monkeypatch.setattr(cli, "_cmd_cycle", broken)
        code = run_cli("cycle", "--model", "H3")
        assert code == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == f"error: internal error: {type(exc).__name__}: {exc}\n"


class TestValuesPastTheDigitLimit:
    """The CLI prints exact values of any size and restores the caller's
    int/str digit limit."""

    def grown_trajectory(self, tmp_path):
        big = 2**20_000 + 7
        spec = make_cyclic_model(2)
        traj = evolve(E((big, -(3**40_000)), 1), E(0, (3, big)), build_hamiltonian(spec), 4)
        path = tmp_path / "big.jsonl"
        write_trajectory(spec, 1.0, traj, path)
        return traj, path

    def test_check_prints_the_full_q_G(self, tmp_path, capsys, digit_limit):
        traj, path = self.grown_trajectory(tmp_path)
        q = q_G(traj[0], traj[1], build_hamiltonian(make_cyclic_model(2)))
        assert run_cli("check", str(path), "--g", "hamiltonian", "--report", str(tmp_path / "r.csv")) == EXIT_OK
        assert sys.get_int_max_str_digits() == digit_limit
        out = capsys.readouterr().out
        sys.set_int_max_str_digits(0)
        assert out.startswith(f"OK: q_G = {q} constant over 5 pairs")
        assert len(str(q)) > 4300

    def test_check_names_a_grown_violation(self, tmp_path, capsys, digit_limit):
        _, path = self.grown_trajectory(tmp_path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[-1])
        rec["re"][1] = rec["re"][1][:-1] + str((int(rec["re"][1][-1]) + 1) % 10)
        path.write_text("\n".join(lines[:-1] + [json.dumps(rec, sort_keys=True, separators=(",", ":"))]) + "\n")
        assert run_cli("check", str(path), "--g", "hamiltonian") == EXIT_VIOLATION
        assert sys.get_int_max_str_digits() == digit_limit
        assert capsys.readouterr().out.startswith("FAIL at step 4: q_G changed from ")

    def test_probe_prints_q1_of_a_5000_digit_literal(self, capsys, digit_limit):
        literal = "1" * 5000 + ",0"
        assert run_cli("run", "--model", "H2", "--psi0", literal, "--psi1", literal, "--steps", "2", "--probe") == EXIT_OK
        assert sys.get_int_max_str_digits() == digit_limit
        sys.set_int_max_str_digits(0)
        assert f"q1 = {2 * ((10**5000 - 1) // 9) ** 2}," in capsys.readouterr().out


def record_forks(monkeypatch, cpus: int) -> list[int]:
    """Let the process run on `cpus` CPUs; the pid of each process it forks from now on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    real, pids = os.fork, []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def patch_q1(monkeypatch, fake) -> None:
    """`run` calls `fake` for q1: for its starting value (in hamca.cli) and on each pair (in hamca.probe)."""
    monkeypatch.setattr(cli, "q1", fake)
    monkeypatch.setattr(probe, "q1", fake)


@pytest.fixture
def one_cpu(monkeypatch):
    """`run --probe` forks no helper: it checks every pair itself."""
    return record_forks(monkeypatch, 1)


@pytest.fixture
def two_cpus(monkeypatch):
    """`run --probe` may fork a helper; the pid of each process forked."""
    return record_forks(monkeypatch, 2)


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestProbeDrift:
    def test_corrupted_state_is_named_and_exits_4(self, monkeypatch, capsys):
        import hamca.dynamics as dynamics

        real = dynamics.step_forward
        made = []

        def corrupting(prev, curr, H):
            made.append(real(prev, curr, H))
            # psi_4 doubled: q1 of the pair (psi_3, psi_4) goes from 2 to 4
            return scaled(made[-1], 2) if len(made) == 3 else made[-1]

        monkeypatch.setattr(dynamics, "step_forward", corrupting)
        code = run_cli("run", "--model", "H2", "--psi0", "1,0", "--psi1", "1,0", "--steps", "6", "--probe")
        assert code == EXIT_VIOLATION
        assert capsys.readouterr().out.splitlines()[-1] == "probe: conservation drift first seen at pair 3"

    def test_every_pair_is_checked(self, monkeypatch, capsys, one_cpu):
        real = cli.q1
        calls = []
        patch_q1(monkeypatch, lambda a, b: calls.append((a, b)) or real(a, b))
        assert run_cli("run", "--model", "H2", "--psi0", "1,0", "--psi1", "1,1", "--steps", "5", "--probe") == EXIT_OK
        # the starting value, then each of the steps + 1 pairs
        assert len(calls) == 1 + (5 + 1)
        assert "pairs checked = 6" in capsys.readouterr().out

    ARGS = ("run", "--model", "Hm:4", "--psi0", "1,0,i,0", "--psi1", "1,1-i,0,2", "--steps", "7", "--out", "t.jsonl")

    def test_run_without_probe_computes_no_q1(self, monkeypatch, tmp_path, capsys, one_cpu):
        real = cli.q1
        calls = []
        patch_q1(monkeypatch, lambda a, b: calls.append((a, b)) or real(a, b))
        monkeypatch.chdir(tmp_path)
        assert run_cli(*self.ARGS) == EXIT_OK
        assert calls == []
        assert capsys.readouterr().out == "wrote 9 states to t.jsonl\n"
        # the same run with the probe: its bytes as before, q1 once per pair and once to start
        assert run_cli(*self.ARGS, "--probe") == EXIT_OK
        assert len(calls) == 1 + (7 + 1)
        assert capsys.readouterr().out == "probe: q1 = 2, L = 1, pairs checked = 8\nwrote 9 states to t.jsonl\n"


class TestProbeHelper:
    """`run --probe` with two CPUs forks a helper that checks the odd pairs;
    the command prints, writes and exits as it does with one CPU, and leaves
    no process behind."""

    ARGS = ("run", "--model", "Hm:4", "--psi0", "1,0,i,0", "--psi1", "1,1-i,0,2", "--probe")
    STATES = evolve(serialization.parse_gauss_vector(ARGS[4]), serialization.parse_gauss_vector(ARGS[6]),
                    build_hamiltonian(make_cyclic_model(4)), 9)

    def plant(self, monkeypatch, drifting):
        """q1 is one too large on each pair in `drifting`, in this process
        and in its helper (not pair 0, which also gives the starting value)."""
        pairs = list(zip(self.STATES, self.STATES[1:]))
        assert len(set(pairs)) == len(pairs)
        bad = {pairs[k] for k in drifting}
        real = cli.q1
        patch_q1(monkeypatch, lambda a, b: real(a, b) + ((a, b) in bad))

    @pytest.mark.parametrize("drifting, first", [({4, 7}, 4), ({5, 8}, 5)], ids=["even", "odd"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_drift_is_named_by_either_process(self, monkeypatch, tmp_path, capsys, drifting, first, cpus):
        self.plant(monkeypatch, drifting)
        forked = record_forks(monkeypatch, cpus)
        monkeypatch.chdir(tmp_path)
        assert run_cli(*self.ARGS, "--steps", "9", "--out", "t.jsonl") == EXIT_VIOLATION
        assert len(forked) == cpus - 1
        assert capsys.readouterr() == ("probe: q1 = 2, L = 1, pairs checked = 10\n"
                                       f"probe: conservation drift first seen at pair {first}\n", "")
        assert load_trajectory(tmp_path / "t.jsonl")[2] == self.STATES
        assert no_child_left()

    @pytest.mark.parametrize("steps, helpers", [("0", 0), ("1", 1), ("9", 1)])
    def test_a_helper_for_two_pairs_or_more(self, two_cpus, capsys, steps, helpers):
        assert run_cli(*self.ARGS, "--steps", steps) == EXIT_OK
        assert len(two_cpus) == helpers
        assert capsys.readouterr().out == f"probe: q1 = 2, L = 1, pairs checked = {int(steps) + 1}\n"
        assert no_child_left()

    def test_a_failed_fork_checks_every_pair_here(self, monkeypatch, capsys):
        self.plant(monkeypatch, {5})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert run_cli(*self.ARGS, "--steps", "9") == EXIT_VIOLATION
        assert capsys.readouterr().out.endswith("probe: conservation drift first seen at pair 5\n")

    def test_unwritable_out_forks_no_helper(self, two_cpus, tmp_path, capsys):
        # the helper is forked only once --out is open
        out = tmp_path / "missing" / "x.jsonl"
        assert run_cli(*self.ARGS, "--steps", "9", "--out", str(out)) == EXIT_VALIDATION
        assert two_cpus == []
        assert capsys.readouterr().err.startswith("error: out: [Errno 2] No such file or directory")
        assert no_child_left()

    def test_out_is_the_same_with_a_helper(self, monkeypatch, tmp_path, capsys):
        """The helper inherits the open file with the header in its buffer,
        and never flushes it: the file is byte-identical with one CPU."""
        monkeypatch.chdir(tmp_path)
        written = []
        for cpus in (1, 2):
            forked = record_forks(monkeypatch, cpus)
            assert run_cli(*self.ARGS, "--steps", "9", "--out", f"{cpus}.jsonl") == EXIT_OK
            assert len(forked) == cpus - 1
            written.append((tmp_path / f"{cpus}.jsonl").read_bytes())
        assert written[0] == written[1]
        assert load_trajectory(tmp_path / "2.jsonl")[2] == self.STATES
        assert capsys.readouterr().out == "".join(
            f"probe: q1 = 2, L = 1, pairs checked = 10\nwrote 11 states to {cpus}.jsonl\n" for cpus in (1, 2))
        assert no_child_left()

    def test_a_failing_helper_is_an_internal_error(self, two_cpus, monkeypatch, capsys):
        parent, real = os.getpid(), cli.q1
        patch_q1(monkeypatch, lambda a, b: real(a, b) if os.getpid() == parent else 1 // 0)
        assert run_cli(*self.ARGS, "--steps", "9") == EXIT_INTERNAL
        assert capsys.readouterr() == (
            "", f"error: internal error: RuntimeError: probe helper exited with status {EXIT_INTERNAL}\n")
        assert no_child_left()

    def test_a_helper_that_sends_nothing_is_an_internal_error(self, two_cpus, monkeypatch, capsys):
        parent, real = os.getpid(), os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real(fd, data) if os.getpid() == parent else len(data))
        assert run_cli(*self.ARGS, "--steps", "9") == EXIT_INTERNAL
        assert capsys.readouterr() == ("", "error: internal error: RuntimeError: probe helper sent no result\n")
        assert no_child_left()

    def test_the_parent_raising_kills_and_reaps_the_helper(self, monkeypatch):
        class Planted(Exception):
            pass

        monkeypatch.setattr(probe, "_cpus", lambda: 2)
        forked = record_forks(monkeypatch, 2)
        parent, failure = os.getpid(), Planted("the parent's states fail")

        def states():  # the helper reads its own copy to the end
            for n, psi in enumerate(self.STATES):
                if n == 3 and os.getpid() == parent:
                    raise failure
                yield psi

        with pytest.raises(Planted) as caught:
            probe.first_drift(states(), 2, len(self.STATES) - 1)
        assert caught.value is failure
        assert len(forked) == 1
        with pytest.raises(ChildProcessError):  # killed and reaped: not even a zombie is left
            os.waitpid(forked[0], os.WNOHANG)

    def test_the_helper_dies_with_the_command(self, tmp_path):
        """SIGKILL the command in the middle of a long probe: its helper is
        gone, or a zombie, within 2 s."""
        if not hasattr(os, "fork") or probe._cpus() < 2:
            pytest.skip("no helper: fork is missing or the process may run on one CPU")
        m = 8
        model = tmp_path / "tridiag121.json"
        S = [[2 if i == j else int(abs(i - j) == 1) for j in range(m)] for i in range(m)]
        save_model(HamiltonianSpec(m, S, [[0] * m for _ in range(m)], "tridiag121"), model)
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        psi = ",".join(["1"] + ["0"] * (m - 1))
        proc = subprocess.Popen([sys.executable, "-m", "hamca.cli", "run", "--model", str(model), "--psi0", psi,
                                 "--psi1", psi, "--steps", "100000", "--probe"], env=env, stdout=subprocess.DEVNULL)
        try:
            children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            deadline = time.monotonic() + 30
            while not (helpers := children.read_text().split()):
                assert proc.poll() is None and time.monotonic() < deadline, "no helper was forked"
                time.sleep(0.01)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        stat = Path(f"/proc/{helpers[0]}/stat")
        deadline = time.monotonic() + 2
        while True:
            try:
                state = stat.read_text().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                break
            if state == "Z":
                break
            assert time.monotonic() < deadline, f"helper {helpers[0]} still running (state {state})"
            time.sleep(0.01)


class TestInputChecksExit3:
    """Each check exits 3 with a message naming the input at fault."""

    RUN_MODEL = ["run", "--model", "{path}", "--psi0", "1,0", "--psi1", "0,1", "--steps", "1"]

    @pytest.mark.parametrize("name, content, argv, message", [
        ("t.jsonl", '{"l":"1","version":1}\n', ["check", "{path}"],
         "trajectory: {path}: not a trajectory file (missing format marker)"),
        ("t.jsonl", '{"format":"hamca-trajectory","l":"1","version":1}\n', ["check", "{path}"],
         "trajectory: {path}: header has no model object"),
        ("m.json", '{"dim": 2, "S": [[0, 1], [1]], "A": [[0, 0], [0, 0]]}\n', RUN_MODEL,
         "model: {path}: S must be 2x2, got a row of length 1"),
        ("m.json", '{"dim": 2, "S": [0, 1, 1], "A": [0, 0, 0, 0]}\n', RUN_MODEL,
         "model: {path}: flat matrix needs 4 entries, got 3"),
    ], ids=["trajectory-without-format-marker", "trajectory-without-model", "model-row-length", "flat-matrix-size"])
    def test_malformed_file_names_the_file(self, tmp_path, capsys, name, content, argv, message):
        path = tmp_path / name
        path.write_text(content)
        assert run_cli(*[a.format(path=path) for a in argv]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize("g", ["missing", "malformed", "wrong_dim"])
    def test_check_g_file(self, tmp_path, capsys, g):
        path = tmp_path / "t.jsonl"
        write_swap_orbit(path)
        gfile = tmp_path / "g.json"
        if g == "malformed":
            gfile.write_text("{not json")
        elif g == "wrong_dim":
            save_model(make_cyclic_model(3), gfile)
        assert run_cli("check", str(path), "--g", str(gfile)) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: G: ")

    @pytest.mark.parametrize("pair", ["k=x", "k=0", "k=3"])
    def test_cycle_neighbour_pair_index(self, capsys, pair):
        assert run_cli("cycle", "--model", "H3", "--pair", pair) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: pair: ")

    @pytest.mark.parametrize("argv, message", [
        (("--model", "Hm:1_0"), "model: no built-in named 'Hm:1_0' and no such file"),
        (("--model", "Hm:+4"), "model: no built-in named 'Hm:+4' and no such file"),
        (("--model", "Hm: 5"), "model: no built-in named 'Hm: 5' and no such file"),
        (("--model", "Hm:\u0664"), "model: no built-in named 'Hm:\u0664' and no such file"),
        (("--model", "Hm:05"), "model: no built-in named 'Hm:05' and no such file"),
        (("--model", "Hm:12", "--pair", "k=1_0"), "pair: cannot parse 'k=1_0'"),
        (("--model", "Hm:12", "--pair", "k=+3"), "pair: cannot parse 'k=+3'"),
        (("--model", "Hm:12", "--pair", "k= 3"), "pair: cannot parse 'k= 3'"),
        (("--model", "Hm:12", "--pair", "k=03"), "pair: cannot parse 'k=03'"),
        (("--model", "Hm:12", "--pair", "k=\u0663"), "pair: cannot parse 'k=\u0663'"),
    ], ids=["label-underscore", "label-sign", "label-space", "label-arabic-digit", "label-leading-zero",
            "pair-underscore", "pair-sign", "pair-space", "pair-leading-zero", "pair-arabic-digit"])
    def test_cycle_numbers_are_canonical_ascii(self, tmp_path, monkeypatch, capsys, argv, message):
        # 0|[1-9][0-9]* only: int() would read each of these as a number
        monkeypatch.chdir(tmp_path)
        assert run_cli("cycle", *argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_cycle_explicit_pair_needs_psi1(self, capsys):
        assert run_cli("cycle", "--model", "H2", "--pair", "1,0") == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: pair: ")

    def test_cycle_all_pairs_of_a_1_state_model(self, tmp_path, capsys):
        # --pair all scans no pair at m = 1: an error, not a silent exit 0
        path = tmp_path / "one.json"
        save_model(HamiltonianSpec(1, [[1]], [[0]], "one"), path)
        out = tmp_path / "cycles.csv"
        assert run_cli("cycle", "--model", str(path), "--out", str(out)) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: a 1-state model has no neighbour pair\n")
        assert not out.exists()

    @pytest.mark.parametrize("k", ["1", "0", "2"])
    def test_cycle_one_pair_of_a_1_state_model(self, tmp_path, capsys, k):
        # not "k must be in 1..0": the range is empty, so the model is named
        path = tmp_path / "one.json"
        save_model(HamiltonianSpec(1, [[1]], [[0]], "one"), path)
        assert run_cli("cycle", "--model", str(path), "--pair", f"k={k}") == EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: a 1-state model has no neighbour pair\n")

    @pytest.mark.parametrize("mode, option, value, message", [
        ("born", "--l-values", "nan", "l-values: must be a finite float > 0, got nan"),
        ("born", "--l-values", "0.2,inf", "l-values: must be a finite float > 0, got inf"),
        ("born", "--l-values", ",", "l-values: expected comma-separated float values, got ','"),
        ("sinh", "--l", "nan", "l: must be a finite float > 0, got nan"),
        ("sinh", "--l", "inf", "l: must be a finite float > 0, got inf"),
        ("q1", "--l", "inf", "l: must be a finite float >= 7.46e-155 and <= 6.7e+153, got inf"),
        ("sinh", "--windows", ",,", "windows: expected comma-separated int values, got ',,'"),
        ("sinh", "--windows", "16,1_6,32", "windows: expected comma-separated int values, got '16,1_6,32'"),
        ("sinh", "--windows", "64,32,16", "windows: must be strictly increasing, got '64,32,16'"),
        ("sinh", "--windows", "16,16,32", "windows: must be strictly increasing, got '16,16,32'"),
        ("born", "--l-values", "0.2,0_1", "l-values: expected comma-separated float values, got '0.2,0_1'"),
        ("born", "--psi", "x,1", "psi: expected comma-separated complex values, got 'x,1'"),
        ("born", "--psi", "1_0,0", "psi: expected comma-separated complex values, got '1_0,0'"),
        ("born", "--psi", "1,0,0", "psi: has 3 components, model needs 2"),
        ("born", "--psi1", "y,1", "psi1: expected comma-separated complex values, got 'y,1'"),
        ("born", "--psi1", "1", "psi1: has 1 components, model needs 2"),
        ("born", "--psi", "nan,0", "psi: components must be finite, got 'nan,0'"),
        ("born", "--psi1", "inf,0", "psi1: components must be finite, got 'inf,0'"),
        ("born", "--psi", "0,0", "psi: must be a nonzero state, got '0,0'"),
        ("born", "--l-values", "1e-320", "horizon: horizon / min(l-values) = inf is not finite"),
    ], ids=["born-nan", "born-inf", "born-empty", "sinh-nan", "sinh-inf", "q1-inf", "sinh-empty-windows",
            "sinh-underscored-window", "sinh-decreasing-windows", "sinh-repeated-window", "born-underscored-l",
            "born-psi-malformed", "born-psi-underscored", "born-psi-length", "born-psi1-malformed",
            "born-psi1-length", "born-psi-nan", "born-psi1-inf", "born-psi-zero",
            "born-steps-past-float-range"])
    def test_float_layer_scales_and_lists(self, capsys, mode, option, value, message):
        assert run_cli("continuum", mode, "--model", "H2", option, value) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("l", ["nan", "inf", "0"])
    def test_run_scale_must_be_finite_and_positive(self, capsys, l):
        assert run_cli("run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1", "--steps", "1",
                       "--l", l, "--probe") == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: l: must be a finite float > 0, got {float(l)}\n"

    def test_run_negative_steps(self, capsys):
        assert run_cli("run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1", "--steps", "-1") == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: steps: must be an int >= 0, got -1\n"

    def test_no_page_count_sets_no_memory_limit(self, monkeypatch, capsys):
        def sysconf(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(os, "sysconf", sysconf)
        assert cli._memory_bytes() == sys.maxsize
        assert run_cli("continuum", "closedform", "--model", "H2", "--pairs", "2", "--nmax", "10") == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_seed_is_unused_and_unchecked_with_psi(self):
        assert run_cli("continuum", "born", "--model", "H2", "--psi", "0.8,0.6", "--seed", "-1") == EXIT_OK

    def test_a_size_past_memory_exits_3(self, capsys):
        # about 2.8 EiB and 28 PiB of states, past any 64-bit address space:
        # an input too large, not an internal error, and the message names it
        assert run_cli("continuum", "closedform", "--model", "H2", "--pairs", "1",
                       "--nmax", "100000000000000000") == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {past_memory('nmax', 10**17 + 2)}\n")
        assert run_cli("continuum", "born", "--model", "H2", "--psi", "0.8,0.6", "--horizon", "1e12",
                       "--l-values", "1e-3") == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {past_memory('horizon', round(1e12 / 1e-3) + 2)}\n")
