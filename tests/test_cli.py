import json
from fractions import Fraction

import pytest

from hamca.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_ONTOLOGICAL,
    EXIT_SINGULAR,
    EXIT_TOLERANCE,
    EXIT_VALIDATION,
    EXIT_VIOLATION,
    main,
)
from hamca.dynamics import evolve
from hamca.gaussian import GaussVector
from hamca.models import make_cyclic_model
from hamca.serialization import load_trajectory, save_model, write_trajectory

E = GaussVector.of


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_two_state_run_matches_exact_layer(self, tmp_path, capsys):
        out = tmp_path / "traj.jsonl"
        code = run_cli(
            "run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1",
            "--steps", "6", "--out", str(out),
        )
        assert code == EXIT_OK
        traj = load_trajectory(out)
        expected = evolve(E(1, 0), E(0, 1), make_cyclic_model(2), 6)
        assert list(traj) == list(expected)
        assert len(traj) == 8

    def test_zero_steps_writes_two_records(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code = run_cli("run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1",
                       "--steps", "0", "--out", str(out))
        assert code == EXIT_OK
        assert sum(1 for _ in open(out)) == 1 + 2  # header + two states

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
        traj = load_trajectory(out)
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
        traj = evolve(E(3, (1, -2), 0, (0, 5)), E((2, 2), -1, 4, 0), spec, 2000)
        path = tmp_path / "h4.jsonl"
        write_trajectory(traj, path)
        assert run_cli("check", str(path), "--g", "hamiltonian") == EXIT_OK


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
    ], ids=["negative-l", "unknown-version"])
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
        traj = evolve(E(1, (0, 2), 0), E((1, 1), 0, -1), make_cyclic_model(3), 6)
        path, report = tmp_path / "t.jsonl", tmp_path / "r.csv"
        write_trajectory(traj, path)
        assert run_cli("check", str(path), "--report", str(report)) == EXIT_OK
        expected = ["n,q_re,q_im,L,L_1,L_2,L_3,w_1,w_2,w_3"]
        for n, a, b in traj.pairs():
            per = [x1 * x0 + p1 * p0 for x0, p0, x1, p1 in zip(a.re, a.im, b.re, b.im)]
            total = sum(per)
            weights = [str(Fraction(la, total)) for la in per] if total else [""] * 3
            expected.append(",".join(map(str, [n, 2 * total, 0, total, *per, *weights])))
        assert report.read_text() == "\n".join(expected) + "\n"


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
    @pytest.mark.parametrize("argv", [
        ["run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1", "--steps", "3",
         "--out", "{missing}/t.jsonl"],
        ["run", "--model", "{dir}", "--psi0", "1,0", "--psi1", "0,1", "--steps", "3"],
        ["cycle", "--model", "H3", "--out", "{missing}/c.csv"],
        ["continuum", "born", "--model", "H2", "--psi", "0.8,0.6", "--out", "{missing}/b.csv"],
    ], ids=["run-out", "run-model-dir", "cycle-out", "born-out"])
    def test_unusable_path_is_a_validation_error(self, tmp_path, capsys, argv):
        argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
        assert run_cli(*argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


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
        assert load_trajectory(out)[0] == E((1, -1), (2, 3), 0)


class TestSampleTimes:
    @pytest.mark.parametrize("mode, window", [("sinh", "--windows"), ("q1", "--window")])
    def test_short_trajectory_rejected(self, capsys, mode, window):
        code = run_cli("continuum", mode, "--model", "H3", "--steps", "50", window, "32")
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: steps=50 too short for window 32\n"

    @pytest.mark.parametrize("mode", ["sinh", "q1"])
    def test_no_points_rejected(self, capsys, mode):
        assert run_cli("continuum", mode, "--model", "H3", "--points", "0") == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: points must be >= 1, got 0\n"

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
        assert "horizon must be a finite positive number" in capsys.readouterr().err

    def test_closedform_negative_pairs_rejected(self, capsys):
        code = run_cli("continuum", "closedform", "--model", "H2", "--pairs", "-2", "--nmax", "5")
        assert code == EXIT_VALIDATION
        assert "pairs must be >= 0" in capsys.readouterr().err

    def test_closedform_zero_pairs_still_runs(self):
        assert run_cli("continuum", "closedform", "--model", "H2", "--pairs", "0", "--nmax", "5") == EXIT_OK

    @pytest.mark.parametrize("mode", ["closedform", "q1"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, mode, tol):
        code = run_cli("continuum", mode, "--model", "H2", f"--tol={tol}")
        assert code == EXIT_VALIDATION
        assert f"tol must be a finite number >= 0, got {float(tol)}" in capsys.readouterr().err

    @pytest.mark.parametrize("l", ["nan", "inf"])
    def test_run_l_must_be_finite(self, tmp_path, l):
        out = tmp_path / "t.jsonl"
        code = run_cli("run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1",
                       "--steps", "3", f"--l={l}", "--out", str(out))
        assert code == EXIT_VALIDATION
        assert not out.exists()
