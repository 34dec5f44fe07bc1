"""Every output is written to a fresh `<path>.tmp` and renamed into place.

A failed write leaves an existing file as it was and no `.tmp` behind;
devices, symlinks and hard links are written in place.
"""

import os
import stat

import pytest

from hamca.cli import EXIT_OK, EXIT_VALIDATION, main
from hamca.dynamics import evolve
from hamca.gaussian import GaussVector
from hamca.models import build_hamiltonian, make_cyclic_model
from hamca.serialization import TrajectoryWriter, output_file
from oracles import write_trajectory

E = GaussVector.of
RUN = ["run", "--model", "H2", "--psi0", "1,0", "--psi1", "0,1"]


def run_out(path, steps=6):
    return main(RUN + ["--steps", str(steps), "--out", str(path)])


def listing(directory):
    return sorted(p.name for p in directory.iterdir())


class TestHelper:
    def test_rewrite_gives_the_bytes_of_a_new_file(self, tmp_path):
        spec = make_cyclic_model(2)
        traj = evolve(E(1, 0), E(0, 1), build_hamiltonian(spec), 9)
        new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
        old.write_text("an older, longer file\n" * 100)
        write_trajectory(spec, 1.0, traj, new)
        write_trajectory(spec, 1.0, traj, old)
        assert old.read_bytes() == new.read_bytes()
        assert listing(tmp_path) == ["new.jsonl", "old.jsonl"]

    def test_the_name_appears_only_when_the_block_ends(self, tmp_path):
        path = tmp_path / "out.txt"
        with output_file(path) as fh:
            fh.write("text\n")
            fh.flush()
            assert listing(tmp_path) == ["out.txt.tmp"]
        assert listing(tmp_path) == ["out.txt"]
        assert path.read_text() == "text\n"

    @pytest.mark.parametrize("existing", [True, False])
    def test_an_exception_leaves_no_trace(self, tmp_path, existing):
        path = tmp_path / "out.txt"
        if existing:
            path.write_text("old\n")
        with pytest.raises(KeyError):
            with output_file(path) as fh:
                fh.write("new\n")
                raise KeyError("stop")
        assert listing(tmp_path) == (["out.txt"] if existing else [])
        if existing:
            assert path.read_text() == "old\n"

    def test_a_rewrite_keeps_the_file_mode(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        path.chmod(0o640)
        with output_file(path) as fh:
            fh.write("new\n")
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_text() == "new\n"

    def test_a_hard_link_is_written_in_place(self, tmp_path):
        path, other = tmp_path / "out.txt", tmp_path / "other.txt"
        path.write_text("old\n")
        os.link(path, other)
        with output_file(path) as fh:
            fh.write("new\n")
        assert other.read_text() == "new\n"
        assert os.path.samefile(path, other)

    def test_a_file_it_may_not_write_is_opened_in_place(self, tmp_path, monkeypatch):
        """A read-only file is not replaced: the in-place open fails as
        before (the test runs as any user, so it fakes the permission)."""
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        inode = path.stat().st_ino
        opened = []

        def refuse(p, *args, **kwargs):
            opened.append(p)
            raise PermissionError(p)

        monkeypatch.setattr(os, "access", lambda p, mode: False)
        monkeypatch.setattr("builtins.open", refuse)
        with pytest.raises(PermissionError):
            with output_file(path):
                pass
        assert opened == [str(path)]
        assert path.stat().st_ino == inode and path.read_text() == "old\n"


class TestCommandLine:
    def test_failed_run_keeps_the_old_file(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "t.jsonl"
        assert run_out(path) == EXIT_OK
        before = path.read_bytes()
        write_state = TrajectoryWriter.write_state

        def failing(self, psi):
            if self.states_written == 3:
                raise OSError("no space left on device")
            write_state(self, psi)

        monkeypatch.setattr(TrajectoryWriter, "write_state", failing)
        assert run_out(path, steps=40) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: no space left on device\n"
        assert path.read_bytes() == before
        assert listing(tmp_path) == ["t.jsonl"]

    def test_failed_check_keeps_the_old_report(self, tmp_path, capsys):
        traj, report = tmp_path / "t.jsonl", tmp_path / "r.csv"
        assert run_out(traj, steps=20) == EXIT_OK
        assert main(["check", str(traj), "--report", str(report)]) == EXIT_OK
        before = report.read_bytes()
        lines = traj.read_text().splitlines()
        lines[15] = lines[15].replace('"re":[', '"re":["x",', 1)
        traj.write_text("\n".join(lines) + "\n")
        assert main(["check", str(traj), "--report", str(report)]) == EXIT_VALIDATION
        assert "state record 14" in capsys.readouterr().err
        assert report.read_bytes() == before
        assert listing(tmp_path) == ["r.csv", "t.jsonl"]

    def test_dev_null(self, capsys, monkeypatch):
        # a helper that renamed onto /dev/null would replace the device
        # itself: refuse that here, so the test fails without doing it
        for name in ("unlink", "rename", "replace"):
            real = getattr(os, name)

            def guarded(*paths, real=real):
                if os.devnull in map(os.fspath, paths):
                    raise AssertionError(f"os.{real.__name__} on {os.devnull}")
                return real(*paths)

            monkeypatch.setattr(os, name, guarded)
        assert run_out(os.devnull) == EXIT_OK
        assert capsys.readouterr().out == f"wrote 8 states to {os.devnull}\n"
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_text("old\n")
        link.symlink_to(target.name)
        assert run_out(link) == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == target.name
        assert run_out(tmp_path / "plain.jsonl") == EXIT_OK
        assert target.read_bytes() == (tmp_path / "plain.jsonl").read_bytes()

    @pytest.mark.parametrize("argv", [
        RUN + ["--steps", "3", "--out", "{missing}/t.jsonl"],
        ["cycle", "--model", "H3", "--out", "{missing}/c.csv"],
        ["check", "{traj}", "--report", "{missing}/r.csv"],
        ["continuum", "born", "--model", "H2", "--psi", "0.8,0.6", "--out", "{missing}/b.csv"],
    ], ids=["run-out", "cycle-out", "check-report", "born-out"])
    def test_missing_directory_is_a_validation_error(self, tmp_path, capsys, argv):
        traj = tmp_path / "t.jsonl"
        assert run_out(traj) == EXIT_OK
        argv = [a.format(missing=tmp_path / "missing", traj=traj) for a in argv]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert listing(tmp_path) == ["t.jsonl"]

    @pytest.mark.parametrize("argv", [
        RUN + ["--steps", "3", "--out", "{out}"],
        ["check", "{traj}", "--report", "{out}"],
    ], ids=["run-out", "check-report"])
    def test_a_failed_open_names_the_path_given(self, tmp_path, capsys, argv):
        traj, out = tmp_path / "t.jsonl", tmp_path / "missing" / "x.out"
        assert run_out(traj) == EXIT_OK
        capsys.readouterr()
        assert main([a.format(out=out, traj=traj) for a in argv]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {argv[-2][2:]}: [Errno 2] No such file or directory: '{out}'\n"
