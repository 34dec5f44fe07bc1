"""Untraced launcher for one `hamca` command that records the command's own peak memory.

    PYTHONPATH=src python3 perfbench/launch.py PEAK_OUT -- run --model H2 ...

It runs ``hamca.cli`` as ``python -m hamca.cli`` does (module run as
``__main__``, the working directory first on ``sys.path``) and, when the
command ends, writes the process's peak resident set in KiB to PEAK_OUT.
The exit code is the command's own.

The peak is ``VmHWM`` from ``/proc/self/status``: Linux gives a process a new
memory map at exec, so it counts this command alone.  The ``ru_maxrss`` a
parent reads from ``wait4`` does not: at exec the kernel folds the peak of the
process that spawned the child into it, which puts the benchmark's own memory
under every command.  Where ``/proc`` is missing the launcher falls back to
``ru_maxrss`` of itself, which carries that floor.
"""

from __future__ import annotations

import os
import resource
import runpy
import sys


def peak_kib() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: launch.py PEAK_OUT -- <hamca arguments>", file=sys.stderr)
        sys.exit(2)
    peak_out = sys.argv[1]
    sys.argv = [sys.argv[0], *sys.argv[3:]]
    sys.path[0] = os.getcwd()
    try:
        runpy.run_module("hamca.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(peak_out, "w") as fh:
            fh.write(f"{peak_kib()}\n")


if __name__ == "__main__":
    main()
