"""The pair checks of `hamca run` and the helper process that shares them;
no other command compiles this module."""

from __future__ import annotations

import os

from .conservation import q1


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _check_pairs(states, q_start: int | None, pairs: range, writer=None, parent: int | None = None) -> int | None:
    """Consume `states`, write each to `writer` if given, and check q1 on each
    pair in `pairs`: the first one whose q1 is not `q_start`, or None.  Pair
    n - 1 is (psi_{n-1}, psi_n); after a drift no pair is checked.  A helper
    passes its parent's pid and stops once that process is gone."""
    first_drift = prev = None
    for n, psi in enumerate(states):
        if writer is not None:
            writer.write_state(psi)
        if n - 1 in pairs and first_drift is None and q1(prev, psi) != q_start:
            first_drift = n - 1
        if parent is not None and os.getppid() != parent:
            raise RuntimeError("the probe's parent process is gone")
        prev = psi
    return first_drift


def _with_helper(work, helper_work):
    """Run `helper_work(parent pid)` in a forked helper process while this one
    runs `work()`: their two results; or None, before `work` runs, if this
    process may run on one CPU only or no process can be forked.  The helper
    sends its result, an int or None, through a pipe and leaves with
    `os._exit`; it is reaped here, and killed and reaped if `work` raises.  A
    helper that fails or sends nothing is an internal error, never a verdict."""
    if not hasattr(os, "fork") or _cpus() < 2:
        return None
    parent = os.getpid()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller does the work alone
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:  # the helper: it never returns into the caller
        code = 9  # the helper raised: hamca's exit code for an internal error
        try:
            os.close(read_end)
            os.write(write_end, str(helper_work(parent)).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        try:
            mine = work()
            sent = pipe.read()  # up to EOF: the helper has exited
        except BaseException:
            import signal  # here, not at start-up: it costs every command about 1 ms

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not sent:
        raise RuntimeError(f"probe helper exited with status {status}" if status else "probe helper sent no result")
    return mine, None if sent == b"None" else int(sent)
