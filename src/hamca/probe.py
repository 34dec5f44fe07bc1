"""The pair checks of `hamca run --probe`, shared with a forked helper
process; no other command compiles this module."""

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


def first_drift(states, q_start: int | None, n_pairs: int, writer=None) -> int | None:
    """Consume the unstarted generator `states`, writing each state to
    `writer` if given: the first of its first `n_pairs` pairs whose q1 is
    not `q_start`, or None.  With two pairs or more, `os.fork` and a second
    CPU, a forked helper checks the odd pairs on its own copy of `states`
    and this process the even ones.  The helper sends its result through a
    pipe and leaves with `os._exit`, which never flushes the buffers it
    inherits, such as `writer`'s; it is reaped here, or killed and reaped if
    this process raises.  A helper that fails or sends nothing is an
    internal error, never a verdict."""
    pairs, pid = range(n_pairs), None
    if n_pairs > 1 and hasattr(os, "fork") and _cpus() > 1:
        parent = os.getpid()
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            os.close(read_end)
            os.close(write_end)
    if pid is None:
        return _check_pairs(states, q_start, pairs, writer)
    if pid == 0:  # the helper: it never returns into the caller
        code = 9  # the helper raised: hamca's exit code for an internal error
        try:
            os.close(read_end)
            os.write(write_end, str(_check_pairs(states, q_start, pairs[1::2], parent=parent)).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        try:
            mine = _check_pairs(states, q_start, pairs[::2], writer)
            sent = pipe.read()  # up to EOF: the helper has exited
        except BaseException:
            import signal  # here, not at start-up: it costs every command about 1 ms

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not sent:
        raise RuntimeError(f"probe helper exited with status {status}" if status else "probe helper sent no result")
    theirs = None if sent == b"None" else int(sent)
    return min((d for d in (mine, theirs) if d is not None), default=None)
