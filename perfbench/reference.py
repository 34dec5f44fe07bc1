"""Fixed reference jobs: the yardsticks for `wall_rel` and `setup_s`.

A short interpreter-bound program with the same kinds of work as the CLI
(process start with the numpy import, small frozen objects, integer and
big-integer arithmetic, Fractions, JSON text, small numpy products in a
Python loop) and no dependency on `hamca`, so it never changes when the
program does.  `run.py` runs it before every iteration; on
a shared machine whose speed drifts, it slows down with the commands.  It
prints one checksum that `run.py` compares with CHECKSUM.

With ``--startup`` it only starts the interpreter and imports what a `hamca`
command imports before it does any work (numpy and the standard modules the
CLI uses), then prints STARTUP_CHECKSUM: the yardstick for the zero-work
commands behind `setup_s`, which are mostly that start-up.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

CHECKSUM = "ee9eaa88"
STARTUP_CHECKSUM = "started"
STARTUP_MODULES = ("argparse", "dataclasses", "fractions", "json", "math", "pathlib", "typing", "numpy")


@dataclass(frozen=True, slots=True)
class Pair:
    re: int
    im: int

    def __mul__(self, other: "Pair") -> "Pair":
        return Pair(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)


def job() -> str:
    # imported here so that importing this module for CHECKSUM stays light
    import numpy as np

    acc = Pair(1, 0)
    step = Pair(2, 1)
    total = 0
    lines = []
    for i in range(30_000):
        acc = acc * step if acc.re.bit_length() < 2000 else Pair(1, i % 7)
        total = (total + acc.re % 1_000_003 + acc.im % 999_983) % 2**32
        if i % 10 == 0:
            lines.append(json.dumps({"n": i, "re": str(acc.re % 10**12)}, sort_keys=True))
    weights = sum(Fraction(k, k + 3) for k in range(1, 400))
    h = np.eye(8, k=1) + np.eye(8, k=-1)  # spectrum inside (-2, 2): the float update stays bounded
    a = b = np.ones(8, dtype=np.complex128)
    for _ in range(3000):
        a, b = b, a - 1j * (h @ b)
    if not np.isfinite(b).all():
        raise ArithmeticError("reference float update diverged")
    total = (total + sum(len(s) for s in lines) + weights.numerator % 65_521) % 2**32
    return format(total, "08x")


def startup() -> str:
    for name in STARTUP_MODULES:
        importlib.import_module(name)
    return STARTUP_CHECKSUM


if __name__ == "__main__":
    print(startup() if sys.argv[1:] == ["--startup"] else job())
