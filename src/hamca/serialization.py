"""File formats and text parsing.

Three formats, all documented in the README:

* model files: one JSON object {dim, label, S, A} with integer matrices
  (nested rows or a flat row-major list);
* trajectory files: JSON Lines, a header object followed by one record per
  state, integer parts as decimal strings so magnitude is unbounded;
* reports: CSV with a header row, floats printed with 17 significant
  digits, '\n' line endings.

Writers emit canonical bytes (sorted keys, fixed separators) so identical
inputs give identical files.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path
from typing import IO, Iterable, Iterator

from .dynamics import Trajectory
from .errors import ModelValidationError
from .gaussian import GaussInt, GaussVector, as_gauss
from .models import HamiltonianSpec

TRAJECTORY_FORMAT = "hamca-trajectory"
TRAJECTORY_VERSION = 1


def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form used in all reports."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Gaussian-integer literals: "0", "-3", "i", "-2i", "1+i", "4-7i"
# ---------------------------------------------------------------------------

_GAUSS_RE = re.compile(
    r"""^\s*
    (?:(?P<re>[+-]?\d+)(?!\d*i))?              # optional real part
    \s*
    (?:(?P<im>[+-](?:\d+)?|(?:\d+)?)i)?        # optional imaginary part
    \s*$""",
    re.VERBOSE,
)


def format_gauss(z: GaussInt) -> str:
    return str(z)


def parse_gauss(text: str) -> GaussInt:
    s = text.strip()
    if not s:
        raise ValueError("empty Gaussian-integer literal")
    m = _GAUSS_RE.match(s)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"cannot parse Gaussian integer from {text!r}")
    re_part = int(m.group("re")) if m.group("re") is not None else 0
    im_raw = m.group("im")
    if im_raw is None:
        im_part = 0
    elif im_raw in ("", "+"):
        im_part = 1
    elif im_raw == "-":
        im_part = -1
    else:
        im_part = int(im_raw)
    return GaussInt(re_part, im_part)


def parse_gauss_vector(text: str) -> GaussVector:
    """Comma-separated Gaussian-integer components, e.g. '1-i, 0, 2i'."""
    parts = [p for p in text.split(",")]
    if not parts or all(not p.strip() for p in parts):
        raise ValueError(f"cannot parse state vector from {text!r}")
    return GaussVector.from_iter(parse_gauss(p) for p in parts)


def load_gauss_vector(path: str | Path) -> GaussVector:
    """State vector file: JSON array of component literals or [re, im] pairs."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a non-empty JSON array of components")
    comps = []
    for item in data:
        try:
            comps.append(parse_gauss(item) if isinstance(item, str) else as_gauss(item))
        except TypeError as exc:
            raise ValueError(f"{path}: cannot interpret component {item!r}") from exc
    return GaussVector.from_iter(comps)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def save_model(spec: HamiltonianSpec, path: str | Path) -> None:
    doc = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    Path(path).write_text(doc + "\n")


def load_model(path: str | Path) -> HamiltonianSpec:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ModelValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ModelValidationError(f"{path}: model document must be a JSON object")
    return HamiltonianSpec.from_dict(data)


# ---------------------------------------------------------------------------
# trajectory files (JSON Lines, decimal-string integers)
# ---------------------------------------------------------------------------


def _state_record(n: int, psi: GaussVector) -> str:
    rec = {
        "n": n,
        "re": list(map(str, psi.re)),
        "im": list(map(str, psi.im)),
    }
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def _header_record(model: HamiltonianSpec, l: float) -> str:
    head = {
        "format": TRAJECTORY_FORMAT,
        "version": TRAJECTORY_VERSION,
        "l": format_float(l),
        "model": model.to_dict(),
    }
    return json.dumps(head, sort_keys=True, separators=(",", ":"))


class TrajectoryWriter:
    """Streaming trajectory writer; one state per line after the header."""

    def __init__(self, fh: IO[str], model: HamiltonianSpec, l: float):
        self._fh = fh
        self._count = 0
        fh.write(_header_record(model, l) + "\n")

    def write_state(self, psi: GaussVector) -> None:
        self._fh.write(_state_record(self._count, psi) + "\n")
        self._count += 1

    @property
    def states_written(self) -> int:
        return self._count


def write_trajectory(traj: Trajectory, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = TrajectoryWriter(fh, traj.model, traj.l)
        for psi in traj:
            writer.write_state(psi)


def _parse_header(line: str, path) -> tuple[HamiltonianSpec, float]:
    head = json.loads(line)
    if not isinstance(head, dict) or head.get("format") != TRAJECTORY_FORMAT:
        raise ValueError(f"{path}: not a trajectory file (missing format marker)")
    if head.get("version") != TRAJECTORY_VERSION:
        raise ValueError(
            f"{path}: trajectory version {head.get('version')!r} is not {TRAJECTORY_VERSION}"
        )
    try:
        l = float(head.get("l"))
    except (TypeError, ValueError):
        l = math.nan
    if not (math.isfinite(l) and l > 0):
        raise ValueError(f"{path}: header l = {head.get('l')!r} is not a finite positive number")
    if not isinstance(head.get("model"), dict):
        raise ValueError(f"{path}: header has no model object")
    return HamiltonianSpec.from_dict(head["model"]), l


def _parse_state(line: str, model: HamiltonianSpec, path) -> tuple[int, GaussVector]:
    rec = json.loads(line)
    if not isinstance(rec, dict) or type(rec.get("n")) is not int:
        raise ValueError(f"{path}: state record without an integer n")
    n, res, ims = rec["n"], rec.get("re"), rec.get("im")
    if not (isinstance(res, list) and isinstance(ims, list)):
        raise ValueError(f"{path}: state record {n} needs 're' and 'im' lists")
    if len(res) != model.dim or len(ims) != model.dim:
        raise ValueError(f"{path}: state record {n} has wrong length")
    if not all(isinstance(v, str) for v in res + ims):
        raise ValueError(f"{path}: state record {n} has parts that are not decimal strings")
    try:
        x, p = tuple(map(int, res)), tuple(map(int, ims))
    except ValueError:
        x = p = ()
    # only the form the writer emits: int() alone also takes "+1", " 0 ", "1_0" and non-ASCII digits
    if list(map(str, x)) != res or list(map(str, p)) != ims:
        raise ValueError(f"{path}: state record {n} has parts that are not canonical decimal integers")
    return n, GaussVector(x, p)


def read_trajectory_stream(path: str | Path):
    """Open a trajectory file for streaming.

    Returns (model, l, iterator of (n, GaussVector)).  The iterator keeps
    the file handle open until exhausted and raises ValueError on a
    malformed record or one whose n is not the next index.
    """
    fh = open(path)
    first = fh.readline()
    if not first:
        fh.close()
        raise ValueError(f"{path}: empty trajectory file")
    try:
        model, l = _parse_header(first, path)
    except Exception:
        fh.close()
        raise

    def gen() -> Iterator[tuple[int, GaussVector]]:
        with fh:
            expected = 0
            for line in fh:
                if line.strip():
                    n, psi = _parse_state(line, model, path)
                    if n != expected:
                        raise ValueError(f"{path}: state records out of order at n = {n}")
                    yield n, psi
                    expected += 1

    return model, l, gen()


def load_trajectory(path: str | Path) -> Trajectory:
    model, l, states = read_trajectory_stream(path)
    return Trajectory(model=model, states=tuple(psi for _, psi in states), l=l)


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------


def csv_writer(fh: IO[str]) -> csv.writer:
    return csv.writer(fh, lineterminator="\n")


def write_conservation_csv(fh: IO[str], dim: int, stats: Iterable) -> None:
    """Columns: n, q_re, q_im, L, L_1..L_m, w_1..w_m (weights blank at L=0)."""
    w = csv_writer(fh)
    w.writerow(
        ["n", "q_re", "q_im", "L"]
        + [f"L_{a}" for a in range(1, dim + 1)]
        + [f"w_{a}" for a in range(1, dim + 1)]
    )
    for st in stats:
        weights = st.links.weights
        w.writerow(
            [st.n, st.q.re, st.q.im, st.links.total]
            + [str(v) for v in st.links.per_alpha]
            + ([str(frac) for frac in weights] if weights is not None else [""] * dim)
        )


def write_cycle_csv(fh: IO[str], reports: Iterable) -> None:
    """One row per visited state, with the per-orbit summary repeated on
    each row: pair, period, ontological, link_number, n, k, phase_re, phase_im."""
    w = csv_writer(fh)
    w.writerow(["pair", "period", "ontological", "link_number", "n", "k", "phase_re", "phase_im"])
    for rep in reports:
        period = rep.period if rep.period is not None else ""
        pair = rep.pair_index if rep.pair_index is not None else ""
        for v in rep.visits:
            w.writerow(
                [
                    pair,
                    period,
                    int(rep.ontological),
                    rep.link_number,
                    v.n,
                    v.k if v.k is not None else "",
                    v.phase.re if v.phase is not None else "",
                    v.phase.im if v.phase is not None else "",
                ]
            )


def write_float_csv(fh: IO[str], header: list[str], rows: Iterable[Iterable]) -> None:
    """Generic numeric report; floats go through format_float."""
    w = csv_writer(fh)
    w.writerow(header)
    for row in rows:
        w.writerow([format_float(v) if isinstance(v, float) else v for v in row])
