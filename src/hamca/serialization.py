"""File formats and text parsing.

Three formats, all documented in the README:

* model files: one JSON object {dim, label, S, A} with integer matrices
  (nested rows or a flat row-major list);
* trajectory files: JSON Lines, a header object followed by one record per
  state, integer parts as decimal strings so magnitude is unbounded; a
  record is read back only as the exact line the writer emits;
* reports: CSV with a header row and '\n' line endings, each row its cells
  joined by commas (`_cell`: floats to 17 significant digits, None blank);
  no cell needs quoting, so the package does not load `csv`.

Writers emit canonical bytes (sorted keys, fixed separators) so identical
inputs give identical files, and every file is written through
`output_file`: a fresh `<path>.tmp` renamed into place when it is complete.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import stat
from pathlib import Path
from typing import IO, Iterable, Iterator

from .conservation import _kept
from .errors import ModelValidationError
from .gaussian import GaussInt, GaussVector, _AnyDigits, as_gauss
from .models import HamiltonianSpec

TRAJECTORY_FORMAT = "hamca-trajectory"
TRAJECTORY_VERSION = 1


def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form used in all reports."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Gaussian-integer literals: "0", "-3", "i", "-2i", "1+i", "4 - 7i"
# ---------------------------------------------------------------------------

# A sign joins the parts and may have spaces around it; nothing else may:
# "1 2i" is two numbers, not 1+2i.  [0-9], as \d also takes "١", read as 1.
_GAUSS_RE = re.compile(
    r"""(?P<re>[+-]?[0-9]+)(?:\s*(?P<sign>[+-])\s*(?P<mag>[0-9]*)i)?   # a, a + bi
      | (?P<im>[+-]?[0-9]*)i                                             # bi alone
    """,
    re.VERBOSE,
)


def _imag_coefficient(text: str) -> int:
    """The b of "bi": an empty or bare-sign coefficient is 1 or -1."""
    return int(text + "1") if text in ("", "+", "-") else int(text)


def parse_gauss(text: str) -> GaussInt:
    s = text.strip()
    if not s:
        raise ValueError("empty Gaussian-integer literal")
    m = _GAUSS_RE.fullmatch(s)
    if not m:
        raise ValueError(f"cannot parse Gaussian integer from {text!r}")
    with _AnyDigits():
        if m["im"] is not None:
            return GaussInt(0, _imag_coefficient(m["im"]))
        im = 0 if m["sign"] is None else _imag_coefficient(m["sign"] + m["mag"])
        return GaussInt(int(m["re"]), im)


def parse_gauss_vector(text: str) -> GaussVector:
    """Comma-separated Gaussian-integer components, e.g. '1-i, 0, 2i'."""
    parts = text.split(",")
    if all(not p.strip() for p in parts):
        raise ValueError(f"cannot parse state vector from {text!r}")
    return GaussVector.from_iter(parse_gauss(p) for p in parts)


def load_gauss_vector(path: str | Path) -> GaussVector:
    """State vector file: JSON array of component literals or [re, im] pairs."""
    with _AnyDigits():  # exact ints of any size, in the file and in the messages that quote them
        data = _json_file(path, ValueError)
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
# output files
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def output_file(path: str | Path) -> Iterator[IO[str]]:
    """Text handle that writes `path`: the one way the package writes a file.

    The bytes go to a fresh `<path>.tmp` beside it, which takes the name
    `path` (and the old file's mode) only when the block ends without an
    exception.  On an exception the `.tmp` file is removed and an existing
    `path` is left as it was.
    """
    path = os.fspath(path)
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    if old is not None and (
        not stat.S_ISREG(old.st_mode) or old.st_nlink > 1 or not os.access(path, os.W_OK)
    ):
        # written in place, as by open(path, "w"): a rename would replace
        # /dev/null, a FIFO, a symlink or a hard link instead of writing
        # through it, and would overwrite a read-only file
        with open(path, "w", newline="") as fh:
            yield fh
        return
    tmp = path + ".tmp"
    try:
        fh = open(tmp, "w", newline="")
    except OSError as exc:
        if exc.filename == tmp:  # name the file the caller asked for, not its .tmp
            exc.filename = path
        raise
    try:
        with fh:
            yield fh
        if old is not None:
            os.chmod(tmp, stat.S_IMODE(old.st_mode))
            # unlink, then rename onto the free name: os.replace onto an
            # existing file stalls for tens of ms on ext4 with discard, as a truncate does
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        os.rename(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def _json_file(path: str | Path, error: type[ValueError]):
    """The JSON document in file `path`; one that does not parse raises `error`."""
    import json  # loaded where it is used: `cycle` on a built-in model does not load it
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested past the interpreter's limit
        raise error(f"{path}: not valid JSON ({exc})") from None


def load_model(path: str | Path) -> HamiltonianSpec:
    with _AnyDigits():  # exact ints of any size, in the file and in the messages that quote them
        data = _json_file(path, ModelValidationError)
        try:
            if not isinstance(data, dict):
                raise ModelValidationError("model document must be a JSON object")
            return HamiltonianSpec.from_dict(data)
        except ModelValidationError as exc:  # the file, then what is wrong in it
            raise ModelValidationError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# trajectory files (JSON Lines, decimal-string integers)
# ---------------------------------------------------------------------------


def _state_record(n: int, psi: GaussVector) -> str:
    """The canonical line json.dumps(sort_keys=True, separators=(",", ":"))
    gives {"n": n, "re": [...], "im": [...]} with decimal-string parts,
    joined directly: decimal digits need no JSON escaping."""
    head, tail = _record_texts(psi)
    return f"{head}{n}{tail}"


def _record_texts(psi: GaussVector) -> tuple[str, str]:
    """The text of psi's record line before and after its n."""
    with _AnyDigits():
        im = '","'.join(map(str, psi.im))
        re_ = '","'.join(map(str, psi.re))
    return f'{{"im":["{im}"],"n":', f',"re":["{re_}"]}}'


# The one grammar state lines are read by: the line above and "\n", byte for byte.
# Shape first, then each part list once; [0-9], as \d also matches non-ASCII digits.
_STATE_LINE = re.compile(r'\{"im":\["([^\]]*)"\],"n":(0|[1-9][0-9]*),"re":\["([^\]]*)"\]\}\n')
_PARTS = re.compile(r'(?:0|-?[1-9][0-9]*)(?:","(?:0|-?[1-9][0-9]*))*')


def _header_record(model: HamiltonianSpec, l: float) -> str:
    import json
    head = {
        "format": TRAJECTORY_FORMAT,
        "version": TRAJECTORY_VERSION,
        "l": format_float(l),
        "model": model.to_dict(),
    }
    with _AnyDigits():
        return json.dumps(head, sort_keys=True, separators=(",", ":"))


class TrajectoryWriter:
    """Streaming trajectory writer; one state per line after the header.
    A state met again, as on a periodic orbit, reuses the record texts it
    was formatted to first (a bounded number are kept)."""

    def __init__(self, fh: IO[str], model: HamiltonianSpec, l: float):
        self._fh = fh
        self._count = 0
        self._texts = {}  # the parts of a state -> _record_texts of it
        fh.write(_header_record(model, l) + "\n")

    def write_state(self, psi: GaussVector) -> None:
        parts = (psi.re, psi.im)
        head, tail = self._texts.get(parts) or _kept(self._texts, parts, _record_texts(psi))
        self._fh.write(f"{head}{self._count}{tail}\n")
        self._count += 1

    @property
    def states_written(self) -> int:
        return self._count


def _parse_header(line: str, path) -> tuple[HamiltonianSpec, float]:
    if not line:
        raise ValueError(f"{path}: empty trajectory file")
    import json
    try:
        with _AnyDigits():
            head = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: header is not JSON ({exc.msg} at column {exc.pos + 1})") from None
    except RecursionError as exc:  # nested past the interpreter's limit
        raise ValueError(f"{path}: header is not JSON ({exc})") from None
    if not isinstance(head, dict) or head.get("format") != TRAJECTORY_FORMAT:
        raise ValueError(f"{path}: not a trajectory file (missing format marker)")
    if head.get("version") != TRAJECTORY_VERSION:
        raise ValueError(
            f"{path}: trajectory version {head.get('version')!r} is not {TRAJECTORY_VERSION}"
        )
    try:
        l = float(head.get("l"))
    except (TypeError, ValueError, OverflowError):
        l = math.nan
    if not (math.isfinite(l) and l > 0):
        raise ValueError(f"{path}: header l = {head.get('l')!r} is not a finite positive number")
    if not isinstance(head.get("model"), dict):
        raise ValueError(f"{path}: header has no model object")
    return HamiltonianSpec.from_dict(head["model"]), l


def _parse_state(line: str, n: int, dim: int, path, seen: dict) -> GaussVector:
    """State record n: exactly the line _state_record(n, psi) writes, with its
    newline.  `seen` maps the part texts of records read before to their
    states, so a record met again is not parsed again."""
    m = _STATE_LINE.fullmatch(line)
    if m is None:
        raise ValueError(f"{path}: state record {n} is not a canonical record line")
    im_text, n_text, re_text = m.groups()
    if n_text != str(n):
        raise ValueError(f"{path}: state records out of order at n = {n_text}")
    texts = (im_text, re_text)
    return seen.get(texts) or _kept(seen, texts, _parse_parts(im_text, re_text, n, dim, path))


def _parse_parts(im_text: str, re_text: str, n: int, dim: int, path) -> GaussVector:
    if not (_PARTS.fullmatch(im_text) and _PARTS.fullmatch(re_text)):
        raise ValueError(f"{path}: state record {n} has parts that are not canonical decimal integers")
    res, ims = re_text.split('","'), im_text.split('","')
    if len(res) != dim or len(ims) != dim:
        raise ValueError(f"{path}: state record {n} has wrong length")
    with _AnyDigits():
        return GaussVector(tuple(map(int, res)), tuple(map(int, ims)))


def read_trajectory_stream(path: str | Path):
    """Open a trajectory file for streaming.

    Returns (model, l, iterator of GaussVector states).  The iterator keeps
    the file open until it is exhausted or closed, and raises ValueError on
    the first line that is not the record the writer emits at that position.
    """
    fh = open(path, encoding="utf-8", newline="")

    def records() -> Iterator:
        with fh:
            try:
                model, l = _parse_header(fh.readline(), path)
                yield model, l
                seen = {}
                for n, line in enumerate(fh):
                    yield _parse_state(line, n, model.dim, path, seen)
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None

    stream = records()
    model, l = next(stream)  # from here on, closing the stream closes the file
    return model, l, stream


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    """A report cell: a float in format_float's form, None blank, else its str.
    Every report cell is an int, a float, None or a plain name, none of which
    CSV quotes, so each report row is its cells joined by commas."""
    return format_float(value) if isinstance(value, float) else "" if value is None else str(value)


class ConservationCsvWriter(_AnyDigits):
    """Streaming conservation report: the header row on creation, then one
    row per appended PairStats, so it can stand in for verify_stream's
    `rows` list.  Columns: n, q_re, q_im, L, L_1..L_m, w_1..w_m (weights
    blank at L=0).  Its `with` block is an _AnyDigits scope for the whole
    file, so rows appended inside it print exact parts of any size.  Rows
    follow `_cell`'s rule; the L, L_a and w_a cells of a LinkReport met
    again, as on a periodic orbit, are joined once (a bounded number are kept)."""

    def __init__(self, fh: IO[str], dim: int):
        super().__init__()
        self._fh = fh
        self._links = {}  # LinkReport -> _link_cells of it
        slots = range(1, dim + 1)
        fh.write(",".join(["n", "q_re", "q_im", "L", *(f"L_{a}" for a in slots), *(f"w_{a}" for a in slots)]) + "\n")

    def append(self, st) -> None:
        cells = self._links.get(st.links) or _kept(self._links, st.links, _link_cells(st.links))
        self._fh.write(f"{st.n},{st.q.re},{st.q.im},{cells}\n")


def _link_cells(links) -> str:
    """The L, L_a and w_a cells of a report row, joined: each weight is
    str(Fraction(L_a, L)) made from the reduced pair, and blank at L = 0."""
    per, total = links
    weights = (str(n) if d == 1 else f"{n}/{d}" for n, d in links.reduced_weights()) if total else [""] * len(per)
    return ",".join(map(str, (total, *per, *weights)))


def write_conservation_csv(fh: IO[str], dim: int, stats: Iterable) -> None:
    """A ConservationCsvWriter report of all of `stats`."""
    with ConservationCsvWriter(fh, dim) as rows:
        for st in stats:
            rows.append(st)


def write_cycle_csv(fh: IO[str], reports: Iterable) -> None:
    """One row per visited state, with the per-orbit summary repeated on
    each row: pair, period, ontological, link_number, n, k, phase_re,
    phase_im; k and the phase are blank for a superposed state."""
    fh.write("pair,period,ontological,link_number,n,k,phase_re,phase_im\n")
    with _AnyDigits():
        for rep in reports:
            orbit = ",".join(map(_cell, (rep.pair_index, rep.period, int(rep.ontological), rep.link_number)))
            for n, k, phase in rep.visits:
                fh.write(f"{orbit},{n},,,\n" if k is None else f"{orbit},{n},{k},{phase.re},{phase.im}\n")


def write_float_csv(fh: IO[str], header: list[str], rows: Iterable[Iterable]) -> None:
    """Generic numeric report: the header, then each row, cells by `_cell`."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(map(_cell, row)) + "\n")
