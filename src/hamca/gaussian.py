"""Exact arithmetic over Gaussian integers and dense linear algebra on them.

Scalars are pairs of arbitrary-precision Python ints, so products of
thousand-digit entries stay exact; nothing here ever rounds.  All three
containers (scalar, vector, matrix) are immutable and hashable, hence safe
to share between threads or reuse as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from .errors import DimensionMismatch

ScalarLike = Union["GaussInt", int]


def is_int(value) -> bool:
    """The one rule for which values count as integers: exactly a Python
    int, so not a bool (an int subclass).  Floats, strings and bools are
    rejected, never coerced."""
    return type(value) is int


@dataclass(frozen=True, slots=True)
class GaussInt:
    """A Gaussian integer re + im*i with unbounded integer parts."""

    re: int
    im: int = 0

    def __post_init__(self) -> None:
        if not is_int(self.re) or not is_int(self.im):
            raise TypeError(f"GaussInt parts must be Python ints, got {self.re!r}, {self.im!r}")

    # -- ring operations ------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussInt":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussInt":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussInt(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: ScalarLike) -> "GaussInt":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: ScalarLike) -> "GaussInt":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def conjugate(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm_sq(self) -> int:
        """|z|^2 = re^2 + im^2, an ordinary integer."""
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussInt):
            if not is_int(other):
                return NotImplemented
            other = GaussInt(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussInt({self.re}, {self.im})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im > 0:
            imag = "i" if self.im == 1 else f"{self.im}i"
            sign = "+"
        else:
            imag = "i" if self.im == -1 else f"{-self.im}i"
            sign = "-"
        if self.re == 0:
            return f"{sign}{imag}" if sign == "-" else imag
        return f"{self.re}{sign}{imag}"


ZERO = GaussInt(0)
ONE = GaussInt(1)
I_UNIT = GaussInt(0, 1)


def _coerce(value: ScalarLike) -> GaussInt:
    if isinstance(value, GaussInt):
        return value
    if is_int(value):
        return GaussInt(value)
    return NotImplemented


def as_gauss(value) -> GaussInt:
    """Coerce an int, (re, im) pair or GaussInt into a GaussInt."""
    if isinstance(value, GaussInt):
        return value
    if is_int(value):
        return GaussInt(value)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return GaussInt(value[0], value[1])
    raise TypeError(f"cannot interpret {value!r} as a Gaussian integer")


@dataclass(frozen=True, slots=True)
class GaussVector:
    """Fixed-length vector of Gaussian integers (one slot per degree of
    freedom; user-facing indices are 1-based, storage is 0-based)."""

    components: tuple[GaussInt, ...]

    def __post_init__(self) -> None:
        if len(self.components) == 0:
            raise DimensionMismatch("vectors must have at least one component")

    @classmethod
    def of(cls, *values) -> "GaussVector":
        return cls(tuple(as_gauss(v) for v in values))

    @classmethod
    def from_iter(cls, values: Iterable) -> "GaussVector":
        return cls(tuple(as_gauss(v) for v in values))

    @classmethod
    def zero(cls, m: int) -> "GaussVector":
        return cls((ZERO,) * m)

    @property
    def dim(self) -> int:
        return len(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[GaussInt]:
        return iter(self.components)

    def __getitem__(self, idx: int) -> GaussInt:
        return self.components[idx]

    def real(self) -> tuple[int, ...]:
        return tuple(c.re for c in self.components)

    def imag(self) -> tuple[int, ...]:
        return tuple(c.im for c in self.components)

    def __add__(self, other: "GaussVector") -> "GaussVector":
        _check_len(self, other)
        return GaussVector(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "GaussVector") -> "GaussVector":
        _check_len(self, other)
        return GaussVector(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "GaussVector":
        return GaussVector(tuple(-a for a in self.components))

    def __mul__(self, scalar: ScalarLike) -> "GaussVector":
        s = _coerce(scalar)
        if s is NotImplemented:
            return NotImplemented
        return GaussVector(tuple(a * s for a in self.components))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def _check_len(v: GaussVector, w: GaussVector) -> None:
    if len(v) != len(w):
        raise DimensionMismatch(f"vector lengths differ: {len(v)} vs {len(w)}")


@dataclass(frozen=True, slots=True)
class GaussMatrix:
    """Dense matrix of Gaussian integers."""

    rows: tuple[tuple[GaussInt, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) == 0:
            raise DimensionMismatch("matrix needs at least one row")
        width = len(self.rows[0])
        if width == 0 or any(len(r) != width for r in self.rows):
            raise DimensionMismatch("matrix rows must be non-empty and equal length")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "GaussMatrix":
        return cls(tuple(tuple(as_gauss(v) for v in row) for row in rows))

    @classmethod
    def identity(cls, m: int) -> "GaussMatrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(m)) for i in range(m)))

    @classmethod
    def zeros(cls, m: int, n: int | None = None) -> "GaussMatrix":
        n = m if n is None else n
        return cls(((ZERO,) * n,) * m)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))

    def is_square(self) -> bool:
        r, c = self.shape
        return r == c

    def __getitem__(self, idx: tuple[int, int]) -> GaussInt:
        i, j = idx
        return self.rows[i][j]

    def row(self, i: int) -> tuple[GaussInt, ...]:
        return self.rows[i]

    def __add__(self, other: "GaussMatrix") -> "GaussMatrix":
        _check_shape(self, other)
        return GaussMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "GaussMatrix") -> "GaussMatrix":
        _check_shape(self, other)
        return GaussMatrix(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __neg__(self) -> "GaussMatrix":
        return GaussMatrix(tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, scalar: ScalarLike) -> "GaussMatrix":
        s = _coerce(scalar)
        if s is NotImplemented:
            return NotImplemented
        return GaussMatrix(tuple(tuple(a * s for a in r) for r in self.rows))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, GaussVector):
            return mat_vec(self, other)
        if isinstance(other, GaussMatrix):
            n, k = self.shape
            k2, m = other.shape
            if k != k2:
                raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
            cols = tuple(zip(*other.rows))
            return GaussMatrix(
                tuple(
                    tuple(_dot(row, col) for col in cols)
                    for row in self.rows
                )
            )
        return NotImplemented

    def conjugate_transpose(self) -> "GaussMatrix":
        return GaussMatrix(tuple(tuple(a.conjugate() for a in col) for col in zip(*self.rows)))

    def transpose(self) -> "GaussMatrix":
        return GaussMatrix(tuple(zip(*self.rows)))

    def trace(self) -> GaussInt:
        if not self.is_square():
            raise DimensionMismatch("trace needs a square matrix")
        t = ZERO
        for i in range(len(self.rows)):
            t = t + self.rows[i][i]
        return t

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.rows)

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(a) for a in r) for r in self.rows) + "]"


def _dot(row: tuple[GaussInt, ...], col: tuple[GaussInt, ...]) -> GaussInt:
    re = 0
    im = 0
    for a, b in zip(row, col):
        re += a.re * b.re - a.im * b.im
        im += a.re * b.im + a.im * b.re
    return GaussInt(re, im)


def _check_shape(a: GaussMatrix, b: GaussMatrix) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"matrix shapes differ: {a.shape} vs {b.shape}")


def inner_product(v: GaussVector, w: GaussVector) -> GaussInt:
    """<v|w> = sum_a conj(v_a) * w_a, conjugate-linear in the first slot."""
    _check_len(v, w)
    re = 0
    im = 0
    for a, b in zip(v.components, w.components):
        # conj(a) * b expanded on integer parts
        re += a.re * b.re + a.im * b.im
        im += a.re * b.im - a.im * b.re
    return GaussInt(re, im)


def mat_vec(M: GaussMatrix, v: GaussVector) -> GaussVector:
    """Exact matrix-vector product."""
    rows, cols = M.shape
    if cols != len(v):
        raise DimensionMismatch(f"matrix {M.shape} cannot act on length-{len(v)} vector")
    return GaussVector(tuple(_dot(row, v.components) for row in M.rows))


def is_hermitian(M: GaussMatrix) -> bool:
    """Entry-exact test that M equals its conjugate transpose."""
    if not M.is_square():
        raise DimensionMismatch("hermiticity is defined for square matrices only")
    n = len(M.rows)
    for i in range(n):
        for j in range(i, n):
            a = M.rows[i][j]
            b = M.rows[j][i]
            if a.re != b.re or a.im != -b.im:
                return False
    return True
