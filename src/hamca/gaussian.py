"""Exact arithmetic over Gaussian integers and linear algebra on them.

Scalars are pairs of arbitrary-precision Python ints, so products of
thousand-digit entries stay exact; nothing here ever rounds.  A vector
psi = x + ip stores its int pair (x, p) and a matrix H = S + iA its pair
(S, A); arithmetic runs on those ints, and indexing or iteration yields
GaussInt scalars.  A matrix also lists the nonzero entries of each row, so
a matrix-vector product costs one term per nonzero, not one per entry.
All three types are immutable and hashable, hence safe to share between
threads or reuse as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, mul, neg, sub
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
        o = _parts(other)
        if o is None:
            return NotImplemented
        return GaussInt(self.re + o[0], self.im + o[1])

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussInt":
        o = _parts(other)
        if o is None:
            return NotImplemented
        return GaussInt(self.re - o[0], self.im - o[1])

    def __rsub__(self, other: ScalarLike) -> "GaussInt":
        o = _parts(other)
        if o is None:
            return NotImplemented
        return GaussInt(o[0] - self.re, o[1] - self.im)

    def __mul__(self, other: ScalarLike) -> "GaussInt":
        o = _parts(other)
        if o is None:
            return NotImplemented
        return GaussInt(
            self.re * o[0] - self.im * o[1],
            self.re * o[1] + self.im * o[0],
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
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self.re == o[0] and self.im == o[1]

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


def _parts(value: ScalarLike) -> tuple[int, int] | None:
    """(re, im) of a GaussInt or int scalar operand, None for anything else."""
    if isinstance(value, GaussInt):
        return value.re, value.im
    if is_int(value):
        return value, 0
    return None


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
    """Fixed-length vector of Gaussian integers, stored as the int tuples
    re = x and im = p of psi = x + ip (user-facing indices are 1-based,
    storage is 0-based)."""

    re: tuple[int, ...]
    im: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 < len(self.re) == len(self.im):
            raise DimensionMismatch(f"vector parts need one length >= 1, got {len(self.re)}, {len(self.im)}")

    @classmethod
    def of(cls, *values) -> "GaussVector":
        return cls.from_iter(values)

    @classmethod
    def from_iter(cls, values: Iterable) -> "GaussVector":
        zs = [as_gauss(v) for v in values]
        return cls(tuple(z.re for z in zs), tuple(z.im for z in zs))

    @classmethod
    def zero(cls, m: int) -> "GaussVector":
        return cls((0,) * m, (0,) * m)

    @property
    def dim(self) -> int:
        return len(self.re)

    def __len__(self) -> int:
        return len(self.re)

    def __iter__(self) -> Iterator[GaussInt]:
        return map(GaussInt, self.re, self.im)

    def __getitem__(self, idx: int) -> GaussInt:
        return GaussInt(self.re[idx], self.im[idx])

    def real(self) -> tuple[int, ...]:
        return self.re

    def imag(self) -> tuple[int, ...]:
        return self.im

    def __add__(self, other: "GaussVector") -> "GaussVector":
        _check_len(self, other)
        return GaussVector(tuple(map(add, self.re, other.re)), tuple(map(add, self.im, other.im)))

    def __sub__(self, other: "GaussVector") -> "GaussVector":
        _check_len(self, other)
        return GaussVector(tuple(map(sub, self.re, other.re)), tuple(map(sub, self.im, other.im)))

    def __neg__(self) -> "GaussVector":
        return GaussVector(tuple(map(neg, self.re)), tuple(map(neg, self.im)))

    def __mul__(self, scalar: ScalarLike) -> "GaussVector":
        s = _parts(scalar)
        if s is None:
            return NotImplemented
        sr, si = s
        return GaussVector(
            tuple(a * sr - b * si for a, b in zip(self.re, self.im)),
            tuple(a * si + b * sr for a, b in zip(self.re, self.im)),
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not (any(self.re) or any(self.im))

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self)) + ")"


def _check_len(v: GaussVector, w: GaussVector) -> None:
    if len(v) != len(w):
        raise DimensionMismatch(f"vector lengths differ: {len(v)} vs {len(w)}")


IntRows = tuple[tuple[int, ...], ...]
#: per row, one (column j, S_ij, A_ij) triple for each j where S or A is nonzero
NonzeroRows = tuple[tuple[tuple[int, int, int], ...], ...]


@dataclass(frozen=True, slots=True)
class GaussMatrix:
    """Matrix of Gaussian integers, stored as the int rows re = S and
    im = A of H = S + iA.  `nonzeros` is derived from them once, when the
    matrix is built, and takes no part in ==, hash or repr."""

    re: IntRows
    im: IntRows
    nonzeros: NonzeroRows = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        width = len(self.re[0]) if self.re else 0
        if width == 0 or len(self.im) != len(self.re) or any(len(r) != width for r in self.re + self.im):
            raise DimensionMismatch("matrix needs rows, all non-empty and of one length in re and im")
        nonzeros = tuple(
            tuple((j, s, a) for j, (s, a) in enumerate(zip(rs, ra)) if s or a)
            for rs, ra in zip(self.re, self.im)
        )
        object.__setattr__(self, "nonzeros", nonzeros)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "GaussMatrix":
        zs = [[as_gauss(v) for v in row] for row in rows]
        return cls(tuple(tuple(z.re for z in r) for r in zs), tuple(tuple(z.im for z in r) for r in zs))

    @classmethod
    def identity(cls, m: int) -> "GaussMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(m)) for i in range(m)), ((0,) * m,) * m)

    @classmethod
    def zeros(cls, m: int, n: int | None = None) -> "GaussMatrix":
        n = m if n is None else n
        return cls(((0,) * n,) * m, ((0,) * n,) * m)

    @property
    def rows(self) -> tuple[tuple[GaussInt, ...], ...]:
        """The entries as rows of GaussInt, built on each access."""
        return tuple(tuple(map(GaussInt, r, i)) for r, i in zip(self.re, self.im))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.re), len(self.re[0]))

    def is_square(self) -> bool:
        r, c = self.shape
        return r == c

    def __getitem__(self, idx: tuple[int, int]) -> GaussInt:
        i, j = idx
        return GaussInt(self.re[i][j], self.im[i][j])

    def row(self, i: int) -> tuple[GaussInt, ...]:
        return tuple(map(GaussInt, self.re[i], self.im[i]))

    def __add__(self, other: "GaussMatrix") -> "GaussMatrix":
        return _entrywise(add, self, other)

    def __sub__(self, other: "GaussMatrix") -> "GaussMatrix":
        return _entrywise(sub, self, other)

    def __neg__(self) -> "GaussMatrix":
        return self * -1

    def __mul__(self, scalar: ScalarLike) -> "GaussMatrix":
        if _parts(scalar) is None:
            return NotImplemented
        scaled = [GaussVector(r, i) * scalar for r, i in zip(self.re, self.im)]
        return GaussMatrix(tuple(v.re for v in scaled), tuple(v.im for v in scaled))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, GaussVector):
            return mat_vec(self, other)
        if isinstance(other, GaussMatrix):
            if self.shape[1] != other.shape[0]:
                raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
            # row i of self @ other is other^T applied to row i of self
            t = other.transpose()
            prods = [mat_vec(t, GaussVector(r, i)) for r, i in zip(self.re, self.im)]
            return GaussMatrix(tuple(v.re for v in prods), tuple(v.im for v in prods))
        return NotImplemented

    def conjugate_transpose(self) -> "GaussMatrix":
        return GaussMatrix(tuple(zip(*self.re)), tuple(tuple(map(neg, c)) for c in zip(*self.im)))

    def transpose(self) -> "GaussMatrix":
        return GaussMatrix(tuple(zip(*self.re)), tuple(zip(*self.im)))

    def trace(self) -> GaussInt:
        if not self.is_square():
            raise DimensionMismatch("trace needs a square matrix")
        return GaussInt(sum(r[i] for i, r in enumerate(self.re)), sum(r[i] for i, r in enumerate(self.im)))

    def is_zero(self) -> bool:
        return not any(map(any, self.re + self.im))

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(map(str, r)) for r in self.rows) + "]"


def _entrywise(op, a: GaussMatrix, b: GaussMatrix) -> GaussMatrix:
    """op applied entry by entry to the parts of two matrices of one shape."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"matrix shapes differ: {a.shape} vs {b.shape}")
    return GaussMatrix(
        tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a.re, b.re)),
        tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a.im, b.im)),
    )


def inner_product(v: GaussVector, w: GaussVector) -> GaussInt:
    """<v|w> = sum_a conj(v_a) * w_a, conjugate-linear in the first slot."""
    _check_len(v, w)
    # conj(a) * b expanded on integer parts
    return GaussInt(
        sum(map(mul, v.re, w.re)) + sum(map(mul, v.im, w.im)),
        sum(map(mul, v.re, w.im)) - sum(map(mul, v.im, w.re)),
    )


def mat_vec(M: GaussMatrix, v: GaussVector) -> GaussVector:
    """Exact matrix-vector product: (S + iA)(x + ip) = (Sx - Ap) + i(Sp + Ax),
    summed over the nonzero entries of each row of M only."""
    if M.shape[1] != len(v):
        raise DimensionMismatch(f"matrix {M.shape} cannot act on length-{len(v)} vector")
    x, p = v.re, v.im
    re = []
    im = []
    for row in M.nonzeros:
        r = i = 0
        for j, s, a in row:
            xj = x[j]
            pj = p[j]
            r += s * xj - a * pj
            i += s * pj + a * xj
        re.append(r)
        im.append(i)
    return GaussVector(tuple(re), tuple(im))


def is_hermitian(M: GaussMatrix) -> bool:
    """Entry-exact test that M equals its conjugate transpose."""
    if not M.is_square():
        raise DimensionMismatch("hermiticity is defined for square matrices only")
    return M == M.conjugate_transpose()
