"""Exact arithmetic over Gaussian integers and linear algebra on them.

Scalars are pairs of arbitrary-precision Python ints, so products of
thousand-digit entries stay exact; nothing here ever rounds.  A vector
psi = x + ip stores its int pair (x, p) and a matrix H = S + iA its pair
(S, A); arithmetic runs on those ints, and indexing or iteration yields
GaussInt scalars.  The first time a matrix is applied it compiles its step
of the update rule, (a + ib) - iM(x + ip), that its product is read off:
one straight-line sum per output part with a term per nonzero entry, so a
step costs one term per nonzero, not one per entry.  The compile is lazy
and cached on the matrix; two threads that race on it only compile it
twice.  All three types are immutable and hashable, hence safe to share
between threads or reuse as dict keys.
"""

from __future__ import annotations

import sys
from operator import add, attrgetter, mul, neg, sub
from typing import Callable, Iterable, Iterator

from .errors import DimensionMismatch

#: the interpreter's limit on int <-> decimal str conversion, 0 for none
#: (4300 digits by default since CPython 3.10.7; earlier ones have none)
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


class _AnyDigits:
    """Lifts the int <-> decimal str digit limit inside the block and
    restores the caller's setting after it: exact parts are decimal at any
    size.  One instance may be entered inside its own block; each exit
    restores the limit its entry found."""

    __slots__ = ("saved",)

    def __init__(self) -> None:
        self.saved = []

    def __enter__(self) -> "_AnyDigits":
        limit = _digit_limit()
        self.saved.append(limit)
        if limit:
            sys.set_int_max_str_digits(0)
        return self

    def __exit__(self, *exc) -> None:
        limit = self.saved.pop()
        if limit:
            sys.set_int_max_str_digits(limit)


def full_digit_repr(cls: type) -> type:
    """Class decorator for a NamedTuple with int fields of any size: its
    generated repr runs under _AnyDigits.  A class that holds such values
    only inside decorated types or _Frozen ones needs nothing more."""
    generated = cls.__repr__

    def __repr__(self) -> str:
        with _AnyDigits():
            return generated(self)

    cls.__repr__ = __repr__
    return cls


def is_int(value) -> bool:
    """The one rule for which values count as integers: exactly a Python
    int, so not a bool (an int subclass).  Floats, strings and bools are
    rejected, never coerced."""
    return type(value) is int


class _Frozen:
    """Base of the immutable value types.  Each names its `_fields` and sets
    them once in __init__ through object.__setattr__; ==, hash, repr (under
    _AnyDigits) and pickling all read the tuple of field values."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        with _AnyDigits():
            fields = ", ".join(map("{}={!r}".format, self._fields, self._values(self)))
            return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class GaussInt(_Frozen):
    """A Gaussian integer re + im*i with unbounded integer parts: a record
    (a phase, a q_G) with ==, hash, str and complex() but no arithmetic."""

    __slots__ = _fields = ("re", "im")

    def __init__(self, re: int, im: int = 0) -> None:
        if not is_int(re) or not is_int(im):
            with _AnyDigits():  # the message quotes parts of any size
                raise TypeError(f"GaussInt parts must be Python ints, got {re!r}, {im!r}")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussInt):
            return self.re == other.re and self.im == other.im
        if is_int(other):
            return self.re == other and not self.im
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im)) if self.im else hash(self.re)  # as the int it equals

    def __repr__(self) -> str:
        with _AnyDigits():
            return f"GaussInt({self.re}, {self.im})"

    def __str__(self) -> str:
        with _AnyDigits():
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


def as_gauss(value) -> GaussInt:
    """Coerce an int, (re, im) pair or GaussInt into a GaussInt."""
    if isinstance(value, GaussInt):
        return value
    if is_int(value):
        return GaussInt(value)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return GaussInt(value[0], value[1])
    raise TypeError(f"cannot interpret {value!r} as a Gaussian integer")


class GaussVector(_Frozen):
    """Fixed-length vector of Gaussian integers, stored as the int tuples
    re = x and im = p of psi = x + ip (user-facing indices are 1-based,
    storage is 0-based).  The raw (re, im) constructor is the hot path and
    trusts its caller; `of`, `from_iter` and the readers reject a part that
    is not an int when the vector is built."""

    __slots__ = _fields = ("re", "im")

    def __init__(self, re: tuple[int, ...], im: tuple[int, ...]) -> None:
        if not 0 < len(re) == len(im):
            raise DimensionMismatch(f"vector parts need one length >= 1, got {len(re)}, {len(im)}")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

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

    def __len__(self) -> int:
        return len(self.re)

    def __iter__(self) -> Iterator[GaussInt]:
        return map(GaussInt, self.re, self.im)

    def __getitem__(self, idx: int) -> GaussInt:
        return GaussInt(self.re[idx], self.im[idx])

    def __add__(self, other: "GaussVector") -> "GaussVector":
        _check_len(self, other)
        return GaussVector(tuple(map(add, self.re, other.re)), tuple(map(add, self.im, other.im)))

    def __neg__(self) -> "GaussVector":
        return GaussVector(tuple(map(neg, self.re)), tuple(map(neg, self.im)))

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self)) + ")"


def _check_len(v: GaussVector, w: GaussVector) -> None:
    if len(v) != len(w):
        raise DimensionMismatch(f"vector lengths differ: {len(v)} vs {len(w)}")


IntRows = tuple[tuple[int, ...], ...]


class GaussMatrix(_Frozen):
    """Matrix of Gaussian integers, stored as the int rows re = S and
    im = A of H = S + iA.  `_kernel`, its compiled step (`_step_kernel`),
    is built on first use and takes no part in ==, hash, repr or pickling.
    The raw (re, im) constructor trusts its caller, as GaussVector's does;
    a model's entries are checked by HamiltonianSpec before it is built."""

    _fields = ("re", "im")
    __slots__ = _fields + ("_kernel",)

    def __init__(self, re: IntRows, im: IntRows) -> None:
        width = len(re[0]) if re else 0
        if width == 0 or len(im) != len(re) or any(len(r) != width for r in re + im):
            raise DimensionMismatch("matrix needs rows, all non-empty and of one length in re and im")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "_kernel", None)

    @classmethod
    def identity(cls, m: int) -> "GaussMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(m)) for i in range(m)), ((0,) * m,) * m)

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

    def __add__(self, other: "GaussMatrix") -> "GaussMatrix":
        return _entrywise(add, self, other)

    def __sub__(self, other: "GaussMatrix") -> "GaussMatrix":
        return _entrywise(sub, self, other)

    def __matmul__(self, other):
        if isinstance(other, GaussVector):
            return mat_vec(self, other)
        if isinstance(other, GaussMatrix):
            if self.shape[1] != other.shape[0]:
                raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
            # column j of self @ other is self applied to column j of other
            cols = [mat_vec(self, GaussVector(r, i)) for r, i in zip(zip(*other.re), zip(*other.im))]
            return GaussMatrix(tuple(zip(*(v.re for v in cols))), tuple(zip(*(v.im for v in cols))))
        return NotImplemented

    def conjugate_transpose(self) -> "GaussMatrix":
        return GaussMatrix(tuple(zip(*self.re)), tuple(tuple(map(neg, c)) for c in zip(*self.im)))

    def transpose(self) -> "GaussMatrix":
        return GaussMatrix(tuple(zip(*self.re)), tuple(zip(*self.im)))

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
    """Exact matrix-vector product: i times the parts (Sp + Ax, Ap - Sx) of
    -iMv that M's step returns from zero accumulators."""
    if M.shape[1] != len(v):
        raise DimensionMismatch(f"matrix {M.shape} cannot act on length-{len(v)} vector")
    zeros = (0,) * len(M.re)
    re, im = _step_kernel(M)(v.re, v.im, zeros, zeros)
    return GaussVector(tuple(map(neg, im)), re)


def _step_kernel(M: GaussMatrix) -> Callable:
    """M's `kernel(x, p, a, b) -> (a + Sp + Ax, b - Sx + Ap)`, the parts of
    (a + ib) - iM(x + ip), compiled on first use and cached on M.  The kernel
    unpacks its arguments into locals x0, p0, a0, b0, ...; row 0 of Hm:16,
    say, becomes `a0-x1+p15`.  A zero entry gives no term, a +-1 a bare sign
    and any other int a hex literal, so the source holds only int indices
    and hex literals, whatever the size of the entries."""
    if M._kernel is not None:
        return M._kernel
    re, im = [], []
    for k, (rs, ra) in enumerate(zip(M.re, M.im)):
        r, i = [f"+a{k}"], [f"+b{k}"]
        for j, (s, a) in enumerate(zip(rs, ra)):
            if s:
                r.append(_term(s, f"p{j}"))
                i.append(_term(-s, f"x{j}"))
            if a:
                r.append(_term(a, f"x{j}"))
                i.append(_term(a, f"p{j}"))
        re.append(_tree_sum(r))
        im.append(_tree_sum(i))
    xs = "".join(f"x{j}," for j in range(M.shape[1]))
    acc = "".join(f"a{k}," for k in range(len(M.re)))
    unpack = f" {xs} = x\n {xs.replace('x', 'p')} = p\n {acc} = a\n {acc.replace('a', 'b')} = b\n"
    namespace: dict = {}
    exec(f"def kernel(x, p, a, b):\n{unpack} return ({','.join(re)},), ({','.join(im)},)", namespace)
    object.__setattr__(M, "_kernel", namespace["kernel"])
    return namespace["kernel"]


def _term(c: int, var: str) -> str:
    """`+var`, `-var` or a signed `hex*var`: hex() formats the int value
    itself (an int subclass cannot change it) and has no digit limit."""
    h = hex(c)
    sign, h = ("-", h[1:]) if h[0] == "-" else ("+", h)
    return sign + var if h == "0x1" else f"{sign}{h}*{var}"


def _tree_sum(terms: list[str]) -> str:
    """The signed terms summed as a balanced tree of flat chains of at most
    32: a flat chain of thousands of terms overflows the compiler's stack."""
    if len(terms) > 32:
        half = len(terms) // 2
        return f"({_tree_sum(terms[:half])})+({_tree_sum(terms[half:])})"
    return "".join(terms).lstrip("+")


def is_hermitian(M: GaussMatrix) -> bool:
    """Entry-exact test that M equals its conjugate transpose."""
    if not M.is_square():
        raise DimensionMismatch("hermiticity is defined for square matrices only")
    return M == M.conjugate_transpose()
