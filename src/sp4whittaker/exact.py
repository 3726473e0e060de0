"""Exact arithmetic substrate: Gaussian rationals and dense matrices.

Everything here is immutable and computes exactly (arbitrary-precision
rationals); no floats enter this module.  One in-place Gauss-Jordan
reduction, `_rref`, serves `ExactMatrix.inverse`, `ExactMatrix.rank` and
`kernel_basis`.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalarish = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """A number a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(x: Scalarish) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    def __add__(self, other):
        o = self.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __mul__(self, other):
        o = self.coerce(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """Exact |z|^2 = z * conjugate(z)."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * self.coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.coerce(other) * self.inverse()

    def __eq__(self, other):
        try:
            o = self.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


GR = GaussianRational
ZERO = GR(0)
ONE = GR(1)
I = GR(0, 1)


class ExactMatrix:
    """Dense matrix over GaussianRational."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Scalarish]]):
        rows = tuple(tuple(GR.coerce(e) for e in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other):
        self._shape_check(other)
        return ExactMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._shape_check(other)
        return ExactMatrix([[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return ExactMatrix([[-a for a in row] for row in self.entries])

    def _shape_check(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            ot = other.transpose().entries
            return ExactMatrix([[_dot(row, col) for col in ot] for row in self.entries])
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Scalarish) -> "ExactMatrix":
        c = GR.coerce(c)
        return ExactMatrix([[c * a for a in row] for row in self.entries])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self.entries[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

    def matvec(self, v: Sequence[Scalarish]) -> tuple:
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        vv = [GR.coerce(x) for x in v]
        return tuple(_dot(row, vv) for row in self.entries)

    def inverse(self) -> "ExactMatrix":
        """Exact inverse by Gauss-Jordan on [A | I]; raises on singular input."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
               for i, row in enumerate(self.entries)]
        if len(_rref(aug, n)) < n:
            raise ValueError("singular matrix")
        return ExactMatrix([row[n:] for row in aug])

    def rank(self) -> int:
        return len(_rref([list(r) for r in self.entries], self.cols))

    def __repr__(self):
        body = "; ".join(", ".join(repr(a) for a in row) for row in self.entries)
        return f"ExactMatrix[{body}]"


def _dot(a: Iterable[GR], b: Iterable[GR]) -> GR:
    total = ZERO
    for x, y in zip(a, b):
        total = total + x * y
    return total


def _rref(m: list[list[GR]], ncols: int) -> dict[int, int]:
    """In-place Gauss-Jordan reduction of the first ncols columns of m.

    Pivots are deterministic: columns left to right, each taking the first
    remaining row with a nonzero entry (no magnitude-based pivoting).  Each
    pivot row is scaled to a leading 1 and its column cleared from every
    other row, so m ends in its unique reduced row echelon form.  Returns
    the pivot column -> row map.
    """
    pivots: dict[int, int] = {}
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * a for a in m[r]]
        for i, row in enumerate(m):
            if i != r and not row[c].is_zero():
                f = row[c]
                m[i] = [a - f * b for a, b in zip(row, m[r])]
        pivots[c] = r
    return pivots


def kernel_basis(system: ExactMatrix) -> list[tuple]:
    """Basis of the right null space, exact.

    Each basis vector is normalized so its first nonzero coordinate is 1;
    the basis order follows the free columns left to right.
    """
    m = [list(r) for r in system.entries]
    pivots = _rref(m, system.cols)
    basis = []
    for fc in range(system.cols):
        if fc in pivots:
            continue
        v = [ZERO] * system.cols
        v[fc] = ONE
        for c, r in pivots.items():
            # pivot row r reads v[c] + sum of m[r][j] * v[j] over free j = 0
            v[c] = -m[r][fc]
        inv = next(x for x in v if not x.is_zero()).inverse()
        basis.append(tuple(inv * x for x in v))
    return basis
