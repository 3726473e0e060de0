"""Exact arithmetic substrate: Gaussian rationals and dense matrices.

Everything here is immutable and computes exactly: a Gaussian rational is
three Python ints, and no floats enter this module.  One in-place Gauss-Jordan
reduction, `_rref`, serves `ExactMatrix.inverse`, `ExactMatrix.rank` and
`kernel_basis`.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Scalarish = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """A number (a + b*i)/d with integers a, b, d, stored with d > 0 and
    gcd(a, b, d) = 1, so that equal numbers store equal triples."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError("GaussianRational parts must be int or Fraction")
        # coprime parts over the lcm of their denominators have gcd 1 already
        d = lcm(re.denominator, im.denominator)
        _set_a(self, re.numerator * (d // re.denominator))
        _set_b(self, im.numerator * (d // im.denominator))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(x: Scalarish) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return _make(x.numerator, 0, x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    def __add__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        d, od = self._d, o._d
        if d == od:
            return _norm(self._a + o._a, self._b + o._b, d)
        return _norm(self._a * od + o._a * d, self._b * od + o._b * d, d * od)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        d, od = self._d, o._d
        if d == od:
            return _norm(self._a - o._a, self._b - o._b, d)
        return _norm(self._a * od - o._a * d, self._b * od - o._b * d, d * od)

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        a, b, oa, ob = self._a, self._b, o._a, o._b
        if b == 0 and ob == 0:
            return _norm(a * oa, 0, self._d * o._d)
        return _norm(a * oa - b * ob, a * ob + b * oa, self._d * o._d)

    __rmul__ = __mul__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """Exact |z|^2 = z * conjugate(z)."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        if a == 0 and b == 0:
            raise ZeroDivisionError("inverse of zero")
        return _norm(a * d, -b * d, a * a + b * b)

    def __truediv__(self, other):
        return self * self.coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.coerce(other) * self.inverse()

    def __eq__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        o = _coerce(other)
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # a real value hashes as the equal Fraction or int does
        return hash(self.re) if self._b == 0 else hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        # int / int is correctly rounded, the same value as float(Fraction(a, d))
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0 or re == 0:
            return f"{re}" if im == 0 else f"{im}*i"
        return f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"


# the slots' own setters build results past the blocked __setattr__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__
_coerce = GaussianRational.coerce


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d from parts already in lowest terms with d > 0."""
    z = object.__new__(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _norm(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, reduced by the one gcd of its three parts."""
    g = gcd(a, b, d)
    return _make(a, b, d) if g == 1 else _make(a // g, b // g, d // g)


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

    def __reduce__(self):
        return ExactMatrix, (self.entries,)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

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
        return ExactMatrix(list(zip(*self.entries)))

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
    return sum((x * y for x, y in zip(a, b)), ZERO)


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
