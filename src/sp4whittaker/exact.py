"""Exact arithmetic substrate: Gaussian rationals, dense matrices, bivariate polynomials.

Everything here is immutable and computes exactly (arbitrary-precision
rationals); no floats enter this module.
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
        """Exact inverse via Gauss-Jordan; raises on singular input."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
               for i, row in enumerate(self.entries)]
        for col in range(n):
            piv = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
            if piv is None:
                raise ValueError("singular matrix")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = aug[col][col].inverse()
            aug[col] = [inv * a for a in aug[col]]
            for r in range(n):
                if r != col and not aug[r][col].is_zero():
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        return ExactMatrix([row[n:] for row in aug])

    def rank(self) -> int:
        return len(_row_echelon([list(r) for r in self.entries])[1])

    def __repr__(self):
        body = "; ".join(", ".join(repr(a) for a in row) for row in self.entries)
        return f"ExactMatrix[{body}]"


def _dot(a: Iterable[GR], b: Iterable[GR]) -> GR:
    total = ZERO
    for x, y in zip(a, b):
        total = total + x * y
    return total


def _row_echelon(m: list[list[GR]]):
    """In-place fraction-free elimination; deterministic pivots.

    Pivot selection scans columns left to right, taking the first row with a
    nonzero entry (no magnitude-based pivoting), so the result is identical
    across runs.  Returns (matrix, pivot column -> row map).
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    piv_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not m[i][c].is_zero()), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                fi = m[i][c]
                m[i] = [pv * a - fi * b for a, b in zip(m[i], m[r])]
        piv_of_col[c] = r
        r += 1
        if r == nrows:
            break
    return m, piv_of_col


def kernel_basis(system: ExactMatrix) -> list[tuple]:
    """Basis of the right null space, exact.

    Each basis vector is normalized so its first nonzero coordinate is 1;
    the basis order follows the free columns left to right.
    """
    if system.rows == 0 or system.cols == 0:
        return [tuple(ONE if i == j else ZERO for i in range(system.cols))
                for j in range(system.cols)]
    m, piv_of_col = _row_echelon([list(r) for r in system.entries])
    ncols = system.cols
    free_cols = [c for c in range(ncols) if c not in piv_of_col]
    basis = []
    for fc in free_cols:
        v = [ZERO] * ncols
        v[fc] = ONE
        for c, r in piv_of_col.items():
            # pivot row: m[r][c]*v[c] + sum over later columns = 0
            v[c] = -m[r][fc] / m[r][c]
        lead = next(x for x in v if not x.is_zero())
        inv = lead.inverse()
        basis.append(tuple(inv * x for x in v))
    return basis


class BivariatePolynomial:
    """Polynomial in x1, x2 with GaussianRational coefficients.

    Stored as a map (deg_x1, deg_x2) -> coefficient; zero coefficients are
    never kept.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: dict | None = None):
        clean = {}
        for key, val in (coefficients or {}).items():
            v = GR.coerce(val)
            if not v.is_zero():
                clean[(int(key[0]), int(key[1]))] = v
        object.__setattr__(self, "coefficients", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePolynomial is immutable")

    @classmethod
    def constant(cls, c: Scalarish) -> "BivariatePolynomial":
        return cls({(0, 0): GR.coerce(c)})

    @classmethod
    def x1(cls) -> "BivariatePolynomial":
        return cls({(1, 0): ONE})

    @classmethod
    def x2(cls) -> "BivariatePolynomial":
        return cls({(0, 1): ONE})

    def __add__(self, other):
        out = dict(self.coefficients)
        for k, v in other.coefficients.items():
            out[k] = out.get(k, ZERO) + v
        return BivariatePolynomial(out)

    def __sub__(self, other):
        out = dict(self.coefficients)
        for k, v in other.coefficients.items():
            out[k] = out.get(k, ZERO) - v
        return BivariatePolynomial(out)

    def __mul__(self, other):
        if isinstance(other, BivariatePolynomial):
            return poly_mul(self, other)
        c = GR.coerce(other)
        return BivariatePolynomial({k: c * v for k, v in self.coefficients.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(frozenset(self.coefficients.items()))

    def is_zero(self) -> bool:
        return not self.coefficients

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coefficients:
            return -1
        return max(i + j for i, j in self.coefficients)

    def is_homogeneous(self) -> bool:
        degs = {i + j for i, j in self.coefficients}
        return len(degs) <= 1

    def coefficient(self, deg_x1: int, deg_x2: int) -> GR:
        return self.coefficients.get((deg_x1, deg_x2), ZERO)

    def __pow__(self, n: int) -> "BivariatePolynomial":
        if n < 0:
            raise ValueError("negative power")
        out = BivariatePolynomial.constant(1)
        for _ in range(n):
            out = poly_mul(out, self)
        return out

    def __repr__(self):
        if not self.coefficients:
            return "0"
        parts = [f"({v})*x1^{i}*x2^{j}" for (i, j), v in sorted(self.coefficients.items())]
        return " + ".join(parts)


def poly_mul(p: BivariatePolynomial, q: BivariatePolynomial) -> BivariatePolynomial:
    """Exact product of bivariate polynomials."""
    out: dict = {}
    for (a, b), c in p.coefficients.items():
        for (e, f), g in q.coefficients.items():
            k = (a + e, b + f)
            prev = out.get(k, ZERO)
            out[k] = prev + c * g
    return BivariatePolynomial(out)
