"""Irreducible U(2) K-types on homogeneous polynomials and the two bases.

The monomial basis v_i = x1^i x2^(d-i) (index = x1-degree, ascending) and the
basis u_i = (x1+i*x2)^i (x1-i*x2)^(d-i), together with the exact generator
actions, the change-of-basis matrices, and the seven contraction identities
the radial systems rely on.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .exact import ExactMatrix, GaussianRational as GR, I, ONE, ZERO


@dataclass(frozen=True)
class DominantWeight:
    L1: int
    L2: int

    def __post_init__(self):
        if self.L1 < self.L2:
            raise ValueError("dominance requires L1 >= L2")

    @property
    def d(self) -> int:
        return self.L1 - self.L2


V, U, VSTAR, USTAR = "V", "U", "Vstar", "Ustar"
_BASIS_TAGS = (V, U, VSTAR, USTAR)


@dataclass(frozen=True)
class KTypeVector:
    weight: DominantWeight
    basis_tag: str
    coords: tuple

    def __post_init__(self):
        if self.basis_tag not in _BASIS_TAGS:
            raise ValueError(f"unknown basis tag {self.basis_tag!r}")
        if len(self.coords) != self.weight.d + 1:
            raise ValueError("coordinate length must be d+1")
        object.__setattr__(self, "coords", tuple(GR.coerce(c) for c in self.coords))


def unit_vector(weight: DominantWeight, basis_tag: str, k: int) -> KTypeVector:
    if not 0 <= k <= weight.d:
        raise ValueError("index out of range")
    return KTypeVector(weight, basis_tag,
                       tuple(ONE if i == k else ZERO for i in range(weight.d + 1)))


def _shift(coords, offset, factor):
    """coords' with coords'[k + offset] += factor(k) * coords[k], truncating."""
    n = len(coords)
    out = [ZERO] * n
    for k, c in enumerate(coords):
        if c.is_zero():
            continue
        t = k + offset
        if 0 <= t < n:
            out[t] = out[t] + GR.coerce(factor(k)) * c
    return tuple(out)


def act(gen: str, v: KTypeVector) -> KTypeVector:
    """Infinitesimal action of a generator in the displayed basis rules.

    Z, H, X, Xbar act on the V and Vstar bases; Zprime acts on the U and
    Ustar bases.  Anything else is rejected.
    """
    w, d = v.weight, v.weight.d
    tag = v.basis_tag
    if gen == "Zprime":
        if tag not in (U, USTAR):
            raise ValueError("Zprime acts on the U/Ustar bases only")
        coords = _shift(v.coords, 0, lambda k: 2 * k - d)
        return KTypeVector(w, tag, coords)
    if tag not in (V, VSTAR):
        raise ValueError(f"{gen} acts on the V/Vstar bases only")
    dual = tag == VSTAR
    if gen == "Z":
        s = -(w.L1 + w.L2) if dual else (w.L1 + w.L2)
        coords = _shift(v.coords, 0, lambda k: s)
    elif gen == "H":
        coords = _shift(v.coords, 0, lambda k: 2 * k - d)
    elif gen == "X":
        coords = _shift(v.coords, 1, (lambda k: k + 1) if dual else (lambda k: d - k))
    elif gen == "Xbar":
        coords = _shift(v.coords, -1, (lambda k: d + 1 - k) if dual else (lambda k: k))
    else:
        raise ValueError(f"unsupported generator {gen!r}")
    return KTypeVector(w, tag, coords)


def pairing(v: KTypeVector, w: KTypeVector) -> GR:
    """Invariant pairing between V and Vstar: <v_i, v*_j> = (-1)^i delta_{i+j,d}."""
    tags = {v.basis_tag, w.basis_tag}
    if tags != {V, VSTAR}:
        raise ValueError("pairing is defined between V and Vstar vectors")
    if v.weight.d != w.weight.d:
        raise ValueError("degree mismatch")
    a, b = (v, w) if v.basis_tag == V else (w, v)
    d = v.weight.d
    total = ZERO
    for i in range(d + 1):
        sign = ONE if i % 2 == 0 else -ONE
        total = total + sign * a.coords[i] * b.coords[d - i]
    return total


_I_POWERS = (ONE, I, -ONE, -I)


@lru_cache(maxsize=64)
def beta_matrix(n: int) -> ExactMatrix:
    """(n+1)x(n+1) matrix B with row i the expansion of (x1+i*x2)^i (x1-i*x2)^(n-i).

    Entry (i, j) is the coefficient on x1^j x2^m, m = n - j: taking k of the
    x2 factors from the first power and m - k from the second gives
    i^m * sum_k (-1)^(m-k) C(i, k) C(n-i, m-k).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    def entry(i: int, m: int) -> GR:
        s = sum((-1) ** (m - k) * comb(i, k) * comb(n - i, m - k) for k in range(m + 1))
        return _I_POWERS[m % 4] * s

    return ExactMatrix([[entry(i, n - j) for j in range(n + 1)] for i in range(n + 1)])


@lru_cache(maxsize=64)
def beta_matrix_inverse(n: int) -> ExactMatrix:
    return beta_matrix(n).inverse()


def change_basis(v: KTypeVector, to: str) -> KTypeVector:
    """Exact change of basis V <-> U and Vstar <-> Ustar.

    Dual coefficient vectors transform by B (Vstar -> Ustar) and B^-1 back;
    primal coordinate vectors transform by the transposes the other way.
    """
    d = v.weight.d
    tag = v.basis_tag
    if tag == to:
        return v
    if {tag, to} == {VSTAR, USTAR}:
        m = beta_matrix(d) if tag == VSTAR else beta_matrix_inverse(d)
    elif {tag, to} == {V, U}:
        m = beta_matrix_inverse(d).transpose() if tag == V else beta_matrix(d).transpose()
    else:
        raise ValueError(f"no conversion {tag} -> {to}")
    return KTypeVector(v.weight, to, m.matvec(v.coords))


def _ident_cases(n: int, b, b2, h, f):
    """The seven contraction identities, as (label, index range, lhs, rhs) closures.

    Identity (2) is implemented with the (n-2i)/(n-i) coefficients in the
    h_i / h_{i+1} slots; the swapped variant only holds at i = 0.
    """
    half_i = I * Fraction(1, 2)
    quarter = GR(Fraction(1, 4))
    cases = [
        ("1", range(0, n + 1),
         lambda i: sum((b[i][j] * (j * (j - 1) * f(j - 1) + (n - j) * (n - j - 1) * f(j + 1))
                        for j in range(n + 1)), ZERO),
         lambda i: I * (i * (n - i)) * (h(i - 1) - h(i + 1))),
        ("2", range(0, n + 1),
         lambda i: sum((b[i][j] * (j * f(j - 1)) for j in range(n + 1)), ZERO),
         lambda i: half_i * (i * h(i - 1) + (n - 2 * i) * h(i) - (n - i) * h(i + 1))),
        ("3", range(0, n + 1),
         lambda i: sum((b[i][j] * ((n - 2 * j) * f(j)) for j in range(n + 1)), ZERO),
         lambda i: -(n - i) * h(i + 1) - GR(i) * h(i - 1)),
        ("4", range(0, n + 1),
         lambda i: sum((b[i][j] * ((n - j) * f(j + 1)) for j in range(n + 1)), ZERO),
         lambda i: half_i * (i * h(i - 1) - (n - 2 * i) * h(i) - (n - i) * h(i + 1))),
        ("5", range(0, n - 1),
         lambda i: sum((b2[i][j] * f(j) for j in range(n - 1)), ZERO),
         lambda i: -quarter * (h(i) + h(i + 2)) + GR(Fraction(1, 2)) * h(i + 1)),
        ("5'", range(0, n - 1),
         lambda i: sum((b2[i][j] * f(j + 2) for j in range(n - 1)), ZERO),
         lambda i: quarter * (h(i) + h(i + 2)) + GR(Fraction(1, 2)) * h(i + 1)),
        ("6", range(0, n - 1),
         lambda i: sum((b2[i][j] * f(j + 1) for j in range(n - 1)), ZERO),
         lambda i: (h(i + 2) - h(i)) / (I * 4)),
        ("7", range(0, n - 1),
         lambda i: sum((b2[i][j] * (-j * f(j) + (n - j - 2) * f(j + 2)) for j in range(n - 1)), ZERO),
         lambda i: quarter * (-n + 2 * i + 2) * (h(i + 2) - h(i))),
    ]
    return cases


def check_beta_identities(n: int) -> list[dict]:
    """Verify the seven identities exactly for every unit vector f = e_u.

    By linearity, unit vectors suffice.  Returns one report entry per
    identity with PASS/FAIL status.
    """
    if n < 2:
        raise ValueError("n >= 2 required (three identities live in degree n-2)")
    b = beta_matrix(n).entries
    b2 = beta_matrix(n - 2).entries
    report = []
    for u in range(n + 1):
        fvec = [ONE if j == u else ZERO for j in range(n + 1)]
        hvec = [sum((b[k][j] * fvec[j] for j in range(n + 1)), ZERO) for k in range(n + 1)]

        def f(j, fv=fvec):
            return fv[j] if 0 <= j <= n else ZERO

        def h(k, hv=hvec):
            return hv[k] if 0 <= k <= n else ZERO

        for label, irange, lhs, rhs in _ident_cases(n, b, b2, h, f):
            bad = [i for i in irange if lhs(i) != rhs(i)]
            entry = next((e for e in report if e["identity"] == label), None)
            if entry is None:
                entry = {"identity": label, "status": "PASS", "failed_indices": []}
                report.append(entry)
            if bad:
                entry["status"] = "FAIL"
                entry["failed_indices"] = sorted(set(entry["failed_indices"]) | set(bad))
    return report
