"""Finite sums c * y1^p * y2^q * exp(r*y1) * W_{kappa,mu}(t*y1), closed under
the Euler operators y_i d/dy_i.

Coefficients are GaussianRational while everything stays exact (monomial
families) and silently promote to complex floats once an inexact scalar
enters.  The W factor differentiates through the kappa-raising relation, so
no finite differences appear anywhere in this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import GaussianRational as GR
from .specialfns import whittaker_w

# term key: (p, q, r, w) with p, q Fractions, r a float decay rate in
# exp(r*y1), and w either None or (kappa, mu, t) floats for W(t*y1)
Key = tuple


def _is_exact(c) -> bool:
    return isinstance(c, GR)


def _cadd(a, b):
    if _is_exact(a) and _is_exact(b):
        return a + b
    return complex(a) + complex(b)


def _cmul(a, b):
    if _is_exact(a) and _is_exact(b):
        return a * b
    return complex(a) * complex(b)


def _iszero(c) -> bool:
    if _is_exact(c):
        return c.is_zero()
    return c == 0


def coerce_scalar(c):
    """ints and Fractions become exact; floats/complex stay floating."""
    if isinstance(c, GR):
        return c
    if isinstance(c, (int, Fraction)):
        return GR(c)
    return complex(c)


@dataclass(frozen=True)
class RadialFunction:
    terms: tuple  # ((key, coeff), ...) consolidated, zero-free

    @staticmethod
    def from_dict(d: dict) -> "RadialFunction":
        items = tuple(sorted(((k, v) for k, v in d.items() if not _iszero(v)),
                             key=lambda kv: _key_order(kv[0])))
        return RadialFunction(items)

    @staticmethod
    def zero() -> "RadialFunction":
        return RadialFunction(())

    @staticmethod
    def monomial(coeff, p, q, r: float = 0.0, w: tuple | None = None) -> "RadialFunction":
        key = (Fraction(p), Fraction(q), float(r), w)
        return RadialFunction.from_dict({key: coerce_scalar(coeff)})

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        d = dict(self.terms)
        for k, v in other.terms:
            d[k] = _cadd(d[k], v) if k in d else v
        return RadialFunction.from_dict(d)

    def scale(self, c) -> "RadialFunction":
        c = coerce_scalar(c)
        if _iszero(c):
            return RadialFunction.zero()
        return RadialFunction.from_dict({k: _cmul(v, c) for k, v in self.terms})

    def __sub__(self, other):
        return self + other.scale(-1)

    def mul_y1(self) -> "RadialFunction":
        return RadialFunction.from_dict({(k[0] + 1, k[1], k[2], k[3]): v
                                         for k, v in self.terms})

    def euler_y1(self) -> "RadialFunction":
        """y1 d/dy1, exact on monomials, kappa-raising on W factors."""
        out: dict = {}

        def acc(key, val):
            if key in out:
                out[key] = _cadd(out[key], val)
            else:
                out[key] = val

        for (p, q, r, w), c in self.terms:
            acc((p, q, r, w), _cmul(c, GR(p) if _is_exact(c) else complex(p)))
            slope = r + (0.5 * w[2] if w is not None else 0.0)
            if slope != 0.0:
                acc((p + 1, q, r, w), _cmul(c, slope))
            if w is not None:
                kappa, mu, t = w
                acc((p, q, r, w), _cmul(c, -kappa))
                acc((p, q, r, (kappa + 1.0, mu, t)), _cmul(c, -1.0))
        return RadialFunction.from_dict(out)

    def euler_y2(self) -> "RadialFunction":
        return RadialFunction.from_dict(
            {k: _cmul(v, GR(k[1]) if _is_exact(v) else complex(k[1]))
             for k, v in self.terms})

    def d1(self) -> "RadialFunction":
        """a1 d/da1 in the (y1, y2) = (a1/a2, a1 a2) coordinates."""
        return self.euler_y1() + self.euler_y2()

    def d2(self) -> "RadialFunction":
        """a2 d/da2 in the same coordinates."""
        return self.euler_y2() - self.euler_y1()

    def is_zero(self) -> bool:
        return not self.terms

    def is_exact(self) -> bool:
        return all(_is_exact(v) for _, v in self.terms)

    def is_monomial_like(self) -> bool:
        """No W factor and no exponential: pure powers of y1, y2."""
        return all(k[2] == 0.0 and k[3] is None for k, _ in self.terms)

    def term_values(self, a1: float, a2: float) -> list[complex]:
        y1 = a1 / a2
        y2 = a1 * a2
        vals = []
        for (p, q, r, w), c in self.terms:
            v = complex(c) * y1 ** float(p) * y2 ** float(q)
            if r != 0.0:
                v *= math.exp(r * y1)
            if w is not None:
                kappa, mu, t = w
                v *= whittaker_w(kappa=kappa, mu=mu, y=t * y1)
            vals.append(v)
        return vals

    def evaluate(self, a1: float, a2: float) -> complex:
        return sum(self.term_values(a1, a2), complex(0))

    def evaluate_y(self, y1: float, y2: float) -> complex:
        return self.evaluate(math.sqrt(y1 * y2), math.sqrt(y2 / y1))

    def coefficient(self, key: Key):
        for k, v in self.terms:
            if k == key:
                return v
        return GR(0)


def _key_order(key: Key):
    p, q, r, w = key
    return (p, q, r, () if w is None else w)
