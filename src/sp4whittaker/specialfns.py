"""Numerical evaluation of the exponentially decaying Whittaker function.

Three evaluation regimes, split by a = mu - kappa + 1/2 (after mu -> |mu|):

* a a nonpositive integer: the function terminates,
  W(y) = exp(-y/2) y^(mu+1/2) (-1)^n n! L_n^(2mu)(y) with n = -a.  The
  generic routes are catastrophically ill-conditioned here at small y,
  so the closed form is mandatory, not an optimization.
* a > 0: Laplace-type integral, adaptive quadrature in doubles.
* a < 0 not an integer: seed two neighbours inside the integral region and
  climb with the three-term kappa recurrence.  The climb cancels up to ~1e9
  at small y, so it runs at elevated precision and rounds once at the end.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from scipy.integrate import IntegrationWarning, quad


class WhittakerDomainError(ValueError):
    pass


class WhittakerConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class WhittakerIndex:
    kappa: float
    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.mu)):
            raise WhittakerDomainError("indices must be finite")


def pochhammer(x: Fraction | int, n: int) -> Fraction:
    """Rising factorial x(x+1)...(x+n-1), exact; empty product is 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = Fraction(1)
    x = Fraction(x)
    for k in range(n):
        out *= x + k
    return out


_INT_TOL = 1e-9


def _terminating_order(kappa: float, mu: float) -> int | None:
    """n >= 0 with kappa = mu + 1/2 + n, or None."""
    n = kappa - mu - 0.5
    if n > -_INT_TOL and abs(n - round(n)) < _INT_TOL:
        return int(round(n))
    return None


def _w_terminating(n: int, mu: float, y: float) -> float:
    # generalized Laguerre L_n^(2mu) via the standard three-term recurrence
    alpha = 2.0 * mu
    lprev, lcur = 0.0, 1.0
    for k in range(n):
        lprev, lcur = lcur, ((2 * k + 1 + alpha - y) * lcur - (k + alpha) * lprev) / (k + 1)
    sign = -1.0 if n % 2 else 1.0
    return math.exp(-y / 2.0) * y ** (mu + 0.5) * sign * math.factorial(n) * lcur


def _w_integral(kappa: float, mu: float, y: float) -> float:
    a = mu - kappa + 0.5
    b = mu + kappa - 0.5
    lgam = math.lgamma(a)

    def integrand(t: float) -> float:
        if t <= 0.0:
            return 0.0
        return math.exp(-t + (a - 1.0) * math.log(t) + b * math.log1p(t / y) - lgam)

    cut = max(1.0, a + abs(b))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        v1, e1 = quad(integrand, 0.0, cut, epsabs=0.0, epsrel=1e-12, limit=300)
        v2, e2 = quad(integrand, cut, math.inf, epsabs=0.0, epsrel=1e-12, limit=300)
    val = v1 + v2
    if e1 + e2 > 1e-8 * max(abs(val), 1e-280):
        raise WhittakerConvergenceError(
            f"quadrature tolerance not reached at kappa={kappa}, mu={mu}, y={y}")
    return math.exp(-y / 2.0) * y ** kappa * val


def _mp_integral(kappa, mu, y):
    a = mu - kappa + mp.mpf(1) / 2
    b = mu + kappa - mp.mpf(1) / 2
    f = lambda t: mp.e ** (-t) * t ** (a - 1) * (1 + t / y) ** b
    val = mp.quad(f, [0, a + abs(b) + 10, mp.inf])
    return mp.e ** (-y / 2) * y ** kappa * val / mp.gamma(a)


def _w_climb(kappa: float, mu: float, y: float) -> float:
    # non-integer gap: high-precision seeds + recurrence, rounded once;
    # the cancellation along the climb stays below ~1e9 on the supported
    # domain, so 24 digits leave ample headroom
    m = math.ceil(kappa - mu - 0.5 + _INT_TOL)
    with mp.workdps(24):
        mu_, y_ = mp.mpf(mu), mp.mpf(y)
        k = mp.mpf(kappa) - m
        wprev = _mp_integral(k - 1, mu_, y_)
        wcur = _mp_integral(k, mu_, y_)
        for _ in range(m):
            wnext = (y_ - 2 * k) * wcur + (mu_ ** 2 - (k - mp.mpf(1) / 2) ** 2) * wprev
            wprev, wcur, k = wcur, wnext, k + 1
        return float(wcur)


@lru_cache(maxsize=None)
def _w_cached(kappa: float, mu: float, y: float) -> float:
    n = _terminating_order(kappa, mu)
    if n is not None:
        return _w_terminating(n, mu, y)
    if mu - kappa + 0.5 > 0.0:
        return _w_integral(kappa, mu, y)
    return _w_climb(kappa, mu, y)


def whittaker_w(idx: WhittakerIndex | None = None, y: float = None, *,
                kappa: float = None, mu: float = None) -> float:
    """The moderate-growth solution W_{kappa,mu}(y), y > 0.

    Relative accuracy 1e-10 or better on y in [0.1, 50], |kappa|, |mu| <= 10.
    Symmetric in mu -> -mu.
    """
    if idx is not None:
        kappa, mu = idx.kappa, idx.mu
    if y is None or kappa is None or mu is None:
        raise TypeError("whittaker_w needs (idx, y) or (kappa=, mu=, y)")
    if not (isinstance(y, (int, float)) and math.isfinite(y)) or y <= 0:
        raise WhittakerDomainError(f"argument must be positive and finite, got {y}")
    return _w_cached(float(kappa), abs(float(mu)), float(y))


def whittaker_w_dy(idx: WhittakerIndex | None = None, y: float = None, *,
                   kappa: float = None, mu: float = None) -> float:
    """dW/dy, analytically: [(y/2 - kappa) W_{kappa,mu} - W_{kappa+1,mu}] / y."""
    if idx is not None:
        kappa, mu = idx.kappa, idx.mu
    w0 = whittaker_w(kappa=kappa, mu=mu, y=y)
    w1 = whittaker_w(kappa=kappa + 1.0, mu=mu, y=y)
    return ((y / 2.0 - kappa) * w0 - w1) / y


def _fd_derivative(f, y: float, h: float | None = None) -> float:
    """Five-point central difference, O(h^4).

    The default step balances truncation against roundoff for the
    exponentially decaying profiles here up to arguments of order 100.
    """
    if h is None:
        h = 2e-4 * y
    return (f(y - 2 * h) - 8 * f(y - h) + 8 * f(y + h) - f(y + 2 * h)) / (12 * h)


def _rel(x: float, scale: float) -> float:
    return abs(x) / max(scale, 1e-280)


def check_contiguous(idx: WhittakerIndex, y_grid: list[float],
                     tol: float = 1e-8) -> dict:
    """Residuals of the kappa-shift and mu-reflection relations on a grid.

    The derivative is taken by finite differences here so the shift
    relations are checked rather than restated.
    """
    if not y_grid:
        raise ValueError("empty grid")
    kappa, mu = idx.kappa, idx.mu
    rows = []
    for y in y_grid:
        w = whittaker_w(kappa=kappa, mu=mu, y=y)
        dw = _fd_derivative(lambda t: whittaker_w(kappa=kappa, mu=mu, y=t), y)
        up = whittaker_w(kappa=kappa + 1.0, mu=mu, y=y)
        down = whittaker_w(kappa=kappa - 1.0, mu=mu, y=y)
        scale = max(abs(y * dw), abs(y / 2.0 * w), abs(kappa * w), abs(up), abs(down))
        r_up = _rel(y * dw - y / 2.0 * w + kappa * w + up, scale)
        fac = mu * mu - (kappa - 0.5) ** 2
        r_down = _rel(y * dw + y / 2.0 * w - kappa * w + fac * down, scale)
        refl = whittaker_w(kappa=kappa, mu=-mu, y=y)
        r_refl = _rel(w - refl, abs(w))
        rows.append({"y": y, "raise": r_up, "lower": r_down, "reflect": r_refl})
    worst = max(max(r["raise"], r["lower"], r["reflect"]) for r in rows)
    # the finite difference itself carries ~1e-10 relative noise; the shift
    # relations are asserted at tol against that floor
    return {"kappa": kappa, "mu": mu, "rows": rows, "max_residual": worst,
            "status": "PASS" if worst < tol else "FAIL"}


def whittaker_w_oracle(kappa: float, mu: float, y: float, dps: int = 25) -> float:
    """Independent quadrature of the defining integral (tanh-sinh engine).

    Valid only where mu - kappa + 1/2 > 0; used to cross-check the primary
    evaluator, never called by it.
    """
    mu = abs(mu)
    if mu - kappa + 0.5 <= 0:
        raise WhittakerDomainError("oracle requires mu - kappa + 1/2 > 0")
    with mp.workdps(dps):
        return float(_mp_integral(mp.mpf(kappa), mp.mpf(mu), mp.mpf(y)))
