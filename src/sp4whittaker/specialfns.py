"""Numerical evaluation of the exponentially decaying Whittaker function.

Three evaluation regimes, split by a = mu - kappa + 1/2 (after mu -> |mu|):

* a a nonpositive integer: the function terminates,
  W(y) = exp(-y/2) y^(mu+1/2) (-1)^n n! L_n^(2mu)(y) with n = -a.  The
  generic routes are catastrophically ill-conditioned here at small y,
  so the closed form is mandatory, not an optimization.
* a >= 0.1: Laplace-type integral, one double-exponential quadrature
  pass in doubles on a fixed node table.
* a < 0.1 otherwise: the climb.  The neighbours W_{k-1} and W_k, with
  a = mu - k + 1/2 in (1, 2] at k, come from one double-exponential
  quadrature pass on a fixed node table, and the three-term kappa
  recurrence climbs from k to kappa.  Below a = 0.1 the integrand's
  t^(a-1) endpoint outruns the double-precision node table; seeding above
  a = 1 keeps it out of the climb's quadrature too.  The climb cancels up
  to ~1e9 at small y, so it runs at elevated precision and rounds once at
  the end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp


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


# The climb works at _CLIMB_DPS digits.  Its seeds come from the trapezoidal
# rule in u after t = c exp(u - e^-u), on u in [-5, 6] with steps 2^-1 down
# to 2^-_DE_LEVELS, and are accepted once two successive steps agree to
# _SEED_TOL.  A node whose term lies below e^-_DE_SKIP of the term at c is
# under the sums' last digit and is skipped.
_CLIMB_DPS = 30
_SEED_TOL = 1e-24
_DE_U = (-5, 6)
_DE_LEVELS = 6
_DE_SKIP = 80.0
# The integral regime takes the same rule in doubles on u in [-7, 6]: the
# t^(a-1) endpoint decays like e^(-a e^-u), which at a = 0.1 needs u down
# to about -6.  It accepts once two successive steps agree to _QUAD_TOL.
_QUAD_U = (-7, 6)
_QUAD_TOL = 1e-13
# below this a = mu - kappa + 1/2 the integral's node table no longer
# reaches into the t^(a-1) endpoint, and W comes from the climb, one step
# from a + 1
_CLIMB_BELOW_A = 0.1


def _de_levels(lo: int, hi: int):
    """(n, steps) per level, the nodes being u = i/n for i in steps.
    Level 0 holds every node of step 1/2 on [lo, hi], level j > 0 the
    nodes that step 2^-(j+1) adds."""
    for j in range(_DE_LEVELS):
        n = 2 ** (j + 1)
        yield n, range(lo * n, hi * n + 1) if j == 0 else range(lo * n + 1, hi * n, 2)


@lru_cache(maxsize=1)
def _de_nodes() -> tuple:
    """The climb's fixed node table, level by level.

    A node is (v, e^v, 1 + e^-u, float(v), float(e^v)) with v = u - e^-u,
    so that t = c e^v and dt = t (1 + e^-u) du.
    """
    levels = []
    with mp.workdps(_CLIMB_DPS):
        for n, steps in _de_levels(*_DE_U):
            nodes = []
            for i in steps:
                eu = mp.exp(-mp.mpf(i) / n)
                v = mp.mpf(i) / n - eu
                ev = mp.exp(v)
                nodes.append((v, ev, 1 + eu, float(v), float(ev)))
            levels.append(tuple(nodes))
    return tuple(levels)


@lru_cache(maxsize=1)
def _quad_nodes() -> tuple:
    """The integral regime's node table in doubles, nodes (v, e^v, 1 + e^-u)."""
    levels = []
    for n, steps in _de_levels(*_QUAD_U):
        nodes = []
        for i in steps:
            eu = math.exp(-i / n)
            v = i / n - eu
            nodes.append((v, math.exp(v), 1.0 + eu))
        levels.append(tuple(nodes))
    return tuple(levels)


def _de_centre(a: float, b: float, y: float) -> float:
    """c of t = c exp(u - e^-u): the peak of t e^-t t^(a-1) (1+t/y)^b,
    where -1 + a/t + b/(y+t) = 0, kept at 1/2 or more so that the last
    node, t ~ 403 c, lies deep in the e^-t tail."""
    p = y - a - b
    disc = math.sqrt(p * p + 4.0 * a * y)
    return max((disc - p) / 2.0 if p < 0.0 else 2.0 * a * y / (p + disc), 0.5)


def _w_integral(kappa: float, mu: float, y: float) -> float:
    # the climb's rule in doubles.  The integrand is positive, so the sum
    # loses nothing to cancellation; each term is taken relative to the
    # term at c, and one far below it underflows to 0.
    a = mu - kappa + 0.5
    b = mu + kappa - 0.5
    c = _de_centre(a, b, y)
    lc = math.log1p(c / y)
    const = c - b * lc
    s = 0.0
    prev = None
    for j, nodes in enumerate(_quad_nodes()):
        for v, ev, jac in nodes:
            t = c * ev
            s += math.exp(a * v - t + b * math.log1p(t / y) + const) * jac
        cur = math.ldexp(s, -(j + 1))
        if prev is not None and abs(cur - prev) <= _QUAD_TOL * cur:
            log_scale = a * math.log(c) - const - y / 2.0 + kappa * math.log(y)
            return math.exp(log_scale - math.lgamma(a)) * cur
        prev = cur
    raise WhittakerConvergenceError(
        f"quadrature tolerance not reached at kappa={kappa}, mu={mu}, y={y}")


def _climb_seeds(a, b, y):
    """(g, s0, s1) with e^g s0 = int_0^inf e^-t t^(a-1) (1+t/y)^b dt and
    e^g s1 the same integral with t^a (1+t/y)^(b-1), the kappa one lower.

    One pass serves both, as the second integrand is the first times
    t/(1+t/y).  c is `_de_centre`, and g is the log of the term at c, so
    the sums are O(1).  For a in (1, 2] the last node, t ~ 403 c, lies at
    least e^-190 below the term at c for y from 1e-8 to 1e6.
    """
    af, bf, yf = float(a), float(b), float(y)
    cf = _de_centre(af, bf, yf)
    c = mp.mpf(cf)
    lc = mp.log(1 + c / y)
    # log of a node's term over the term at c: a v - t + b log(1+t/y) + const
    const = c - b * lc
    constf = float(const)
    s0 = s1 = mp.mpf(0)
    prev = None
    for j, nodes in enumerate(_de_nodes()):
        for v, ev, jac, vf, evf in nodes:
            tf = cf * evf
            if af * vf - tf + bf * math.log1p(tf / yf) + constf < -_DE_SKIP:
                continue
            t = c * ev
            r = 1 + t / y
            f = mp.exp(a * v - t + b * mp.log(r) + const) * jac
            s0 += f
            s1 += f * t / r
        h = mp.ldexp(1, -(j + 1))
        cur = (s0 * h, s1 * h)
        if prev is not None and all(abs(x - x0) <= _SEED_TOL * abs(x)
                                    for x, x0 in zip(cur, prev)):
            return a * mp.log(c) - c + b * lc, cur[0], cur[1]
        prev = cur
    raise WhittakerConvergenceError(
        f"climb seeds did not converge at a={af}, b={bf}, y={yf}")


def _w_climb(kappa: float, mu: float, y: float) -> float:
    # seed at a = mu - k + 1/2 in (1, 2], away from the t^(a-1) endpoint,
    # and climb m steps of the kappa recurrence; the climb cancels up to
    # ~1e9 at small y, so it runs at elevated precision and rounds once
    m = math.floor(kappa - mu + 1.5)
    with mp.workdps(_CLIMB_DPS):
        mu_, y_ = mp.mpf(mu), mp.mpf(y)
        k0 = mp.mpf(kappa) - m
        a = mu_ - k0 + 0.5
        g, wcur, s1 = _climb_seeds(a, mu_ + k0 - 0.5, y_)
        # W_k = C s0 and W_{k-1} = C s1 / (a y), with the common factor
        # C = e^(g - y/2) y^k / Gamma(a), as Gamma(a + 1) = a Gamma(a)
        wprev = s1 / (a * y_)
        k = k0
        for _ in range(m):
            wnext = (y_ - 2 * k) * wcur + (mu_ ** 2 - (k - 0.5) ** 2) * wprev
            wprev, wcur, k = wcur, wnext, k + 1
        return float(wcur * mp.exp(g - y_ / 2 + k0 * mp.log(y_) - mp.loggamma(a)))


# bounded so that long runs over distinct inputs keep their memory; one
# `verify all` fills 3,721 entries
@lru_cache(maxsize=4096)
def _w_cached(kappa: float, mu: float, y: float) -> float:
    n = _terminating_order(kappa, mu)
    if n is not None:
        return _w_terminating(n, mu, y)
    if mu - kappa + 0.5 >= _CLIMB_BELOW_A:
        return _w_integral(kappa, mu, y)
    return _w_climb(kappa, mu, y)


def whittaker_w(idx: WhittakerIndex | None = None, y: float = None, *,
                kappa: float = None, mu: float = None) -> float:
    """The moderate-growth solution W_{kappa,mu}(y), y > 0.

    Relative accuracy 1e-10 or better on y in [0.1, 50], |kappa|, |mu| <= 10,
    except within 1e-9 of the terminating set kappa = |mu| + 1/2 + n, where
    the closed form is taken and can be off in the leading digit.
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
    """W from mpmath's hypergeometric route (DLMF 13.14), at dps digits.

    Shares no code with the evaluator, which never calls it; used to
    cross-check it on every regime.
    """
    with mp.workdps(dps):
        return float(mp.whitw(kappa, mu, y))
