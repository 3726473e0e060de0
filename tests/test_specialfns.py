import gc
import math
import random
from fractions import Fraction

import mpmath
import pytest

from sp4whittaker import specialfns
from sp4whittaker.specialfns import (WhittakerDomainError, WhittakerIndex,
                                     check_contiguous, pochhammer, whittaker_w,
                                     whittaker_w_dy, whittaker_w_oracle,
                                     _fd_derivative)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_pochhammer_examples():
    assert pochhammer(-1, 0) == 1
    assert pochhammer(-1, 1) == -1
    assert pochhammer(-1, 2) == 0
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)


def test_closed_form_terminating_cases():
    # kappa = mu + 1/2 collapses to a pure power times the decay factor
    assert rel(whittaker_w(kappa=1.0, mu=0.5, y=2.0), 2.0 * math.exp(-1.0)) < 1e-14
    y = 4.0 * math.pi
    assert rel(whittaker_w(kappa=1.5, mu=1.0, y=y),
               y ** 1.5 * math.exp(-y / 2.0)) < 1e-13
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    for mu in (0.5, 1.0, 1.5, 2.0):
        for yy in grid:
            ref = yy ** (mu + 0.5) * math.exp(-yy / 2.0)
            assert rel(whittaker_w(kappa=mu + 0.5, mu=mu, y=yy), ref) < 1e-12


def test_reflection_closed_form_value():
    # oracle value frozen from mpmath's whitw; equals the mu -> -mu
    # reflected terminating case exp(-y/2)
    frozen = 0.6065306597126334
    got = whittaker_w(kappa=0.0, mu=0.5, y=1.0)
    assert rel(got, frozen) < 1e-12
    assert rel(whittaker_w_oracle(0.0, 0.5, 1.0), frozen) < 1e-12


def test_oracle_agreement_sample():
    for kappa, mu, y in ((-1.5, 2.0, 0.5), (0.5, 1.5, 3.0), (-3.0, 0.0, 10.0),
                         (2.0, 3.0, 1.0)):
        assert rel(whittaker_w(kappa=kappa, mu=mu, y=y),
                   whittaker_w_oracle(kappa, mu, y)) < 1e-8


def test_domain_errors():
    with pytest.raises(WhittakerDomainError):
        whittaker_w(kappa=1.0, mu=0.5, y=0.0)
    with pytest.raises(WhittakerDomainError):
        whittaker_w(kappa=1.0, mu=0.5, y=-2.0)
    with pytest.raises(WhittakerDomainError):
        WhittakerIndex(math.nan, 0.0)


def test_derivative_of_terminating_case():
    # d/dy [y exp(-y/2)] = (1 - y/2) exp(-y/2) vanishes at y = 2
    assert abs(whittaker_w_dy(kappa=1.0, mu=0.5, y=2.0)) < 1e-12


def test_derivative_matches_finite_differences():
    for kappa, mu, y in ((0.5, 1.0, 2.0), (-2.5, 1.5, 0.7), (3.0, 0.5, 5.0)):
        ana = whittaker_w_dy(kappa=kappa, mu=mu, y=y)
        num = _fd_derivative(lambda s: whittaker_w(kappa=kappa, mu=mu, y=s), y,
                             h=1e-4 * y)
        assert rel(ana, num) < 1e-6


def test_annihilation_at_terminating_index():
    # the downward shift applied at kappa = mu + 1/2 has a vanishing factor
    kappa, mu = 1.0, 0.5
    for y in (0.5, 2.0, 7.0):
        w = whittaker_w(kappa=kappa, mu=mu, y=y)
        dw = whittaker_w_dy(kappa=kappa, mu=mu, y=y)
        assert abs(y * dw + (y / 2.0 - kappa) * w) < 1e-10 * max(abs(w), 1.0)


def test_check_contiguous_pass_and_reflection():
    out = check_contiguous(WhittakerIndex(0.5, 1.0), [0.5, 1.0, 2.0, 8.0])
    assert out["status"] == "PASS"
    assert rel(whittaker_w(kappa=1.0, mu=0.5, y=3.0),
               whittaker_w(kappa=1.0, mu=-0.5, y=3.0)) < 1e-10
    with pytest.raises(ValueError):
        check_contiguous(WhittakerIndex(0.5, 1.0), [])


def test_shift_loop_consistency():
    # climbing one step and descending back multiplies by the known factor
    for kappa, mu in ((0.5, 1.5), (-1.0, 2.0), (1.5, 3.0)):
        for y in (0.5, 2.0, 8.0):
            w0 = whittaker_w(kappa=kappa, mu=mu, y=y)
            w1 = whittaker_w(kappa=kappa + 1.0, mu=mu, y=y)
            d1 = whittaker_w_dy(kappa=kappa + 1.0, mu=mu, y=y)
            fac = mu * mu - (kappa + 0.5) ** 2
            lhs = y * d1 + (y / 2.0 - (kappa + 1.0)) * w1
            assert rel(lhs, -fac * w0) < 1e-8


def test_monotone_decay_tail():
    prev = None
    for y in (10.0, 20.0, 30.0, 40.0, 50.0):
        val = whittaker_w(kappa=1.5, mu=2.0, y=y)
        assert val > 0
        if prev is not None:
            assert val < prev
        prev = val


def test_accuracy_against_independent_high_precision_route():
    # spot-check all three evaluation regimes against an unrelated engine
    mp = pytest.importorskip("mpmath")
    cases = [(1.0, 0.5, 2.0), (-2.5, 1.5, 0.3), (2.0, 0.0, 7.0),
             (3.0, 1.0, 0.25), (2.5, 1.0, 4.0)]
    for kappa, mu, y in cases:
        with mp.workdps(30):
            ref = float(mp.whitw(kappa, mu, y))
        assert rel(whittaker_w(kappa=kappa, mu=mu, y=y), ref) < 1e-10


def _whitw(kappa, mu, y):
    # mpmath's hypergeometric route at 40 digits shares no code with whittaker_w
    with mpmath.workdps(40):
        return float(mpmath.whitw(kappa, mu, y))


# Climb points that the seed quadrature at a in (0, 1] once missed (the first
# four) or crashed on (the last, a seed integral near 2^97).
_CLIMB_FAULTS = ((3.408, 0.917, 0.204), (7.511, 3.064, 20.754),
                 (7.701, 0.4, 0.443), (4.628, 2.384, 2.169),
                 (9.436497230753048, 8.685935061211913, 0.11954596974306195))


def _documented_box_points():
    rng = random.Random(20231)
    log_y = (math.log(0.1), math.log(50.0))
    points = []
    for _ in range(150):
        points.append((rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0),
                       math.exp(rng.uniform(*log_y))))
    # dense band on both sides of the terminating set a = -n, a = mu - kappa + 1/2
    for _ in range(150):
        n = rng.randint(0, 9)
        eps = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-8.0, math.log10(0.5))
        mu = rng.uniform(0.0, 9.5 - n)
        points.append((mu + 0.5 + n - eps, rng.choice((1.0, -1.0)) * mu,
                       math.exp(rng.uniform(*log_y))))
    return points + list(_CLIMB_FAULTS)


def test_accuracy_over_documented_box():
    bad = [(kappa, mu, y) for kappa, mu, y in _documented_box_points()
           if rel(whittaker_w(kappa=kappa, mu=mu, y=y), _whitw(kappa, mu, y)) > 1e-10]
    assert bad == []


def test_integral_regime_edges():
    # a at the climb boundary and far above it, y far outside the box: the
    # double-exponential pass converges and stays near double precision
    for a in (0.1, 0.5, 20.0):
        for mu in (0.0, 4.25, 10.0):
            kappa = mu + 0.5 - a
            for y in (1e-4, 0.1, 50.0, 1e3):
                assert rel(whittaker_w(kappa=kappa, mu=mu, y=y), _whitw(kappa, mu, y)) < 1e-12


@pytest.mark.xfail(strict=True, reason="within 1e-9 of the terminating set the "
                   "closed form is used, and W is off by an order of one there")
def test_snap_band_next_to_terminating_set():
    kappa, mu, y = 6.32016742587149, 4.8201674250716415, 0.32697774576694055
    assert rel(whittaker_w(kappa=kappa, mu=mu, y=y), _whitw(kappa, mu, y)) < 1e-10


def test_climb_never_calls_the_oracle(monkeypatch):
    # points no other test evaluates, so the W cache cannot serve them; the
    # last has a = 0.03 and reaches the climb from the integral regime's side
    points = ((3.3125, 0.6875, 0.8125), (7.0625, 2.4375, 13.5),
              (1.4375, 0.96875, 2.75))
    # the references come from mpmath.whitw, so take them before the patch
    refs = [_whitw(kappa, mu, y) for kappa, mu, y in points]

    def no_whitw(*args, **kwargs):
        raise AssertionError("mp.whitw called")

    monkeypatch.setattr(specialfns.mp, "whitw", no_whitw)
    for (kappa, mu, y), ref in zip(points, refs):
        assert rel(whittaker_w(kappa=kappa, mu=mu, y=y), ref) < 1e-10
    with pytest.raises(AssertionError):
        whittaker_w_oracle(0.25, 1.0, 1.0)


def test_oracle_on_terminating_set_matches_closed_form():
    # a = mu - kappa + 1/2 = 0, where the defining integral does not converge:
    # W = y^(mu+1/2) e^(-y/2), a reference that shares no code with whitw
    for mu in (0.0, 0.75, 2.0, 4.5):
        for y in (0.1, 1.0, 7.5, 40.0):
            ref = y ** (mu + 0.5) * math.exp(-y / 2.0)
            assert rel(whittaker_w_oracle(mu + 0.5, mu, y), ref) < 1e-13
            assert rel(whittaker_w_oracle(mu + 0.5, -mu, y), ref) < 1e-13


def test_oracle_memory_stays_bounded():
    # each batch evaluates 100 inputs not seen before.  mpmath's own tables
    # keyed by working precision (Bernoulli numbers, gamma coefficients) may
    # gain a few objects when a new precision is met; they are bounded by
    # the precisions, not the inputs.  A per-input cache, such as mpmath's
    # tanh-sinh node cache, leaves about ten objects per call.
    def batch(shift):
        for i in range(100):
            whittaker_w_oracle(-1.0 + 0.0137 * i + shift, 1.3 + shift, 0.5 + 0.05 * i)

    batch(0.0)
    counts = []
    for shift in (0.001, 0.002):
        batch(shift)
        gc.collect()
        counts.append(len(gc.get_objects()))
    assert abs(counts[1] - counts[0]) < 50


def test_w_cache_is_bounded():
    assert specialfns._w_cached.cache_info().maxsize is not None
