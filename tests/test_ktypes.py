from fractions import Fraction

import pytest

from sp4whittaker.exact import ExactMatrix, GaussianRational as GR
from sp4whittaker.ktypes import (DominantWeight, U, USTAR, V, VSTAR, act,
                                 beta_matrix, beta_matrix_inverse, change_basis,
                                 check_beta_identities, pairing, unit_vector)


def test_act_h_on_bottom_vector():
    w = DominantWeight(2, 0)
    v0 = unit_vector(w, V, 0)
    assert act("H", v0).coords == tuple(GR(c) for c in (-2, 0, 0))


def test_act_x_truncates_at_top():
    w = DominantWeight(2, 0)
    v2 = unit_vector(w, V, 2)
    assert all(c.is_zero() for c in act("X", v2).coords)


def test_act_zprime_on_u_dual():
    w = DominantWeight(3, -1)
    u2 = unit_vector(w, USTAR, 2)
    assert act("Zprime", u2).coords == tuple(GR(0) for _ in range(5))


def test_act_z_scalar_and_dual_sign():
    w = DominantWeight(3, -1)
    assert act("Z", unit_vector(w, V, 1)).coords[1] == GR(2)
    assert act("Z", unit_vector(w, VSTAR, 1)).coords[1] == GR(-2)


def test_act_rejects_unsupported_pairs():
    w = DominantWeight(2, 0)
    with pytest.raises(ValueError):
        act("X", unit_vector(w, U, 0))
    with pytest.raises(ValueError):
        act("Zprime", unit_vector(w, V, 0))
    with pytest.raises(ValueError):
        act("Q", unit_vector(w, V, 0))


def test_beta_matrix_degree_one():
    b = beta_matrix(1)
    assert b[0, 1] == GR(1) and b[0, 0] == GR(0, -1)
    assert b[1, 1] == GR(1) and b[1, 0] == GR(0, 1)


def test_beta_matrix_degree_two_middle_row():
    # (x1+i x2)(x1-i x2) = x1^2 + x2^2
    b = beta_matrix(2)
    assert [b[1, j] for j in range(3)] == [GR(1), GR(0), GR(1)]


def test_beta_matrix_degree_zero():
    assert beta_matrix(0) == ExactMatrix([[1]])


def test_beta_identities_small_and_large():
    for n in (2, 12):
        rows = check_beta_identities(n)
        assert len(rows) == 8  # identity (5) has two displayed halves
        assert all(r["status"] == "PASS" for r in rows), rows


def test_beta_identity_sharpness():
    # the same contraction with the last two coefficient slots swapped is
    # not an identity; the exact comparison must notice
    n = 3
    b = beta_matrix(n).entries
    found_failure = False
    for i in range(n + 1):
        for u in range(n + 1):
            f = [GR(1) if j == u else GR(0) for j in range(n + 1)]
            h = [sum((b[k][j] * f[j] for j in range(n + 1)), GR(0))
                 for k in range(n + 1)]

            def hh(k):
                return h[k] if 0 <= k <= n else GR(0)

            lhs = sum((b[i][j] * (j * (f[j - 1] if j >= 1 else GR(0)))
                       for j in range(n + 1)), GR(0))
            rhs = GR(0, Fraction(1, 2)) * (i * hh(i - 1) + (n - i) * hh(i)
                                           - (n - 2 * i) * hh(i + 1))
            if lhs != rhs:
                found_failure = True
    assert found_failure


def test_beta_requires_degree_two():
    with pytest.raises(ValueError):
        check_beta_identities(1)


def test_change_basis_round_trip():
    w = DominantWeight(3, -1)
    for tag, other in ((V, U), (VSTAR, USTAR)):
        for k in range(w.d + 1):
            v = unit_vector(w, tag, k)
            assert change_basis(change_basis(v, other), tag).coords == v.coords


def test_change_basis_degree_one_expansions():
    # degree-one weight: u_0 = x1 - i x2 = -i*v_0 + v_1, u_1 = x1 + i x2
    w = DominantWeight(1, 0)
    u0 = unit_vector(w, U, 0)
    assert change_basis(u0, V).coords == (GR(0, -1), GR(1))
    u1 = unit_vector(w, U, 1)
    assert change_basis(u1, V).coords == (GR(0, 1), GR(1))


def test_beta_invertibility():
    for n in range(0, 13):
        assert beta_matrix(n) * beta_matrix_inverse(n) == ExactMatrix.identity(n + 1)


def test_dual_pairing_contragredient():
    for d in range(0, 9):
        w = DominantWeight(d, 0)
        for gen in ("H", "X", "Xbar", "Z"):
            for k in range(d + 1):
                for m in range(d + 1):
                    v = unit_vector(w, V, k)
                    u = unit_vector(w, VSTAR, m)
                    assert (pairing(act(gen, v), u) + pairing(v, act(gen, u))).is_zero()


def test_beta_matrix_against_sympy_expansion():
    # row i of B is the expansion of (x1 + i x2)^i (x1 - i x2)^(n-i)
    # on x1^j x2^(n-j), read off by sympy's polynomial expansion
    import sympy
    x1, x2 = sympy.symbols("x1 x2")
    for n in range(11):
        b = beta_matrix(n)
        for i in range(n + 1):
            p = sympy.Poly(sympy.expand((x1 + sympy.I * x2) ** i
                                        * (x1 - sympy.I * x2) ** (n - i)), x1, x2)
            for j in range(n + 1):
                c = p.coeff_monomial(x1 ** j * x2 ** (n - j))
                assert b[i, j] == GR(int(sympy.re(c)), int(sympy.im(c))), (n, i, j)


def test_beta_caches_are_bounded():
    from sp4whittaker import ktypes
    for cached in (ktypes.beta_matrix, ktypes.beta_matrix_inverse):
        assert cached.cache_info().maxsize is not None
