import copy
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4whittaker.exact import (ExactMatrix, GaussianRational as GR, I,
                                kernel_basis)

small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
gaussians = st.builds(GR, small_rationals, small_rationals)


def matrices(n):
    return st.lists(st.lists(gaussians, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(ExactMatrix)


def test_gaussian_arithmetic_is_exact():
    z = GR(Fraction(1, 3), Fraction(-2, 7))
    w = GR(Fraction(5, 2), Fraction(1, 7))
    assert (z + w) - w == z
    assert z * w == w * z
    assert (z * w) * z.inverse() == w * (z * z.inverse())
    assert z * z.inverse() == GR(1)


@given(gaussians)
def test_conjugation_involution(z):
    assert z.conjugate().conjugate() == z
    assert (z * z.conjugate()).im == 0


# reference arithmetic on (re, im) pairs of Fractions, sharing no code with
# exact.py: z and w are pairs, the result a pair
def _pair(z):
    return (z.re, z.im)


def _ref_mul(z, w):
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def _ref_inverse(z):
    n = z[0] * z[0] + z[1] * z[1]
    return (z[0] / n, -z[1] / n)


def _assert_stored(z):
    a, b, d = z._a, z._b, z._d
    assert all(type(x) is int for x in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (Fraction(a, d), Fraction(b, d))


wide_rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))
wide_parts = st.one_of(st.integers(-10**6, 10**6), wide_rationals)


@settings(max_examples=300, deadline=None)
@given(wide_parts, wide_parts, wide_parts, wide_parts, wide_parts)
def test_arithmetic_against_fraction_pairs(a, b, c, e, s):
    z, w = GR(a, b), GR(c, e)
    zp, wp = (Fraction(a), Fraction(b)), (Fraction(c), Fraction(e))
    sp = (Fraction(s), Fraction(0))
    expected = [
        (z, zp),
        (z + w, (zp[0] + wp[0], zp[1] + wp[1])),
        (z - w, (zp[0] - wp[0], zp[1] - wp[1])),
        (z + z, (2 * zp[0], 2 * zp[1])),  # equal denominators
        (z * w, _ref_mul(zp, wp)),
        (GR(a) * GR(c), (zp[0] * wp[0], 0)),  # both imaginary parts 0
        (z.conjugate(), (zp[0], -zp[1])),
        (-z, (-zp[0], -zp[1])),
        # int and Fraction operands on either side
        (z + s, (zp[0] + sp[0], zp[1])),
        (s - z, (sp[0] - zp[0], -zp[1])),
        (s * z, _ref_mul(sp, zp)),
        (z * s, _ref_mul(zp, sp)),
    ]
    if any(wp):
        expected += [(w.inverse(), _ref_inverse(wp)),
                     (z / w, _ref_mul(zp, _ref_inverse(wp))),
                     (s / w, _ref_mul(sp, _ref_inverse(wp)))]
    if s:
        expected.append((z / s, (zp[0] / sp[0], zp[1] / sp[0])))
    for got, ref in expected:
        _assert_stored(got)
        assert _pair(got) == ref
        assert got == GR(*ref)
    n = z.norm()
    assert type(n) is Fraction and n == zp[0] ** 2 + zp[1] ** 2
    assert (z == w) == (zp == wp)
    assert complex(z) == complex(float(zp[0]), float(zp[1]))


@pytest.mark.parametrize("z, text", [
    (GR(0), "0"),
    (GR(7), "7"),
    (GR(-3), "-3"),
    (GR(Fraction(-5, 6)), "-5/6"),
    (GR(0, 1), "1*i"),
    (GR(0, -1), "-1*i"),
    (GR(0, Fraction(3, 4)), "3/4*i"),
    (GR(0, Fraction(-3, 4)), "-3/4*i"),
    (GR(2, -1), "2-1*i"),
    (GR(Fraction(1, 3), Fraction(-2, 7)), "1/3-2/7*i"),
    (GR(Fraction(-1, 2), Fraction(5, 2)), "-1/2+5/2*i"),
])
def test_repr_table(z, text):
    assert repr(z) == text


@pytest.mark.parametrize("bad", [0.1, 1.0, 1j, "1/3", Decimal("0.5"), None])
def test_constructor_takes_only_int_or_fraction(bad):
    with pytest.raises(TypeError):
        GR(bad)
    with pytest.raises(TypeError):
        GR(1, bad)


def test_hash_agrees_with_equality():
    assert GR(1) == 1 and len({GR(1), 1}) == 1
    assert len({GR(Fraction(2, 3)), Fraction(2, 3)}) == 1
    for x in (0, 1, -7, Fraction(2, 3), Fraction(-5, 4)):
        assert hash(GR(x)) == hash(x)
    assert hash(GR(1, 2)) == hash(GR(Fraction(2, 2), Fraction(4, 2)))
    assert GR(1, 2) != GR(1) and GR(0, 1) != 1


def test_copy_and_pickle_round_trip():
    z = GR(Fraction(1, 3), Fraction(-2, 7))
    m = ExactMatrix([[1, I], [z, GR(Fraction(1, 2))]])
    for x in (z, GR(0), I, m, ExactMatrix([])):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and type(y) is type(x) and repr(y) == repr(x)
    with pytest.raises(AttributeError):
        pickle.loads(pickle.dumps(z))._a = 0


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GR(0).inverse()


def test_i_squares_to_minus_one():
    assert I * I == GR(-1)


@settings(max_examples=40, deadline=None)
@given(matrices(3), matrices(3), matrices(3))
def test_matrix_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_transpose_involution():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    assert m.transpose().transpose() == m
    assert m.transpose().rows == 3


def test_inverse_roundtrip():
    m = ExactMatrix([[1, I], [0, GR(Fraction(1, 2))]])
    assert m * m.inverse() == ExactMatrix.identity(2)


def test_kernel_of_zero_map():
    basis = kernel_basis(ExactMatrix([[0]]))
    assert basis == [(GR(1),)]


def test_kernel_of_injective_map():
    assert kernel_basis(ExactMatrix.identity(2)) == []


def test_kernel_alternating_recurrence():
    # three chained constraints x_i + x_{i+2} = 0 on five unknowns; the
    # brute-force oracle over sign patterns gives exactly the even/odd
    # alternating sequences, a two-dimensional space
    rows = []
    for i in range(3):
        row = [0] * 5
        row[i] = 1
        row[i + 2] = 1
        rows.append(row)
    basis = kernel_basis(ExactMatrix(rows))
    assert len(basis) == 2

    def satisfies(v):
        return all(v[i] + v[i + 2] == GR(0) for i in range(3))

    for v in basis:
        assert satisfies(v)
    # oracle: enumerate support patterns e_j - e_{j+2} + e_{j+4} ... and
    # check every alternating sequence lies in the span
    even = [GR(1), GR(0), GR(-1), GR(0), GR(1)]
    odd = [GR(0), GR(1), GR(0), GR(-1), GR(0)]
    assert satisfies(even) and satisfies(odd)
    m = ExactMatrix([list(b) for b in basis] + [even]).transpose()
    assert m.rank() == 2


@settings(max_examples=40, deadline=None)
@given(matrices(3))
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert all(x.is_zero() for x in m.matvec(v))


def test_kernel_deterministic():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6]])
    assert kernel_basis(m) == kernel_basis(m)


def _sympy(m):
    import sympy
    return sympy.Matrix(m.rows, m.cols, [
        sympy.Rational(x.re.numerator, x.re.denominator)
        + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator)
        for row in m.entries for x in row])


def _random_matrices(seed=20261018):
    # small Gaussian-rational matrices: square, non-square, rank-deficient
    # products, with a zero row, all zero, and empty
    rng = random.Random(seed)

    def entry():
        return GR(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    def dense(r, c):
        return ExactMatrix([[entry() for _ in range(c)] for _ in range(r)])

    out = [ExactMatrix([]), ExactMatrix([[]]), ExactMatrix.zero(2, 3),
           ExactMatrix.zero(3, 3)]
    for _ in range(6):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        out.append(dense(r, c))
        out.append(dense(r, r))
        k = rng.randint(1, 2)
        out.append(dense(r, k) * dense(k, c))
        out.append(dense(k, r).transpose() * dense(k, r))
        with_zero_row = [list(row) for row in dense(r + 1, c).entries]
        with_zero_row[rng.randrange(r + 1)] = [GR(0)] * c
        out.append(ExactMatrix(with_zero_row))
    return out


def test_elimination_against_sympy():
    # rank, kernel and inverse against sympy's Matrix.rank, nullspace and inv,
    # which share no code with the package's elimination
    import sympy
    inverted = singular = 0
    for m in _random_matrices():
        s = _sympy(m)
        rank = s.rank()
        assert m.rank() == rank, m
        ours = kernel_basis(m)
        assert len(ours) == len(s.nullspace()) == m.cols - rank, m
        if ours:
            k = sympy.Matrix.hstack(*[_sympy(ExactMatrix([v]).transpose()) for v in ours])
            assert (s * k).expand().is_zero_matrix, m
            assert k.rank() == len(ours)
        if m.rows != m.cols:
            continue
        if rank < m.rows:
            singular += 1
            with pytest.raises(ValueError, match="singular matrix"):
                m.inverse()
        else:
            inverted += 1
            assert (_sympy(m.inverse()) - s.inv()).expand().is_zero_matrix, m
    assert inverted >= 3 and singular >= 3
