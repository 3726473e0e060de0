import random
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
