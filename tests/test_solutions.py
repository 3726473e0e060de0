import math
import random
from fractions import Fraction

import pytest

from sp4whittaker.exact import GaussianRational as GR
from sp4whittaker.radial import RadialFunction
from sp4whittaker.solutions import (CoefficientFamily, DegenerateCharacter,
                                    ParameterError, blattner,
                                    borel_recurrence_solve, borel_solution,
                                    classify, compare_borel_formulas,
                                    radial_system_residual,
                                    raising_lowering_check, siegel_solution,
                                    sl2_module_descriptor, sl2_whittaker)

GRID = [(math.sqrt(r * s), math.sqrt(s / r))
        for r in (0.2, 0.5, 1.0, 2.0, 5.0) for s in (0.5, 1.0, 2.0)]


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# -- classification and the minimal K-type shift ---------------------------

def test_classify_chambers():
    assert classify(2, -1).xi_type == "II"
    assert classify(1, -3).xi_type == "III"
    assert classify(2, 1).xi_type == "I"
    assert classify(-1, -3).xi_type == "IV"


@pytest.mark.parametrize("pair", [(2, 2), (2, -2), (0, -1), (3, 0), (-1, 3)])
def test_classify_rejects_singular(pair):
    with pytest.raises(ParameterError):
        classify(*pair)


def test_blattner_shifts():
    assert blattner(classify(2, -1)) == blattner(classify(2, -1))
    L = blattner(classify(2, -1))
    assert (L.L1, L.L2, L.d) == (3, -1, 4)
    L = blattner(classify(1, -3))
    assert (L.L1, L.L2, L.d) == (1, -4, 5)
    L = blattner(classify(2, 1))
    assert (L.L1, L.L2, L.d) == (3, 3, 0)


def test_mirror_preserves_ktype_dimension():
    for pair in ((2, -1), (3, -1), (3, -2), (4, -1)):
        p = classify(*pair)
        q = p.mirror()
        assert {p.xi_type, q.xi_type} == {"II", "III"}
        assert blattner(p).d == blattner(q).d


# -- the moderate-growth families -------------------------------------------

def _wcoeffs(fam):
    out = []
    for f in fam.entries:
        w = [c for (p, q, r, w), c in f.terms if w is not None]
        out.append(complex(w[0]).real if w else 0.0)
    return out


def test_siegel_tables_type_ii():
    p = classify(2, -1)
    fam = siegel_solution(p, 1.0, C0=1.0, C1=1.0)
    assert _wcoeffs(fam) == [0.0, 0.0, 0.0, 1.0, 1.0]
    # the exponential branch sits at the top index only
    tails = [any(w is None for (pp, qq, r, w), _ in f.terms) for f in fam.entries]
    assert tails == [False, False, False, False, True]
    fam = siegel_solution(p, -1.0, C0=1.0, C1=1.0)
    assert _wcoeffs(fam) == [1.0, 1.0, 0.0, 0.0, 0.0]
    tails = [any(w is None for (pp, qq, r, w), _ in f.terms) for f in fam.entries]
    assert tails == [True, False, False, False, False]


def test_siegel_anchor_value():
    # frozen: the anchor entry at the unit torus point equals the pure
    # power-decay profile 4*pi*exp(-2*pi) = 0.0234669774677338967
    p = classify(2, -1)
    fam = siegel_solution(p, 1.0, C0=1.0, C1=0.0)
    got = fam.entries[3].evaluate(1.0, 1.0)
    frozen = 4.0 * math.pi * math.exp(-2.0 * math.pi)
    assert abs(frozen - 0.0234669774677338967) < 1e-17
    assert rel(got.real, frozen) < 1e-10 and abs(got.imag) == 0.0


def test_siegel_rejects_flat_character_and_small_chambers():
    with pytest.raises(ParameterError):
        siegel_solution(classify(2, -1), 0.0)
    with pytest.raises(ParameterError):
        siegel_solution(classify(2, 1), 1.0)


def test_siegel_residuals_all_parameters():
    for pair in ((2, -1), (3, -1), (3, -2), (4, -1),
                 (1, -2), (1, -3), (2, -3), (1, -4)):
        p = classify(*pair)
        for c0 in (1.0, -1.0):
            fam = siegel_solution(p, c0, C0=1.0, C1=0.7)
            out = radial_system_residual(fam, p, DegenerateCharacter(c0), GRID)
            assert out["status"] == "PASS", (pair, c0, out["max_rel"])
            assert out["max_rel"] < 1e-6


def test_residual_builds_summands_once_per_equation(monkeypatch):
    # the radial algebra runs once per equation, not again at every grid point
    p = classify(3, -1)
    fam = siegel_solution(p, 1.0)
    calls = []
    d1 = RadialFunction.d1
    monkeypatch.setattr(RadialFunction, "d1", lambda self: calls.append(self) or d1(self))
    counts = []
    for grid in (GRID[:1], GRID[:6]):
        calls.clear()
        radial_system_residual(fam, p, DegenerateCharacter(1.0), grid)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0, counts


def test_siegel_constants_span_solutions():
    # the system is linear, so any constants in front of the two branches
    # must still give a solution
    rng = random.Random(11)
    p = classify(3, -1)
    for _ in range(3):
        c0 = rng.choice([1.0, -1.0])
        C0 = rng.uniform(-2.0, 2.0)
        C1 = rng.uniform(-2.0, 2.0)
        fam = siegel_solution(p, c0, C0=C0, C1=C1)
        out = radial_system_residual(fam, p, DegenerateCharacter(c0), GRID[:6])
        assert out["status"] == "PASS", (c0, C0, C1, out["max_rel"])


def test_random_family_flagged():
    rng = random.Random(3)
    p = classify(2, -1)
    entries = tuple(RadialFunction.monomial(rng.randint(1, 5), Fraction(i), 1)
                    for i in range(blattner(p).d + 1))
    fam = CoefficientFamily(p, "Ustar", entries)
    out = radial_system_residual(fam, p, DegenerateCharacter(1.0), GRID[:3])
    assert out["status"] == "FAIL"


def test_family_length_enforced():
    p = classify(2, -1)
    fam = CoefficientFamily(p, "Ustar", (RadialFunction.zero(),) * 3)
    with pytest.raises(ParameterError):
        radial_system_residual(fam, p, DegenerateCharacter(1.0), GRID[:1])


# -- flat-character families -------------------------------------------------

def test_borel_f1_table():
    p = classify(2, -1)
    fam = borel_solution(p, "f1")
    # phi_i = (-1)^(i/2) a1^4 for even i
    for i, f in enumerate(fam.entries):
        if i % 2 == 0:
            assert f.evaluate(2.0, 1.0) == (-1) ** (i // 2) * 16.0
        else:
            assert f.is_zero()


def test_borel_f0_tables_both_types():
    fam = borel_solution(classify(2, -1), "f0")
    assert fam.entries[0].evaluate(2.0, 3.0) == 2.0 ** 3 * 3.0 ** 3
    assert all(f.is_zero() for f in fam.entries[1:])
    fam = borel_solution(classify(1, -3), "f0")
    assert all(f.is_zero() for f in fam.entries[:-1])
    assert fam.entries[5].evaluate(2.0, 3.0) == 2.0 ** 3 * 3.0 ** 4


def test_borel_families_solve_system_exactly():
    chi = DegenerateCharacter(0.0)
    for pair in ((2, -1), (3, -1), (1, -2), (1, -3)):
        p = classify(*pair)
        for name in ("f0", "f1", "f2"):
            fam = borel_solution(p, name)
            out = radial_system_residual(fam, p, chi, GRID[:1])
            assert out["exact_path"] and out["status"] == "PASS", (pair, name)


def test_borel_kernel_dimension_five():
    # covers every minimal K-type dimension d+1 with 4 <= d <= 9 in both
    # chambers (d < 4 cannot occur for large parameters)
    for pair in ((2, -1), (3, -1), (3, -2), (4, -1), (5, -1), (5, -2), (6, -2),
                 (1, -2), (1, -3), (2, -3), (1, -4), (1, -5), (2, -5), (2, -6)):
        p = classify(*pair)
        assert 4 <= blattner(p).d <= 9
        basis = borel_recurrence_solve(p)
        assert len(basis) == 5, pair


def test_borel_kernel_members_satisfy_system():
    chi = DegenerateCharacter(0.0)
    p = classify(3, -2)
    for fam in borel_recurrence_solve(p):
        out = radial_system_residual(fam, p, chi, GRID[:1])
        assert out["exact_path"] and out["status"] == "PASS"


def test_borel_kernel_consistent_across_bases():
    # the exact kernel computed against the v*-system, pushed through the
    # exact basis matrix, must structurally annihilate the u*-system: a
    # float-free consistency loop over the basis matrices, both transports,
    # and both systems
    from sp4whittaker.solutions import family_change_basis
    chi = DegenerateCharacter(0.0)
    for pair in ((2, -1), (3, -2), (1, -3), (2, -3)):
        p = classify(*pair)
        for fam in borel_recurrence_solve(p):
            fam_u = family_change_basis(fam, "Ustar")
            assert fam_u.is_exact()
            out = radial_system_residual(fam_u, p, chi, GRID[:1])
            assert out["exact_path"] and out["status"] == "PASS", pair


def test_compare_borel_formulas_membership():
    p = classify(2, -1)
    out = compare_borel_formulas(p)
    status = {e["family"]: e["status"] for e in out["families"]}
    assert status["f0"] == status["f1"] == status["f2"] == "MATCH"
    assert status["f3"] == "MISMATCH"
    f3 = next(e for e in out["families"] if e["family"] == "f3")
    assert f3["first_offending_index"] == 2
    assert f3["printed"][1] == "-2"      # printed next-to-leading coefficient
    assert f3["kernel_branch"][1] == "-1/3"  # the recurrence forces -1/3
    assert out["status"] == "PASS"
    for pair in ((2, -1), (1, -3)):
        p = classify(*pair)
        out = compare_borel_formulas(p)
        # a caller that already holds the kernel gets the same report
        assert compare_borel_formulas(p, kernel=borel_recurrence_solve(p)) == out, pair
        f0 = next(e for e in out["families"] if e["family"] == "f0")
        assert f0["status"] == "MATCH", pair
        assert f0["kernel_branch"] == ["1"], pair
        assert "kernel_branch_dimension" not in f0, pair


def _dense_flat_system(p):
    """The whole c0 = 0 system on 3(d+1) unknowns (column 3*i + m), built
    directly from the equations: a_1 d/da_1 acts on y1^s y2^t by s + t,
    a_2 d/da_2 by t - s."""
    from sp4whittaker.exact import ExactMatrix
    from sp4whittaker.solutions import _borel_monomials, radial_system
    n = 3 * (blattner(p).d + 1)
    rows = []
    for eq in radial_system("Vstar", p, 0.0):
        for m, (s, t) in enumerate(_borel_monomials(p)):
            row = [Fraction(0)] * n
            for i, ops in eq["terms"]:
                for kind, c in ops.items():
                    assert isinstance(c, int), (eq["label"], kind, c)
                    row[3 * i + m] += c * {"d1": s + t, "d2": t - s, "id": 1}[kind]
            if any(row):
                rows.append(row)
    return ExactMatrix(rows)


# both chambers, d from 4 to 12
_BLOCK_PAIRS = ((2, -1), (3, -2), (4, -3), (5, -3), (7, -4),
                (1, -3), (2, -4), (1, -6), (3, -7), (3, -8))


def test_no_flat_equation_mixes_index_parities():
    # the condition the per-(shape, parity) block solve relies on
    from sp4whittaker.solutions import radial_system
    for pair in _BLOCK_PAIRS + ((20, -1), (1, -30)):
        p = classify(*pair)
        for eq in radial_system("Vstar", p, 0.0):
            assert len({i % 2 for i, _ in eq["terms"]}) == 1, (pair, eq["label"])


def test_block_kernel_equals_dense_kernel():
    from sp4whittaker.exact import kernel_basis
    from sp4whittaker.solutions import _borel_monomials, _family_vector
    assert {blattner(classify(*pair)).d for pair in _BLOCK_PAIRS} >= {4, 5, 12}
    for pair in _BLOCK_PAIRS:
        p = classify(*pair)
        dense = kernel_basis(_dense_flat_system(p))
        monos = _borel_monomials(p)
        blocks = [tuple(_family_vector(f, monos)) for f in borel_recurrence_solve(p)]
        assert blocks == dense, pair


def test_block_kernel_with_no_rows_keeps_every_column():
    # equations with terms only at odd indices leave the even block free
    from sp4whittaker.solutions import _block_kernel
    shape = (Fraction(1), Fraction(0))
    eqs = [{"terms": [(1, {"d1": 1}), (3, {"id": -1})]}]
    for d, width in ((4, 3), (5, 3), (0, 1)):
        basis = _block_kernel(eqs, shape, 0, d)
        assert basis == [tuple(GR(int(i == j)) for i in range(width))
                         for j in range(width)], d
    assert _block_kernel([], shape, 1, 5) == [(GR(1), GR(0), GR(0)),
                                             (GR(0), GR(1), GR(0)),
                                             (GR(0), GR(0), GR(1))]


def test_compare_scalar_multiple_still_matches():
    p = classify(2, -1)
    fam = borel_solution(p, "f1")
    scaled = CoefficientFamily(p, "Vstar",
                               tuple(f.scale(GR(Fraction(7, 3))) for f in fam.entries))
    from sp4whittaker.solutions import _borel_monomials, _family_vector, _in_span
    monos = _borel_monomials(p)
    cols = [_family_vector(f, monos) for f in borel_recurrence_solve(p)]
    assert _in_span(cols, _family_vector(scaled, monos))


def test_siegel_families_consistent_across_bases():
    # converting the u*-indexed family through the exact basis matrix must
    # land in the solution space of the v*-indexed system, in both chambers
    # and for both character signs; this pins the mirrored-system transport
    from sp4whittaker.solutions import family_change_basis
    small = GRID[:6]
    for pair in ((2, -1), (1, -3)):
        p = classify(*pair)
        for c0 in (1.0, -1.0):
            fam_u = siegel_solution(p, c0, C0=1.0, C1=0.7)
            fam_v = family_change_basis(fam_u, "Vstar")
            out = radial_system_residual(fam_v, p, DegenerateCharacter(c0), small)
            assert out["status"] == "PASS", (pair, c0, out["max_rel"])
            back = family_change_basis(fam_v, "Ustar")
            for a, b in zip(back.entries, fam_u.entries):
                diff = abs(a.evaluate(1.3, 0.9) - b.evaluate(1.3, 0.9))
                assert diff < 1e-12


# -- shift identities ---------------------------------------------------------

def test_raising_lowering_both_types():
    grid = [0.2, 0.5, 1.0, 2.0, 5.0]
    out = raising_lowering_check(classify(2, -1), 1.0, grid)
    assert out["status"] == "PASS"
    assert out["anchor_index"] == 3 and out["anchor_exponent"] == 1.0
    out = raising_lowering_check(classify(1, -3), 1.0, grid)
    assert out["status"] == "PASS"
    assert out["anchor_index"] == 4 and out["anchor_exponent"] == 1.5
    out = raising_lowering_check(classify(1, -3), -1.0, grid)
    assert out["status"] == "PASS"
    assert out["anchor_index"] == 1


def test_raising_with_wrong_parameter_fails():
    # shifting with a wrong second index must break the identity
    from sp4whittaker.specialfns import whittaker_w, _fd_derivative
    d, mu = 4, 0.5  # true mu for this family is 1/2; probe with 3/2
    wrong_mu = 1.5
    z = 4.0 * math.pi
    kap = 3 - d / 2.0
    w = whittaker_w(kappa=kap, mu=wrong_mu, y=z)
    dw = _fd_derivative(lambda s: whittaker_w(kappa=kap, mu=wrong_mu, y=s), z)
    nxt = whittaker_w(kappa=kap + 1.0, mu=mu, y=z)
    pieces = [z * dw, -z / 2.0 * w, kap * w, nxt]
    assert abs(sum(pieces)) / max(abs(v) for v in pieces) > 1e-8


# -- rank-one pieces -----------------------------------------------------------

def test_sl2_whittaker_values():
    got = sl2_whittaker(3, 1.0, 0.0, 2.0, holomorphic=True)
    assert rel(got.real, 2.0 ** 1.5 * math.exp(-4.0 * math.pi)) < 1e-14
    assert sl2_whittaker(3, -1.0, 0.0, 2.0, holomorphic=True) == 0
    assert sl2_whittaker(3, 0.0, 5.0, 2.0, holomorphic=True) == 2.0 ** 1.5
    with pytest.raises(ParameterError):
        sl2_whittaker(1, 1.0, 0.0, 1.0, holomorphic=True)


def test_sl2_whittaker_lowering_annihilation():
    # radial profile y^(n/2) exp(-2 pi m y) is killed by the weight-lowering
    # combination: y d/dy - (n/2 - 2 pi m y) acting on it vanishes
    from sp4whittaker.specialfns import _fd_derivative
    n, m = 3, 1.0
    for y in (0.5, 1.0, 2.0):
        f = lambda t: t ** (n / 2.0) * math.exp(-2.0 * math.pi * m * t)
        dy = y * _fd_derivative(f, y)
        rhs = (n / 2.0 - 2.0 * math.pi * m * y) * f(y)
        assert abs(dy - rhs) < 1e-10 * max(abs(dy), abs(rhs), 1.0)


def test_sl2_whittaker_decay():
    prev = abs(sl2_whittaker(3, 1.0, 0.0, 1.0, holomorphic=True))
    for y in (2.0, 4.0, 8.0):
        cur = abs(sl2_whittaker(3, 1.0, 0.0, y, holomorphic=True))
        assert cur < prev
        prev = cur


def test_module_descriptors():
    p = classify(2, -1)
    assert sl2_module_descriptor("siegel", p)["weights"] == [2, 4]
    jac = sl2_module_descriptor("jacobi", p)["components"]
    assert jac == [{"exponent": 3, "weight": 3, "sign": "+"},
                   {"exponent": 4, "weight": 2, "sign": "+"}]
    bor = sl2_module_descriptor("borel", p)["exponent_pairs"]
    assert bor == [(3, 3), (4, 0), (4, 2)]
    with pytest.raises(ParameterError):
        sl2_module_descriptor("siegel", classify(2, 1))
