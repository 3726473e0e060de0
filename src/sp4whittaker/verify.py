"""Verification suites behind the command-line `verify` subcommands.

Each suite re-derives or re-checks a block of structural facts and returns a
Report.  Negative controls (seeded) corrupt an input on purpose and count as
PASS exactly when the corresponding detector fires.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from . import fourier_jacobi as fj
from . import rules
from .exact import ExactMatrix, GaussianRational as GR
from .ktypes import (DominantWeight, USTAR, V, VSTAR, act, beta_matrix,
                     beta_matrix_inverse, change_basis, check_beta_identities,
                     pairing, unit_vector)
from .lie import (ELEMENTS, NONCOMPACT_ROOTS, Root, cartan_decomposition_report,
                  commutator, eigenvalue_under_cartan, in_sp4,
                  involution_transport_report, root_vector, sl2_triple_report,
                  verify_iwasawa_lemma)
from .radial import RadialFunction
from .report import FAIL, MISMATCH, PASS, Report
from .solutions import (CoefficientFamily, DegenerateCharacter, HCParameter,
                        blattner, borel_recurrence_solve, borel_solution,
                        classify, compare_borel_formulas, radial_system_residual,
                        raising_lowering_check, siegel_solution, sl2_module_descriptor,
                        sl2_whittaker)
from .specialfns import (WhittakerIndex, check_contiguous, whittaker_w,
                         whittaker_w_dy, whittaker_w_oracle, _fd_derivative)

LAMBDAS_II = [(2, -1), (3, -1), (3, -2), (4, -1)]
LAMBDAS_III = [(-b, -a) for a, b in LAMBDAS_II]
LAMBDAS_LARGE = LAMBDAS_II + LAMBDAS_III

RESIDUAL_GRID = [(math.sqrt(r * s), math.sqrt(s / r))
                 for r in (0.2, 0.5, 1.0, 2.0, 5.0) for s in (0.5, 1.0, 2.0)]
RAISING_GRID = [0.2, 0.5, 1.0, 2.0, 5.0]


def _status(ok: bool) -> str:
    return PASS if ok else FAIL


# ---------------------------------------------------------------------------
# structural suite
# ---------------------------------------------------------------------------

def suite_lie(seed: int = 0) -> Report:
    rep = Report("lie")
    ok = all(in_sp4(m) for m in ELEMENTS.values())
    rep.add("defining-relation/all-named-elements", _status(ok), "structure/sp4-membership")
    cd = cartan_decomposition_report()
    ok = (cd["compact_ok"] and cd["noncompact_ok"]
          and cd["compact_dimension"] == 4 and cd["noncompact_dimension"] == 6)
    rep.add("cartan-involution/eigenspace-split-4-6", _status(ok),
            "structure/cartan-decomposition")
    for row in verify_iwasawa_lemma():
        rep.add(f"iwasawa-decomposition/{row['identity']}", row["status"],
                "structure/root-vector-decomposition")
    for row in sl2_triple_report():
        rep.add(f"sl2-triple/{row['identity']}", row["status"], "structure/sl2-triple")
    ok = commutator(ELEMENTS["T1"], ELEMENTS["T2"]).is_zero()
    rep.add("cartan-commutativity/[T1,T2]=0", _status(ok), "structure/cartan")
    ok = True
    for a, b in sorted(NONCOMPACT_ROOTS):
        ok = ok and eigenvalue_under_cartan(root_vector(Root(a, b)).matrix) == Root(a, b)
    ok = ok and eigenvalue_under_cartan(ELEMENTS["K12"]) == Root(1, -1)
    ok = ok and eigenvalue_under_cartan(ELEMENTS["K21"]) == Root(-1, 1)
    rep.add("root-eigenvalues/all-root-vectors", _status(ok), "structure/root-spaces")
    try:
        eigenvalue_under_cartan(ELEMENTS["H1"])
        ok = False
    except ValueError:
        ok = True
    rep.add("root-eigenvalues/split-cartan-rejected", _status(ok), "structure/root-spaces")
    for row in involution_transport_report():
        rep.add(f"involution-transport/{row['identity']}", row["status"],
                "structure/parameter-mirror")
    ok = _ktype_commutation_transfer(8)
    rep.add("ktype-action/commutation-transfer-d<=8", _status(ok), "ktype/action-rules")
    ok = _ktype_dual_pairing(8)
    rep.add("ktype-action/contragredient-pairing-d<=8", _status(ok), "ktype/dual-action")
    # negative control: a corrupted decomposition must be flagged
    rng = random.Random(seed)
    i, j = rng.randrange(4), rng.randrange(4)
    bad = ELEMENTS["X(2,0)"] + ExactMatrix(
        [[GR(1) if (r, c) == (i, j) else GR(0) for c in range(4)] for r in range(4)])
    from .lie import E_2E1, H1, K11
    lhs = E_2E1.scale(GR(0, 2)) + H1 + K11
    rep.add("negative-control/perturbed-decomposition-detected",
            _status(not (bad - lhs).is_zero()), "structure/negative-control")
    return rep


def _ktype_commutation_transfer(dmax: int) -> bool:
    for d in range(dmax + 1):
        for L2 in (-1, 0, 2):
            w = DominantWeight(L2 + d, L2)
            for tag in (V, VSTAR):
                for k in range(d + 1):
                    v = unit_vector(w, tag, k)
                    hx = act("H", act("X", v))
                    xh = act("X", act("H", v))
                    lhs = tuple(a - b for a, b in zip(hx.coords, xh.coords))
                    rhs = act("X", v).coords
                    if lhs != tuple(GR(2) * c for c in rhs):
                        return False
                    xxb = act("X", act("Xbar", v))
                    xbx = act("Xbar", act("X", v))
                    lhs = tuple(a - b for a, b in zip(xxb.coords, xbx.coords))
                    if lhs != act("H", v).coords:
                        return False
    return True


def _ktype_dual_pairing(dmax: int) -> bool:
    for d in range(dmax + 1):
        w = DominantWeight(d - 1, -1)
        for gen in ("H", "X", "Xbar"):
            for k in range(d + 1):
                for m in range(d + 1):
                    v = unit_vector(w, V, k)
                    u = unit_vector(w, VSTAR, m)
                    total = pairing(act(gen, v), u) + pairing(v, act(gen, u))
                    if not total.is_zero():
                        return False
    return True


# ---------------------------------------------------------------------------
# basis-change suite
# ---------------------------------------------------------------------------

def suite_beta(max_degree: int = 12) -> Report:
    rep = Report("beta")
    for n in range(2, max_degree + 1):
        rows = check_beta_identities(n)
        ok = all(r["status"] == PASS for r in rows)
        detail = None if ok else {"failed": [r for r in rows if r["status"] != PASS]}
        rep.add(f"contraction-identities/n={n}", _status(ok), "ktype/basis-contractions",
                detail=detail)
    ok = True
    for n in range(0, max_degree + 1):
        b = beta_matrix(n)
        prod = b * beta_matrix_inverse(n)
        ok = ok and prod == ExactMatrix.identity(n + 1)
    rep.add("basis-matrix/invertibility", _status(ok), "ktype/basis-matrix")
    ok = True
    for (L1, L2) in ((3, -1), (1, 0), (2, -2)):
        w = DominantWeight(L1, L2)
        for tag, other in ((V, "U"), (VSTAR, USTAR)):
            for k in range(w.d + 1):
                v = unit_vector(w, tag, k)
                back = change_basis(change_basis(v, other), tag)
                ok = ok and back.coords == v.coords
    rep.add("basis-change/round-trip-identity", _status(ok), "ktype/basis-change")
    # sharpness control: the variant of identity (2) with the last two
    # h-coefficients swapped is not an identity and must fail somewhere
    n = 3
    b = beta_matrix(n).entries
    bad = False
    for i in range(n + 1):
        for u in range(n + 1):
            fvec = [GR(1) if j == u else GR(0) for j in range(n + 1)]
            hvec = [sum((b[k][j] * fvec[j] for j in range(n + 1)), GR(0))
                    for k in range(n + 1)]

            def h(k):
                return hvec[k] if 0 <= k <= n else GR(0)

            lhs = sum((b[i][j] * (j * (fvec[j - 1] if j >= 1 else GR(0)))
                       for j in range(n + 1)), GR(0))
            rhs = GR(0, Fraction(1, 2)) * (i * h(i - 1) + (n - i) * h(i)
                                           - (n - 2 * i) * h(i + 1))
            if lhs != rhs:
                bad = True
    rep.add("negative-control/swapped-contraction-coefficients-detected",
            _status(bad), "ktype/negative-control")
    return rep


# ---------------------------------------------------------------------------
# special-function suite
# ---------------------------------------------------------------------------

_HALF_GRID = [k / 2.0 for k in range(-6, 7)]
_Y_GRID = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]


def suite_whittaker(seed: int = 0) -> Report:
    rep = Report("whittaker")
    worst = 0.0
    for mu in (0.5, 1.0, 1.5, 2.0):
        for y in _Y_GRID:
            got = whittaker_w(kappa=mu + 0.5, mu=mu, y=y)
            ref = y ** (mu + 0.5) * math.exp(-y / 2.0)
            worst = max(worst, abs(got - ref) / abs(ref))
    rep.add("closed-form/terminating-base-case", _status(worst < 1e-12),
            "whittaker/closed-form", max_residual=worst)
    worst = 0.0
    for kappa in _HALF_GRID:
        for mu in _HALF_GRID:
            out = check_contiguous(WhittakerIndex(kappa, mu), _Y_GRID)
            worst = max(worst, out["max_residual"])
    rep.add("contiguous-relations/half-integer-grid", _status(worst < 1e-8),
            "whittaker/shift-relations", max_residual=worst)
    worst = 0.0
    npts = 0
    for kappa in _HALF_GRID:
        for mu in _HALF_GRID:
            if abs(mu) - kappa + 0.5 <= 0.25:
                continue
            for y in (0.25, 1.0, 16.0):
                ref = whittaker_w_oracle(kappa, mu, y, dps=16)
                got = whittaker_w(kappa=kappa, mu=mu, y=y)
                worst = max(worst, abs(got - ref) / abs(ref))
                npts += 1
    rep.add("integral-oracle/agreement-where-valid", _status(worst < 1e-8),
            "whittaker/independent-quadrature", max_residual=worst,
            detail={"points": npts})
    ok = True
    for kappa, mu in ((0.0, 0.5), (1.5, 1.0), (-2.0, 2.5)):
        prev = None
        for y in (10.0, 20.0, 30.0, 40.0, 50.0):
            val = whittaker_w(kappa=kappa, mu=mu, y=y)
            ok = ok and val > 0
            if prev is not None:
                ok = ok and val < prev
            prev = val
    rep.add("decay/log-decrease-on-tail", _status(ok), "whittaker/moderate-growth")
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(20):
        kappa = rng.choice(_HALF_GRID)
        mu = rng.choice(_HALF_GRID)
        y = rng.uniform(0.5, 20.0)
        ana = whittaker_w_dy(kappa=kappa, mu=mu, y=y)
        num = _fd_derivative(lambda s: whittaker_w(kappa=kappa, mu=mu, y=s), y,
                             h=1e-4 * y)
        scale = max(abs(ana), abs(num), 1e-280)
        worst = max(worst, abs(ana - num) / scale)
    rep.add("derivative/finite-difference-agreement", _status(worst < 1e-6),
            "whittaker/derivative", max_residual=worst)
    out = check_contiguous(WhittakerIndex(0.5, 1.0), [0.5, 1.0, 2.0, 8.0])
    detected = False
    for y in (0.5, 1.0, 2.0, 8.0):
        kappa, mu = 0.5, 1.0
        w = whittaker_w(kappa=kappa, mu=mu, y=y) * (1.0 + 1e-4)
        dw = _fd_derivative(lambda s: whittaker_w(kappa=kappa, mu=mu, y=s), y)
        up = whittaker_w(kappa=kappa + 1.0, mu=mu, y=y)
        scale = max(abs(y * dw), abs(y / 2.0 * w), abs(kappa * w), abs(up))
        rel = abs(y * dw - y / 2.0 * w + kappa * w + up) / scale
        detected = detected or rel > 1e-8
    rep.add("negative-control/perturbed-value-detected",
            _status(out["status"] == PASS and detected),
            "whittaker/negative-control")
    return rep


# ---------------------------------------------------------------------------
# solution suites
# ---------------------------------------------------------------------------

def suite_siegel(seed: int = 0) -> Report:
    rep = Report("siegel")
    for l1, l2 in LAMBDAS_LARGE:
        p = classify(l1, l2)
        for c0 in (1.0, -1.0):
            fam = siegel_solution(p, c0, C0=1.0, C1=0.7)
            out = radial_system_residual(fam, p, DegenerateCharacter(c0), RESIDUAL_GRID)
            rep.add(f"radial-system/lambda=({l1},{l2})/c0={c0:+.0f}", out["status"],
                    "solutions/moderate-growth-families", max_residual=out["max_rel"])
            out = raising_lowering_check(p, c0, RAISING_GRID)
            rep.add(f"raising-lowering/lambda=({l1},{l2})/c0={c0:+.0f}", out["status"],
                    "solutions/weight-shift-identities", max_residual=out["max_rel"])
    from .solutions import family_change_basis
    ok = True
    worst = 0.0
    for l1, l2 in ((2, -1), (1, -3)):
        p = classify(l1, l2)
        for c0 in (1.0, -1.0):
            fam_v = family_change_basis(siegel_solution(p, c0, C0=1.0, C1=0.7), "Vstar")
            out = radial_system_residual(fam_v, p, DegenerateCharacter(c0),
                                         RESIDUAL_GRID[:6])
            ok = ok and out["status"] == PASS
            worst = max(worst, out["max_rel"])
    rep.add("cross-basis/converted-family-solves-dual-system", _status(ok),
            "solutions/basis-transfer", max_residual=worst)
    rng = random.Random(seed)
    p = classify(2, -1)
    d = blattner(p).d
    entries = tuple(RadialFunction.monomial(rng.randint(1, 9), Fraction(i, 2), 2)
                    for i in range(d + 1))
    bogus = CoefficientFamily(p, "Ustar", entries)
    out = radial_system_residual(bogus, p, DegenerateCharacter(1.0), RESIDUAL_GRID[:3])
    rep.add("negative-control/random-family-detected", _status(out["status"] == FAIL),
            "solutions/negative-control")
    return rep


def suite_borel() -> Report:
    rep = Report("borel")
    for l1, l2 in LAMBDAS_LARGE:
        p = classify(l1, l2)
        basis = borel_recurrence_solve(p)
        rep.add(f"kernel-dimension/lambda=({l1},{l2})", _status(len(basis) == 5),
                "solutions/flat-character-kernel", detail={"dimension": len(basis)})
        chi = DegenerateCharacter(0.0)
        ok = True
        for famk in basis:
            out = radial_system_residual(famk, p, chi, RESIDUAL_GRID[:1])
            ok = ok and out["status"] == PASS and out["exact_path"]
        rep.add(f"kernel-exact-residual/lambda=({l1},{l2})", _status(ok),
                "solutions/exact-zero-substitution")
        cmp_out = compare_borel_formulas(p, kernel=basis)
        rep.add(f"printed-families/lambda=({l1},{l2})", cmp_out["status"],
                "solutions/printed-table-membership",
                detail={"families": [{"family": e["family"], "status": e["status"]}
                                     for e in cmp_out["families"]]})
        for name in cmp_out["expected_mismatches"]:
            rep.expected_mismatches.append(f"lambda=({l1},{l2})/{name}")
            rep.add(f"printed-families/lambda=({l1},{l2})/{name}", MISMATCH,
                    "solutions/printed-table-membership")
        for name in ("f0", "f1", "f2"):
            fam = borel_solution(p, name)
            out = radial_system_residual(fam, p, chi, RESIDUAL_GRID[:1])
            rep.add(f"printed-family-residual/lambda=({l1},{l2})/{name}",
                    out["status"], "solutions/exact-zero-substitution")
    return rep


def suite_fj() -> Report:
    rep = Report("fj")
    ok = True
    for l1, l2 in LAMBDAS_LARGE:
        p = classify(l1, l2)
        good_sign = "+" if p.xi_type == "II" else "-"
        bad_sign = "-" if good_sign == "+" else "+"
        for w in (l1 + 1, -l2 + 1):
            ok = ok and fj.fj_nonvanishing(p, fj.SL2Label(good_sign, w))
            ok = ok and not fj.fj_nonvanishing(p, fj.SL2Label(bad_sign, w))
        ok = ok and not fj.fj_nonvanishing(p, fj.SL2Label(good_sign, l1 - l2 + 2))
    rep.add("nonvanishing/truth-table", _status(ok), "fourier-jacobi/admissibility")
    ok = True
    worst_pairs = 0
    for l1 in range(2, 13):
        for l2 in range(-l1 + 1, 0):
            if l1 + l2 > 12 or l1 + l2 < 1:
                continue
            p = classify(l1, l2)
            f = fj.fj_function(p, fj.SL2Label("+", -l2 + 1))
            # brute-force product oracle for the alternating coefficients
            for i, (c, _, _) in enumerate(f.terms):
                prod = Fraction(1)
                for k in range(1, i + 1):
                    prod *= Fraction(-l2 + k)
                want = Fraction(-1) ** i * prod / math.factorial(i)
                ok = ok and c == want
            for i in range(len(f.terms) - 1):
                ratio = f.terms[i + 1][0] / f.terms[i][0]
                ok = ok and ratio == Fraction(-(-l2 + 1 + i), i + 1)
            ok = ok and fj.fj_index_bounds_ok(f)
            ok = ok and len(fj.fj_weight_parities(f)) == 1
            worst_pairs += 1
    rep.add("coefficients/product-oracle-agreement", _status(ok),
            "fourier-jacobi/coefficient-tables", detail={"parameters": worst_pairs})
    ok = True
    for l1, l2 in LAMBDAS_III:
        p = classify(l1, l2)
        f = fj.fj_function(p, fj.SL2Label("-", l1 + 1))
        ok = ok and fj.fj_index_bounds_ok(f) and len(fj.fj_weight_parities(f)) == 1
        g = fj.fj_function(p, fj.SL2Label("-", -l2 + 1))
        ok = ok and g.terms == ((Fraction(1), l2 - 1, 0),)
    rep.add("mirror-chamber/structure", _status(ok), "fourier-jacobi/mirror-tables")
    return rep


def suite_rules() -> Report:
    rep = Report("rules")
    p21 = classify(2, -1)
    p13 = classify(1, -3)
    golden = [
        ("siegel-targets/(2,-1)",
         rules.emb_siegel_targets(p21) == [(Fraction(3, 2), 2), (Fraction(1, 2), 4)]),
        ("siegel-targets/(1,-3)",
         rules.emb_siegel_targets(p13) == [(Fraction(2), 3), (Fraction(1), 5)]),
        ("jacobi/slot1-odd-sign-true",
         rules.emb_jacobi(p21, rules.RealCharacter(1, 1), 1) is True),
        ("jacobi/slot1-trivial-sign-false",
         rules.emb_jacobi(p21, rules.RealCharacter(1, 0), 1) is False),
        ("jacobi/slot2-even-sign-true",
         rules.emb_jacobi(p21, rules.RealCharacter(2, 0), 2) is True),
        ("principal/pattern1-true",
         rules.emb_principal(p21, rules.RealCharacter(1, 1),
                             rules.RealCharacter(2, 1), 1) is True),
        ("principal/pattern3-parity-iff",
         rules.emb_principal(p21, rules.RealCharacter(2, 0),
                             rules.RealCharacter(1, 0), 3) is True
         and rules.emb_principal(p21, rules.RealCharacter(2, 1),
                                 rules.RealCharacter(1, 0), 3) is False),
        ("principal/pattern4-never",
         rules.emb_principal(p21, rules.RealCharacter(-2, 0),
                             rules.RealCharacter(-1, 0), 4) is False),
        ("cuspidal/siegel-weights-(2,-1)",
         [c["weight"] for c in rules.allowed_cuspidal_components("P_S", p21).verdict]
         == [2, 4]),
        ("cuspidal/jacobi-data-(2,-1)",
         rules.allowed_cuspidal_components("P_J", p21).verdict == [
             {"weight": 3, "sign": "+", "mu_parity": 1, "exponent": "1"},
             {"weight": 2, "sign": "+", "mu_parity": 0, "exponent": "2"}]),
        ("cuspidal/minimal-data-(1,-3)",
         rules.allowed_cuspidal_components("P_0", p13).verdict == [
             {"mu1_parity": 0, "mu2_parity": 1, "exponents": ["3", "1"]}]),
        ("convergence/siegel-boundary",
         rules.convergence_condition("P_S", p21, 2) is False
         and rules.convergence_condition("P_S", classify(5, -1), 2) is True),
        ("convergence/jacobi-boundary",
         rules.convergence_condition("P_J", p21, 3) is False),
        ("convergence/minimal-printed-text",
         rules.convergence_condition("P_0", p21, 2) is False
         and rules.convergence_record("P_0", p21, 2).notes != ()),
        ("weight-constraint/rank-one",
         rules.gl2_weight_constraint(4, "SL2")["parity"] == 0
         and rules.gl2_weight_constraint(4, "SL2")["exponent"] == "3"),
        ("weight-constraint/rank-two",
         rules.gl2_weight_constraint(5, "GL2")["quotient_parity"] == 1
         and rules.gl2_weight_constraint(5, "GL2")["exponents"] == ["2", "-2"]),
    ]
    try:
        rules.gl2_weight_constraint(2, "SL2")
        golden.append(("weight-constraint/low-weight-rejected", False))
    except Exception:
        golden.append(("weight-constraint/low-weight-rejected", True))
    for name, ok in golden:
        rep.add(f"golden/{name}", _status(bool(ok)), "rules/quoted-conditions")
    ok = True
    for l1 in range(2, 9):
        for l2 in range(-8, 0):
            try:
                p = classify(l1, l2)
            except Exception:
                continue
            if p.xi_type not in ("II", "III") or blattner(p).d > 9:
                continue
            fj_weights = sorted(w for w in (l1 + 1, -l2 + 1))
            pj = sorted(c["weight"] for c in
                        rules.allowed_cuspidal_components("P_J", p).verdict)
            ok = ok and fj_weights == pj
            sign = "+" if p.xi_type == "II" else "-"
            ok = ok and all(fj.fj_nonvanishing(p, fj.SL2Label(sign, w)) for w in pj)
            ps = sorted(c["weight"] for c in
                        rules.allowed_cuspidal_components("P_S", p).verdict)
            desc = sl2_module_descriptor("siegel", p)["weights"]
            ok = ok and ps == sorted(desc)
    rep.add("cross-module/fj-and-module-descriptors", _status(ok),
            "rules/cross-module-consistency")
    ok = True
    for l1, l2 in LAMBDAS_II:
        p = classify(l1, l2)
        q = p.mirror()
        wp = sorted(w for _, w in rules.emb_siegel_targets(p))
        wq = sorted(w for _, w in rules.emb_siegel_targets(q))
        ok = ok and wp == wq
        cp = sorted(c["weight"] for c in
                    rules.allowed_cuspidal_components("P_S", p).verdict)
        cq = sorted(c["weight"] for c in
                    rules.allowed_cuspidal_components("P_S", q).verdict)
        ok = ok and cp == cq
    rep.add("cross-module/contragredient-symmetry", _status(ok),
            "rules/parameter-mirror")
    r1 = rules.allowed_cuspidal_components("P_J", p21)
    r2 = rules.allowed_cuspidal_components("P_J", p21)
    rep.add("determinism/repeated-query-identical", _status(r1 == r2),
            "rules/decision-records")
    return rep


SUITES = {
    "lie": lambda seed, max_degree: suite_lie(seed),
    "beta": lambda seed, max_degree: suite_beta(max_degree),
    "whittaker": lambda seed, max_degree: suite_whittaker(seed),
    "siegel": lambda seed, max_degree: suite_siegel(seed),
    "borel": lambda seed, max_degree: suite_borel(),
    "fj": lambda seed, max_degree: suite_fj(),
    "rules": lambda seed, max_degree: suite_rules(),
}

SUITE_ORDER = ("lie", "beta", "whittaker", "siegel", "borel", "fj", "rules")


def run_suite(name: str, seed: int = 0, max_degree: int = 12) -> Report:
    if name == "all":
        rep = Report("all")
        for key in SUITE_ORDER:
            sub = SUITES[key](seed, max_degree)
            for case in sub.cases:
                case.name = f"{key}/{case.name}"
            rep.extend(sub)
        return rep
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed, max_degree)
