"""Degenerate Whittaker solutions for the large discrete series of Sp(4,R).

Parameter bookkeeping (Harish-Chandra -> Blattner), the closed-form radial
solution families for the two degenerate-character regimes, the radial
differential systems they must satisfy, an independent exact recurrence
solver for the everywhere-degenerate case, and residual/identity checks.

Conventions: type II systems are implemented as displayed; type III systems
are generated from the type II ones with mirrored highest weight through
the involution transport (signed index reversal on v*-coefficients, signed
diagonal on u*-coefficients, character parameter unchanged).  The two
transports are tied together by the exact basis matrix, and the test suite
closes that loop in rational arithmetic with zero tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactMatrix, GaussianRational as GR, kernel_basis
from .radial import RadialFunction
from .specialfns import _fd_derivative, pochhammer, whittaker_w

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

XI_TYPES = ("I", "II", "III", "IV")
LARGE_TYPES = ("II", "III")


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class HCParameter:
    l1: int
    l2: int
    xi_type: str

    @property
    def pair(self) -> tuple[int, int]:
        return (self.l1, self.l2)

    def mirror(self) -> "HCParameter":
        """The contragredient parameter (-l2, -l1); swaps types II and III."""
        return classify(-self.l2, -self.l1)


@dataclass(frozen=True)
class BlattnerParameter:
    L1: int
    L2: int

    @property
    def d(self) -> int:
        return self.L1 - self.L2


@dataclass(frozen=True)
class DegenerateCharacter:
    c0: float
    c3: float = 0.0

    def __post_init__(self):
        if self.c3 != 0.0:
            raise ParameterError("only characters with vanishing second entry are supported")


def classify(l1: int, l2: int) -> HCParameter:
    """Tag a regular dominant integer pair with its chamber, or reject."""
    if l1 == l2:
        raise ParameterError(f"({l1},{l2}) is singular: equal coordinates")
    if l1 < l2:
        raise ParameterError(f"({l1},{l2}) is not dominant: need l1 > l2")
    if l1 == -l2:
        raise ParameterError(f"({l1},{l2}) is singular: l1 = -l2")
    if l1 == 0 or l2 == 0:
        raise ParameterError(f"({l1},{l2}) is singular: zero coordinate")
    if l1 > 0 and l2 > 0:
        t = "I"
    elif l1 > 0 > l2:
        t = "II" if l1 > -l2 else "III"
    else:
        t = "IV"
    return HCParameter(l1, l2, t)


_BLATTNER_SHIFT = {"I": (1, 2), "II": (1, 0), "III": (0, -1), "IV": (-2, -1)}


def blattner(p: HCParameter) -> BlattnerParameter:
    """Minimal K-type highest weight: the chamber-dependent shift of the parameter."""
    s1, s2 = _BLATTNER_SHIFT[p.xi_type]
    return BlattnerParameter(p.l1 + s1, p.l2 + s2)


def _require_large(p: HCParameter):
    if p.xi_type not in LARGE_TYPES:
        raise ParameterError(f"type {p.xi_type} parameters are out of scope here "
                             "(holomorphic/antiholomorphic chamber)")


@dataclass(frozen=True)
class CoefficientFamily:
    hc: HCParameter
    basis_tag: str  # "Ustar" or "Vstar"
    entries: tuple  # RadialFunction, length d+1

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    def entry(self, i: int) -> RadialFunction:
        if 0 <= i < len(self.entries):
            return self.entries[i]
        return RadialFunction.zero()

    def is_exact(self) -> bool:
        return all(e.is_exact() and e.is_monomial_like() for e in self.entries)


# ---------------------------------------------------------------------------
# closed-form solution families
# ---------------------------------------------------------------------------

def _inv_factorial(n: int) -> Fraction:
    """1/n!, with the reciprocal-factorial convention 1/n! = 0 for n < 0."""
    if n < 0:
        return Fraction(0)
    return Fraction(1, math.factorial(n))


def siegel_solution(p: HCParameter, c0: float, C0: float = 1.0,
                    C1: float = 1.0) -> CoefficientFamily:
    """The moderate-growth radial solutions for a character with c0 != 0.

    Entries are indexed against the u*-basis.  The W-branch support is the
    set where the printed reciprocal factorial is nonzero; for type III with
    c0 > 0 the printed range bound contradicts its own factorial and the
    factorial wins (ledgered).
    """
    _require_large(p)
    if c0 == 0:
        raise ParameterError("c0 = 0 has a different solution space; use the borel operations")
    L = blattner(p)
    L1, L2, d = L.L1, L.L2, L.d
    t = FOUR_PI * abs(c0)
    sgn = 1.0 if c0 > 0 else -1.0
    if p.xi_type == "II":
        mu = (L1 + L2 - 1) / 2.0
        if c0 > 0:
            alpha = [_inv_factorial(i - L1) for i in range(d + 1)]
            beta = [Fraction(1) if i == d else Fraction(0) for i in range(d + 1)]
        else:
            alpha = [_inv_factorial(-L2 - i) for i in range(d + 1)]
            beta = [Fraction(1) if i == 0 else Fraction(0) for i in range(d + 1)]
        mono_pq = (Fraction(d, 2), Fraction(L1 + L2 + 2, 2))
    else:
        mu = (L1 + L2 + 1) / 2.0
        if c0 > 0:
            alpha = [(-1) ** i * _inv_factorial(i + L2) for i in range(d + 1)]
            beta = [Fraction((-1) ** i) if i == d else Fraction(0) for i in range(d + 1)]
        else:
            alpha = [(-1) ** i * _inv_factorial(L1 - i) for i in range(d + 1)]
            beta = [Fraction((-1) ** i) if i == 0 else Fraction(0) for i in range(d + 1)]
        mono_pq = (Fraction(d, 2), Fraction(2 - L1 - L2, 2))
    entries = []
    for i in range(d + 1):
        f = RadialFunction.zero()
        if alpha[i] != 0 and C0 != 0:
            kappa = sgn * (i - d / 2.0)
            f = f + RadialFunction.monomial(C0 * float(alpha[i]),
                                            0, Fraction(d + 2, 2),
                                            w=(kappa, mu, t))
        if beta[i] != 0 and C1 != 0:
            f = f + RadialFunction.monomial(C1 * float(beta[i]),
                                            mono_pq[0], mono_pq[1],
                                            r=-TWO_PI * abs(c0))
        entries.append(f)
    return CoefficientFamily(p, "Ustar", tuple(entries))


BOREL_FAMILY_NAMES = ("f0", "f1", "f2", "f3", "f4")


def _borel_monomials(p: HCParameter) -> list[tuple[Fraction, Fraction]]:
    """(y1, y2)-exponent pairs of the three power-function shapes."""
    L = blattner(p)
    L1, L2 = L.L1, L.L2
    if p.xi_type == "II":
        a_exps = [(2 - L2, L1), (L1 + 1, L2 + 1), (L1 + 1, -L2 + 1)]
    else:
        a_exps = [(2 + L1, -L2), (-L2 + 1, -L1 + 1), (-L2 + 1, L1 + 1)]
    return [(Fraction(a - b, 2), Fraction(a + b, 2)) for a, b in a_exps]


def borel_solution(p: HCParameter, which: str) -> CoefficientFamily:
    """One of the five printed power-function families for c0 = c3 = 0.

    Entries are indexed against the v*-basis; all coefficients and exponents
    are exact.  The f3/f4 coefficient tables and range bounds are emitted
    exactly as printed (their defect is reported by compare_borel_formulas,
    not silently repaired).
    """
    _require_large(p)
    if which not in BOREL_FAMILY_NAMES:
        raise ParameterError(f"unknown family {which!r}")
    L = blattner(p)
    L1, L2, d = L.L1, L.L2, L.d
    delta = d % 2
    m0, m1, m2 = _borel_monomials(p)
    coeffs: list[tuple[int, Fraction, tuple]] = []
    if which == "f0":
        pos = 0 if p.xi_type == "II" else d
        coeffs = [(pos, Fraction(1), m0)]
    elif which in ("f1", "f2"):
        start = 0 if which == "f1" else 1
        coeffs = [(i, Fraction(-1) ** ((i - start) // 2), m1)
                  for i in range(start, d + 1, 2)]
    else:
        start = 0 if which == "f3" else 1
        top = d + (delta if which == "f3" else 1 - delta) * (2 * L2 - 1)
        coeffs = []
        for i in range(start, d + 1, 2):
            if i <= top:
                half = (i - start) // 2
                c = Fraction(2) ** half * pochhammer(Fraction(-d + 2, 2), half)
                if c != 0:
                    coeffs.append((i, c, m2))
    entries = [RadialFunction.zero() for _ in range(d + 1)]
    for i, c, (pexp, qexp) in coeffs:
        entries[i] = entries[i] + RadialFunction.monomial(c, pexp, qexp)
    return CoefficientFamily(p, "Vstar", tuple(entries))


# ---------------------------------------------------------------------------
# radial differential systems
# ---------------------------------------------------------------------------
# an equation is a list of (index, ops) with ops = dict of optional entries
#   d1, d2: coefficients of a_i d/da_i,  id: multiplication,  y1: coeff * y1

def _unprimed_equations(L1: int, L2: int, c0: float) -> list[dict]:
    d = L1 - L2
    eqs = []
    g = FOUR_PI * c0
    for i in range(d - 1):
        eqs.append({"label": f"A{i}", "terms": [
            (i, {"d1": 1, "d2": -1, "id": -L1 + L2 + 2 * i, "y1": -g}),
            (i + 1, {"id": -2 * (L1 + L2)}),
            (i + 2, {"d1": 1, "d2": -1, "id": L1 - L2 - 2 * i - 4, "y1": g}),
        ]})
        eqs.append({"label": f"B{i}", "terms": [
            (i + 1, {"d1": 1, "d2": 1, "id": -L1 + L2 - 2}),
        ]})
    for i in range(d + 1):
        eqs.append({"label": f"C{i}", "terms": [
            (i - 1, {"d1": -i, "d2": i, "id": i * (L1 - L2 - 2 * i + 2), "y1": i * g}),
            (i, {"d1": L1 - L2 - 2 * i, "d2": L1 - L2 - 2 * i,
                 "id": (L1 - L2 - 2 * i) * (-L1 - L2 - 2)}),
            (i + 1, {"d1": L1 - L2 - i, "d2": -(L1 - L2 - i),
                     "id": (L1 - L2 - i) * (L1 - L2 - 2 * i - 2), "y1": (L1 - L2 - i) * g}),
        ]})
    return eqs


def _primed_equations(L1: int, L2: int, c0: float) -> list[dict]:
    d = L1 - L2
    eqs = []
    gi = FOUR_PI * c0 * 1j
    for i in range(d - 1):
        eqs.append({"label": f"A'{i}", "terms": [
            (i, {"d1": 1, "id": L2 - i - 2}),
            (i + 1, {"y1": -gi}),
            (i + 2, {"d2": 1, "id": L1 - i - 2}),
        ]})
        eqs.append({"label": f"B'{i}", "terms": [
            (i, {"d2": 1, "id": -L1 + i}),
            (i + 1, {"y1": gi}),
            (i + 2, {"d1": 1, "id": -2 * L1 + L2 + i}),
        ]})
    for j in range(d + 1):
        eqs.append({"label": f"C'{j}", "terms": [
            (j - 1, {"d2": j, "id": j * (-L1 + j - 1)}),
            (j, {"y1": -TWO_PI * c0 * 1j * (L1 - L2 - 2 * j)}),
            (j + 1, {"d1": -(L1 - L2 - j), "id": -(L1 - L2 - j) * (-L1 + j - 1)}),
        ]})
    return eqs


def _drop_trivial(eqs: list[dict], d: int) -> list[dict]:
    out = []
    for eq in eqs:
        terms = [(i, {k: v for k, v in ops.items() if v != 0})
                 for i, ops in eq["terms"] if 0 <= i <= d]
        terms = [(i, ops) for i, ops in terms if ops]
        if terms:
            out.append({"label": eq["label"], "terms": terms})
    return out


def _transport_reversal(eqs: list[dict], d: int) -> list[dict]:
    """Index transport h_i = (-1)^i f_{d-i}: rewrite equations for h."""
    out = []
    for eq in eqs:
        terms = []
        for j, ops in eq["terms"]:
            if not 0 <= j <= d:
                continue
            s = (-1) ** (d - j)
            terms.append((d - j, {k: s * v for k, v in ops.items()}))
        out.append({"label": "T" + eq["label"], "terms": terms})
    return out


def _transport_diagonal(eqs: list[dict]) -> list[dict]:
    """Index transport h_i = (-1)^i f_i: rewrite equations for h."""
    out = []
    for eq in eqs:
        terms = [(j, {k: (-1) ** j * v for k, v in ops.items()})
                 for j, ops in eq["terms"]]
        out.append({"label": "T" + eq["label"], "terms": terms})
    return out


def family_change_basis(fam: CoefficientFamily, to: str) -> CoefficientFamily:
    """Exact transfer of a coefficient family between the two dual bases.

    Dual coefficient vectors transform by the degree-d basis matrix
    (Vstar -> Ustar) and its exact inverse back; the transfer mixes the
    radial profiles linearly with Gaussian-rational weights.
    """
    if fam.basis_tag == to:
        return fam
    if {fam.basis_tag, to} != {"Ustar", "Vstar"}:
        raise ParameterError(f"no conversion {fam.basis_tag} -> {to}")
    from .ktypes import beta_matrix, beta_matrix_inverse
    d = fam.d
    m = beta_matrix(d) if fam.basis_tag == "Vstar" else beta_matrix_inverse(d)
    entries = []
    for i in range(d + 1):
        f = RadialFunction.zero()
        for j in range(d + 1):
            c = m[i, j]
            if not c.is_zero():
                f = f + fam.entries[j].scale(c)
        entries.append(f)
    return CoefficientFamily(fam.hc, to, tuple(entries))


def radial_system(basis_tag: str, p: HCParameter, c0: float) -> list[dict]:
    """The system a family in the given dual basis must satisfy.

    The mirrored chamber gets the mirrored-weight system rewritten through
    the involution transport: a signed index reversal on v*-coefficients,
    and its basis-matrix conjugate - a signed diagonal - on
    u*-coefficients.  The character parameter is untouched (the relevant
    unipotent entry is fixed by the conjugation).  Both conventions are
    pinned by the solution-table residuals and by an exact, float-free
    cross-basis consistency loop in the tests.
    """
    _require_large(p)
    L = blattner(p)
    build = _unprimed_equations if basis_tag == "Ustar" else _primed_equations
    if p.xi_type == "II":
        eqs = build(L.L1, L.L2, c0)
    elif basis_tag == "Ustar":
        eqs = _transport_diagonal(build(-L.L2, -L.L1, c0))
    else:
        eqs = _transport_reversal(build(-L.L2, -L.L1, c0), L.d)
    return _drop_trivial(eqs, L.d)


def _summands(eq: dict, fam: CoefficientFamily) -> list[RadialFunction]:
    """The equation's scaled summands on the family, one per (term, operator)."""
    out = []
    for i, ops in eq["terms"]:
        f = fam.entry(i)
        for kname, c in ops.items():
            if kname == "d1":
                g = f.d1()
            elif kname == "d2":
                g = f.d2()
            elif kname == "y1":
                g = f.mul_y1()
            else:
                g = f
            out.append(g.scale(c))
    return out


def radial_system_residual(fam: CoefficientFamily, p: HCParameter,
                           chi: DegenerateCharacter,
                           grid: list[tuple[float, float]],
                           tol: float = 1e-6) -> dict:
    """Residuals of the full system on a grid of (a1, a2) points.

    Pure-monomial families with c0 = 0 are checked structurally in rational
    arithmetic (residual must vanish identically); otherwise each equation is
    evaluated pointwise and normalized by the size of its largest summand.
    """
    if len(fam.entries) != blattner(p).d + 1:
        raise ParameterError("family length does not match the minimal K-type dimension")
    eqs = radial_system(fam.basis_tag, p, chi.c0)
    exact_path = chi.c0 == 0 and fam.is_exact()
    rows = []
    worst = 0.0
    for eq in eqs:
        summands = _summands(eq, fam)
        if exact_path:
            ok = sum(summands, RadialFunction.zero()).is_zero()
            rows.append({"equation": eq["label"], "max_rel": 0.0 if ok else math.inf,
                         "exact_zero": ok})
            if not ok:
                worst = math.inf
            continue
        eq_worst = 0.0
        for a1, a2 in grid:
            pieces = [g.evaluate(a1, a2) for g in summands]
            scale = max((abs(v) for v in pieces), default=0.0)
            val = abs(sum(pieces, complex(0)))
            rel = val / max(scale, 1e-280)
            eq_worst = max(eq_worst, rel)
        rows.append({"equation": eq["label"], "max_rel": eq_worst})
        worst = max(worst, eq_worst)
    return {"basis": fam.basis_tag, "xi_type": p.xi_type, "exact_path": exact_path,
            "equations": rows, "max_rel": worst,
            "status": "PASS" if (worst == 0.0 if exact_path else worst < tol) else "FAIL"}


# ---------------------------------------------------------------------------
# independent recurrence solver for the c0 = c3 = 0 case
# ---------------------------------------------------------------------------

def _euler_symbol(ops: dict, pexp: Fraction, qexp: Fraction) -> GR:
    """Exact scalar by which an equation term acts on y1^p y2^q (c0 = 0 only),
    summed in ints over the common denominator of the two exponents."""
    den = math.lcm(pexp.denominator, qexp.denominator)
    p = pexp.numerator * (den // pexp.denominator)
    q = qexp.numerator * (den // qexp.denominator)
    tot = 0
    for kname, c in ops.items():
        if kname == "y1":
            raise AssertionError("the c0 = 0 system has no multiplication terms")
        if isinstance(c, complex):
            if c.imag != 0:
                raise AssertionError("the c0 = 0 system has real coefficients")
            c = c.real
        if isinstance(c, float):
            if not c.is_integer():
                raise AssertionError("the c0 = 0 system has integer coefficients")
            c = int(c)
        tot += c * (p + q if kname == "d1" else q - p if kname == "d2" else den)
    return GR(Fraction(tot, den))


def _block_kernel(eqs: list[dict], shape, parity: int, d: int) -> list[tuple]:
    """Kernel of the c0 = 0 system on one (shape, index-parity) block.

    The Euler operators are diagonal on monomials and every equation links
    index i only to i +- 2, so each block is an independent system.  Its
    columns are the indices parity, parity + 2, ..., d in order, so each
    vector is the dense solver's vector for the same free column, restricted.
    """
    width = (d - parity) // 2 + 1
    rows = []
    for eq in eqs:
        row = [GR(0)] * width
        for i, ops in eq["terms"]:
            if i % 2 == parity:
                row[i // 2] = row[i // 2] + _euler_symbol(ops, *shape)
        if any(not x.is_zero() for x in row):
            rows.append(row)
    # with no nonzero row every column is free; the zero row keeps the width
    return kernel_basis(ExactMatrix(rows or [[GR(0)] * width]))


def borel_recurrence_solve(p: HCParameter) -> list[CoefficientFamily]:
    """Solve the v*-basis system with c0 = 0 on the three-monomial ansatz.

    Unknowns are the (position, monomial) coefficients, at column 3*i + m.
    Each (shape, parity) block is solved on its own; ordered by global free
    column, the block kernels are the dense solver's exact kernel basis.
    """
    _require_large(p)
    L = blattner(p)
    d = L.d
    eqs = radial_system("Vstar", p, 0.0)
    found = []
    for m, shape in enumerate(_borel_monomials(p)):
        for parity in (0, 1):
            for vec in _block_kernel(eqs, shape, parity, d):
                entries = [RadialFunction.zero()] * (d + 1)
                for k, c in enumerate(vec):
                    if not c.is_zero():
                        entries[2 * k + parity] = RadialFunction.monomial(c, *shape)
                        free = 3 * (2 * k + parity) + m  # ends at the last nonzero
                found.append((free, CoefficientFamily(p, "Vstar", tuple(entries))))
    return [fam for _, fam in sorted(found, key=lambda x: x[0])]


def _family_vector(fam: CoefficientFamily, monos) -> list[GR]:
    d = fam.d
    vec = [GR(0)] * (3 * (d + 1))
    for i in range(d + 1):
        f = fam.entry(i)
        for k, c in f.terms:
            pexp, qexp, r, w = k
            if r != 0.0 or w is not None or not isinstance(c, GR):
                raise ParameterError("family is not a pure exact monomial family")
            m = monos.index((pexp, qexp))
            vec[3 * i + m] = vec[3 * i + m] + c
    return vec


def _in_span(columns: list[list[GR]], v: list[GR]) -> bool:
    """Exact membership of v in the span of a kernel_basis basis.

    Every other basis vector vanishes at a vector's free column, so v lies
    in the span exactly when it equals the combination its own values at
    the free columns prescribe.
    """
    comb = [GR(0)] * len(v)
    for b in columns:
        fc = max(j for j, c in enumerate(b) if not c.is_zero())
        fac = v[fc] / b[fc]
        comb = [x + fac * y for x, y in zip(comb, b)]
    return comb == list(v)


def compare_borel_formulas(p: HCParameter, *,
                           kernel: list[CoefficientFamily] | None = None) -> dict:
    """Membership of the five printed families in the exact recurrence kernel.

    f0/f1/f2 are expected to MATCH; the printed f3 (and at some parameters
    f4) coefficient tables fail the recurrence and are reported as MISMATCH
    together with the kernel's own branch coefficients.  A caller that
    already holds borel_recurrence_solve(p) passes it as `kernel`.
    """
    _require_large(p)
    L = blattner(p)
    d = L.d
    monos = _borel_monomials(p)
    if kernel is None:
        kernel = borel_recurrence_solve(p)
    columns = [_family_vector(f, monos) for f in kernel]
    report = {"dimension": len(kernel), "families": []}
    branch_info = {
        "f0": (0, [0 if p.xi_type == "II" else d]),
        "f1": (1, list(range(0, d + 1, 2))),
        "f2": (1, list(range(1, d + 1, 2))),
        "f3": (2, list(range(0, d + 1, 2))),
        "f4": (2, list(range(1, d + 1, 2))),
    }
    for name in BOREL_FAMILY_NAMES:
        fam = borel_solution(p, name)
        vec = _family_vector(fam, monos)
        match = _in_span(columns, vec)
        mono_index, positions = branch_info[name]
        # the canonical branch: the kernel vectors supported on these positions
        support = {3 * i + mono_index for i in positions}
        branch = [[b[3 * i + mono_index] for i in positions] for b in columns
                  if all(c.is_zero() for j, c in enumerate(b) if j not in support)]
        printed_seq = [vec[3 * i + mono_index] for i in positions]
        entry = {"family": name, "status": "MATCH" if match else "MISMATCH",
                 "positions": positions,
                 "printed": [repr(c) for c in printed_seq]}
        if all(c.is_zero() for c in vec):
            entry["printed_is_zero"] = True  # range bound left no terms
        if len(branch) == 1:
            kern_seq = branch[0]
            # normalize to the printed leading coefficient when possible
            lead = next((j for j, c in enumerate(printed_seq) if not c.is_zero()), None)
            if lead is not None and not kern_seq[lead].is_zero():
                fac = printed_seq[lead] / kern_seq[lead]
                kern_seq = [fac * c for c in kern_seq]
            entry["kernel_branch"] = [repr(c) for c in kern_seq]
            if not match:
                off = next((positions[j] for j in range(len(positions))
                            if printed_seq[j] != kern_seq[j]), None)
                entry["first_offending_index"] = off
        else:
            entry["kernel_branch_dimension"] = len(branch)
        report["families"].append(entry)
    report["status"] = ("PASS" if all(e["status"] == "MATCH"
                                      for e in report["families"]
                                      if e["family"] in ("f0", "f1", "f2")) else "FAIL")
    report["expected_mismatches"] = [e["family"] for e in report["families"]
                                     if e["status"] == "MISMATCH"]
    return report


# ---------------------------------------------------------------------------
# weight raising/lowering and anchor identities
# ---------------------------------------------------------------------------

def _anchor_data(p: HCParameter, c0: float):
    L = blattner(p)
    if p.xi_type == "II":
        mu = (L.L1 + L.L2 - 1) / 2.0
        anchor = L.L1 if c0 > 0 else -L.L2
        exponent = (L.L1 + L.L2) / 2.0
    else:
        mu = (L.L1 + L.L2 + 1) / 2.0
        anchor = -L.L2 if c0 > 0 else L.L1
        exponent = -(L.L1 + L.L2) / 2.0
    return L, mu, anchor, exponent


def raising_lowering_check(p: HCParameter, c0: float,
                           grid: list[float], tol: float = 1e-8) -> dict:
    """Check the kappa-shift identities along the W-branch and its anchor.

    For c0 > 0 the shifts climb from the anchor index to the top of the
    family; for c0 < 0 they descend, and the final step's vanishing factor
    certifies that the family terminates.  Derivatives are finite
    differences, so the identities are tested rather than restated.
    """
    _require_large(p)
    if c0 == 0:
        raise ParameterError("c0 must be nonzero")
    L, mu, anchor, exponent = _anchor_data(p, c0)
    d = L.d
    rows = []
    worst = 0.0
    for y1 in grid:
        z = FOUR_PI * abs(c0) * y1
        kap_anchor = (1.0 if c0 > 0 else -1.0) * (anchor - d / 2.0)
        w_anchor = whittaker_w(kappa=kap_anchor, mu=mu, y=z)
        closed = z ** exponent * math.exp(-z / 2.0)
        rel = abs(w_anchor - closed) / max(abs(closed), 1e-280)
        rows.append({"y1": y1, "check": "anchor", "rel": rel})
        worst = max(worst, rel)
        if c0 > 0:
            indices = range(anchor, d)
        else:
            indices = range(0, anchor + 1)
        for i in indices:
            if c0 > 0:
                kap = i - d / 2.0
                w = whittaker_w(kappa=kap, mu=mu, y=z)
                dw = _fd_derivative(lambda s: whittaker_w(kappa=kap, mu=mu, y=s), z)
                nxt = whittaker_w(kappa=kap + 1.0, mu=mu, y=z)
                pieces = [z * dw, -z / 2.0 * w, kap * w, nxt]
            else:
                kap = -(i - d / 2.0)
                w = whittaker_w(kappa=kap, mu=mu, y=z)
                dw = _fd_derivative(lambda s: whittaker_w(kappa=kap, mu=mu, y=s), z)
                fac = mu * mu - (kap - 0.5) ** 2
                nxt = whittaker_w(kappa=kap - 1.0, mu=mu, y=z) if i < d else 0.0
                pieces = [z * dw, z / 2.0 * w, -kap * w, fac * nxt]
            scale = max(abs(v) for v in pieces)
            rel = abs(sum(pieces)) / max(scale, 1e-280)
            rows.append({"y1": y1, "check": f"shift i={i}", "rel": rel})
            worst = max(worst, rel)
    return {"xi_type": p.xi_type, "c0": c0, "anchor_index": anchor,
            "anchor_exponent": exponent, "rows": rows, "max_rel": worst,
            "status": "PASS" if worst < tol else "FAIL"}


# ---------------------------------------------------------------------------
# rank-one pieces: SL(2) Whittaker vector and module descriptors
# ---------------------------------------------------------------------------

def sl2_whittaker(n: int, m: float, x: float, y: float,
                  holomorphic: bool) -> complex:
    """Radial Whittaker value for the weight-n discrete series of SL(2,R).

    Nonzero exactly when the character sign matches the holomorphy type;
    normalized with unit constant.
    """
    if n <= 1:
        raise ParameterError("weight must exceed 1")
    if y <= 0:
        raise ParameterError("y must be positive")
    if (holomorphic and m >= 0) or (not holomorphic and m <= 0):
        phase = complex(math.cos(TWO_PI * m * x), math.sin(TWO_PI * m * x))
        return y ** (n / 2.0) * math.exp(-TWO_PI * abs(m) * y) * phase
    return complex(0.0)


def sl2_module_descriptor(which: str, p: HCParameter) -> dict:
    """Weights/exponents of the rank-one modules generated by the solution families."""
    _require_large(p)
    l1, l2 = p.l1, p.l2
    L = blattner(p)
    if which == "siegel":
        return {"kind": "gl2_discrete_series_pair",
                "weights": sorted((abs(L.L1 + L.L2), L.d))}
    if which == "jacobi":
        sign = "+" if p.xi_type == "II" else "-"
        return {"kind": "jacobi_pair", "components": [
            {"exponent": -l2 + 2, "weight": l1 + 1, "sign": sign},
            {"exponent": l1 + 2, "weight": -l2 + 1, "sign": sign},
        ]}
    if which == "borel":
        if p.xi_type == "II":
            pairs = [(-L.L2 + 2, L.L1), (L.L1 + 1, L.L2 + 1), (L.L1 + 1, -L.L2 + 1)]
        else:
            pairs = [(L.L1 + 2, -L.L2), (-L.L2 + 1, -L.L1 + 1), (-L.L2 + 1, L.L1 + 1)]
        return {"kind": "torus_exponent_pairs", "exponent_pairs": pairs}
    raise ParameterError(f"unknown descriptor {which!r}")
