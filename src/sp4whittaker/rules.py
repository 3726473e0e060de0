"""Decision procedures for embeddings into induced representations, allowed
cuspidal components, and convergence-regime predicates.

Characters of the real line are reduced to (exponent, sign parity); every
if-and-only-if condition below is a parity comparison.  Statements whose
printed form is internally inconsistent are evaluated as printed and the
produced records carry an explanatory note instead of a silent fix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .solutions import HCParameter, ParameterError, _require_large

PARABOLICS = ("P_S", "P_J", "P_0")

NOTE_P0_CONVERGENCE = (
    "printed positivity condition on the second coordinate cannot hold in "
    "this chamber; the mirrored-coordinate reading is the plausible intent")
NOTE_PJ_WEIGHT = (
    "one printed clause drops the +1 on the second admissible weight; the "
    "engine uses the +1 form, consistent with the admissibility table")


@dataclass(frozen=True)
class RealCharacter:
    """sgn^parity * |.|^exponent on the multiplicative reals."""
    exponent: Fraction
    sign_parity: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        object.__setattr__(self, "sign_parity", int(self.sign_parity) % 2)

    def __mul__(self, other: "RealCharacter") -> "RealCharacter":
        return RealCharacter(self.exponent + other.exponent,
                             self.sign_parity + other.sign_parity)


@dataclass(frozen=True)
class DecisionRecord:
    query: dict
    verdict: object
    citation: str
    notes: tuple = field(default_factory=tuple)

    def to_jsonable(self) -> dict:
        out = {"query": self.query, "verdict": self.verdict, "citation": self.citation}
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def emb_siegel_targets(p: HCParameter) -> list[tuple[Fraction, int]]:
    """(exponent, rank-one weight) pairs of the two admissible inductions."""
    _require_large(p)
    l1, l2 = p.l1, p.l2
    if p.xi_type == "II":
        return [(Fraction(l1 - l2, 2), l1 + l2 + 1),
                (Fraction(l1 + l2, 2), l1 - l2 + 1)]
    return [(Fraction(l1 - l2, 2), -l1 - l2 + 1),
            (Fraction(-(l1 + l2), 2), l1 - l2 + 1)]


def jacobi_slot(p: HCParameter, slot: int) -> RealCharacter:
    """The character a mirabolic-type slot requires.

    Slot 1 carries exponent -l2 and requires parity l2; slot 2 carries
    exponent l1 and requires parity l1.
    """
    _require_large(p)
    if slot not in (1, 2):
        raise ParameterError("slot must be 1 or 2")
    return RealCharacter(-p.l2, p.l2) if slot == 1 else RealCharacter(p.l1, p.l1)


def emb_jacobi(p: HCParameter, mu: RealCharacter, slot: int) -> bool:
    """Embedding test for the two mirabolic-type inductions.

    Exponent mismatch with the slot's character is an error, a parity
    mismatch is a clean False.
    """
    want = jacobi_slot(p, slot)
    if mu.exponent != want.exponent:
        raise ParameterError(f"slot {slot} carries exponent {want.exponent}, got {mu.exponent}")
    return mu.sign_parity == want.sign_parity


_P0_PATTERNS_II = {
    1: lambda l1, l2: (Fraction(-l2), Fraction(l1)),
    2: lambda l1, l2: (Fraction(l1), Fraction(l2)),
    3: lambda l1, l2: (Fraction(l1), Fraction(-l2)),
    4: lambda l1, l2: (Fraction(-l1), Fraction(l2)),
    5: lambda l1, l2: (Fraction(-l1), Fraction(l2)),
}
_P0_PATTERNS_III = {
    1: lambda l1, l2: (Fraction(l1), Fraction(-l2)),
    2: lambda l1, l2: (Fraction(-l2), Fraction(-l1)),
    3: lambda l1, l2: (Fraction(-l2), Fraction(l1)),
    4: lambda l1, l2: (Fraction(l2), Fraction(-l1)),
    5: lambda l1, l2: (Fraction(l2), Fraction(-l1)),
}


def principal_pattern(p: HCParameter, pattern: int) -> tuple[tuple, dict | str]:
    """Exponents of one of the five displayed principal series, and its condition.

    The condition is the parity each character must have (pattern 1), the
    parity of their product (patterns 2 and 3), or "never" (patterns 4 and
    5 never contain the discrete series as a subrepresentation).
    """
    _require_large(p)
    if pattern not in range(1, 6):
        raise ParameterError("pattern must be 1..5")
    table = _P0_PATTERNS_II if p.xi_type == "II" else _P0_PATTERNS_III
    if pattern == 1:
        condition = {"mu1_parity": p.l2 % 2, "mu2_parity": (p.l1 + 1) % 2}
    elif pattern in (2, 3):
        condition = {"product_parity": (p.l1 + p.l2 + 1) % 2}
    else:
        condition = "never"
    return table[pattern](p.l1, p.l2), condition


def emb_principal(p: HCParameter, mu1: RealCharacter, mu2: RealCharacter,
                  pattern: int) -> bool:
    """Occurrence of the discrete series in the five displayed principal series."""
    (e1, e2), condition = principal_pattern(p, pattern)
    if (mu1.exponent, mu2.exponent) != (e1, e2):
        raise ParameterError(
            f"pattern {pattern} carries exponents ({e1},{e2}), got "
            f"({mu1.exponent},{mu2.exponent})")
    if condition == "never":
        return False
    if "product_parity" in condition:
        return (mu1.sign_parity + mu2.sign_parity) % 2 == condition["product_parity"]
    return (mu1.sign_parity, mu2.sign_parity) == (condition["mu1_parity"],
                                                  condition["mu2_parity"])


def allowed_cuspidal_components(parabolic: str, p: HCParameter) -> DecisionRecord:
    """Admissible archimedean cuspidal data for each standard parabolic."""
    _require_large(p)
    if parabolic not in PARABOLICS:
        raise ParameterError(f"unknown parabolic {parabolic!r}")
    l1, l2 = p.l1, p.l2
    query = {"parabolic": parabolic, "lambda": [l1, l2], "xi_type": p.xi_type}
    notes: tuple = ()
    if parabolic == "P_S":
        targets = emb_siegel_targets(p)
        verdict = [{"weight": w, "exponent": str(e)} for e, w in targets]
        citation = "cuspidal-support/siegel-weights"
    elif parabolic == "P_J":
        sign = "+" if p.xi_type == "II" else "-"
        verdict = [{"weight": w, "sign": sign, "mu_parity": mu.sign_parity,
                    "exponent": str(mu.exponent)}
                   for w, mu in ((l1 + 1, jacobi_slot(p, 1)), (-l2 + 1, jacobi_slot(p, 2)))]
        citation = "cuspidal-support/jacobi-weights"
        notes = (NOTE_PJ_WEIGHT,)
    else:
        if p.xi_type == "II":
            verdict = [{"mu1_parity": (l1 + 1) % 2, "mu2_parity": l2 % 2,
                        "exponents": [str(l1), str(-l2)]}]
        else:
            verdict = [{"mu1_parity": (-l2 + 1) % 2, "mu2_parity": l1 % 2,
                        "exponents": [str(-l2), str(l1)]}]
        citation = "cuspidal-support/minimal-parabolic"
    return DecisionRecord(query, verdict, citation, notes)


def convergence_condition(parabolic: str, p: HCParameter, branch: int) -> bool:
    """The printed convergence inequality for the given statement branch.

    For P_S and P_J the branches are 2 and 3; for P_0 both branches carry
    the same (suspect, see notes) conjunction, evaluated as printed.
    """
    _require_large(p)
    l1, l2 = p.l1, p.l2
    if parabolic == "P_S":
        if branch == 2:
            return l1 - l2 > 3
        if branch == 3:
            return (l1 + l2 > 3) if p.xi_type == "II" else (-l1 - l2 > 3)
        raise ParameterError("P_S has branches 2 and 3")
    if parabolic == "P_J":
        if branch == 2:
            return -l2 > 2
        if branch == 3:
            return l1 > 2
        raise ParameterError("P_J has branches 2 and 3")
    if parabolic == "P_0":
        if branch not in (1, 2):
            raise ParameterError("P_0 has branches 1 and 2")
        if p.xi_type == "II":
            return l1 > -l2 + 1 and l2 > 1
        return -l2 > l1 + 1 and l1 > 1
    raise ParameterError(f"unknown parabolic {parabolic!r}")


def convergence_record(parabolic: str, p: HCParameter, branch: int) -> DecisionRecord:
    verdict = convergence_condition(parabolic, p, branch)
    notes = (NOTE_P0_CONVERGENCE,) if (parabolic == "P_0" and p.xi_type == "II") else ()
    return DecisionRecord(
        {"parabolic": parabolic, "lambda": [p.l1, p.l2], "branch": branch},
        verdict, "convergence/" + parabolic.lower(), notes)


def gl2_weight_constraint(k: int, group: str) -> dict:
    """Archimedean sign/exponent constraints for rank-one weight-k spaces.

    group 'SL2': character parity k mod 2 with exponent k-1; group 'GL2':
    the quotient character has parity k mod 2 and the exponents are
    +-(k-1)/2.  Requires k >= 3.
    """
    if k < 3:
        raise ParameterError("the statement assumes weight at least 3")
    if group == "SL2":
        return {"group": group, "weight": k, "parity": k % 2, "exponent": str(Fraction(k - 1))}
    if group == "GL2":
        return {"group": group, "weight": k, "quotient_parity": k % 2,
                "exponents": [str(Fraction(k - 1, 2)), str(-Fraction(k - 1, 2))]}
    raise ParameterError("group must be 'SL2' or 'GL2'")
