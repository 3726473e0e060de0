"""The five workloads: seeded inputs, one operation each, and their checks.

Every workload runs in whole rounds.  A round has a fixed make-up (the same
W regimes, the same (lambda, sign of c0) pairs, the same degrees, the same
verify suites in every round); the seed and the round index draw only the
parameters inside it.  So every round does the same kind and amount of work,
the share of failed operations is the same in every run, and the traced run's
per-operation counts do not depend on the run length (nor on the seed, except
the radial counts of borel-solve, whose printed families vary with lambda).

The checks share no code with what they check: W against `mpmath.whitw`,
the radial systems through a_i d/da_i derivatives taken here by finite
differences, the flat-character kernel against sympy's exact null space, and
the verify suites through their exit status and byte-identical JSON.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

import sp4whittaker as sp
import sp4whittaker.specialfns as specialfns
from sp4whittaker.solutions import radial_system

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{r}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class Workload:
    """One workload: `round(r)` gives round r's inputs, `run` does one
    operation, `check` judges a list of (input, output) pairs."""

    name = ""
    min_rounds = 1
    # peak RSS is read after this many rounds (or at the end of a shorter
    # run): the climb keeps memory per distinct point, so over a whole timed
    # phase the peak would grow with speed rather than with memory per operation
    rss_rounds = 4

    def __init__(self, seed: int, smoke: bool = False, trace_dir: Path | None = None):
        self.seed = seed
        self.smoke = smoke

    @staticmethod
    def known_fault(op) -> bool:
        """True for an input on which the package is known to fail."""
        return False

    def peak_kb(self, results, own_kb: int) -> int:
        """Peak RSS in KiB of the process that did the work."""
        return own_kb



# ---------------------------------------------------------------------------
# w-domain: one whittaker_w call per operation, every regime, no reuse
# ---------------------------------------------------------------------------

W_TOL = 1e-10        # the relative accuracy whittaker_w documents on its box
W_CHECK_DPS = 40
W_Y = (0.1, 50.0)
W_Y_BINS = 4
# Points in the climb regime where whittaker_w misses W_TOL today.  The
# climb seeds its kappa recurrence at a = mu - kappa + 1/2 + m in (0, 1];
# near a = 0 the integrand of the seed quadrature behaves like t^(a-1) and
# 24-digit tanh-sinh misses it.  The seed a of these points is 0.009, 0.053,
# 0.199 and 0.255.  They do not depend on the seed; round r scales y by
# 1 + (r mod 32)/64 so no input repeats within a run, and every one of the
# 32 variants misses W_TOL against mpmath.whitw.
W_KNOWN_FAULT = ((3.408, 0.917, 0.204), (7.511, 3.064, 20.754),
                 (7.701, 0.4, 0.443), (4.628, 2.384, 2.169))
# Seeded climb points keep their seed a in [0.6, 0.98], and seeded integral
# points keep a >= 1.  Closer to a = 0 whether a point misses W_TOL depends
# on the draw, so the failed count would depend on the seed; W_KNOWN_FAULT
# stands for that band instead.
W_CLIMB_SEED_A = (0.6, 0.98)
# Seeded climb points also keep the seed integral, about Gamma(a + b) y^-b
# with b = 2 mu - a, below 2^75.  Near 2^97 its last digits are whole
# numbers, and mpmath's tanh-sinh error estimate divides by log10 of a level
# difference that can be exactly 1: whittaker_w then raises
# ZeroDivisionError at isolated points, for instance
# (9.436497230753048, 8.685935061211913, 0.11954596974306195).
# The cut is kept because such points, while rare (none in 358 draws between
# 2^75 and 2^100), would make the failed count depend on the seed; the one
# known point, W_KNOWN_CRASH, runs unchanged in every round instead.  lru_cache
# keeps no exception, so every round repeats its whole failing climb.
W_CLIMB_MAX_LOG2 = 75.0
W_KNOWN_CRASH = (9.436497230753048, 8.685935061211913, 0.11954596974306195)


def w_close(kappa, mu, y, value, tol: float = W_TOL) -> bool:
    """value is W_{kappa,mu}(y) to tol relative, by mpmath.whitw at W_CHECK_DPS."""
    with mp.workdps(W_CHECK_DPS):
        ref = float(mp.whitw(kappa, mu, y))
    return abs(value - ref) <= tol * abs(ref)


def climb_seed_log2(mu: float, a_seed: float, y: float) -> float:
    b = 2.0 * mu - a_seed
    return (math.lgamma(a_seed + b) - b * math.log(y)) / math.log(2.0)
W_MU_BINS = ((0.0, 2.25), (2.25, 4.5), (4.5, 6.75), (6.75, 9.0))
# A climb cell's mu, y and seed a are drawn stratified over rounds: each
# range is cut into W_STRATA strata, and rounds r, r + 1, ... r + W_STRATA - 1
# visit every stratum once, in an order the seed fixes.  The climb latencies
# of a run then sample the same spread of points whatever the seed, which
# keeps their median from moving with the draw.
W_STRATA = 8


def _y_bins():
    lo, hi = (math.log(v) for v in W_Y)
    step = (hi - lo) / W_Y_BINS
    return [(math.exp(lo + i * step), math.exp(lo + (i + 1) * step))
            for i in range(W_Y_BINS)]


class WDomain(Workload):
    """Round: 16 climb points (one per mu bin x y bin), the 4 known-fault
    climb points, the known crash, 8 integral points (2 per y bin) and 4
    terminating points.

    The median operation is a fast climb point.  Integral points all take
    about the same time, so on a machine whose two CPUs run at different
    speeds a median among them jumps between two values from run to run;
    climb latencies spread widely, and their median moves smoothly."""

    name = "w-domain"

    def __init__(self, seed: int, smoke: bool = False, trace_dir: Path | None = None):
        super().__init__(seed, smoke)
        self.y_bins = _y_bins()
        order = _rng(self.name, seed, "strata")
        self.strata = [[order.sample(range(W_STRATA), W_STRATA) for _ in range(3)]
                       for _ in range(len(W_MU_BINS) * W_Y_BINS)]

    def round(self, r: int) -> list:
        rng = _rng(self.name, self.seed, r)
        ops = []
        mu_bins = W_MU_BINS[:1] if self.smoke else W_MU_BINS
        y_bins = self.y_bins[:1] if self.smoke else self.y_bins
        cells = [(m, yb) for m in mu_bins for yb in y_bins]
        for ((mlo, mhi), (ylo, yhi)), strata in zip(cells, self.strata):
            s_mu, s_y, s_a = (perm[r % W_STRATA] for perm in strata)
            a_lo, a_hi = W_CLIMB_SEED_A
            while True:   # the cut rejects only part of the top-mu, low-y cell
                mu = mlo + (s_mu + rng.random()) / W_STRATA * (mhi - mlo)
                a_seed = a_lo + (s_a + rng.random()) / W_STRATA * (a_hi - a_lo)
                y = ylo * (yhi / ylo) ** ((s_y + rng.random()) / W_STRATA)
                if climb_seed_log2(mu, a_seed, y) < W_CLIMB_MAX_LOG2:
                    break
                s_mu, s_y = rng.randrange(W_STRATA), rng.randrange(W_STRATA)
            steps = rng.randint(1, math.floor(10.0 - (mu + 0.5 - a_seed)))
            kappa = mu + 0.5 - a_seed + steps
            ops.append(("climb", kappa, rng.choice((1, -1)) * mu, y))
        scale = 1.0 + (r % 32) / 64.0
        for kappa, mu, y in W_KNOWN_FAULT:
            ops.append(("climb-known-fault", kappa, mu, y * scale))
        ops.append(("climb-known-crash",) + W_KNOWN_CRASH)
        for ylo, yhi in y_bins:
            for _ in range(2):
                mu = rng.uniform(0.0, 10.0)
                kappa = rng.uniform(-10.0, mu - 0.5)      # a = mu - kappa + 1/2 >= 1
                ops.append(("integral", kappa, rng.choice((1, -1)) * mu,
                            _log_uniform(rng, ylo, yhi)))
        for _ in range(2 if self.smoke else 4):
            n = rng.randint(0, 9)
            mu = rng.uniform(0.0, 9.5 - n)
            ops.append(("terminating", mu + 0.5 + n, rng.choice((1, -1)) * mu,
                        _log_uniform(rng, *W_Y)))
        return ops

    @staticmethod
    def run(op):
        _, kappa, mu, y = op
        return sp.whittaker_w(kappa=kappa, mu=mu, y=y)

    @staticmethod
    def check(results) -> list[bool]:
        ok = []
        with mp.workdps(W_CHECK_DPS):
            for op, value in results:
                regime, kappa, mu, y = op
                if regime == "terminating":
                    # the point on the set itself: off it by the rounding of
                    # kappa, W at small y differs in the leading digits
                    n = round(kappa - abs(mu) - 0.5)
                    kappa = mp.mpf(abs(mu)) + mp.mpf(1) / 2 + n
                ok.append(w_close(kappa, mu, y, value))
        return ok

    @staticmethod
    def known_fault(op) -> bool:
        return op[0] in ("climb-known-fault", "climb-known-crash")


# ---------------------------------------------------------------------------
# w-contiguous: the whittaker suite's contiguous-relation and oracle checks
# ---------------------------------------------------------------------------

# The y grid and the half-integer (kappa, mu) grid of `verify whittaker`.
# There the climb pairs are kappa = |mu| + j, j >= 1, which seed the climb at
# a = 1/2; check_contiguous evaluates W at kappa - 1, kappa and kappa + 1 and
# at a finite-difference stencil around y, so a chain j = 1, 2, 3 at one
# (mu, y) shares its neighbours.  A run makes only two or three rounds, and
# the cost of a (mu, y) pair varies widely, so every round is the same but
# for its scale: it pairs the i-th y of the grid with the i-th |mu|, takes
# the same oracle points, and scales its grid by 1 + (r mod 32 + u)/1024,
# where the seed draws u in [0, 1) and the signs of mu.  No input repeats
# between rounds, and every round costs about the same.
CONTIG_Y = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
CONTIG_HALF = tuple(k / 2.0 for k in range(-6, 7))
CONTIG_MU = tuple(m for m in CONTIG_HALF if m >= 0.0)
CONTIG_CHAIN = (1, 2, 3)
CONTIG_TOL = 1e-8      # the tolerance check_contiguous and verify whittaker apply
# The oracle at the 16 digits verify whittaker gives it, held to the 1e-8
# agreement that suite asks of it: at a = 1/2 it is off by about 3e-10, the
# same t^(a-1) endpoint that the climb's seed quadrature misses.
ORACLE_DPS = 16
ORACLE_TOL = 1e-8
ORACLE_MIN_A = 0.25    # verify whittaker's oracle points keep a = |mu| - kappa + 1/2 > 0.25
# Oracle calls per y.  In the suite the oracle takes about a fifth of the
# time; 7 per y give it about that share of a round and most of its
# operations, so the median operation is an oracle call.
ORACLE_PER_Y = 7


class WContiguous(Workload):
    """Round: for each y of the scaled grid, check_contiguous at the chain
    kappa = |mu| + 1, + 2, + 3 of its |mu| in CONTIG_MU, then ORACLE_PER_Y
    whittaker_w_oracle calls at half-integer points of the suite's grid
    with a > 0.25, drawn once in a fixed order."""

    name = "w-contiguous"
    min_rounds = 2
    rss_rounds = 2

    def __init__(self, seed: int, smoke: bool = False, trace_dir: Path | None = None):
        super().__init__(seed, smoke)
        points = [(k, m) for k in CONTIG_HALF for m in CONTIG_HALF
                  if abs(m) - k + 0.5 > ORACLE_MIN_A]
        random.Random(f"{self.name}/oracle").shuffle(points)
        self.ys = CONTIG_Y[:2] if smoke else CONTIG_Y
        per_y = 2 if smoke else ORACLE_PER_Y
        self.oracle_points = [points[i * per_y:(i + 1) * per_y] for i in range(len(self.ys))]

    def round(self, r: int) -> list:
        rng = _rng(self.name, self.seed, r)
        scale = 1.0 + (r % 32 + rng.random()) / 1024.0
        ops = []
        for y, mu, oracle in zip(self.ys, CONTIG_MU, self.oracle_points):
            mu *= rng.choice((1, -1))
            for j in CONTIG_CHAIN:
                ops.append(("contiguous", abs(mu) + j, mu, y * scale))
            for point in oracle:
                ops.append(("oracle",) + point + (y * scale,))
        return ops

    @staticmethod
    def run(op):
        kind, kappa, mu, y = op
        if kind == "oracle":
            return specialfns.whittaker_w_oracle(kappa, mu, y, dps=ORACLE_DPS)
        return specialfns.check_contiguous(specialfns.WhittakerIndex(kappa, mu), [y])

    @staticmethod
    def neighbours(op) -> list[tuple[float, float]]:
        """(kappa', W_{kappa',mu}(y)) for the three kappa' the relations use.
        Read after the timed phase, so the package's W cache serves the very
        values check_contiguous was built from."""
        _, kappa, mu, y = op
        return [(k, sp.whittaker_w(kappa=k, mu=mu, y=y)) for k in (kappa - 1, kappa, kappa + 1)]

    @classmethod
    def check(cls, results) -> list[bool]:
        return [cls.judge(op, got, None if op[0] == "oracle" else cls.neighbours(op))
                for op, got in results]

    @staticmethod
    def judge(op, got, neighbours) -> bool:
        kind, kappa, mu, y = op
        if kind == "oracle":
            return w_close(kappa, mu, y, got, ORACLE_TOL)
        good = (got["status"] == "PASS" and got["max_residual"] < CONTIG_TOL
                and [row["y"] for row in got["rows"]] == [y])
        return good and all(w_close(k, mu, y, v) for k, v in neighbours)

# ---------------------------------------------------------------------------
# siegel-residual: build a moderate-growth family, check its radial system
# ---------------------------------------------------------------------------

SIEGEL_TOL = 1e-6    # the tolerance radial_system_residual applies
# Both large chambers (type II, then type III) at d = 4, 5, 6, 8, ..., 14.
# An operation's cost grows with d.  With the d = 5 pair, the median of a
# round's 28 operations lies inside the group d = 4 to 8, whose latencies
# are alike; with the even degrees alone it lay between the d = 8 and d = 10
# groups and jumped from run to run.
SIEGEL_LAMBDAS = ((2, -1), (1, -2), (3, -1), (1, -3), (3, -2), (2, -3), (5, -2),
                  (2, -5), (6, -3), (3, -6), (8, -3), (3, -8), (9, -4), (4, -9))
SIEGEL_GRID_POINTS = 15
# y1 = a1/a2 and 4 pi |c0| stay where the W argument 4 pi |c0| y1 lies in
# [0.25, 38], inside the box on which whittaker_w documents its accuracy.
SIEGEL_Y1 = (0.2, 3.0)
SIEGEL_Y2 = (0.3, 3.0)
SIEGEL_C0 = (0.1, 1.0)
FD_STEP = 5e-4       # step in log a_i of the 5-point derivative stencil


class SiegelResidual(Workload):
    """Round: every lambda in SIEGEL_LAMBDAS with c0 > 0 and with c0 < 0."""

    name = "siegel-residual"

    def __init__(self, seed: int, smoke: bool = False, trace_dir: Path | None = None):
        super().__init__(seed, smoke)
        self.lambdas = SIEGEL_LAMBDAS[:2] if smoke else SIEGEL_LAMBDAS
        self.npoints = 3 if smoke else SIEGEL_GRID_POINTS

    def round(self, r: int) -> list:
        rng = _rng(self.name, self.seed, r)
        ops = []
        for lam in self.lambdas:
            for sign in (1.0, -1.0):
                c0 = sign * rng.uniform(*SIEGEL_C0)
                C0, C1 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
                grid = []
                for _ in range(self.npoints):
                    y1 = _log_uniform(rng, *SIEGEL_Y1)
                    y2 = _log_uniform(rng, *SIEGEL_Y2)
                    grid.append((math.sqrt(y1 * y2), math.sqrt(y2 / y1)))
                ops.append((lam, c0, C0, C1, tuple(grid)))
        return ops

    @staticmethod
    def run(op):
        lam, c0, C0, C1, grid = op
        p = sp.classify(*lam)
        fam = sp.siegel_solution(p, c0, C0=C0, C1=C1)
        out = sp.radial_system_residual(fam, p, sp.DegenerateCharacter(c0), list(grid))
        return fam, out

    @staticmethod
    def check(results) -> list[bool]:
        return [_siegel_ok(op, fam, out) for op, (fam, out) in results]


def _euler_fd(f, a1: float, a2: float, axis: int) -> complex:
    """a_axis d/da_axis of f at (a1, a2): 5-point stencil in log a_axis."""
    def g(u):
        s = math.exp(u)
        return f.evaluate(a1 * s, a2) if axis == 1 else f.evaluate(a1, a2 * s)
    h = FD_STEP
    return (g(-2 * h) - 8 * g(-h) + 8 * g(h) - g(2 * h)) / (12 * h)


def _siegel_ok(op, fam, out) -> bool:
    lam, c0, _, _, grid = op
    p = sp.classify(*lam)
    eqs = radial_system(fam.basis_tag, p, c0)
    if out["status"] != "PASS" or not out["max_rel"] < SIEGEL_TOL:
        return False
    if len(out["equations"]) != len(eqs):
        return False
    for a1, a2 in grid:
        parts = {}
        for i in range(fam.d + 1):
            f = fam.entry(i)
            if f.is_zero():
                continue
            val = f.evaluate(a1, a2)
            parts[i] = {"id": val, "y1": (a1 / a2) * val,
                        "d1": _euler_fd(f, a1, a2, 1), "d2": _euler_fd(f, a1, a2, 2)}
        for eq in eqs:
            pieces = [c * parts[i][k] for i, ops in eq["terms"] if i in parts
                      for k, c in ops.items()]
            scale = max((abs(v) for v in pieces), default=0.0)
            if abs(sum(pieces, complex(0))) > SIEGEL_TOL * scale:
                return False
    return True


# ---------------------------------------------------------------------------
# borel-solve: the `solve borel` path, checked against sympy's null space
# ---------------------------------------------------------------------------

# A round has two halves.  Each half solves the five d = 12 parameters of
# one chamber, where the median operation falls, between solves at d = 6, 10
# and 26 in the other chamber; the second half swaps the chambers.  The
# borel path keeps no cache, so the d = 12 parameters, which repeat from
# round to round, cost the same every time.
BOREL_CLUSTER_DEGREE = 12
BOREL_FLANK_DEGREES = (6, 10, 26)
BOREL_KERNEL_DIM = 5
BOREL_MUST_MATCH = ("f0", "f1", "f2")


def lambdas_of_degree(d: int, xi_type: str) -> list[tuple[int, int]]:
    """Large-chamber parameters whose minimal K-type has degree d."""
    out = []
    for l2 in range(-1, -d, -1):
        l1 = d - 1 + l2
        if l1 > 0 and l1 != -l2 and sp.classify(l1, l2).xi_type == xi_type:
            out.append((l1, l2))
    return out


class BorelSolve(Workload):
    """Round: two halves, each every d = 12 parameter of one chamber
    interleaved with one solve per flank degree in the other chamber; the
    seed orders the cluster and picks the flanks."""

    name = "borel-solve"

    def round(self, r: int) -> list:
        rng = _rng(self.name, self.seed, r)
        ops = []
        for cluster_type, flank_type in (("II", "III"), ("III", "II")):
            if self.smoke:
                ops.append(rng.choice(lambdas_of_degree(BOREL_FLANK_DEGREES[0], flank_type)))
                continue
            cluster = lambdas_of_degree(BOREL_CLUSTER_DEGREE, cluster_type)
            rng.shuffle(cluster)
            flanks = [rng.choice(lambdas_of_degree(d, flank_type))
                      for d in BOREL_FLANK_DEGREES]
            ops += (cluster[:2] + flanks[:1] + cluster[2:3] + flanks[1:2]
                    + cluster[3:4] + flanks[2:] + cluster[4:])
        return ops

    @staticmethod
    def run(op):
        p = sp.classify(*op)
        return sp.borel_recurrence_solve(p), sp.compare_borel_formulas(p)

    @staticmethod
    def check(results) -> list[bool]:
        return [_borel_ok(op, basis, report) for op, (basis, report) in results]


def borel_shapes(p) -> list[tuple[Fraction, Fraction]]:
    """(y1, y2) exponents of the three power-function shapes of the ansatz."""
    L = sp.blattner(p)
    L1, L2 = L.L1, L.L2
    if p.xi_type == "II":
        a_exps = [(2 - L2, L1), (L1 + 1, L2 + 1), (L1 + 1, -L2 + 1)]
    else:
        a_exps = [(2 + L1, -L2), (-L2 + 1, -L1 + 1), (-L2 + 1, L1 + 1)]
    return [(Fraction(a - b, 2), Fraction(a + b, 2)) for a, b in a_exps]


def _qq_matrix(rows, ncols: int):
    """sympy DomainMatrix over QQ from rows of Fractions.  sympy is imported
    here, not at the top, so that it stays out of the set-up time."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in rows],
                        (len(rows), ncols), QQ)


def _as_fraction(c) -> Fraction:
    if isinstance(c, complex):
        if c.imag != 0:
            raise ValueError("complex coefficient in the flat-character system")
        c = c.real
    if isinstance(c, float):
        if not c.is_integer():
            raise ValueError("non-integer coefficient in the flat-character system")
        c = int(c)
    return Fraction(c)


def borel_system(p):
    """The c0 = 0 system of radial_system on the three-shape ansatz, as a
    sympy matrix over QQ: a_1 d/da_1 acts on y1^s y2^t by s + t and
    a_2 d/da_2 by t - s, since y1 = a1/a2 and y2 = a1 a2."""
    d = sp.blattner(p).d
    shapes = borel_shapes(p)
    n = 3 * (d + 1)
    rows = []
    for eq in radial_system("Vstar", p, 0.0):
        for m, (s, t) in enumerate(shapes):
            row = [Fraction(0)] * n
            for i, ops in eq["terms"]:
                for kind, c in ops.items():
                    symbol = {"d1": s + t, "d2": t - s, "id": Fraction(1)}[kind]
                    row[3 * i + m] += _as_fraction(c) * symbol
            if any(row):
                rows.append(row)
    return _qq_matrix(rows, n)


def family_vector(fam, shapes) -> list[Fraction] | None:
    """Coefficients of a pure power family on the ansatz, or None if it is not one."""
    vec = [Fraction(0)] * (3 * (fam.d + 1))
    for i in range(fam.d + 1):
        for (s, t, r, w), c in fam.entry(i).terms:
            if r != 0.0 or w is not None or (s, t) not in shapes:
                return None
            if not isinstance(c, sp.GaussianRational) or c.im != 0:
                return None
            vec[3 * i + shapes.index((s, t))] += c.re
    return vec


def in_kernel(M, vec) -> bool:
    return (M * _qq_matrix([[x] for x in vec], 1)).is_zero_matrix


def _borel_ok(lam, basis, report) -> bool:
    p = sp.classify(*lam)
    shapes = borel_shapes(p)
    M = borel_system(p)
    if M.shape[1] - M.rank() != BOREL_KERNEL_DIM or len(basis) != BOREL_KERNEL_DIM:
        return False
    vecs = [family_vector(f, shapes) for f in basis]
    if any(v is None or not in_kernel(M, v) for v in vecs):
        return False
    if _qq_matrix(vecs, M.shape[1]).rank() != BOREL_KERNEL_DIM:   # spans null(M)
        return False
    if report["dimension"] != BOREL_KERNEL_DIM:
        return False
    return printed_verdicts_agree(p, M, shapes, report["families"])


def printed_verdicts_agree(p, M, shapes, families) -> bool:
    """Each printed family's MATCH/MISMATCH agrees with membership in null(M),
    and f0, f1, f2 match."""
    if [e["family"] for e in families] != ["f0", "f1", "f2", "f3", "f4"]:
        return False
    for entry in families:
        vec = family_vector(sp.borel_solution(p, entry["family"]), shapes)
        member = vec is not None and in_kernel(M, vec)
        if entry["status"] != ("MATCH" if member else "MISMATCH"):
            return False
        if entry["family"] in BOREL_MUST_MATCH and not member:
            return False
    return True


# ---------------------------------------------------------------------------
# verify-suites: `sp4whittaker verify <suite>` in a fresh process
# ---------------------------------------------------------------------------

# The whittaker suite alone takes about 32 s on a 2-core machine, longer than
# a whole run may take; the other six suites run, twice per run at least, so
# every suite's JSON can be compared byte for byte with a second run.
VERIFY_SUITES = ("lie", "beta", "siegel", "borel", "fj", "rules")
VERIFY_SMOKE_SUITES = ("fj", "rules")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> tuple[int, bytes, bytes, int]:
    """Run argv to completion; (exit status, stdout, stderr, peak RSS in KiB)."""
    OUT.mkdir(exist_ok=True)
    err_path = OUT / f"child-stderr-{os.getpid()}.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_bytes()
    err_path.unlink()
    return proc.returncode, out, stderr, usage.ru_maxrss


class VerifySuites(Workload):
    """Round: each suite in VERIFY_SUITES once, all with the run's seed."""

    name = "verify-suites"
    min_rounds = 2

    def __init__(self, seed: int, smoke: bool = False, trace_dir: Path | None = None):
        super().__init__(seed, smoke)
        self.suites = VERIFY_SMOKE_SUITES if smoke else VERIFY_SUITES
        self.trace_dir = trace_dir

    def round(self, r: int) -> list:
        return [(suite, self.seed, r) for suite in self.suites]

    def argv(self, op) -> list[str]:
        suite, seed, r = op
        args = ["verify", suite, "--seed", str(seed)]
        if self.trace_dir is None:
            return [sys.executable, "-m", "sp4whittaker.cli"] + args
        summary = self.trace_dir / f"verify-{suite}-{r}.json"
        return [sys.executable, str(Path(__file__).resolve().parent / "child.py"),
                str(summary)] + args

    def run(self, op):
        return run_child(self.argv(op))

    def peak_kb(self, results, own_kb: int) -> int:
        """The largest child's: the suites run in the children."""
        return max(out[3] for _, out, err in results if err is None)

    @staticmethod
    def check(results) -> list[bool]:
        first = {}
        agree = {}
        ok = []
        for (suite, seed, _), (status, out, _, _) in results:
            first.setdefault((suite, seed), out)
            good = status == 0 and out == first[suite, seed]
            if good:
                try:
                    doc = json.loads(out)
                except ValueError:
                    doc = None
                good = doc is not None and _verify_report_ok(doc)
                if good and suite == "borel":
                    if out not in agree:
                        agree[out] = verify_mismatches_agree(doc)
                    good = agree[out]
            ok.append(good)
        return ok


def _verify_report_ok(doc: dict) -> bool:
    statuses = [c["status"] for c in doc["cases"]]
    counts = {s: statuses.count(s) for s in ("PASS", "FAIL", "MISMATCH")}
    return (counts["FAIL"] == 0 and len(statuses) > 0
            and all(doc["summary"].get(s, 0) == n for s, n in counts.items()))


def verify_mismatches_agree(doc: dict) -> bool:
    """The borel suite's MISMATCH entries are exactly the printed families
    outside sympy's null space, and its f0, f1, f2 all match."""
    prefix = "printed-families/lambda="
    lambdas = []
    for case in doc["cases"]:
        name = case["name"]
        if name.startswith(prefix) and name.count("/") == 1:
            l1, l2 = name[len(prefix) + 1:-1].split(",")
            lambdas.append((int(l1), int(l2)))
    if not lambdas:
        return False
    expected = []
    for lam in lambdas:
        p = sp.classify(*lam)
        shapes = borel_shapes(p)
        M = borel_system(p)
        for fam in ("f0", "f1", "f2", "f3", "f4"):
            vec = family_vector(sp.borel_solution(p, fam), shapes)
            if vec is None or not in_kernel(M, vec):
                if fam in BOREL_MUST_MATCH:
                    return False
                expected.append(f"lambda=({lam[0]},{lam[1]})/{fam}")
    return sorted(doc.get("expected_mismatches", [])) == sorted(expected)


WORKLOADS = {w.name: w for w in (WDomain, WContiguous, SiegelResidual, BorelSolve,
                                         VerifySuites)}
