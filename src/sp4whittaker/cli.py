"""Command-line front end: classification, evaluation, solving, verification
suites, and decision tables, with deterministic JSON/table/CSV output.

Exit codes: 0 success (no FAIL in a verification report), 1 domain error or
failed verification, 2 usage error.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import fourier_jacobi as fjmod
from . import rules
from .report import dumps
from .solutions import (DegenerateCharacter, ParameterError, blattner,
                        borel_recurrence_solve, borel_solution, classify,
                        compare_borel_formulas, siegel_solution)
from .specialfns import WhittakerDomainError
from .verify import run_suite

_PARABOLIC_ALIASES = {"siegel": "P_S", "jacobi": "P_J", "minimal": "P_0",
                      "P_S": "P_S", "P_J": "P_J", "P_0": "P_0"}


def _parse_lambda(text: str):
    try:
        l1, l2 = (int(x) for x in text.split(","))
    except Exception:
        raise ParameterError(f"--lambda expects 'L1,L2', got {text!r}")
    return classify(l1, l2)


def _require_finite(option: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ParameterError(f"{option} must be finite, got {', '.join(map(str, values))}")


def _parse_grid(text: str) -> list[tuple[float, float]]:
    pts = []
    for chunk in text.split(","):
        try:
            a1, a2 = (float(x) for x in chunk.split(":"))
        except Exception:
            raise ParameterError(f"--grid expects 'a1:a2,a1:a2,...', got {text!r}")
        _require_finite("--grid", a1, a2)
        if a1 <= 0 or a2 <= 0:
            raise ParameterError("grid points must be positive")
        pts.append((a1, a2))
    return pts


def _parse_const(text: str) -> tuple[float, float]:
    try:
        C0, C1 = (float(x) for x in text.split(","))
    except Exception:
        raise ParameterError(f"--const expects 'C0,C1', got {text!r}")
    _require_finite("--const", C0, C1)
    return C0, C1


def _parse_pi1(text: str) -> fjmod.SL2Label:
    try:
        sign, weight = text.split(":")
        weight = int(weight)
    except Exception:
        raise ParameterError(f"--pi1 expects 'sign:weight', e.g. +:3, got {text!r}")
    return fjmod.SL2Label(sign, weight)


DEFAULT_GRID = "1:1,2:1,1:2,0.5:0.5"


def _family_rows(fam) -> list[dict]:
    rows = []
    for i, f in enumerate(fam.entries):
        terms = []
        for (p, q, r, w), c in f.terms:
            t = {"coeff": repr(c) if hasattr(c, "is_zero") else complex(c).real,
                 "y1_power": str(p), "y2_power": str(q)}
            if r != 0.0:
                t["exp_rate"] = r
            if w is not None:
                t["w_kappa"] = w[0]
                t["w_mu"] = w[1]
                t["w_scale"] = w[2]
            terms.append(t)
        rows.append({"index": i, "terms": terms})
    return rows


def _grid_values(fam, grid) -> list[dict]:
    out = []
    for a1, a2 in grid:
        for i, f in enumerate(fam.entries):
            v = f.evaluate(a1, a2)
            out.append({"a1": a1, "a2": a2, "i": i,
                        "value": v.real if abs(v.imag) < 1e-300 else [v.real, v.imag]})
    return out


def _emit(payload, fmt: str) -> str:
    if fmt == "json":
        return dumps(payload)
    if fmt == "csv":
        lines = ["a1,a2,i,value"]
        for r in payload["values"]:
            lines.append(f'{r["a1"]:.17g},{r["a2"]:.17g},{r["i"]},{r["value"]:.17g}')
        return "\n".join(lines)
    return _as_table(payload)


def _as_table(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for k in sorted(payload.keys(), key=str):
            v = payload[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_as_table(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(payload, list):
        lines = []
        for v in payload:
            if isinstance(v, (dict, list)):
                lines.append(_as_table(v, indent))
                lines.append("")
            else:
                lines.append(f"{pad}- {v}")
        return "\n".join(lines).rstrip()
    return f"{pad}{payload}"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sp4whittaker",
        description="degenerate Whittaker solutions and decision tables for Sp(4,R)")
    ap.add_argument("--format", choices=("json", "table", "csv"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="chamber type and minimal K-type data")
    c.add_argument("--lambda", dest="lam", required=True)

    b = sub.add_parser("blattner", help="minimal K-type highest weight")
    b.add_argument("--lambda", dest="lam", required=True)

    e = sub.add_parser("eval", help="evaluate a solution family on a grid")
    e.add_argument("what", choices=("siegel", "borel", "fj"))
    e.add_argument("--lambda", dest="lam", required=True)
    e.add_argument("--c0", type=float, default=1.0)
    e.add_argument("--grid", default=DEFAULT_GRID)
    e.add_argument("--family", default="f1", help="borel family name f0..f4")
    e.add_argument("--pi1", default=None, help="rank-one label sign:weight, e.g. +:3")
    e.add_argument("--const", default="1,1", help="C0,C1 for the siegel family")
    e.add_argument("--a", type=float, default=1.0, help="torus coordinate for fj")

    s = sub.add_parser("solve", help="solve the flat-character system exactly")
    s.add_argument("what", choices=("borel",))
    s.add_argument("--lambda", dest="lam", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=("lie", "beta", "whittaker", "siegel",
                                     "borel", "fj", "rules", "all"))
    v.add_argument("--max-degree", type=int, default=12)
    v.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("table", help="decision tables")
    t.add_argument("what", choices=("cuspidal", "embeddings"))
    t.add_argument("--parabolic", default="siegel",
                   choices=sorted(_PARABOLIC_ALIASES.keys()))
    t.add_argument("--lambda", dest="lam", required=True)
    return ap


def _cmd_classify(args) -> dict:
    p = _parse_lambda(args.lam)
    L = blattner(p)
    return {"xi_type": p.xi_type, "blattner": [L.L1, L.L2], "d": L.d}


def _cmd_eval(args):
    p = _parse_lambda(args.lam)
    grid = _parse_grid(args.grid)
    if args.what == "siegel":
        C0, C1 = _parse_const(args.const)
        _require_finite("--c0", args.c0)
        fam = siegel_solution(p, args.c0, C0=C0, C1=C1)
        payload = {"family": _family_rows(fam), "values": _grid_values(fam, grid)}
    elif args.what == "borel":
        fam = borel_solution(p, args.family)
        payload = {"family": _family_rows(fam), "values": _grid_values(fam, grid)}
    else:
        if args.pi1 is None:
            raise ParameterError("eval fj requires --pi1 sign:weight")
        _require_finite("--a", args.a)
        f = fjmod.fj_function(p, _parse_pi1(args.pi1))
        vals = fjmod.fj_evaluate(f, args.a)
        payload = {
            "power": f.power,
            "terms": [{"coeff": str(c), "sl2_weight": w, "ktype_index": k}
                      for c, w, k in f.terms],
            "values": [{"a1": args.a, "a2": args.a, "i": k, "value": v}
                       for _, k, v in vals],
        }
    return payload


def _cmd_solve(args):
    p = _parse_lambda(args.lam)
    basis = borel_recurrence_solve(p)
    cmp_out = compare_borel_formulas(p, kernel=basis)
    return {"dimension": len(basis),
            "basis": [_family_rows(f) for f in basis],
            "printed_table_comparison": cmp_out}


def _cmd_table(args):
    p = _parse_lambda(args.lam)
    if args.what == "cuspidal":
        rec = rules.allowed_cuspidal_components(_PARABOLIC_ALIASES[args.parabolic], p)
        return rec.to_jsonable()
    out = {"lambda": [p.l1, p.l2], "xi_type": p.xi_type,
           "siegel_targets": [{"exponent": str(e), "weight": w}
                              for e, w in rules.emb_siegel_targets(p)],
           "jacobi_slots": [], "principal_patterns": []}
    for slot in (1, 2):
        mu = rules.jacobi_slot(p, slot)
        out["jacobi_slots"].append({"slot": slot, "exponent": str(mu.exponent),
                                    "required_parity": mu.sign_parity})
    for pattern in range(1, 6):
        (e1, e2), condition = rules.principal_pattern(p, pattern)
        out["principal_patterns"].append({"pattern": pattern, "exponents": [str(e1), str(e2)],
                                          "condition": condition})
    conv = []
    for parab, branches in (("P_S", (2, 3)), ("P_J", (2, 3)), ("P_0", (1, 2))):
        for br in branches:
            conv.append(rules.convergence_record(parab, p, br).to_jsonable())
    out["convergence"] = conv
    return out


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _is_int_pair(text: str) -> bool:
    try:
        _, _ = (int(x) for x in text.split(","))
    except ValueError:
        return False
    return True


# argparse takes "-1e-3" and "-1,-3" for option flags (only -<digits> and
# -<digits>.<digits> pass as negative numbers), so a value of the right kind
# after one of these options is joined to it as --option=value before parsing
_NUMBER_OPTIONS = {"--c0": _is_number, "--a": _is_number, "--lambda": _is_int_pair}


def _join_number_values(argv: list[str]) -> list[str]:
    out = []
    for token in argv:
        accepts = _NUMBER_OPTIONS.get(out[-1]) if out else None
        if accepts and accepts(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def run(argv: list[str]) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_join_number_values(argv))
        if args.format == "csv" and args.command != "eval":
            ap.error("--format csv needs grid values, which only eval gives")
        if args.command == "verify" and args.max_degree < 2:
            ap.error(f"--max-degree must be at least 2, got {args.max_degree}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "classify":
            payload = _cmd_classify(args)
        elif args.command == "blattner":
            p = _parse_lambda(args.lam)
            L = blattner(p)
            payload = {"blattner": [L.L1, L.L2], "d": L.d}
        elif args.command == "eval":
            payload = _cmd_eval(args)
        elif args.command == "solve":
            payload = _cmd_solve(args)
        elif args.command == "verify":
            report = run_suite(args.suite, seed=args.seed, max_degree=args.max_degree)
            print(_emit(report.to_jsonable(), args.format))
            return 0 if report.ok else 1
        else:
            payload = _cmd_table(args)
    except (ParameterError, WhittakerDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_emit(payload, args.format))
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
