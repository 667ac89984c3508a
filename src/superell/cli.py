"""Command-line front end.

Subcommands: classify, rep, search, bounds, hurwitz.  Every command
accepts --json for a machine-readable report with a fixed key order, so
identical invocations produce byte-identical output.  Exit codes: 0 on
success, 1 on usage or validation errors, 2 when the mathematics itself
reports an infeasibility or inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import canrep, casecheck, cartier, curve as curvemod, ramify
from .exprparse import parse_curve, render_poly
from .ff import check_budget, log_table_estimate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

_JS_SAFE = 2**53


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _jnum(v):
    """JSON-safe number: large magnitudes become decimal strings."""
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return _jnum(int(v))
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return v if abs(v) < _JS_SAFE else str(v)
    return v


def _dumps(v, indent="\n"):
    """json.dumps(v, indent=2) for str-keyed v, without the indenting
    encoder: its closures refer to each other, so each call leaves a cycle
    for the garbage collector."""
    inner = indent + "  "
    if isinstance(v, dict) and v:
        return "{" + ",".join(inner + _quote(k) + ": " + _dumps(x, inner) for k, x in v.items()) + indent + "}"
    if isinstance(v, (list, tuple)) and v:
        return "[" + ",".join(inner + _dumps(x, inner) for x in v) + indent + "]"
    return _quote(v) if type(v) is str else repr(v) if type(v) is int else json.dumps(v)


def _emit(report: dict, as_json: bool, lines) -> None:
    if as_json:
        print(_dumps(report))
    else:
        for line in lines:
            print(line)


def _field_elem_json(a):
    return a.lift() if a.field.k == 1 else list(a.coeffs)


def _matrix_json(M):
    return [[_field_elem_json(c) for c in row] for row in M.rows]


# ---------------------------------------------------------------------------


def _parse_e(spec: str):
    """The sorted distinct exponents of a --e comma list of positive integers."""
    try:
        e_list = sorted({int(t) for t in spec.split(",")})
    except ValueError:
        e_list = []
    if not e_list or e_list[0] < 1:
        raise UsageError(f"--e takes a comma list of positive integers, got {spec!r}")
    return e_list


def cmd_classify(args) -> int:
    X = parse_curve(args.curve)
    e_list = _parse_e(args.e)
    # every estimate is checked before the first count
    for e in e_list:
        check_budget(*log_table_estimate(X.p, e))
    if X.m == 2:
        check_budget(*cartier.hasse_witt_estimate(X))
    g = curvemod.genus(X)
    counts = [curvemod.count_points(X, e) for e in e_list]
    results = {
        "curve": {
            "p": X.p,
            "m": X.m,
            "f": render_poly(X.f),
            "kind": X.kind,
        },
        "genus": g,
        "counts": [
            {"e": pc.e, "count": _jnum(pc.count), "status": pc.status} for pc in counts
        ],
    }
    provenance = ["point-count-mth-power-character", "weil-interval-assertion"]
    exit_code = EXIT_OK
    lines = [
        f"curve: y^{X.m} = {render_poly(X.f)} over F_{X.p}  [{X.kind}]",
        f"genus: {g}",
    ]
    for pc in counts:
        status = f"  ({pc.status})" if pc.status else ""
        lines.append(f"points over F_{X.p}^{pc.e}: {pc.count}{status}")
    if X.m == 2:
        check = cartier.crosscheck_superspecial(X, counts)
        hw, p_rank = check.hasse_witt, check.p_rank
        results["hasse_witt"] = {
            "basis": list(hw.basis_labels),
            "entries": _matrix_json(hw.matrix),
        }
        results["p_rank"] = {
            "stable_rank": p_rank.stable_rank,
            "verdict": p_rank.verdict,
        }
        results["superspecial_consistent"] = check.consistent
        provenance += [
            "frobenius-coefficient-matrix",
            "semilinear-stable-rank",
            "superspecial-count-consistency",
        ]
        lines.append(f"p-rank: {p_rank.stable_rank} of {g}  -> {p_rank.verdict}")
        lines.append(f"count consistency with verdict: {check.consistent}")
        if not check.consistent:
            exit_code = EXIT_INFEASIBLE
    report_obj = _report("classify", {"curve": args.curve, "e": e_list}, results, provenance)
    _emit(report_obj, args.json, lines)
    return exit_code


def cmd_rep(args) -> int:
    module = canrep.canonical_module(args.p, args.m)
    verdict = canrep.decide_irreducibility(module, seed=args.seed)
    lines = [
        f"canonical representation for p={args.p}, m={args.m}: dim {module.dim}",
        f"verdict: {verdict.verdict}"
        + (f" (commutant dimension {verdict.endo_dim})" if verdict.endo_dim else ""),
    ]
    if verdict.witness is not None:
        lines.append(f"invariant subspace witness of dimension {verdict.witness.ncols}")
    report_obj = None
    # the matrices are listed only for the report that prints them
    if args.json:
        results = {
            "p": args.p,
            "m": args.m,
            "dim": module.dim,
            "realization": (
                "plane-model degree-(p-2) monomials"
                if args.m == args.p + 1
                else "differential basis x^i dx / y^j"
            ),
            "basis": [[j, i] for (j, i) in canrep.build_basis(args.p, args.m).entries],
            "generators": [
                {"label": lab, "matrix": _matrix_json(mat)}
                for lab, mat in zip(module.labels, module.generators)
            ],
            "verdict": verdict.verdict,
            "endo_dim": verdict.endo_dim,
        }
        if verdict.witness is not None:
            results["witness_columns"] = _matrix_json(verdict.witness)
        provenance = ["holomorphic-differential-basis", "pullback-generator-matrices", verdict.route]
        report_obj = _report("rep", {"p": args.p, "m": args.m, "seed": args.seed}, results, provenance)
    _emit(report_obj, args.json, lines)
    return EXIT_OK


def cmd_search(args) -> int:
    spec = casecheck.run_search(args.spec, p_max=args.p_max)
    results = {
        "name": spec.name,
        "ranges": {k: repr(v) for k, v in spec.ranges.items()},
        "predicate": spec.predicate,
        "solutions": spec.solutions,
        "solution_primes": spec.solution_primes,
    }
    lines = [
        f"search {spec.name} with primes up to {args.p_max}",
        f"predicate: {spec.predicate}",
        f"solutions: {spec.solutions}",
        f"solution primes: {spec.solution_primes}",
    ]
    provenance = [f"exhaustive-divisibility-search:{spec.name}"]
    _emit(_report("search", {"spec": args.spec, "p_max": args.p_max}, results, provenance), args.json, lines)
    return EXIT_OK


# --kind -> (case id, the parameters its closed form reads)
_CASE_KINDS = {
    "case-I": ("I", ("g", "a", "d")),
    "case-II-a": ("II-a", ("g", "q", "q_prime", "b2")),
    "case-II-b": ("II-b", ("g", "a", "q_prime", "b2")),
    "case-II-c": ("II-c", ("g", "q", "b1", "b2")),
    "case-IV-final": ("IV-final", ("p", "n")),
}


def cmd_bounds(args) -> int:
    inputs = {
        k: getattr(args, k)
        for k in ("kind", "q", "g", "c", "d", "a", "p", "n", "q_prime", "b1", "b2")
        if getattr(args, k, None) is not None
    }
    if args.kind == "aut-ordinary":
        if args.g is None:
            raise UsageError("--kind aut-ordinary needs --g")
        value = casecheck.aut_bound_ordinary(args.g)
        results = {"value": _jnum(value), "certified_upper_bound": True}
        lines = [f"certified ordinary-curve bound at genus {args.g}: {value}"]
        provenance = ["isqrt-bracketed-bound"]
    elif args.kind in _CASE_KINDS:
        case_id, needed = _CASE_KINDS[args.kind]
        missing = [name for name in needed if getattr(args, name) is None]
        if missing:
            flags = ", ".join("--" + name.replace("_", "-") for name in missing)
            raise UsageError(f"--kind {args.kind} needs {flags}")
        params = {name: getattr(args, name) for name in needed}
        report = casecheck.case_closed_forms(case_id, params)
        results = {
            "formula": report.formula_id,
            "value": _jnum(report.value),
            "comparisons": [{"check": lab, "holds": ok} for lab, ok in report.comparisons],
        }
        lines = [f"{report.formula_id}: |G| = {report.value}"] + [
            f"  {lab}: {ok}" for lab, ok in report.comparisons
        ]
        provenance = [f"closed-form:{report.formula_id}"]
        if not all(ok for _, ok in report.comparisons):
            _emit(_report("bounds", inputs, results, provenance), args.json, lines)
            return EXIT_INFEASIBLE
    else:
        if args.q is None:
            raise UsageError(f"--kind {args.kind} needs --q")
        report = casecheck.divisibility_bound(args.kind, args.q, g=args.g, c=args.c, d=args.d)
        results = {
            "formula": report.formula_id,
            "value": _jnum(report.value),
            "degenerate": report.degenerate,
            "comparisons": [{"check": lab, "holds": ok} for lab, ok in report.comparisons],
        }
        lines = [f"{report.formula_id}: divisor bound {report.value}"]
        if report.degenerate:
            lines.append("  degenerate (zero product)")
        provenance = [f"divisor-bound:{report.formula_id}"]
    _emit(_report("bounds", inputs, results, provenance), args.json, lines)
    return EXIT_OK


def _parse_ram(spec: str):
    points = []
    if spec.strip():
        for chunk in spec.split(","):
            parts = chunk.strip().split(":")
            if len(parts) != 2:
                raise UsageError(f"malformed ramification entry {chunk!r}; use e:d")
            try:
                e, d = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise UsageError(f"non-integer ramification entry {chunk!r}") from exc
            points.append((e, d))
    return tuple(points)


def cmd_hurwitz(args) -> int:
    ram = _parse_ram(args.ram)
    prof = ramify.CoverProfile(
        group_order=args.order,
        base_genus=args.gy,
        ram_points=ram,
        top_genus=args.gx,
    )
    try:
        result = ramify.riemann_hurwitz(prof, args.solve)
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from exc
    results = {
        "solve": args.solve,
        "value": _jnum(result.value),
        "feasible": result.feasible,
        "note": result.note,
    }
    lines = [
        f"profile: |G|={args.order}, g_Y={args.gy}, ram={list(ram)}",
        f"{args.solve} = {result.value}"
        + ("" if result.feasible else f"  [infeasible: {result.note}]"),
    ]
    provenance = ["riemann-hurwitz-exact-rational"]
    inputs = {"gy": args.gy, "order": args.order, "ram": args.ram, "gx": args.gx, "solve": args.solve}
    _emit(_report("hurwitz", inputs, results, provenance), args.json, lines)
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _report(command: str, inputs: dict, results: dict, provenance) -> dict:
    return {
        "schema_version": "1",
        "command": command,
        "inputs": {k: _jnum(v) if not isinstance(v, (list, dict)) else v for k, v in inputs.items()},
        "results": results,
        "provenance": list(provenance),
    }


# ---------------------------------------------------------------------------


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="superell",
        description="Exact classification toolkit for superelliptic curves "
        "over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify",
        help="genus, point counts, Frobenius matrix and p-rank verdict",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Curve grammar (whitespace insignificant):\n"
            "  curve := 'y' '^' UINT '=' poly 'mod' UINT\n"
            "  poly  := term (('+' | '-') term)*\n"
            "  term  := INT ['*'] ['x' ['^' UINT]] | 'x' ['^' UINT]\n"
            'Example: "y^2 = x^5 - x mod 7".'
        ),
    )
    p_classify.add_argument("curve", help='curve expression, e.g. "y^2 = x^5 - x mod 7"')
    p_classify.add_argument("--e", default="2", help="comma list of positive extension exponents")
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=cmd_classify)

    p_rep = sub.add_parser("rep", help="canonical representation of y^m = x^p - x")
    p_rep.add_argument("--p", type=int, required=True)
    p_rep.add_argument("--m", type=int, required=True)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--json", action="store_true")
    p_rep.set_defaults(func=cmd_rep)

    p_search = sub.add_parser("search", help="builtin exhaustive divisibility searches")
    p_search.add_argument(
        "--spec", required=True, choices=["tame-outside", "tame-inside", "mersenne"]
    )
    p_search.add_argument("--p-max", dest="p_max", type=int, default=200)
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(func=cmd_search)

    p_bounds = sub.add_parser("bounds", help="divisor bounds and closed forms")
    p_bounds.add_argument(
        "--kind",
        required=True,
        choices=["max-rough", "min-rough", "max-fine", "min-fine", "fine-cor",
                 "aut-ordinary"] + sorted(_CASE_KINDS),
    )
    p_bounds.add_argument("--q", type=int)
    p_bounds.add_argument("--g", type=int)
    p_bounds.add_argument("--c", type=int)
    p_bounds.add_argument("--d", type=int)
    p_bounds.add_argument("--a", type=int)
    p_bounds.add_argument("--p", type=int)
    p_bounds.add_argument("--n", type=int)
    p_bounds.add_argument("--q-prime", dest="q_prime", type=int)
    p_bounds.add_argument("--b1", type=int)
    p_bounds.add_argument("--b2", type=int)
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=cmd_bounds)

    p_hurwitz = sub.add_parser("hurwitz", help="exact Riemann-Hurwitz solver")
    p_hurwitz.add_argument("--gy", type=int, required=True, help="base genus g_Y")
    p_hurwitz.add_argument("--order", type=int, required=True, help="group order")
    p_hurwitz.add_argument("--ram", default="", help='ramification list "e:d,e:d,..."')
    p_hurwitz.add_argument("--gx", type=int, default=None, help="top genus, when known")
    p_hurwitz.add_argument(
        "--solve", default="g_X", choices=["g_X", "g_Y", "group_order"]
    )
    p_hurwitz.add_argument("--json", action="store_true")
    p_hurwitz.set_defaults(func=cmd_hurwitz)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # ParseError, InvalidCurveError, WorkBudgetError, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except canrep.MeatAxeInconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
