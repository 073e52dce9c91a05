"""Command-line front end: construct, decompose and verify the families.

Exit status is 0 when every requested check passes, 1 when a check fails,
2 for usage or domain errors, and 141 when the reader closes stdout early.
JSON output is canonical: keys sorted, all numeric values rendered as
literal strings at 17 significant digits, so parse/re-serialize round-trips
are byte identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from mpmath import mp, mpc

from . import constructions as cons
from . import cover, legendre, numerics
from .numerics import format_point, parse_point


def functional_bits(functional: int, rank: int) -> str:
    """Render a functional as a bit string, coordinate 1 first."""
    mask = (1 << rank) - 1
    return format((functional & mask) | (mask + 1), "b")[:0:-1]


def root_terms(points, var: str) -> dict:
    """The term " * (<var> - p)^1" of each distinct point object p, rendered
    once, and "" for inf, keyed by id(p) for render_equation."""
    distinct = {id(p): p for p in points}
    return {key: "" if numerics.is_infinity(p) else " * (%s - %s)^1" % (var, format_point(p))
            for key, p in distinct.items()}


def render_equation(head: str, roots, terms: dict) -> str:
    return head + "".join(map(terms.__getitem__, map(id, roots)))


def equation_name(alpha) -> str:
    """The variable name w_<alpha> of the equation with exponent pattern alpha."""
    return "w_" + "".join(str(b) for b in alpha)


def render_system(equations) -> list[str]:
    """Each equation w_<alpha>^2 = <constant> * (z - <root>)^1 * ...: every
    constant is rendered once and every distinct root object once."""
    terms = root_terms([root for eq in equations for root in eq.roots], "z")
    return [render_equation("%s^2 = %s" % (equation_name(eq.alpha), format_point(eq.constant)),
                            eq.roots, terms) for eq in equations]


def branch_table(model: cover.CoverModel) -> list[dict]:
    return [
        {"point": format_point(point), "vector": functional_bits(vector, model.rank)}
        for point, vector in model.branch
    ]


# ---------------------------------------------------------------------------
# Construction selectors shared by `construct` and `decompose`


def _parse_values(text: str) -> list:
    return [parse_point(tok) for tok in text.split(",")]


def _pairs(mu) -> list:
    return [[format_point(a), format_point(b)] for a, b in mu]


def _build_genus2(args) -> dict:
    l1, l2 = parse_point(args.l1), parse_point(args.l2)
    equation, model = cons.build_genus2(l1, l2)
    eta1, eta2 = format_point(equation.eta1), format_point(equation.eta2)
    return {
        "model": model,
        "candidates": [l1, l2],
        "construction": {"type": "genus2", "l1": format_point(l1), "l2": format_point(l2),
                         "eta1": eta1, "eta2": eta2},
        "equations": lambda: ["y^2 = (x^2 - 1) * (x^2 - %s) * (x^2 - %s)" % (eta1, eta2)],
    }


def _build_irreducible(args) -> dict:
    values = _parse_values(args.lambdas)
    _require_rank(len(values))
    return {
        "model": cons.build_irreducible(values),
        "candidates": values,
        "construction": {"type": "irreducible", "r": len(values),
                         "lambdas": [format_point(v) for v in values]},
        "equations": lambda: ["y_%d^2 = (x - 0)^1 * (x - 1)^1 * (x - %s)^1"
                              % (j + 1, format_point(v)) for j, v in enumerate(values)],
    }


def _two_component(params, candidates, construction: dict) -> dict:
    """Model and equations of a two-component family instance."""
    return {
        "model": cons.build_reducible(params),
        "candidates": candidates,
        "construction": construction,
        "equations": lambda: render_system(cons.derive_equations_reducible(params)),
    }


def _build_reducible(args) -> dict:
    orbits = None
    if args.chain:
        if args.lam is not None or args.mu is not None:
            raise legendre.InvalidDomain("--chain cannot be combined with --lambda or --mu")
        values = _parse_values(args.chain)
        _require_rank(len(values) // 2 + 1)
        chain = cons.chain_with_auxiliary(values)
        orbits = legendre.OrbitTable()
        params = cons.solve_mu_chain(chain, orbits)
        candidates, extra = list(chain), {"chain": [format_point(v) for v in chain]}
    else:
        if args.lam is None or args.mu is None:
            raise legendre.InvalidDomain(
                "reducible needs either --chain or both --lambda and --mu")
        mus = _parse_values(args.mu)
        _require_rank(len(mus) // 2 + 1)
        if len(mus) < 2 or len(mus) % 2:
            raise legendre.InvalidDomain("--mu needs an even number (>= 2) of values")
        params = cons.ReducibleParams(parse_point(args.lam), tuple(zip(mus[::2], mus[1::2])))
        candidates, extra = params.flat(), {}
    return {**_two_component(params, candidates, {
        "type": "reducible", "s": params.s, "lambda": format_point(params.lam),
        "mu": _pairs(params.mu), **extra}), "orbits": orbits}


def _build_genus9(args) -> dict:
    lam, mu = parse_point(args.lam), parse_point(args.mu)
    params = cons.genus9_parameters(lam, mu)
    return _two_component(params, params.flat(), {
        "type": "genus9", "lambda": format_point(lam), "mu": format_point(mu),
        "derived_mu": _pairs(params.mu)})


BUILDERS = {
    "genus2": _build_genus2,
    "reducible": _build_reducible,
    "irreducible": _build_irreducible,
    "genus9": _build_genus9,
}


def build_from_args(args) -> dict:
    """Resolve a construction subcommand into its model, the parameters that
    tag genus-1 factors, the construction record, a function that derives
    and renders the equations (only `construct` calls it) and, for
    `reducible`, the orbit table that a `--chain` solve filled (else None)
    for tagging to reuse."""
    return BUILDERS[args.construction](args)


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default="text")
    common.add_argument("--precision", type=int, default=None,
                        help="working precision in bits, 53 to %d" % numerics.PRECISION_MAX)
    common.add_argument("--epsilon", default=None,
                        help="comparison tolerance (default 1e-9)")
    return common


def _add_construction_parsers(command, common) -> None:
    sub = command.add_subparsers(dest="construction", required=True)
    g2 = sub.add_parser("genus2", parents=[common],
                        help="rank-2 cover with two genus-1 factors")
    g2.add_argument("--l1", required=True)
    g2.add_argument("--l2", required=True)
    red = sub.add_parser("reducible", parents=[common],
                         help="two-component fiber product family")
    red.add_argument("--lambda", dest="lam")
    red.add_argument("--mu", help="comma-separated pairs m11,m12[,m21,m22,...]")
    red.add_argument("--chain", help="comma-separated target parameters (solver picks mu)")
    irr = sub.add_parser("irreducible", parents=[common],
                         help="irreducible fiber product family")
    irr.add_argument("--lambdas", required=True)
    g9 = sub.add_parser("genus9", parents=[common],
                        help="genus-9 completely split family")
    g9.add_argument("--lambda", dest="lam", required=True)
    g9.add_argument("--mu", required=True)


# ---------------------------------------------------------------------------
# Commands


def cmd_construct(args) -> tuple[dict, int]:
    built = build_from_args(args)
    model = built["model"]
    return {
        "construction": built["construction"],
        "genus": cover.total_genus(model),
        "equations": built["equations"](),
        "branch": branch_table(model),
        "checks": {},
    }, 0


def cmd_decompose(args) -> tuple[dict, int]:
    built = build_from_args(args)
    model = built["model"]
    report = cover.decompose(model)
    tags = cons.tag_factors(report, built["candidates"], built.get("orbits"))
    terms = root_terms(model.points, "x")
    factors = [{
        "functional": functional_bits(functional, model.rank),
        "genus": curve.genus,
        "equation": render_equation("y^2 = 1", curve.roots, terms),
        "deleted_infinity": curve.deleted_infinity,
        "orbit_of": None if tag is None else format_point(tag),
    } for (functional, curve), tag in zip(report.factors, tags)]
    return {
        "construction": built["construction"],
        "genus": report.total_genus,
        "factors": factors,
        "genus_sum": report.genus_sum,
        "kani_rosen_ok": report.kani_rosen_ok,
        "checks": {},
    }, 0 if report.kani_rosen_ok else 1


def cmd_verify(args) -> tuple[dict, int]:
    checks: dict[str, dict] = {}
    if args.verification == "identities":
        if args.max < 3:
            raise cons.OutOfRange("identities are stated for --max >= 3, got %d" % args.max)
        if args.max > IDENTITIES_MAX:
            raise cons.OutOfRange("identities are capped at --max <= %d, got %d"
                                  % (IDENTITIES_MAX, args.max))
        for s in range(3, args.max + 1):
            lhs, rhs = cover.reducible_genus_sum_identity(s)
            checks["reducible_s%d" % s] = {"pass": lhs == rhs, "lhs": lhs, "rhs": rhs}
            lhs, rhs = cover.irreducible_genus_sum_identity(s)
            checks["irreducible_r%d" % s] = {"pass": lhs == rhs, "lhs": lhs, "rhs": rhs}
    elif args.verification == "g5":
        report = cons.check_genus5_family(parse_point(args.l1), parse_point(args.l2))
        _split_checks(checks, report, lambda functional: "pairing")
        checks["factor_genera"] = {
            "pass": sorted(report.factor_genera) == [1, 1, 1, 2],
            "genera": sorted(report.factor_genera),
        }
    elif args.verification == "g13":
        try:
            report = cons.check_genus13_family(parse_point(args.l1), parse_point(args.l2))
        except cons.ConstraintViolated as exc:
            checks["constraint"] = {"pass": False, "residual": format_point(exc.residual)}
            return {"checks": checks, "ok": False}, 1
        checks["constraint"] = {"pass": True, "residual": format_point(report.residual)}
        checks["derived_parameters"] = {
            "pass": True,
            "l3": format_point(report.lambdas[2]),
            "l4": format_point(report.lambdas[3]),
        }
        _split_checks(checks, report, lambda f: "pairing_" + functional_bits(f, 4))
    elif args.verification == "bound":
        if args.r > BOUND_MAX_R:
            raise cons.OutOfRange("bound is capped at r <= %d, got %d" % (BOUND_MAX_R, args.r))
        value = cons.genus_upper_bound(args.r)
        s = (args.r + 4) // 2 if args.r % 2 == 0 else (args.r + 3) // 2
        via_chain = 1 + (1 << (s - 2)) * (s - 2)
        checks["bound_r%d" % args.r] = {
            "pass": value == via_chain,
            "bound": value,
            "construction_genus": via_chain,
        }
    elif args.verification == "crosscheck":
        checks.update(_crosscheck(args.s, args.seed))
    ok = all(entry["pass"] for entry in checks.values())
    return {"checks": checks, "ok": ok}, 0 if ok else 1


# Largest deck rank of a `construct` or `decompose` build (`--lambdas`,
# `--mu` or `--chain`): both walk the 2^rank - 1 nonzero functionals, so time
# and output double with every step of the rank.
RANK_MAX = 16
# Largest `verify crosscheck` work, 2^s times the precision: its tables hold
# 2^s entries of that many bits (s <= 16 at 128 bits, s <= 7 at 65,536: 15 s).
CROSSCHECK_MAX_WORK = 1 << 23
# Largest `verify identities --max`: the time grows faster than max^3
# (about 11 s at 1000).
IDENTITIES_MAX = 256
# Largest `verify bound --r`: the bound has about 0.15 r decimal digits, and
# from r = 28542 on it exceeds Python's int-to-str limit when rendered.
BOUND_MAX_R = 1024


def _split_checks(checks: dict, report: cons.SplitReport, key) -> None:
    """Add a split-family report's pairings, under key(functional), and count."""
    for (functional, _), pairing in report.pairings.items():
        checks[key(functional)] = {"pass": pairing.ok, "pairs": _pairs(pairing.pairs)}
    checks["elliptic_count"] = {"pass": report.elliptic_count == report.total_genus,
                                "count": report.elliptic_count}


def _require_rank(rank: int) -> None:
    if rank > RANK_MAX:
        raise cons.OutOfRange("construct and decompose are capped at deck rank <= %d, got %d"
                              % (RANK_MAX, rank))


def _crosscheck(s: int, seed: int) -> dict:
    """Derived equation system versus closed forms and raw form products."""
    if s < 3:
        raise legendre.InvalidDomain("crosscheck needs s >= 3")
    # min() bounds the shift: from s = 24 on, every precision exceeds the cap
    if mp.prec << min(s, 24) > CROSSCHECK_MAX_WORK:
        raise legendre.InvalidDomain("crosscheck is capped at 2^s * precision <= 2^23 (its "
                                     "tables hold 2^s entries), got s = %d at %d bits"
                                     % (s, mp.prec))
    rng = random.Random(seed)
    checks: dict[str, dict] = {}
    if s == 3:
        l1, l2, l3 = legendre.random_admissible(rng, 3)
        mu = cons.solve_mu_genus3(l1, l2, l3)
        params = cons.ReducibleParams(l1, ((mu, l3 * mu),))
        reference = cons.reference_system_s3(l1, l3, mu)
    else:
        draw = legendre.random_admissible(rng, 2 * s - 3)
        params = cons.ReducibleParams(
            draw[0],
            tuple((draw[1 + 2 * k], draw[2 + 2 * k]) for k in range(s - 2)))
        reference = None
        if s == 4:
            reference = cons.reference_system_s4(
                params.lam, params.mu[0][0], params.mu[0][1],
                params.mu[1][0], params.mu[1][1])
    equations = cons.derive_equations_reducible(params)
    if reference is not None:
        for comp in cons.compare_with_reference(equations, reference):
            checks["closed_form_" + equation_name(comp.alpha)] = {
                "pass": comp.ok,
                "constant_error": "%.3g" % comp.constant_error,
                "max_root_error": "%.3g" % comp.max_root_error,
            }
    samples = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
    errors = cons.sampled_identity_errors(params, equations, samples)
    checks["sampled_identity"] = {
        "pass": max(errors) <= cons.CROSSCHECK_TOLERANCE,
        "max_error": "%.3g" % max(errors),
        "equations": len(equations),
    }
    closed = cons.closed_form_constants(params, [eq.alpha for eq in equations])
    constant_ok = all(
        abs(want - eq.constant) <= cons.CROSSCHECK_TOLERANCE * (1 + abs(eq.constant))
        for want, eq in zip(closed, equations))
    checks["closed_form_constants"] = {"pass": constant_ok}
    return checks


# ---------------------------------------------------------------------------
# Output and entry point


def emit(payload: dict, output_format: str) -> None:
    if output_format == "json":
        write_json(payload, sys.stdout.write)
        sys.stdout.write("\n")
        return
    _emit_text(payload)


_SCALARS = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
            bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}


def write_json(value, write, indent: str = "\n") -> None:
    """Write json.dumps(value, sort_keys=True, indent=2), each line continued
    with ``indent``, in pieces: a scalar (str, int, bool or None) or a flat
    record (a dict of str keys and scalar values) is rendered directly, any
    other dict with str keys is walked key by key, a nonempty list of flat
    records or scalars is rendered and written one item at a time, and any
    other value is json.dumps'd and re-indented."""
    inner = indent + "  "
    if _is_flat(value):
        write(_render_flat(value, indent))
    elif type(value) is dict and all(type(key) is str for key in value):
        separator = "{"
        for key in sorted(value):
            write(separator + inner + _render_flat(key, inner) + ": ")
            write_json(value[key], write, inner)
            separator = ","
        write(indent + "}")
    elif type(value) is list and value and all(map(_is_flat, value)):
        separator = "["
        for item in value:
            write(separator + inner + _render_flat(item, inner))
            separator = ","
        write(indent + "]")
    else:
        write(json.dumps(value, sort_keys=True, indent=2).replace("\n", indent))


def _is_flat(value) -> bool:
    if type(value) is dict:
        return all(type(k) is str and type(v) in _SCALARS for k, v in value.items())
    return type(value) in _SCALARS


def _render_flat(value, indent: str) -> str:
    if type(value) is not dict:
        return _SCALARS[type(value)](value)
    if not value:
        return "{}"
    inner = indent + "  "
    return "{" + ",".join("%s%s: %s" % (inner, _SCALARS[str](k), _SCALARS[type(v)](v))
                          for k, v in sorted(value.items())) + indent + "}"


def _emit_text(payload: dict, indent: str = "") -> None:
    for key, value in payload.items():
        if isinstance(value, dict):
            print("%s%s:" % (indent, key))
            _emit_text(value, indent + "  ")
        elif isinstance(value, list):
            print("%s%s:" % (indent, key))
            for item in value:
                if isinstance(item, dict):
                    parts = ("%s=%s" % (k, v) for k, v in item.items())
                    print("%s  - %s" % (indent, ", ".join(parts)))
                else:
                    print("%s  - %s" % (indent, item))
        else:
            print("%s%s = %s" % (indent, key, value))


class _Parser(argparse.ArgumentParser):
    """Usage errors, here and in every subparser, are one line and exit 2."""

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later call in the process (parsing leaves it unchanged)."""
    parser = _Parser(
        prog="jacdecomp",
        description="Construct, decompose and verify families of curves "
                    "with decomposable Jacobians.")
    common = _common_options()
    commands = parser.add_subparsers(dest="command", required=True)

    _add_construction_parsers(
        commands.add_parser("construct", help="emit a family instance"), common)
    _add_construction_parsers(
        commands.add_parser("decompose", help="factor an instance's Jacobian"), common)
    verify = commands.add_parser("verify", help="run verification checks")
    checks = verify.add_subparsers(dest="verification", required=True)
    ident = checks.add_parser("identities", parents=[common],
                              help="exact genus-sum identities")
    ident.add_argument("--max", type=int, default=24)
    g5 = checks.add_parser("g5", parents=[common], help="genus-5 split family")
    g5.add_argument("--l1", required=True)
    g5.add_argument("--l2", required=True)
    g13 = checks.add_parser("g13", parents=[common], help="genus-13 split family")
    g13.add_argument("--l1", required=True)
    g13.add_argument("--l2", required=True)
    bound = checks.add_parser("bound", parents=[common],
                              help="minimal-genus upper bound")
    bound.add_argument("--r", type=int, required=True)
    cross = checks.add_parser("crosscheck", parents=[common],
                              help="equation-system cross-checks")
    cross.add_argument("--s", type=int, required=True)
    cross.add_argument("--seed", type=int, default=0,
                       help="seed for the random parameters and sample points")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if numerics.ENV_ERROR is not None:
            raise numerics.ENV_ERROR
        if args.precision is not None:
            numerics.set_precision(args.precision)
        if args.epsilon is not None:
            numerics.set_epsilon(args.epsilon)
        handler = {
            "construct": cmd_construct,
            "decompose": cmd_decompose,
            "verify": cmd_verify,
        }[args.command]
        payload, status = handler(args)
    except (numerics.DomainError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        emit(payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; writes at exit go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


if __name__ == "__main__":
    sys.exit(main())
