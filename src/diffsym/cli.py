"""Command-line interface.

Exit codes: 0 for a passing check, 1 for a refuted or failed check, 2 for
usage and input errors, 3 when an internal self-check fails.  Every
subcommand accepts --json for a structured report on stdout.  An option
value may start with '-' (``--alpha -t``): ``main`` joins it to its option
(``--alpha=-t``) before parsing.

The argument tree is built once per process (``_build_parser``), and a call
that names a subcommand is parsed by that subcommand's parser alone.  The base
field Q(w_m)(t) is built once per m and derivation (``_field``), with the
constants of Q(w_m) that every symbol algebra reads: a second query at the
same m builds neither again.  A symbol algebra is built once per m,
derivation, and --alpha and --beta as written (``_symbol_algebra``), for the
``MAX_ALGEBRAS`` most recently used; its rates and inverse gaps are computed
with it on first use and read by every later query on it.  Each algebra keeps
the ``MAX_IMAGES`` symbols most recently parsed in it (--du, --dv, --theta,
--rho), by source string.  A process that makes one call does the same work as
without these caches.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from .deriv import (
    Derivation,
    constants_inner,
    constants_standard,
    decompose,
    inner_derivation,
    standard_derivation,
    validate,
)
from .matdiff import prop44_constants, prop44_matrix
from .parser import parse_scalar, parse_symbol, scalar_to_str
from .scalars import (
    CycloField,
    RatFuncField,
    mth_power_up_to_constant,
    rational_ode_solve,
)
from .split import (
    PhiMap,
    compute_P,
    maximal_subfield_necessary,
    split_generic,
    split_inner,
    split_standard,
    t_r_values,
    verify_diff_isomorphism,
    xi_extension,
)
from .symalg import SymbolAlgebra


# The largest --m any subcommand accepts: every subcommand answers within
# seconds at m = 16, while `algebra check --m 150` runs for minutes.
MAX_M = 16
# The symbol algebras one process keeps: of the order of the at most 32 fields
# that _field keeps.
MAX_ALGEBRAS = 32
# The parsed symbols each of those algebras keeps: a derivation query parses two.
MAX_IMAGES = 32


def _field(m: int, zero: bool = False) -> RatFuncField:
    """Q(w_m)(t) with d/dt, or with the zero derivation: one field per (m, derivation) per process."""
    if m > MAX_M:
        raise ValueError(f"--m {m} is too large for the CLI: m must not exceed {MAX_M}")
    return _rational_function_field(m, "zero" if zero else "dt")


@functools.cache
def _rational_function_field(m: int, derivation: str) -> RatFuncField:
    return RatFuncField(CycloField(m), "t", derivation)


def _algebra(args, zero: bool = False) -> tuple:
    return _symbol_algebra(_field(args.m, zero), args.alpha, args.beta, args.m)


@functools.lru_cache(maxsize=MAX_ALGEBRAS)
def _symbol_algebra(field: RatFuncField, alpha: str, beta: str, m: int) -> tuple:
    """(alpha, beta) of degree m over field, parsed from the source strings, and its ``parse_symbol``
    by source string; shared by every call with the same arguments, so nothing in this module mutates
    an algebra or a symbol.  The parsed symbols go with the algebra when it is evicted."""
    alg = SymbolAlgebra(field, parse_scalar(alpha, field), parse_scalar(beta, field), m)
    return alg, functools.lru_cache(maxsize=MAX_IMAGES)(lambda src: parse_symbol(src, alg))


def _emit(args, report: dict, text_lines) -> None:
    """report as JSON under --json, else the lines that text_lines() builds."""
    if args.json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        for line in text_lines():
            print(line)


# -- subcommand handlers ----------------------------------------------------


def cmd_algebra_check(args) -> int:
    alg = _algebra(args)[0]
    checks = {
        "u^m = alpha": alg.u() ** alg.m == alg.scalar(alg.alpha),
        "v^m = beta": alg.v() ** alg.m == alg.scalar(alg.beta),
        "vu = w uv": alg.v() * alg.u() == (alg.u() * alg.v()).scale(alg.field.coerce(alg.omega)),
        "t_r identity": len(t_r_values(alg.m)) == alg.m,
    }
    ok = all(checks.values())
    _emit(args, {"ok": ok, "checks": {k: bool(v) for k, v in checks.items()}},
          lambda: [f"{'ok' if v else 'FAIL'}  {k}" for k, v in checks.items()])
    return 0 if ok else 1


def cmd_deriv_validate(args) -> int:
    alg, symbol = _algebra(args)
    verdict = validate(alg, symbol(args.du), symbol(args.dv))
    _emit(args, verdict.to_json(),
          lambda: ["valid derivation" if verdict.ok else f"not a derivation: {' '.join(verdict.failing)}"])
    return 0 if verdict.ok else 1


def cmd_deriv_decompose(args) -> int:
    alg, symbol = _algebra(args)
    theta = decompose(Derivation(alg, symbol(args.du), symbol(args.dv)))
    _emit(args, {"ok": True, "theta": theta.to_json()}, lambda: [f"theta = {theta!r}"])
    return 0


def cmd_deriv_constants(args) -> int:
    if args.standard:
        witnesses = constants_standard(_algebra(args)[0])
        _emit(args, {"ok": True, "witnesses": [w.to_json() for w in witnesses]},
              lambda: [f"witness u^{w.i} v^{w.j} with h = {scalar_to_str(w.h)}" for w in witnesses]
              or ["no monomial constants beyond the base field"])
        return 0
    symbol = _algebra(args, zero=True)[1]
    basis = constants_inner(symbol(args.theta))
    _emit(args, {"ok": True, "dimension": len(basis), "basis": [b.to_json() for b in basis]},
          lambda: [f"constants dimension {len(basis)}"] + [f"  {b!r}" for b in basis])
    return 0


def cmd_matdiff_constants(args) -> int:
    field = _field(args.m)
    if args.lambdas is not None:
        entries = args.lambdas.split(",")
        if len(entries) != args.m:
            raise ValueError(f"--lambdas needs --m = {args.m} comma-separated values, got {len(entries)}")
        lambdas = [parse_scalar(s, field.cyclo) for s in entries]
    else:
        lambdas = [field.cyclo.from_rational(i) for i in range(args.m)]
    f = parse_scalar(args.f, field)
    p = prop44_matrix(field, lambdas, f)
    basis = prop44_constants(p)
    _emit(args, {"ok": True, "dimension": len(basis), "basis": [b.to_json() for b in basis]},
          lambda: [f"constants dimension {len(basis)}"] + [f"  {b!r}" for b in basis])
    return 0


def cmd_ode_solve(args) -> int:
    field = _field(args.m)
    mu = parse_scalar(args.mu, field.cyclo)
    g = parse_scalar(args.g, field)
    sol = rational_ode_solve(mu, g)
    report = {
        "ok": sol.has_solution,
        "particular": scalar_to_str(sol.particular) if sol.has_solution else None,
        "homogeneous": [scalar_to_str(h) for h in sol.homogeneous],
    }
    _emit(args, report, lambda: (
        [f"x = {report['particular']}"] + [f"  + c * {h}" for h in report["homogeneous"]]
        if sol.has_solution
        else ["no rational solution"]
    ))
    return 0 if sol.has_solution else 1


def cmd_power_detect(args) -> int:
    field = _field(args.m)
    f = parse_scalar(args.f, field)
    res = mth_power_up_to_constant(f, args.m)
    if res is None:
        _emit(args, {"ok": False, "c": None, "h": None}, lambda: [f"not a {args.m}-th power up to constant"])
        return 1
    c, h = res
    report = {"ok": True, "c": scalar_to_str(c), "h": scalar_to_str(h)}
    _emit(args, report, lambda: [f"f = ({report['c']}) * ({report['h']})^{args.m}"])
    return 0


def _det_text(gauge) -> str:
    verdict = {True: "nonzero", False: "zero", None: "undecided"}[gauge.det_nonzero]
    if gauge.det_point is None:
        return f"{verdict} by {gauge.det_method}"
    return f"{verdict} by {gauge.det_method} at point {gauge.det_point}"


def _split_lines(report) -> list:
    lines = [f"P = {report.p!r}"]
    if report.scalar_shift is not None:
        lines.append(f"scalar shift lambda = {scalar_to_str(report.scalar_shift)}: verdicts taken against P + lambda I")
    lines += [
        f"F = {report.f!r}",
        f"gauge: {'ok' if report.gauge.ok else 'FAIL'}",
        f"det F: {_det_text(report.gauge)}",
    ]
    if report.isomorphism is not None:
        lines.append(f"isomorphism: {'ok' if report.isomorphism.ok else 'FAIL'}")
    if report.degree is not None:
        lines.append(f"extension degree {report.degree}")
    lines.append(f"transcendence degree {report.transcendence_degree}")
    return lines


def _emit_split(args, report) -> int:
    _emit(args, report.to_json(), lambda: _split_lines(report))
    return 0 if report.passed else 1


def cmd_split_standard(args) -> int:
    return _emit_split(args, split_standard(_algebra(args)[0]))


def cmd_split_inner(args) -> int:
    alg, symbol = _algebra(args, zero=True)
    return _emit_split(args, split_inner(alg, symbol(args.rho)))


def _derivation_from_args(args, alg, symbol):
    d = standard_derivation(alg)
    if args.theta:
        d = d + inner_derivation(symbol(args.theta))
    return d


def _generic_report(alg, d):
    """split_generic on the P of d, with the isomorphism verdict for that P."""
    phi = PhiMap(alg, xi_extension(alg))
    p = compute_P(d, phi)
    return replace(split_generic(p), isomorphism=verify_diff_isomorphism(phi, d, p))


def cmd_split_generic(args) -> int:
    alg, symbol = _algebra(args)
    return _emit_split(args, _generic_report(alg, _derivation_from_args(args, alg, symbol)))


def cmd_split_verify(args) -> int:
    alg, symbol = _algebra(args)
    phi = PhiMap(alg, xi_extension(alg))
    d = _derivation_from_args(args, alg, symbol)
    p = compute_P(d, phi)
    iso = verify_diff_isomorphism(phi, d, p)
    _emit(args, {"ok": iso.ok, "P": p.to_json(), "isomorphism": iso.to_json()},
          lambda: [f"P = {p!r}", f"isomorphism: {'ok' if iso.ok else 'FAIL'}"])
    return 0 if iso.ok else 1


def _maximal_lines(report, m: int) -> list:
    lines = []
    for name, wit in (("alpha", report.alpha_witness), ("beta", report.beta_witness)):
        if wit is None:
            lines.append(f"{name}: no witness for any power of nu")
        else:
            r, c, h = wit
            lines.append(f"{name} = ({scalar_to_str(c)}) * nu^{r} * ({scalar_to_str(h)})^{m}")
    lines.append("refuted: k(nu^(1/m)) cannot split the algebra" if report.refuted else "necessary condition holds")
    return lines


def cmd_split_maximal(args) -> int:
    alg = _algebra(args)[0]
    report = maximal_subfield_necessary(alg, parse_scalar(args.nu, alg.field))
    _emit(args, report.to_json(), lambda: _maximal_lines(report, alg.m))
    return 1 if report.refuted else 0


# -- replay corpus ----------------------------------------------------------


def _case_tr_identity():
    for m in (2, 3, 4, 5, 7):
        t_r_values(m)
    return True, "closed form matches the cyclotomic sum for m in {2,3,4,5,7}"


def _t_algebra(m: int, zero: bool = False) -> SymbolAlgebra:
    """The replay algebra (t, t+1) of degree m over Q(w_m)(t), with d/dt or with the zero derivation."""
    return _symbol_algebra(_field(m, zero), "t", "t+1", m)[0]


def _case_constants_none():
    alg = _t_algebra(3)
    witnesses = constants_standard(alg)
    return not witnesses, f"{len(witnesses)} monomial constants for (t, t+1), m=3"


def _case_constants_witness():
    alg = _symbol_algebra(_field(3), "2*t", "t", 3)[0]
    pairs = [(w.i, w.j) for w in constants_standard(alg)]
    return (1, 2) in pairs, f"witness pairs {pairs} for (2t, t), m=3"


def _case_corner_pole():
    field = _field(2)
    f = field.one() / field.gen()
    p = prop44_matrix(field, [0, 1], f)
    basis = prop44_constants(p)
    return len(basis) == 1, f"constants dimension {len(basis)} for f = 1/t, m=2"


def _case_split_standard(m):
    alg = _t_algebra(m)
    report = split_standard(alg)
    expected = m * m if m % 2 == 1 else 2 * m * m
    ok = report.passed and report.degree == expected
    return ok, f"m={m}: degree {report.degree}, gauge {'ok' if report.gauge.ok else 'FAIL'}"


def _case_split_inner(m):
    alg = _t_algebra(m, zero=True)
    report = split_inner(alg, alg.u())
    ok = report.passed and report.transcendence_degree == alg.field.cyclo.degree
    return ok, f"m={m}: trdeg {report.transcendence_degree}, gauge {'ok' if report.gauge.ok else 'FAIL'}"


def _case_split_generic(m):
    alg = _t_algebra(m)
    report = _generic_report(alg, standard_derivation(alg) + inner_derivation(alg.u() + alg.v()))
    ok = report.passed and report.transcendence_degree == m * m
    return ok, f"m={m}: trdeg {report.transcendence_degree}, det F {_det_text(report.gauge)}"


def _case_maximal():
    alg = _t_algebra(3)
    report = maximal_subfield_necessary(alg, alg.alpha * alg.beta)
    return report.refuted, "nu = t(t+1) refuted" if report.refuted else "nu = t(t+1) NOT refuted"


_REPLAY_CASES = {
    "tr-identity": _case_tr_identity,
    "constants-standard-none": _case_constants_none,
    "constants-standard-witness": _case_constants_witness,
    "corner-pole": _case_corner_pole,
    "split-standard-m2": lambda: _case_split_standard(2),
    "split-standard-m3": lambda: _case_split_standard(3),
    "split-standard-m7": lambda: _case_split_standard(7),
    "split-generic-m8": lambda: _case_split_generic(8),
    "split-inner-m2": lambda: _case_split_inner(2),
    "split-inner-m3": lambda: _case_split_inner(3),
    "maximal-subfield": _case_maximal,
}


def cmd_replay(args) -> int:
    names = [args.case] if args.case else list(_REPLAY_CASES)
    for name in names:
        if name not in _REPLAY_CASES:
            print(f"unknown case {name!r}", file=sys.stderr)
            return 2
    results = []
    for name in names:
        ok, detail = _REPLAY_CASES[name]()
        results.append({"case": name, "ok": bool(ok), "detail": detail})
    all_ok = all(r["ok"] for r in results)
    _emit(args, {"ok": all_ok, "cases": results},
          lambda: [f"{'ok' if r['ok'] else 'FAIL'}  {r['case']}: {r['detail']}" for r in results])
    return 0 if all_ok else 1


# -- argument wiring --------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree and its index, built once per process: each parse returns a fresh Namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    alg_common = argparse.ArgumentParser(add_help=False, parents=[common])
    alg_common.add_argument("--m", type=int, required=True, help="degree of the symbol algebra")
    alg_common.add_argument("--alpha", required=True, help="u^m, a scalar expression")
    alg_common.add_argument("--beta", required=True, help="v^m, a scalar expression")

    parser = argparse.ArgumentParser(prog="diffsym", description=(
        "Exact computations on differential symbol algebras (alpha, beta) over Q(w_m)(t): validate and "
        "decompose derivations, find constants and build splitting fields, checking each answer. Exit codes: "
        "0 a passing check, 1 a refuted or failed check, 2 a usage or input error, 3 a failed internal self-check."))
    sub = parser.add_subparsers(dest="command", required=True)

    p_algebra = sub.add_parser("algebra", help="symbol algebra checks").add_subparsers(
        dest="subcommand", required=True
    )
    p = p_algebra.add_parser("check", parents=[alg_common], help="verify the defining relations")
    p.set_defaults(func=cmd_algebra_check)

    p_deriv = sub.add_parser("deriv", help="derivations on the algebra").add_subparsers(
        dest="subcommand", required=True
    )
    p = p_deriv.add_parser("validate", parents=[alg_common], help="check candidate images d(u), d(v)")
    p.add_argument("--du", required=True)
    p.add_argument("--dv", required=True)
    p.set_defaults(func=cmd_deriv_validate)
    p = p_deriv.add_parser("decompose", parents=[alg_common], help="split d as d_s + inner(theta)")
    p.add_argument("--du", required=True)
    p.add_argument("--dv", required=True)
    p.set_defaults(func=cmd_deriv_decompose)
    p = p_deriv.add_parser("constants", parents=[alg_common], help="constants of d_s or of inner(theta)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--standard", action="store_true", help="monomial constants of d_s")
    group.add_argument("--theta", help="inner derivation over the zero base derivation")
    p.set_defaults(func=cmd_deriv_constants)

    p_mat = sub.add_parser("matdiff", help="matrix differential algebras").add_subparsers(
        dest="subcommand", required=True
    )
    p = p_mat.add_parser("constants", parents=[common], help="constants of the diagonal-plus-corner d_P")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--f", required=True, help="corner entry")
    p.add_argument("--lambdas", help="comma-separated diagonal constants (default 0..m-1)")
    p.set_defaults(func=cmd_matdiff_constants)

    p_ode = sub.add_parser("ode", help="scalar differential equations").add_subparsers(
        dest="subcommand", required=True
    )
    p = p_ode.add_parser("solve", parents=[common], help="rational solutions of delta(x) + mu x = g")
    p.add_argument("--m", type=int, default=2, help="cyclotomic level for the constant mu")
    p.add_argument("--mu", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=cmd_ode_solve)

    p = sub.add_parser("power-detect", parents=[common], help="decide f = c * h^m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--f", required=True)
    p.set_defaults(func=cmd_power_detect)

    p_split = sub.add_parser("split", help="splitting field constructions").add_subparsers(
        dest="subcommand", required=True
    )
    p = p_split.add_parser("standard", parents=[alg_common], help="finite splitting field for d_s")
    p.set_defaults(func=cmd_split_standard)
    p = p_split.add_parser("inner", parents=[alg_common], help="splitting field for inner(rho)")
    p.add_argument("--rho", required=True, help="a polynomial in u")
    p.set_defaults(func=cmd_split_inner)
    p = p_split.add_parser("generic", parents=[alg_common], help="generic splitting field from P")
    p.add_argument("--theta", help="inner part of the derivation (default: d_s alone)")
    p.set_defaults(func=cmd_split_generic)
    p = p_split.add_parser("verify", parents=[alg_common], help="verify Phi intertwines d and d_P")
    p.add_argument("--theta", help="inner part of the derivation (default: d_s alone)")
    p.set_defaults(func=cmd_split_verify)
    p = p_split.add_parser("maximal", parents=[alg_common], help="necessary condition for k(nu^(1/m))")
    p.add_argument("--nu", required=True)
    p.set_defaults(func=cmd_split_maximal)

    p = sub.add_parser("replay", parents=[common], help="re-run the bundled worked examples")
    p.add_argument("--case", help="run a single named case")
    p.set_defaults(func=cmd_replay)

    _index(parser)
    return parser


def _index(parser: argparse.ArgumentParser) -> None:
    """Record on the root parser, in one walk of its tree: ``leaves``, the leaf parser and the
    namespace its subcommand words set, by those words; ``takes_value``, the option strings that take
    one value; and ``registered``, every option string."""
    parser.leaves, parser.takes_value, parser.registered = {}, set(), set()
    nodes = [((), {}, parser)]
    while nodes:
        words, names, node = nodes.pop()
        if node._subparsers is None:
            parser.leaves[words] = node, names
        for action in node._actions:
            parser.registered.update(action.option_strings)
            if action.option_strings and action.nargs is None:
                parser.takes_value.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                nodes.extend(((*words, name), {**names, action.dest: name}, sub) for name, sub in action.choices.items())


def _join_dash_values(parser: argparse.ArgumentParser, argv: list) -> list:
    """argv with each ``--opt VALUE`` written ``--opt=VALUE`` where VALUE starts with '-' and is no
    option string: argparse reads such a VALUE (``--alpha -t``) as an option, not as the value."""
    out = []
    for arg in argv:
        if out and out[-1] in parser.takes_value and arg.startswith("-") and arg not in parser.registered:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _parse_args(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    """``parser.parse_args(argv)``, by the leaf parser when argv starts with its subcommand words: the
    root and middle parsers would hand that leaf the rest of argv unchanged, and report its leftovers."""
    leaf, names = parser.leaves.get(tuple(argv[:1])) or parser.leaves.get(tuple(argv[:2]), (None, None))
    if leaf is None:
        return parser.parse_args(argv)
    args, extras = leaf.parse_known_args(argv[len(names):], argparse.Namespace(**names))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(parser, _join_dash_values(parser, argv))
    try:
        return args.func(args)
    # ParseError and ReducibleRadicandError are ValueErrors
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # SelfCheckError, the exception of every self-check, is an AssertionError
    except AssertionError as exc:
        print(f"internal self-check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
