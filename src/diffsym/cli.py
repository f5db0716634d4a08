"""Command-line interface.

Exit codes: 0 for a passing check, 1 for a refuted or failed check, 2 for
usage and input errors, 3 when an internal self-check fails.  Every
subcommand accepts --json for a structured report on stdout.  An option
value may start with '-' (``--alpha -t``): ``main`` joins it to its option
(``--alpha=-t``) before parsing.

There is one dispatch path.  Each subcommand handler (``cmd_*``) returns its
exit code and two zero-argument callables, the --json report and the text
lines; ``main`` alone prints one of them (``_emit``), inside the ``try`` that
turns a ValueError into exit 2 and a failed self-check into exit 3, also when
it is raised while the report is built.  ``replay`` is a table of worked
examples (``_REPLAY``), each row a command line, its exit code and the report
values it must give, run through the same parser and handlers: the defining
relations and the t_r sums at m = 4 and 5 (``algebra check``); the monomial
constants of d_s for (t, t+1), none, and for (2t, t), at m = 3; the constants
of the corner pole f = 1/t at m = 2; ``split standard`` at m = 2, 3 and 7;
``split generic`` with theta = u + v at m = 8; ``split inner`` with rho = u at
m = 2 and 3; and the maximal-subfield refutation of nu = t(t+1) at m = 3.

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
import shlex
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


def _emit(args, report, text_lines) -> None:
    """The dict that report() builds as JSON under --json, else the lines that text_lines() builds."""
    if args.json:
        sys.stdout.write(json.dumps(report(), indent=2) + "\n")
    else:
        for line in text_lines():
            print(line)


# -- subcommand handlers ----------------------------------------------------


def cmd_algebra_check(args) -> tuple:
    alg = _algebra(args)[0]
    checks = {
        "u^m = alpha": alg.u() ** alg.m == alg.scalar(alg.alpha),
        "v^m = beta": alg.v() ** alg.m == alg.scalar(alg.beta),
        "vu = w uv": alg.v() * alg.u() == (alg.u() * alg.v()).scale(alg.field.coerce(alg.omega)),
        "t_r identity": len(t_r_values(alg.m)) == alg.m,
    }
    ok = all(checks.values())
    return (0 if ok else 1, lambda: {"ok": ok, "checks": {k: bool(v) for k, v in checks.items()}},
            lambda: [f"{'ok' if v else 'FAIL'}  {k}" for k, v in checks.items()])


def cmd_deriv_validate(args) -> tuple:
    alg, symbol = _algebra(args)
    verdict = validate(alg, symbol(args.du), symbol(args.dv))
    return (0 if verdict.ok else 1, verdict.to_json,
            lambda: ["valid derivation" if verdict.ok else f"not a derivation: {' '.join(verdict.failing)}"])


def cmd_deriv_decompose(args) -> tuple:
    alg, symbol = _algebra(args)
    theta = decompose(Derivation(alg, symbol(args.du), symbol(args.dv)))
    return 0, lambda: {"ok": True, "theta": theta.to_json()}, lambda: [f"theta = {theta!r}"]


def cmd_deriv_constants(args) -> tuple:
    if args.standard:
        witnesses = constants_standard(_algebra(args)[0])
        return (0, lambda: {"ok": True, "witnesses": [w.to_json() for w in witnesses]},
                lambda: [f"witness u^{w.i} v^{w.j} with h = {scalar_to_str(w.h)}" for w in witnesses]
                or ["no monomial constants beyond the base field"])
    symbol = _algebra(args, zero=True)[1]
    return _basis_result(constants_inner(symbol(args.theta)))


def _basis_result(basis) -> tuple:
    return (0, lambda: {"ok": True, "dimension": len(basis), "basis": [b.to_json() for b in basis]},
            lambda: [f"constants dimension {len(basis)}"] + [f"  {b!r}" for b in basis])


def cmd_matdiff_constants(args) -> tuple:
    field = _field(args.m)
    if args.lambdas is not None:
        entries = args.lambdas.split(",")
        if len(entries) != args.m:
            raise ValueError(f"--lambdas needs --m = {args.m} comma-separated values, got {len(entries)}")
        lambdas = [parse_scalar(s, field.cyclo) for s in entries]
    else:
        lambdas = [field.cyclo.from_rational(i) for i in range(args.m)]
    f = parse_scalar(args.f, field)
    return _basis_result(prop44_constants(prop44_matrix(field, lambdas, f)))


def cmd_ode_solve(args) -> tuple:
    field = _field(args.m)
    mu = parse_scalar(args.mu, field.cyclo)
    g = parse_scalar(args.g, field)
    sol = rational_ode_solve(mu, g)
    report = {
        "ok": sol.has_solution,
        "particular": scalar_to_str(sol.particular) if sol.has_solution else None,
        "homogeneous": [scalar_to_str(h) for h in sol.homogeneous],
    }
    return 0 if sol.has_solution else 1, lambda: report, lambda: (
        [f"x = {report['particular']}"] + [f"  + c * {h}" for h in report["homogeneous"]]
        if sol.has_solution
        else ["no rational solution"]
    )


def cmd_power_detect(args) -> tuple:
    field = _field(args.m)
    f = parse_scalar(args.f, field)
    res = mth_power_up_to_constant(f, args.m)
    if res is None:
        return 1, lambda: {"ok": False, "c": None, "h": None}, lambda: [f"not a {args.m}-th power up to constant"]
    c, h = res
    report = {"ok": True, "c": scalar_to_str(c), "h": scalar_to_str(h)}
    return 0, lambda: report, lambda: [f"f = ({report['c']}) * ({report['h']})^{args.m}"]


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


def _split_result(report) -> tuple:
    return 0 if report.passed else 1, report.to_json, lambda: _split_lines(report)


def cmd_split_standard(args) -> tuple:
    return _split_result(split_standard(_algebra(args)[0]))


def cmd_split_inner(args) -> tuple:
    alg, symbol = _algebra(args, zero=True)
    return _split_result(split_inner(alg, symbol(args.rho)))


def _transport(args) -> tuple:
    """P of d = d_s, or d_s + inner(--theta), through Phi, and the isomorphism verdict for that P."""
    alg, symbol = _algebra(args)
    d = standard_derivation(alg)
    if args.theta:
        d = d + inner_derivation(symbol(args.theta))
    phi = PhiMap(alg, xi_extension(alg))
    p = compute_P(d, phi)
    return p, verify_diff_isomorphism(phi, d, p)


def cmd_split_generic(args) -> tuple:
    p, iso = _transport(args)
    return _split_result(replace(split_generic(p), isomorphism=iso))


def cmd_split_verify(args) -> tuple:
    p, iso = _transport(args)
    return (0 if iso.ok else 1, lambda: {"ok": iso.ok, "P": p.to_json(), "isomorphism": iso.to_json()},
            lambda: [f"P = {p!r}", f"isomorphism: {'ok' if iso.ok else 'FAIL'}"])


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


def cmd_split_maximal(args) -> tuple:
    alg = _algebra(args)[0]
    report = maximal_subfield_necessary(alg, parse_scalar(args.nu, alg.field))
    return 1 if report.refuted else 0, report.to_json, lambda: _maximal_lines(report, alg.m)


# -- replay corpus ----------------------------------------------------------

# the replay algebra (t, t+1)
_AB = ["--alpha", "t", "--beta", "t+1"]

# name: (argv, exit code, report values); the split rows read the t_r sums at
# m = 2, 3 and 7 through P_s, and the algebra checks at m = 4 and 5
_REPLAY = {
    **{
        f"tr-identity-m{m}": (
            ["algebra", "check", "--m", str(m), *_AB], 0,
            {"checks": dict.fromkeys(("u^m = alpha", "v^m = beta", "vu = w uv", "t_r identity"), True)},
        )
        for m in (4, 5)
    },
    "constants-standard-none": (["deriv", "constants", "--m", "3", *_AB, "--standard"], 0, {"witnesses": []}),
    "constants-standard-witness": (
        ["deriv", "constants", "--m", "3", "--alpha", "2*t", "--beta", "t", "--standard"], 0,
        {"witnesses": [{"i": 1, "j": 2, "c": "1/2", "h": "1/t"}, {"i": 2, "j": 1, "c": "1/4", "h": "1/t"}]},
    ),
    "corner-pole": (["matdiff", "constants", "--m", "2", "--f", "1/t"], 0, {"dimension": 1}),
    **{
        f"split-standard-m{m}": (["split", "standard", "--m", str(m), *_AB], 0, {"degree": degree})
        for m, degree in ((2, 8), (3, 9), (7, 49))
    },
    "split-generic-m8": (["split", "generic", "--m", "8", *_AB, "--theta", "u+v"], 0, {"transcendence_degree": 64}),
    **{
        f"split-inner-m{m}": (["split", "inner", "--m", str(m), *_AB, "--rho", "u"], 0, {"transcendence_degree": trdeg})
        for m, trdeg in ((2, 1), (3, 2))
    },
    "maximal-subfield": (["split", "maximal", "--m", "3", *_AB, "--nu", "t*(t+1)"], 1, {"refuted": True}),
}


def _run(argv: list) -> tuple:
    """The exit code and the --json report of one call, by the parser and handler that main runs."""
    args = _parse_args(_build_parser(), argv)
    code, report, _ = args.func(args)
    return code, report()


def cmd_replay(args) -> tuple:
    if args.case and args.case not in _REPLAY:
        raise ValueError(f"unknown case {args.case!r}")
    results = []
    for name in [args.case] if args.case else _REPLAY:
        argv, code, expected = _REPLAY[name]
        exit_code, report = _run(argv)
        values = {"exit": (exit_code, code), **{key: (report.get(key), value) for key, value in expected.items()}}
        detail = ", ".join(
            f"{key} {json.dumps(got)}" + ("" if got == want else f" (expected {json.dumps(want)})")
            for key, (got, want) in values.items()
        )
        ok = all(got == want for got, want in values.values())
        results.append({"case": name, "ok": ok, "detail": f"{shlex.join(argv)}: {detail}"})
    all_ok = all(r["ok"] for r in results)
    return (0 if all_ok else 1, lambda: {"ok": all_ok, "cases": results},
            lambda: [f"{'ok' if r['ok'] else 'FAIL'}  {r['case']}: {r['detail']}" for r in results])


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
        code, report, text_lines = args.func(args)
        _emit(args, report, text_lines)
        return code
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
