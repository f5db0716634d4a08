"""CLI behaviour: exit codes, JSON reports, schema validation, replay corpus."""

import argparse
import gc
import io
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator, ValidationError
from referencing import Registry, Resource

from diffsym import SymbolAlgebra, inner_derivation, split_standard, standard_derivation
from diffsym.cli import main
from diffsym.errors import SelfCheckError
from diffsym.matdiff import DiffMatrix
from diffsym.parser import MAX_POWER_BITS, parse_scalar, parse_symbol, scalar_to_str
from diffsym.scalars import CycloField, KummerField, RatFuncField
from diffsym.split import PhiMap, compute_P
from oracles import paper_standard_gauge

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "diffsym" / "schemas"


@pytest.fixture(scope="module")
def registry():
    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        contents = json.loads(path.read_text())
        resources.append((contents["$id"], Resource.from_contents(contents)))
    return Registry().with_resources(resources)


def validate(instance, schema_name, registry):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    Draft202012Validator(schema, registry=registry).validate(instance)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_algebra_check_passes(capsys):
    code, _ = run(capsys, "algebra", "check", "--m", "3", "--alpha", "t", "--beta", "t+1")
    assert code == 0


def test_validate_exit_codes(capsys, registry):
    code, report = run_json(
        capsys, "deriv", "validate", "--m", "2", "--alpha", "t", "--beta", "t+1",
        "--du", "(1/(2*t))*u", "--dv", "(1/(2*(t+1)))*v",
    )
    assert code == 0 and report["ok"]
    validate(report, "derivation_verdict.json", registry)
    code, report = run_json(
        capsys, "deriv", "validate", "--m", "2", "--alpha", "t", "--beta", "t+1",
        "--du", "u*v", "--dv", "v",
    )
    assert code == 1 and not report["ok"]
    validate(report, "derivation_verdict.json", registry)


def test_decompose_roundtrip_via_cli(capsys, registry):
    code, report = run_json(
        capsys, "deriv", "decompose", "--m", "2", "--alpha", "t", "--beta", "t+1",
        "--du", "(1/(2*t))*u + 2*t*v", "--dv", "(1/(2*(t+1)))*v - 2*(t+1)*u",
    )
    assert code == 0
    validate(report["theta"], "grid_element.json", registry)


def test_usage_errors_exit_2(capsys, monkeypatch):
    assert main(["deriv", "validate", "--m", "2", "--alpha", "t", "--beta", "t+1",
                 "--du", "u +", "--dv", "v"]) == 2
    assert main(["split", "standard", "--m", "2", "--alpha", "t^2", "--beta", "t+1"]) == 2
    assert main(["algebra", "check", "--m", "2", "--alpha", "0", "--beta", "t"]) == 2
    capsys.readouterr()
    assert main(["matdiff", "constants", "--m", "1", "--f", "1/t"]) == 2
    assert capsys.readouterr().err == "error: need size at least 2\n"
    # an --m past its bound is refused before any field or algebra is built
    import diffsym.cli

    def no_field(*args):
        raise AssertionError("a field or an algebra was built")

    monkeypatch.setattr(diffsym.cli, "RatFuncField", no_field)
    monkeypatch.setattr(diffsym.cli, "SymbolAlgebra", no_field)
    for argv, bound in (
        (["algebra", "check", "--m", "150", "--alpha", "t", "--beta", "t+1"], 16),
        (["power-detect", "--m", "20000", "--f", "t"], 16),
        (["ode", "solve", "--m", "17", "--mu", "1", "--g", "t"], 16),
        (["matdiff", "constants", "--m", "17", "--f", "1/t"], 16),
        (["split", "generic", "--m", "17", "--alpha", "t", "--beta", "t+1"], 16),
    ):
        capsys.readouterr()
        assert main(argv) == 2
        assert f"must not exceed {bound}" in capsys.readouterr().err
    assert diffsym.cli.MAX_M == 16
    assert not hasattr(diffsym.cli, "MAX_GENERIC_M")


def test_python_dash_m_runs_the_cli(capsys):
    """``python -m diffsym`` prints what ``cli.main`` prints in process, with its exit code."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "diffsym", *argv], env=env, capture_output=True, text=True)

    argv = ["split", "standard", "--m", "2", "--alpha", "t", "--beta", "t+1", "--json"]
    done = python_m(*argv)
    assert done.returncode == 0 and done.stderr == ""
    assert (main(argv), capsys.readouterr().out) == (0, done.stdout)
    refused = python_m("split", "standard", "--m", "99", "--alpha", "t", "--beta", "t+1")
    assert refused.returncode == 2 and "must not exceed 16" in refused.stderr and refused.stdout == ""


@pytest.mark.parametrize("argv", [
    ["algebra", "check", "--m", "1", "--alpha", "t", "--beta", "t+1"],
    ["deriv", "constants", "--m", "1", "--alpha", "t", "--beta", "t+1", "--standard"],
])
def test_a_symbol_algebra_of_degree_one_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: a symbol algebra needs degree m >= 2, got m = 1\n" and captured.out == ""
    # subcommands that build no algebra still take m = 1
    assert main(["ode", "solve", "--m", "1", "--mu", "1", "--g", "t"]) == 0
    assert main(["power-detect", "--m", "1", "--f", "t"]) == 0


def test_split_generic_runs_past_the_old_m7_bound(capsys, registry):
    code, report = run_json(
        capsys, "split", "generic", "--m", "8", "--alpha", "t", "--beta", "t+1", "--theta=u + t*v + w*u^2*v^3",
    )
    assert code == 0
    validate(report, "split_report.json", registry)
    assert report["verdicts"]["gauge"] == {
        "ok": True,
        "det_nonzero": True,
        "det_method": "specialisation",
        "det_point": 0,
        "failing_entry": None,
        "lhs": None,
        "rhs": None,
    }
    assert report["verdicts"]["isomorphism"]["ok"] and report["transcendence_degree"] == 64


def test_split_text_reports_how_det_f_was_decided(capsys):
    assert main(["split", "standard", "--m", "3", "--alpha", "t", "--beta", "t+1"]) == 0
    assert "det F: nonzero by diagonal\n" in capsys.readouterr().out
    assert main(["split", "generic", "--m", "2", "--alpha", "t", "--beta", "t+1"]) == 0
    assert "det F: nonzero by specialisation at point 0\n" in capsys.readouterr().out


def test_split_standard_text_prints_the_scalar_shift(capsys):
    code, out = run(capsys, "split", "standard", "--m", "3", "--alpha", "t", "--beta", "t+1")
    assert code == 0
    assert "scalar shift lambda = (1/3)/(t + 1): verdicts taken against P + lambda I\n" in out
    assert "F = [eta^2, 0, 0; 0, eta, 0; 0, 0, 1]\n" in out
    code, out = run(capsys, "split", "generic", "--m", "2", "--alpha", "t", "--beta", "t+1")
    assert code == 0 and "scalar shift" not in out


def test_split_standard_json(capsys, registry):
    code, report = run_json(capsys, "split", "standard", "--m", "3", "--alpha", "t", "--beta", "t+1")
    assert code == 0
    validate(report, "split_report.json", registry)
    assert report["verdicts"]["gauge"]["ok"]
    assert report["degree"] == 9
    # lambda = t_0 delta(beta)/(m beta) = 1 * 1/(3 (t + 1)), a string the schema requires
    assert report["scalar_shift"] == "(1/3)/(t + 1)"
    with pytest.raises(ValidationError):
        validate({**report, "scalar_shift": 1}, "split_report.json", registry)


def test_split_inner_json(capsys, registry):
    code, report = run_json(
        capsys, "split", "inner", "--m", "2", "--alpha", "t", "--beta", "t+1",
        "--rho", "u",
    )
    assert code == 0
    validate(report, "split_report.json", registry)
    assert report["transcendence_degree"] == 1


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_split_inner_takes_no_half_option(capsys, extra):
    """The halved tower is read off rho, so --half is an unknown argument."""
    argv = ["split", "inner", "--m", "4", "--alpha", "t", "--beta", "t+1", "--rho", "u", "--half", *extra]
    code, out, err = _call(capsys, argv)
    assert code == 2 and out == "" and "error: unrecognized arguments: --half" in err


def test_split_generic_json(capsys, registry):
    code, report = run_json(capsys, "split", "generic", "--m", "2", "--alpha", "t", "--beta", "t+1")
    assert code == 0
    validate(report, "split_report.json", registry)
    assert report["transcendence_degree"] == 4


def test_split_maximal_refutes(capsys, registry):
    code, report = run_json(
        capsys, "split", "maximal", "--m", "3", "--alpha", "t", "--beta", "t+1",
        "--nu", "t*(t+1)",
    )
    assert code == 1
    validate(report, "max_subfield_report.json", registry)
    assert report["refuted"]


def test_ode_solve_json(capsys, registry):
    code, report = run_json(capsys, "ode", "solve", "--mu", "0", "--g", "t")
    assert code == 0
    validate(report, "ode_solution.json", registry)
    code, report = run_json(capsys, "ode", "solve", "--mu", "1", "--g", "1/t")
    assert code == 1 and report["particular"] is None
    validate(report, "ode_solution.json", registry)


def test_power_detect_exit_codes(capsys):
    assert main(["power-detect", "--m", "3", "--f", "t^2*(t+1)^3"]) == 1
    assert main(["power-detect", "--m", "3", "--f", "8*t^3/(t+1)^3"]) == 0


@pytest.mark.parametrize("signed, plain", [
    (["power-detect", "--m", "2", "--f", "t*-3"], ["power-detect", "--m", "2", "--f=-3*t"]),
    (["power-detect", "--m", "2", "--f", "t/-2"], ["power-detect", "--m", "2", "--f=-t/2"]),
    (["power-detect", "--m", "2", "--f", "(t^2-1)*-4"], ["power-detect", "--m", "2", "--f", "4-4*t^2"]),
    (["split", "inner", "--m", "2", "--alpha", "t", "--beta", "t+1", "--rho", "u*-3"],
     ["split", "inner", "--m", "2", "--alpha", "t", "--beta", "t+1", "--rho=-3*u"]),
])
def test_a_signed_factor_reads_as_its_negation(capsys, signed, plain):
    first = main(signed), capsys.readouterr()
    assert first == (main(plain), capsys.readouterr())
    assert first[0] in (0, 1) and first[1].err == ""


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_an_option_value_may_start_with_a_dash(capsys, extra):
    """--alpha -t and --beta "-3*t + 12" are read as values, and report what the = form reports; an
    option string after an option that takes a value is still an option, and a usage error."""
    spaced = ["split", "standard", "--m", "2", "--alpha", "-t", "--beta", "-3*t + 12", *extra]
    joined = ["split", "standard", "--m=2", "--alpha=-t", "--beta=-3*t + 12", *extra]
    got = _call(capsys, spaced)
    assert got == _call(capsys, joined) and got[0] == 0 and got[1] and got[2] == ""
    code, out, err = _call(capsys, ["split", "standard", "--m", "2", "--alpha", "--beta", "t+1", *extra])
    assert code == 2 and out == "" and "argument --alpha: expected one argument" in err


@pytest.mark.parametrize("argv, err", [
    # v^2 generates a degree-2 subfield, but the u-polynomial test comes first
    (["--m", "4", "--alpha", "t", "--beta", "t+1", "--rho", "v^2"],
     "error: rho must be written as a polynomial in u; "
     "rewrite it over a Kummer generator first (see find_twist_partner)\n"),
    # a scalar generates no degree-m subfield, but the radicand's certificate comes first
    (["--m", "2", "--alpha", "t^2", "--beta", "t+1", "--rho", "3"],
     "error: radicand is a 2-th power in the base field (z^2 - a reducible)\n"),
    (["--m", "4", "--alpha", "t", "--beta", "t+1", "--rho", "u^2 + 1"],
     "error: rho does not generate a degree-m subfield\n"),
])
def test_split_inner_refusals(capsys, argv, err):
    assert main(["split", "inner", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == err and captured.out == ""


def test_huge_exponent_is_a_usage_error(capsys):
    assert main(["power-detect", "--m", "3", "--f", "t^1000000000000"]) == 2
    assert "exponent 1000000000000 too large" in capsys.readouterr().err



@pytest.mark.parametrize(
    "argv",
    [
        ["power-detect", "--m", "2", "--f", "(" * 3000 + "t" + ")" * 3000],
        ["algebra", "check", "--m", "2", "--alpha", "t", "--beta", "(" * 2000 + "t + 1" + ")" * 2000],
    ],
    ids=["power-detect-3000", "algebra-check-2000"],
)
def test_deep_nesting_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: parentheses nested deeper than 100 at position 100\n"

def test_replay_all_cases(capsys, registry):
    code, report = run_json(capsys, "replay")
    assert code == 0
    validate(report, "replay_report.json", registry)
    assert report["ok"] and len(report["cases"]) >= 8


def test_replay_single_and_unknown(capsys):
    assert main(["replay", "--case", "tr-identity-m4"]) == 0
    capsys.readouterr()
    assert main(["replay", "--case", "nope"]) == 2
    assert capsys.readouterr() == ("", "error: unknown case 'nope'\n")


def test_replay_checks_the_reports_that_the_cli_prints(capsys, monkeypatch):
    """Each row's exit code and report, as replay reads them, are those of the one-shot --json call."""
    from diffsym import cli

    seen = []
    run_row = cli._run
    monkeypatch.setattr(cli, "_run", lambda argv: seen.append((argv, run_row(argv))) or seen[-1][1])
    assert main(["replay"]) == 0
    capsys.readouterr()
    assert [argv for argv, _ in seen] == [argv for argv, _, _ in cli._REPLAY.values()]
    for argv, (code, report) in seen:
        assert run_json(capsys, *argv) == (code, report), argv


def test_a_replay_row_with_a_wrong_value_fails_and_names_the_key(capsys, monkeypatch):
    from diffsym import cli

    argv, code, _ = cli._REPLAY["split-standard-m2"]
    monkeypatch.setitem(cli._REPLAY, "split-standard-m2", (argv, code, {"degree": 9}))
    assert run_json(capsys, "replay", "--case", "split-standard-m2") == (1, {"ok": False, "cases": [{
        "case": "split-standard-m2", "ok": False,
        "detail": "split standard --m 2 --alpha t --beta t+1: exit 0, degree 8 (expected 9)",
    }]})


def test_a_full_replay_checks_the_t_r_sums_at_m_2_3_4_5_and_7(capsys, monkeypatch):
    import diffsym.split as split_module

    checked = split_module._checked_t_r
    checked.cache_clear()
    reached = set()
    monkeypatch.setattr(split_module, "_checked_t_r", lambda m: reached.add(m) or checked(m))
    assert main(["replay"]) == 0
    assert reached >= {2, 3, 4, 5, 7}


def test_split_standard_with_a_huge_radicand_constant(capsys):
    # 10^401 is above the float range; the certificate decides it exactly
    code, report = run_json(capsys, "split", "standard", "--m", "2", "--alpha", "10^401*t^2", "--beta", "t+1")
    assert code == 0
    assert report["verdicts"]["gauge"]["ok"] and report["degree"] == 8


def test_split_standard_certifies_a_tower_whose_ramification_reads_even(capsys, registry):
    # zeta^4 = t over k(xi), xi^2 = t(t-1)(t-2): 2 divides every ramification index times v(t), yet the
    # valuation rows (2, 2, 2) and (1, 0, 0) generate a subgroup of order 8 = 2 * 4 in (Z/4)^3
    code, report = run_json(capsys, "split", "standard", "--m", "2", "--alpha", "t*(t-1)*(t-2)", "--beta", "t")
    assert code == 0
    validate(report, "split_report.json", registry)
    assert report["verdicts"]["gauge"]["ok"] and report["verdicts"]["isomorphism"]["ok"]
    assert report["degree"] == 8


@pytest.mark.parametrize("m, alpha, beta", [("2", "t", "t^2"), ("3", "t", "8*(t+1)^3"), ("4", "t", "(t+1)^2")])
def test_split_standard_cannot_certify_a_power_radicand_over_the_tower(capsys, m, alpha, beta):
    assert main(["split", "standard", "--m", m, "--alpha", alpha, "--beta", beta]) == 2
    assert "cannot certify z^" in (err := capsys.readouterr().err)
    assert " - a irreducible over the Kummer tower" in err


def test_split_generic_reports_the_isomorphism_verdict(capsys, registry):
    for extra in ([], ["--theta=u*v"]):
        code, report = run_json(capsys, "split", "generic", "--m", "2", "--alpha", "t", "--beta", "t+1", *extra)
        assert code == 0
        validate(report, "split_report.json", registry)
        assert report["verdicts"]["isomorphism"] == {"ok": True, "failing_basis": None}


def test_failed_self_check_exits_3(capsys, monkeypatch):
    import diffsym.cli

    def broken(algebra):
        raise AssertionError("gauge matrix lost its determinant")

    monkeypatch.setattr(diffsym.cli, "split_standard", broken)
    assert main(["split", "standard", "--m", "3", "--alpha", "t", "--beta", "t+1"]) == 3
    assert "internal self-check failed: gauge matrix lost its determinant" in capsys.readouterr().err


def test_a_failed_relation_of_phi_exits_3(capsys, monkeypatch):
    validate_relations = PhiMap._validate_relations

    def corrupted(phi):
        # B^m = 2^m beta I
        phi.b_mat = phi.b_mat.scale(2)
        validate_relations(phi)

    monkeypatch.setattr(PhiMap, "_validate_relations", corrupted)
    k = RatFuncField(CycloField(3), "t")
    with pytest.raises(SelfCheckError):
        split_standard(SymbolAlgebra(k, k.gen(), k.gen() + 1, 3))
    assert main(["split", "standard", "--m", "3", "--alpha", "t", "--beta", "t+1"]) == 3
    err = capsys.readouterr().err
    assert err == "internal self-check failed: B^m != beta I: the shift entries do not multiply to beta\n"


def test_replay_has_an_m7_standard_splitting(capsys):
    code, report = run_json(capsys, "replay", "--case", "split-standard-m7")
    assert code == 0
    assert report["cases"] == [{
        "case": "split-standard-m7", "ok": True, "detail": "split standard --m 7 --alpha t --beta t+1: exit 0, degree 49",
    }]


def test_replay_has_an_m8_generic_splitting(capsys):
    code, report = run_json(capsys, "replay", "--case", "split-generic-m8")
    assert code == 0
    assert report["cases"] == [
        {"case": "split-generic-m8", "ok": True,
         "detail": "split generic --m 8 --alpha t --beta t+1 --theta u+v: exit 0, transcendence_degree 64"}
    ]


def test_split_standard_prints_a_constant_numerator_once_parenthesised(capsys):
    code, out = run(capsys, "split", "standard", "--m", "3", "--alpha", "2*t", "--beta", "w*t+1", "--json")
    assert code == 0 and "(((" not in out
    # the reported F has no inverse; the paper's gauge diag(eta, 1, eta^-1) has
    # eta^-1 = (1/(wt + 1)) eta^2 at row 2, printed in the same report
    k = RatFuncField(CycloField(3), "t")
    rep = split_standard(SymbolAlgebra(k, parse_scalar("2*t", k), parse_scalar("w*t+1", k), 3))
    out = json.dumps(replace(rep, f=paper_standard_gauge(rep.f.field, 3)).to_json(), indent=2)
    assert '"((-w - 1)/(t + (-w - 1)))*eta^2"' in out and "(((" not in out


def test_the_help_text_is_written_for_users(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and "Exit codes:" in out
    assert "``" not in out and not re.search(r"(?<![\w-])_\w", out), out


def test_the_argument_parser_is_built_once(capsys):
    """One tree and one leaf table per process; clearing the cache leaves no old tree alive."""
    from diffsym.cli import _build_parser

    parser = _build_parser()
    leaves = parser.leaves
    assert sorted(" ".join(words) for words in leaves) == [
        "algebra check", "deriv constants", "deriv decompose", "deriv validate", "matdiff constants",
        "ode solve", "power-detect", "replay", "split generic", "split inner", "split maximal",
        "split standard", "split verify",
    ]
    for words, (leaf, names) in leaves.items():
        assert leaf.prog == " ".join(("diffsym",) + words)
        assert names == dict(zip(("command", "subcommand"), words))
    for _ in range(2):
        assert run(capsys, "power-detect", "--m", "2", "--f", "t^2")[0] == 0
    assert _build_parser() is parser and parser.leaves is leaves
    old = weakref.ref(parser)
    del parser, leaves
    _build_parser.cache_clear()
    gc.collect()
    assert old() is None and _build_parser() is _build_parser()


def _call(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("first, second, codes", [
    (["split", "generic", "--m", "2", "--alpha", "t", "--beta", "t+1", "--theta", "u*v"],
     ["split", "generic", "--m", "2", "--alpha", "t", "--beta", "t+1"], (0, 0)),
    (["algebra", "check", "--m", "3", "--alpha", "t", "--beta", "t+1", "--json"],
     ["algebra", "check", "--m", "3", "--alpha", "t", "--beta", "t+1"], (0, 0)),
    (["deriv", "validate", "--m", "2", "--alpha", "t"],
     ["deriv", "validate", "--m", "2", "--alpha", "t", "--beta", "t+1", "--du", "u", "--dv", "v"], (2, 1)),
    (["deriv", "validate", "--m", "3", "--alpha", "2*t", "--beta", "t^2+1", "--du", "u*v", "--dv", "v"],
     ["deriv", "decompose", "--m", "3", "--alpha", "2*t", "--beta", "t^2+1",
      "--du", "(1/(3*t))*u", "--dv", "(2*t/(3*(t^2+1)))*v + (1-w)*u*v", "--json"], (1, 0)),
    (["split", "inner", "--m", "3", "--alpha", "t", "--beta", "t+1", "--rho", "u"],
     ["split", "standard", "--m", "3", "--alpha", "t", "--beta", "t+1"], (0, 0)),
])
def test_successive_calls_print_what_fresh_calls_print(capsys, first, second, codes):
    from diffsym.cli import _build_parser, _symbol_algebra

    fresh = []
    for argv in (first, second):
        _build_parser.cache_clear()
        _symbol_algebra.cache_clear()
        fresh.append(_call(capsys, argv))
    assert tuple(code for code, _, _ in fresh) == codes
    parser = _build_parser()
    assert [_call(capsys, first), _call(capsys, second)] == fresh
    assert _build_parser() is parser


_AB = ["--m", "2", "--alpha", "t", "--beta", "t+1"]
_IMAGES_UV = ["--du", "(1/(2*t))*u", "--dv", "(1/(2*(t+1)))*v"]


@pytest.mark.parametrize("argv", [
    ["algebra", "check", *_AB],
    ["deriv", "validate", *_AB, *_IMAGES_UV],
    ["deriv", "decompose", *_AB, *_IMAGES_UV, "--json"],
    ["deriv", "constants", *_AB, "--standard"],
    ["deriv", "constants", *_AB, "--theta", "u"],
    ["matdiff", "constants", "--m", "2", "--f", "1/t"],
    ["ode", "solve", "--mu", "1", "--g", "1/t"],
    ["power-detect", "--m", "2", "--f", "4*t^2"],
    ["split", "standard", *_AB, "--json"],
    ["split", "inner", *_AB, "--rho", "u"],
    ["split", "generic", *_AB, "--theta", "u*v"],
    ["split", "verify", *_AB],
    ["split", "maximal", *_AB, "--nu", "t*(t+1)"],
    ["replay", "--case", "corner-pole"],
    [],
    ["-h"],
    ["deriv"],
    ["deriv", "-h"],
    ["deriv", "validate", "-h"],
    ["bogus"],
    ["deriv", "bogus"],
    ["deriv", "validate", *_AB, *_IMAGES_UV, "--bogus"],
    ["split", "standard", *_AB, "extra"],
    ["power-detect", "extra", "--m", "2", "--f", "t"],
    ["split", "standard", "--m", "x", "--alpha", "t", "--beta", "t+1"],
    ["split", "standard", "--m", "2", "--alpha", "t"],
    ["--json", "split", "standard", *_AB],
    ["split", "standard", "--m", "2", "--al", "t", "--beta", "t+1"],
    ["split", "standard", "--m", "2", "--alpha", "-t", "--beta", "t+1"],
    ["split", "standard", "--", *_AB],
    ["split", "standard", *_AB, "--"],
    ["split", "standard", *_AB, "--", "x"],
    ["replay", "x"],
    ["split", "standard", *_AB, "--standard"],
])
def test_a_leaf_parses_a_call_as_the_whole_tree_does(capsys, monkeypatch, argv):
    """Exit code, stdout and stderr of a call parsed by its leaf are those of the root parser's
    parse_args: leftovers are reported by the root, under its usage."""
    from diffsym import cli

    routed = _call(capsys, argv)
    monkeypatch.setattr(cli, "_parse_args", lambda parser, argv: parser.parse_args(argv))
    assert _call(capsys, argv) == routed


def test_a_call_that_names_a_leaf_runs_that_parser_alone(capsys, monkeypatch):
    from diffsym.cli import _build_parser

    parsers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsers.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    root = _build_parser()
    for argv, words in (
        (["deriv", "validate", *_AB, *_IMAGES_UV], ("deriv", "validate")),
        (["power-detect", "--m", "2", "--f", "4*t^2"], ("power-detect",)),
    ):
        parsers.clear()
        assert _call(capsys, argv)[0] == 0
        assert len(parsers) == 1 and parsers[0] is root.leaves[words][0]
    for argv in ([], ["deriv"], ["deriv", "-h"], ["--json", "power-detect", "--m", "2", "--f", "t"]):
        parsers.clear()
        _call(capsys, argv)
        assert parsers[0] is root


class _CountedWrites(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv", [
    ["split", "standard", "--m", "3", "--alpha", "t", "--beta", "t+1"],
    ["deriv", "decompose", *_AB, *_IMAGES_UV],
])
def test_a_json_report_is_one_write(monkeypatch, argv):
    out = _CountedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv + ["--json"]) == 0
    assert out.writes == 1 and out.getvalue().endswith("}\n") and json.loads(out.getvalue())


def test_negative_scalar_powers_in_derivation_images(capsys):
    code, report = run_json(
        capsys, "deriv", "validate", "--m", "2", "--alpha", "t", "--beta", "t+1",
        "--du", "(t^-1/2)*u", "--dv", "((t+1)^-1/2)*v",
    )
    assert code == 0 and report["ok"]


def test_a_zero_divisor_power_is_an_input_error(capsys):
    code = main(["deriv", "validate", "--m", "2", "--alpha", "1", "--beta", "t", "--du", "(1 + u)^-1", "--dv", "v"])
    assert code == 2
    assert "error: element is a zero divisor" in capsys.readouterr().err


def test_generator_powers_past_the_degree_bound_are_usage_errors(capsys):
    # u^400 is alpha^200 = t^4000 over alpha = t^20 at m = 2
    for alpha, beta, du, dv in (("t^20", "t+1", "u^400", "v"), ("t+1", "t^20", "u", "v^400")):
        code = main(["deriv", "validate", "--m", "2", "--alpha", alpha, "--beta", beta, "--du", du, "--dv", dv])
        assert code == 2
        assert "exponent 400 too large" in capsys.readouterr().err


def test_deriv_constants_standard(capsys):
    args = ("deriv", "constants", "--m", "3", "--standard")
    code, report = run_json(capsys, *args, "--alpha", "t", "--beta", "t+1")
    assert code == 0 and report == {"ok": True, "witnesses": []}
    code, out = run(capsys, *args, "--alpha", "t", "--beta", "t+1")
    assert code == 0 and out == "no monomial constants beyond the base field\n"
    code, report = run_json(capsys, *args, "--alpha", "2*t", "--beta", "t")
    assert code == 0
    (witness,) = [w for w in report["witnesses"] if (w["i"], w["j"]) == (1, 2)]
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    c, h = parse_scalar(witness["c"], k), parse_scalar(witness["h"], k)
    assert c * h**3 == (t * 2) ** -1 * t**-2


def test_deriv_constants_of_an_inner_derivation(capsys, registry):
    code, report = run_json(capsys, "deriv", "constants", "--m", "2", "--alpha", "t", "--beta", "t+1", "--theta", "u")
    assert code == 0 and report["dimension"] == 2 == len(report["basis"])
    for element in report["basis"]:
        validate(element, "grid_element.json", registry)


def test_matdiff_constants(capsys):
    for m, dimension in ((3, 2), (2, 1)):
        code, report = run_json(capsys, "matdiff", "constants", "--m", str(m), "--f", "1/t")
        assert code == 0 and report["dimension"] == dimension == len(report["basis"])
    assert main(["matdiff", "constants", "--m", "3", "--f", "1/t", "--lambdas", "0,0,1"]) == 2


@pytest.mark.parametrize("lambdas, count", [("0,1", 2), ("0,1,2,3", 4), ("", 1)])
def test_matdiff_constants_takes_m_lambdas(capsys, lambdas, count):
    assert main(["matdiff", "constants", "--m", "3", "--f", "t", "--lambdas", lambdas]) == 2
    assert capsys.readouterr().err == f"error: --lambdas needs --m = 3 comma-separated values, got {count}\n"
    code, out = run(capsys, "matdiff", "constants", "--m", "2", "--f", "t", "--lambdas", "0,1")
    assert code == 0 and out == "constants dimension 2\n  [1, -t + 1; 0, 0]\n  [0, t - 1; 0, 1]\n"


def test_split_verify_reports_the_P_it_checked(capsys):
    code, report = run_json(capsys, "split", "verify", "--m", "3", "--alpha", "t", "--beta", "t+1", "--theta", "u*v")
    assert code == 0 and report["ok"] and report["isomorphism"]["ok"]
    k = RatFuncField(CycloField(3), "t")
    t = k.gen()
    alg = SymbolAlgebra(k, t, t + k.one(), 3)
    phi = PhiMap(alg, KummerField(k, t, 3, "xi"))
    p = compute_P(standard_derivation(alg) + inner_derivation(parse_symbol("u*v", alg)), phi)
    e = phi.ext_field
    rows = [[e.zero()] * 3 for _ in range(3)]
    for r, s, entry in report["P"]["entries"]:
        rows[r][s] = parse_scalar(entry, e)
    assert report["P"]["m"] == 3 and DiffMatrix(e, rows) == p


def test_constants_witness_prints_a_bare_reciprocal(capsys):
    code, report = run_json(capsys, "deriv", "constants", "--m", "3", "--alpha", "2*t", "--beta", "t", "--standard")
    assert code == 0
    assert [wit["h"] for wit in report["witnesses"]] == ["1/t", "1/t"]


_SCALAR = ["power-detect", "--m", "3", "--f"]
_IMAGES = ["deriv", "validate", "--m", "2", "--alpha", "t", "--beta", "t+1", "--dv", "v", "--du"]
_BOUND = "too large: |e| and t-degree * |e| must not exceed 1000 at position"


@pytest.mark.parametrize("argv, err", [
    (_SCALAR + ["1/0"], "error: inverse of zero\n"),
    (_SCALAR + ["t/(t-t)"], "error: inverse of zero\n"),
    (_SCALAR + ["(w-w)^-1"], "error: inverse of zero\n"),
    (["deriv", "validate", "--m", "2", "--alpha", "1", "--beta", "t", "--du", "(1+u)^-1", "--dv", "v"],
     "error: element is a zero divisor\n"),
    (_IMAGES + ["u/(t-t)"], "error: inverse of zero\n"),
    (_IMAGES + ["x + 1"], "error: undefined symbol 'x' for this context at position 0\n"),
    (_SCALAR + ["(t^40)^40"], f"error: exponent 40 {_BOUND} 7\n"),
    (_SCALAR + ["2^-1001"], f"error: exponent 1001 {_BOUND} 3\n"),
    (_IMAGES + ["u/(u-u)"], "error: inverse of zero\n"),
    (_IMAGES + ["(u-u)^-1"], "error: inverse of zero\n"),
    (["power-detect", "--m", "2", "--f", "((2^1000)^1000)^100"],
     "error: exponent 1000 too large: coefficient bits * |e| must not exceed 10000 at position 10\n"),
    (["power-detect", "--m", "2", "--f", "t*--3"], "error: unexpected token '-' at position 3 (expected atom)\n"),
    (["power-detect", "--m", "2", "--f", "(2^1000)^9*(2^1000)^9*t^2"],
     "error: result of '*' too large: coefficient bits must not exceed 10000 at position 10\n"),
    (["power-detect", "--m", "2", "--f", "*".join(["(2^1000)^9"] * 200) + "*t^2"],
     "error: result of '*' too large: coefficient bits must not exceed 10000 at position 10\n"),
])
def test_input_errors_on_every_rung_of_the_parser(capsys, argv, err):
    # division by zero reads the same whether the divisor is in Q(w), Q(w)[t] or Q(w)(t)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == err and captured.out == ""


def test_one_field_per_m_and_derivation_per_process():
    from diffsym import cli

    assert cli._field(5) is cli._field(5) is cli._field(5, False)
    assert cli._field(5, True) is cli._field(5, zero=True)
    assert cli._field(5, True) is not cli._field(5) and cli._field(5, True).is_zero_derivation
    with pytest.raises(ValueError, match="must not exceed 16"):
        cli._field(17)


def _algebra_of(m, alpha, beta="t+1", zero=False):
    from diffsym import cli

    return cli._algebra(argparse.Namespace(m=m, alpha=alpha, beta=beta), zero)[0]


def test_one_algebra_per_field_and_radicands_as_written_per_process():
    alg = _algebra_of(3, "t")
    assert _algebra_of(3, "t") is alg
    for other in (_algebra_of(3, "t", zero=True), _algebra_of(2, "t"), _algebra_of(3, "2*t")):
        assert other is not alg
    # the rates and gaps a first query computed are read by the next one
    rates, gaps = alg.standard_rates, alg.inverse_gaps
    assert _algebra_of(3, "t").standard_rates is rates and _algebra_of(3, "t").inverse_gaps is gaps


def test_a_refused_radicand_is_refused_on_every_call(capsys):
    for _ in range(2):
        assert main(["algebra", "check", "--m", "2", "--alpha", "0", "--beta", "t"]) == 2
        assert capsys.readouterr().err == "error: alpha and beta must be nonzero\n"


def test_an_evicted_algebra_is_freed_by_reference_counting():
    from diffsym import cli

    assert cli._symbol_algebra.cache_info().maxsize == cli.MAX_ALGEBRAS
    cli._symbol_algebra.cache_clear()
    gc.disable()
    try:
        first = weakref.ref(_algebra_of(2, "t"))
        for i in range(1, cli.MAX_ALGEBRAS):
            _algebra_of(2, f"t+{i}")
        assert first() is not None
        _algebra_of(2, f"t+{cli.MAX_ALGEBRAS}")
        assert first() is None
    finally:
        gc.enable()


def test_each_image_is_parsed_once_per_algebra(capsys, monkeypatch):
    """validate and decompose on the same images, and a validate that changes one of them, parse
    each distinct image once, and print what calls with the caches cleared print."""
    from diffsym import cli

    calls = [
        ["deriv", "validate", *_AB, *_IMAGES_UV],
        ["deriv", "decompose", *_AB, *_IMAGES_UV, "--json"],
        ["deriv", "validate", *_AB, "--du", "u", _IMAGES_UV[2], _IMAGES_UV[3], "--json"],
    ]
    fresh = []
    for argv in calls:
        cli._symbol_algebra.cache_clear()
        fresh.append(_call(capsys, argv))
    assert [code for code, _, _ in fresh] == [0, 0, 1]
    sources = []

    def counted(src, algebra):
        sources.append(src)
        return parse_symbol(src, algebra)

    monkeypatch.setattr(cli, "parse_symbol", counted)
    cli._symbol_algebra.cache_clear()
    assert [_call(capsys, argv) for argv in calls + calls] == fresh + fresh
    assert sorted(sources) == sorted([_IMAGES_UV[1], _IMAGES_UV[3], "u"])


def test_images_are_elements_of_the_algebra_the_command_uses(capsys, monkeypatch):
    from diffsym import cli, deriv

    seen = []

    def recorded(check):
        def call(alg, du, dv):
            seen.append((alg, du, dv))
            return check(alg, du, dv)
        return call

    monkeypatch.setattr(cli, "validate", recorded(deriv.validate))
    monkeypatch.setattr(cli, "Derivation", recorded(deriv.Derivation))
    for _ in range(2):
        assert _call(capsys, ["deriv", "validate", *_AB, *_IMAGES_UV])[0] == 0
        assert _call(capsys, ["deriv", "decompose", *_AB, *_IMAGES_UV])[0] == 0
        # MAX_ALGEBRAS other algebras evict (t, t+1) with its images
        for i in range(1, cli.MAX_ALGEBRAS + 1):
            _algebra_of(2, f"t+{i}")
    assert len(seen) == 4 and seen[0][0] is seen[1][0] and seen[2][0] is seen[3][0]
    assert seen[0][0] is not seen[2][0] and seen[0][0] == seen[2][0]
    for alg, du, dv in seen:
        assert du.algebra is alg and dv.algebra is alg
    # the zero derivation's algebra on the same radicands parses into itself
    zero_alg, symbol = cli._algebra(argparse.Namespace(m=2, alpha="t", beta="t+1"), True)
    assert zero_alg is not _algebra_of(2, "t") and symbol("u").algebra is zero_alg


def test_an_unparsable_image_is_refused_on_every_call(capsys):
    for _ in range(2):
        assert main(["deriv", "validate", *_AB, "--du", "u*", "--dv", "v"]) == 2
        assert capsys.readouterr().err == "error: unexpected token '' at position 2 (expected atom)\n"


def test_an_evicted_algebra_is_freed_with_its_images_by_reference_counting(capsys):
    from diffsym import cli

    cli._symbol_algebra.cache_clear()
    gc.disable()
    try:
        assert main(["deriv", "validate", *_AB, *_IMAGES_UV]) == 0
        alg, symbol = cli._algebra(argparse.Namespace(m=2, alpha="t", beta="t+1"))
        assert symbol.cache_info().currsize == 2 and symbol.cache_info().maxsize == cli.MAX_IMAGES
        first, image = weakref.ref(alg), weakref.ref(symbol(_IMAGES_UV[1]))
        del alg, symbol
        for i in range(1, cli.MAX_ALGEBRAS):
            _algebra_of(2, f"t+{i}")
        assert first() is not None and image() is not None
        _algebra_of(2, f"t+{cli.MAX_ALGEBRAS}")
        assert first() is None and image() is None
    finally:
        gc.enable()


def test_a_json_report_builds_no_text_lines(capsys, monkeypatch):
    from diffsym import cli
    from diffsym.symalg import SymbolElem

    def refused(self):
        raise AssertionError("a text line was built")

    with monkeypatch.context() as patch:
        patch.setattr(SymbolElem, "__repr__", refused)
        code, report = run_json(capsys, "deriv", "decompose", *_AB, *_IMAGES_UV)
        assert code == 0 and report == {"ok": True, "theta": {"m": 2, "entries": []}}
    printed = []

    def counted(x):
        printed.append(x)
        return scalar_to_str(x)

    monkeypatch.setattr(cli, "scalar_to_str", counted)
    # c and h are printed once each, with --json and without
    for extra in (["--json"], []):
        printed.clear()
        assert main(["power-detect", "--m", "2", "--f", "4*t^2", *extra]) == 0
        assert len(printed) == 2
    capsys.readouterr()


def test_a_text_report_builds_no_json_report(capsys, monkeypatch):
    from diffsym import deriv, matdiff, split, symalg

    def refused(self):
        raise AssertionError("a --json report was built")

    for cls in (symalg.SymbolElem, matdiff.DiffMatrix, matdiff.GaugeVerdict, split.IsoVerdict, split.SplitReport,
                split.MaxSubfieldReport, deriv.DerivationVerdict, deriv.ConstantWitness):
        monkeypatch.setattr(cls, "to_json", refused)
    for argv in (
        ["deriv", "decompose", *_AB, *_IMAGES_UV],
        ["deriv", "validate", *_AB, *_IMAGES_UV],
        ["deriv", "constants", *_AB, "--theta", "u"],
        ["split", "standard", *_AB],
        ["split", "inner", *_AB, "--rho", "u"],
        ["split", "generic", *_AB, "--theta", "u+v"],
        ["split", "verify", *_AB, "--theta", "u"],
        ["split", "maximal", "--m", "3", "--alpha", "t", "--beta", "t^2*(t+1)^3", "--nu", "t"],
        ["matdiff", "constants", "--m", "2", "--f", "t"],
    ):
        assert main(argv) in (0, 1), argv
    capsys.readouterr()


def test_a_long_sum_of_reciprocals_is_refused_at_the_sum_past_the_degree_bound(capsys):
    """1/(t+1) + ... + 1/(t+1001) over Q(w_2)(t): the last '+' would give a denominator of degree 1001."""
    src = " + ".join(f"1/(t+{i})" for i in range(1, 1002))
    assert main(["power-detect", "--m=2", "--f=" + src]) == 2
    last = src.rindex(" + ") + 1
    assert capsys.readouterr().err == f"error: result of '+' too large: t-degree must not exceed 1000 at position {last}\n"


def test_a_product_is_sized_at_its_operator_on_every_rung(monkeypatch, capsys):
    """A chain of quotients over t, and of symbol products, exits 2 at its first oversized '*',
    before any integer past 18,001 bits is built."""
    from diffsym.parser import _Parser, _size, _SymbolParser

    big = "(2^1000)^9"
    bits = []
    for cls in (_Parser, _SymbolParser):
        binop = cls.__dict__["_binop"]

        def sized(self, *args, _binop=binop):
            value = _binop(self, *args)
            bits.append(_size(value)[1])
            return value

        monkeypatch.setattr(cls, "_binop", sized)
    refusal = f"error: result of '*' too large: coefficient bits must not exceed {MAX_POWER_BITS} at position 12\n"
    for argv in (
        ["power-detect", "--m=2", "--f=" + "*".join([f"{big}/t"] * 200)],
        ["deriv", "validate", "--m=2", "--alpha=t", "--beta=t+1", "--du=u*" + "*".join([big] * 200), "--dv=0"],
    ):
        bits.clear()
        assert main(argv) == 2
        assert capsys.readouterr().err == refusal
        # the refused product is the one value past the bound
        assert max(bits) <= 18_001 and sum(b > MAX_POWER_BITS for b in bits) == 1
