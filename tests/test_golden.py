"""CLI reports pinned byte for byte.

Each file under ``data/cli_golden`` is the exact ``--json`` stdout of the
command listed for it below. The ``split-standard`` reports were written by
the release that took both verdicts against P_s + lambda I, with
F = diag(g^(n (m - 1 - r))) and the shift lambda as ``scalar_shift``;
``split-inner-m2`` and ``-m4`` (rho = u at even m, so F = diag(F0, F0^-1) of
transcendence degree m/2) by the release that read that choice off rho, and
kept by the rate lattice, which gives the same rows there; ``split-inner-m3``
and ``-m5`` (rho = u of transcendence degree phi(m) = 2 and 4, its exponent
rows off the inverse echelon transform) by the release that read every inner
split off that lattice; ``replay`` by the release that ran its worked examples
through the CLI's own parser and handlers, each detail the command line and
the report values checked; the
other splitting reports by the release before the explicit splitting
constructions were folded into one diagonal gauge; the ``deriv``, ``split verify`` and ``algebra check`` reports
by the release before symbol elements stored only their nonzero terms; and
``split-generic-theta-m11`` (121 indeterminates, padded names x0000..x1010)
by the release before differential monomials were keyed by their nonzero
exponents. ``split-generic-dense-m4``, ``-m5`` and ``split-verify-dense-m5``
(theta with a term u^i v^j in every column j > 0, so that every row but the
last of Phi(theta) takes beta) were written by the release before Phi
multiplied each term by beta once. The ``split maximal``, ``matdiff
constants``, ``ode solve`` and ``power-detect`` reports were written by the
release before the maximal-subfield test harnesses moved out of the package
and the linear solver stopped building a kernel, and ``ode-solve-mu0-m3`` (mu = 0,
where the particular is one choice among x + c) by the release
before the ODE solver dropped its linear system. A refactor of the splitting layer, of the
symbol algebra, of the monomial keys, of the solver or of the printer must
reproduce every byte, and exit 0. A golden whose command has a schema under
``src/diffsym/schemas`` also validates against it.
"""

import json
from pathlib import Path

import pytest

from diffsym.cli import main
from test_cli import registry, validate  # noqa: F401  (registry is a fixture)

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "cli_golden"
_AB = ("--alpha", "t", "--beta", "t+1")


def _dense_theta(m):
    """A theta with a term in every column j > 0 of u^i v^j at m = 4, 5; each term wraps in Phi on the rows r < j."""
    return f"u*v + (t+1)*u^2*v^2 + v^3 + (t-2)*u^3*v^{m - 1}"


CASES = {
    **{f"split-standard-m{m}": ("split", "standard", "--m", str(m), *_AB) for m in range(2, 10)},
    "split-standard-constant-beta-m3": ("split", "standard", "--m", "3", "--alpha", "t", "--beta", "3"),
    "split-standard-w-radicands-m4": ("split", "standard", "--m", "4", "--alpha", "w*t", "--beta", "t+w"),
    **{f"split-inner-m{m}": ("split", "inner", "--m", str(m), *_AB, "--rho", "u") for m in range(2, 6)},
    **{f"split-generic-theta-m{m}": ("split", "generic", "--m", str(m), *_AB, "--theta", "u+v") for m in (2, 3, 4, 11)},
    **{f"split-generic-dense-m{m}": ("split", "generic", "--m", str(m), *_AB, "--theta", _dense_theta(m)) for m in (4, 5)},
    "split-verify-dense-m5": ("split", "verify", "--m", "5", *_AB, "--theta", _dense_theta(5)),
    "replay": ("replay",),
    "deriv-decompose-m3": (
        "deriv", "decompose", "--m", "3", *_AB,
        "--du=((1/3)/t)*u+((-w+1)*t)*u*v", "--dv=((1/3)/(t+1))*v+(w-1)*u*v",
    ),
    # d_s + inner(u*v^2 + (t+w)*v)
    "deriv-decompose-m5": (
        "deriv", "decompose", "--m", "5", *_AB,
        "--du=((1/5)/t)*u + ((-w + 1)*t + (-w^2 + w))*u*v + (-w^2 + 1)*u^2*v^2",
        "--dv=((1/5)/(t + 1))*v + (w - 1)*u*v^3",
    ),
    "deriv-constants-inner-m3": ("deriv", "constants", "--m", "3", *_AB, "--theta", "u+v"),
    "deriv-constants-standard-m3": ("deriv", "constants", "--m", "3", "--alpha", "2*t", "--beta", "t", "--standard"),
    "split-verify-theta-m3": ("split", "verify", "--m", "3", *_AB, "--theta", "u*v"),
    "algebra-check-m4": ("algebra", "check", "--m", "4", *_AB),
    "split-maximal-m3": ("split", "maximal", "--m", "3", "--alpha", "t", "--beta", "t^2*(t+1)^3", "--nu", "t"),
    "matdiff-constants-m3": ("matdiff", "constants", "--m", "3", "--f", "t"),
    "ode-solve-m3": ("ode", "solve", "--m", "3", "--mu", "1", "--g", "t"),
    "ode-solve-mu0-m3": ("ode", "solve", "--m", "3", "--mu", "0", "--g", "t/(t^2+1)^2"),
    "power-detect-m3": ("power-detect", "--m", "3", "--f", "8*t^3/(t+1)^3"),
}


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_json_report_is_byte_identical(name, capsys):
    code = main([*CASES[name], "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / f"{name}.json").read_bytes()


# the schema of each command's --json report, and the key of the part it
# describes (None for the whole report); a golden of a command with no schema
# is listed by name in UNSCHEMATISED
SCHEMAS = {
    ("split", "standard"): ("split_report.json", None),
    ("split", "inner"): ("split_report.json", None),
    ("split", "generic"): ("split_report.json", None),
    ("split", "maximal"): ("max_subfield_report.json", None),
    ("replay",): ("replay_report.json", None),
    ("ode", "solve"): ("ode_solution.json", None),
    ("deriv", "decompose"): ("grid_element.json", "theta"),
}
UNSCHEMATISED = {
    "algebra-check-m4",
    "deriv-constants-inner-m3",
    "deriv-constants-standard-m3",
    "matdiff-constants-m3",
    "power-detect-m3",
    "split-verify-dense-m5",
    "split-verify-theta-m3",
}


def _command(argv) -> tuple:
    """The command and subcommand of an argv, without its options."""
    return tuple(a for a in argv[:2] if not a.startswith("-"))


def test_every_golden_has_a_schema_or_is_listed_without_one():
    assert {name for name, argv in CASES.items() if _command(argv) not in SCHEMAS} == UNSCHEMATISED


@pytest.mark.parametrize("name", [name for name in CASES if name not in UNSCHEMATISED])
def test_golden_report_validates_against_its_schema(name, registry):
    schema, part = SCHEMAS[_command(CASES[name])]
    report = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    validate(report if part is None else report[part], schema, registry)
