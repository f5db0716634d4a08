"""The three benchmark workloads.

Each workload builds its shared state once (``setup``), produces the seeded
cases of one round (``cases``), runs one case (``run``, the only timed call)
and checks the output (``check``) by a route that does not repeat the code
under test.  A round holds every m of the workload's mix, so every run covers
m = 2..5.  The number of rounds follows from ``--seconds`` and the workload's
nominal round time, so every commit does the same work for a given seed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

from gen import ROOTS, pattern_rng, radicands, rng_for, small_linear, symbol_to_str, trace_zero_theta


class Mismatch(Exception):
    """A wrong verdict or output; counted as a failed case."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class Case:
    m: int
    kind: str
    inputs: dict
    expected: dict = field(default_factory=dict)


def expected_degree(m: int) -> int:
    """Degree of the standard splitting field for a non-constant beta."""
    return m * m if m % 2 else 2 * m * m


class SplitStandard:
    """split_standard on a fresh seeded algebra per case."""

    name = "split-standard"
    # Nominal seconds per round on a 2-vCPU x86-64 virtual machine (Python 3.11).
    round_seconds = 11.0
    # (m, deg alpha, deg beta) of each case in one round.  Three m = 3 cases
    # per round put the 11th largest case time (case_tail_ms) mid-cluster.
    mix = ((2, 1, 2), (2, 2, 1)) * 2 + ((3, 1, 2), (3, 2, 1), (3, 1, 1), (4, 1, 1), (5, 1, 1))

    def setup(self, ds, seed: int) -> dict:
        fields = {m: ds.field(m) for m in sorted({m for m, _, _ in self.mix})}
        return {"ds": ds, "seed": seed, "fields": fields}

    def cases(self, ctx: dict, r: int):
        ds = ctx["ds"]
        out = []
        for pos, (m, da, db) in enumerate(self.mix):
            k = ctx["fields"][m]
            alpha, beta = radicands(k, rng_for(ctx["seed"], self.name, r, pos), da, db)
            alg = ds.symalg.SymbolAlgebra(k, alpha, beta, m)
            out.append(Case(m, "split_standard", {"algebra": alg}, {"degree": expected_degree(m)}))
        return out

    def run(self, ctx: dict, case: Case):
        return ctx["ds"].split.split_standard(case.inputs["algebra"])

    def check(self, ctx: dict, case: Case, rep) -> None:
        m = case.m
        require(rep.passed, "report not passed")
        require(rep.degree in (m * m, 2 * m * m), f"degree {rep.degree} outside {{m^2, 2m^2}}")
        require(rep.degree == case.expected["degree"], f"degree {rep.degree} != {case.expected['degree']}")
        require(rep.gauge.det_nonzero, "det F is zero")
        require(rep.isomorphism is not None and rep.isomorphism.ok, "isomorphism verdict not ok")


class SplitGeneric:
    """compute_P_with_diagnostics then split_generic, one shared PhiMap per m."""

    name = "split-generic"
    round_seconds = 4.3
    # With 7 rounds the 11th largest case time is the middle m = 4 case.
    mix = (2, 2, 2, 2, 3, 3, 3, 4, 5)

    def setup(self, ds, seed: int) -> dict:
        shared = {}
        for m in sorted(set(self.mix)):
            k = ds.field(m)
            alpha, beta = radicands(k, rng_for(seed, self.name, "algebra", m), 1, 1)
            alg = ds.symalg.SymbolAlgebra(k, alpha, beta, m)
            phi = ds.split.PhiMap(alg, ds.scalars.KummerField(k, alpha, m, "xi"))
            shared[m] = (alg, phi)
        return {"ds": ds, "seed": seed, "shared": shared}

    def cases(self, ctx: dict, r: int):
        out = []
        for pos, m in enumerate(self.mix):
            alg, _ = ctx["shared"][m]
            theta = trace_zero_theta(alg, pattern_rng(self.name, r, pos), rng_for(ctx["seed"], self.name, r, pos))
            out.append(Case(m, "split_generic", {"theta": theta}))
        return out

    def run(self, ctx: dict, case: Case):
        ds = ctx["ds"]
        alg, phi = ctx["shared"][case.m]
        d = ds.deriv.standard_derivation(alg) + ds.deriv.inner_derivation(case.inputs["theta"])
        p, diagnostics = ds.split.compute_P_with_diagnostics(d, phi)
        return diagnostics, ds.split.split_generic(p)

    def check(self, ctx: dict, case: Case, result) -> None:
        diagnostics, rep = result
        m = case.m
        require(diagnostics == [], f"closed-form diagnostics {diagnostics}")
        require(rep.gauge.ok, "gauge verdict not ok")
        require(rep.gauge.det_nonzero, "det F is zero")
        require(rep.passed, "report not passed")
        require(rep.isomorphism is None, "generic splitting reports no isomorphism")
        require(rep.transcendence_degree == m * m, f"transcendence degree {rep.transcendence_degree}")
        require(rep.p.size == m and rep.f.size == m, "matrix size")


# Which coefficient of d(u) or d(v) to perturb so that exactly one validity
# condition fails: (tag, "du"/"dv", i, j).  REL2..REL4 need m >= 3, because
# at m = 2 their only live coefficients are shared with A or B.
PERTURB = {
    "A": ("du", 1, 0),
    "B": ("dv", 0, 1),
    "REL1": ("du", 0, -1),
    "REL2": ("dv", -1, 2),
    "REL3": ("du", 2, -1),
    "REL4": ("du", 2, 1),
}


def perturb_tags(m: int):
    return ["A", "B", "REL1"] if m == 2 else list(PERTURB)


def derivation_images(alg, theta):
    """Grids of d(u), d(v) for d = d_s + inner(theta), from the commutation rules.

    u (c u^i v^j) - (c u^i v^j) u = c (1 - w^j) u^(i+1) v^j and
    v (c u^i v^j) - (c u^i v^j) v = c (w^i - 1) u^i v^(j+1), reduced by
    u^m = alpha and v^m = beta.  This avoids the library's Derivation class.
    """
    m = alg.m
    k = alg.field
    w = [k.coerce(alg.omega**e) for e in range(m)]
    du = [[k.zero()] * m for _ in range(m)]
    dv = [[k.zero()] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            c = theta.grid[i][j]
            if c.is_zero():
                continue
            cu = c * (k.one() - w[j])
            if i + 1 == m:
                cu = cu * alg.alpha
            du[(i + 1) % m][j] = du[(i + 1) % m][j] + cu
            cv = c * (w[i] - k.one())
            if j + 1 == m:
                cv = cv * alg.beta
            dv[i][(j + 1) % m] = dv[i][(j + 1) % m] + cv
    du[1][0] = du[1][0] + alg.alpha.derive() / (alg.alpha * m)
    dv[0][1] = dv[0][1] + alg.beta.derive() / (alg.beta * m)
    return du, dv


class CliQueries:
    """In-process `diffsym ... --json` calls on generated expression strings."""

    name = "cli-queries"
    round_seconds = 3.5
    ms = (2, 3, 4, 5)

    def setup(self, ds, seed: int) -> dict:
        return {"ds": ds, "seed": seed, "fields": {m: ds.field(m) for m in self.ms}, "tracer": None}

    def cases(self, ctx: dict, r: int):
        out = []
        for m in self.ms:
            rng = rng_for(ctx["seed"], self.name, r, m)
            out.extend(self._deriv_cases(ctx, m, r, rng))
            out.extend(self._ode_cases(ctx, m, rng))
            out.extend(self._power_cases(ctx, m, rng))
            if m in (2, 3, 5):
                out.append(self._maximal_case(ctx, m, rng))
        return out

    # -- case generation ------------------------------------------------

    def _algebra(self, ctx, m, rng):
        k = ctx["fields"][m]
        alpha, beta = radicands(k, rng, 1, 1)
        return ctx["ds"].symalg.SymbolAlgebra(k, alpha, beta, m)

    def _alg_args(self, ctx, alg):
        s = ctx["ds"].parser.scalar_to_str
        return [f"--m={alg.m}", f"--alpha={s(alg.alpha)}", f"--beta={s(alg.beta)}"]

    def _deriv_argv(self, ctx, alg, du, dv):
        images = [f"--du={symbol_to_str(alg.from_grid(du))}", f"--dv={symbol_to_str(alg.from_grid(dv))}"]
        return self._alg_args(ctx, alg) + images

    def _deriv_cases(self, ctx, m, r, rng):
        """validate on one valid derivation, decompose on two, three perturbed validates.

        The counts keep each median inside a cluster of similar cases: 11 cases
        per m, with decompose (the slowest) twice.
        """
        alg = self._algebra(ctx, m, rng)
        tags = perturb_tags(m)
        out = []
        for d in range(2):
            theta = trace_zero_theta(alg, pattern_rng(self.name, r, m, d), rng)
            du, dv = derivation_images(alg, theta)
            argv = self._deriv_argv(ctx, alg, du, dv)
            out.append(Case(m, "decompose", {"argv": ["deriv", "decompose"] + argv},
                            {"code": 0, "theta": theta, "algebra": alg}))
            if d == 0:
                out.append(Case(m, "validate", {"argv": ["deriv", "validate"] + argv}, {"code": 0, "failing": []}))
            for n in range(2 - d):
                tag = tags[(3 * r + 2 * d + n) % len(tags)]
                which, i, j = PERTURB[tag]
                bad = [list(row) for row in (du if which == "du" else dv)]
                bad[i % m][j % m] = bad[i % m][j % m] + alg.field.one()
                bad_argv = self._deriv_argv(ctx, alg, *((bad, dv) if which == "du" else (du, bad)))
                out.append(Case(m, "validate_perturbed", {"argv": ["deriv", "validate"] + bad_argv},
                                {"code": 1, "failing": [tag]}))
        return out

    def _ode_cases(self, ctx, m, rng):
        ds = ctx["ds"]
        k = ctx["fields"][m]
        t = k.gen()
        w = k.cyclo.omega()
        mu = rng.choice([k.cyclo.from_rational(q) for q in (1, 2, -1, 3, -2)] + [w * 2, w + 2])
        r1, r2 = rng.sample(ROOTS, 2)
        x = small_linear(k, rng) * t / ((t - k.coerce(r1)) ** 2 * (t - k.coerce(r2)))
        g = x.derive() + x * k.coerce(mu)
        s = ds.parser.scalar_to_str
        base = ["ode", "solve", f"--m={m}", f"--mu={s(mu)}"]
        g_none = k.coerce(rng.choice((1, 2, -1, 3))) / (t - k.coerce(r1)) + small_linear(k, rng)
        return [
            Case(m, "ode_solution", {"argv": base + [f"--g={s(g)}"]}, {"code": 0, "mu": mu, "g": g}),
            Case(m, "ode_none", {"argv": base + [f"--g={s(g_none)}"]}, {"code": 1}),
        ]

    def _power_cases(self, ctx, m, rng):
        ds = ctx["ds"]
        k = ctx["fields"][m]
        t = k.gen()
        r1, r2, r3, r4 = (k.coerce(r) for r in rng.sample(ROOTS, 4))
        c = k.coerce(rng.choice((1, 2, 3, 5, -1, -3)))
        f = c * ((t - r1) * (t - r2) / (t - r3)) ** m
        g = f * (t - r4)
        s = ds.parser.scalar_to_str
        base = ["power-detect", f"--m={m}"]
        return [
            Case(m, "power_yes", {"argv": base + [f"--f={s(f)}"]}, {"code": 0, "f": f}),
            Case(m, "power_no", {"argv": base + [f"--f={s(g)}"]}, {"code": 1}),
        ]

    def _maximal_case(self, ctx, m, rng):
        alg = self._algebra(ctx, m, rng)
        k = alg.field
        # alpha and beta each have a simple root, so for nu = alpha*beta or a
        # single linear factor one side has no witness c * nu^r * h^m at any r:
        # the candidate subfield is refuted.
        if rng.random() < 0.5:
            nu = alg.alpha * alg.beta
        else:
            nu = k.gen() - k.coerce(rng.randint(-4, 4))
        argv = ["split", "maximal"] + self._alg_args(ctx, alg) + [f"--nu={ctx['ds'].parser.scalar_to_str(nu)}"]
        return Case(m, "maximal", {"argv": argv}, {"code": 1})

    # -- run and check --------------------------------------------------

    def run(self, ctx: dict, case: Case):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ctx["ds"].cli.main(case.inputs["argv"] + ["--json"])
            except SystemExit as exc:  # argparse usage errors exit as the CLI would
                code = exc.code
        text = out.getvalue()
        if ctx["tracer"] is not None:
            ctx["tracer"].add("cli.out_bytes", len(text.encode()))
        return code, text, err.getvalue()

    def check(self, ctx: dict, case: Case, result) -> None:
        code, text, err = result
        exp = case.expected
        require(code == exp["code"], f"exit code {code} != {exp['code']} ({err.strip()[:120]})")
        report = json.loads(text)
        ds = ctx["ds"]
        k = ctx["fields"][case.m]
        parse = ds.parser.parse_scalar
        kind = case.kind
        if kind in ("validate", "validate_perturbed"):
            require(report["failing"] == exp["failing"], f"failing {report['failing']} != {exp['failing']}")
            require(report["ok"] == (exp["code"] == 0), "ok flag disagrees with the exit code")
        elif kind == "decompose":
            alg = exp["algebra"]
            grid = [[k.zero()] * case.m for _ in range(case.m)]
            for i, j, s in report["theta"]["entries"]:
                grid[i][j] = parse(s, k)
            require(alg.from_grid(grid) == exp["theta"], "returned theta differs from the generating theta")
        elif kind == "ode_solution":
            mu = k.coerce(exp["mu"])
            x = parse(report["particular"], k)
            require(x.derive() + x * mu == exp["g"], "particular solution fails delta(x) + mu x = g")
            for h in report["homogeneous"]:
                h = parse(h, k)
                require((h.derive() + h * mu).is_zero(), "homogeneous solution fails delta(h) + mu h = 0")
        elif kind == "ode_none":
            require(report["ok"] is False and report["particular"] is None, "no-solution input got a solution")
        elif kind == "power_yes":
            c = parse(report["c"], k)
            h = parse(report["h"], k)
            require(c * h ** case.m == exp["f"], "c * h^m != f")
        elif kind == "power_no":
            require(report["ok"] is False, "non-power reported as a power")
        elif kind == "maximal":
            require(report["refuted"] is True, "candidate subfield not refuted")
        else:
            raise Mismatch(f"unknown case kind {kind}")


WORKLOADS = {w.name: w for w in (SplitStandard(), SplitGeneric(), CliQueries())}
