"""Per-layer tracing by wrapping diffsym's public entry points from outside.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each target
function or method with a wrapper, also under every other name that refers to
the same object (``diffsym.split.verify_gauge``, ``diffsym.cli.compute_P``,
the package re-exports, ``__radd__ = __add__`` aliases).  ``Tracer.restore``
puts every original back.  Wrappers record only while ``active`` is set, so
the benchmark's own checks are not counted.

Three kinds of target:

* span: a record (name, start, end, parent span, case id) kept in memory and
  written out when the run ends; gives ``.calls``, inclusive ``.ms`` and the
  layer's ``.self_ms`` (span time minus the time its child spans cover);
* count: a call counter, for the hot scalar and matrix operations;
* gcd: ``poly_gcd`` calls, time and the share of results of degree 0, kept
  as totals rather than spans; its time stays inside its callers' self time.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

SPAN, COUNT, GCD = "span", "count", "gcd"

# (metric name, module, attribute or Class.attribute, kind)
TARGETS = (
    ("split.split_standard", "diffsym.split", "split_standard", SPAN),
    ("split.maximal", "diffsym.split", "maximal_subfield_necessary", SPAN),
    ("split.verify_iso", "diffsym.split", "verify_diff_isomorphism", SPAN),
    ("split.phi_apply", "diffsym.split", "PhiMap.apply", SPAN),
    ("split.phimap_init", "diffsym.split", "PhiMap.__init__", SPAN),
    ("split.compute_p", "diffsym.split", "compute_P", SPAN),
    ("split.compute_p", "diffsym.split", "compute_P_with_diagnostics", SPAN),
    ("split.closed_form_p", "diffsym.split", "closed_form_P", SPAN),
    ("split.split_generic", "diffsym.split", "split_generic", SPAN),
    ("matdiff.apply_dp", "diffsym.matdiff", "apply_dP", SPAN),
    ("matdiff.verify_gauge", "diffsym.matdiff", "verify_gauge", SPAN),
    ("matdiff.matmul", "diffsym.matdiff", "DiffMatrix.__mul__", COUNT),
    ("deriv.apply", "diffsym.deriv", "Derivation.apply", SPAN),
    ("deriv.validate", "diffsym.deriv", "validate", SPAN),
    ("deriv.decompose", "diffsym.deriv", "decompose", SPAN),
    ("symalg.mul", "diffsym.symalg", "SymbolElem.__mul__", SPAN),
    ("kummer.field_init", "diffsym.scalars.kummer", "KummerField.__init__", SPAN),
    ("kummer.mul", "diffsym.scalars.kummer", "KummerElem.__mul__", COUNT),
    ("kummer.add", "diffsym.scalars.kummer", "KummerElem.__add__", COUNT),
    ("powers.certify", "diffsym.scalars.powers", "kummer_vahlen_certify", SPAN),
    ("powers.certify", "diffsym.scalars.powers", "certify_power_free_over_kummer", SPAN),
    ("powers.mth_power", "diffsym.scalars.powers", "mth_power_up_to_constant", SPAN),
    ("monomial.mul", "diffsym.scalars.monomial", "PolyDiffElem.__mul__", COUNT),
    ("monomial.derive", "diffsym.scalars.monomial", "PolyDiffElem.derive", SPAN),
    ("ode.solve", "diffsym.scalars.ode", "rational_ode_solve", SPAN),
    ("linalg.solve", "diffsym.linalg", "kernel_basis", SPAN),
    ("linalg.solve", "diffsym.linalg", "solve_affine", SPAN),
    ("linalg.solve", "diffsym.linalg", "invert_matrix", SPAN),
    ("parser.parse", "diffsym.parser", "parse_scalar", SPAN),
    ("parser.parse", "diffsym.parser", "parse_symbol", SPAN),
    ("parser.print", "diffsym.parser", "scalar_to_str", SPAN),
    ("cli.main", "diffsym.cli", "main", SPAN),
    ("ratfunc.new", "diffsym.scalars.ratfunc", "RatFunc.__init__", COUNT),
    ("ratfunc.add", "diffsym.scalars.ratfunc", "RatFunc.__add__", COUNT),
    ("ratfunc.mul", "diffsym.scalars.ratfunc", "RatFunc.__mul__", COUNT),
    ("polys.gcd", "diffsym.scalars.polys", "poly_gcd", GCD),
    ("polys.mul", "diffsym.scalars.polys", "Poly.__mul__", COUNT),
    ("cyclo.new", "diffsym.scalars.cyclo", "CycloElem.__init__", COUNT),
    ("cyclo.mul", "diffsym.scalars.cyclo", "CycloElem.__mul__", COUNT),
    ("cyclo.inv", "diffsym.scalars.cyclo", "CycloElem.inv", COUNT),
)

# The per-layer metrics a traced run reports, grouped by layer (module).
PER_LAYER = {
    "split": ("verify_iso.calls", "verify_iso.ms", "phi_apply.calls", "phi_apply.ms", "phimap_init.ms",
              "compute_p.ms", "closed_form_p.ms", "split_generic.ms", "self_ms"),
    "matdiff": ("apply_dp.calls", "apply_dp.ms", "verify_gauge.calls", "verify_gauge.ms", "matmul.calls",
                "self_ms"),
    "deriv": ("apply.calls", "apply.ms", "validate.calls", "validate.ms", "decompose.ms", "self_ms"),
    "symalg": ("mul.calls", "mul.ms", "self_ms"),
    "kummer": ("field_init.calls", "field_init.ms", "mul.calls", "add.calls", "self_ms"),
    "powers": ("certify.ms", "mth_power.calls", "mth_power.ms"),
    "monomial": ("mul.calls", "derive.calls", "self_ms"),
    "ode": ("solve.calls", "solve.ms"),
    "linalg": ("solve.calls", "solve.ms"),
    "parser": ("parse.calls", "parse.ms", "print.ms"),
    "cli": ("main.calls", "main.ms", "self_ms", "out_bytes"),
    "ratfunc": ("new.calls", "add.calls", "mul.calls"),
    "polys": ("gcd.calls", "gcd.ms", "gcd.trivial_share", "mul.calls"),
    "cyclo": ("new.calls", "mul.calls", "inv.calls"),
    "trace": ("wall_ms", "overhead_share"),
}


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("ms"):
        return "ms"
    if name.endswith("bytes"):
        return "bytes"
    return "ratio"


def per_layer_names():
    return [f"{layer}.{m}" for layer, metrics in PER_LAYER.items() for m in metrics]


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self):
        self.active = False
        self.case_id = -1
        self.spans = []  # (name, start, end, parent index, case id)
        self._stack = []
        self.counts = {}
        self.gcd = {"calls": 0, "s": 0.0, "trivial": 0}
        self._patches = None  # (holder, attribute, original, wrapper), built by install()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.case_id)

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gcd(self, name, fn):
        totals = self.gcd

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = perf_counter()
            g = fn(*args, **kwargs)
            totals["s"] += perf_counter() - start
            totals["calls"] += 1
            if g.degree == 0:
                totals["trivial"] += 1
            return g

        return wrapper

    def add(self, name: str, n: int) -> None:
        """Add n to a counter the benchmark computes itself (e.g. bytes printed)."""
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + n

    # -- patching ---------------------------------------------------------

    def _plan(self):
        """(holder, attribute, original, wrapper) for every name of every target."""
        make = {SPAN: self._span, COUNT: self._count, GCD: self._gcd}
        modules = [mod for key, mod in sys.modules.items() if key == "diffsym" or key.startswith("diffsym.")]
        plan = []
        for name, module, attr, kind in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                holders = [owner]
            else:
                original = getattr(owner, attr)
                holders = modules
            wrapper = make[kind](name, original)
            for holder in holders:
                plan.extend((holder, key, original, wrapper) for key, value in vars(holder).items() if value is original)
        return plan

    def install(self) -> None:
        """Put the wrappers in place; the plan is built once, on first use."""
        if self._patches is None:
            self._patches = self._plan()
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def restore(self) -> None:
        """Put every original back."""
        for holder, key, original, _ in reversed(self._patches or ()):
            setattr(holder, key, original)

    def patched(self):
        """(holder, attribute, original) of every patched name."""
        return [(holder, key, original) for holder, key, original, _ in self._patches or ()]

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls, inclusive ms and per-layer self ms from the recorded spans."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for name, count in self.counts.items():
            out[name if name.endswith("bytes") else f"{name}.calls"] = count
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            layer = name.split(".")[0]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            # inclusive time counts only the outermost span of each name
            outer = True
            p = parent
            while p >= 0:
                if self.spans[p][0] == name:
                    outer = False
                    break
                p = self.spans[p][3]
            if outer:
                out[f"{name}.ms"] = out.get(f"{name}.ms", 0.0) + (end - start) * 1e3
            out[f"{layer}.self_ms"] = out.get(f"{layer}.self_ms", 0.0) + (end - start - child_s[idx]) * 1e3
        g = self.gcd
        out["polys.gcd.calls"] = g["calls"]
        out["polys.gcd.ms"] = g["s"] * 1e3
        out["polys.gcd.trivial_share"] = g["trivial"] / g["calls"] if g["calls"] else 0.0
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "case": case}))
                fh.write("\n")
