"""Imports sit at module level, except where an import cycle forces a local one; decompositions sit in powers;
every function and class of the package has a caller outside its own body, or a stated reason to stay."""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "diffsym"

# parser imports scalars and symalg at module level, so these printers import it
# when they are called: (file, function, module, name)
FORCED = {
    ("symalg.py", "to_json", ".parser", "scalar_to_str"),
    ("symalg.py", "__repr__", ".parser", "symbol_to_str"),
    ("scalars/elem.py", "__repr__", "..parser", "scalar_to_str"),
}


def _local_imports(path: Path):
    """(file, function, module, name) for each name imported inside a function body."""
    rel = path.relative_to(SRC).as_posix()
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                yield from ((rel, fn.name, module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((rel, fn.name, alias.name, None) for alias in node.names)


def test_no_function_imports_beyond_the_forced_printers():
    found = [imp for path in sorted(SRC.rglob("*.py")) for imp in _local_imports(path)]
    assert [imp for imp in found if imp not in FORCED] == []


# the package imports of each scalar layer, at any depth in the file: Q(w)
# (scalars/cyclo.py) is the bottom of the tower and reads no polynomial layer,
# polys.py reads Q(w)'s integer vectors for its integer kernel on Q[t], and
# kummer.py inverts by twists, with no polynomial division;
# (file, package module)
SCALAR_IMPORTS = {
    ("scalars/__init__.py", ".cyclo"),
    ("scalars/__init__.py", ".kummer"),
    ("scalars/__init__.py", ".monomial"),
    ("scalars/__init__.py", ".ode"),
    ("scalars/__init__.py", ".polys"),
    ("scalars/__init__.py", ".powers"),
    ("scalars/__init__.py", ".ratfunc"),
    ("scalars/cyclo.py", "..errors"),
    ("scalars/cyclo.py", ".elem"),
    ("scalars/elem.py", "..parser"),
    ("scalars/kummer.py", "..errors"),
    ("scalars/kummer.py", ".elem"),
    ("scalars/kummer.py", ".powers"),
    ("scalars/kummer.py", ".ratfunc"),
    ("scalars/monomial.py", ".elem"),
    ("scalars/ode.py", "..errors"),
    ("scalars/ode.py", "..linalg"),
    ("scalars/ode.py", ".cyclo"),
    ("scalars/ode.py", ".polys"),
    ("scalars/ode.py", ".ratfunc"),
    ("scalars/polys.py", ".cyclo"),
    ("scalars/polys.py", ".elem"),
    ("scalars/powers.py", "..errors"),
    ("scalars/powers.py", ".cyclo"),
    ("scalars/powers.py", ".polys"),
    ("scalars/powers.py", ".ratfunc"),
    ("scalars/ratfunc.py", ".cyclo"),
    ("scalars/ratfunc.py", ".elem"),
    ("scalars/ratfunc.py", ".polys"),
}


def _package_imports(path: Path):
    """(file, module) for each relative import in the file, and each absolute import of diffsym."""
    rel = path.relative_to(SRC).as_posix()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "diffsym"):
            yield rel, "." * node.level + (node.module or "")
        elif isinstance(node, ast.Import):
            yield from ((rel, alias.name) for alias in node.names if alias.name.split(".")[0] == "diffsym")


def test_the_scalar_modules_import_only_their_pinned_layers():
    found = {imp for path in sorted((SRC / "scalars").glob("*.py")) for imp in _package_imports(path)}
    assert found == SCALAR_IMPORTS
    assert {module for file, module in found if file == "scalars/cyclo.py"} == {".elem", "..errors"}


# every m-th-power decision reads the valuation vectors of scalars/powers.py;
# ode.py decomposes a denominator for its degree bound, which decides no power
DECOMPOSERS = {
    ("scalars/powers.py", "squarefree_decompose"),
    ("scalars/powers.py", "coprime_basis"),
    ("scalars/ode.py", "squarefree_decompose"),
}


def _decomposition_calls(path: Path):
    """(file, function) for each call of squarefree_decompose or coprime_basis, by name or attribute."""
    rel = path.relative_to(SRC).as_posix()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("squarefree_decompose", "coprime_basis"):
                yield rel, name


def test_decompositions_are_called_only_from_powers():
    found = {call for path in sorted(SRC.rglob("*.py")) for call in _decomposition_calls(path)}
    assert found == DECOMPOSERS


# a generic elimination runs only in symalg's kernels of powers and
# commutators, the determinant certificate and the ODE's linear system:
# (file, calling function, eliminator)
ELIMINATORS = {
    ("symalg.py", "twisted_centralizer", "kernel_basis"),
    ("symalg.py", "_minimal_polynomial", "kernel_basis"),
    ("symalg.py", "minimal_polynomial", "_minimal_polynomial"),
    ("symalg.py", "in_generated_subfield", "solve_affine"),
    ("symalg.py", "inverse_via_minimal_polynomial", "_minimal_polynomial"),
    ("matdiff.py", "det_certificate", "kernel_basis"),
    ("scalars/ode.py", "rational_ode_solve", "solve_affine"),
}
_ELIMINATIONS = ("kernel_basis", "solve_affine", "minimal_polynomial", "_minimal_polynomial")


def _elimination_calls(node, rel: str, fn=None):
    """(file, innermost enclosing function, callee) for each call of an eliminator, by name or attribute."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        fn = node.name
    elif isinstance(node, ast.Call):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in _ELIMINATIONS:
            yield rel, fn, name
    for child in ast.iter_child_nodes(node):
        yield from _elimination_calls(child, rel, fn)


def test_generic_eliminations_are_called_only_from_symalg_det_and_ode():
    found = {
        call
        for path in sorted(SRC.rglob("*.py"))
        for call in _elimination_calls(ast.parse(path.read_text(), str(path)), path.relative_to(SRC).as_posix())
    }
    assert found == ELIMINATORS


# module-level functions and classes that no code in the package or in
# perfbench/ refers to, each with the reason it stays; a test harness
# belongs in tests/, next to the tests that run it
BENCH = SRC.parents[1] / "perfbench"
UNREFERENCED = {
    "minimal_polynomial": "the oracle of split inner's degree test, and the start of ROADMAP direction 1's z",
    "subfield_stable": "stage 2 of ROADMAP direction 4's maximal-subfield decision",
}


def _docstrings(tree):
    """The docstring nodes of a module and of its functions and classes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _references(tree):
    """Names, attributes and identifiers in strings other than docstrings.

    A string counts because perfbench/tracing.py wraps functions by name and
    a refusal may name a function to its reader.
    """
    docs = set(_docstrings(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node not in docs:
            yield from re.findall(r"\w+", node.value)


def test_every_package_function_and_class_has_a_caller_or_a_reason():
    everywhere = Counter()
    for path in [*SRC.rglob("*.py"), *BENCH.rglob("*.py")]:
        tree = ast.parse(path.read_text(), str(path))
        everywhere.update(_references(tree))
        if SRC in path.parents:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    # the references inside its own body do not count
                    everywhere[node.name] -= Counter(_references(node))[node.name]
    assert {name for name, n in everywhere.items() if n == 0} == set(UNREFERENCED)


# w^k and (1 - w^j)^-1 depend on m alone: they are read from CycloField's
# omega_powers and inverse_gaps, built once per field in scalars/cyclo.py
_OMEGA = {"omega", "omega_powers", "_omega_pow"}


def _mentions(node, local) -> bool:
    """node mentions a name or attribute of _OMEGA, or a name of local."""
    return any(
        (isinstance(n, ast.Name) and (n.id in _OMEGA or n.id in local))
        or (isinstance(n, ast.Attribute) and n.attr in _OMEGA)
        for n in ast.walk(node)
    )


def _scope_nodes(scope):
    """The nodes of a function, or of a module outside its functions."""
    if not isinstance(scope, ast.Module):
        yield from ast.walk(scope)
        return
    stack = [scope]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(n for n in ast.iter_child_nodes(node) if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _omega_recomputations(tree, rel: str):
    """(file, line, kind) for each power of omega and each inverse of a difference that mentions omega.

    A local name bound, directly or in a chain, to an expression that mentions
    omega counts as omega within its function.
    """
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]:
        nodes = list(_scope_nodes(scope))
        local = set()
        while True:
            bound = {
                target.id
                for node in nodes
                if isinstance(node, ast.Assign) and _mentions(node.value, local)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            if bound <= local:
                break
            local |= bound
        for node in nodes:
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and _mentions(node.left, local):
                yield rel, node.lineno, "power of omega"
            difference = None
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "inv":
                difference = node.func.value
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                difference = node.right
            if (isinstance(difference, ast.BinOp) and isinstance(difference.op, ast.Sub)
                    and _mentions(difference, local)):
                yield rel, node.lineno, "inverse of 1 - w^j"


def test_omega_powers_and_gap_inverses_are_read_from_the_field():
    found = {
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() != "scalars/cyclo.py"
        for hit in _omega_recomputations(ast.parse(path.read_text(), str(path)), path.relative_to(SRC).as_posix())
    }
    assert found == set()


def test_the_field_descriptors_share_one_protocol():
    """zero(), one() and generators() are written once, in elem.Field, and the extensions' coerce once, in Extension."""
    from diffsym.scalars import CycloField, KummerField, MonomialDiffField, PolyDiffField, RatFuncField
    from diffsym.scalars.elem import Extension, Field

    for cls in (CycloField, RatFuncField, KummerField, PolyDiffField, MonomialDiffField):
        assert issubclass(cls, Field)
        assert not {"zero", "one", "generators"} & vars(cls).keys(), cls
    for cls in (KummerField, PolyDiffField, MonomialDiffField):
        assert issubclass(cls, Extension)
        assert not {"coerce", "cyclo"} & vars(cls).keys(), cls
