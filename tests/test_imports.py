"""Imports sit at module level, except where an import cycle forces a local one; decompositions sit in powers."""

import ast
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
