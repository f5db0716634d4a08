"""Self-checks raise SelfCheckError: src/diffsym has no ``assert``, which ``python -O`` strips."""

import ast
from pathlib import Path

from diffsym.errors import SelfCheckError

SRC = Path(__file__).resolve().parents[1] / "src" / "diffsym"


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _violations(source: str, name: str):
    """(name, line, kind) for each assert statement and each raise AssertionError outside SelfCheckError."""
    tree = ast.parse(source, name)
    exempt = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "SelfCheckError"
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Assert):
            yield (name, node.lineno, "assert")
        elif isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node):
            yield (name, node.lineno, "raise AssertionError")


def test_no_assert_and_no_bare_assertion_error_in_the_package():
    found = [v for path in sorted(SRC.rglob("*.py")) for v in _violations(path.read_text(), str(path.relative_to(SRC)))]
    assert found == []


def test_the_lint_sees_each_kind():
    source = (
        "def f(x):\n"
        "    assert x\n"
        "    raise AssertionError('no')\n"
        "def g():\n"
        "    raise AssertionError\n"
        "def h():\n"
        "    raise SelfCheckError('ok')\n"
    )
    assert sorted(_violations(source, "m.py")) == [
        ("m.py", 2, "assert"),
        ("m.py", 3, "raise AssertionError"),
        ("m.py", 5, "raise AssertionError"),
    ]


def test_a_self_check_failure_is_an_assertion_error():
    assert issubclass(SelfCheckError, AssertionError)
