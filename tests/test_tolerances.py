"""Every ``pytest.approx`` under tests/ states its absolute tolerance.

``approx(expected, rel=r)`` also allows an absolute 1e-12 unless ``abs=`` is
given, which loosens a check wherever |expected| r < 1e-12 (ROADMAP item 11).
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _approx_calls(tree):
    """The ``pytest.approx(...)`` calls of a parsed file, each with whether it passes ``abs=``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "approx" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "pytest"):
            yield node.lineno, any(kw.arg == "abs" for kw in node.keywords)


def test_every_approx_states_abs():
    calls = [(path.name, line, has_abs) for path in sorted(TESTS.rglob("*.py"))
             for line, has_abs in _approx_calls(ast.parse(path.read_text(), str(path)))]
    assert calls        # the walk sees the calls it checks
    assert [(name, line) for name, line, has_abs in calls if not has_abs] == []


def test_call_without_abs_is_flagged():
    tree = ast.parse("pytest.approx(1.0, rel=1e-9)\n"
                     "pytest.approx(\n    1.0, rel=1e-9, abs=0.0)\n"
                     "approx = 1.0\n")
    assert sorted(_approx_calls(tree)) == [(1, False), (2, True)]
