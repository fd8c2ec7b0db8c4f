"""No dead error class: each class in ``errors.py`` is raised or warned in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "optensor"


def _names(node: ast.AST) -> set[str]:
    """Every name in an expression, bare (``Foo``) or as an attribute (``errors.Foo``)."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _raised_or_warned(tree: ast.AST) -> set[str]:
    """The names in each ``raise`` expression and in the arguments of each ``warn`` call."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            used |= _names(node.exc)
        elif isinstance(node, ast.Call) and "warn" in _names(node.func):
            for arg in [*node.args, *(keyword.value for keyword in node.keywords)]:
                used |= _names(arg)
    return used


def test_every_error_class_is_raised_or_warned():
    """A base class that another error class derives from is exempt."""
    classes = [
        node for node in ast.parse((SRC / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    ]
    bases = {name for cls in classes for base in cls.bases for name in _names(base)}
    used = set().union(*(_raised_or_warned(ast.parse(p.read_text())) for p in SRC.glob("*.py")))
    assert classes
    assert [cls.name for cls in classes if cls.name not in used | bases] == []
