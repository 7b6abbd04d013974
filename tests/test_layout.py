"""The library holds what its claims run: every function, class and method
defined in a ``unitals`` module is referenced somewhere in those modules
outside its own definition.  Oracles and helpers that only the tests call
live in ``tests/oracles.py``."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "unitals"


def _definitions(tree):
    """(name, qualified name, node) of every function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, f"{node.name}.{item.name}", item


def _references(node):
    """How often each name is used in ``node``, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_library_definition_has_a_caller_in_the_library():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    used = sum(map(_references, trees.values()), Counter())
    unused = [
        f"{module}:{qualname}"
        for module, tree in trees.items()
        for name, qualname, node in _definitions(tree)
        # dunders are called by Python; cli.main looks up cmd_* by name
        if not (name.startswith("__") and name.endswith("__") or name.startswith("cmd_"))
        and used[name] == _references(node)[name]
    ]
    assert unused == [], f"defined in src/unitals but never used there: {unused}"
