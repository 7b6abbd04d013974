"""The library holds what its claims run: every function, class and method
defined in a ``unitals`` module is referenced somewhere in those modules
outside its own definition.  Oracles and helpers that only the tests call
live in ``tests/oracles.py``."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "unitals"


# a function or class is used where its name is read, a method only where
# it is read as an attribute: a local variable of the same name is no call
NAMES, ATTRIBUTES = (ast.Name, ast.Attribute), (ast.Attribute,)


def _definitions(tree):
    """(name, qualified name, node, what counts as a use) of every
    function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, NAMES
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, f"{node.name}.{item.name}", item, ATTRIBUTES


def _references(node, kinds):
    """How often each name is used in ``node`` as one of ``kinds``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, kinds))


def test_every_library_definition_has_a_caller_in_the_library():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    used = {kinds: sum((_references(t, kinds) for t in trees.values()), Counter()) for kinds in (NAMES, ATTRIBUTES)}
    unused = [
        f"{module}:{qualname}"
        for module, tree in trees.items()
        for name, qualname, node, kinds in _definitions(tree)
        # dunders are called by Python; cli.main looks up cmd_* by name
        if not (name.startswith("__") and name.endswith("__") or name.startswith("cmd_"))
        and used[kinds][name] == _references(node, kinds)[name]
    ]
    assert unused == [], f"defined in src/unitals but never used there: {unused}"
