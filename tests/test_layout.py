"""The library holds what its claims run: every function, class and method
defined in a ``unitals`` module is referenced somewhere in those modules
outside its own definition, and every defaulted parameter is passed by
some call there.  Oracles and helpers that only the tests call live in
``tests/oracles.py``, and a knob that only the tests turn is no option.
Each oracle in turn is referenced by a test module or by another oracle,
so that a reference stays one the tests compare against."""

import ast
import pathlib
from collections import Counter

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "unitals"


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


def _unused(modules, readers):
    """module:qualified name of every definition in ``modules`` (file name
    to tree) that no tree of ``readers`` uses outside the definition."""
    used = {kinds: sum((_references(t, kinds) for t in readers), Counter()) for kinds in (NAMES, ATTRIBUTES)}
    return [
        f"{module}:{qualname}"
        for module, tree in modules.items()
        for name, qualname, node, kinds in _definitions(tree)
        # dunders are called by Python; cli.main looks up cmd_* by name
        if not (name.startswith("__") and name.endswith("__") or name.startswith("cmd_"))
        and used[kinds][name] == _references(node, kinds)[name]
    ]


def test_every_library_definition_has_a_caller_in_the_library():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    unused = _unused(trees, trees.values())
    assert unused == [], f"defined in src/unitals but never used there: {unused}"


def test_every_oracle_has_a_caller_in_the_tests():
    oracles = ast.parse((TESTS / "oracles.py").read_text())
    tests = [ast.parse(p.read_text()) for p in sorted(TESTS.glob("test_*.py"))]
    unused = _unused({"oracles.py": oracles}, [oracles, *tests])
    assert unused == [], f"defined in tests/oracles.py but used by no test or other oracle: {unused}"


def _defaulted(tree):
    """(called name, qualified name, parameter, position) of every parameter
    with a default of every function and method, the position counted
    among the arguments a call writes out: a method's self is bound, and
    a class is called by its own name for __init__."""
    for node in tree.body:
        methods = node.body if isinstance(node, ast.ClassDef) else []
        for fn, owner in [(node, None)] + [(m, node.name) for m in methods]:
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            bound = 1 if owner else 0
            called = owner if fn.name == "__init__" else fn.name
            qualname = f"{owner}.{fn.name}" if owner else fn.name
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], first - bound):
                yield called, qualname, arg.arg, i
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield called, qualname, arg.arg, None


def _passed(tree):
    """(called name, keywords, positional) for every call: the names it
    passes by keyword, and how many positional arguments it writes, none
    of them bounded when one is starred."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        # partial(f, *args) passes args to f
        if isinstance(func, ast.Name) and func.id == "partial" and args:
            func, args = args[0], args[1:]
        if not isinstance(func, (ast.Name, ast.Attribute)):
            continue
        name = func.id if isinstance(func, ast.Name) else func.attr
        starred = any(isinstance(x, ast.Starred) for x in args)
        yield name, {k.arg for k in node.keywords}, float("inf") if starred else len(args)


def test_every_defaulted_parameter_is_passed_in_the_library():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    calls = [call for tree in trees for call in _passed(tree)]

    def passed(called, param, position):
        return any(
            name == called
            and (
                param in keywords
                or None in keywords  # **kwargs
                or position is not None
                and position < positional
            )
            for name, keywords, positional in calls
        )

    unpassed = [
        f"{qualname}({param}=)"
        for tree in trees
        for called, qualname, param, position in _defaulted(tree)
        # cli.main takes argv from the tests and sys.argv from the console
        if qualname != "main" and not passed(called, param, position)
    ]
    assert unpassed == [], f"defaulted parameters that no call in src/unitals passes: {unpassed}"


# the field's dense tables and their flat-index rule are read in gf alone,
# whose vadd and vmul do the arithmetic on arrays; analysis reads them only
# to build the pencil search's derived log tables and to index those
TABLE_ATTRIBUTES = {"add_table", "mul_table", "row_offsets"}
TABLE_BUILDERS = {"analysis.py:_log_tables", "analysis.py:_line_values"}


def _table_reads(name, tree):
    """module:function:line attribute of every read of a table attribute
    in a module, by the top-level function or method it sits in ("-"
    outside any)."""
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            scope = item.name if isinstance(item, ast.FunctionDef) else "-"
            for n in ast.walk(item):
                if isinstance(n, ast.Attribute) and n.attr in TABLE_ATTRIBUTES:
                    yield f"{name}:{scope}:{n.lineno} {n.attr}"


def test_field_tables_are_read_in_gf_alone():
    reads = [
        read
        for p in sorted(SRC.glob("*.py"))
        if p.name != "gf.py"
        for read in _table_reads(p.name, ast.parse(p.read_text()))
        if read.rsplit(":", 1)[0] not in TABLE_BUILDERS
    ]
    assert reads == [], f"field tables read outside gf; use GF.vadd and GF.vmul: {reads}"
