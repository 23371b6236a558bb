"""Every function, class and method in src/cambrian is read somewhere: by a
name in the package, in tests/test_acceptance.py or in perfbench/*.py,
outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cambrian"
READERS = (*sorted(SRC.glob("*.py")), ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py")))

# Read from outside the package's source: namedtuple's _replace and copy
# call _make.
ALLOWED = {"laurent.LaurentPolynomial._make", "rootsys._Validated._make"}


def reads(tree: ast.AST) -> Counter:
    """How often tree reads each name: as a loaded name or attribute, or as
    a name a from-import takes."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def definitions(tree: ast.Module, prefix: str):
    """(module.qualname, node) for each top-level function and class of
    tree and each method of its classes; dunders are skipped."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not is_dunder(node.name):
            yield f"{prefix}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds[:2]) and not is_dunder(item.name):
                        yield f"{prefix}.{node.name}.{item.name}", item


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unused_definitions(modules: dict[str, ast.Module], readers: list[ast.AST]):
    """module.qualname of each definition in modules whose name no tree of
    readers reads outside the definition itself."""
    total = sum(map(reads, readers), Counter())
    for prefix, tree in modules.items():
        for name, node in definitions(tree, prefix):
            if total[node.name] == reads(node)[node.name]:
                yield name


def test_every_definition_is_read():
    modules = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    readers = [ast.parse(path.read_text(), str(path)) for path in READERS]
    found = set(unused_definitions(modules, readers))
    assert found - ALLOWED == set()
    assert ALLOWED <= found, "an allowed definition is read now: take it off ALLOWED"


def test_the_check_finds_an_unused_function():
    # f calls only itself, K.m and K.__m are never read, g and K are read,
    # and K.__init__ is a dunder.
    tree = ast.parse("def f():\n    return f()\n\ndef g():\n    pass\n\nclass K:\n    def m(self):\n"
                     "        pass\n\n    def __m(self):\n        pass\n\n    def __init__(self):\n"
                     "        pass\n\nprint(g, K)\n")
    assert set(unused_definitions({"m": tree}, [tree])) == {"m.f", "m.K.m", "m.K.__m"}
