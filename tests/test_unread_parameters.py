"""Every parameter of a function in src/cambrian is read by its body."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cambrian"

# Unread on purpose: tests/test_acceptance.py calls the vertex maps with
# (spec, c, ...), and phi with (spec, ...).
ALLOWED = {
    "quivers.phi_vertex_map.spec",
    "quivers.theta_vertex_map.c",
    "sortables.cambrian_vertex_map.spec",
    "sortables.cambrian_vertex_map.c",
}


def unread_parameters(tree: ast.AST, prefix: str):
    """module.qualname.parameter for each parameter of a function or lambda
    under tree that no name in its body reads.  The instance or class
    parameter of a method is skipped."""
    for node in ast.iter_child_nodes(tree):
        name = prefix
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
        elif isinstance(node, ast.Lambda):
            name = f"{prefix}.lambda"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            if isinstance(tree, ast.ClassDef) and params and params[0].arg in ("self", "cls"):
                params = params[1:]
            body = node.body if isinstance(node.body, list) else [node.body]
            names = (n for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name))
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            yield from (f"{name}.{p.arg}" for p in params if p.arg not in read)
        yield from unread_parameters(node, name)


def test_every_parameter_is_read():
    found = {
        unread
        for path in sorted(SRC.glob("*.py"))
        for unread in unread_parameters(ast.parse(path.read_text(), str(path)), path.stem)
    }
    assert found - ALLOWED == set()
    assert ALLOWED <= found, "an allowed parameter is read now: take it off ALLOWED"


def test_the_check_finds_an_unread_parameter():
    tree = ast.parse("def f(a, b, *args):\n    return a\n\nclass K:\n    def m(self, x):\n        g = lambda y: 0\n")
    assert set(unread_parameters(tree, "m")) == {"m.f.b", "m.f.args", "m.K.m.x", "m.K.m.lambda.y"}
