"""Checks on the package's source text, read with `ast`."""

import ast
import pathlib

import pentachrome

_MODULES = sorted(pathlib.Path(pentachrome.__file__).parent.glob("*.py"))


def _trees():
    assert _MODULES, "no modules found in the pentachrome package"
    for path in _MODULES:
        yield path, ast.parse(path.read_text(), str(path))


def test_every_parameter_is_read():
    # a parameter that its body never reads carries no information
    unread = []
    for _, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [f"{node.name}:{p.arg}" for p in params
                       if p.arg not in ("self", "cls", *read)]
    assert unread == []


def test_no_assert_statements():
    # invariants are raised, so they still hold under python -O
    found = [f"{path.name}:{node.lineno}" for path, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
