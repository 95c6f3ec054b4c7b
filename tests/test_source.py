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


def test_only_the_builder_raises_assertion_error():
    # build_polytope's input is fixed, so its faults are its own; a reader's
    # fault is in the model it is given, and raises ValueError
    raising, defined = set(), []
    for path, tree in _trees():
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "PropagationError":
                defined.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Raise) and node.exc and "AssertionError" in {
                    n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}:
                # named by the innermost function around it
                around = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                raising.add(f"{path.name}:{around[-1] if around else '<module>'}")
    assert raising == {"polytope.py:build_polytope", "polytope.py:_pole_rotation",
                       "polytope.py:_compounds"}
    assert defined == []


def test_every_cli_option_is_read():
    # an option that neither its command nor `_dispatch` reads carries no information
    (tree,) = (tree for path, tree in _trees() if path.name == "cli.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def read(name):
        return {n.attr for n in ast.walk(functions[name]) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "args"}

    unread, dests = [], []
    for stmt in functions["build_parser"].body:
        call = getattr(stmt, "value", None)
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
            continue
        keywords = {k.arg: k.value for k in call.keywords}
        if call.func.attr == "add_parser":
            command, dests = call.args[0].value, []
        elif call.func.attr == "add_argument":
            option = next(a.value for a in call.args if a.value.startswith("--"))
            dest = keywords["dest"].value if "dest" in keywords else option[2:].replace("-", "_")
            dests.append(dest)
        elif call.func.attr == "set_defaults":
            known = read(keywords["run"].id) | read("_dispatch")
            unread += [f"{command}:{d}" for d in dests if d not in known]
    assert dests, "no subcommand options found in build_parser"
    assert unread == []


def test_colour_bits_stay_in_the_two_searches():
    # every other rainbow test looks the reading up in `_FACE_ORDERS`
    (tree,) = (tree for path, tree in _trees() if path.name == "chroma.py")
    found = set()
    for node in tree.body:  # named by its function, or by what it assigns
        name = getattr(node, "name", None) or ast.unparse(getattr(node, "targets", [node])[0])
        for n in ast.walk(node):
            shift = isinstance(n, ast.BinOp) and isinstance(n.op, ast.LShift)
            if shift or (isinstance(n, ast.Name) and n.id == "_ALL" and isinstance(n.ctx, ast.Load)):
                found.add(name)
    assert found == {"_ALL", "enumerate_colourings", "_propagate"}


def test_no_index_error_is_caught():
    # a shape fault is named where the model is made, not caught where it is read
    found = [f"{path.name}:{node.lineno}" for path, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.type
             and "IndexError" in {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}]
    assert found == []
