"""No function in the package takes a parameter that its body never reads.

A parameter nothing reads still has to be passed by every caller, and a
caller cannot tell it is ignored: a wrong value goes through with no
error.  The check parses every module of src/ordrobust with ast, so it
covers functions no test calls.  A parameter whose name starts with _
is exempt: the underscore marks one that a fixed call signature forces
on the function.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ordrobust"


def unread_parameters(source: str, filename: str) -> list:
    """(file:line, function, parameter) of every parameter never read."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [(f"{filename}:{node.lineno}", name, p.arg) for p in params
                  if not p.arg.startswith("_") and p.arg not in read]
    return found


def test_every_parameter_is_read():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [hit for path in files
             for hit in unread_parameters(path.read_text(encoding="utf-8"),
                                          path.name)]
    assert not found, "unread parameters:\n" + "\n".join(
        f"{where} {name}({param})" for where, name, param in found)


def test_check_sees_nested_reads_and_exemptions():
    source = (
        "def f(a, b, _c, *args, d=1, **kw):\n"
        "    def inner():\n"
        "        return a\n"
        "    return inner, (lambda x, y: x)\n"
    )
    got = {(name, param) for _, name, param in unread_parameters(source, "m")}
    assert got == {("f", "b"), ("f", "args"), ("f", "d"), ("f", "kw"),
                   ("<lambda>", "y")}
