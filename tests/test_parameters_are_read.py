"""Every parameter of every function in the package is read in its body.

A parameter that no line reads is a knob that does nothing: callers can set
it and nothing changes.  This guard walks the source with ``ast``, so such a
knob cannot come back unnoticed.  A name may be allowed only with a reason
written next to it.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "conric"

# "module.function.parameter" -> why it is kept although never read
ALLOWED: dict[str, str] = {}


def _parameters(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> list[str]:
    args = node.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    named += [a for a in (args.vararg, args.kwarg) if a is not None]
    return [a.arg for a in named]


def _names_read(body: list[ast.AST]) -> set[str]:
    return {
        node.id
        for stmt in body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unread_parameters(source: str, module: str) -> list[str]:
    """Qualified names of the parameters that their function never reads."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                read = _names_read(child.body)
                found.extend(
                    f"{prefix}{child.name}.{name}"
                    for name in _parameters(child)
                    if name not in read
                )
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), f"{module}.")
    return found


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SOURCE.glob("*.py")):
        unread += unread_parameters(path.read_text(), path.stem)
    assert [name for name in unread if name not in ALLOWED] == []
    for name, reason in ALLOWED.items():
        assert name in unread, f"{name} is read now; drop it from ALLOWED"
        assert reason.strip(), f"{name} needs a reason"


def test_flags_a_parameter_that_is_only_documented():
    source = '''
def radius(a, tol=None):
    """``tol`` is unused."""
    return abs(a)

class Box:
    def scaled(self, factor, *args, **kwargs):
        def inner(unused):
            return factor
        return inner(args)
'''
    assert unread_parameters(source, "m") == [
        "m.radius.tol",
        "m.Box.scaled.self",
        "m.Box.scaled.kwargs",
        "m.Box.scaled.inner.unused",
    ]
