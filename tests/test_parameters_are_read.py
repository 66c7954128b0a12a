"""Every parameter of every function in the package is read in its body, and varied by a call.

A parameter that no line reads is a knob that does nothing: callers can set
it and nothing changes.  A parameter of a private module-level function that
every call in the package leaves at its default, or sets to one and the same
constant, is a knob that nothing turns: its other values are dead code.
These guards walk the source with ``ast``, so such knobs cannot come back
unnoticed.  A name may be allowed only with a reason written next to it.
"""

import ast
from pathlib import Path
from typing import Iterator

SOURCE = Path(__file__).resolve().parent.parent / "src" / "conric"

# "module.function.parameter" -> why it is kept although never read
ALLOWED: dict[str, str] = {}
# "module.function.parameter" -> why it is kept although no call in the package varies it
ALLOWED_FIXED: dict[str, str] = {}


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


def _calls(tree: ast.AST) -> Iterator[tuple[str, list[ast.expr], list[ast.keyword]]]:
    """(callee name, positional arguments, keywords) of every call; partial(f, ...) is a call of f."""

    def name(node: ast.expr) -> str | None:
        return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if name(node.func) == "partial" and node.args:
            yield name(node.args[0]), node.args[1:], node.keywords
        else:
            yield name(node.func), node.args, node.keywords


def _bindings(positional: list[str], named: list[str], args, keywords) -> dict[str, ast.expr | None]:
    """Parameter -> the argument a call passes for it (None when unpacked); unset parameters are absent."""
    bound: dict[str, ast.expr | None] = {}
    for index, arg in enumerate(args):
        if isinstance(arg, ast.Starred):
            bound.update(dict.fromkeys(positional[index:]))
            break
        if index < len(positional):
            bound[positional[index]] = arg
    for keyword in keywords:
        if keyword.arg is None:
            bound.update({name: None for name in named if name not in bound})
        else:
            bound[keyword.arg] = keyword.value
    return bound


def fixed_parameters(sources: dict[str, str]) -> list[str]:
    """Parameters of private module-level functions that every call in sources fixes.

    A parameter is fixed when it has a default and no call sets it, or when every call sets
    it to the same constant.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls: dict[str, list] = {}
    for tree in trees.values():
        for callee, args, keywords in _calls(tree):
            calls.setdefault(callee, []).append((args, keywords))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("_") or node.name.endswith("__"):
                continue
            a = node.args
            positional = [arg.arg for arg in a.posonlyargs + a.args]
            named = positional + [arg.arg for arg in a.kwonlyargs]
            defaults = positional[len(positional) - len(a.defaults) :]
            defaults += [arg.arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            bindings = [_bindings(positional, named, *call) for call in calls.get(node.name, [])]
            for name in named:
                values = [b.get(name, ...) for b in bindings]
                unset = all(value is ... for value in values)
                constants = {
                    (type(v.value), repr(v.value)) if isinstance(v, ast.Constant) else None for v in values
                }
                if (name in defaults and unset) or (bindings and len(constants) == 1 and None not in constants):
                    found.append(f"{module}.{node.name}.{name}")
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


def test_every_private_parameter_is_varied():
    fixed = fixed_parameters({path.stem: path.read_text() for path in sorted(SOURCE.glob("*.py"))})
    assert [name for name in fixed if name not in ALLOWED_FIXED] == []
    for name, reason in ALLOWED_FIXED.items():
        assert name in fixed, f"{name} is varied now; drop it from ALLOWED_FIXED"
        assert reason.strip(), f"{name} needs a reason"


def test_flags_a_parameter_that_no_call_varies():
    first = """
def _scale(a, factor=2.0, *, mode="x"):
    return a * factor, mode

def _shift(a, by):
    return a + by

def _pick(a, flag=False):
    return a if flag else -a

def _wrap(a, mode="x"):
    return a, mode

def public(a, flag, rest, options):
    return _scale(a), _shift(a, 1), _pick(a, True), _pick(a, flag), _pick(*rest), _wrap(a, **options)
"""
    second = """
import functools
from . import first

def other(a):
    return functools.partial(first._scale, mode="y")(a), first._shift(a, 1), first._pick(a, 0)
"""
    assert fixed_parameters({"first": first, "second": second}) == [
        "first._scale.factor",
        "first._shift.by",
    ]
