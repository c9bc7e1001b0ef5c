"""Every defaulted parameter of a function in src/capnet is set by some call.

A default that no caller overrides is an option nobody uses: it belongs in a
module constant.  This walks the syntax trees of the package and of every
module that calls it (``src``, ``tests``, ``demos`` and ``perfbench``) and
flags each defaulted parameter that no call passes, by keyword or by
position.  Calls are matched by the callee's name, and a class call by the
class name to its ``__init__``; a call with ``*args`` or ``**kwargs`` passes
everything.  A function that is also referenced other than as a callee (kept
in a tuple, passed on, imported under another name, monkeypatched with the
original kept) counts as called with every argument.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "capnet"
CALLERS = [p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")]


def defaulted_parameters(tree) -> list:
    """(callee names, function, parameter, call-site position) of every
    defaulted parameter; the position is None for a keyword-only one."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            bound = cls is not None and not static  # self or cls is not passed
            names = {child.name} | ({cls} if child.name == "__init__" else set())
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                found.append((names, child.name, arg.arg, i - bound))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((names, child.name, arg.arg, None))
            visit(child, None)

    visit(tree, None)
    return found


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def calls_and_references(trees):
    """The calls by callee name, each as (positional count, keyword names,
    passes everything), and the names referenced other than as a callee."""
    calls, references = defaultdict(list), set()
    for tree in trees:
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                star = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
                calls[_name(node.func)].append(
                    (len(node.args), {k.arg for k in node.keywords}, star))
            elif (isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees
                  and isinstance(node.ctx, ast.Load)):
                references.add(_name(node))
            elif isinstance(node, ast.alias) and node.asname:
                references.add(node.name)
    return calls, references


def unset_defaults(sources: list, callers: list) -> list:
    """(function, parameter) of every defaulted parameter in the ``sources``
    trees that no call in the ``callers`` trees sets."""
    calls, references = calls_and_references(callers)
    unset = []
    for tree in sources:
        for names, function, param, position in defaulted_parameters(tree):
            if names & references:
                continue
            if not any(star or param in keywords or (position is not None and n > position)
                       for name in names for n, keywords, star in calls[name]):
                unset.append((function, param))
    return unset


def test_checker_flags_an_unset_default():
    source = (
        "def f(a, b=1, *, c=2):\n    return a\n"
        "def g(a=0):\n    return a\n"
        "class K:\n    def __init__(self, p=1, q=2):\n        pass\n"
        "f(0, 5)\nK(q=3)\nhandlers = (g,)\n"
    )
    tree = ast.parse(source)
    assert unset_defaults([tree], [tree]) == [("f", "c"), ("__init__", "p")]


def test_every_default_is_set_by_some_call():
    sources = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    callers = [ast.parse(p.read_text()) for p in CALLERS]
    unset = unset_defaults(sources, callers)
    assert not unset, "defaults no call sets (make them constants): " + ", ".join(
        f"{function}({param})" for function, param in unset)
