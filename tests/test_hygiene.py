"""Source hygiene: imports in src/cmtk are read, re-exports have users,
defaulted parameters are set by some caller, budgets are passed on and
refused in one place, F_q arithmetic does not fork on the field degree,
only the forms walk builds forms without the a | b^2 - D check, every
CLI option is read, and the functions the benchmark tracer wraps exist.

__init__.py is left out of the unused-import check: its imports are the
re-exported public API, which has a check of its own.
"""

import argparse
import ast
import importlib
import inspect
import textwrap
from pathlib import Path

import pytest

import cmtk
from cmtk import cli
from cmtk.errors import CmtkError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cmtk"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system, xml.dom\n"
        "from .x import a, b as c, d\n"
        "def f():\n"
        "    import json\n"
        "    return os.sep, c, xml, d.e\n"
    )
    assert unused_imports(source) == ["a", "system"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_module_imports(name):
    assert unused_imports((SRC / name).read_text()) == []


def names_imported_from_cmtk(paths):
    """Names bound by `from cmtk import ...` in the given files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "cmtk" and not node.level:
                names.update(a.name for a in node.names)
    return names


def _is_typed_error(obj):
    return isinstance(obj, type) and issubclass(obj, CmtkError)


def test_reexports_have_users():
    # the typed errors are the error contract: exported even when unused
    users = [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    used = names_imported_from_cmtk(users)
    unused = [
        name
        for name in cmtk.__all__
        if name not in used and not _is_typed_error(getattr(cmtk, name))
    ]
    assert unused == []


def traced_names(source):
    """(module, name) pairs of the OWN table in perfbench/tracer.py's source."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["OWN"]:
            table = ast.literal_eval(node.value)
            return sorted((mod, name) for mod, names in table.items() for name in names)
    raise AssertionError("no OWN table")


def missing_functions(pairs):
    """The (module, name) pairs that are not a function of cmtk.<module>."""
    return [
        (mod, name)
        for mod, name in pairs
        if not inspect.isfunction(getattr(importlib.import_module(f"cmtk.{mod}"), name, None))
    ]


def test_traced_functions_exist():
    # the traced benchmark getattrs these names: a rename would crash it
    pairs = traced_names((ROOT / "perfbench" / "tracer.py").read_text())
    assert ("splitcount", "count_split_primes") in pairs
    assert missing_functions(pairs) == []
    renamed = [("quadfield", "class_number_zeta_renamed"), ("splitcount", "SplittingSpec")]
    assert missing_functions(renamed) == renamed


def defaulted_parameters(source):
    """(function, parameter, position or None) for each defaulted parameter.

    Methods drop self/cls, so positions count the arguments a call passes;
    an __init__ is named by its class; keyword-only parameters have no
    position.
    """
    out = []

    def visit(body, cls=None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                params = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                if cls is not None and not static:
                    params = params[1:]
                name = cls if node.name == "__init__" else node.name
                first = len(params) - len(args.defaults)
                out.extend((name, a.arg, i) for i, a in enumerate(params) if i >= first)
                out.extend(
                    (name, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                )
                visit(node.body)

    visit(ast.parse(source).body)
    return out


def callee(call):
    """The name a call calls, plain or as an attribute."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def calls_by_name(sources):
    """Callee name -> the ast.Call nodes naming it."""
    out = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                out.setdefault(callee(node), []).append(node)
    return out


def supplied(call, param, index):
    """Whether the call passes param, by keyword or at its position."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def unsupplied_defaults(def_sources, call_sources):
    """ "function(parameter)" for each defaulted parameter no call passes."""
    calls = calls_by_name(call_sources)
    return [
        f"{name}({param})"
        for source in def_sources
        for name, param, index in defaulted_parameters(source)
        if not any(supplied(call, param, index) for call in calls.get(name, ()))
    ]


def test_default_checker_flags_unset_parameters():
    defs = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0, z=0):\n        pass\n"
    )
    calls = "f(0, 1)\nf(0, e=5)\nK(1)\nobj.m(**kw)\n"
    assert unsupplied_defaults([defs], [calls]) == ["f(c)", "f(d)"]


def test_every_default_is_set_by_a_caller():
    # a defaulted parameter nothing sets is a constant; it belongs in the body
    dirs = ("src", "scripts", "perfbench", "tests")
    callers = [p.read_text() for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]
    defs = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unsupplied_defaults(defs, callers) == []


def dropped_budgets(sources):
    """ "caller -> callee" for each call from a function with a budget
    parameter to a function that takes one, where the call does not pass it."""
    takes = {
        name: index
        for source in sources
        for name, param, index in defaulted_parameters(source)
        if param == "budget"
    }
    out = set()
    for source in sources:
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if "budget" not in [a.arg for a in fn.args.args + fn.args.kwonlyargs]:
                continue
            for call in (c for c in ast.walk(fn) if isinstance(c, ast.Call)):
                name = callee(call)
                if name in takes and not supplied(call, "budget", takes[name]):
                    out.add(f"{fn.name} -> {name}")
    return sorted(out)


def test_budget_checker_flags_dropped_budgets():
    source = (
        "def leaf(x, budget=1):\n    pass\n"
        "def kw(x, *, budget=1):\n    pass\n"
        "def good(budget=1):\n    leaf(0, budget)\n    kw(0, budget=budget)\n"
        "def bad(x, budget=1):\n    leaf(x)\n    kw(x)\n    other(x)\n"
        "def free(x):\n    leaf(x)\n"
    )
    assert dropped_budgets([source]) == ["bad -> kw", "bad -> leaf"]


def test_every_budget_is_passed_on():
    # a nested search under the default budget escapes its caller's bound
    assert dropped_budgets([p.read_text() for p in sorted(SRC.glob("*.py"))]) == []


def sites(source, hit):
    """Innermost enclosing function (or <module>) of each node that hit accepts."""
    out = []

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        elif hit(node):
            out.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(out)


def budget_error_sites(source):
    """Innermost enclosing function (or <module>) of each BudgetError(...) call."""
    return sites(source, lambda n: isinstance(n, ast.Call) and callee(n) == "BudgetError")


def test_budget_error_checker_finds_constructions():
    source = (
        "BudgetError('top')\n"
        "def f():\n    raise BudgetError('x')\n"
        "class K:\n    def m(self):\n        def inner():\n"
        "            return errors.BudgetError('y')\n"
        "try:\n    pass\nexcept BudgetError:\n    pass\n"
    )
    assert budget_error_sites(source) == ["<module>", "f", "inner"]


def test_budget_refusals_in_one_place():
    # up-front estimates go through errors.admit; the rest report a frontier
    sites = [
        f"{p.stem}.{where}"
        for p in sorted(SRC.glob("*.py"))
        for where in budget_error_sites(p.read_text())
    ]
    assert sorted(sites) == [
        "certify.find_admissible_prime",
        "certify.minimal_height_bound",
        "cmcat.find_split_prime",
        "cmcat.galois_orbit",
        "errors.admit",
    ]


def degree_forks(source):
    """Functions that compare a field's degree: an operand `<x>.e` of a comparison."""

    def hit(node):
        if not isinstance(node, ast.Compare):
            return False
        return any(getattr(x, "attr", None) == "e" for x in [node.left, *node.comparators])

    return sorted(set(sites(source, hit)))


def test_degree_fork_checker_flags_comparisons():
    source = (
        "def kernel(F, a):\n    if F.e == 1:\n        return a\n"
        "class Spec:\n    def op(self, a):\n        return a if 1 < self.field.e else 0\n"
        "def local(e):\n    return e == 1\n"
        "def pair(F, G):\n    return (F.p, F.e) == (G.p, G.e)\n"
        "def reads(F):\n    return F.p ** (F.e - 1)\n"
    )
    assert degree_forks(source) == ["kernel", "op"]


def test_fq_arithmetic_does_not_fork_on_degree():
    # prime fields run on the log/Zech tables too; kjacobi keeps its measured
    # F_p chain, and the text syntax of coefficients depends on e
    forks = [
        f"{p.stem}.{where}" for p in sorted(SRC.glob("*.py")) for where in degree_forks(p.read_text())
    ]
    assert forks == ["ffpoly.kjacobi", "ffpoly.poly_from_text"]


def test_unchecked_form_constructor_only_in_the_walk(capsys):
    # FormClass._built skips the a | b^2 - D check; only the forms walk, which
    # proves it, may call it, so user start forms keep every check
    where = [
        f"{p.stem}.{site}"
        for p in sorted(SRC.glob("*.py"))
        for site in sites(p.read_text(), lambda n: isinstance(n, ast.Attribute) and n.attr == "_built")
    ]
    assert where == ["quadfield.enumerate_reduced_forms"]
    orbit = ["cm-orbit", "--q", "3", "--m", "T^3+2*T+1", "--f", "T", "--prime", "T+1"]
    for start in (["--a", "T", "--b", "1"], ["--a", "T", "--b", "0"]):  # b^2 != D mod a; gcd = T
        assert cli.main(orbit + start) == 2
    err = capsys.readouterr().err
    assert "not congruent to D" in err and "not invertible" in err


def module_level_names(source):
    """Names of the functions and classes a module defines at top level."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    return [node.name for node in ast.parse(source).body if isinstance(node, kinds)]


def referenced_names(sources):
    """Names read (plain or as an attribute) anywhere outside the body that defines them."""
    out = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            out.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for source in sources:
        visit(ast.parse(source), frozenset())
    return out


def unreferenced(def_sources, sources):
    used = referenced_names(sources)
    return sorted(name for s in def_sources for name in module_level_names(s) if name not in used)


def test_reference_checker_flags_dead_definitions():
    defs = (
        "def used(): pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class K:\n    def m(self):\n        return K()\n"
        "def via_attr(): pass\n"
        "def only_imported(): pass\n"
    )
    users = "from mod import only_imported\nused()\nmod.via_attr\n"
    assert unreferenced([defs], [defs, users]) == ["K", "only_imported", "recursive"]


def test_every_module_level_definition_is_referenced():
    # a function or class nothing names outside its own body is dead code
    dirs = ("src", "scripts", "perfbench", "tests")
    sources = [p.read_text() for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]
    defs = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreferenced(defs, sources) == []


def namespace_reads(fn):
    """Names read as ns.<name> in fn, outside the tests of raise-only ifs.

    A guard that only rejects a value (`if ns.x < 1: raise ...`) does not
    use it, so an option read nowhere else counts as unread.
    """
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    guards = {
        id(node.test)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and all(isinstance(s, ast.Raise) for s in node.body)
    }
    out = set()

    def visit(node):
        if id(node) in guards:
            return
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ns":
            out.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return out


def unread_options(parser, main, exempt):
    """ "subcommand --dest" for each option neither its handler nor main reads."""
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    read_by_main = namespace_reads(main)
    return sorted(
        f"{name} --{action.dest}"
        for name, sub in subs.choices.items()
        for action in sub._actions
        if action.option_strings
        and action.dest not in {"help", *exempt}
        and action.dest not in read_by_main | namespace_reads(sub.get_default("func"))
    )


def _reads_x(ns, field):
    if ns.y is None:
        raise ValueError("a guard is not a use")
    return ns.x


def _reads_nothing(ns, field):
    return field


def _toy_main(ns):
    return ns.func(ns, ns.z)


def test_option_checker_flags_unread_options():
    parser = argparse.ArgumentParser()
    subs = parser.add_subparsers()
    for name, handler in (("a", _reads_x), ("b", _reads_nothing)):
        p = subs.add_parser(name)
        p.set_defaults(func=handler)
        for flag in ("--x", "--y", "--z", "--config"):
            p.add_argument(flag)
    unread = unread_options(parser, _toy_main, exempt={"config"})
    assert unread == ["a --y", "b --x", "b --y"]


def test_every_cli_option_is_read():
    # --config is consumed by _apply_config before the parser runs
    assert unread_options(cli._build_parser(), cli.main, exempt={"config"}) == []
