import ast
import builtins
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import ntkalign
from ntkalign import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_public_names_resolve_and_star_import_works():
    missing = [name for name in ntkalign.__all__ if not hasattr(ntkalign, name)]
    assert missing == []
    namespace = {}
    exec("from ntkalign import *", namespace)
    assert set(ntkalign.__all__) <= namespace.keys()


def _lookup(name: str):
    """What ``name`` is bound to on ``ntkalign`` or on one of its submodules, or None."""
    modules = [ntkalign] + [
        importlib.import_module(f"ntkalign.{info.name}")
        for info in pkgutil.iter_modules(ntkalign.__path__)
    ]
    return next((getattr(m, name) for m in modules if hasattr(m, name)), None)


def test_readme_names_resolve():
    # a deletion that leaves README naming the removed function fails here
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    names = {name for block in blocks for name in re.findall(r"\bnk\.(\w+)", block)}
    paragraph = re.search(r"Other entry points:(.*?)\n\n", text, flags=re.S).group(1)
    entry_points = set(re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", paragraph))
    assert len(names) >= 10 and len(entry_points) >= 8
    assert sorted(name for name in names | entry_points if _lookup(name) is None) == []
    # every keyword the paragraph shows, such as `layer="both"`, is a parameter of
    # a function it names
    keywords = set(re.findall(r"`(\w+)=[^`]*`", paragraph))
    parameters = {
        param
        for name in entry_points
        if callable(_lookup(name))
        for param in inspect.signature(_lookup(name)).parameters
    }
    assert keywords and sorted(keywords - parameters) == []
    # and every script and subcommand it names still exists
    scripts = set(re.findall(r"\bscripts/(\w+\.py)\b", text))
    subcommands = set(re.findall(r"(?<!import )\bntkalign ([a-z][\w-]*)", text))
    assert scripts and len(subcommands) >= 3
    assert sorted(s for s in scripts if not (ROOT / "scripts" / s).is_file()) == []
    assert sorted(subcommands - set(cli.COMMANDS)) == []
    # and every flag it gives a subcommand is one that subcommand's parser has,
    # but for the removed flags it names as removed, which the parser must not have
    options = _parser_options()
    uses = _readme_flag_uses(text)
    assert len(uses) >= 20
    unknown = {(sub, flag) for sub, flag in uses if flag not in options.get(sub, ())}
    assert sorted(unknown - README_REMOVED_FLAGS) == []
    assert sorted((set(uses) - unknown) & README_REMOVED_FLAGS) == []


# Flags the README names only to say that they were removed.
README_REMOVED_FLAGS = {("align", "--xi"), ("verify-bounds", "--alpha"), ("verify-bounds", "--eta")}


def _parser_options() -> dict:
    """Subcommand -> the option strings its parser accepts."""
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    return {name: {opt for action in sp._actions for opt in action.option_strings}
            for name, sp in subparsers.choices.items()}


def _readme_flag_uses(text: str) -> list:
    """(subcommand, --flag) for each flag of a backticked `<subcommand> --flag ...` span,
    and of each `ntkalign <subcommand> ...` line of an sh block."""
    names = "|".join(map(re.escape, cli.COMMANDS))
    uses = [(sub, flag)
            for sub, rest in re.findall(rf"`({names})\s+(--[^`]*)`", text)
            for flag in re.findall(r"--[a-z][a-z0-9-]*", rest)]
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["ntkalign"] and len(words) > 1:
                uses += [(words[1], word.partition("=")[0])
                         for word in words[2:] if word.startswith("--")]
    return uses


# Defaulted parameters that no call in src/, scripts/ or perfbench/ sets, kept
# on purpose: "module.callable.parameter" -> why.
UNSET_DEFAULTS_KEPT = {
    "ntk.expectation_E_quadrature.n_points": "tests pass it; perfbench/tracer.py reads it",
    "ntk.expectation_E_first_layer.n_points": "tests pass it; perfbench/tracer.py reads it",
}


def _admits(node: ast.FunctionDef):
    """Whether a call (positional count, keyword names) fits ``node``'s parameters."""
    a = node.args
    names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
    positional = len(a.posonlyargs + a.args)
    return lambda npos, kws: ((a.vararg or npos <= positional)
                              and (a.kwarg or kws <= names))


def _defaulted_parameters(tree: ast.Module, module: str):
    """(module.callable.name, callable, positional index or None, admits) per
    defaulted parameter or dataclass field; a class's ``__init__`` is called by
    the class name.  ``admits`` is None but for a nested function, which a call
    through a variable may reach: then it is ``_admits`` of that function."""
    for cls in [None, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        body = tree.body if cls is None else cls.body
        decorators = [] if cls is None else cls.decorator_list
        if any(_callee(getattr(d, "func", d)) == "dataclass" for d in decorators):
            fields = [s for s in body if isinstance(s, ast.AnnAssign)]
            for i, f in enumerate(fields):
                if f.value is not None:
                    yield f"{module}.{cls.name}.{f.target.id}", cls.name, i, None
        for fn in (n for n in body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))):
            nodes = [fn] + [n for n in ast.walk(fn) if n is not fn and isinstance(n, ast.FunctionDef)]
            for node in nodes:
                name = cls.name if cls is not None and node.name == "__init__" else node.name
                admits = None if node is fn else _admits(node)
                args = node.args.posonlyargs + node.args.args
                skip = int(cls is not None and node is fn and bool(args) and args[0].arg == "self")
                first = len(args) - len(node.args.defaults)
                for i, arg in enumerate(args[first:], start=first):
                    yield f"{module}.{name}.{arg.arg}", name, i - skip, admits
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None:
                        yield f"{module}.{name}.{arg.arg}", name, None, admits


def _callee(func) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(tree: ast.Module):
    """(callee name, callee is a bare name, positional count, keyword names,
    passes ** or *) per call; ``functools.partial(f, ...)`` is a call of f,
    ``dataclasses.replace(obj, ...)`` one of every dataclass (callee None)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if _callee(func) == "partial" and args:
                func, args = args[0], args[1:]
            name = _callee(func)
            if name == "replace":
                name, args = None, []
            star = any(isinstance(a, ast.Starred) for a in args)
            star |= any(k.arg is None for k in node.keywords)
            yield name, isinstance(func, ast.Name), len(args), {k.arg for k in node.keywords}, star


def _bound_names(tree: ast.Module) -> set:
    """Names a ``def``, ``class`` or import binds in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def unset_defaults_in(modules: dict, callers: list) -> list:
    """Defaulted parameters of ``modules`` (name -> source) that no call in the
    ``callers`` sources passes by keyword, by position or through
    functools.partial.  A call names its callable, or, when it calls a bare
    name that no ``def``, ``class``, import or builtin binds (a variable, such
    as a pass closure handed to a loop), may reach any nested function whose
    parameters admit it."""
    trees = [ast.parse(source) for source in callers]
    known = set(dir(builtins)).union(*map(_bound_names, trees))
    calls = [call for tree in trees for call in _calls(tree)]
    unset = []
    for module, source in modules.items():
        for key, name, index, admits in _defaulted_parameters(ast.parse(source), module):
            param = key.rsplit(".", 1)[1]
            if not any(
                (callee in (name, None)
                 or (admits and bare and callee not in known and admits(npos, kws)))
                and (param in kws or star or (index is not None and callee and npos > index))
                for callee, bare, npos, kws, star in calls
            ):
                unset.append(key)
    return unset


def unset_defaults() -> list:
    """``unset_defaults_in`` src/ntkalign, with the calls in src/, scripts/ and perfbench/."""
    modules = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "ntkalign").glob("*.py"))}
    callers = [p.read_text() for folder in ("src", "scripts", "perfbench")
               for p in sorted((ROOT / folder).rglob("*.py"))]
    return unset_defaults_in(modules, callers)


CLOSURE_PASSED_BY_VARIABLE = """
def top(a, b=None):
    return a, b
def outer():
    def inner(flat, idx=None):
        return flat, idx
    run, alias = inner, top
    return run(1, 2), alias(1, 2)
"""

CLOSURE_NEVER_PASSED = """
def outer():
    def inner(flat, idx=None):
        return flat, idx
    run = inner
    return run(1), print(1, 2)
"""


def test_a_call_through_a_variable_sets_a_closure_default():
    # but not a module-level function's: those keep the exact name match
    source = CLOSURE_PASSED_BY_VARIABLE
    assert unset_defaults_in({"m": source}, [source]) == ["m.top.b"]


def test_a_closure_default_never_passed_is_reported():
    # run(1) leaves idx unset, and a builtin's call reaches no closure
    source = CLOSURE_NEVER_PASSED
    assert unset_defaults_in({"m": source}, [source]) == ["m.inner.idx"]


def test_every_defaulted_parameter_is_set_somewhere():
    # a default that only ever runs as its default is a constant
    assert sorted(set(unset_defaults()) - set(UNSET_DEFAULTS_KEPT)) == []
    assert sorted(set(UNSET_DEFAULTS_KEPT) - set(unset_defaults())) == []
