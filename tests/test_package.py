import ast
import importlib
import inspect
import pkgutil
import re
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


# Defaulted parameters that no call in src/, scripts/ or perfbench/ sets, kept
# on purpose: "module.callable.parameter" -> why.
UNSET_DEFAULTS_KEPT = {
    "alignment.optimality_sweep.num_taps": "acceptance criterion 7 passes num_taps=2",
    "training.TrainConfig.delta_budget": "acceptance criterion 9 reads it into its slack",
    "ntk.expectation_E_quadrature.n_points": "tests pass it; perfbench/tracer.py reads it",
    "ntk.expectation_E_first_layer.n_points": "tests pass it; perfbench/tracer.py reads it",
}


def _defaulted_parameters(tree: ast.Module, module: str):
    """(module.callable.name, callable, positional index or None) per defaulted
    parameter or dataclass field; a class's ``__init__`` is called by the class name."""
    for cls in [None, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        body = tree.body if cls is None else cls.body
        decorators = [] if cls is None else cls.decorator_list
        if any(_callee(getattr(d, "func", d)) == "dataclass" for d in decorators):
            fields = [s for s in body if isinstance(s, ast.AnnAssign)]
            for i, f in enumerate(fields):
                if f.value is not None:
                    yield f"{module}.{cls.name}.{f.target.id}", cls.name, i
        for fn in (n for n in body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))):
            nodes = [fn] + [n for n in ast.walk(fn) if n is not fn and isinstance(n, ast.FunctionDef)]
            for node in nodes:
                name = cls.name if cls is not None and node.name == "__init__" else node.name
                args = node.args.posonlyargs + node.args.args
                skip = int(cls is not None and node is fn and bool(args) and args[0].arg == "self")
                first = len(args) - len(node.args.defaults)
                for i, arg in enumerate(args[first:], start=first):
                    yield f"{module}.{name}.{arg.arg}", name, i - skip
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None:
                        yield f"{module}.{name}.{arg.arg}", name, None


def _callee(func) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(tree: ast.Module):
    """(callee name, positional count, keyword names, passes ** or *) per call;
    ``functools.partial(f, ...)`` is a call of f, ``dataclasses.replace(obj, ...)``
    one of every dataclass (callee None)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name, args = _callee(node.func), node.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            elif name == "replace":
                name, args = None, []
            star = any(isinstance(a, ast.Starred) for a in args)
            star |= any(k.arg is None for k in node.keywords)
            yield name, len(args), {k.arg for k in node.keywords}, star


def unset_defaults() -> list:
    """Defaulted parameters of src/ntkalign that no call in src/, scripts/ or
    perfbench/ passes by keyword, by position or through functools.partial."""
    calls = [
        call
        for folder in ("src", "scripts", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for call in _calls(ast.parse(path.read_text()))
    ]
    unset = []
    for path in sorted((ROOT / "src" / "ntkalign").glob("*.py")):
        for key, name, index in _defaulted_parameters(ast.parse(path.read_text()), path.stem):
            param = key.rsplit(".", 1)[1]
            if not any(
                callee in (name, None)
                and (param in kws or star or (index is not None and callee and npos > index))
                for callee, npos, kws, star in calls
            ):
                unset.append(key)
    return unset


def test_every_defaulted_parameter_is_set_somewhere():
    # a default that only ever runs as its default is a constant
    assert sorted(set(unset_defaults()) - set(UNSET_DEFAULTS_KEPT)) == []
    assert sorted(set(UNSET_DEFAULTS_KEPT) - set(unset_defaults())) == []
