import importlib
import pkgutil
import re
from pathlib import Path

import ntkalign

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_and_star_import_works():
    missing = [name for name in ntkalign.__all__ if not hasattr(ntkalign, name)]
    assert missing == []
    namespace = {}
    exec("from ntkalign import *", namespace)
    assert set(ntkalign.__all__) <= namespace.keys()


def _resolves(name: str) -> bool:
    """``name`` is bound on ``ntkalign`` or on one of its submodules."""
    modules = [ntkalign] + [
        importlib.import_module(f"ntkalign.{info.name}")
        for info in pkgutil.iter_modules(ntkalign.__path__)
    ]
    return any(hasattr(module, name) for module in modules)


def test_readme_names_resolve():
    # a deletion that leaves README naming the removed function fails here
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    names = {name for block in blocks for name in re.findall(r"\bnk\.(\w+)", block)}
    paragraph = re.search(r"Other entry points:(.*?)\n\n", text, flags=re.S).group(1)
    entry_points = set(re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", paragraph))
    assert len(names) >= 10 and len(entry_points) >= 8
    assert sorted(name for name in names | entry_points if not _resolves(name)) == []
