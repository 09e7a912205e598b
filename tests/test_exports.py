from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import oddsolve


def test_every_exported_name_resolves():
    """No `__all__` lists a name its module no longer defines."""
    modules = [oddsolve] + [importlib.import_module(f"oddsolve.{info.name}")
                            for info in pkgutil.iter_modules(oddsolve.__path__)]
    assert len(modules) > 5
    for module in modules:
        exported = module.__all__
        assert len(set(exported)) == len(exported), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def _module_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_every_private_module_name_is_used():
    """A module-level name with one leading underscore is referenced
    somewhere in the package besides its definition: a helper whose last
    caller went is deleted with it."""
    src = Path(oddsolve.__file__).parent
    texts = {path: path.read_text() for path in sorted(src.glob("*.py"))}
    unused = []
    for path, text in texts.items():
        for name in _module_level_names(ast.parse(text)):
            if not name.startswith("_") or name.startswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if sum(len(word.findall(t)) for t in texts.values()) < 2:
                unused.append(f"{path.name}:{name}")
    assert not unused, unused
