from __future__ import annotations

import importlib
import pkgutil

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
