"""Every exported name resolves, and the package exports its modules' names.

Removing a public name must also remove its export: a stale entry in
``__all__`` breaks ``from randonet import *`` and misleads readers, and
README examples (``test_readme``) use only some names. Each public module's
``__all__`` is the one list of its names; the package re-exports them.
"""

import importlib
import pkgutil

import pytest

import randonet

MODULES = [randonet] + [
    importlib.import_module(f"randonet.{info.name}")
    for info in pkgutil.iter_modules(randonet.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    names = getattr(module, "__all__", [])
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(set(names)) == len(names)


PUBLIC_MODULES = [randonet.embeddings, randonet.funcgen, randonet.harness, randonet.linalg,
                  randonet.model, randonet.problems]


def test_the_package_exports_what_its_public_modules_export():
    assert randonet.__all__ == [name for module in PUBLIC_MODULES
                                for name in module.__all__] + ["__version__"]
    assert [f"{module.__name__}.{name}" for module in PUBLIC_MODULES for name in module.__all__
            if getattr(randonet, name) is not getattr(module, name)] == []
