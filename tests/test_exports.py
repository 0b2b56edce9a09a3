"""Every exported name resolves.

Removing a public name must also remove its export: a stale entry in
``__all__`` breaks ``from randonet import *`` and misleads readers, and
README examples (``test_readme``) use only some names.
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
