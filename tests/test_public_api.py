import importlib
import pkgutil

import pytest

import triq

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(triq.__path__))


def test_submodules_are_found():
    assert {"core", "states", "noise", "measures", "cli"} <= set(SUBMODULES)


@pytest.mark.parametrize("module", ["triq"] + ["triq." + m for m in SUBMODULES])
def test_every_all_entry_resolves(module):
    # a stale entry breaks `from triq import *` and every tool that walks
    # __all__ with getattr
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import_runs():
    namespace = {}
    exec("from triq import *", namespace)
    assert set(triq.__all__) <= set(namespace)
