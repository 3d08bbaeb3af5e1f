import ast
import importlib
import pathlib
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


def test_import_hygiene():
    # imports stay at module level, where a cycle shows at load time, and
    # no module reaches into another's private names
    local_imports, private_uses = [], []
    for path in sorted(pathlib.Path(triq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local_imports += [
                    "%s:%d" % (path.name, node.lineno) for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module, names = node.value.id, [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                module, names = node.module, [a.name for a in node.names]
            else:
                continue
            private_uses += [
                "%s:%d %s.%s" % (path.name, node.lineno, module, name)
                for name in names if module in SUBMODULES
                and name.startswith("_") and not name.startswith("__")]
    assert not local_imports
    assert not private_uses
