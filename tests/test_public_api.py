import ast
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def test_every_private_name_is_used_in_its_module():
    # a private module-level function, class or constant that its own
    # module never reads outside its definition is dead code, even when
    # a test still calls it
    unused = []
    for path in sorted(pathlib.Path(triq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        loads = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                continue
            own = {id(node) for node in ast.walk(stmt)}
            read = {node.id for node in loads if id(node) not in own}
            unused += ["%s:%d %s" % (path.name, stmt.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert not unused


def test_benchmark_tracer_binds_every_public_function():
    # perfbench/tracer.py wraps each name in a module's __all__ and raises
    # TraceError if a reference escapes it; run it as the benchmark does
    # it. A traced protected run must still reach expand_schedule, whose
    # result the benchmark counts as its pulses
    root = pathlib.Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, 'perfbench'); import tracer, triq.cli; "
            "t = tracer.Tracer(); t.install(); "
            "print(hasattr(triq.cli.write_curve_csv, '__wrapped__'), "
            "hasattr(triq.cli.render_svg, '__wrapped__')); "
            "t.active = True; "
            "triq.run_protected(triq.prepare_ghz(), triq.NoiseModel.from_times(), "
            "triq.build_xy16s(0.25e-3)); "
            "st = t.stats['ddseq.expand_schedule']; print(st.calls, st.work)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0, proc.stderr
    assert "TraceError" not in proc.stderr
    assert proc.stdout.split() == ["True", "True", "1", "16.0"]


def test_benchmark_tracer_sees_every_workload_layer(tmp_path):
    # one toy pass of each benchmark workload through triq.cli.main with
    # the tracer on, as a traced benchmark run makes it: no TraceError,
    # no op that the workload's own check calls wrong, and a call recorded
    # in every layer the workload names, which the benchmark requires
    # before it reads span coverage (coverage is timing and is not
    # checked here)
    root = pathlib.Path(__file__).resolve().parents[1]
    code = """
import json, os, sys
sys.path.insert(0, 'perfbench')
import client, tracer, workloads
triq = client.import_triq()
t = tracer.Tracer()
t.install()
report = {}
for name, workload in workloads.WORKLOADS.items():
    t.stats = {}
    work_dir = os.path.join(sys.argv[1], name)
    os.makedirs(work_dir)
    runner = client.Client(workload, workloads.DEFAULT_SEED, True, work_dir, triq.cli)
    records = runner.run_ops(workload.make_pass(workloads.DEFAULT_SEED, True), 0, t)
    called = {n.split('.')[0] for n, st in t.stats.items() if st.calls}
    report[name] = {'wrong': [r['message'] for r in records if r['status'] == 'wrong'],
                    'unseen': sorted(set(workload.layers) - called)}
print(json.dumps(report))
"""
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=root,
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0, proc.stderr
    assert "TraceError" not in proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(report) == ["calibrate_ou", "decay_fine", "protect_xy16", "tomo_mle"]
    for name, seen in report.items():
        assert seen == {"wrong": [], "unseen": []}, name
