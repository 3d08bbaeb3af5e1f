"""Smoke tests: each demo script, and the README's library tour, runs to
completion."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_python(args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable] + args, env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", ["entanglement_sudden_death.py",
                                    "dd_protection.py",
                                    "tomography_roundtrip.py"])
def test_demo_runs(script):
    done = _run_python([os.path.join(ROOT, "demos", script)])
    assert done.returncode == 0, done.stderr


def test_readme_library_tour_runs():
    # the documented API must stay the real one
    with open(os.path.join(ROOT, "README.md")) as f:
        readme = f.read()
    tour = re.search(r"^## Library tour\n.*?^```python\n(.*?)^```$", readme,
                     re.MULTILINE | re.DOTALL)
    assert tour, "no python block under '## Library tour' in README.md"
    done = _run_python(["-c", tour.group(1)])
    assert done.returncode == 0, done.stderr
