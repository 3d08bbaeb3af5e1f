"""Each demo script reproduces its committed standard output under
tests/golden/demos/ (compared as test_golden.py compares the CLI's), and
the README's library tour runs to completion."""

import os
import re

import pytest

from regen_golden import DEMOS, ROOT, demo_path, differences, run_demo, run_python


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script):
    done = run_demo(script)
    assert done.returncode == 0, done.stderr
    with open(demo_path(script), newline="") as f:
        want = f.read()
    assert differences(want, done.stdout) == []


def test_readme_library_tour_runs():
    # the documented API must stay the real one
    with open(os.path.join(ROOT, "README.md")) as f:
        readme = f.read()
    tour = re.search(r"^## Library tour\n.*?^```python\n(.*?)^```$", readme,
                     re.MULTILINE | re.DOTALL)
    assert tour, "no python block under '## Library tour' in README.md"
    done = run_python(["-c", tour.group(1)])
    assert done.returncode == 0, done.stderr
