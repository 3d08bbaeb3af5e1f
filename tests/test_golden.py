"""Every CLI command reproduces its committed outputs under tests/golden/
(regen_golden.py states the cases and what agreement means)."""

import pytest

from regen_golden import CASES, differences, read_case, run_case


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(tmp_path, case):
    rc, got = run_case(case, str(tmp_path))
    assert rc == 0
    want = read_case(case)
    assert sorted(got) == sorted(want)
    for name in want:
        assert differences(want[name], got[name]) == [], name
