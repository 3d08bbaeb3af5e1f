"""The golden outputs under tests/golden/: the CLI runs whose outputs are
committed there, and the comparison that test_golden.py makes.

A case is one ``triq`` command on one config. Its directory holds every
file the command writes except the SVG plot, plus ``stdout.txt``, the
command's standard output with its output directory written as
``<out>``. The plots are left out: they draw the CSV columns at six
significant digits, where a round-off change can flip a last digit,
and the CSVs hold the same numbers at twelve.

Two outputs agree when they have the same lines, every line has the
same text between its numbers, and every number is within 1e-10 of the
committed one. Raw bytes may differ between BLAS builds at that size.

Run this file to rerun every case on the tree at hand, overwrite the
committed files and print the SHA-256 digest of each file:

    PYTHONPATH=src python tests/regen_golden.py

A change that moves an output on purpose regenerates the files, and
``git diff tests/golden`` shows which values moved; a change that moves
none leaves ``git status`` clean.
"""

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile

from triq.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
ATOL = 1e-10

# the bath of the acceptance tests, calibrated at seed 11
_ACCEPTANCE_BATH = ("bath.mode = correlated\nbath.sigma_rad_s = 13.7117919922\n"
                    "bath.tau_c_s = 0.01\nbath.trajectories = 16\nseed = 2026\n"
                    "dd.tau_s = 0.00025\ndd.cycles = 2\n")
_TOMO = "state = %s\ntomo.noise_sigma = 0.05\nseed = 11\n"

# case -> (command, config text)
CASES = {
    "decay_w": ("decay", "state = w\n"),  # 1 s at the default 5 ms
    "decay_zero": ("decay", "state = w\ngrid.t_final_s = 0\n"),
    "protect_xy16s": ("protect", "state = ghz\ndd.sequence = xy16s\n"
                      + _ACCEPTANCE_BATH),
    "protect_kddxy": ("protect", "state = wwbar\ndd.sequence = kddxy\n"
                      "dd.flip_error = 0.01\n" + _ACCEPTANCE_BATH),
    "calibrate": ("calibrate", "bath.mode = correlated\nbath.trajectories = 128\n"
                  "calibrate.sigma_lo_rad_s = 12\ncalibrate.sigma_hi_rad_s = 16\n"
                  "seed = 2\n"),
    "tomo_ghz": ("tomo", _TOMO % "ghz"),
    "tomo_w": ("tomo", _TOMO % "w"),
    "tomo_wwbar": ("tomo", _TOMO % "wwbar"),
    "schedule_xy16s": ("schedule-dump", "dd.sequence = xy16s\ndd.tau_s = 0.0002\n"),
    "schedule_kddxy": ("schedule-dump", "dd.sequence = kddxy\ndd.tau_s = 0.00025\n"),
}


def run_case(case, work):
    """Run ``case`` in the empty directory ``work``. Returns the exit code
    and {file name: text} of its outputs, as the case directory holds
    them."""
    command, config = CASES[case]
    cfg = os.path.join(work, "config.txt")
    out = os.path.join(work, "out")
    with open(cfg, "w") as f:
        f.write(config)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main([command, "--config", cfg, "--out", out])
    files = {"stdout.txt": stdout.getvalue().replace(out, "<out>")}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        if not name.endswith(".svg"):
            with open(os.path.join(out, name), newline="") as f:
                files[name] = f.read()
    return rc, files


def read_case(case):
    """{file name: text} of the committed outputs of ``case``."""
    folder = os.path.join(GOLDEN, case)
    files = {}
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), newline="") as f:
            files[name] = f.read()
    return files


# a decimal number; the text between numbers must match exactly
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def differences(want, got):
    """The lines of ``got`` that do not agree with ``want``, each named
    with its line number, or [] when they agree."""
    want, got = want.splitlines(), got.splitlines()
    if len(want) != len(got):
        return ["%d lines, want %d" % (len(got), len(want))]
    out = []
    for i, (a, b) in enumerate(zip(want, got), 1):
        pa, pb = _NUMBER.split(a), _NUMBER.split(b)
        # split() puts the numbers at the odd places
        if (len(pa) != len(pb) or pa[::2] != pb[::2]
                or any(abs(float(x) - float(y)) > ATOL
                       for x, y in zip(pa[1::2], pb[1::2]))):
            out.append("line %d: %r, want %r" % (i, b, a))
    return out


def regenerate():
    """Rerun every case, overwrite its committed files and print their
    digests; exit 1 if a case does not exit 0."""
    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            rc, files = run_case(case, work)
        if rc != 0:
            sys.exit("case %s exited %d" % (case, rc))
        folder = os.path.join(GOLDEN, case)
        os.makedirs(folder, exist_ok=True)
        for name in os.listdir(folder):
            os.remove(os.path.join(folder, name))
        for name, text in files.items():
            with open(os.path.join(folder, name), "w", newline="") as f:
                f.write(text)
            print("%s  %s/%s" % (hashlib.sha256(text.encode()).hexdigest(),
                                 case, name))


if __name__ == "__main__":
    regenerate()
