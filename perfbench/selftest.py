"""Self-test of the benchmark at toy sizes.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

For every workload and two workload seeds it runs the benchmark once
untraced and twice traced, and checks that the output checks pass, that
each metric named in BENCHMARK.json is emitted with its unit, and that
every count metric, and the ops attempted and failed, repeat exactly.
It then shows that each output check rejects a doctored output, and
that the benchmark refuses to run (exit code other than 0, no result
line) where the triq sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

from client import Client
from workloads import (DEFAULT_SEED, WORKLOADS, Op, Workload, check_calibrate, check_decay,
                       check_protect, check_tomo, decay_pass, protect_pass, tomo_pass)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


SEEDS = (DEFAULT_SEED, 7)
WORK = os.path.join(ROOT, ".perfbench_work", "selftest")


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc, what):
    if proc.returncode != 0:
        raise AssertionError("%s: exit %d: %s" % (what, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, spec, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True, "%s: an output check failed" % what
    assert result["attempted"] >= 1, what
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, "%s: metrics %s, expected %s" % (what, got, expected)


def run_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in WORKLOADS:
        for seed in SEEDS:
            what = "%s seed %d" % (workload, seed)
            check_result(result_of(bench(workload, seed, 0), what), spec["end_to_end"], what)
            traced = [result_of(bench(workload, seed, 1), what + " traced") for _ in range(2)]
            for r in traced:
                check_result(r, spec["per_layer"], what + " traced")
            for name in counts:
                a, b = (r["metrics"][name]["value"] for r in traced)
                assert a == b, "%s: count %s is %r, then %r" % (what, name, a, b)
            for key in ("attempted", "failed"):
                a, b = (r[key] for r in traced)
                assert a == b, "%s: %s is %r, then %r" % (what, key, a, b)
            print("ok  %s" % what, flush=True)


def rewrite(path, old, new):
    with open(path) as f:
        text = f.read()
    assert old in text, (path, old)
    with open(path, "w") as f:
        f.write(text.replace(old, new, 1))


def check_checks():
    """Each output check accepts a real output and rejects a doctored one."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from triq import cli, save_matrix

    client = Client(WORKLOADS["decay_fine"], 0, True, WORK, cli)
    op = decay_pass(0, True)[0]
    rc, _, out, _ = client.run_op(op)
    assert rc == 0
    assert check_decay(op, out, 0, "", True).status == "ok"
    csv = os.path.join(out, "decay.csv")
    with open(csv) as f:
        last = f.read().splitlines()[-1]
    rewrite(csv, last, ",".join("%.12g" % (float(v) + 2e-6) for v in last.split(",")))
    assert check_decay(op, out, 0, "", True).status == "wrong"

    op = protect_pass(DEFAULT_SEED, False)[0]
    shutil.rmtree(out)
    os.makedirs(out)
    for name in ("protected.csv", "unprotected.csv"):
        shutil.copy(os.path.join(HERE, "ref", "protect_seed%d_%s" % (DEFAULT_SEED, name)),
                    os.path.join(out, name))
    assert check_protect(op, out, 0, "", False).status == "ok"
    rewrite(os.path.join(out, "unprotected.csv"), "0.816443591545", "0.816643591545")
    assert check_protect(op, out, 0, "", False).status == "wrong"
    rewrite(os.path.join(out, "protected.csv"), "1.20602505165", "inf")
    assert check_protect(op, out, 0, "", True).status == "wrong"

    pinned = Op("calibrate", "calibrate", "", seed=2, pinned=True)
    with open(os.path.join(out, "calibration.txt"), "w") as f:
        f.write("bath.sigma_rad_s = 13.5\n# target_t2_s = 0.53\n"
                "# achieved_one_over_e_s = 0.531\n# bisection_iterations = 3\n")
    assert check_calibrate(pinned, out, 0, "", False).status == "ok"
    rewrite(os.path.join(out, "calibration.txt"), "13.5", "13.53125")
    assert check_calibrate(pinned, out, 0, "", False).status == "wrong"
    derived = Op("calibrate", "calibrate", "", seed=11)
    stalled = "numerical failure: calibration stalled 7.27% from the target 1/e time"
    assert check_calibrate(pinned, out, 3, stalled, False).status == "wrong"
    assert check_calibrate(derived, out, 3, stalled, False).status == "failed"
    assert check_calibrate(derived, out, 3, "numerical failure: no bracket: 1/e times",
                           False).status == "failed"
    # any other numerical failure is a fault, not the known defect
    assert check_calibrate(derived, out, 3, "numerical failure: Singular matrix",
                           False).status == "wrong"
    rewrite(os.path.join(out, "calibration.txt"), "0.531", "0.55")
    assert check_calibrate(derived, out, 0, "", False).status == "wrong"

    op = tomo_pass(0, True)[0]
    rc, _, out, _ = client.run_op(op)
    assert rc == 0
    assert check_tomo(op, out, 0, "", True).status == "ok"
    import numpy

    save_matrix(os.path.join(out, "tomo_reconstructed.json"), numpy.eye(8) / 8.0)
    assert check_tomo(op, out, 0, "", True).status == "wrong"

    def unreadable(op, out, rc, stderr, toy):
        return check_decay(op, os.path.join(out, "absent"), rc, stderr, toy)

    records = Client(Workload("unreadable", decay_pass, unreadable, (), 1), 0, True, WORK,
                     cli).run_passes(1)
    assert [r["status"] for r in records] == ["wrong"] * 3, records
    print("ok  output checks reject doctored outputs", flush=True)


def check_refuses_without_sources():
    bare = tempfile.mkdtemp(dir=WORK)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("decay_fine", DEFAULT_SEED, 0, cwd=bare)
    assert proc.returncode != 0, "ran without triq sources"
    assert '"correct"' not in proc.stdout, "printed a result without triq sources"
    print("ok  refuses to run without the triq sources", flush=True)


def main():
    os.makedirs(WORK, exist_ok=True)
    try:
        check_checks()
        check_refuses_without_sources()
        run_workloads()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass
    print("selftest passed")


if __name__ == "__main__":
    main()
