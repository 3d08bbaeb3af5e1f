"""triq's benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decay_fine --seed 2026 --seconds 30 --trace 0

Each run starts one client process (``client.py``), a fresh interpreter
that calls ``triq.cli.main(argv)`` in-process for each op of the
workload, one after another, and checks every op's outputs. Before it,
the run starts ``SETUP_PROBES`` clients that only set up and exit, each
after a reference interpreter that only imports numpy, to time set-up.
Op and set-up times are rescaled by speed references, because the
machine's own speed drifts (README.md). The last stdout line is the
result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced replay (see README.md for the map from
layer metrics to the end-to-end metric and workload they should move).
The line before it is a summary with the environment, the pass time
distribution and each failure. The full record is also written to
``.perfbench_out/`` in the checkout.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 6
# the speed references' times on the 2-vCPU Xeon VM this was built on;
# times are reported at that speed: one client.speed_sample taken inside
# an op, and the start of an interpreter that imports numpy
SAMPLE_NOMINAL_S = 0.00027
SETUP_REF_NOMINAL_S = 0.18
SETUP_REF = "import time, numpy; print(repr(time.monotonic()))"
CLIENT_TIMEOUT_S = 170.0
MIN_COVERAGE = 0.9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_client(args, work_dir, setup_only=False, timeout=CLIENT_TIMEOUT_S):
    """Start one client, wait for it, return (spawn time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "client.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.toy:
        cmd.append("--toy")
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("client did not finish within %.0f s" % timeout)
    if proc.returncode != 0:
        raise BenchError("client exited %d: %s" % (proc.returncode, err.strip()[-2000:]))
    return spawned, json.loads(out.strip().splitlines()[-1])


def percentile_summary(values):
    """Median, the highest decile percentile with >= 10 samples beyond it, n."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None}
    for q in (99, 95, 90, 75):
        if n - int(q / 100.0 * n) >= 10:
            out["p%d" % q] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def speed_factor(records):
    """How much slower the machine ran than nominal during these ops.

    The mean of nominal over measured time of the speed samples, which
    are evenly spread over op time; 1.0 without samples (toy sizes).
    """
    samples = [x for r in records for x in r["ref"]]
    if not samples:
        return 1.0
    return SAMPLE_NOMINAL_S * statistics.fmean(1.0 / x for x in samples)


def pass_times(records, at_reference_speed=True):
    """Summed op time of each pass, failed ops included.

    At reference speed, a pass's wall time is multiplied by the speed
    factor of the samples taken during it.
    """
    passes = defaultdict(list)
    for r in records:
        if r["pass"] is not None:
            passes[r["pass"]].append(r)
    times = []
    for k in sorted(passes):
        wall = sum(r["s"] for r in passes[k])
        times.append(wall * speed_factor(passes[k]) if at_reference_speed else wall)
    return times


def reference_setup():
    """Seconds from spawning an interpreter that imports numpy to it being ready."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_REF], cwd=ROOT, capture_output=True,
                          text=True, timeout=CLIENT_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("reference interpreter exited %d: %s"
                         % (proc.returncode, proc.stderr.strip()[-2000:]))
    return float(proc.stdout.strip()) - spawned


def environment(client_result):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "python": client_result["python"], "numpy": client_result["numpy"],
            "triq": client_result["triq"], "triq_commit": triq_commit(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def triq_commit():
    """The checkout's git commit, or a digest of its sources outside git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "triq")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def layer_metrics(result, workload):
    """Per-layer figures of the traced replay, per pass of the workload."""
    stats = result["stats"]
    traced = pass_times(result["traced"])
    passes = len(traced)

    def get(name, field):
        return stats.get(name, {}).get(field, 0.0)

    def summed(names, field):
        return sum(get(n, field) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    layers = defaultdict(lambda: {"calls": 0, "self": 0.0})
    for name, st in stats.items():
        layer = layers[name.split(".")[0]]
        layer["calls"] += st["calls"]
        layer["self"] += st["self"]
    unseen = [l for l in WORKLOADS[workload].layers if not layers[l]["calls"]]
    if unseen:
        raise BenchError("traced run recorded no call into layer %s on %s"
                         % (", ".join(unseen), workload))
    # the share of op time spent in spans below the entry point
    coverage = 1.0 - ratio(get("cli.main", "self"), sum(pass_times(result["traced"], False)))
    if coverage < MIN_COVERAGE:
        raise BenchError("named spans below cli.main cover only %.1f%% of the traced "
                         "op time on %s" % (100 * coverage, workload))

    samples = get("measures.curve_from_states", "work")
    closed = ("analytic.ghz_analytic", "analytic.w_analytic", "analytic.wwbar_analytic")
    prepare = ("states.prepare_ghz", "states.prepare_w", "states.prepare_wwbar")
    mle = sorted(stats.get("tomo.mle_reconstruct", {}).get("durations", []))
    m = {
        "noise.evolve_markovian.self_s": (get("noise.evolve_markovian", "self") / passes, "s"),
        "noise.evolve_correlated.self_s": (get("noise.evolve_correlated", "self") / passes, "s"),
        "noise.evolve_correlated.calls": (get("noise.evolve_correlated", "calls") / passes, "count"),
        "noise.evolve_correlated.traj_s_per_s": (
            ratio(get("noise.evolve_correlated", "work"),
                  get("noise.evolve_correlated", "self")), "traj_s/s"),
        "measures.curve_from_states.s": (get("measures.curve_from_states", "total") / passes, "s"),
        "measures.curve_from_states.self_s": (
            get("measures.curve_from_states", "self") / passes, "s"),
        "measures.scored_samples": (samples / passes, "count"),
        "measures.us_per_sample": (
            1e6 * ratio(get("measures.curve_from_states", "total"), samples), "us"),
        "measures.fidelity.s": (get("measures.fidelity", "total") / passes, "s"),
        "measures.negativity.calls_per_sample": (
            ratio(get("measures.negativity", "calls"), samples), "count"),
        "core.hermitian_eigs.calls_per_sample": (
            ratio(get("core.hermitian_eigs", "calls"), samples), "count"),
        "core.check_density.calls": (get("core.check_density", "calls") / passes, "count"),
        "core.check_density.s": (get("core.check_density", "total") / passes, "s"),
        "analytic.closed_form.s": (summed(closed, "total") / passes, "s"),
        "analytic.closed_form.calls": (summed(closed, "calls") / passes, "count"),
        "ddseq.run_protected.self_s": (get("ddseq.run_protected", "self") / passes, "s"),
        "ddseq.expand_schedule.s": (get("ddseq.expand_schedule", "total") / passes, "s"),
        "ddseq.pulses": (get("ddseq.expand_schedule", "work") / passes, "count"),
        "tomo.mle_reconstruct.s": (get("tomo.mle_reconstruct", "total") / passes, "s"),
        "tomo.mle_reconstruct.calls": (get("tomo.mle_reconstruct", "calls") / passes, "count"),
        "tomo.mle_reconstruct.p90_s": (
            statistics.quantiles(mle, n=10)[-1] if len(mle) > 1 else float(sum(mle)), "s"),
        "tomo.tomograph.s": (get("tomo.tomograph", "total") / passes, "s"),
        "states.prepare.s": (summed(prepare, "total") / passes, "s"),
        "cli.main.self_s": (get("cli.main", "self") / passes, "s"),
    }
    for layer in ("cli", "core", "states", "noise", "analytic", "measures", "ddseq", "tomo"):
        m[layer + ".self_s"] = (layers[layer]["self"] / passes, "s")
    # every pass does the same work, traced or not
    m["trace.overhead_frac"] = (
        ratio(statistics.median(traced), statistics.median(pass_times(result["plain"])))
        - 1.0, "frac")
    m["trace.coverage_frac"] = (coverage, "frac")
    return m


def measure(args):
    workload = WORKLOADS[args.workload]
    per_pass = len(workload.make_pass(args.seed, args.toy))
    work_root = os.path.join(ROOT, ".perfbench_work")
    work_dir = os.path.join(work_root, "%s-%d" % (args.workload, os.getpid()))
    setups, references = [], []
    try:
        for k in range(0 if args.trace else SETUP_PROBES):
            references.append(reference_setup())
            spawned, probe = run_client(args, os.path.join(work_dir, "probe%d" % k),
                                        setup_only=True)
            setups.append(probe["ready"] - spawned)
        spawned, result = run_client(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)

    records = result["plain"] + result.get("traced", [])
    slowdown = 1.0 / speed_factor(result["plain"])
    if args.trace:
        metrics = layer_metrics(result, args.workload)
    else:
        metrics = {"run_s": (statistics.median(pass_times(result["plain"])), "s"),
                   "setup_s": (statistics.median(setups) * SETUP_REF_NOMINAL_S
                               / statistics.median(references), "s"),
                   "peak_rss_mb": (result["peak_rss_mb"], "MB")}
    failures = [r for r in records if r["status"] != "ok"]
    for r in failures:
        print("perfbench: %s op %s seed %s failed: %s"
              % (r["status"], r["kind"], r["seed"], r["message"]), file=sys.stderr)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "env": environment(result),
        "run_s": percentile_summary(pass_times(result["plain"])),
        "run_wall_s": percentile_summary(pass_times(result["plain"], False)),
        "slowdown": slowdown,
        "fail_frac": len(failures) / len(records),
        "failures": [{k: r[k] for k in ("kind", "seed", "rc", "status", "message")}
                     for r in failures],
        "setup_wall_s": setups, "setup_reference_s": references,
        "client_setup_wall_s": result["ready"] - spawned,
        "ops_per_pass": per_pass, "passes": len(pass_times(result["plain"])),
    }
    final = {"correct": not any(r["status"] == "wrong" for r in records),
             "attempted": len(records), "failed": len(failures),
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace,
                                         "-toy" if args.toy else "")
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump({"summary": summary, "result": final, "records": records}, f, indent=1)
    print("perfbench summary: " + json.dumps(summary))
    print(json.dumps(final))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink every workload, for the self-test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not os.path.isfile(os.path.join(ROOT, "src", "triq", "__init__.py")):
        print("perfbench: no triq sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        measure(args)
    except BenchError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
