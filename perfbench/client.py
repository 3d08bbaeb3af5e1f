"""One benchmark client: a fresh interpreter running a workload's ops.

Started by ``run.py``, never by hand. The client imports triq from the
checkout's ``src`` directory, then calls ``triq.cli.main(argv)``
in-process for each op of the workload, one after another (a closed
loop with one client), and checks each op's outputs outside the timed
region. It prints one JSON object on its last stdout line.

While an op runs, the client also times a small fixed piece of numpy
work, the speed reference, every ``SAMPLE_PERIOD_S`` seconds of op time,
so that ``run.py`` can take the machine's drifting speed out of the op
times.

Phases: ``plain`` runs the workload's probes once and then a fixed
number of passes untraced; ``traced`` installs the tracer and runs the
same passes again. Every pass of a run does the same work, and the
number of passes depends only on ``--seconds`` (``Workload.passes``), so
a run attempts the same ops whatever the machine's speed.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import time

import numpy

from tracer import Tracer
from workloads import WORKLOADS, Verdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SAMPLE_PERIOD_S = 0.2
_REF_RNG = numpy.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((8, 8)) + 1j * _REF_RNG.standard_normal((8, 8))
_REF_H = _REF_A @ _REF_A.conj().T


def _reference_work():
    b = _REF_A @ _REF_H
    numpy.linalg.eigvalsh(_REF_H + b @ b.conj().T)
    numpy.einsum("ab,ba->", b, _REF_H)


def speed_sample():
    """Seconds a small fixed piece of numpy work takes now (about 0.3 ms).

    The work is of the kind triq does: 8 x 8 complex products, Hermitian
    eigenvalues, traces. One untimed round first warms the code paths,
    which the op may have left cold; without it the sample depends on
    what the op was doing.
    """
    _reference_work()
    t0 = time.perf_counter()
    for _ in range(8):
        _reference_work()
    return time.perf_counter() - t0


class SpeedSampler:
    """Takes a speed sample every ``SAMPLE_PERIOD_S`` seconds of op time.

    The samples come from a SIGALRM handler, so they land inside the op.
    The timer pauses between ops, so the samples spread evenly over op
    time, short ops included. ``spent`` is the time the handler took,
    which the op's time leaves out.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._on = False
        self._left = SAMPLE_PERIOD_S
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if not self._on:  # delivered after stop(), outside the op
            return
        t0 = time.perf_counter()
        self.samples.append(speed_sample())
        self.spent += time.perf_counter() - t0

    def start(self):
        self.samples = []
        self.spent = 0.0
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, self._left, SAMPLE_PERIOD_S)

    def stop(self):
        left, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        self._on = False
        self._left = left or SAMPLE_PERIOD_S


def import_triq():
    sys.path.insert(0, SRC)
    import triq
    import triq.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(triq.__file__))) != SRC:
        raise ImportError("triq imported from %s, not from %s" % (triq.__file__, SRC))
    return triq


class Client:
    def __init__(self, workload, seed, toy, work_dir, cli):
        self.workload = workload
        self.seed = seed
        self.toy = toy
        self.work_dir = work_dir
        self.cli = cli
        self.sampler = SpeedSampler()

    def ops(self):
        return self.workload.make_pass(self.seed, self.toy)

    def run_op(self, op):
        tag = op.kind.replace(":", "_")
        out = os.path.join(self.work_dir, "out", tag)
        # a check must never read a file an earlier op left behind
        shutil.rmtree(out, ignore_errors=True)
        cfg = os.path.join(self.work_dir, tag + ".cfg")
        with open(cfg, "w") as f:
            f.write(op.config)
        argv = [op.command, "--config", cfg, "--out", out]
        if op.seed is not None:
            argv += ["--seed", str(op.seed)]
        # the op's stdout would mix with this client's result line
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            rc = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
        return rc, elapsed, out, stderr.getvalue()

    def run_ops(self, ops, index, tracer=None):
        """Run and check ops one after another; return one record per op.

        Each record carries the speed samples taken during its op.
        """
        records = []
        for op in ops:
            if tracer is not None:
                tracer.active = True
            self.sampler.start()
            rc, elapsed, out, stderr = self.run_op(op)
            self.sampler.stop()
            if tracer is not None:
                tracer.active = False
            try:
                verdict = self.workload.check(op, out, rc, stderr, self.toy)
            except (OSError, ValueError, KeyError, IndexError) as err:
                verdict = Verdict("wrong", "unreadable output: %r" % err)
            records.append({"pass": index, "kind": op.kind, "seed": op.seed,
                            "s": elapsed - self.sampler.spent, "ref": self.sampler.samples,
                            "rc": rc, "status": verdict.status, "message": verdict.message})
        return records

    def run_passes(self, passes, tracer=None):
        """Run the given number of passes; return one record per op.

        Untraced, the workload's probe ops run once first, in no pass.
        """
        records = []
        if tracer is None:
            records += self.run_ops(self.workload.make_probe(self.seed, self.toy), None)
        for index in range(passes):
            records += self.run_ops(self.ops(), index, tracer)
        return records


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    triq = import_triq()
    os.makedirs(args.work_dir, exist_ok=True)
    client = Client(WORKLOADS[args.workload], args.seed, args.toy, args.work_dir, triq.cli)
    client.ops()
    ready = time.monotonic()
    result = {"ready": ready, "python": sys.version.split()[0],
              "numpy": numpy.__version__, "triq": triq.__version__}
    if not args.setup_only:
        workload = WORKLOADS[args.workload]
        if args.trace:
            passes = workload.passes(args.seconds / 2.0)
            result["plain"] = client.run_passes(passes)
            tracer = Tracer()
            tracer.install()
            result["traced"] = client.run_passes(passes, tracer)
            result["stats"] = {name: {"calls": st.calls, "total": st.total,
                                      "self": st.self_time, "work": st.work,
                                      "durations": st.durations}
                               for name, st in tracer.stats.items()}
        else:
            result["plain"] = client.run_passes(workload.passes(args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(os.path.join(args.work_dir, "out"), ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
