"""The benchmark's workloads: the CLI operations of one pass and their checks.

A workload is a list of ``triq`` CLI operations (a pass), generated from
the workload seed alone, so every pass of a run does the same work. A
check reads an op's output files and returns a ``Verdict``.

Where an op's work depends on its seed (the bisection length of
``calibrate``, the MLE iterations of ``tomo``), the timed pass uses fixed
seeds, and ops seeded from the workload seed run once per run as
*probes*: checked and counted like any op, but in no timed pass.

Why these four:

- ``decay_fine``: the Markovian integrator and, above all, the metric
  layer that scores every sample (``measures``, ``core``), plus the
  closed-form oracle (``analytic``). No randomness.
- ``protect_xy16``: the correlated-bath ensemble under an XY-16(s)
  train (``noise.evolve_correlated``, ``ddseq``); scoring is negligible.
- ``calibrate_ou``: the same ``noise`` layer used differently (no
  pulses, no damping, many short propagations), so per-call set-up
  added to ``evolve_correlated`` shows here.
- ``tomo_mle``: readout simulation and MLE reconstruction (``tomo``),
  which no other workload touches.
"""

import hashlib
import math
import os
from dataclasses import dataclass

DEFAULT_SEED = 2026
# seeds the timed ops whose work depends on the seed, the same in every run
CORPUS_SEED = DEFAULT_SEED
HERE = os.path.dirname(os.path.abspath(__file__))

# the acceptance bath of tests/test_acceptance.py
PROTECT_SIGMA = 13.7117919922
# calibrate config pinned by the CLI test suite: seed 2 lands on this sigma
CALIBRATE_PIN_SEED = 2
CALIBRATE_PIN_SIGMA = 13.5
# the two documented ways calibrate gives up (exit 3) at too few trajectories
CALIBRATE_DEFECTS = ("calibration stalled", "no bracket")
STATES = ("ghz", "w", "wwbar")


def derive_seed(seed, *labels):
    """A u64 seed derived from the workload seed and some labels."""
    text = ":".join(str(x) for x in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


@dataclass(frozen=True)
class Op:
    """One ``triq`` CLI invocation."""

    kind: str  # a label for logs and the op's output directory
    command: str
    config: str
    seed: int = None
    pinned: bool = False  # the op whose output a test of the suite pins


@dataclass(frozen=True)
class Verdict:
    """Outcome of one op: ``ok``, ``failed`` (a documented failure of the
    program, counted against it) or ``wrong`` (an output check failed or
    the op failed where it must not)."""

    status: str
    message: str = ""


OK = Verdict("ok")


def _unexpected(rc, stderr):
    return Verdict("wrong", "exit %d: %s" % (rc, stderr.strip()))


def _read_csv(path):
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in f if line.strip()]
    return header, rows


def _max_abs_diff(a, b):
    (ha, ra), (hb, rb) = a, b
    if ha != hb or len(ra) != len(rb):
        return math.inf
    return max((abs(x - y) for r, s in zip(ra, rb) for x, y in zip(r, s)), default=0.0)


# -- decay_fine ------------------------------------------------------------

def decay_pass(seed, toy):
    order = sorted(STATES, key=lambda s: derive_seed(seed, s))
    t_final = 0.05 if toy else 1.0
    return [Op("decay:" + s, "decay",
               "state = %s\ngrid.t_final_s = %r\ngrid.step_s = 0.0005\n" % (s, t_final))
            for s in order]


def check_decay(op, out, rc, stderr, toy):
    if rc != 0:
        return _unexpected(rc, stderr)
    numeric = _read_csv(os.path.join(out, "decay.csv"))
    oracle = _read_csv(os.path.join(out, "decay_analytic.csv"))
    diff = _max_abs_diff(numeric, oracle)
    if not diff <= 1e-6:
        return Verdict("wrong", "decay.csv is %.3g from decay_analytic.csv" % diff)
    return OK


# -- protect_xy16 ----------------------------------------------------------

def protect_pass(seed, toy):
    cycles, traj = (1, 8) if toy else (10, 64)
    return [Op("protect", "protect",
               "state = ghz\nbath.mode = correlated\nbath.sigma_rad_s = %r\n"
               "bath.tau_c_s = 0.01\nbath.trajectories = %d\ndd.sequence = xy16s\n"
               "dd.tau_s = 0.00025\ndd.cycles = %d\n" % (PROTECT_SIGMA, traj, cycles),
               seed=seed)]


def protect_reference(name):
    return os.path.join(HERE, "ref", "protect_seed%d_%s" % (DEFAULT_SEED, name))


def check_protect(op, out, rc, stderr, toy):
    if rc != 0:
        return _unexpected(rc, stderr)
    header, rows = _read_csv(os.path.join(out, "protected.csv"))
    factor = rows[-1][header.index("protection_factor")]
    if not (math.isfinite(factor) and factor > 0.0):
        return Verdict("wrong", "protection factor %r" % factor)
    if op.seed == DEFAULT_SEED and not toy:
        for name in ("protected.csv", "unprotected.csv"):
            diff = _max_abs_diff(_read_csv(os.path.join(out, name)),
                                 _read_csv(protect_reference(name)))
            if not diff <= 1e-4:
                return Verdict("wrong", "%s is %.3g from the reference" % (name, diff))
    return OK


# -- calibrate_ou ----------------------------------------------------------

_CALIBRATE = ("bath.mode = correlated\nbath.trajectories = %d\n"
              "calibrate.sigma_lo_rad_s = 12\ncalibrate.sigma_hi_rad_s = 16\n")


def calibrate_pass(seed, toy):
    return [Op("calibrate", "calibrate", _CALIBRATE % 128, seed=CALIBRATE_PIN_SEED,
               pinned=True)]


def calibrate_probe(seed, toy):
    # its bisection length, and so its time, depends on the seed (2.7 to
    # 14 s), so it runs once per run, outside the timed passes
    return [Op("calibrate:derived", "calibrate", _CALIBRATE % (8 if toy else 128),
               seed=derive_seed(seed, "calibrate"))]


def no_probe(seed, toy):
    return []


def _calibration(out):
    values = {}
    with open(os.path.join(out, "calibration.txt")) as f:
        for line in f:
            key, sep, value = line.lstrip("# ").partition("=")
            if sep:
                values[key.strip()] = value.strip()
    return values


def check_calibrate(op, out, rc, stderr, toy):
    if rc == 3 and not op.pinned and any(d in stderr for d in CALIBRATE_DEFECTS):
        # the known defect: at 128 trajectories the ensemble mean cannot
        # reach the target for some seeds, and calibrate exits 3
        return Verdict("failed", stderr.strip())
    if rc != 0:
        return _unexpected(rc, stderr)
    cal = _calibration(out)
    sigma = float(cal["bath.sigma_rad_s"])
    target = float(cal["target_t2_s"])
    achieved = float(cal["achieved_one_over_e_s"])
    if not abs(achieved - target) <= 0.02 * target:
        return Verdict("wrong", "1/e time %.6g s is more than 2%% from T2 %.6g s"
                       % (achieved, target))
    if op.pinned and not abs(sigma - CALIBRATE_PIN_SIGMA) <= 1e-9:
        return Verdict("wrong", "seed %d calibrated sigma %r, pinned %r"
                       % (op.seed, sigma, CALIBRATE_PIN_SIGMA))
    return OK


# -- tomo_mle --------------------------------------------------------------

TOMO_SIGMAS = (0.02, 0.05, 0.1)


def _tomo_ops(seed, readouts):
    return [Op("tomo:%s:%g" % (state, sigma), "tomo",
               "state = %s\ntomo.noise_sigma = %r\n" % (state, sigma),
               seed=derive_seed(seed, r, state, sigma))
            for r in readouts for state in STATES for sigma in TOMO_SIGMAS]


def tomo_pass(seed, toy):
    # a fixed corpus: MLE time per op depends on the readout seed (0.03 to
    # 2.4 s), so the sum of 36 ops still spreads by about 30% between seeds
    return _tomo_ops(CORPUS_SEED, range(1 if toy else 4))


def tomo_probe(seed, toy):
    return _tomo_ops(seed, ("probe",))


def mle_cost(rho, records):
    """The Gaussian cost that ``mle_reconstruct`` minimizes, from outside."""
    from triq import simulate_readout

    cost = 0.0
    for rec in records:
        pred = simulate_readout(rho, rec.setting).values
        cost += sum((p - y) ** 2 for p, y in zip(pred, rec.values))
    return cost


def check_tomo(op, out, rc, stderr, toy):
    from triq import load_matrix, read_records

    if rc != 0:
        return _unexpected(rc, stderr)
    records = read_records(os.path.join(out, "tomo_records.txt"))
    est = mle_cost(load_matrix(os.path.join(out, "tomo_reconstructed.json")), records)
    true = mle_cost(load_matrix(os.path.join(out, "tomo_true.json")), records)
    # slack for rounding only: the estimate minimizes the cost over all states
    if not est <= true * (1.0 + 1e-9):
        return Verdict("wrong", "MLE cost %.9g exceeds the true state's %.9g" % (est, true))
    return OK


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: object
    check: object
    layers: tuple  # layers the traced run must see called
    # passes in a run of 30 s; on the 2-vCPU VM this was built on such a
    # run, probes and set-up included, takes 18-38 s
    passes_per_30s: int
    make_probe: object = no_probe  # ops checked once per run, in no timed pass

    def passes(self, seconds):
        """The number of passes of a run of ``seconds``, at least one.

        It depends on ``seconds`` alone, not on how fast the machine is
        now, so every run of a workload attempts the same ops.
        """
        return max(1, int(self.passes_per_30s * seconds / 30.0))


WORKLOADS = {w.name: w for w in (
    Workload("decay_fine", decay_pass, check_decay,
             ("noise", "measures", "core", "analytic", "states", "cli"), 3),
    Workload("protect_xy16", protect_pass, check_protect,
             ("noise", "ddseq", "states", "cli"), 3),
    Workload("calibrate_ou", calibrate_pass, check_calibrate,
             ("noise", "measures", "core", "cli"), 3, calibrate_probe),
    Workload("tomo_mle", tomo_pass, check_tomo, ("tomo", "states", "cli"), 3, tomo_probe),
)}
