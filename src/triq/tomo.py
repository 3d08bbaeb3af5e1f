"""Seven-setting readout simulation and maximum-likelihood reconstruction.

A readout setting is a product of spin-selective pi/2 pulses named by a
three-letter label, one letter per qubit in index order: I leaves the
qubit alone, X rotates it by pi/2 about x, Y by pi/2 about y. The seven
settings {III, IIY, IYY, YII, XYX, XXY, XXX} together make the detected
amplitudes informationally complete. A setting is passed by its label.
Its 24 detected values are linear in rho: value m is Re(d_m . vec rho)
with the row d_m = conj(vec A_m), A_m the observable pulled back through
the setting pulse. The (24, 64) complex block of rows per setting is
built once, at import, and both readout simulation and reconstruction
use it.

Detection is line-resolved transverse magnetization: for each qubit i
and each z-configuration (bj, bk) of the other two qubits j < k, the
detector reports Tr(rho' (sx_i P_bj P_bk)) and Tr(rho' (sy_i P_bj P_bk))
after the setting pulse. That is 24 real numbers per setting and the
observable index runs

    index = 8 (i - 1) + 2 (2 bj + bk) + (0 for x, 1 for y).

Reconstruction minimizes the Gaussian cost of the recorded values over
density matrices by projected gradient on the 8x8 rho itself, its
gradient taken from the 64x64 Gram of the rows, at the step at which the
strongly convex cost contracts fastest. It certifies the result: it
returns once the convex duality gap, a bound on how far the cost is
above its minimum, is at most 1e-10. The Gram and its two eigenvalues
depend only on which settings the records hold, in which order, so they
are formed on the first fit of each order and kept, read-only; a fit
forms only the product of the rows with its values.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import P0, P1, SX, SY, check_density, kron
from .states import rotation

__all__ = [
    "SETTING_LABELS",
    "TomoRecord",
    "observable_list",
    "simulate_readout",
    "tomograph",
    "mle_reconstruct",
    "write_records",
    "read_records",
]

SETTING_LABELS = ("III", "IIY", "IYY", "YII", "XYX", "XXY", "XXX")

_PULSE_PHASE = {"X": 0.0, "Y": math.pi / 2.0}


@dataclass(frozen=True)
class TomoRecord:
    """Detected amplitudes for one setting, in the module's fixed
    24-entry observable order."""

    setting: str
    values: tuple

    def __post_init__(self):
        if self.setting not in SETTING_LABELS:
            raise ValueError("unknown setting %r" % (self.setting,))
        if len(self.values) != 24:
            raise ValueError("expected 24 values, got %d" % len(self.values))
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("values must be finite")


def observable_list():
    """The fixed 24 detection operators, in observable-index order."""
    ops = []
    for i in (1, 2, 3):
        j, k = (q for q in (1, 2, 3) if q != i)
        for bj in (0, 1):
            for bk in (0, 1):
                for sig in (SX, SY):
                    f = [None, None, None]
                    f[i - 1] = sig
                    f[j - 1] = (P0, P1)[bj]
                    f[k - 1] = (P0, P1)[bk]
                    ops.append(kron(kron(f[0], f[1]), f[2]))
    return ops


def _setting_unitary(label):
    u = np.eye(8, dtype=complex)
    for pos, letter in enumerate(label):
        if letter == "I":
            continue
        u = rotation(pos + 1, math.pi / 2.0, _PULSE_PHASE[letter]) @ u
    return u


_OBSERVABLES = np.stack(observable_list())


def _design_rows(label):
    # Tr(U rho U^dag O) = Tr(rho A) with A = U^dag O U, which for Hermitian
    # rho is Re(conj(vec A) . vec rho): row m is conj(vec A_m)
    u = _setting_unitary(label)
    return (u.conj().T @ _OBSERVABLES @ u).reshape(24, 64).conj()


# the one forward model: readout simulates it, reconstruction fits it
_DESIGN_ROWS = {label: _design_rows(label) for label in SETTING_LABELS}


# mle_reconstruct stops at this duality gap; it gives up after the
# iteration count at which its contraction rate guarantees the gap
_GAP_TOL = 1e-10
# the gap's rounding error is below this times |Tr(rho G)| + |lambda_min(G)|
# + max|G|: 4.7e-14 at most on the tomo_mle corpus, past _GAP_TOL at 1e300
_ROUNDING = 64.0 * np.finfo(float).eps


def simulate_readout(rho, setting, noise_sigma=0.0, seed=0):
    """Detected amplitudes of ``rho`` under the setting labelled ``setting``.

    Evaluates the 24 detection operators after the setting pulse, as
    the design rows that mle_reconstruct fits, and adds independent
    Gaussian noise of width noise_sigma. The noise stream is seeded by
    (seed, setting index), so a full seven-setting scan with one seed
    draws independent noise per setting and is reproducible. Raises
    ValueError for anything but one of the seven labels, a noise width
    that is not finite and non-negative, or a seed not an integer >= 0.
    """
    rho = check_density(rho)
    if not isinstance(setting, str) or setting not in _DESIGN_ROWS:
        raise ValueError(
            "unknown setting %r; expected one of %s" % (setting, (SETTING_LABELS,))
        )
    _check_noise(noise_sigma, seed)
    return _readout(rho, setting, noise_sigma, seed)


def tomograph(rho, noise_sigma=0.0, seed=0):
    """Records for all seven settings of one state, as simulate_readout
    makes them, with its checks made once for the whole scan."""
    rho = check_density(rho)
    _check_noise(noise_sigma, seed)
    return [_readout(rho, label, noise_sigma, seed) for label in SETTING_LABELS]


def _check_noise(noise_sigma, seed):
    # NaN fails the comparison; int() in the seeding would run a float
    # seed as another seed
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError("noise_sigma must be finite and non-negative, got %r"
                         % (noise_sigma,))
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be an integer >= 0, got %r" % (seed,))


def _readout(rho, setting, noise_sigma, seed):
    """simulate_readout on arguments it has checked."""
    vals = (_DESIGN_ROWS[setting] @ rho.ravel()).real
    if noise_sigma > 0.0:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=(int(seed), SETTING_LABELS.index(setting))
            )
        )
        vals = vals + noise_sigma * rng.standard_normal(24)
    return TomoRecord(setting=setting, values=tuple(float(v) for v in vals))


@functools.lru_cache(maxsize=8)
def _gram(settings):
    """What a fit needs of the design matrix D of records in the setting
    order ``settings``, one row per recorded value: D^H, the Gram Q =
    D^H D, and the smallest nonzero and the largest eigenvalue of Q.

    Row m of D is conj(vec A_m), A_m the pulled-back observable of that
    value, so Re(D vec rho) holds the values Tr(rho A_m). Kept per order
    and read-only: each is the same expression a fit would evaluate, so
    a fit of records in any order is the same bit for bit.
    """
    d = np.concatenate([_DESIGN_ROWS[s] for s in settings])
    dh = d.conj().T
    q = dh @ d
    lam_1, lam_max = np.linalg.eigvalsh(q)[[1, -1]]
    dh.flags.writeable = q.flags.writeable = False
    return dh, q, lam_1, lam_max


def _project_density(h):
    """The density matrix nearest to Hermitian ``h`` in Frobenius norm,
    which ends each of mle_reconstruct's steps. Its eigenvalues are
    projected onto the probability simplex, which commutes with a common
    shift: the largest is moved to zero first, so it is kept however large
    ``h`` is. The threshold is the mean excess over one of the k largest
    for the largest k whose smallest stays above it, summed from the top
    in Python floats, in the order of a cumulative sum.
    """
    vals, vecs = np.linalg.eigh(h)
    vals = vals - vals[-1]
    total = threshold = 0.0
    for k, v in enumerate(reversed(vals.tolist()), start=1):
        total += v
        if v - (total - 1.0) / k > 0.0:
            threshold = (total - 1.0) / k
    p = np.maximum(vals - threshold, 0.0)
    return (vecs * p) @ vecs.conj().T


def mle_reconstruct(records):
    """Maximum-likelihood density matrix from seven-setting records.

    Minimizes the Gaussian cost f(rho) = sum_m (Tr(rho A_m) - y_m)^2
    over density matrices by projected gradient on rho itself. With the
    design rows d_m = conj(vec A_m) stacked in D, the Gram Q = D^H D is
    formed on the first fit of records in this setting order and kept,
    and b = D^H y once per fit; the gradient is G = 2 (Q vec rho - b), as
    an 8x8 Hermitian matrix. Every A_m is traceless, so on
    trace-one matrices f is strongly convex, its Hessian 2Q between
    2 lambda_1 and 2 lambda_max, the smallest nonzero and the largest
    eigenvalue of Q. Each step from I/8 moves against G by 1/(lambda_1 +
    lambda_max) and projects back onto density matrices, which shrinks the
    distance to the optimum by r = (lambda_max - lambda_1)/(lambda_max +
    lambda_1), 5/7 for the seven settings. Step and rate are taken per
    fit, since records may repeat a setting. The duality gap Tr(rho G) -
    lambda_min(G) bounds f(rho) - min f; the estimate is returned once it
    is at most 1e-10.

    After k steps the gap is at most sqrt(7 lambda_max / 2) (|y| +
    sqrt(2 lambda_max)) r^k, from |y|, the residual at I/8, sqrt(2), the
    diameter of the density matrices, and sqrt(7/8), their distance from
    I/8. The least k that brings this to 1e-10 caps the iterations; past
    it, as rounding forces for huge readouts, RuntimeError names the gap.
    A gap counts only if its rounding error (_ROUNDING) is within 1e-10
    too; for readouts so huge that it is not, or that would overflow a
    gradient, RuntimeError names the gap. As f - min f is at least
    lambda_1 |rho - rho*|_F^2, the estimate lies within sqrt(1e-10 /
    lambda_1) = 7.07e-6 (lambda_1 = 2) of the minimizer rho*, which for
    noise-free records of a state is that state.
    """
    seen = {r.setting for r in records}
    missing = [s for s in SETTING_LABELS if s not in seen]
    if missing:
        raise ValueError("records missing settings: %s" % ",".join(missing))
    dh, q, lam_1, lam_max = _gram(tuple(rec.setting for rec in records))
    y = np.concatenate([rec.values for rec in records])
    b = dh @ y
    y_norm = math.hypot(*y)
    # the iteration cap takes |y|, and every element of every gradient
    # 2 (Q vec rho - b) is at most 2 (max|b| + lambda_max): summed in
    # Python floats, which overflow to inf without a warning
    if not 2.0 * (float(np.max(np.abs(b))) + float(lam_max)) + y_norm < math.inf:
        raise RuntimeError("MLE duality gap cannot be computed: records of "
                           "norm %.3g overflow the gradient" % y_norm)
    step = 1.0 / (lam_1 + lam_max)
    # log(gap bound at k = 0 / _GAP_TOL), in logs so huge readouts cannot overflow it
    log_ratio = (math.log(y_norm + math.sqrt(2.0 * lam_max))
                 + math.log(3.5 * lam_max) / 2.0 - math.log(_GAP_TOL))
    max_iters = math.ceil(log_ratio / -math.log(step * (lam_max - lam_1)))

    rho = np.eye(8, dtype=complex) / 8.0
    for _ in range(max_iters + 1):
        g = (2.0 * (q @ rho.ravel() - b)).reshape(8, 8)
        tr, lam_min = np.vdot(g, rho).real, np.linalg.eigvalsh(g)[0]
        gap = tr - lam_min
        if gap <= _GAP_TOL:
            error = _ROUNDING * (abs(tr) + abs(lam_min) + np.max(np.abs(g)))
            if error > _GAP_TOL:
                raise RuntimeError("MLE duality gap %.3e is uncertain by %.3e, "
                                   "more than %.0e" % (gap, error, _GAP_TOL))
            return check_density(0.5 * (rho + rho.conj().T))
        rho = _project_density(rho - step * g)
    raise RuntimeError(
        "MLE duality gap %.3e still above %.0e after %d iterations"
        % (gap, _GAP_TOL, max_iters)
    )


def write_records(records, path):
    """Write records as text lines ``setting,observable_index,value``."""
    # every line in one format call
    fields = [x for rec in records for idx, val in enumerate(rec.values)
              for x in (rec.setting, idx, val)]
    text = "\n".join(["setting,observable_index,value"]
                     + ["%s,%d,%.17g"] * (len(fields) // 3)) % tuple(fields)
    with open(path, "w") as f:
        f.write(text + "\n")


def read_records(path):
    """Read a records file written by write_records.

    Returns one TomoRecord per setting present, in file order of first
    appearance. Each present setting must cover all 24 observable
    indices exactly once.
    """
    per_setting = {}  # in order of first appearance
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line == "setting,observable_index,value":
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError("line %d: expected setting,index,value" % lineno)
            label, idx_s, val_s = parts
            if label not in SETTING_LABELS:
                raise ValueError("line %d: unknown setting %r" % (lineno, label))
            try:
                idx, value = int(idx_s), float(val_s)
            except ValueError:
                raise ValueError("line %d: expected an integer index and a "
                                 "number, got %r" % (lineno, line)) from None
            if not 0 <= idx < 24:
                raise ValueError("line %d: observable index %d out of range" % (lineno, idx))
            if not math.isfinite(value):
                raise ValueError("line %d: value %r is not finite" % (lineno, val_s))
            slot = per_setting.setdefault(label, {})
            if idx in slot:
                raise ValueError("line %d: duplicate %s observable %d" % (lineno, label, idx))
            slot[idx] = value
    records = []
    for label, slot in per_setting.items():
        if len(slot) != 24:
            raise ValueError("setting %s has %d of 24 observables" % (label, len(slot)))
        records.append(TomoRecord(setting=label,
                                  values=tuple(slot[i] for i in range(24))))
    return records
