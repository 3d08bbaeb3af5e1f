"""Seven-setting readout simulation and maximum-likelihood reconstruction.

A readout setting is a product of spin-selective pi/2 pulses named by a
three-letter label, one letter per qubit in index order: I leaves the
qubit alone, X rotates it by pi/2 about x, Y by pi/2 about y. The seven
settings {III, IIY, IYY, YII, XYX, XXY, XXX} together make the detected
amplitudes informationally complete.

Detection is line-resolved transverse magnetization: for each qubit i
and each z-configuration (bj, bk) of the other two qubits j < k, the
detector reports Tr(rho' (sx_i P_bj P_bk)) and Tr(rho' (sy_i P_bj P_bk))
after the setting pulse. That is 24 real numbers per setting and the
observable index runs

    index = 8 (i - 1) + 2 (2 bj + bk) + (0 for x, 1 for y).

Reconstruction maximizes the Gaussian likelihood of the recorded values
over rho = T^dag T / Tr(T^dag T) with T lower triangular (64 real
parameters), so the estimate is physical by construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import P0, P1, SX, SY, check_density, kron
from . import measures
from .states import rotation

__all__ = [
    "SETTING_LABELS",
    "ReadoutSetting",
    "TomoRecord",
    "make_setting",
    "observable_list",
    "simulate_readout",
    "tomograph",
    "mle_reconstruct",
    "fidelity_report",
    "write_records",
    "read_records",
]

SETTING_LABELS = ("III", "IIY", "IYY", "YII", "XYX", "XXY", "XXX")

_PULSE_PHASE = {"X": 0.0, "Y": math.pi / 2.0}


@dataclass(frozen=True)
class ReadoutSetting:
    """One tomography pulse setting: label plus its 8x8 unitary."""

    label: str
    unitary: np.ndarray

    def __post_init__(self):
        if self.label not in SETTING_LABELS:
            raise ValueError(
                "unknown setting %r; expected one of %s" % (self.label, (SETTING_LABELS,))
            )


@dataclass(frozen=True)
class TomoRecord:
    """Detected amplitudes for one setting.

    values follows the module's fixed 24-entry observable order;
    noise_sigma records the Gaussian width used when simulating.
    """

    setting: str
    values: tuple
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.setting not in SETTING_LABELS:
            raise ValueError("unknown setting %r" % (self.setting,))
        if len(self.values) != 24:
            raise ValueError("expected 24 values, got %d" % len(self.values))
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("values must be finite")
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ValueError("noise_sigma must be finite and non-negative")


def make_setting(label):
    """Build the ReadoutSetting for a three-letter label."""
    if label not in SETTING_LABELS:
        raise ValueError(
            "unknown setting %r; expected one of %s" % (label, (SETTING_LABELS,))
        )
    u = np.eye(8, dtype=complex)
    for pos, letter in enumerate(label):
        if letter == "I":
            continue
        u = rotation(pos + 1, math.pi / 2.0, _PULSE_PHASE[letter]).unitary @ u
    return ReadoutSetting(label=label, unitary=u)


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


_OBSERVABLES = observable_list()


def simulate_readout(rho, setting, noise_sigma=0.0, seed=0):
    """Detected amplitudes of ``rho`` under one setting.

    Applies the setting pulse, evaluates the 24 detection operators,
    and adds independent Gaussian noise of width noise_sigma. The noise
    stream is seeded by (seed, setting index), so a full seven-setting
    scan with one seed draws independent noise per setting and is
    reproducible.
    """
    rho = check_density(rho)
    if isinstance(setting, str):
        setting = make_setting(setting)
    u = setting.unitary
    rot = u @ rho @ u.conj().T
    vals = np.array([np.trace(rot @ o).real for o in _OBSERVABLES])
    if noise_sigma > 0.0:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=(int(seed), SETTING_LABELS.index(setting.label))
            )
        )
        vals = vals + noise_sigma * rng.standard_normal(24)
    return TomoRecord(setting=setting.label, values=tuple(float(v) for v in vals),
                      noise_sigma=float(noise_sigma))


def tomograph(rho, noise_sigma=0.0, seed=0):
    """Records for all seven settings of one state."""
    return [simulate_readout(rho, label, noise_sigma, seed) for label in SETTING_LABELS]


def _design(records):
    """Pulled-back observables and targets: Tr(U rho U^dag O) = Tr(rho U^dag O U)."""
    seen = {r.setting for r in records}
    missing = [s for s in SETTING_LABELS if s not in seen]
    if missing:
        raise ValueError("records missing settings: %s" % ",".join(missing))
    ops, targets = [], []
    for rec in records:
        u = make_setting(rec.setting).unitary
        for o, y in zip(_OBSERVABLES, rec.values):
            ops.append(u.conj().T @ o @ u)
            targets.append(y)
    return np.stack(ops), np.array(targets)


def _project_lower(g):
    # parameter space: complex strictly-lower triangle, real diagonal
    out = np.tril(g, -1)
    out[np.diag_indices(8)] = np.diag(g).real
    return out


def _rdot(p, q):
    return float(np.real(np.vdot(p, q)))


def mle_reconstruct(records, grad_tol=1e-8, max_iters=10000):
    """Maximum-likelihood density matrix from seven-setting records.

    Minimizes the Gaussian cost sum_m (Tr(rho A_m) - y_m)^2 over
    rho = T^dag T / Tr(T^dag T), T lower triangular with real diagonal
    (64 parameters): first-order descent where the step direction is a
    limited-memory quasi-Newton blend of recent gradients, accepted by
    Armijo backtracking, started from T = I/sqrt(8). Every accepted
    step lowers the cost, so the likelihood is monotone. Physical
    output by construction.

    Raises RuntimeError with the final gradient norm if the tolerance
    is not reached within max_iters.
    """
    a, y = _design(records)
    eye = np.eye(8)

    def cost_resid(t):
        rho_un = t.conj().T @ t
        n = np.trace(rho_un).real
        pred = np.einsum("mab,ba->m", a, rho_un).real / n
        r = pred - y
        return float(r @ r), r, rho_un, n

    def gradient(t, r, n):
        pred = r + y
        # d Tr(rho A)/dT* = T (A - Tr(rho A) I)/n; total cost gradient
        # sums 2 r_m of those, projected onto the triangular parameters
        m = np.einsum("m,mab->ab", 2.0 * r, a) - (2.0 * float(r @ pred)) * eye
        return _project_lower((t @ m) / n)

    t = np.eye(8, dtype=complex) / math.sqrt(8.0)
    f, r, rho_un, n = cost_resid(t)
    g = gradient(t, r, n)
    mem = []  # (step, grad change, 1/curvature), newest last
    for _ in range(max_iters):
        gnorm = math.sqrt(_rdot(g, g))
        if gnorm < grad_tol:
            rho = rho_un / n
            return check_density(0.5 * (rho + rho.conj().T))
        # two-loop recursion over the stored curvature pairs
        q = g.copy()
        alphas = []
        for s, dg, rk in reversed(mem):
            ak = rk * _rdot(s, q)
            q -= ak * dg
            alphas.append(ak)
        if mem:
            s, dg, _ = mem[-1]
            q *= _rdot(s, dg) / _rdot(dg, dg)
        else:
            q /= max(gnorm, 1e-300)
        for (s, dg, rk), ak in zip(mem, reversed(alphas)):
            q += (ak - rk * _rdot(dg, q)) * s
        d = -q
        slope = _rdot(g, d)
        if slope >= 0.0:
            mem.clear()
            d = -g / max(gnorm, 1e-300)
            slope = _rdot(g, d)
        alpha = 1.0
        accepted = False
        for _ in range(60):
            t_new = t + alpha * d
            f_new, r_new, rho_un_new, n_new = cost_resid(t_new)
            if f_new <= f + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            if mem:
                # stale curvature pairs can block progress; drop them
                # and retry from plain steepest descent
                mem.clear()
                continue
            break
        g_new = gradient(t_new, r_new, n_new)
        s = t_new - t
        dg = g_new - g
        curv = _rdot(s, dg)
        if curv > 1e-300:
            mem.append((s, dg, 1.0 / curv))
            if len(mem) > 12:
                mem.pop(0)
        t, f, r, rho_un, n = t_new, f_new, r_new, rho_un_new, n_new
        g = g_new
    gnorm = math.sqrt(_rdot(g, g))
    raise RuntimeError(
        "MLE did not converge in %d iterations; gradient norm %.3e" % (max_iters, gnorm)
    )


def fidelity_report(rho_est, rho_ref):
    """Uhlmann-Jozsa fidelity between a reconstruction and a reference."""
    return measures.fidelity(rho_est, rho_ref)


def write_records(records, path):
    """Write records as text lines ``setting,observable_index,value``."""
    with open(path, "w") as f:
        f.write("setting,observable_index,value\n")
        for rec in records:
            for idx, val in enumerate(rec.values):
                f.write("%s,%d,%.17g\n" % (rec.setting, idx, val))


def read_records(path):
    """Read a records file written by write_records.

    Returns one TomoRecord per setting present, in file order of first
    appearance. Each present setting must cover all 24 observable
    indices exactly once. noise_sigma is not stored in the file and
    loads as 0.
    """
    per_setting = {}
    order = []
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
            idx = int(idx_s)
            if not 0 <= idx < 24:
                raise ValueError("line %d: observable index %d out of range" % (lineno, idx))
            slot = per_setting.setdefault(label, {})
            if idx in slot:
                raise ValueError("line %d: duplicate %s observable %d" % (lineno, label, idx))
            slot[idx] = float(val_s)
            if label not in order:
                order.append(label)
    records = []
    for label in order:
        slot = per_setting[label]
        if len(slot) != 24:
            raise ValueError("setting %s has %d of 24 observables" % (label, len(slot)))
        records.append(TomoRecord(setting=label,
                                  values=tuple(slot[i] for i in range(24))))
    return records
