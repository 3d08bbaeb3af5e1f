"""Entanglement and state-quality metrics for the three-qubit register.

Negativity follows the one-vs-rest partial-transpose convention with a
factor 2, so the ideal GHZ state scores 1.0 on every cut (Vidal and
Werner, Phys. Rev. A 65, 032314 (2002)). The tripartite figure is the
geometric mean of the three cuts. Fidelity against a pure reference
|psi><psi| is the overlap <psi|rho|psi>; the Uhlmann-Jozsa form
(Tr sqrt(sqrt(ref) rho sqrt(ref)))^2 is used only for mixed references.

Every metric goes through one kernel that scores a stack of density
matrices against one reference: the three partial transposes of each
sample share one batched eigenvalue call, and what fidelity needs of
the reference (its ket, or its square root) is computed once. A block
whose partial transposes a Cholesky certificate (core.eigs_above)
proves positive definite is PPT on every cut and skips that call. A
stack whose imaginary part is exactly zero (core.real_if_exact), as a
prepared state's Markovian decay is, is scored in real arithmetic, in
about half the LAPACK time; any other takes the complex path. The
single-state functions are stacks of one; curve_from_states scores a
curve in blocks of _BLOCK samples, which keeps memory flat.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PhysicalityError, check_density, eigs_above, real_if_exact

__all__ = [
    "DecayCurve",
    "negativity",
    "tripartite_negativity",
    "fidelity",
    "purity",
    "fit_decay_rate",
    "disentanglement_time",
    "first_crossing",
    "curve_from_states",
]

# fit_decay_rate window: samples below FIT_FLOOR sit on the negativity
# floor and break log-linearity; samples below FIT_KEEP_FRACTION of the
# curve's starting value are already in the super-exponential collapse
# near sudden death, so the fit keeps the early log-linear stretch.
# 1/6 balances the three reference decay rates for the default spin
# parameters; the fitted rates move by < 0.3% for sample spacings
# between 2 and 10 ms.
FIT_FLOOR = 0.02
FIT_KEEP_FRACTION = 1.0 / 6.0

# samples scored per kernel call; on 2001-sample decay curves one stack
# of all samples raised peak memory from 44 to 52 MB, blocks of 256 to
# 45.5 MB
_BLOCK = 64
# a block whose partial transposes all have eigenvalues above this is
# PPT on every cut, which then reads exactly 0.0; the margin is far above
# the round-off of either the certificate or the eigenvalues
_PPT_MARGIN = 1e-12
# a reference whose second-largest eigenvalue is at most this is pure;
# taking it as pure moves the fidelity by about sqrt(_PURE_TOL) at most,
# the order of the round-off the Uhlmann route leaves on rank-1 input
_PURE_TOL = 1e-14


@dataclass
class DecayCurve:
    """Sampled evolution of one state under one noise model.

    times are seconds, finite and strictly increasing (else ValueError).
    n1, n2, n3 are the per-cut negativities, n3_tri their geometric mean,
    fidelity is against the curve's reference state (the initial state
    unless stated otherwise), purity is Tr(rho^2). states is the
    (n, 8, 8) stack of the sampled density matrices in the same order,
    float64 where they are exactly real, else complex.
    """

    times: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    n3_tri: np.ndarray
    fidelity: np.ndarray
    purity: np.ndarray
    states: np.ndarray = field(
        default_factory=lambda: np.empty((0, 8, 8), dtype=complex), repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.times)):
            raise ValueError("times must be finite")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def _reference(reference):
    """What fidelity needs of a checked reference: (ket, None) for a pure
    one, (None, sqrt(reference)) for a mixed one."""
    vals, vecs = np.linalg.eigh(real_if_exact(check_density(reference)))
    if vals[-2] <= _PURE_TOL:
        return vecs[:, -1], None
    return None, (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def _score(stack, ref=None):
    """Metrics of an (n, 8, 8) stack of checked density matrices.

    Returns (cuts, n3_tri, fidelity, purity): the (n, 3) one-vs-rest
    negativities, their geometric mean, the fidelity against the
    reference that ``_reference`` prepared (None without one) and
    Tr(rho^2). An exactly real stack is scored in real arithmetic.
    """
    stack = real_if_exact(stack)
    r = stack.reshape(-1, 2, 2, 2, 2, 2, 2)
    # axes (n, a1, a2, a3, b1, b2, b3): the partial transpose on qubit q
    # swaps its row and column index
    pts = np.stack([np.swapaxes(r, q, q + 3) for q in (1, 2, 3)],
                   axis=1).reshape(-1, 3, 8, 8)
    if eigs_above(pts, _PPT_MARGIN):
        cuts = np.zeros((len(stack), 3))
    else:
        cuts = 2.0 * np.maximum(0.0, -np.linalg.eigvalsh(pts)[..., 0])
    # zero as soon as any single cut is PPT
    n3_tri = np.where(np.min(cuts, axis=1) > 0.0,
                      np.prod(cuts, axis=1) ** (1.0 / 3.0), 0.0)
    purity = np.einsum("nab,nba->n", stack, stack).real
    fid = None
    if ref is not None:
        ket, root = ref
        if ket is not None:
            fid = np.einsum("a,nab,b->n", ket.conj(), stack, ket).real
        else:
            # eigenvalues of sqrt(ref) rho sqrt(ref); round-off negatives
            # are clamped to zero
            vals = np.clip(np.linalg.eigvalsh(root @ stack @ root), 0.0, None)
            fid = np.sum(np.sqrt(vals), axis=1) ** 2
        fid = np.clip(fid, 0.0, 1.0)
    return cuts, n3_tri, fid, purity


def _score_one(rho, ref=None):
    cuts, n3_tri, fid, purity = _score(check_density(rho)[None], ref)
    return cuts[0], n3_tri[0], None if fid is None else fid[0], purity[0]


def negativity(rho, qubit):
    """Doubled magnitude of the most negative partial-transpose eigenvalue.

    Parameters
    ----------
    rho : ndarray
        8x8 density matrix; must pass density-matrix checks.
    qubit : int
        Cut label 1..3; the partial transpose acts on this qubit.

    Returns
    -------
    float
        2 * max(0, -lambda_min(rho^T_qubit)), in [0, 1].
    """
    if qubit not in (1, 2, 3):
        raise ValueError("qubit must be 1, 2 or 3, got %r" % (qubit,))
    return float(_score_one(rho)[0][qubit - 1])


def tripartite_negativity(rho):
    """Geometric mean of the three one-vs-rest negativities.

    Zero as soon as any single cut is PPT.
    """
    return float(_score_one(rho)[1])


def fidelity(a, b):
    """Fidelity of ``b`` against the reference ``a``.

    <psi|b|psi> when a = |psi><psi| is pure, otherwise the Uhlmann-Jozsa
    form (Tr sqrt(sqrt(a) b sqrt(a)))^2. Both inputs must pass
    density-matrix checks. Symmetric in its arguments to numerical
    precision; 1 iff the states coincide.
    """
    ref = _reference(a)
    return float(_score_one(b, ref)[2])


def purity(rho):
    """Tr(rho^2); 1 for pure states, 1/8 for the maximally mixed state."""
    return float(_score_one(rho)[3])


def fit_decay_rate(curve):
    """Exponential decay rate of the tripartite negativity.

    Fits N3_tri(t) ~ A exp(-gamma t) by least squares in log space. The
    window keeps samples with N3_tri above max(FIT_FLOOR,
    FIT_KEEP_FRACTION * N3_tri(first sample)); below that the curve is
    in its super-exponential sudden-death collapse and no longer
    log-linear.

    Parameters
    ----------
    curve : DecayCurve
        Needs at least 10 samples above FIT_FLOOR.

    Returns
    -------
    (float, float)
        gamma in 1/s, and the RMS residual of the log-space fit.
    """
    t = np.asarray(curve.times, dtype=float)
    n = np.asarray(curve.n3_tri, dtype=float)
    above_floor = n > FIT_FLOOR
    if int(np.sum(above_floor)) < 10:
        raise ValueError(
            "need at least 10 samples with N3_tri > %g, have %d"
            % (FIT_FLOOR, int(np.sum(above_floor)))
        )
    cut = max(FIT_FLOOR, FIT_KEEP_FRACTION * n[0])
    mask = n > cut
    if int(np.sum(mask)) < 10:
        mask = above_floor
    tm, ym = t[mask], np.log(n[mask])
    design = np.column_stack([np.ones_like(tm), -tm])
    coef, *_ = np.linalg.lstsq(design, ym, rcond=None)
    resid = ym - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(coef[1]), rms


# disentanglement_time's floor on the tripartite negativity
_DEATH_LEVEL = 0.01


def disentanglement_time(curve):
    """First time the tripartite negativity crosses below 0.01.

    Linear interpolation between the bracketing samples. The curve must
    start above 0.01 and must cross it.
    """
    t = np.asarray(curve.times, dtype=float)
    n = np.asarray(curve.n3_tri, dtype=float)
    if n[0] <= _DEATH_LEVEL:
        raise ValueError("curve starts at %g, already below %g" % (n[0], _DEATH_LEVEL))
    crossing = first_crossing(t, n, _DEATH_LEVEL)
    if math.isinf(crossing):
        raise ValueError("no crossing below %g within the curve" % _DEATH_LEVEL)
    return crossing


def first_crossing(times, values, level):
    """First time ``values`` falls below ``level``, interpolated linearly
    from the sample before; times[0] if values[0] is, inf if none is.
    times and values are read as float arrays, which must be 1-D and of
    one length, with every time finite (else ValueError); a level that
    is not finite or a NaN value, which no comparison finds below it,
    raises ValueError too."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or values.ndim != 1 or len(times) != len(values):
        raise ValueError("times and values must be 1-D and of one length, "
                         "got shapes %s and %s" % (times.shape, values.shape))
    if not np.isfinite(times).all():
        raise ValueError("time %d is not finite"
                         % np.flatnonzero(~np.isfinite(times))[0])
    if not math.isfinite(level):
        raise ValueError("level must be finite, got %g" % level)
    nan = np.flatnonzero(np.isnan(values))
    if len(nan):
        raise ValueError("value %d is NaN" % nan[0])
    below = np.nonzero(values < level)[0]
    if len(below) == 0:
        return math.inf
    k = int(below[0])
    if k == 0:
        return float(times[0])
    t0, t1 = times[k - 1], times[k]
    v0, v1 = values[k - 1], values[k]
    return float(t0 + (v0 - level) * (t1 - t0) / (v0 - v1))


def curve_from_states(times, states, reference):
    """Assemble a DecayCurve by scoring each sampled state.

    Fidelity column is against ``reference``. ``times`` and ``states``
    must have the same length (else ValueError). Every sample must pass
    density-matrix checks; a failure raises PhysicalityError naming the
    first failing sample by its index in ``states`` and its time,
    "sample k: at t = ... s: reason". Every evolution routine scores its
    samples here, so this is the one place a failing sample is named;
    kept here so the metric definitions live in one module. The curve
    holds ``states`` as float64 when they are exactly real
    (core.real_if_exact), as complex128 otherwise: no reader of a
    curve's states needs a real stack widened to complex.
    """
    times = np.asarray(times, dtype=float)
    states = real_if_exact(states)
    if len(times) != len(states):
        raise ValueError("%d times for %d states" % (len(times), len(states)))
    ref = _reference(reference)
    n = len(states)
    cuts = np.empty((3, n))
    ntri = np.empty(n)
    fid = np.empty(n)
    pur = np.empty(n)
    for start in range(0, n, _BLOCK):
        stop = min(n, start + _BLOCK)
        block = states[start:stop]
        try:
            check_density(block)
        except PhysicalityError as err:
            # number the sample as the caller does, not within the block
            k = start + err.sample
            raise PhysicalityError("at t = %.9g s: %s" % (times[k], err.reason),
                                   sample=k) from None
        c, ntri[start:stop], fid[start:stop], pur[start:stop] = _score(block, ref)
        cuts[:, start:stop] = c.T
    return DecayCurve(
        times=times, n1=cuts[0], n2=cuts[1], n3=cuts[2], n3_tri=ntri,
        fidelity=fid, purity=pur, states=states,
    )
