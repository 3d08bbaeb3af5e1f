"""Closed-form decay of the GHZ, W, and WWbar states.

The Lindblad model (per-qubit sigma_x damping at kx_i and sigma_z
dephasing at kz_i, no coherent Hamiltonian) couples a matrix element
<a|rho|b> only to elements with the same index difference d = a XOR b.
Within each sector the solution is a sum of decaying exponentials in the
single-qubit amplitude factors g_i = exp(-kx_i t), dressed by an overall
dephasing factor exp(-sum of kz over the qubits flipped in d). The
functions below write out that solution for the three prepared states.

These expressions double as the oracle for the numerical propagator,
which applies the same channels in closed form and is exact between
events at any step length: they are exact for arbitrary non-negative
rates, not just the bundled relaxation parameters. Three matrix-element
placements here differ from a published tabulation of the same
solution; see CONFORMANCE.md at the repo root.

Every function takes the rates as a Markovian noise.NoiseModel
(kx_i = kappa_x[i], kz_i = kappa_z[i]) and rejects a correlated one,
whose OU dephasing has no closed form here. Each takes one time,
returning an 8x8 matrix, or an array of n times, returning an
(n, 8, 8) stack whose entries equal the one-time results bit for bit;
a negative, infinite or NaN time is a ValueError. The three states are
real and both channels keep them real, so the results are float64,
which measures scores in real arithmetic.
"""

import numpy as np

from . import measures

__all__ = ["ghz_analytic", "w_analytic", "wwbar_analytic", "decay_times"]


def _bit(a, i):
    # qubit 1 is the most significant bit of the basis index
    return (a >> (3 - i)) & 1


def _sign(a, *qubits):
    return -1.0 if sum(_bit(a, i) for i in qubits) % 2 else 1.0


def _times(t):
    """Times as a 1-d array, and whether a single time was given."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < np.inf)):  # false for NaN too
        raise ValueError("t must be non-negative and finite")
    return np.atleast_1d(t), t.ndim == 0


def _amplitude_factors(t, noise):
    if noise.bath_mode != "markovian":
        raise ValueError("the closed forms require bath_mode = markovian, got %r"
                         % noise.bath_mode)
    x1, x2, x3 = noise.kappa_x
    g1, g2, g3 = np.exp(-x1 * t), np.exp(-x2 * t), np.exp(-x3 * t)
    return g1, g2, g3


def ghz_analytic(t, noise):
    """GHZ-class state after time t under the damping model.

    Populations sit on the diagonal; the only coherences are on the
    anti-diagonal (the triple-quantum sector), with the -1 corner sign
    of the state the preparation circuit builds. Z on any one qubit
    flips that sign and leaves every decay metric unchanged.
    """
    t, single = _times(t)
    g1, g2, g3 = _amplitude_factors(t, noise)
    g12, g13, g23 = g1 * g2, g1 * g3, g2 * g3
    ez = np.exp(-sum(noise.kappa_z) * t)
    rho = np.zeros((len(t), 8, 8))
    for a in range(8):
        bracket = (
            1.0
            + _sign(a, 1, 2) * g12
            + _sign(a, 1, 3) * g13
            + _sign(a, 2, 3) * g23
        )
        rho[:, a, a] = bracket / 8.0
        rho[:, a, a ^ 7] = -ez * bracket / 8.0
    return rho[0] if single else rho


def w_analytic(t, noise):
    """W state after time t under the damping model."""
    t, single = _times(t)
    z1, z2, z3 = noise.kappa_z
    g1, g2, g3 = _amplitude_factors(t, noise)
    g12, g13, g23 = g1 * g2, g1 * g3, g2 * g3
    g123 = g12 * g3
    rho = np.zeros((len(t), 8, 8))
    for a in range(8):
        rho[:, a, a] = (
            0.125
            + (_sign(a, 1) * g1 + _sign(a, 2) * g2 + _sign(a, 3) * g3) / 24.0
            - (_sign(a, 1, 2) * g12 + _sign(a, 1, 3) * g13 + _sign(a, 2, 3) * g23)
            / 24.0
            - _sign(a, 1, 2, 3) * g123 / 8.0
        )
        # single-quantum sectors are empty for W; the three double-flip
        # sectors carry the initial |100>,|010>,|001> coherences
        rho[:, a, a ^ 3] = (
            np.exp(-(z2 + z3) * t)
            * (1.0 + _sign(a, 1) * g1)
            * (1.0 - _sign(a, 2, 3) * g23)
            / 12.0
        )
        rho[:, a, a ^ 5] = (
            np.exp(-(z1 + z3) * t)
            * (1.0 + _sign(a, 2) * g2)
            * (1.0 - _sign(a, 1, 3) * g13)
            / 12.0
        )
        rho[:, a, a ^ 6] = (
            np.exp(-(z1 + z2) * t)
            * (1.0 - _sign(a, 1, 2) * g12)
            * (1.0 + _sign(a, 3) * g3)
            / 12.0
        )
    return rho[0] if single else rho


def wwbar_analytic(t, noise):
    """WWbar state (equal superposition of the six middle basis states)
    after time t under the damping model."""
    t, single = _times(t)
    z1, z2, z3 = noise.kappa_z
    g1, g2, g3 = _amplitude_factors(t, noise)
    g12, g13, g23 = g1 * g2, g1 * g3, g2 * g3
    rho = np.zeros((len(t), 8, 8))
    for a in range(8):
        bracket = (
            0.125
            - (_sign(a, 1, 2) * g12 + _sign(a, 1, 3) * g13 + _sign(a, 2, 3) * g23)
            / 24.0
        )
        rho[:, a, a] = bracket
        rho[:, a, a ^ 1] = np.exp(-z3 * t) * (1.0 - _sign(a, 1, 2) * g12) / 12.0
        rho[:, a, a ^ 2] = np.exp(-z2 * t) * (1.0 - _sign(a, 1, 3) * g13) / 12.0
        rho[:, a, a ^ 4] = np.exp(-z1 * t) * (1.0 - _sign(a, 2, 3) * g23) / 12.0
        rho[:, a, a ^ 3] = (
            np.exp(-(z2 + z3) * t) * (1.0 - _sign(a, 2, 3) * g23) / 12.0
        )
        rho[:, a, a ^ 5] = (
            np.exp(-(z1 + z3) * t) * (1.0 - _sign(a, 1, 3) * g13) / 12.0
        )
        rho[:, a, a ^ 6] = (
            np.exp(-(z1 + z2) * t) * (1.0 - _sign(a, 1, 2) * g12) / 12.0
        )
        rho[:, a, a ^ 7] = np.exp(-(z1 + z2 + z3) * t) * bracket
    return rho[0] if single else rho


_FAMILIES = {"ghz": ghz_analytic, "w": w_analytic, "wwbar": wwbar_analytic}


_RESOLUTION = 1e-3
_T_MAX = 2.0


def decay_times(noise):
    """Disentanglement time of each analytic family.

    Bisects the first zero of the tripartite negativity to 1 ms under
    the Markovian ``noise``, searching up to 2 s (else ValueError); a
    correlated model raises ValueError.

    Returns
    -------
    dict
        {"ghz": t, "w": t, "wwbar": t} in seconds.
    """
    out = {}
    for name, family in _FAMILIES.items():
        def alive(t, family=family):
            return measures.tripartite_negativity(family(t, noise)) > 0.0

        # at t = 0 every family is its prepared pure state, alive
        lo, hi = 0.0, None
        t = _RESOLUTION
        while t <= _T_MAX:
            if not alive(t):
                hi = t
                break
            lo = t
            t *= 2.0
        if hi is None:
            raise ValueError("%s negativity still positive at %g s" % (name, _T_MAX))
        while hi - lo > _RESOLUTION:
            mid = 0.5 * (lo + hi)
            if alive(mid):
                lo = mid
            else:
                hi = mid
        out[name] = 0.5 * (lo + hi)
    return out
