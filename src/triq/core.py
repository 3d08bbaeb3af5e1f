"""Dense linear algebra for a three-qubit register.

States are plain complex ndarrays. A density matrix is 8x8, indexed in the
binary product basis |q1 q2 q3> with qubit 1 the leftmost tensor factor, so
row index a = 4*a1 + 2*a2 + a3 runs |000>, |001>, ..., |111>. Kets are
length-8 vectors in the same order. Nothing here is specific to the NMR
realization; higher modules attach physics to these arrays.
"""

import json

import numpy as np

__all__ = [
    "HERM_ATOL",
    "NumericalError",
    "PhysicalityError",
    "kron",
    "embed1",
    "save_matrix",
    "load_matrix",
    "check_density",
    "eigs_above",
    "ID2",
    "SX",
    "SY",
    "SZ",
    "P0",
    "P1",
]

HERM_ATOL = 1e-9

#
# Pauli matrices, reused everywhere
#

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
# projectors onto |0> and |1>
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


class NumericalError(ArithmeticError):
    """Base of the failures of a computation, as opposed to bad input.

    Deliberately not a ValueError, so callers can tell an unphysical
    result from a rejected argument.
    """


class PhysicalityError(NumericalError):
    """Raised when an array fails a density-matrix check.

    When a stack of matrices was checked, ``sample`` is the index of the
    failing one and the message starts with it; ``reason`` is the
    message without that index.
    """

    def __init__(self, reason, sample=None):
        self.reason = reason
        self.sample = sample
        super().__init__(reason if sample is None else "sample %d: %s" % (sample, reason))


def kron(a, b):
    """Kronecker product of two operators.

    Parameters
    ----------
    a, b : ndarray
        Square complex matrices.

    Returns
    -------
    ndarray
        Matrix of shape (dim(a)*dim(b), dim(a)*dim(b)); ``a`` acts on the
        left (more significant) factor.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def embed1(op, qubit):
    """Single-qubit operator ``op`` acting on ``qubit`` (1..3) of the register."""
    if qubit not in (1, 2, 3):
        raise ValueError("qubit must be 1, 2 or 3, got %r" % (qubit,))
    factors = [ID2, ID2, ID2]
    factors[qubit - 1] = op
    return kron(kron(factors[0], factors[1]), factors[2])


#
# Matrix interchange format: a small JSON document with the dimension and
# the row-major entries as [re, im] pairs, reals printed at 17 significant
# digits so the round trip is exact for doubles.
#


def save_matrix(path, m):
    """Write a complex matrix to ``path`` in the interchange format."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix, got shape %r" % (m.shape,))
    dim = m.shape[0]
    rows = []
    for v in m.reshape(-1):
        rows.append("[%s, %s]" % (format(v.real, ".17g"), format(v.imag, ".17g")))
    text = '{\n  "dim": %d,\n  "entries": [\n    %s\n  ]\n}\n' % (
        dim,
        ",\n    ".join(rows),
    )
    with open(path, "w") as f:
        f.write(text)


def load_matrix(path):
    """Read a matrix written by :func:`save_matrix`."""
    with open(path) as f:
        doc = json.load(f)
    dim = int(doc["dim"])
    entries = doc["entries"]
    if len(entries) != dim * dim:
        raise ValueError(
            "entry count %d does not match dim %d" % (len(entries), dim)
        )
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(dim, dim)


_NON_FINITE = "non-finite entries (NaN or inf)"


def eigs_above(stack, floor):
    """True if every matrix of the Hermitian (..., d, d) stack has all
    its eigenvalues above ``floor``, as proved by a Cholesky factor of
    each matrix minus floor times the identity; up to round-off of order
    d eps |A|. False if any factorization fails, which proves nothing:
    the caller must then look at the eigenvalues. Like eigvalsh it reads
    the lower triangle only.
    """
    try:
        np.linalg.cholesky(stack - floor * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def check_density(rho, trace_atol=1e-8, herm_atol=HERM_ATOL, eig_floor=-1e-6):
    """Validate a density matrix; raise PhysicalityError on failure.

    Checks that every entry is finite, trace within ``trace_atol`` of
    1, Hermiticity within ``herm_atol``, and smallest eigenvalue above
    ``eig_floor``. A single matrix is checked as a stack of one. An
    (n, d, d) stack is checked sample by sample, and the error names
    the first failing sample. Returns the matrix unchanged on success.

    The eigenvalue floor is first certified for the whole stack by
    ``eigs_above`` at eig_floor / 2, a margin far above round-off, when
    eig_floor is negative and every sample passed the other checks.
    Only a stack the certificate does not cover takes the eigenvalues,
    which give the verdict and name the failing sample.
    """
    rho = np.asarray(rho, dtype=complex)
    stack = rho if rho.ndim == 3 else rho[None]
    adj = stack.conj().transpose(0, 2, 1)
    tr = np.trace(stack, axis1=1, axis2=2)
    # a non-finite entry leaves the trace or the asymmetry non-finite
    # (inf - inf is NaN, quietly), and NaN fails every <=, so such
    # samples are flagged here too
    with np.errstate(invalid="ignore"):
        asym = np.max(np.abs(stack - adj), axis=(1, 2))
        herm = 0.5 * (stack + adj)
    bad = ~((np.abs(tr - 1.0) <= trace_atol) & (asym <= herm_atol))
    if eig_floor < 0.0 and not bad.any() and eigs_above(herm, 0.5 * eig_floor):
        return rho
    herm[bad] = np.eye(stack.shape[1])  # keep flagged samples away from LAPACK
    low = np.linalg.eigvalsh(herm)[:, 0]
    bad |= low < eig_floor
    if not bad.any():
        return rho
    k = int(np.argmax(bad))
    if not np.isfinite(tr[k]):
        reason = _NON_FINITE
    elif abs(tr[k] - 1.0) > trace_atol:
        reason = "trace %r deviates from 1 by %.3e" % (tr[k], abs(tr[k] - 1))
    elif not np.isfinite(asym[k]):
        reason = _NON_FINITE
    elif asym[k] > herm_atol:
        reason = "Hermiticity violated, max asymmetry %.3e" % asym[k]
    else:
        reason = "negative eigenvalue %.3e" % low[k]
    raise PhysicalityError(reason, sample=k if rho.ndim == 3 else None)
