import numpy as np
import pytest

from triq import NoiseModel

# relaxation parameters of the bundled three-spin register
T1 = (5.42, 5.65, 4.36)
T2 = (0.53, 0.55, 0.52)


@pytest.fixture
def rates():
    return NoiseModel(kappa_x=tuple(1.0 / t for t in T1),
                      kappa_z=tuple(1.0 / t for t in T2))


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def random_density(rng, rank=8):
    """Random full- or low-rank density matrix via a Ginibre draw."""
    g = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng):
    ket = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ket /= np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def random_local_unitary(rng):
    """Tensor product of three Haar-ish single-qubit unitaries."""
    u = np.eye(1, dtype=complex)
    for _ in range(3):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(g)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        u = np.kron(u, q)
    return u
