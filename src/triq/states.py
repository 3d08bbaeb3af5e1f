"""Gate-level preparation of the GHZ, W, and WWbar states.

Rotation convention: R(theta)_phi = exp(-i theta (cos phi sigma_x +
sin phi sigma_y)/2), so phase 0 is the x axis, pi/2 the y axis, and a
"-y" pulse is phase 3 pi/2. Preparation circuits use the exact angles
the target amplitudes demand; the conventional two-decimal labels for
the W and WWbar rotations are loose roundings of THETA_W and
THETA_WWBAR below. Every state is prepared pure from |000>: the
paper's pseudopure preparation is not modelled, since a pseudopure
state at NMR polarizations has no negativity to score.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ID2, P0, P1, SX, SY, embed1

__all__ = [
    "Gate",
    "rotation",
    "cnot",
    "controlled_rotation",
    "prepare_ghz",
    "prepare_w",
    "prepare_wwbar",
    "THETA_W",
    "THETA_WWBAR",
]

# exact flip angles behind the conventional 0.39 pi / 0.61 pi labels
THETA_W = 2.0 * math.acos(math.sqrt(2.0 / 3.0))
THETA_WWBAR = 2.0 * math.acos(1.0 / math.sqrt(3.0))


@dataclass(frozen=True)
class Gate:
    """A unitary on the full register plus bookkeeping metadata."""

    label: str
    unitary: np.ndarray
    targets: tuple


def _axis(phase):
    return math.cos(phase) * SX + math.sin(phase) * SY


def _rot2(angle, phase):
    ax = _axis(phase)
    return math.cos(angle / 2.0) * ID2 - 1j * math.sin(angle / 2.0) * ax


def rotation(qubit, angle, phase):
    """Single-qubit rotation exp(-i angle (cos phase X + sin phase Y)/2)."""
    u = embed1(_rot2(angle, phase), qubit)
    return Gate(label="R%d(%.6g)_%.6g" % (qubit, angle, phase), unitary=u,
                targets=(qubit,))


def cnot(control, target):
    """Flip ``target`` iff ``control`` is |1>."""
    if control == target:
        raise ValueError("control and target must differ")
    u = embed1(P0, control) + embed1(SX, target) @ embed1(P1, control)
    return Gate(label="CNOT%d%d" % (control, target), unitary=u,
                targets=(control, target))


def controlled_rotation(control, target, angle, phase):
    """Apply rotation(target, angle, phase) iff ``control`` is |1>."""
    if control == target:
        raise ValueError("control and target must differ")
    u = embed1(P0, control) + embed1(_rot2(angle, phase), target) @ embed1(
        P1, control
    )
    return Gate(label="CR%d%d(%.6g)_%.6g" % (control, target, angle, phase),
                unitary=u, targets=(control, target))


def _run_circuit(gates):
    ket = np.zeros(8, dtype=complex)
    ket[0] = 1.0
    for g in gates:
        ket = g.unitary @ ket
    return np.outer(ket, ket.conj())


def prepare_ghz():
    """Density matrix of (|000> - |111>)/sqrt(2), built gate by gate."""
    return _run_circuit([
        rotation(1, math.pi / 2.0, 3.0 * math.pi / 2.0),
        cnot(1, 2),
        cnot(1, 3),
    ])


def prepare_w():
    """Density matrix of (|100> + |010> + |001>)/sqrt(3)."""
    return _run_circuit([
        rotation(1, math.pi, math.pi / 2.0),
        rotation(2, THETA_W, math.pi / 2.0),
        cnot(2, 1),
        controlled_rotation(1, 3, math.pi / 2.0, math.pi / 2.0),
        cnot(3, 1),
    ])


def prepare_wwbar():
    """Density matrix of the equal superposition of the six single- and
    double-excitation basis states."""
    return _run_circuit([
        rotation(1, math.pi / 3.0, 3.0 * math.pi / 2.0),
        controlled_rotation(1, 2, THETA_WWBAR, math.pi / 2.0),
        controlled_rotation(2, 1, math.pi / 2.0, 3.0 * math.pi / 2.0),
        cnot(1, 3),
        cnot(2, 3),
        rotation(1, math.pi / 2.0, math.pi / 2.0),
        rotation(2, math.pi / 2.0, math.pi / 2.0),
        rotation(3, math.pi / 2.0, math.pi / 2.0),
    ])
