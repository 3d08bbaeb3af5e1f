"""Circuit preparation of the GHZ, W, and WWbar states.

A gate is its 8x8 unitary on the full register, a plain ndarray.
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

import numpy as np

from .core import ID2, P0, P1, SX, SY, embed1

__all__ = [
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


# the axis of each whole number of quarter turns of phase, and the
# (cos, sin) of half of each whole number of half turns of angle,
# exactly: in floating point cos(pi/2) is 6.1e-17, not 0, which would
# leave dust in every state and pulse that a y axis or a pi turn makes,
# and give an ideal pi pulse no zero entry
_QUARTER_AXES = (SX, SY, -SX, -SY)
_HALF_TURNS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


def _axis(phase):
    """cos(phase) SX + sin(phase) SY, exactly +-SX or +-SY at a phase that
    is a whole number of quarter turns."""
    turns = phase / (math.pi / 2.0)
    if turns == round(turns):
        return _QUARTER_AXES[int(turns) % 4]
    return math.cos(phase) * SX + math.sin(phase) * SY


def _rot2(angle, phase):
    for name, value in (("angle", angle), ("phase", phase)):
        if not math.isfinite(value):
            raise ValueError("rotation %s must be finite, got %g" % (name, value))
    turns = angle / math.pi
    if turns == round(turns):
        c, s = _HALF_TURNS[int(turns) % 4]
    else:
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return c * ID2 - 1j * s * _axis(phase)


def rotation(qubit, angle, phase):
    """8x8 unitary of exp(-i angle (cos phase X + sin phase Y)/2) on ``qubit``."""
    return embed1(_rot2(angle, phase), qubit)


def cnot(control, target):
    """8x8 unitary that flips ``target`` iff ``control`` is |1>."""
    if control == target:
        raise ValueError("control and target must differ")
    return embed1(P0, control) + embed1(SX, target) @ embed1(P1, control)


def controlled_rotation(control, target, angle, phase):
    """Apply rotation(target, angle, phase) iff ``control`` is |1>."""
    if control == target:
        raise ValueError("control and target must differ")
    return embed1(P0, control) + embed1(_rot2(angle, phase), target) @ embed1(
        P1, control
    )


def _run_circuit(gates):
    ket = np.zeros(8, dtype=complex)
    ket[0] = 1.0
    for u in gates:
        ket = u @ ket
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
