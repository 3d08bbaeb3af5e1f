"""Gate-level preparation of the pseudopure, GHZ, W, and WWbar states.

Rotation convention: R(theta)_phi = exp(-i theta (cos phi sigma_x +
sin phi sigma_y)/2), so phase 0 is the x axis, pi/2 the y axis, and a
"-y" pulse is phase 3 pi/2. Preparation circuits use the exact angles
the target amplitudes demand; the conventional two-decimal labels for
the W and WWbar rotations are loose roundings of THETA_W and
THETA_WWBAR below.

The spatial-averaging preparation maps the thermal state to the
pseudopure form with five pulse-delay-crusher blocks. Each J-coupling
delay is wrapped in a four-segment pi-pulse refocusing block that
cancels every offset and every coupling except the addressed pair, so
the run is offset-independent. Crushers are idealized as zeroing all
matrix elements of non-zero total coherence order.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .core import ID2, P0, P1, SX, SY, SZ, check_density, embed1, matrix_exp_hermitian
from .noise import hamiltonian

__all__ = [
    "Gate",
    "PseudopureParams",
    "rotation",
    "cnot",
    "controlled_rotation",
    "prepare_ghz",
    "prepare_w",
    "prepare_wwbar",
    "pseudopure",
    "crusher",
    "thermal_state",
    "prepare_pseudopure_sequence",
    "pseudopure_delays",
    "parse_circuit",
    "read_circuit",
    "apply_circuit",
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


@dataclass(frozen=True)
class PseudopureParams:
    """Thermal polarization of the pseudopure mixture, 0 < epsilon <= 1."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1], got %g" % self.epsilon)


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


def pseudopure(pure, params):
    """Mix a state with the identity: (1 - eps)/8 I + eps rho."""
    pure = check_density(pure)
    eps = params.epsilon
    return (1.0 - eps) / 8.0 * np.eye(8, dtype=complex) + eps * pure


_POPCOUNT = np.array([bin(a).count("1") for a in range(8)])
_ZERO_QUANTUM = _POPCOUNT[:, None] == _POPCOUNT[None, :]


def crusher(rho):
    """Idealized z-gradient: zero every element of coherence order != 0.

    The order of <a|rho|b> is the difference in total spin projection,
    so elements survive iff a and b have equal excitation number.
    Diagonal and zero-quantum elements pass through; idempotent.
    """
    rho = np.asarray(rho, dtype=complex)
    return np.where(_ZERO_QUANTUM, rho, 0.0)


def thermal_state(epsilon):
    """High-temperature equilibrium: I/8 + (epsilon/8) sum_i sigma_z^(i)."""
    dev = sum(embed1(SZ, q) for q in (1, 2, 3))
    return np.eye(8, dtype=complex) / 8.0 + (epsilon / 8.0) * dev


def _pi_pulse(*qubits):
    u = np.eye(8, dtype=complex)
    for q in qubits:
        u = embed1(_rot2(math.pi, 0.0), q) @ u
    return u


def _isolated_j(spins, i, j, tau):
    """Free evolution for tau with the J_ij coupling isolated.

    Four equal free segments with pi pulses: the lone spectator is
    flipped at tau/4 and 3 tau/4, the addressed pair at tau/2 and tau.
    Every offset and the two spectator couplings average to zero; the
    pulse product is the identity up to a global phase.
    """
    k = ({1, 2, 3} - {i, j}).pop()
    quarter = matrix_exp_hermitian(hamiltonian(spins), -tau / 4.0)
    u = np.eye(8, dtype=complex)
    for pulse in (_pi_pulse(k), _pi_pulse(i, j), _pi_pulse(k), _pi_pulse(i, j)):
        u = pulse @ quarter @ u
    return u


# flip angles of the spatial-averaging blocks: the first dumps spin 1 to
# a 1/3 share, the paired second-block angle splits spin 2 between its
# z term and the three-spin term 2:1, the rest are the quoted pi/4 pair
_DUMP_ANGLE = math.acos(1.0 / 3.0)
_SPLIT_ANGLE = math.acos(math.sqrt(2.0 / 3.0))


def pseudopure_delays(spins):
    """Transfer delays for the spatial-averaging sequence.

    Each J_ij delay must be an odd multiple of 1/(2|J_ij|); the sign of
    the resulting transfer depends on the multiple and on sign(J).
    Searched over small odd multiples, keeping the combination whose
    final deviation best matches the pseudopure target.
    """
    pairs = [(1, 2), (1, 3), (2, 3)]
    candidates = {p: [k / (2.0 * abs(spins.coupling_hz(*p))) for k in (1, 3)]
                  for p in pairs}
    best, best_score = None, -np.inf
    for t12 in candidates[(1, 2)]:
        for t13 in candidates[(1, 3)]:
            for t23 in candidates[(2, 3)]:
                delays = {(1, 2): t12, (1, 3): t13, (2, 3): t23}
                rho = prepare_pseudopure_sequence(spins, delays, epsilon=1e-3)
                score = _pseudopure_score(rho)
                if score > best_score:
                    best, best_score = delays, score
    return best


def _pseudopure_score(rho):
    # cosine overlap of the traceless deviation with the |000> target
    dev = rho - np.trace(rho).real / 8.0 * np.eye(8)
    target = np.zeros((8, 8), dtype=complex)
    target[0, 0] = 1.0
    target -= np.eye(8) / 8.0
    num = np.sum(dev.conj() * target).real
    den = np.linalg.norm(dev) * np.linalg.norm(target)
    return num / den if den > 0 else -np.inf


def prepare_pseudopure_sequence(spins, delays=None, epsilon=1e-5):
    """Spatial-averaging pseudopure preparation from thermal equilibrium.

    Five blocks, each ended by a crusher:

    1. dump pulse on spin 1,
    2. split pulses on spin 2 around J12 and J23 transfers (builds the
       three-spin order),
    3-5. pi/4 pulse pairs around a single J transfer each (J12, J23,
       J13), converting stored orders into the three two-spin terms.

    With the solved delays the seven product-operator coefficients come
    out equal, i.e. the deviation is proportional to |000><000| minus
    the identity share: populations show seven equal values and one
    distinct value.

    Parameters
    ----------
    spins : SpinSystem
        Couplings drive the transfers; offsets are refocused away.
    delays : dict or None
        {(1,2): s, (1,3): s, (2,3): s}; None solves them by grid search.
    epsilon : float
        Thermal polarization of the starting state.
    """
    if delays is None:
        delays = pseudopure_delays(spins)
    for pair in ((1, 2), (1, 3), (2, 3)):
        if pair not in delays:
            raise ValueError("delays must cover pair %r" % (pair,))
        if delays[pair] <= 0:
            raise ValueError("delay for %r must be positive" % (pair,))
    y, x = math.pi / 2.0, 0.0
    quarter = math.pi / 4.0
    rho = thermal_state(epsilon)

    def block(rho, unitaries):
        for u in unitaries:
            rho = u @ rho @ u.conj().T
        return crusher(rho)

    rho = block(rho, [rotation(1, _DUMP_ANGLE, y).unitary])
    rho = block(rho, [
        rotation(2, _SPLIT_ANGLE, y).unitary,
        _isolated_j(spins, 1, 2, delays[(1, 2)]),
        _isolated_j(spins, 2, 3, delays[(2, 3)]),
        rotation(2, _SPLIT_ANGLE, y).unitary,
    ])
    rho = block(rho, [
        rotation(2, quarter, y).unitary,
        _isolated_j(spins, 1, 2, delays[(1, 2)]),
        rotation(2, quarter, x).unitary,
    ])
    rho = block(rho, [
        rotation(3, quarter, y).unitary,
        _isolated_j(spins, 2, 3, delays[(2, 3)]),
        rotation(3, quarter, x).unitary,
    ])
    rho = block(rho, [
        rotation(3, quarter, y).unitary,
        _isolated_j(spins, 1, 3, delays[(1, 3)]),
        rotation(3, quarter, x).unitary,
    ])
    return check_density(rho)


#
# Circuit text format: one gate per line, fields are key=value pairs
# with float literals (radians). Lines starting with # and blank lines
# are skipped.
#
#   rotation q=<1..3> angle=<rad> phase=<rad>
#   cnot control=<1..3> target=<1..3>
#   crot control=<1..3> target=<1..3> angle=<rad> phase=<rad>
#

_CIRCUIT_FIELDS = {
    "rotation": ("q", "angle", "phase"),
    "cnot": ("control", "target"),
    "crot": ("control", "target", "angle", "phase"),
}


def parse_circuit(text):
    """Parse the circuit text format into a list of Gates."""
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        name = parts[0]
        if name not in _CIRCUIT_FIELDS:
            raise ValueError("line %d: unknown gate %r" % (lineno, name))
        fields = {}
        for tok in parts[1:]:
            m = re.fullmatch(r"([a-z]+)=([-+0-9.eE]+)", tok)
            if not m:
                raise ValueError("line %d: bad field %r" % (lineno, tok))
            fields[m.group(1)] = float(m.group(2))
        expected = _CIRCUIT_FIELDS[name]
        if set(fields) != set(expected):
            raise ValueError(
                "line %d: %s needs fields %s" % (lineno, name, ", ".join(expected))
            )
        if name == "rotation":
            gates.append(rotation(int(fields["q"]), fields["angle"], fields["phase"]))
        elif name == "cnot":
            gates.append(cnot(int(fields["control"]), int(fields["target"])))
        else:
            gates.append(controlled_rotation(
                int(fields["control"]), int(fields["target"]),
                fields["angle"], fields["phase"],
            ))
    return gates


def read_circuit(path):
    """Read and parse a circuit file."""
    with open(path) as f:
        return parse_circuit(f.read())


def apply_circuit(gates, rho0=None):
    """Apply gates in order; start from |000><000| unless rho0 is given."""
    if rho0 is None:
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
    else:
        rho = check_density(rho0).astype(complex)
    for g in gates:
        rho = g.unitary @ rho @ g.unitary.conj().T
    return rho
