import math

import numpy as np
import pytest

from triq import (
    SX,
    SY,
    THETA_W,
    THETA_WWBAR,
    build_kddxy,
    cnot,
    controlled_rotation,
    prepare_ghz,
    prepare_w,
    prepare_wwbar,
    rotation,
)
from triq.states import _axis


def ket_density(amplitudes):
    ket = np.zeros(8, dtype=complex)
    for idx, amp in amplitudes.items():
        ket[idx] = amp
    ket /= np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def test_rotation_is_unitary_and_correct():
    u = rotation(2, math.pi / 2.0, 0.0)
    assert isinstance(u, np.ndarray) and u.shape == (8, 8)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-14)
    # a pi pulse about x on qubit 2 maps |000> to -i|010>
    full = rotation(2, math.pi, 0.0)
    ket = np.zeros(8, dtype=complex)
    ket[0] = 1.0
    out = full @ ket
    assert out[2] == pytest.approx(-1j)


def test_rotation_phase_picks_the_axis():
    # phase pi/2 is the y axis: exp(-i theta Y/2) is real, exactly
    u = rotation(1, 1.1, math.pi / 2.0)
    assert not u.imag.any()


@pytest.mark.parametrize("phase, axis", [
    (0.0, SX), (math.pi / 2.0, SY), (-math.pi / 2.0, -SY), (math.pi, -SX),
    (3.0 * math.pi / 2.0, -SY), (5.0 * math.pi / 2.0, SY)])
def test_axis_is_exact_at_whole_quarter_turns(phase, axis):
    # cos(pi/2) is 6.1e-17 in floating point: the sum form left that
    # much of the other axis in every y pulse
    assert np.array_equal(_axis(phase), axis)


@pytest.mark.parametrize("turns", [-1, 1, 2, 3])
@pytest.mark.parametrize("phase", [0.0, math.pi / 2.0, math.pi,
                                   3.0 * math.pi / 2.0])
def test_rotation_is_exact_at_whole_half_turns(turns, phase):
    # cos(pi/2) is 6.1e-17 in floating point: the sum form left that
    # much dust in every pi pulse, so no ideal pulse had a zero entry
    u = rotation(2, turns * math.pi, phase)
    assert set(np.unique(u).tolist()) <= {0, 1, -1, 1j, -1j}
    assert np.all((u != 0).sum(axis=1) == 1)


def test_prepared_w_has_exactly_its_nine_elements():
    # the pi turn of W's circuit left 27 more elements, from 2.9e-17
    # down to 6.2e-34, before half turns were exact
    rho = prepare_w()
    assert np.count_nonzero(rho) == 9
    assert np.allclose(rho, ket_density({4: 1, 2: 1, 1: 1}), atol=1e-15)


def test_axis_keeps_the_kdd_sixth_turn_phases():
    # KDD_xy's pi/6 and 2 pi/3 keep the sum form bit for bit; its 0,
    # pi/2 and pi are whole quarter turns
    sixths = [p for p in build_kddxy(1e-3).pulses if p % (math.pi / 2.0)]
    assert sorted(set(sixths)) == [math.pi / 6.0, 2.0 * math.pi / 3.0]
    for phase in sixths:
        assert np.array_equal(
            _axis(phase), math.cos(phase) * SX + math.sin(phase) * SY)


@pytest.mark.parametrize("prepare", [prepare_ghz, prepare_w, prepare_wwbar])
def test_prepared_states_are_exactly_real(prepare):
    # so their Markovian decay is scored in real arithmetic
    assert not prepare().imag.any()


def test_rotation_rejects_bad_qubit():
    with pytest.raises(ValueError):
        rotation(4, 1.0, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["angle", "phase"])
def test_rotations_reject_a_non_finite_angle_or_phase(field, value):
    # a NaN gave a NaN matrix, and an infinite angle "math domain error"
    args = {"angle": 1.0, "phase": 0.0, field: value}
    message = "rotation %s must be finite" % field
    with pytest.raises(ValueError, match=message):
        rotation(1, args["angle"], args["phase"])
    with pytest.raises(ValueError, match=message):
        controlled_rotation(1, 2, args["angle"], args["phase"])


def test_cnot_truth_table():
    u = cnot(1, 3)
    # |100> -> |101>, |101> -> |100>, |000> untouched
    assert abs(u[5, 4]) == pytest.approx(1.0)
    assert abs(u[4, 5]) == pytest.approx(1.0)
    assert abs(u[0, 0]) == pytest.approx(1.0)
    assert np.allclose(u @ u, np.eye(8), atol=1e-14)


def test_cnot_rejects_equal_lines():
    with pytest.raises(ValueError):
        cnot(2, 2)
    with pytest.raises(ValueError):
        controlled_rotation(1, 1, 0.3, 0.0)


def test_controlled_rotation_blocks():
    u = controlled_rotation(1, 2, 0.8, 0.3)
    # control |0> block is the identity
    assert np.allclose(u[:4, :4], np.eye(4), atol=1e-14)
    assert np.allclose(u[:4, 4:], 0.0)
    # control |1> block is the single-qubit rotation on qubit 2
    r = rotation(2, 0.8, 0.3)
    assert np.allclose(u[4:, 4:], r[:4, :4], atol=1e-14)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-14)


def test_prepare_ghz_exact():
    rho = prepare_ghz()
    expected = ket_density({0: 1.0, 7: -1.0})
    assert np.allclose(rho, expected, atol=1e-12)


def test_prepare_w_exact():
    rho = prepare_w()
    expected = ket_density({4: 1.0, 2: 1.0, 1: 1.0})
    # global phase drops out of the density matrix
    assert np.allclose(rho, expected, atol=1e-12)


def test_prepare_wwbar_exact():
    rho = prepare_wwbar()
    expected = ket_density({1: 1.0, 2: 1.0, 4: 1.0, 3: 1.0, 5: 1.0, 6: 1.0})
    assert np.allclose(rho, expected, atol=1e-12)


def test_preparation_angles():
    # the exact angles behind the conventional rounded labels
    assert THETA_W == pytest.approx(2.0 * math.acos(math.sqrt(2.0 / 3.0)))
    assert THETA_W / math.pi == pytest.approx(0.39, abs=0.005)
    assert THETA_WWBAR / math.pi == pytest.approx(0.61, abs=0.005)
