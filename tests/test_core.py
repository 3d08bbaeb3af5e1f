import numpy as np
import pytest

from triq import (
    HERM_ATOL,
    ID2,
    SX,
    SY,
    SZ,
    NumericalError,
    PhysicalityError,
    check_density,
    kron,
    load_matrix,
    prepare_ghz,
    prepare_w,
    prepare_wwbar,
    real_if_exact,
    save_matrix,
)
from conftest import random_density


def test_pauli_algebra():
    assert np.allclose(SX @ SX, ID2)
    assert np.allclose(SY @ SY, ID2)
    assert np.allclose(SZ @ SZ, ID2)
    assert np.allclose(SX @ SY - SY @ SX, 2j * SZ)


def test_kron_ordering():
    # qubit 1 is the left factor: Z on qubit 1 gives diag(+1 x4, -1 x4)
    z1 = kron(kron(SZ, ID2), ID2)
    assert np.allclose(np.diag(z1), [1, 1, 1, 1, -1, -1, -1, -1])
    z3 = kron(kron(ID2, ID2), SZ)
    assert np.allclose(np.diag(z3), [1, -1, 1, -1, 1, -1, 1, -1])


def test_save_load_round_trip_is_exact(tmp_path, rng):
    rho = random_density(rng)
    path = tmp_path / "m.json"
    save_matrix(path, rho)
    back = load_matrix(path)
    assert back.shape == (8, 8)
    assert np.array_equal(back, rho)


def test_save_matrix_rejects_non_square(tmp_path):
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "m.json", np.zeros((2, 3)))


def test_load_matrix_rejects_bad_count(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"dim": 2, "entries": [[1, 0], [0, 0], [0, 0]]}')
    with pytest.raises(ValueError):
        load_matrix(p)


def test_check_density_accepts_and_returns(rng):
    rho = random_density(rng)
    assert check_density(rho) is rho
    # an eigenvalue above core.EIG_FLOOR, -1e-6, passes as round-off
    check_density(np.diag([1.0 + 5e-7, -5e-7, 0, 0, 0, 0, 0, 0]).astype(complex))


def test_check_density_rejects_each_defect():
    with pytest.raises(PhysicalityError, match="trace"):
        check_density(np.eye(8, dtype=complex))
    bad = np.eye(8, dtype=complex) / 8.0
    bad[0, 1] = 1e-3
    with pytest.raises(PhysicalityError, match="Hermiticity"):
        check_density(bad)
    neg = np.diag([1.1, -0.1, 0, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(PhysicalityError, match="eigenvalue"):
        check_density(neg)
    just_below = np.diag([1.0 + 2e-6, -2e-6, 0, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(PhysicalityError, match="negative eigenvalue -2"):
        check_density(just_below)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_check_density_rejects_non_finite_entries(bad):
    # NaN fails every comparison and eigvalsh returns NaN without raising,
    # so only an explicit finiteness check catches it
    rho = np.eye(8, dtype=complex) / 8.0
    rho[3, 3] = bad
    with pytest.raises(PhysicalityError, match="non-finite"):
        check_density(rho)


def test_numerical_errors_are_not_value_errors():
    # the CLI maps ValueError to a config error and these to a
    # numerical failure, so the two bases must stay disjoint
    for err in (NumericalError, PhysicalityError):
        assert issubclass(err, NumericalError)
        assert issubclass(err, ArithmeticError)
        assert not issubclass(err, ValueError)


def test_herm_atol_constant():
    assert HERM_ATOL == 1e-9


def test_real_if_exact_is_an_exact_test():
    rho = np.eye(8, dtype=complex) / 8.0
    real = real_if_exact(rho)
    assert real.dtype == np.float64 and np.array_equal(real, rho.real)
    assert real_if_exact(real) is real
    rho[1, 2], rho[2, 1] = 1e-300j, -1e-300j
    assert real_if_exact(rho) is rho
    rho[1, 2] = complex(0.0, np.nan)
    assert real_if_exact(rho) is rho


def _defective_stacks(defect):
    """The same stack of twelve states with ``defect`` at samples 4 and
    9, as float64 and as complex with a 1e-300 imaginary pair in every
    sample, which keeps it and each of its samples on the complex path."""
    states = [np.eye(8) / 8.0, prepare_ghz().real, prepare_w().real,
              prepare_wwbar().real]
    stack = np.stack(states * 3)
    for k in (9, 4):
        stack[k] = defect(stack[k])
    wide = stack.astype(complex)
    wide[:, 0, 7] += 1e-300j
    wide[:, 7, 0] -= 1e-300j
    return stack, wide


def _with_nan(rho):
    rho = rho.copy()
    rho[2, 5] = np.nan
    return rho


@pytest.mark.parametrize("defect, reason", [
    (_with_nan, "non-finite"),
    (lambda rho: 1.1 * rho, "trace"),
    (lambda rho: rho + np.diag([0.2, -0.2, 0, 0, 0, 0, 0, 0]),
     "negative eigenvalue")], ids=["nan", "trace", "negative"])
def test_check_density_names_the_same_failure_on_the_real_path(defect, reason):
    stack, wide = _defective_stacks(defect)
    errors = []
    for s in (stack, wide, stack[4], wide[4]):
        with pytest.raises(PhysicalityError) as err:
            check_density(s)
        errors.append(err.value)
    real, cplx, real_one, cplx_one = errors
    assert real.sample == cplx.sample == 4
    assert str(real) == str(cplx) and real.reason.startswith(reason)
    assert str(real_one) == str(cplx_one) == real.reason


def _asymmetric(rho):
    rho = rho.copy()
    rho[0, 1] += 1e-3
    return rho


@pytest.mark.parametrize("defect", [
    _with_nan, lambda rho: 1.1 * rho, _asymmetric,
    lambda rho: rho + np.diag([0.2, -0.2, 0, 0, 0, 0, 0, 0])],
    ids=["nan", "trace", "hermiticity", "negative"])
def test_check_density_reasons_name_no_numpy_type(defect):
    # a reason is user-facing text (the exit-3 message): a numpy scalar's
    # repr, such as np.complex128(1.1+0j) under numpy 2, must not leak in
    for s in _defective_stacks(defect):
        with pytest.raises(PhysicalityError) as err:
            check_density(s)
        assert "np." not in err.value.reason and "numpy" not in err.value.reason


def test_check_density_names_a_bad_trace_as_a_python_complex():
    for s in _defective_stacks(lambda rho: 1.1 * rho):
        with pytest.raises(PhysicalityError) as err:
            check_density(s[4])
        assert err.value.reason == "trace (1.1+0j) deviates from 1 by 1.000e-01"
