"""The batched metric kernel behind curve_from_states and the closed forms
evaluated on arrays of times."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from triq import (NoiseModel, PhysicalityError, check_density, curve_from_states,
                  fidelity, ghz_analytic, negativity, prepare_w, purity,
                  real_if_exact, tripartite_negativity, w_analytic, wwbar_analytic)
from triq.measures import _score
from conftest import random_density, random_local_unitary, random_pure

PROPERTY = settings(max_examples=10, deadline=None, derandomize=True)
FAMILIES = (ghz_analytic, w_analytic, wwbar_analytic)

# sizes around the kernel's block of 64 samples
sizes = st.sampled_from([1, 63, 64, 65, 130])
seeds = st.integers(0, 2**32)


def _states(rng, n):
    return [random_density(rng, rank=int(rng.integers(1, 9))) for _ in range(n)]


def _uhlmann_scipy(a, b):
    ra = scipy.linalg.sqrtm(a)
    return float(np.trace(scipy.linalg.sqrtm(ra @ b @ ra)).real ** 2)


@PROPERTY
@given(sizes, seeds, st.booleans())
def test_curve_columns_equal_the_scalar_functions(n, seed, pure_reference):
    rng = np.random.default_rng(seed)
    states = _states(rng, n)
    reference = random_pure(rng) if pure_reference else random_density(rng)
    curve = curve_from_states(np.arange(n, dtype=float), states, reference)
    for k, rho in enumerate(states):
        assert curve.n1[k] == negativity(rho, 1)
        assert curve.n2[k] == negativity(rho, 2)
        assert curve.n3[k] == negativity(rho, 3)
        assert curve.n3_tri[k] == tripartite_negativity(rho)
        assert curve.fidelity[k] == fidelity(reference, rho)
        assert curve.purity[k] == purity(rho)


@PROPERTY
@given(sizes, seeds)
def test_mixed_reference_matches_the_scipy_route(n, seed):
    # full-rank inputs keep both matrix square roots well conditioned
    rng = np.random.default_rng(seed)
    states = [random_density(rng) for _ in range(n)]
    reference = random_density(rng)
    curve = curve_from_states(np.arange(n, dtype=float), states, reference)
    expected = [_uhlmann_scipy(reference, rho) for rho in states]
    assert curve.fidelity == pytest.approx(expected, rel=1e-8)


@PROPERTY
@given(seeds)
def test_pure_reference_fidelity_is_the_overlap(seed):
    rng = np.random.default_rng(seed)
    ket = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ket /= np.linalg.norm(ket)
    reference = np.outer(ket, ket.conj())
    states = _states(rng, 65)
    curve = curve_from_states(np.arange(65, dtype=float), states, reference)
    for k, rho in enumerate(states):
        overlap = float((ket.conj() @ rho @ ket).real)
        assert abs(curve.fidelity[k] - overlap) <= 1e-14
        assert abs(fidelity(reference, rho) - overlap) <= 1e-14


@PROPERTY
@given(seeds)
def test_negativity_is_invariant_under_local_unitaries(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, rank=int(rng.integers(1, 9)))
    u = random_local_unitary(rng)
    moved = u @ rho @ u.conj().T
    for q in (1, 2, 3):
        assert negativity(moved, q) == pytest.approx(negativity(rho, q), abs=1e-12)
    assert tripartite_negativity(moved) == pytest.approx(
        tripartite_negativity(rho), abs=1e-12)


def _unphysical():
    nan = np.eye(8, dtype=complex) / 8.0
    nan[2, 5] = np.nan
    negative = np.diag([0.52, 0.5, -0.02, 0, 0, 0, 0, 0]).astype(complex)
    return {"non-finite": nan, "negative eigenvalue": negative}


@pytest.mark.parametrize("kind", ["non-finite", "negative eigenvalue"])
@pytest.mark.parametrize("k", [70, 100])
def test_unphysical_sample_in_a_block_is_named(kind, k):
    bad = _unphysical()[kind]
    states = _states(np.random.default_rng(k), 130)
    states[k] = bad
    times = 1e-3 * np.arange(130)
    with pytest.raises(PhysicalityError) as single:
        check_density(bad)
    # the error names the sample by its index in the curve, not in its
    # block of 64, and by its time
    with pytest.raises(PhysicalityError, match="^sample %d: at t = %g s: %s"
                       % (k, k / 1000, kind)) as err:
        curve_from_states(times, states, states[0])
    assert err.value.sample == k
    assert str(err.value) == "sample %d: at t = %.9g s: %s" % (
        k, times[k], single.value)


def test_stack_check_reports_the_first_failing_sample():
    stack = np.stack(_states(np.random.default_rng(3), 12))
    bad = _unphysical()
    stack[9] = bad["non-finite"]
    stack[4] = bad["negative eigenvalue"]
    with pytest.raises(PhysicalityError, match="^sample 4: negative eigenvalue"):
        check_density(stack)
    stack[4] *= 2.0
    with pytest.raises(PhysicalityError, match="^sample 4: trace"):
        check_density(stack)
    stack[4] = stack[0]
    with pytest.raises(PhysicalityError, match="^sample 9: non-finite"):
        check_density(stack)
    stack[9] = stack[0]
    assert check_density(stack) is not None


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_forms_on_time_arrays_equal_the_per_time_calls(family, rates):
    ts = np.concatenate([np.arange(0.0, 1.0005, 0.0005),
                         np.random.default_rng(11).uniform(0.0, 3.0, 200)])
    stack = family(ts, rates)
    assert stack.shape == (len(ts), 8, 8)
    for k, t in enumerate(ts):
        assert np.array_equal(stack[k], family(float(t), rates))
    assert family(0.25, rates).shape == (8, 8)
    with pytest.raises(ValueError, match="non-negative"):
        family(np.array([0.0, 0.1, -0.01]), rates)


def _placed_spectra(rng, n, low, target):
    """n Hermitian unit-trace matrices. Each has one eigenvalue within
    2e-12 of ``low`` and the rest positive: the matrix itself when
    target is 0, else its partial transpose on qubit ``target``."""
    out = np.empty((n, 8, 8), dtype=complex)
    for k in range(n):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        vecs = np.linalg.qr(g)[0]
        vals = rng.uniform(0.9, 1.0, 8)
        vals[0] = 0.0
        lam = low + rng.uniform(-2e-12, 2e-12)
        vals = lam + vals * (1.0 - 8.0 * lam) / vals.sum()
        m = (vecs * vals) @ vecs.conj().T
        if target:
            m = np.swapaxes(m.reshape(2, 2, 2, 2, 2, 2), target - 1,
                            target + 2).reshape(8, 8)
        out[k] = 0.5 * (m + m.conj().T)
    return out


def _eigenvalue_route(fn, *args):
    """fn(*args) with every Cholesky certificate failing, so that only
    the eigenvalues decide; returns the result or the error."""
    def fail(a):
        raise np.linalg.LinAlgError("forced")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", fail)
        try:
            return fn(*args)
        except PhysicalityError as err:
            return err


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([1, 5, 64, 65]),
       st.sampled_from([-1e-6, -0.5e-6, 0.0, 1e-12]),
       st.integers(0, 3), seeds)
def test_cholesky_certificates_agree_with_the_eigenvalues(n, low, target, seed):
    # the smallest eigenvalue of each sample, or of one of its partial
    # transposes, straddles the check's floor (-1e-6), the certificate's
    # shift (-0.5e-6), zero, or the PPT margin (1e-12): the verdict, the
    # sample named, the message and every cut are those of the
    # eigenvalues alone
    stack = _placed_spectra(np.random.default_rng(seed), n, low, target)
    want = _eigenvalue_route(check_density, stack)
    try:
        got = check_density(stack)
    except PhysicalityError as err:
        got = err
    assert type(got) is type(want)
    if isinstance(want, PhysicalityError):
        assert (got.sample, got.reason, str(got)) == (
            want.sample, want.reason, str(want))
    want_cuts = _eigenvalue_route(_score, stack)[0]
    assert np.array_equal(_score(stack)[0], want_cuts)


def test_certificates_spare_the_eigenvalues_of_physical_ppt_blocks():
    # a 64-sample block of physical PPT states takes no eigenvalue call
    # in the check or in the negativities
    stack = np.stack([0.9 * np.eye(8) / 8.0 + 0.1 * rho
                      for rho in _states(np.random.default_rng(5), 64)])

    def fail(a):
        raise AssertionError("eigvalsh called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", fail)
        assert check_density(stack) is stack
        cuts = _score(stack)[0]
    assert np.array_equal(cuts, np.zeros((64, 3)))


def test_failed_certificate_raises_the_physicality_error():
    # the certificate's LinAlgError never escapes, even with warnings as
    # errors: the CLI would report it as another kind of failure
    stack = np.stack(_states(np.random.default_rng(9), 40))
    stack[17] = np.diag([0.5, 0.5 + 2e-6, -2e-6, 0, 0, 0, 0, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PhysicalityError,
                           match="^sample 17: negative eigenvalue -2.000e-06$"):
            check_density(stack)


# -- the real path: an exactly real stack is scored in real arithmetic ------

def _real_stack():
    # every closed-form family over its first second, entangled and not
    times = np.linspace(0.0, 1.0, 40)
    rates = NoiseModel.from_times()
    return np.concatenate([family(times, rates) for family in FAMILIES])


def _complex_reference(stack, ket):
    """_score's columns by complex eigvalsh on complex copies, the route
    every stack took before the real path."""
    stack = stack.astype(complex)
    r = stack.reshape(-1, 2, 2, 2, 2, 2, 2)
    pts = np.stack([np.swapaxes(r, q, q + 3) for q in (1, 2, 3)],
                   axis=1).reshape(-1, 3, 8, 8)
    cuts = 2.0 * np.maximum(0.0, -np.linalg.eigvalsh(pts)[..., 0])
    fid = np.einsum("a,nab,b->n", ket.conj(), stack, ket.astype(complex)).real
    return cuts, fid, np.einsum("nab,nba->n", stack, stack).real


def test_real_path_agrees_with_complex_eigvalsh():
    stack = _real_stack()
    assert stack.dtype == np.float64
    ket = np.linalg.eigh(prepare_w())[1][:, -1]
    cuts, n3_tri, fid, pur = _score(stack, (ket, None))
    want_cuts, want_fid, want_pur = _complex_reference(stack, ket)
    assert np.max(np.abs(cuts - want_cuts)) <= 1e-14
    assert np.max(np.abs(fid - want_fid)) <= 1e-14
    assert np.max(np.abs(pur - want_pur)) <= 1e-14
    assert np.count_nonzero(n3_tri) > 0  # the entangled samples took eigvalsh


def _lapack_dtypes(monkeypatch):
    seen = []
    for name in ("cholesky", "eigvalsh"):
        def spy(a, *args, _real=getattr(np.linalg, name), **kwargs):
            seen.append(a.dtype)
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return seen


def test_exactly_real_complex_stack_takes_the_real_path(monkeypatch):
    stack = _real_stack().astype(complex)
    seen = _lapack_dtypes(monkeypatch)
    check_density(stack)
    _score(stack)
    assert seen and set(seen) == {np.dtype(np.float64)}


def test_one_imaginary_entry_keeps_the_complex_path(monkeypatch):
    stack = _real_stack().astype(complex)
    # a Hermitian pair far below every tolerance still counts
    stack[17, 2, 5] += 1e-300j
    stack[17, 5, 2] -= 1e-300j
    assert real_if_exact(stack) is stack
    seen = _lapack_dtypes(monkeypatch)
    check_density(stack)
    _score(stack)
    assert seen and set(seen) == {np.dtype(np.complex128)}
