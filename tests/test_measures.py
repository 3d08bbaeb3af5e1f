import math

import numpy as np
import pytest
import scipy.linalg

from triq import (
    DecayCurve,
    PhysicalityError,
    curve_from_states,
    disentanglement_time,
    fidelity,
    first_crossing,
    fit_decay_rate,
    ghz_analytic,
    kron,
    negativity,
    prepare_ghz,
    prepare_w,
    prepare_wwbar,
    purity,
    tripartite_negativity,
    w_analytic,
    wwbar_analytic,
)
from triq import NoiseModel
from triq.measures import FIT_KEEP_FRACTION
from conftest import T1, T2, random_density

MIXED = np.eye(8, dtype=complex) / 8.0


@pytest.fixture(scope="module")
def analytic_curves():
    # 5 ms sampling over [0, 0.8]; shared by the fit and threshold tests
    rates = NoiseModel(kappa_x=tuple(1.0 / t for t in T1),
                       kappa_z=tuple(1.0 / t for t in T2))
    ts = np.arange(0.0, 0.8001, 0.005)
    out = {}
    for name, family in (("ghz", ghz_analytic), ("w", w_analytic),
                         ("wwbar", wwbar_analytic)):
        states = [family(float(t), rates) for t in ts]
        out[name] = curve_from_states(ts, states, states[0])
    return out


def test_negativity_reference_states():
    for q in (1, 2, 3):
        assert negativity(prepare_ghz(), q) == pytest.approx(1.0, abs=1e-12)
        assert negativity(prepare_w(), q) == pytest.approx(
            2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)
        assert negativity(prepare_wwbar(), q) == pytest.approx(
            math.sqrt(5.0) / 3.0, abs=1e-12)
    assert tripartite_negativity(prepare_ghz()) == pytest.approx(1.0, abs=1e-12)
    assert tripartite_negativity(prepare_w()) == pytest.approx(
        2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)
    assert tripartite_negativity(prepare_wwbar()) == pytest.approx(
        math.sqrt(5.0) / 3.0, abs=1e-12)


def test_negativity_rejects_unknown_cut():
    for qubit in (0, 4):
        with pytest.raises(ValueError, match="qubit must be 1, 2 or 3"):
            negativity(prepare_ghz(), qubit)


def test_negativity_vanishes_for_separable_states():
    ket0 = np.zeros(8, dtype=complex)
    ket0[0] = 1.0
    product = np.outer(ket0, ket0.conj())
    for rho in (MIXED, product):
        for q in (1, 2, 3):
            assert negativity(rho, q) == 0.0
        assert tripartite_negativity(rho) == 0.0


def test_tripartite_zero_when_one_cut_is_ppt():
    # Bell pair on qubits 1,2 with qubit 3 mixed: cuts 1 and 2 are
    # entangled, cut 3 is PPT, so the geometric mean floors at zero
    bell = np.zeros((4, 4), dtype=complex)
    for a, b in ((0, 0), (0, 3), (3, 0), (3, 3)):
        bell[a, b] = 0.5
    rho = kron(bell, np.eye(2, dtype=complex) / 2.0)
    # the mixed spectator dilutes the PT spectrum: min eigenvalue -1/4
    assert negativity(rho, 1) == pytest.approx(0.5, abs=1e-12)
    assert negativity(rho, 2) == pytest.approx(0.5, abs=1e-12)
    assert negativity(rho, 3) == 0.0
    assert tripartite_negativity(rho) == 0.0


def test_negativity_bounded_on_random_states(rng):
    for _ in range(25):
        rho = random_density(rng, rank=int(rng.integers(1, 9)))
        for q in (1, 2, 3):
            n = negativity(rho, q)
            assert 0.0 <= n <= 1.0 + 1e-12


def test_fidelity_matches_scipy_route(rng):
    # full-rank inputs keep both matrix square roots well conditioned
    for _ in range(10):
        a = random_density(rng)
        b = random_density(rng)
        ra = scipy.linalg.sqrtm(a)
        inner = scipy.linalg.sqrtm(ra @ b @ ra)
        expected = float(np.trace(inner).real ** 2)
        assert fidelity(a, b) == pytest.approx(expected, rel=1e-8)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)


def test_fidelity_pure_reference_is_overlap(rng):
    for _ in range(10):
        ket = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        ket /= np.linalg.norm(ket)
        rho = random_density(rng)
        overlap = float((ket.conj() @ rho @ ket).real)
        pure = np.outer(ket, ket.conj())
        # the trace of the inner square root collects sqrt(eps) from the
        # seven near-zero eigenvalues of the rank-1 product, so the
        # agreement floor sits near 1e-8, not machine precision
        assert fidelity(pure, rho) == pytest.approx(overlap, abs=1e-7)


def test_fidelity_identity_and_bounds(rng):
    rho = random_density(rng)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(prepare_ghz(), MIXED) == pytest.approx(0.125, rel=1e-12)
    assert 0.0 <= fidelity(random_density(rng), random_density(rng)) <= 1.0


def test_fidelity_validates_inputs():
    with pytest.raises(PhysicalityError):
        fidelity(prepare_ghz(), 0.9 * MIXED)


def test_purity(rng):
    assert purity(prepare_ghz()) == pytest.approx(1.0, abs=1e-13)
    assert purity(MIXED) == pytest.approx(0.125, abs=1e-15)
    rho = random_density(rng)
    vals = np.linalg.eigvalsh(rho)
    assert purity(rho) == pytest.approx(float(np.sum(vals**2)), rel=1e-12)


def _curve(times, values):
    arr = np.asarray(values, dtype=float)
    return DecayCurve(times=np.asarray(times, dtype=float), n1=arr, n2=arr,
                      n3=arr, n3_tri=arr, fidelity=arr, purity=arr)


def test_fit_decay_rate_recovers_exact_exponential():
    ts = np.linspace(0.0, 0.5, 60)
    gamma, rms = fit_decay_rate(_curve(ts, 0.9 * np.exp(-3.7 * ts)))
    assert gamma == pytest.approx(3.7, rel=1e-9)
    assert rms < 1e-10


def test_fit_decay_rate_needs_enough_live_samples():
    ts = np.linspace(0.0, 0.5, 60)
    with pytest.raises(ValueError, match="at least 10"):
        fit_decay_rate(_curve(ts, np.full_like(ts, 0.001)))


def test_fit_decay_rate_falls_back_to_the_floor_window():
    # 9 samples above N3_tri(0)/6 are too few, so the fit takes all 15
    # above FIT_FLOOR; the curvature makes the two windows disagree
    ts = np.linspace(0.0, 1.0, 15)
    n = 0.9 * np.exp(-2.0 * ts - 1.5 * ts**2)
    assert np.sum(n > FIT_KEEP_FRACTION * n[0]) == 9
    gamma, _ = fit_decay_rate(_curve(ts, n))
    assert gamma == pytest.approx(-np.polyfit(ts, np.log(n), 1)[0], rel=1e-9)
    assert abs(gamma + np.polyfit(ts[:9], np.log(n[:9]), 1)[0]) > 0.1


def test_fit_anchor_rates_inside_quoted_windows(analytic_curves):
    gammas = {}
    for name, curve in analytic_curves.items():
        gammas[name], rms = fit_decay_rate(curve)
        assert rms < 0.05
    assert gammas["ghz"] == pytest.approx(6.385381, abs=1e-4)
    assert gammas["w"] == pytest.approx(4.795650, abs=1e-4)
    assert gammas["wwbar"] == pytest.approx(5.829622, abs=1e-4)
    assert 6.23 <= gammas["ghz"] <= 6.43
    assert 4.74 <= gammas["w"] <= 4.94
    assert 5.75 <= gammas["wwbar"] <= 6.05
    assert gammas["ghz"] > gammas["wwbar"] > gammas["w"]


def test_disentanglement_time_interpolates():
    t = disentanglement_time(_curve([0.0, 1.0, 2.0], [0.5, 0.03, 0.005]))
    assert t == pytest.approx(1.8, abs=1e-12)


def test_first_crossing():
    times = np.array([0.0, 1.0, 2.0])
    assert first_crossing(times, np.array([0.5, 0.3, 0.1]), 0.2) == \
        pytest.approx(1.5, abs=1e-12)
    assert first_crossing(times, np.array([0.5, 0.4, 0.3]), 0.2) == math.inf
    assert first_crossing(times, np.array([0.1, 0.4, 0.3]), 0.2) == 0.0


def test_disentanglement_time_errors():
    with pytest.raises(ValueError, match="already below"):
        disentanglement_time(_curve([0.0, 1.0], [0.005, 0.001]))
    with pytest.raises(ValueError, match="no crossing"):
        disentanglement_time(_curve([0.0, 1.0], [0.5, 0.4]))


def test_threshold_crossings_frozen(analytic_curves):
    t = {name: disentanglement_time(c)
         for name, c in analytic_curves.items()}
    assert t["ghz"] == pytest.approx(0.489818, abs=2e-6)
    assert t["w"] == pytest.approx(0.579427, abs=2e-6)
    assert t["wwbar"] == pytest.approx(0.453760, abs=2e-6)


# The 0.01-floor crossing systematically precedes the true negativity
# zero (the collapse is super-exponential), so these land 0.010-0.016 s
# ahead of the quoted windows. decay_times, which bisects the actual
# zero, does land inside; see test_analytic.py.

@pytest.mark.xfail(reason="floor crossing at 0.4898 s precedes the window",
                   raises=AssertionError, strict=True)
def test_ghz_floor_crossing_inside_quoted_window(analytic_curves):
    assert 0.50 <= disentanglement_time(analytic_curves["ghz"]) <= 0.56


@pytest.mark.xfail(reason="floor crossing at 0.5794 s precedes the window",
                   raises=AssertionError, strict=True)
def test_w_floor_crossing_inside_quoted_window(analytic_curves):
    assert 0.59 <= disentanglement_time(analytic_curves["w"]) <= 0.65


@pytest.mark.xfail(reason="floor crossing at 0.4538 s precedes the window",
                   raises=AssertionError, strict=True)
def test_wwbar_floor_crossing_inside_quoted_window(analytic_curves):
    assert 0.47 <= disentanglement_time(analytic_curves["wwbar"]) <= 0.53


def test_curve_from_states_scores_each_sample(rates):
    states = [prepare_w(), w_analytic(0.2, rates), MIXED]
    curve = curve_from_states([0.0, 0.2, 0.4], states, states[0])
    assert np.array_equal(curve.states, states)
    for k, rho in enumerate(states):
        assert curve.n1[k] == negativity(rho, 1)
        assert curve.n3_tri[k] == tripartite_negativity(rho)
        assert curve.fidelity[k] == fidelity(states[0], rho)
        assert curve.purity[k] == purity(rho)


def test_curve_from_states_rejects_unequal_lengths(rates):
    # two times for three states would score three samples and label two
    states = [prepare_w(), w_analytic(0.2, rates), MIXED]
    with pytest.raises(ValueError, match="2 times for 3 states"):
        curve_from_states([0.0, 0.2], states, states[0])
    with pytest.raises(ValueError, match="3 times for 2 states"):
        curve_from_states([0.0, 0.2, 0.4], states[:2], states[0])


def test_decay_curve_rejects_non_increasing_times():
    with pytest.raises(ValueError, match="strictly increasing"):
        _curve([0.0, 0.1, 0.1], [0.5, 0.4, 0.3])
