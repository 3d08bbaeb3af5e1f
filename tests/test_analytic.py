import math

import numpy as np
import pytest

from triq import (
    NoiseModel,
    check_density,
    curve_from_states,
    decay_times,
    evolve,
    ghz_analytic,
    prepare_ghz,
    prepare_w,
    prepare_wwbar,
    tripartite_negativity,
    w_analytic,
    wwbar_analytic,
)
from conftest import T1, T2

FAMILIES = {"ghz": ghz_analytic, "w": w_analytic, "wwbar": wwbar_analytic}
PREPARED = {"ghz": prepare_ghz, "w": prepare_w, "wwbar": prepare_wwbar}


def test_rateset_validation():
    # the closed forms read their rates from a Markovian NoiseModel
    with pytest.raises(ValueError, match="three entries"):
        NoiseModel(kappa_x=(1.0, 1.0), kappa_z=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="non-negative"):
        NoiseModel(kappa_x=(1.0, -0.1, 1.0), kappa_z=(1.0, 1.0, 1.0))
    r = NoiseModel.from_times()
    assert r.kappa_x == tuple(1.0 / t for t in T1)
    assert r.kappa_z == tuple(1.0 / t for t in T2)


def test_families_start_at_prepared_states(rates):
    for name, family in FAMILIES.items():
        assert np.allclose(family(0.0, rates), PREPARED[name](), atol=1e-15)


def test_families_reject_negative_time(rates):
    for family in FAMILIES.values():
        with pytest.raises(ValueError, match="non-negative"):
            family(-0.01, rates)


def test_trace_and_hermiticity_random_rates(rng):
    for _ in range(20):
        r = NoiseModel(kappa_x=tuple(rng.uniform(0.05, 3.0, 3)),
                       kappa_z=tuple(rng.uniform(0.05, 3.0, 3)))
        t = float(rng.uniform(0.0, 1.5))
        for family in FAMILIES.values():
            rho = family(t, r)
            assert abs(np.trace(rho) - 1.0) < 1e-14
            assert np.allclose(rho, rho.conj().T, atol=1e-15)


def test_physicality_on_millisecond_grid(rates):
    for family in FAMILIES.values():
        for t in np.arange(0.0, 1.0005, 0.001):
            check_density(family(float(t), rates))


def test_sector_structure(rates):
    # the damping model never populates sectors absent from the start:
    # GHZ keeps diagonal + antidiagonal, W and WWbar stay inside the
    # sectors their initial coherences occupy
    masks = {
        "ghz": {0, 7},
        "w": {0, 3, 5, 6},
        "wwbar": {0, 1, 2, 3, 4, 5, 6, 7},
    }
    for name, family in FAMILIES.items():
        rho = family(0.23, rates)
        for a in range(8):
            for b in range(8):
                if (a ^ b) not in masks[name]:
                    assert rho[a, b] == 0.0, (name, a, b)


def test_oracle_matches_integrator_random_rates(rng):
    for _ in range(5):
        noise = NoiseModel(kappa_x=tuple(rng.uniform(0.1, 2.5, 3)),
                           kappa_z=tuple(rng.uniform(0.1, 2.5, 3)))
        for name, family in FAMILIES.items():
            curve = evolve(PREPARED[name](), noise, 0.4, 0.04)
            worst = max(
                np.max(np.abs(family(float(t), noise) - s))
                for t, s in zip(curve.times, curve.states)
            )
            assert worst < 1e-9, (name, worst)


def test_engine_equals_the_closed_forms_on_the_decay_grid(rates):
    # the decay command's grid: without pulses every sample is the closed
    # form of the initial state, not the product of 2,000 steps
    for name, family in FAMILIES.items():
        curve = evolve(PREPARED[name](), rates, 1.0, 5e-4)
        assert len(curve.times) == 2001
        worst = np.max(np.abs(curve.states - family(curve.times, rates)))
        assert worst <= 1e-15, (name, worst)


def test_corrected_offdiagonal_placements(rates):
    # the three placements that differ from the published tabulation
    # (see CONFORMANCE.md), written out with explicit exponentials
    t = 0.3
    z1, z2, z3 = rates.kappa_z
    g1, g2, g3 = (math.exp(-k * t) for k in rates.kappa_x)
    w = w_analytic(t, rates)
    assert w[0, 6] == pytest.approx(
        math.exp(-(z1 + z2) * t) * (1 - g1 * g2) * (1 + g3) / 12.0, rel=1e-12)
    ww = wwbar_analytic(t, rates)
    assert ww[4, 5] == pytest.approx(
        math.exp(-z3 * t) * (1 + g1 * g2) / 12.0, rel=1e-12)
    assert ww[4, 7] == pytest.approx(
        math.exp(-(z2 + z3) * t) * (1 - g2 * g3) / 12.0, rel=1e-12)


def test_ghz_sign_flag(rates):
    # the closed form carries the circuit's -1 corner; Z on qubit 1 gives
    # the tabulated +1 corner and leaves every metric as it is
    minus = ghz_analytic(0.2, rates)
    z1 = np.diag([1.0] * 4 + [-1.0] * 4)
    plus = z1 @ minus @ z1
    assert minus[0, 7].real < 0 < plus[0, 7].real
    assert np.array_equal(np.diag(minus), np.diag(plus))
    assert tripartite_negativity(minus) == pytest.approx(
        tripartite_negativity(plus), abs=1e-14)


def test_long_time_limit_is_maximally_mixed(rates):
    for family in FAMILIES.values():
        assert np.allclose(family(200.0, rates), np.eye(8) / 8.0, atol=1e-12)


def test_tripartite_negativity_monotone(rates):
    for family in FAMILIES.values():
        grid = [tripartite_negativity(family(t, rates))
                for t in np.arange(0.0, 0.7, 0.01)]
        assert all(b <= a + 1e-12 for a, b in zip(grid, grid[1:]))


def test_decay_times_frozen_and_inside_quoted_windows(rates):
    times = decay_times(rates)
    assert times["ghz"] == pytest.approx(0.5014, abs=2e-3)
    assert times["w"] == pytest.approx(0.5948, abs=2e-3)
    assert times["wwbar"] == pytest.approx(0.4723, abs=2e-3)
    assert 0.50 <= times["ghz"] <= 0.56
    assert 0.59 <= times["w"] <= 0.65
    assert 0.47 <= times["wwbar"] <= 0.53
    # ordering: the WWbar state dies first, the W state last
    assert times["wwbar"] < times["ghz"] < times["w"]


def test_decay_times_resolution(rates):
    # against a 1 us scan of the tripartite negativity over 4 ms around
    # each time: the bisection returns the middle of a bracket at most
    # 1 ms wide around the first zero
    times = decay_times(rates)
    for name, family in FAMILIES.items():
        ts = times[name] + np.arange(-2000, 2001) * 1e-6
        n3_tri = curve_from_states(ts, family(ts, rates), PREPARED[name]()).n3_tri
        # alive at the scan's start, so its first zero is the first zero
        assert n3_tri[0] > 0.0 and n3_tri[-1] == 0.0
        zero = ts[np.argmax(n3_tri <= 0.0)]
        assert abs(times[name] - zero) <= 0.5e-3 + 1e-6


def test_decay_times_raises_when_state_never_dies():
    quiet = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="still positive"):
        decay_times(quiet)


def test_closed_forms_reject_correlated_bath():
    # the OU dephasing has no closed form here; the rates alone would
    # silently describe the Markovian model instead
    nm = NoiseModel.from_times(bath_mode="correlated", ou_sigma=10.0,
                               ou_tau_c=0.01)
    for family in FAMILIES.values():
        with pytest.raises(ValueError, match="bath_mode = markovian"):
            family(0.1, nm)
        with pytest.raises(ValueError, match="bath_mode = markovian"):
            family(np.array([0.0, 0.1]), nm)
    with pytest.raises(ValueError, match="bath_mode = markovian"):
        decay_times(nm)
