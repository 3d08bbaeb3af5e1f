"""End-to-end checks, one test per published acceptance item.

Each test asserts one numbered criterion at its stated tolerance, so a
verbose pytest run shows one pass/fail line per criterion. Module-scoped
fixtures share the expensive ensemble runs between criteria.
"""

import numpy as np
import pytest

from triq import (
    NoiseModel,
    build_cpmg,
    build_kddxy,
    build_xy16s,
    curve_from_states,
    cycle_duration,
    decay_times,
    evolve,
    fidelity,
    fit_decay_rate,
    ghz_analytic,
    mle_reconstruct,
    prepare_ghz,
    prepare_w,
    prepare_wwbar,
    run_protected,
    tomograph,
    tripartite_negativity,
    w_analytic,
    wwbar_analytic,
)
from triq.cli import main

FAMILIES = {
    "ghz": (prepare_ghz, ghz_analytic),
    "w": (prepare_w, w_analytic),
    "wwbar": (prepare_wwbar, wwbar_analytic),
}

# OU bath width calibrated with the calibrate subcommand at 512
# trajectories (seed 11, tau_c = 10 ms, the default bracket [1, 60]
# rad/s; pinned by test_calibrate_reproduces_sigma_star) so the
# unprotected qubit-1 coherence 1/e time matches T2_1 = 0.53 s.
SIGMA_STAR = 13.7117919922
TAU_C = 0.01


@pytest.fixture(scope="module")
def rates():
    return NoiseModel.from_times()


@pytest.fixture(scope="module")
def markovian_curves(rates):
    # 50 evenly spaced samples on [0, 1 s]; dt divides the grid spacing
    dt = (1.0 / 49.0) / 40.0
    out = {}
    for name, (prep, _) in FAMILIES.items():
        out[name] = evolve(prep(), rates, 1.0, dt=dt, sample_every=40)
    return out


def c5_protect(prepare):
    # XY-16(s) at tau = 0.25 ms for 60 cycles = 240 ms under the
    # calibrated bath, against free evolution on the same step grid
    nm = NoiseModel.from_times(bath_mode="correlated",
                               ou_sigma=SIGMA_STAR, ou_tau_c=TAU_C,
                               trajectories=64, seed=2026)
    schedule = build_xy16s(0.25e-3, cycles=60)
    return run_protected(prepare(), nm, schedule)


@pytest.fixture(scope="module")
def protection_runs():
    return c5_protect(prepare_ghz)


@pytest.fixture(scope="module")
def dd_runs(protection_runs):
    """(protected, free) of every family under c5's bath and schedule."""
    return {"ghz": protection_runs, "w": c5_protect(prepare_w),
            "wwbar": c5_protect(prepare_wwbar)}


def test_c1_oracle_equivalence(rates, markovian_curves):
    # numerical integration vs the closed-form matrices, elementwise
    for name, (_, family) in FAMILIES.items():
        curve = markovian_curves[name]
        assert len(curve.times) == 50
        worst = max(
            float(np.max(np.abs(family(float(t), rates) - s)))
            for t, s in zip(curve.times, curve.states)
        )
        assert worst < 1e-6, (name, worst)


def test_c2_ideal_state_negativity_anchors():
    assert tripartite_negativity(prepare_ghz()) == pytest.approx(1.0, abs=1e-12)
    assert tripartite_negativity(prepare_w()) == pytest.approx(0.94, abs=0.01)
    assert tripartite_negativity(prepare_wwbar()) == pytest.approx(0.74, abs=0.01)


def test_c3_analytic_disentanglement_times(rates):
    times = decay_times(rates)
    assert times["ghz"] == pytest.approx(0.53, abs=0.03)
    assert times["wwbar"] == pytest.approx(0.50, abs=0.03)
    assert times["w"] == pytest.approx(0.62, abs=0.03)


def test_c4_fitted_decay_rates_and_ordering(rates):
    ts = np.arange(0.0, 0.8001, 0.005)
    gammas = {}
    for name, (_, family) in FAMILIES.items():
        states = [family(float(t), rates) for t in ts]
        gammas[name], _ = fit_decay_rate(curve_from_states(ts, states, states[0]))
    assert gammas["ghz"] == pytest.approx(6.33, abs=0.1)
    assert gammas["wwbar"] == pytest.approx(5.90, abs=0.15)
    assert gammas["w"] == pytest.approx(4.84, abs=0.1)
    # W most robust, GHZ most fragile, WWbar between
    assert gammas["w"] < gammas["wwbar"] < gammas["ghz"]


def test_c5_dd_protection(rates, protection_runs):
    prot, free = protection_runs
    assert prot.times[-1] == pytest.approx(0.24, rel=1e-12)
    pf = prot.n3_tri[-1] / free.n3_tri[-1]
    assert pf >= 3.0
    # net identity on a noiseless system for both bundled sequences
    quiet = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0))
    for build in (build_xy16s, build_kddxy):
        sch = build(0.25e-3, cycles=3)
        curve, _ = run_protected(prepare_ghz(), quiet, sch)
        assert float(np.min(curve.fidelity)) >= 1.0 - 1e-9
    # purely Markovian noise: decoupling changes nothing within 2%
    sch = build_xy16s(0.25e-3, cycles=12)
    total = 12 * cycle_duration(sch)
    protected, _ = run_protected(prepare_ghz(), rates, sch)
    unprotected = evolve(prepare_ghz(), rates, total, dt=2.4e-5, sample_every=10**9)
    assert protected.n3_tri[-1] == pytest.approx(unprotected.n3_tri[-1],
                                                 rel=0.02)


def test_c6_pulse_robustness_ordering():
    quiet = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0))
    tau = 0.25e-3
    mins = {}
    for name, build in (("cpmg", build_cpmg), ("xy16s", build_xy16s),
                        ("kddxy", build_kddxy)):
        sch = build(tau, cycles=100, flip_error=0.01)
        curve, _ = run_protected(prepare_ghz(), quiet, sch)
        mins[name] = float(np.min(curve.fidelity))
    assert mins["kddxy"] >= mins["xy16s"] >= mins["cpmg"]


def test_c7_tomography_round_trip():
    for prep, _ in FAMILIES.values():
        rho = prep()
        est = mle_reconstruct(tomograph(rho))
        assert fidelity(rho, est) > 0.999


def test_c8_physicality_and_integrator_order(rates, markovian_curves, protection_runs):
    everything = []
    for curve in markovian_curves.values():
        everything.extend(curve.states)
    for curve in protection_runs:
        everything.extend(curve.states)
    for rho in everything:
        assert abs(np.trace(rho).real - 1.0) <= 1e-8
        assert float(np.max(np.abs(rho - rho.conj().T))) <= 1e-9
        assert float(np.linalg.eigvalsh(rho).min()) >= -1e-6
    a = evolve(prepare_ghz(), rates, 0.5, dt=5e-4, sample_every=10**9)
    b = evolve(prepare_ghz(), rates, 0.5, dt=2.5e-4, sample_every=10**9)
    assert float(np.max(np.abs(a.states[-1] - b.states[-1]))) < 1e-8


def test_c9_csv_byte_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "state = ghz\n"
        "bath.mode = correlated\n"
        "bath.sigma_rad_s = 13.7117919922\n"
        "bath.trajectories = 8\n"
        "dd.sequence = xy16s\n"
        "dd.tau_s = 0.001\n"
        "grid.t_final_s = 0.032\n"
        "seed = 2026\n"
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = main(["protect", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    for name in ("protected.csv", "unprotected.csv", "protect.svg"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# -- paper claims (CONFORMANCE.md, "Paper claims") --------------------------
# Final fidelity, free -> protected, under c5's bath and schedule:
# GHZ 0.590 -> 0.932, W 0.567 -> 0.933, WWbar 0.540 -> 0.962.

def test_paper_claim_dd_protects_wwbar_significantly(dd_runs):
    prot, free = dd_runs["wwbar"]
    assert free.fidelity[-1] == pytest.approx(0.540, abs=1e-3)
    assert prot.fidelity[-1] == pytest.approx(0.962, abs=1e-3)
    # protected as GHZ is in c5: tripartite negativity kept 3.2-fold
    assert prot.n3_tri[-1] / free.n3_tri[-1] >= 3.0


@pytest.mark.xfail(reason="W gains as much fidelity as GHZ and WWbar in the "
                   "OU bath: free -> protected GHZ 0.590 -> 0.932, W 0.567 "
                   "-> 0.933, WWbar 0.540 -> 0.962",
                   raises=AssertionError, strict=True)
def test_paper_claim_dd_gain_marginal_for_w(dd_runs):
    gain = {name: prot.fidelity[-1] - free.fidelity[-1]
            for name, (prot, free) in dd_runs.items()}
    # marginal: at most half of the smaller gain of the other two
    assert gain["w"] <= 0.5 * min(gain["ghz"], gain["wwbar"])
