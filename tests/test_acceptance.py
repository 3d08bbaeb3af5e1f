"""End-to-end checks, one test per published acceptance item.

Each test asserts one numbered criterion at its stated tolerance, so a
verbose pytest run shows one pass/fail line per criterion. Module-scoped
fixtures share the expensive ensemble runs between criteria.
"""

import numpy as np
import pytest

from triq import (
    T2_S,
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
    propagate_arms,
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
    # 50 evenly spaced samples on [0, 1 s]
    out = {}
    for name, (prep, _) in FAMILIES.items():
        out[name] = evolve(prep(), rates, 1.0, 1.0 / 49.0)
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
    unprotected = evolve(prepare_ghz(), rates, total, total)
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
    # the Markovian engine is exact at any step: 1,000 and 2,000 steps
    a, b = (propagate_arms(prepare_ghz(), rates, n, 0.5 / n, [{}], [n])[0]
            for n in (1000, 2000))
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


# -- the W claim across the dephasing family, seed-free ---------------------
# With Gaussian dephasing of phase variance V_i on qubit i, and pulses that
# refocus to +-I over whole cycles, the pure state rho decays to a fidelity
# F(V) = sum_ab |rho_ab|^2 exp(-1/2 sum_i V_i [a_i != b_i]). By Hamming
# distance the weights of |rho_ab|^2 are GHZ (1/2, 0, 0, 1/2), W
# (1/3, 0, 2/3, 0) and WWbar (1/6, 1/3, 1/3, 1/6); at equal V_i the slope
# ratio dF_W / dF_GHZ is (8/9) exp(V/2) >= 8/9, so no such bath makes W's
# gain half of GHZ's (CONFORMANCE.md, "Paper claims").

_BITS = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1
# 1 where qubit i's bit differs between row a and column b, (8, 8, 3)
_DIFFER = (_BITS[:, None, :] != _BITS[None, :, :]).astype(float)


def _dephased_fidelity(rho, v):
    """F(V) of the pure state ``rho`` for each row of phase variances v,
    an (n, 3) array."""
    return np.einsum("ab,abn->n", np.abs(rho) ** 2, np.exp(-0.5 * _DIFFER @ v.T))


def test_dephased_fidelity_is_the_closed_forms():
    # at kappa_x = 0 the closed forms damp a coherence by exp(-kz_i t) for
    # each differing bit i: a phase variance V_i = 2 kz_i t
    v = np.array([[0.0, 0.0, 0.0], [0.3, 1.1, 2.0], [5.0, 0.2, 3.3]])
    for name, (prepare, family) in FAMILIES.items():
        want = _dephased_fidelity(prepare(), v)
        for row, f in zip(v, want):
            noise = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=tuple(0.5 * row))
            assert fidelity(prepare(), family(1.0, noise)) == pytest.approx(
                f, abs=1e-14), name


def test_w_gain_is_never_marginal_under_refocused_dephasing():
    # 2,000 baths: a free variance up to 6 (fidelity near its floor) and a
    # protected one below it, each qubit's scaled inside the bundled T2
    # spread (0.52 to 0.55 s); the draws pick baths and estimate nothing
    rng = np.random.default_rng(16)
    spread = min(T2_S) / max(T2_S)
    v_free = rng.uniform(0.0, 6.0, (2000, 1)) * rng.uniform(spread, 1.0, (2000, 3))
    v_prot = v_free * rng.uniform(0.0, 1.0, (2000, 1)) * rng.uniform(
        spread, 1.0, (2000, 3))
    gain = {name: _dephased_fidelity(prepare(), v_prot)
            - _dephased_fidelity(prepare(), v_free)
            for name, (prepare, _) in FAMILIES.items()}
    other = np.minimum(gain["ghz"], gain["wwbar"])
    assert np.all(other > 0.0)
    # the claim of the strict xfail above fails for every bath: W keeps at
    # least 0.890 of the smaller other gain here, near the 8/9 of equal V
    assert not np.any(gain["w"] <= 0.5 * other)
    assert np.min(gain["w"] / other) > 0.88
