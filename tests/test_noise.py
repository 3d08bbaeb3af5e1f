import math

import numpy as np
import pytest

from triq import (
    T1_S,
    T2_S,
    NoiseModel,
    PhysicalityError,
    build_cpmg,
    build_kddxy,
    build_xy16s,
    disentanglement_time,
    evolve,
    ghz_analytic,
    kron,
    ou_unit_phases,
    prepare_ghz,
    propagate_arms,
    run_protected,
    steps_per,
    tripartite_negativity,
)
import triq.noise
from triq.core import ID2, SX, SZ, embed1
from triq.noise import _ou_paths
from conftest import T1, T2, random_density

PLUS = np.full((2, 2), 0.5, dtype=complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)


def plus_ground_ground():
    return kron(kron(PLUS, GROUND), GROUND)


def lindblad_rhs(rho, noise):
    """Right-hand side of the master equation, built from explicit operators.

    d rho/dt = sum_i sum_{a in {x,z}} (L rho L^dag - (1/2){L^dag L, rho})
    with L_{i,x} = sqrt(kappa_x/2) sigma_x^(i) and L_{i,z} =
    sqrt(kappa_z/2) sigma_z^(i). Traceless and Hermitian output; the
    oracle the propagator is pinned against.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (8, 8):
        raise ValueError("expected an 8x8 density matrix, got %r" % (rho.shape,))
    out = np.zeros((8, 8), dtype=complex)
    for i in (1, 2, 3):
        for op, rate in ((SX, noise.kappa_x[i - 1]), (SZ, noise.kappa_z[i - 1])):
            if rate == 0.0:
                continue
            l = math.sqrt(rate / 2.0) * embed1(op, i)
            ll = l.conj().T @ l
            out += l @ rho @ l.conj().T - 0.5 * (ll @ rho + rho @ ll)
    return out


def ou_path(tau_c, sigma, dt, n_steps, seed):
    """One stationary OU track of length n_steps, deterministic per seed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    return _ou_paths(rng, tau_c, sigma, dt, n_steps, 1)[:, 0]


def test_bundled_times():
    assert T1_S == T1
    assert T2_S == T2


def test_from_times_validation():
    with pytest.raises(ValueError, match="T2"):
        NoiseModel.from_times(t1_s=(1.0, 1.0, 1.0), t2_s=(2.5, 1.0, 1.0))
    with pytest.raises(ValueError, match="T1"):
        NoiseModel.from_times(t1_s=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="three"):
        NoiseModel.from_times(t2_s=(0.5, 0.5))


def test_from_times_rejects_an_overflowing_rate():
    # a subnormal time is positive, but its rate 1/T is inf: the error
    # names the time, not ou_sigma
    with pytest.raises(ValueError, match=r"T1 = 1e-310 s is too short"):
        NoiseModel.from_times((1e-310, 1, 1), (1e-310, 0.5, 0.5))
    with pytest.raises(ValueError, match=r"T2 = 1e-310 s is too short"):
        NoiseModel.from_times((1, 1, 1), (0.5, 1e-310, 0.5))
    tiny = NoiseModel.from_times((1e-300, 1, 1), (1e-300, 0.5, 0.5))
    assert tiny.kappa_x[0] == 1.0 / 1e-300 < math.inf


def test_noise_model_validation():
    nm = NoiseModel.from_times()
    assert nm.kappa_x == tuple(1.0 / t for t in T1)
    assert nm.kappa_z == tuple(1.0 / t for t in T2)
    with pytest.raises(ValueError, match="three entries"):
        NoiseModel(kappa_x=(1.0, 1.0), kappa_z=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="three entries"):
        NoiseModel(kappa_x=(1.0, 1.0, 1.0), kappa_z=(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="non-negative"):
        NoiseModel(kappa_x=(-1.0, 0, 0), kappa_z=(0, 0, 0))
    with pytest.raises(ValueError, match="non-negative"):
        NoiseModel(kappa_x=(1.0, 1.0, 1.0), kappa_z=(1.0, -0.1, 1.0))
    # NaN passes a bare `< 0` test; rates and sigma must also be finite
    with pytest.raises(ValueError, match="finite and non-negative"):
        NoiseModel(kappa_x=(math.nan, 0, 0), kappa_z=(0, 0, 0))
    with pytest.raises(ValueError, match="finite and non-negative"):
        NoiseModel(kappa_x=(0, 0, 0), kappa_z=(0, math.inf, 0))
    for sigma in (-3.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="ou_sigma"):
            NoiseModel(kappa_x=(0, 0, 0), kappa_z=(0, 0, 0), bath_mode="correlated",
                       ou_sigma=sigma, ou_tau_c=0.01)
    with pytest.raises(ValueError, match="bath_mode"):
        NoiseModel(kappa_x=(0, 0, 0), kappa_z=(0, 0, 0), bath_mode="pink")
    for tau_c in (0.0, -0.01, math.nan):
        with pytest.raises(ValueError, match="ou_tau_c"):
            NoiseModel(kappa_x=(0, 0, 0), kappa_z=(0, 0, 0), bath_mode="correlated",
                       ou_tau_c=tau_c)
    # an infinite correlation time is the quasi-static bath, and allowed
    NoiseModel(kappa_x=(0, 0, 0), kappa_z=(0, 0, 0), bath_mode="correlated",
               ou_sigma=10.0, ou_tau_c=math.inf)
    with pytest.raises(ValueError, match="trajectories"):
        NoiseModel(kappa_x=(0, 0, 0), kappa_z=(0, 0, 0), trajectories=0)
    # int() in the seeding would run seed 1 for either float; a float
    # trajectory count would fail deep inside a run
    for seed in (1.5, 1.9, -1, "1"):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            NoiseModel(kappa_x=(0, 0, 0), kappa_z=(0, 0, 0), seed=seed)
    with pytest.raises(ValueError, match="trajectories must be an integer"):
        NoiseModel(kappa_x=(0, 0, 0), kappa_z=(0, 0, 0), trajectories=2.5)
    NoiseModel(kappa_x=(0, 0, 0), kappa_z=(0, 0, 0),
               trajectories=np.int64(2), seed=np.uint64(2**64 - 1))


def test_lindblad_rhs_fixed_points_and_trace(rates, rng):
    # maximally mixed state is a fixed point of the unital channel
    assert np.allclose(lindblad_rhs(np.eye(8) / 8.0, rates), 0.0, atol=1e-15)
    for _ in range(100):
        rho = random_density(rng)
        d = lindblad_rhs(rho, rates)
        assert abs(np.trace(d)) < 1e-12
        assert np.max(np.abs(d - d.conj().T)) < 1e-12


def test_lindblad_rhs_matches_textbook_operators(rates, rng):
    rho = random_density(rng)
    expected = np.zeros((8, 8), dtype=complex)
    ops = {1: (SX, SZ), 2: (SX, SZ), 3: (SX, SZ)}
    for q in (1, 2, 3):
        factors = [ID2, ID2, ID2]
        for op, rate in zip(ops[q], (rates.kappa_x[q - 1], rates.kappa_z[q - 1])):
            factors[q - 1] = op
            l = math.sqrt(rate / 2.0) * kron(kron(factors[0], factors[1]), factors[2])
            expected += l @ rho @ l.conj().T - 0.5 * (
                l.conj().T @ l @ rho + rho @ l.conj().T @ l)
    assert np.allclose(lindblad_rhs(rho, rates), expected, atol=1e-13)


def test_lindblad_rhs_ghz_corner_derivative(rates):
    # closed form: corner element (1/8) e^{-sum kz t} (1 + g12 + g13 + g23)
    # has derivative -(sum kz)/2 - (sum kx)/4 at t = 0 times the corner sign
    d = lindblad_rhs(prepare_ghz(), rates)
    kz = sum(1.0 / t for t in T2)
    kx = sum(1.0 / t for t in T1)
    assert d[0, 7].real == pytest.approx(kz / 2.0 + kx / 4.0, rel=1e-12)
    assert d[7, 0].real == pytest.approx(kz / 2.0 + kx / 4.0, rel=1e-12)


def test_lindblad_rhs_rejects_wrong_shape(rates):
    with pytest.raises(ValueError, match="8x8"):
        lindblad_rhs(np.eye(4) / 4.0, rates)


def test_evolve_markovian_finite_difference_consistency(rates, rng):
    rho = random_density(rng)
    h = 1e-6
    curve = evolve(rho, rates, h, h)
    fd = (curve.states[-1] - rho) / h
    assert np.allclose(fd, lindblad_rhs(rho, rates), atol=1e-5)


def test_evolve_markovian_zero_duration(rates):
    rho = prepare_ghz()
    curve = evolve(rho, rates, 0.0, 1e-3)
    assert list(curve.times) == [0.0]
    assert np.array_equal(curve.states[0], rho)


def test_evolve_markovian_single_qubit_closed_forms(rates):
    t = 0.3
    # the (000|rho|100) element carries qubit-1 dephasing at 1/T2_1 plus a
    # spectator-population factor (1 + exp(-t/T1_i))/2 per idle qubit; the
    # qubit-1 flip channel leaves the real part of the coherence alone
    curve = evolve(plus_ground_ground(), rates, t, t)
    rho_t = curve.states[-1]
    expected = math.exp(-t / T2[0])
    for i in (1, 2):
        expected *= 0.5 * (1.0 + math.exp(-t / T1[i]))
    assert 2.0 * abs(rho_t[0, 4]) == pytest.approx(expected, rel=1e-9)
    # qubit-1 polarization decays as exp(-t/T1_1)
    z0 = kron(kron(GROUND, ID2 / 2.0), ID2 / 2.0)
    curve = evolve(z0, rates, t, t)
    pop = np.sum(np.diag(curve.states[-1]).real[:4])  # P(qubit1 = 0)
    assert 2.0 * pop - 1.0 == pytest.approx(math.exp(-t / T1[0]), rel=1e-9)


def test_evolve_markovian_sampling_grid(rates):
    # 10 ms is not a whole number of 3 ms samples: four even intervals
    # of 2.5 ms fill it
    curve = evolve(prepare_ghz(), rates, 0.01, 0.003)
    assert np.allclose(curve.times, [0.0, 0.0025, 0.005, 0.0075, 0.01],
                       rtol=0.0, atol=1e-15)


def test_evolve_markovian_dt_halving(rates):
    # the Markovian engine is exact at any step: 1,000 and 2,000 steps
    rho = prepare_ghz()
    a, b = (propagate_arms(rho, rates, n, 0.5 / n, [{}], [n])[0]
            for n in (1000, 2000))
    assert np.max(np.abs(a.states[-1] - b.states[-1])) < 1e-8


def _handed_grid(noise, t_final, sample_dt):
    """The (n_steps, dt, sample steps) evolve hands propagate_arms."""
    grids = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triq.noise, "propagate_arms",
                   lambda rho0, nm, n, dt, trains, samples:
                   grids.append((n, dt, list(samples))) or [None])
        evolve(prepare_ghz(), noise, t_final, sample_dt)
    return grids.pop()


def test_evolve_cuts_correlated_samples_by_the_bath():
    # 10 ms samples under a 10 ms tau_c bath: the bath, not the sample
    # spacing, sets the step, tau_c/20 = 0.5 ms, 20 steps a sample
    nm = NoiseModel.from_times(bath_mode="correlated", ou_sigma=10.0,
                               ou_tau_c=0.01, trajectories=2, seed=1)
    n, dt, samples = _handed_grid(nm, 0.05, 0.01)
    assert dt <= 0.01 / 20.0 * (1.0 + 1e-9)
    assert n == 100 and samples == list(range(0, 101, 20))
    assert math.isclose(n * dt, 0.05, rel_tol=1e-15)
    # a Markovian model takes one step a sample
    assert _handed_grid(NoiseModel.from_times(), 0.05, 0.01)[:2] == (5, 0.01)


@pytest.mark.parametrize("noise, span, want", [
    (NoiseModel.from_times(), 1.0, 1),
    (NoiseModel.from_times(bath_mode="correlated", ou_tau_c=0.01), 1e-3, 2),
    (NoiseModel.from_times(bath_mode="correlated", ou_tau_c=math.inf), 1e-3, 1),
    (NoiseModel.from_times(bath_mode="correlated", ou_tau_c=1e-6), 5e-6, 100),
], ids=["markovian", "tau_c_10ms", "quasi_static", "tau_c_1us"])
def test_steps_per_table(noise, span, want):
    assert steps_per(noise, span) == want


@pytest.mark.parametrize("dt", [0.0, -1e-3])
@pytest.mark.parametrize("run", [
    lambda rates, dt: evolve(
        prepare_ghz(), rates, 0.01, dt),
    lambda rates, dt: evolve(
        prepare_ghz(),
        NoiseModel.from_times(bath_mode="correlated", ou_sigma=10.0,
                              ou_tau_c=0.01, trajectories=2, seed=1),
        0.01, dt),
], ids=["evolve_markovian", "evolve_correlated"])
def test_non_positive_dt_is_rejected(rates, run, dt):
    # rejected before the runner rounds it to a whole number of steps
    # of t_final
    with pytest.raises(ValueError, match="dt must be positive"):
        run(rates, dt)


def test_evolve_correlated_takes_no_step_longer_than_dt():
    # 1.4 ms is not a whole number of 1 ms samples: the grid samples
    # every 0.7 ms rather than once at 1.4 ms, so no sample spacing is
    # coarser than asked
    nm = NoiseModel.from_times(bath_mode="correlated", ou_sigma=10.0,
                               ou_tau_c=0.01, trajectories=2, seed=1)
    curve = evolve(prepare_ghz(), nm, 0.0014, 1e-3)
    assert np.diff(curve.times).max() <= 1e-3


def test_evolve_markovian_pure_dephasing_keeps_diagonal():
    noise = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=tuple(1.0 / t for t in T2))
    rho = prepare_ghz()
    curve = evolve(rho, noise, 0.2, 0.05)
    for s in curve.states:
        assert np.array_equal(np.diag(s), np.diag(rho))


def test_evolve_markovian_exact_at_long_steps(rates):
    # the damping channels are applied in closed form, so a step of
    # 2 s (almost four times T2) is as exact as a fine one
    curve = evolve(prepare_ghz(), rates, 40.0, 2.0)
    assert len(curve.times) == 21
    for t, rho in zip(curve.times, curve.states):
        assert np.max(np.abs(rho - ghz_analytic(float(t), rates))) < 1e-12


def test_propagate_labels_unphysical_sample_with_time(rates):
    # a non-unitary "pulse" breaks the trace at 4 ms; the error names
    # the sample by its index and its time
    with pytest.raises(PhysicalityError, match=r"^sample 4: at t = 0.004 s: trace"):
        propagate_arms(prepare_ghz(), rates, 10, 1e-3,
                       [{4: 1.5 * np.eye(8, dtype=complex)}], range(11))


# the two entry points that take sample steps, on a grid of n steps of dt
SAMPLED_RUNS = pytest.mark.parametrize("run", [
    lambda noise, steps, n=10, dt=1e-3: propagate_arms(prepare_ghz(), noise, n,
                                                       dt, [{}], steps),
    lambda noise, steps, n=10, dt=1e-3: ou_unit_phases(noise, n, dt, steps),
], ids=["propagate", "ou_unit_phases"])
OU_NOISE = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0),
                      bath_mode="correlated", ou_sigma=10.0, ou_tau_c=0.01,
                      trajectories=2, seed=1)


@SAMPLED_RUNS
def test_fractional_sample_steps_are_rejected(run):
    # int() would truncate 2.5 onto step 2 and label the sample 0.002 s
    noise = NoiseModel.from_times(bath_mode="correlated", ou_sigma=10.0,
                                  ou_tau_c=0.01, trajectories=2, seed=1)
    with pytest.raises(ValueError, match="sample steps must be integers, got 2.5"):
        run(noise, [0, 2.5, 9.99])


@SAMPLED_RUNS
@pytest.mark.parametrize("steps", [[], [0, 11], [-1, 5]],
                         ids=["none", "past_the_end", "negative"])
def test_sample_steps_off_the_grid_are_rejected(run, steps):
    with pytest.raises(ValueError, match=r"sample steps must lie in \[0, 10\]"):
        run(OU_NOISE, steps)


@SAMPLED_RUNS
@pytest.mark.parametrize("steps, message", [
    ([5, 3], "got 3 after 5"),
    ([3, 3], "got 3 after 3"),
], ids=["decreasing", "repeated"])
def test_sample_steps_out_of_order_are_rejected(run, steps, message):
    # neither sorted nor merged: a curve's samples follow the steps given
    with pytest.raises(ValueError, match="sample steps must strictly increase, "
                       + message):
        run(OU_NOISE, steps)


def test_pulse_steps_need_no_order():
    # a train is a map from step to unitary, so its keys may come in any
    # order
    u = 1j * np.eye(8, dtype=complex)
    a, b = (propagate_arms(prepare_ghz(), OU_NOISE, 10, 1e-3, [train], [0, 10])[0]
            for train in ({2: u, 7: u}, {7: u, 2: u}))
    assert np.array_equal(a.states, b.states)


def test_too_many_sampled_states_are_rejected(monkeypatch):
    # samples times arms past the cap is a config error, raised before
    # the accumulator is allocated
    monkeypatch.setattr(triq.noise, "_MAX_SAMPLES", 21)
    propagate_arms(prepare_ghz(), OU_NOISE, 10, 1e-3, [{}], range(11))
    with pytest.raises(ValueError, match="11 samples per arm, 22 states in all, are "
                       "more than the 21 sampled states a run may hold"):
        propagate_arms(prepare_ghz(), OU_NOISE, 10, 1e-3, [{}, {}], range(11))


@SAMPLED_RUNS
@pytest.mark.parametrize("n, dt", [(-1, 1e-3), (10, 0.0), (10, -1e-3),
                                   (10, math.nan), (10, math.inf)])
def test_bad_grid_is_rejected_before_sampling(run, n, dt):
    # NaN passes `dt <= 0`: the check must state what holds
    with pytest.raises(ValueError,
                       match="n_steps must be non-negative and dt finite and positive"):
        run(OU_NOISE, [0], n=n, dt=dt)


@pytest.mark.parametrize("step, message", [
    (-1, r"pulse steps must lie in \[0, 10\]"),
    (11, r"pulse steps must lie in \[0, 10\]"),
    (2.5, "pulse steps must be integers, got 2.5"),
], ids=["-1", "11", "2.5"])
def test_pulse_outside_the_run_is_rejected(step, message):
    # pulse steps pass the check that sample steps pass
    with pytest.raises(ValueError, match=message):
        propagate_arms(prepare_ghz(), OU_NOISE, 10, 1e-3,
                       [{0: np.eye(8, dtype=complex),
                         step: np.eye(8, dtype=complex)}], [0, 10])


def test_a_list_of_pulse_pairs_is_rejected():
    # a train maps each step to its one unitary; a list of (step,
    # unitary) pairs is not read as one
    eye = np.eye(8, dtype=complex)
    with pytest.raises(ValueError, match="pulse steps must be integers"):
        propagate_arms(prepare_ghz(), OU_NOISE, 10, 1e-3, [[(5, eye)]],
                       [0, 10])


def test_unit_phases_require_the_correlated_bath(rates):
    with pytest.raises(ValueError, match="ou_unit_phases requires bath_mode = correlated"):
        ou_unit_phases(rates, 10, 1e-3, [0, 10])


def test_sample_ou_path_basics():
    assert np.array_equal(ou_path(0.01, 0.0, 1e-4, 100, seed=1), np.zeros(100))
    x = ou_path(0.01, 15.0, 1e-4, 1000, seed=3)
    assert x.shape == (1000,)
    assert np.array_equal(x, ou_path(0.01, 15.0, 1e-4, 1000, seed=3))
    assert not np.array_equal(x, ou_path(0.01, 15.0, 1e-4, 1000, seed=4))


def test_sample_ou_path_statistics():
    tau_c, sigma = 0.01, 15.0
    dt = tau_c / 50.0
    x = ou_path(tau_c, sigma, dt, 10**6, seed=5)
    assert np.var(x) == pytest.approx(sigma**2, rel=0.02)
    for k in (10, 50, 100, 150):  # k dt up to 3 tau_c
        c = np.corrcoef(x[:-k], x[k:])[0, 1]
        assert c == pytest.approx(math.exp(-k * dt / tau_c), abs=0.05)


def test_evolve_correlated_noise_off_matches_markovian():
    nm = NoiseModel.from_times(bath_mode="correlated", ou_sigma=0.0,
                               ou_tau_c=0.01, trajectories=1, seed=0)
    ref_noise = NoiseModel(kappa_x=tuple(1.0 / t for t in T1),
                           kappa_z=(0.0, 0.0, 0.0))
    rho = prepare_ghz()
    a = evolve(rho, nm, 0.05, 0.01)
    b = evolve(rho, ref_noise, 0.05, 0.01)
    assert np.allclose(a.times, b.times)
    for sa, sb in zip(a.states, b.states):
        assert np.allclose(sa, sb, atol=1e-12)


def test_evolve_correlated_is_deterministic():
    nm = NoiseModel.from_times(bath_mode="correlated", ou_sigma=14.0,
                               ou_tau_c=0.01, trajectories=33, seed=17)
    rho = prepare_ghz()
    a = evolve(rho, nm, 0.02, 0.005)
    b = evolve(rho, nm, 0.02, 0.005)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa, sb)


def test_evolve_correlated_coherence_matches_gaussian_form():
    # a single dephasing qubit under the OU bath decays as exp(-chi(t))
    tau_c, sigma = 0.01, 15.0
    nm = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0),
                    bath_mode="correlated", ou_sigma=sigma, ou_tau_c=tau_c,
                    trajectories=1024, seed=9)
    curve = evolve(plus_ground_ground(), nm, 0.4, 0.04)
    worst = 0.0
    for t, s in zip(curve.times, curve.states):
        chi = sigma**2 * tau_c**2 * (t / tau_c - 1.0 + math.exp(-t / tau_c))
        worst = max(worst, abs(2.0 * abs(s[0, 4]) - math.exp(-chi)))
    assert worst < 0.05


def test_evolve_correlated_markovian_limit():
    # tau_c squeezed to 2 dt with sigma^2 tau_c = kappa_z reproduces the
    # memoryless coherence decay within the statistical tolerance; the
    # step is coarser than steps_per's tau_c/20 on purpose, so the run
    # takes its own grid of 2,400 steps, sampled every 240
    n, dt = 2400, 0.6 / 2400
    tau_c = 2.0 * dt
    kz = 1.0 / T2[0]
    nm = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0),
                    bath_mode="correlated", ou_sigma=math.sqrt(kz / tau_c),
                    ou_tau_c=tau_c, trajectories=256, seed=9)
    ref_noise = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(kz, 0.0, 0.0))
    got, ref = (propagate_arms(plus_ground_ground(), noise, n, dt, [{}],
                               range(0, n + 1, 240))[0]
                for noise in (nm, ref_noise))
    for sg, sr in zip(got.states, ref.states):
        a, b = 2.0 * abs(sg[0, 4]), 2.0 * abs(sr[0, 4])
        assert abs(a - b) / max(b, 1e-3) < 0.10


def test_evolve_correlated_protection_direction():
    # tau_c = 10 ms >> tau = 0.25 ms: decoupled negativity stays higher
    nm = NoiseModel.from_times(bath_mode="correlated", ou_sigma=13.7,
                               ou_tau_c=0.01, trajectories=16, seed=2026)
    schedule = build_xy16s(0.25e-3, cycles=10)
    prot, unprot = run_protected(prepare_ghz(), nm, schedule)
    assert tripartite_negativity(prot.states[-1]) > tripartite_negativity(
        unprot.states[-1])


@pytest.fixture(scope="module")
def ghz_markovian_curve():
    return evolve(prepare_ghz(), NoiseModel.from_times(), 0.7, 5e-3)


def _protected_grid(noise, schedule):
    """The step and the pulse train run_protected hands the engine,
    without the run."""
    grids = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triq.noise, "propagate_arms",
                   lambda rho0, nm, n, dt, trains, samples:
                   grids.append((dt, trains[0])) or [None, None])
        run_protected(prepare_ghz(), noise, schedule)
    return grids.pop()


def _assert_pulses_on_time(schedule, dt, pulses):
    # pulse j of cycle c at (2j + 1) tau/2 + c N tau, for N pulses a cycle
    per_cycle = len(schedule.pulses)
    assert len(pulses) == schedule.cycles * per_cycle
    for i, k in enumerate(sorted(pulses)):
        c, j = divmod(i, per_cycle)
        want = (2 * j + 1) * schedule.tau / 2.0 + c * per_cycle * schedule.tau
        assert math.isclose(k * dt, want, rel_tol=1e-9)


def _correlated(tau_c, **rates):
    return NoiseModel.from_times(bath_mode="correlated", ou_sigma=10.0,
                                 ou_tau_c=tau_c, **rates)


@pytest.mark.parametrize("build", [build_xy16s, build_kddxy, build_cpmg])
@pytest.mark.parametrize("tau", [0.2e-3, 0.25e-3, 13e-3, 0.02, 0.1])
def test_grid_step_keeps_pulses_on_the_grid(build, tau):
    # where the tau_c/20 bound is below tau/50, the step divides tau/50
    # into whole steps instead of taking the bound as it is
    schedule = build(tau, cycles=3)
    for tau_c in (0.01, 1e-4):
        dt, pulses = _protected_grid(_correlated(tau_c), schedule)
        _assert_pulses_on_time(schedule, dt, pulses)
        # fit_grid's guard lets a step pass its bound by 1e-9 of itself
        assert (dt <= tau_c / 20.0 * (1.0 + 1e-9)
                or math.isclose(dt, tau / 50.0, rel_tol=1e-12))
        assert dt > 0.5 * min(tau_c / 20.0, tau / 50.0)
    assert steps_per(_correlated(0.01), 0.01) == 20


@pytest.mark.parametrize("tau", [0.25e-3, 13e-3, 0.1])
def test_grid_step_without_dephasing_rates(tau):
    # the Lindblad rates play no part in the step rule: with every
    # kappa_z zero a Markovian model still takes one step, so tau alone
    # sets a pulsed run's grid, and an OU-only model still takes tau_c/20
    schedule = build_xy16s(tau, cycles=3)
    quiet = dict(kappa_x=(0.2, 0.2, 0.2), kappa_z=(0.0, 0.0, 0.0))
    nm = NoiseModel(**quiet)
    dt, pulses = _protected_grid(nm, schedule)
    _assert_pulses_on_time(schedule, dt, pulses)
    assert dt == tau / 50.0
    assert steps_per(nm, tau) == 1
    assert len(evolve(prepare_ghz(), nm, 0.01, 1e-3).times) == 11
    nm = NoiseModel(**quiet, bath_mode="correlated", ou_sigma=10.0,
                    ou_tau_c=0.01)
    assert steps_per(nm, 0.01) == 20
    dt, pulses = _protected_grid(nm, schedule)
    _assert_pulses_on_time(schedule, dt, pulses)
    assert dt <= 0.01 / 20.0 * (1.0 + 1e-9) and dt <= tau / 50.0


def test_markovian_grid_ignores_the_rates():
    # a Markovian run is exact at any step, so at tau = 20 ms it keeps
    # M = 50 steps per tau even with T2 = 50 ms on qubit 2
    nm = NoiseModel(kappa_x=tuple(1.0 / t for t in T1), kappa_z=(1.0, 20.0, 2.0))
    dt, _ = _protected_grid(nm, build_xy16s(0.02))
    assert dt == 0.02 / 50.0
    assert steps_per(nm, 0.02) == 1


def test_correlated_grid_resolves_a_short_tau_c():
    # tau_c = 1 us at tau = 0.25 ms: tau/50 = 5 us is five tau_c, so the
    # grid takes 100 steps per tau/50, M = 5,000, and dt = tau_c/20
    dt, pulses = _protected_grid(_correlated(1e-6), build_xy16s(0.25e-3))
    assert dt <= 1e-6 / 20.0 * (1.0 + 1e-9)
    assert min(pulses) == 2500 and len(pulses) == 16


def test_quasi_static_bath_keeps_fifty_steps_per_tau():
    # tau_c = inf bounds no step: one step per tau/50 keeps M = 50
    nm = _correlated(math.inf)
    assert steps_per(nm, 0.02 / 50.0) == 1
    dt, pulses = _protected_grid(nm, build_xy16s(0.02))
    assert dt == 0.02 / 50.0 and min(pulses) == 25


def test_evolve_markovian_ghz_decay_curve(ghz_markovian_curve):
    t = disentanglement_time(ghz_markovian_curve)
    assert t == pytest.approx(0.4898, abs=0.002)


@pytest.mark.xfail(reason="0.01-floor crossing precedes the curve's true "
                   "zero (0.5014 s); the floor convention lands at 0.4898 s",
                   raises=AssertionError, strict=True)
def test_ghz_threshold_time_within_quoted_window(ghz_markovian_curve):
    t = disentanglement_time(ghz_markovian_curve)
    assert 0.50 <= t <= 0.56
