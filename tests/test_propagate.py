"""Property tests of the segment propagator, the OU track scan and the
step-count rule."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import triq.noise
from triq import (T1_S, NoiseModel, build_kddxy, build_xy16s,
                  calibrate_sigma, cycle_duration, expand_schedule, fit_grid,
                  prepare_ghz, prepare_w, prepare_wwbar, propagate_arms,
                  pulse_unitary, run_protected)
from triq.core import ID2, SX, SZ, embed1, kron
from triq.noise import (_FLIP, _MAX_SEGMENT_S, _X, _ZDIFF, _apply_unitary,
                        _fill_tables, _flips, _gather, _ou_paths, _ou_track,
                        _phase_factors, _propagate, _reindex, _segment_edges,
                        _support, _unit_phases)
from conftest import random_density

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)

rates = st.tuples(*[st.floats(0.0, 50.0)] * 3)


def _train(pulses):
    """The {step: unitary} train of (step, unitary) pulses, the pulses
    drawn on one step composed into one unitary in list order."""
    train = {}
    for k, u in pulses:
        train[k] = u @ train[k] if k in train else u
    return train


@st.composite
def runs(draw):
    """A noise model, a grid, a pulse train on the grid and an initial
    state."""
    dt = draw(st.floats(1e-6, 1e-3))
    n = draw(st.integers(1, 60))
    correlated = draw(st.booleans())
    sigma = draw(st.one_of(st.just(0.0), st.floats(0.1, 300.0)))
    noise = NoiseModel(
        kappa_x=draw(rates), kappa_z=draw(rates),
        bath_mode="correlated" if correlated else "markovian",
        ou_sigma=sigma if correlated else 0.0,
        ou_tau_c=dt * 10 ** draw(st.floats(-1.0, 4.0)),
        trajectories=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32)))
    pulses = _train(
        (k, pulse_unitary(phase, angle / math.pi - 1.0))
        for k, angle, phase in draw(st.lists(st.tuples(
            st.integers(0, n), st.floats(0.1, 2.0 * math.pi),
            st.floats(0.0, 2.0 * math.pi)), max_size=6))
    )
    rho0 = random_density(np.random.default_rng(draw(st.integers(0, 2**32))))
    return noise, n, dt, pulses, rho0


def _basis_state(a, b, kind):
    """Density matrices whose combinations give every |a><b|."""
    ket = np.zeros(8, dtype=complex)
    ket[a] = 1.0
    if kind:
        ket[b] = 1j if kind == 2 else 1.0
        ket /= math.sqrt(2.0)
    return np.outer(ket, ket.conj())


@PROPERTY
@given(runs())
def test_engine_is_cptp(run):
    noise, n, dt, pulses, rho0 = run
    for rho in propagate_arms(rho0, noise, n, dt, [pulses],
                              range(n + 1))[0].states:
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > -1e-12

    # complete positivity: the Choi matrix of the whole run is PSD. The
    # map is linear, so its action on |a><b| follows from three
    # density-matrix inputs per pair.
    def final(rho):
        return propagate_arms(rho, noise, n, dt, [pulses], [n])[0].states[-1]

    diag = [final(_basis_state(a, a, 0)) for a in range(8)]
    choi = np.zeros((64, 64), dtype=complex)
    for a in range(8):
        for b in range(8):
            if a == b:
                out = diag[a]
            elif a < b:
                re = final(_basis_state(a, b, 1))
                im = final(_basis_state(a, b, 2))
                # |a><b| = re + i im - (1 + i)/2 (|a><a| + |b><b|) images
                out = re + 1j * im - 0.5 * (1.0 + 1j) * (diag[a] + diag[b])
            else:
                out = choi[8 * b:8 * b + 8, 8 * a:8 * a + 8].conj().T
            choi[8 * a:8 * a + 8, 8 * b:8 * b + 8] = out
    assert np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0] > -1e-10


@PROPERTY
@given(runs(), st.sets(st.integers(0, 60), max_size=10))
def test_extra_samples_move_states_within_split_bound(run, extra):
    noise, n, dt, pulses, rho0 = run
    coarse = propagate_arms(rho0, noise, n, dt, [pulses], [0, n])[0]
    fine = propagate_arms(rho0, noise, n, dt, [pulses],
                          sorted({0, n, *(k for k in extra if k <= n)}))[0]
    diff = np.max(np.abs(coarse.states[-1] - fine.states[-1]))
    # Without the OU phase every factor of a segment commutes and extra
    # events change nothing. With it, a segment of length D mis-times the
    # bit flips against a phase of order sigma D, plus the phase's drift
    # sqrt(D / tau_c) across the segment, at rate kappa_x for time T.
    bound = 1e-12
    if noise.bath_mode == "correlated":
        d = min(n * dt, max(dt, _MAX_SEGMENT_S))  # the cap, or one step
        sd = noise.ou_sigma * d
        bound += max(noise.kappa_x) * n * dt * sd * (
            sd + math.sqrt(d / noise.ou_tau_c))
    assert diff <= bound


@PROPERTY
@given(rates, rates, st.integers(0, 40), st.integers(0, 40),
       st.floats(1e-5, 1e-2), st.integers(0, 2**32))
def test_markovian_propagator_is_a_semigroup(kx, kz, n1, n2, dt, seed):
    # n1 + n2 steps in one run equal n1 steps, then n2 from the mid state
    noise = NoiseModel(kappa_x=kx, kappa_z=kz)
    rho0 = random_density(np.random.default_rng(seed))
    whole = propagate_arms(rho0, noise, n1 + n2, dt, [{}], [n1 + n2])[0]
    mid = propagate_arms(rho0, noise, n1, dt, [{}], [n1])[0].states[-1]
    halves = propagate_arms(mid, noise, n2, dt, [{}], [n2])[0]
    assert np.max(np.abs(whole.states[-1] - halves.states[-1])) < 1e-14


def _closed_form(rho, kx, kz, t):
    """Per-qubit bit-flip and dephasing channels from explicit Kraus pairs."""
    for q in range(3):
        for op, k in ((SX, kx[q]), (SZ, kz[q])):
            factors = [ID2, ID2, ID2]
            factors[q] = op
            p = kron(kron(factors[0], factors[1]), factors[2])
            w = 0.5 * (1.0 - math.exp(-k * t))
            rho = (1.0 - w) * rho + w * (p @ rho @ p)
    return rho


@st.composite
def markovian_pulsed_runs(draw):
    """A Markovian model, a grid of up to 200 steps, pulses on the grid
    (several drawn on one step are composed into one) and sample steps
    (None: every step)."""
    dt = draw(st.floats(1e-5, 1e-2))
    n = draw(st.integers(1, 200))
    noise = NoiseModel(kappa_x=draw(rates), kappa_z=draw(rates))
    pulses = draw(st.lists(st.tuples(
        st.integers(0, n), st.floats(0.1, 2.0 * math.pi),
        st.floats(0.0, 2.0 * math.pi)), max_size=5))
    samples = draw(st.one_of(st.none(), st.sets(st.integers(0, n), min_size=1)))
    seed = draw(st.integers(0, 2**32))
    return noise, n, dt, pulses, samples, seed


def _kick(rho, train, k):
    """rho after the pulse of ``train`` at step k, if it has one."""
    if k in train:
        rho = train[k] @ rho @ train[k].conj().T
    return rho


def _stepped_reference(rho0, noise, n, dt, train, samples):
    """The closed form composed one grid step at a time, each step's
    pulse applied before its sample."""
    rho = _kick(rho0, train, 0)
    out = {0: rho}
    for k in range(1, n + 1):
        rho = _kick(_closed_form(rho, noise.kappa_x, noise.kappa_z, dt),
                    train, k)
        out[k] = rho
    return np.stack([out[k] for k in samples])


_FLIP_PI = (math.pi, 0.0)  # an x pulse
_Y_HALF = (math.pi / 2.0, math.pi / 2.0)


@PROPERTY
@given(markovian_pulsed_runs())
@example((NoiseModel(kappa_x=(3.0, 0.0, 40.0), kappa_z=(20.0, 5.0, 0.0)), 150,
          1e-3, [(0, *_FLIP_PI), (150, *_Y_HALF)], None, 1))  # stretch of 150
@example((NoiseModel(kappa_x=(3.0, 1.0, 4.0), kappa_z=(20.0, 5.0, 9.0)), 140,
          2e-3, [(70, *_Y_HALF), (70, *_FLIP_PI), (139, *_Y_HALF)],
          {0, 35, 70, 71, 138, 140}, 2))  # two composed on a sample step
@example((NoiseModel(kappa_x=(3.0, 1.0, 4.0), kappa_z=(20.0, 5.0, 9.0)), 130,
          1e-3, [(60, *_FLIP_PI)], {130}, 3))  # the pulse step is no sample
def test_markovian_stretches_match_stepwise_closed_form(run):
    # every sample of a stretch is the closed form of the stretch's
    # starting state; composing the closed form step by step, with the
    # pulses between steps, gives the same states
    noise, n, dt, pulse_args, samples, seed = run
    rho0 = random_density(np.random.default_rng(seed))
    pulses = _train((k, pulse_unitary(phase, angle / math.pi - 1.0))
                    for k, angle, phase in pulse_args)
    steps = sorted(samples) if samples is not None else list(range(n + 1))
    curve = propagate_arms(rho0, noise, n, dt, [pulses], steps)[0]
    want = _stepped_reference(rho0, noise, n, dt, pulses, steps)
    assert np.max(np.abs(curve.states - want)) < 1e-12


@PROPERTY
@given(runs())
def test_noise_free_bath_matches_closed_form(run):
    noise, n, dt, _, rho0 = run
    if noise.bath_mode == "correlated":
        noise = NoiseModel(kappa_x=noise.kappa_x, kappa_z=noise.kappa_z,
                           bath_mode="correlated", ou_sigma=0.0,
                           ou_tau_c=noise.ou_tau_c, trajectories=3, seed=1)
        kz = (0.0, 0.0, 0.0)  # the OU bath replaces the dephasing
    else:
        kz = noise.kappa_z
    curve = propagate_arms(rho0, noise, n, dt, [{}], range(n + 1))[0]
    for t, rho in zip(curve.times, curve.states):
        assert np.max(np.abs(rho - _closed_form(rho0, noise.kappa_x, kz, t))) < 1e-12


def test_pure_ou_dephasing_is_the_exact_track_phase(rng):
    # without bit flips a trajectory only picks up the phase of its own
    # OU track, exp(-i dt sum_k b_i[k] ZDIFF_i), at any segment length
    noise = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0),
                       bath_mode="correlated", ou_sigma=40.0, ou_tau_c=1e-3,
                       trajectories=2, seed=31)
    n, dt = 300, 1e-5
    rho0 = random_density(rng)
    want = np.zeros((8, 8), dtype=complex)
    for j in range(2):
        stream = np.random.default_rng(np.random.SeedSequence(entropy=(31, j)))
        phi = 40.0 * dt * _ou_paths(stream, 1e-3, dt, n, 3).sum(axis=0)
        want += np.exp(-1j * np.einsum("i,iab->ab", phi, _ZDIFF)) * rho0 / 2.0
    got = propagate_arms(rho0, noise, n, dt, [{}], [0, 7, n])[0].states[-1]
    assert np.max(np.abs(got - want)) < 1e-13


def test_segment_cap_keeps_protected_run_near_one_step_split(monkeypatch):
    # XY-16(s) under the acceptance bath, 10 cycles, 16 trajectories: the
    # capped segments stay as close to splitting at every 5 us step as
    # the 60-cycle acceptance run's 1e-7 budget allows over 10 cycles
    # (measured 2.3e-9 at a cap of 25, 8.9e-9 at 50)
    noise = NoiseModel.from_times(
        bath_mode="correlated", ou_sigma=13.7117919922, ou_tau_c=0.01,
        trajectories=16, seed=2026)
    schedule = build_xy16s(0.25e-3, cycles=10)

    def both_arms():
        return [c.states for c in
                run_protected(prepare_ghz(), noise, schedule)]

    capped = both_arms()
    # a cap of one 5 us step
    monkeypatch.setattr(triq.noise, "_MAX_SEGMENT_S", schedule.tau / 50.0)
    fine = both_arms()
    for a, b in zip(capped, fine):
        assert np.max(np.abs(a - b)) < 1e-7 * 10 / 60


def _plain_ou_recurrence(seed, tau_c, sigma, dt, n, width):
    """The OU update of _ou_paths, one step at a time, on the same draws."""
    eps = np.random.default_rng(seed).standard_normal((n, width))
    d = math.exp(-dt / tau_c)
    sn = sigma * math.sqrt(1.0 - d * d)
    out = np.empty((n, width))
    out[0] = sigma * eps[0]
    for k in range(1, n):
        out[k] = d * out[k - 1] + sn * eps[k]
    return out


@PROPERTY
@given(st.floats(-9.0, 4.0), st.floats(0.01, 100.0), st.integers(1, 400),
       st.integers(1, 3), st.integers(0, 2**32))
@example(-9.0, 1.0, 400, 3, 0)
@example(2.6, 1.0, 50, 3, 0)     # dt = 398 tau_c: d = e^-398, nearly white
@example(2.86, 1.0, 50, 3, 0)    # dt = 724 tau_c: d is subnormal
@example(4.0, 1.0, 50, 3, 0)     # dt = 1e4 tau_c: d underflows to 0, white
def test_ou_scan_matches_plain_recurrence(log_ratio, sigma, n, width, seed):
    # dt / tau_c from 1e-9 to 1e4: from a frozen track to white noise
    tau_c, dt = 1.0, 10.0 ** log_ratio
    got = sigma * _ou_paths(np.random.default_rng(seed), tau_c, dt, n, width)
    want = _plain_ou_recurrence(seed, tau_c, sigma, dt, n, width)
    assert np.all(np.isfinite(got))
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12 * sigma)


# dt / tau_c from 1e-3 to 1e3: from a slow track to white noise (at 1e3,
# d = e^-1000 underflows to 0)
log_step_ratios = st.floats(-3.0, 3.0)


@PROPERTY
@given(st.floats(0.1, 50.0), st.integers(2, 8), log_step_ratios,
       st.floats(1e-5, 1e-3), st.integers(1, 300), st.integers(0, 2**32))
@example(50.0, 8, 3.0, 1e-3, 300, 0)     # dt = 1000 tau_c: white noise
@example(50.0, 8, -3.0, 1e-3, 300, 0)    # a slow track
def test_unit_phases_rescale_to_the_engine(sigma, trajectories, log_ratio, dt,
                                           n, seed):
    # without bit flips, element (0, 4) of |+++><+++|, only qubit 1's bit
    # set, is the trajectory mean of exp(-i sigma Phi_1) / 8, Phi_1 qubit
    # 1's unit-sigma phase: calibration's closed form for 2|rho_04|, here
    # on samples every 5 steps and the last, as calibration takes them,
    # from a unit table of one segment per sample interval and of qubit
    # 1 alone, as calibration holds it
    noise = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0),
                       bath_mode="correlated", ou_sigma=sigma,
                       ou_tau_c=dt / 10.0 ** log_ratio,
                       trajectories=trajectories, seed=seed)
    steps = sorted(set(range(0, n + 1, 5)) | {n})
    plus = np.full(8, 1.0 / math.sqrt(8.0), dtype=complex)
    states = propagate_arms(np.outer(plus, plus), noise, n, dt, [{}],
                            steps)[0].states
    table = np.empty((trajectories, len(steps) - 1, 1))
    _fill_tables(noise, range(trajectories), dt, n, np.array([0]),
                 [np.array(steps[:-1], dtype=np.intp)], [table])
    phases = sigma * _unit_phases(table, dt)
    want = np.exp(-1j * phases).mean(axis=0)
    assert np.max(np.abs(8.0 * states[:, 0, 4] - want)) < 1e-12


@pytest.mark.parametrize("trajectories", [1, 128, 200])
def test_a_held_table_sweeps_as_the_engine_draws(trajectories):
    # every trajectory's unit table, filled at once and swept batch by
    # batch as calibration does, gives each arm's curve bit for bit
    nm = NoiseModel.from_times(bath_mode="correlated", ou_sigma=13.7,
                               ou_tau_c=0.01, trajectories=trajectories,
                               seed=5)
    train = {20: pulse_unitary(0.0), 40: pulse_unitary(math.pi / 2, 0.02)}
    trains, steps = [train, {}], [0, 30, 60]
    want = propagate_arms(prepare_ghz(), nm, 60, 1e-4, trains, steps)
    # the segment starts the engine cuts: every event, and even splits of
    # any gap past _MAX_SEGMENT_S, 2 steps of 0.1 ms
    cap = math.floor(_MAX_SEGMENT_S / 1e-4 * (1.0 + 1e-9))
    starts = [np.array(_segment_edges(sorted({0, 60, *steps, *t}), cap)[:-1],
                       dtype=np.intp) for t in trains]
    held = [np.empty((trajectories, len(s), 3)) for s in starts]
    _fill_tables(nm, range(trajectories), 1e-4, 60, np.arange(3), starts, held)
    got = _propagate(prepare_ghz(), nm, 60, 1e-4, trains, steps, held)
    for g, w in zip(got, want):
        assert np.array_equal(g.states, w.states)


@pytest.mark.parametrize("seed", range(10))
def test_ou_scan_is_exact_on_the_protect_grid(seed):
    # the protect grid: tau_c = 10 ms, 8,000 steps of 5 us (dt / tau_c =
    # 5e-4), long enough that a scan through powers of 1/d would lose
    # about 3e-13 of the track's largest value to cancellation
    tau_c, sigma, dt, n, width = 0.01, 1.0, 5e-6, 8000, 3
    got = sigma * _ou_paths(np.random.default_rng(seed), tau_c, dt, n, width)
    want = _plain_ou_recurrence(seed, tau_c, sigma, dt, n, width)
    assert np.max(np.abs(got - want)) <= 2e-14 * np.max(np.abs(want))


@PROPERTY
@given(st.floats(1e-6, 1e3), st.floats(1e-6, 1e3))
def test_fit_grid_takes_the_fewest_steps_no_longer_than_max_dt(span, max_dt):
    # up to 1e9 steps: a count that rounds up past the cap is rejected
    if math.ceil(span / max_dt * (1.0 - 1e-9)) > triq.noise.MAX_STEPS:
        with pytest.raises(ValueError, match="more than the %d" % triq.noise.MAX_STEPS):
            fit_grid(span, max_dt)
        return
    n, dt = fit_grid(span, max_dt)
    assert math.isclose(n * dt, span, rel_tol=1e-15)
    # the relative guard lets a step exceed max_dt by 1e-9 of itself; the
    # last factor allows for rounding
    assert dt <= max_dt * (1.0 + 1e-9) * (1.0 + 1e-15)
    assert (n - 1) * max_dt < span


def test_fit_grid_pinned_cases():
    # KDD at tau = 0.2 ms: 20 tau over tau/50 reads a few ulps above
    # 1000 steps, which a plain ceil would make 1001
    cyc, dt = cycle_duration(build_kddxy(2e-4)), 2e-4 / 50.0
    assert cyc / dt > 1000.0
    assert fit_grid(cyc, dt)[0] == 1000
    # calibrate's 2.5 T2 at T2 = 0.53 s is 1.3250000000000002 s, a few
    # ulps above 2650 steps of 0.5 ms
    span = 2.5 * 0.53
    assert span / 5e-4 > 2650.0
    assert fit_grid(span, 5e-4)[0] == 2650
    assert fit_grid(0.0, 1e-3)[0] == 0
    # an infinite span must not reach ceil(), whose OverflowError the CLI
    # would report as a numerical failure
    for span in (-1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_final must be non-negative"):
            fit_grid(span, 1e-3)
    for max_dt in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive"):
            fit_grid(1.0, max_dt)


def test_fit_grid_rejects_an_overflowing_step_count():
    # a finite span over a finite step whose count overflows is a bad
    # config, not a numerical failure
    for span, max_dt in ((1e300, 1e-10), (1.7e308, 0.5), (1.0, 5e-324)):
        with pytest.raises(ValueError, match="overflows the step count"):
            fit_grid(span, max_dt)


def test_fit_grid_caps_the_step_count(rates, monkeypatch):
    # the real cap only through fit_grid's arithmetic, which builds no
    # grid: 1e3 s at 1 ns is 1e12 steps
    with pytest.raises(ValueError, match="more than the %d" % triq.noise.MAX_STEPS):
        fit_grid(1e3, 1e-9)
    # through the engine with the cap lowered, so that a missing check
    # would build a short grid, not an impossible one
    monkeypatch.setattr(triq.noise, "MAX_STEPS", 1000)
    assert fit_grid(1.0, 1e-3)[0] == 1000
    with pytest.raises(ValueError, match="is 1002 steps, more than the 1000"):
        fit_grid(1.0, 0.999e-3)
    with pytest.raises(ValueError, match="more than the 1000"):
        triq.noise.evolve(prepare_ghz(), rates, 2.0, 1e-3)
    # one XY-16(s) cycle at tau = 0.25 ms is 16 x 50 = 800 steps, under
    # the cap; a protected run of three cycles is 2,400 steps
    schedule = build_xy16s(0.25e-3, cycles=3)
    # the grid is rejected before the pulse list is built
    expanded = []
    monkeypatch.setattr(triq.ddseq, "expand_schedule",
                        lambda *args: expanded.append(args))
    with pytest.raises(ValueError, match="2400 steps is more than the 1000"):
        run_protected(prepare_ghz(), rates, schedule)
    assert not expanded


# the acceptance bath with kappa_x 100 times the bundled 1/T1, so that
# the bit flips, and any error in merging them, show; pulses 1 ms apart
# so that the 50-step cap also splits the gaps between them
FLIPPY = NoiseModel(kappa_x=tuple(100.0 / t for t in T1_S),
                    kappa_z=(0.0, 0.0, 0.0), bath_mode="correlated",
                    ou_sigma=13.7117919922, ou_tau_c=0.01, trajectories=3,
                    seed=11)
ARM_SCHEDULES = {
    "xy16s": build_xy16s(1e-3, cycles=2),
    "kddxy": build_kddxy(1e-3, cycles=2),
    "xy16s_flip_error": build_xy16s(1e-3, cycles=2, flip_error=0.02),
}


# steps per tau of ARM_SCHEDULES' grid: 5 us steps
PER_TAU = 200


def _arm_grid(schedule):
    """Grid of PER_TAU steps per tau, sampled after each cycle and once
    inside a gap."""
    per_cycle = PER_TAU * len(schedule.pulses)
    n = schedule.cycles * per_cycle
    return (n, schedule.tau / PER_TAU,
            sorted({*range(0, n + 1, per_cycle), 130}))


def _strang_reference(rho0, noise, n, dt, train, samples):
    """The plain Strang split, two half flips per segment, on the
    engine's segment edges, one trajectory at a time."""
    cap = max(1, math.floor(_MAX_SEGMENT_S / dt * (1.0 + 1e-9)))
    edges = _segment_edges(sorted({*samples, *train, 0, n}), cap)
    xs = [embed1(SX, q) for q in (1, 2, 3)]

    def half_flips(rho, t):
        for x, kx in zip(xs, noise.kappa_x):
            p = 0.5 * (1.0 - math.exp(-kx * t))
            rho = (1.0 - p) * rho + p * (x @ rho @ x)
        return rho

    out = np.zeros((len(samples), 8, 8), dtype=complex)
    for j in range(noise.trajectories):
        b = noise.ou_sigma * _ou_track(noise, j, dt, n, np.arange(3))
        rho = _kick(rho0.astype(complex), train, 0)
        got = {0: rho}
        for a, k in zip(edges, edges[1:]):
            phase = dt * b[a:k].sum(axis=0)
            rho = half_flips(rho, 0.5 * (k - a) * dt)
            rho = np.exp(-1j * np.einsum("i,iab->ab", phase, _ZDIFF)) * rho
            rho = _kick(half_flips(rho, 0.5 * (k - a) * dt), train, k)
            got[k] = rho
        out += np.stack([got[k] for k in samples])
    return out / noise.trajectories


@pytest.mark.parametrize("name", sorted(ARM_SCHEDULES))
def test_merged_half_flips_match_the_strang_split(name):
    schedule = ARM_SCHEDULES[name]
    n, dt, samples = _arm_grid(schedule)
    rho0 = prepare_w()
    trains = [expand_schedule(schedule, PER_TAU), {}]
    curves = propagate_arms(rho0, FLIPPY, n, dt, trains, samples)
    for train, curve in zip(trains, curves):
        want = _strang_reference(rho0, FLIPPY, n, dt, train, samples)
        assert np.max(np.abs(curve.states - want)) < 1e-12
    # the flips move the states far more than the bound
    quiet = replace(FLIPPY, kappa_x=(0.0, 0.0, 0.0))
    unflipped = propagate_arms(rho0, quiet, n, dt, trains, samples)
    assert np.max(np.abs(unflipped[0].states - curves[0].states)) > 1e-3


@pytest.mark.parametrize("name", sorted(ARM_SCHEDULES))
def test_propagate_arms_equal_lone_propagate(name):
    schedule = ARM_SCHEDULES[name]
    n, dt, samples = _arm_grid(schedule)
    noise = replace(FLIPPY, trajectories=34)  # a full chunk and a part
    pulses = expand_schedule(schedule, PER_TAU)
    prot, free = propagate_arms(prepare_ghz(), noise, n, dt, [pulses, {}],
                                samples)
    lone = propagate_arms(prepare_ghz(), noise, n, dt, [pulses], samples)[0]
    assert np.array_equal(prot.states, lone.states)
    assert np.array_equal(prot.times, lone.times)
    lone = propagate_arms(prepare_ghz(), noise, n, dt, [{}], samples)[0]
    assert np.array_equal(free.states, lone.states)


@pytest.mark.parametrize("phase, flip_error, merges", [
    (0.0, 0.0, True),            # x
    (math.pi / 2.0, 0.0, True),  # y
    (math.pi, 0.0, True),        # -x
    (0.0, 0.02, True),           # an over-rotated x still commutes with X
    (math.pi / 2.0, 0.02, False),
    (math.pi / 6.0, 0.0, False),  # KDD's outer pulses
])
def test_flip_merge_rule_per_pulse(phase, flip_error, merges):
    # a pulse carries two half flips across it only if it commutes with
    # every qubit's bit-flip channel; 5 us steps, so that the 250 us
    # segment cap is 50 steps
    n, dt = 100, 5e-6
    pulses = {50: pulse_unitary(phase, flip_error)}
    calls = []
    real = triq.noise._flips

    def counting(states, kappa_x, t, *flats):
        calls.append(t)
        return real(states, kappa_x, t, *flats)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triq.noise, "_flips", counting)
        propagate_arms(prepare_ghz(), FLIPPY, n, dt, [pulses], [0, n])
    # segments [0, 50] and [50, 100]: four half flips, or three merged
    assert len(calls) == (3 if merges else 4)


@pytest.mark.parametrize("dt, n, steps", [(2e-5, 60, 12), (1e-3, 3, 1)])
def test_segment_cap_is_stated_in_seconds(dt, n, steps):
    # the 250 us cap is 12 steps of 20 us, and one step of 1 ms: n
    # pulse-free steps are cut into segments of that many steps, whose
    # half flips merge at the inner edges, so the flips span half a
    # segment at each end and a whole segment in between
    calls = []
    real = triq.noise._flips

    def counting(states, kappa_x, t, *flats):
        calls.append(t)
        return real(states, kappa_x, t, *flats)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triq.noise, "_flips", counting)
        propagate_arms(prepare_ghz(), FLIPPY, n, dt, [{}], [0, n])
    want = [steps / 2] + [steps] * (n // steps - 1) + [steps / 2]
    assert np.allclose(calls, np.array(want) * dt, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("phase, flip_error", [
    (0.0, 0.0), (math.pi / 6.0, 0.0), (math.pi / 2.0, 0.02),
], ids=["x", "pi_6", "y_flip_error"])
def test_pulse_at_step_zero_acts_before_the_first_sample(phase, flip_error):
    # the sweep applies a step-0 pulse to the initial states, before the
    # step-0 sample and the first segment; on a grid of no steps that
    # sample is all there is
    u = pulse_unitary(phase, flip_error)
    rho0 = prepare_w()
    for n, dt, pulses, samples in ((100, 1e-5, {0: u, 50: u}, [0, 30, 100]),
                                   (0, 1e-5, {0: u}, [0])):
        curve = propagate_arms(rho0, FLIPPY, n, dt, [pulses], samples)[0]
        want = _strang_reference(rho0, FLIPPY, n, dt, pulses, samples)
        assert np.max(np.abs(curve.states - want)) < 1e-12
        assert np.max(np.abs(curve.states[0] - u @ rho0 @ u.conj().T)) < 1e-15
        assert np.max(np.abs(curve.states[0] - rho0)) > 0.1


@pytest.mark.parametrize("schedule", [
    build_xy16s(1e-3),                    # merges its half flips
    build_kddxy(1e-3, flip_error=0.01),   # does not
], ids=["xy16s", "kddxy_flip_error"])
def test_batch_width_does_not_change_results(schedule, monkeypatch):
    # 262 trajectories, two full batches and a part, at the sweep's own
    # width or in batches of 32: every sampled mean adds each batch's sum
    # once, so the widths add the same states in another order. A mean of
    # N elements of modulus at most 1 summed in any order is within
    # N eps / 2 of the exact one, so two orders differ by at most N eps,
    # while a trajectory swept twice or dropped moves it by about 1/N
    n, dt, samples = _arm_grid(schedule)
    noise = replace(FLIPPY, trajectories=2 * triq.noise._BATCH + 6)
    trains = [expand_schedule(schedule, PER_TAU), {}]
    wide = propagate_arms(prepare_ghz(), noise, n, dt, trains, samples)
    monkeypatch.setattr(triq.noise, "_BATCH", 32)
    narrow = propagate_arms(prepare_ghz(), noise, n, dt, trains, samples)
    atol = noise.trajectories * np.finfo(float).eps
    for a, b in zip(wide, narrow):
        assert np.allclose(a.states, b.states, rtol=0.0, atol=atol)


def _supports(monkeypatch):
    """Record every support the sweep is planned on."""
    supports = []
    real = triq.noise._support

    def recording(*args):
        supports.append(real(*args))
        return supports[-1]

    monkeypatch.setattr(triq.noise, "_support", recording)
    return supports


def test_calibration_sweeps_four_elements(monkeypatch):
    # |+>|00> has 4 nonzero elements, and with no flips and no pulses
    # the OU phase only scales them: calibration finds the qubits its
    # held table keeps on them, and its engine run sweeps them
    supports = _supports(monkeypatch)
    calibrate_sigma(0.53, 0.01, 128, 2, 12.0, 16.0)
    assert [list(s) for s in supports] == [[0, 4, 32, 36]] * 2


@pytest.mark.parametrize("u, pulsed", [
    (pulse_unitary(0.0), 4), (pulse_unitary(math.pi / 2.0), 4),
    (pulse_unitary(math.pi / 6.0), 4), (pulse_unitary(0.0, 0.02), 64),
    (kron(SX, kron(SX, SX)), 4),
], ids=["x", "y", "pi_6", "x_flip_error", "exact"])
def test_a_pulsed_arm_sweeps_every_element(u, pulsed, monkeypatch):
    # an ideal pulse, at any phase, is monomial and flips all three
    # qubits, so it maps GHZ's 4 elements onto themselves: without flips
    # its arm runs on those 4, as the pulse-free arm does. A pulse with a
    # flip error is not monomial, and its arm runs on every element
    supports = _supports(monkeypatch)
    quiet = replace(FLIPPY, kappa_x=(0.0, 0.0, 0.0))
    propagate_arms(prepare_ghz(), quiet, 100, 5e-6, [{50: u}, {}], [0, 100])
    assert [len(s) for s in supports] == [pulsed, 4]


def test_the_protect_benchmark_arm_sweeps_sixteen_elements(monkeypatch):
    # the XY-16(s) arm of the protect benchmark's config (GHZ, bundled
    # T1 and T2, tau = 250 us) runs on the 16 elements of the free arm:
    # GHZ's 4 closed under the flips, which its ideal pulses keep. A
    # pulse applied as its unitary would take all 64
    supports = _supports(monkeypatch)
    noise = NoiseModel.from_times(bath_mode="correlated",
                                  ou_sigma=13.7117919922, ou_tau_c=0.01,
                                  trajectories=2, seed=2026)
    run_protected(prepare_ghz(), noise, build_xy16s(250e-6))
    assert [len(s) for s in supports] == [16, 16]


SUPPORT_SCHEDULES = {
    "xy16s": build_xy16s(1e-3, cycles=2),
    "kddxy_flip_error": build_kddxy(1e-3, cycles=2, flip_error=0.02),
}


@pytest.mark.parametrize("flips", [True, False], ids=["flippy", "no_flips"])
@pytest.mark.parametrize("name", sorted(SUPPORT_SCHEDULES))
@pytest.mark.parametrize("prepare", [prepare_ghz, prepare_w, prepare_wwbar],
                         ids=["ghz", "w", "wwbar"])
def test_support_sweep_equals_the_full_sweep(prepare, name, flips, monkeypatch):
    # a pulsed arm and the free arm, each swept on its support, equal a
    # sweep of all 64 elements bit for bit, and that sweep leaves every
    # element outside the support exactly 0
    noise = FLIPPY if flips else replace(FLIPPY, kappa_x=(0.0, 0.0, 0.0))
    schedule = SUPPORT_SCHEDULES[name]
    n, dt, samples = _arm_grid(schedule)
    trains = [expand_schedule(schedule, PER_TAU), {}]
    supports = _supports(monkeypatch)
    got = propagate_arms(prepare(), noise, n, dt, trains, samples)
    monkeypatch.setattr(triq.noise, "_support", lambda *args: np.arange(64))
    want = propagate_arms(prepare(), noise, n, dt, trains, samples)
    for support, g, w in zip(supports, got, want):
        assert np.array_equal(g.states, w.states)
        outside = np.ones(64, dtype=bool)
        outside[support] = False
        assert np.all(w.states.reshape(-1, 64)[:, outside] == 0.0)
    # GHZ's 4 elements |a><b|, a, b in {000, 111}, and the flips carry
    # them to every |x><x| and |x><x^111|; XY-16(s)'s ideal pulses flip
    # all three qubits, which keeps that set. W's 9 elements |a><b|, a
    # and b of weight 1, reach the 9 of weight 2 under those pulses, and
    # the flips carry both to the 32 whose row and column weights have
    # one parity; a pulse with a flip error is not monomial and takes all
    # 64, and WWbar holds all 64
    free = {prepare_ghz: 16 if flips else 4, prepare_w: 32 if flips else 9,
            prepare_wwbar: 64}[prepare]
    pulsed = {("xy16s", prepare_ghz): free, ("xy16s", prepare_w): 32 if flips else 18}
    assert [len(s) for s in supports] == [pulsed.get((name, prepare), 64), free]


def test_pure_ou_bath_keeps_every_population_exactly():
    # with no flips and no pulses every trajectory's phase factor is
    # exactly 1 on the diagonal, and |+++><+++| has every element 1/8,
    # so the mean of any number of copies is 1/8 bit for bit: the
    # sampled populations equal rho0's, across batch edges too
    rho0 = np.full((8, 8), 0.125)
    noise = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0),
                       bath_mode="correlated", ou_sigma=50.0, ou_tau_c=0.01,
                       trajectories=triq.noise._BATCH + 2, seed=7)
    curve = propagate_arms(rho0, noise, 400, 1e-4, [{}], [0, 1, 150, 400])[0]
    pops = np.diagonal(curve.states, axis1=1, axis2=2)
    assert np.array_equal(pops, np.full(pops.shape, 0.125 + 0j))
    # the coherences did decay, so the bath acted
    assert np.max(np.abs(curve.states[-1] - rho0)) > 0.01


def _seen_by_tracks(monkeypatch):
    """Record the qubits that each drawn OU track keeps."""
    seen = []
    real = triq.noise._ou_track

    def recording(noise, j, dt, n, qubits):
        seen.append(list(qubits))
        return real(noise, j, dt, n, qubits)

    monkeypatch.setattr(triq.noise, "_ou_track", recording)
    return seen


def test_calibration_tracks_keep_qubit_one_alone(monkeypatch):
    # qubits 2 and 3 agree on all 4 elements of |+><+| (x) |00><00|, so
    # only qubit 1's OU phase reaches them
    seen = _seen_by_tracks(monkeypatch)
    calibrate_sigma(0.53, 0.01, 128, 2, 12.0, 16.0)
    assert seen == [[0]] * 128


@pytest.mark.parametrize("flips", [True, False], ids=["flippy", "no_flips"])
def test_a_ghz_arm_sees_every_qubit(flips, monkeypatch):
    # GHZ's coherence |000><111| differs in every qubit, with the bundled
    # flips (16 elements) or without them (4)
    noise = NoiseModel.from_times(bath_mode="correlated",
                                  ou_sigma=13.7117919922, ou_tau_c=0.01,
                                  trajectories=3, seed=2026)
    if not flips:
        noise = replace(noise, kappa_x=(0.0, 0.0, 0.0))
    seen = _seen_by_tracks(monkeypatch)
    run_protected(prepare_ghz(), noise, build_xy16s(250e-6))
    assert seen == [[0, 1, 2]] * 3


def test_a_diagonal_state_sees_no_qubit(monkeypatch):
    # every element of a diagonal state, and every one the flips carry it
    # to, has its row equal to its column: no qubit's OU phase reaches
    # them, so the tracks keep no column, and at any sigma the means are
    # the closed-form flips alone
    rho0 = np.diag(np.random.default_rng(3).dirichlet(np.ones(8))).astype(complex)
    noise = replace(FLIPPY, ou_sigma=500.0, trajectories=5)
    seen = _seen_by_tracks(monkeypatch)
    curve = propagate_arms(rho0, noise, 400, 5e-6, [{}], range(0, 401, 50))[0]
    assert seen == [[]] * 5
    for t, rho in zip(curve.times, curve.states):
        want = _closed_form(rho0, noise.kappa_x, (0.0, 0.0, 0.0), t)
        assert np.max(np.abs(rho - want)) < 1e-12
    # the flips moved the populations
    assert np.max(np.abs(curve.states[-1] - rho0)) > 1e-3


def test_a_partly_seen_state_is_the_exact_track_phase(monkeypatch):
    # |+>|0>|+> without bit flips sees qubits 1 and 3 alone: a sweep of
    # their two columns is the exact phase of all three qubits' tracks,
    # exp(-i dt sum_k b_i[k] ZDIFF_i), in which qubit 2's is 0 on every
    # nonzero element
    noise = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0),
                       bath_mode="correlated", ou_sigma=40.0, ou_tau_c=1e-3,
                       trajectories=2, seed=31)
    n, dt = 300, 1e-5
    rho0 = np.kron(np.full((2, 2), 0.5), np.kron(np.diag([1.0, 0.0]),
                                                 np.full((2, 2), 0.5)))
    want = np.zeros((8, 8), dtype=complex)
    for j in range(2):
        stream = np.random.default_rng(np.random.SeedSequence(entropy=(31, j)))
        phi = 40.0 * dt * _ou_paths(stream, 1e-3, dt, n, 3).sum(axis=0)
        want += np.exp(-1j * np.einsum("i,iab->ab", phi, _ZDIFF)) * rho0 / 2.0
    seen = _seen_by_tracks(monkeypatch)
    got = propagate_arms(rho0, noise, n, dt, [{}], [0, 7, n])[0].states[-1]
    assert seen == [[0, 2]] * 2
    assert np.max(np.abs(got - want)) < 1e-13
    # each seen qubit's phase moved its own coherence far past the bound
    assert abs(got[0, 1] - 0.25) > 1e-3 and abs(got[0, 4] - 0.25) > 1e-3


phase_rows = st.lists(st.tuples(*[st.floats(-1e4, 1e4)] * 3),
                      min_size=1, max_size=70)


@PROPERTY
@given(phi=phase_rows)
def test_phase_factors_equal_the_full_exponential(phi):
    # the product of three per-qubit exps: exactly 1 where no qubit
    # differs, exactly that qubit's exp where one does, and elsewhere
    # within rounding of the exp of the whole phase. Each exp is within
    # 1 ulp per component, so 2u in modulus (u = eps/2), and each of the
    # two complex products adds sqrt(5) u: 6u + 2 sqrt(5) u < 10.5u for
    # the product. The reference rounds the sum of three phases, by at
    # most 2u sum|phi_i|, before its own exp (2u). So every element is
    # within eps (6.25 + sum|phi_i|) <= 7 eps (1 + sum|phi_i|).
    phi = np.array(phi)
    got = _phase_factors(phi)
    assert got.shape == (len(phi), 64)
    zdiff = _ZDIFF.reshape(3, 64)
    differ = np.count_nonzero(zdiff, axis=0)
    assert np.all(got[:, differ == 0] == 1.0)
    for c in np.flatnonzero(differ == 1):
        i = np.flatnonzero(zdiff[:, c])[0]
        assert np.array_equal(got[:, c], np.exp(-1j * zdiff[i, c] * phi[:, i]))
    want = np.exp(-1j * np.einsum("ci,iab->cab", phi, _ZDIFF)).reshape(len(phi), 64)
    bound = 7 * np.finfo(float).eps * (1.0 + np.abs(phi).sum(axis=1))
    assert np.all(np.abs(got - want) <= bound[:, None])


@PROPERTY
@given(kappa_x=rates, t=st.floats(0.0, 1.0), width=st.integers(1, 70),
       seed=st.integers(0, 2**32))
def test_raveled_flips_equal_the_matrix_gathers(kappa_x, t, width, seed):
    # one gather per qubit on the raveled states is bit for bit the
    # row-and-column gather on (width, 8, 8)
    rng = np.random.default_rng(seed)
    states = (rng.standard_normal((width, 8, 8))
              + 1j * rng.standard_normal((width, 8, 8)))
    want = states
    for flip, kx in zip(_FLIP, kappa_x):
        if kx != 0.0:
            p = 0.5 * (1.0 - math.exp(-kx * t))
            want = (1.0 - p) * want + p * want[..., flip[:, None], flip[None, :]]
    got = _flips(states.reshape(width, 64), kappa_x, t)
    assert got.tobytes() == want.reshape(width, 64).tobytes()


MONOMIAL = [pulse_unitary(k * math.pi / 2.0) for k in range(4)] + [
    pulse_unitary(math.pi / 6.0), kron(SX, kron(SX, SX))]


@PROPERTY
@given(width=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
def test_a_monomial_pulse_gathers_as_its_matrix_product(width, seed):
    # on the support that its gather closes from a random set of
    # elements, a monomial pulse's gather and factor equal u rho
    # u^dagger within 4 eps of the largest element, and leave every other
    # element 0. Over 200 draws of (130, 64) states the largest
    # difference was 1.73 eps of it (1.8e-15 at 4.78), at pi/6; the
    # quarter-turn pulses and X X X agreed exactly
    rng = np.random.default_rng(seed)
    for u in MONOMIAL:
        gather, factor = _gather(u)
        rho0 = (rng.random((8, 8)) < 0.1).astype(float)
        support = _support(rho0, [gather])
        states = (rng.standard_normal((width, len(support)))
                  + 1j * rng.standard_normal((width, len(support))))
        full = np.zeros((width, 64), dtype=complex)
        full[:, support] = states
        want = _apply_unitary(full, u)
        got = factor[support] * states[:, _reindex(gather, support)]
        bound = 4.0 * np.finfo(float).eps * np.max(np.abs(states), initial=0.0)
        assert np.max(np.abs(got - want[:, support]), initial=0.0) <= bound
        outside = np.ones(64, dtype=bool)
        outside[support] = False
        assert not want[:, outside].any()
    assert _gather(pulse_unitary(math.pi / 2.0, 0.02)) is None
    # the ideal XY-16 pulses turn each qubit's X into +-itself exactly,
    # so _commutes_with_flips needs none of its tolerance on them
    for u in expand_schedule(build_xy16s(1e-3), 2).values():
        for x in _X:
            c = u @ x @ u.conj().T
            assert np.array_equal(c, x) or np.array_equal(c, -x)


@pytest.mark.parametrize("phase, real", [
    (None, True), (math.pi / 2.0, True), (0.0, True), (math.pi / 6.0, False),
], ids=["free", "y", "x", "pi_6"])
def test_markovian_real_stretches_run_in_float64_bit_for_bit(phase, real,
                                                             monkeypatch):
    # a free arm from a prepared state, and y and x pulses, keep every
    # stretch exactly real, and the float64 pass gives the real parts of
    # the complex pass bit for bit: an ideal x pulse is i X X X, exactly,
    # and its phases cancel in u rho u^dagger. A pi/6 pulse turns the
    # real W into a complex state, so its arm stays complex
    train = {} if phase is None else {k: pulse_unitary(phase) for k in (40, 90)}

    def run():
        return propagate_arms(prepare_w(), NoiseModel.from_times(), 200, 1e-3,
                              [train], range(0, 201, 5))[0].states

    got = run()
    assert got.dtype == (np.float64 if real else np.complex128)
    seen = []

    def complex_pass(states):
        seen.append(states.dtype)
        return states

    monkeypatch.setattr(triq.noise, "real_if_exact", complex_pass)
    wide = run()
    assert seen == [np.complex128]
    # curve_from_states holds a stack as float64 only if its imaginary
    # part is exactly zero
    assert wide.dtype == got.dtype
    assert np.ascontiguousarray(wide).tobytes() == got.tobytes()
