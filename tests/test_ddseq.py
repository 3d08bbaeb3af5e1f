import math
from dataclasses import replace

import numpy as np
import pytest

from triq import (
    DDSchedule,
    NoiseModel,
    build_cpmg,
    build_kddxy,
    build_xy16s,
    cycle_duration,
    evolve,
    expand_schedule,
    prepare_ghz,
    prepare_w,
    prepare_wwbar,
    propagate_arms,
    pulse_unitary,
    run_protected,
    schedule_table,
    tripartite_negativity,
)
import triq.noise
from triq import ddseq
from triq.core import SX

TAU = 0.25e-3
QUIET = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0))


def test_pulse_validation():
    # a pulse is its phase, and phase 0.0 is an x pulse, not a gap
    sch = DDSchedule((0.0, math.pi), 1e-3)
    assert sch.pulses == (0.0, math.pi) and sch.flip_error == 0.0
    assert len(expand_schedule(sch, 2)) == 2


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["phase", "flip_error"])
def test_pulse_rejects_non_finite_fields(field, value):
    # a NaN flip error used to run a whole propagation and fail as a
    # numerical error; an infinite one failed with "math domain error"
    if field == "phase":
        kwargs = {"pulses": (0.0, value)}
    else:
        kwargs = {"pulses": (0.0,), "flip_error": value}
    with pytest.raises(ValueError, match=field + " must be finite"):
        DDSchedule(tau=1e-3, **kwargs)
    # the builders pass the flip error on to the schedule
    if field == "flip_error":
        with pytest.raises(ValueError, match="flip_error must be finite"):
            build_kddxy(TAU, flip_error=value)


def test_schedule_validation():
    # a float count, even a whole one, would fail in range() mid-run
    for cycles in (0, 2.5, 2.0):
        with pytest.raises(ValueError, match="cycles"):
            DDSchedule((0.0,), 1e-3, cycles=cycles)
    with pytest.raises(ValueError, match="at least one pulse"):
        DDSchedule((), 1e-3)
    with pytest.raises(ValueError, match="positive"):
        DDSchedule((0.0,), 0.0)


def test_xy16s_structure():
    sch = build_xy16s(TAU)
    assert len(sch.pulses) == 16
    assert cycle_duration(sch) == pytest.approx(16 * TAU, rel=1e-15)
    assert sch.tau == TAU
    x, y = 0.0, math.pi / 2.0
    phases = list(sch.pulses)
    assert phases[:8] == [x, y, x, y, y, x, y, x]
    # second half swaps the axes of the first
    assert phases[8:] == [y, x, y, x, x, y, x, y]


def test_kddxy_structure():
    sch = build_kddxy(TAU)
    assert len(sch.pulses) == 20
    assert cycle_duration(sch) == pytest.approx(20 * TAU, rel=1e-15)
    assert sch.tau == TAU
    phases = list(sch.pulses)
    block = [math.pi / 6.0, 0.0, math.pi / 2.0, 0.0, math.pi / 6.0]
    shifted = [p + math.pi / 2.0 for p in block]
    assert phases == block + shifted + block + shifted


@pytest.mark.parametrize("build, pulses", [
    (build_xy16s, 16), (build_kddxy, 20), (build_cpmg, 16),
], ids=["xy16s", "kddxy", "cpmg"])
def test_cycle_duration_is_n_tau(build, pulses):
    # exactly N tau, as run_protected's N M steps of tau / M span it; a
    # left-to-right sum of the gaps misses N tau in the last bits
    assert cycle_duration(build(TAU)) == pulses * TAU


def test_cpmg_structure():
    sch = build_cpmg(TAU)
    assert sch.cycles == 1
    assert len(sch.pulses) == 16
    assert sch.pulses == (math.pi / 2.0,) * 16
    assert cycle_duration(sch) == cycle_duration(build_xy16s(TAU))


def test_builders_reject_bad_tau():
    for build in (build_xy16s, build_kddxy, build_cpmg):
        with pytest.raises(ValueError, match="tau"):
            build(0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("build, field", [
    (lambda tau: DDSchedule((0.0,), tau), "tau"),
    (build_xy16s, "tau"),
    (build_kddxy, "tau_k"),
    (build_cpmg, "tau"),
], ids=["DDSchedule", "build_xy16s", "build_kddxy", "build_cpmg"])
def test_delays_must_be_finite_and_positive(build, field, value):
    # NaN passes `delay <= 0`, and run_protected would then fail on the
    # cycle's span with a message that names no delay
    with pytest.raises(ValueError, match=field + " must be finite and positive"):
        build(value)


@pytest.mark.parametrize("build", [lambda tau: DDSchedule((0.0,) * 2, tau),
                                   build_xy16s, build_kddxy, build_cpmg],
                         ids=["DDSchedule", "build_xy16s", "build_kddxy",
                              "build_cpmg"])
def test_a_cycle_span_that_overflows_is_rejected(build):
    # tau = 1e308 is finite, but N tau is not: schedule-dump wrote inf
    # offsets
    with pytest.raises(ValueError, match="cycle span N tau must be finite"):
        build(1e308)


@pytest.mark.parametrize("phase", [math.nan, math.inf])
def test_pulse_unitary_rejects_a_non_finite_phase(phase):
    # a NaN phase gave a NaN unitary
    with pytest.raises(ValueError, match="rotation phase must be finite"):
        pulse_unitary(phase)


def test_pulse_unitary_collective_x():
    u = pulse_unitary(0.0)
    xxx = np.kron(np.kron(SX, SX), SX)
    # each pi_x factor is -i X, so the collective pulse is +i XXX
    assert np.allclose(u, 1j * xxx, atol=1e-14)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-14)


def test_pulse_unitary_flip_error():
    over = pulse_unitary(0.0, 0.01)
    assert not np.allclose(over, pulse_unitary(0.0), atol=1e-4)
    assert np.allclose(over @ over.conj().T, np.eye(8), atol=1e-13)


def test_expand_schedule_absolute_times():
    # on two steps per tau the pulses fall on every odd step of both
    # 32-step cycles, as Python ints
    sch = build_xy16s(TAU, cycles=2)
    train = expand_schedule(sch, 2)
    assert list(train) == list(range(1, 64, 2))
    assert all(type(k) is int for k in train)
    # on 50 steps per tau, pulse k of cycle c at c 800 + 25 (2k + 1)
    steps = list(expand_schedule(sch, 50))
    assert steps[:2] == [25, 75] and steps[15:17] == [775, 825]


@pytest.mark.parametrize("steps_per_tau", [0, 3, 2.5, 2.0])
def test_expand_schedule_rejects_a_step_count_off_the_pulses(steps_per_tau):
    # an odd count would put every pulse half a step off the grid; a
    # float, even a whole one, is no step count
    with pytest.raises(ValueError, match="positive even integer"):
        expand_schedule(build_xy16s(TAU), steps_per_tau)


def test_expand_schedule_builds_one_cycle_of_unitaries(monkeypatch):
    calls = []
    real = ddseq.pulse_unitary

    def counting(phase, flip_error):
        calls.append(phase)
        return real(phase, flip_error)

    monkeypatch.setattr(ddseq, "pulse_unitary", counting)
    unitaries = list(expand_schedule(build_xy16s(TAU, cycles=10), 2).values())
    assert len(unitaries) == 160
    assert len(calls) == 16
    # every cycle applies the same unitaries in the same order
    for c in range(1, 10):
        assert all(a is b for a, b in zip(unitaries[:16],
                                          unitaries[16 * c:16 * (c + 1)]))


def test_schedule_table_frozen_rows():
    lines = schedule_table(build_xy16s(TAU)).splitlines()
    assert lines[0] == "event,time_offset_s,phase_rad,angle_rad"
    assert len(lines) == 17
    assert lines[1] == "0,0.000125,0,3.14159265359"
    assert lines[8] == "7,0.001875,0,3.14159265359"
    assert lines[16] == "15,0.003875,1.57079632679,3.14159265359"
    klines = schedule_table(build_kddxy(TAU)).splitlines()
    assert len(klines) == 21
    assert klines[1] == "0,0.000125,0.523598775598,3.14159265359"
    assert klines[3] == "2,0.000625,1.57079632679,3.14159265359"
    assert schedule_table(build_xy16s(TAU)).endswith("\n")
    # the angle column is the nominal pi, whatever the flip error
    flipped = schedule_table(build_kddxy(TAU, flip_error=0.02)).splitlines()
    assert flipped[1] == "0,0.000125,0.523598775598,3.14159265359"
    assert flipped[1:] == klines[1:]


def test_cycles_compose_to_identity_without_noise():
    # ideal pulses, no decoherence: the state returns exactly at every
    # cycle boundary for all three bundled sequences
    rho = prepare_ghz()
    for build in (build_xy16s, build_kddxy, build_cpmg):
        sch = build(TAU, cycles=3)
        curve, _ = run_protected(rho, QUIET, sch)
        assert float(np.min(curve.fidelity)) > 1.0 - 1e-9


def test_flip_error_robustness_ordering():
    # 1% systematic over-rotation, no decoherence, 100 cycles: the
    # composite-pulse sequence beats XY-16(s), which beats the
    # single-axis control by orders of magnitude
    rho = prepare_ghz()
    mins = {}
    argmins = {}
    for name, build in (("cpmg", build_cpmg), ("xy16s", build_xy16s),
                        ("kddxy", build_kddxy)):
        sch = build(TAU, cycles=100, flip_error=0.01)
        curve, _ = run_protected(rho, QUIET, sch)
        mins[name] = float(np.min(curve.fidelity))
        argmins[name] = int(np.argmin(curve.fidelity))
    assert mins["kddxy"] >= mins["xy16s"] >= mins["cpmg"]
    assert mins["kddxy"] > 0.9999999
    assert mins["xy16s"] == pytest.approx(0.999942347, abs=1e-6)
    # the single-axis control walks GHZ through a collective rotation
    # that bottoms out near half a turn, six cycles in
    assert mins["cpmg"] < 0.01
    assert argmins["cpmg"] == 6


def test_markovian_noise_is_transparent_to_decoupling(rates):
    # the damping dissipators are invariant under pi-pulse conjugation,
    # so decoupling neither helps nor hurts a memoryless bath
    sch = build_xy16s(TAU, cycles=25)
    total = 25 * cycle_duration(sch)
    prot, _ = run_protected(prepare_ghz(), rates, sch)
    free = evolve(prepare_ghz(), rates, total, total)
    assert prot.times[-1] == pytest.approx(free.times[-1], rel=1e-12)
    assert prot.n3_tri[-1] == pytest.approx(free.n3_tri[-1], rel=1e-6)
    assert prot.fidelity[-1] == pytest.approx(free.fidelity[-1], rel=1e-6)


def test_run_protected_sampling_grid(rates):
    sch = build_xy16s(1e-3, cycles=3)
    curve, _ = run_protected(prepare_ghz(), rates, sch)
    assert np.allclose(curve.times, [0.0, 0.016, 0.032, 0.048], atol=1e-12)


@pytest.mark.parametrize("cycles", [1, 4])
def test_run_protected_runs_the_schedule_cycles(rates, cycles):
    prot, free = run_protected(prepare_ghz(), rates,
                               build_kddxy(TAU, cycles=cycles))
    assert len(prot.times) == len(free.times) == cycles + 1
    assert prot.times[-1] == pytest.approx(cycles * 20 * TAU, rel=1e-12)


def test_run_protected_step_is_keyword_only(rates):
    # run_protected takes no step: a total time passed after the
    # schedule is not read as one
    sch = build_xy16s(1e-3, cycles=3)
    with pytest.raises(TypeError):
        run_protected(prepare_ghz(), rates, sch, 0.048)


@pytest.mark.parametrize("prepare", [prepare_ghz, prepare_w, prepare_wwbar])
def test_both_arms_see_the_same_tracks(prepare):
    # XY-16(s) timing with 2 pi pulses: each pulse is -I, so the two
    # arms differ only by rounding if they share the grid and the tracks
    nm = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0),
                    bath_mode="correlated", ou_sigma=13.7117919922,
                    ou_tau_c=0.01, trajectories=16, seed=2026)
    schedule = replace(build_xy16s(TAU, cycles=10), flip_error=1.0)
    assert np.allclose(expand_schedule(schedule, 2)[1], -np.eye(8))
    rho0 = prepare()
    prot, free = run_protected(rho0, nm, schedule)
    assert np.array_equal(prot.times, free.times)
    assert np.max(np.abs(prot.states - free.states)) < 1e-12
    assert tripartite_negativity(free.states[-1]) < 0.9
    # the free arm is a pulse-free pass on the engine's grid of tau/50
    steps = 800
    ref = propagate_arms(rho0, nm, 10 * steps, TAU / 50, [{}],
                         range(0, 10 * steps + 1, steps))[0]
    assert np.array_equal(free.times, ref.times)
    assert np.array_equal(free.states, ref.states)


def test_run_protected_draws_each_track_once(monkeypatch):
    # both arms reduce one draw of each trajectory's OU track
    calls = []
    real = triq.noise._ou_track

    def counting(noise, j, dt, n, seen):
        calls.append(j)
        return real(noise, j, dt, n, seen)

    monkeypatch.setattr(triq.noise, "_ou_track", counting)
    nm = NoiseModel.from_times(bath_mode="correlated",
                               ou_sigma=13.7117919922, ou_tau_c=0.01,
                               trajectories=40, seed=2026)
    run_protected(prepare_ghz(), nm, build_xy16s(TAU, cycles=2))
    assert sorted(calls) == list(range(nm.trajectories))


def test_run_protected_merges_half_flips_at_ideal_pulses(monkeypatch):
    # XY-16(s) at tau = 0.25 ms on 5 us steps, 2 cycles, one chunk: the
    # protected arm has 2 x 17 segments and the free arm 2 x 16 (capped
    # at 250 us, 50 steps). Every half flip merges into the next segment's
    # except at the two samples, so each arm takes segments + 2 flip
    # calls: 36 + 34, where the plain split takes 2 per segment, 132
    calls = []
    real = triq.noise._flips

    def counting(states, kappa_x, t, *flats):
        calls.append(t)
        return real(states, kappa_x, t, *flats)

    monkeypatch.setattr(triq.noise, "_flips", counting)
    nm = NoiseModel.from_times(bath_mode="correlated",
                               ou_sigma=13.7117919922, ou_tau_c=0.01,
                               trajectories=4, seed=2026)
    run_protected(prepare_ghz(), nm, build_xy16s(TAU, cycles=2))
    assert len(calls) == 70
