import math
from dataclasses import replace

import numpy as np
import pytest

from triq import (
    DDSchedule,
    NoiseModel,
    Pulse,
    build_cpmg,
    build_kddxy,
    build_xy16s,
    cycle_duration,
    evolve,
    expand_schedule,
    min_interpulse_delay,
    prepare_ghz,
    prepare_w,
    prepare_wwbar,
    propagate,
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
    p = Pulse()
    assert p.angle == math.pi and p.phase == 0.0 and p.flip_error == 0.0
    with pytest.raises(ValueError, match="angle"):
        Pulse(angle=0.0)
    with pytest.raises(ValueError, match="angle"):
        Pulse(angle=2.1 * math.pi)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["phase", "flip_error"])
def test_pulse_rejects_non_finite_fields(field, value):
    # a NaN flip error used to run a whole propagation and fail as a
    # numerical error; an infinite one failed with "math domain error"
    with pytest.raises(ValueError, match=field + " must be finite"):
        Pulse(**{field: value})


def test_schedule_validation():
    ev = ((1e-3, Pulse()),)
    with pytest.raises(ValueError, match="cycles"):
        DDSchedule(events=ev, cycles=0)
    with pytest.raises(ValueError, match="at least one event"):
        DDSchedule(events=())
    with pytest.raises(ValueError, match="positive"):
        DDSchedule(events=((0.0, Pulse()),))


def test_xy16s_structure():
    sch = build_xy16s(TAU)
    assert len(sch.pulses) == 16
    assert cycle_duration(sch) == pytest.approx(16 * TAU, rel=1e-15)
    delays = [d for d, _ in sch.events]
    assert delays[0] == delays[-1] == TAU / 2.0
    assert all(d == TAU for d in delays[1:-1])
    assert sch.events[-1][1] is None
    x, y = 0.0, math.pi / 2.0
    phases = [p.phase for p in sch.pulses]
    assert phases[:8] == [x, y, x, y, y, x, y, x]
    # second half swaps the axes of the first
    assert phases[8:] == [y, x, y, x, x, y, x, y]
    assert min_interpulse_delay(sch) == pytest.approx(TAU, rel=1e-15)


def test_kddxy_structure():
    sch = build_kddxy(TAU)
    assert len(sch.pulses) == 20
    assert cycle_duration(sch) == pytest.approx(20 * TAU, rel=1e-15)
    phases = [p.phase for p in sch.pulses]
    block = [math.pi / 6.0, 0.0, math.pi / 2.0, 0.0, math.pi / 6.0]
    shifted = [p + math.pi / 2.0 for p in block]
    assert phases == block + shifted + block + shifted
    assert min_interpulse_delay(sch) == pytest.approx(TAU, rel=1e-15)


def test_cpmg_structure():
    sch = build_cpmg(TAU)
    assert len(sch.pulses) == 16
    assert all(p.phase == math.pi / 2.0 for p in sch.pulses)
    assert [d for d, _ in sch.events] == [d for d, _ in build_xy16s(TAU).events]


def test_builders_reject_bad_tau():
    for build in (build_xy16s, build_kddxy, build_cpmg):
        with pytest.raises(ValueError, match="tau"):
            build(0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("build, field", [
    (lambda delay: DDSchedule(events=((delay, Pulse()),)), "delays"),
    (build_xy16s, "tau"),
    (build_kddxy, "tau_k"),
    (build_cpmg, "tau"),
], ids=["DDSchedule", "build_xy16s", "build_kddxy", "build_cpmg"])
def test_delays_must_be_finite_and_positive(build, field, value):
    # NaN passes `delay <= 0`, and run_protected would then fail on the
    # cycle's span with a message that names no delay
    with pytest.raises(ValueError, match=field + " must be finite and positive"):
        build(value)


def test_pulse_unitary_collective_x():
    u = pulse_unitary(Pulse(phase=0.0))
    xxx = np.kron(np.kron(SX, SX), SX)
    # each pi_x factor is -i X, so the collective pulse is +i XXX
    assert np.allclose(u, 1j * xxx, atol=1e-14)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-14)


def test_pulse_unitary_flip_error():
    over = pulse_unitary(Pulse(flip_error=0.01))
    assert not np.allclose(over, pulse_unitary(Pulse()), atol=1e-4)
    assert np.allclose(over @ over.conj().T, np.eye(8), atol=1e-13)


def test_expand_schedule_absolute_times():
    sch = build_xy16s(TAU, cycles=2)
    events = expand_schedule(sch)
    assert len(events) == 32
    assert events[0][0] == pytest.approx(TAU / 2.0, rel=1e-15)
    assert events[16][0] == pytest.approx(16 * TAU + TAU / 2.0, rel=1e-15)
    assert events[-1][0] == pytest.approx(32 * TAU - TAU / 2.0, rel=1e-15)


def test_expand_schedule_builds_one_cycle_of_unitaries(monkeypatch):
    calls = []
    real = ddseq.pulse_unitary

    def counting(pulse):
        calls.append(pulse)
        return real(pulse)

    monkeypatch.setattr(ddseq, "pulse_unitary", counting)
    events = expand_schedule(build_xy16s(TAU, cycles=10))
    assert len(events) == 160
    assert len(calls) == 16
    # every cycle applies the same unitaries in the same order
    for c in range(1, 10):
        assert all(a is b for (_, a), (_, b) in zip(events[:16], events[16 * c:16 * (c + 1)]))


def test_min_interpulse_delay_wraps_across_cycles():
    sch = DDSchedule(events=((0.1, Pulse()), (1.0, Pulse()), (0.05, None)))
    # gaps: 1.0 inside the cycle, 0.15 wrapping into the next cycle
    assert min_interpulse_delay(sch) == pytest.approx(0.15, rel=1e-12)
    bare = DDSchedule(events=((0.4, None),))
    assert min_interpulse_delay(bare) == pytest.approx(0.4)


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


def test_cycles_compose_to_identity_without_noise():
    # ideal pulses, no decoherence: the state returns exactly at every
    # cycle boundary for all three bundled sequences
    rho = prepare_ghz()
    for build in (build_xy16s, build_kddxy, build_cpmg):
        sch = build(TAU, cycles=3)
        curve, _ = run_protected(rho, QUIET, sch, dt=TAU / 2.0)
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
        curve, _ = run_protected(rho, QUIET, sch, dt=TAU / 2.0)
        mins[name] = float(np.min(curve.fidelity))
        argmins[name] = int(np.argmin(curve.fidelity))
    assert mins["kddxy"] >= mins["xy16s"] >= mins["cpmg"]
    assert mins["kddxy"] > 0.9999999
    assert mins["xy16s"] == pytest.approx(0.999942347, abs=1e-6)
    # the single-axis control walks GHZ through a collective rotation
    # that bottoms out near half a turn, six cycles in
    assert mins["cpmg"] < 0.01
    assert argmins["cpmg"] == 6


def test_markovian_noise_is_transparent_to_decoupling(spins):
    # the damping dissipators are invariant under pi-pulse conjugation,
    # so decoupling neither helps nor hurts a memoryless bath
    nm = NoiseModel.from_spins(spins)
    sch = build_xy16s(TAU, cycles=25)
    total = 25 * cycle_duration(sch)
    prot, _ = run_protected(prepare_ghz(), nm, sch)
    free = evolve(prepare_ghz(), nm, total, dt=2.5e-5, sample_every=10**9)
    assert prot.times[-1] == pytest.approx(free.times[-1], rel=1e-12)
    assert prot.n3_tri[-1] == pytest.approx(free.n3_tri[-1], rel=1e-6)
    assert prot.fidelity[-1] == pytest.approx(free.fidelity[-1], rel=1e-6)


def test_run_protected_sampling_grid(spins):
    sch = build_xy16s(1e-3, cycles=3)
    curve, _ = run_protected(prepare_ghz(), NoiseModel.from_spins(spins),
                             sch, dt=5e-4)
    assert np.allclose(curve.times, [0.0, 0.016, 0.032, 0.048], atol=1e-12)


@pytest.mark.parametrize("cycles", [1, 4])
def test_run_protected_runs_the_schedule_cycles(spins, cycles):
    nm = NoiseModel.from_spins(spins)
    prot, free = run_protected(prepare_ghz(), nm,
                               build_kddxy(TAU, cycles=cycles))
    assert len(prot.times) == len(free.times) == cycles + 1
    assert prot.times[-1] == pytest.approx(cycles * 20 * TAU, rel=1e-12)


def test_run_protected_step_is_keyword_only(spins):
    # a total time passed where it used to go is not read as a step
    sch = build_xy16s(1e-3, cycles=3)
    with pytest.raises(TypeError):
        run_protected(prepare_ghz(), NoiseModel.from_spins(spins), sch, 0.048)


@pytest.mark.parametrize("prepare", [prepare_ghz, prepare_w, prepare_wwbar])
def test_both_arms_see_the_same_tracks(prepare):
    # XY-16(s) timing with 2 pi pulses: each pulse is -I, so the two
    # arms differ only by rounding if they share the grid and the tracks
    nm = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0),
                    bath_mode="correlated", ou_sigma=13.7117919922,
                    ou_tau_c=0.01, trajectories=16, seed=2026)
    xy16 = build_xy16s(TAU, cycles=10)
    events = tuple((d, p and replace(p, angle=2.0 * math.pi))
                   for d, p in xy16.events)
    schedule = replace(xy16, events=events)
    assert np.allclose(pulse_unitary(schedule.pulses[0]), -np.eye(8))
    rho0 = prepare()
    prot, free = run_protected(rho0, nm, schedule)
    assert np.array_equal(prot.times, free.times)
    assert np.max(np.abs(prot.states - free.states)) < 1e-12
    assert tripartite_negativity(free.states[-1]) < 0.9
    # the free arm is propagate without pulses, at the default 5 us grid
    steps = 800
    ref = propagate(rho0, nm, 10 * steps, cycle_duration(schedule) / steps,
                    sample_steps=range(0, 10 * steps + 1, steps))
    assert np.array_equal(free.times, ref.times)
    assert np.array_equal(free.states, ref.states)


def test_run_protected_draws_each_track_once(spins, monkeypatch):
    # both arms reduce one draw of each trajectory's OU track
    calls = []
    real = triq.noise._ou_track

    def counting(noise, j, dt, n):
        calls.append(j)
        return real(noise, j, dt, n)

    monkeypatch.setattr(triq.noise, "_ou_track", counting)
    nm = NoiseModel.from_spins(spins, bath_mode="correlated",
                               ou_sigma=13.7117919922, ou_tau_c=0.01,
                               trajectories=40, seed=2026)
    run_protected(prepare_ghz(), nm, build_xy16s(TAU, cycles=2))
    assert sorted(calls) == list(range(nm.trajectories))


def test_run_protected_merges_half_flips_at_ideal_pulses(spins, monkeypatch):
    # XY-16(s) at tau = 0.25 ms on 5 us steps, 2 cycles, one chunk: the
    # protected arm has 2 x 17 segments and the free arm 2 x 16 (capped
    # at 50 steps). Every half flip merges into the next segment's
    # except at the two samples, so each arm takes segments + 2 flip
    # calls: 36 + 34, where the plain split takes 2 per segment, 132
    calls = []
    real = triq.noise._flips

    def counting(states, kappa_x, t):
        calls.append(t)
        return real(states, kappa_x, t)

    monkeypatch.setattr(triq.noise, "_flips", counting)
    nm = NoiseModel.from_spins(spins, bath_mode="correlated",
                               ou_sigma=13.7117919922, ou_tau_c=0.01,
                               trajectories=4, seed=2026)
    run_protected(prepare_ghz(), nm, build_xy16s(TAU, cycles=2))
    assert len(calls) == 70
