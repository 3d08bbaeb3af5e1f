"""Dynamical-decoupling schedules and their execution.

A schedule is one cycle of (delay, pulse) events plus the number of
cycles to run. Pulses are instantaneous pi rotations applied
simultaneously on all three qubits; a trailing event may carry no pulse
so the cycle can end on a half delay. Both bundled sequences compose to
the identity on a closed system:

XY-16(s): base block x y x y, its time-reversed extension, then the
axis-swapped copy of those eight; delays are tau/2 at the cycle edges
and tau between pulses, so reversing the delay list reproduces it and
reversing the phase list equals swapping x and y.

KDD_xy: the five-pulse composite block at phases (pi/6 + phi, phi,
pi/2 + phi, phi, pi/6 + phi), alternated between phi = 0 and
phi = pi/2 and repeated twice, twenty pulses at uniform spacing.

A single-axis CPMG-style control with the XY-16 timing is included as
the robustness baseline: it cancels nothing when every pulse carries
the same systematic flip error.

A schedule states its own cycle count, and run_protected, the one way
to run it, runs exactly that many cycles: it returns the protected arm
and the free arm, propagated on one shared time grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import noise, states

__all__ = [
    "Pulse",
    "DDSchedule",
    "build_xy16s",
    "build_kddxy",
    "build_cpmg",
    "cycle_duration",
    "min_interpulse_delay",
    "pulse_unitary",
    "expand_schedule",
    "schedule_table",
    "run_protected",
]


@dataclass(frozen=True)
class Pulse:
    """One instantaneous rotation of all three qubits.

    flip_error is the fractional over-rotation: the applied angle is
    angle * (1 + flip_error).
    """

    angle: float = math.pi
    phase: float = 0.0
    flip_error: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.angle <= 2.0 * math.pi:
            raise ValueError("angle must lie in (0, 2 pi], got %g" % self.angle)
        for name, value in (("phase", self.phase),
                            ("flip_error", self.flip_error)):
            if not math.isfinite(value):
                raise ValueError("%s must be finite, got %g" % (name, value))


def _check_delay(name, value):
    if not 0.0 < value < math.inf:  # false for NaN too
        raise ValueError("%s must be finite and positive, got %g" % (name, value))


@dataclass(frozen=True)
class DDSchedule:
    """One cycle of (delay_s, Pulse-or-None) events, repeated ``cycles`` times."""

    events: tuple
    cycles: int = 1

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        if not self.events:
            raise ValueError("schedule needs at least one event")
        for delay, _ in self.events:
            _check_delay("delays", delay)

    @property
    def pulses(self):
        return [p for _, p in self.events if p is not None]


def _edge_delayed(phases, tau, flip_error):
    events = [(tau / 2.0, Pulse(phase=phases[0], flip_error=flip_error))]
    for ph in phases[1:]:
        events.append((tau, Pulse(phase=ph, flip_error=flip_error)))
    events.append((tau / 2.0, None))
    return tuple(events)


_XY4 = (0.0, math.pi / 2.0, 0.0, math.pi / 2.0)


def _swap_xy(phases):
    return tuple(math.pi / 2.0 - p for p in phases)


def build_xy16s(tau, cycles=1, flip_error=0.0):
    """Symmetric XY-16 cycle: sixteen pi pulses over a 16 tau cycle."""
    _check_delay("tau", tau)
    xy8s = _XY4 + tuple(reversed(_XY4))
    phases = xy8s + _swap_xy(xy8s)
    return DDSchedule(events=_edge_delayed(phases, tau, flip_error), cycles=cycles)


def build_kddxy(tau_k, cycles=1, flip_error=0.0):
    """KDD_xy cycle: twenty pi pulses over a 20 tau_k cycle."""
    _check_delay("tau_k", tau_k)

    def kdd(phi):
        return (math.pi / 6.0 + phi, phi, math.pi / 2.0 + phi, phi,
                math.pi / 6.0 + phi)

    phases = (kdd(0.0) + kdd(math.pi / 2.0)) * 2
    return DDSchedule(events=_edge_delayed(phases, tau_k, flip_error),
                      cycles=cycles)


def build_cpmg(tau, cycles=1, flip_error=0.0):
    """Single-axis control: sixteen y pulses with the XY-16 timing."""
    _check_delay("tau", tau)
    phases = (math.pi / 2.0,) * 16
    return DDSchedule(events=_edge_delayed(phases, tau, flip_error), cycles=cycles)


def cycle_duration(schedule):
    """Duration of one cycle in seconds (pulses take zero time)."""
    return float(sum(delay for delay, _ in schedule.events))


def min_interpulse_delay(schedule):
    """Smallest gap between consecutive pulses, wrapping across cycles."""
    offsets = []
    t = 0.0
    for delay, pulse in schedule.events:
        t += delay
        if pulse is not None:
            offsets.append(t)
    if not offsets:
        return cycle_duration(schedule)
    cyc = cycle_duration(schedule)
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    gaps.append(cyc - offsets[-1] + offsets[0])
    return min(gaps)


def pulse_unitary(pulse):
    """8x8 unitary of one collective pulse, flip error included."""
    angle = pulse.angle * (1.0 + pulse.flip_error)
    u = np.eye(8, dtype=complex)
    for q in (1, 2, 3):
        u = states.rotation(q, angle, pulse.phase) @ u
    return u


def expand_schedule(schedule):
    """Absolute (time_s, unitary) pairs across all cycles.

    One cycle's unitaries are built once and shared by every cycle.
    """
    cyc = cycle_duration(schedule)
    cycle = [(delay, None if pulse is None else pulse_unitary(pulse))
             for delay, pulse in schedule.events]
    out = []
    for c in range(schedule.cycles):
        t = c * cyc
        for delay, u in cycle:
            t += delay
            if u is not None:
                out.append((t, u))
    return out


def schedule_table(schedule):
    """Text table of one cycle: event index, time offset, phase, angle.

    One row per pulse; trailing pulse-free delays contribute only to
    the offsets. Stable format for golden-file comparisons.
    """
    lines = ["event,time_offset_s,phase_rad,angle_rad"]
    t = 0.0
    k = 0
    for delay, pulse in schedule.events:
        t += delay
        if pulse is None:
            continue
        lines.append("%d,%.12g,%.12g,%.12g" % (k, t, pulse.phase, pulse.angle))
        k += 1
    return "\n".join(lines) + "\n"


def run_protected(rho0, noise_model, schedule, *, dt=None):
    """Run ``schedule.cycles`` DD cycles next to a pulse-free run.

    Free evolution follows the noise model's bath mode; pulses are
    applied as instantaneous collective unitaries with their flip
    errors. dt is the longest step, by default noise.grid_step of the
    model at the schedule's shortest pulse spacing, shrunk so that a
    whole number of steps fills one cycle (noise.fit_grid); every pulse
    must then fall on a step. Both arms run on that one grid, through
    one noise.propagate_arms pass, and are sampled at the start and
    after each cycle, cycles + 1 samples. In the correlated mode they
    see the same OU tracks, each drawn once for both arms, and each arm
    equals a lone noise.propagate of its pulses.

    Returns
    -------
    (measures.DecayCurve, measures.DecayCurve)
        The protected arm and the free arm.
    """
    if dt is None:
        dt = noise.grid_step(noise_model, min_interpulse_delay(schedule))
    steps_per_cycle, dt = noise.fit_grid(cycle_duration(schedule), dt)
    n = schedule.cycles * steps_per_cycle
    samples = range(0, n + 1, steps_per_cycle)
    return tuple(noise.propagate_arms(
        rho0, noise_model, n, dt, [expand_schedule(schedule), ()], samples))
