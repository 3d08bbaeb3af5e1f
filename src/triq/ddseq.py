"""Dynamical-decoupling schedules and their execution.

A schedule is one cycle of (delay, phase) events, the number of cycles
to run and one flip error. A pulse is an instantaneous rotation of all
three qubits by pi (1 + flip_error) about the axis at its phase; a
trailing phase may be None so the cycle can end on a half delay. Both
bundled sequences compose to the identity on a closed system:

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
and the free arm, propagated on one shared time grid. expand_schedule
is the one place a pulse time becomes a step of that grid.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import noise, states

__all__ = [
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


def _check_delay(name, value):
    if not 0.0 < value < math.inf:  # false for NaN too
        raise ValueError("%s must be finite and positive, got %g" % (name, value))


@dataclass(frozen=True)
class DDSchedule:
    """One cycle of (delay_s, phase_rad or None) events, repeated
    ``cycles`` times. A phase is a collective pi pulse after its delay
    (0.0 is x), None no pulse; every pulse over-rotates by flip_error."""

    events: tuple
    cycles: int = 1
    flip_error: float = 0.0

    def __post_init__(self):
        # a float count would fail in range() only once the schedule runs
        if not isinstance(self.cycles, (int, np.integer)) or self.cycles < 1:
            raise ValueError("cycles must be an integer >= 1, got %r"
                             % (self.cycles,))
        if not self.events:
            raise ValueError("schedule needs at least one event")
        for delay, _ in self.events:
            _check_delay("delays", delay)
        for name, value in ([("phase", p) for p in self.pulses]
                            + [("flip_error", self.flip_error)]):
            if not math.isfinite(value):
                raise ValueError("%s must be finite, got %g" % (name, value))

    @property
    def pulses(self):
        """The phases of one cycle's pulses, in order."""
        return [phase for _, phase in self.events if phase is not None]


def _edge_delayed(phases, tau, cycles, flip_error):
    events = ((tau / 2.0, phases[0]),) + tuple((tau, ph) for ph in phases[1:])
    return DDSchedule(events=events + ((tau / 2.0, None),), cycles=cycles,
                      flip_error=flip_error)


_XY4 = (0.0, math.pi / 2.0, 0.0, math.pi / 2.0)


def _swap_xy(phases):
    return tuple(math.pi / 2.0 - p for p in phases)


def build_xy16s(tau, cycles=1, flip_error=0.0):
    """Symmetric XY-16 cycle: sixteen pi pulses over a 16 tau cycle."""
    _check_delay("tau", tau)
    xy8s = _XY4 + tuple(reversed(_XY4))
    phases = xy8s + _swap_xy(xy8s)
    return _edge_delayed(phases, tau, cycles, flip_error)


def build_kddxy(tau_k, cycles=1, flip_error=0.0):
    """KDD_xy cycle: twenty pi pulses over a 20 tau_k cycle."""
    _check_delay("tau_k", tau_k)

    def kdd(phi):
        return (math.pi / 6.0 + phi, phi, math.pi / 2.0 + phi, phi,
                math.pi / 6.0 + phi)

    phases = (kdd(0.0) + kdd(math.pi / 2.0)) * 2
    return _edge_delayed(phases, tau_k, cycles, flip_error)


def build_cpmg(tau, cycles=1, flip_error=0.0):
    """Single-axis control: sixteen y pulses with the XY-16 timing."""
    _check_delay("tau", tau)
    phases = (math.pi / 2.0,) * 16
    return _edge_delayed(phases, tau, cycles, flip_error)


def cycle_duration(schedule):
    """Duration of one cycle in seconds (pulses take zero time)."""
    return float(sum(delay for delay, _ in schedule.events))


def _pulse_offsets(schedule):
    """(offset_s, phase) of each pulse of one cycle, in order."""
    ends = itertools.accumulate(delay for delay, _ in schedule.events)
    return [(t, phase) for t, (_, phase) in zip(ends, schedule.events)
            if phase is not None]


def min_interpulse_delay(schedule):
    """Smallest gap between consecutive pulses, wrapping across cycles."""
    offsets = [t for t, _ in _pulse_offsets(schedule)]
    cyc = cycle_duration(schedule)
    if not offsets:
        return cyc
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    gaps.append(cyc - offsets[-1] + offsets[0])
    return min(gaps)


def pulse_unitary(phase, flip_error=0.0):
    """8x8 unitary of one collective pi pulse about the axis at
    ``phase``, turning each qubit by pi (1 + flip_error)."""
    u = np.eye(8, dtype=complex)
    for q in (1, 2, 3):
        u = states.rotation(q, math.pi * (1.0 + flip_error), phase) @ u
    return u


def _whole_steps(t, dt, what):
    """t seconds as a whole number of steps of dt, else ValueError."""
    k = noise.fit_grid(t, dt)[0]
    if not math.isclose(k * dt, t, rel_tol=1e-9):
        raise ValueError("%s t = %.12g s is off the time grid of dt = %.12g s"
                         % (what, t, dt))
    return k


def expand_schedule(schedule, dt):
    """(step, unitary) pairs of every pulse of every cycle, on a grid of
    dt seconds.

    The cycle and each pulse's offset in it must be a whole number of
    steps, fit_grid's count to a relative 1e-9 (else ValueError). Cycle
    c's pulses land c cycles of steps later, so no rounding builds up.
    One cycle's unitaries are built once and shared by every cycle.
    """
    per_cycle = _whole_steps(cycle_duration(schedule), dt, "cycle ending at")
    cycle = [(_whole_steps(t, dt, "pulse at"),
              pulse_unitary(phase, schedule.flip_error))
             for t, phase in _pulse_offsets(schedule)]
    return [(c * per_cycle + k, u)
            for c in range(schedule.cycles) for k, u in cycle]


def schedule_table(schedule):
    """Text table of one cycle: event index, time offset, phase, angle.

    One row per pulse; trailing pulse-free delays contribute only to
    the offsets. The angle column is the nominal pi of every pulse, not
    pi (1 + flip_error). Stable format for golden-file comparisons.
    """
    lines = ["event,time_offset_s,phase_rad,angle_rad"]
    lines += ["%d,%.12g,%.12g,%.12g" % (k, t, phase, math.pi)
              for k, (t, phase) in enumerate(_pulse_offsets(schedule))]
    return "\n".join(lines) + "\n"


def run_protected(rho0, noise_model, schedule):
    """Run ``schedule.cycles`` DD cycles next to a pulse-free run.

    Free evolution follows the noise model's bath mode; pulses are
    applied as instantaneous collective unitaries at the schedule's
    flip error. The grid step is noise.grid_step of the model at the
    schedule's shortest pulse spacing, shrunk so that a whole number of
    steps fills one cycle (noise.fit_grid); every pulse must then fall
    on a step (expand_schedule). Both arms run on that one grid,
    through one noise.propagate_arms pass, and are sampled at the start
    and after each cycle, cycles + 1 samples. In the correlated mode
    they see the same OU tracks, each drawn once for both arms, and
    each arm equals a one-train pass of its pulses.

    Returns
    -------
    (measures.DecayCurve, measures.DecayCurve)
        The protected arm and the free arm.
    """
    dt = noise.grid_step(noise_model, min_interpulse_delay(schedule))
    steps_per_cycle, dt = noise.fit_grid(cycle_duration(schedule), dt)
    n = schedule.cycles * steps_per_cycle
    noise.check_grid(n, dt)  # before the pulse list, which grows with n
    samples = range(0, n + 1, steps_per_cycle)
    return tuple(noise.propagate_arms(
        rho0, noise_model, n, dt, [expand_schedule(schedule, dt), ()], samples))
