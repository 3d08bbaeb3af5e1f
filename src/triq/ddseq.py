"""Dynamical-decoupling schedules and their execution.

A schedule is the phases of one cycle's pulses, their spacing tau, the
number of cycles to run and one flip error. Pulse k of a cycle sits at
(k + 1/2) tau, so a cycle of N pulses spans N tau with tau/2 at each
edge. A pulse is an instantaneous rotation of all three qubits by
pi (1 + flip_error) about the axis at its phase. Both bundled sequences
compose to the identity on a closed system:

XY-16(s): base block x y x y, its time-reversed extension, then the
axis-swapped copy of those eight; with the uniform spacing, reversing
the phase list equals swapping x and y.

KDD_xy: the five-pulse composite block at phases (pi/6 + phi, phi,
pi/2 + phi, phi, pi/6 + phi), alternated between phi = 0 and
phi = pi/2 and repeated twice, twenty pulses.

A single-axis CPMG-style control with the XY-16 timing is included as
the robustness baseline: it cancels nothing when every pulse carries
the same systematic flip error.

A schedule states its own cycle count, and run_protected, the one way
to run it, runs exactly that many cycles: it returns the protected arm
and the free arm, propagated on one shared time grid of a whole, even
number M of steps per tau, each tau / M long: 50 times the steps the
bath allows in tau/50 (noise.steps_per). expand_schedule places each
pulse on a step of that grid by integer arithmetic.
"""

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
    """One cycle of pulses spaced tau seconds apart, repeated ``cycles``
    times. ``pulses`` holds each pulse's phase in order (0.0 is x);
    pulse k sits at (k + 1/2) tau into its cycle, and every pulse
    over-rotates by flip_error. tau and the cycle's span N tau must be
    finite and positive (else ValueError)."""

    pulses: tuple
    tau: float
    cycles: int = 1
    flip_error: float = 0.0

    def __post_init__(self):
        # a float count would fail in range() only once the schedule runs
        if not isinstance(self.cycles, (int, np.integer)) or self.cycles < 1:
            raise ValueError("cycles must be an integer >= 1, got %r"
                             % (self.cycles,))
        if not self.pulses:
            raise ValueError("schedule needs at least one pulse")
        _check_delay("tau", self.tau)
        _check_delay("the cycle span N tau", len(self.pulses) * self.tau)
        for name, value in ([("phase", p) for p in self.pulses]
                            + [("flip_error", self.flip_error)]):
            if not math.isfinite(value):
                raise ValueError("%s must be finite, got %g" % (name, value))


_XY4 = (0.0, math.pi / 2.0, 0.0, math.pi / 2.0)


def _swap_xy(phases):
    return tuple(math.pi / 2.0 - p for p in phases)


def build_xy16s(tau, cycles=1, flip_error=0.0):
    """Symmetric XY-16 cycle: sixteen pi pulses over a 16 tau cycle."""
    xy8s = _XY4 + tuple(reversed(_XY4))
    return DDSchedule(xy8s + _swap_xy(xy8s), tau, cycles, flip_error)


def build_kddxy(tau_k, cycles=1, flip_error=0.0):
    """KDD_xy cycle: twenty pi pulses over a 20 tau_k cycle."""
    _check_delay("tau_k", tau_k)

    def kdd(phi):
        return (math.pi / 6.0 + phi, phi, math.pi / 2.0 + phi, phi,
                math.pi / 6.0 + phi)

    return DDSchedule((kdd(0.0) + kdd(math.pi / 2.0)) * 2, tau_k, cycles,
                      flip_error)


def build_cpmg(tau, cycles=1, flip_error=0.0):
    """Single-axis control: sixteen y pulses with the XY-16 timing."""
    return DDSchedule((math.pi / 2.0,) * 16, tau, cycles, flip_error)


def cycle_duration(schedule):
    """Duration of one cycle in seconds, N tau for N pulses (pulses take
    zero time)."""
    return len(schedule.pulses) * schedule.tau


def pulse_unitary(phase, flip_error=0.0):
    """8x8 unitary of one collective pi pulse about the axis at
    ``phase``, turning each qubit by pi (1 + flip_error)."""
    u = np.eye(8, dtype=complex)
    for q in (1, 2, 3):
        u = states.rotation(q, math.pi * (1.0 + flip_error), phase) @ u
    return u


def expand_schedule(schedule, steps_per_tau):
    """The pulse train of every cycle, {step: unitary}, on a grid of
    ``steps_per_tau`` steps per pulse spacing.

    steps_per_tau must be a positive even integer (else ValueError), so
    that pulse k of cycle c lands exactly on step c N M + (2k + 1) M / 2,
    for N pulses per cycle and M = steps_per_tau; one pulse per step, so
    the train's length is the pulse count. One cycle's unitaries are
    built once and shared by every cycle.
    """
    m = steps_per_tau
    if not isinstance(m, (int, np.integer)) or m < 1 or m % 2:
        raise ValueError("steps_per_tau must be a positive even integer, "
                         "got %r" % (m,))
    per_cycle = len(schedule.pulses) * m
    cycle = [((2 * k + 1) * m // 2, pulse_unitary(phase, schedule.flip_error))
             for k, phase in enumerate(schedule.pulses)]
    return {c * per_cycle + k: u
            for c in range(schedule.cycles) for k, u in cycle}


def schedule_table(schedule):
    """Text table of one cycle: event index, time offset, phase, angle.

    One row per pulse, at its offset (2k + 1) tau / 2. The angle column
    is the nominal pi of every pulse, not pi (1 + flip_error). Stable
    format for golden-file comparisons.
    """
    lines = ["event,time_offset_s,phase_rad,angle_rad"]
    lines += ["%d,%.12g,%.12g,%.12g"
              % (k, (2 * k + 1) * schedule.tau / 2.0, phase, math.pi)
              for k, phase in enumerate(schedule.pulses)]
    return "\n".join(lines) + "\n"


def run_protected(rho0, noise_model, schedule):
    """Run ``schedule.cycles`` DD cycles next to a pulse-free run.

    Free evolution follows the noise model's bath mode; pulses are
    applied as instantaneous collective unitaries at the schedule's
    flip error. The grid has M = 50 times noise.steps_per(noise_model,
    tau/50) steps per tau: 50 for a Markovian model, more where a
    correlated bath needs steps of tau_c/20. M is even, so every pulse falls on a
    step (expand_schedule), and the step is tau / M.
    Both arms, the pulse train and {}, run on that one grid through one
    noise.propagate_arms pass, and are sampled at the start and after
    each cycle, cycles + 1 samples. In the correlated mode
    they see the same OU tracks, each drawn once for both arms, and
    each arm equals a one-train pass of its pulses.

    Returns
    -------
    (measures.DecayCurve, measures.DecayCurve)
        The protected arm and the free arm.
    """
    steps_per_tau = 50 * noise.steps_per(noise_model, schedule.tau / 50.0)
    dt = schedule.tau / steps_per_tau
    steps_per_cycle = len(schedule.pulses) * steps_per_tau
    n = schedule.cycles * steps_per_cycle
    noise.check_grid(n, dt)  # before the pulse train, which grows with n
    samples = range(0, n + 1, steps_per_cycle)
    return tuple(noise.propagate_arms(
        rho0, noise_model, n, dt, [expand_schedule(schedule, steps_per_tau), {}],
        samples))
