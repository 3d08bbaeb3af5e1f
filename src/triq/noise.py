"""Evolution of the three-qubit register under damping and dephasing.

Markovian mode is the Lindblad master equation with per-qubit sigma_x
damping (rate kappa_x = 1/T1) and sigma_z dephasing (kappa_z = 1/T2).
Correlated mode replaces the dephasing dissipator with per-qubit
classical Ornstein-Uhlenbeck frequency tracks b_i(t) applied through
sigma_z/2, averaged over an ensemble of trajectories; amplitude damping
stays Lindbladian. A NoiseModel alone sets the rates and the default
time grid (grid_step); NoiseModel.from_times is the one way per-qubit
T1/T2, by default the bundled T1_S and T2_S, become those rates.

No system Hamiltonian acts: as in the paper's fits, the register
evolves under the damping and the bath alone. Every run goes through
one propagator, ``propagate_arms``, that runs each of several pulse
trains under the bath the NoiseModel names; ``propagate`` is its
one-train case and ``evolve`` its one pulse-free front end. Both
dissipators are Pauli channels, which commute and are applied in
closed form. A Markovian run is therefore evaluated stretch by
stretch: between pulse steps every sample is the closed form of the
stretch's starting state, exact at any step length. The OU phase does
not commute with the bit flips, so a correlated run is stepped from
event to event (a pulse or a sample): a segment is Strang-split around
the phase, the phase summed over the segment's steps of the OU grid,
and segments are capped at _MAX_SEGMENT_STEPS grid steps;
``propagate_arms`` states how the arms share each OU track and where
adjacent half flips merge, and ``_sweep`` how a batch of trajectories
is swept on raveled states. The OU recurrence is linear in sigma for
fixed draws, so a track at sigma is sigma times the track at 1:
``ou_unit_phases`` draws the unit-sigma tracks once, and a caller that
varies sigma alone (calibration) rescales their phases instead of
propagating again. The tests pin the propagator against a generator
built from explicit Lindblad operator matrices.
"""
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import PhysicalityError, check_density
from . import measures

__all__ = [
    "T1_S",
    "T2_S",
    "MAX_STEPS",
    "NoiseModel",
    "evolve",
    "fit_grid",
    "grid_step",
    "propagate",
    "propagate_arms",
    "ou_unit_phases",
]

# trajectories per partial sum of a sampled mean: fixed, so that the
# sums, and every output, do not depend on the batch width
_CHUNK = 32
_BATCH = 64  # trajectories swept at once; a multiple of _CHUNK
# samples of a Markovian stretch evaluated at once; one stack of a
# whole 2,001-sample stretch raised peak memory by 14%
_BLOCK = 64

# per-qubit relaxation times of the bundled three-spin register, seconds
T1_S = (5.42, 5.65, 4.36)
T2_S = (0.53, 0.55, 0.52)


@dataclass(frozen=True)
class NoiseModel:
    """Damping rates and bath configuration.

    kappa_x / kappa_z are per-qubit rates in 1/s, 1/T1 and 1/T2 by
    from_times. bath_mode "markovian" uses both as Lindblad dissipators;
    "correlated" drops the kappa_z dissipators in favor of OU dephasing
    tracks with standard deviation ou_sigma (rad/s) and correlation time
    ou_tau_c (s), averaged over `trajectories` runs seeded from `seed`.
    """

    kappa_x: tuple
    kappa_z: tuple
    bath_mode: str = "markovian"
    ou_sigma: float = 0.0
    ou_tau_c: float = 0.0
    trajectories: int = 1
    seed: int = 0

    def __post_init__(self):
        if len(self.kappa_x) != 3 or len(self.kappa_z) != 3:
            raise ValueError("kappa_x and kappa_z must each have three entries")
        # NaN fails every comparison, so each bound is stated as what
        # must hold; an infinite ou_tau_c is the quasi-static bath
        if not all(math.isfinite(k) and k >= 0
                   for k in (*self.kappa_x, *self.kappa_z, self.ou_sigma)):
            raise ValueError("rates and ou_sigma must be finite and non-negative")
        if self.bath_mode not in ("markovian", "correlated"):
            raise ValueError("bath_mode must be markovian or correlated")
        # int() in the seeding would run a float seed as another seed
        for name, low in (("trajectories", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError("%s must be an integer >= %d, got %r"
                                 % (name, low, value))
        if self.bath_mode == "correlated" and not self.ou_tau_c > 0:
            raise ValueError("ou_tau_c must be positive in correlated mode")

    @classmethod
    def from_times(cls, t1_s=T1_S, t2_s=T2_S, **bath):
        """kappa_x = 1/T1 and kappa_z = 1/T2 from three T1 > 0 and three T2
        in (0, 2 T1], in seconds, each with a finite reciprocal (else
        ValueError); ``bath`` takes the other fields (bath_mode,
        ou_sigma, ...)."""
        if len(t1_s) != 3 or len(t2_s) != 3:
            raise ValueError("t1_s and t2_s must each have three entries")
        for t1, t2 in zip(t1_s, t2_s):
            if t1 <= 0:
                raise ValueError("T1 must be positive, got %g" % t1)
            if not 0 < t2 <= 2 * t1:
                raise ValueError("T2 must satisfy 0 < T2 <= 2 T1, got %g" % t2)
            # a subnormal time passes the checks above, but its rate overflows
            for name, t in (("T1", t1), ("T2", t2)):
                if 1.0 / t == math.inf:
                    raise ValueError("%s = %g s is too short: its rate 1/%s "
                                     "overflows" % (name, t, name))
        return cls(kappa_x=tuple(1.0 / t for t in t1_s),
                   kappa_z=tuple(1.0 / t for t in t2_s), **bath)


def _half_spin(a, i):
    # I_iz eigenvalue of basis state a: +1/2 for bit 0, -1/2 for bit 1
    return 0.5 if ((a >> (3 - i)) & 1) == 0 else -0.5


# index gathers of the bit flip of each qubit, and the same on a
# density matrix raveled to 64 elements: element (a, b) <- (a^m, b^m)
_FLIP = [np.arange(8) ^ (1 << (3 - i)) for i in (1, 2, 3)]
_FLAT = [(8 * p[:, None] + p[None, :]).ravel() for p in _FLIP]
# (m_i^a - m_i^b) per qubit, entries in {-1, 0, +1}
_ZDIFF = np.stack(
    [
        np.array(
            [[_half_spin(a, i) - _half_spin(b, i) for b in range(8)] for a in range(8)]
        )
        for i in (1, 2, 3)
    ]
)
# 1 where qubit i's bit differs between row and column: the elements
# that sigma_z dephasing of qubit i damps
_ZMASK = (_ZDIFF != 0.0).astype(float)
# the 27 distinct columns (3,) of _ZDIFF raveled to (3, 64), and the
# column of each of the 64 elements
_ZCOLS, _ZCOL_OF = np.unique(_ZDIFF.reshape(3, 64), axis=1, return_inverse=True)


# Longest grid fit_grid cuts. A run holds at least 48 B per grid step:
# a correlated run keeps one trajectory's OU track and its normal draws,
# three float64 each, and a run sampled at every step 2 KiB (its row of
# the accumulator and its state in the curve, 64 complex each). So a
# grid of 2**30 steps needs 48 GiB at the least, and a longer one is a
# config error rather than a MemoryError deep in a run. The longest
# grid that a test, demo or benchmark workload runs has 48,000 steps;
# fit_grid's property test cuts up to 1e9, which it only counts.
MAX_STEPS = 2**30


def fit_grid(span, max_dt):
    """Cut span into the fewest whole steps no longer than max_dt.

    Returns (n, span / n), or (0, max_dt) for a zero span. n is rounded
    up with a relative 1e-9 guard, since a span summed from delays may
    sit a few ulps above a whole number of steps. Every grid is cut so.
    A span or step out of range, or a step count past MAX_STEPS, raises
    ValueError.
    """
    # NaN fails the comparisons; an infinite span has no whole number
    # of steps, and an infinite step would fill no span
    if not 0.0 <= span < math.inf:
        raise ValueError("t_final must be non-negative and finite, got %g" % span)
    if not 0.0 < max_dt < math.inf:
        raise ValueError("dt must be positive")
    if span == 0.0:
        return 0, max_dt
    steps = span / max_dt * (1.0 - 1e-9)
    if steps == math.inf:  # ceil() would raise OverflowError
        raise ValueError("t_final = %g over dt = %g overflows the step count"
                         % (span, max_dt))
    n = max(1, math.ceil(steps))
    if n > MAX_STEPS:
        raise ValueError("t_final = %g over dt = %g is %d steps, more than "
                         "the %d a grid may have" % (span, max_dt, n, MAX_STEPS))
    return n, span / n


def grid_step(noise, min_delay=None):
    """Default longest step of the time grid, in seconds.

    T2/2000 without pulses, with T2 = 1/max(kappa_z) the model's
    shortest dephasing time. When pulses are min_delay apart it is
    min_delay/50 cut into the fewest whole parts no longer than that
    bound (fit_grid), so the pulses stay on the grid; a model with no
    kappa_z takes min_delay/50 as it is, and without pulses has no
    default grid (ValueError). In correlated mode this is also the step
    of the OU tracks, so changing it changes every random draw.
    """
    kappa_z = max(noise.kappa_z)
    if not kappa_z and min_delay is None:
        raise ValueError("a noise model without kappa_z has no default time "
                         "grid: pass dt")
    dt = 1.0 / kappa_z / 2000.0 if kappa_z else min_delay / 50.0
    return dt if min_delay is None else fit_grid(min_delay / 50.0, dt)[1]


def _apply_unitary(states, u):
    """u rho u^dagger of each raveled state of ``states`` (width, 64)."""
    rho = states.reshape(-1, 8, 8)
    return np.matmul(u, np.matmul(rho, u.conj().T)).reshape(-1, 64)


def _check_steps(steps, n, dt):
    """``steps`` as a list of sample steps on a grid of n steps of dt."""
    if n < 0 or not 0.0 < dt < math.inf:  # false for a NaN dt too
        raise ValueError("n_steps must be non-negative and dt finite and positive")
    steps = list(steps)
    bad = [k for k in steps if not isinstance(k, (int, np.integer))]
    if bad:  # int() would truncate it onto another sample's step
        raise ValueError("sample steps must be integers, got %r" % (bad[0],))
    if not steps or min(steps) < 0 or max(steps) > n:
        raise ValueError("sample steps must lie in [0, %d]" % n)
    return steps


def evolve(rho0, noise, t_final, dt=None, sample_every=1):
    """Free evolution under the bath ``noise`` names, sampled on a fixed grid.

    Samples every ``sample_every`` steps (plus t = 0 and t_final). dt
    is the longest step, grid_step(noise) by default, shrunk so that a
    whole number of steps fills t_final (fit_grid). The work is done by
    ``propagate``: in markovian mode the damping channels act in closed
    form, so the samples are exact at any dt; in correlated mode the
    mean runs over noise.trajectories OU tracks drawn on this grid.
    Every sample is validated as physical; a violation raises
    PhysicalityError naming the first offending time.

    Returns
    -------
    measures.DecayCurve
        Metrics against rho0 as the fidelity reference, with the
        sampled density matrices attached.
    """
    n, dt = fit_grid(t_final, grid_step(noise) if dt is None else dt)
    if not isinstance(sample_every, (int, np.integer)) or sample_every < 1:
        raise ValueError("sample_every must be a positive integer, got %r"
                         % (sample_every,))
    return propagate(rho0, noise, n, dt,
                     sample_steps=[*range(0, n + 1, sample_every), n])


def _ou_paths(rng, tau_c, sigma, dt, n_steps, width):
    """Stationary OU tracks, one column per qubit: (n_steps, width).

    Exact discrete update x' = d x + sigma sqrt(1 - d^2) xi, with
    d = e^{-dt/tau_c} and a stationary N(0, sigma^2) start, evaluated by
    a doubling scan (Hillis & Steele, CACM 29, 1170 (1986)): after the
    pass at stride s, x_k holds the sum of its last 2s innovations, each
    weighted by d to its age. Only non-negative powers of d appear, so
    one path covers every dt/tau_c, from a frozen track (d = 1) to white
    noise (d = 0), and the track stays within a few ulps of the plain
    recurrence.
    """
    if sigma == 0.0 or n_steps == 0:
        return np.zeros((n_steps, width))
    eps = rng.standard_normal((n_steps, width))
    d = math.exp(-dt / tau_c)
    out = sigma * math.sqrt(1.0 - d * d) * eps
    out[0] = sigma * eps[0]
    s = 1
    while s < n_steps:
        out[s:] += d ** s * out[:-s]  # the right side is read before the add
        s *= 2
    return out


# pulse times may miss the grid by this many steps (rounding of the
# summed delays) before they count as off the grid
_GRID_TOL = 1e-6


def _expand_pulse_steps(pulses, dt, n):
    """Map (time, unitary) pulse events to the grid steps they fall on."""
    by_step = {}
    for t, u in pulses:
        k = int(round(t / dt))
        if k < 0 or k > n:
            raise ValueError("pulse at t = %g s falls outside the run" % t)
        if abs(t / dt - k) > _GRID_TOL:
            raise ValueError(
                "pulse at t = %.12g s is off the time grid of dt = %.12g s"
                % (t, dt))
        by_step.setdefault(k, []).append(u)
    return by_step


# Longest free segment, in OU grid steps, when bit flips and the OU
# phase are both on. The Strang splitting error grows as
# kappa_x b^2 Delta^2: on the 240 ms acceptance run (5 us steps) a cap
# of 50 leaves 5.2e-8 against fine-step RK4, inside its 1e-7 budget; a
# cap of 25 leaves 1.4e-8 but costs a third more run time.
_MAX_SEGMENT_STEPS = 50


def _segment_edges(events, cap):
    """Grid steps that bound the free segments: every event, plus even
    splits of any gap longer than ``cap`` steps."""
    edges = [events[0]]
    for stop in events[1:]:
        start = edges[-1]
        parts = -(-(stop - start) // cap)
        edges.extend(start + (stop - start) * j // parts
                     for j in range(1, parts + 1))
    return edges


def _flips(states, kappa_x, t):
    """Bit-flip channels of all three qubits over t seconds, on raveled
    states (..., 64); t is one time, or an (n, 1) column of times, one
    per state of an (n, 64) stack."""
    exp = np.exp if isinstance(t, np.ndarray) else math.exp
    for flat, kx in zip(_FLAT, kappa_x):
        if kx != 0.0:
            p = 0.5 * (1.0 - exp(-kx * t))
            states = (1.0 - p) * states + p * states[..., flat]
    return states


def _phase_factors(phi):
    """exp(-i sum_i phi_i ZDIFF_i), raveled to (len(phi), 64), for each
    row of the OU phases phi (len(phi), 3): one exp per distinct column
    of _ZDIFF, gathered to the 64 elements."""
    # summed from zero in qubit order, as einsum over _ZDIFF sums it,
    # so that every factor is bit for bit the same
    phase = np.zeros((len(phi), _ZCOLS.shape[1]))
    for i in range(3):
        phase += phi[:, i, None] * _ZCOLS[i]
    return np.exp(-1j * phase)[:, _ZCOL_OF]


def _ou_track(noise, j, dt, n):
    """OU frequencies (n, 3) of trajectory j, from its own seed stream."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(int(noise.seed), int(j))))
    return _ou_paths(rng, noise.ou_tau_c, noise.ou_sigma, dt, n, 3)


def propagate(rho0, noise, n_steps, dt, pulses=(), sample_steps=None):
    """Ensemble-mean evolution on a grid of n_steps steps of dt seconds.

    Events are the pulses, (time_s, unitary) pairs that must fall on
    the grid, and the samples at the step indices ``sample_steps``
    (default: every step). Between events the bath acts in closed form:
    bit flips at kappa_x, and either Lindblad dephasing at kappa_z
    (markovian) or, per trajectory, the exact OU phase summed over the
    segment's grid steps (correlated). Trajectory j draws its OU
    track from a stream seeded by (noise.seed, j), so the ensemble mean
    does not depend on execution order. Pulses at a step act after the
    free evolution up to it and before its sample; every sampled mean
    is validated as physical. This is the one-train case of
    ``propagate_arms``, which states the split and the flip merge.

    Returns
    -------
    measures.DecayCurve
        Metrics of the sampled means against rho0.
    """
    return propagate_arms(rho0, noise, n_steps, dt, [pulses], sample_steps)[0]


# u X_i u^dagger must equal +-X_i to this for a pulse to commute with
# qubit i's bit-flip channel
_COMMUTE_TOL = 1e-12
_X = [np.eye(8)[p] for p in _FLIP]


def _commutes_with_flips(u):
    """True if u X_i u^dagger = +-X_i for every qubit i, so that u
    commutes with each qubit's bit-flip channel."""
    for x in _X:
        c = u @ x @ u.conj().T
        if not (np.max(np.abs(c - x)) <= _COMMUTE_TOL
                or np.max(np.abs(c + x)) <= _COMMUTE_TOL):
            return False
    return True


def propagate_arms(rho0, noise, n_steps, dt, trains, sample_steps=None):
    """``propagate`` of several pulse trains under one bath.

    Each train is a sequence of (time_s, unitary) pulses on the grid;
    every arm starts from rho0 and is sampled at ``sample_steps``.

    Without the OU bath an arm is cut at its pulse steps into stretches,
    and every sample of a stretch is the closed form of the stretch's
    starting state (``_stretches``).

    In the correlated bath all arms see the same OU tracks: each batch
    of up to 64 trajectories is one pass for all arms, in which
    trajectory j's track is drawn once and reduced at every arm's
    segment edges before the next is drawn, so an arm's curve equals a
    lone ``propagate`` of its train bit for bit. A sampled mean adds the
    same partial sums of 32 trajectories in the same order at any batch
    width, so the batch width does not change any output.

    With the OU phase and bit flips both on, a segment is Strang-split:
    F(Delta/2), the phase, F(Delta/2), with F the flips. Since
    F(a) F(b) = F(a + b), a segment's trailing half flip merges with
    the next segment's leading one when the edge between them holds no
    sample, is not the last step, and every pulse on it commutes with
    each qubit's flip channel (u X_i u^dagger = +-X_i to 1e-12, checked
    once per distinct unitary). Ideal XY-16 and CPMG pulses merge;
    KDD's pi/6 phases and y pulses with a flip error keep the plain
    split.

    Returns
    -------
    list of measures.DecayCurve
        One curve per train, metrics of its sampled means against rho0.
    """
    rho0 = check_density(rho0)
    marks = sorted(set(_check_steps(
        range(n_steps + 1) if sample_steps is None else sample_steps,
        n_steps, dt)))
    pulse_steps = [_expand_pulse_steps(train, dt, n_steps) for train in trains]

    correlated = noise.bath_mode == "correlated"
    if correlated and noise.ou_sigma != 0.0 and n_steps > 0:
        n_traj = noise.trajectories
        accs = _ou_arms(rho0, noise, n_steps, dt, pulse_steps, marks)
    else:
        n_traj = 1
        # elementwise generator of the Lindblad dephasing; a correlated
        # bath at zero sigma has none
        gen = np.zeros(64)
        if not correlated:
            gen = -np.tensordot(noise.kappa_z, _ZMASK, 1).ravel()
        accs = [_stretches(rho0, by_step, marks, n_steps, dt, gen,
                           noise.kappa_x) for by_step in pulse_steps]

    times = [k * dt for k in marks]
    curves = []
    for acc in accs:
        acc /= n_traj
        try:
            curves.append(measures.curve_from_states(
                times, acc.reshape(-1, 8, 8), rho0))
        except PhysicalityError as err:
            raise PhysicalityError(
                "at t = %.9g s: %s" % (times[err.sample], err.reason)) from err
    return curves


def _stretches(rho0, by_step, marks, n_steps, dt, gen, kappa_x):
    """The states of one pulse train at the sample steps ``marks``, as
    rows (samples, 64), without the OU bath.

    A stretch runs from the start, or from a pulse step, to the next
    pulse step or to n_steps. Both dissipators are commuting Pauli
    channels, so the state tau seconds into a stretch that starts in
    rho_e is F(tau)(exp(tau gen) o rho_e), F the bit flips and o the
    elementwise product: one factor and three index gathers per qubit
    of flips on a stack of samples, evaluated _BLOCK samples at a time.
    Pulses at a step act before its sample, and the state after them
    starts the next stretch.
    """
    acc = np.zeros((len(marks), 64), dtype=complex)
    marks = np.asarray(marks)

    def at(rho, taus):
        return _flips(np.exp(np.multiply.outer(taus, gen)) * rho,
                      kappa_x, taus[:, None])

    state = rho0.reshape(64).astype(complex)
    start = 0
    # rows [first, last) hold the samples strictly inside a stretch
    first = 0
    for stop in sorted({0, *by_step, n_steps}):
        last = np.searchsorted(marks, stop)
        if stop > start:
            for lo in range(first, last, _BLOCK):
                hi = min(last, lo + _BLOCK)
                acc[lo:hi] += at(state, dt * (marks[lo:hi] - start))
            state = at(state, np.array([dt * (stop - start)]))[0]
        for u in by_step.get(stop, []):
            state = _apply_unitary(state, u)[0]
        first = last
        if last < len(marks) and marks[last] == stop:
            acc[last] += state
            first += 1
        start = stop
    return acc


def _ou_arms(rho0, noise, n_steps, dt, pulse_steps, marks):
    """The trajectory sums of every arm's states at the sample steps
    ``marks`` under the OU bath, as rows (samples, 64) per arm."""
    row = {k: r for r, k in enumerate(marks)}
    # the OU phase does not commute with the bit flips: such segments
    # are Strang-split around the phase and kept short
    split = any(noise.kappa_x)
    cap = _MAX_SEGMENT_STEPS if split else n_steps
    # by id: every train's unitaries stay referenced until the return
    commutes = {}

    def plan(by_step):
        edges = _segment_edges(sorted(set(marks) | set(by_step)
                                      | {0, n_steps}), cap)
        merge = []
        for k in edges[1:]:
            us = by_step.get(k, [])
            for u in us:
                if id(u) not in commutes:
                    commutes[id(u)] = _commutes_with_flips(u)
            merge.append(split and k not in row and k != n_steps
                         and all(commutes[id(u)] for u in us))
        return by_step, edges, dt * np.diff(edges), merge

    arms = [plan(by_step) for by_step in pulse_steps]
    accs = [np.zeros((len(marks), 64), dtype=complex) for _ in arms]
    for start in range(0, noise.trajectories, _BATCH):
        width = min(_BATCH, noise.trajectories - start)
        # per-segment OU phases of every arm, (width, segs, 3): each
        # track is drawn once, reduced at all arms' edges, dropped
        sums = [[] for _ in arms]
        for j in range(start, start + width):
            track = _ou_track(noise, j, dt, n_steps)
            for (_, edges, *_), out in zip(arms, sums):
                out.append(np.add.reduceat(track, edges[:-1]))
        for arm, out, acc in zip(arms, sums, accs):
            _sweep(rho0, width, arm, dt * np.stack(out), noise.kappa_x,
                   row, acc)
    return accs


def _accumulate(acc, states):
    """Add the trajectory sum of ``states`` into acc, _CHUNK
    trajectories at a time, so that the sum does not depend on how many
    trajectories a batch holds."""
    for g in range(0, len(states), _CHUNK):
        acc += states[g:g + _CHUNK].sum(axis=0)


def _sweep(rho0, width, arm, phi, kappa_x, row, acc):
    """Run one arm's segments for a batch of ``width`` trajectories and
    add the sampled states into the rows of acc (samples, 64). The
    states stay raveled, (width, 64). phi holds the batch's per-segment
    OU phases, (width, segments, 3)."""
    by_step, edges, deltas, merge = arm
    states = np.broadcast_to(rho0.reshape(64), (width, 64)).astype(complex)
    for u in by_step.get(0, []):
        states = _apply_unitary(states, u)
    if 0 in row:
        _accumulate(acc[row[0]], states)
    carried = 0.0  # half flip left over from a merged edge, in seconds
    for s, k in enumerate(edges[1:]):
        delta = deltas[s]
        # the OU bath replaces the Lindblad dephasing, so the phase
        # factor is the segment's whole elementwise factor
        states = (_phase_factors(phi[:, s])
                  * _flips(states, kappa_x, carried + 0.5 * delta))
        if merge[s]:
            carried = 0.5 * delta
        else:
            states = _flips(states, kappa_x, 0.5 * delta)
            carried = 0.0
        for u in by_step.get(k, []):
            states = _apply_unitary(states, u)
        if k in row:
            _accumulate(acc[row[k]], states)


def ou_unit_phases(noise, n_steps, dt, sample_steps):
    """Accumulated OU phases of every trajectory at unit sigma.

    Trajectory j's track is drawn as ``propagate`` draws it, from the
    stream seeded by (noise.seed, j) on the grid of n_steps steps of dt
    seconds, but with ou_sigma = 1. The recurrence is linear in sigma
    for fixed draws, so sigma times the result is the phase at sigma
    (the Gaussian-phase picture of Cywinski et al., PRB 77, 174509
    (2008)): without bit flips the coherence of qubit i's off-diagonal
    elements is the trajectory mean of exp(-i sigma Phi_i).

    Returns
    -------
    numpy.ndarray
        dt * sum_{m < k} b_i(m) for each k in sample_steps, shape
        (trajectories, len(sample_steps), 3).
    """
    if noise.bath_mode != "correlated":
        raise ValueError("ou_unit_phases requires bath_mode = correlated")
    steps = _check_steps(sample_steps, n_steps, dt)
    unit = replace(noise, ou_sigma=1.0)
    out = np.empty((noise.trajectories, len(steps), 3))
    cum = np.zeros((n_steps + 1, 3))
    for j in range(noise.trajectories):
        np.cumsum(_ou_track(unit, j, dt, n_steps), axis=0, out=cum[1:])
        out[j] = dt * cum[steps]
    return out
