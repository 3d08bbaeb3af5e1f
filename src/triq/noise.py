"""Evolution of the three-qubit register under damping and dephasing.

Markovian mode is the Lindblad master equation with per-qubit sigma_x
damping (rate kappa_x = 1/T1) and sigma_z dephasing (kappa_z = 1/T2).
Correlated mode replaces the dephasing dissipator with per-qubit
classical Ornstein-Uhlenbeck frequency tracks b_i(t) applied through
sigma_z/2, averaged over an ensemble of trajectories; amplitude damping
stays Lindbladian. A NoiseModel alone sets the rates (NoiseModel.from_times
from per-qubit T1/T2, by default the bundled T1_S and T2_S), and its bath
alone sets the one step rule that every runner cuts its grid by,
steps_per: steps of at most tau_c/20 for the OU tracks.

No system Hamiltonian acts: as in the paper's fits, the register evolves
under the damping and the bath alone. Every run goes through one
propagator, ``propagate_arms``, that runs each of several pulse trains
under the bath the NoiseModel names; ``evolve`` is its pulse-free front
end. A pulse train reaches it as a map from grid step to the one
unitary applied there, and samples as grid steps, all checked by one
rule. Both dissipators are Pauli channels, which commute and are
applied in closed form. A Markovian run is therefore evaluated stretch
by stretch: between pulse steps every sample is the closed form of the
stretch's starting state, exact at any step length. The OU phase does
not commute with the bit flips, so a correlated run is stepped from
event to event (a pulse or a sample): a segment is Strang-split around
the phase, the phase summed over the segment's steps of the OU grid, and
segments are capped at _MAX_SEGMENT_S seconds; ``propagate_arms``
states how the arms share each OU track and where adjacent half flips
merge, and ``_sweep`` how a batch of trajectories is swept on raveled
states. The OU recurrence is linear in sigma for fixed draws, so a track
at sigma is sigma times the track at 1: ``ou_unit_phases`` draws the
unit-sigma tracks once, and a caller that varies sigma alone
(calibration) rescales their phases instead of propagating again. The
tests pin the propagator against a generator built from explicit
Lindblad operator matrices.
"""
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import check_density
from . import measures

__all__ = [
    "T1_S",
    "T2_S",
    "MAX_STEPS",
    "NoiseModel",
    "check_grid",
    "evolve",
    "fit_grid",
    "propagate_arms",
    "steps_per",
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


# right shift of each qubit's bit in a basis index, qubit 1 the most
# significant, and that bit of each of the 8 basis states, (3, 8)
_SHIFT = np.array([[2], [1], [0]])
_BITS = (np.arange(8) >> _SHIFT) & 1
# index gathers of the bit flip of each qubit, and the same on a
# density matrix raveled to 64 elements: element (a, b) <- (a^m, b^m)
_FLIP = list(np.arange(8) ^ (1 << _SHIFT))
_FLAT = [(8 * p[:, None] + p[None, :]).ravel() for p in _FLIP]
# (m_i^a - m_i^b) per qubit, m_i = 1/2 - bit the I_iz eigenvalue:
# entries in {-1, 0, +1}
_ZDIFF = (_BITS[:, None, :] - _BITS[:, :, None]).astype(float)
# 1 where qubit i's bit differs between row and column: the elements
# that sigma_z dephasing of qubit i damps
_ZMASK = (_ZDIFF != 0.0).astype(float)
# the 27 distinct columns (3,) of _ZDIFF raveled to (3, 64), and the
# column of each of the 64 elements
_ZCOLS, _ZCOL_OF = np.unique(_ZDIFF.reshape(3, 64), axis=1, return_inverse=True)


# Longest grid a run may have. fit_grid cuts none longer, and
# check_grid, which every engine run passes, rejects a longer one,
# such as a protected run's cycles times its steps per cycle. A
# correlated run holds one trajectory's OU track and its normal draws,
# three float64 each, 48 B per grid step: 768 MiB at 2**24 steps, so a
# longer grid is a config error rather than a MemoryError deep in a
# run. The longest grids that a test, demo or benchmark workload runs
# have 100,000 steps, 48,000 under the OU bath.
MAX_STEPS = 2**24
# Most sampled states, samples times arms, that a run may hold. Each
# arm's accumulator holds a sample's state in 64 complex, 1 KiB, and
# its rows become the curve's states; decay's closed-form overlay holds
# as much again. At 2 KiB a sample the same 768 MiB as one OU track at
# MAX_STEPS holds 393,216, where MAX_STEPS alone would allow 32 GiB.
# The most a test, demo or benchmark workload asks is 2,001 samples of
# one arm.
_MAX_SAMPLES = MAX_STEPS * 48 // 2048


def fit_grid(span, max_dt):
    """Cut span into the fewest whole steps no longer than max_dt.

    Returns (n, span / n), or (0, max_dt) for a zero span. n is rounded
    up with a relative 1e-9 guard, since a span meant as a whole number
    of steps may sit a few ulps above it: calibrate's 2.5 T2 at
    T2 = 0.53 s is 1.3250000000000002 s, 2650.0000000000005 steps of
    0.5 ms. Every grid is cut so.
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


def steps_per(noise, span):
    """Fewest whole steps the bath ``noise`` names allows in span seconds:
    1 for a Markovian model, exact at any step; else steps of at most
    tau_c/20 (fit_grid), where the rectangle-rule phase's variance exceeds
    the continuous OU's by (x/2) coth(x/2) - 1 = 2.1e-4, x = dt/tau_c, and
    so 1 for a quasi-static bath (tau_c = inf)."""
    if noise.bath_mode != "correlated":
        return 1
    return fit_grid(span, min(span, noise.ou_tau_c / 20.0))[0]


def _apply_unitary(states, u):
    """u rho u^dagger of each raveled state of ``states`` (width, 64)."""
    rho = states.reshape(-1, 8, 8)
    return np.matmul(u, np.matmul(rho, u.conj().T)).reshape(-1, 64)


def check_grid(n, dt):
    """Raise ValueError for a grid of n steps of dt that no run may take:
    n negative or past MAX_STEPS, or dt not finite and positive."""
    if n < 0 or not 0.0 < dt < math.inf:  # false for a NaN dt too
        raise ValueError("n_steps must be non-negative and dt finite and positive")
    if n > MAX_STEPS:
        raise ValueError("a grid of %d steps is more than the %d a grid may have"
                         % (n, MAX_STEPS))


def _check_steps(steps, n, kind="sample"):
    """``steps`` as a non-empty list of integer steps in [0, n]; sample
    steps must strictly increase, while a pulse train is a map, whose
    keys need no order."""
    steps = list(steps)
    bad = [k for k in steps if not isinstance(k, (int, np.integer))]
    if bad:  # int() would truncate it onto another step
        raise ValueError("%s steps must be integers, got %r" % (kind, bad[0]))
    if not steps or min(steps) < 0 or max(steps) > n:
        raise ValueError("%s steps must lie in [0, %d]" % (kind, n))
    if kind == "sample":
        for a, b in zip(steps, steps[1:]):
            if b <= a:
                raise ValueError("sample steps must strictly increase, got "
                                 "%d after %d" % (b, a))
    return steps


def evolve(rho0, noise, t_final, sample_dt):
    """Free evolution under the bath ``noise`` names, sampled on a fixed grid.

    Samples at t = 0 and then every sample_dt, shrunk so that whole
    intervals fill t_final (fit_grid), each cut into the steps_per steps
    the bath allows. ``propagate_arms`` runs it as one empty pulse train:
    in markovian mode the damping channels act in closed form, so the
    samples are exact at any sample_dt; in correlated mode the mean runs
    over noise.trajectories OU tracks.
    Every sample is validated as physical; a violation raises
    PhysicalityError naming the first offending sample by its index and
    time (measures.curve_from_states).

    Returns
    -------
    measures.DecayCurve
        Metrics against rho0 as the fidelity reference, with the
        sampled density matrices attached.
    """
    n, dt = fit_grid(t_final, sample_dt)
    k = steps_per(noise, dt)
    return propagate_arms(rho0, noise, n * k, dt / k, [{}],
                          range(0, n * k + 1, k))[0]


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


# Longest free segment when bit flips and the OU phase are both on: a
# Strang-split segment of D seconds errs by about kappa_x sigma D (sigma D
# + sqrt(D / tau_c)) per second. At tau = 0.25 ms the pulse gaps are 250 us
# already, so it splits only the free arm: over the 240 ms acceptance run
# it keeps that arm within 1.0e-8 of one-step segments (2.9e-6 uncapped).
_MAX_SEGMENT_S = 250e-6


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


def propagate_arms(rho0, noise, n_steps, dt, trains, sample_steps):
    """Ensemble-mean evolution of pulse trains under one bath.

    The grid has n_steps steps of dt seconds. Each train maps a grid
    step to the one unitary applied there, and a pulse-free arm is {};
    every arm starts from rho0 and is sampled at ``sample_steps``. Pulse
    and sample steps are integers in [0, n_steps] (else ValueError, so a
    list of (step, unitary) pairs is rejected too), and sample steps
    strictly increase (else ValueError). More than 393,216 samples
    times arms is a ValueError too, raised before any state is held. A
    pulse acts before its step's sample. Trajectory j draws its OU track
    from a stream seeded by (noise.seed, j), so the mean does not depend
    on execution order; every sampled mean is validated as physical
    (else PhysicalityError naming the sample by its index and time, from
    measures.curve_from_states).

    Without the OU bath an arm is cut at its pulse steps into stretches,
    and every sample of a stretch is the closed form of the stretch's
    starting state (``_stretches``).

    In the correlated bath all arms see the same OU tracks: each batch
    of up to 64 trajectories is one pass for all arms, in which
    trajectory j's track is drawn once and reduced at every arm's
    segment edges before the next is drawn, so an arm's curve equals a
    one-train pass of its train bit for bit. A sampled mean adds the
    same partial sums of 32 trajectories in the same order at any batch
    width, so the batch width does not change any output.

    With the OU phase and bit flips both on, a segment is Strang-split:
    F(Delta/2), the phase, F(Delta/2), with F the flips. Since
    F(a) F(b) = F(a + b), a segment's trailing half flip merges with
    the next segment's leading one when the edge between them holds no
    sample and holds no pulse, or one that commutes with each qubit's
    flip channel (u X_i u^dagger = +-X_i to 1e-12, checked once per
    distinct unitary). A half flip carried past the last step would be
    lost, but no sample follows it. Ideal XY-16 and CPMG pulses merge;
    KDD's pi/6 phases and y pulses with a flip error keep the plain
    split.

    Returns
    -------
    list of measures.DecayCurve
        One curve per train, metrics of its sampled means against rho0.
    """
    rho0 = check_density(rho0)
    check_grid(n_steps, dt)
    marks = _check_steps(sample_steps, n_steps)
    if len(marks) * len(trains) > _MAX_SAMPLES:
        raise ValueError("%d samples per arm, %d states in all, are more than "
                         "the %d sampled states a run may hold"
                         % (len(marks), len(marks) * len(trains), _MAX_SAMPLES))
    for train in trains:
        if train:
            _check_steps(train, n_steps, "pulse")

    correlated = noise.bath_mode == "correlated"
    if correlated and noise.ou_sigma != 0.0 and n_steps > 0:
        means = _ou_arms(rho0, noise, n_steps, dt, trains, marks)
    else:
        # elementwise generator of the Lindblad dephasing; a correlated
        # bath at zero sigma has none
        gen = np.zeros(64)
        if not correlated:
            gen = -np.tensordot(noise.kappa_z, _ZMASK, 1).ravel()
        means = [_stretches(rho0, train, marks, n_steps, dt, gen,
                            noise.kappa_x) for train in trains]
    times = [k * dt for k in marks]
    return [measures.curve_from_states(times, m.reshape(-1, 8, 8), rho0)
            for m in means]


def _stretches(rho0, train, marks, n_steps, dt, gen, kappa_x):
    """The states of one pulse train at the sample steps ``marks``, as
    rows (samples, 64), without the OU bath.

    A stretch runs from the start, or from a pulse step, to the next
    pulse step or to n_steps. Both dissipators are commuting Pauli
    channels, so the state tau seconds into a stretch that starts in
    rho_e is F(tau)(exp(tau gen) o rho_e), F the bit flips and o the
    elementwise product: one factor and three index gathers per qubit
    of flips on a stack of samples, evaluated _BLOCK samples at a time.
    A pulse acts before its step's sample, and the state after it
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
    for stop in sorted({0, *train, n_steps}):
        last = np.searchsorted(marks, stop)
        if stop > start:
            for lo in range(first, last, _BLOCK):
                hi = min(last, lo + _BLOCK)
                acc[lo:hi] += at(state, dt * (marks[lo:hi] - start))
            state = at(state, np.array([dt * (stop - start)]))[0]
        if stop in train:
            state = _apply_unitary(state, train[stop])[0]
        first = last
        if last < len(marks) and marks[last] == stop:
            acc[last] += state
            first += 1
        start = stop
    return acc


def _ou_arms(rho0, noise, n_steps, dt, trains, marks):
    """The trajectory means of every arm's states at the sample steps
    ``marks`` under the OU bath, as rows (samples, 64) per arm."""
    row = {k: r for r, k in enumerate(marks)}
    # the OU phase does not commute with the bit flips: such segments
    # are Strang-split around the phase and kept short
    split = any(noise.kappa_x)
    # the cap in whole steps, at least one; the 1e-9 guard keeps a step
    # that divides it, such as 5 us, from losing one to rounding
    cap = max(1, math.floor(_MAX_SEGMENT_S / dt * (1.0 + 1e-9))) if split else n_steps
    # one verdict per distinct unitary, by id: every train's unitaries
    # stay referenced until the return
    distinct = {id(train[k]): train[k] for train in trains for k in train}
    commutes = {i: _commutes_with_flips(u) for i, u in distinct.items()}

    def plan(train):
        edges = _segment_edges(sorted({*marks, *train, 0, n_steps}), cap)
        merge = [split and k not in row
                 and (k not in train or commutes[id(train[k])])
                 for k in edges[1:]]
        return train, edges, dt * np.diff(edges), merge

    arms = [plan(train) for train in trains]
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
    for acc in accs:
        acc /= noise.trajectories
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
    train, edges, deltas, merge = arm
    states = np.broadcast_to(rho0.reshape(64), (width, 64)).astype(complex)
    if 0 in train:
        states = _apply_unitary(states, train[0])
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
        if k in train:
            states = _apply_unitary(states, train[k])
        if k in row:
            _accumulate(acc[row[k]], states)


def ou_unit_phases(noise, n_steps, dt, sample_steps):
    """Accumulated OU phases of every trajectory at unit sigma.

    Trajectory j's track is drawn as ``propagate_arms`` draws it, from the
    stream seeded by (noise.seed, j) on the grid of n_steps steps of dt
    seconds, but with ou_sigma = 1. The recurrence is linear in sigma
    for fixed draws, so sigma times the result is the phase at sigma
    (the Gaussian-phase picture of Cywinski et al., PRB 77, 174509
    (2008)): without bit flips the coherence of qubit i's off-diagonal
    elements is the trajectory mean of exp(-i sigma Phi_i).

    Returns
    -------
    numpy.ndarray
        dt * sum_{m < k} b_i(m) for each k in sample_steps, strictly
        increasing steps in [0, n_steps] (else ValueError), shape
        (trajectories, len(sample_steps), 3).
    """
    if noise.bath_mode != "correlated":
        raise ValueError("ou_unit_phases requires bath_mode = correlated")
    check_grid(n_steps, dt)
    steps = _check_steps(sample_steps, n_steps)
    unit = replace(noise, ou_sigma=1.0)
    out = np.empty((noise.trajectories, len(steps), 3))
    cum = np.zeros((n_steps + 1, 3))
    for j in range(noise.trajectories):
        np.cumsum(_ou_track(unit, j, dt, n_steps), axis=0, out=cum[1:])
        out[j] = dt * cum[steps]
    return out
