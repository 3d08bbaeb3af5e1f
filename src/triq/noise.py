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
rule. The bath alone picks the engine. Both dissipators are Pauli
channels, which commute and are applied in closed form, so a run under
the Markovian bath is evaluated stretch by stretch: between pulse steps
every sample is the closed form of the stretch's starting state, exact
at any step length, and in float64 when every stretch starts exactly
real (``_stretches``). A correlated bath runs the OU sweep at any sigma.
The OU phase does not commute with the bit flips, so a correlated run
is stepped from event to event (a pulse or a sample): a segment is
Strang-split around the phase, the phase summed over the segment's
steps of the OU grid, and segments are capped at _MAX_SEGMENT_S
seconds; ``propagate_arms`` states how the arms share each OU track
and where adjacent half flips merge, and ``_sweep`` how a batch of
trajectories is swept on raveled states, each arm on only the elements
it can reach from rho0 (``_support``), an ideal pulse applied as an
index gather and a phase (``_gather``), with the OU phase factors of a
block of segments made at once (``_phase_factors``).
Every OU track is drawn at unit sigma, kept only on the qubits whose
phase reaches some element an arm runs on (``_seen``), reduced into a
per-segment unit table (``_fill_tables``), and sigma scales each
segment's phase once, which is the phase of the track at sigma since
the recurrence is linear in its draws. So ``calibrate_sigma``, which
fits sigma to a qubit-1 T2, draws each of the engine's unit tracks
once, into a table of qubit 1 alone: its bisection rescales the
table's running sum at every step instead of propagating, and the
engine run at the sigma it settles on sweeps the same table. The tests
pin the propagator against a generator built from explicit Lindblad
operator matrices.
"""
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import P0, NumericalError, check_density, real_if_exact
from . import measures

__all__ = [
    "T1_S",
    "T2_S",
    "MAX_STEPS",
    "NoiseModel",
    "calibrate_sigma",
    "check_grid",
    "evolve",
    "fit_grid",
    "propagate_arms",
    "steps_per",
]

# trajectories swept at once: each segment of a sweep is a few numpy
# calls on the whole batch, so a wider batch takes fewer Python steps,
# while each arm's per-segment phase table holds 8 B per seen qubit per
# segment per trajectory, at most 3 KiB per segment at this width
_BATCH = 128
# samples of a Markovian stretch evaluated at once; one stack of a
# whole 2,001-sample stretch raised peak memory by 14%
_BLOCK = 64
# most bytes of OU phase factors made at once: a sweep makes them for a
# block of segments, width x block x max(3 q, m) complex numbers (the
# table of 3 columns for each of the q seen qubits, and the m gathered
# elements). On a 2-vCPU VM the sweeps of an OU calibration and of an
# XY-16(s) protect run took 21-23% and 7-9% less time at 128 KiB than
# one segment at a time, and 5-10% and 16-18% less than at 1 MiB;
# 256 KiB was within 5% (BENCH_49.json, at q = 3)
_FACTOR_BYTES = 128 * 2**10

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


def _columns(seen, support):
    """Each element of ``support``'s column, per qubit of ``seen``, in a
    row of _phase_factors' table [conj e, 1, e] per seen qubit: 3 p +
    ZDIFF_i + 1 for the p-th seen qubit i, (len(seen), m)."""
    zdiff = _ZDIFF.reshape(3, 64)[seen][:, support].astype(np.intp)
    return 3 * np.arange(len(seen))[:, None] + zdiff + 1


# every qubit's column of each of the 64 raveled elements in a row
# [conj e_1, 1, e_1, conj e_2, 1, e_2, conj e_3, 1, e_3]
_ZCOL = _columns(np.arange(3), np.arange(64))


# Most bytes a run may hold in each array that grows with its config,
# so that a run too large is a config error before it allocates, not a
# MemoryError deep in a run: _check_holds bounds the sampled states and
# the OU phase tables, calibration's included, and MAX_STEPS the OU track.
_MAX_BYTES = 768 * 2**20
# Longest grid a run may have, cut by fit_grid and checked by check_grid
# on every engine run: a correlated run holds one trajectory's normal
# draws, three float64 a step, and its OU track on the seen qubits, at
# most 48 B per grid step. The longest grids that a test, demo or
# benchmark workload runs have 100,000 steps, 48,000 under the OU bath.
MAX_STEPS = _MAX_BYTES // 48


def _check_holds(count, size, what):
    """Raise ValueError if ``count`` items of ``size`` bytes each are
    more than the _MAX_BYTES a run may hold."""
    if count * size > _MAX_BYTES:
        raise ValueError("%d %s of %d B each are more than the %g MiB a run "
                         "may hold" % (count, what, size, _MAX_BYTES / 2**20))


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


def _ou_paths(rng, tau_c, dt, n_steps, width, cols=None):
    """Stationary unit-sigma OU tracks, one column per qubit: (n_steps,
    width), or only the sorted columns ``cols`` of it, (n_steps,
    len(cols)), each the same bit for bit, since every operation below is
    elementwise; all ``width`` columns are drawn either way, and when
    ``cols`` names them all the track is scanned in place of the draws.

    Exact discrete update x' = d x + sqrt(1 - d^2) xi, with
    d = e^{-dt/tau_c} and a stationary N(0, 1) start, evaluated by a
    doubling scan (Hillis & Steele, CACM 29, 1170 (1986)): after the
    pass at stride s, x_k holds the sum of its last 2s innovations, each
    weighted by d to its age. Only non-negative powers of d appear, so
    one path covers every dt/tau_c, from a frozen track (d = 1) to white
    noise (d = 0), and the track stays within a few ulps of the plain
    recurrence. The recurrence is linear in its draws, so sigma times
    the track is the track at sigma.
    """
    eps = rng.standard_normal((n_steps, width))
    d = math.exp(-dt / tau_c)
    out = eps if cols is None or len(cols) == width else eps[:, cols]
    out[1:] *= math.sqrt(1.0 - d * d)
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


def _flips(states, kappa_x, t, flats=_FLAT):
    """Bit-flip channels of all three qubits over t seconds, on raveled
    states (..., 64); t is one time, or an (n, 1) column of times, one
    per state of an (n, 64) stack. ``flats`` is each qubit's gather, by
    default _FLAT on all 64 elements; a sweep on a support of m elements
    passes them re-indexed into it, on states (..., m)."""
    exp = np.exp if isinstance(t, np.ndarray) else math.exp
    for flat, kx in zip(flats, kappa_x):
        if kx != 0.0:
            p = 0.5 * (1.0 - exp(-kx * t))
            states = (1.0 - p) * states + p * states[..., flat]
    return states


def _phase_factors(phi, cols=_ZCOL):
    """exp(-i sum_i phi_i ZDIFF_i), raveled to (..., 64), for each row of
    the OU phases phi (..., 3); ``cols`` is _columns(seen, support) for
    the factors of a support's m elements alone, (..., m), from phases
    (..., len(seen)) of the seen qubits, those whose ZDIFF is nonzero on
    some element of it (``_seen``). A sweep passes a whole block of
    segments at once.

    The factor is the product over seen qubits of e_i = exp(-i phi_i)
    raised to ZDIFF_i in {-1, 0, +1}: one exp per seen qubit a row, each
    gathered from the table [conj e_i, 1, e_i] to the elements and
    multiplied in qubit order. A qubit whose bit agrees contributes
    exactly 1, and an unseen one agrees on every element, so the
    diagonal is exactly 1 and an element where one qubit differs is
    that qubit's exp; any other element is within a few ulps of the
    exp of its whole phase. With no qubit seen every factor is 1.
    """
    if not len(cols):
        return np.ones((*phi.shape[:-1], cols.shape[1]), dtype=complex)
    e = np.exp(-1j * phi)
    table = np.empty((*phi.shape, 3), dtype=complex)
    np.conjugate(e, out=table[..., 0])
    table[..., 1] = 1.0
    table[..., 2] = e
    table = table.reshape(*phi.shape[:-1], 3 * phi.shape[-1])
    out = table[..., cols[0]]
    for col in cols[1:]:
        out *= table[..., col]
    return out


def _ou_track(noise, j, dt, n, seen):
    """Unit-sigma OU frequencies (n, len(seen)) of trajectory j on the
    sorted qubits ``seen``, from its own seed stream: the one track that
    the engine and calibration both read. All three qubits' normals are
    drawn, so each seen column is the same whichever others are seen."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(int(noise.seed), int(j))))
    return _ou_paths(rng, noise.ou_tau_c, dt, n, 3, seen)


def _fill_tables(noise, trajectories, dt, n, seen, starts, tables):
    """Fill each arm's unit table, (len(trajectories), segments,
    len(seen)): row r holds the sums of trajectory trajectories[r]'s
    unit-sigma track on the qubits ``seen``, on the grid of n steps of
    dt, over each segment, which starts at the arm's ``starts``. Each
    track is drawn once, reduced at every arm's starts, and dropped
    before the next is drawn."""
    for r, j in enumerate(trajectories):
        track = _ou_track(noise, j, dt, n, seen)
        for s, table in zip(starts, tables):
            np.add.reduceat(track, s, axis=0, out=table[r])


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


def _gather(u):
    """(gather, factor) of u rho u^dagger on raveled states (..., 64), or
    None when u is not monomial. A monomial u, one nonzero entry u_a,p(a)
    per row, as every ideal pulse_unitary is, acts on element (a, b) as
    u_a,p(a) rho_p(a),p(b) conj(u_b,p(b)): the state gathered at
    8 p(a) + p(b) times that factor."""
    nonzero = u != 0
    if not np.all(nonzero.sum(axis=1) == 1):
        return None
    p = np.argmax(nonzero, axis=1)
    phase = u[np.arange(8), p]
    return ((8 * p[:, None] + p[None, :]).ravel(),
            np.multiply.outer(phase, phase.conj()).ravel())


def _support(rho0, gathers):
    """The raveled elements, sorted, that an OU sweep from rho0 runs on:
    the closure of rho0's nonzero elements under each of ``gathers``,
    the _FLAT gather of each qubit with kappa_x != 0 and the gather of
    each of the arm's pulses (_gather), taken until it stops growing.
    The OU phase only scales an element, so every other element of
    every trajectory's state stays exactly 0. A pulse that is not
    monomial, such as one with a flip error, has no gather (None), and
    its arm runs on all 64 elements."""
    if any(gather is None for gather in gathers):
        return np.arange(64)
    reach = rho0.reshape(64) != 0
    while True:
        grown = reach.copy()
        for gather in gathers:
            grown |= grown[gather]
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _seen(support):
    """The qubits, sorted, whose OU phase reaches some element of
    ``support``: qubit i where ZDIFF_i is nonzero on one of them. Every
    other qubit's bit agrees on the whole support, so its phase factor
    there is exactly 1, and an OU sweep on it reads only the seen
    qubits' tracks."""
    return np.flatnonzero(_ZMASK.reshape(3, 64)[:, support].any(axis=1))


def _reindex(gather, support):
    """``gather`` on all 64 elements re-indexed into ``support``, for
    states that hold only its m elements (..., m): the position in
    support of the element that each of them reads, all of which must
    be in support."""
    at = np.zeros(64, dtype=np.intp)
    at[support] = np.arange(len(support))
    return at[gather[support]]


def propagate_arms(rho0, noise, n_steps, dt, trains, sample_steps):
    """Ensemble-mean evolution of pulse trains under one bath.

    The grid has n_steps steps of dt seconds. Each train maps a grid
    step to the one unitary applied there, and a pulse-free arm is {};
    every arm starts from rho0 and is sampled at ``sample_steps``, a
    sequence (list, range or array). Pulse and sample steps are integers
    in [0, n_steps] (else ValueError, so a list of (step, unitary) pairs
    is rejected too), and sample steps strictly increase (else
    ValueError). Past the 768 MiB a run may hold, samples times arms at
    2 KiB (393,216 states) are a ValueError before any sample step is
    read, and a batch's OU phases at 8 B per seen qubit per segment per
    trajectory one before any track is drawn. A pulse acts before its
    step's sample.
    Trajectory j draws its OU track from a stream seeded by (noise.seed,
    j), so the mean does not depend on execution order; every sampled
    mean is validated as physical (else PhysicalityError naming the
    sample by its index and time, from measures.curve_from_states).

    Under the Markovian bath an arm is cut at its pulse steps into
    stretches, and every sample of a stretch is the closed form of the
    stretch's starting state (``_stretches``).

    A correlated bath runs the OU sweep at any sigma and grid, sigma = 0
    and zero steps included. All arms see the same OU tracks: each batch
    of up to 128 trajectories (_BATCH) is one pass for all arms, in which
    trajectory j's unit-sigma track is drawn once and reduced at every
    arm's segment edges before the next is drawn, and each arm's table
    of per-segment phases is then scaled by sigma dt once, so an arm's
    curve equals a one-train pass of its train bit for bit. The track
    and the tables hold only the qubits seen by some arm, those whose
    I_z differs between the row and the column of some element of its
    support; all three qubits' normals are still drawn, so a seen
    qubit's phases are the same bit for bit, and an unseen one's factor
    on the support is exactly 1 (``_seen``). A sampled
    mean adds each batch's sum once per sample, so the batch width moves
    only the last bits of a run of more than one batch.
    Each arm is swept on its support alone: the closure of rho0's
    nonzero elements under the bit flip of each qubit with kappa_x != 0
    and under each of its pulses. A pulse whose unitary has one nonzero
    entry per row, as every ideal pulse has, is an index gather and a
    phase on the raveled states, made once per distinct unitary; an arm
    with any other pulse, such as one with a flip error, is swept on all
    64 elements, and that pulse is applied as u rho u^dagger. The OU
    phase only scales an element, so every other element stays exactly
    0, and the support changes no output either. A segment's
    phase factors are made for a block of segments at once, at most
    128 KiB of them with their table (_FACTOR_BYTES).

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
    return _propagate(rho0, noise, n_steps, dt, trains, sample_steps, None)


def _propagate(rho0, noise, n_steps, dt, trains, sample_steps, held):
    """propagate_arms, with its checks; under the OU bath, ``held``, when
    not None, is every arm's unit table for all trajectories, filled
    already (calibrate_sigma's), which the sweep reads instead of drawing
    (``_ou_arms``)."""
    rho0 = check_density(rho0)
    check_grid(n_steps, dt)
    # 2 KiB a state: 64 complex in an arm's accumulator, and in decay's
    # overlay; float64 states, where a run keeps them real, take half
    _check_holds(len(sample_steps) * len(trains), 2048, "sampled states")
    marks = _check_steps(sample_steps, n_steps)
    for train in trains:
        if train:
            _check_steps(train, n_steps, "pulse")

    if noise.bath_mode == "correlated":
        means = _ou_arms(rho0, noise, n_steps, dt, trains, marks, held)
    else:
        # elementwise generator of the Lindblad dephasing
        gen = -np.tensordot(noise.kappa_z, _ZMASK, 1).ravel()
        means = [_stretches(rho0, train, marks, dt, gen, noise.kappa_x)
                 for train in trains]
    times = [k * dt for k in marks]
    return [measures.curve_from_states(times, m.reshape(-1, 8, 8), rho0)
            for m in means]


def _stretches(rho0, train, marks, dt, gen, kappa_x):
    """The states of one pulse train at the sample steps ``marks``, as
    rows (samples, 64), under the Markovian bath.

    A stretch runs from the start, or from a pulse step, to the next
    pulse step. Both dissipators are commuting Pauli channels, so the
    state tau seconds into a stretch that starts in rho_e is
    F(tau)(exp(tau gen) o rho_e), F the bit flips and o the elementwise
    product: one factor and three index gathers per qubit of flips. A
    first pass walks the pulses to each stretch's starting state, the
    state after its pulse; a second evaluates every sample, _BLOCK at a
    time, from the start of its stretch. A pulse acts before its step's
    sample, which is the state after the pulse.

    Both channels map real states to real ones, so when every starting
    state is exactly real (core.real_if_exact), as a pulse-free arm from
    a prepared state is, the second pass runs in float64 and returns
    float64 rows: the gathers, the exp factor and the flips give the
    real parts of the complex pass bit for bit, in about half the time.
    """
    def at(rho, taus):
        return _flips(np.exp(np.multiply.outer(taus, gen)) * rho,
                      kappa_x, taus[:, None])

    starts = sorted({0, *train})
    states = np.empty((len(starts), 64), dtype=complex)
    state = rho0.reshape(64).astype(complex)
    for s, k in enumerate(starts):
        if k > 0:
            state = at(state, np.array([dt * (k - starts[s - 1])]))[0]
        if k in train:
            state = _apply_unitary(state, train[k])[0]
        states[s] = state
    states = real_if_exact(states)
    # the stretch of each sample: the last that starts at or before it
    stretch = np.searchsorted(starts, marks, side="right") - 1
    taus = dt * (np.asarray(marks) - np.asarray(starts)[stretch])
    acc = np.zeros((len(marks), 64), dtype=states.dtype)
    for lo in range(0, len(marks), _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        acc[rows] += at(states[stretch[rows]], taus[rows])
    return acc


def _ou_arms(rho0, noise, n_steps, dt, trains, marks, held):
    """The trajectory means of every arm's states at the sample steps
    ``marks`` under the OU bath, as rows (samples, 64) per arm.

    Each arm's plan cuts its segments, marks the edges where half flips
    merge and finds its support (``_support``), once, and the qubits that
    support sees (``_seen``). The arms read the same tracks, so the run
    carries the qubits that some arm sees, and no other column. Each
    batch of up to _BATCH trajectories fills its rows of every arm's
    per-segment unit table on those qubits (``_fill_tables``), scales
    them by sigma dt in place, and sweeps them on the arm's support
    (``_sweep``); every element outside it is 0 in the means. ``held``,
    when not None, is every arm's unit table for all trajectories,
    filled already on the segments this plan cuts and the qubits it
    sees: each batch then scales and sweeps its rows of it, and no track
    is drawn.
    """
    row = {k: r for r, k in enumerate(marks)}
    # the OU phase does not commute with the bit flips: such segments
    # are Strang-split around the phase and kept short
    split = any(noise.kappa_x)
    # the cap in whole steps, at least one; the 1e-9 guard keeps a step
    # that divides it, such as 5 us, from losing one to rounding
    cap = max(1, math.floor(_MAX_SEGMENT_S / dt * (1.0 + 1e-9))) if split else n_steps
    # one verdict and one gather per distinct unitary, by id: every
    # train's unitaries stay referenced until the return
    distinct = {id(train[k]): train[k] for train in trains for k in train}
    commutes = {i: _commutes_with_flips(u) for i, u in distinct.items()}
    gathers = {i: _gather(u) for i, u in distinct.items()}
    flips = [flat for flat, kx in zip(_FLAT, noise.kappa_x) if kx != 0.0]

    def plan(train):
        edges = _segment_edges(sorted({*marks, *train, 0, n_steps}), cap)
        merge = [split and k not in row
                 and (k not in train or commutes[id(train[k])])
                 for k in edges[1:]]
        own = {id(u): gathers[id(u)] for u in train.values()}
        support = _support(rho0, flips + [None if g is None else g[0]
                                          for g in own.values()])
        # a qubit whose kappa_x is 0 flips nothing, and its gather is
        # never read
        flats = [_reindex(flat, support) for flat in _FLAT]
        # each monomial pulse as its gather and factor on the support
        local = {i: (_reindex(g[0], support), g[1][support])
                 for i, g in own.items() if g is not None}
        pulses = {k: local.get(id(u), u) for k, u in train.items()}
        return pulses, edges, dt * np.diff(edges), merge, flats, support

    arms = [plan(train) for train in trains]
    supports = [support for *_, support in arms]
    seen = np.array(sorted({q for s in supports for q in _seen(s)}), dtype=np.intp)
    cols = [_columns(seen, support) for support in supports]
    # each segment's first grid step, intp so that a grid of no steps,
    # whose only arm has no segment, still indexes
    starts = [np.array(edges[:-1], dtype=np.intp) for _, edges, *_ in arms]
    if held is None:
        # a batch's phases, one float64 per seen qubit per segment per
        # trajectory, (batch, segments, seen) per arm, allocated once and
        # refilled by every batch
        _check_holds(min(_BATCH, noise.trajectories) * sum(len(s) for s in starts),
                     8 * len(seen), "OU segment phases")
        tables = [np.empty((min(_BATCH, noise.trajectories), len(s), len(seen)))
                  for s in starts]
    # each arm's sampled sums on its support
    accs = [np.zeros((len(marks), len(s)), dtype=complex) for s in supports]
    for start in range(0, noise.trajectories, _BATCH):
        batch = range(start, min(start + _BATCH, noise.trajectories))
        if held is None:
            phis = [table[:len(batch)] for table in tables]
            _fill_tables(noise, batch, dt, n_steps, seen, starts, phis)
        else:
            phis = [table[start:batch.stop] for table in held]
        for arm, col, phi, acc in zip(arms, cols, phis, accs):
            phi *= noise.ou_sigma * dt
            _sweep(rho0, len(batch), arm, col, phi, noise.kappa_x, row, acc)
    means = [np.zeros((len(marks), 64), dtype=complex) for _ in arms]
    for mean, support, acc in zip(means, supports, accs):
        mean[:, support] = acc / noise.trajectories
    return means


def _sweep(rho0, width, arm, cols, phi, kappa_x, row, acc):
    """Run one arm's segments for a batch of ``width`` trajectories and
    add the batch's sum of each sampled state into its row of acc
    (samples, m).

    The states stay raveled and hold only the arm's support, the m
    elements it can reach (``_support``), as rows (width, m); every other
    element stays exactly 0, so the flips and each monomial pulse gather
    within the support, the pulse times its factor. A pulse that is not
    monomial keeps its arm on all 64 elements, and applies its unitary
    to the rows as they are. phi holds the batch's per-segment OU
    phases of the run's seen qubits, (width, segments, seen), and cols
    their columns at the support (_columns); a segment's phase factor
    takes one exp per seen qubit per trajectory, made for a block of
    segments at a time, of at most _FACTOR_BYTES (_phase_factors)."""
    pulses, edges, deltas, merge, flats, support = arm
    m = len(support)

    def pulse(states, k):
        if isinstance(pulses[k], tuple):
            gather, factor = pulses[k]
            return factor * states[:, gather]
        return _apply_unitary(states, pulses[k])

    block = max(1, _FACTOR_BYTES // (width * max(3 * phi.shape[-1], m) * 16))
    states = np.broadcast_to(rho0.reshape(64)[support], (width, m)).astype(complex)
    if 0 in pulses:
        states = pulse(states, 0)
    if 0 in row:
        acc[row[0]] += states.sum(axis=0)
    carried = 0.0  # half flip left over from a merged edge, in seconds
    for s, k in enumerate(edges[1:]):
        if s % block == 0:
            factors = _phase_factors(phi[:, s:s + block].transpose(1, 0, 2), cols)
        delta = deltas[s]
        # the OU bath replaces the Lindblad dephasing, so the phase
        # factor is the segment's whole elementwise factor
        states = (factors[s % block]
                  * _flips(states, kappa_x, carried + 0.5 * delta, flats))
        if merge[s]:
            carried = 0.5 * delta
        else:
            states = _flips(states, kappa_x, 0.5 * delta, flats)
            carried = 0.0
        if k in pulses:
            states = pulse(states, k)
        if k in row:
            acc[row[k]] += states.sum(axis=0)


_PLUS = np.full((2, 2), 0.5, dtype=complex)
_ONE_OVER_E = math.exp(-1.0)


def _unit_phases(table, dt):
    """Qubit 1's unit-sigma phases, (trajectories, segments + 1), from a
    unit table (trajectories, segments, seen) whose segments run from
    sample to sample and whose first column is qubit 1's: dt times the
    running sum of that column, 0 at the first sample."""
    phases = np.zeros((len(table), table.shape[1] + 1))
    np.cumsum(table[:, :, 0], axis=1, out=phases[:, 1:])
    phases *= dt
    return phases


def _closed_form_time(sigma, phases, times):
    """1/e time of |mean_j exp(-i sigma Phi_j)| from unit-sigma phases
    of shape (trajectories, samples)."""
    # one scratch table beside the phases: sigma Phi, its cos in place,
    # then sigma Phi again and its sin in place
    x = np.multiply(phases, sigma)
    re = np.cos(x, out=x).mean(axis=0)
    np.multiply(phases, sigma, out=x)
    return measures.first_crossing(
        times, np.hypot(re, np.sin(x, out=x).mean(axis=0)), _ONE_OVER_E)


def _bisect(phases, times, lo, hi, target):
    """Bisect sigma on the closed-form 1/e time until it is within 0.5% of
    target or the bracket is 1e-3 wide. Returns (sigma, its 1/e time,
    iterations, final bracket (lo, T(lo), hi, T(hi)))."""
    t_lo = _closed_form_time(lo, phases, times)
    t_hi = _closed_form_time(hi, phases, times)
    # more noise decays faster: t(lo) must sit above the target, t(hi) below
    if not (t_lo > target > t_hi):
        raise RuntimeError(
            "no bracket: 1/e times [%.4g, %.4g] s do not straddle %.4g s"
            % (t_hi, t_lo, target))
    sigma, achieved, iterations = lo, t_lo, 0
    for _ in range(60):
        iterations += 1
        sigma = 0.5 * (lo + hi)
        achieved = _closed_form_time(sigma, phases, times)
        if abs(achieved - target) <= 0.005 * target:
            break
        if achieved > target:
            lo, t_lo = sigma, achieved
        else:
            hi, t_hi = sigma, achieved
        # T(sigma) falls with sigma but need not be continuous: the mean
        # coherence can dip, recover and cross 1/e again later, so the
        # first crossing may jump across the target inside any bracket
        if hi - lo <= 1e-3 * hi:
            break
    return sigma, achieved, iterations, (lo, t_lo, hi, t_hi)


def calibrate_sigma(t2, tau_c, trajectories, seed, sigma_lo, sigma_hi):
    """OU sigma at which qubit 1's coherence falls to 1/e at t2 seconds.

    Under the OU bath alone (tau_c > 0 s, ``trajectories`` tracks seeded
    from ``seed``) the qubit-1 coherence 2|rho_04| of |+>|00> is
    |mean_j exp(-i sigma Phi_j)|, Phi_j trajectory j's unit-sigma phase.
    Each track is drawn once, into the engine's per-segment unit table of
    the one pulse-free arm, held for all trajectories (``_fill_tables``)
    on the qubits its support sees (``_seen``): qubit 1 alone, as qubits
    2 and 3 agree on all four elements of |+><+| (x) |00><00|. With no
    bit flips and no pulses the segments run from sample to sample, so
    Phi_j at each sample is dt times the running sum of the table's one
    column, and every step of a bisection over [sigma_lo, sigma_hi]
    rescales those phases. They are released when it ends, and the
    sigma it settles on is run once through the engine, with every check
    of ``propagate_arms``, on the same grid and samples: that run scales
    the held table by sigma dt in place and sweeps it.
    Returns (sigma, that run's 1/e time, iterations). ValueError, before
    any track is drawn, if the table, 8 B per segment per trajectory, is
    past the 768 MiB a run may hold (100,663,296 segment phases; the
    phases and a bisection step's scratch hold 8 B per sample each);
    RuntimeError if the bracket does not straddle t2 or the time ends
    over 2% off; NumericalError if it is over 1e-9 t2 from the closed
    form's.
    """
    noise = NoiseModel(kappa_x=(0.0, 0.0, 0.0), kappa_z=(0.0, 0.0, 0.0),
                       bath_mode="correlated", ou_tau_c=tau_c,
                       trajectories=trajectories, seed=seed)
    # the coherence grid of both passes: 2.5 T2 in the steps the bath
    # allows and no longer than T2/1000, sampled about 500 times
    t_final = 2.5 * t2
    n = max(steps_per(noise, t_final), fit_grid(t_final, t2 / 1000.0)[0])
    dt = t_final / n
    every = max(1, n // 500)
    steps = sorted(set(range(0, n + 1, every)) | {n})
    times = np.array([k * dt for k in steps])
    # the segments the engine cuts for this arm, one per sample interval,
    # and the qubits it sees
    starts = np.array(steps[:-1], dtype=np.intp)
    rho0 = np.kron(_PLUS, np.kron(P0, P0))
    seen = _seen(_support(rho0, []))
    _check_holds(trajectories * len(starts), 8 * len(seen), "OU segment phases")
    table = np.empty((trajectories, len(starts), len(seen)))
    _fill_tables(noise, range(trajectories), dt, n, seen, [starts], [table])
    sigma, predicted, iterations, (lo, t_lo, hi, t_hi) = _bisect(
        _unit_phases(table, dt), times, sigma_lo, sigma_hi, t2)
    curve = _propagate(rho0, replace(noise, ou_sigma=sigma), n, dt, [{}],
                       steps, [table])[0]
    achieved = measures.first_crossing(
        curve.times, 2.0 * np.abs(curve.states[:, 0, 4]), _ONE_OVER_E)
    if not math.isclose(achieved, predicted, rel_tol=0.0, abs_tol=1e-9 * t2):
        raise NumericalError(
            "at sigma = %.12g rad/s the engine's 1/e time %.12g s differs "
            "from the closed form's %.12g s" % (sigma, achieved, predicted))
    if abs(achieved - t2) > 0.02 * t2:
        raise RuntimeError(
            "calibration stalled %.2f%% from the target 1/e time %.4g s: the "
            "first 1/e crossing jumps across it, from %.4g s at sigma = %.10g "
            "rad/s to %.4g s at sigma = %.10g rad/s"
            % (100.0 * abs(achieved - t2) / t2, t2, t_lo, lo, t_hi, hi))
    return sigma, achieved, iterations
