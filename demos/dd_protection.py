"""GHZ entanglement kept alive by XY-16(s) under a slow dephasing bath.

The Markovian picture undersells dynamical decoupling: pi pulses
commute through memoryless dissipators, so nothing is gained. With
dephasing modeled instead as per-qubit Ornstein-Uhlenbeck frequency
noise (correlation time 10 ms), the pulses refocus what the bath has
not yet forgotten. This script runs the paired protected/unprotected
ensembles and prints the tripartite-negativity ratio cycle by cycle.

sigma below was calibrated with `triq calibrate` so the unprotected
single-qubit coherence 1/e time reproduces T2 of qubit 1 (0.53 s).

Run:  python3 demos/dd_protection.py   (~2 s)
"""

from triq import (
    NoiseModel,
    build_xy16s,
    cycle_duration,
    prepare_ghz,
    run_protected,
)

SIGMA = 13.7117919922   # rad/s, calibrated at tau_c = 10 ms (seed 11, 512 traj.)
TAU_C = 0.01
TAU = 0.25e-3           # inter-pulse delay; cycle = 16 tau = 4 ms
CYCLES = 60             # -> 240 ms total
TRAJECTORIES = 16
SEED = 2026


def main():
    noise = NoiseModel.from_times(
        bath_mode="correlated", ou_sigma=SIGMA, ou_tau_c=TAU_C,
        trajectories=TRAJECTORIES, seed=SEED)
    schedule = build_xy16s(TAU, cycles=CYCLES)
    total = schedule.cycles * cycle_duration(schedule)

    print("XY-16(s), tau = %g ms, %d cycles = %g ms, %d trajectories"
          % (TAU * 1e3, schedule.cycles, total * 1e3, TRAJECTORIES))
    # both arms run on one time grid, so they see identical noise
    # tracks, and the pulse offsets (j + 1/2) tau land on step boundaries
    protected, free = run_protected(prepare_ghz(), noise, schedule)

    print()
    print("  time      N3_tri prot.   N3_tri free    ratio")
    for k in range(0, len(protected.times), 10):
        p, u = protected.n3_tri[k], free.n3_tri[k]
        print("%6.0f ms   %10.4f   %11.4f   %6.2f"
              % (protected.times[k] * 1e3, p, u, p / u if u > 0 else float("inf")))
    pf = protected.n3_tri[-1] / free.n3_tri[-1]
    print()
    print("protection factor at %g ms: %.2f" % (total * 1e3, pf))


if __name__ == "__main__":
    main()
