"""Seven-setting state tomography, simulated and reconstructed.

Simulates line-resolved readout of the W state under each of the seven
pulse settings (24 real numbers per setting: x- and y-components of
every transition line), then feeds the 168 numbers to the
maximum-likelihood reconstructor and compares the estimate with the
true state. Repeats with increasing Gaussian readout noise to show the
graceful degradation.

Run:  python3 demos/tomography_roundtrip.py   (under 1 s)
"""

from triq import fidelity, mle_reconstruct, prepare_w, tomograph

NOISE_LEVELS = (0.0, 0.01, 0.05, 0.1)
SEED = 3


def main():
    rho = prepare_w()
    print("reconstructing the W state from 7 settings x 24 readout values")
    print()
    print("readout sigma   fidelity to truth")
    for sigma in NOISE_LEVELS:
        records = tomograph(rho, noise_sigma=sigma, seed=SEED)
        est = mle_reconstruct(records)
        print("    %5.2f          %8.6f" % (sigma, fidelity(rho, est)))
    print()
    print("noise-free readout reproduces the state to reconstruction")
    print("tolerance; percent-level line noise costs a few percent fidelity")


if __name__ == "__main__":
    main()
