"""Received-signal examples for a fixed scene at several beam widths.

Synthesizes |y(t)|^2 traces for line-of-sight-aimed cap antennas with beam
coverage products 1, 0.25, 0.0625, and 0.015625, writes one CSV per setting,
and prints the fitted late-tail decay time of each trace.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from roomchan.antenna import Isotropic, SphericalCap
from roomchan.channel import RadioConfig, enumerate_paths, synthesis_grid, synthesize_signal
from roomchan.geometry import Room
from roomchan.montecarlo import fit_decay_time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results/signal_examples")
    parser.add_argument("--tau-max", type=float, default=120e-9)
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    room = Room((5.0, 5.0, 3.0), 0.6)
    radio = RadioConfig.from_center_frequency(60e9, 2e9)
    tx = np.array([2.5, 2.5, 1.5])
    rx = np.array([3.8, 4.0, 0.6])
    los = (rx - tx) / np.linalg.norm(rx - tx)

    grid = synthesis_grid(radio, args.tau_max)

    for fraction in (1.0, 0.5, 0.25, 0.125):
        if fraction >= 1.0:
            tx_pattern, rx_pattern = Isotropic(), Isotropic()
        else:
            tx_pattern = SphericalCap(fraction, los)
            rx_pattern = SphericalCap(fraction, -los)
        paths = enumerate_paths(room, tx, tx_pattern, rx, rx_pattern, radio, args.tau_max)
        trace = synthesize_signal(paths, radio, grid)
        name = f"trace_product_{fraction * fraction:g}.csv"
        trace.to_csv(os.path.join(args.out_dir, name))
        decay = fit_decay_time(trace.times(), trace.abs2, (40e-9, 110e-9))
        print(
            f"coverage product {fraction * fraction:g}: {len(paths)} paths, "
            f"tail decay {decay * 1e9:.2f} ns -> {name}"
        )


if __name__ == "__main__":
    main()
