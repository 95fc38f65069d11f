"""Arrival count of a fixed scene against the cubic law and the anchored
approximation, written as one CSV.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from roomchan import theory
from roomchan._csv import write_csv
from roomchan.antenna import Isotropic
from roomchan.channel import RadioConfig, arrival_count_curve, enumerate_paths
from roomchan.geometry import Room


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/count_vs_asymptote.csv")
    parser.add_argument("--tau-max", type=float, default=120e-9)
    args = parser.parse_args()
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)

    room = Room((5.0, 5.0, 3.0), 0.6)
    radio = RadioConfig.from_center_frequency(60e9, 2e9)
    iso = Isotropic()
    tx = np.array([2.5, 2.5, 1.5])
    rx = np.array([3.8, 4.0, 0.6])

    paths = enumerate_paths(room, tx, iso, rx, iso, radio, args.tau_max)
    scene = theory.SceneSummary.from_components(room, radio, iso, iso, tx, rx)
    taus = np.linspace(0.0, args.tau_max, 481)
    exact = arrival_count_curve(paths, taus)
    cubic = theory.eyring_count(scene, taus)
    anchored = theory.approx_count(scene, taus)

    write_csv(
        args.out, "tau_seconds,exact_count,cubic_law,anchored_approximation",
        taus, exact, cubic, anchored,
    )

    at_100 = exact[np.argmin(np.abs(taus - 100e-9))]
    print(f"N(100 ns) = {at_100}, cubic law {theory.eyring_count(scene, 100e-9):.1f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
