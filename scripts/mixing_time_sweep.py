"""Mixing time versus bandwidth-to-coverage ratio for a family of room volumes."""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from roomchan import theory
from roomchan._csv import write_csv
from roomchan.antenna import Isotropic
from roomchan.channel import RadioConfig
from roomchan.geometry import Room


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/mixing_time_sweep.csv")
    args = parser.parse_args()
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)

    volumes = (10.0, 30.0, 100.0, 300.0, 1000.0)
    ratios = np.logspace(8, 12, 81)  # bandwidth / coverage product, in Hz
    c = 3e8

    # spot value: 5 x 5 x 3 room, 2 GHz, isotropic antennas
    scene = theory.SceneSummary(Room((5.0, 5.0, 3.0), 0.6), RadioConfig(0.005, 2e9, c), Isotropic(), Isotropic())
    # With unit fractions the bandwidth is the ratio itself; the mixing time
    # depends on the volume and bandwidth only, so a v x 1 x 1 room stands for volume v.
    rooms = [Room((v, 1.0, 1.0), 0.6) for v in volumes]
    radios = [replace(scene.radio, bandwidth=ratio) for ratio in ratios]
    columns = [[theory.mixing_time(replace(scene, room=room, radio=radio)) for radio in radios] for room in rooms]
    header = "bandwidth_over_coverage_hz," + ",".join(f"tau_mix_s_V{v:g}" for v in volumes)
    write_csv(args.out, header, ratios, *columns)

    print(f"reference mixing time: {theory.mixing_time(scene) * 1e9:.2f} ns")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
