"""Full ensemble campaign: random terminals at three beam-coverage settings.

Writes one results bundle (counts, power, moment distributions, report)
per setting and prints the headline comparisons against the closed forms.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from roomchan.antenna import Isotropic, SphericalCap
from roomchan.channel import RadioConfig
from roomchan.geometry import Room
from roomchan.montecarlo import McConfig, compare_with_theory, run_ensemble, write_bundle


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results/campaign")
    parser.add_argument("--runs", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=202)
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()

    room = Room((5.0, 5.0, 3.0), 0.6)
    radio = RadioConfig.from_center_frequency(60e9, 2e9)
    settings = {
        "isotropic": Isotropic(),
        "hemisphere": SphericalCap(0.5),
        "quarter": SphericalCap(0.25),
    }

    for name, pattern in settings.items():
        cfg = McConfig(room=room, radio=radio, tx_pattern=pattern, rx_pattern=pattern,
                       runs=args.runs, seed=args.seed)
        t0 = time.time()
        result = run_ensemble(cfg, workers=args.threads)
        report = compare_with_theory(result)
        out = os.path.join(args.out_dir, name)
        write_bundle(result, out, {"seed": cfg.seed, "runs": cfg.runs, "setting": name}, report)
        checks = {k: v["pass"] for k, v in report["checks"].items()}
        print(f"{name}: {time.time()-t0:.0f} s, missing {result.missing_moments}, "
              f"checks {json.dumps(checks)} -> {out}")


if __name__ == "__main__":
    main()
