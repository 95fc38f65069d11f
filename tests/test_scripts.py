"""Smoke test of the example scripts: each runs to exit 0 and writes its files.

``bundle_diff.py`` is left out: it compares against a git revision.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

CASES = {
    "run_campaign.py": (
        ["--runs", "2", "--threads", "1", "--out-dir", "{out}"],
        [f"{setting}/{name}" for setting in ("isotropic", "hemisphere", "quarter")
         for name in ("counts.csv", "power.csv", "ecdf_mean_delay.csv", "ecdf_rms.csv",
                      "manifest.json", "report.json")],
    ),
    "count_vs_asymptote.py": (["--out", "{out}/count.csv"], ["count.csv"]),
    "signal_examples.py": (
        ["--out-dir", "{out}"],
        [f"trace_product_{f * f:g}.csv" for f in (1.0, 0.5, 0.25, 0.125)],
    ),
    "mixing_time_sweep.py": (["--out", "{out}/mixing.csv"], ["mixing.csv"]),
}


@pytest.mark.parametrize("script", sorted(CASES))
def test_script_runs(tmp_path, script):
    args, expected = CASES[script]
    argv = [a.format(out=tmp_path) for a in args]
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script)] + argv, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in expected:
        assert (tmp_path / name).is_file(), name
