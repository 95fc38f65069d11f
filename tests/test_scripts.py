"""Smoke tests of the scripts: each runs to exit 0 and writes its files.

``bundle_diff.py`` runs in a throwaway git repository holding ``src/`` and
``scripts/``, so that it has a revision to compare against.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

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


def test_bundle_diff_names_changed_files(tmp_path):
    repo = tmp_path / "repo"
    for part in ("src", "scripts"):
        shutil.copytree(ROOT / part, repo / part, ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(repo), "-c", "user.name=test", "-c", "user.email=test@example.com"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], check=True)
    config = tmp_path / "scene.json"
    config.write_text(json.dumps({
        "antennas": {side: {"pattern": "cap", "beam_fraction": 0.5, "aim": "los"}
                     for side in ("tx", "rx")},
        "positions": {"tx_m": [2.5, 2.5, 1.5], "rx_m": [3.8, 4.0, 0.6]},
        "mc": {"tau_max_s": 30e-9, "moment_cutoff_s": 30e-9,
               "grid": {"start_s": 0.0, "stop_s": 30e-9, "step_s": 1e-9}},
    }))

    def bundle_diff():
        return subprocess.run(
            [sys.executable, str(repo / "scripts" / "bundle_diff.py"), "--base", "HEAD",
             "--config", str(config), "--runs", "3", "--seed", "5"],
            capture_output=True, text=True, timeout=300,
        )

    done = bundle_diff()
    assert done.returncode == 0, done.stderr
    lines = dict(line.split(": ", 1) for line in done.stdout.splitlines())
    assert sorted(lines) == sorted(
        [f"mc/{name}" for name in ("counts.csv", "power.csv", "ecdf_mean_delay.csv",
                                   "ecdf_rms.csv", "manifest.json", "report.json")]
        + ["paths.csv", "signal_carrier.csv", "signal_random.csv"]
        + [f"theory/{name}.csv" for name in ("count", "rate", "pds", "mixing")]
    )
    assert set(lines.values()) == {"identical"}

    writer = repo / "src" / "roomchan" / "_csv.py"
    writer.write_text(writer.read_text().replace("{:.17g}", "{:.16g}"))
    done = bundle_diff()
    assert done.returncode == 1, done.stderr
    lines = dict(line.split(": ", 1) for line in done.stdout.splitlines())
    for name in ("mc/power.csv", "paths.csv", "signal_carrier.csv", "signal_random.csv",
                 "theory/pds.csv", "theory/mixing.csv"):
        assert lines[name].startswith("different, max relative difference"), name
    assert lines["mc/manifest.json"] == "identical"
