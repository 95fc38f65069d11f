"""Smoke tests of the scripts, the campaign configs and the parity scenes: each exits 0 and writes its files.

``bundle_diff.py`` runs in a throwaway git repository holding ``src/`` and
``scripts/``, so that it has a revision to compare against.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from roomchan import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
BUNDLE = ("counts.csv", "power.csv", "ecdf_mean_delay.csv", "ecdf_rms.csv",
          "manifest.json", "report.json")

CASES = {
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


@pytest.mark.parametrize("setting", ["isotropic", "hemisphere", "quarter"])
def test_campaign_config_writes_its_bundle(tmp_path, monkeypatch, setting):
    # output.directory is relative to the working directory.
    monkeypatch.chdir(tmp_path)
    config = SCRIPTS / "campaign" / f"{setting}.json"
    assert cli.main(["--config", str(config), "mc", "--runs", "2"]) == 0
    bundle = tmp_path / "results" / "campaign" / setting
    for name in BUNDLE:
        assert (bundle / name).is_file(), name
    assert json.loads((bundle / "manifest.json").read_text())["seed"] == 202


@pytest.mark.parametrize("scene", sorted(p.stem for p in (SCRIPTS / "parity").glob("*.json")))
def test_parity_scene_runs(tmp_path, scene):
    config = str(SCRIPTS / "parity" / f"{scene}.json")
    assert cli.main(["--config", config, "mc", "--runs", "2", "--out-dir", str(tmp_path / "mc")]) == 0
    for name in BUNDLE:
        assert (tmp_path / "mc" / name).is_file(), name
    if "positions" in json.loads(Path(config).read_text()):
        assert cli.main(["--config", config, "paths", "--out", str(tmp_path / "paths.csv")]) == 0
        assert (tmp_path / "paths.csv").is_file()


def test_bundle_diff_names_changed_files(tmp_path):
    repo = tmp_path / "repo"
    for part in ("src", "scripts"):
        shutil.copytree(ROOT / part, repo / part, ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(repo), "-c", "user.name=test", "-c", "user.email=test@example.com"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], check=True)
    mc = {"tau_max_s": 30e-9, "moment_cutoff_s": 30e-9,
          "grid": {"start_s": 0.0, "stop_s": 30e-9, "step_s": 1e-9}}
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "antennas": {side: {"pattern": "cap", "beam_fraction": 0.5, "aim": "los"}
                     for side in ("tx", "rx")},
        "positions": {"tx_m": [2.5, 2.5, 1.5], "rx_m": [3.8, 4.0, 0.6]},
        "mc": mc,
    }))
    fixed_rx = tmp_path / "fixed-rx.json"
    fixed_rx.write_text(json.dumps({
        "antennas": {side: {"pattern": "cap", "beam_fraction": 0.5} for side in ("tx", "rx")},
        "mc": dict(mc, mode="fixed-rx",
                   fixed={"rx_position_m": [3.8, 4.0, 0.6], "rx_orientation": [0.0, 0.0, 1.0]}),
    }))

    def bundle_diff(*configs):
        argv = [a for config in configs for a in ("--config", str(config))]
        return subprocess.run(
            [sys.executable, str(repo / "scripts" / "bundle_diff.py"), "--base", "HEAD",
             "--runs", "3", "--seed", "5"] + argv,
            capture_output=True, text=True, timeout=300,
        )

    bundle = [f"mc/{name}" for name in BUNDLE]
    done = bundle_diff(scene, fixed_rx)
    assert done.returncode == 0, done.stderr
    lines = dict(line.split(": ", 1) for line in done.stdout.splitlines())
    assert sorted(lines) == sorted(
        [f"scene/{name}" for name in bundle]
        + ["scene/paths.csv", "scene/signal_carrier.csv", "scene/signal_random.csv"]
        + [f"scene/theory/{name}.csv" for name in ("count", "rate", "pds", "mixing")]
        + [f"fixed-rx/{name}" for name in bundle]
    )
    assert set(lines.values()) == {"identical"}

    same_stem = tmp_path / "other"
    same_stem.mkdir()
    shutil.copy(scene, same_stem / "scene.json")
    assert bundle_diff(scene, same_stem / "scene.json").returncode == 2

    writer = repo / "src" / "roomchan" / "_csv.py"
    writer.write_text(writer.read_text().replace("{:.17g}", "{:.16g}"))
    done = bundle_diff(scene, fixed_rx)
    assert done.returncode == 1, done.stderr
    lines = dict(line.split(": ", 1) for line in done.stdout.splitlines())
    for name in ("scene/mc/power.csv", "scene/paths.csv", "scene/signal_carrier.csv",
                 "scene/signal_random.csv", "scene/theory/pds.csv", "scene/theory/mixing.csv",
                 "fixed-rx/mc/power.csv"):
        assert lines[name].startswith("different, max relative difference"), name
    assert lines["scene/mc/manifest.json"] == "identical"
    assert lines["fixed-rx/mc/manifest.json"] == "identical"


def test_cli_imports_no_schema_engine():
    # numpy is the only runtime dependency pyproject.toml declares.
    code = "import sys, roomchan.cli; print('jsonschema' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
