import dataclasses
import inspect
import os
import subprocess
import sys

import pytest

import roomchan
from roomchan import antenna, channel, geometry, montecarlo, theory

PUBLIC = [
    "AntennaPattern", "Ecdf", "Isotropic", "McConfig", "McEstimate", "McResult",
    "PathList", "RadioConfig", "Room", "SampleGrid", "SceneSummary", "SignalTrace",
    "SphericalCap", "TheoryCurve", "arrival_count_curve", "ecdf", "enumerate_indices",
    "enumerate_paths", "run_ensemble", "sample_orientation", "sample_position",
    "signal_moments", "sinc_pulse", "synthesize_signal",
]

# Scalar twins of the vectorised image formulas, test-only helpers and
# duplicate kernels that the package no longer has.
REMOVED = {
    geometry: [
        "MirrorIndex", "arrival_direction", "departure_from_arrival",
        "mirror_receiver_index", "mirror_receiver_position", "mirror_source_position",
        "path_delay", "reflection_gain", "wall_interaction_counts",
    ],
    channel: ["PathComponent", "arrival_count", "MAX_ENSEMBLE_POINTS", "_Workspace", "_WORKSPACE"],
    channel.SignalTrace: ["window"],
    montecarlo: [
        "_WORKER_STATE", "_init_worker", "_worker_block", "_row_sums", "_oriented", "_records",
        "_simulate_runs", "_LOCK_WAIT", "_run_tables", "_block_runs",
    ],
    montecarlo.McConfig: ["row_layout", "_grid_points", "tx_orientation", "rx_orientation", "fixed_boresights"],
    theory: ["_cubic_count", "_rate_density", "_CUBES"],
}


def test_public_names_are_pinned():
    assert sorted(roomchan.__all__) == PUBLIC and len(set(PUBLIC)) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(roomchan, name) is not None


@pytest.mark.parametrize(
    "module,name", [(module, name) for module, names in REMOVED.items() for name in names]
)
def test_removed_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(roomchan, name)


def test_mc_config_fields_are_pinned():
    # A fixed boresight is its pattern's aim; only the receiver's position is a field of its own.
    assert [f.name for f in dataclasses.fields(montecarlo.McConfig)] == [
        "room", "radio", "tx_pattern", "rx_pattern", "runs", "seed", "mode", "tau_max", "phase_mode",
        "moment_cutoff", "grid_start", "grid_stop", "grid_step", "rx_position", "distance", "max_cells",
    ]


def test_path_list_is_not_a_sequence_of_records():
    assert not hasattr(channel.PathList, "__getitem__")
    assert not hasattr(channel.PathList, "__iter__")


def test_isotropic_support_comes_from_the_base_rule():
    assert "in_support" not in vars(antenna.Isotropic)
    assert antenna.Isotropic().in_support([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]).tolist() == [True, True]


def test_compare_with_theory_takes_only_the_result():
    params = list(inspect.signature(montecarlo.compare_with_theory).parameters)
    assert params == ["result"]


def test_write_bundle_needs_a_report():
    params = inspect.signature(montecarlo.write_bundle).parameters.values()
    assert [p.name for p in params] == ["result", "out_dir", "manifest", "report"]
    assert all(p.default is inspect.Parameter.empty for p in params)


def test_cli_import_leaves_multiprocessing_unloaded():
    # Ensemble workers come from os.fork, so the entry point never pays for importing multiprocessing.
    code = "import sys, roomchan.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    src = os.path.dirname(os.path.dirname(roomchan.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
