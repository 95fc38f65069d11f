import dataclasses
import fcntl
import glob
import mmap
import os
import signal
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from roomchan import channel, cli, config, geometry, montecarlo, theory
from roomchan.antenna import (
    AntennaPattern,
    Isotropic,
    SphericalCap,
    sample_orientation,
    sample_position,
    unit_boresight,
)
from roomchan.channel import (
    RadioConfig,
    SignalTrace,
    arrival_count_curve,
    enumerate_paths,
    signal_moments,
    synthesize_signal,
)
from roomchan.errors import ConfigError, EmptySampleError, ResourceLimitError, ZeroEnergyError
from roomchan.geometry import Room
from roomchan.montecarlo import (
    Ecdf,
    McConfig,
    McEstimate,
    McResult,
    compare_power_curves,
    compare_with_theory,
    ecdf,
    fit_decay_time,
    run_ensemble,
    write_bundle,
)

ROOM = Room((5.0, 5.0, 3.0), 0.6)
RADIO = RadioConfig.from_center_frequency(60e9, 2e9, 3e8)
ISO = Isotropic()


def quick_config(**kw):
    defaults = dict(
        room=ROOM, radio=RADIO, tx_pattern=ISO, rx_pattern=ISO,
        runs=6, seed=99, tau_max=40e-9, moment_cutoff=40e-9,
        grid_stop=40e-9, grid_step=1e-9,
    )
    defaults.update(kw)
    return McConfig(**defaults)


CAP_DOC = {"pattern": "cap", "beam_fraction": 0.5}


def fixed_document(mode, antennas, **orientations):
    """A default-filled document of ``mode`` with these ``antennas``, the receiver at (1, 1, 1) and ``mc/fixed`` orientations."""
    fixed = dict(rx_position_m=[1.0, 1.0, 1.0], **orientations)
    return config._merge(config.DEFAULTS, {"antennas": antennas, "mc": {"mode": mode, "fixed": fixed}})


class TestMcConfigValidation:
    def test_rejects_zero_runs(self):
        with pytest.raises(ConfigError):
            quick_config(runs=0)

    def test_rejects_grid_beyond_horizon(self):
        with pytest.raises(ConfigError):
            quick_config(grid_stop=50e-9)

    def test_rejects_cutoff_beyond_horizon(self):
        with pytest.raises(ConfigError):
            quick_config(moment_cutoff=50e-9)

    @pytest.mark.parametrize("cutoff", [-1e-6, -5e-9, 0.0])
    def test_rejects_cutoff_at_or_before_zero(self, cutoff):
        with pytest.raises(ConfigError, match="moment cutoff must be positive"):
            quick_config(moment_cutoff=cutoff)

    @pytest.mark.parametrize("seed", [2**63, 2**64 - 1, 2**64, -2**63 - 1])
    def test_rejects_seed_outside_key_word(self, seed):
        with pytest.raises(ConfigError, match="seed must lie in"):
            quick_config(seed=seed)

    def test_fixed_rx_needs_position(self):
        with pytest.raises(ConfigError):
            quick_config(mode="fixed-rx")

    def test_fixed_rx_directive_needs_orientation(self):
        doc = fixed_document("fixed-rx", {"rx": CAP_DOC})
        with pytest.raises(ConfigError, match="^mode 'fixed-rx' needs rx_orientation for a directive pattern$"):
            config.build_mc_config(doc)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field,mode", [
        ("rx_orientation", "fixed-rx"), ("rx_orientation", "fixed-orientation-tx"),
        ("tx_orientation", "fixed-orientation-tx"),
    ])
    @pytest.mark.parametrize("vector", [(1e200, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0)])
    def test_fixed_orientation_needs_a_positive_finite_norm(self, field, mode, vector):
        orientations = dict(rx_orientation=(0.0, 0.0, 1.0), tx_orientation=(1.0, 0.0, 0.0))
        orientations[field] = vector
        doc = fixed_document(mode, {"tx": CAP_DOC, "rx": CAP_DOC}, **orientations)
        with pytest.raises(ConfigError, match=f"^{field}: boresight must"):
            config.build_mc_config(doc)

    def test_fixed_distance_needs_feasible_distance(self):
        with pytest.raises(ConfigError):
            quick_config(mode="fixed-distance")
        with pytest.raises(ConfigError):
            quick_config(mode="fixed-distance", distance=100.0)

    def test_fixed_tx_boresight_needed_only_for_a_directive_transmitter(self):
        with pytest.raises(ConfigError, match="^mode 'fixed-orientation-tx' needs tx_orientation for a directive"):
            config.build_mc_config(fixed_document("fixed-orientation-tx", {"tx": CAP_DOC}))
        cfg = config.build_mc_config(fixed_document("fixed-orientation-tx", {}))
        assert isinstance(cfg.tx_pattern, Isotropic) and isinstance(cfg.rx_pattern, Isotropic)
        assert montecarlo._draw_terminals(cfg, montecarlo.run_rng(cfg.seed, 0))[1::2] == (None, None)

    def test_a_directive_pattern_keeps_its_own_aim_in_a_fixed_mode(self):
        # The API takes the pattern's aim, +z by default, as enumerate_paths does.
        cfg = quick_config(mode="fixed-orientation-tx", tx_pattern=SphericalCap(0.5), rx_position=(1, 1, 1))
        assert montecarlo._draw_terminals(cfg, montecarlo.run_rng(cfg.seed, 0))[1].tolist() == [0.0, 0.0, 1.0]

    def test_fixed_position_is_a_read_only_copy(self):
        position = np.array([1.0, 2.0, 1.2])
        cfg = quick_config(mode="fixed-rx", rx_position=position)
        position[0] = 9.0
        assert cfg.rx_position.tolist() == [1.0, 2.0, 1.2]
        with pytest.raises(ValueError, match="read-only"):
            cfg.rx_position[1] = 4.0
        assert run_ensemble(cfg).rows["rx_position"].tolist() == [[1.0, 2.0, 1.2]] * cfg.runs

    def test_fixed_distance_refused_where_placing_takes_too_many_draws(self):
        # p(7 m) = 1.06e-5 in the 5 x 5 x 3 m room: 94,000 draws a run.
        refusal = r"^a distance of 7 m places the terminals with probability 1\.06e-05 a draw"
        with pytest.raises(ConfigError, match=refusal):
            quick_config(mode="fixed-distance", distance=7.0)
        # p(6.5 m) = 2.5e-4: 4,000 draws a run.
        assert quick_config(mode="fixed-distance", distance=6.5).distance == 6.5

    @pytest.mark.parametrize("distance", [0.5, 1.5, 3.0, 5.0, 6.0, 6.5, 7.0])
    def test_placement_probability_matches_a_dense_rule(self, distance):
        # A 1024 x 1024 midpoint rule over the octant in cos(theta) and phi.
        cos_theta = (np.arange(1024) + 0.5) / 1024
        phi = (np.arange(1024) + 0.5) / 1024 * np.pi / 2
        sin_theta = np.sqrt(1.0 - cos_theta**2)[:, None]
        u = (sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta[:, None])
        inside = np.ones((1024, 1024))
        for u_i, length in zip(u, ROOM.lengths):
            inside *= np.maximum(0.0, 1.0 - distance * u_i / length)
        assert montecarlo._placement_probability(ROOM, distance) == pytest.approx(inside.mean(), rel=2e-3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            quick_config(mode="sideways")

    @pytest.mark.parametrize("stop,step", [(1e-9, 5e-9), (1e-9, 2e-9)])
    def test_rejects_one_point_grid(self, stop, step):
        with pytest.raises(ConfigError, match="count grid must hold at least two points"):
            quick_config(grid_start=0.0, grid_stop=stop, grid_step=step)
        assert len(quick_config(grid_start=0.0, grid_stop=stop, grid_step=stop).grid) == 2

    @pytest.mark.parametrize("stop,step", [(10e-9, 4e-9), (10e-9, 3e-9), (10e-9, 1e-9 * (1 + 1e-8))])
    def test_rejects_grid_span_off_the_steps(self, stop, step):
        with pytest.raises(ConfigError, match="mc/grid"):
            quick_config(grid_start=0.0, grid_stop=stop, grid_step=step)

    def test_grid_span_within_a_billionth_of_a_step(self):
        grid = quick_config(grid_start=0.0, grid_stop=10e-9, grid_step=1e-9 * (1 + 1e-11)).grid
        assert len(grid) == 11 and grid[-1] == 10e-9

    def test_raw_curve_cap(self):
        grid_120ns = dict(tau_max=120e-9, moment_cutoff=120e-9, grid_stop=120e-9, grid_step=0.25e-9)
        assert quick_config(runs=80_000, **grid_120ns).runs == 80_000
        layout = quick_config(**grid_120ns).layout
        # uint16 counts on the 481-point grid of the 12,789-cell cube.
        assert layout["counts"].base == np.uint16 and layout.itemsize == 4944
        row = layout.itemsize
        runs = montecarlo.MAX_ENSEMBLE_BYTES // row
        assert quick_config(runs=runs, **grid_120ns).runs == runs
        with pytest.raises(ResourceLimitError, match="cap"):
            quick_config(runs=runs + 1, **grid_120ns)

    # Values the document loader refuses, given through the API: a NaN
    # cutoff used to let the moments span the whole padded grid, a NaN step
    # raised numpy's ValueError, 1.5 and True ran as seed 1, and 2.5 runs
    # raised a TypeError from mmap.
    @pytest.mark.parametrize("field,value,message", [
        ("moment_cutoff", float("nan"), "moment cutoff must be positive"),
        ("grid_step", float("nan"), "grid step must be positive"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", True, "seed must be an integer"),
        ("runs", 2.5, "runs must be an integer of at least 1"),
    ])
    def test_rejects_what_is_not_a_number_or_not_an_integer(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            quick_config(**{field: value})

    def test_numpy_integers_are_integers(self):
        cfg = quick_config(runs=np.int32(2), seed=np.int64(-5))
        assert (cfg.runs, cfg.seed) == (2, -5)
        # 500,000 rows of 4,944 bytes: an int32 product would wrap to -1.8e9.
        grid_120ns = dict(tau_max=120e-9, moment_cutoff=120e-9, grid_stop=120e-9, grid_step=0.25e-9)
        with pytest.raises(ResourceLimitError, match="take 2.47e[+]09 bytes of rows"):
            quick_config(runs=np.int32(500_000), **grid_120ns)

    def test_row_cap_counts_every_field(self):
        # 25M runs on a 2-point grid hold 50M curve points, but their rows
        # take 152 bytes each, 3.8 GB in all.
        with pytest.raises(ResourceLimitError, match="3.8e[+]09 bytes of rows, above the cap of 600000000$"):
            quick_config(runs=25_000_000, grid_stop=0.25e-9, grid_step=0.25e-9)


class TestEcdf:
    def test_single_sample_steps_to_one(self):
        dist = ecdf([3.5])
        assert np.array_equal(dist.values, [3.5])
        assert np.array_equal(dist.probs, [1.0])

    def test_three_samples(self):
        dist = ecdf([3.0, 1.0, 2.0])
        assert np.array_equal(dist.values, [1.0, 2.0, 3.0])
        assert np.allclose(dist.probs, [1 / 3, 2 / 3, 1.0])

    def test_duplicates_collapse(self):
        dist = ecdf([1.0, 1.0, 2.0, 2.0])
        assert np.array_equal(dist.values, [1.0, 2.0])
        assert np.allclose(dist.probs, [0.5, 1.0])

    def test_ignores_non_finite(self):
        dist = ecdf([np.nan, 4.0, np.inf, 5.0])
        assert np.array_equal(dist.values, [4.0, 5.0])

    def test_empty_raises(self):
        with pytest.raises(EmptySampleError):
            ecdf([np.nan])

    def test_median_quantile(self):
        dist = ecdf([1.0, 2.0, 3.0, 4.0, 5.0])
        assert dist.median == 3.0


@pytest.fixture
def forks(monkeypatch):
    """Wraps ``os.fork`` and ``os.waitpid``, which the ensemble calls through ``montecarlo.os``.

    ``started`` holds each child pid that a fork gave the test process, in
    order, and ``exitcodes`` the exit code of each child reaped.
    """
    fork, waitpid = os.fork, os.waitpid
    record = types.SimpleNamespace(started=[], exitcodes={})

    def forking():
        pid = fork()
        if pid:
            record.started.append(pid)
        return pid

    def waiting(pid, options):
        reaped, status = waitpid(pid, options)
        if reaped:
            record.exitcodes[reaped] = os.waitstatus_to_exitcode(status)
        return reaped, status

    monkeypatch.setattr(montecarlo.os, "fork", forking)
    monkeypatch.setattr(montecarlo.os, "waitpid", waiting)
    return record


def assert_no_child_left():
    """The test process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def shared_ints(size, fill=0):
    """``size`` int64s in an anonymous shared mapping, which forked processes write for the test."""
    values = np.frombuffer(mmap.mmap(-1, 8 * size), np.int64)
    values[:] = fill
    return values


class CallLog:
    """Lines of integers appended from any process, one ``os.write`` of an ``O_APPEND`` file each."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def add(self, *values):
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        os.write(fd, (" ".join(map(str, values)) + "\n").encode())
        os.close(fd)

    def entries(self):
        return [tuple(map(int, line.split())) for line in self.path.read_text().splitlines()]


class TestDeterminism:
    def test_same_config_same_output(self):
        cfg = quick_config()
        a = run_ensemble(cfg)
        b = run_ensemble(cfg)
        assert np.array_equal(a.counts_raw, b.counts_raw)
        assert np.array_equal(a.power_raw, b.power_raw)

    def test_worker_count_does_not_change_results(self, monkeypatch, forks):
        # Four blocks of R = 10 runs, so two workers really start.
        cfg = quick_config(runs=40)
        serial = run_ensemble(cfg, workers=1)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        parallel = run_ensemble(cfg, workers=2)
        assert len(forks.started) == 2
        assert np.array_equal(serial.counts_raw, parallel.counts_raw)
        assert np.array_equal(serial.power_raw, parallel.power_raw)
        for a, b in zip(serial.records, parallel.records):
            assert a.index == b.index
            assert np.array_equal(a.tx_position, b.tx_position)
            assert a.mean_delay == b.mean_delay

    # Run counts in blocks of R = 10 runs, the block size of quick_config.
    @pytest.mark.parametrize("cpus,workers,runs,processes", [
        (3, 64, 60, 3),   # clamped to the CPUs
        (8, 8, 20, 2),    # no more processes than blocks
        (None, 4, 60, 0), # unknown CPU count: one worker, in process
        (2, 2, 40, 2),
    ])
    def test_pool_size_is_clamped(self, monkeypatch, forks, cpus, workers, runs, processes):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        cfg = quick_config(runs=runs)
        assert cfg.block_runs == 10
        result = run_ensemble(cfg, workers=workers)
        assert len(forks.started) == processes
        assert forks.exitcodes == dict.fromkeys(forks.started, 0)
        assert_no_child_left()
        assert np.array_equal(result.counts_raw, run_ensemble(cfg).counts_raw)

    def test_seed_changes_results(self):
        a = run_ensemble(quick_config(seed=1))
        b = run_ensemble(quick_config(seed=2))
        assert not np.array_equal(a.counts_raw, b.counts_raw)

    def test_runs_are_prefix_stable(self):
        # substreams keyed by (seed, index): a longer ensemble starts with
        # the shorter one's runs
        short = run_ensemble(quick_config(runs=3))
        longer = run_ensemble(quick_config(runs=6))
        assert np.array_equal(short.counts_raw, longer.counts_raw[:3])


# Run by a fresh interpreter, with the pid file as its argument: every block
# records its process and sleeps 50 ms, for 400 blocks of 10 runs at two
# workers, about 10 s.
SLOW_ENSEMBLE = """
import os, sys, time
from roomchan import montecarlo
from roomchan.antenna import Isotropic
from roomchan.channel import RadioConfig
from roomchan.geometry import Room

def recording(cfg, rows, block):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(0.05)

montecarlo._simulate_block = recording
montecarlo.os.cpu_count = lambda: 2
cfg = montecarlo.McConfig(
    Room((5.0, 5.0, 3.0), 0.6), RadioConfig.from_center_frequency(60e9, 2e9, 3e8),
    Isotropic(), Isotropic(), runs=4000, tau_max=40e-9, moment_cutoff=40e-9,
    grid_stop=40e-9, grid_step=1e-9,
)
montecarlo.run_ensemble(cfg, workers=2)
"""


def process_running(pid):
    """Whether ``pid`` names a process that is neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


class TestForkedWorkers:
    """Workers claim each block once and mark the blocks they complete; the caller finishes the rest.

    So a block that fails raises the one-worker error in the caller, and a
    dying worker's block is redone there. No worker outlives the ensemble
    either way. quick_config's blocks hold R = 10 runs, and each ensemble
    here gives every worker at least two.
    """

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        """Lets up to three workers start on hosts with fewer CPUs."""
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)

    @pytest.fixture
    def deadline(self):
        """Interrupts the test after 30 s, so that a hanging ensemble fails it."""
        def expire(signum, frame):
            raise DeadlineExpired("run_ensemble did not return within 30 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(30)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_every_run_is_simulated_once_by_a_worker(self, deadline, monkeypatch, forks, tmp_path):
        # 64 runs on three workers: six blocks of 10 runs and one of 4,
        # claimed concurrently.
        cfg = quick_config(runs=64)
        size = cfg.block_runs
        assert size == 10
        calls = CallLog(tmp_path / "calls")
        simulate = montecarlo._simulate_block

        def recording(cfg, rows, block):
            first = block * cfg.block_runs
            calls.add(os.getpid(), first, len(rows[first:first + cfg.block_runs]))
            simulate(cfg, rows, block)

        monkeypatch.setattr(montecarlo, "_simulate_block", recording)
        result = run_ensemble(cfg, workers=3)
        assert len(forks.started) == 3
        assert_no_child_left()
        owners = {pid for pid, _, _ in calls.entries()}
        assert owners <= set(forks.started)
        # One call a block, each starting at a multiple of R and holding R
        # runs, the last the 4 that remain.
        firsts = sorted((first, runs) for _, first, runs in calls.entries())
        assert firsts == [(first, min(size, cfg.runs - first)) for first in range(0, cfg.runs, size)]
        monkeypatch.setattr(montecarlo, "_simulate_block", simulate)
        assert result.power_raw.tobytes() == run_ensemble(cfg).power_raw.tobytes()

    def test_one_run_blocks_are_claimed_once_under_contention(self, deadline, monkeypatch, forks, tmp_path):
        # 240 one-run blocks on three workers, each claim a step of the counter.
        monkeypatch.setattr(McConfig, "block_runs", property(lambda cfg: 1))
        cfg = quick_config(runs=240)
        serial = run_ensemble(cfg, workers=1)
        calls = CallLog(tmp_path / "calls")
        simulate = montecarlo._simulate_block

        def recording(cfg, rows, block):
            calls.add(os.getpid(), block)
            simulate(cfg, rows, block)

        monkeypatch.setattr(montecarlo, "_simulate_block", recording)
        parallel = run_ensemble(cfg, workers=3)
        assert len(forks.started) == 3
        assert_no_child_left()
        entries = calls.entries()
        assert sorted(block for _, block in entries) == list(range(cfg.runs))
        owners = {pid for pid, _ in entries}
        assert owners <= set(forks.started) and len(owners) >= 2
        assert parallel.rows.tobytes() == serial.rows.tobytes()

    def test_worker_error_reaches_the_caller(self, deadline, monkeypatch, forks):
        # Every block from the second on raises. Four blocks of 10 runs, so
        # two workers really start.
        simulate = montecarlo._simulate_block

        def fails(cfg, rows, block):
            if block >= 1:
                raise ResourceLimitError("block of runs above the cap")
            simulate(cfg, rows, block)

        monkeypatch.setattr(montecarlo, "_simulate_block", fails)
        cfg = quick_config(runs=40)
        with pytest.raises(ResourceLimitError) as alone:
            run_ensemble(cfg, workers=1)
        with pytest.raises(ResourceLimitError) as forked:
            run_ensemble(cfg, workers=2)
        assert len(forks.started) == 2
        assert type(forked.value) is ResourceLimitError
        assert str(forked.value) == str(alone.value)
        assert "above the cap" in str(forked.value)
        assert_no_child_left()

    def test_cube_over_the_cap_is_refused_before_rows_or_workers(self, monkeypatch, forks):
        allocated = []
        monkeypatch.setattr(montecarlo, "_run_rows", lambda *args: allocated.append(args))
        with pytest.raises(ResourceLimitError, match="above the cap of 100$"):
            run_ensemble(quick_config(runs=40, max_cells=100), workers=2)
        assert allocated == [] and forks.started == []

    def test_first_failing_block_raises_as_at_one_worker(self, deadline, monkeypatch, forks, capfd):
        # Block 1 fails late, block 3 at once: at two workers block 3's
        # error comes first, but block 1 comes first in run order.
        simulate = montecarlo._simulate_block

        def fails(cfg, rows, block):
            if block == 1:
                time.sleep(0.2)
            if block in (1, 3):
                raise ValueError(f"block {block}")
            simulate(cfg, rows, block)

        monkeypatch.setattr(montecarlo, "_simulate_block", fails)
        cfg = quick_config(runs=40)
        with pytest.raises(ValueError, match="^block 1$"):
            run_ensemble(cfg, workers=1)
        with pytest.raises(ValueError, match="^block 1$"):
            run_ensemble(cfg, workers=2)
        assert len(forks.started) == 2
        assert_no_child_left()
        # A failing worker returns quietly: no traceback of its own.
        assert capfd.readouterr().err == ""

    def test_block_failing_only_in_a_worker_is_redone_by_the_caller(self, deadline, monkeypatch, forks):
        cfg = quick_config(runs=40)
        serial = run_ensemble(cfg, workers=1)
        simulate = montecarlo._simulate_block
        runner = os.getpid()

        def fails(cfg, rows, block):
            if block == 2 and os.getpid() != runner:
                raise MemoryError("only in a worker")
            simulate(cfg, rows, block)

        monkeypatch.setattr(montecarlo, "_simulate_block", fails)
        parallel = run_ensemble(cfg, workers=2)
        assert len(forks.started) == 2
        assert_no_child_left()
        assert_same_runs(parallel, serial)

    # A worker whose block raises SystemExit or KeyboardInterrupt still ends
    # in os._exit: every process that leaves run_ensemble counts itself, and
    # a forked one then exits, so that it cannot run the rest of the session.
    @pytest.mark.parametrize("exception", [SystemExit, KeyboardInterrupt])
    def test_worker_never_returns_into_the_caller(self, deadline, monkeypatch, forks, exception):
        cfg = quick_config(runs=40)
        serial = run_ensemble(cfg, workers=1)
        simulate = montecarlo._simulate_block
        runner = os.getpid()
        left = shared_ints(1)

        def raises(cfg, rows, block):
            if block == 1 and os.getpid() != runner:
                raise exception()
            simulate(cfg, rows, block)

        monkeypatch.setattr(montecarlo, "_simulate_block", raises)
        try:
            parallel = run_ensemble(cfg, workers=2)
        finally:
            left[0] += 1
            if os.getpid() != runner:
                os._exit(0)
        assert left[0] == 1
        assert len(forks.started) == 2
        assert_no_child_left()
        assert_same_runs(parallel, serial)

    # Whichever worker takes run 3 dies, or the last worker started dies at
    # its first block. Only a forked process may exit, never the test
    # runner itself, which then simulates the dead worker's block.
    @pytest.mark.parametrize("victim", ["run-three", "last-started"])
    def test_dying_worker_s_block_is_finished_by_the_caller(self, deadline, monkeypatch, forks, victim):
        cfg = quick_config(runs=40)
        serial = run_ensemble(cfg, workers=1)
        simulate = montecarlo._simulate_block
        runner = os.getpid()
        doomed_first = shared_ints(1, fill=-1)
        redone = []

        def dies(cfg, rows, block):
            first = block * cfg.block_runs
            if victim == "run-three":
                doomed = first <= 3 < first + cfg.block_runs
            else:
                doomed = len(forks.started) == 1  # as seen at this worker's fork
            if os.getpid() == runner:
                redone.append(first)
            elif doomed:
                doomed_first[0] = first
                os._exit(3)
            simulate(cfg, rows, block)

        monkeypatch.setattr(montecarlo, "_simulate_block", dies)
        started = time.monotonic()
        parallel = run_ensemble(cfg, workers=2)
        assert time.monotonic() - started < 10.0
        assert len(forks.started) == 2
        assert sorted(forks.exitcodes.values()) == [0, 3]
        assert_no_child_left()
        assert doomed_first[0] >= 0 and redone == [doomed_first[0]]
        if victim == "run-three":
            assert redone == [0]
        assert_same_runs(parallel, serial)

    def test_worker_dying_with_the_counter_locked_leaves_its_blocks_to_the_caller(
        self, deadline, monkeypatch, forks
    ):
        # The first worker to claim takes the counter's record lock and
        # exits holding it. The kernel drops the lock, and the other worker
        # claims every block.
        cfg = quick_config(runs=40)
        serial = run_ensemble(cfg, workers=1)
        claim = montecarlo._claim
        runner = os.getpid()
        victims = shared_ints(1)

        def dies_locked(counter, lock, *args, **kwargs):
            if os.getpid() != runner:
                fcntl.lockf(lock, fcntl.LOCK_EX)
                if victims[0] == 0:
                    victims[0] = 1
                    os._exit(3)
                fcntl.lockf(lock, fcntl.LOCK_UN)
            return claim(counter, lock, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "_claim", dies_locked)
        started = time.monotonic()
        parallel = run_ensemble(cfg, workers=2)
        assert time.monotonic() - started < 10.0
        assert victims[0] == 1 and len(forks.started) == 2
        assert sorted(forks.exitcodes.values()) == [0, 3]
        assert_no_child_left()
        assert_same_runs(parallel, serial)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states under /proc")
    def test_workers_stop_when_the_ensemble_process_is_killed(self, tmp_path):
        log = tmp_path / "pids"
        log.touch()
        src = os.path.dirname(os.path.dirname(montecarlo.__file__))
        process = subprocess.Popen(
            [sys.executable, "-c", SLOW_ENSEMBLE, str(log)], env={**os.environ, "PYTHONPATH": src}
        )
        try:
            waiting = time.monotonic() + 30.0
            while len(workers := set(map(int, log.read_text().split())) - {process.pid}) < 2:
                assert process.poll() is None and time.monotonic() < waiting
                time.sleep(0.01)
        finally:
            process.kill()
            process.wait()
        # Pid 1 of a container may never reap an orphan, so a zombie counts
        # as stopped.
        stopping = time.monotonic() + 5.0
        while (running := [pid for pid in workers if process_running(pid)]) and time.monotonic() < stopping:
            time.sleep(0.05)
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        assert running == []


class DeadlineExpired(Exception):
    """A test's deadline passed."""


def assert_same_runs(a, b):
    """The two results hold bitwise equal raw curves and run records."""
    assert a.counts_raw.tobytes() == b.counts_raw.tobytes()
    assert a.power_raw.tobytes() == b.power_raw.tobytes()
    assert [record_key(r) for r in a.records] == [record_key(r) for r in b.records]


def record_key(record):
    arrays = (record.tx_position, record.rx_position, record.tx_boresight, record.rx_boresight)
    return (
        record.index, *(None if a is None else a.tobytes() for a in arrays),
        record.n_paths, record.energy, record.mean_delay, record.rms_spread,
    )


def drawn_by_hand(cfg, index):
    """Run ``index``'s terminals, drawn call by call in its mode's order on a fresh stream.

    Returns the tx position, tx boresight, rx position and rx boresight (a
    fixed boresight is the pattern's aim, None for an isotropic one), the
    stream after them, and the draws a fixed distance took to place the
    terminals (1 otherwise).
    """
    rng = montecarlo.run_rng(cfg.seed, index)
    room, attempts = cfg.room, 1
    fixed_tx, fixed_rx = (getattr(pattern, "boresight", None) for pattern in (cfg.tx_pattern, cfg.rx_pattern))
    if cfg.mode == "both-random":
        tx_pos = sample_position(rng, room)
        tx_ori = sample_orientation(rng)
        rx_pos = sample_position(rng, room)
        rx_ori = sample_orientation(rng)
    elif cfg.mode == "fixed-rx":
        tx_pos = sample_position(rng, room)
        tx_ori = sample_orientation(rng)
        rx_pos, rx_ori = cfg.rx_position, fixed_rx
    elif cfg.mode == "fixed-orientation-tx":
        tx_pos = sample_position(rng, room)
        tx_ori, rx_pos, rx_ori = fixed_tx, cfg.rx_position, fixed_rx
    else:
        assert cfg.mode == "fixed-distance"
        rx_pos = sample_position(rng, room)
        tx_pos = rx_pos + cfg.distance * sample_orientation(rng)
        while not room.contains(tx_pos):
            attempts += 1
            rx_pos = sample_position(rng, room)
            tx_pos = rx_pos + cfg.distance * sample_orientation(rng)
        tx_ori = sample_orientation(rng)
        rx_ori = sample_orientation(rng)
    return (tx_pos, tx_ori, rx_pos, rx_ori), rng, attempts


class TestDrawOrder:
    """Each mode's rows and streams follow the draws that ``drawn_by_hand`` writes out."""

    CASES = {
        "both-random": dict(tx_pattern=SphericalCap(0.5), rx_pattern=SphericalCap(0.5)),
        "fixed-rx-directive": dict(mode="fixed-rx", tx_pattern=SphericalCap(0.5),
                                   rx_pattern=SphericalCap(0.25, (0.3, -0.5, 0.2)), rx_position=(1.0, 2.0, 1.2)),
        "fixed-rx-isotropic": dict(mode="fixed-rx", tx_pattern=SphericalCap(0.5), rx_position=(1.0, 2.0, 1.2)),
        "fixed-orientation-tx-directive": dict(
            mode="fixed-orientation-tx", tx_pattern=SphericalCap(0.5, (0.0, 1.0, 0.2)),
            rx_pattern=SphericalCap(0.25, (-0.3, 0.5, 0.1)), rx_position=(4.0, 1.0, 2.2)),
        # Neither isotropic pattern has a boresight.
        "fixed-orientation-tx-isotropic": dict(mode="fixed-orientation-tx", rx_position=(4.0, 1.0, 2.2)),
        "fixed-distance": dict(mode="fixed-distance", distance=1.5),
        # p(5 m) = 0.02: a run takes about 50 draws to place its terminals.
        "fixed-distance-retries": dict(mode="fixed-distance", distance=5.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_and_streams_follow_the_hand_drawn_order(self, case):
        cfg = quick_config(runs=20, **self.CASES[case])
        rows = run_ensemble(cfg).rows
        attempts = []
        for index in range(cfg.runs):
            expected, after, tries = drawn_by_hand(cfg, index)
            attempts.append(tries)
            rng = montecarlo.run_rng(cfg.seed, index)
            drawn = montecarlo._draw_terminals(cfg, rng)
            assert rng.random(4).tobytes() == after.random(4).tobytes()
            names = ("tx_position", "tx_boresight", "rx_position", "rx_boresight")
            for name, ours, theirs in zip(names, drawn, expected):
                if theirs is None:
                    assert ours is None and np.isnan(rows[name][index]).all()
                else:
                    assert ours.tobytes() == theirs.tobytes() == rows[name][index].tobytes()
        # p(1.5 m) = 0.53, so some runs redraw there too.
        if cfg.mode == "fixed-distance":
            assert sum(attempts) > (10 if case == "fixed-distance-retries" else 1) * cfg.runs


class TestStreamedAggregation:
    # 203 runs: blocks of R = 42 runs at any worker count and statistics
    # blocks of _STAT_ROWS rows both end in a partial block.
    RUNS = 203

    @pytest.fixture(scope="class")
    def cfg(self):
        return quick_config(
            runs=self.RUNS, tx_pattern=SphericalCap(0.5), rx_pattern=SphericalCap(0.5)
        )

    @pytest.fixture(scope="class")
    def reference(self, cfg):
        # Run by run through the one-scene functions, not the ensemble's blocks.
        grid, synthesis = cfg.grid, cfg.synthesis_grid()
        times = synthesis.times()
        inside = int(np.searchsorted(times, cfg.moment_cutoff, side="right"))
        counts, power, records = [], [], []
        for index in range(cfg.runs):
            (tx_pos, tx_ori, rx_pos, rx_ori), rng, _ = drawn_by_hand(cfg, index)
            paths = enumerate_paths(
                cfg.room, tx_pos, cfg.tx_pattern.aimed(tx_ori), rx_pos, cfg.rx_pattern.aimed(rx_ori),
                cfg.radio, cfg.tau_max,
            )
            counts.append(arrival_count_curve(paths, grid))
            trace = synthesize_signal(paths, cfg.radio, synthesis, cfg.phase_mode, rng)
            power.append(np.interp(grid, times, trace.abs2))
            clipped = SignalTrace(trace.start, trace.step, trace.samples[:inside])
            try:
                moments = signal_moments(clipped)
            except ZeroEnergyError:
                moments = (None, None)
            arrays = (tx_pos, rx_pos, tx_ori, rx_ori)
            records.append((index, *(a.tobytes() for a in arrays), len(paths), clipped.energy, *moments))
        return np.stack(counts), np.stack(power), records

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_blocks_land_at_their_runs(self, cfg, reference, workers, monkeypatch):
        assert self.RUNS % montecarlo._STAT_ROWS and self.RUNS > montecarlo._STAT_ROWS
        assert self.RUNS % cfg.block_runs and self.RUNS > cfg.block_runs
        # Keep three workers on machines with fewer CPUs.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        result = run_ensemble(cfg, workers=workers)
        counts, power, records = reference
        # The 40 ns cube holds 1,573 cells.
        assert result.counts_raw.dtype == cfg.layout["counts"].base == np.uint16
        assert result.counts_raw.tobytes() == counts.astype(np.uint16).tobytes()
        assert result.power_raw.tobytes() == power.tobytes()
        assert [record_key(r) for r in result.records] == records

        for estimate, raw in ((result.count, counts.astype(float)), (result.power, power)):
            assert estimate.mean.tobytes() == raw.mean(axis=0).tobytes()
            stderr = raw.std(axis=0, ddof=1) / np.sqrt(self.RUNS)
            assert estimate.stderr.tobytes() == stderr.tobytes()

    @pytest.mark.parametrize("shape", [(1, 5), (2, 5), (300, 7), (300, 2), (1, 1)])
    def test_estimate_is_bitwise_dense(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        counts = [rng.integers(0, 5000, shape).astype(np.int32)]
        counts += [rng.integers(0, np.iinfo(t).max, shape, endpoint=True).astype(t)
                   for t in (np.uint8, np.uint16, np.uint32)]
        power = rng.exponential(1e-9, shape) * rng.random((shape[0], 1))
        for raw in (*counts, power):
            estimate = montecarlo._estimate(np.zeros(shape[1]), raw)
            dense = raw.astype(float)
            assert estimate.mean.tobytes() == dense.mean(axis=0).tobytes()
            if shape[0] > 1:
                stderr = dense.std(axis=0, ddof=1) / np.sqrt(shape[0])
            else:
                stderr = np.zeros(shape[1])
            assert estimate.stderr.tobytes() == stderr.tobytes()


class TestCountType:
    """Counts take the smallest unsigned type that holds the index cube, with the statistics of int32 counts."""

    # The 5 x 5 x 3 m room's cubes: 12,789 cells at 120 ns, 109,265 at 300 ns.
    SCENES = {
        "120ns": (dict(tau_max=120e-9, moment_cutoff=120e-9, grid_stop=120e-9, runs=50), 12_789, np.uint16),
        "300ns": (dict(tau_max=300e-9, moment_cutoff=300e-9, grid_stop=300e-9, runs=10), 109_265, np.uint32),
    }

    @pytest.mark.parametrize("cells,dtype", [
        (1, np.uint8), (255, np.uint8), (256, np.uint16), (12_789, np.uint16), (65_535, np.uint16),
        (65_536, np.uint32), (109_265, np.uint32), (geometry.DEFAULT_MAX_CELLS, np.uint32),
    ])
    def test_layout_holds_the_cube(self, cells, dtype):
        layout = montecarlo._row_layout(481, cells)
        assert layout["counts"].base == dtype and layout["counts"].shape == (481,)
        assert layout.names[-1] == "counts" and layout["power"].base == np.float64

    def test_smallest_cube_needs_uint16(self):
        # Every axis bound is at least 3, so no cube of an ensemble has 255
        # cells or fewer: uint8 counts appear only in the layout above.
        layout = quick_config(tau_max=1e-9, moment_cutoff=1e-9, grid_stop=1e-9, grid_step=0.5e-9).layout
        assert layout["counts"].base == np.uint16

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("scene", sorted(SCENES))
    def test_statistics_match_int32_counts(self, scene, workers, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        kwargs, cells, dtype = self.SCENES[scene]
        cfg = quick_config(tx_pattern=SphericalCap(0.1), rx_pattern=SphericalCap(0.1), **kwargs)
        bounds = geometry.index_bounds(cfg.room, cfg.tau_max, cfg.radio.speed_of_light, cfg.max_cells)
        assert bounds[1] == cfg.cells == cells and -(-cfg.runs // cfg.block_runs) >= 2
        result = run_ensemble(cfg, workers=workers)
        assert result.counts_raw.dtype == dtype and result.counts_raw[:, -1].any()
        wide = montecarlo._estimate(cfg.grid, result.counts_raw.astype(np.int32))
        assert result.count.mean.tobytes() == wide.mean.tobytes()
        assert result.count.stderr.tobytes() == wide.stderr.tobytes()


def padded_window(cfg, trimmed=McConfig.window.func):
    """The ensemble's synthesis window on the full :meth:`McConfig.synthesis_grid`."""
    synthesis = cfg.synthesis_grid()
    return trimmed(cfg)._replace(grid=synthesis, times=synthesis.times())


class TestSynthesisGrid:
    CAP = dict(tau_max=120e-9, moment_cutoff=120e-9, grid_stop=120e-9, grid_step=0.25e-9)

    @pytest.mark.parametrize("cutoff, stop, read", [
        (120e-9, 120e-9, 1041),  # both end on sample 1040, at 120 ns
        (30e-9, 120e-9, 1041),  # the count grid reads further
        (30e-9, 59.75e-9, 559),  # ... and ends on sample 558
        (120e-9, 30e-9, 1041),  # the moments read further
        (60e-9, 30e-9, 560),  # ... and 60 ns lies a rounding error past sample 560
    ])
    def test_ensemble_grid_ends_at_its_last_read_sample(self, cutoff, stop, read):
        cfg = quick_config(**{**self.CAP, "moment_cutoff": cutoff, "grid_stop": stop})
        grid, (synthesis, times, cut) = cfg.grid, cfg.window
        padded = cfg.synthesis_grid()
        assert (padded.count, synthesis.count) == (1121, read)
        assert (synthesis.start, synthesis.step) == (padded.start, padded.step)
        assert times.tobytes() == padded.times()[:read].tobytes()
        # The moments read samples 0 .. cut-1, np.interp up to the first
        # sample at or after the count grid's end.
        assert cut <= read and times[-1] >= grid[-1]
        assert read == cut or times[-2] < grid[-1]

    def test_direct_kernel_runs_match_the_padded_grid(self, monkeypatch, tmp_path):
        # 0.1 caps with carrier phases, every run on the direct kernel: its
        # samples on the trimmed grid are the padded grid's first ones, bit
        # for bit, so the ensemble and its bundle do not change.
        monkeypatch.setattr(channel, "_lattice_is_cheaper", lambda n, samples, nfft: False)
        cfg = quick_config(tx_pattern=SphericalCap(0.1), rx_pattern=SphericalCap(0.1), runs=40,
                           phase_mode="carrier", **self.CAP)
        trimmed = run_ensemble(cfg)
        monkeypatch.setattr(McConfig, "window", property(padded_window))
        padded = run_ensemble(cfg)
        assert sum(r.n_paths for r in trimmed.records) > 0
        assert trimmed.counts_raw.tobytes() == padded.counts_raw.tobytes()
        assert trimmed.power_raw.tobytes() == padded.power_raw.tobytes()
        assert [record_key(r) for r in trimmed.records] == [record_key(r) for r in padded.records]
        for name, result in (("trimmed", trimmed), ("padded", padded)):
            write_bundle(result, tmp_path / name, {"seed": cfg.seed}, {"pass": True})
        for name in ("counts.csv", "power.csv", "ecdf_mean_delay.csv", "ecdf_rms.csv"):
            assert (tmp_path / "trimmed" / name).read_bytes() == (tmp_path / "padded" / name).read_bytes()


class TestMomentWindow:
    def test_moments_come_from_samples_up_to_the_cutoff(self):
        cfg = quick_config(runs=8, moment_cutoff=30e-9)
        result = run_ensemble(cfg)
        synthesis = cfg.window.grid
        times = synthesis.times()
        inside = int(np.sum(times <= cfg.moment_cutoff))
        assert 0 < inside < times.size
        for record in result.records:
            # Isotropic antennas: the drawn boresights aim nothing.
            (tx_pos, _, rx_pos, _), rng, _ = drawn_by_hand(cfg, record.index)
            paths = enumerate_paths(
                cfg.room, tx_pos, cfg.tx_pattern, rx_pos, cfg.rx_pattern, cfg.radio, cfg.tau_max,
            )
            trace = synthesize_signal(paths, cfg.radio, synthesis, cfg.phase_mode, rng)

            def moments(count):
                part = SignalTrace(trace.start, trace.step, trace.samples[:count])
                return (part.energy, *signal_moments(part))

            observed = (record.energy, record.mean_delay, record.rms_spread)
            assert observed == moments(inside)
            # A window one sample short or long gives other moments.
            assert observed != moments(inside - 1)
            assert observed != moments(inside + 1)


class TestConePruning:
    def test_ensemble_matches_unpruned_reference(self, monkeypatch):
        # 200 runs with 0.1 caps against the same ensemble with the cone
        # prefilter switched off, so that only the exact in_support gates.
        cfg = quick_config(
            tx_pattern=SphericalCap(0.1), rx_pattern=SphericalCap(0.1), runs=200,
            tau_max=120e-9, moment_cutoff=120e-9, grid_stop=120e-9, grid_step=0.25e-9,
        )
        pruned = run_ensemble(cfg)
        enumerate_indices = geometry.enumerate_indices
        calls = []

        def without_cones(*args, cones, **kwargs):
            calls.append(cones)
            return enumerate_indices(*args, **kwargs)

        monkeypatch.setattr(geometry, "enumerate_indices", without_cones)
        reference = run_ensemble(cfg)
        # The ensemble went through the patched name, with cones to drop.
        assert calls and all(cone is not None for cones in calls for cone in cones)
        assert pruned.counts_raw.tobytes() == reference.counts_raw.tobytes()
        assert pruned.power_raw.tobytes() == reference.power_raw.tobytes()
        assert [(r.n_paths, r.energy, r.mean_delay, r.rms_spread) for r in pruned.records] == [
            (r.n_paths, r.energy, r.mean_delay, r.rms_spread) for r in reference.records
        ]
        assert sum(r.n_paths for r in pruned.records) > 0


class Sector(AntennaPattern):
    """A directive pattern the package does not know: a cap behind a wrapper."""

    def __init__(self, cap):
        self.cap = cap

    @property
    def beam_fraction(self):
        return self.cap.beam_fraction

    def gain(self, direction):
        return self.cap.gain(direction)

    @property
    def cone(self):
        return self.cap.cone

    def aimed(self, boresight):
        return Sector(self.cap.aimed(boresight))


class TestCustomPattern:
    def test_directive_subclass_is_aimed_like_the_cap(self):
        cap = SphericalCap(0.25)
        ref, custom = (run_ensemble(quick_config(tx_pattern=p, rx_pattern=p, runs=20))
                       for p in (cap, Sector(cap)))
        assert custom.counts_raw.tobytes() == ref.counts_raw.tobytes()
        assert custom.power_raw.tobytes() == ref.power_raw.tobytes()
        assert sum(r.n_paths for r in ref.records) > 0
        for a, b in zip(ref.records, custom.records):
            assert b.tx_boresight is not None and b.rx_boresight is not None
            assert b.tx_boresight.tobytes() == a.tx_boresight.tobytes()
            assert b.rx_boresight.tobytes() == a.rx_boresight.tobytes()


class TestBlockIndependence:
    """A run's rows and record do not depend on the block it ran in.

    The reference is a short ensemble with ``McConfig.block_runs`` patched to
    1, so each run is simulated alone; a 300-run ensemble puts block_runs
    runs in a block. The first runs must agree bitwise.
    """

    SHORT = 8
    CAP = dict(tau_max=120e-9, moment_cutoff=120e-9, grid_stop=120e-9, grid_step=0.25e-9)
    CASES = {
        "iso": dict(),
        "cap01-mixed-kernels": dict(tx_pattern=SphericalCap(0.1), rx_pattern=SphericalCap(0.1),
                                    phase_mode="carrier", **CAP),
        "cap01-zero-paths": dict(tx_pattern=SphericalCap(0.1), rx_pattern=SphericalCap(0.1),
                                 tau_max=30e-9, moment_cutoff=30e-9, grid_stop=30e-9),
        "cap05-fixed-rx": dict(tx_pattern=SphericalCap(0.5), rx_pattern=SphericalCap(0.5, (0.3, -0.5, 0.2)),
                               mode="fixed-rx", rx_position=(1.0, 2.0, 1.2)),
        "cap05-fixed-orientation-tx": dict(
            tx_pattern=SphericalCap(0.5, (0.0, 1.0, 0.2)), rx_pattern=SphericalCap(0.1, (-0.3, 0.5, 0.1)),
            mode="fixed-orientation-tx", rx_position=(4.0, 1.0, 2.2), phase_mode="carrier", **CAP),
        "sector-fixed-distance": dict(tx_pattern=Sector(SphericalCap(0.25)),
                                      rx_pattern=Sector(SphericalCap(0.25)),
                                      mode="fixed-distance", distance=2.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_first_runs_match_a_short_ensemble(self, case, monkeypatch, forks):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        if case == "cap01-mixed-kernels":
            # A path-count rule in place of the fitted cost model, so that
            # the first runs take both kernels whatever its constants.
            monkeypatch.setattr(channel, "_lattice_is_cheaper", lambda n, samples, nfft: n > 30)
        cfg = quick_config(runs=300, **self.CASES[case])
        size = cfg.block_runs
        assert size > 1
        short = dataclasses.replace(cfg, runs=self.SHORT)
        kernels = []
        for name in ("_direct_sum", "_lattice_sum"):
            kernel = getattr(channel, name)
            monkeypatch.setattr(channel, name, lambda *a, _k=kernel, _n=name: kernels.append(_n) or _k(*a))
        with monkeypatch.context() as alone:
            alone.setattr(McConfig, "block_runs", property(lambda cfg: 1))
            reference = run_ensemble(short, workers=1)
            forked = run_ensemble(short, workers=2)
            assert len(forks.started) == 2
        assert forked.power_raw.tobytes() == reference.power_raw.tobytes()
        if case == "cap01-mixed-kernels":
            assert set(kernels) == {"_direct_sum", "_lattice_sum"}
        if case == "cap01-zero-paths":
            assert 0 < reference.missing_moments < self.SHORT
        keys = [record_key(r) for r in reference.records]
        # Two workers start only where the 300 runs span more than one block
        # (not for cap01-zero-paths, whose R is 588).
        forks.started.clear()
        for workers in (1, 2) if size < cfg.runs else (1,):
            result = run_ensemble(cfg, workers=workers)
            assert result.counts_raw[: self.SHORT].tobytes() == reference.counts_raw.tobytes()
            assert result.power_raw[: self.SHORT].tobytes() == reference.power_raw.tobytes()
            assert [record_key(r) for r in result.records[: self.SHORT]] == keys
        assert len(forks.started) == (2 if size < cfg.runs else 0)


class TestStageCalls:
    """Each run goes through ``arrival_count_curve`` and ``synthesize_signal`` once.

    The benchmark's traced pass wraps these two module names and reads each
    call's path list and synthesis grid, so an ensemble must keep calling
    them run by run, with that run's paths and the ensemble's grid.
    """

    CAP = dict(tau_max=120e-9, moment_cutoff=120e-9, grid_stop=120e-9, grid_step=0.25e-9)
    # Many runs a block on 0.1 caps, one a block on isotropic antennas.
    CASES = {
        "cap01": dict(tx_pattern=SphericalCap(0.1), rx_pattern=SphericalCap(0.1), runs=60, **CAP),
        "iso": dict(runs=4, **CAP),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_run_is_counted_and_synthesized_once(self, case, monkeypatch):
        cfg = quick_config(**self.CASES[case])
        grid, synthesis, block = cfg.grid, cfg.window.grid, cfg.block_runs
        assert (block > 1) == (case == "cap01")
        calls = {"count": [], "synth": []}

        def counting(name, stage):
            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return stage(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(montecarlo, "arrival_count_curve", counting("count", arrival_count_curve))
        monkeypatch.setattr(montecarlo, "synthesize_signal", counting("synth", synthesize_signal))
        result = run_ensemble(cfg, workers=1)
        n_paths = [record.n_paths for record in result.records]
        assert sum(n_paths) > 0
        for name in ("count", "synth"):
            assert len(calls[name]) == cfg.runs
            assert [len(args[0]) for args in calls[name]] == n_paths
        assert all(args[1].tobytes() == grid.tobytes() for args in calls["count"])
        assert all(args[2] == synthesis for args in calls["synth"])


class TestModes:
    def test_fixed_rx_pins_receiver(self):
        cfg = quick_config(mode="fixed-rx", rx_position=(1.0, 2.0, 1.2))
        result = run_ensemble(cfg)
        for record in result.records:
            assert np.array_equal(record.rx_position, [1.0, 2.0, 1.2])

    def test_fixed_orientation_tx_pins_boresight(self):
        cfg = quick_config(
            mode="fixed-orientation-tx",
            tx_pattern=SphericalCap(0.5, (0.0, 1.0, 0.0)),
            rx_position=(1.0, 2.0, 1.2),
        )
        result = run_ensemble(cfg)
        for record in result.records:
            assert np.allclose(record.tx_boresight, [0.0, 1.0, 0.0])

    def test_fixed_aims_are_the_patterns_bitwise(self):
        # A run's fixed boresights are its patterns' unit_boresight(v) bit
        # for bit, also after dataclasses.replace.
        rng = np.random.default_rng(31)
        for _ in range(200):
            tx, rx = (rng.standard_normal(3) for _ in range(2))
            cfg = quick_config(
                mode="fixed-orientation-tx", tx_pattern=SphericalCap(0.5, tx),
                rx_pattern=SphericalCap(0.5, rx), rx_position=(1.0, 2.0, 1.2),
            )
            again = dataclasses.replace(cfg, runs=3)
            _, tx_ori, _, rx_ori = montecarlo._draw_terminals(again, montecarlo.run_rng(cfg.seed, 0))
            assert tx_ori.tobytes() == unit_boresight(tx).tobytes()
            assert rx_ori.tobytes() == unit_boresight(rx).tobytes()

    # At 6.5 m a run takes about 4,000 draws to place its terminals; 60
    # runs at seed 7 include runs that take over 10,000.
    @pytest.mark.parametrize("distance,runs,seed", [(1.5, 6, 99), (6.5, 60, 7)])
    def test_fixed_distance_pins_separation(self, distance, runs, seed):
        cfg = quick_config(mode="fixed-distance", distance=distance, runs=runs, seed=seed)
        result = run_ensemble(cfg)
        for record in result.records:
            gap = np.linalg.norm(record.tx_position - record.rx_position)
            assert gap == pytest.approx(distance, rel=1e-12)
            assert ROOM.contains(record.tx_position)

    def test_zero_energy_runs_counted_not_fatal(self):
        # a horizon shorter than most separations leaves many runs with no
        # paths at all; they are reported missing, not errors
        cfg = quick_config(runs=20, tau_max=2e-9, moment_cutoff=2e-9,
                           grid_stop=2e-9, grid_step=0.5e-9)
        result = run_ensemble(cfg)
        assert result.missing_moments > 0
        finite = [r for r in result.records if r.mean_delay is not None]
        assert result.missing_moments + len(finite) == cfg.runs
        if finite:
            assert result.mean_delay is not None


class TestEstimates:
    def test_stderr_matches_sample_std(self):
        cfg = quick_config(runs=12)
        result = run_ensemble(cfg)
        manual = result.counts_raw.astype(float).std(axis=0, ddof=1) / np.sqrt(12)
        assert np.allclose(result.count.stderr, manual)

    def test_single_run_stderr_is_zero(self):
        result = run_ensemble(quick_config(runs=1))
        assert np.all(result.count.stderr == 0.0)


def synthetic_result(cfg, count_mean, power_mean):
    """A result of ``cfg.runs`` rows, each holding the given curves.

    At two runs the mean of the power rows is ``power_mean`` bit for bit.
    Integer count rows cannot hold a fractional mean, so the count estimate
    is put in place of the one the rows give.
    """
    grid = cfg.grid
    rows = np.zeros(cfg.runs, cfg.layout)
    rows["power"], rows["counts"] = power_mean, np.round(count_mean)
    result = McResult(cfg, rows)
    vars(result)["count"] = McEstimate(grid, count_mean, np.zeros_like(grid), cfg.runs)
    return result


class TestCompareWithTheory:
    def test_exact_curves_pass_with_zero_error(self):
        cfg = quick_config(runs=2, tau_max=120e-9, moment_cutoff=120e-9,
                           grid_stop=120e-9, grid_step=0.25e-9)
        scene = theory.SceneSummary.from_components(ROOM, RADIO, ISO, ISO)
        grid = cfg.grid
        spectrum = theory.pds(scene, grid, mode="randomized", corrected=True)
        power = theory.expected_received_power(spectrum, RADIO, grid)
        result = synthetic_result(cfg, theory.mean_count(scene, grid), power)
        report = compare_with_theory(result)
        assert report["pass"]
        assert report["checks"]["mean_count"]["max_rel_error"] == 0.0
        assert report["checks"]["tail_decay"]["rel_error_corrected"] < 0.01

    @pytest.mark.parametrize("mode,fixed,checks", [
        ("both-random", {}, {"mean_count", "tail_decay", "power_curve"}),
        ("fixed-rx", dict(rx_position=(1.0, 2.0, 1.2)), {"mean_count", "tail_decay", "power_curve"}),
        ("fixed-orientation-tx", dict(rx_position=(1.0, 2.0, 1.2)), {"count_upper_bound"}),
        ("fixed-distance", dict(distance=1.5), {"conditional_count"}),
    ])
    def test_checks_follow_the_mode(self, mode, fixed, checks):
        cfg = quick_config(runs=2, tau_max=120e-9, moment_cutoff=120e-9, grid_stop=120e-9,
                           grid_step=0.25e-9, mode=mode, **fixed)
        scene = theory.SceneSummary.from_components(ROOM, RADIO, ISO, ISO)
        grid = cfg.grid
        spectrum = theory.pds(scene, grid, mode="randomized", corrected=True)
        power = theory.expected_received_power(spectrum, RADIO, grid)
        report = compare_with_theory(synthetic_result(cfg, theory.mean_count(scene, grid), power))
        assert set(report["checks"]) == checks
        assert report["mode"] == mode

    @pytest.mark.parametrize("gain", [0.0, 1.0])
    def test_walls_without_tail_skip_only_tail_checks(self, gain):
        room = Room(ROOM.lengths, gain)
        cfg = quick_config(room=room, runs=3, tau_max=60e-9, moment_cutoff=60e-9, grid_stop=60e-9)
        report = compare_with_theory(run_ensemble(cfg))
        assert set(report["checks"]) == {"mean_count"}
        assert "tail_decay" not in report["checks"] and "power_curve" not in report["checks"]
        assert report["notes"] == [
            "tail checks skipped: reverberation time needs reflectance strictly in (0, 1)"
        ]

    def test_distinct_walls_skip_only_tail_checks(self):
        room = Room(ROOM.lengths, (0.5, 0.6, 0.6, 0.6, 0.7, 0.6))
        cfg = quick_config(room=room, runs=2, tau_max=60e-9, moment_cutoff=60e-9, grid_stop=60e-9)
        report = compare_with_theory(run_ensemble(cfg))
        assert set(report["checks"]) == {"mean_count"}
        assert report["notes"] == [
            "tail checks skipped: walls have distinct gains; no single reflectance"
        ]

    def test_growing_power_skips_only_tail_checks(self):
        cfg = quick_config(runs=2, tau_max=120e-9, moment_cutoff=120e-9,
                           grid_stop=120e-9, grid_step=0.25e-9)
        scene = theory.SceneSummary.from_components(ROOM, RADIO, ISO, ISO)
        grid = cfg.grid
        result = synthetic_result(cfg, theory.mean_count(scene, grid), np.exp(grid / 20e-9))
        report = compare_with_theory(result)
        assert set(report["checks"]) == {"mean_count"}
        assert report["notes"] == ["tail checks skipped: power does not decay over the fit window"]

    def test_mismatched_grids_rejected(self):
        cfg_a = quick_config()
        cfg_b = quick_config(grid_step=2e-9)
        n_a, n_b = len(cfg_a.grid), len(cfg_b.grid)
        a = synthetic_result(cfg_a, np.ones(n_a), np.ones(n_a))
        b = synthetic_result(cfg_b, np.ones(n_b), np.ones(n_b))
        with pytest.raises(ConfigError):
            compare_power_curves(a, b, (10e-9, 30e-9))


    @pytest.mark.parametrize("window", [(10.2e-9, 10.8e-9), (50e-9, 60e-9)])
    def test_window_without_a_grid_point_rejected(self, window):
        cfg = quick_config(runs=2)
        ones = np.ones(len(cfg.grid))
        result = synthetic_result(cfg, ones, ones)
        with pytest.raises(ConfigError, match="holds no grid point$"):
            compare_power_curves(result, result, window)


class TestFitDecayTime:
    def test_recovers_known_exponential(self):
        taus = np.linspace(0, 100e-9, 401)
        power = 3.0 * np.exp(-taus / 20e-9)
        assert fit_decay_time(taus, power, (10e-9, 90e-9)) == pytest.approx(20e-9, rel=1e-9)

    def test_growth_rejected(self):
        taus = np.linspace(0, 100e-9, 401)
        with pytest.raises(ConfigError):
            fit_decay_time(taus, np.exp(taus / 20e-9), (10e-9, 90e-9))


class TestRowsAreWritten:
    """Every field of every row is written, so a redone block leaves nothing of an earlier attempt.

    The rows' mapping is filled with 0xA5 bytes before the ensemble runs, and
    no element of any field may still hold that pattern.
    """

    CASES = {
        "both-random-caps": (dict(tx_pattern=SphericalCap(0.5), rx_pattern=SphericalCap(0.5), runs=100), None),
        # The unset receiver boresight is NaN.
        "fixed-orientation-tx": (dict(mode="fixed-orientation-tx", tx_pattern=SphericalCap(0.5, (0.0, 1.0, 0.2)),
                                      rx_position=(1.0, 2.0, 1.2), runs=50), None),
        # Most runs pick up no energy, and their moments are NaN; blocks of
        # 16 runs in place of one of 1024.
        "runs-without-energy": (dict(tx_pattern=SphericalCap(0.25), rx_pattern=SphericalCap(0.25),
                                     runs=40, tau_max=8e-9, moment_cutoff=8e-9, grid_stop=8e-9,
                                     grid_step=0.5e-9), 16),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_field_keeps_the_fill_pattern(self, case, workers, monkeypatch, forks):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        kwargs, block = self.CASES[case]
        if block is not None:
            monkeypatch.setattr(McConfig, "block_runs", property(lambda cfg: block))
        run_rows = montecarlo._run_rows

        def filled(runs, layout):
            rows = run_rows(runs, layout)
            rows.view(np.uint8)[:] = 0xA5
            return rows

        monkeypatch.setattr(montecarlo, "_run_rows", filled)
        result = run_ensemble(quick_config(**kwargs), workers=workers)
        assert len(forks.started) == (0 if workers == 1 else 2)
        rows = result.rows
        if case == "fixed-orientation-tx":
            assert np.isnan(rows["rx_boresight"]).all() and not np.isnan(rows["tx_boresight"]).any()
        if case == "runs-without-energy":
            assert 0 < result.missing_moments < len(rows)
        for name in rows.dtype.names:
            field = np.ascontiguousarray(rows[name])
            elements = field.view(np.uint8).reshape(-1, field.dtype.itemsize)
            assert not np.all(elements == 0xA5, axis=1).any(), name


class TestLazyResult:
    def test_mc_steps_build_no_records_and_leave_the_rows_read_only(self, tmp_path):
        cfg = quick_config(runs=4)
        result = run_ensemble(cfg)
        write_bundle(result, tmp_path, {"seed": cfg.seed}, compare_with_theory(result))
        assert "records" not in vars(result)
        assert not result.rows.flags.writeable
        for view in (result.counts_raw, result.power_raw, result.rows["mean_delay"]):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0
        assert len(result.records) == cfg.runs and "records" in vars(result)


PARITY = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "parity", "*.json")))


class TestResolvedOnce:
    """An ``mc`` run derives each value of its config once, however many blocks it has."""

    def test_cube_is_sized_and_scene_summarized_once(self, tmp_path, monkeypatch):
        callers = []
        index_bounds = geometry.index_bounds

        def sizing(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return index_bounds(*args)

        monkeypatch.setattr(geometry, "index_bounds", sizing)
        monkeypatch.setattr(montecarlo, "index_bounds", sizing)
        summaries = []
        from_components = theory.SceneSummary.from_components.__func__

        def summarizing(cls, *args):
            summaries.append(args)
            return from_components(cls, *args)

        monkeypatch.setattr(theory.SceneSummary, "from_components", classmethod(summarizing))
        # 0.1 caps: 80 runs take three blocks, each enumerated once.
        path = next(p for p in PARITY if p.endswith("both-random-cap01.json"))
        argv = ["--config", path, "mc", "--runs", "80", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        assert callers.count("enumerate_indices") >= 3
        assert len([name for name in callers if name != "enumerate_indices"]) == 1
        assert len(summaries) == 1


class TestParityDocuments:
    """Each parity document writes the same ``mc`` bundle, byte for byte, at one and two workers."""

    def test_documents_are_found(self):
        assert len(PARITY) >= 8

    # The API configs of the fixed-aim documents: each fixed boresight is its pattern's aim.
    API = {
        "fixed-rx-cap": dict(mode="fixed-rx", tx_pattern=SphericalCap(0.5),
                             rx_pattern=SphericalCap(0.25, (-0.3, 0.5, 0.2))),
        "fixed-orientation-tx": dict(mode="fixed-orientation-tx", tx_pattern=SphericalCap(0.5, (0.0, 1.0, 0.2)),
                                     rx_pattern=SphericalCap(0.25, (-0.3, 0.5, 0.2))),
    }

    @pytest.mark.parametrize("name", sorted(API))
    def test_fixed_aims_match_aimed_api_patterns(self, name):
        path = next(p for p in PARITY if os.path.basename(p) == f"{name}.json")
        built = config.build_mc_config(config.load_document(path), runs=40, seed=5)
        api = McConfig(room=ROOM, radio=RADIO, runs=40, seed=5, rx_position=(3.8, 4.0, 0.6), **self.API[name])
        rows = run_ensemble(built).rows
        assert rows.tobytes() == run_ensemble(api).rows.tobytes()
        assert not np.isnan(rows["rx_boresight"]).any() and rows["n_paths"].sum() > 0

    @pytest.mark.parametrize("path", PARITY, ids=lambda path: os.path.basename(path)[:-len(".json")])
    def test_bundle_is_independent_of_the_worker_count(self, path, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        # Two blocks, the second of one run, so that both workers start.
        runs = config.build_mc_config(config.load_document(path)).block_runs + 1
        for threads in ("1", "2"):
            argv = ["--config", path, "mc", "--runs", str(runs), "--seed", "5", "--threads", threads,
                    "--out-dir", str(tmp_path / threads)]
            assert cli.main(argv) == 0
        assert len(forks.started) == 2
        assert_no_child_left()
        names = sorted(os.listdir(tmp_path / "1"))
        assert len(names) == 6 and names == sorted(os.listdir(tmp_path / "2"))
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


class TestWriteBundle:
    def test_bundle_files_and_determinism(self, tmp_path):
        cfg = quick_config(runs=4)
        result = run_ensemble(cfg)
        manifest = {"seed": cfg.seed, "runs": cfg.runs}
        report = {"pass": True, "checks": {}}

        first = tmp_path / "a"
        second = tmp_path / "b"
        write_bundle(result, first, manifest, report)
        write_bundle(run_ensemble(cfg), second, manifest, report)

        names = ["counts.csv", "power.csv", "ecdf_mean_delay.csv", "ecdf_rms.csv",
                 "manifest.json", "report.json"]
        for name in names:
            assert (first / name).exists()
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_counts_csv_layout(self, tmp_path):
        cfg = quick_config(runs=3)
        result = run_ensemble(cfg)
        write_bundle(result, tmp_path, {"seed": 1}, compare_with_theory(result))
        lines = (tmp_path / "counts.csv").read_text().strip().split("\n")
        assert lines[0] == "tau_seconds,mean_count,standard_error"
        assert len(lines) == 1 + len(cfg.grid)
