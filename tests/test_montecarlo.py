import dataclasses
import pickle

import numpy as np
import pytest

from roomchan import channel, geometry, montecarlo, theory
from roomchan.antenna import AntennaPattern, Isotropic, SphericalCap, sample_orientation
from roomchan.channel import (
    MAX_ENSEMBLE_POINTS,
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
        with pytest.raises(ConfigError):
            quick_config(mode="fixed-rx", rx_pattern=SphericalCap(0.5), rx_position=(1, 1, 1))

    def test_fixed_distance_needs_feasible_distance(self):
        with pytest.raises(ConfigError):
            quick_config(mode="fixed-distance")
        with pytest.raises(ConfigError):
            quick_config(mode="fixed-distance", distance=100.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            quick_config(mode="sideways")

    @pytest.mark.parametrize("stop,step", [(1e-9, 5e-9), (1e-9, 2e-9)])
    def test_rejects_one_point_grid(self, stop, step):
        with pytest.raises(ConfigError, match="count grid must hold at least two points"):
            quick_config(grid_start=0.0, grid_stop=stop, grid_step=step)
        assert len(quick_config(grid_start=0.0, grid_stop=stop, grid_step=stop).grid()) == 2

    @pytest.mark.parametrize("stop,step", [(10e-9, 4e-9), (10e-9, 3e-9), (10e-9, 1e-9 * (1 + 1e-8))])
    def test_rejects_grid_span_off_the_steps(self, stop, step):
        with pytest.raises(ConfigError, match="mc/grid"):
            quick_config(grid_start=0.0, grid_stop=stop, grid_step=step)

    def test_grid_span_within_a_billionth_of_a_step(self):
        grid = quick_config(grid_start=0.0, grid_stop=10e-9, grid_step=1e-9 * (1 + 1e-11)).grid()
        assert len(grid) == 11 and grid[-1] == 10e-9

    def test_raw_curve_cap(self):
        grid_120ns = dict(tau_max=120e-9, moment_cutoff=120e-9, grid_stop=120e-9, grid_step=0.25e-9)
        assert quick_config(runs=80_000, **grid_120ns).runs == 80_000
        points = len(quick_config(**grid_120ns).grid())
        with pytest.raises(ResourceLimitError, match="cap"):
            quick_config(runs=MAX_ENSEMBLE_POINTS // points + 1, **grid_120ns)


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


class TestDeterminism:
    def test_same_config_same_output(self):
        cfg = quick_config()
        a = run_ensemble(cfg)
        b = run_ensemble(cfg)
        assert np.array_equal(a.counts_raw, b.counts_raw)
        assert np.array_equal(a.power_raw, b.power_raw)

    def test_worker_count_does_not_change_results(self):
        cfg = quick_config(runs=8)
        serial = run_ensemble(cfg, workers=1)
        parallel = run_ensemble(cfg, workers=2)
        assert np.array_equal(serial.counts_raw, parallel.counts_raw)
        assert np.array_equal(serial.power_raw, parallel.power_raw)
        for a, b in zip(serial.records, parallel.records):
            assert a.index == b.index
            assert np.array_equal(a.tx_position, b.tx_position)
            assert a.mean_delay == b.mean_delay

    @pytest.mark.parametrize("cpus,workers,runs,processes", [
        (3, 64, 6, 3),   # clamped to the CPUs
        (8, 8, 2, 2),    # no more processes than blocks
        (None, 4, 6, 0), # unknown CPU count: one worker, in process
        (2, 2, 6, 2),
    ])
    def test_pool_size_is_clamped(self, monkeypatch, cpus, workers, runs, processes):
        started = []

        class FakePool:
            """Runs the pool's work in this process and records its size."""

            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, func, items):
                return map(pickle.loads(pickle.dumps(func)), items)

        monkeypatch.setattr(montecarlo.multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        cfg = quick_config(runs=runs)
        result = run_ensemble(cfg, workers=workers)
        assert started == ([processes] if processes else [])
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


def record_key(record):
    arrays = (record.tx_position, record.rx_position, record.tx_boresight, record.rx_boresight)
    return (
        record.index, *(None if a is None else a.tobytes() for a in arrays),
        record.n_paths, record.energy, record.mean_delay, record.rms_spread,
    )


class TestStreamedAggregation:
    # 203 runs: blocks of 25, 12 and 8 runs at 1, 2 and 3 workers and
    # statistics blocks of _STAT_ROWS rows all end in a partial block.
    RUNS = 203

    @pytest.fixture(scope="class")
    def cfg(self):
        return quick_config(
            runs=self.RUNS, tx_pattern=SphericalCap(0.5), rx_pattern=SphericalCap(0.5)
        )

    @pytest.fixture(scope="class")
    def reference(self, cfg):
        # Run by run through the one-scene functions, not the ensemble's blocks.
        grid, synthesis = cfg.grid(), cfg.synthesis_grid()
        times = synthesis.times()
        inside = int(np.searchsorted(times, cfg.moment_cutoff, side="right"))
        counts, power, records = [], [], []
        for index in range(cfg.runs):
            rng = montecarlo.run_rng(cfg.seed, index)
            tx_pos, tx_ori, rx_pos, rx_ori = montecarlo._draw_terminals(cfg, rng)
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
        # Keep the 3-worker block layout on machines with fewer CPUs.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        result = run_ensemble(cfg, workers=workers)
        counts, power, records = reference
        assert result.counts_raw.dtype == np.int32
        assert result.counts_raw.tobytes() == counts.astype(np.int32).tobytes()
        assert result.power_raw.tobytes() == power.tobytes()
        assert [record_key(r) for r in result.records] == records

        for estimate, raw in ((result.count, counts.astype(float)), (result.power, power)):
            assert estimate.mean.tobytes() == raw.mean(axis=0).tobytes()
            stderr = raw.std(axis=0, ddof=1) / np.sqrt(self.RUNS)
            assert estimate.stderr.tobytes() == stderr.tobytes()

    @pytest.mark.parametrize("shape", [(1, 5), (2, 5), (300, 7), (300, 2), (1, 1)])
    def test_estimate_is_bitwise_dense(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        counts = rng.integers(0, 5000, shape).astype(np.int32)
        power = rng.exponential(1e-9, shape) * rng.random((shape[0], 1))
        for raw in (counts, power):
            estimate = montecarlo._estimate(np.zeros(shape[1]), raw)
            dense = raw.astype(float)
            assert estimate.mean.tobytes() == dense.mean(axis=0).tobytes()
            if shape[0] > 1:
                stderr = dense.std(axis=0, ddof=1) / np.sqrt(shape[0])
            else:
                stderr = np.zeros(shape[1])
            assert estimate.stderr.tobytes() == stderr.tobytes()


def padded_tables(cfg, _run_tables=montecarlo._run_tables):
    """The ensemble's run tables on the full :meth:`McConfig.synthesis_grid`."""
    grid, _, _, cut, runs = _run_tables(cfg)
    synthesis = cfg.synthesis_grid()
    return grid, synthesis, synthesis.times(), cut, runs


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
        grid, synthesis, times, cut, _ = montecarlo._run_tables(cfg)
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
        monkeypatch.setattr(montecarlo, "_run_tables", padded_tables)
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
        synthesis = montecarlo._run_tables(cfg)[1]
        times = synthesis.times()
        inside = int(np.sum(times <= cfg.moment_cutoff))
        assert 0 < inside < times.size
        for record in result.records:
            rng = montecarlo.run_rng(cfg.seed, record.index)
            # Isotropic antennas: the drawn boresights aim nothing.
            tx_pos, _, rx_pos, _ = montecarlo._draw_terminals(cfg, rng)
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

    A short ensemble runs one run a block; a 300-run ensemble puts up to
    _block_runs runs in a block. The first runs must agree bitwise.
    """

    SHORT = 8
    CAP = dict(tau_max=120e-9, moment_cutoff=120e-9, grid_stop=120e-9, grid_step=0.25e-9)
    CASES = {
        "iso": dict(),
        "cap01-mixed-kernels": dict(tx_pattern=SphericalCap(0.1), rx_pattern=SphericalCap(0.1),
                                    phase_mode="carrier", **CAP),
        "cap01-zero-paths": dict(tx_pattern=SphericalCap(0.1), rx_pattern=SphericalCap(0.1),
                                 tau_max=30e-9, moment_cutoff=30e-9, grid_stop=30e-9),
        "cap05-fixed-rx": dict(tx_pattern=SphericalCap(0.5), rx_pattern=SphericalCap(0.5),
                               mode="fixed-rx", rx_position=(1.0, 2.0, 1.2),
                               rx_orientation=(0.3, -0.5, 0.2)),
        "cap05-fixed-orientation-tx": dict(
            tx_pattern=SphericalCap(0.5), rx_pattern=SphericalCap(0.1), mode="fixed-orientation-tx",
            rx_position=(4.0, 1.0, 2.2), rx_orientation=(-0.3, 0.5, 0.1),
            tx_orientation=(0.0, 1.0, 0.2), phase_mode="carrier", **CAP),
        "sector-fixed-distance": dict(tx_pattern=Sector(SphericalCap(0.25)),
                                      rx_pattern=Sector(SphericalCap(0.25)),
                                      mode="fixed-distance", distance=2.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_first_runs_match_a_short_ensemble(self, case, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        if case == "cap01-mixed-kernels":
            # A path-count rule in place of the fitted cost model, so that
            # the first runs take both kernels whatever its constants.
            monkeypatch.setattr(channel, "_lattice_is_cheaper", lambda n, samples, nfft: n > 30)
        cfg = quick_config(runs=300, **self.CASES[case])
        assert montecarlo._run_tables(cfg)[4] > 1
        short = dataclasses.replace(cfg, runs=self.SHORT)
        kernels = []
        for name in ("_direct_sum", "_lattice_sum"):
            kernel = getattr(channel, name)
            monkeypatch.setattr(channel, name, lambda *a, _k=kernel, _n=name: kernels.append(_n) or _k(*a))
        reference = run_ensemble(short, workers=1)
        if case == "cap01-mixed-kernels":
            assert set(kernels) == {"_direct_sum", "_lattice_sum"}
        if case == "cap01-zero-paths":
            assert 0 < reference.missing_moments < self.SHORT
        keys = [record_key(r) for r in reference.records]
        for workers in (1, 2):
            result = run_ensemble(cfg, workers=workers)
            assert result.counts_raw[: self.SHORT].tobytes() == reference.counts_raw.tobytes()
            assert result.power_raw[: self.SHORT].tobytes() == reference.power_raw.tobytes()
            assert [record_key(r) for r in result.records[: self.SHORT]] == keys
        assert run_ensemble(short, workers=2).power_raw.tobytes() == reference.power_raw.tobytes()


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
        grid, synthesis, _, _, block = montecarlo._run_tables(cfg)
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
            tx_pattern=SphericalCap(0.5),
            rx_position=(1.0, 2.0, 1.2),
            tx_orientation=(0.0, 1.0, 0.0),
        )
        result = run_ensemble(cfg)
        for record in result.records:
            assert np.allclose(record.tx_boresight, [0.0, 1.0, 0.0])

    def test_replace_keeps_fixed_orientations_bitwise(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            cfg = quick_config(
                mode="fixed-orientation-tx", tx_pattern=SphericalCap(0.5),
                rx_pattern=SphericalCap(0.5), rx_position=(1.0, 2.0, 1.2),
                tx_orientation=sample_orientation(rng), rx_orientation=sample_orientation(rng),
            )
            again = dataclasses.replace(cfg, runs=3)
            for field in ("tx_orientation", "rx_orientation"):
                assert getattr(again, field).tobytes() == getattr(cfg, field).tobytes()
            for ours, theirs in zip(again.fixed_boresights, cfg.fixed_boresights):
                assert ours.tobytes() == theirs.tobytes()

    def test_fixed_distance_pins_separation(self):
        cfg = quick_config(mode="fixed-distance", distance=1.5)
        result = run_ensemble(cfg)
        for record in result.records:
            gap = np.linalg.norm(record.tx_position - record.rx_position)
            assert gap == pytest.approx(1.5, rel=1e-12)
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
    grid = cfg.grid()
    zeros = np.zeros_like(grid)
    est_count = McEstimate(grid, count_mean, zeros, cfg.runs)
    est_power = McEstimate(grid, power_mean, zeros, cfg.runs)
    raw = np.tile(count_mean, (cfg.runs, 1))
    return McResult(
        config=cfg, count=est_count, power=est_power,
        mean_delay=None, rms_spread=None, records=[], missing_moments=0,
        counts_raw=raw, power_raw=np.tile(power_mean, (cfg.runs, 1)),
    )


class TestCompareWithTheory:
    def test_exact_curves_pass_with_zero_error(self):
        cfg = quick_config(runs=2, tau_max=120e-9, moment_cutoff=120e-9,
                           grid_stop=120e-9, grid_step=0.25e-9)
        scene = theory.SceneSummary.from_components(ROOM, RADIO, ISO, ISO)
        grid = cfg.grid()
        spectrum = theory.pds(scene, grid, mode="randomized", corrected=True)
        power = theory.expected_received_power(spectrum, RADIO, grid)
        result = synthetic_result(cfg, theory.mean_count(scene, grid), power)
        report = compare_with_theory(result)
        assert report["pass"]
        assert report["checks"]["mean_count"]["max_rel_error"] == 0.0
        assert report["checks"]["tail_decay"]["rel_error_corrected"] < 0.01

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
        grid = cfg.grid()
        result = synthetic_result(cfg, theory.mean_count(scene, grid), np.exp(grid / 20e-9))
        report = compare_with_theory(result)
        assert set(report["checks"]) == {"mean_count"}
        assert report["notes"] == ["tail checks skipped: power does not decay over the fit window"]

    def test_mismatched_grids_rejected(self):
        cfg_a = quick_config()
        cfg_b = quick_config(grid_step=2e-9)
        n_a, n_b = len(cfg_a.grid()), len(cfg_b.grid())
        a = synthetic_result(cfg_a, np.ones(n_a), np.ones(n_a))
        b = synthetic_result(cfg_b, np.ones(n_b), np.ones(n_b))
        with pytest.raises(ConfigError):
            compare_power_curves(a, b, (10e-9, 30e-9))


class TestFitDecayTime:
    def test_recovers_known_exponential(self):
        taus = np.linspace(0, 100e-9, 401)
        power = 3.0 * np.exp(-taus / 20e-9)
        assert fit_decay_time(taus, power, (10e-9, 90e-9)) == pytest.approx(20e-9, rel=1e-9)

    def test_growth_rejected(self):
        taus = np.linspace(0, 100e-9, 401)
        with pytest.raises(ConfigError):
            fit_decay_time(taus, np.exp(taus / 20e-9), (10e-9, 90e-9))


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
        assert len(lines) == 1 + len(cfg.grid())
