import json
import time

import numpy as np
import pytest

from roomchan import montecarlo
from roomchan.cli import main

FIG_POSITIONS = {"tx_m": [2.5, 2.5, 1.5], "rx_m": [3.8, 4.0, 0.6]}
TAU0 = float(np.sqrt(4.75) / 3e8)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def small_mc_section(runs=2, seed=3):
    return {
        "runs": runs,
        "seed": seed,
        "mode": "both-random",
        "tau_max_s": 30e-9,
        "moment_cutoff_s": 30e-9,
        "grid": {"start_s": 0.0, "stop_s": 30e-9, "step_s": 1e-9},
    }


class TestHelpAndUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "paths" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 2


class TestConfigValidation:
    # One case per rule of the key table: the key path a rejection names, or
    # None when the document is accepted.
    @pytest.mark.parametrize("doc,path", [
        ({"colour": "red"}, "colour"),
        ({"room": {"color": "red"}}, "room/color"),
        ({"antennas": {"tx": {"pattern": "isotropic", "gain_db": 3}}}, "antennas/tx/gain_db"),
        ({"radio": {"bandwidth_hz": True}}, "radio/bandwidth_hz"),
        ({"mc": {"runs": 2.0}}, None),
        ({"mc": {"runs": 1.5}}, "mc/runs"),
        ({"mc": {"runs": 0}}, "mc/runs"),
        ({"room": {"lengths_m": [5, 5]}}, "room/lengths_m"),
        ({"room": {"lengths_m": [5, 5, 3, 1]}}, "room/lengths_m"),
        ({"room": {"wall_gains": 0.5}}, None),
        ({"room": {"wall_gains": [0.6] * 5}}, "room/wall_gains"),
        ({"room": {"wall_gains": [0.6] * 6}}, None),
        ({"antennas": {"tx": {"beam_fraction": 0.5}}}, "antennas/tx/pattern"),
        ({"positions": {"tx_m": [1, 1, 1]}}, "positions/rx_m"),
        ({"mc": {"mode": "sideways"}}, "mc/mode"),
        ({"mc": {"phase_mode": "zero"}}, "mc/phase_mode"),
        ({"schema_version": 2}, "schema_version"),
        ({"output": {"directory": 5}}, "output/directory"),
    ])
    def test_key_table_rule(self, tmp_path, capsys, doc, path):
        cfg = write_config(tmp_path, doc)
        code = main(["--config", cfg, "theory", "--curves", "mixing", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        if path is None:
            assert code == 0, err
        else:
            assert code == 2
            assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1

    # A value set two ways is refused as written, before the defaults fill in.
    @pytest.mark.parametrize("doc,section", [
        ({"radio": {"wavelength_m": 5e-3, "center_frequency_hz": 60e9}}, "radio"),
        ({"antennas": {"tx": {"pattern": "cap", "beam_fraction": 0.5, "orientation": [1, 0, 0], "aim": "los"}}},
         "antennas/tx"),
    ])
    @pytest.mark.parametrize("command", [["paths", "--out"], ["signal", "--out"],
                                         ["theory", "--out-dir"], ["mc", "--out-dir"]])
    def test_value_set_two_ways_is_config_error(self, tmp_path, capsys, doc, section, command):
        cfg = write_config(tmp_path, dict(doc, positions=FIG_POSITIONS, mc=small_mc_section()))
        out = tmp_path / "out"
        assert main(["--config", cfg, *command, str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}: set ") and err.endswith(", not both\n")
        assert err.count("\n") == 1
        assert not out.exists()

    # A cap's key on an isotropic antenna would be silently ignored.
    @pytest.mark.parametrize("antennas,message", [
        ({"tx": {"pattern": "isotropic", "beam_fraction": 0.1},
          "rx": {"pattern": "isotropic", "orientation": [0, 0, 1]}},
         "antennas/tx: isotropic pattern takes no 'beam_fraction'"),
        ({"rx": {"pattern": "isotropic", "orientation": [0, 0, 1], "beam_fraction": 1.0}},
         "antennas/rx: isotropic pattern takes no 'beam_fraction', 'orientation'"),
        ({"tx": {"pattern": "isotropic", "aim": "los"}}, "antennas/tx: isotropic pattern takes no 'aim'"),
    ])
    @pytest.mark.parametrize("command", [["theory", "--curves", "count,mixing", "--out-dir"], ["mc", "--out-dir"]])
    def test_cap_key_on_isotropic_antenna_is_config_error(self, tmp_path, capsys, antennas, message, command):
        cfg = write_config(tmp_path, {"antennas": antennas, "mc": small_mc_section()})
        out = tmp_path / "out"
        assert main(["--config", cfg, *command, str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_unknown_key_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"room": {"lengths_m": [5, 5, 3], "color": "red"}})
        code = main(["--config", cfg, "paths", "--out", str(tmp_path / "p.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "room" in err and "color" in err

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "theory", "--out-dir", str(tmp_path)]) == 2

    def test_wrong_schema_version(self, tmp_path):
        cfg = write_config(tmp_path, {"schema_version": 2})
        assert main(["--config", cfg, "theory", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, literal):
        path = tmp_path / "config.json"
        path.write_text('{"radio": {"bandwidth_hz": %s}}' % literal)
        code = main(["--config", str(path), "mc", "--runs", "1", "--out-dir", str(tmp_path / "b")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and literal in err

    @pytest.mark.parametrize("command", ["theory", "mc"])
    @pytest.mark.parametrize("template", [
        '{"radio": {"bandwidth_hz": %s}}',
        '{"room": {"lengths_m": [5, %s, 3]}}',
        '{"mc": {"tau_max_s": %s}}',
        '{"mc": {"runs": %s}}',
    ], ids=["bandwidth_hz", "lengths_m", "tau_max_s", "runs"])
    def test_integer_beyond_float_range_is_config_error(self, tmp_path, capsys, command, template):
        path = tmp_path / "config.json"
        path.write_text(template % ("1" + "0" * 400))
        code = main(["--config", str(path), command, "--out-dir", str(tmp_path / "b")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: integer literal of 401 characters is out of range\n"

    def test_integer_beyond_digit_limit_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"mc": {"seed": %s}}' % ("7" * 5000))
        code = main(["--config", str(path), "mc", "--out-dir", str(tmp_path / "b")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: integer literal of 5000 characters is out of range\n"

    def test_negative_speed_of_light_names_speed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"radio": {"speed_of_light_m_per_s": -3e8}})
        assert main(["--config", cfg, "theory", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: radio: speed of light must lie in [1e-30, 1e+30], got -3e+08\n"

    # Sides past the domain, where volume, surface area and diagonal all
    # overflow, or the diagonal alone.
    @pytest.mark.parametrize("lengths,side", [([1e300, 1e300, 1e300], "1e+300"), ([1e200, 5, 3], "1e+200")])
    @pytest.mark.parametrize("command", [["theory"], ["mc", "--runs", "2"]])
    def test_overflowing_room_is_config_error(self, tmp_path, capsys, lengths, side, command):
        cfg = write_config(tmp_path, {"room": {"lengths_m": lengths}, "mc": small_mc_section()})
        assert main(["--config", cfg, *command, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: room: room lengths must lie in [1e-30, 1e+30], got {side}\n"
        assert not (tmp_path / "out").exists()

    # Inputs of extreme magnitude: a boresight whose norm overflows, a line
    # of sight whose norm underflows or overflows, an index cube past int64
    # or float64, values outside the model's domain where closed-form scales
    # would overflow or underflow, terminals nearer than a wavelength, and a
    # horizon shorter than one pulse. Each is refused with one stderr line,
    # no numpy warning and no output.
    CAP = {"pattern": "cap", "beam_fraction": 0.5}
    THIN = {"room": {"lengths_m": [1e-20, 5, 3]}, "positions": {"tx_m": [0, 1, 1], "rx_m": [5e-21, 3, 2]}}
    THINNER = {"room": {"lengths_m": [1e-100, 5, 3]}, "positions": {"tx_m": [0, 1, 1], "rx_m": [5e-101, 3, 2]}}
    TINY = {"room": {"lengths_m": [1e-100, 1e-100, 1e-100]}}
    SIDE = "config error: room: room lengths must lie in [1e-30, 1e+30], got 1e-100"
    FAST = {"radio": {"speed_of_light_m_per_s": 1e120}}
    SPEED = "config error: radio: speed of light must lie in [1e-30, 1e+30], got 1e+120"
    NEAR = {"positions": {"tx_m": [0, 0, 0], "rx_m": [0, 0, 1e-160]}}
    APART = "config error: terminals must lie a wavelength, 0.005 m, or more apart"
    MM = {"positions": {"tx_m": [1, 1, 1], "rx_m": [1, 1, 1.001]}}
    NEAR_157 = {"positions": {"tx_m": [0, 0, 0], "rx_m": [0, 0, 1e-157]}}
    HIGH = {"radio": {"center_frequency_hz": 1e300}, "positions": FIG_POSITIONS}
    SHORT = {"radio": {"wavelength_m": 1e-300}, "positions": FIG_POSITIONS}
    LONG = {"radio": {"wavelength_m": 1e300}, "positions": FIG_POSITIONS}
    WAVELENGTH = "config error: radio: wavelength must lie in [1e-30, 1e+30], got "
    NARROW = {"radio": {"bandwidth_hz": 1e6}, "positions": FIG_POSITIONS}
    PULSE = "config error: horizon of 3e-08 s is shorter than one pulse, 1e-06 s"
    SLOW = {"radio": {"bandwidth_hz": 1e-300}}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("doc,argv,err", [
        ({"antennas": {"tx": dict(CAP, orientation=[1e200, 0, 0])}, "positions": FIG_POSITIONS}, ["paths"],
         "config error: antennas/tx: boresight must have a positive, finite norm"),
        ({"antennas": {"rx": dict(CAP, orientation=[0, 0, 1])},
          "mc": dict(small_mc_section(), mode="fixed-rx",
                     fixed={"rx_position_m": [1, 1, 1], "rx_orientation": [1e200, 0, 0]})}, ["mc"],
         "config error: rx_orientation: boresight must have a positive, finite norm"),
        ({"antennas": {"tx": dict(CAP, aim="los")}, "positions": {"tx_m": [0, 0, 0], "rx_m": [1e-170, 0, 0]}},
         ["paths"], APART),
        ({"room": {"lengths_m": [1e200, 5, 3]}, "antennas": {"rx": dict(CAP, aim="los")},
          "positions": {"tx_m": [0, 1, 1], "rx_m": [9e199, 1, 1]}},
         ["paths"], "config error: room: room lengths must lie in [1e-30, 1e+30], got 1e+200"),
        (THIN, ["paths"], "resource limit: index cube holds 1.782e+23 cells"),
        (THIN, ["mc", "--runs", "2"], "resource limit: index cube holds 1.782e+23 cells"),
        (THINNER, ["paths"], SIDE),
        (THINNER, ["mc", "--runs", "2"], SIDE),
        (TINY, ["mc"], SIDE),
        (TINY, ["theory"], SIDE),
        ({"positions": FIG_POSITIONS}, ["paths", "--tau-max", "1e12"], "resource limit: index cube holds 2.88e+60 cells"),
        (FAST, ["theory"], SPEED),
        (FAST, ["mc"], SPEED),
        (NEAR, ["theory", "--pds-mode", "deterministic"], APART),
        (NEAR, ["paths"], APART),
        (NEAR, ["signal"], APART),
        (MM, ["theory", "--pds-mode", "deterministic"], APART),
        (MM, ["paths"], APART),
        (MM, ["signal"], APART),
        (NEAR_157, ["paths"], APART),
        ({"mc": dict(small_mc_section(), mode="fixed-distance", fixed={"distance_m": 0.001})}, ["mc"],
         "config error: mode 'fixed-distance' needs a distance of a wavelength or more"),
        (NARROW, ["mc"], PULSE),
        (NARROW, ["signal"], PULSE),
        ({"positions": FIG_POSITIONS}, ["signal", "--tau-max", "1e-10"],
         "config error: horizon of 1e-10 s is shorter than one pulse, 5e-10 s"),
        (SLOW, ["mc"], "config error: radio: bandwidth must lie in [1e-30, 1e+30], got 1e-300"),
        (HIGH, ["paths"], WAVELENGTH + "3e-292"),
        (HIGH, ["signal"], WAVELENGTH + "3e-292"),
        (HIGH, ["mc"], WAVELENGTH + "3e-292"),
        (HIGH, ["theory"], WAVELENGTH + "3e-292"),
        (SHORT, ["paths"], WAVELENGTH + "1e-300"),
        (SHORT, ["signal"], WAVELENGTH + "1e-300"),
        (SHORT, ["mc"], WAVELENGTH + "1e-300"),
        (SHORT, ["theory"], WAVELENGTH + "1e-300"),
        (LONG, ["paths"], WAVELENGTH + "1e+300"),
        (LONG, ["signal"], WAVELENGTH + "1e+300"),
    ], ids=["orientation", "fixed-rx-orientation", "los-underflow", "los-overflow", "thin-paths", "thin-mc",
            "thin-1e-100-paths", "thin-1e-100-mc", "tiny-mc", "tiny-theory",
            "tau-max", "speed-theory", "speed-mc", "near-theory", "near-paths", "near-signal",
            "mm-theory", "mm-paths", "mm-signal", "near-1e-157-paths", "fixed-distance-mm",
            "pulse-mc", "pulse-signal", "pulse-tau-max", "bandwidth-1e-300-mc",
            "frequency-1e300-paths", "frequency-1e300-signal", "frequency-1e300-mc", "frequency-1e300-theory",
            "wavelength-1e-300-paths", "wavelength-1e-300-signal", "wavelength-1e-300-mc",
            "wavelength-1e-300-theory", "wavelength-1e300-paths", "wavelength-1e300-signal"])
    def test_extreme_magnitude_is_exit_two(self, tmp_path, capsys, doc, argv, err):
        cfg = write_config(tmp_path, dict({"mc": small_mc_section()}, **doc))
        out = tmp_path / "out"
        flag = "--out" if argv[0] in ("paths", "signal") else "--out-dir"
        assert main(["--config", cfg, *argv, flag, str(out)]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(err) and stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_resource_limit_is_exit_two(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path, {"room": {"lengths_m": [1e-9, 5, 3]}, "mc": small_mc_section()})
        code = main(["--config", cfg, "mc", "--runs", "2", "--threads", threads,
                     "--out-dir", str(tmp_path / "b")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("resource limit:") and err.count("\n") == 1

    def test_unplaceable_distance_is_refused_before_any_run(self, tmp_path, capsys, monkeypatch):
        # 7 m in the 5 x 5 x 3 m room places the terminals once in 94,000 draws.
        monkeypatch.setattr(montecarlo, "run_ensemble", lambda *a, **k: pytest.fail("ensemble started"))
        mc = dict(small_mc_section(), mode="fixed-distance", fixed={"distance_m": 7.0})
        cfg = write_config(tmp_path, {"mc": mc})
        code = main(["--config", cfg, "mc", "--runs", "60", "--seed", "7", "--threads", "2",
                     "--out-dir", str(tmp_path / "b")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: a distance of 7 m places the terminals with probability 1.06e-05 a draw, "
            "less than 1/10000\n"
        )
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("doc", [
        {"mc": {"grid": {"step_s": 1e-30}}},
        {"radio": {"bandwidth_hz": 1e20}},
    ])
    def test_oversized_grid_is_resource_limit(self, tmp_path, capsys, doc):
        cfg = write_config(tmp_path, doc)
        code = main(["--config", cfg, "mc", "--runs", "1", "--out-dir", str(tmp_path / "b")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("resource limit:") and "points" in err and err.count("\n") == 1
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_oversized_ensemble_is_resource_limit(self, tmp_path, capsys, threads):
        # A billion runs of the default 481-point grid: refused before any
        # curve is allocated or any run starts.
        cfg = write_config(tmp_path, {"schema_version": 1})
        started = time.monotonic()
        code = main(["--config", cfg, "mc", "--runs", "1000000000", "--threads", threads,
                     "--out-dir", str(tmp_path / "b")])
        assert time.monotonic() - started < 5.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("resource limit:") and "cap" in err and err.count("\n") == 1
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_ensemble_cap_counts_whole_rows(self, tmp_path, capsys, monkeypatch, threads):
        # 25M runs of a 2-point grid hold 50M curve points, within a cap on
        # curve points alone, but their rows take 3.8 GB.
        allocated = []
        monkeypatch.setattr(montecarlo, "_run_rows", lambda *args: allocated.append(args))
        cfg = write_config(tmp_path, {"mc": {"grid": {"start_s": 0.0, "stop_s": 0.25e-9, "step_s": 0.25e-9}}})
        started = time.monotonic()
        code = main(["--config", cfg, "mc", "--runs", "25000000", "--threads", threads,
                     "--out-dir", str(tmp_path / "b")])
        assert time.monotonic() - started < 5.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("resource limit: 25000000 runs x 2 grid points take 3.8e+09 bytes of rows")
        assert err.count("\n") == 1
        assert allocated == [] and not (tmp_path / "b").exists()


class TestPathsCommand:
    def test_first_row_is_direct_path(self, tmp_path):
        cfg = write_config(tmp_path, {"positions": FIG_POSITIONS})
        out = tmp_path / "paths.csv"
        assert main(["--config", cfg, "paths", "--tau-max", "30e-9", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        assert (first["kx"], first["ky"], first["kz"]) == ("0", "0", "0")
        assert float(first["tau_s"]) == pytest.approx(TAU0, rel=1e-12)
        assert float(first["tau_s"]) == pytest.approx(7.265e-9, rel=1e-3)

    def test_horizon_below_direct_delay_gives_header_only(self, tmp_path):
        cfg = write_config(tmp_path, {"positions": FIG_POSITIONS})
        out = tmp_path / "paths.csv"
        assert main(["--config", cfg, "paths", "--tau-max", "1e-9", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("kx,ky,kz,tau_s")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"positions": FIG_POSITIONS})
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["--config", cfg, "paths", "--tau-max", "25e-9", "--out", str(out_a)])
        main(["--config", cfg, "paths", "--tau-max", "25e-9", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_positions_required(self, tmp_path):
        cfg = write_config(tmp_path, {})
        assert main(["--config", cfg, "paths", "--out", str(tmp_path / "p.csv")]) == 2

    def test_full_coverage_caps_match_isotropic(self, tmp_path):
        # tx 1 m straight below rx: the departure of image (0, 0, -5) has a
        # dot product of -1 - 2**-52 with the tx boresight.
        tx = [1.6805853027283018, 0.7513973344741953, 1.351018099947861]
        positions = {"tx_m": tx, "rx_m": [tx[0], tx[1], tx[2] + 1.0]}
        outputs = []
        for name, antenna in (("cap", {"pattern": "cap", "beam_fraction": 1, "aim": "los"}),
                              ("iso", {"pattern": "isotropic"})):
            doc = {"antennas": {"tx": antenna, "rx": antenna}, "positions": positions}
            out = tmp_path / f"{name}.csv"
            cfg = write_config(tmp_path, doc, f"{name}.json")
            assert main(["--config", cfg, "paths", "--tau-max", "60e-9", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestFixedSceneInput:
    @pytest.mark.parametrize("command", ["paths", "signal"])
    def test_position_outside_room_is_config_error(self, tmp_path, capsys, command):
        positions = {"tx_m": [9.0, 2.5, 1.5], "rx_m": [3.8, 4.0, 0.6]}
        cfg = write_config(tmp_path, {"positions": positions})
        assert main(["--config", cfg, command, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: positions/tx_m") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["paths", "signal"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
    def test_bad_horizon_flag_is_usage_error(self, tmp_path, capsys, command, value):
        cfg = write_config(tmp_path, {"positions": FIG_POSITIONS})
        code = main(["--config", cfg, command, f"--tau-max={value}", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.strip().splitlines()[-1]
        assert last.endswith(f"argument --tau-max: must be finite and non-negative, got {value!r}")

    @pytest.mark.parametrize("command", ["paths", "signal", "theory"])
    @pytest.mark.parametrize("tx", [{"pattern": "isotropic"},
                                    {"pattern": "cap", "beam_fraction": 0.5, "aim": "los"}])
    def test_coincident_positions_are_config_error(self, tmp_path, capsys, command, tx):
        positions = {"tx_m": [2.5, 2.5, 1.5], "rx_m": [2.5, 2.5, 1.5]}
        cfg = write_config(tmp_path, {"positions": positions, "antennas": {"tx": tx}})
        out = tmp_path / "o.csv"
        flag = "--out-dir" if command == "theory" else "--out"
        assert main(["--config", cfg, command, flag, str(out)]) == 2
        assert capsys.readouterr().err == "config error: transmitter and receiver coincide\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["paths", "signal", "theory", "mc"])
    @pytest.mark.parametrize("fractions", [(5e-324, 1.0), (1e-200, 1e-200)])
    def test_sub_resolution_cap_is_config_error(self, tmp_path, capsys, command, fractions):
        # Along the boresight such caps gave an infinite path gain or an
        # overflowing gain product, and NaN signal samples.
        antennas = {
            side: {"pattern": "cap", "beam_fraction": fraction, "orientation": [0, 0, sign]}
            for side, fraction, sign in zip(("tx", "rx"), fractions, (-1, 1))
        }
        positions = {"tx_m": [2.5, 2.5, 1.5], "rx_m": [2.5, 2.5, 0.5]}
        cfg = write_config(tmp_path, {"positions": positions, "antennas": antennas,
                                      "mc": small_mc_section()})
        out = tmp_path / "out"
        flag = "--out" if command in ("paths", "signal") else "--out-dir"
        assert main(["--config", cfg, command, flag, str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: antennas/tx: beam coverage fraction")
        assert err.endswith("is too small: 1 - 2 * fraction rounds to 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [str(2**64), str(-2**63 - 1)])
    def test_signal_seed_outside_key_word_is_usage_error(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, {"positions": FIG_POSITIONS})
        out = tmp_path / "o.csv"
        code = main(["--config", cfg, "signal", "--phase-mode", "random", f"--seed={seed}",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: must lie in [{-2**63}, {2**63}), got {seed!r}" in err
        assert not out.exists()

    def test_negative_horizon_in_config_is_config_error(self, tmp_path, capsys):
        mc = {"tau_max_s": -1e-9, "moment_cutoff_s": -1e-9}
        cfg = write_config(tmp_path, {"positions": FIG_POSITIONS, "mc": mc})
        assert main(["--config", cfg, "paths", "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == "config error: mc/tau_max_s: must be non-negative\n"


class TestTheoryCommand:
    def test_mixing_time_value(self, tmp_path):
        cfg = write_config(tmp_path, {})
        assert main(["--config", cfg, "theory", "--curves", "mixing", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "mixing.csv").read_text().strip().split("\n")
        assert lines[0] == "tau_mix_seconds"
        assert float(lines[1]) == pytest.approx(21e-9, rel=0.02)

    def test_randomized_pds_ignores_antennas(self, tmp_path):
        iso_dir = tmp_path / "iso"
        cap_dir = tmp_path / "cap"
        cfg_iso = write_config(tmp_path, {}, "iso.json")
        cfg_cap = write_config(
            tmp_path,
            {"antennas": {"tx": {"pattern": "cap", "beam_fraction": 0.25},
                          "rx": {"pattern": "cap", "beam_fraction": 0.5}}},
            "cap.json",
        )
        assert main(["--config", cfg_iso, "theory", "--curves", "pds", "--out-dir", str(iso_dir)]) == 0
        assert main(["--config", cfg_cap, "theory", "--curves", "pds", "--out-dir", str(cap_dir)]) == 0
        assert (iso_dir / "pds.csv").read_bytes() == (cap_dir / "pds.csv").read_bytes()

    def test_unknown_curve_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, {})
        assert main(["--config", cfg, "theory", "--curves", "banana", "--out-dir", str(tmp_path)]) == 2

    def test_deterministic_pds_needs_positions(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        out = tmp_path / "curves"
        code = main(["--config", cfg, "theory", "--curves", "count,pds",
                     "--pds-mode", "deterministic", "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: pds curve: this quantity needs the direct-path delay in the scene\n"
        )
        assert not out.exists()

    def test_count_curve_grid_flag(self, tmp_path):
        cfg = write_config(tmp_path, {})
        assert main(["--config", cfg, "theory", "--curves", "count",
                     "--grid", "0,40e-9,10e-9", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "count.csv").read_text().strip().split("\n")
        assert len(lines) == 6  # header + 5 grid points

    def test_grid_flag_within_a_billionth_of_a_step(self, tmp_path):
        cfg = write_config(tmp_path, {})
        assert main(["--config", cfg, "theory", "--curves", "count",
                     "--grid", "0,10e-9,1.00000000001e-9", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "count.csv").read_text().strip().split("\n")
        assert len(lines) == 12  # header + 11 grid points

    def test_default_grid_is_the_mc_count_grid(self, tmp_path):
        cfg = write_config(tmp_path, {"mc": {"runs": 1}})
        assert main(["--config", cfg, "theory", "--curves", "count,rate,pds",
                     "--out-dir", str(tmp_path / "t")]) == 0
        assert main(["--config", cfg, "mc", "--out-dir", str(tmp_path / "m")]) == 0

        def taus(path):
            return [line.split(",")[0] for line in path.read_text().splitlines()]

        expected = taus(tmp_path / "m" / "counts.csv")
        assert len(expected) == 482 and float(expected[-1]) == 120e-9
        for name in ("count.csv", "rate.csv", "pds.csv"):
            assert taus(tmp_path / "t" / name) == expected

    @pytest.mark.parametrize(
        "grid", ["0,1e-7", "a,b,c", "0,1e-7,-1e-9", "0,nan,1e-9", "0,1e-7,0", "1e-7,0,1e-9",
                 "0,10e-9,4e-9", "0,10e-9,3e-9", "0,10e-9,1.00000001e-9"]
    )
    def test_bad_grid_flag_is_usage_error(self, tmp_path, capsys, grid):
        cfg = write_config(tmp_path, {})
        code = main(["--config", cfg, "theory", "--curves", "count", f"--grid={grid}",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("usage:")
        assert "argument --grid: " in err and repr(grid) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gain", [0.0, 1.0])
    def test_pds_without_exponential_tail_is_config_error(self, tmp_path, capsys, gain):
        cfg = write_config(tmp_path, {"room": {"wall_gains": gain}})
        code = main(["--config", cfg, "theory", "--out-dir", str(tmp_path / "all")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: pds curve:") and err.count("\n") == 1
        assert not (tmp_path / "all").exists()
        code = main(["--config", cfg, "theory", "--curves", "count,rate,mixing",
                     "--out-dir", str(tmp_path / "rest")])
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "rest").iterdir()) == [
            "count.csv", "mixing.csv", "rate.csv"
        ]

    @pytest.mark.parametrize("gain", [0.002, 1e-300])
    def test_corrected_pds_past_the_sign_change_is_config_error(self, tmp_path, capsys, gain):
        # Kuttruff's correction turns negative below g = exp(-2/0.35) = 0.0033.
        cfg = write_config(tmp_path, {"room": {"wall_gains": gain}})
        code = main(["--config", cfg, "theory", "--curves", "pds", "--corrected",
                     "--out-dir", str(tmp_path / "corrected")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: pds curve: correction needs reflectance above exp(-2/gamma_sq) = 0.0033\n"
        )
        assert not (tmp_path / "corrected").exists()
        code = main(["--config", cfg, "theory", "--curves", "pds", "--out-dir", str(tmp_path / "plain")])
        assert code == 0


class TestMcCommand:
    @pytest.mark.parametrize("threads", ["0", "-1", "two"])
    def test_bad_threads_flag_is_usage_error(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path, {"mc": small_mc_section()})
        code = main(["--config", cfg, "mc", f"--threads={threads}", "--out-dir", str(tmp_path / "b")])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "argument --threads: " in err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("seed,code", [
        (2**63, 2), (2**64 - 1, 2), (2**64, 2), (-2**63 - 1, 2), (-1, 0), (2**63 - 1, 0),
    ])
    def test_seed_range(self, tmp_path, capsys, source, seed, code):
        mc = small_mc_section(runs=1)
        argv = ["mc", "--out-dir", str(tmp_path / "b")]
        if source == "flag":
            argv[1:1] = ["--seed", str(seed)]
        else:
            mc["seed"] = seed
        assert main(["--config", write_config(tmp_path, {"mc": mc})] + argv) == code
        assert (tmp_path / "b").exists() == (code == 0)
        assert "Traceback" not in capsys.readouterr().err

    def test_integral_float_runs_and_seed_are_integers(self, tmp_path):
        mc = dict(small_mc_section(), runs=2.0, seed=3.0)
        assert main(["--config", write_config(tmp_path, {"mc": mc}), "mc",
                     "--out-dir", str(tmp_path / "f")]) == 0
        assert main(["--config", write_config(tmp_path, {"mc": small_mc_section()}, "i.json"),
                     "mc", "--out-dir", str(tmp_path / "i")]) == 0
        for name in ("counts.csv", "power.csv", "manifest.json"):
            assert (tmp_path / "f" / name).read_bytes() == (tmp_path / "i" / name).read_bytes()

    @pytest.mark.parametrize("cutoff", [-1e-6, -5e-9, 0.0])
    def test_cutoff_at_or_before_zero_is_config_error(self, tmp_path, capsys, cutoff):
        mc = dict(small_mc_section(), moment_cutoff_s=cutoff)
        cfg = write_config(tmp_path, {"mc": mc})
        assert main(["--config", cfg, "mc", "--out-dir", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == "config error: moment cutoff must be positive\n"
        assert not (tmp_path / "b").exists()

    def test_one_point_count_grid_is_config_error(self, tmp_path, capsys):
        mc = dict(small_mc_section(), grid={"start_s": 0.0, "stop_s": 1e-9, "step_s": 5e-9})
        cfg = write_config(tmp_path, {"mc": mc})
        assert main(["--config", cfg, "mc", "--out-dir", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == "config error: count grid must hold at least two points\n"
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("step", [4e-9, 3e-9])
    def test_grid_span_off_the_steps_is_config_error(self, tmp_path, capsys, step):
        mc = dict(small_mc_section(), grid={"start_s": 0.0, "stop_s": 10e-9, "step_s": step})
        cfg = write_config(tmp_path, {"mc": mc})
        assert main(["--config", cfg, "mc", "--out-dir", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: mc/grid: ") and err.count("\n") == 1
        assert not (tmp_path / "b").exists()

    def test_distinct_walls_keep_the_count_check(self, tmp_path, capsys):
        mc = dict(small_mc_section(runs=2), tau_max_s=60e-9, moment_cutoff_s=60e-9)
        mc["grid"] = {"start_s": 0.0, "stop_s": 60e-9, "step_s": 1e-9}
        room = {"wall_gains": [0.5, 0.6, 0.6, 0.6, 0.7, 0.6]}
        cfg = write_config(tmp_path, {"room": room, "mc": mc})
        out = tmp_path / "b"
        code = main(["--config", cfg, "mc", "--check", "--out-dir", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert set(report["checks"]) == {"mean_count"}
        assert code == (0 if report["pass"] else 1)
        assert report["notes"] == ["tail checks skipped: walls have distinct gains; no single reflectance"]
        code = main(["--config", cfg, "theory", "--curves", "count,rate,mixing",
                     "--out-dir", str(tmp_path / "curves")])
        assert code == 0
        code = main(["--config", cfg, "theory", "--curves", "pds", "--out-dir", str(tmp_path / "pds")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: pds curve: walls have distinct gains; no single reflectance\n"
        )
        assert not (tmp_path / "pds").exists()

    @pytest.mark.parametrize("gain", [0.002, 1e-300])
    def test_walls_past_the_correction_sign_change_skip_the_tail_checks(self, tmp_path, gain):
        mc = dict(small_mc_section(runs=2), tau_max_s=60e-9, moment_cutoff_s=60e-9)
        mc["grid"] = {"start_s": 0.0, "stop_s": 60e-9, "step_s": 1e-9}
        cfg = write_config(tmp_path, {"room": {"wall_gains": gain}, "mc": mc})
        out = tmp_path / "b"
        code = main(["--config", cfg, "mc", "--check", "--out-dir", str(out)])

        def reject(literal):
            raise ValueError(f"report.json holds {literal}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert set(report["checks"]) == {"mean_count"}
        assert code == (0 if report["pass"] else 1)
        assert report["notes"] == [
            "tail checks skipped: correction needs reflectance above exp(-2/gamma_sq) = 0.0033"
        ]

    def test_lossless_walls_keep_the_count_check(self, tmp_path):
        mc = dict(small_mc_section(runs=2), tau_max_s=60e-9, moment_cutoff_s=60e-9)
        mc["grid"] = {"start_s": 0.0, "stop_s": 60e-9, "step_s": 1e-9}
        cfg = write_config(tmp_path, {"room": {"wall_gains": 1.0}, "mc": mc})
        out = tmp_path / "b"
        code = main(["--config", cfg, "mc", "--check", "--out-dir", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert set(report["checks"]) == {"mean_count"}
        assert code == (0 if report["pass"] else 1)
        assert any("reflectance" in note for note in report["notes"])

    def test_repeat_runs_identical_bundles(self, tmp_path):
        cfg = write_config(tmp_path, {"mc": small_mc_section()})
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", cfg, "mc", "--runs", "1", "--seed", "7", "--out-dir", str(dir_a)]) == 0
        assert main(["--config", cfg, "mc", "--runs", "1", "--seed", "7", "--out-dir", str(dir_b)]) == 0
        for name in ("counts.csv", "power.csv", "ecdf_mean_delay.csv", "ecdf_rms.csv",
                     "manifest.json", "report.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_flags_override_file_and_land_in_manifest(self, tmp_path):
        cfg = write_config(tmp_path, {"mc": small_mc_section(runs=5, seed=1)})
        out = tmp_path / "bundle"
        assert main(["--config", cfg, "mc", "--runs", "2", "--seed", "9", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mc"]["runs"] == 2
        assert manifest["config"]["mc"]["seed"] == 9
        assert manifest["seed"] == 9

    @pytest.mark.parametrize("radio,recorded", [
        ({"wavelength_m": 5e-3}, {"wavelength_m": 5e-3}),
        ({"center_frequency_hz": 50e9}, {"center_frequency_hz": 50e9}),
        ({}, {"center_frequency_hz": 60e9}),
    ])
    def test_manifest_records_the_carrier_the_run_used(self, tmp_path, radio, recorded):
        cfg = write_config(tmp_path, {"radio": radio, "mc": small_mc_section()})
        out = tmp_path / "bundle"
        assert main(["--config", cfg, "mc", "--runs", "1", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["radio"] == dict(recorded, bandwidth_hz=2e9, speed_of_light_m_per_s=3e8)

    def test_mc_builds_no_run_records(self, tmp_path, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("roomchan mc built a RunRecord")

        monkeypatch.setattr(montecarlo, "RunRecord", refused)
        cfg = write_config(tmp_path, {"mc": small_mc_section(runs=3)})
        assert main(["--config", cfg, "mc", "--out-dir", str(tmp_path / "b"), "--check"]) in (0, 1)
        assert (tmp_path / "b" / "report.json").exists()

    def test_zero_runs_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"mc": small_mc_section()})
        assert main(["--config", cfg, "mc", "--runs", "0", "--out-dir", str(tmp_path / "x")]) == 2

    def test_unwritable_out_dir_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path, {"mc": small_mc_section()})
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        assert main(["--config", cfg, "mc", "--runs", "1", "--out-dir", str(blocker)]) == 3

    def test_out_dir_from_config_output_section(self, tmp_path):
        out = tmp_path / "from_config"
        cfg = write_config(tmp_path, {"mc": small_mc_section(),
                                      "output": {"directory": str(out)}})
        assert main(["--config", cfg, "mc", "--runs", "1"]) == 0
        assert (out / "counts.csv").exists()

    def test_missing_out_dir_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"mc": small_mc_section()})
        assert main(["--config", cfg, "mc", "--runs", "1"]) == 2


class TestSignalCommand:
    def test_single_path_trace_peaks_at_direct_delay(self, tmp_path):
        # huge room: only the direct path fits inside the horizon
        doc = {
            "room": {"lengths_m": [50, 50, 50], "wall_gains": 0.6},
            "positions": {"tx_m": [25, 25, 25], "rx_m": [27, 25, 25]},
        }
        tau0 = 2.0 / 3e8
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "trace.csv"
        assert main(["--config", cfg, "signal", "--tau-max", str(tau0 * 1.2),
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        peak_time = data[np.argmax(data[:, 3]), 0]
        assert peak_time == pytest.approx(tau0, abs=0.2e-9)

    def test_los_aim_keeps_direct_path(self, tmp_path):
        doc = {
            "antennas": {"tx": {"pattern": "cap", "beam_fraction": 0.5, "aim": "los"},
                         "rx": {"pattern": "cap", "beam_fraction": 0.5, "aim": "los"}},
            "positions": FIG_POSITIONS,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "paths.csv"
        assert main(["--config", cfg, "paths", "--tau-max", "20e-9", "--out", str(out)]) == 0
        first = out.read_text().strip().split("\n")[1].split(",")
        assert (first[0], first[1], first[2]) == ("0", "0", "0")

    def test_directive_without_orientation_rejected(self, tmp_path):
        doc = {
            "antennas": {"tx": {"pattern": "cap", "beam_fraction": 0.5},
                         "rx": {"pattern": "isotropic"}},
            "positions": FIG_POSITIONS,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["--config", cfg, "signal", "--out", str(tmp_path / "t.csv")]) == 2
