"""Config fuzz: every command ends in a documented exit code, never a traceback.

Documents cover room lengths, scalar or six wall gains, radio values,
isotropic and cap antennas (with ``orientation``, ``aim`` or neither on a
side whose boresight the mode draws), fixed positions, every ``mc.mode``
with its ``fixed`` section, seeds up to +-2**64 and moment cutoffs at or
before zero. About half of the documents carry one fault: a bad number, a
number of extreme magnitude (a room side of 1e-100 m, a speed of light of
1e120 m/s), a zero vector or one whose norm overflows, a position outside
the room, coincident terminals, a fixed boresight pointed where the mode
refuses it (a cap's own ``orientation`` or ``aim``, an isotropic side's
``mc.fixed`` orientation), a seed outside the 64-bit key word, or a cutoff
at or before zero. A second test gives every document one of the extreme
magnitudes, which also take in a carrier wavelength or frequency of 1e300
or 1e-300, a bandwidth of 1e-300 Hz and terminals 1e-160 m or 1 mm apart at
a room corner, and turns numpy's overflow and cast warnings into errors.
The ensembles stay tiny: at most two runs on a 30 ns horizon and grid.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from roomchan.cli import main
from roomchan.montecarlo import _FIXED, MODES

HORIZON = 30e-9

# Each fault replaces one value of an otherwise valid document.
FAULTS = {
    "length": st.sampled_from([0.0, -1.0, 1e-100]),
    "gain": st.sampled_from([1.5, -0.1]),
    "bandwidth": st.sampled_from([0.0, -1e9]),
    "speed": st.sampled_from([0.0, 1e120]),
    "carrier": st.sampled_from([0.0, -0.005]),
    "orientation": st.sampled_from([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]]),
    "outside": st.lists(st.floats(1.01, 2.0), min_size=3, max_size=3),
    "coincident": st.none(),
    "pointing": st.none(),
    "distance": st.sampled_from([0.0, -1.0, 50.0]),
    "seed": st.sampled_from([-2**64, -2**63 - 1, 2**63, 2**64 - 1, 2**64, 1e20]),
    "cutoff": st.sampled_from([0.0, -5e-9, -1e-6]),
}

# The faults of extreme magnitude alone.
EXTREME = {
    "length": st.just(1e-100),
    "speed": st.just(1e120),
    "orientation": st.just([1e200, 0.0, 0.0]),
    "carrier": st.sampled_from([1e300, 1e-300]),
    "bandwidth": st.just(1e-300),
    "near": st.sampled_from([1e-160, 1e-3]),
}

vec3 = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


@st.composite
def documents(draw, faults=FAULTS, clean=len(FAULTS)):
    """A document with one fault of ``faults``, or none in ``clean`` draws out of ``clean + len(faults)``."""
    fault = draw(st.sampled_from([None] * clean + sorted(faults)))
    pointing = fault == "pointing"
    mode = draw(st.sampled_from([m for m in MODES if not pointing or "rx_boresight" in _FIXED[m]]))
    fixes = {side: f"{side}_boresight" in _FIXED[mode] for side in ("tx", "rx")}

    def value(name, valid):
        return draw(faults[name] if fault == name else valid)

    def point(lengths):
        fractions = value("outside", st.lists(st.floats(0.0, 0.99), min_size=3, max_size=3))
        return [f * abs(length) for f, length in zip(fractions, lengths)]

    def antenna(side):
        if draw(st.booleans()):
            return {"pattern": "isotropic"}
        section = {"pattern": "cap", "beam_fraction": draw(st.floats(0.0, 1.0, exclude_min=True))}
        if fixes[side]:  # a fixed side takes its boresight from mc.fixed alone
            way = draw(st.sampled_from(["orientation", "aim"])) if pointing else "none"
        else:
            way = draw(st.sampled_from(["orientation", "aim", "none"]))
        if way == "orientation":
            section["orientation"] = value("orientation", vec3)
        elif way == "aim":
            section["aim"] = "los"
        return section

    lengths = [draw(st.floats(1.0, 12.0)) for _ in range(3)]
    lengths[0] = value("length", st.just(lengths[0]))
    gain = st.floats(0.0, 1.0)
    gains = draw(st.one_of(gain, st.lists(gain, min_size=6, max_size=6)))
    doc = {
        "room": {"lengths_m": lengths, "wall_gains": value("gain", st.just(gains))},
        "radio": {
            "bandwidth_hz": value("bandwidth", st.floats(1e8, 5e9)),
            "speed_of_light_m_per_s": value("speed", st.floats(1e8, 3e8)),
        },
        "antennas": {"tx": antenna("tx"), "rx": antenna("rx")},
    }
    if draw(st.booleans()):
        doc["radio"]["wavelength_m"] = value("carrier", st.floats(1e-3, 1.0))
    else:
        doc["radio"]["center_frequency_hz"] = value("carrier", st.floats(1e9, 1e11))
    tx = point(lengths)
    rx = tx if fault == "coincident" else point(lengths)
    if fault == "near":
        tx, rx = [0.0, 0.0, 0.0], [0.0, 0.0, draw(faults["near"])]
    if fault in ("coincident", "near") or draw(st.booleans()):
        doc["positions"] = {"tx_m": tx, "rx_m": rx}
    fixed = {"rx_position_m": rx, "distance_m": value("distance", st.floats(0.1, 2.0))}
    for side in ("rx", "tx"):
        # A fixed side's orientation: always for a cap, for an isotropic side only as a fault.
        cap = doc["antennas"][side]["pattern"] == "cap"
        if (cap or pointing) if fixes[side] else draw(st.booleans()):
            fixed[f"{side}_orientation"] = value("orientation", vec3)
    doc["mc"] = {
        "runs": draw(st.sampled_from([1, 2, 1.0, 2.0])),
        "seed": value("seed", st.integers(-2**63, 2**63 - 1)),
        "mode": mode,
        "phase_mode": draw(st.sampled_from(["carrier", "random"])),
        "tau_max_s": HORIZON,
        "moment_cutoff_s": value("cutoff", st.sampled_from([HORIZON, 10e-9, 1e-12])),
        "grid": {"start_s": 0.0, "stop_s": HORIZON, "step_s": 1e-9},
        "fixed": fixed,
    }
    return doc


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents())
def test_every_command_exits_with_a_documented_code(doc):
    exits_with_a_documented_code(doc)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(EXTREME, clean=0))
def test_extreme_magnitudes_exit_with_a_documented_code(doc):
    exits_with_a_documented_code(doc)


def exits_with_a_documented_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (
            ["paths", "--out", os.path.join(tmp, "paths.csv")],
            ["signal", "--out", os.path.join(tmp, "signal.csv")],
            ["theory", "--grid", f"0,{HORIZON},1e-9", "--out-dir", os.path.join(tmp, "theory")],
            ["mc", "--check", "--out-dir", os.path.join(tmp, "mc")],
        ):
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(["--config", config] + argv)
            assert code in (0, 1, 2, 3), (argv[0], code)
