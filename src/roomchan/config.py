"""JSON run-configuration files: schema, Table-style defaults, builders.

A configuration document has sections ``room``, ``radio``, ``antennas``,
``positions`` (optional), ``mc`` (optional), and ``output``. All physical
quantities are SI and key names carry the unit. Unknown keys are rejected;
missing keys fall back to the defaults (5 x 5 x 3 m room, reflectance 0.6,
60 GHz carrier, 2 GHz bandwidth, c = 3e8 m/s).
"""

from __future__ import annotations

import copy
import json

import numpy as np

from .antenna import AntennaPattern, Isotropic, SphericalCap
from .channel import PHASE_MODES, RadioConfig
from .errors import ConfigError
from .geometry import Room
from .montecarlo import _FIXED, MODES, McConfig

SCHEMA_VERSION = 1


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value) -> bool:
    # As in JSON Schema, 2.0 is an integer. An int is never converted to a
    # float, so integers beyond float range stay integers.
    return _number(value) and (isinstance(value, int) or value.is_integer())


def _numbers(count: int):
    return lambda value: isinstance(value, list) and len(value) == count and all(map(_number, value))


def _one_of(*choices):
    return (lambda value: isinstance(value, str) and value in choices), f"one of {list(choices)}"


class _Keys(dict):
    """An object's keys mapped to their rules; ``required`` keys must appear, and at most one of ``exclusive``."""

    def __init__(self, required=(), exclusive=(), **rules):
        super().__init__(rules)
        self.required = required
        self.exclusive = exclusive


# A leaf rule is (test, what the test expects).
_NUMBER = (_number, "a number")
_VEC3 = (_numbers(3), "a list of three numbers")
_ANTENNA = _Keys(
    required=("pattern",),
    exclusive=("orientation", "aim"),
    pattern=_one_of("isotropic", "cap"),
    beam_fraction=(lambda v: _number(v) and 0 < v <= 1, "a number in (0, 1]"),
    orientation=_VEC3,
    aim=_one_of("los"),
)
_DOCUMENT = _Keys(
    schema_version=(lambda v: _number(v) and v == SCHEMA_VERSION, f"{SCHEMA_VERSION}"),
    room=_Keys(
        lengths_m=_VEC3,
        wall_gains=(lambda v: _number(v) or _numbers(6)(v), "a number or a list of six numbers"),
    ),
    radio=_Keys(
        exclusive=("center_frequency_hz", "wavelength_m"),
        center_frequency_hz=_NUMBER,
        wavelength_m=_NUMBER,
        bandwidth_hz=_NUMBER,
        speed_of_light_m_per_s=_NUMBER,
    ),
    antennas=_Keys(tx=_ANTENNA, rx=_ANTENNA),
    positions=_Keys(required=("tx_m", "rx_m"), tx_m=_VEC3, rx_m=_VEC3),
    mc=_Keys(
        runs=(lambda v: _integer(v) and v >= 1, "an integer of at least 1"),
        seed=(_integer, "an integer"),
        mode=_one_of(*MODES),
        tau_max_s=_NUMBER,
        phase_mode=_one_of(*PHASE_MODES),
        moment_cutoff_s=_NUMBER,
        grid=_Keys(start_s=_NUMBER, stop_s=_NUMBER, step_s=_NUMBER),
        fixed=_Keys(
            rx_position_m=_VEC3, rx_orientation=_VEC3, tx_orientation=_VEC3, distance_m=_NUMBER
        ),
    ),
    output=_Keys(directory=(lambda v: isinstance(v, str), "a string")),
)


def _check(value, rule, path: str = "") -> None:
    """Check ``value`` against ``rule``; errors name the offending key path."""
    if not isinstance(rule, _Keys):
        test, expected = rule
        if not test(value):
            raise ConfigError(f"{path}: must be {expected}")
        return
    if not isinstance(value, dict):
        raise ConfigError(f"{path or '<root>'}: must be an object")
    prefix = f"{path}/" if path else ""
    for key, item in value.items():
        if key not in rule:
            raise ConfigError(f"{prefix}{key}: unknown key")
        _check(item, rule[key], prefix + key)
    for key in rule.required:
        if key not in value:
            raise ConfigError(f"{prefix}{key}: required key is missing")
    if rule.exclusive and all(key in value for key in rule.exclusive):
        raise ConfigError(f"{path}: set {' or '.join(map(repr, rule.exclusive))}, not both")


DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "room": {"lengths_m": [5.0, 5.0, 3.0], "wall_gains": 0.6},
    "radio": {
        "center_frequency_hz": 60e9,
        "bandwidth_hz": 2e9,
        "speed_of_light_m_per_s": 3e8,
    },
    "antennas": {"tx": {"pattern": "isotropic"}, "rx": {"pattern": "isotropic"}},
    "mc": {
        "runs": 2000,
        "seed": 1,
        "mode": "both-random",
        "tau_max_s": 120e-9,
        "phase_mode": "random",
        "moment_cutoff_s": 120e-9,
        "grid": {"start_s": 0.0, "stop_s": 120e-9, "step_s": 0.25e-9},
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _finite_number(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"non-finite number {text!r} is not allowed")
    return value


def _exact_int(text: str) -> int:
    try:
        value = int(text)
        float(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"integer literal of {len(text)} characters is out of range") from None
    return value


def load_document(path: str | None) -> dict:
    """Load, validate, and default-fill a configuration file.

    ``NaN``, ``Infinity``, ``-Infinity``, numbers that overflow to
    infinity and integer literals no float can hold are rejected with
    :class:`ConfigError`, and so is a value set two ways (a ``radio``
    frequency and wavelength, an antenna's ``orientation`` and ``aim``)
    before the defaults fill in. Integers are kept exact.
    """
    if path is None:
        doc = {}
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(
                    fh,
                    parse_float=_finite_number,
                    parse_int=_exact_int,
                    parse_constant=_finite_number,
                )
            except json.JSONDecodeError as exc:
                raise ConfigError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    _check(doc, _DOCUMENT)
    resolved = _merge(DEFAULTS, doc)
    # A given wavelength sets the carrier; the default frequency would contradict it.
    if "wavelength_m" in resolved["radio"]:
        del resolved["radio"]["center_frequency_hz"]
    return resolved


def build_room(doc: dict) -> Room:
    section = doc["room"]
    try:
        return Room(section["lengths_m"], section["wall_gains"])
    except ValueError as exc:
        raise ConfigError(f"room: {exc}") from None


def build_radio(doc: dict) -> RadioConfig:
    section = doc["radio"]
    speed = section["speed_of_light_m_per_s"]
    bandwidth = section["bandwidth_hz"]
    try:
        if "wavelength_m" in section:
            return RadioConfig(section["wavelength_m"], bandwidth, speed)
        return RadioConfig.from_center_frequency(
            section["center_frequency_hz"], bandwidth, speed
        )
    except ValueError as exc:
        raise ConfigError(f"radio: {exc}") from None


def build_pattern(doc: dict, side: str) -> AntennaPattern:
    """Pattern for one antenna; cap orientation defaults to +z until aimed, and an isotropic one takes no cap key."""
    section = doc["antennas"][side]
    if section["pattern"] == "isotropic":
        ignored = [key for key in ("beam_fraction", "orientation", "aim") if key in section]
        if ignored:
            raise ConfigError(f"antennas/{side}: isotropic pattern takes no {', '.join(map(repr, ignored))}")
        return Isotropic()
    if "beam_fraction" not in section:
        raise ConfigError(f"antennas/{side}: cap pattern needs beam_fraction")
    orientation = section.get("orientation", (0.0, 0.0, 1.0))
    try:
        return SphericalCap(section["beam_fraction"], orientation)
    except ValueError as exc:
        raise ConfigError(f"antennas/{side}: {exc}") from None


def positions_from(doc: dict, room: Room) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-scene terminal positions; each must lie inside ``room``."""
    if "positions" not in doc:
        raise ConfigError("positions: section is required for this command")
    positions = []
    for key in ("tx_m", "rx_m"):
        position = np.asarray(doc["positions"][key], dtype=float)
        if not room.contains(position):
            raise ConfigError(f"positions/{key}: {position.tolist()} lies outside the room")
        positions.append(position)
    return positions[0], positions[1]


def aimed_patterns(doc: dict, patterns, tx_position, rx_position) -> tuple[AntennaPattern, AntennaPattern]:
    """The tx and rx ``patterns`` of a fixed scene, with ``aim: los`` boresights resolved.

    A directive antenna must carry either an explicit orientation or
    ``aim: los``; pointing it implicitly would make fixed-scene outputs
    depend on hidden defaults. ``SceneSummary.from_components`` must accept
    the positions, arrays from :func:`positions_from`.
    """
    los = rx_position - tx_position
    aimed = []
    for side, pattern, boresight in zip(("tx", "rx"), patterns, (los, -los)):
        section = doc["antennas"][side]
        if pattern.cone is not None:
            if section.get("aim") == "los":
                pattern = pattern.aimed(boresight)
            elif "orientation" not in section:
                raise ConfigError(f"antennas/{side}: directive pattern needs 'orientation' or 'aim': 'los'")
        aimed.append(pattern)
    return aimed[0], aimed[1]


def _ensemble_pattern(doc: dict, side: str) -> AntennaPattern:
    """``side``'s pattern, aimed along ``mc/fixed/<side>_orientation`` if the mode fixes its boresight (see README)."""
    pattern, mode, key = build_pattern(doc, side), doc["mc"]["mode"], f"{side}_orientation"
    if f"{side}_boresight" not in _FIXED[mode]:
        return pattern  # drawn on every run: the antenna's own pointing is not read
    vector = doc["mc"].get("fixed", {}).get(key)
    if pointing := {"orientation", "aim"} & set(doc["antennas"][side]):
        raise ConfigError(f"antennas/{side}/{pointing.pop()}: mode {mode!r} fixes this boresight in mc/fixed/{key}")
    if (pattern.cone is None) != (vector is None):
        raise ConfigError(f"mode {mode!r} needs {key} for a directive pattern" if vector is None
                          else f"mc/fixed/{key}: isotropic pattern takes no orientation")
    try:
        return pattern if vector is None else pattern.aimed(vector)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def build_mc_config(
    doc: dict,
    runs: int | None = None,
    seed: int | None = None,
) -> McConfig:
    """Assemble an :class:`McConfig`; flags override the document; ``2.0`` counts as ``2``."""
    section = doc["mc"]
    fixed = section.get("fixed", {})
    grid = section["grid"]
    return McConfig(
        room=build_room(doc),
        radio=build_radio(doc),
        tx_pattern=_ensemble_pattern(doc, "tx"),
        rx_pattern=_ensemble_pattern(doc, "rx"),
        runs=int(section["runs"]) if runs is None else runs,
        seed=int(section["seed"]) if seed is None else seed,
        mode=section["mode"],
        tau_max=section["tau_max_s"],
        phase_mode=section["phase_mode"],
        moment_cutoff=section["moment_cutoff_s"],
        grid_start=grid["start_s"],
        grid_stop=grid["stop_s"],
        grid_step=grid["step_s"],
        rx_position=fixed.get("rx_position_m"),
        distance=fixed.get("distance_m"),
    )
