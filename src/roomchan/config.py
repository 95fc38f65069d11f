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

import jsonschema
import numpy as np

from .antenna import AntennaPattern, Isotropic, SphericalCap
from .channel import RadioConfig
from .errors import ConfigError, DegenerateGeometryError
from .geometry import Room
from .montecarlo import MODES, McConfig

SCHEMA_VERSION = 1

_NUM = {"type": "number"}
_VEC3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}

_ANTENNA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "pattern": {"enum": ["isotropic", "cap"]},
        "beam_fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "orientation": _VEC3,
        "aim": {"const": "los"},
    },
    "required": ["pattern"],
}

SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "room": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lengths_m": _VEC3,
                "wall_gains": {
                    "oneOf": [
                        _NUM,
                        {"type": "array", "items": _NUM, "minItems": 6, "maxItems": 6},
                    ]
                },
            },
        },
        "radio": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "center_frequency_hz": _NUM,
                "wavelength_m": _NUM,
                "bandwidth_hz": _NUM,
                "speed_of_light_m_per_s": _NUM,
            },
        },
        "antennas": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"tx": _ANTENNA, "rx": _ANTENNA},
        },
        "positions": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"tx_m": _VEC3, "rx_m": _VEC3},
            "required": ["tx_m", "rx_m"],
        },
        "mc": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "runs": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
                "mode": {"enum": list(MODES)},
                "tau_max_s": _NUM,
                "phase_mode": {"enum": ["carrier", "random"]},
                "moment_cutoff_s": _NUM,
                "grid": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"start_s": _NUM, "stop_s": _NUM, "step_s": _NUM},
                },
                "fixed": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "rx_position_m": _VEC3,
                        "rx_orientation": _VEC3,
                        "tx_orientation": _VEC3,
                        "distance_m": _NUM,
                    },
                },
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"directory": {"type": "string"}},
        },
    },
}

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


# Built once: jsonschema.validate re-checks the schema itself on every call,
# which costs about ten times the validation of a document.
_VALIDATOR = jsonschema.Draft7Validator(SCHEMA)


def validate_document(doc: dict) -> None:
    """Schema-check a raw configuration document; names the offending key."""
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"{path}: {error.message}")


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


def load_document(path: str | None) -> dict:
    """Load, validate, and default-fill a configuration file.

    ``NaN``, ``Infinity``, ``-Infinity`` and numbers that overflow to
    infinity are rejected with :class:`ConfigError`.
    """
    if path is None:
        doc = {}
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    validate_document(doc)
    merged = _merge(DEFAULTS, doc)
    validate_document(merged)
    return merged


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
    """Pattern for one antenna; cap orientation defaults to +z until aimed."""
    section = doc["antennas"][side]
    if section["pattern"] == "isotropic":
        return Isotropic()
    if "beam_fraction" not in section:
        raise ConfigError(f"antennas/{side}: cap pattern needs beam_fraction")
    orientation = section.get("orientation", (0.0, 0.0, 1.0))
    try:
        return SphericalCap(section["beam_fraction"], orientation)
    except ValueError as exc:
        raise ConfigError(f"antennas/{side}: {exc}") from None


def positions_from(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-scene terminal positions; each must lie inside the room."""
    if "positions" not in doc:
        raise ConfigError("positions: section is required for this command")
    room = build_room(doc)
    positions = []
    for key in ("tx_m", "rx_m"):
        position = np.asarray(doc["positions"][key], dtype=float)
        if not room.contains(position):
            raise ConfigError(f"positions/{key}: {position.tolist()} lies outside the room")
        positions.append(position)
    return positions[0], positions[1]


def aimed_patterns(doc: dict, tx_position, rx_position) -> tuple[AntennaPattern, AntennaPattern]:
    """Patterns for a fixed scene, resolving ``aim: los`` boresights.

    A directive antenna must carry either an explicit orientation or
    ``aim: los``; pointing it implicitly would make fixed-scene outputs
    depend on hidden defaults.
    """
    tx_position = np.asarray(tx_position, dtype=float)
    rx_position = np.asarray(rx_position, dtype=float)
    los = rx_position - tx_position
    patterns = []
    for side, boresight in (("tx", los), ("rx", -los)):
        section = doc["antennas"][side]
        pattern = build_pattern(doc, side)
        if pattern.cone is not None:
            if section.get("aim") == "los":
                if not np.any(boresight):
                    raise DegenerateGeometryError("transmitter and receiver coincide")
                pattern = pattern.aimed(boresight)
            elif "orientation" not in section:
                raise ConfigError(
                    f"antennas/{side}: directive pattern needs 'orientation' or 'aim': 'los'"
                )
        patterns.append(pattern)
    return patterns[0], patterns[1]


def build_mc_config(
    doc: dict,
    runs: int | None = None,
    seed: int | None = None,
) -> McConfig:
    """Assemble an :class:`McConfig`; flags override the document; ``2.0`` counts as ``2``."""
    section = doc["mc"]
    fixed = section.get("fixed", {})
    room = build_room(doc)
    grid = section["grid"]
    return McConfig(
        room=room,
        radio=build_radio(doc),
        tx_pattern=build_pattern(doc, "tx"),
        rx_pattern=build_pattern(doc, "rx"),
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
        rx_orientation=fixed.get("rx_orientation"),
        tx_orientation=fixed.get("tx_orientation"),
        distance=fixed.get("distance_m"),
    )
