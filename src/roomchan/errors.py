"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """An enumeration request exceeds the configured cardinality cap."""


class OutOfHorizonError(ValueError):
    """A query delay exceeds the enumeration horizon of a path list."""


class ZeroEnergyError(ValueError):
    """Moments were requested for a trace carrying no energy."""


class ConfigError(ValueError):
    """Invalid, inconsistent, or incomplete configuration input."""


class DegenerateGeometryError(ConfigError):
    """Positions coincide; no direction or path can be defined."""


class EmptySampleError(ValueError):
    """An empirical distribution was requested from zero samples."""
