"""Exception hierarchy shared by all modules, and the positivity check they share."""


class SpikeNetError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(SpikeNetError):
    """An argument value is outside its allowed domain."""


class ConfigError(SpikeNetError):
    """Two objects carry incompatible configuration (e.g. sampling periods)."""


class ShapeError(SpikeNetError):
    """Array or layer shapes do not line up."""


class RangeError(SpikeNetError):
    """A time or interval falls outside the simulation window."""


class FormatError(SpikeNetError):
    """Data values violate a format contract (amplitudes, payloads)."""


class ParseError(SpikeNetError):
    """Text or binary input could not be parsed; message names the location."""


class NumericError(SpikeNetError):
    """A computation produced non-finite values."""


def require_positive(**values) -> None:
    """Raise ParameterError naming the first value that is not finite and > 0."""
    for name, value in values.items():
        if not 0.0 < value < float("inf"):
            raise ParameterError(f"{name} must be positive and finite, got {value!r}")
