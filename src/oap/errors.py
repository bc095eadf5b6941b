"""Exception taxonomy shared across the package.

The CLI maps these onto fixed exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4. An input file that cannot be opened
is a DataError, or a ConfigError for a config file.
"""


class OapError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(OapError):
    """A hyper-parameter or config entry violates its documented range."""


class DataError(OapError):
    """Malformed input data: bad file, dimension mismatch, missing class,
    frames that break the stream contract (see ``memory.check_frame``)."""


class NumericalError(OapError):
    """A numerical invariant was violated, e.g. a non-finite gradient."""
