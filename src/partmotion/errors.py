"""Error types shared across the package, mapped to CLI exit codes."""

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """Bad configuration, arguments, or tensor wiring (exit code 2)."""


class ShapeMismatch(ConfigError):
    """Incompatible array shapes at graph construction time."""


class DataError(ValueError):
    """Missing or malformed datasets, checkpoints, or input files (exit code 3)."""


class NumericError(ArithmeticError):
    """Non-finite values produced during computation (exit code 4)."""


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, (DataError, OSError)):  # OSError: a path that cannot be read or written
        return EXIT_DATA
    if isinstance(exc, NumericError):
        return EXIT_NUMERIC
    raise exc
