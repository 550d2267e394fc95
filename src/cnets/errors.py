"""Exception hierarchy and the process exit codes the CLI maps them to."""

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


class CnError(Exception):
    """Base class for all errors raised by this package.

    ``category`` names the kind of failure in the CLI's message. Errors
    raised while a run is in flight carry a ``step_position`` attribute, a
    ``(slow_step, fast_step)`` pair locating the failure (``fast_step`` is
    None outside the fast phase, as in the initial snapshot).
    """

    exit_code = EXIT_CONFIG
    category = "config"
    step_position: "tuple[int, int | None] | None" = None


class ConfigurationError(CnError):
    """Invalid configuration, arguments, or problem/network mismatch.

    key, when given, names the setting at fault: the message reads
    "key: problem", and config prefixes the setting's section path.
    """

    exit_code = EXIT_CONFIG

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message if key is None else f"{key}: {message}")
        self.key = key


class MalformedInstanceError(ConfigurationError):
    """Problem data violates its own contract (e.g. a non-positive tour length)."""


class DeadEndError(ConfigurationError):
    """A constructive walk ran out of admissible moves too many times."""


class NumericDivergenceError(CnError):
    """A state or readout value became non-finite."""

    exit_code = EXIT_NUMERIC
    category = "numeric"


class RecordIoError(CnError):
    """A record file could not be read, parsed, or written."""

    exit_code = EXIT_IO
    category = "io"
