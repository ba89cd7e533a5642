"""Error taxonomy shared by the library and the command line front end.

Every exception carries a stable ``code`` string and the process exit code
the CLI maps it to: 2 for configuration and usage problems, 3 for resource
budget overflows, 4 for analysis failures on otherwise valid inputs.
"""

__all__ = [
    "CebpError",
    "ConfigError",
    "BudgetError",
    "AnalysisError",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_BUDGET",
    "EXIT_ANALYSIS",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_ANALYSIS = 4


class CebpError(Exception):
    """Base class; ``code`` identifies the failure, ``exit_code`` the CLI status."""

    exit_code = EXIT_CONFIG

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code

    def __str__(self):
        return f"{self.code}: {super().__str__()}"

    def __reduce__(self):
        # a worker process sends its error back pickled, code and all
        return type(self), (self.code, *self.args)


class ConfigError(CebpError):
    """Invalid parameters, malformed specs, or violated preconditions."""

    exit_code = EXIT_CONFIG


class BudgetError(CebpError):
    """A requested computation exceeds the configured resource budget."""

    exit_code = EXIT_BUDGET


class AnalysisError(CebpError):
    """Extraction or estimation failed on structurally valid input."""

    exit_code = EXIT_ANALYSIS
