"""Exception taxonomy shared across the package: one class per CLI exit code.

Every public operation raises one of these instead of a bare ValueError, so
the CLI maps each failure to its exit code without string matching:
ConfigError exits 1, DataError 2 and ContractError 3.
"""


class FocalCirError(Exception):
    """Base class for all package errors."""


class ConfigError(FocalCirError):
    """Malformed, unknown, or out-of-range configuration (exit 1)."""


class DataError(FocalCirError):
    """Missing, unreadable or inconsistent data on disk: a benchmark file or a
    checkpoint (exit 2)."""


class ContractError(FocalCirError):
    """A precondition of a call was violated: mismatched shapes, a zero-norm
    row, a box that covers no patch center, a gallery or perturbation that
    cannot meet its invariants, non-unit rows fed to the contrastive loss, a
    bad k, ... (exit 3)."""
