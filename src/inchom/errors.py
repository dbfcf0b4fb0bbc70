"""Shared exception types."""


class IncompatibleFieldError(ValueError):
    """The coefficient characteristic p divides the poset parameter q."""


class ResourceLimitError(RuntimeError):
    """An enumeration, search or stabilizer chain exceeded its cap or bound."""


class InternalConsistencyError(RuntimeError):
    """A structural guarantee failed; indicates a bug or bad data, not a user error."""


class DataError(ValueError):
    """Malformed or inconsistent input data (group files, character tables)."""
