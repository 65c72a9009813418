"""Exception hierarchy for the distlink package."""


class DistlinkError(Exception):
    """Base class for all package errors."""


class InputFormatError(DistlinkError):
    """Malformed or inconsistent input data (CSV/JSON parsing, shape or
    invariant violations of user-supplied tables and matrices)."""


class SizeLimitError(DistlinkError):
    """An instance is too large for an operation: a brute-force oracle or
    exhaustive witness enumeration beyond its order limit, or a product
    graph whose candidate edges would not fit in physical memory."""


class ResourceBudgetError(DistlinkError):
    """A search exceeded its configured node budget.  Signals "instance too
    hard", never a wrong answer."""


class DegenerateSampleError(DistlinkError):
    """A statistic is undefined on the given sample (zero variance,
    collapsed quantile band)."""
