"""Exception hierarchy shared by all vsolitons modules."""


class VsolitonsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(VsolitonsError):
    """Domain data violates a type invariant (bad eigenvalue, zero vector, ...)."""


class ConfigError(VsolitonsError):
    """A configuration document is malformed; message carries the location."""


class PoleError(VsolitonsError):
    """A spectral parameter hit (or came too close to) a pole of a factor."""


class DomainError(VsolitonsError):
    """Input lies outside the domain of a map or field (imaginary axis, x < 0)."""


class DegeneracyError(VsolitonsError):
    """A chain direction collapsed or a linear solve became singular."""


class WindowError(VsolitonsError):
    """A peak search failed to locate an interior maximum in its window."""


class SamplingError(VsolitonsError):
    """A seeded draw found no admissible configuration within its retry budget."""
