"""Exception types shared across the package."""


class CfreeError(ValueError):
    """Base class for errors raised by this package."""


class ArgumentError(CfreeError):
    """Malformed or inconsistent arguments (mode/order mismatch, bad blocks, ...)."""


class DomainError(CfreeError):
    """Input is well-formed but outside the mathematical domain of the operation."""


class UnsupportedDomainError(DomainError):
    """Input lies in a region the package deliberately does not handle."""


class ResourceLimitError(CfreeError):
    """An enumeration guard was exceeded."""


class NumericalError(CfreeError):
    """A computed result disagrees with a second route or breaks a bound it must keep."""
