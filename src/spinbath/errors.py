"""Exception types shared across the package."""


class SpinbathError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SpinbathError, ValueError):
    """A physical parameter or state is malformed (wrong length, non-finite,
    not normalized, not Hermitian where required)."""


class CapacityError(SpinbathError, ValueError):
    """A requested problem size exceeds a hard resource cap."""


class UsageError(SpinbathError, ValueError):
    """A configuration or command line is invalid. Message names the field."""


class NumericError(SpinbathError, RuntimeError):
    """A numerical routine produced an untrustworthy result."""
