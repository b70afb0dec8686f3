"""Exception types shared across the package.

Everything derives from FlowError so callers can catch the whole family,
but the CLI and the tests usually want the specific class.
"""


class FlowError(Exception):
    """Base class for errors raised by this package."""


class RangeError(FlowError):
    """An index lies outside the horizon it refers to."""


class DomainError(FlowError):
    """A channel set does not match the domain it must be drawn from."""


class MergeError(FlowError):
    """Two named stream tuples overlap or disagree on horizon."""


class BoundsError(FlowError):
    """A stream, message or machine violates the enumeration bounds."""


class InterfaceError(FlowError):
    """Two objects that must share an interface do not."""


class OptionError(FlowError):
    """A parameter names an option that does not exist."""


class CompositionError(FlowError):
    """A set of machines cannot be composed (overlapping outputs)."""


class ConsistencyError(FlowError):
    """An architecture fails its consistency conditions."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(FlowError):
    """A textual architecture, script or env file is malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
