"""Exception types raised across the package.

Every error deliberately raised by this package derives from Error, so
callers can catch the whole family with one clause. Parse failures carry
the byte offset of the offending token; constraint failures carry the
structured violation list; budget exhaustion carries the partial report
accumulated before the cutoff. All of them survive pickling with their
message and attributes, as a block process's error must.
"""


class Error(Exception):
    """Base class for all mstd errors."""

    def __reduce__(self):
        # rebuilt by __new__ from the formatted message and the attributes:
        # the subclasses' __init__ take more than the message, so the default
        # reduce, which calls the class on args, cannot unpickle them
        return type(self).__new__, (type(self), *self.args), self.__dict__


class EmptySetError(Error):
    """An operation that needs at least one element got the empty set."""


class DegenerateSetError(Error):
    """An operation that needs at least two elements got fewer."""


class InvalidParameterError(Error):
    """A parameter is outside its documented domain."""


class UniverseOverflowError(Error):
    """An element is at or beyond the dense-bitmask universe cap."""


class ParseError(Error):
    """Malformed textual input.

    Attributes
    ----------
    offset : int
        Byte offset into the input where the bad token starts.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ConstraintViolationError(Error):
    """A partition spec failed validation.

    Attributes
    ----------
    violations : list
        SpecViolation records, one per failed constraint.
    """

    def __init__(self, violations):
        names = ", ".join(v.constraint for v in violations)
        super().__init__(f"spec violates: {names}")
        self.violations = list(violations)


class BudgetExceededError(Error):
    """A bounded search hit its budget before reaching a verdict.

    Attributes
    ----------
    report : SearchReport
        Partial results for the levels that were fully scanned.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report
