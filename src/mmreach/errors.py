"""Exception types shared across the package."""

import copyreg


class MmreachError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # rebuilt without __init__, whose arguments the message alone does
        # not give: the type and the message, then the attributes
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DimensionMismatchError(MmreachError):
    """Vector or matrix dimensions disagree."""


class GeometryError(MmreachError):
    """Invalid geometric object: singular shape matrix, non-convex polygon, ..."""


class SizeLimitError(MmreachError):
    """An operation would enumerate too many points (vertex/grid explosion)."""


class OrderError(MmreachError):
    """Arguments violate a required componentwise order."""


class ExprError(MmreachError):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    """Syntax or name error while parsing an expression.

    Carries the source text and the 1-based column of the offending token.
    """

    def __init__(self, message, source, column):
        super().__init__(f"{message} (column {column} in {source!r})")
        self.source = source
        self.column = column


class EvalError(ExprError):
    """An expression produced a non-finite value.

    ``subexpression`` holds the printed form of the offending subtree.
    """

    def __init__(self, message, subexpression=None):
        if subexpression is not None:
            message = f"{message}: {subexpression}"
        super().__init__(message)
        self.subexpression = subexpression


class SignIndefiniteError(MmreachError):
    """A Jacobian entry changed sign over the sampled domain.

    ``entry`` is the 1-based (i, j) index pair; ``witnesses`` holds the first
    sampled (x, w, partial) with a positive partial, then the first with a
    negative one.
    """

    def __init__(self, message, entry, witnesses):
        super().__init__(message)
        self.entry = entry
        self.witnesses = witnesses


class NotMonotoneError(MmreachError):
    """A sampled point violates the monotone sign conditions."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class DivergenceError(MmreachError):
    """Integration produced a non-finite state (finite-time escape).

    ``last_time`` is the last time with a finite state.
    """

    def __init__(self, message, last_time):
        super().__init__(message)
        self.last_time = last_time


class StepOrderError(MmreachError):
    """An embedding trajectory lost the lower <= upper order beyond tolerance."""


class EmptyIntersectionError(MmreachError):
    """An intersection of over-approximations came out empty (upstream bug)."""


class ConfigError(MmreachError):
    """Invalid run configuration. ``location`` is a dotted path into the file."""

    def __init__(self, message, location=""):
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.location = location
