"""Exception hierarchy shared by all stonework modules."""


class StoneworkError(Exception):
    """Base class for every error raised by this package."""


class NoConvergence(StoneworkError):
    pass


class NotProjection(StoneworkError):
    pass


class DimensionMismatch(StoneworkError):
    pass


class NotNormalized(StoneworkError):
    pass


class NotAbelian(StoneworkError):
    pass


class NotPartialIsometry(StoneworkError):
    pass


class NotSubordinate(StoneworkError):
    pass


class NotUnitary(StoneworkError):
    pass


class ClosureExplosion(StoneworkError):
    pass


class NotMember(StoneworkError):
    pass


class Ambiguous(StoneworkError):
    pass


class EmptyFilter(StoneworkError):
    pass


class NotSelfAdjoint(StoneworkError):
    pass


class ParseError(StoneworkError):
    pass


class ValidationError(StoneworkError):
    pass
