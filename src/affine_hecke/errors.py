"""Error types shared across the package.

Every exception raised on a contract violation derives from HeckeError so
callers (and the CLI) can separate domain errors from programming bugs.
"""


class HeckeError(Exception):
    """Base class for all domain errors."""


class DivisionByZero(HeckeError):
    pass


class ScaleMismatch(HeckeError):
    """Denominator scale D does not clear a requested fractional exponent."""


class PoleAtSpecialization(HeckeError):
    pass


class UnsupportedType(HeckeError):
    pass


class GroupTooLarge(HeckeError):
    pass


class JNotSubsetOfP(HeckeError):
    pass


class EmptyRegion(HeckeError):
    pass


class NotDominant(HeckeError):
    pass


class MixedCosetExact(HeckeError):
    """Exact evaluation requested across distinct coset tags."""


class WrongLattice(HeckeError):
    pass


class NotSkew(HeckeError):
    pass


class NumericIllConditioned(HeckeError):
    pass


class UndefinedTau(HeckeError):
    pass


class NotStandard(HeckeError):
    pass


class TooLarge(HeckeError):
    pass


class BadCap(HeckeError):
    """A size cap setting that is not a positive integer."""


class BadEll(HeckeError):
    pass


class CaseMismatch(HeckeError):
    pass


class NotContained(HeckeError):
    pass


class JCrossesPages(HeckeError):
    pass


class NotRegular(HeckeError):
    pass
