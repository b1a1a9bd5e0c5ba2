"""Exception types shared across the package."""


class RenyiError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(RenyiError):
    """Shapes of matrices/vectors do not agree."""


class NegativeEntry(RenyiError):
    """A probability matrix or vector contains a negative entry."""


class NonFiniteEntry(RenyiError):
    """A matrix or vector contains NaN or an infinity, or a sum of its entries overflows."""


class NonStochasticRow(RenyiError):
    """A row of a transition/emission matrix does not sum to 1."""


class DimensionOverflow(RenyiError):
    """A construction would exceed a size guard: a byte budget, an order past 64 or a fixed cap."""


class InvalidOrder(RenyiError):
    """The requested entropy order is outside the admissible range."""


class NoConvergence(RenyiError):
    """Power iteration, or Noda's inverse iteration after it, did not reach the tolerance."""


class InvalidNoise(RenyiError):
    """Crossover probability outside [0, 1/2]."""


class InvalidLabel(RenyiError):
    """A state or observation label is not a string, or is not unique."""


class WrongAlphabet(RenyiError):
    """The model alphabet does not fit the requested construction."""


class ModelFormatError(RenyiError):
    """A model file failed to parse or validate."""
