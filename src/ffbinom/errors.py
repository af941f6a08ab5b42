"""Exception types shared across the toolkit."""


class FFBinomError(ValueError):
    """Base class for all toolkit errors."""


class NonPrimeError(FFBinomError):
    """The requested characteristic is not prime."""


class EvenCharacteristicError(FFBinomError):
    """Characteristic 2 is not supported."""


class BadDegreeError(FFBinomError):
    """Extension degree must be a positive integer."""


class UnsupportedUError(FFBinomError):
    """The character-class decomposition requires u = +-1."""


class ZeroShiftError(FFBinomError):
    """The shift a must be nonzero."""


class WrongResidueError(FFBinomError):
    """The field order has the wrong residue class for this operation."""


class WrongFieldError(FFBinomError):
    """The field does not satisfy this operation's characteristic/degree requirements."""


class HypothesisUnverifiedError(FFBinomError):
    """The prediction's hypothesis could not be established for this input."""


class NotApplicableError(FFBinomError):
    """The requested theorem does not apply to this field."""


class BadRangeError(FFBinomError):
    """Invalid exponent scan range."""


class InvariantError(FFBinomError):
    """A result failed an internal consistency check."""
