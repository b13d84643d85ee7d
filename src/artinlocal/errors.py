"""Exception types shared across the package."""


class FieldMismatch(TypeError):
    """Operands belong to different coefficient fields."""


class FieldExtensionRequired(ValueError):
    """A needed square root does not exist and adjoining it is not allowed
    (either auto-extension is disabled or the tower depth cap is reached)."""


class ResidueNotPower(ValueError):
    """The residue of an element has no n-th root in the current field."""


class ParseError(ValueError):
    """Malformed polynomial text."""


class NotArtinian(ValueError):
    """The Hilbert function did not vanish below the truncation cap D_MAX:
    the quotient is not Artinian, or its socle degree is >= D_MAX - 1."""


class NotStretched(ValueError):
    pass


class NotAlmostStretched(ValueError):
    pass


class NotGorenstein(ValueError):
    pass


class NotApplicable(ValueError):
    pass


class SearchExhausted(RuntimeError):
    """Generic-element search ran out of attempts."""


class CertificationFailed(RuntimeError):
    """A witness does not carry the model ideal onto the input ideal."""


class WrongHilbertFunction(ValueError):
    pass


class NonMinimalGenerators(ValueError):
    pass


class GcdNotOne(ValueError):
    pass
