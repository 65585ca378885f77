"""Exception types shared across the package."""


class Hilb3Error(Exception):
    """Base class for all errors raised by this package."""


class InputError(Hilb3Error):
    """Malformed user input (text or JSON grammar violations)."""


class UnitIdealError(Hilb3Error):
    """The constructed ideal is the whole ring."""


class NotZeroDimensionalError(Hilb3Error):
    """The ideal does not cut out a finite scheme."""


class HasTripleError(Hilb3Error):
    """A singularizing triple exists, so no socle ordering / no-flip chain."""

    def __init__(self, triple):
        super().__init__(f"singularizing triple present: {triple}")
        self.triple = triple


class NotContainedError(Hilb3Error):
    """The given sequence is not contained in the ideal to be linked."""


class NotRegularError(Hilb3Error):
    """The given length-3 sequence does not cut out a finite scheme."""


class ExcessMismatchError(Hilb3Error):
    """Tangent excess changed along a link step; the chain is invalid."""


class ZeroInputError(Hilb3Error):
    """Annihilator of an empty or zero system requested."""


class CharTwoError(Hilb3Error):
    """Bicanonical computations require characteristic != 2."""


class SmallCharacteristicError(Hilb3Error):
    """Field characteristic too small for the degrees in play (contraction)."""


class EvenSizeError(Hilb3Error):
    """Submaximal Pfaffians of an even-size matrix requested."""


class InvariantError(Hilb3Error):
    """A result broke an identity the code relies on; the engine is at fault."""


class PrimeDisagreementError(Hilb3Error):
    """Results over the two chosen primes disagree."""
