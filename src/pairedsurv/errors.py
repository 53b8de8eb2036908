"""Exception and warning types raised by the library."""


class PairedSurvError(ValueError):
    """Base class for all validation and contract errors."""


# -- sample construction ------------------------------------------------

class DuplicateUnit(PairedSurvError):
    """A (pair_id, position) slot was supplied more than once."""


class IncompletePair(PairedSurvError):
    """A pair is missing one of its two positions."""


class BothTreated(PairedSurvError):
    """Both units of a pair are flagged as treated."""


class NeitherTreated(PairedSurvError):
    """Neither unit of a pair is flagged as treated."""


class NegativeTime(PairedSurvError):
    """An observed time is negative or not finite."""


class EmptyInput(PairedSurvError):
    """An operation received no units."""


# -- scores and tests ---------------------------------------------------

class LengthMismatch(PairedSurvError):
    """Scores and sample disagree on the number of pairs."""


class TooManyPairs(PairedSurvError):
    """Exact enumeration requested beyond the configured pair cap."""


class DegenerateColumn(PairedSurvError):
    """A grid column has zero score dispersion."""


class NoInformation(PairedSurvError):
    """All pair differences vanish; no design sensitivity is defined."""


# -- numerics -----------------------------------------------------------

class NotACorrelationMatrix(PairedSurvError):
    """Matrix is not symmetric with unit diagonal and entries in [-1, 1]."""


class TargetUnreachable(PairedSurvError):
    """Censoring-rate calibration target lies outside the bracket."""


class AccuracyNotReached(UserWarning):
    """QMC integration stopped before its error estimate met the tolerance."""


class DegenerateColumnWarning(UserWarning):
    """A degenerate grid column was dropped from a max-type statistic."""
