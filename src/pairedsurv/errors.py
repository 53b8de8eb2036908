"""Warning categories issued by the library.

Bad input raises a plain ``ValueError`` with a message; these two
warnings are classes of their own because callers select them by
category: the CLI turns ``AccuracyNotReached`` into exit code 3, and
``DegenerateColumnWarning`` can be filtered on its own.
"""


class AccuracyNotReached(UserWarning):
    """QMC integration stopped before its error estimate met the tolerance."""


class DegenerateColumnWarning(UserWarning):
    """A degenerate grid column was dropped from a max-type statistic."""
