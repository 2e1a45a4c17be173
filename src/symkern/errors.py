"""Exception types shared across the package."""


class SymkernError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SymkernError, ValueError):
    pass


class NotPositiveDefinite(SymkernError, ValueError):
    pass


class NoConvergence(SymkernError, RuntimeError):
    pass


class Overflow(SymkernError, ArithmeticError):
    pass


class DuplicateFunctional(SymkernError, ValueError):
    pass


class EmptyDataset(SymkernError, ValueError):
    pass


class InsufficientTrace(SymkernError, ValueError):
    pass


class EmptySample(SymkernError, ValueError):
    pass


class NotQuadratic(SymkernError, TypeError):
    pass


class RankDeficient(SymkernError, ValueError):
    pass


class TooManySnapshots(SymkernError, ValueError):
    pass


class NotOneDOF(SymkernError, ValueError):
    pass


class FilterTooTight(SymkernError, RuntimeError):
    pass


class TooFewSamples(SymkernError, ValueError):
    pass


class EmptySeries(SymkernError, ValueError):
    pass


class AllCandidatesFailed(SymkernError, RuntimeError):
    pass


class ConfigError(SymkernError, ValueError):
    pass


class InvalidModel(SymkernError, ValueError):
    """A model document that surrogate_to_dict could not have written."""


class UsageError(SymkernError, ValueError):
    """A command-line value that cannot be used, such as a malformed state."""
