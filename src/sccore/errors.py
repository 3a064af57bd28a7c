"""Exception types raised across the package."""


class SCCoreError(Exception):
    """Base class for all package-specific errors."""


class NotSelfConjugate(SCCoreError):
    """A self-conjugate partition was required."""


class InvalidHooks(SCCoreError):
    """Diagonal hook sequence is not strictly decreasing distinct odd integers."""


class OutOfDiagram(SCCoreError):
    """Cell (i, j) is not a box of the Young diagram."""


class ResourceLimit(SCCoreError):
    """Requested computation exceeds a configured safety bound."""


class LengthTooSmall(SCCoreError):
    """Beta-set length is smaller than the number of parts."""


class NotACore(SCCoreError):
    """A t-core was required but the partition still has a t-hook."""


class AlreadyCore(SCCoreError):
    """No t-hook left to remove."""


class MissingTable(SCCoreError):
    """Lookup tables do not cover the requested index range."""


class OutOfRange(SCCoreError):
    """The formula or method is not defined at this (t, n)."""


class UnsupportedT(SCCoreError):
    """The generating-function family is not defined for this t."""


class OutOfDomain(SCCoreError):
    """Argument lies outside the map's defined domain."""


class NotInB(SCCoreError):
    """Input partition is not a member of the B-class for this n."""


class MapGUndefined(SCCoreError):
    """The surjection onto the B-class has no valid image for this input.

    Happens exactly when the input is the square partition of n - 2: the
    final fallback would need to shrink a unit diagonal hook.  Reported as
    an audit finding, never silently skipped.
    """


class NoKnownCharacterization(SCCoreError):
    """No closed-form zero-set predicate is available for this t."""


class UndefinedAtN(SCCoreError):
    """Normalized distribution is undefined because the denominator count is zero."""


class NotCoprime(SCCoreError):
    """Simultaneous-core counts require coprime (s, t)."""


class CacheCorrupt(SCCoreError):
    """On-disk coefficient cache failed validation."""
