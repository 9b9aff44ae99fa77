"""Exception hierarchy shared across the package."""


class RepclassError(Exception):
    """Base class for all package errors."""


class ZeroColumn(RepclassError):
    pass


class NonFiniteInput(RepclassError):
    pass


class DimensionMismatch(RepclassError):
    pass


class EmptyInput(RepclassError):
    pass


class UnknownClass(RepclassError):
    pass


class NonPositiveLambda(RepclassError):
    pass


class NegativeThreshold(RepclassError):
    pass


class BadSparsity(RepclassError):
    pass


class BadGrid(RepclassError):
    pass


class FingerprintMismatch(RepclassError):
    pass


class SingleClass(RepclassError):
    pass


class BadDimension(RepclassError):
    pass


class EmptyImage(RepclassError):
    pass


class BadFraction(RepclassError):
    pass


class OccluderTooSmall(RepclassError):
    pass


class MissingPath(RepclassError):
    pass


class MixedImageSizes(RepclassError):
    pass


class MalformedMatrix(RepclassError):
    pass


class BadLabel(RepclassError):
    pass


class ConfigInvalid(RepclassError):
    pass


class OverlappingClasses(RepclassError):
    pass


class TooFewSamples(RepclassError):
    pass


class DegenerateAngle(RepclassError):
    pass


class RankDeficient(RepclassError):
    pass
