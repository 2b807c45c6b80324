"""Exception types shared across the package."""


class TropimeasError(Exception):
    """Base class for all errors raised by tropimeas."""


# --- distance matrix validation ---

class BadDistanceMatrix(TropimeasError):
    pass


class AsymmetricDistance(BadDistanceMatrix):
    def __init__(self, i, j, dij, dji):
        self.indices = (i, j)
        super().__init__(f"dist[{i}][{j}]={dij} != dist[{j}][{i}]={dji}")


class NegativeDistance(BadDistanceMatrix):
    def __init__(self, i, j, value):
        self.indices = (i, j)
        super().__init__(f"dist[{i}][{j}]={value} is negative")


class ZeroOffDiagonal(BadDistanceMatrix):
    def __init__(self, i, j):
        self.indices = (i, j)
        super().__init__(f"dist[{i}][{j}]=0 for distinct points")


class NonzeroDiagonal(BadDistanceMatrix):
    def __init__(self, i, value):
        self.indices = (i,)
        super().__init__(f"dist[{i}][{i}]={value} != 0")


class TriangleViolation(BadDistanceMatrix):
    def __init__(self, i, j, k):
        self.indices = (i, j, k)
        super().__init__(f"triangle inequality fails on indices ({i},{j},{k})")


class ShapeMismatch(BadDistanceMatrix):
    pass


# --- measures ---

class EmptyMeasure(TropimeasError):
    pass


class NotNormalized(TropimeasError):
    pass


class UnknownPoint(TropimeasError):
    pass


class MissingValue(TropimeasError):
    def __init__(self, point):
        self.point = point
        super().__init__(f"function has no value at point {point!r}")


class SpaceMismatch(TropimeasError):
    pass


class MixedSpaces(SpaceMismatch):
    pass


# --- metric space operations ---

class EmptyNet(TropimeasError):
    pass


class NetIsWholeSpace(TropimeasError):
    pass


# --- pseudometric ---

class TooManyPoints(TropimeasError):
    pass


class GridTooLarge(TropimeasError):
    """The grid oracle's step or range is unusable, or its seed count
    exceeds kernels.MAX_GRID_SEEDS."""


class GroundNotMetric(UserWarning):
    """Two distinct support measures sit at normalized dual distance 0.

    The iterated distance is still well defined (the ground structure is a
    pseudometric); callers are warned and the computation proceeds.
    """


# --- geometry ---

class LambdaPositive(TropimeasError):
    pass


# --- simplex bridge ---

class NotInSimplex(TropimeasError):
    pass
