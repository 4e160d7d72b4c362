"""Exception hierarchy for data validation and analysis failures."""

from __future__ import annotations


class PairedCrtError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PairedCrtError):
    """Invalid input data (CSV contents, dataset invariants)."""


class UnknownCluster(DataError):
    """A unit row references a cluster_id absent from the clusters table."""


class SampleExceedsSize(DataError):
    """A cluster has more sampled units than its total size."""


class EmptyCluster(DataError):
    """A cluster has no sampled units."""


class OddClusterCount(DataError):
    """The number of clusters is odd or below the minimum of 4."""


class RaggedCovariates(DataError):
    """Clusters do not share a common covariate dimension."""


class NonBinaryTreatment(DataError):
    """A treatment value is neither 0 nor 1, or only some clusters have one."""


class DuplicateUnit(DataError):
    """The same (cluster_id, unit_id) pair appears twice."""


class NonFiniteOutcome(DataError):
    """An outcome value is NaN or infinite."""


class MissingTreatment(DataError):
    """An operation requiring treatment assignments got a dataset without them."""


class EmptyArm(PairedCrtError):
    """All clusters fall in a single treatment arm."""


class TooFewPairs(PairedCrtError):
    """Fewer than 2 pairs: the cross-pair variance correction is undefined."""


class TooManyPairsForExact(PairedCrtError):
    """Exact enumeration requested but 2^G exceeds the configured cap."""


class BadB(PairedCrtError):
    """Stochastic randomization test called with too few draws."""
