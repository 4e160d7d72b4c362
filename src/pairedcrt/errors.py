"""Exceptions for invalid data: a ``PairedCrtError`` says the data (or their
size, for exact enumeration) are at fault, and the command line exits 2 on
it. An argument mistake, such as an unknown mode, raises ``ValueError``."""

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


class TooManyPairsForExact(PairedCrtError):
    """Exact enumeration requested but 2^G exceeds the configured cap."""
