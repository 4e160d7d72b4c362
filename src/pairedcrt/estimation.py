"""Point estimators for the average treatment effect.

The primary estimator weights each cluster's mean outcome by its total size
N_g, so it targets the effect averaged over individuals. With full sampling
of equally sized clusters it collapses to the plain difference in means.
The size-weighted estimator equals the coefficient on treatment in a
weighted least squares regression of unit outcomes on a constant and
treatment with weight N_g/|S_g| per squared residual; the tests check this
against a direct solve of that regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import DataError


@dataclass(frozen=True)
class PointEstimate:
    """A treatment-effect estimate with its arm-level components.

    ``n1`` and ``n0`` are the total cluster sizes by arm; ``delta_hat`` is
    always ``mu1 - mu0``.
    """

    delta_hat: float
    mu1: float
    mu0: float
    n1: float
    n0: float
    estimand: str  # "size_weighted"


def kernel_inputs(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, ybar, D) as float arrays, the inputs of :func:`arm_means` and of
    the variance kernel :class:`pairedcrt.inference.SignSums`.

    Raises ``DataError`` for a dataset without treatments or without sampled
    outcomes.
    """
    if dataset.treatment is None:
        raise DataError("estimation requires a treatment for every cluster")
    if dataset.ybar is None:
        raise DataError("estimation requires sampled outcomes")
    return dataset.n_total.astype(float), dataset.ybar, dataset.treatment.astype(float)


def arm_means(n: np.ndarray, ybar: np.ndarray, d: np.ndarray):
    """Size-weighted arm means and arm sizes for ``d`` of shape (2G,) or (B, 2G).

    Returns (mu1, mu0, n1, n0) with the batch shape of ``d``. The arm sums
    are matrix-vector products, so a batch of B treatment vectors costs
    four (B, 2G) x (2G,) products.
    """
    d = np.asarray(d, dtype=float)
    c = 1.0 - d
    n1 = d @ n
    n0 = c @ n
    if np.any(n1 == 0) or np.any(n0 == 0):
        raise DataError("a treatment arm is empty")
    weighted = n * ybar
    return (d @ weighted) / n1, (c @ weighted) / n0, n1, n0


def estimate_size_weighted(dataset: Dataset) -> PointEstimate:
    """Size-weighted difference in means across arms."""
    mu1, mu0, n1, n0 = (float(v) for v in arm_means(*kernel_inputs(dataset)))
    return PointEstimate(
        delta_hat=mu1 - mu0, mu1=mu1, mu0=mu0, n1=n1, n0=n0, estimand="size_weighted"
    )

