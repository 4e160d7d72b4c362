"""Point estimators for the average treatment effect.

The primary estimator weights each cluster's mean outcome by its total size
N_g, so it targets the effect averaged over individuals. With full sampling
of equally sized clusters it collapses to the plain difference in means.
The size-weighted estimator equals the coefficient on treatment in a
weighted least squares regression of unit outcomes on a constant and
treatment with weight N_g/|S_g| per squared residual; ``wls_oracle`` solves
that regression directly from the unit rows as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ClusterSummary, Dataset
from .errors import EmptyArm, MissingTreatment, SingularDesign


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
    estimand: str  # "size_weighted" | "equal_weighted"


def summary_arrays(summaries: Sequence[ClusterSummary]):
    """Extract (N, n_sampled, ybar, D) arrays; D is None if treatments absent."""
    n = np.array([s.n_total for s in summaries], dtype=float)
    m = np.array([s.n_sampled for s in summaries], dtype=float)
    ybar = np.array([s.ybar for s in summaries], dtype=float)
    if all(s.treatment is not None for s in summaries):
        d = np.array([s.treatment for s in summaries], dtype=float)
    else:
        d = None
    return n, m, ybar, d


def _require_treatments(summaries: Sequence[ClusterSummary]) -> np.ndarray:
    n, _, ybar, d = summary_arrays(summaries)
    if d is None:
        raise MissingTreatment("estimation requires a treatment for every cluster")
    if d.sum() == 0 or d.sum() == len(d):
        raise EmptyArm("all clusters are in one arm")
    return d


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
        raise EmptyArm("a treatment arm is empty")
    weighted = n * ybar
    return (d @ weighted) / n1, (c @ weighted) / n0, n1, n0


def estimate_size_weighted(summaries: Sequence[ClusterSummary]) -> PointEstimate:
    """Size-weighted difference in means across arms."""
    d = _require_treatments(summaries)
    n, _, ybar, _ = summary_arrays(summaries)
    mu1, mu0, n1, n0 = (float(v) for v in arm_means(n, ybar, d))
    return PointEstimate(
        delta_hat=mu1 - mu0, mu1=mu1, mu0=mu0, n1=n1, n0=n0, estimand="size_weighted"
    )


def estimate_equal_weighted(summaries: Sequence[ClusterSummary]) -> PointEstimate:
    """Unweighted difference of arm means of the cluster-level averages."""
    d = _require_treatments(summaries)
    n, _, ybar, _ = summary_arrays(summaries)
    _, _, n1, n0 = arm_means(n, ybar, d)
    mu1 = float(ybar[d == 1].mean())
    mu0 = float(ybar[d == 0].mean())
    return PointEstimate(
        delta_hat=mu1 - mu0,
        mu1=mu1,
        mu0=mu0,
        n1=float(n1),
        n0=float(n0),
        estimand="equal_weighted",
    )


def wls_oracle(dataset: Dataset) -> float:
    """Treatment coefficient from the unit-level weighted least squares fit.

    Builds one row per sampled unit with weight N_g/|S_g| and regresses the
    outcome on an intercept and the treatment indicator. Kept independent of
    the summary-based estimator on purpose.
    """
    rows_y: list[float] = []
    rows_d: list[float] = []
    rows_w: list[float] = []
    n_treated_clusters = 0
    for c in dataset.clusters:
        if c.treatment is None:
            raise MissingTreatment("wls_oracle requires treatments")
        n_treated_clusters += c.treatment
        w = c.n_total / c.n_sampled
        for y in c.sampled_outcomes:
            rows_y.append(y)
            rows_d.append(float(c.treatment))
            rows_w.append(w)
    if n_treated_clusters in (0, len(dataset.clusters)):
        raise EmptyArm("all clusters are in one arm")
    y = np.array(rows_y)
    d = np.array(rows_d)
    sw = np.sqrt(np.array(rows_w))
    design = np.column_stack([sw, sw * d])
    coef, _, rank, _ = np.linalg.lstsq(design, sw * y, rcond=None)
    if rank < 2:
        raise SingularDesign("weighted design matrix is rank deficient")
    return float(coef[1])
