"""Variance estimation and normal-approximation inference for paired designs.

The variance estimator works on adjusted outcomes: each cluster's mean is
centered at its own arm's size-weighted mean and rescaled by N_g over the
average cluster size nbar, so the adjusted values are mean zero within each
arm. Two ingredients combine into the estimate

    v2 = tau2 - lambda2 / 2,

where ``tau2`` is the mean squared within-pair difference of adjusted
outcomes and ``lambda2`` averages cross products of treatment-signed
within-pair differences over consecutive pairs ("pairs of pairs"). tau2
alone would be conservative; the lambda2 correction removes the part of the
within-pair difference that matching already explains, provided consecutive
pairs are close in feature space (see
:func:`pairedcrt.matching.order_pairs_for_variance`).

The per-pair kernel :func:`pair_statistics` computes (delta, tau2,
lambda2) for ``infer``. It takes treatment vectors of shape (2G,) or
(B, 2G) and works per pair: with ``s = d[..., perm[0::2]]`` saying whether
the first member of each pair is treated, pair j's signed difference is

    (N_t (ybar_t - mu1) - N_c (ybar_c - mu0)) / nbar,

t and c being its treated and control member, and the arm means come from
:func:`pairedcrt.estimation.arm_means`. The randomization test evaluates
the same three statistics for whole batches of swap patterns from
pair-level sums instead (:class:`pairedcrt.randtest.SignSums`); a property
test holds the two kernels to each other and to a per-cluster reference.
:func:`first_member_treated` is the design check both share.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .core import Dataset
from .errors import DataError, TooFewPairs
from .estimation import PointEstimate, arm_means, estimate_size_weighted, kernel_inputs
from .matching import MatchedDesign

#: v2 at or below this fraction of ``outcome_scale(n, ybar) ** 2`` is
#: rounding, not variance, and clamps (degenerate data).
V2_ROUNDING = 1e-13

#: ``pair_statistics`` rounds in proportion to the largest |ybar|, not to
#: the centred outcomes, so the scale is at least this fraction of it: the
#: arm means of constant outcomes can round away from the constant.
_CENTRING_ROUNDING = 1e-8

_NORMAL = NormalDist()


@dataclass(frozen=True)
class VarianceEstimate:
    tau2: float
    lambda2: float
    v2: float
    clamped: bool


@dataclass(frozen=True)
class InferenceResult:
    estimate: PointEstimate
    variance: VarianceEstimate
    se: float
    z: float
    p_value: float
    ci_low: float
    ci_high: float
    alpha: float
    delta0: float
    degenerate: bool

    def to_json_dict(self) -> dict:
        def _finite(x: float):
            return x if np.isfinite(x) else None

        return {
            "delta_hat": self.estimate.delta_hat,
            "mu1": self.estimate.mu1,
            "mu0": self.estimate.mu0,
            "n1": self.estimate.n1,
            "n0": self.estimate.n0,
            "estimand": self.estimate.estimand,
            "tau2": self.variance.tau2,
            "lambda2": self.variance.lambda2,
            "v2": self.variance.v2,
            "clamped": self.variance.clamped,
            "se": _finite(self.se),
            "z": self.z,
            "p_value": self.p_value,
            "ci_low": _finite(self.ci_low),
            "ci_high": _finite(self.ci_high),
            "alpha": self.alpha,
            "delta0": self.delta0,
            "degenerate": self.degenerate,
        }


def outcome_scale(n: np.ndarray, ybar: np.ndarray) -> float:
    """The scale to which v2 and delta round: the largest weight N_g / nbar
    times the largest |ybar_g| centred on the size-weighted mean, and at
    least ``_CENTRING_ROUNDING`` of the largest |ybar_g|.

    ``infer`` and the randomization test clamp v2 at or below
    ``V2_ROUNDING`` times its square, so whether v2 clamps does not depend
    on the unit of the outcomes.
    """
    w = n / n.mean()
    centred = float(np.abs(ybar - np.dot(n, ybar) / n.sum()).max())
    return float(w.max()) * max(centred, _CENTRING_ROUNDING * float(np.abs(ybar).max()))


def first_member_treated(
    n: np.ndarray, d: np.ndarray, permutation: Sequence[int], pair_count: int
) -> np.ndarray:
    """Whether each pair's first member is treated, shape (..., G) for ``d``
    of shape (..., 2G).

    Raises ``DataError`` when the design does not cover the data or a pair
    does not have exactly one treated member, and ``TooFewPairs`` below two
    pairs.
    """
    perm = np.asarray(permutation)
    if len(perm) != len(n):
        raise DataError(f"the design covers {len(perm)} clusters but the data has {len(n)}")
    if pair_count < 2:
        raise TooFewPairs("the cross-pair correction needs at least 2 pairs")
    d = np.asarray(d)
    first = np.take(d, perm[0::2], axis=-1) == 1
    if np.any(first == (np.take(d, perm[1::2], axis=-1) == 1)):
        raise DataError("every pair of the design needs one treated and one control cluster")
    return first


def pair_statistics(
    n: np.ndarray,
    ybar: np.ndarray,
    d: np.ndarray,
    permutation: Sequence[int],
    pair_count: int,
):
    """(delta, tau2, lambda2) for ``d`` of shape (2G,) or (B, 2G).

    The results have the batch shape of ``d``, whose every row must treat
    one member of each pair. ``permutation`` must be in
    variance-ready pair order: tau2 does not depend on the pair order but
    lambda2 does. For odd G the trailing pair drops out of lambda2.
    """
    perm = np.asarray(permutation)
    s = first_member_treated(n, d, perm, pair_count)
    mu1, mu0, _, _ = arm_means(n, ybar, d)
    # positions, in pair order, of each pair's treated and control member
    t = 2 * np.arange(pair_count) + ~s
    c = t ^ 1
    w, y = (n / n.mean())[perm], ybar[perm]
    signed = w[t] * (y[t] - mu1[..., None]) - w[c] * (y[c] - mu0[..., None])
    tau2 = (signed**2).mean(axis=-1)
    half = pair_count // 2
    lead = signed[..., 0 : 2 * half : 2]
    follow = signed[..., 1 : 2 * half : 2]
    lambda2 = (2.0 / pair_count) * (lead * follow).sum(axis=-1)
    return mu1 - mu0, tau2, lambda2


def infer(
    dataset: Dataset,
    design: MatchedDesign,
    alpha: float = 0.05,
    delta0: float = 0.0,
) -> InferenceResult:
    """Two-sided z-test of effect = delta0 with a matching confidence interval.

    ``delta0`` enters only through the z numerator: removing a constant
    effect from the treated arm cancels exactly in the arm-centered
    adjusted outcomes, so the variance estimate is invariant to it.
    """
    est = estimate_size_weighted(dataset)
    n, ybar, d = kernel_inputs(dataset)
    g = design.pair_count
    _, tau2, lambda2 = (float(v) for v in pair_statistics(n, ybar, d, design.permutation, g))
    v2 = tau2 - 0.5 * lambda2
    floor = V2_ROUNDING * outcome_scale(n, ybar) ** 2
    clamped = v2 <= floor
    var = VarianceEstimate(
        tau2=tau2, lambda2=lambda2, v2=floor if clamped else v2, clamped=clamped
    )
    if var.clamped:
        return InferenceResult(
            estimate=est,
            variance=var,
            se=np.inf,
            z=0.0,
            p_value=1.0,
            ci_low=-np.inf,
            ci_high=np.inf,
            alpha=alpha,
            delta0=delta0,
            degenerate=True,
        )
    se = np.sqrt(var.v2 / g)
    z = (est.delta_hat - delta0) / se
    p = 2.0 * _NORMAL.cdf(-abs(z))
    q = _NORMAL.inv_cdf(1.0 - alpha / 2.0)
    return InferenceResult(
        estimate=est,
        variance=var,
        se=float(se),
        z=float(z),
        p_value=float(p),
        ci_low=float(est.delta_hat - q * se),
        ci_high=float(est.delta_hat + q * se),
        alpha=alpha,
        delta0=delta0,
        degenerate=False,
    )
