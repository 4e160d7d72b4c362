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
pairs are close in feature space. ``infer`` and the randomization test
therefore take a design's pairs in variance order
(:func:`pairedcrt.matching.order_pairs_for_variance`), putting any design
not marked as in that order in it first.

One kernel, :class:`SignSums`, computes (delta, tau2, lambda2) for ``infer``
at the observed assignment and for the randomization test at whole batches
of within-pair swap patterns. Let sigma_j = +1 when pair j's first member is
treated and -1 otherwise, w = N / nbar, and, for pair j with members a and
b, ``c_j = w_a ybar_a - w_b ybar_b``, ``M_j = (w_a + w_b) / 2`` and
``D_j = (w_a - w_b) / 2``. With ``S = mu1 + mu0`` and ``delta = mu1 - mu0``,
pair j's treatment-signed adjusted difference is

    e_j = sigma_j (c_j - D_j S) - M_j delta,

so the arm sizes and sums, tau2 = mean(e_j^2) and lambda2 need only six
linear forms in sigma (over the columns D, c, cM, DM, cM' and DM', M'
being M of the other pair in the same pair of pairs, 0 for a trailing odd
pair) and three in the adjacent products sigma_l sigma_f. Those columns are
built once per call of ``infer`` or the randomization test, with ybar
centred on its size-weighted mean (the statistics do not depend on a
constant shift, and centring keeps S small), and a (B, G) matrix of signs
costs one (B, G) x (G, 6) and one (B, G/2) x (G/2, 3) product. The tests
hold the kernel to a per-cluster reference. ``infer`` reads its point
estimate from :func:`pairedcrt.estimation.arm_means` and only tau2 and
lambda2 from the kernel, built on the outcomes less the estimated effect
on the treated arm. :func:`first_member_treated` is the design check both
callers share, and :meth:`SignSums.v2` the one clamp rule.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .core import Dataset, _json_record
from .errors import DataError
from .estimation import PointEstimate, estimate_size_weighted, kernel_inputs
from .matching import MatchedDesign, _check_covers, _in_variance_order

#: v2 at or below this fraction of ``outcome_scale(n, ybar) ** 2`` is
#: rounding, not variance, and clamps (degenerate data).
V2_ROUNDING = 1e-13

#: The kernel centres ybar on a mean that rounds in proportion to the
#: largest |ybar|, not to the centred outcomes, so the scale is at least this
#: fraction of it: the arm means of constant outcomes can round away from
#: the constant.
_CENTRING_ROUNDING = 1e-8

#: |sqrt(G) delta_hat| at or below this fraction of the outcome scale
#: counts as zero when the variance clamps.
_ZERO_NUMERATOR_TOL = 1e-10

#: Largest ``scale * sqrt(G)`` the kernel takes, its terms being below
#: 225 G scale^2 (:func:`_checked_scale`).
_MAX_SCALE = math.sqrt(sys.float_info.max / 1024.0)

_NORMAL = NormalDist()


@dataclass(frozen=True)
class InferenceResult(PointEstimate):
    """The size-weighted estimate (the fields of ``PointEstimate``), its
    variance estimate v2 = tau2 - lambda2 / 2 and the z-test of
    effect = ``delta0`` with its confidence interval at level 1 - ``alpha``.

    ``clamped`` says that v2 was rounding and clamped to its floor; the test
    is then degenerate (the JSON key ``degenerate`` repeats ``clamped``):
    ``se`` and the interval bounds are infinite (JSON ``null``), ``z`` is 0
    and ``p_value`` 1.
    """

    tau2: float
    lambda2: float
    v2: float
    clamped: bool
    se: float
    z: float
    p_value: float
    ci_low: float
    ci_high: float
    alpha: float
    delta0: float

    def to_json_dict(self) -> dict:
        return {**_json_record(self), "degenerate": self.clamped}


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


def _checked_scale(n: np.ndarray, ybar: np.ndarray, pair_count: int) -> float:
    """:func:`outcome_scale` of the outcomes the kernel will see, checked
    before any sum over them is formed.

    Raises ``DataError`` when ``scale * sqrt(G)`` exceeds ``_MAX_SCALE``.
    With W the largest weight and Y the largest centred |ybar| the kernel
    sees, |c| <= 2 W Y, |D| <= W / 2, M <= W, and the arm means, S and delta
    are at most 2 Y, so no term or partial sum of the statistics exceeds
    25 G (W Y)^2. W Y is at most ``scale`` for the randomization test, which
    measures the outcomes it passes, and 3 ``scale`` for ``infer``, which
    passes its outcomes less the estimated effect, |delta_hat| being at most
    twice their centred spread.

    The scale is at least W ``_CENTRING_ROUNDING`` max |ybar|, which takes
    no sum; where that bound is too large already, it is rejected and
    reported before a size-weighted sum of the outcomes can overflow.
    """
    root = math.sqrt(pair_count)
    scale = float(n.max() / n.mean()) * (_CENTRING_ROUNDING * float(np.abs(ybar).max()))
    if scale * root <= _MAX_SCALE:
        scale = outcome_scale(n, ybar)
    if not scale * root <= _MAX_SCALE:
        raise DataError(
            f"outcomes at scale {scale:.3g} overflow the variance kernel, "
            f"which takes at most {_MAX_SCALE / root:.3g} "
            f"at {pair_count} pairs; rescale the outcomes"
        )
    return scale


def first_member_treated(n: np.ndarray, d: np.ndarray, permutation: Sequence[int]) -> np.ndarray:
    """Whether each pair's first member is treated, shape (..., G) for ``d``
    of shape (..., 2G), G being half the length of ``permutation``.

    Raises ``DataError`` when the design does not cover the data or a pair
    does not have exactly one treated member. A design that covers a
    ``Dataset`` has at least two pairs, as the cross-pair correction needs.
    """
    perm = np.asarray(permutation)
    _check_covers(perm, len(n))
    d = np.asarray(d)
    first = np.take(d, perm[0::2], axis=-1) == 1
    if np.any(first == (np.take(d, perm[1::2], axis=-1) == 1)):
        raise DataError("every pair of the design needs one treated and one control cluster")
    return first


@dataclass(frozen=True)
class SignSums:
    """Pair-level columns from which any swap pattern's statistics follow.

    ``linear`` (G, 6) and ``quad`` (G // 2, 3) are the columns of the module
    docstring, already multiplied by the observed signs, so the kernel takes
    signs relative to the observed assignment; the scalars are the sums that
    do not depend on the signs. The sums round in proportion to their
    largest term, not to v2; ``scale`` (:func:`outcome_scale` of the
    outcomes the caller tests) sets the clamp and zero-numerator
    thresholds, so a v2 that is rounding clamps at any outcome scale.
    """

    pair_count: int
    linear: np.ndarray
    quad: np.ndarray
    mid: float  # sum of M
    level: float  # sum of (w_a ybar_a + w_b ybar_b) / 2
    cc: float  # sum of c^2
    cd: float  # sum of c D
    dd: float  # sum of D^2
    mm: float  # sum of M^2
    mm_cross: float  # sum over pairs of pairs of M_l M_f
    scale: float

    @classmethod
    def build(
        cls,
        n: np.ndarray,
        ybar: np.ndarray,
        permutation,
        first_treated: np.ndarray,
        scale: float,
    ) -> "SignSums":
        """Columns for sizes ``n``, outcomes ``ybar`` and a (G,) mask saying
        whether each pair's first member is treated in the observed
        assignment, with the clamp thresholds set by ``scale``.
        ``permutation`` must be in variance-ready pair order; its pairs
        give G. The callers pass a scale that :func:`_checked_scale` took,
        so no statistic overflows.
        """
        perm = np.asarray(permutation)
        pair_count = len(perm) // 2
        w = n / n.mean()
        y = ybar - np.dot(n, ybar) / n.sum()
        wa, wb = w[perm[0::2]], w[perm[1::2]]
        ya, yb = y[perm[0::2]], y[perm[1::2]]
        sign = np.where(first_treated, 1.0, -1.0)
        m = 0.5 * (wa + wb)
        d = 0.5 * (wa - wb)
        c = wa * ya - wb * yb
        lead, follow = slice(0, 2 * (pair_count // 2), 2), slice(1, 2 * (pair_count // 2), 2)
        partner = np.zeros(pair_count)  # M of the other pair of the pair of pairs
        partner[lead], partner[follow] = m[follow], m[lead]
        linear = sign[:, np.newaxis] * np.column_stack(
            (d, c, c * m, d * m, c * partner, d * partner)
        )
        quad = (sign[lead] * sign[follow])[:, np.newaxis] * np.column_stack(
            (c[lead] * c[follow], c[lead] * d[follow] + d[lead] * c[follow], d[lead] * d[follow])
        )
        return cls(
            pair_count=pair_count,
            linear=linear,
            quad=quad,
            mid=float(m.sum()),
            level=float((0.5 * (wa * ya + wb * yb)).sum()),
            cc=float(np.dot(c, c)),
            cd=float(np.dot(c, d)),
            dd=float(np.dot(d, d)),
            mm=float(np.dot(m, m)),
            mm_cross=float(np.dot(m[lead], m[follow])),
            scale=scale,
        )

    def statistics(self, signs: np.ndarray):
        """(delta, tau2, lambda2), each of shape (B,), for a (B, G) matrix of
        +-1 signs relative to the observed assignment."""
        g = self.pair_count
        half = g // 2
        # transposed, each form comes out as one contiguous row
        ld, lc, lcm, ldm, lcp, ldp = self.linear.T @ signs.T
        products = signs[:, 0 : 2 * half : 2] * signs[:, 1 : 2 * half : 2]
        q_cc, q_cd, q_dd = self.quad.T @ products.T
        mu1 = (self.level + 0.5 * lc) / (self.mid + ld)
        mu0 = (self.level - 0.5 * lc) / (self.mid - ld)
        delta = mu1 - mu0
        s = mu1 + mu0
        squares = (
            self.cc
            - 2.0 * s * self.cd
            + s * s * self.dd
            - 2.0 * delta * (lcm - s * ldm)
            + delta * delta * self.mm
        )
        cross = (
            q_cc
            - s * q_cd
            + s * s * q_dd
            - delta * (lcp - s * ldp)
            + delta * delta * self.mm_cross
        )
        return delta, squares / g, (2.0 / g) * cross

    def v2(self, tau2, lambda2):
        """(v2, clamped) for v2 = tau2 - lambda2 / 2, elementwise.

        A v2 at or below ``V2_ROUNDING`` times the squared scale is
        rounding, not variance: it clamps, and its value is that floor.
        """
        v2 = tau2 - 0.5 * lambda2
        floor = V2_ROUNDING * self.scale**2
        clamped = v2 <= floor
        return np.where(clamped, floor, v2), clamped

    def studentized(self, signs: np.ndarray) -> np.ndarray:
        """The statistic |sqrt(G) delta| / sqrt(v2) for each row of a (B, G)
        sign matrix.

        When the variance estimate clamps, T is 0 for a numerator that is
        itself zero at the outcome scale and +inf otherwise, so degenerate
        draws compare conservatively against a degenerate observed value.
        """
        delta, tau2, lambda2 = self.statistics(signs)
        v2, clamped = self.v2(tau2, lambda2)
        num = np.sqrt(self.pair_count) * delta
        t = np.empty(num.shape, dtype=float)
        ok = ~clamped
        t[ok] = np.abs(num[ok]) / np.sqrt(v2[ok])
        zero = clamped & (np.abs(num) <= _ZERO_NUMERATOR_TOL * self.scale)
        t[zero] = 0.0
        t[clamped & ~zero] = np.inf
        return t


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, such as an int, a float or a
    numpy scalar of either, a bool not counting."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_test_arguments(alpha, delta0, delta0_name: str = "delta0") -> None:
    """Raises ``ValueError`` unless ``alpha`` and ``delta0``, the argument
    ``delta0_name``, are real numbers (not bools), 0 < ``alpha`` < 1 and
    ``delta0`` is finite."""
    if not (_is_real(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
    if not (_is_real(delta0) and math.isfinite(delta0)):
        raise ValueError(f"{delta0_name} must be a finite number, got {delta0!r}")


def _observed_inputs(dataset: Dataset, design: MatchedDesign, alpha: float, delta0: float):
    """(N, ybar, D, the design's permutation in variance order as an array,
    first-member-treated mask) of the observed assignment, the entry of
    ``infer`` and of the randomization test.

    A design not marked as in variance order is ordered here, so the
    statistics do not depend on the order of its pairs. Raises what
    :func:`_check_test_arguments`, pair ordering,
    :func:`~pairedcrt.estimation.kernel_inputs` and
    :func:`first_member_treated` raise.
    """
    _check_test_arguments(alpha, delta0)
    perm = np.asarray(_in_variance_order(design, dataset).permutation)
    n, ybar, d = kernel_inputs(dataset)
    first = first_member_treated(n, dataset.treatment, perm)
    return n, ybar, d, perm, first


def infer(
    dataset: Dataset,
    design: MatchedDesign,
    alpha: float = 0.05,
    delta0: float = 0.0,
) -> InferenceResult:
    """Two-sided z-test of effect = delta0 with a matching confidence interval.

    ``delta0`` enters only through the z numerator: removing a constant
    effect from the treated arm cancels in the arm-centered adjusted
    outcomes, and the kernel runs on the outcomes less the estimated
    effect, never less ``delta0``, so v2 does not depend on ``delta0`` at
    all. Raises ``ValueError`` unless 0 < ``alpha`` < 1 and ``delta0`` is
    finite, and ``DataError`` for outcomes beyond :func:`_checked_scale`.
    The pairs of ``design`` may come in any order, and its members in
    either: a design that ``match_clusters`` or ``order_pairs_for_variance``
    returned is taken in its variance order, and any other is put in that
    order first, so the result is the same for every order.
    """
    n, ybar, d, perm, first = _observed_inputs(dataset, design, alpha, delta0)
    g = design.pair_count
    scale = _checked_scale(n, ybar, g)
    est = estimate_size_weighted(dataset)
    # The expanded sums round in proportion to their largest term, so the
    # kernel runs on outcomes with the estimated effect removed from the
    # treated arm, which leaves tau2 and lambda2 unchanged and keeps them
    # accurate when the effect dwarfs the within-arm spread. v2 clamps at
    # the scale of the outcomes as observed.
    without_effect = ybar - d * est.delta_hat
    sums = SignSums.build(n, without_effect, perm, first, scale)
    _, tau2, lambda2 = (float(v[0]) for v in sums.statistics(np.ones((1, g))))
    v2, clamped = sums.v2(tau2, lambda2)
    if clamped:
        se, z, p, half_width = np.inf, 0.0, 1.0, np.inf
    else:
        se = np.sqrt(float(v2) / g)
        z = (est.delta_hat - delta0) / se
        # erfc keeps relative precision far into the tail, where 1 - erf does not
        p = math.erfc(abs(z) / math.sqrt(2.0))
        half_width = _NORMAL.inv_cdf(1.0 - alpha / 2.0) * se
    return InferenceResult(
        **vars(est),
        tau2=tau2,
        lambda2=lambda2,
        v2=float(v2),
        clamped=bool(clamped),
        se=float(se),
        z=float(z),
        p_value=float(p),
        ci_low=float(est.delta_hat - half_width),
        ci_high=float(est.delta_hat + half_width),
        alpha=alpha,
        delta0=delta0,
    )
