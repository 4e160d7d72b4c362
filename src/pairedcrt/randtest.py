"""Randomization test over within-pair treatment swaps.

The transformation group swaps treatment labels inside pairs: an element
picks a subset of pairs and exchanges treated and control in each. The
group has 2^G elements and, because exactly one member of each pair is
treated, every element keeps one treated cluster per pair.

To test effect = delta0, the hypothesized effect is first removed from the
clusters that were actually treated; the studentized statistic

    T(d) = |sqrt(G) * delta_hat(d)| / v(d)

is then recomputed on the shifted outcomes for each transformed treatment
vector, and the p-value is the fraction of group elements whose statistic
is at least the observed one.

Every statistic of a swap pattern comes from one kernel on pair-level sums,
:class:`SignSums`. Let sigma_j = +1 when pair j's first member is treated
and -1 otherwise, w = N / nbar, and, for pair j with members a and b,
``c_j = w_a ybar_a - w_b ybar_b``, ``M_j = (w_a + w_b) / 2`` and
``D_j = (w_a - w_b) / 2``. With ``S = mu1 + mu0`` and ``delta = mu1 - mu0``,
pair j's treatment-signed adjusted difference is

    e_j = sigma_j (c_j - D_j S) - M_j delta,

so the arm sizes and sums, tau2 = mean(e_j^2) and lambda2 need only six
linear forms in sigma (over the columns D, c, cM, DM, cM' and DM', M'
being M of the other pair in the same pair of pairs, 0 for a trailing odd
pair) and three in the adjacent products sigma_l sigma_f. Those columns are built once per test, with ybar
centred on its size-weighted mean (the statistic does not depend on a
constant shift, and centring keeps S small), and a (B, G) matrix of signs
costs one (B, G) x (G, 6) and one (B, G/2) x (G/2, 3) product. ``infer``
keeps the per-pair kernel :func:`pairedcrt.inference.pair_statistics`;
the tests hold the two to each other and to a per-cluster reference.

Swapping every pair negates each sigma, which leaves T unchanged, so exact
mode fixes the last pair and enumerates the other 2^(G-1) patterns, each
standing for itself and its complement; it allows up to
``MAX_EXACT_PAIRS`` pairs. Stochastic mode samples group elements
uniformly, with the identity always included so the p-value stays valid at
any draw count, and reports the Monte Carlo standard error of its p-value.
The identity (and in exact mode its complement) is counted without being
evaluated, since it matches itself.

Both modes run one loop over chunks of swap patterns; only the source of
the (B, G) swap bits differs (the binary digits of the pattern index, or
a Philox stream, which yields the same bits however it is split). A chunk
holds B = ``_CHUNK_CELLS // G`` patterns (at least one), so its signs take
8 MiB, the adjacent sign products 4 MiB and stochastic mode's drawn bits
8 MiB, whatever G and the draw count: 1,999 or 9,999 draws at G = 1000
trace a 16 MiB peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import BadB, TooManyPairsForExact
from .estimation import kernel_inputs
from .inference import V2_ROUNDING, first_member_treated, outcome_scale
from .matching import MatchedDesign

#: Exact enumeration is capped at 2^24 group elements.
MAX_EXACT_PAIRS = 24

#: Smallest allowed draw count in stochastic mode.
MIN_DRAWS = 19

#: Swap bits (patterns x pairs) evaluated per chunk, to bound memory.
_CHUNK_CELLS = 1 << 20

#: |sqrt(G) delta_hat| at or below this fraction of the outcome scale
#: counts as zero when the variance clamps.
_ZERO_NUMERATOR_TOL = 1e-10

#: Slack when comparing statistics against the observed one.
_COMPARE_TOL = 1e-12


@dataclass(frozen=True)
class RandTestResult:
    p_value: float
    reject: bool
    alpha: float
    delta0: float
    t_observed: float
    draws: int
    mode: str
    seed: int | None
    #: sqrt(p (1 - p) / draws) in stochastic mode; None for an exact p-value.
    mc_standard_error: float | None

    def to_json_dict(self) -> dict:
        return {
            "p_value": self.p_value,
            "reject": self.reject,
            "alpha": self.alpha,
            "delta0": self.delta0,
            "t_observed": self.t_observed if np.isfinite(self.t_observed) else None,
            "draws": self.draws,
            "mode": self.mode,
            "seed": self.seed,
            "mc_standard_error": self.mc_standard_error,
        }


@dataclass(frozen=True)
class SignSums:
    """Pair-level columns from which any swap pattern's statistics follow.

    ``linear`` (G, 6) and ``quad`` (G // 2, 3) are the columns of the module
    docstring, already multiplied by the observed signs, so the kernel takes
    signs relative to the observed assignment; the scalars are the sums that
    do not depend on the signs. The sums round in proportion to their
    largest term, not to v2; ``scale`` (:func:`~pairedcrt.inference.outcome_scale`)
    sets the clamp and zero-numerator thresholds that ``infer`` shares, so a
    v2 that is rounding clamps at any outcome scale.
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
        pair_count: int,
        first_treated: np.ndarray,
    ) -> "SignSums":
        """Columns for sizes ``n``, outcomes ``ybar`` and a (G,) mask saying
        whether each pair's first member is treated in the observed
        assignment. ``permutation`` must be in variance-ready pair order."""
        perm = np.asarray(permutation)
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
            scale=outcome_scale(n, ybar),
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

    def studentized(self, signs: np.ndarray) -> np.ndarray:
        """The statistic T for each row of a (B, G) sign matrix.

        When the variance estimate clamps, T is 0 for a numerator that is
        itself zero at the outcome scale and +inf otherwise, so degenerate
        draws compare conservatively against a degenerate observed value.
        """
        delta, tau2, lambda2 = self.statistics(signs)
        v2 = tau2 - 0.5 * lambda2
        num = np.sqrt(self.pair_count) * delta
        clamped = v2 <= V2_ROUNDING * self.scale**2
        t = np.empty(num.shape, dtype=float)
        ok = ~clamped
        t[ok] = np.abs(num[ok]) / np.sqrt(v2[ok])
        zero = clamped & (np.abs(num) <= _ZERO_NUMERATOR_TOL * self.scale)
        t[zero] = 0.0
        t[clamped & ~zero] = np.inf
        return t


def statistic_batch(
    n: np.ndarray,
    ybar: np.ndarray,
    dmat: np.ndarray,
    permutation,
    pair_count: int,
) -> np.ndarray:
    """Studentized statistics for a batch of treatment vectors, shape (B, 2G).

    Every row must treat one member of each pair (``DataError`` otherwise).
    """
    first = first_member_treated(n, np.atleast_2d(dmat), permutation, pair_count)
    sums = SignSums.build(n, ybar, permutation, pair_count, np.ones(pair_count, dtype=bool))
    return sums.studentized(np.where(first, 1.0, -1.0))


def _signs(bits: np.ndarray) -> np.ndarray:
    """+1 for a kept pair and -1 for a swapped one, from (B, G) swap bits."""
    signs = bits.astype(float)
    signs *= -2.0
    signs += 1.0
    return signs


def randomization_test(
    dataset: Dataset,
    design: MatchedDesign,
    alpha: float = 0.05,
    delta0: float = 0.0,
    mode: str = "exact",
    draws: int | None = None,
    seed: int | None = None,
) -> RandTestResult:
    """Exact or sampled randomization p-value for the hypothesis effect = delta0.

    Exact mode counts all 2^G swap patterns and needs G <= ``MAX_EXACT_PAIRS``.
    Stochastic mode evaluates the identity plus ``draws - 1`` uniform swap
    patterns drawn from a Philox stream keyed by ``seed``; ``draws`` must be
    at least 19.
    """
    n, ybar, d_float = kernel_inputs(dataset)
    g = design.pair_count
    first = first_member_treated(n, dataset.treatment, design.permutation, g)
    if mode == "exact":
        if g > MAX_EXACT_PAIRS:
            raise TooManyPairsForExact(
                f"exact enumeration supports at most {MAX_EXACT_PAIRS} pairs, got {g}"
            )
        patterns = 1 << (g - 1)  # the last pair's bit stays 0
        weight = 2  # each pattern stands for itself and its complement

        def swap_bits(start: int, m: int) -> np.ndarray:
            index_bytes = np.arange(start, start + m, dtype="<u8").view(np.uint8)
            return np.unpackbits(index_bytes.reshape(m, 8), axis=1, count=g, bitorder="little")

        seed = None  # enumeration draws nothing
    elif mode == "stochastic":
        if draws is None or draws < MIN_DRAWS:
            raise BadB(f"stochastic mode needs draws >= {MIN_DRAWS}, got {draws}")
        if seed is None:
            raise BadB("stochastic mode needs a seed")
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        patterns = draws
        weight = 1

        def swap_bits(start: int, m: int) -> np.ndarray:
            return rng.integers(0, 2, size=(m, g), dtype=np.int64)

    else:
        raise ValueError(f"mode must be 'exact' or 'stochastic', got {mode!r}")

    sums = SignSums.build(n, ybar - d_float * delta0, design.permutation, g, first)
    t_obs = float(sums.studentized(np.ones((1, g)))[0])
    threshold = t_obs - _COMPARE_TOL
    count = weight  # pattern 0: the identity (and its complement) matches itself
    rows = max(1, _CHUNK_CELLS // g)
    for start in range(1, patterns, rows):
        t = sums.studentized(_signs(swap_bits(start, min(rows, patterns - start))))
        count += weight * int(np.count_nonzero(t >= threshold))
    total = weight * patterns
    p = count / total
    mc_se = float(np.sqrt(p * (1.0 - p) / total)) if mode == "stochastic" else None
    return RandTestResult(
        p_value=float(p),
        reject=bool(p <= alpha),
        alpha=alpha,
        delta0=delta0,
        t_observed=t_obs,
        draws=total,
        mode=mode,
        seed=seed,
        mc_standard_error=mc_se,
    )
