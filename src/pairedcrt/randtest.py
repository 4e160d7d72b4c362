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
is at least the observed one. Exact mode enumerates the whole group (up to
G = 20 pairs); stochastic mode samples group elements uniformly, with the
identity always included so the p-value stays valid at any draw count.

Both modes run one loop over chunks of swap patterns; only the source of
the (B, G) swap bits differs (the binary digits of the pattern index, or
a Philox stream, which yields the same bits however it is split). Each
chunk goes through :func:`pairedcrt.inference.pair_statistics`, the kernel
``infer`` uses. A chunk holds B = ``_CHUNK_CELLS // G`` patterns (at least
one), so each of its (B, 2G) arrays takes at most 16 MiB and each (B, G)
array 8 MiB, whatever G and the draw count; a whole chunk traces about
70 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, summarize
from .errors import BadB, MissingTreatment, TooManyPairsForExact
from .estimation import summary_arrays
from .inference import EPS_FLOOR, pair_statistics
from .matching import MatchedDesign

#: Exact enumeration is capped at 2^20 group elements.
MAX_EXACT_PAIRS = 20

#: Smallest allowed draw count in stochastic mode.
MIN_DRAWS = 19

#: Swap bits (patterns x pairs) evaluated per chunk, to bound memory.
_CHUNK_CELLS = 1 << 20

#: |sqrt(G) delta_hat| below this counts as zero when the variance clamps.
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
        }


def statistic_batch(
    n: np.ndarray,
    ybar: np.ndarray,
    dmat: np.ndarray,
    permutation,
    pair_count: int,
) -> np.ndarray:
    """Studentized statistics for a batch of treatment vectors, shape (B, 2G).

    When the variance estimate clamps, the statistic is 0 for a numerator
    that is itself zero and +inf otherwise, so degenerate draws compare
    conservatively against a degenerate observed value.
    """
    delta, tau2, lambda2 = pair_statistics(n, ybar, dmat, permutation, pair_count)
    v2 = np.atleast_1d(tau2 - 0.5 * lambda2)
    num = np.sqrt(pair_count) * np.atleast_1d(delta)
    clamped = v2 <= EPS_FLOOR
    t = np.empty(num.shape, dtype=float)
    ok = ~clamped
    t[ok] = np.abs(num[ok]) / np.sqrt(v2[ok])
    zero = clamped & (np.abs(num) <= _ZERO_NUMERATOR_TOL)
    t[zero] = 0.0
    t[clamped & ~zero] = np.inf
    return t


def swap_treatments(
    d: np.ndarray, bits: np.ndarray, permutation, pair_count: int
) -> np.ndarray:
    """Apply swap patterns to a treatment vector.

    ``bits`` has shape (B, G = ``pair_count``); bit j = 1 swaps the members
    of pair j. Returns an integer matrix of shape (B, 2G).
    """
    pair_of_cluster = np.argsort(permutation) // 2
    return d ^ np.take(bits, pair_of_cluster, axis=1)


def _count_at_least(t: np.ndarray, t_obs: float) -> int:
    return int(np.count_nonzero(t >= t_obs - _COMPARE_TOL))


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

    Exact mode enumerates all 2^G swap patterns and needs G <= 20. Stochastic
    mode evaluates the identity plus ``draws - 1`` uniform swap patterns drawn
    from a Philox stream keyed by ``seed``; ``draws`` must be at least 19.
    """
    if not dataset.has_treatments:
        raise MissingTreatment("the randomization test requires treatments")
    g = design.pair_count
    if mode == "exact":
        if g > MAX_EXACT_PAIRS:
            raise TooManyPairsForExact(
                f"exact enumeration supports at most {MAX_EXACT_PAIRS} pairs, got {g}"
            )
        total = 1 << g
        shifts = np.arange(g, dtype=np.uint64)

        def swap_bits(start: int, m: int) -> np.ndarray:
            idx = np.arange(start, start + m, dtype=np.uint64)
            return ((idx[:, np.newaxis] >> shifts) & np.uint64(1)).astype(np.int64)

        seed = None  # enumeration draws nothing
        skipped = 0  # pattern 0, the identity, is enumerated with the rest
    elif mode == "stochastic":
        if draws is None or draws < MIN_DRAWS:
            raise BadB(f"stochastic mode needs draws >= {MIN_DRAWS}, got {draws}")
        if seed is None:
            raise BadB("stochastic mode needs a seed")
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        total = draws

        def swap_bits(start: int, m: int) -> np.ndarray:
            return rng.integers(0, 2, size=(m, g), dtype=np.int64)

        skipped = 1  # the identity element always matches itself
    else:
        raise ValueError(f"mode must be 'exact' or 'stochastic', got {mode!r}")

    n, _, ybar, d_float = summary_arrays(summarize(dataset))
    d = d_float.astype(np.int64)
    ytilde = ybar - d_float * delta0

    perm = design.permutation
    t_obs = float(statistic_batch(n, ytilde, d[np.newaxis, :], perm, g)[0])
    count = skipped
    rows = max(1, _CHUNK_CELLS // g)
    for chunk in range(skipped, total, rows):
        dmat = swap_treatments(d, swap_bits(chunk, min(rows, total - chunk)), perm, g)
        count += _count_at_least(statistic_batch(n, ytilde, dmat, perm, g), t_obs)
    p = count / total
    return RandTestResult(
        p_value=float(p),
        reject=bool(p <= alpha),
        alpha=alpha,
        delta0=delta0,
        t_observed=t_obs,
        draws=total,
        mode=mode,
        seed=seed,
    )
