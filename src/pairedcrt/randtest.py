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

Every statistic of a swap pattern comes from the kernel that ``infer``
also uses, :class:`pairedcrt.inference.SignSums`, built once per test on
the shifted outcomes: a swap pattern is a (G,) vector of +-1 pair signs
relative to the observed assignment, and a (B, G) matrix of them costs one
(B, G) x (G, 6) and one (B, G/2) x (G/2, 3) matrix product. The observed
statistic is |z| of ``infer`` at the same delta0, up to rounding.

Swapping every pair negates every sign, which leaves T unchanged, so exact
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
1 MiB, in one buffer every chunk reuses, the adjacent sign products
0.5 MiB and stochastic mode's drawn bits 1 MiB, whatever G and the draw
count: 1,999 or 9,999 draws at G = 1000 trace a 2.2 MiB peak. Arrays of
that size stay in a CPU's L2 cache, and with the sign buffer reused the
allocator need not take fresh pages from the OS for every chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import _philox
from .core import Dataset, _check_count, _json_record
from .errors import DataError
from .inference import SignSums, _checked_scale, _observed_inputs
from .matching import MatchedDesign

#: Exact enumeration is capped at 2^24 group elements.
MAX_EXACT_PAIRS = 24

#: Smallest allowed draw count in stochastic mode.
MIN_DRAWS = 19

#: Swap bits (patterns x pairs) evaluated per chunk. It bounds memory, and
#: at 2^17 a chunk's float arrays take 1 MiB, which stays in cache; chunks
#: of 8 MiB missed the cache and took fresh pages from the OS each time.
_CHUNK_CELLS = 1 << 17

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
        return _json_record(self)


def _signs(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """+1 for a kept pair and -1 for a swapped one, from (B, G) swap bits,
    written to the first B rows of ``out``."""
    signs = np.multiply(bits, -2.0, out=out[: len(bits)])
    signs += 1.0
    return signs


def _check_mode_and_draws(mode, draws, prefix: str = "") -> None:
    """Raises ``ValueError`` unless ``mode`` is "exact" or "stochastic" and
    ``draws`` is an integer >= ``MIN_DRAWS`` exactly when it is stochastic."""
    if mode not in ("exact", "stochastic"):
        raise ValueError(f"{prefix}mode must be 'exact' or 'stochastic', got {mode!r}")
    if (draws is None) == (mode == "stochastic"):
        problem = "is required with" if draws is None else "applies only to"
        raise ValueError(f"{prefix}draws {problem} {prefix}mode 'stochastic'")
    if draws is not None:
        _check_count(draws, f"{prefix}draws", MIN_DRAWS)


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

    Exact mode counts all 2^G swap patterns and needs G <= ``MAX_EXACT_PAIRS``;
    it takes no ``draws`` and ignores ``seed``. Stochastic mode evaluates the
    identity plus ``draws - 1`` uniform swap patterns drawn from a Philox
    stream keyed by ``seed``, an integer in [0, 2**64); ``draws`` is an
    integer of at least ``MIN_DRAWS``. Any other mode, draws or seed raises
    ``ValueError``, as do an ``alpha`` outside (0, 1) and a non-finite
    ``delta0``. As in ``infer``, the pairs of ``design`` may come in any
    order and its members in either: a design not marked as in variance
    order is put in it first, so the p-value, the observed statistic and
    the swap patterns drawn for each pair do not depend on that order.
    """
    _check_mode_and_draws(mode, draws)
    n, ybar, d_float, perm, first = _observed_inputs(dataset, design, alpha, delta0)
    g = design.pair_count
    if mode == "exact":
        if g > MAX_EXACT_PAIRS:
            raise DataError(f"exact enumeration supports at most {MAX_EXACT_PAIRS} pairs, got {g}")
        patterns = 1 << (g - 1)  # the last pair's bit stays 0
        weight = 2  # each pattern stands for itself and its complement

        def swap_bits(start: int, m: int) -> np.ndarray:
            index_bytes = np.arange(start, start + m, dtype="<u8").view(np.uint8)
            return np.unpackbits(index_bytes.reshape(m, 8), axis=1, count=g, bitorder="little")

        seed = None  # enumeration draws nothing
    else:
        rng = _philox(seed)
        seed, patterns = int(seed), int(draws)  # numpy integers are not JSON
        weight = 1

        def swap_bits(start: int, m: int) -> np.ndarray:
            return rng.integers(0, 2, size=(m, g), dtype=np.int64)

    with np.errstate(over="ignore"):  # an infinite shift fails the scale check
        shifted = ybar - d_float * delta0
    sums = SignSums.build(n, shifted, perm, first, _checked_scale(n, shifted, g))
    t_obs = float(sums.studentized(np.ones((1, g)))[0])
    threshold = t_obs - _COMPARE_TOL
    count = weight  # pattern 0: the identity (and its complement) matches itself
    rows = max(1, _CHUNK_CELLS // g)
    signs = np.empty((min(rows, patterns), g))  # one buffer for every chunk
    for start in range(1, patterns, rows):
        t = sums.studentized(_signs(swap_bits(start, min(rows, patterns - start)), signs))
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
