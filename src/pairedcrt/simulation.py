"""Synthetic paired-trial generation and Monte Carlo evaluation.

A data-generating process (DGP) draws, per cluster, a scalar baseline
covariate X, an integer size N, a sampled-unit count, and unit outcomes

    Y_unit = alpha_d + beta_d * X + theta_d * N + cluster_noise + unit_noise

for assigned arm d, with the noise draws shared across arms so the two
potential outcomes of a cluster are coupled. The size-weighted effect of
such a DGP has the closed form

    delta = d_alpha + d_beta * E[X] + d_theta * E[N^2] / E[N],

exposed as :attr:`DgpSpec.true_delta`. :func:`oracle_variance` gives the
limiting variance of sqrt(G) times the size-weighted estimator, also in
closed form, from the moments of X and of N over its finite support;
matching on X alone and matching on (X, N) have different limits, selected
by the match mode (``nn_xn`` matches on size).

All randomness flows through Philox streams spawned from a single seed, so
every artifact (trials, assignments, reports) is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .assignment import _philox, assign_within_pairs
from .core import (
    Dataset,
    _Workspace,
    _check_count,
    _frozen,
    _json_record,
    _sampled_means,
    _treatment_column,
    build_dataset,
)
from .errors import DataError
from .inference import _check_test_arguments, infer
# MATCH_MODES and match_clusters live in matching and are re-exported here
from .matching import MATCH_MODES, MatchedDesign, _check_match_mode, match_clusters
from .randtest import _check_mode_and_draws, randomization_test


@dataclass(frozen=True)
class CovariateLaw:
    """Marginal law of the baseline covariate.

    ``uniform`` reads params as (low, high); ``normal`` as (mean, sd).
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("uniform", "normal"):
            raise ValueError(f"unknown covariate law {self.kind!r}")
        if len(self.params) != 2:
            raise ValueError("covariate laws take exactly two parameters")
        a, b = self.params
        if self.kind == "uniform" and not a < b:
            raise ValueError("uniform law needs low < high")
        if self.kind == "normal" and not b > 0:
            raise ValueError("normal law needs sd > 0")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        a, b = self.params
        if self.kind == "uniform":
            return rng.uniform(a, b, size)
        return rng.normal(a, b, size)

    def mean(self) -> float:
        a, b = self.params
        return (a + b) / 2.0 if self.kind == "uniform" else a

    def variance(self) -> float:
        a, b = self.params
        return (b - a) ** 2 / 12.0 if self.kind == "uniform" else b * b


@dataclass(frozen=True)
class SizeLaw:
    """Marginal law of the integer cluster size, with finite support.

    ``fixed`` takes (n,), ``uniform_int`` takes (low, high) inclusive, with
    at most ``MAX_SUPPORT`` values, and ``two_point`` takes (small, large,
    prob_large). Every size must be an integer (``4.0`` is, ``7.9`` is not)
    of at most ``MAX_SIZE``, so that it and its sampled count, rounded
    through a float, fit the int64 columns of a trial. Finite support makes
    every size moment exactly computable by enumeration.
    """

    MAX_SUPPORT = 10**6
    MAX_SIZE = 2**62

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("fixed", "uniform_int", "two_point"):
            raise ValueError(f"unknown size law {self.kind!r}")
        sizes = self.params[:1] if self.kind == "fixed" else self.params[:2]
        for size in sizes:
            if not size <= self.MAX_SIZE or not float(size).is_integer():
                raise ValueError(f"{self.kind} sizes must be integers up to 2**62, got {size!r}")
        if self.kind == "fixed":
            (n,) = self.params
            if int(n) < 1:
                raise ValueError("fixed size must be >= 1")
        elif self.kind == "uniform_int":
            low, high = self.params
            if not 1 <= int(low) <= int(high):
                raise ValueError("uniform_int needs 1 <= low <= high")
            if int(high) - int(low) >= self.MAX_SUPPORT:
                raise ValueError(f"uniform_int spans more than {self.MAX_SUPPORT} sizes")
        else:
            small, large, p = self.params
            if not 1 <= int(small) < int(large):
                raise ValueError("two_point needs 1 <= small < large")
            if not 0.0 < p < 1.0:
                raise ValueError("two_point needs 0 < prob_large < 1")

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Support values and their probabilities."""
        if self.kind == "fixed":
            return np.array([int(self.params[0])]), np.array([1.0])
        if self.kind == "uniform_int":
            low, high = (int(p) for p in self.params)
            values = np.arange(low, high + 1)
            return values, np.full(len(values), 1.0 / len(values))
        small, large, p = self.params
        return np.array([int(small), int(large)]), np.array([1.0 - p, p])

    def moment(self, order: int) -> float:
        values, probs = self.support()
        return float((values.astype(float) ** order * probs).sum())

    def mean(self) -> float:
        return self.moment(1)

    def mean_sq(self) -> float:
        return self.moment(2)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        values, probs = self.support()
        return rng.choice(values, size=size, p=probs)


@dataclass(frozen=True)
class SamplingRule:
    """How many units are observed per cluster.

    ``full`` samples everyone; ``fraction`` samples ceil(q * N), at least 1.
    """

    kind: str = "full"
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in ("full", "fraction"):
            raise ValueError(f"unknown sampling rule {self.kind!r}")
        if self.kind == "fraction" and not 0.0 < self.q <= 1.0:
            raise ValueError("fraction sampling needs 0 < q <= 1")

    def counts(self, n_total: np.ndarray) -> np.ndarray:
        if self.kind == "full":
            return np.asarray(n_total, dtype=np.int64)
        scaled = np.ceil(self.q * np.asarray(n_total, dtype=float)).astype(np.int64)
        return np.maximum(1, scaled)


@dataclass(frozen=True)
class LinearOutcomeModel:
    """Arm-specific linear mean plus cluster and unit noise.

    Unit outcomes in arm d are alpha_d + beta_d * X + theta_d * N plus a
    N(0, sigma_cluster^2) cluster effect and i.i.d. N(0, sigma_unit^2) unit
    errors, both shared across the two arms.
    """

    alpha0: float
    alpha1: float
    beta0: float = 0.0
    beta1: float = 0.0
    theta0: float = 0.0
    theta1: float = 0.0
    sigma_cluster: float = 1.0
    sigma_unit: float = 1.0

    def __post_init__(self):
        if self.sigma_cluster < 0 or self.sigma_unit < 0:
            raise ValueError("noise scales must be nonnegative")

    def mu0(self, x: np.ndarray, n: np.ndarray) -> np.ndarray:
        return self.alpha0 + self.beta0 * x + self.theta0 * n

    def mu1(self, x: np.ndarray, n: np.ndarray) -> np.ndarray:
        return self.alpha1 + self.beta1 * x + self.theta1 * n


@dataclass(frozen=True)
class DgpSpec:
    """A complete data-generating process for a paired cluster trial."""

    covariates: CovariateLaw
    sizes: SizeLaw
    sampling: SamplingRule
    outcomes: LinearOutcomeModel

    @property
    def true_delta(self) -> float:
        """Size-weighted average effect, in closed form."""
        m = self.outcomes
        en = self.sizes.mean()
        return (
            (m.alpha1 - m.alpha0)
            + (m.beta1 - m.beta0) * self.covariates.mean()
            + (m.theta1 - m.theta0) * self.sizes.mean_sq() / en
        )

    def to_json_dict(self) -> dict:
        return _json_record(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DgpSpec":
        """Inverse of :meth:`to_json_dict`.

        Raises ``DataError`` for a payload of any other shape: a missing or
        unknown key, a parameter that is not a finite number, or parameters
        that a law rejects.
        """
        try:
            cov, sizes, sampling = payload["covariates"], payload["sizes"], payload["sampling"]
            return cls(
                covariates=CovariateLaw(kind=cov["kind"], params=_numbers(cov["params"])),
                sizes=SizeLaw(kind=sizes["kind"], params=_numbers(sizes["params"])),
                sampling=SamplingRule(kind=sampling["kind"], q=_number(sampling.get("q", 1.0))),
                outcomes=LinearOutcomeModel(
                    **{key: _number(value) for key, value in payload["outcomes"].items()}
                ),
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise DataError(f"DGP JSON: {type(exc).__name__}: {exc}") from None


def _number(value):
    """``value``, when it is a finite JSON number (int or float, not bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError(f"expected a finite number, got {value!r}")
    return value


def _numbers(values) -> tuple:
    """A JSON list of finite numbers, as a tuple."""
    if not isinstance(values, list):
        raise TypeError(f"expected a list of numbers, got {values!r}")
    return tuple(map(_number, values))


PRESET_NAMES = ("null", "constant_effect", "size_heterogeneous", "stress")


def preset(name: str) -> DgpSpec:
    """Named DGPs covering the main regimes.

    ``null`` has identical arms; ``constant_effect`` shifts the treated
    intercept by 1; ``size_heterogeneous`` makes the effect grow with
    cluster size, which rewards matching on size; ``stress`` combines
    rare large clusters with subsampling and loud unit noise.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if name == "stress":
        return DgpSpec(
            covariates=CovariateLaw("normal", (0.0, 1.0)),
            sizes=SizeLaw("two_point", (5, 200, 0.1)),
            sampling=SamplingRule("fraction", q=0.2),
            outcomes=LinearOutcomeModel(
                alpha0=1.0,
                alpha1=1.5,
                beta0=2.0,
                beta1=2.0,
                theta0=0.01,
                theta1=0.03,
                sigma_cluster=1.0,
                sigma_unit=2.0,
            ),
        )
    # the other three share X ~ U(0, 1), N in {10, 50} and full sampling
    alpha1, theta0, theta1 = {
        "null": (1.0, 0.02, 0.02),
        "constant_effect": (2.0, 0.02, 0.02),
        "size_heterogeneous": (1.5, 0.0, 0.04),
    }[name]
    return DgpSpec(
        covariates=CovariateLaw("uniform", (0.0, 1.0)),
        sizes=SizeLaw("two_point", (10, 50, 0.5)),
        sampling=SamplingRule("full"),
        outcomes=LinearOutcomeModel(
            alpha0=1.0, alpha1=alpha1, beta0=2.0, beta1=2.0, theta0=theta0, theta1=theta1
        ),
    )


#: Most sampled units one trial may hold; each costs a few float columns.
MAX_SAMPLED_UNITS = 10**7

#: The pair-count rule of :func:`generate_trial` and ``SimConfig``.
_check_pair_count = partial(_check_count, name="pair_count", minimum=2)


@lru_cache(maxsize=1)
def _cluster_ids(count: int) -> tuple[str, ...]:
    """The ids c000001, c000002, ... of a trial's clusters, zero-padded to
    one width, so that their string order is their number order at every
    count; the last count's tuple is kept for the next trial of a study."""
    width = max(6, len(str(count)))
    return tuple(f"c{i + 1:0{width}d}" for i in range(count))


def generate_trial(
    dgp: DgpSpec, pair_count: int, match_mode: str = "nn_xn", seed: int = 0
) -> tuple[Dataset, MatchedDesign, float]:
    """Draw one matched, assigned trial; returns (dataset, design, true effect).

    Cluster covariates, sizes, noise and the assignment each use their own
    Philox stream spawned from ``seed``. Cluster and unit noise are drawn
    before assignment, so a rerun with a different assignment seed would
    reuse the same potential outcomes. Raises ``ValueError`` unless
    ``pair_count`` is an integer of at least 2, and ``DataError`` when the
    drawn sizes would sample more than ``MAX_SAMPLED_UNITS`` units, before
    any outcome is drawn, or when a mean or outcome is beyond float range,
    naming the first such cluster in id order.

    The clusters are validated once, by one :func:`build_dataset`; the
    outcomes are checked by the summation that gives ``n_sampled`` and
    ``ybar``. The unit noise, the outcomes and the summation's temporaries
    live in a workspace of this call, which :func:`monte_carlo` keeps for a
    whole study instead, with the same bits.
    """
    _check_pair_count(pair_count)
    return _draw_trial(dgp, pair_count, match_mode, seed, _Workspace())


def _draw_trial(
    dgp: DgpSpec, pair_count: int, match_mode: str, seed: int, workspace: _Workspace
) -> tuple[Dataset, MatchedDesign, float]:
    """:func:`generate_trial`, its unit noise and outcomes formed in the
    ``outcomes`` buffer of ``workspace`` and summed with its buffers. No
    column of the trial views the workspace."""
    m = 2 * pair_count
    streams = np.random.SeedSequence(seed).spawn(5)
    rng_x, rng_n, rng_gamma, rng_eps = (
        np.random.Generator(np.random.Philox(s)) for s in streams[:4]
    )
    x = dgp.covariates.sample(rng_x, m)
    n = dgp.sizes.sample(rng_n, m)
    counts = dgp.sampling.counts(n)
    sampled = counts.sum(dtype=float)  # a float sum cannot wrap around
    if sampled > MAX_SAMPLED_UNITS:
        raise DataError(
            f"the trial samples {sampled:.0f} units, more than {MAX_SAMPLED_UNITS}"
        )
    gamma = rng_gamma.normal(0.0, dgp.outcomes.sigma_cluster, m)
    y = workspace.floats("outcomes", int(sampled))
    rng_eps.standard_normal(out=y)

    # the ids are in string order, so the draw order is the dataset's and
    # every column below, drawn or summed, is in cluster_id order
    ids = _cluster_ids(m)
    clusters = build_dataset(ids, n, x.reshape(m, 1))
    design = match_clusters(clusters, match_mode)
    assign_seed = int(streams[4].generate_state(1, np.uint64)[0])
    treat = assign_within_pairs(design, assign_seed)

    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # means or outcomes beyond float range become inf or NaN, which the
    # finite check of the sums reports as a DataError
    with np.errstate(over="ignore", invalid="ignore"):
        nf = n.astype(float)
        mu = np.where(treat == 1, dgp.outcomes.mu1(x, nf), dgp.outcomes.mu0(x, nf))
        # sigma * z has the bits of rng.normal(0.0, sigma), which numpy
        # computes as 0.0 + sigma * z, but for the sign of a zero. Adding
        # either zero to mu + gamma gives the same outcome, since that sum
        # is never -0.0: gamma, from rng.normal, never is.
        y *= dgp.outcomes.sigma_unit
        y += np.repeat(mu + gamma, counts)
    n_sampled, ybar = _sampled_means(y, offsets, ids, np.arange(m), clusters.n_total, workspace)
    dataset = replace(
        clusters,
        treatment=_treatment_column(treat, ids),
        n_sampled=_frozen(n_sampled),
        ybar=_frozen(ybar),
    )
    return dataset, design, dgp.true_delta


def oracle_variance(dgp: DgpSpec, match_mode: str = "nn_x") -> float:
    """Limiting variance of sqrt(G) * delta_hat, in closed form.

    ``match_mode``, one of ``MATCH_MODES``, picks the limit: ``nn_xn`` for
    designs matched on covariate and size, ``sorted_x`` and ``nn_x`` for
    designs matched on the covariate alone.

    Derivation. With weights w = N / E[N] and centring constants
    c_d = E[N mu_d] / E[N], the limit is the second-moment term

        E[w^2 ((mu_d - c_d)^2 + sigma_cluster^2 + sigma_unit^2 / s(N))]

    summed over both arms, less half the second moment of the conditional
    term E[w (mu_1 + mu_0 - c_1 - c_0) | features], the features being X,
    or (X, N) for ``nn_xn``. Under the linear model mu_d - c_d is
    beta_d (X - E[X]) + theta_d (N - E[N^2] / E[N]), and X is independent of
    N, so every cross term vanishes: a beta term is Var(X) E[w^2], a theta
    term E[w^2 (N - E[N^2] / E[N])^2], and the noise sigma_cluster^2 E[w^2]
    + sigma_unit^2 E[w^2 / s(N)]. Given X alone, the size terms of the
    conditional term average out and it is (beta_1 + beta_0) (X - E[X]). The
    moments of N are sums over the finite support of the size law.

    Where a term is beyond float range the limit is not finite (JSON
    ``null``): a Python float ``**`` that overflows raises, so NaN stands
    for it.
    """
    _check_match_mode(match_mode)
    values, probs = dgp.sizes.support()
    n = values.astype(float)
    en = float(probs @ n)
    w2 = (n / en) ** 2
    ew2 = float(probs @ w2)
    centre = float(probs @ (n * n)) / en  # E[N^2] / E[N]
    size_spread = float(probs @ (w2 * (n - centre) ** 2))
    ew2_over_s = float(probs @ (w2 / dgp.sampling.counts(values)))

    m = dgp.outcomes
    try:
        var_x = dgp.covariates.variance()
        second = (
            (m.beta1**2 + m.beta0**2) * var_x * ew2
            + (m.theta1**2 + m.theta0**2) * size_spread
            + 2.0 * (m.sigma_cluster**2 * ew2 + m.sigma_unit**2 * ew2_over_s)
        )
        beta_sum = m.beta1 + m.beta0
        if match_mode == "nn_xn":
            cond = beta_sum**2 * var_x * ew2 + (m.theta1 + m.theta0) ** 2 * size_spread
        else:
            cond = beta_sum**2 * var_x
    except OverflowError:
        return math.nan
    return float(second - 0.5 * cond)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo study settings (see :func:`monte_carlo`), checked at
    construction by the argument rules of the functions a study calls."""

    dgp: DgpSpec
    pair_count: int
    replications: int
    match_mode: str = "nn_xn"
    alpha: float = 0.05
    null_delta: float = 0.0
    seed: int = 0
    rand_mode: str | None = None  # None, "exact", or "stochastic"
    rand_draws: int | None = None  # stochastic mode only

    def __post_init__(self):
        if not isinstance(self.dgp, DgpSpec):
            raise ValueError(f"dgp must be a DgpSpec, got {self.dgp!r}")
        _check_pair_count(self.pair_count)
        _check_count(self.replications, "replications", 1)
        _check_match_mode(self.match_mode)
        _check_test_arguments(self.alpha, self.null_delta, "null_delta")
        # a study without a test (rand_mode None) takes no draws, as exact mode
        rand_mode = "exact" if self.rand_mode is None else self.rand_mode
        _check_mode_and_draws(rand_mode, self.rand_draws, "rand_")
        _philox(self.seed)


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo summary over replicated trials.

    ``empirical_sd`` is the standard deviation of sqrt(G) * delta_hat across
    replications (NaN, JSON ``null``, for one), and ``oracle_variance``
    (:func:`oracle_variance` of the study's DGP and match mode) is the limit
    its square estimates. Coverage
    and the z rejection rate come from the normal-approximation test of
    ``null_delta``; the randomization rejection rate is None unless a
    ``rand_mode`` was set.
    """

    pair_count: int
    replications: int
    match_mode: str
    alpha: float
    null_delta: float
    seed: int
    true_delta: float
    mean_delta_hat: float
    bias: float
    empirical_sd: float
    mean_v2: float
    median_v2: float
    coverage: float
    rejection_rate_z: float
    rejection_rate_rand: float | None
    clamped_rate: float
    oracle_variance: float

    def to_json_dict(self) -> dict:
        return _json_record(self)


def monte_carlo(config: SimConfig) -> SimReport:
    """Replicate generate / infer (and optionally the randomization test).

    Each replication gets its own spawned seed, so results do not depend on
    evaluation order and a single root seed reproduces the whole study.
    Replication i is bit for bit :func:`generate_trial` on child i's first
    seed, then :func:`~pairedcrt.inference.infer`. The trials are drawn into
    one workspace of unit-length buffers that the study keeps, which grows
    to the largest trial and is freed on return, so a replication reuses
    the memory of the one before; no trial's columns view it.
    """
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.replications)
    r = config.replications
    dhats = np.empty(r)
    v2s = np.empty(r)
    covered = np.zeros(r, dtype=bool)
    z_reject = np.zeros(r, dtype=bool)
    rand_reject = np.zeros(r, dtype=bool)
    clamped = np.zeros(r, dtype=bool)
    true_delta = config.dgp.true_delta

    workspace = _Workspace()  # grows to the largest trial, freed on return
    for i in range(r):
        trial_seed, rand_seed = (int(v) for v in children[i].generate_state(2, np.uint64))
        dataset, design, _ = _draw_trial(
            config.dgp, config.pair_count, config.match_mode, trial_seed, workspace
        )
        res = infer(dataset, design, alpha=config.alpha, delta0=config.null_delta)
        dhats[i] = res.delta_hat
        v2s[i] = res.v2
        clamped[i] = res.clamped
        covered[i] = res.ci_low <= true_delta <= res.ci_high
        z_reject[i] = res.p_value <= config.alpha
        if config.rand_mode is not None:
            rt = randomization_test(
                dataset,
                design,
                alpha=config.alpha,
                delta0=config.null_delta,
                mode=config.rand_mode,
                draws=config.rand_draws,
                seed=rand_seed,
            )
            rand_reject[i] = rt.reject

    scaled = math.sqrt(config.pair_count) * dhats
    return SimReport(
        pair_count=int(config.pair_count),  # numpy integers are not JSON
        replications=int(r),
        match_mode=config.match_mode,
        alpha=config.alpha,
        null_delta=config.null_delta,
        seed=int(config.seed),
        true_delta=true_delta,
        mean_delta_hat=float(dhats.mean()),
        bias=float(dhats.mean() - true_delta),
        empirical_sd=float(scaled.std(ddof=1)) if r > 1 else math.nan,  # no sd of one
        mean_v2=float(v2s.mean()),
        median_v2=float(np.median(v2s)),
        coverage=float(covered.mean()),
        rejection_rate_z=float(z_reject.mean()),
        rejection_rate_rand=float(rand_reject.mean()) if config.rand_mode else None,
        clamped_rate=float(clamped.mean()),
        oracle_variance=oracle_variance(config.dgp, config.match_mode),
    )
