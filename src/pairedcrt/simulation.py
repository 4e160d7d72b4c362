"""Synthetic paired-trial generation and Monte Carlo evaluation.

A data-generating process (DGP) draws, per cluster, a scalar baseline
covariate X, an integer size N, a sampled-unit count, and unit outcomes

    Y_unit = alpha_d + beta_d * X + theta_d * N + cluster_noise + unit_noise

for assigned arm d, with the noise draws shared across arms so the two
potential outcomes of a cluster are coupled. The size-weighted effect of
such a DGP has the closed form

    delta = d_alpha + d_beta * E[X] + d_theta * E[N^2] / E[N],

exposed as :attr:`DgpSpec.true_delta`. :func:`oracle_variance` targets the
limiting variance of sqrt(G) times the size-weighted estimator by Monte
Carlo over (X, N), with the conditional moments given (X, N) evaluated in
closed form; matching on X alone and matching on (X, N) have different
limits, selected by ``match_on``.

All randomness flows through Philox streams spawned from a single seed, so
every artifact (trials, assignments, reports) is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import assign_within_pairs
from .core import Dataset, build_dataset
from .errors import DataError
from .inference import infer
# MATCH_MODES and match_clusters live in matching and are re-exported here
from .matching import MATCH_MODES, MatchedDesign, match_clusters
from .randtest import randomization_test


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


@dataclass(frozen=True)
class SizeLaw:
    """Marginal law of the integer cluster size, with finite support.

    ``fixed`` takes (n,), ``uniform_int`` takes (low, high) inclusive, with
    at most ``MAX_SUPPORT`` values, and ``two_point`` takes (small, large,
    prob_large). Finite support makes every size moment exactly computable
    by enumeration.
    """

    MAX_SUPPORT = 10**6

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
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
        elif self.kind == "two_point":
            small, large, p = self.params
            if not 1 <= int(small) < int(large):
                raise ValueError("two_point needs 1 <= small < large")
            if not 0.0 < p < 1.0:
                raise ValueError("two_point needs 0 < prob_large < 1")
        else:
            raise ValueError(f"unknown size law {self.kind!r}")

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
        m = self.outcomes
        return {
            "covariates": {"kind": self.covariates.kind, "params": list(self.covariates.params)},
            "sizes": {"kind": self.sizes.kind, "params": list(self.sizes.params)},
            "sampling": {"kind": self.sampling.kind, "q": self.sampling.q},
            "outcomes": {
                "alpha0": m.alpha0,
                "alpha1": m.alpha1,
                "beta0": m.beta0,
                "beta1": m.beta1,
                "theta0": m.theta0,
                "theta1": m.theta1,
                "sigma_cluster": m.sigma_cluster,
                "sigma_unit": m.sigma_unit,
            },
        }

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
    base_cov = CovariateLaw("uniform", (0.0, 1.0))
    base_sizes = SizeLaw("two_point", (10, 50, 0.5))
    if name == "null":
        return DgpSpec(
            covariates=base_cov,
            sizes=base_sizes,
            sampling=SamplingRule("full"),
            outcomes=LinearOutcomeModel(
                alpha0=1.0, alpha1=1.0, beta0=2.0, beta1=2.0, theta0=0.02, theta1=0.02
            ),
        )
    if name == "constant_effect":
        return DgpSpec(
            covariates=base_cov,
            sizes=base_sizes,
            sampling=SamplingRule("full"),
            outcomes=LinearOutcomeModel(
                alpha0=1.0, alpha1=2.0, beta0=2.0, beta1=2.0, theta0=0.02, theta1=0.02
            ),
        )
    if name == "size_heterogeneous":
        return DgpSpec(
            covariates=base_cov,
            sizes=base_sizes,
            sampling=SamplingRule("full"),
            outcomes=LinearOutcomeModel(
                alpha0=1.0, alpha1=1.5, beta0=2.0, beta1=2.0, theta0=0.0, theta1=0.04
            ),
        )
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
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def oracle_kind(match_mode: str) -> str:
    """Which limiting variance a match mode targets."""
    return "x_and_n" if match_mode == "nn_xn" else "x_only"


#: Most sampled units one trial may hold; each costs a few float columns.
MAX_SAMPLED_UNITS = 10**7


def generate_trial(
    dgp: DgpSpec, pair_count: int, match_mode: str = "nn_xn", seed: int = 0
) -> tuple[Dataset, MatchedDesign, float]:
    """Draw one matched, assigned trial; returns (dataset, design, true effect).

    Cluster covariates, sizes, noise and the assignment each use their own
    Philox stream spawned from ``seed``. Cluster and unit noise are drawn
    before assignment, so a rerun with a different assignment seed would
    reuse the same potential outcomes. Raises ``DataError`` when the drawn
    sizes would sample more than ``MAX_SAMPLED_UNITS`` units, before any
    outcome is drawn.
    """
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
    eps = rng_eps.normal(0.0, dgp.outcomes.sigma_unit, int(sampled))

    clusters = build_dataset([f"c{i + 1:06d}" for i in range(m)], n, x.reshape(m, 1))
    design = match_clusters(clusters, match_mode)
    assign_seed = int(streams[4].generate_state(1, np.uint64)[0])
    treat = assign_within_pairs(design, assign_seed)

    nf = n.astype(float)
    mu = np.where(treat == 1, dgp.outcomes.mu1(x, nf), dgp.outcomes.mu0(x, nf))
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    dataset = build_dataset(
        clusters.cluster_ids,
        clusters.n_total,
        clusters.X,
        treat,
        np.repeat(mu + gamma, counts) + eps,
        offsets,
    )
    return dataset, design, dgp.true_delta


def oracle_variance(
    dgp: DgpSpec, match_on: str = "x_only", draws: int = 1_000_000, seed: int = 0
) -> float:
    """Monte Carlo value of the limiting variance of sqrt(G) * delta_hat.

    ``match_on`` picks the limit: "x_only" for designs matched on the
    covariate alone, "x_and_n" for designs matched on covariate and size.
    The draw is over (X, N); all conditional moments given (X, N) enter in
    closed form, so ``draws`` only controls the outer averaging error.
    """
    if match_on not in ("x_only", "x_and_n"):
        raise ValueError(f"match_on must be 'x_only' or 'x_and_n', got {match_on!r}")
    m = dgp.outcomes
    en = dgp.sizes.mean()
    en2_over_en = dgp.sizes.mean_sq() / en
    c1 = m.alpha1 + m.beta1 * dgp.covariates.mean() + m.theta1 * en2_over_en
    c0 = m.alpha0 + m.beta0 * dgp.covariates.mean() + m.theta0 * en2_over_en

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = dgp.covariates.sample(rng, draws)
    n_int = dgp.sizes.sample(rng, draws)
    s = dgp.sampling.counts(n_int).astype(float)
    n = n_int.astype(float)
    w = n / en

    noise = m.sigma_cluster**2 + m.sigma_unit**2 / s
    second = (w**2 * ((m.mu1(x, n) - c1) ** 2 + noise)).mean() + (
        w**2 * ((m.mu0(x, n) - c0) ** 2 + noise)
    ).mean()
    if match_on == "x_and_n":
        cond = w * (m.mu1(x, n) + m.mu0(x, n) - c1 - c0)
    else:
        cond = (
            (m.alpha1 + m.alpha0)
            + (m.beta1 + m.beta0) * x
            + (m.theta1 + m.theta0) * en2_over_en
            - c1
            - c0
        )
    return float(second - 0.5 * (cond**2).mean())


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo study settings; see :func:`monte_carlo`."""

    dgp: DgpSpec
    pair_count: int
    replications: int
    match_mode: str = "nn_xn"
    alpha: float = 0.05
    null_delta: float = 0.0
    seed: int = 0
    rand_mode: str | None = None  # None, "exact", or "stochastic"
    rand_draws: int | None = None
    oracle_draws: int = 0

    def __post_init__(self):
        if self.pair_count < 2:
            raise ValueError("pair_count must be at least 2")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.match_mode not in MATCH_MODES:
            raise ValueError(f"unknown match mode {self.match_mode!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.rand_mode not in (None, "exact", "stochastic"):
            raise ValueError(f"unknown rand_mode {self.rand_mode!r}")
        if self.rand_mode == "stochastic" and self.rand_draws is None:
            raise ValueError("stochastic randomization tests need rand_draws")
        if self.oracle_draws < 0:
            raise ValueError("oracle_draws must be nonnegative")


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo summary over replicated trials.

    ``empirical_sd`` is the standard deviation of sqrt(G) * delta_hat across
    replications, the quantity the oracle variance squares. Coverage and the
    z rejection rate come from the normal-approximation test of
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
    oracle_variance: float | None

    def to_json_dict(self) -> dict:
        return {
            "pair_count": self.pair_count,
            "replications": self.replications,
            "match_mode": self.match_mode,
            "alpha": self.alpha,
            "null_delta": self.null_delta,
            "seed": self.seed,
            "true_delta": self.true_delta,
            "mean_delta_hat": self.mean_delta_hat,
            "bias": self.bias,
            "empirical_sd": self.empirical_sd,
            "mean_v2": self.mean_v2,
            "median_v2": self.median_v2,
            "coverage": self.coverage,
            "rejection_rate_z": self.rejection_rate_z,
            "rejection_rate_rand": self.rejection_rate_rand,
            "clamped_rate": self.clamped_rate,
            "oracle_variance": self.oracle_variance,
        }


def monte_carlo(config: SimConfig) -> SimReport:
    """Replicate generate / infer (and optionally the randomization test).

    Each replication gets its own spawned seed, so results do not depend on
    evaluation order and a single root seed reproduces the whole study.
    """
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.replications + 1)
    r = config.replications
    dhats = np.empty(r)
    v2s = np.empty(r)
    covered = np.zeros(r, dtype=bool)
    z_reject = np.zeros(r, dtype=bool)
    rand_reject = np.zeros(r, dtype=bool)
    clamped = np.zeros(r, dtype=bool)
    true_delta = config.dgp.true_delta

    for i in range(r):
        trial_seed, rand_seed = (int(v) for v in children[i].generate_state(2, np.uint64))
        dataset, design, _ = generate_trial(
            config.dgp, config.pair_count, config.match_mode, trial_seed
        )
        res = infer(dataset, design, alpha=config.alpha, delta0=config.null_delta)
        dhats[i] = res.estimate.delta_hat
        v2s[i] = res.variance.v2
        clamped[i] = res.variance.clamped
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

    oracle = None
    if config.oracle_draws > 0:
        oracle_seed = int(children[r].generate_state(1, np.uint64)[0])
        oracle = oracle_variance(
            config.dgp,
            match_on=oracle_kind(config.match_mode),
            draws=config.oracle_draws,
            seed=oracle_seed,
        )

    scaled = math.sqrt(config.pair_count) * dhats
    return SimReport(
        pair_count=config.pair_count,
        replications=r,
        match_mode=config.match_mode,
        alpha=config.alpha,
        null_delta=config.null_delta,
        seed=config.seed,
        true_delta=true_delta,
        mean_delta_hat=float(dhats.mean()),
        bias=float(dhats.mean() - true_delta),
        empirical_sd=float(scaled.std(ddof=1)) if r > 1 else 0.0,
        mean_v2=float(v2s.mean()),
        median_v2=float(np.median(v2s)),
        coverage=float(covered.mean()),
        rejection_rate_z=float(z_reject.mean()),
        rejection_rate_rand=float(rand_reject.mean()) if config.rand_mode else None,
        clamped_rate=float(clamped.mean()),
        oracle_variance=oracle,
    )
