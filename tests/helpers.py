"""Shared test utilities: dataset builders and independent reference code.

The reference implementations here (matched-pairs inference for unit-sized
clusters, brute-force optimal matching, closed-form limiting variances, the
unit-level weighted least squares fit) deliberately avoid the package's own
numerical paths, so agreement with them is evidence and not circularity.
The matching references sort or keep the full n x n x k distance tensor
that the package's row-per-step walks and one-column sort replaced,
``trial_columns_reference``
builds a trial cluster by cluster, one float at a time, and
``pair_statistics_reference`` computes delta, tau2 and lambda2 through
per-cluster adjusted outcomes, the path the per-pair kernel replaced, and
``randomization_reference`` enumerates every swap pattern through it.
``adjusted_outcomes`` is that path's first step, and ``swap_treatments``
turns swap bits into treatment vectors.
"""

import math
from dataclasses import dataclass

import numpy as np

from pairedcrt.assignment import assign_within_pairs
from pairedcrt.core import build_dataset
from pairedcrt.errors import EmptyArm, MissingTreatment
from pairedcrt.estimation import arm_means, kernel_inputs
from pairedcrt.matching import MatchedDesign, zscore

#: The columns of a Dataset, for comparing two of them.
COLUMNS = ("n_total", "X", "treatment", "outcomes", "offsets", "n_sampled", "ybar")


def csr(outcomes_per_cluster):
    """(flat outcomes, offsets) of per-cluster outcome lists."""
    counts = [len(o) for o in outcomes_per_cluster]
    flat = [float(v) for o in outcomes_per_cluster for v in o]
    return np.array(flat, dtype=float), np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


def make_dataset(sizes, ybars=None, treatments=None, xs=None, outcomes=None):
    """Build a dataset with one sampled unit per cluster unless outcomes given."""
    m = len(sizes)
    if outcomes is None:
        outcomes = [(y,) for y in ybars]
    flat, offsets = csr(outcomes)
    x = np.asarray(xs if xs is not None else np.arange(m), dtype=float).reshape(m, 1)
    return build_dataset(
        [f"c{i:03d}" for i in range(m)],
        np.asarray(sizes, dtype=np.int64),
        x,
        treatments,
        flat,
        offsets,
    )


def with_outcomes(ds, transform):
    """The dataset with ``transform(y, cluster)`` applied to each unit outcome."""
    cluster = np.repeat(np.arange(ds.n_clusters), ds.n_sampled)
    return build_dataset(
        ds.cluster_ids,
        ds.n_total,
        ds.X,
        ds.treatment,
        transform(ds.outcomes, cluster),
        ds.offsets,
    )


def assert_same_columns(a, b):
    """Every column of two datasets identical, bit for bit."""
    assert a.cluster_ids == b.cluster_ids
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


class RankDeficient(Exception):
    """The weighted least squares design matrix of ``wls_oracle`` is singular."""


@dataclass(frozen=True)
class AdjustedOutcomes:
    """Size-rescaled, arm-centered cluster means; sums to zero within each arm."""

    yhat: np.ndarray
    arm_weighted_means: tuple[float, float]  # (treated, control)
    nbar: float


def adjusted_outcomes(dataset):
    n, ybar, d = kernel_inputs(dataset)
    mu1, mu0, _, _ = arm_means(n, ybar, d)
    nbar = n.mean()
    return AdjustedOutcomes(
        yhat=(n / nbar) * (ybar - np.where(d == 1.0, mu1, mu0)),
        arm_weighted_means=(float(mu1), float(mu0)),
        nbar=float(nbar),
    )


def wls_oracle(dataset):
    """Treatment coefficient from the unit-level weighted least squares fit.

    Builds one row per sampled unit with weight N_g/|S_g| and regresses the
    outcome on an intercept and the treatment indicator. Kept independent of
    the cluster-mean estimator on purpose.
    """
    if dataset.treatment is None:
        raise MissingTreatment("wls_oracle requires treatments")
    n_treated_clusters = int(dataset.treatment.sum())
    if n_treated_clusters in (0, dataset.n_clusters):
        raise EmptyArm("all clusters are in one arm")
    y = dataset.outcomes
    d = np.repeat(dataset.treatment, dataset.n_sampled).astype(float)
    sw = np.sqrt(np.repeat(dataset.n_total / dataset.n_sampled, dataset.n_sampled))
    design = np.column_stack([sw, sw * d])
    coef, _, rank, _ = np.linalg.lstsq(design, sw * y, rcond=None)
    if rank < 2:
        raise RankDeficient("weighted design matrix is rank deficient")
    return float(coef[1])


def identity_design(pair_count, mode="nn_x"):
    return MatchedDesign(tuple(range(2 * pair_count)), pair_count, mode)


def random_dataset(rng, pairs=3, max_size=8, with_treatments=True):
    """A random valid dataset with subsampled clusters and paired treatments."""
    m = 2 * pairs
    sizes = rng.integers(1, max_size + 1, m)
    counts = [int(rng.integers(1, s + 1)) for s in sizes]
    outcomes = [rng.normal(0.0, 1.0, c).tolist() for c in counts]
    xs = rng.normal(0.0, 1.0, m)
    treatments = None
    if with_treatments:
        treatments = np.zeros(m, dtype=int)
        for j in range(pairs):
            treatments[2 * j + int(rng.integers(0, 2))] = 1
    return make_dataset(sizes, xs=xs, treatments=treatments, outcomes=outcomes)


def all_pairings(n):
    """Every perfect matching of range(n), as a list of index pairs."""

    def rec(rest):
        if not rest:
            yield []
            return
        a = rest[0]
        for i in range(1, len(rest)):
            b = rest[i]
            for tail in rec(rest[1:i] + rest[i + 1 :]):
                yield [(a, b)] + tail

    yield from rec(list(range(n)))


def min_matching_cost(values):
    """Brute-force minimum total within-pair |difference| for scalar values."""
    best = None
    for pairing in all_pairings(len(values)):
        cost = sum(abs(values[a] - values[b]) for a, b in pairing)
        if best is None or cost < best:
            best = cost
    return best


def design_cost(design, values):
    return sum(abs(values[a] - values[b]) for a, b in design.pairs())


def unit_level_reference(pairs_y):
    """Matched-pairs inference from scratch for unit-sized clusters.

    ``pairs_y`` lists (treated outcome, control outcome) per pair, in the
    pair order the variance estimator consumes.
    """
    g = len(pairs_y)
    yt = [a for a, _ in pairs_y]
    yc = [b for _, b in pairs_y]
    mt = sum(yt) / g
    mc = sum(yc) / g
    dev_t = [y - mt for y in yt]
    dev_c = [y - mc for y in yc]
    tau2 = sum((dev_t[j] - dev_c[j]) ** 2 for j in range(g)) / g
    signed = [dev_t[j] - dev_c[j] for j in range(g)]
    lam2 = 2.0 / g * sum(signed[2 * j] * signed[2 * j + 1] for j in range(g // 2))
    v2 = tau2 - lam2 / 2.0
    out = {"delta": mt - mc, "tau2": tau2, "lambda2": lam2, "v2": v2}
    if v2 > 0:
        out["z"] = (g**0.5) * (mt - mc) / (v2**0.5)
    return out


def swap_treatments(d, bits, permutation, pair_count):
    """Apply swap patterns to a treatment vector.

    ``bits`` has shape (B, G = ``pair_count``); bit j = 1 swaps the members
    of pair j. Returns an integer matrix of shape (B, 2G).
    """
    pair_of_cluster = np.argsort(permutation) // 2
    return d ^ np.take(bits, pair_of_cluster, axis=1)


def pair_statistics_reference(n, ybar, d, permutation, pair_count):
    """(delta, tau2, lambda2) through a per-cluster adjusted outcome yhat.

    ``d`` may be batched (..., 2G). Arm means are row sums; each cluster's
    yhat is (N_g / nbar) * (ybar_g - own-arm mean), and the pair differences
    and their treatment signs are read off yhat and ``d``.
    """
    d = np.asarray(d, dtype=float)
    n1 = (n * d).sum(axis=-1)
    n0 = (n * (1.0 - d)).sum(axis=-1)
    mu1 = (n * ybar * d).sum(axis=-1) / n1
    mu0 = (n * ybar * (1.0 - d)).sum(axis=-1) / n0
    own = np.where(d == 1.0, mu1[..., None], mu0[..., None])
    yhat = (n / n.mean()) * (ybar - own)
    perm = np.asarray(permutation)
    first = perm[0::2]
    second = perm[1::2]
    tau2 = ((yhat[..., second] - yhat[..., first]) ** 2).mean(axis=-1)
    signed = (yhat[..., first] - yhat[..., second]) * (d[..., first] - d[..., second])
    n_quads = pair_count // 2
    lead = signed[..., 0 : 2 * n_quads : 2]
    follow = signed[..., 1 : 2 * n_quads : 2]
    lambda2 = (2.0 / pair_count) * (lead * follow).sum(axis=-1)
    return mu1 - mu0, tau2, lambda2


def randomization_reference(n, ybar, d, permutation, pair_count, delta0=0.0):
    """Exact p-value, observed statistic and every pattern's statistic.

    Enumerates all 2^G swap patterns of the treatment vector ``d`` (pattern
    k swaps pair j when bit j of k is set, so pattern 0 is the identity),
    evaluates each through :func:`pair_statistics_reference` on the outcomes
    shifted by ``delta0`` on the observed treated clusters, and studentizes
    with the package's clamp rule.
    """
    g = pair_count
    d = np.asarray(d, dtype=np.int64)
    bits = (np.arange(1 << g)[:, None] >> np.arange(g)) & 1
    dmat = swap_treatments(d, bits, permutation, g)
    delta, tau2, lambda2 = pair_statistics_reference(n, ybar - d * delta0, dmat, permutation, g)
    v2 = tau2 - 0.5 * lambda2
    num = np.abs(math.sqrt(g) * delta)
    t = np.where(num <= 1e-10, 0.0, np.inf)
    ok = v2 > 1e-12
    t[ok] = num[ok] / np.sqrt(v2[ok])
    p = np.count_nonzero(t >= t[0] - 1e-12) / (1 << g)
    return p, float(t[0]), t


def unit_level_randomization_p(pairs_y, delta0=0.0):
    """Exact swap-enumeration p-value from scratch for unit-sized clusters.

    Enumerates all 2^G within-pair swaps of ``pairs_y`` (listed as
    (treated, control) per pair under the realized assignment, after
    shifting the treated outcome by ``delta0``) and recomputes the
    studentized statistic for each via :func:`unit_level_reference`.
    Degenerate variances map to 0 or +inf exactly as the package does, so
    tie handling matches.
    """
    g = len(pairs_y)
    shifted = [(a - delta0, b) for a, b in pairs_y]

    def statistic(pairs):
        ref = unit_level_reference(pairs)
        num = abs(g**0.5 * ref["delta"])
        if ref["v2"] > 1e-12:
            return num / ref["v2"] ** 0.5
        return 0.0 if num <= 1e-10 else float("inf")

    t_obs = statistic(shifted)
    count = 0
    for mask in range(1 << g):
        flipped = [
            (b, a) if (mask >> j) & 1 else (a, b)
            for j, (a, b) in enumerate(shifted)
        ]
        if statistic(flipped) >= t_obs - 1e-12:
            count += 1
    return count / (1 << g)


def closed_form_variance(dgp, match_on):
    """Exact limiting variance by moment algebra over the size support.

    Derivation: with weights w = N / E[N] and centering constants
    c_d = E[N mu_d] / E[N], the second-moment term is
    E[w^2 ((mu_d - c_d)^2 + sigma_cluster^2 + sigma_unit^2 / s(N))] summed
    over arms, and the subtracted conditional term is the second moment of
    E[sum of centered arms | X] (or | X, N). For the linear model every
    piece reduces to moments of X and N; cross terms vanish because X and
    N are independent.
    """
    values, probs = dgp.sizes.support()
    values = values.astype(float)
    en = float((values * probs).sum())

    def nmom(r):
        return float((values**r * probs).sum())

    center = nmom(2) / en
    ew2 = nmom(2) / en**2
    ej = (nmom(4) - 2 * center * nmom(3) + center**2 * nmom(2)) / en**2
    s = dgp.sampling.counts(values.astype(np.int64)).astype(float)
    ew2_over_s = float(((values**2 / s) * probs).sum()) / en**2

    if dgp.covariates.kind == "uniform":
        low, high = dgp.covariates.params
        var_x = (high - low) ** 2 / 12.0
    else:
        var_x = dgp.covariates.params[1] ** 2

    m = dgp.outcomes
    second = 0.0
    for beta, theta in ((m.beta1, m.theta1), (m.beta0, m.theta0)):
        second += (
            beta**2 * var_x * ew2
            + theta**2 * ej
            + m.sigma_cluster**2 * ew2
            + m.sigma_unit**2 * ew2_over_s
        )
    beta_sum = m.beta1 + m.beta0
    theta_sum = m.theta1 + m.theta0
    if match_on == "x_only":
        cond = beta_sum**2 * var_x
    else:
        cond = beta_sum**2 * var_x * ew2 + theta_sum**2 * ej
    return second - 0.5 * cond


def feature_reference(dataset, mode):
    """Raw matching features of a match mode, gathered cluster by cluster."""
    rows = []
    for i in range(dataset.n_clusters):
        row = [float(v) for v in dataset.X[i]]
        if mode == "sorted_x":
            row = row[:1]
        if mode == "nn_xn":
            row.append(float(dataset.n_total[i]))
        rows.append(row)
    return np.array(rows, dtype=float).reshape(dataset.n_clusters, -1)


def matching_reference(dataset, mode):
    """The pairs of a match mode: sorted by (x1, cluster_id) for sorted_x,
    else greedy nearest-neighbor pairing over a full distance tensor."""
    ids = dataset.cluster_ids
    n = len(ids)
    if mode == "sorted_x":
        x1 = feature_reference(dataset, mode)[:, 0]
        perm = sorted(range(n), key=lambda i: (x1[i], ids[i]))
        return MatchedDesign(tuple(perm), n // 2, mode)
    z = zscore(feature_reference(dataset, mode))
    id_order = sorted(range(n), key=lambda i: ids[i])
    diffs = z[:, None, :] - z[None, :, :]
    dist = np.sqrt((diffs * diffs).sum(axis=2))
    np.fill_diagonal(dist, np.inf)

    available = np.ones(n, dtype=bool)
    perm = []
    for seed in id_order:
        if not available[seed]:
            continue
        available[seed] = False
        row = np.where(available, dist[seed], np.inf)
        best = min(np.flatnonzero(row == row.min()), key=lambda i: ids[i])
        available[best] = False
        perm.extend((seed, int(best)))
    return MatchedDesign(tuple(perm), n // 2, mode)


def order_pairs_reference(design, dataset):
    """Nearest-neighbor path through pair midpoints, in the design mode's
    z-scored features, over a full distance tensor."""
    ids = dataset.cluster_ids
    scores = zscore(feature_reference(dataset, design.mode))
    perm = np.asarray(design.permutation)
    g = design.pair_count
    mid = 0.5 * (scores[perm[0::2]] + scores[perm[1::2]])

    def pair_tiebreak(j):
        return min(ids[perm[2 * j]], ids[perm[2 * j + 1]])

    start = min(range(g), key=lambda j: (tuple(mid[j]), pair_tiebreak(j)))
    d = mid[:, None, :] - mid[None, :, :]
    dist = np.sqrt((d * d).sum(axis=2))
    np.fill_diagonal(dist, np.inf)

    visited = np.zeros(g, dtype=bool)
    path = [start]
    visited[start] = True
    for _ in range(g - 1):
        row = np.where(visited, np.inf, dist[path[-1]])
        best = min(np.flatnonzero(row == row.min()), key=pair_tiebreak)
        visited[best] = True
        path.append(best)

    new_perm = []
    for j in path:
        new_perm.extend((int(perm[2 * j]), int(perm[2 * j + 1])))
    return MatchedDesign(tuple(new_perm), g, design.mode)


def trial_columns_reference(dgp, pair_count, match_mode, seed):
    """A trial's columns and design, built cluster by cluster.

    Draws the same Philox streams as ``generate_trial``, matches with the
    tensor references above, and assembles each cluster's outcomes one
    float at a time and its mean with ``math.fsum``. Returns (a dict of
    the Dataset's columns, in cluster_id order, and the design).
    """
    m = 2 * pair_count
    streams = np.random.SeedSequence(seed).spawn(5)
    rng_x, rng_n, rng_gamma, rng_eps = (
        np.random.Generator(np.random.Philox(s)) for s in streams[:4]
    )
    x = dgp.covariates.sample(rng_x, m)
    n = dgp.sizes.sample(rng_n, m)
    counts = dgp.sampling.counts(n)
    gamma = rng_gamma.normal(0.0, dgp.outcomes.sigma_cluster, m)
    eps = rng_eps.normal(0.0, dgp.outcomes.sigma_unit, int(counts.sum()))
    eps_chunks = np.split(eps, np.cumsum(counts)[:-1])

    ids = [f"c{i + 1:06d}" for i in range(m)]
    bare = build_dataset(ids, [int(v) for v in n], [[float(v)] for v in x])
    design = order_pairs_reference(matching_reference(bare, match_mode), bare)
    assign_seed = int(streams[4].generate_state(1, np.uint64)[0])
    treat = assign_within_pairs(design, assign_seed)

    nf = n.astype(float)
    mu = np.where(treat == 1, dgp.outcomes.mu1(x, nf), dgp.outcomes.mu0(x, nf))
    outcomes, offsets, means = [], [0], []
    for i in range(m):
        unit_outcomes = [float(v) for v in mu[i] + gamma[i] + eps_chunks[i]]
        outcomes.extend(unit_outcomes)
        offsets.append(len(outcomes))
        means.append(math.fsum(unit_outcomes) / len(unit_outcomes))
    columns = {
        "cluster_ids": tuple(ids),
        "n_total": np.array([int(v) for v in n], dtype=np.int64),
        "X": np.array([[float(v)] for v in x]),
        "treatment": np.array([int(t) for t in treat], dtype=np.int64),
        "outcomes": np.array(outcomes),
        "offsets": np.array(offsets, dtype=np.int64),
        "n_sampled": np.diff(np.array(offsets, dtype=np.int64)),
        "ybar": np.array(means),
    }
    return columns, design
