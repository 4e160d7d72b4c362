"""Shared test utilities: dataset builders and independent reference code.

The reference implementations here (matched-pairs inference for unit-sized
clusters, brute-force optimal matching, closed-form limiting variances)
deliberately avoid the package's own numerical paths, so agreement with
them is evidence and not circularity. The greedy matching references keep
the full n x n x k distance tensor that the package's row-per-step walks
replaced, ``trial_records_reference`` builds a trial's records one float at
a time, as ``generate_trial`` once did, and ``pair_statistics_reference``
computes delta, tau2 and lambda2 through per-cluster adjusted outcomes, the
path the per-pair kernel replaced.
"""

import numpy as np

from dataclasses import replace

from pairedcrt.assignment import assign_within_pairs
from pairedcrt.core import ClusterRecord, build_dataset
from pairedcrt.matching import MatchedDesign, feature_matrix, pair_sorted_scalar, zscore


def make_dataset(sizes, ybars=None, treatments=None, xs=None, outcomes=None):
    """Build a dataset with one sampled unit per cluster unless outcomes given."""
    m = len(sizes)
    records = []
    for i in range(m):
        if outcomes is not None:
            outs = tuple(float(v) for v in outcomes[i])
        else:
            outs = (float(ybars[i]),)
        records.append(
            ClusterRecord(
                cluster_id=f"c{i:03d}",
                n_total=int(sizes[i]),
                sampled_outcomes=outs,
                covariates=(float(xs[i]),) if xs is not None else (float(i),),
                treatment=None if treatments is None else int(treatments[i]),
            )
        )
    return build_dataset(records)


def identity_design(pair_count, matched_on_size=False):
    return MatchedDesign(
        permutation=tuple(range(2 * pair_count)),
        pair_count=pair_count,
        matched_on_size=matched_on_size,
    )


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


def greedy_nn_reference(items, include_size=False):
    """Greedy nearest-neighbor pairing over a full distance tensor."""
    n = len(items)
    z = zscore(feature_matrix(items, include_size))
    id_order = sorted(range(n), key=lambda i: items[i].cluster_id)
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
        best = min(np.flatnonzero(row == row.min()), key=lambda i: items[i].cluster_id)
        available[best] = False
        perm.extend((seed, int(best)))
    return MatchedDesign(
        permutation=tuple(perm), pair_count=n // 2, matched_on_size=include_size, scores=z
    )


def order_pairs_reference(design, items):
    """Nearest-neighbor path through pair midpoints over a full distance tensor."""
    if design.scores is not None:
        scores = np.asarray(design.scores, dtype=float)
    else:
        scores = zscore(feature_matrix(items, design.matched_on_size))
    perm = np.asarray(design.permutation)
    g = design.pair_count
    mid = 0.5 * (scores[perm[0::2]] + scores[perm[1::2]])

    def pair_tiebreak(j):
        return min(items[perm[2 * j]].cluster_id, items[perm[2 * j + 1]].cluster_id)

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
    return MatchedDesign(
        permutation=tuple(new_perm),
        pair_count=g,
        matched_on_size=design.matched_on_size,
        scores=design.scores,
    )


def trial_records_reference(dgp, pair_count, match_mode, seed):
    """A trial's cluster records and design, built record by record.

    Draws the same Philox streams as ``generate_trial``, matches with the
    tensor references above, and assembles each cluster's outcomes one
    float at a time. Returns (records in cluster_id order, design).
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

    bare = [
        ClusterRecord(
            cluster_id=f"c{i + 1:06d}",
            n_total=int(n[i]),
            sampled_outcomes=(),
            covariates=(float(x[i]),),
        )
        for i in range(m)
    ]
    if match_mode == "sorted_x":
        design = pair_sorted_scalar(bare, key=0)
    else:
        design = greedy_nn_reference(bare, include_size=match_mode == "nn_xn")
    design = order_pairs_reference(design, bare)
    assign_seed = int(streams[4].generate_state(1, np.uint64)[0])
    treat = assign_within_pairs(design, assign_seed)

    nf = n.astype(float)
    mu = np.where(treat == 1, dgp.outcomes.mu1(x, nf), dgp.outcomes.mu0(x, nf))
    records = [
        replace(
            bare[i],
            sampled_outcomes=tuple(float(v) for v in mu[i] + gamma[i] + eps_chunks[i]),
            treatment=int(treat[i]),
        )
        for i in range(m)
    ]
    return records, design
