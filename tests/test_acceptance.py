"""End-to-end acceptance checks for the whole package.

Each test enforces one substantive property at a stated tolerance plus a
wall-clock budget, and prints a one-line diagnostic, so

    pytest -v tests/test_acceptance.py

reads as a pass/fail scorecard. The heavier Monte Carlo checks pin their
seeds so reruns are exact.
"""

import dataclasses
import time
from statistics import NormalDist

import numpy as np

from helpers import (
    design_cost,
    identity_design,
    make_dataset,
    min_matching_cost,
    random_dataset,
    unit_level_randomization_p,
    unit_level_reference,
)
from helpers import wls_oracle
from pairedcrt import build_dataset, estimate_size_weighted
from helpers import adjusted_outcomes
from pairedcrt.inference import infer
from pairedcrt.matching import pair_sorted_scalar
from helpers import swap_treatments
from pairedcrt.randtest import randomization_test, statistic_batch
from pairedcrt.simulation import (
    CovariateLaw,
    DgpSpec,
    LinearOutcomeModel,
    SamplingRule,
    SimConfig,
    SizeLaw,
    generate_trial,
    monte_carlo,
    oracle_kind,
    oracle_variance,
    preset,
)


def _finish(name, detail, t0, limit):
    elapsed = time.perf_counter() - t0
    print(f"acceptance {name}: {detail} [{elapsed:.1f}s / limit {limit:.0f}s]")
    assert elapsed < limit, f"{name} exceeded its {limit:.0f}s budget ({elapsed:.1f}s)"


def test_size_weighted_estimator_matches_wls():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        pairs = int(rng.integers(2, 51))
        ds = random_dataset(rng, pairs=pairs)
        est = estimate_size_weighted(ds)
        worst = max(worst, abs(est.delta_hat - wls_oracle(ds)))
    assert worst < 1e-10
    _finish("wls-equivalence", f"max |delta_hat - wls| = {worst:.2e}", t0, 5)


def test_adjusted_outcomes_sum_to_zero_within_arms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        ds = random_dataset(rng, pairs=int(rng.integers(2, 21)))
        adj = adjusted_outcomes(ds)
        d = ds.treatment
        worst = max(
            worst,
            abs(float(adj.yhat[d == 1].sum())),
            abs(float(adj.yhat[d == 0].sum())),
        )
    assert worst < 1e-10
    _finish("adjusted-sums", f"max |arm sum| = {worst:.2e}", t0, 1)


def test_exact_randomization_test_respects_level_in_small_samples():
    t0 = time.perf_counter()
    rep = monte_carlo(
        SimConfig(
            dgp=preset("null"),
            pair_count=6,
            replications=5000,
            match_mode="nn_xn",
            alpha=0.05,
            null_delta=0.0,
            seed=1031,
            rand_mode="exact",
        )
    )
    rate = rep.rejection_rate_rand
    assert rate <= 0.056
    _finish("exact-level", f"rejection rate = {rate:.4f} (<= 0.056)", t0, 120)


def test_z_test_calibration_at_moderate_sample_size():
    t0 = time.perf_counter()
    rep = monte_carlo(
        SimConfig(
            dgp=preset("null"),
            pair_count=200,
            replications=2000,
            match_mode="nn_xn",
            alpha=0.05,
            null_delta=0.0,
            seed=404,
        )
    )
    assert 0.035 <= rep.rejection_rate_z <= 0.065
    assert 0.93 <= rep.coverage <= 0.97
    _finish(
        "z-calibration",
        f"rejection = {rep.rejection_rate_z:.4f}, coverage = {rep.coverage:.4f}",
        t0,
        300,
    )


def test_variance_estimator_tracks_its_oracle_across_match_modes():
    t0 = time.perf_counter()
    dgp = preset("size_heterogeneous")
    children = np.random.SeedSequence(505).spawn(200)
    details = []
    for k, mode in enumerate(("sorted_x", "nn_x", "nn_xn")):
        v2s = np.empty(200)
        for i in range(200):
            seeds = children[i].generate_state(3, np.uint64)
            ds, design, _ = generate_trial(dgp, 2000, mode, int(seeds[k]))
            v2s[i] = infer(ds, design).variance.v2
        oracle = oracle_variance(dgp, oracle_kind(mode), draws=10**6, seed=99)
        median = float(np.median(v2s))
        rel = (median - oracle) / oracle
        details.append(f"{mode} {median:.3f} vs {oracle:.3f} ({rel:+.1%})")
        assert abs(rel) <= 0.10, f"{mode}: median v2 off by {rel:+.1%}"
    _finish("variance-consistency", "; ".join(details), t0, 600)


def test_matching_on_size_lowers_asymptotic_variance():
    t0 = time.perf_counter()
    dgp = DgpSpec(
        covariates=CovariateLaw("uniform", (0.0, 1.0)),
        sizes=SizeLaw("two_point", (10, 50, 0.5)),
        sampling=SamplingRule("full"),
        outcomes=LinearOutcomeModel(
            alpha0=1.0,
            alpha1=1.5,
            beta0=0.5,
            beta1=0.5,
            theta0=0.05,
            theta1=0.15,
            sigma_cluster=0.5,
            sigma_unit=1.0,
        ),
    )
    children = np.random.SeedSequence(606).spawn(2000)
    empirical = {}
    for k, mode in enumerate(("nn_x", "nn_xn")):
        dhats = np.empty(2000)
        for i in range(2000):
            seed = int(children[i].generate_state(2, np.uint64)[k])
            ds, design, _ = generate_trial(dgp, 500, mode, seed)
            dhats[i] = infer(ds, design).estimate.delta_hat
        empirical[mode] = float((np.sqrt(500.0) * dhats).std(ddof=1) ** 2)
    omega2 = oracle_variance(dgp, "x_only", draws=10**6, seed=1)
    nu2 = oracle_variance(dgp, "x_and_n", draws=10**6, seed=2)
    gap_emp = empirical["nn_x"] - empirical["nn_xn"]
    gap_oracle = omega2 - nu2
    assert nu2 < omega2
    assert empirical["nn_xn"] < empirical["nn_x"]
    assert abs(gap_emp - gap_oracle) <= 0.2 * gap_oracle
    _finish(
        "size-matching-gain",
        f"empirical gap = {gap_emp:.3f}, oracle gap = {gap_oracle:.3f}",
        t0,
        600,
    )


def test_randomization_distribution_is_asymptotically_half_normal():
    t0 = time.perf_counter()
    ds, design, _ = generate_trial(preset("null"), 1000, "nn_xn", 777)
    n, ybar, d = ds.n_total.astype(float), ds.ybar, ds.treatment.astype(float)
    g = design.pair_count
    rng = np.random.Generator(np.random.Philox(np.uint64(555)))
    bits = rng.integers(0, 2, size=(2000, g), dtype=np.int64)
    dmat = swap_treatments(d.astype(np.int64), bits, design.permutation, g)
    ts = np.sort(statistic_batch(n, ybar, dmat, design.permutation, g))
    phi = NormalDist().cdf
    theo = np.array([2.0 * phi(t) - 1.0 for t in ts])
    hi = np.arange(1, len(ts) + 1) / len(ts)
    lo = np.arange(0, len(ts)) / len(ts)
    ks = float(np.max(np.maximum(hi - theo, theo - lo)))
    assert ks < 0.05
    _finish("half-normal", f"KS distance = {ks:.4f} over 2000 swaps", t0, 120)


def test_shifted_null_keeps_level_and_detects_effects():
    t0 = time.perf_counter()
    flat = DgpSpec(
        covariates=CovariateLaw("uniform", (0.0, 1.0)),
        sizes=SizeLaw("two_point", (10, 50, 0.5)),
        sampling=SamplingRule("full"),
        outcomes=LinearOutcomeModel(
            alpha0=1.0, alpha1=1.0, sigma_cluster=0.5, sigma_unit=1.0
        ),
    )
    nu2 = oracle_variance(flat, "x_and_n", draws=10**6, seed=8)
    delta_star = 3.0 * (nu2 / 6.0) ** 0.5
    effected = dataclasses.replace(
        flat, outcomes=dataclasses.replace(flat.outcomes, alpha1=1.0 + delta_star)
    )

    def run(null_delta):
        return monte_carlo(
            SimConfig(
                dgp=effected,
                pair_count=6,
                replications=5000,
                match_mode="nn_xn",
                alpha=0.05,
                null_delta=null_delta,
                seed=2047,
                rand_mode="exact",
            )
        ).rejection_rate_rand

    level = run(delta_star)
    power = run(0.0)
    assert level <= 0.056
    assert power > 0.5
    _finish(
        "shifted-null",
        f"level at effect = {level:.4f}, power vs zero = {power:.4f} "
        f"(effect = {delta_star:.3f})",
        t0,
        180,
    )


def test_sorted_matching_is_optimal_in_one_dimension():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    for _ in range(200):
        m = int(rng.choice([4, 6, 8]))
        values = rng.normal(0.0, 1.0, m)
        items = build_dataset(  # a clusters-only table: no treatment, no outcomes
            cluster_ids=[f"c{i:02d}" for i in range(m)],
            n_total=np.ones(m, dtype=np.int64),
            X=values.reshape(m, 1),
            treatment=None,
            outcomes=None,
            offsets=None,
        )
        # ids c00..c07 sort in index order, so design indices address values
        design = pair_sorted_scalar(items)
        cost = design_cost(design, values)
        best = min_matching_cost(list(values))
        assert cost <= best + 1e-12
    _finish("sorted-optimal", "200 instances matched the brute-force optimum", t0, 5)


def test_unit_clusters_reduce_to_scalar_matched_pairs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(50):
        g = int(rng.integers(2, 9))
        ys = rng.normal(0.0, 1.0, 2 * g)
        treatments = np.zeros(2 * g, dtype=int)
        for j in range(g):
            treatments[2 * j + int(rng.integers(0, 2))] = 1
        ds = make_dataset(
            sizes=[1] * (2 * g), ybars=list(ys), treatments=list(treatments)
        )
        design = identity_design(g)
        res = infer(ds, design)
        rt = randomization_test(ds, design, mode="exact")
        pairs_y = []
        for a, b in design.pairs():
            treated, control = (a, b) if ds.treatment[a] == 1 else (b, a)
            y_treated, y_control = ds.outcomes[ds.offsets[[treated, control]]].tolist()
            pairs_y.append((y_treated, y_control))
        ref = unit_level_reference(pairs_y)
        ref_p = unit_level_randomization_p(pairs_y)
        worst = max(
            worst,
            abs(res.estimate.delta_hat - ref["delta"]),
            abs(res.variance.v2 - ref["v2"]),
            abs(rt.p_value - ref_p),
        )
    assert worst < 1e-10
    _finish("unit-collapse", f"max |package - reference| = {worst:.2e}", t0, 10)
