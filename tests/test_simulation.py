import json

import numpy as np
import pytest

from helpers import COLUMNS, assert_same_columns, closed_form_variance, trial_columns_reference
from pairedcrt.errors import DataError
from pairedcrt.matching import imbalance_report
from pairedcrt.simulation import (
    CovariateLaw,
    DgpSpec,
    LinearOutcomeModel,
    SamplingRule,
    SimConfig,
    SizeLaw,
    MATCH_MODES,
    generate_trial,
    match_clusters,
    monte_carlo,
    oracle_variance,
    preset,
    PRESET_NAMES,
)


class TestLaws:
    def test_two_point_moments(self):
        law = SizeLaw(kind="two_point", params=(10.0, 50.0, 0.5))
        assert law.mean() == pytest.approx(30.0)
        assert law.mean_sq() == pytest.approx(1300.0)
        values, probs = law.support()
        assert list(values) == [10, 50]
        assert list(probs) == [0.5, 0.5]

    def test_uniform_int_moments(self):
        law = SizeLaw(kind="uniform_int", params=(2.0, 4.0))
        assert law.mean() == pytest.approx(3.0)
        assert law.mean_sq() == pytest.approx((4 + 9 + 16) / 3.0)
        values, probs = law.support()
        assert list(values) == [2, 3, 4]
        assert probs == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_fixed_moments(self):
        law = SizeLaw(kind="fixed", params=(7.0,))
        assert law.mean() == 7.0
        assert law.mean_sq() == 49.0
        assert law.moment(3) == 343.0

    def test_size_law_validation(self):
        with pytest.raises(ValueError):
            SizeLaw(kind="poisson", params=(3.0,))
        with pytest.raises(ValueError):
            SizeLaw(kind="fixed", params=(0.0,))
        with pytest.raises(ValueError):
            SizeLaw(kind="two_point", params=(10.0, 50.0, 1.5))

    def test_uniform_int_support_is_bounded(self, monkeypatch):
        def enumerate_support(self):
            raise AssertionError("support enumerated")

        monkeypatch.setattr(SizeLaw, "support", enumerate_support)
        SizeLaw(kind="uniform_int", params=(1, 10**6))
        SizeLaw(kind="uniform_int", params=(5, 10**6 + 4))
        for high in (10**6 + 1, 10**12):
            with pytest.raises(ValueError, match="more than 1000000 sizes"):
                SizeLaw(kind="uniform_int", params=(1, high))
        payload = {**preset("null").to_json_dict(), "sizes": {"kind": "uniform_int", "params": [1, 10**12]}}
        with pytest.raises(DataError, match="more than 1000000 sizes"):
            DgpSpec.from_json_dict(payload)

    def test_covariate_laws(self):
        assert CovariateLaw(kind="uniform", params=(0.0, 1.0)).mean() == pytest.approx(0.5)
        assert CovariateLaw(kind="normal", params=(2.0, 1.5)).mean() == 2.0
        with pytest.raises(ValueError):
            CovariateLaw(kind="beta", params=(1.0, 1.0))
        with pytest.raises(ValueError):
            CovariateLaw(kind="uniform", params=(1.0, 0.0))

    def test_sample_matches_moments(self, rng):
        law = SizeLaw(kind="two_point", params=(10.0, 50.0, 0.5))
        draws = law.sample(rng, 20000)
        assert set(np.unique(draws)) == {10, 50}
        assert draws.mean() == pytest.approx(30.0, abs=1.0)

    def test_sampling_rule_counts(self):
        sizes = np.array([10, 1, 7])
        full = SamplingRule(kind="full")
        assert list(full.counts(sizes)) == [10, 1, 7]
        frac = SamplingRule(kind="fraction", q=0.3)
        assert list(frac.counts(sizes)) == [3, 1, 3]
        with pytest.raises(ValueError):
            SamplingRule(kind="fraction", q=0.0)
        with pytest.raises(ValueError):
            SamplingRule(kind="census")


class TestDgpSpec:
    def test_true_delta_null_preset(self):
        assert preset("null").true_delta == pytest.approx(0.0)

    def test_true_delta_size_heterogeneous(self):
        assert preset("size_heterogeneous").true_delta == pytest.approx(
            2.2333333333333334
        )

    def test_true_delta_matches_monte_carlo(self, rng):
        dgp = preset("stress")
        draws = 400000
        xs = dgp.covariates.sample(rng, draws)
        sizes = dgp.sizes.sample(rng, draws).astype(float)
        m = dgp.outcomes
        w = sizes / sizes.mean()
        diff = np.mean(w * (m.mu1(xs, sizes) - m.mu0(xs, sizes)))
        assert dgp.true_delta == pytest.approx(diff, abs=0.06)

    def test_json_round_trip(self):
        dgp = preset("stress")
        clone = DgpSpec.from_json_dict(json.loads(json.dumps(dgp.to_json_dict())))
        assert clone == dgp

    @pytest.mark.parametrize(
        "spoil,message",
        [
            (lambda p: p["outcomes"].update(gamma=1.0), "unexpected keyword argument 'gamma'"),
            (lambda p: p["outcomes"].update(alpha1=True), "finite number"),
            (lambda p: p["covariates"].update(params=[0.0, 1.0, 2.0]), "exactly two"),
            (lambda p: p["covariates"].update(params=["0", "1"]), "finite number"),
            (lambda p: p["sizes"].update(params=[10, float("inf"), 0.1]), "finite number"),
            (lambda p: p["sizes"].update(kind="poisson"), "unknown size law"),
            (lambda p: p["sampling"].update(q=None), "finite number"),
            (lambda p: p.pop("sampling"), "KeyError: 'sampling'"),
            (lambda p: p.update(sampling=[]), "TypeError"),
            (lambda p: p.update(outcomes=[1.0]), "AttributeError"),
        ],
    )
    def test_malformed_json_is_a_data_error(self, spoil, message):
        payload = preset("stress").to_json_dict()
        spoil(payload)
        with pytest.raises(DataError, match=message):
            DgpSpec.from_json_dict(payload)

    def test_presets_construct(self):
        for name in PRESET_NAMES:
            dgp = preset(name)
            assert dgp.sizes.mean() > 0
        with pytest.raises(ValueError):
            preset("nonexistent")


class TestGenerateTrial:
    def test_deterministic(self):
        dgp = preset("constant_effect")
        a, da, _ = generate_trial(dgp, pair_count=5, match_mode="nn_xn", seed=42)
        b, db, _ = generate_trial(dgp, pair_count=5, match_mode="nn_xn", seed=42)
        assert_same_columns(a, b)
        assert da.permutation == db.permutation

    def test_seed_changes_data(self):
        dgp = preset("constant_effect")
        a, _, _ = generate_trial(dgp, pair_count=5, seed=42)
        b, _, _ = generate_trial(dgp, pair_count=5, seed=43)
        assert not np.array_equal(a.outcomes, b.outcomes)

    def test_structure(self):
        dgp = preset("stress")
        ds, design, true_delta = generate_trial(dgp, pair_count=6, seed=7)
        assert ds.n_clusters == 12
        assert design.pair_count == 6
        assert true_delta == pytest.approx(dgp.true_delta)
        assert list(ds.cluster_ids) == sorted(ds.cluster_ids)
        for a, b in design.pairs():
            assert ds.treatment[a] + ds.treatment[b] == 1
        assert np.array_equal(ds.n_sampled, dgp.sampling.counts(ds.n_total))
        assert np.all(ds.n_sampled <= ds.n_total)

    def test_match_mode_controls_size_matching(self):
        dgp = preset("size_heterogeneous")
        _, on_x, _ = generate_trial(dgp, pair_count=5, match_mode="nn_x", seed=1)
        _, on_xn, _ = generate_trial(dgp, pair_count=5, match_mode="nn_xn", seed=1)
        assert not on_x.matched_on_size
        assert on_xn.matched_on_size

    @pytest.mark.parametrize("preset_name", ["size_heterogeneous", "stress"])
    @pytest.mark.parametrize("mode", MATCH_MODES)
    def test_equals_record_by_record_construction(self, preset_name, mode):
        # stress samples a fraction of each cluster, so chunk boundaries vary
        dgp = preset(preset_name)
        ds, design, _ = generate_trial(dgp, pair_count=40, match_mode=mode, seed=17)
        columns, reference_design = trial_columns_reference(dgp, 40, mode, seed=17)
        assert ds.cluster_ids == columns["cluster_ids"]
        for name in COLUMNS:
            got, want = getattr(ds, name), columns[name]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert design.permutation == reference_design.permutation

    @pytest.mark.parametrize(
        "sizes,sampling,units",
        [
            (SizeLaw("fixed", (10**12,)), SamplingRule("full"), "8000000000000"),
            # 10^18 per cluster would wrap an int64 sum of the counts
            (SizeLaw("fixed", (10**18,)), SamplingRule("fraction", 0.5), "4000000000000000000"),
        ],
    )
    def test_too_many_sampled_units_rejected(self, sizes, sampling, units):
        dgp = DgpSpec(
            covariates=CovariateLaw("uniform", (0.0, 1.0)),
            sizes=sizes,
            sampling=sampling,
            outcomes=LinearOutcomeModel(alpha0=0.0, alpha1=0.0),
        )
        with pytest.raises(DataError, match=f"samples {units} units"):
            generate_trial(dgp, pair_count=4, seed=0)

    def test_bad_match_mode(self):
        with pytest.raises(ValueError):
            generate_trial(preset("null"), pair_count=4, match_mode="optimal", seed=0)
        clusters, _, _ = generate_trial(preset("null"), pair_count=4, seed=0)
        with pytest.raises(ValueError):
            match_clusters(clusters, "optimal")


class TestOracleVariance:
    # the stress preset mixes in rare size-200 clusters whose squared
    # weights dominate the draw, so its Monte Carlo noise at 1e6 draws is
    # an order of magnitude larger than the bounded-size presets'
    @pytest.mark.parametrize("name,rel", [("null", 5e-3), ("size_heterogeneous", 5e-3), ("stress", 2.5e-2)])
    @pytest.mark.parametrize("match_on", ["x_only", "x_and_n"])
    def test_against_closed_form(self, name, match_on, rel):
        dgp = preset(name)
        mc = oracle_variance(dgp, match_on=match_on, draws=10**6, seed=0)
        exact = closed_form_variance(dgp, match_on)
        assert mc == pytest.approx(exact, rel=rel)

    def test_matching_on_size_never_hurts(self):
        for name in PRESET_NAMES:
            dgp = preset(name)
            x_only = oracle_variance(dgp, match_on="x_only", draws=200000, seed=3)
            x_and_n = oracle_variance(dgp, match_on="x_and_n", draws=200000, seed=3)
            assert x_and_n <= x_only + 1e-9

    def test_zero_when_outcomes_are_deterministic(self):
        dgp = DgpSpec(
            covariates=CovariateLaw(kind="uniform", params=(0.0, 1.0)),
            sizes=SizeLaw(kind="fixed", params=(4.0,)),
            sampling=SamplingRule(kind="full"),
            outcomes=LinearOutcomeModel(
                alpha0=1.0, alpha1=2.0, sigma_cluster=0.0, sigma_unit=0.0
            ),
        )
        assert oracle_variance(dgp, match_on="x_only", draws=1000, seed=0) == 0.0

    def test_unit_sizes_make_weights_trivial(self):
        dgp = DgpSpec(
            covariates=CovariateLaw(kind="uniform", params=(0.0, 1.0)),
            sizes=SizeLaw(kind="fixed", params=(1.0,)),
            sampling=SamplingRule(kind="full"),
            outcomes=LinearOutcomeModel(
                alpha0=0.0,
                alpha1=0.0,
                beta0=1.0,
                beta1=1.0,
                sigma_cluster=1.0,
                sigma_unit=0.5,
            ),
        )
        # with every size equal, matching on size adds nothing and the
        # variance reduces to the residual noise once X is matched away
        x_only = oracle_variance(dgp, match_on="x_only", draws=200000, seed=5)
        x_and_n = oracle_variance(dgp, match_on="x_and_n", draws=200000, seed=5)
        expected = 2 * (1.0 + 0.25)
        assert x_only == pytest.approx(expected, rel=0.02)
        assert x_and_n == pytest.approx(expected, rel=0.02)

    def test_bad_match_on(self):
        with pytest.raises(ValueError):
            oracle_variance(preset("null"), match_on="none", draws=100, seed=0)


class TestMonteCarlo:
    def small_config(self, **overrides):
        base = dict(
            dgp=preset("null"),
            pair_count=8,
            replications=40,
            match_mode="nn_xn",
            alpha=0.05,
            null_delta=0.0,
            seed=11,
        )
        base.update(overrides)
        return SimConfig(**base)

    def test_deterministic(self):
        a = monte_carlo(self.small_config())
        b = monte_carlo(self.small_config())
        assert a == b

    def test_report_fields(self):
        report = monte_carlo(self.small_config())
        assert report.replications == 40
        assert report.true_delta == pytest.approx(0.0)
        assert abs(report.bias) < 1.0
        assert report.mean_v2 > 0
        assert 0.0 <= report.coverage <= 1.0
        assert report.rejection_rate_rand is None
        assert report.oracle_variance is None
        payload = report.to_json_dict()
        assert payload["match_mode"] == "nn_xn"
        assert payload["rejection_rate_rand"] is None

    def test_power_exceeds_level(self):
        # the constant-effect DGP shifts the treated intercept by one;
        # with 20 pairs that is roughly a 2.6 sigma effect, so the test
        # should reject far more often than under the identical-arms null
        null_rep = monte_carlo(self.small_config(pair_count=20, replications=100))
        alt = SimConfig(
            dgp=preset("constant_effect"),
            pair_count=20,
            replications=100,
            match_mode="nn_xn",
            alpha=0.05,
            null_delta=0.0,
            seed=11,
        )
        alt_rep = monte_carlo(alt)
        assert alt_rep.rejection_rate_z > null_rep.rejection_rate_z + 0.3

    def test_randomization_rates_wired(self):
        report = monte_carlo(
            self.small_config(replications=30, rand_mode="exact")
        )
        assert report.rejection_rate_rand is not None
        assert 0.0 <= report.rejection_rate_rand <= 1.0

    def test_oracle_draws_wired(self):
        report = monte_carlo(self.small_config(replications=10, oracle_draws=20000))
        assert report.oracle_variance == pytest.approx(
            closed_form_variance(preset("null"), "x_and_n"), rel=0.1
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self.small_config(pair_count=1)
        with pytest.raises(ValueError):
            self.small_config(replications=0)
        with pytest.raises(ValueError):
            self.small_config(match_mode="hungarian")
        with pytest.raises(ValueError):
            self.small_config(alpha=1.5)
        with pytest.raises(ValueError):
            self.small_config(rand_mode="permute")
        with pytest.raises(ValueError):
            self.small_config(rand_mode="stochastic", rand_draws=None)


class TestMatchingQuality:
    def test_pair_gaps_shrink_with_more_clusters(self):
        # matched covariate discrepancies should fall as the pool grows
        dgp = preset("null")
        gaps = {}
        for pairs in (25, 250):
            vals = []
            for seed in range(10):
                ds, design, _ = generate_trial(dgp, pair_count=pairs, seed=seed)
                rep = imbalance_report(design, ds)
                vals.append(rep.pair_discrepancies[(1, 0)])
            gaps[pairs] = float(np.mean(vals))
        assert gaps[250] < gaps[25]
