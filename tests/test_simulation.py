import dataclasses
import json
import math
import operator
import re

import numpy as np
import pytest

from helpers import (
    COLUMNS,
    OVERFLOWING_ORACLE_JSON,
    OVERFLOWING_OUTCOMES,
    assert_same_columns,
    monte_carlo_oracle,
    strict_json,
    trial_columns_reference,
    trial_draw,
    trial_units,
)
from pairedcrt import simulation
from pairedcrt.core import _Workspace, build_dataset
from pairedcrt.errors import DataError
from pairedcrt.inference import infer
from pairedcrt.matching import imbalance_report
from pairedcrt.randtest import randomization_test
from pairedcrt.simulation import (
    CovariateLaw,
    DgpSpec,
    LinearOutcomeModel,
    SamplingRule,
    SimConfig,
    SimReport,
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

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("fixed", (7.9,)),
            ("two_point", (10.7, 50.2, 0.5)),
            ("two_point", (10, 50.2, 0.5)),
            ("uniform_int", (1.5, 3.9)),
            ("uniform_int", (1, 3.9)),
            ("fixed", (1e300,)),
            ("two_point", (1, 2**62 + 1, 0.5)),
            ("uniform_int", (2**63, 2**63)),
        ],
    )
    def test_fractional_or_huge_sizes_are_rejected(self, kind, params):
        with pytest.raises(ValueError, match=r"sizes must be integers up to 2\*\*62"):
            SizeLaw(kind=kind, params=params)
        payload = {**preset("null").to_json_dict(), "sizes": {"kind": kind, "params": list(params)}}
        with pytest.raises(DataError, match=r"sizes must be integers up to 2\*\*62"):
            DgpSpec.from_json_dict(payload)

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
        assert CovariateLaw(kind="uniform", params=(1.0, 4.0)).variance() == 0.75
        assert CovariateLaw(kind="normal", params=(2.0, 1.5)).variance() == 2.25
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
        # the dict is JSON already: its parameters are lists, as JSON reads them
        assert DgpSpec.from_json_dict(dgp.to_json_dict()) == dgp

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
            (lambda p: p["sizes"].update(params=10), "expected a list of numbers"),
            (lambda p: p["covariates"].update(params=[0.0, 0.0]), "normal law needs sd > 0"),
            (lambda p: p["sizes"].update(kind="uniform_int", params=[5, 3]), "1 <= low <= high"),
            (lambda p: p["sizes"].update(params=[5, 5, 0.5]), "1 <= small < large"),
            (lambda p: p["outcomes"].update(sigma_cluster=-1.0), "must be nonnegative"),
            (lambda p: p["outcomes"].update(sigma_unit=-0.5), "must be nonnegative"),
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
    @pytest.mark.parametrize(
        "count, first", [(2, "c000001"), (12, "c000001"), (10**6 + 2, "c0000001")]
    )
    def test_cluster_ids_sort_as_numbered(self, count, first):
        # a trial's columns are in draw order, which is the dataset's
        # cluster_id order only if the ids sort as they are numbered;
        # c1000000 < c100001 would break that at a million clusters
        try:
            ids = simulation._cluster_ids(count)
            assert all(map(operator.lt, ids, ids[1:]))
            assert [int(i[1:]) for i in ids] == list(range(1, count + 1))
            assert ids[0] == first
        finally:
            simulation._cluster_ids.cache_clear()

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
        assert not np.array_equal(a.ybar, b.ybar)

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

    @pytest.mark.parametrize("pair_count", [4.0, 4.5, 1, 0, "4"])
    def test_pair_count_is_an_integer_of_at_least_two(self, pair_count):
        with pytest.raises(ValueError, match="pair_count must be"):
            generate_trial(preset("null"), pair_count)

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
        units, _ = trial_units(dgp, 40, mode, seed=17)
        for name in ("outcomes", "offsets"):
            got, want = getattr(units, name), columns[name]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize(
        "sigma_cluster,sigma_unit", [(1.0, 0.0), (0.0, 0.0), (0.0, 0.37), (2.5, 1e3)]
    )
    def test_unit_noise_has_the_bits_of_numpy_normal(self, sigma_cluster, sigma_unit):
        # the unit noise is drawn standard normal and scaled in place; the
        # reference draws it with rng.normal(0.0, sigma_unit). Signed-zero
        # means (x is normal, so beta * x is -0.0 for x < 0) and zero noise
        # scales check the sign of every zero outcome too.
        zero = dict(alpha0=-0.0, alpha1=-0.0, theta0=-0.0, theta1=-0.0)
        outcomes = LinearOutcomeModel(**zero, sigma_cluster=sigma_cluster, sigma_unit=sigma_unit)
        dgp = dataclasses.replace(preset("stress"), outcomes=outcomes)
        ds, _, _ = generate_trial(dgp, pair_count=30, match_mode="nn_x", seed=8)
        columns, _ = trial_columns_reference(dgp, 30, "nn_x", seed=8)
        for name in COLUMNS:
            assert getattr(ds, name).tobytes() == columns[name].tobytes(), name

    @pytest.mark.parametrize("outcomes", OVERFLOWING_OUTCOMES.values(), ids=OVERFLOWING_OUTCOMES)
    def test_overflowing_means_are_data_errors(self, outcomes):
        # the suite turns a RuntimeWarning into an error, so a warning from
        # the means or outcomes would fail here before the DataError
        dgp = dataclasses.replace(
            preset("size_heterogeneous"), outcomes=LinearOutcomeModel(**outcomes)
        )
        # the finite twin has the same clusters, design and treatment
        twin, _, _ = generate_trial(preset("size_heterogeneous"), 20, "nn_x", seed=3)
        *_, unit_outcomes = trial_draw(dgp, 20, seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            units = unit_outcomes(twin.treatment)
        bad = [
            (cid, next(v for v in values if not math.isfinite(v)))
            for cid, values in zip(twin.cluster_ids, units)
            if not all(map(math.isfinite, values))
        ]
        assert 0 < len(bad) < twin.n_clusters
        cid, value = bad[0]  # the first in id order
        with pytest.raises(DataError, match=f"^{re.escape(f'cluster {cid!r}: outcome {value!r}')}$"):
            generate_trial(dgp, 20, "nn_x", seed=3)

    @pytest.mark.parametrize("preset_name", ["size_heterogeneous", "stress"])
    def test_trial_units_sum_to_the_trial_means(self, preset_name):
        dgp = preset(preset_name)
        ds, _, _ = generate_trial(dgp, pair_count=40, seed=5)
        units, _ = trial_units(dgp, 40, "nn_xn", seed=5)
        rebuilt = build_dataset(
            ds.cluster_ids, ds.n_total, ds.X, ds.treatment, units.outcomes, units.offsets
        )
        assert rebuilt.ybar.tobytes() == ds.ybar.tobytes()
        assert rebuilt.n_sampled.tobytes() == ds.n_sampled.tobytes()

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
    # the reference averages 10^6 draws of (X, N); the stress preset mixes in
    # rare size-200 clusters whose squared weights dominate the draw, so its
    # Monte Carlo noise is an order of magnitude larger than the
    # bounded-size presets'
    @pytest.mark.parametrize("name,rel", [("null", 5e-3), ("size_heterogeneous", 5e-3), ("stress", 2.5e-2)])
    # ids name the limit each mode targets: x only, or x and cluster size
    @pytest.mark.parametrize("match_mode", ["nn_x", "nn_xn"], ids=["x_only", "x_and_n"])
    def test_against_closed_form(self, name, match_mode, rel):
        dgp = preset(name)
        exact = oracle_variance(dgp, match_mode)
        assert exact == pytest.approx(monte_carlo_oracle(dgp, match_mode, 10**6, seed=0), rel=rel)

    @pytest.mark.parametrize("match_mode", ["nn_x", "nn_xn"], ids=["x_only", "x_and_n"])
    def test_other_laws_against_monte_carlo(self, match_mode):
        # a uniform_int size law with a normal covariate, and fraction
        # sampling with a negative slope, beside the presets' laws
        outcomes = LinearOutcomeModel(
            alpha0=0.5, alpha1=1.0, beta0=1.5, beta1=-0.5, theta0=0.02, theta1=0.06,
            sigma_cluster=0.7, sigma_unit=1.3,
        )  # fmt: skip
        dgps = (
            DgpSpec(
                covariates=CovariateLaw(kind="normal", params=(1.0, 2.0)),
                sizes=SizeLaw(kind="uniform_int", params=(3, 40)),
                sampling=SamplingRule(kind="full"),
                outcomes=preset("size_heterogeneous").outcomes,
            ),
            DgpSpec(
                covariates=CovariateLaw(kind="uniform", params=(-1.0, 3.0)),
                sizes=SizeLaw(kind="two_point", params=(7, 90, 0.3)),
                sampling=SamplingRule(kind="fraction", q=0.35),
                outcomes=outcomes,
            ),
        )
        for dgp in dgps:
            reference = monte_carlo_oracle(dgp, match_mode, 10**6, seed=1)
            assert oracle_variance(dgp, match_mode) == pytest.approx(reference, rel=1e-2)

    def test_draws_nothing(self, monkeypatch):
        def draw(self, rng, size):
            raise AssertionError("oracle_variance drew a sample")

        monkeypatch.setattr(CovariateLaw, "sample", draw)
        monkeypatch.setattr(SizeLaw, "sample", draw)
        for mode in MATCH_MODES:
            assert oracle_variance(preset("stress"), mode) > 0.0

    def test_matching_on_size_never_hurts(self):
        for name in PRESET_NAMES:
            dgp = preset(name)
            x_only = oracle_variance(dgp, match_mode="nn_x")
            x_and_n = oracle_variance(dgp, match_mode="nn_xn")
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
        assert oracle_variance(dgp, match_mode="nn_x") == 0.0

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
        x_only = oracle_variance(dgp, match_mode="nn_x")
        x_and_n = oracle_variance(dgp, match_mode="nn_xn")
        expected = 2 * (1.0 + 0.25)
        assert x_only == pytest.approx(expected, rel=1e-12)
        assert x_and_n == pytest.approx(expected, rel=1e-12)

    def test_bad_match_mode(self):
        for mode in ("none", "x_only", "x_and_n"):
            with pytest.raises(ValueError, match="unknown match mode"):
                oracle_variance(preset("null"), match_mode=mode)

    def test_sorted_x_targets_the_x_only_limit(self):
        dgp = preset("size_heterogeneous")
        assert oracle_variance(dgp, "sorted_x") == oracle_variance(dgp, "nn_x")

    @pytest.mark.parametrize("match_mode", MATCH_MODES)
    def test_beyond_float_range_is_not_finite(self, match_mode):
        dgp = DgpSpec.from_json_dict(OVERFLOWING_ORACLE_JSON)
        assert math.isnan(oracle_variance(dgp, match_mode))


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
        assert report.oracle_variance == oracle_variance(preset("null"), "nn_xn")
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

    def test_replication_i_runs_on_spawned_child_i(self):
        config = self.small_config(replications=4)
        dhats = []
        for child in np.random.SeedSequence(config.seed).spawn(4):
            trial_seed = int(child.generate_state(2, np.uint64)[0])
            ds, design, _ = generate_trial(config.dgp, config.pair_count, config.match_mode, trial_seed)
            dhats.append(infer(ds, design).delta_hat)
        assert monte_carlo(config).mean_delta_hat == np.mean(dhats)

    @pytest.mark.parametrize("rand_mode", [None, "exact"])
    def test_study_equals_a_loop_over_the_public_functions(self, monkeypatch, rand_mode):
        # stress: the unit count changes from one replication to the next,
        # so a trial drawn into a larger one's buffers must not read its tail
        config = self.small_config(
            dgp=preset("stress"), pair_count=10, replications=5, seed=21, rand_mode=rand_mode
        )
        seen, buffers = [], []

        def recording_infer(dataset, design, **kwargs):
            seen.append((dataset, design))
            return infer(dataset, design, **kwargs)

        class RecordingWorkspace(_Workspace):
            def floats(self, name, size):
                buffers.append(super().floats(name, size))
                return buffers[-1]

        with monkeypatch.context() as patch:
            patch.setattr(simulation, "infer", recording_infer)
            patch.setattr(simulation, "_Workspace", RecordingWorkspace)
            report = monte_carlo(config)

        assert len({int(d.n_sampled.sum()) for d, _ in seen}) > 1
        results = []
        children = np.random.SeedSequence(config.seed).spawn(config.replications)
        for child, (drawn, drawn_design) in zip(children, seen, strict=True):
            trial_seed, rand_seed = (int(v) for v in child.generate_state(2, np.uint64))
            ds, design, _ = generate_trial(config.dgp, config.pair_count, config.match_mode, trial_seed)
            # the study's trial, after every later draw, is the public one
            assert_same_columns(drawn, ds)
            assert drawn_design == design
            res = infer(ds, design, alpha=config.alpha, delta0=config.null_delta)
            rt = None
            if rand_mode is not None:
                rt = randomization_test(
                    ds, design, alpha=config.alpha, delta0=config.null_delta,
                    mode=rand_mode, seed=rand_seed,
                )  # fmt: skip
            results.append((res, rt))

        dhats = np.array([res.delta_hat for res, _ in results])
        v2s = np.array([res.v2 for res, _ in results])
        delta = config.dgp.true_delta
        want = SimReport(
            pair_count=config.pair_count,
            replications=config.replications,
            match_mode=config.match_mode,
            alpha=config.alpha,
            null_delta=config.null_delta,
            seed=config.seed,
            true_delta=delta,
            mean_delta_hat=float(dhats.mean()),
            bias=float(dhats.mean() - delta),
            empirical_sd=float((math.sqrt(config.pair_count) * dhats).std(ddof=1)),
            mean_v2=float(v2s.mean()),
            median_v2=float(np.median(v2s)),
            coverage=float(np.mean([res.ci_low <= delta <= res.ci_high for res, _ in results])),
            rejection_rate_z=float(np.mean([res.p_value <= config.alpha for res, _ in results])),
            rejection_rate_rand=None if rand_mode is None else float(
                np.mean([rt.reject for _, rt in results])
            ),
            clamped_rate=float(np.mean([res.clamped for res, _ in results])),
            oracle_variance=oracle_variance(config.dgp, config.match_mode),
        )
        # field for field, bit for bit: JSON floats print every bit
        assert json.dumps(report.to_json_dict()) == json.dumps(want.to_json_dict())

        # no trial's columns share memory with another's or with the buffers
        columns = [[getattr(d, name) for name in COLUMNS] for d, _ in seen]
        assert buffers
        for i, mine in enumerate(columns):
            for array in mine:
                assert not any(np.shares_memory(array, buf) for buf in buffers)
                for theirs in columns[i + 1 :]:
                    assert not any(np.shares_memory(array, other) for other in theirs)

    def test_oracle_variance_in_every_report(self):
        dgp = preset("size_heterogeneous")
        for mode in MATCH_MODES:
            for rand_mode in (None, "exact"):
                config = self.small_config(dgp=dgp, replications=3, match_mode=mode, rand_mode=rand_mode)
                report = monte_carlo(config)
                assert report.oracle_variance == oracle_variance(dgp, mode)
                assert report.to_json_dict()["oracle_variance"] == report.oracle_variance

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
        for rand_mode in (None, "exact"):
            with pytest.raises(ValueError, match="rand_draws applies only"):
                self.small_config(rand_mode=rand_mode, rand_draws=100)
        with pytest.raises(ValueError, match="rand_draws must be at least 19, got 18"):
            self.small_config(rand_mode="stochastic", rand_draws=18)
        # the rules of generate_trial, randomization_test and infer, at construction
        with pytest.raises(ValueError, match="pair_count must be an integer"):
            self.small_config(pair_count=4.5)
        with pytest.raises(ValueError, match="replications must be an integer"):
            self.small_config(replications=2.5)
        with pytest.raises(ValueError, match="rand_draws must be an integer"):
            self.small_config(rand_mode="stochastic", rand_draws=19.5)
        for null_delta in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="null_delta must be a finite number"):
                self.small_config(null_delta=null_delta)
        # the seed rule of assignments and randomization tests
        for seed in (7.9, -1, 2**64):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                self.small_config(seed=seed)
        assert self.small_config(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
        # a bool is no count, seed or number, and a non-number no level
        with pytest.raises(ValueError, match="replications must be an integer of at least 1"):
            self.small_config(replications=True)
        with pytest.raises(ValueError, match="pair_count must be an integer of at least 2"):
            self.small_config(pair_count=True)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            self.small_config(seed=True)
        with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
            self.small_config(alpha="0.05")
        with pytest.raises(ValueError, match="null_delta must be a finite number"):
            self.small_config(null_delta="0")
        with pytest.raises(ValueError, match="null_delta must be a finite number"):
            self.small_config(null_delta=False)

    @pytest.mark.parametrize("dgp", ["null", None, {"name": "null"}])
    def test_config_needs_a_dgp_spec(self, dgp):
        with pytest.raises(ValueError, match="dgp must be a DgpSpec"):
            self.small_config(dgp=dgp)

    def test_numpy_integer_settings_give_the_same_json_report(self):
        plain = monte_carlo(self.small_config(pair_count=4, replications=2, seed=5))
        numpy_ints = monte_carlo(
            self.small_config(pair_count=np.int64(4), replications=np.int64(2), seed=np.uint64(5))
        )
        assert numpy_ints == plain
        text = json.dumps(numpy_ints.to_json_dict())
        assert strict_json(text) == plain.to_json_dict()
        assert text == json.dumps(plain.to_json_dict())

    def test_one_replication_has_no_empirical_sd(self):
        report = monte_carlo(self.small_config(replications=1))
        assert math.isnan(report.empirical_sd)
        assert report.to_json_dict()["empirical_sd"] is None


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
