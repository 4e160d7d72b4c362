import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    adjusted_outcomes,
    identity_design,
    make_dataset,
    pair_statistics_reference,
    random_dataset,
    statistic_batch,
    swap_treatments,
    trial_units,
    unit_level_reference,
    with_outcomes,
)
from pairedcrt.errors import DataError
from pairedcrt.estimation import kernel_inputs
from pairedcrt.inference import (
    _MAX_SCALE,
    V2_ROUNDING,
    SignSums,
    first_member_treated,
    infer,
    outcome_scale,
)
from pairedcrt import matching
from pairedcrt.matching import MATCH_MODES, MatchedDesign, _ordered_design, imbalance_report
from pairedcrt.randtest import _COMPARE_TOL, randomization_test
from pairedcrt.simulation import PRESET_NAMES, SimConfig, generate_trial, monte_carlo, preset


class TestAdjustedOutcomes:
    def test_hand_example(self):
        ds = make_dataset(
            sizes=[2, 4, 2, 4], ybars=[1.0, 2.0, 3.0, 4.0], treatments=[1, 0, 1, 0]
        )
        adj = adjusted_outcomes(ds)
        assert adj.nbar == pytest.approx(3.0)
        assert adj.arm_weighted_means == pytest.approx((2.0, 3.0))
        assert adj.yhat == pytest.approx([-2.0 / 3.0, -4.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0])

    def test_sums_to_zero_within_arms(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, pairs=int(rng.integers(2, 8)))
            adj = adjusted_outcomes(ds)
            d = ds.treatment
            assert abs(adj.yhat[d == 1].sum()) < 1e-10
            assert abs(adj.yhat[d == 0].sum()) < 1e-10

    def test_requires_treatments(self):
        ds = make_dataset(sizes=[1, 1, 1, 1], ybars=[1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DataError, match="^estimation requires a treatment for every cluster$"):
            adjusted_outcomes(ds)


def unit_dataset(ys, ts):
    return make_dataset(sizes=[1] * len(ys), ybars=ys, treatments=ts)


class TestVarianceEstimate:
    """Hand values of the variance kernel on valid unit-sized datasets."""

    def test_hand_example(self):
        # treated (3, 1, 0, 0), control (0, 0, 1, 3): both arm means are 1,
        # so the signed differences are (3, 1, -1, -3)
        ds = unit_dataset([3.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 3.0], [1, 0] * 4)
        n, ybar, d = kernel_inputs(ds)
        sums = SignSums.build(n, ybar, tuple(range(8)), d[0::2] == 1, outcome_scale(n, ybar))
        delta, tau2, lambda2 = (float(v[0]) for v in sums.statistics(np.ones((1, 4))))
        assert delta == 0.0
        assert tau2 == pytest.approx(5.0)
        assert lambda2 == pytest.approx(0.5 * (3.0 * 1.0 + (-1.0) * (-3.0)))
        res = infer(ds, identity_design(4))
        assert res.delta_hat == 0.0
        assert (res.tau2, res.lambda2) == (tau2, lambda2)
        assert res.v2 == pytest.approx(3.5)
        assert not res.clamped

    def test_signed_differences_follow_treatment(self):
        # swapping the treatment in the first pair: treated (0, 1, 0, 0),
        # control (3, 0, 1, 3), arm means 0.25 and 1.75, signed differences
        # (-1.5, 2.5, 0.5, -1.5)
        ys = [3.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 3.0]
        ds = unit_dataset(ys, [0, 1] + [1, 0] * 3)
        res = infer(ds, identity_design(4))
        assert res.tau2 == pytest.approx(2.75)
        assert res.lambda2 == pytest.approx(0.5 * (-1.5 * 2.5 + 0.5 * -1.5))
        # listing the first pair's members the other way round keeps the
        # sign, which follows treatment and not member order
        relisted = _ordered_design((1, 0, 2, 3, 4, 5, 6, 7), "nn_x")
        assert infer(ds, relisted).lambda2 == pytest.approx(res.lambda2)

    def test_odd_pair_count_drops_trailing_pair(self):
        # treated (2, 0, 1), control (0, 1, 2): signed differences (2, -1, -1);
        # only the first two pairs form a pair of pairs
        ds = unit_dataset([2.0, 0.0, 0.0, 1.0, 1.0, 2.0], [1, 0] * 3)
        res = infer(ds, identity_design(3))
        assert res.tau2 == pytest.approx(2.0)
        assert res.lambda2 == pytest.approx((2.0 / 3.0) * (2.0 * -1.0))
        assert res.v2 == pytest.approx(res.tau2 - res.lambda2 / 2.0)

    def test_clamped_when_degenerate(self):
        # constant outcomes, then outcomes constant within arms: the floor
        # follows the outcomes as observed, effect included
        for ys in ([2.0, 2.0, 2.0, 2.0], [3.0, 1.0, 3.0, 1.0]):
            ds = unit_dataset(ys, [1, 0, 1, 0])
            res = infer(ds, identity_design(2))
            assert res.tau2 == 0.0 and res.lambda2 == 0.0
            assert res.clamped
            n, ybar, _ = kernel_inputs(ds)
            assert res.v2 == V2_ROUNDING * outcome_scale(n, ybar) ** 2


@st.composite
def kernel_cases(draw):
    """Valid kernel inputs: pair order, sizes, outcomes and a batch of swaps."""
    g = draw(st.integers(2, 13))

    def per_cluster(values):
        return draw(st.lists(values, min_size=2 * g, max_size=2 * g))

    sizes = [1] * (2 * g) if draw(st.booleans()) else per_cluster(st.integers(1, 60))
    # outcomes on a 1/8 grid keep the data well scaled
    ys = per_cluster(st.integers(-800, 800))
    perm = draw(st.permutations(range(2 * g)))
    first_treated = draw(st.lists(st.booleans(), min_size=g, max_size=g))
    pattern = st.lists(st.integers(0, 1), min_size=g, max_size=g)
    bits = draw(st.lists(pattern, min_size=1, max_size=8))
    delta0 = draw(st.floats(-10.0, 10.0))
    d = np.zeros(2 * g, dtype=np.int64)
    for j, treated_first in enumerate(first_treated):
        d[perm[2 * j] if treated_first else perm[2 * j + 1]] = 1
    dmat = swap_treatments(d, np.array(bits, dtype=np.int64), perm, g)
    n = np.array(sizes, dtype=float)
    return n, np.array(ys, dtype=float) / 8.0, dmat, tuple(perm), g, delta0


def kernel_case_designs(case):
    """Each treatment row of a ``kernel_cases`` draw as a dataset, with the
    drawn design."""
    n, ybar, dmat, perm, g, _ = case
    design = _ordered_design(perm, "nn_x")  # the kernel in the drawn pair order
    for d in dmat:
        yield make_dataset(sizes=n.astype(np.int64), ybars=ybar, treatments=d), design


class TestPairStatistics:
    @settings(max_examples=300, deadline=None)
    @given(case=kernel_cases())
    def test_agrees_with_per_cluster_reference(self, case):
        n, ybar, dmat, perm, g, delta0 = case
        ref_delta, ref_tau2, ref_lambda2 = pair_statistics_reference(n, ybar, dmat, perm, g)
        # the kernel sums expanded squares, so it rounds in proportion to the
        # largest term, not to tau2
        w, centred = n / n.mean(), ybar - np.dot(n, ybar) / n.sum()
        term = (w.max() * (2.0 * np.abs(centred).max() + np.abs(ref_delta))) ** 2
        scale = 1e-12 * (ref_tau2 + np.abs(ref_lambda2)) + 1e-14 * term
        for b, (ds, design) in enumerate(kernel_case_designs(case)):
            res = infer(ds, design)
            assert abs(res.tau2 - ref_tau2[b]) <= scale[b]
            assert abs(res.lambda2 - ref_lambda2[b]) <= scale[b]
            assert abs(res.delta_hat - ref_delta[b]) <= 1e-12 * np.abs(ybar).max()
            # the kernel never sees delta0, so v2 ignores it bit for bit
            other = infer(ds, design, delta0=delta0)
            assert (other.tau2, other.lambda2, other.v2, other.clamped) == (
                res.tau2, res.lambda2, res.v2, res.clamped
            )

        # swapping every pair at once keeps the studentized statistic
        t = statistic_batch(n, ybar, dmat, perm, g)
        t_complement = statistic_batch(n, ybar, 1 - dmat, perm, g)
        np.testing.assert_allclose(t, t_complement, rtol=0.0, atol=_COMPARE_TOL)

    @settings(max_examples=300, deadline=None)
    @given(case=kernel_cases())
    # T = 148 at G = 2: the test's sums lose four digits to the effect
    @example(
        case=(
            np.array([5.0, 4.0, 8.0, 3.0]),
            np.array([0.0, 0.0, 42.75, -61.875]),
            np.array([[0, 1, 1, 0]]),
            (0, 2, 1, 3),
            2,
            0.0,
        )
    )
    def test_randomization_statistic_is_abs_z(self, case):
        delta0 = case[-1]
        for ds, design in kernel_case_designs(case):
            res = infer(ds, design, delta0=delta0)
            rt = randomization_test(ds, design, delta0=delta0, mode="stochastic", draws=19, seed=0)
            # a clamped v2 gives T = 0 or inf, so the two also clamp together
            if res.clamped:
                assert rt.t_observed in (0.0, np.inf)
                continue
            # The test's kernel runs on the outcomes less delta0, not less
            # the estimated effect, so its sums round in proportion to
            # their largest term (as in TestSignSums), which grows with
            # (delta_hat - delta0)^2 while v2 does not.
            n, ybar, d = kernel_inputs(ds)
            shifted = ybar - d * delta0
            centred = np.abs(shifted - np.dot(n, shifted) / n.sum()).max()
            effect = abs(res.delta_hat - delta0)
            term = ((n / n.mean()).max() * (2.0 * centred + effect)) ** 2
            rel = 1e-12 + 1e-14 * term / res.v2
            assert rt.t_observed == pytest.approx(abs(res.z), rel=rel)

    def test_single_vector_gives_scalars(self, rng):
        res = infer(random_dataset(rng, pairs=3), identity_design(3))
        for value in (res.tau2, res.lambda2, res.v2, res.z):
            assert type(value) is float
        assert type(res.clamped) is bool

    def test_design_must_cover_the_data(self, rng):
        n, _, d = kernel_inputs(random_dataset(rng, pairs=4))
        with pytest.raises(DataError, match="covers 4 clusters but the data has 8"):
            first_member_treated(n, d, (0, 1, 2, 3))

    def test_each_pair_needs_one_treated_member(self):
        ds = unit_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 0])
        with pytest.raises(DataError, match="one treated and one control"):
            infer(ds, identity_design(2))


class TestArguments:
    """``infer`` and the randomization test check the level and the
    hypothesized effect as the command line does."""

    @pytest.mark.parametrize("test", [infer, randomization_test])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan])
    def test_alpha_outside_the_unit_interval(self, test, alpha):
        ds, design, _ = generate_trial(preset("null"), 10, "nn_x", 3)
        with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
            test(ds, design, alpha=alpha)

    @pytest.mark.parametrize("test", [infer, randomization_test])
    @pytest.mark.parametrize("delta0", [math.nan, math.inf, -math.inf])
    def test_delta0_not_finite(self, test, delta0):
        ds, design, _ = generate_trial(preset("null"), 10, "nn_x", 3)
        with pytest.raises(ValueError, match="delta0 must be a finite number"):
            test(ds, design, delta0=delta0)

    @pytest.mark.parametrize("test", [infer, randomization_test])
    @pytest.mark.parametrize("value", ["0.05", None, True, np.True_, [0.05], 1j])
    def test_not_a_real_number(self, test, value):
        # a ValueError, as for any other argument mistake, and not a TypeError
        ds, design, _ = generate_trial(preset("null"), 10, "nn_x", 3)
        with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
            test(ds, design, alpha=value)
        with pytest.raises(ValueError, match="delta0 must be a finite number"):
            test(ds, design, delta0=value)

    def test_numpy_and_fraction_numbers_are_real(self):
        ds, design, _ = generate_trial(preset("null"), 10, "nn_x", 3)
        plain = infer(ds, design, alpha=0.05, delta0=0.5)
        assert infer(ds, design, alpha=np.float32(0.05), delta0=np.int64(0)).delta_hat == (
            plain.delta_hat
        )
        assert infer(ds, design, alpha=Fraction(1, 20), delta0=Fraction(1, 2)).p_value == (
            plain.p_value
        )


class TestInfer:
    def test_unit_level_fixture(self):
        ds = unit_dataset([3.0, 1.0, 1.0, 1.0], [1, 0, 1, 0])
        res = infer(ds, identity_design(2))
        assert res.delta_hat == pytest.approx(1.0)
        assert res.tau2 == pytest.approx(1.0)
        assert res.lambda2 == pytest.approx(-1.0)
        assert res.v2 == pytest.approx(1.5)
        assert res.se == pytest.approx(math.sqrt(0.75))
        assert res.z == pytest.approx(1.1547005383792517)
        assert res.p_value == pytest.approx(0.2482130789899236, abs=1e-12)
        assert res.ci_low == pytest.approx(-0.6973786011142571)
        assert res.ci_high == pytest.approx(2.697378601114257)
        assert not res.clamped

    # two-sided normal tail P(|Z| > z), to 20 digits
    @pytest.mark.parametrize(
        "target, tail",
        [
            (3.52, 4.3154679858943505469e-4),
            (8.0, 1.2441921148543568247e-15),
            (9.0, 2.2571768119076812955e-19),
            (12.0, 3.5529642241553579954e-33),
        ],
    )
    def test_p_value_keeps_relative_precision_in_the_tail(self, rng, target, tail):
        # 1 - erf(|z| / sqrt 2) keeps only absolute precision: it reads 0.0
        # from |z| of about 8.5 on and is 1.8% low at |z| = 8
        ds = random_dataset(rng, pairs=6)
        base = infer(ds, identity_design(6))
        for sign in (1.0, -1.0):
            delta0 = base.delta_hat - sign * target * base.se
            res = infer(ds, identity_design(6), delta0=delta0)
            assert res.z == pytest.approx(sign * target, rel=1e-12)
            assert res.p_value > 0.0
            assert res.p_value == pytest.approx(
                math.erfc(abs(res.z) / math.sqrt(2.0)), rel=1e-14, abs=0.0
            )
            assert res.p_value == pytest.approx(tail, rel=1e-11, abs=0.0)

    def test_degenerate_constant_outcomes(self):
        ds = unit_dataset([2.0, 2.0, 2.0, 2.0], [1, 0, 0, 1])
        res = infer(ds, identity_design(2))
        assert res.clamped
        assert res.p_value == 1.0
        assert res.z == 0.0
        assert math.isinf(res.se)
        assert res.ci_low == -math.inf and res.ci_high == math.inf
        payload = res.to_json_dict()
        assert payload["degenerate"] is payload["clamped"] is True
        assert payload["se"] is None
        assert payload["ci_low"] is None and payload["ci_high"] is None

    def test_member_order_within_pairs_irrelevant(self, rng):
        ds = random_dataset(rng, pairs=4)
        base = infer(ds, identity_design(4))
        swapped = _ordered_design((1, 0, 3, 2, 5, 4, 7, 6), "nn_x")
        other = infer(ds, swapped)
        assert other.tau2 == pytest.approx(base.tau2)
        assert other.lambda2 == pytest.approx(base.lambda2)
        assert other.z == pytest.approx(base.z)

    def test_scale_and_shift_invariances(self, rng):
        ds = random_dataset(rng, pairs=4)
        base = infer(ds, identity_design(4))

        shifted = infer(with_outcomes(ds, lambda y, _: y + 7.0), identity_design(4))
        scaled = infer(with_outcomes(ds, lambda y, _: 2.0 * y), identity_design(4))
        assert shifted.z == pytest.approx(base.z)
        assert shifted.delta_hat == pytest.approx(base.delta_hat)
        assert scaled.z == pytest.approx(base.z)
        assert scaled.v2 == pytest.approx(4.0 * base.v2)
        assert scaled.p_value == pytest.approx(base.p_value)

    def test_treatment_relabel_negates_z(self, rng):
        ds = random_dataset(rng, pairs=4)
        flipped = ds.with_treatments(1 - ds.treatment)
        a = infer(ds, identity_design(4))
        b = infer(flipped, identity_design(4))
        assert b.z == pytest.approx(-a.z)
        assert b.p_value == pytest.approx(a.p_value)
        assert b.v2 == pytest.approx(a.v2)

    def test_shifted_null_matches_shifted_data(self, rng):
        ds = random_dataset(rng, pairs=5)
        effect = 1.75
        boosted = with_outcomes(ds, lambda y, cluster: y + effect * ds.treatment[cluster])
        base = infer(ds, identity_design(5), delta0=0.0)
        tested = infer(boosted, identity_design(5), delta0=effect)
        assert tested.z == pytest.approx(base.z)
        assert tested.p_value == pytest.approx(base.p_value)
        assert tested.v2 == pytest.approx(base.v2)
        assert tested.ci_low == pytest.approx(base.ci_low + effect)
        assert tested.ci_high == pytest.approx(base.ci_high + effect)

    def test_variance_invariant_to_hypothesized_effect(self, rng):
        # removing a constant from every treated mean cancels in the
        # within-arm centering, so only the z numerator can move
        ds = random_dataset(rng, pairs=4)
        at_zero = infer(ds, identity_design(4), delta0=0.0)
        at_shift = infer(ds, identity_design(4), delta0=0.8)
        assert at_shift.v2 == pytest.approx(at_zero.v2, abs=1e-14)
        assert at_shift.se == pytest.approx(at_zero.se, abs=1e-14)
        assert at_shift.z != pytest.approx(at_zero.z)

    def test_matches_unit_level_reference(self, rng):
        for _ in range(10):
            g = int(rng.integers(2, 8))
            ys = rng.normal(0.0, 1.0, 2 * g)
            ts = np.zeros(2 * g, dtype=int)
            for j in range(g):
                ts[2 * j + int(rng.integers(0, 2))] = 1
            ds = unit_dataset(list(ys), list(ts))
            res = infer(ds, identity_design(g))
            pairs_y = []
            for j in range(g):
                a, b = 2 * j, 2 * j + 1
                if ts[a] == 1:
                    pairs_y.append((ys[a], ys[b]))
                else:
                    pairs_y.append((ys[b], ys[a]))
            ref = unit_level_reference(pairs_y)
            assert res.delta_hat == pytest.approx(ref["delta"], abs=1e-12)
            assert res.tau2 == pytest.approx(ref["tau2"], abs=1e-12)
            assert res.lambda2 == pytest.approx(ref["lambda2"], abs=1e-12)
            assert res.v2 == pytest.approx(ref["v2"], abs=1e-12)


class TestKernelOverflow:
    """Outcomes whose scale times sqrt(G) exceeds ``_MAX_SCALE`` are
    rejected before the kernel runs; just below it, every statistic stays
    finite, which the suite's error::RuntimeWarning filter checks."""

    @pytest.mark.parametrize("name", ["size_heterogeneous", "stress"])
    def test_both_sides_of_the_bound(self, name):
        ds, design = trial_units(preset(name), 6, "nn_xn", seed=3)
        n, ybar, _ = kernel_inputs(ds)
        base_infer, base_rand = infer(ds, design), randomization_test(ds, design)
        unit = _MAX_SCALE / math.sqrt(design.pair_count) / outcome_scale(n, ybar)
        for factor in (0.99, 1.01):
            scaled = with_outcomes(ds, lambda y, _: y * (factor * unit))
            if factor < 1.0:
                res = infer(scaled, design)
                assert res.v2 == pytest.approx((factor * unit) ** 2 * base_infer.v2, rel=1e-9)
                assert math.isfinite(res.se) and res.z == pytest.approx(base_infer.z, rel=1e-9)
                assert randomization_test(scaled, design).p_value == base_rand.p_value
            else:
                for run in (infer, randomization_test):
                    with pytest.raises(DataError, match="rescale the outcomes"):
                        run(scaled, design)

    def test_outcomes_near_float_range(self):
        # the bound is checked before any sum of the outcomes is formed: the
        # scale reported is W times _CENTRING_ROUNDING of the largest |ybar|,
        # finite, and no RuntimeWarning (an error in this suite) comes first
        ds, design = trial_units(preset("size_heterogeneous"), 20, "nn_xn", seed=3)
        scaled = with_outcomes(ds, lambda y, _: y * 1e305)
        runs = ((infer, 0.0), (randomization_test, 0.0), (randomization_test, -sys.float_info.max))
        scales = []
        for run, delta0 in runs:
            with pytest.raises(DataError) as excinfo:
                run(scaled, design, delta0=delta0)
            message = str(excinfo.value)
            assert message.startswith("outcomes at scale ")
            assert message.endswith(" at 20 pairs; rescale the outcomes")
            scales.append(float(message.split()[3]))
        # less delta0 = -float_max, a treated outcome overflows to inf
        assert scales[0] == scales[1] < math.inf == scales[2]

    def test_shifted_null_beyond_the_bound(self):
        # the randomization test measures the outcomes less delta0
        ds, design, _ = generate_trial(preset("size_heterogeneous"), 20, "nn_xn", seed=3)
        assert infer(ds, design, delta0=1e160).z < 0
        with pytest.raises(DataError, match="at 20 pairs; rescale the outcomes"):
            randomization_test(ds, design, delta0=1e160)


@st.composite
def reordered_designs(draw):
    """(dataset, design, the design's pairs in a drawn order, those pairs
    with drawn members listed the other way round); the three designs are
    the same pairs. The dataset is a ``generate_trial`` trial, whose design
    is marked as in variance order, or a random dataset paired (0, 1),
    (2, 3), ... in an unmarked design."""
    mode = draw(st.sampled_from(MATCH_MODES))
    g = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        ds, design, _ = generate_trial(preset(draw(st.sampled_from(PRESET_NAMES))), g, mode, seed)
    else:
        ds = random_dataset(np.random.default_rng(seed), pairs=g)
        design = MatchedDesign(tuple(range(2 * g)), mode)
    pairs = draw(st.permutations(design.pairs()))
    swaps = draw(st.lists(st.booleans(), min_size=g, max_size=g))
    swapped = [pair[::-1] if swap else pair for pair, swap in zip(pairs, swaps)]

    def listed(pair_list):
        return MatchedDesign(tuple(c for pair in pair_list for c in pair), mode)

    return ds, design, listed(pairs), listed(swapped)


class TestPairOrder:
    """The analysis puts any design not marked as in variance order in that
    order, so the order of its pairs cannot change an answer."""

    @settings(max_examples=100, deadline=None)
    @given(reordered_designs(), st.integers(0, 2**64 - 1))
    def test_pair_order_cannot_change_the_answer(self, case, seed):
        ds, design, moved, swapped = case

        def analysis(d):
            return json.dumps([
                infer(ds, d).to_json_dict(),
                randomization_test(ds, d, mode="exact").to_json_dict(),
                randomization_test(ds, d, mode="stochastic", draws=19, seed=seed).to_json_dict(),
            ])  # fmt: skip

        assert analysis(moved) == analysis(swapped) == analysis(design)
        # member order counts in the report: the size weight goes to the second
        report = json.dumps(imbalance_report(design, ds).to_json_dict())
        assert json.dumps(imbalance_report(moved, ds).to_json_dict()) == report

    def test_one_ordering_per_design(self, monkeypatch):
        calls = []
        order = matching.order_pairs_for_variance

        def counted(design, dataset):
            calls.append(design)
            return order(design, dataset)

        monkeypatch.setattr(matching, "order_pairs_for_variance", counted)
        ds, design, _ = generate_trial(preset("stress"), 10, "nn_xn", seed=1)
        assert len(calls) == 1  # matching orders, and marks, the design
        infer(ds, design)
        randomization_test(ds, design)
        imbalance_report(design, ds)
        assert len(calls) == 1
        unmarked = MatchedDesign(design.permutation, design.mode)
        infer(ds, unmarked)
        assert len(calls) == 2 and calls[-1] is unmarked
        calls.clear()
        monte_carlo(SimConfig(preset("null"), pair_count=4, replications=3, rand_mode="exact"))
        assert len(calls) == 3  # once per trial
