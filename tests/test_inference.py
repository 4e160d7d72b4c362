import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    adjusted_outcomes,
    identity_design,
    make_dataset,
    pair_statistics_reference,
    random_dataset,
    swap_treatments,
    unit_level_reference,
    with_outcomes,
)
from pairedcrt.errors import DataError, MissingTreatment, TooFewPairs
from pairedcrt.estimation import kernel_inputs
from pairedcrt.inference import EPS_FLOOR, infer, pair_statistics
from pairedcrt.randtest import _COMPARE_TOL, statistic_batch


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
        with pytest.raises(MissingTreatment):
            adjusted_outcomes(ds)


def unit_dataset(ys, ts):
    return make_dataset(sizes=[1] * len(ys), ybars=ys, treatments=ts)


class TestVarianceEstimate:
    """Hand values of the per-pair kernel on valid unit-sized datasets."""

    def test_hand_example(self):
        # treated (3, 1, 0, 0), control (0, 0, 1, 3): both arm means are 1,
        # so the signed differences are (3, 1, -1, -3)
        ds = unit_dataset([3.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 3.0], [1, 0] * 4)
        delta, tau2, lambda2 = pair_statistics(*kernel_inputs(ds), tuple(range(8)), 4)
        assert delta == 0.0
        assert tau2 == pytest.approx(5.0)
        assert lambda2 == pytest.approx(0.5 * (3.0 * 1.0 + (-1.0) * (-3.0)))
        var = infer(ds, identity_design(4)).variance
        assert var.v2 == pytest.approx(3.5)
        assert not var.clamped

    def test_signed_differences_follow_treatment(self):
        # swapping the treatment in the first pair: treated (0, 1, 0, 0),
        # control (3, 0, 1, 3), arm means 0.25 and 1.75, signed differences
        # (-1.5, 2.5, 0.5, -1.5)
        ys = [3.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 3.0]
        ds = unit_dataset(ys, [0, 1] + [1, 0] * 3)
        args = kernel_inputs(ds)
        _, tau2, lambda2 = pair_statistics(*args, tuple(range(8)), 4)
        assert tau2 == pytest.approx(2.75)
        assert lambda2 == pytest.approx(0.5 * (-1.5 * 2.5 + 0.5 * -1.5))
        # listing the first pair's members the other way round keeps the
        # sign, which follows treatment and not member order
        relisted = pair_statistics(*args, (1, 0, 2, 3, 4, 5, 6, 7), 4)
        assert relisted[2] == pytest.approx(lambda2)

    def test_odd_pair_count_drops_trailing_pair(self):
        # treated (2, 0, 1), control (0, 1, 2): signed differences (2, -1, -1);
        # only the first two pairs form a pair of pairs
        ds = unit_dataset([2.0, 0.0, 0.0, 1.0, 1.0, 2.0], [1, 0] * 3)
        _, tau2, lambda2 = pair_statistics(*kernel_inputs(ds), tuple(range(6)), 3)
        assert tau2 == pytest.approx(2.0)
        assert lambda2 == pytest.approx((2.0 / 3.0) * (2.0 * -1.0))
        var = infer(ds, identity_design(3)).variance
        assert var.v2 == pytest.approx(var.tau2 - var.lambda2 / 2.0)

    def test_clamped_when_degenerate(self):
        ds = unit_dataset([2.0, 2.0, 2.0, 2.0], [1, 0, 1, 0])
        _, tau2, lambda2 = pair_statistics(*kernel_inputs(ds), (0, 1, 2, 3), 2)
        assert tau2 == 0.0 and lambda2 == 0.0
        var = infer(ds, identity_design(2)).variance
        assert var.clamped
        assert var.v2 == EPS_FLOOR

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPairs):
            pair_statistics(
                np.array([1.0, 1.0]), np.array([1.0, -1.0]), np.array([1.0, 0.0]), (0, 1), 1
            )

    def test_batched_matches_single(self, rng):
        ds = random_dataset(rng, pairs=4)
        n, ybar, d = kernel_inputs(ds)
        # random_dataset pairs clusters (2j, 2j + 1); list the pairs in random order
        perm = tuple(int(i) for j in rng.permutation(4) for i in (2 * j, 2 * j + 1))
        bits = rng.integers(0, 2, size=(3, 4))
        dmat = swap_treatments(d.astype(np.int64), bits, perm, 4)
        batch = pair_statistics(n, ybar, dmat, perm, 4)
        for b in range(3):
            single = pair_statistics(n, ybar, dmat[b].astype(float), perm, 4)
            for x, y in zip(batch, single):
                assert x[b] == pytest.approx(float(y), rel=1e-12, abs=1e-15)


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


class TestPairStatistics:
    @settings(max_examples=300, deadline=None)
    @given(case=kernel_cases())
    def test_agrees_with_per_cluster_reference(self, case):
        n, ybar, dmat, perm, g, delta0 = case
        delta, tau2, lambda2 = pair_statistics(n, ybar, dmat, perm, g)
        assert delta.shape == tau2.shape == lambda2.shape == (dmat.shape[0],)
        ref_delta, ref_tau2, ref_lambda2 = pair_statistics_reference(n, ybar, dmat, perm, g)
        scale = ref_tau2 + np.abs(ref_lambda2)
        assert np.all(np.abs(tau2 - ref_tau2) <= 1e-12 * scale)
        assert np.all(np.abs(lambda2 - ref_lambda2) <= 1e-12 * scale)
        assert np.all(np.abs(delta - ref_delta) <= 1e-12 * np.abs(ybar).max())

        # swapping every pair at once keeps the studentized statistic
        t = statistic_batch(n, ybar, dmat, perm, g)
        t_complement = statistic_batch(n, ybar, 1 - dmat, perm, g)
        np.testing.assert_allclose(t, t_complement, rtol=0.0, atol=_COMPARE_TOL)

        # removing a hypothesized effect from the treated clusters leaves v2
        for d, t2, l2, sc in zip(dmat, tau2, lambda2, scale):
            _, t2_shifted, l2_shifted = pair_statistics(n, ybar - d * delta0, d, perm, g)
            v2_shift = (t2_shifted - 0.5 * l2_shifted) - (t2 - 0.5 * l2)
            assert abs(v2_shift) <= 1e-12 * (sc + delta0**2)

    def test_single_vector_gives_scalars(self, rng):
        n, ybar, d = kernel_inputs(random_dataset(rng, pairs=3))
        for value in pair_statistics(n, ybar, d, tuple(range(6)), 3):
            assert np.ndim(value) == 0

    def test_design_must_cover_the_data(self, rng):
        n, ybar, d = kernel_inputs(random_dataset(rng, pairs=4))
        with pytest.raises(DataError, match="covers 4 clusters but the data has 8"):
            pair_statistics(n, ybar, d, (0, 1, 2, 3), 2)

    def test_each_pair_needs_one_treated_member(self):
        ds = unit_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 0])
        with pytest.raises(DataError, match="one treated and one control"):
            infer(ds, identity_design(2))


class TestInfer:
    def test_unit_level_fixture(self):
        ds = unit_dataset([3.0, 1.0, 1.0, 1.0], [1, 0, 1, 0])
        res = infer(ds, identity_design(2))
        assert res.estimate.delta_hat == pytest.approx(1.0)
        assert res.variance.tau2 == pytest.approx(1.0)
        assert res.variance.lambda2 == pytest.approx(-1.0)
        assert res.variance.v2 == pytest.approx(1.5)
        assert res.se == pytest.approx(math.sqrt(0.75))
        assert res.z == pytest.approx(1.1547005383792517)
        assert res.p_value == pytest.approx(0.2482130789899236, abs=1e-12)
        assert res.ci_low == pytest.approx(-0.6973786011142571)
        assert res.ci_high == pytest.approx(2.697378601114257)
        assert not res.degenerate

    def test_degenerate_constant_outcomes(self):
        ds = unit_dataset([2.0, 2.0, 2.0, 2.0], [1, 0, 0, 1])
        res = infer(ds, identity_design(2))
        assert res.degenerate
        assert res.p_value == 1.0
        assert res.z == 0.0
        assert math.isinf(res.se)
        assert res.ci_low == -math.inf and res.ci_high == math.inf
        payload = res.to_json_dict()
        assert payload["se"] is None
        assert payload["ci_low"] is None and payload["ci_high"] is None

    def test_member_order_within_pairs_irrelevant(self, rng):
        ds = random_dataset(rng, pairs=4)
        base = infer(ds, identity_design(4))
        from pairedcrt.matching import MatchedDesign

        swapped = MatchedDesign(
            permutation=(1, 0, 3, 2, 5, 4, 7, 6), pair_count=4, mode="nn_x"
        )
        other = infer(ds, swapped)
        assert other.variance.tau2 == pytest.approx(base.variance.tau2)
        assert other.variance.lambda2 == pytest.approx(base.variance.lambda2)
        assert other.z == pytest.approx(base.z)

    def test_scale_and_shift_invariances(self, rng):
        ds = random_dataset(rng, pairs=4)
        base = infer(ds, identity_design(4))

        shifted = infer(with_outcomes(ds, lambda y, _: y + 7.0), identity_design(4))
        scaled = infer(with_outcomes(ds, lambda y, _: 2.0 * y), identity_design(4))
        assert shifted.z == pytest.approx(base.z)
        assert shifted.estimate.delta_hat == pytest.approx(base.estimate.delta_hat)
        assert scaled.z == pytest.approx(base.z)
        assert scaled.variance.v2 == pytest.approx(4.0 * base.variance.v2)
        assert scaled.p_value == pytest.approx(base.p_value)

    def test_treatment_relabel_negates_z(self, rng):
        ds = random_dataset(rng, pairs=4)
        flipped = ds.with_treatments(1 - ds.treatment)
        a = infer(ds, identity_design(4))
        b = infer(flipped, identity_design(4))
        assert b.z == pytest.approx(-a.z)
        assert b.p_value == pytest.approx(a.p_value)
        assert b.variance.v2 == pytest.approx(a.variance.v2)

    def test_shifted_null_matches_shifted_data(self, rng):
        ds = random_dataset(rng, pairs=5)
        effect = 1.75
        boosted = with_outcomes(ds, lambda y, cluster: y + effect * ds.treatment[cluster])
        base = infer(ds, identity_design(5), delta0=0.0)
        tested = infer(boosted, identity_design(5), delta0=effect)
        assert tested.z == pytest.approx(base.z)
        assert tested.p_value == pytest.approx(base.p_value)
        assert tested.variance.v2 == pytest.approx(base.variance.v2)
        assert tested.ci_low == pytest.approx(base.ci_low + effect)
        assert tested.ci_high == pytest.approx(base.ci_high + effect)

    def test_variance_invariant_to_hypothesized_effect(self, rng):
        # removing a constant from every treated mean cancels in the
        # within-arm centering, so only the z numerator can move
        ds = random_dataset(rng, pairs=4)
        at_zero = infer(ds, identity_design(4), delta0=0.0)
        at_shift = infer(ds, identity_design(4), delta0=0.8)
        assert at_shift.variance.v2 == pytest.approx(at_zero.variance.v2, abs=1e-14)
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
            assert res.estimate.delta_hat == pytest.approx(ref["delta"], abs=1e-12)
            assert res.variance.tau2 == pytest.approx(ref["tau2"], abs=1e-12)
            assert res.variance.lambda2 == pytest.approx(ref["lambda2"], abs=1e-12)
            assert res.variance.v2 == pytest.approx(ref["v2"], abs=1e-12)
