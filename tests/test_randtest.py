import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    identity_design,
    make_dataset,
    pair_statistics_reference,
    random_dataset,
    randomization_reference,
    statistic_batch,
    swap_treatments,
    trial_units,
    with_outcomes,
)
from pairedcrt import randtest
from pairedcrt.errors import DataError
from pairedcrt.estimation import kernel_inputs
from pairedcrt.inference import SignSums, infer, outcome_scale
from pairedcrt.randtest import randomization_test
from pairedcrt.simulation import MATCH_MODES, PRESET_NAMES, generate_trial, preset


def unit_dataset(ys, ts):
    return make_dataset(sizes=[1] * len(ys), ybars=ys, treatments=ts)


def all_statistics(ds, design):
    """The statistic at every one of the 2^G swap patterns, pattern 0 first."""
    n, ybar, _ = kernel_inputs(ds)
    g = design.pair_count
    idx = np.arange(1 << g, dtype=np.uint64)
    bits = ((idx[:, None] >> np.arange(g, dtype=np.uint64)) & np.uint64(1)).astype(
        np.int64
    )
    dmat = swap_treatments(ds.treatment, bits, design.permutation, g)
    return statistic_batch(n, ybar, dmat, design.permutation, g)


class TestExact:
    def test_constant_outcomes_give_p_one(self):
        ds = unit_dataset([2.0, 2.0, 2.0, 2.0], [1, 0, 0, 1])
        res = randomization_test(ds, identity_design(2), mode="exact")
        assert res.p_value == 1.0
        assert res.t_observed == 0.0
        assert res.draws == 4
        assert not res.reject

    def test_two_pair_hand_example(self):
        # identity and the all-swap pattern tie for the largest statistic,
        # the two single-pair swaps are strictly smaller, so p = 2/4
        ds = unit_dataset([4.0, 0.0, 3.0, 1.0], [1, 0, 1, 0])
        res = randomization_test(ds, identity_design(2), mode="exact")
        assert res.p_value == 0.5
        assert res.t_observed == pytest.approx(3.4641016151377553)
        ts = all_statistics(ds, identity_design(2))
        assert ts == pytest.approx([3.4641016151377553, 0.3849001794597505, 0.3849001794597505, 3.4641016151377553])

    def test_full_swap_always_ties_the_identity(self, rng):
        # swapping every pair flips the estimate's sign and leaves the
        # adjusted outcomes and variance unchanged, so |T| is preserved
        ds = random_dataset(rng, pairs=4)
        ts = all_statistics(ds, identity_design(4))
        assert ts == pytest.approx(ts[::-1])

    def test_minimum_p_is_two_over_group_size(self, rng):
        for _ in range(5):
            ds = random_dataset(rng, pairs=3)
            res = randomization_test(ds, identity_design(3), mode="exact")
            assert res.p_value >= 2.0 / 8.0 - 1e-12

    def test_member_order_within_pairs_irrelevant(self, rng):
        from pairedcrt.matching import _ordered_design

        ds = random_dataset(rng, pairs=3)
        base = randomization_test(ds, identity_design(3), mode="exact")
        swapped = _ordered_design((1, 0, 3, 2, 5, 4), "nn_x")
        other = randomization_test(ds, swapped, mode="exact")
        assert other.p_value == base.p_value
        assert other.t_observed == pytest.approx(base.t_observed)

    def test_statistic_multiset_is_orbit_invariant(self, rng):
        ds = random_dataset(rng, pairs=3)
        ts = all_statistics(ds, identity_design(3))
        # relabel treatments by swapping pairs 0 and 2, keep outcomes fixed
        bits = np.array([[1, 0, 1]])
        d2 = swap_treatments(ds.treatment, bits, identity_design(3).permutation, 3)[0]
        ds2 = ds.with_treatments(d2)
        ts2 = all_statistics(ds2, identity_design(3))
        assert np.sort(ts) == pytest.approx(np.sort(ts2))

    def test_shifted_null_matches_shifted_data(self, rng):
        ds = random_dataset(rng, pairs=3)
        effect = 2.5
        boosted = with_outcomes(ds, lambda y, cluster: y + effect * ds.treatment[cluster])
        base = randomization_test(ds, identity_design(3), mode="exact", delta0=0.0)
        tested = randomization_test(boosted, identity_design(3), mode="exact", delta0=effect)
        assert tested.p_value == base.p_value
        assert tested.t_observed == pytest.approx(base.t_observed)

    def test_finite_sample_validity_under_sharp_null(self, rng):
        # fixed outcomes, all 32 equally likely assignments enumerated:
        # the rejection probability can never exceed the level
        g = 5
        ys = list(rng.normal(0.0, 1.0, 2 * g))
        base = np.array([1, 0] * g)
        patterns = np.array(
            [[(k >> j) & 1 for j in range(g)] for k in range(1 << g)]
        )
        design = identity_design(g)
        pvals = []
        for row in patterns:
            d = swap_treatments(
                base.astype(np.int64), row[None, :].astype(np.int64), design.permutation, g
            )[0]
            ds = unit_dataset(ys, list(d))
            pvals.append(randomization_test(ds, design, mode="exact").p_value)
        pvals = np.array(pvals)
        for alpha in (0.01, 0.05, 0.1, 0.25, 0.5):
            assert np.mean(pvals <= alpha) <= alpha + 1e-12

    def test_too_many_pairs_for_exact(self, rng):
        g = randtest.MAX_EXACT_PAIRS + 1
        ys = list(rng.normal(0.0, 1.0, 2 * g))
        ds = unit_dataset(ys, [1, 0] * g)
        message = f"^exact enumeration supports at most {randtest.MAX_EXACT_PAIRS} pairs, got {g}$"
        with pytest.raises(DataError, match=message):
            randomization_test(ds, identity_design(g), mode="exact")

    def test_requires_treatments(self):
        ds = make_dataset(sizes=[1, 1, 1, 1], ybars=[1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DataError, match="^estimation requires a treatment for every cluster$"):
            randomization_test(ds, identity_design(2), mode="exact")


@st.composite
def sign_cases(draw):
    """Kernel inputs on exact grids: outcomes, an observed assignment, swap
    bits relative to it, and a constant offset added to every outcome."""
    g = draw(st.integers(2, 13))

    def per_cluster(values):
        return np.array(draw(st.lists(values, min_size=2 * g, max_size=2 * g)), dtype=float)

    sizes = np.ones(2 * g) if draw(st.booleans()) else per_cluster(st.integers(1, 60))
    grid = draw(st.sampled_from(["binary", "quarters", "eighths"]))
    if grid == "binary":  # tie-heavy: many patterns share a statistic
        ys = per_cluster(st.integers(0, 1))
    elif grid == "quarters":
        ys = per_cluster(st.integers(0, 4)) / 4.0
    else:
        ys = per_cluster(st.integers(-800, 800)) / 8.0
    perm = tuple(draw(st.permutations(range(2 * g))))
    first = np.array(draw(st.lists(st.booleans(), min_size=g, max_size=g)))
    d = np.zeros(2 * g, dtype=np.int64)
    d[np.where(first, np.asarray(perm[0::2]), np.asarray(perm[1::2]))] = 1
    pattern = st.lists(st.integers(0, 1), min_size=g, max_size=g)
    bits = np.array(draw(st.lists(pattern, min_size=1, max_size=8)), dtype=np.int64)
    # a hypothesized effect on the 1/8 grid keeps the shifted outcomes exact
    ys = ys - d * (draw(st.integers(-80, 80)) / 8.0)
    offset = draw(st.sampled_from([0.0, 1e6]))
    return sizes, ys, offset, d, first, bits, perm, g


class TestSignSums:
    @settings(max_examples=300, deadline=None)
    @given(case=sign_cases())
    def test_agrees_with_per_cluster_reference(self, case):
        n, ybar, offset, d, first, bits, perm, g = case
        # the statistic ignores a constant offset, so the reference runs without it
        sums = SignSums.build(n, ybar + offset, perm, first, outcome_scale(n, ybar + offset))
        got = sums.statistics(1.0 - 2.0 * bits)
        dmat = swap_treatments(d, bits, perm, g)
        ref = pair_statistics_reference(n, ybar, dmat, perm, g)
        # The kernel sums expanded squares, so it rounds in proportion to the
        # largest term, not to tau2: where the reference gives exactly 0
        # (outcomes constant within arms) the kernel gives about 1e-16.
        w, centred = n / n.mean(), ybar - np.dot(n, ybar) / n.sum()
        term = (w.max() * (2.0 * np.abs(centred).max() + np.abs(ref[0]))) ** 2
        scale = 1e-12 * (ref[1] + np.abs(ref[2])) + 1e-14 * term
        tolerances = (1e-12 * (np.abs(ybar).max() + 1.0), scale, scale)
        for value, expected, tol in zip(got, ref, tolerances):
            assert np.all(np.abs(value - expected) <= tol)

    def test_signs_are_relative_to_the_observed_assignment(self, rng):
        ds = random_dataset(rng, pairs=5)
        n, ybar, d = kernel_inputs(ds)
        perm = identity_design(5).permutation
        first = d[0::2] == 1
        bits = rng.integers(0, 2, size=(6, 5))
        sums = SignSums.build(n, ybar, perm, first, outcome_scale(n, ybar))
        relative = sums.studentized(1.0 - 2.0 * bits)
        dmat = swap_treatments(ds.treatment, bits, perm, 5)
        np.testing.assert_allclose(relative, statistic_batch(n, ybar, dmat, perm, 5), rtol=1e-13)

    def test_statistic_batch_rejects_a_row_without_one_treated_per_pair(self, rng):
        n, ybar, d = kernel_inputs(random_dataset(rng, pairs=3))
        dmat = np.array([d, [1.0, 1.0, 0.0, 1.0, 1.0, 0.0]])
        with pytest.raises(DataError, match="one treated and one control"):
            statistic_batch(n, ybar, dmat, tuple(range(6)), 3)


def tie_heavy_dataset(rng, g, kind):
    """Binary unit outcomes, quarter-grid means with sizes {10, 50}, or
    eighth-grid means offset by 1e6; returns (dataset, the same outcomes
    without the offset)."""
    treatments = np.zeros(2 * g, dtype=int)
    treatments[2 * np.arange(g) + rng.integers(0, 2, g)] = 1
    if kind == "binary":
        sizes, ys, offset = np.ones(2 * g, dtype=int), rng.integers(0, 2, 2 * g) * 1.0, 0.0
    elif kind == "quarters":
        sizes, ys, offset = rng.choice([10, 50], 2 * g), rng.integers(0, 5, 2 * g) / 4.0, 0.0
    else:
        sizes, ys, offset = rng.integers(1, 30, 2 * g), rng.integers(-8, 9, 2 * g) / 8.0, 1e6
    ds = make_dataset(sizes=list(sizes), ybars=list(ys + offset), treatments=list(treatments))
    return ds, ys


class TestAgainstBruteForce:
    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_exact_p_equals_enumeration_through_reference(self, preset_name):
        for g in (2, 3, 4, 7, 10, 12):
            for mode in MATCH_MODES:
                ds, design, effect = generate_trial(preset(preset_name), g, mode, seed=g)
                n, ybar, d = kernel_inputs(ds)
                for delta0 in (0.0, effect):
                    res = randomization_test(ds, design, mode="exact", delta0=delta0)
                    p, t_obs, _ = randomization_reference(n, ybar, d, design.permutation, g, delta0)
                    assert res.p_value == p
                    # v2 far below the squared effect (T = 201 at G = 2 on
                    # stress) costs the expanded sums digits: 1.7e-12 there
                    assert res.t_observed == pytest.approx(t_obs, rel=1e-10)

    @pytest.mark.parametrize("kind", ["binary", "quarters", "offset"])
    def test_tie_heavy_exact_p_equals_enumeration(self, kind):
        rng = np.random.default_rng(4242)
        for _ in range(20):
            g = int(rng.integers(2, 13))
            ds, ys = tie_heavy_dataset(rng, g, kind)
            n, _, d = kernel_inputs(ds)
            design = identity_design(g)
            for delta0 in (0.0, 0.25):
                res = randomization_test(ds, design, mode="exact", delta0=delta0)
                p, t_obs, _ = randomization_reference(n, ys, d, design.permutation, g, delta0)
                assert res.p_value == p
                assert res.t_observed == pytest.approx(t_obs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "sizes,ys,treatments,delta0,t_obs",
        [
            # constant outcomes: every variance clamps with a zero numerator
            ([1] * 6, [2.0] * 6, [1, 0, 0, 1, 1, 0], 0.0, 0.0),
            # the same shifted by an effect: the observed numerator is not zero
            ([1] * 6, [2.0] * 6, [1, 0, 0, 1, 1, 0], 3.0, np.inf),
            # constant within arms: only the identity and its complement clamp
            ([3, 7, 2, 9, 4, 4, 6, 1], [1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0],
             [1, 0, 0, 1, 1, 0, 0, 1], 0.0, np.inf),
            ([3, 7, 2, 9, 4, 4, 6, 1], [1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0],
             [1, 0, 0, 1, 1, 0, 0, 1], 1.0, 0.0),
            # the same at scale 1e6: rounding in the expanded sums still clamps
            ([3, 7, 2, 9, 4, 4, 6, 1], [3e5, -7e5, -7e5, 3e5, 3e5, -7e5, -7e5, 3e5],
             [1, 0, 0, 1, 1, 0, 0, 1], 0.0, np.inf),
            # equal outcomes within each pair: delta is zero for every pattern
            ([1] * 8, [0.5, 0.5, -2.0, -2.0, 3.25, 3.25, 1.0, 1.0],
             [0, 1, 1, 0, 0, 1, 1, 0], 0.0, 0.0),
        ],
    )
    def test_clamped_and_zero_numerator_cases(self, sizes, ys, treatments, delta0, t_obs):
        ds = make_dataset(sizes=sizes, ybars=ys, treatments=treatments)
        n, ybar, d = kernel_inputs(ds)
        g = len(sizes) // 2
        design = identity_design(g)
        res = randomization_test(ds, design, mode="exact", delta0=delta0)
        p, ref_t_obs, ref_t = randomization_reference(n, ybar, d, design.permutation, g, delta0)
        assert res.t_observed == ref_t_obs == t_obs
        assert res.p_value == p
        bits = (np.arange(1 << g)[:, None] >> np.arange(g)) & 1
        dmat = swap_treatments(ds.treatment, bits, design.permutation, g)
        t = statistic_batch(n, ybar - d * delta0, dmat, design.permutation, g)
        assert np.array_equal(t == 0.0, ref_t == 0.0)
        assert np.array_equal(np.isinf(t), np.isinf(ref_t))


class TestStochastic:
    def test_close_to_exact(self, rng):
        ds = random_dataset(rng, pairs=3)
        exact = randomization_test(ds, identity_design(3), mode="exact")
        approx = randomization_test(
            ds, identity_design(3), mode="stochastic", draws=4001, seed=99
        )
        assert abs(approx.p_value - exact.p_value) < 0.03

    def test_deterministic_in_seed(self, rng):
        ds = random_dataset(rng, pairs=4)
        a = randomization_test(ds, identity_design(4), mode="stochastic", draws=199, seed=5)
        b = randomization_test(ds, identity_design(4), mode="stochastic", draws=199, seed=5)
        assert a.p_value == b.p_value

    def test_reports_monte_carlo_standard_error(self, rng):
        ds = random_dataset(rng, pairs=6)
        res = randomization_test(ds, identity_design(6), mode="stochastic", draws=399, seed=2)
        assert res.mc_standard_error == pytest.approx(
            np.sqrt(res.p_value * (1.0 - res.p_value) / 399), rel=1e-15
        )
        assert res.to_json_dict()["mc_standard_error"] == res.mc_standard_error
        exact = randomization_test(ds, identity_design(6), mode="exact")
        assert exact.mc_standard_error is None

    def test_identity_always_counted(self, rng):
        ds = random_dataset(rng, pairs=4)
        res = randomization_test(ds, identity_design(4), mode="stochastic", draws=19, seed=3)
        assert res.p_value >= 1.0 / 19.0

    def test_draw_and_seed_validation(self, rng):
        ds = random_dataset(rng, pairs=3)
        with pytest.raises(ValueError, match="draws must be at least 19, got 10"):
            randomization_test(ds, identity_design(3), mode="stochastic", draws=10, seed=1)
        with pytest.raises(ValueError, match="draws must be an integer of at least 19, got 19.5"):
            randomization_test(ds, identity_design(3), mode="stochastic", draws=19.5, seed=1)
        with pytest.raises(ValueError, match="draws is required with mode 'stochastic'"):
            randomization_test(ds, identity_design(3), mode="stochastic", seed=1)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\), got None"):
            randomization_test(ds, identity_design(3), mode="stochastic", draws=100)
        # the seed rule of assign_within_pairs
        for seed in (5.5, -1, 2**64, True):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                randomization_test(ds, identity_design(3), mode="stochastic", draws=19, seed=seed)
        with pytest.raises(ValueError, match="draws must be an integer of at least 19, got True"):
            randomization_test(ds, identity_design(3), mode="stochastic", draws=True, seed=1)
        top = [
            randomization_test(ds, identity_design(3), mode="stochastic", draws=199, seed=seed)
            for seed in (2**64 - 1, np.uint64(2**64 - 1))
        ]
        assert top[0].p_value == top[1].p_value

    def test_numpy_integer_arguments_give_the_same_json(self, rng):
        ds = random_dataset(rng, pairs=4)
        plain, numpy_ints = (
            randomization_test(ds, identity_design(4), mode="stochastic", draws=draws, seed=seed)
            for draws, seed in ((99, 5), (np.int64(99), np.uint64(5)))
        )
        assert json.dumps(numpy_ints.to_json_dict()) == json.dumps(plain.to_json_dict())

    def test_unknown_mode_rejected(self, rng):
        ds = random_dataset(rng, pairs=3)
        with pytest.raises(ValueError, match="mode must be 'exact' or 'stochastic'"):
            randomization_test(ds, identity_design(3), mode="bootstrap")

    def test_exact_mode_takes_no_draws(self, rng):
        ds = random_dataset(rng, pairs=3)
        with pytest.raises(ValueError, match="draws applies only to mode 'stochastic'"):
            randomization_test(ds, identity_design(3), mode="exact", draws=100)


class TestChunking:
    def test_chunk_size_does_not_change_p_value(self, rng, monkeypatch):
        ds = random_dataset(rng, pairs=6)
        design = identity_design(6)
        exact = randomization_test(ds, design, mode="exact", delta0=0.3)
        sampled = randomization_test(ds, design, mode="stochastic", draws=501, seed=11)
        # 7 cells hold one pattern of 6 pairs: every pattern is its own chunk
        monkeypatch.setattr(randtest, "_CHUNK_CELLS", 7)
        assert randomization_test(ds, design, mode="exact", delta0=0.3) == exact
        assert randomization_test(ds, design, mode="stochastic", draws=501, seed=11) == sampled

    def test_memory_is_bounded_by_chunk_cells(self):
        ds, design, _ = generate_trial(preset("size_heterogeneous"), 1000, "nn_xn", 3)
        tracemalloc.start()
        try:
            randomization_test(ds, design, mode="stochastic", draws=9999, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one chunk of all 9999 patterns needed about 900 MiB
        assert peak < 128 * 2**20

    def test_no_pattern_by_cluster_matrix(self):
        ds, design, _ = generate_trial(preset("size_heterogeneous"), 1000, "nn_xn", 3)
        tracemalloc.start()
        try:
            randomization_test(ds, design, mode="stochastic", draws=1999, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a chunk's (B, 2G) treatment matrices traced about 65 MiB
        assert peak < 32 * 2**20

    def test_chunk_fits_in_cache(self):
        ds, design, _ = generate_trial(preset("size_heterogeneous"), 1000, "nn_xn", 3)
        tracemalloc.start()
        try:
            randomization_test(ds, design, mode="stochastic", draws=1999, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # chunks of 2^20 swap bits traced 16.1 MiB; of 2^17, 2.1 MiB
        assert peak < 4 * 2**20


class TestDesignCoverage:
    def test_design_over_part_of_the_data_rejected(self, rng):
        ds = random_dataset(rng, pairs=4)
        with pytest.raises(DataError, match="covers 4 clusters but the data has 8"):
            infer(ds, identity_design(2))
        for mode, draws in (("exact", None), ("stochastic", 99)):
            with pytest.raises(DataError, match="covers 4 clusters but the data has 8"):
                randomization_test(ds, identity_design(2), mode=mode, draws=draws, seed=1)


class TestResultPayload:
    def test_json_dict(self, rng):
        ds = random_dataset(rng, pairs=3)
        res = randomization_test(ds, identity_design(3), mode="exact", alpha=0.2)
        payload = res.to_json_dict()
        assert payload["mode"] == "exact"
        assert payload["draws"] == 8
        assert payload["alpha"] == 0.2
        assert payload["mc_standard_error"] is None
        assert isinstance(payload["p_value"], float)

    def test_degenerate_t_serializes_as_null(self):
        ds = unit_dataset([2.0, 2.0, 2.0, 2.0], [1, 0, 0, 1])
        res = randomization_test(ds, identity_design(2), mode="exact", delta0=3.0)
        # shifting a constant dataset yields a clamped variance with a
        # nonzero numerator, so the statistic goes to infinity
        assert np.isinf(res.t_observed)
        assert res.to_json_dict()["t_observed"] is None


class TestOutcomeScale:
    """The clamp rule scales with the outcomes, so their unit changes nothing."""

    @pytest.mark.parametrize("scale", [1e-7, 1e-5, 1.0, 1e6])
    def test_z_and_exact_p_agree_at_every_scale(self, scale):
        ds, design = trial_units(preset("size_heterogeneous"), 12, "nn_xn", 3)
        scaled = with_outcomes(ds, lambda y, _: y * scale)
        res, unit_res = infer(scaled, design), infer(ds, design)
        rt, unit_rt = (randomization_test(d, design, mode="exact") for d in (scaled, ds))
        # the absolute floors clamped at 1e-7: degenerate, p = 1 and T = inf
        assert not res.clamped
        assert res.z == pytest.approx(unit_res.z, rel=1e-9)
        assert unit_res.z == pytest.approx(3.864, abs=1e-3)
        assert rt.p_value == unit_rt.p_value
        assert rt.t_observed == pytest.approx(unit_rt.t_observed, rel=1e-9)

    @pytest.mark.parametrize("value", [0.1, 1 / 3, 1e6 + 0.1, 2e-9])
    def test_constant_outcomes_clamp(self, value):
        # the arm means of a constant that is not a binary fraction round
        # away from it, so v2 is rounding of the uncentred outcomes
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = int(rng.integers(2, 11))
            ds = make_dataset(
                sizes=rng.integers(1, 50, 2 * g), ybars=[value] * (2 * g), treatments=[1, 0] * g
            )
            assert infer(ds, identity_design(g)).clamped
            rt = randomization_test(ds, identity_design(g), mode="exact")
            assert (rt.p_value, rt.t_observed) == (1.0, 0.0)
