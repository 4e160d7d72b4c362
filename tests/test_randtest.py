import tracemalloc

import numpy as np
import pytest

from helpers import identity_design, make_dataset, random_dataset, with_outcomes
from pairedcrt import randtest
from pairedcrt.errors import BadB, DataError, MissingTreatment, TooManyPairsForExact
from pairedcrt.estimation import kernel_inputs
from pairedcrt.inference import infer
from pairedcrt.randtest import (
    randomization_test,
    statistic_batch,
    swap_treatments,
)
from pairedcrt.simulation import generate_trial, preset


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
        from pairedcrt.matching import MatchedDesign

        ds = random_dataset(rng, pairs=3)
        base = randomization_test(ds, identity_design(3), mode="exact")
        swapped = MatchedDesign(
            permutation=(1, 0, 3, 2, 5, 4), pair_count=3, mode="nn_x"
        )
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
        g = 21
        ys = list(rng.normal(0.0, 1.0, 2 * g))
        ds = unit_dataset(ys, [1, 0] * g)
        with pytest.raises(TooManyPairsForExact):
            randomization_test(ds, identity_design(g), mode="exact")

    def test_requires_treatments(self):
        ds = make_dataset(sizes=[1, 1, 1, 1], ybars=[1.0, 2.0, 3.0, 4.0])
        with pytest.raises(MissingTreatment):
            randomization_test(ds, identity_design(2), mode="exact")


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

    def test_identity_always_counted(self, rng):
        ds = random_dataset(rng, pairs=4)
        res = randomization_test(ds, identity_design(4), mode="stochastic", draws=19, seed=3)
        assert res.p_value >= 1.0 / 19.0

    def test_draw_and_seed_validation(self, rng):
        ds = random_dataset(rng, pairs=3)
        with pytest.raises(BadB):
            randomization_test(ds, identity_design(3), mode="stochastic", draws=10, seed=1)
        with pytest.raises(BadB):
            randomization_test(ds, identity_design(3), mode="stochastic", draws=100)

    def test_unknown_mode_rejected(self, rng):
        ds = random_dataset(rng, pairs=3)
        with pytest.raises(ValueError):
            randomization_test(ds, identity_design(3), mode="bootstrap")


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


class TestDesignCoverage:
    def test_design_over_part_of_the_data_rejected(self, rng):
        ds = random_dataset(rng, pairs=4)
        with pytest.raises(DataError, match="covers 4 clusters but the data has 8"):
            infer(ds, identity_design(2))
        for mode in ("exact", "stochastic"):
            with pytest.raises(DataError, match="covers 4 clusters but the data has 8"):
                randomization_test(ds, identity_design(2), mode=mode, draws=99, seed=1)


class TestResultPayload:
    def test_json_dict(self, rng):
        ds = random_dataset(rng, pairs=3)
        res = randomization_test(ds, identity_design(3), mode="exact", alpha=0.2)
        payload = res.to_json_dict()
        assert payload["mode"] == "exact"
        assert payload["draws"] == 8
        assert payload["alpha"] == 0.2
        assert isinstance(payload["p_value"], float)

    def test_degenerate_t_serializes_as_null(self):
        ds = unit_dataset([2.0, 2.0, 2.0, 2.0], [1, 0, 0, 1])
        res = randomization_test(ds, identity_design(2), mode="exact", delta0=3.0)
        # shifting a constant dataset yields a clamped variance with a
        # nonzero numerator, so the statistic goes to infinity
        assert np.isinf(res.t_observed)
        assert res.to_json_dict()["t_observed"] is None
