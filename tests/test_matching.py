import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_pairings,
    design_cost,
    greedy_nn_reference,
    identity_design,
    min_matching_cost,
    order_pairs_reference,
)
from pairedcrt.core import ClusterRecord
from pairedcrt.errors import DataError, NonScalarKey, OddClusterCount
from pairedcrt.matching import (
    MatchedDesign,
    imbalance_report,
    order_pairs_for_variance,
    pair_greedy_nn,
    pair_sorted_scalar,
    read_design,
    write_design,
    zscore,
)


def items_from(xs, sizes=None, ids=None):
    m = len(xs)
    sizes = sizes or [1] * m
    ids = ids or [f"c{i:03d}" for i in range(m)]
    return [
        ClusterRecord(
            cluster_id=ids[i],
            n_total=int(sizes[i]),
            sampled_outcomes=(),
            covariates=tuple(np.atleast_1d(xs[i]).astype(float)),
        )
        for i in range(m)
    ]


class TestMatchedDesign:
    def test_rejects_non_bijection(self):
        with pytest.raises(DataError):
            MatchedDesign(permutation=(0, 1, 1, 2), pair_count=2, matched_on_size=False)

    def test_pairs(self):
        d = MatchedDesign(permutation=(2, 0, 3, 1), pair_count=2, matched_on_size=False)
        assert d.pairs() == [(2, 0), (3, 1)]


class TestZscore:
    def test_centers_and_scales(self, rng):
        x = rng.normal(3.0, 2.0, (50, 2))
        z = zscore(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_centered_not_scaled(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
        z = zscore(x)
        assert np.allclose(z[:, 1], 0.0)

    def test_overflowing_column_rejected(self):
        # finite values whose squares overflow: the std is inf, and every
        # z-score would silently become 0
        x = np.array([[0.0, 1e308], [1.0, -1e308], [2.0, 0.0], [3.0, 1.0]])
        with pytest.raises(DataError, match="column 1"):
            zscore(x)
        items = items_from([1e308, -1e308, 0.0, 1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="column 0"):
            pair_greedy_nn(items)


class TestPairSortedScalar:
    def test_hand_example(self):
        items = items_from([4.0, 1.0, 3.0, 2.0], ids=list("abcd"))
        design = pair_sorted_scalar(items)
        # sorted keys: b(1), d(2), c(3), a(4) -> pairs (b,d) and (c,a)
        assert design.permutation == (1, 3, 2, 0)
        assert design.pairs() == [(1, 3), (2, 0)]
        assert not design.matched_on_size

    def test_callable_key_matches_index_key(self):
        items = items_from([4.0, 1.0, 3.0, 2.0])
        a = pair_sorted_scalar(items, key=0)
        b = pair_sorted_scalar(items, key=lambda it: it.covariates[0])
        assert a.permutation == b.permutation

    def test_ties_break_by_cluster_id(self):
        items = items_from([1.0, 1.0, 1.0, 1.0], ids=["d", "c", "b", "a"])
        design = pair_sorted_scalar(items)
        ids = [items[i].cluster_id for i in design.permutation]
        assert ids == ["a", "b", "c", "d"]

    def test_rejects_nonscalar_key(self):
        items = items_from([[1.0, 2.0]] * 4)
        with pytest.raises(NonScalarKey):
            pair_sorted_scalar(items, key=lambda it: it.covariates)

    def test_rejects_odd_count(self):
        with pytest.raises(OddClusterCount):
            pair_sorted_scalar(items_from([1.0, 2.0, 3.0]))

    def test_optimal_in_one_dimension(self, rng):
        for _ in range(30):
            xs = rng.normal(0.0, 1.0, 6)
            design = pair_sorted_scalar(items_from(xs))
            assert design_cost(design, xs) == pytest.approx(
                min_matching_cost(list(xs)), abs=1e-12
            )


class TestPairGreedyNn:
    def test_duplicates_pair_together(self):
        xs = [[0.0, 0.0], [5.0, 5.0], [0.0, 0.0], [5.0, 5.0]]
        design = pair_greedy_nn(items_from(xs))
        assert sorted(tuple(sorted(p)) for p in design.pairs()) == [(0, 2), (1, 3)]

    def test_include_size_changes_pairs(self):
        # identical covariates; sizes make (0,2) and (1,3) the natural pairs
        items = items_from([0.0, 0.0, 0.0, 0.0], sizes=[10, 100, 11, 99])
        base = pair_greedy_nn(items, include_size=False)
        sized = pair_greedy_nn(items, include_size=True)
        assert not base.matched_on_size
        assert sized.matched_on_size
        assert sorted(tuple(sorted(p)) for p in sized.pairs()) == [(0, 2), (1, 3)]

    def test_recovers_optimum_on_well_separated_twins(self, rng):
        # four far-apart centers with two jittered points each: every
        # cross-center edge is ~100x a twin edge, so greedy must pair twins
        # and therefore hit the brute-force optimum
        for _ in range(20):
            centers = 100.0 * rng.permutation(4).astype(float)
            xs = np.repeat(centers, 2) + rng.uniform(-0.1, 0.1, 8)
            design = pair_greedy_nn(items_from(xs))
            assert sorted(tuple(sorted(p)) for p in design.pairs()) == [
                (0, 1),
                (2, 3),
                (4, 5),
                (6, 7),
            ]
            assert design_cost(design, xs) <= min_matching_cost(list(xs)) + 1e-12

    def test_stores_zscored_features(self):
        items = items_from([1.0, 2.0, 3.0, 4.0], sizes=[1, 2, 3, 4])
        design = pair_greedy_nn(items, include_size=True)
        assert design.scores.shape == (4, 2)
        assert np.allclose(design.scores.mean(axis=0), 0.0, atol=1e-12)


@st.composite
def tied_items(draw):
    """Clusters on a small integer grid: many tied distances and duplicated
    points, with cluster ids in shuffled input order."""
    k = draw(st.sampled_from([1, 2, 3]))
    n = 2 * draw(st.integers(2, 15))
    grid = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    pool = draw(st.lists(grid, min_size=1, max_size=n))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    ids = [f"c{i:03d}" for i in draw(st.permutations(range(n)))]
    return items_from([np.array(r, dtype=float) for r in rows], sizes=sizes, ids=ids)


class TestAgainstTensorReference:
    """The row-per-step walks give the permutations of the n x n x k tensor code."""

    @settings(max_examples=300, deadline=None)
    @given(items=tied_items(), include_size=st.booleans())
    def test_greedy_nn_and_pair_order(self, items, include_size):
        design = pair_greedy_nn(items, include_size=include_size)
        reference = greedy_nn_reference(items, include_size=include_size)
        assert design.permutation == reference.permutation
        assert (
            order_pairs_for_variance(design, items).permutation
            == order_pairs_reference(reference, items).permutation
        )

    @settings(max_examples=200, deadline=None)
    @given(items=tied_items(), include_size=st.booleans(), data=st.data())
    def test_pair_order_of_any_design_without_scores(self, items, include_size, data):
        # designs read from CSV carry no scores; any pairing may come in
        perm = tuple(data.draw(st.permutations(range(len(items)))))
        design = MatchedDesign(
            permutation=perm, pair_count=len(items) // 2, matched_on_size=include_size
        )
        assert (
            order_pairs_for_variance(design, items).permutation
            == order_pairs_reference(design, items).permutation
        )


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_greedy_nn_rejects(self, bad):
        items = items_from([[0.0, 1.0], [1.0, 2.0], [2.0, bad], [3.0, 1.0]])
        with pytest.raises(DataError, match="'c002'"):
            pair_greedy_nn(items)

    def test_greedy_nn_rejects_selected_feature(self):
        items = items_from([0.0, 1.0, 2.0, 3.0])
        def feature(item):
            return [math.nan if item.cluster_id == "c003" else 0.0]

        with pytest.raises(DataError, match="'c003'"):
            pair_greedy_nn(items, features=feature)

    def test_sorted_scalar_rejects(self):
        items = items_from([0.0, math.nan, 2.0, 3.0])
        with pytest.raises(DataError, match="'c001'"):
            pair_sorted_scalar(items)

    def test_pair_order_rejects_when_recomputing_scores(self):
        items = items_from([0.0, 1.0, math.inf, 3.0])
        with pytest.raises(DataError, match="'c002'"):
            order_pairs_for_variance(identity_design(2), items)


def test_memory_is_linear_in_cluster_count():
    # 5000 pairs; the n x n x k distance tensors needed about 3 GiB here
    rng = np.random.default_rng(5000)
    n = 10_000
    items = items_from(rng.uniform(0.0, 1.0, n), sizes=rng.choice([10, 50], n).tolist())
    tracemalloc.start()
    try:
        design = pair_greedy_nn(items, include_size=True)
        order_pairs_for_variance(design, items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


class TestOrderPairsForVariance:
    def test_sorts_pairs_by_scalar_midpoint(self):
        items = items_from([4.0, 6.0, 0.0, 2.0, 2.0, 4.0])
        design = MatchedDesign(
            permutation=(0, 1, 2, 3, 4, 5), pair_count=3, matched_on_size=False
        )
        ordered = order_pairs_for_variance(design, items)
        # midpoints are 5, 1, 3 so the pair visit order is (2,3), (4,5), (0,1)
        assert ordered.permutation == (2, 3, 4, 5, 0, 1)

    def test_member_order_preserved(self):
        items = items_from([4.0, 6.0, 0.0, 2.0, 2.0, 4.0])
        design = MatchedDesign(
            permutation=(1, 0, 3, 2, 5, 4), pair_count=3, matched_on_size=False
        )
        ordered = order_pairs_for_variance(design, items)
        assert ordered.permutation == (3, 2, 5, 4, 1, 0)

    def test_idempotent(self, rng):
        xs = rng.normal(0.0, 1.0, (12, 2))
        design = pair_greedy_nn(items_from(list(xs)))
        once = order_pairs_for_variance(design, items_from(list(xs)))
        twice = order_pairs_for_variance(once, items_from(list(xs)))
        assert once.permutation == twice.permutation

    def test_matches_midpoint_sort_in_one_dimension(self, rng):
        for _ in range(10):
            xs = rng.normal(0.0, 1.0, 10)
            items = items_from(xs)
            design = pair_sorted_scalar(items)
            ordered = order_pairs_for_variance(design, items)
            mids = [0.5 * (xs[a] + xs[b]) for a, b in ordered.pairs()]
            assert mids == sorted(mids)


class TestImbalanceReport:
    def fixture(self):
        items = items_from([1.0, 2.0, 5.0, 3.0], sizes=[2, 2, 4, 4], ids=list("abcd"))
        design = MatchedDesign(
            permutation=(0, 1, 2, 3), pair_count=2, matched_on_size=True
        )
        return items, design

    def test_hand_values_within_pairs(self):
        items, design = self.fixture()
        rep = imbalance_report(design, items)
        # features (x, N): gaps are 1 for pair (a,b) and 2 for pair (c,d)
        assert rep.pair_discrepancies[(1, 0)] == pytest.approx(1.5)
        assert rep.pair_discrepancies[(1, 1)] == pytest.approx(5.0)
        assert rep.pair_discrepancies[(1, 2)] == pytest.approx(18.0)
        assert rep.pair_discrepancies[(2, 0)] == pytest.approx(2.5)
        assert rep.pair_discrepancies[(2, 1)] == pytest.approx(9.0)
        assert rep.pair_discrepancies[(2, 2)] == pytest.approx(34.0)
        # sizes agree within pairs, so symmetrization changes nothing here
        assert rep.pair_discrepancies_symmetrized == pytest.approx(rep.pair_discrepancies)
        assert rep.fourth_moment_sums == pytest.approx({1: 1.5, 2: 2.5, 3: 4.5, 4: 8.5})

    def test_hand_values_across_pairs(self):
        items, design = self.fixture()
        rep = imbalance_report(design, items)
        assert rep.popo_discrepancies[(2, 0)] == pytest.approx(10.0)
        assert rep.popo_discrepancies[(2, 1)] == pytest.approx(26.0)
        assert rep.popo_discrepancies[(3, 0)] == pytest.approx(16.0)
        assert rep.popo_discrepancies[(3, 1)] == pytest.approx(40.0)

    def test_ell_zero_invariant_under_member_swap(self, rng):
        xs = rng.normal(0.0, 1.0, 8)
        sizes = rng.integers(1, 9, 8)
        items = items_from(xs, sizes=list(sizes))
        design = MatchedDesign(
            permutation=tuple(range(8)), pair_count=4, matched_on_size=True
        )
        swapped = MatchedDesign(
            permutation=(1, 0, 3, 2, 5, 4, 7, 6), pair_count=4, matched_on_size=True
        )
        a = imbalance_report(design, items)
        b = imbalance_report(swapped, items)
        for r in (1, 2):
            assert a.pair_discrepancies[(r, 0)] == pytest.approx(
                b.pair_discrepancies[(r, 0)]
            )
            assert a.pair_discrepancies_symmetrized[(r, 1)] == pytest.approx(
                b.pair_discrepancies_symmetrized[(r, 1)]
            )
        assert a.fourth_moment_sums == pytest.approx(b.fourth_moment_sums)

    def test_covariate_only_reports_single_weight(self):
        items = items_from([1.0, 2.0, 5.0, 3.0])
        design = identity_design(2)
        rep = imbalance_report(design, items)
        assert set(rep.pair_discrepancies) == {(1, 0), (2, 0)}

    def test_json_keys_are_strings(self):
        items, design = self.fixture()
        payload = imbalance_report(design, items).to_json_dict()
        assert payload["pair_discrepancies"]["(1,1)"] == pytest.approx(5.0)
        assert payload["popo_discrepancies"]["(3,1)"] == pytest.approx(40.0)
        assert payload["fourth_moment_sums"]["4"] == pytest.approx(8.5)


class TestDesignIO:
    def test_round_trip(self, rng, tmp_path):
        xs = rng.normal(0.0, 1.0, 10)
        items = items_from(xs)
        design = pair_greedy_nn(items)
        path = tmp_path / "design.csv"
        write_design(design, items, path)
        back = read_design(path, items, matched_on_size=False)
        assert back.permutation == design.permutation
        assert back.pair_count == design.pair_count

    def test_matched_on_size_flag_passed_through(self, rng, tmp_path):
        items = items_from(rng.normal(0.0, 1.0, 6), sizes=[3, 1, 4, 1, 5, 9])
        design = pair_greedy_nn(items, include_size=True)
        path = tmp_path / "design.csv"
        write_design(design, items, path)
        back = read_design(path, items, matched_on_size=True)
        assert back.matched_on_size

    def test_unknown_cluster_rejected(self, tmp_path):
        items = items_from([1.0, 2.0, 3.0, 4.0])
        path = tmp_path / "design.csv"
        path.write_text(
            "pair_index,position,cluster_id\n0,0,c000\n0,1,ghost\n1,0,c002\n1,1,c003\n"
        )
        with pytest.raises(DataError):
            read_design(path, items)

    def test_incomplete_pairs_rejected(self, tmp_path):
        items = items_from([1.0, 2.0, 3.0, 4.0])
        path = tmp_path / "design.csv"
        path.write_text("pair_index,position,cluster_id\n0,0,c000\n0,1,c001\n2,0,c002\n2,1,c003\n")
        with pytest.raises(DataError):
            read_design(path, items)

    def test_design_over_part_of_the_data_rejected(self, tmp_path):
        items = items_from([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        path = tmp_path / "design.csv"
        path.write_text("pair_index,position,cluster_id\n0,0,c000\n0,1,c001\n1,0,c002\n1,1,c003\n")
        with pytest.raises(DataError, match="pairs 4 clusters but the data has 8"):
            read_design(path, items)


class TestAllPairingsHelper:
    def test_counts(self):
        assert sum(1 for _ in all_pairings(4)) == 3
        assert sum(1 for _ in all_pairings(6)) == 15
        assert sum(1 for _ in all_pairings(8)) == 105
