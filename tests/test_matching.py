import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_pairings,
    design_cost,
    feature_reference,
    identity_design,
    matching_reference,
    min_matching_cost,
    order_pairs_reference,
)
from pairedcrt.core import build_dataset
from pairedcrt.errors import DataError
from pairedcrt.matching import (
    MATCH_MODES,
    MatchedDesign,
    _AxisScan,
    _Unvisited,
    _ordered_design,
    imbalance_report,
    match_clusters,
    order_pairs_for_variance,
    pair_greedy_nn,
    pair_sorted_scalar,
    read_design,
    write_design,
    zscore,
)


def items_from(xs, sizes=None, ids=None):
    """A clusters-only dataset; rows are sorted by id, so give ids in order
    wherever a test indexes rows by input position."""
    m = len(xs)
    sizes = sizes or [1] * m
    ids = ids or [f"c{i:03d}" for i in range(m)]
    return build_dataset(ids, sizes, np.array(xs, dtype=float).reshape(m, -1))


class TestMatchedDesign:
    def test_rejects_non_bijection(self):
        for permutation in [
            (0, 1, 1, 2),  # a repeated entry
            (0, 1, 2, 4),  # an entry out of range
            (0, 1, 2, -1),  # a negative entry
            (0, 1, 2),  # an odd length
            (0, 1, 2, 3, 3),  # an odd length by a repeat: the same set as 0..3
            # entries equal to 0..3 that are not integers
            (0.0, 1.0, 2.0, 3.0),
            (0, 1, np.float64(2.0), 3),
            (0, True, 2, 3),
            (False, 1, 2, 3),
            (np.True_, 0, 2, 3),
            (0, 1, 2, 2**64 + 3),  # an integer beyond int64
        ]:
            with pytest.raises(DataError, match="not a bijection"):
                MatchedDesign(permutation=permutation, mode="nn_x")

    def test_accepts_numpy_integers(self):
        design = MatchedDesign((np.int64(1), np.uint8(0), np.int32(3), 2), "nn_x")
        assert design.pairs() == [(1, 0), (3, 2)]

    def test_pairs(self):
        d = MatchedDesign(permutation=(2, 0, 3, 1), mode="nn_x")
        assert d.pairs() == [(2, 0), (3, 1)]

    def test_pair_count_follows_the_permutation(self):
        assert [f.name for f in dataclasses.fields(MatchedDesign)] == ["permutation", "mode"]
        for g in (0, 1, 3):
            assert MatchedDesign(tuple(range(2 * g)), "nn_x").pair_count == g

    def test_unknown_mode_is_an_argument_error(self):
        # one rule, and one message, for the mode of a design and of matching
        items = items_from([0.0, 1.0, 2.0, 3.0])
        for mode in ("bogus", "", None):
            with pytest.raises(ValueError, match="unknown match mode") as built:
                MatchedDesign((0, 1, 2, 3), mode)
            with pytest.raises(ValueError) as matched:
                match_clusters(items, mode)
            assert not isinstance(built.value, DataError)
            assert str(built.value) == str(matched.value)


class TestVarianceOrderMark:
    """Only ``order_pairs_for_variance`` marks a design as in variance
    order; the mark is no field, argument or part of a design's value."""

    def test_only_ordering_marks(self, tmp_path):
        items = items_from([0.3, 5.0, 0.0, 1.0, 4.0, 2.0])
        plain = MatchedDesign((0, 1, 2, 3, 4, 5), "nn_x")
        ordered = order_pairs_for_variance(plain, items)
        assert not plain._variance_ordered and ordered._variance_ordered
        assert match_clusters(items, "nn_x")._variance_ordered
        assert not pair_greedy_nn(items)._variance_ordered
        assert not pair_sorted_scalar(items)._variance_ordered
        assert not dataclasses.replace(ordered)._variance_ordered
        path = tmp_path / "design.csv"
        write_design(ordered, items, path)
        assert not read_design(path, items)._variance_ordered

    def test_the_mark_leaves_equality_hash_and_repr_alone(self):
        plain = MatchedDesign((2, 3, 0, 1), "nn_x")
        marked = _ordered_design((2, 3, 0, 1), "nn_x")
        assert marked._variance_ordered
        assert marked == plain and hash(marked) == hash(plain)
        assert repr(marked) == repr(plain) == "MatchedDesign(permutation=(2, 3, 0, 1), mode='nn_x')"
        with pytest.raises(TypeError):
            MatchedDesign((0, 1, 2, 3), "nn_x", True)

    def test_ordering_a_marked_design_computes_the_order(self):
        items = items_from([0.0, 0.1, 5.0, 5.1, 1.0, 1.1])
        # marked, but pairs 1 and 2 out of variance order
        marked = _ordered_design((0, 1, 2, 3, 4, 5), "nn_x")
        assert order_pairs_for_variance(marked, items).permutation == (0, 1, 4, 5, 2, 3)


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

    def test_ties_break_by_cluster_id(self):
        items = items_from([1.0, 1.0, 1.0, 1.0], ids=["d", "c", "b", "a"])
        design = pair_sorted_scalar(items)
        ids = [items.cluster_ids[i] for i in design.permutation]
        assert ids == ["a", "b", "c", "d"]

    def test_rejects_odd_count(self):
        with pytest.raises(DataError, match="^need an even cluster count >= 4, got 3$"):
            pair_sorted_scalar(items_from([1.0, 2.0, 3.0]))

    def test_rejects_missing_covariate(self):
        no_covariates = build_dataset("abcd", [1, 2, 3, 4], np.empty((4, 0)))
        with pytest.raises(DataError, match="covariate x1"):
            pair_sorted_scalar(no_covariates)
        with pytest.raises(DataError, match="no covariates"):
            pair_greedy_nn(no_covariates)
        # cluster size alone is a feature
        assert pair_greedy_nn(no_covariates, "nn_xn").pair_count == 2

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
        base = pair_greedy_nn(items, "nn_x")
        sized = pair_greedy_nn(items, "nn_xn")
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

    def test_rejects_modes_it_does_not_run(self):
        items = items_from([1.0, 2.0, 3.0, 4.0])
        for mode in ("sorted_x", "optimal", True):
            with pytest.raises(ValueError, match="'nn_x' or 'nn_xn'"):
                pair_greedy_nn(items, mode)

    def test_records_its_mode(self):
        items = items_from([1.0, 2.0, 3.0, 4.0], sizes=[1, 2, 3, 4])
        assert pair_greedy_nn(items, "nn_xn").mode == "nn_xn"
        assert pair_greedy_nn(items).mode == "nn_x"
        assert pair_sorted_scalar(items).mode == "sorted_x"


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


@st.composite
def wide_items(draw):
    """Up to 300 clusters in 1 to 9 features, continuous, rounded to one
    decimal or on an integer grid, with the first feature as drawn,
    constant or on three values: enough rows for the axis scan to spend its
    budget and hand over to the distance rows."""
    values = draw(st.sampled_from(["normal", "rounded", "grid"]))
    first = draw(st.sampled_from(["as drawn", "constant", "three values"]))
    # n and k from the seed: hypothesis would favour the smallest
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = int(rng.integers(1, 10))
    n = 2 * int(rng.integers(2, 151))
    if values == "grid":
        x = rng.integers(-2, 3, (n, k)).astype(float)
    else:
        x = rng.normal(0.0, 1.0, (n, k))
        if values == "rounded":
            x = np.round(x, 1)
    if first == "constant":
        x[:, 0] = 1.5
    elif first == "three values":
        x[:, 0] = rng.integers(0, 3, n)
    sizes = rng.choice([1, 2, 3, 10, 50], n).tolist()
    ids = [f"c{i:03d}" for i in rng.permutation(n)]
    return items_from(x, sizes=sizes, ids=ids)


def greedy_walk_on_both(scan, rows, n):
    """Greedy pairing of ``n`` rows on an axis scan and on distance rows,
    step by step: each takes the lowest untaken row with ``take``, then its
    nearest, and both must agree. Returns whether the scan had handed over
    to the distance rows after each pair."""
    taken = bytearray(n)
    seed, handed_over = 0, []
    for _ in range(n // 2):
        while taken[seed]:
            seed += 1
        assert scan.take(seed) == rows.take(seed) == seed
        mate = scan.take_nearest()
        assert mate == rows.take_nearest()
        taken[seed] = taken[mate] = 1
        handed_over.append(isinstance(scan.take_nearest.__self__, _Unvisited))
    return handed_over


class TestAgainstTensorReference:
    """The axis scan, the row-per-step walks and the one-column sort give the
    permutations of the sort and n x n x k tensor code, in every match mode."""

    @settings(max_examples=300, deadline=None)
    @given(items=tied_items(), mode=st.sampled_from(MATCH_MODES))
    def test_greedy_nn_and_pair_order(self, items, mode):
        if mode == "sorted_x":
            design = pair_sorted_scalar(items)
        else:
            design = pair_greedy_nn(items, mode)
        reference = matching_reference(items, mode)
        assert design.permutation == reference.permutation
        assert (
            order_pairs_for_variance(design, items).permutation
            == order_pairs_reference(reference, items).permutation
        )
        assert match_clusters(items, mode) == order_pairs_for_variance(design, items)

    @settings(max_examples=200, deadline=None)
    @given(items=tied_items(), mode=st.sampled_from(MATCH_MODES), data=st.data())
    def test_pair_order_of_any_design_without_scores(self, items, mode, data):
        # any pairing may come in from a CSV; the mode alone names the features
        perm = tuple(data.draw(st.permutations(range(items.n_clusters))))
        design = MatchedDesign(permutation=perm, mode=mode)
        assert (
            order_pairs_for_variance(design, items).permutation
            == order_pairs_reference(design, items).permutation
        )


    @settings(max_examples=150, deadline=None)
    @given(items=wide_items(), mode=st.sampled_from(MATCH_MODES), data=st.data())
    def test_wide_inputs_with_any_design(self, items, mode, data):
        if mode == "sorted_x":
            design = pair_sorted_scalar(items)
        else:
            design = pair_greedy_nn(items, mode)
        reference = matching_reference(items, mode)
        assert design.permutation == reference.permutation
        assert (
            order_pairs_for_variance(design, items).permutation
            == order_pairs_reference(reference, items).permutation
        )
        perm = tuple(data.draw(st.permutations(range(items.n_clusters))))
        drawn = MatchedDesign(permutation=perm, mode=mode)
        assert (
            order_pairs_for_variance(drawn, items).permutation
            == order_pairs_reference(drawn, items).permutation
        )

    def test_scan_sums_as_the_distance_rows(self):
        # first features 0.0, 0.1, ... and the others on a grid of tenths:
        # distances equal in exact arithmetic differ in rounding, so which
        # row is nearest turns on summing d * d left to right, as numpy does
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n, k = 2 * int(rng.integers(5, 60)), int(rng.integers(2, 8))
            points = rng.integers(0, 4, (n, k)) / 10
            points[:, 0] = rng.permutation(n) / 10
            greedy_walk_on_both(_AxisScan(points), _Unvisited(points), n)

    def test_scan_hands_over_mid_walk(self):
        # 200 clusters on a line cost the scan a row or two per query; the 200
        # after them share x1, so each of their queries examines every
        # untaken row of the block, and once the budget is spent the untaken
        # rows go to the distance rows
        rng = np.random.default_rng(11)
        line = np.column_stack((np.arange(200.0), np.zeros(200)))
        block = np.column_stack((np.full(200, 300.0), rng.normal(0.0, 1.0, 200)))
        items = items_from(np.vstack((line, block)))
        z = zscore(items.X)
        handed_over = greedy_walk_on_both(_AxisScan(z), _Unvisited(z), items.n_clusters)
        assert 100 < handed_over.index(True) < 150
        design = pair_greedy_nn(items)
        assert design.permutation == matching_reference(items, "nn_x").permutation
        assert (
            order_pairs_for_variance(design, items).permutation
            == order_pairs_reference(design, items).permutation
        )

    def test_scan_hands_over_at_the_start(self):
        # x1 is constant, so it prunes nothing: the first query examines every
        # untaken row, and the budget hands over after it
        rng = np.random.default_rng(12)
        items = items_from(np.column_stack((np.zeros(200), rng.normal(0.0, 1.0, 200))))
        z = zscore(items.X)
        handed_over = greedy_walk_on_both(_AxisScan(z), _Unvisited(z), items.n_clusters)
        assert handed_over[1:] == [True] * (items.n_pairs - 1)


def optimal_matching_cost(points):
    """The least total within-pair Euclidean distance over all perfect
    matchings of the rows of ``points``, by Edmonds' blossom algorithm from
    networkx (a test-only dependency)."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    n = len(points)
    for a in range(n):
        for b in range(a + 1, n):
            graph.add_edge(a, b, weight=float(np.linalg.norm(points[a] - points[b])))
    matching = nx.min_weight_matching(graph)
    assert len(matching) == n // 2
    return sum(graph[a][b]["weight"] for a, b in matching)


class TestAgainstOptimalMatching:
    """Sorting on x1 attains the minimum-weight perfect matching in one
    dimension, and greedy pairing, in the features it matches on, never
    does better than that minimum."""

    PAIR_COUNTS = (2, 3, 5, 8, 13, 21, 30, 40)

    @pytest.mark.parametrize("values", ["continuous", "grid"])
    def test_sorted_scalar_is_optimal(self, values):
        rng = np.random.default_rng(7)
        for g in self.PAIR_COUNTS:
            if values == "grid":  # many ties
                x = rng.integers(-5, 6, 2 * g).astype(float)
            else:
                x = rng.normal(0.0, 1.0, 2 * g)
            cost = design_cost(pair_sorted_scalar(items_from(x)), x)
            assert cost == pytest.approx(optimal_matching_cost(x[:, None]), rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("mode", ["nn_x", "nn_xn"])
    def test_greedy_never_beats_the_optimum(self, mode):
        rng = np.random.default_rng(8)
        for g in self.PAIR_COUNTS:
            x = rng.normal(0.0, 1.0, (2 * g, 2))
            sizes = rng.integers(5, 60, 2 * g).tolist()
            items = items_from(x, sizes=sizes)
            z = zscore(feature_reference(items, mode))
            design = pair_greedy_nn(items, mode)
            cost = sum(float(np.linalg.norm(z[a] - z[b])) for a, b in design.pairs())
            assert cost >= optimal_matching_cost(z) - 1e-9


class TestNonFiniteFeatures:
    """A Dataset never holds a non-finite covariate, so none reaches a matcher."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_greedy_nn_rejects(self, bad):
        with pytest.raises(DataError, match="'c002'"):
            pair_greedy_nn(items_from([[0.0, 1.0], [1.0, 2.0], [2.0, bad], [3.0, 1.0]]))

    def test_sorted_scalar_rejects(self):
        with pytest.raises(DataError, match="'c001'"):
            pair_sorted_scalar(items_from([0.0, math.nan, 2.0, 3.0]))

    def test_pair_order_rejects_when_recomputing_scores(self):
        with pytest.raises(DataError, match="'c002'"):
            order_pairs_for_variance(identity_design(2), items_from([0.0, 1.0, math.inf, 3.0]))


def test_memory_is_linear_in_cluster_count():
    # 5000 pairs; the n x n x k distance tensors needed about 3 GiB here
    rng = np.random.default_rng(5000)
    n = 10_000
    items = items_from(rng.uniform(0.0, 1.0, n), sizes=rng.choice([10, 50], n).tolist())
    tracemalloc.start()
    try:
        design = pair_greedy_nn(items, "nn_xn")
        order_pairs_for_variance(design, items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


class TestOrderPairsForVariance:
    def test_sorts_pairs_by_scalar_midpoint(self):
        items = items_from([4.0, 6.0, 0.0, 2.0, 2.0, 4.0])
        design = MatchedDesign(permutation=(0, 1, 2, 3, 4, 5), mode="nn_x")
        ordered = order_pairs_for_variance(design, items)
        # midpoints are 5, 1, 3 so the pair visit order is (2,3), (4,5), (0,1)
        assert ordered.permutation == (2, 3, 4, 5, 0, 1)

    def test_member_order_preserved(self):
        items = items_from([4.0, 6.0, 0.0, 2.0, 2.0, 4.0])
        design = MatchedDesign(permutation=(1, 0, 3, 2, 5, 4), mode="nn_x")
        ordered = order_pairs_for_variance(design, items)
        assert ordered.permutation == (3, 2, 5, 4, 1, 0)

    def test_idempotent(self, rng):
        xs = rng.normal(0.0, 1.0, (12, 2))
        design = pair_greedy_nn(items_from(list(xs)))
        once = order_pairs_for_variance(design, items_from(list(xs)))
        twice = order_pairs_for_variance(once, items_from(list(xs)))
        assert once.permutation == twice.permutation

    @settings(max_examples=200, deadline=None)
    @given(
        items=st.one_of(tied_items(), wide_items()),
        mode=st.sampled_from(MATCH_MODES),
        data=st.data(),
    )
    def test_order_depends_only_on_the_pairs(self, items, mode, data):
        # the pairs may come in any order, members kept in theirs, and an
        # ordered design passes through unchanged, which lets the command
        # line reorder every design it reads
        perm = data.draw(st.permutations(range(items.n_clusters)))
        design = MatchedDesign(permutation=tuple(perm), mode=mode)
        pairs = data.draw(st.permutations(design.pairs()))
        shuffled = MatchedDesign(permutation=tuple(c for pair in pairs for c in pair), mode=mode)
        ordered = order_pairs_for_variance(design, items)
        assert order_pairs_for_variance(shuffled, items) == ordered
        assert order_pairs_for_variance(ordered, items) == ordered

    def test_matches_midpoint_sort_in_one_dimension(self, rng):
        for _ in range(10):
            xs = rng.normal(0.0, 1.0, 10)
            items = items_from(xs)
            design = pair_sorted_scalar(items)
            ordered = order_pairs_for_variance(design, items)
            mids = [0.5 * (xs[a] + xs[b]) for a, b in ordered.pairs()]
            assert mids == sorted(mids)


    def test_rounding_ties_follow_the_walk(self):
        # the pairs (1,0) and (3,4) both have raw midpoint 1, but their z-scored
        # midpoints differ in the last bit and round to one distance from the
        # first pair, so the walk, and the ordering, takes (1,0) first
        items = items_from([1.0, 1.0, -1.0, 2.0, 0.0, 2.0])
        design = MatchedDesign(permutation=(1, 0, 3, 4, 2, 5), mode="nn_x")
        ordered = order_pairs_for_variance(design, items)
        assert ordered.permutation == (2, 5, 1, 0, 3, 4)
        assert ordered == order_pairs_reference(design, items)
        z = zscore(items.X)[:, 0]
        assert 0.5 * (z[1] + z[0]) > 0.5 * (z[3] + z[4])  # not the midpoints' sort order

    def test_sorted_x_orders_on_x1_alone(self, rng):
        xs = rng.normal(0.0, 1.0, (40, 2))
        items = items_from(list(xs))
        design = match_clusters(items, "sorted_x")
        x1_only = items_from(list(xs[:, 0]))
        assert design == match_clusters(x1_only, "sorted_x")
        assert design == order_pairs_for_variance(
            MatchedDesign(permutation=design.permutation, mode="sorted_x"), items
        )


class TestImbalanceReport:
    def fixture(self):
        items = items_from([1.0, 2.0, 5.0, 3.0], sizes=[2, 2, 4, 4], ids=list("abcd"))
        design = MatchedDesign(permutation=(0, 1, 2, 3), mode="nn_xn")
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
        design = MatchedDesign(permutation=tuple(range(8)), mode="nn_xn")
        swapped = MatchedDesign(permutation=(1, 0, 3, 2, 5, 4, 7, 6), mode="nn_xn")
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

    def test_features_follow_the_mode(self):
        xs = [[1.0, 9.0], [2.0, 0.0], [5.0, 4.0], [3.0, 1.0]]
        items = items_from(xs, sizes=[2, 2, 4, 4])
        x1_only = items_from([x for x, _ in xs], sizes=[2, 2, 4, 4])
        for mode, other in (("sorted_x", x1_only), ("nn_x", items)):
            design = MatchedDesign(permutation=(0, 1, 2, 3), mode=mode)
            got = imbalance_report(design, items).to_json_dict()
            assert got == imbalance_report(identity_design(2), other).to_json_dict()

    def test_json_keys_are_strings(self):
        items, design = self.fixture()
        payload = imbalance_report(design, items).to_json_dict()
        assert payload["pair_discrepancies"]["(1,1)"] == pytest.approx(5.0)
        assert payload["popo_discrepancies"]["(3,1)"] == pytest.approx(40.0)
        assert payload["fourth_moment_sums"]["4"] == pytest.approx(8.5)


class TestDesignMustCoverTheData:
    @pytest.mark.parametrize("design_pairs,data_pairs", [(4, 3), (3, 4)])
    def test_rejected_by_every_function(self, tmp_path, design_pairs, data_pairs):
        design = match_clusters(items_from(np.arange(2.0 * design_pairs)), "nn_x")
        items = items_from(np.arange(2.0 * data_pairs))
        message = (
            f"the design covers {2 * design_pairs} clusters "
            f"but the data has {2 * data_pairs}$"
        )
        with pytest.raises(DataError, match=message):
            order_pairs_for_variance(design, items)
        with pytest.raises(DataError, match=message):
            imbalance_report(design, items)
        path = tmp_path / "design.csv"
        with pytest.raises(DataError, match=message):
            write_design(design, items, path)
        assert not path.exists()


class TestDesignIO:
    def test_round_trip(self, rng, tmp_path):
        xs = rng.normal(0.0, 1.0, 10)
        items = items_from(xs)
        design = pair_greedy_nn(items)
        path = tmp_path / "design.csv"
        write_design(design, items, path)
        back = read_design(path, items)
        assert back.permutation == design.permutation
        assert back.pair_count == design.pair_count

    def test_matched_on_size_flag_passed_through(self, rng, tmp_path):
        items = items_from(rng.normal(0.0, 1.0, 6), sizes=[3, 1, 4, 1, 5, 9])
        design = pair_greedy_nn(items, "nn_xn")
        path = tmp_path / "design.csv"
        write_design(design, items, path)
        back = read_design(path, items)
        assert back.matched_on_size

    @pytest.mark.parametrize("mode", MATCH_MODES)
    def test_round_trip_keeps_the_mode(self, rng, tmp_path, mode):
        items = items_from(rng.normal(0.0, 1.0, (10, 2)), sizes=[3, 1, 4, 1, 5, 9, 2, 6, 5, 3])
        design = match_clusters(items, mode)
        path = tmp_path / "design.csv"
        write_design(design, items, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "pair_index,position,cluster_id,mode"
        assert all(line.endswith(f",{mode}") for line in lines[1:])
        assert read_design(path, items) == design

    def test_byte_order_mark_dropped(self, rng, tmp_path):
        items = items_from(rng.normal(0.0, 1.0, 6))
        design = pair_greedy_nn(items)
        path = tmp_path / "design.csv"
        write_design(design, items, path)
        text = "\ufeff" + path.read_text(encoding="utf-8")
        path.write_text(text, encoding="utf-8")
        assert read_design(path, items) == design

    def test_missing_mode_column_is_data_error(self, tmp_path):
        # the mode decides pair ordering and the variance estimate, so a
        # design that does not name it is rejected, not read with a guess
        items = items_from([1.0, 2.0, 3.0, 4.0])
        path = tmp_path / "design.csv"
        path.write_text("pair_index,position,cluster_id\n0,0,c000\n0,1,c001\n1,0,c002\n1,1,c003\n")
        with pytest.raises(DataError, match="design CSV has no mode column"):
            read_design(path, items)

    @pytest.mark.parametrize(
        "modes,message",
        [
            (("nn_x", "nn_x", "optimal", "nn_x"), "line 6: unknown mode 'optimal'"),
            (("nn_x", "nn_x", "nn_x", "nn_xn"), "line 7: mode 'nn_xn' where earlier rows"),
            (("sorted_x", "", "sorted_x", "sorted_x"), "line 4: unknown mode ''"),
        ],
    )
    def test_bad_or_mixed_mode_names_its_line(self, tmp_path, modes, message):
        items = items_from([1.0, 2.0, 3.0, 4.0], ids=["c0", "c\n1", "c2", "c3"])
        path = tmp_path / "design.csv"
        rows = ["0,0,c0", '0,1,"c\n1"', "1,0,c2", "1,1,c3"]
        body = "\n".join(f"{row},{mode}" for row, mode in zip(rows, modes))
        path.write_text(f"pair_index,position,cluster_id,mode\n\n{body}\n")  # row 1 on line 3
        with pytest.raises(DataError, match=message):
            read_design(path, items)

    def test_unknown_cluster_rejected(self, tmp_path):
        items = items_from([1.0, 2.0, 3.0, 4.0])
        path = tmp_path / "design.csv"
        path.write_text(
            "pair_index,position,cluster_id\n0,0,c000\n0,1,ghost\n1,0,c002\n1,1,c003\n"
        )
        with pytest.raises(DataError):
            read_design(path, items)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("x,1,c001", "line 3: bad pair_index 'x'"),
            ("0,1", "line 3: 2 fields where the header has 3"),
            ("0,1,c001,c004", "line 3: 4 fields where the header has 3"),
            ("0,2,c001", "line 3: position 2 not in"),
            ("0,0,c001", "line 3: duplicate slot pair=0 position=0"),
            ("-1,1,c001", "complete pairs"),
        ],
    )
    def test_malformed_row_names_its_line(self, tmp_path, row, message):
        items = items_from([1.0, 2.0, 3.0, 4.0])
        path = tmp_path / "design.csv"
        path.write_text(f"pair_index,position,cluster_id\n0,0,c000\n{row}\n1,0,c002\n1,1,c003\n")
        with pytest.raises(DataError, match=message):
            read_design(path, items)

    @pytest.mark.parametrize("missing", ["pair_index", "position", "cluster_id"])
    def test_header_without_a_required_column_is_data_error(self, tmp_path, missing):
        items = items_from([1.0, 2.0, 3.0, 4.0])
        path = tmp_path / "design.csv"
        write_design(identity_design(2), items, path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        drop = rows[0].index(missing)
        path.write_text("".join(",".join(r[:drop] + r[drop + 1 :]) + "\n" for r in rows))
        message = r"design CSV header must contain \['cluster_id', 'pair_index', 'position'\]"
        with pytest.raises(DataError, match=message):
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
