import csv
import dataclasses
import io
import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_same_columns,
    assert_same_units,
    csr,
    identity_design,
    make_dataset,
    random_dataset,
    read_units,
    trial_units,
    unit_dataset,
    write_dataset,
)
from pairedcrt import core
from pairedcrt.core import (
    _Workspace,
    _certified_sums,
    _cluster_sums,
    _field_offsets,
    _read_csv,
    _unit_columns,
    build_dataset,
    load_dataset,
    read_clusters,
    write_clusters,
)
from pairedcrt.errors import DataError
from pairedcrt.inference import infer
from pairedcrt.matching import read_design, write_design
from pairedcrt.simulation import preset


def table(ids="abcd", n=2, outs=None, xs=None, t=None):
    """Build a dataset of one unit per cluster; keyword values override cluster 0."""
    m = len(ids)
    n_total = [n] + [2] * (m - 1)
    outcomes = [(1.0,)] * m if outs is None else [outs] + [(1.0,)] * (m - 1)
    covariates = [(0.0,)] * m if xs is None else [xs] + [(0.0,)] * (m - 1)
    flat, offsets = csr(outcomes)
    return build_dataset(list(ids), n_total, covariates, t, flat, offsets)


class TestBuildDataset:
    def test_sorts_by_cluster_id(self):
        # each cluster's outcomes travel with it into n_sampled and ybar
        flat, offsets = csr([(2.0,), (4.0, 4.5), (1.0,), (3.0,)])
        ds = build_dataset(
            ["b", "d", "a", "c"], [2, 4, 1, 3], [[2.0], [4.0], [1.0], [3.0]], [0, 1, 1, 0],
            flat, offsets,
        )  # fmt: skip
        assert ds.cluster_ids == ("a", "b", "c", "d")
        assert ds.n_total.tolist() == [1, 2, 3, 4]
        assert ds.X.tolist() == [[1.0], [2.0], [3.0], [4.0]]
        assert ds.treatment.tolist() == [1, 0, 0, 1]
        assert ds.n_sampled.tolist() == [1, 1, 1, 2]
        assert ds.ybar.tolist() == [1.0, 2.0, 3.0, 4.25]
        assert ds.covariate_dim == 1
        assert ds.n_pairs == 2

    def test_columns_are_read_only(self):
        ds = table()
        for column in (ds.n_total, ds.X, ds.n_sampled, ds.ybar):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_rejects_odd_or_tiny_counts(self):
        with pytest.raises(DataError, match="^need an even cluster count >= 4, got 2$"):
            table(ids="ab")
        with pytest.raises(DataError, match="^need an even cluster count >= 4, got 5$"):
            table(ids="abcde")

    def test_rejects_ragged_covariates(self):
        with pytest.raises(DataError, match="^covariates do not form one row per cluster: "):
            build_dataset("abcd", [2] * 4, [[0.0], [0.0], [0.0], [0.0, 1.0]])
        message = r"^covariates must have shape \(clusters, k\), got \(4,\)$"
        with pytest.raises(DataError, match=message):
            build_dataset("abcd", [2] * 4, [0.0, 0.0, 0.0, 0.0])

    def test_rejects_partial_treatments(self):
        with pytest.raises(DataError, match="^treatment present for some clusters but not all$"):
            table(t=[1, 0, None, None])

    def test_rejects_empty_cluster(self):
        with pytest.raises(DataError, match="^cluster 'a' has no sampled units$"):
            table(outs=())

    def test_rejects_oversampled_cluster(self):
        with pytest.raises(DataError, match="^cluster 'a': 2 sampled units exceed n_total=1$"):
            table(n=1, outs=(1.0, 2.0))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(DataError, match="^cluster 'a': outcome nan$"):
            table(outs=(1.0, math.nan))
        with pytest.raises(DataError, match="'a'.*not finite"):
            table(xs=(math.inf,))

    def test_rejects_nonbinary_treatment(self):
        with pytest.raises(DataError, match=r"^cluster 'a': treatment 2 not in \{0, 1\}$"):
            table(t=[2, 0, 1, 0])
        # the first bad cluster in id order, as the other column checks name
        with pytest.raises(DataError, match=r"^cluster 'a': treatment 3 not in \{0, 1\}$"):
            table(ids="dcba", t=[0, 2, 0, 3])

    @pytest.mark.parametrize(
        "ids,message",
        [
            # sorted as integers, but the CSV files compare ids as strings
            ([10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 11, 12], "^cluster_id 10 is not a string$"),
            ([1, "a", "b", "c"], "^cluster_id 1 is not a string$"),
            ([b"a", b"b", b"c", b"d"], "^cluster_id b'a' is not a string$"),
        ],
    )
    def test_rejects_ids_that_are_not_strings(self, ids, message):
        with pytest.raises(DataError, match=message):
            build_dataset(ids, [1] * len(ids), [[0.0]] * len(ids))

    def test_numpy_string_ids_are_strings(self):
        ds = build_dataset(np.array(["b", "a", "d", "c"]), [1] * 4, [[0.0]] * 4)
        assert ds.cluster_ids == ("a", "b", "c", "d")

    @pytest.mark.parametrize(
        "sizes,outcomes,message",
        [
            ([1, 2, 1, 1], [(1.0,), (), (1.0,), ()], "^cluster 'c001' has no sampled units$"),
            (
                [1, 2, 1, 1],
                [(1.0,), (1.0, 2.0, 3.0), (1.0, 2.0), (1.0,)],
                "^cluster 'c001': 3 sampled units exceed n_total=2$",
            ),
            (
                [4, 4, 4, 4],
                [(1.0,), (2.0, math.nan, math.inf), (1.0,), (math.inf,)],
                "^cluster 'c001': outcome nan$",
            ),
            # the two overflowing clusters of
            # TestSummarize.test_overflow_behind_a_finite_prefix_sum_rejected
            (
                [1, 3, 1, 2],
                [(-1e308,), (1e308, 1e308, -1e308), (0.0,), (1.5e308, 1.5e308)],
                "^cluster 'c001': the sum of its outcomes overflows$",
            ),
        ],
        ids=["empty", "oversampled", "nan", "overflow"],
    )
    def test_permuted_input_names_the_same_cluster(self, sizes, outcomes, message):
        ids = ["c000", "c001", "c002", "c003"]
        for order in ([0, 1, 2, 3], [3, 2, 1, 0]):
            flat, offsets = csr([outcomes[g] for g in order])
            with pytest.raises(DataError, match=message):
                build_dataset(
                    [ids[g] for g in order], [sizes[g] for g in order], [[0.0]] * 4, None,
                    flat, offsets,
                )  # fmt: skip

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_shuffled_ids_give_the_same_summaries(self, data):
        pairs = data.draw(st.integers(2, 6))
        cluster = st.lists(hard_outcomes, min_size=1, max_size=8)
        clusters = data.draw(st.lists(cluster, min_size=2 * pairs, max_size=2 * pairs))
        order = data.draw(st.permutations(range(2 * pairs)))

        def build(order):
            flat, offsets = csr([clusters[g] for g in order])
            ids = [f"c{g:02d}" for g in order]
            return build_dataset(ids, [8] * len(ids), [[0.0]] * len(ids), None, flat, offsets)

        want = _dataset_or_error(lambda: build(range(2 * pairs)))
        got = _dataset_or_error(lambda: build(order))
        if isinstance(want, tuple):
            assert got == want  # the same cluster overflows
        else:
            assert_same_bits(got.n_sampled, want.n_sampled)
            assert_same_bits(got.ybar, want.ybar)

    def test_rejects_bad_columns(self):
        with pytest.raises(DataError, match="n_total"):
            table(n=0)
        with pytest.raises(DataError, match="n_total"):
            build_dataset("abcd", [2.0] * 4, [[0.0]] * 4)
        with pytest.raises(DataError, match="duplicate cluster_id 'a'"):
            build_dataset("abca", [2] * 4, [[0.0]] * 4)
        with pytest.raises(DataError, match="offsets"):
            build_dataset("abcd", [2] * 4, [[0.0]] * 4, outcomes=[1.0] * 4, offsets=[0, 1, 2, 3])
        with pytest.raises(DataError, match="together"):
            build_dataset("abcd", [2] * 4, [[0.0]] * 4, outcomes=[1.0] * 4)

    def test_with_treatments(self):
        ds = table()
        assert ds.treatment is None
        ds2 = ds.with_treatments([1, 0, 0, 1])
        assert ds2.treatment is not None
        assert ds2.treatment.tolist() == [1, 0, 0, 1]
        assert ds2.ybar is ds.ybar
        with pytest.raises(DataError, match="^expected 4 treatments, got 2$"):
            ds.with_treatments([1, 0])
        with pytest.raises(DataError, match=r"^cluster 'c': treatment 2 not in \{0, 1\}$"):
            ds.with_treatments([1, 0, 2, 0])


class TestSummarize:
    """The per-cluster summaries build_dataset computes: |S_g| and ybar."""

    def test_means_and_order(self):
        ds = make_dataset(
            sizes=[3, 2, 4, 2],
            outcomes=[(1.0, 2.0, 3.0), (0.5,), (4.0, 0.0), (2.0, 2.0)],
            treatments=[1, 0, 0, 1],
        )
        assert ds.cluster_ids == ("c000", "c001", "c002", "c003")
        assert ds.ybar.tolist() == pytest.approx([2.0, 0.5, 2.0, 2.0])
        assert ds.n_sampled.tolist() == [3, 1, 2, 2]
        assert ds.treatment.tolist() == [1, 0, 0, 1]

    def test_overflowing_sum_rejected(self):
        with pytest.raises(DataError, match="'c000'.*overflows"):
            make_dataset(sizes=[2, 1, 1, 1], outcomes=[(1e308, 1e308), (0.0,), (0.0,), (0.0,)])

    def test_mean_is_the_exactly_rounded_sum(self):
        # a left-to-right sum gives 0.0 here; math.fsum gives the exact 1.0
        ds = make_dataset(sizes=[3, 1, 1, 1], outcomes=[(1e16, 1.0, -1e16), (0.0,), (0.0,), (0.0,)])
        assert ds.ybar[0] == 1.0 / 3.0

    def test_overflow_behind_a_finite_prefix_sum_rejected(self):
        # the global prefix sums stay finite (-1e308, 0, 1e308, 0) and give
        # 1e308 exactly, but math.fsum overflows on the second cluster, the
        # first of two that overflow
        with pytest.raises(DataError, match="^cluster 'c001': the sum of its outcomes overflows$"):
            make_dataset(
                sizes=[1, 3, 1, 2],
                outcomes=[(-1e308,), (1e308, 1e308, -1e308), (0.0,), (1.5e308, 1.5e308)],
            )

    def test_negative_zero_cluster_keeps_the_fsum_mean(self):
        # a plain sum of [-0.0] is -0.0; math.fsum decides the sign of a zero
        # sum (0.0 on CPython), and ybar keeps its value bit for bit
        ds = make_dataset(sizes=[1, 2, 1, 1], outcomes=[(-0.0,), (-0.0, -0.0), (1.0,), (-1.0,)])
        assert_same_bits(ds.ybar, np.array([math.fsum([-0.0]), math.fsum([-0.0, -0.0]), 1.0, -1.0]))

    def test_trial_sums_are_certified_without_fsum(self):
        ds, _ = trial_units(preset("size_heterogeneous"), 500, "nn_xn", seed=4)
        sums, proven = _certified_sums(ds.outcomes, ds.offsets)
        assert proven.mean() >= 0.9
        assert_same_bits(sums[proven], fsum_sums(ds.outcomes, ds.offsets)[proven])

    def test_exact_tie_is_certified(self):
        # 1 + 2^-53 lies halfway between 1 and its successor; the error terms
        # are exact, so the array pass rounds the tie to even as fsum does
        y, offsets = csr([(1.0, 2.0**-53), (1.0, 3 * 2.0**-53), (0.25,), (0.5,)])
        sums, proven = _certified_sums(y, offsets)
        assert proven.all()
        assert_same_bits(sums, fsum_sums(y, offsets))
        assert sums[:2].tolist() == [1.0, 1.0 + 2.0**-51]


def fsum_sums(y, offsets):
    """math.fsum of each cluster of the CSR outcomes."""
    bounds = zip(offsets[:-1].tolist(), offsets[1:].tolist())
    return np.array([math.fsum(y[a:b].tolist()) for a, b in bounds])


def assert_same_bits(got, want):
    """Equal floats, -0.0 and 0.0 told apart."""
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


# outcomes that stress an exactly rounded sum: cancellation, ties on a
# quarter grid, one-decimal values, magnitudes from 1e-300 to 1e300,
# subnormals, signed zeros and values whose sum overflows
hard_outcomes = st.one_of(
    st.sampled_from([1e16, 1.0, -1e16, -1.0, 0.0, -0.0, 0.1, 1.5e308, -1.5e308]),
    st.integers(-64, 64).map(lambda k: k / 4),
    st.integers(-100, 100).map(lambda k: k / 10),
    st.builds(lambda f, e: f * 10.0**e, st.floats(-9.0, 9.0), st.integers(-300, 299)),
    st.integers(-(2**53), 2**53).map(lambda k: k * 5e-324),
    st.floats(-1e6, 1e6),
)


@st.composite
def csr_outcomes(draw):
    """CSR outcomes of 1 to 12 clusters of 1 to 8 units, at times behind a
    large cluster of the opposite sign that every later prefix sum carries."""
    cluster = st.lists(hard_outcomes, min_size=1, max_size=8)
    clusters = draw(st.lists(cluster, min_size=1, max_size=12))
    if draw(st.booleans()):
        lead = draw(st.floats(1e3, 1e17))
        sign = -1.0 if sum(clusters[0]) >= 0 else 1.0
        clusters.insert(0, [sign * lead] * draw(st.integers(1, 4)))
    return csr(clusters)


class TestClusterSums:
    """``_cluster_sums`` is math.fsum of each cluster, bit for bit."""

    @staticmethod
    def check(y, offsets, workspace=None):
        # ids c0, c1, ..., c10, ...: the string order differs from the CSR's
        ids = [f"c{g}" for g in range(len(offsets) - 1)]
        want, overflows = [], []
        for g, (a, b) in enumerate(zip(offsets[:-1].tolist(), offsets[1:].tolist())):
            try:
                want.append(math.fsum(y[a:b].tolist()))
            except OverflowError:
                overflows.append(ids[g])
        if overflows:
            with pytest.raises(DataError) as info:
                _cluster_sums(y, offsets, ids, workspace)
            first = min(overflows)  # in cluster_id order
            assert str(info.value) == f"cluster {first!r}: the sum of its outcomes overflows"
        else:
            assert_same_bits(_cluster_sums(y, offsets, ids, workspace), np.array(want))

    @settings(max_examples=400, deadline=None)
    @given(data=csr_outcomes())
    def test_equals_fsum(self, data):
        self.check(*data)

    @settings(max_examples=200, deadline=None)
    @given(first=csr_outcomes(), second=csr_outcomes())
    def test_a_kept_workspace_changes_no_bit(self, first, second):
        # the larger input first, so the second runs on longer buffers whose
        # tails hold the first one's terms
        inputs = sorted((first, second), key=lambda data: -len(data[0]))
        workspace = _Workspace()  # kept, as a Monte Carlo study's
        for y, offsets in inputs:
            fresh, fresh_proven = _certified_sums(y, offsets)
            kept, kept_proven = _certified_sums(y, offsets, workspace)
            assert_same_bits(kept, fresh)
            assert kept_proven.tolist() == fresh_proven.tolist()
            self.check(y, offsets, workspace)

    def test_cluster_behind_a_large_prefix_sum(self):
        # every step after -1e16 rounds to a multiple of 2, so the sum rests
        # on the error terms, whose own sum is rounded
        self.check(*csr([[-1e16], [0.5, 1.0, 0.1, 0.9, 0.3, 0.4], [0.3], [0.2, 0.6]]))

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["normal", "quarter", "wide"]))
    def test_large_cluster_between_single_units(self, seed, kind):
        rng = np.random.default_rng(seed)
        big = {
            "normal": lambda: rng.normal(3.0, 2.0, 10**5),
            "quarter": lambda: rng.integers(-400, 400, 10**5) / 4,
            "wide": lambda: rng.normal(size=10**5) * 10.0 ** rng.integers(-300, 300, 10**5),
        }[kind]()
        singles = rng.normal(size=4).tolist()
        self.check(*csr([singles[:2], big, singles[2:3], singles[3:]]))


# cluster ids that need CSV quoting: separators, quotes, line breaks, spaces
ids_text = st.text(alphabet='ab,"\n ', min_size=1, max_size=4)


@st.composite
def datasets(draw, bound=1e300):
    """Valid datasets with awkward ids, floats up to ``bound`` in magnitude
    and one treated cluster in each pair of rows (2j, 2j + 1)."""
    finite = st.floats(-bound, bound)
    g = draw(st.integers(2, 5))
    ids = sorted(draw(st.lists(ids_text, min_size=2 * g, max_size=2 * g, unique=True)))
    counts = draw(st.lists(st.integers(1, 4), min_size=2 * g, max_size=2 * g))
    n_total = [c + draw(st.integers(0, 3)) for c in counts]
    outcomes = [draw(st.lists(finite, min_size=c, max_size=c)) for c in counts]
    k = draw(st.integers(0, 2))
    x = [draw(st.lists(finite, min_size=k, max_size=k)) for _ in range(2 * g)]
    treatment = [0] * (2 * g)
    for j in range(g):
        treatment[2 * j + draw(st.integers(0, 1))] = 1
    flat, offsets = csr(outcomes)
    return unit_dataset(ids, n_total, np.array(x).reshape(2 * g, k), treatment, flat, offsets)


def rewrite_rows(path, order):
    """Rewrite a CSV with its data rows in ``order`` (header kept first)."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + [rows[i] for i in order])


class TestCsvRoundTrip:
    def test_dataset_round_trip_is_bit_identical(self, rng, tmp_path):
        ds = random_dataset(rng, pairs=4)
        units, clusters = tmp_path / "units.csv", tmp_path / "clusters.csv"
        write_dataset(ds, units, clusters)
        assert_same_units(units, ds)
        assert_same_columns(load_dataset(units, clusters), ds)

    @settings(max_examples=150, deadline=None)
    @given(ds=datasets(), with_treatments=st.booleans())
    def test_any_dataset_round_trips(self, tmp_path_factory, ds, with_treatments):
        if not with_treatments:
            ds = dataclasses.replace(ds, treatment=None)
        path = tmp_path_factory.mktemp("csv")
        units, clusters = path / "units.csv", path / "clusters.csv"
        write_dataset(ds, units, clusters)
        assert_same_units(units, ds)
        assert_same_columns(load_dataset(units, clusters), ds)

    @settings(max_examples=100, deadline=None)
    @given(ds=datasets(bound=1e6), data=st.data())
    def test_row_order_changes_nothing(self, tmp_path_factory, ds, data):
        path = tmp_path_factory.mktemp("csv")
        units, clusters = path / "units.csv", path / "clusters.csv"
        write_dataset(ds, units, clusters)
        # clusters in any order; units interleaved across clusters at random,
        # each cluster's own units keeping their order
        rewrite_rows(clusters, data.draw(st.permutations(range(ds.n_clusters))))
        cluster_of_slot = data.draw(
            st.permutations(np.repeat(np.arange(ds.n_clusters), ds.n_sampled).tolist())
        )
        taken = ds.offsets[:-1].copy()
        order = []
        for c in cluster_of_slot:
            order.append(int(taken[c]))
            taken[c] += 1
        rewrite_rows(units, order)
        assert_same_units(units, ds)
        shuffled = load_dataset(units, clusters)
        assert_same_columns(shuffled, ds)
        design = identity_design(ds.n_pairs)
        assert infer(shuffled, design) == infer(ds, design)

    def test_clusters_round_trip_without_treatment(self, rng, tmp_path):
        ds = random_dataset(rng, pairs=3, with_treatments=False)
        path = tmp_path / "clusters.csv"
        write_clusters(ds, path)
        back = read_clusters(path)
        assert back.cluster_ids == ds.cluster_ids
        assert back.treatment is None and back.n_sampled is None and back.ybar is None
        assert back.X.tobytes() == ds.X.tobytes()


@pytest.fixture
def csv_file(tmp_path):
    """A function writing a text, byte for byte, to a new file in
    ``tmp_path`` and returning its path."""
    paths = (tmp_path / f"{i}.csv" for i in itertools.count())

    def write(text):
        path = next(paths)
        path.write_text(text, encoding="utf-8", newline="")
        return path

    return write


def units_csv(body):
    return "cluster_id,unit_id,outcome\n" + body


FOUR_CLUSTERS = "cluster_id,n_total,x1\na,2,0\nb,1,0\nc,1,0\nd,1,0\n"


class TestReaders:
    def test_units_header_required(self, csv_file):
        with pytest.raises(DataError):
            read_units(csv_file("cluster_id,outcome\na,1.0\n"))

    def test_units_bad_outcome(self, csv_file):
        with pytest.raises(DataError, match="line 3: bad outcome 'oops'"):
            read_units(csv_file(units_csv("a,u1,1.0\na,u2,oops\n")))

    def test_units_nonfinite_outcome(self, csv_file):
        with pytest.raises(DataError, match="^units CSV line 2: outcome inf$"):
            read_units(csv_file(units_csv("a,u1,inf\n")))

    def test_units_are_one_record_per_row(self, csv_file):
        units = read_units(csv_file(units_csv("a,u1,1.5\n\nb,u1,-2\na,u2,0.25\n")))
        assert len(units) == 3
        assert units["cluster_id"].tolist() == ["a", "b", "a"]
        assert units["unit_id"].tolist() == ["u1", "u1", "u2"]
        assert units["outcome"].tolist() == [1.5, -2.0, 0.25]

    @pytest.mark.parametrize(
        "read,text",
        [
            # a decimal comma splits the outcome into two fields
            (read_units, "cluster_id,unit_id,outcome\na,u1,1.0\na,u2,2,5\n"),
            (read_units, "cluster_id,unit_id,outcome\na,u1,1.0\na,u2\n"),
            (read_clusters, "cluster_id,n_total,x1,treatment\na,2,0.5,1\na,2,0,1,1\n"),
            (read_clusters, "cluster_id,n_total,x1\na,2,0.5\nb,2\n"),
        ],
    )
    def test_field_count_must_match_header(self, csv_file, read, text):
        with pytest.raises(DataError, match="line 3: .* fields where the header has"):
            read(csv_file(text))

    def test_repeated_column_rejected(self, csv_file):
        with pytest.raises(DataError, match="repeats a column"):
            read_clusters(csv_file("cluster_id,n_total,x1,x1\na,2,0.1,0.2\n"))

    @pytest.mark.parametrize(
        "read,kind",
        [
            (lambda stream, units, clusters: load_dataset(stream, clusters), "units"),
            (lambda stream, units, clusters: load_dataset(units, stream), "clusters"),
            (lambda stream, units, clusters: read_clusters(stream), "clusters"),
            (
                lambda stream, units, clusters: read_design(stream, read_clusters(clusters)),
                "design",
            ),
        ],
        ids=["load_dataset-units", "load_dataset-clusters", "read_clusters", "read_design"],
    )
    def test_source_that_is_not_a_path_rejected(self, csv_file, read, kind):
        # an argument mistake, raised before the units CSV and its bad
        # outcome are read
        units = csv_file(units_csv("a,u1,oops\n"))
        clusters = csv_file(FOUR_CLUSTERS)
        message = rf"^{kind} CSV source must be a file path \(str or os.PathLike\), got StringIO$"
        with pytest.raises(ValueError, match=message):
            read(io.StringIO(FOUR_CLUSTERS), units, clusters)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "units.csv"
        path.write_bytes("cluster_id,unit_id,outcome\nKöln,u1,1.0\n".encode("latin-1"))
        with pytest.raises(DataError, match="units.csv' is not UTF-8"):
            read_units(path)

    def test_non_utf8_byte_named_by_its_file_offset(self, tmp_path):
        head = "cluster_id,unit_id,outcome\n" + "a,u1,1.0\n" * 2000
        path = tmp_path / "units.csv"
        path.write_bytes(head.encode() + "Köln,u1,1.0\n".encode("latin-1"))
        # reading line by line named the offset within the last 8 KiB chunk read
        with pytest.raises(DataError, match=f"at byte {len(head) + 1}$"):
            read_units(path)

    @pytest.mark.parametrize(
        "tail",
        [
            "Köln,u1,1.0\n".encode("latin-1"),  # invalid start byte
            b"a,u\xe2\x82z,1.0\n",  # invalid continuation byte
            b"a,u\xe2\x82",  # unexpected end of data
        ],
    )
    def test_non_utf8_byte_named_as_a_whole_decode_names_it(self, tmp_path, tail):
        # a ragged row before the byte does not come first
        data = "\ufeffcluster_id,unit_id,outcome\na,u1\n".encode() + "é,u2,1.0\n".encode() * 5
        data += tail
        path = tmp_path / "units.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        message = f"is not UTF-8: {whole.value.reason} at byte {whole.value.start}$"
        for chars in (1, 2, 3, 7, 1 << 16):
            with mock.patch.object(core, "_CHUNK_CHARS", chars):
                with pytest.raises(DataError, match=message):
                    read_units(path)

    def test_units_byte_order_mark_dropped(self, csv_file):
        units = read_units(csv_file("\ufeffcluster_id,unit_id,outcome\r\na,u1,1.5\r\nb,u1,2\r\n"))
        assert units["cluster_id"].tolist() == ["a", "b"]
        assert units["outcome"].tolist() == [1.5, 2.0]

    def test_clusters_byte_order_mark_dropped(self, csv_file):
        ds = read_clusters(csv_file("\ufeff" + FOUR_CLUSTERS))
        assert ds.cluster_ids == ("a", "b", "c", "d")
        assert ds.n_total.tolist() == [2, 1, 1, 1]

    def test_clusters_header_required(self, csv_file):
        with pytest.raises(DataError):
            read_clusters(csv_file("cluster_id,x1\na,0.5\n"))

    def test_covariate_columns_no_gaps(self, csv_file):
        with pytest.raises(DataError):
            read_clusters(csv_file("cluster_id,n_total,x1,x3\na,2,0.1,0.2\n"))

    def test_unknown_column_rejected(self, csv_file):
        with pytest.raises(DataError):
            read_clusters(csv_file("cluster_id,n_total,x1,bonus\na,2,0.1,9\n"))

    def test_duplicate_cluster_rejected(self, csv_file):
        with pytest.raises(DataError, match="line 3: duplicate cluster_id 'a'"):
            read_clusters(csv_file("cluster_id,n_total,x1\na,2,0.1\na,3,0.2\n"))

    def test_treatment_values_validated(self, csv_file):
        message = r"^clusters CSV line 2: treatment '9' not in \{0, 1\}$"
        with pytest.raises(DataError, match=message):
            read_clusters(csv_file("cluster_id,n_total,x1,treatment\na,2,0.1,9\n"))

    @pytest.mark.parametrize("n_total", ["0", "-3"])
    def test_nonpositive_n_total_rejected(self, csv_file, n_total):
        with pytest.raises(DataError, match="'b'.*n_total"):
            read_clusters(csv_file(f"cluster_id,n_total,x1\na,2,0.1\nb,{n_total},0.2\n"))

    @pytest.mark.parametrize("n_total", ["2.5", "x", str(2**64)])
    def test_bad_n_total_rejected(self, csv_file, n_total):
        with pytest.raises(DataError, match="line 3: bad n_total"):
            read_clusters(csv_file(f"cluster_id,n_total,x1\na,2,0.1\nb,{n_total},0.2\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_covariate_rejected(self, csv_file, value):
        with pytest.raises(DataError, match="'b'.*not finite"):
            read_clusters(csv_file(f"cluster_id,n_total,x1,x2\na,2,0.1,0.3\nb,3,0.2,{value}\n"))

    def test_covariates_parse_in_order(self, csv_file):
        ds = read_clusters(
            csv_file("cluster_id,n_total,x2,x1\nd,2,0.4,0.3\nc,2,0.2,0.1\na,2,0,0\nb,2,0,0\n")
        )
        assert ds.cluster_ids == ("a", "b", "c", "d")
        assert ds.X.tolist() == [[0.0, 0.0], [0.0, 0.0], [0.1, 0.2], [0.3, 0.4]]

    def test_load_rejects_unknown_cluster_reference(self, csv_file):
        units = csv_file(units_csv("a,u1,1.0\nghost,u1,1.0\n"))
        message = "^units CSV line 3: unit 'u1' references unknown cluster 'ghost'$"
        with pytest.raises(DataError, match=message):
            load_dataset(units, csv_file(FOUR_CLUSTERS))

    def test_load_rejects_duplicate_unit(self, csv_file):
        units = csv_file(units_csv("".join(f"{c},u1,1.0\n" for c in "abcd") + "a,u1,2.0\n"))
        with pytest.raises(DataError, match=r"^units CSV line 6: duplicate unit \('a', 'u1'\)$"):
            load_dataset(units, csv_file(FOUR_CLUSTERS))

    def test_load_keeps_unit_order(self, csv_file):
        units = csv_file(units_csv("b,u1,0.0\na,u1,3.0\nc,u1,0.5\na,u2,1.0\nd,u1,0.25\n"))
        ds = load_dataset(units, csv_file(FOUR_CLUSTERS))
        assert ds.n_sampled.tolist() == [2, 1, 1, 1]
        assert ds.ybar.tolist() == [2.0, 0.0, 0.5, 0.25]
        got = read_units(units)[["cluster_id", "unit_id", "outcome"]].tolist()
        want = [("b", "u1", 0.0), ("a", "u1", 3.0), ("c", "u1", 0.5), ("a", "u2", 1.0)]
        assert got == want + [("d", "u1", 0.25)]


def chunked_units(replace: dict[int, str], quoted: bool = False, end: str = "\n") -> str:
    """A units CSV of 40 rows, 10 per cluster of ``FOUR_LARGE_CLUSTERS``,
    data row i on line i + 2, with the rows of ``replace`` swapped in and
    each line ended by ``end``."""
    rows = [f"{'abcd'[i % 4]},u{i},{0.25 * i!r}" for i in range(40)]
    if quoted:
        # csv.reader takes over from the chunk holding row 5
        rows[5] = f'"{rows[5][0]}",u5,1.25'
    for i, row in replace.items():
        rows[i] = row
    return "cluster_id,unit_id,outcome" + end + "".join(row + end for row in rows)


FOUR_LARGE_CLUSTERS = "cluster_id,n_total,x1\na,50,0\nb,50,0\nc,50,0\nd,50,0\n"


def load_error(csv_file, text: str) -> tuple[type, str]:
    with pytest.raises(DataError) as info:
        load_dataset(csv_file(text), csv_file(FOUR_LARGE_CLUSTERS))
    return type(info.value), str(info.value)


class TestLoadInChunks:
    """A units CSV read in chunks of a few rows fails as a whole-file read does."""

    # a piece of 1 or 16 characters can end between the CR and LF of a CRLF
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize(
        "replace,message",
        [
            ({30: "b,u99,oops"}, "units CSV line 32: bad outcome 'oops'"),
            ({30: "b,u99,nan"}, "units CSV line 32: outcome nan"),
            ({30: "b,u99,1,5"}, "units CSV line 32: 4 fields where"),
            ({30: "ghost,u99,1.0"}, "units CSV line 32: unit 'u99' references"),
            # the first copy of ('a', 'u0') sits in the first chunk
            ({30: "a,u0,9.5"}, r"units CSV line 32: duplicate unit \('a', 'u0'\)"),
            # the precedence of a whole-file read, whatever chunk holds each
            ({3: "d,u3,inf", 20: "a,u20,oops"}, "line 22: bad outcome"),
            ({3: "d,u3,oops", 20: "a,u20"}, "line 22: 2 fields where"),
            ({3: "ghost,u3,1", 20: "a,u20,inf"}, "line 22: outcome inf"),
            ({3: "a,u0,1", 20: "ghost,u20,1"}, "line 22: unit 'u20'"),
        ],
    )
    def test_error_names_the_line_of_a_whole_file_read(
        self, csv_file, quoted, replace, message, end
    ):
        text = chunked_units(replace, quoted, end)
        whole = load_error(csv_file, text)
        assert whole[0] is DataError
        assert re.search(message, whole[1])
        for chars in (1, 16, 50, 200):
            with mock.patch.object(core, "_CHUNK_CHARS", chars):
                assert load_error(csv_file, text) == whole

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("quoted", [False, True])
    def test_same_dataset_in_any_chunking(self, csv_file, quoted, end):
        units, clusters = csv_file(chunked_units({}, quoted, end)), csv_file(FOUR_LARGE_CLUSTERS)
        whole = load_dataset(units, clusters)
        # line breaks of any kind: the same rows, on the same lines
        assert_same_columns(whole, load_dataset(csv_file(chunked_units({}, quoted)), clusters))
        for chars in (1, 16, 50, 200):
            with mock.patch.object(core, "_CHUNK_CHARS", chars):
                assert_same_columns(load_dataset(units, clusters), whole)

    def test_equal_key_hashes_are_not_duplicates(self, monkeypatch, csv_file):
        # every key hashes alike: only the exact comparison can tell them apart
        monkeypatch.setattr(core, "_unit_keys", lambda codes, units: np.full(len(codes), 7))
        clusters = csv_file(FOUR_LARGE_CLUSTERS)
        ds = load_dataset(csv_file(chunked_units({})), clusters)
        assert ds.n_sampled.tolist() == [10, 10, 10, 10]
        with pytest.raises(DataError, match=r"line 32: duplicate unit \('a', 'u0'\)"):
            load_dataset(csv_file(chunked_units({30: "a,u0,1"})), clusters)

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("chars", [16, 1 << 16])
    def test_colliding_units_before_a_duplicate(self, monkeypatch, csv_file, quoted, chars):
        # a key of the cluster alone: each unit collides with every other
        # of its cluster, and 'u4' is also a unit of cluster d, before the
        # true duplicate of ('a', 'u4') on line 38
        monkeypatch.setattr(core, "_unit_keys", lambda codes, units: codes.astype(np.int64))
        monkeypatch.setattr(core, "_CHUNK_CHARS", chars)
        units = csv_file(chunked_units({35: "d,u4,1.0", 36: "a,u4,2.0"}, quoted))
        message = r"^units CSV line 38: duplicate unit \('a', 'u4'\)$"
        with pytest.raises(DataError, match=message):
            load_dataset(units, csv_file(FOUR_LARGE_CLUSTERS))

    def test_distinct_units_get_distinct_keys(self, csv_file):
        # units named alike across clusters, ids of 1 to 20 bytes, in any order
        rng = np.random.default_rng(3)
        rows = [
            f"c{g}{'x' * (g % 13)},u{u:0{u % 9}d},{u}.5\n" for g in range(200) for u in range(30)
        ]
        text = "cluster_id,unit_id,outcome\n" + "".join(rng.permutation(rows))
        _, codes, keys, ids = _unit_columns(csv_file(text))
        assert len(ids) == 200 and len(np.unique(codes)) == 200
        assert len(np.unique(keys)) == len(keys) == 6000

    def test_memory_is_bounded_by_the_file_size(self, tmp_path):
        # 2000 clusters of 30 units, written as the benchmark writes them
        rng = np.random.default_rng(5)
        units, clusters = tmp_path / "units.csv", tmp_path / "clusters.csv"
        y = rng.normal(0.0, 1.0, 60_000).tolist()
        units.write_text(
            "cluster_id,unit_id,outcome\n"
            + "".join(f"c{i // 30:05d},u{i % 30 + 1},{y[i]!r}\n" for i in range(60_000))
        )
        clusters.write_text(
            "cluster_id,n_total,x1\n" + "".join(f"c{g:05d},40,{g / 2000!r}\n" for g in range(2000))
        )
        tracemalloc.start()
        try:
            ds = load_dataset(units, clusters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read_units(units)["outcome"].tolist() == y
        assert ds.n_sampled.tolist() == [30] * 2000
        sums = [math.fsum(y[i : i + 30]) for i in range(0, 60_000, 30)]
        assert_same_bits(ds.ybar, np.array(sums) / 30)
        # the whole text and its field strings traced 12.7 times the file
        assert peak < 3 * units.stat().st_size


_CLUSTERS_CSV = "cluster_id,n_total,x1\na,90,0\nb,90,0\nß,90,0\n東京,90,0\n"
_CLUSTER_IDS = ["a", "b", "ß", "東京"]
# unit id stems, numbered within each cluster, so ids recur across clusters;
# some are non-ASCII or hold what csv.writer quotes
_UNIT_IDS = ["u", "é", "ü", "x y", "", "x,y", "l\nm"]
_OUTCOMES = ["1.5", "-0.0", "2.5e-3", " 1.5", "1_0", "\u0661\u0662\u0663"] * 40
_OUTCOMES += ["1e308", "inf", "nan", "oops", ""]


@st.composite
def units_texts(draw):
    """Units CSVs of 4 to 42 rows, grouped by cluster or not, with odd
    outcomes and, at times, a unit repeated, an unknown cluster, a ragged
    or blank row; LF, CRLF or bare CR; fields quoted where needed and, at
    times, one somewhere in the file that needs no quotes."""
    clusters = draw(st.lists(st.sampled_from(_CLUSTER_IDS), max_size=36)) + _CLUSTER_IDS
    clusters = draw(st.permutations(clusters))
    if draw(st.booleans()):
        clusters.sort()  # grouped by cluster, as csv.writer's files are
    seen = dict.fromkeys(_CLUSTER_IDS, 0)
    stems = st.sampled_from(draw(st.sampled_from([_UNIT_IDS[:5], _UNIT_IDS])))
    rows = []
    for cid in clusters:
        seen[cid] += 1
        unit = draw(stems) + str(seen[cid])
        rows.append([cid, unit, draw(st.sampled_from(_OUTCOMES))])
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        # a unit repeated, or one of a cluster the clusters CSV lacks
        row = list(draw(st.sampled_from(rows)))
        if draw(st.booleans()):
            row[0] = "ghost"
        rows.insert(draw(st.integers(0, len(rows))), row)
    if draw(st.integers(0, 5)) == 0:
        draw(st.sampled_from(rows)).append("9")
    quoted = draw(st.integers(0, len(rows) - 1)) if draw(st.booleans()) else None
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = "cluster_id,unit_id,outcome" + end
    for i, row in enumerate(rows):
        quote = [(i, j) == (quoted, 0) or "," in f or "\n" in f for j, f in enumerate(row)]
        text += ",".join(f'"{f}"' if q else f for f, q in zip(row, quote)) + end
        if draw(st.integers(0, 9)) == 0:
            text += end
    return text


def load_reference(text: str, clusters_path) -> tuple[core.Dataset, list]:
    """``load_dataset`` of a units CSV and ``_CLUSTERS_CSV``, written at
    ``clusters_path``, whole-file: ``reader_table``, then ``float`` and a
    dict per check, in the order of precedence of the package's errors.
    Returns the Dataset and the unit rows, (cluster_id, unit_id, outcome,
    line) in file order."""
    header, cols, lines = reader_table(text, "units CSV")
    required = ("cluster_id", "unit_id", "outcome")
    if not set(required).issubset(header):
        raise DataError(f"units CSV header must contain {sorted(required)}, got {header}")
    rows = list(zip(cols["cluster_id"], cols["unit_id"], cols["outcome"], lines.tolist()))
    y = []
    for _, _, text, line in rows:
        try:
            y.append(float(text))
        except ValueError:
            raise DataError(f"units CSV line {line}: bad outcome {text!r}") from None
    for value, (*_, line) in zip(y, rows):
        if not math.isfinite(value):
            raise DataError(f"units CSV line {line}: outcome {value!r}")
    clusters = read_clusters(clusters_path)
    index = {cid: g for g, cid in enumerate(clusters.cluster_ids)}
    for cid, unit, _, line in rows:
        if cid not in index:
            raise DataError(
                f"units CSV line {line}: unit {unit!r} references unknown cluster {cid!r}"
            )
    seen = set()
    for cid, unit, _, line in rows:
        if (cid, unit) in seen:
            raise DataError(f"units CSV line {line}: duplicate unit {(cid, unit)!r}")
        seen.add((cid, unit))
    per_cluster = [[] for _ in index]
    for value, (cid, *_) in zip(y, rows):
        per_cluster[index[cid]].append(value)
    flat, offsets = csr(per_cluster)
    dataset = build_dataset(clusters.cluster_ids, clusters.n_total, clusters.X, None, flat, offsets)
    return dataset, [(cid, unit, value, line) for value, (cid, unit, _, line) in zip(y, rows)]


def _dataset_or_error(load):
    try:
        return load()
    except DataError as exc:
        return type(exc), str(exc)


class TestLoadAgainstReference:
    """``load_dataset`` gives the Dataset or the error of a whole-file read,
    and the units it reads are the rows of that read, record by record."""

    @settings(max_examples=400, deadline=None)
    @given(text=units_texts(), chars=st.sampled_from([1, 7, 40, 1 << 16]))
    def test_same_as_the_whole_file_reference(self, tmp_path_factory, text, chars):
        directory = tmp_path_factory.mktemp("csv")
        units, clusters = directory / "units.csv", directory / "clusters.csv"
        units.write_text(text, encoding="utf-8", newline="")
        clusters.write_text(_CLUSTERS_CSV, encoding="utf-8")
        try:
            want, rows = load_reference(text, clusters)
        except DataError as exc:
            want = type(exc), str(exc)
        with mock.patch.object(core, "_CHUNK_CHARS", chars):
            got = _dataset_or_error(lambda: load_dataset(units, clusters))
            if isinstance(want, tuple):
                assert got == want
                return
            read = read_units(units)
        assert not isinstance(got, tuple), got
        assert_same_columns(got, want)
        cids, unit_ids, outcomes, lines = zip(*rows)
        assert read["cluster_id"].tolist() == list(cids)
        assert read["unit_id"].tolist() == list(unit_ids)
        assert np.ascontiguousarray(read["outcome"]).tobytes() == np.array(outcomes).tobytes()
        assert read["line"].tolist() == list(lines)


# Two blank lines and a quoted field holding a line break (lines 2 to 5)
# come before the row on physical line 6.
_BEFORE_LINE_6 = '\n\n"a\nz",u1,1.0\n'


class TestPhysicalLineNumbers:
    """Errors name the physical line a bad row starts on."""

    @pytest.mark.parametrize(
        "row,message",
        [
            ("b,u1,oops", "units CSV line 6: bad outcome 'oops'"),
            ("b,u1,inf", "units CSV line 6: outcome inf"),
            ("b,u1,1,5", "units CSV line 6: 4 fields"),
            ("ghost,u1,1.0", "units CSV line 6: unit 'u1' references unknown"),
            ('"a\nz",u1,2.0', "units CSV line 6: duplicate unit"),
        ],
    )
    def test_units(self, csv_file, row, message):
        units = csv_file(units_csv(_BEFORE_LINE_6 + row + "\nb,u1,0.5\nc,u1,0.5\nd,u1,0.5\n"))
        clusters = csv_file("cluster_id,n_total,x1\n\"a\nz\",2,0\nb,1,0\nc,1,0\nd,1,0\n")
        with pytest.raises(DataError, match=message):
            load_dataset(units, clusters)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("b,x,0.2,0", "line 6: bad n_total 'x'"),
            ("b,0,0.2,0", "line 6: cluster 'b': n_total must be positive"),
            ("b,2,oops,0", "line 6: bad covariate value 'oops'"),
            ("b,2,inf,0", "line 6: cluster 'b': covariate inf is not finite"),
            ("b,2,0.2,7", "line 6: treatment '7' not in"),
            ('"a\nz",2,0.2,0', "line 6: duplicate cluster_id"),
            ("b,2,0.2", "line 6: 3 fields where the header has 4"),
        ],
    )
    def test_clusters(self, csv_file, row, message):
        text = 'cluster_id,n_total,x1,treatment\n\n\n"a\nz",2,0.1,1\n' + row + "\n"
        with pytest.raises(DataError, match=f"clusters CSV {message}"):
            read_clusters(csv_file(text + "c,2,0.3,1\nd,2,0.4,0\n"))

    def test_units_record_their_lines(self, csv_file):
        units = read_units(csv_file(units_csv(_BEFORE_LINE_6 + "b,u1,0.5\n\nc,u1,0.5\n")))
        assert units["line"].tolist() == [4, 6, 8]


# Fragments for texts that exercise both CSV paths: quotes, CRLF, bare CR,
# NUL, blank lines, empty and repeated names, ragged rows, non-ASCII text,
# a byte order mark anywhere.
_CSV_TOKENS = ["a", "b", "x1", "1.5", "é", "\ufeff", " ", ",", ",", ","]
_CSV_TOKENS += ["\n", "\n", "\r\n", "\r", '"', "\0"]


@st.composite
def csv_texts(draw):
    """Texts from random fragments, or near-regular tables with defects."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(_CSV_TOKENS), max_size=40)))
    field = st.sampled_from(["a", "b", "c", "", "1", "-2.5e3", "é", " x ", "ab"])
    width = draw(st.integers(0, 4))
    lines = [",".join(draw(st.lists(field, min_size=width, max_size=width)))]
    for _ in range(draw(st.integers(0, 6))):
        k = width + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        lines.append(",".join(draw(st.lists(field, min_size=max(k, 0), max_size=max(k, 0)))))
    ends = st.sampled_from(["\n", "\r\n", "\r\n", "\n\n", "\r\n\r\n", "\r", '"\n', "\0\n"])
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return draw(st.sampled_from(["", "\n", "\r\n", "\ufeff"])) + text


def reader_table(text: str, kind: str):
    """The reference for ``_read_csv``: ``csv.reader`` over the whole text,
    then the checks of the header and of each row's field count."""
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    rows, starts = [], []
    try:
        header = next(reader, [])
        start = reader.line_num + 1
        for row in reader:
            if row:
                rows.append(row)
                starts.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{kind} line {reader.line_num}: {exc}") from None
    if len(set(header)) != len(header):
        raise DataError(f"{kind} header repeats a column: {header}")
    for row, line in zip(rows, starts):
        if len(row) != len(header):
            raise DataError(
                f"{kind} line {line}: {len(row)} fields where the header has {len(header)}"
            )
    columns = zip(*rows) if rows else [()] * len(header)
    return header, {name: list(col) for name, col in zip(header, columns)}, np.array(starts)


def _table_or_error(read):
    try:
        table = read()
    except DataError as exc:
        return type(exc), str(exc)
    header, columns, lines = table
    return header, columns, lines.tolist()


def _refuse(*args, **kwargs):
    raise AssertionError("csv.reader was called")


class TestCsvPaths:
    """The one-split path and the csv.reader path read every text alike."""

    @staticmethod
    def check_both_paths_agree(directory, text, limit):
        path = directory / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        plain = text.replace("\r\n", "\n")
        splits = not ('"' in plain or "\r" in plain or "\0" in plain) and (
            max(map(len, plain.encode().split(b"\n"))) <= limit
        )
        old = csv.field_size_limit(limit)
        try:
            want = _table_or_error(lambda: reader_table(text, "t CSV"))
            from_path = _table_or_error(lambda: _read_csv(path, "t CSV"))
            declined = _field_offsets(text, limit) is None
            if splits:
                with mock.patch.object(csv, "reader", _refuse):
                    split = _table_or_error(lambda: _read_csv(path, "t CSV"))
        finally:
            csv.field_size_limit(old)
        assert from_path == want
        assert declined is not splits
        if splits:
            assert split == want

    @settings(max_examples=600, deadline=None)
    @given(text=csv_texts(), limit=st.sampled_from([6, csv.field_size_limit()]))
    def test_both_paths_agree(self, tmp_path_factory, text, limit):
        self.check_both_paths_agree(tmp_path_factory.mktemp("csv"), text, limit)

    @settings(max_examples=600, deadline=None)
    @given(
        text=csv_texts(),
        limit=st.sampled_from([6, csv.field_size_limit()]),
        chunk=st.integers(1, 12),
    )
    def test_both_paths_agree_in_small_chunks(self, tmp_path_factory, text, limit, chunk):
        # pieces of a few characters: a line per piece, the reader taking
        # over mid-text, a byte order mark or a character cut across blocks
        with mock.patch.object(core, "_CHUNK_CHARS", chunk):
            self.check_both_paths_agree(tmp_path_factory.mktemp("csv"), text, limit)

    def test_own_and_benchmark_files_take_the_split_path(self, rng, tmp_path, monkeypatch):
        ds = random_dataset(rng, pairs=5)
        units, clusters, design = (tmp_path / f"{name}.csv" for name in ("u", "c", "d"))
        write_dataset(ds, units, clusters)
        write_design(identity_design(5), ds, design)
        plain_units, plain_clusters = tmp_path / "pu.csv", tmp_path / "pc.csv"
        # shaped like the benchmark's: csv.writer's CRLF and repr floats
        y = rng.normal(0.0, 1.0, 20).tolist()
        plain_units.write_bytes(
            b"cluster_id,unit_id,outcome\r\n"
            + "".join(f"c{i % 4:05d},u{i},{y[i]!r}\r\n" for i in range(20)).encode()
        )
        plain_clusters.write_bytes(
            b"cluster_id,n_total,x1,treatment\r\n"
            + "".join(f"c{i:05d},{5 + i},{0.1 * i!r},{i % 2}\r\n" for i in range(4)).encode()
        )
        assert b"\r\n" in units.read_bytes()

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader was called")

        monkeypatch.setattr(csv, "reader", refuse)
        assert_same_columns(load_dataset(units, clusters), ds)
        assert read_clusters(clusters).cluster_ids == ds.cluster_ids
        assert read_design(design, ds) == identity_design(5)
        assert load_dataset(plain_units, plain_clusters).n_sampled.tolist() == [5, 5, 5, 5]
        write_clusters(ds, clusters)
        assert read_clusters(clusters).X.tobytes() == ds.X.tobytes()
