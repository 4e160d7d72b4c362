import io
import math

import numpy as np
import pytest

from helpers import make_dataset, random_dataset
from pairedcrt.core import (
    ClusterRecord,
    build_dataset,
    load_dataset,
    read_clusters,
    read_units,
    summarize,
    write_clusters,
    write_dataset,
)
from pairedcrt.errors import (
    DataError,
    DuplicateUnit,
    EmptyCluster,
    NonBinaryTreatment,
    NonFiniteOutcome,
    OddClusterCount,
    RaggedCovariates,
    SampleExceedsSize,
    UnknownCluster,
)


def record(cid, n=2, outs=(1.0,), xs=(0.0,), t=None):
    return ClusterRecord(
        cluster_id=cid, n_total=n, sampled_outcomes=outs, covariates=xs, treatment=t
    )


class TestBuildDataset:
    def test_sorts_by_cluster_id(self):
        ds = build_dataset([record("b"), record("d"), record("a"), record("c")])
        assert [c.cluster_id for c in ds.clusters] == ["a", "b", "c", "d"]
        assert ds.covariate_dim == 1
        assert ds.n_pairs == 2

    def test_rejects_odd_or_tiny_counts(self):
        with pytest.raises(OddClusterCount):
            build_dataset([record("a"), record("b")])
        with pytest.raises(OddClusterCount):
            build_dataset([record(f"c{i}") for i in range(5)])

    def test_rejects_ragged_covariates(self):
        recs = [record("a"), record("b"), record("c"), record("d", xs=(0.0, 1.0))]
        with pytest.raises(RaggedCovariates):
            build_dataset(recs)

    def test_rejects_partial_treatments(self):
        recs = [record("a", t=1), record("b", t=0), record("c"), record("d")]
        with pytest.raises(NonBinaryTreatment):
            build_dataset(recs)

    def test_rejects_empty_cluster(self):
        recs = [record("a", outs=()), record("b"), record("c"), record("d")]
        with pytest.raises(EmptyCluster):
            build_dataset(recs)

    def test_rejects_oversampled_cluster(self):
        recs = [record("a", n=1, outs=(1.0, 2.0)), record("b"), record("c"), record("d")]
        with pytest.raises(SampleExceedsSize):
            build_dataset(recs)

    def test_rejects_nonfinite_values(self):
        recs = [record("a", outs=(math.nan,)), record("b"), record("c"), record("d")]
        with pytest.raises(NonFiniteOutcome):
            build_dataset(recs)
        recs = [record("a", xs=(math.inf,)), record("b"), record("c"), record("d")]
        with pytest.raises(DataError):
            build_dataset(recs)

    def test_rejects_nonbinary_treatment(self):
        recs = [record("a", t=2), record("b", t=0), record("c", t=1), record("d", t=0)]
        with pytest.raises(NonBinaryTreatment):
            build_dataset(recs)

    def test_with_treatments(self):
        ds = build_dataset([record(c) for c in "abcd"])
        assert not ds.has_treatments
        ds2 = ds.with_treatments([1, 0, 0, 1])
        assert ds2.has_treatments
        assert [c.treatment for c in ds2.clusters] == [1, 0, 0, 1]
        with pytest.raises(NonBinaryTreatment):
            ds.with_treatments([1, 0])
        with pytest.raises(NonBinaryTreatment):
            ds.with_treatments([1, 0, 2, 0])


class TestSummarize:
    def test_means_and_order(self):
        ds = make_dataset(
            sizes=[3, 2, 4, 2],
            outcomes=[(1.0, 2.0, 3.0), (0.5,), (4.0, 0.0), (2.0, 2.0)],
            treatments=[1, 0, 0, 1],
        )
        s = summarize(ds)
        assert [x.cluster_id for x in s] == [c.cluster_id for c in ds.clusters]
        assert [x.ybar for x in s] == pytest.approx([2.0, 0.5, 2.0, 2.0])
        assert [x.n_sampled for x in s] == [3, 1, 2, 2]
        assert [x.treatment for x in s] == [1, 0, 0, 1]


class TestCsvRoundTrip:
    def test_dataset_round_trip_is_bit_identical(self, rng, tmp_path):
        ds = random_dataset(rng, pairs=4)
        units, clusters = tmp_path / "units.csv", tmp_path / "clusters.csv"
        write_dataset(ds, units, clusters)
        back = load_dataset(units, clusters)
        assert back.covariate_dim == ds.covariate_dim
        for a, b in zip(ds.clusters, back.clusters):
            assert a.cluster_id == b.cluster_id
            assert a.n_total == b.n_total
            assert a.treatment == b.treatment
            assert a.sampled_outcomes == b.sampled_outcomes
            assert a.covariates == b.covariates

    def test_clusters_round_trip_without_treatment(self, rng, tmp_path):
        ds = random_dataset(rng, pairs=3, with_treatments=False)
        path = tmp_path / "clusters.csv"
        write_clusters(ds.clusters, path)
        back = read_clusters(path)
        assert [r.cluster_id for r in back] == [c.cluster_id for c in ds.clusters]
        assert all(r.treatment is None for r in back)
        assert [r.covariates for r in back] == [c.covariates for c in ds.clusters]


class TestReaders:
    def test_units_header_required(self):
        src = io.StringIO("cluster_id,outcome\na,1.0\n")
        with pytest.raises(DataError):
            read_units(src)

    def test_units_bad_outcome(self):
        src = io.StringIO("cluster_id,unit_id,outcome\na,u1,oops\n")
        with pytest.raises(DataError):
            read_units(src)

    def test_units_nonfinite_outcome(self):
        src = io.StringIO("cluster_id,unit_id,outcome\na,u1,inf\n")
        with pytest.raises(NonFiniteOutcome):
            read_units(src)

    def test_clusters_header_required(self):
        with pytest.raises(DataError):
            read_clusters(io.StringIO("cluster_id,x1\na,0.5\n"))

    def test_covariate_columns_no_gaps(self):
        src = io.StringIO("cluster_id,n_total,x1,x3\na,2,0.1,0.2\n")
        with pytest.raises(DataError):
            read_clusters(src)

    def test_unknown_column_rejected(self):
        src = io.StringIO("cluster_id,n_total,x1,bonus\na,2,0.1,9\n")
        with pytest.raises(DataError):
            read_clusters(src)

    def test_duplicate_cluster_rejected(self):
        src = io.StringIO("cluster_id,n_total,x1\na,2,0.1\na,3,0.2\n")
        with pytest.raises(DataError):
            read_clusters(src)

    def test_treatment_values_validated(self):
        src = io.StringIO("cluster_id,n_total,x1,treatment\na,2,0.1,9\n")
        with pytest.raises(NonBinaryTreatment):
            read_clusters(src)

    @pytest.mark.parametrize("n_total", ["0", "-3"])
    def test_nonpositive_n_total_rejected(self, n_total):
        src = io.StringIO(f"cluster_id,n_total,x1\na,2,0.1\nb,{n_total},0.2\n")
        with pytest.raises(DataError, match="'b'.*n_total"):
            read_clusters(src)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_covariate_rejected(self, value):
        src = io.StringIO(f"cluster_id,n_total,x1,x2\na,2,0.1,0.3\nb,3,0.2,{value}\n")
        with pytest.raises(DataError, match="'b'.*not finite"):
            read_clusters(src)

    def test_covariates_parse_in_order(self):
        src = io.StringIO("cluster_id,n_total,x2,x1\na,2,0.2,0.1\n")
        recs = read_clusters(src)
        assert recs[0].covariates == (0.1, 0.2)

    def test_load_rejects_unknown_cluster_reference(self):
        units = io.StringIO("cluster_id,unit_id,outcome\nghost,u1,1.0\n")
        clusters = io.StringIO(
            "cluster_id,n_total,x1\na,1,0\nb,1,0\nc,1,0\nd,1,0\n"
        )
        with pytest.raises(UnknownCluster):
            load_dataset(units, clusters)

    def test_load_rejects_duplicate_unit(self):
        units = io.StringIO(
            "cluster_id,unit_id,outcome\n"
            + "".join(f"{c},u1,1.0\n" for c in "abcd")
            + "a,u1,2.0\n"
        )
        clusters = io.StringIO(
            "cluster_id,n_total,x1\na,2,0\nb,1,0\nc,1,0\nd,1,0\n"
        )
        with pytest.raises(DuplicateUnit):
            load_dataset(units, clusters)

    def test_load_keeps_unit_order(self):
        units = io.StringIO(
            "cluster_id,unit_id,outcome\na,u1,3.0\na,u2,1.0\n"
            + "".join(f"{c},u1,0.0\n" for c in "bcd")
        )
        clusters = io.StringIO(
            "cluster_id,n_total,x1\na,2,0\nb,1,0\nc,1,0\nd,1,0\n"
        )
        ds = load_dataset(units, clusters)
        assert ds.clusters[0].sampled_outcomes == (3.0, 1.0)
