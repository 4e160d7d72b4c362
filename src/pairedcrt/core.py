"""Domain types, CSV ingestion, and cluster-level aggregation.

A trial consists of 2G clusters. For each cluster we observe its total size
``n_total``, a vector of baseline covariates, optionally a binary treatment,
and the outcomes of the sampled subset of its units. Everything downstream
(matching, estimation, inference) works off these records or the per-cluster
summaries produced by :func:`summarize`.

Input schemas (UTF-8, comma-delimited, ``.`` decimal point):

* units CSV: header ``cluster_id,unit_id,outcome``
* clusters CSV: header ``cluster_id,n_total,x1,...,xk[,treatment]``
  with ``treatment`` in {0, 1} when present.

Clusters are ordered by string comparison of ``cluster_id`` after loading;
all downstream determinism (matching tie-breaks, design serialization)
relies on that order.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
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

_COVARIATE_COL = re.compile(r"^x(\d+)$")


@dataclass(frozen=True)
class UnitRow:
    """One sampled unit's observed outcome."""

    cluster_id: str
    unit_id: str
    outcome: float


@dataclass(frozen=True)
class ClusterRecord:
    """One cluster's observed data.

    ``sampled_outcomes`` holds the outcomes of the sampled units, in input
    order; ``n_total`` is the full cluster size, which may exceed the number
    sampled under two-stage sampling.
    """

    cluster_id: str
    n_total: int
    sampled_outcomes: tuple[float, ...]
    covariates: tuple[float, ...]
    treatment: int | None = None

    @property
    def n_sampled(self) -> int:
        return len(self.sampled_outcomes)


@dataclass(frozen=True)
class ClusterSummary:
    """Per-cluster aggregate: sampled mean outcome plus design variables."""

    cluster_id: str
    n_total: int
    n_sampled: int
    ybar: float
    covariates: tuple[float, ...]
    treatment: int | None = None


@dataclass(frozen=True)
class Dataset:
    """A validated collection of 2G clusters with a common covariate dimension."""

    clusters: tuple[ClusterRecord, ...]
    covariate_dim: int

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def n_pairs(self) -> int:
        return len(self.clusters) // 2

    @property
    def has_treatments(self) -> bool:
        return all(c.treatment is not None for c in self.clusters)

    def with_treatments(self, treatments: Sequence[int]) -> "Dataset":
        """Return a copy with the given per-cluster treatment labels."""
        if len(treatments) != len(self.clusters):
            raise NonBinaryTreatment(
                f"expected {len(self.clusters)} treatments, got {len(treatments)}"
            )
        updated = tuple(
            replace(c, treatment=_check_treatment(t, c.cluster_id))
            for c, t in zip(self.clusters, treatments)
        )
        return Dataset(clusters=updated, covariate_dim=self.covariate_dim)


def _check_treatment(value, cluster_id: str) -> int:
    if value not in (0, 1):
        raise NonBinaryTreatment(f"cluster {cluster_id!r}: treatment {value!r} not in {{0, 1}}")
    return int(value)


def build_dataset(records: Iterable[ClusterRecord]) -> Dataset:
    """Validate cluster records and assemble a Dataset (sorted by cluster_id)."""
    ordered = sorted(records, key=lambda r: r.cluster_id)
    if len(ordered) < 4 or len(ordered) % 2 != 0:
        raise OddClusterCount(
            f"need an even cluster count >= 4, got {len(ordered)}"
        )
    dims = {len(r.covariates) for r in ordered}
    if len(dims) != 1:
        raise RaggedCovariates(f"covariate dimensions differ across clusters: {sorted(dims)}")
    k = dims.pop()
    n_with_treatment = sum(r.treatment is not None for r in ordered)
    if n_with_treatment not in (0, len(ordered)):
        raise NonBinaryTreatment("treatment present for some clusters but not all")
    for r in ordered:
        if r.n_total < 1:
            raise DataError(f"cluster {r.cluster_id!r}: n_total must be positive")
        n_sampled = r.n_sampled
        if n_sampled == 0:
            raise EmptyCluster(f"cluster {r.cluster_id!r} has no sampled units")
        if n_sampled > r.n_total:
            raise SampleExceedsSize(
                f"cluster {r.cluster_id!r}: {n_sampled} sampled units exceed n_total={r.n_total}"
            )
        if not all(map(math.isfinite, r.sampled_outcomes)):
            y = next(y for y in r.sampled_outcomes if not math.isfinite(y))
            raise NonFiniteOutcome(f"cluster {r.cluster_id!r}: outcome {y!r}")
        if not all(map(math.isfinite, r.covariates)):
            x = next(x for x in r.covariates if not math.isfinite(x))
            raise DataError(f"cluster {r.cluster_id!r}: covariate {x!r} is not finite")
        if r.treatment is not None:
            _check_treatment(r.treatment, r.cluster_id)
    return Dataset(clusters=tuple(ordered), covariate_dim=k)


def _read_rows(source) -> tuple[list[str], list[dict[str, str]]]:
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            return list(header), list(reader)
    reader = csv.DictReader(source)
    return list(reader.fieldnames or []), list(reader)


def read_units(source) -> list[UnitRow]:
    """Parse a units CSV (path or open text stream) into unit rows."""
    header, rows = _read_rows(source)
    required = {"cluster_id", "unit_id", "outcome"}
    if not required.issubset(header):
        raise DataError(f"units CSV header must contain {sorted(required)}, got {header}")
    out = []
    for i, row in enumerate(rows, start=2):
        try:
            outcome = float(row["outcome"])
        except (TypeError, ValueError) as exc:
            raise DataError(f"units CSV line {i}: bad outcome {row.get('outcome')!r}") from exc
        if not math.isfinite(outcome):
            raise NonFiniteOutcome(f"units CSV line {i}: outcome {outcome!r}")
        out.append(UnitRow(cluster_id=row["cluster_id"], unit_id=row["unit_id"], outcome=outcome))
    return out


def _covariate_columns(header: Sequence[str]) -> list[str]:
    found = []
    for col in header:
        m = _COVARIATE_COL.match(col)
        if m:
            found.append((int(m.group(1)), col))
    found.sort()
    expected = list(range(1, len(found) + 1))
    if [i for i, _ in found] != expected:
        raise DataError(
            f"covariate columns must be named x1..xk without gaps, got {[c for _, c in found]}"
        )
    return [col for _, col in found]


def read_clusters(source) -> list[ClusterRecord]:
    """Parse a clusters CSV into records (without sampled outcomes).

    Every ``n_total`` must be positive and every covariate finite.
    """
    header, rows = _read_rows(source)
    if "cluster_id" not in header or "n_total" not in header:
        raise DataError(f"clusters CSV header must contain cluster_id and n_total, got {header}")
    xcols = _covariate_columns(header)
    has_treatment = "treatment" in header
    known = {"cluster_id", "n_total", "treatment", *xcols}
    extra = [c for c in header if c not in known]
    if extra:
        raise DataError(f"unrecognized clusters CSV columns: {extra}")
    records = []
    seen: set[str] = set()
    for i, row in enumerate(rows, start=2):
        cid = row["cluster_id"]
        if cid in seen:
            raise DataError(f"clusters CSV line {i}: duplicate cluster_id {cid!r}")
        seen.add(cid)
        try:
            n_total = int(row["n_total"])
        except (TypeError, ValueError) as exc:
            raise DataError(f"clusters CSV line {i}: bad n_total {row.get('n_total')!r}") from exc
        if n_total < 1:
            raise DataError(f"clusters CSV line {i}: cluster {cid!r}: n_total must be positive")
        try:
            covariates = tuple(float(row[c]) for c in xcols)
        except (TypeError, ValueError) as exc:
            raise RaggedCovariates(f"clusters CSV line {i}: bad covariate value") from exc
        if not all(map(math.isfinite, covariates)):
            x = next(x for x in covariates if not math.isfinite(x))
            raise DataError(
                f"clusters CSV line {i}: cluster {cid!r}: covariate {x!r} is not finite"
            )
        treatment: int | None = None
        if has_treatment:
            raw = (row.get("treatment") or "").strip()
            if raw not in {"0", "1"}:
                raise NonBinaryTreatment(
                    f"clusters CSV line {i}: treatment {raw!r} not in {{0, 1}}"
                )
            treatment = int(raw)
        records.append(
            ClusterRecord(
                cluster_id=cid,
                n_total=n_total,
                sampled_outcomes=(),
                covariates=covariates,
                treatment=treatment,
            )
        )
    return records


def load_dataset(units_source, clusters_source) -> Dataset:
    """Load and validate a dataset from a units CSV and a clusters CSV.

    Sources may be file paths or open text streams. Every unit row must
    reference a cluster present in the clusters table; sampled outcomes are
    kept in input order.
    """
    units = read_units(units_source)
    clusters = read_clusters(clusters_source)
    by_id = {c.cluster_id: c for c in clusters}
    outcomes: dict[str, list[float]] = {cid: [] for cid in by_id}
    seen_units: set[tuple[str, str]] = set()
    for u in units:
        if u.cluster_id not in by_id:
            raise UnknownCluster(f"unit {u.unit_id!r} references unknown cluster {u.cluster_id!r}")
        key = (u.cluster_id, u.unit_id)
        if key in seen_units:
            raise DuplicateUnit(f"duplicate unit {key!r}")
        seen_units.add(key)
        outcomes[u.cluster_id].append(u.outcome)
    records = [
        replace(by_id[cid], sampled_outcomes=tuple(vals)) for cid, vals in outcomes.items()
    ]
    return build_dataset(records)


def summarize(dataset: Dataset) -> list[ClusterSummary]:
    """One summary per cluster, order preserved; ybar is the sampled mean."""
    out = []
    for c in dataset.clusters:
        out.append(
            ClusterSummary(
                cluster_id=c.cluster_id,
                n_total=c.n_total,
                n_sampled=c.n_sampled,
                ybar=math.fsum(c.sampled_outcomes) / c.n_sampled,
                covariates=c.covariates,
                treatment=c.treatment,
            )
        )
    return out


def write_dataset(dataset: Dataset, units_path, clusters_path) -> None:
    """Write a dataset back to the two CSV schemas.

    Unit ids are synthesized as u1, u2, ... within each cluster. Floats are
    written with ``repr`` so reloading reproduces them bit for bit.
    """
    with open(units_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["cluster_id", "unit_id", "outcome"])
        for c in dataset.clusters:
            for i, y in enumerate(c.sampled_outcomes, start=1):
                w.writerow([c.cluster_id, f"u{i}", repr(y)])
    write_clusters(dataset.clusters, clusters_path)


def write_clusters(records: Sequence[ClusterRecord], clusters_path) -> None:
    """Write cluster records to the clusters CSV schema."""
    records = list(records)
    k = len(records[0].covariates) if records else 0
    has_treatment = any(r.treatment is not None for r in records)
    with open(clusters_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        header = ["cluster_id", "n_total"] + [f"x{i}" for i in range(1, k + 1)]
        if has_treatment:
            header.append("treatment")
        w.writerow(header)
        for r in records:
            row = [r.cluster_id, r.n_total] + [repr(x) for x in r.covariates]
            if has_treatment:
                row.append("" if r.treatment is None else r.treatment)
            w.writerow(row)
