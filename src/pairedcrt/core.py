"""The columnar ``Dataset``, CSV ingestion and CSV output, and the JSON
form of result records (:func:`_json_record`).

A trial consists of 2G clusters. A :class:`Dataset` holds one column per
cluster-level quantity, every column in ``cluster_id`` order:

* ``cluster_ids``: the ids, sorted by string comparison;
* ``n_total``: each cluster's full size N_g (int);
* ``X``: the (2G, k) baseline covariates (float);
* ``treatment``: 0/1 per cluster (int), or ``None`` before assignment;
* ``outcomes`` and ``offsets``: the sampled units' outcomes in CSR form,
  cluster g's units being ``outcomes[offsets[g]:offsets[g + 1]]`` in input
  order, or both ``None`` for a clusters-only table;
* ``n_sampled`` (|S_g|) and ``ybar`` (the sampled mean, ``math.fsum`` of the
  cluster's outcomes over their count), computed once by
  :func:`build_dataset`, or ``None`` without outcomes.

The cluster sums are ``math.fsum``'s bit for bit, the exactly rounded sum
(ties to even), but come from one array pass: prefix sums of all outcomes,
the exact error of each prefix step (TwoSum) and a per-cluster proof that
the rounded result is the nearest float to the exact sum. Only a cluster the
proof does not cover (a zero sum, a tie the error terms do not pin down,
extreme dynamic range or an absolute sum near overflow) calls ``math.fsum``.

Matching, estimation, inference and the randomization test read these
columns directly. :func:`build_dataset` is the one constructor: it sorts by
``cluster_id`` and validates every column, so downstream code relies on id
order (matching tie-breaks, design serialization) and on finite values.

Input schemas (UTF-8, comma-delimited, ``.`` decimal point):

* units CSV: header ``cluster_id,unit_id,outcome``
* clusters CSV: header ``cluster_id,n_total,x1,...,xk[,treatment]``
  with ``treatment`` in {0, 1} when present.

Blank lines are skipped; any other row must have as many fields as the
header. Errors name the physical line on which the offending row starts,
counting the header as line 1, blank lines and the line breaks inside quoted
fields.

A CSV is read whole, and one leading UTF-8 byte order mark is dropped. A
text with no double quote, no NUL, no carriage return outside a CRLF line
break and no line longer than ``csv.field_size_limit()`` (the package's own
files, which ``csv.writer`` ends with CRLF, and most exports) is split once
into columns. Any other text, such as one with quoted fields, goes through
``csv.reader``. The input alone decides, and both paths give the same
columns, line numbers and errors.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

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

_BOM = "\ufeff"

@dataclass(frozen=True)
class Dataset:
    """A validated trial of 2G clusters as read-only columns in cluster_id order.

    Build it with :func:`build_dataset`. The arrays cannot be written to; ``==``
    on two datasets compares arrays and raises, so compare columns instead.
    """

    cluster_ids: tuple[str, ...]
    n_total: np.ndarray
    X: np.ndarray
    treatment: np.ndarray | None
    outcomes: np.ndarray | None
    offsets: np.ndarray | None
    n_sampled: np.ndarray | None
    ybar: np.ndarray | None

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_ids)

    @property
    def n_pairs(self) -> int:
        return len(self.cluster_ids) // 2

    @property
    def covariate_dim(self) -> int:
        return self.X.shape[1]

    def with_treatments(self, treatments: Sequence[int]) -> "Dataset":
        """Return a copy with the given per-cluster treatment labels."""
        return replace(self, treatment=_treatment_column(treatments, self.cluster_ids))


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _treatment_column(treatments, cluster_ids: Sequence[str]) -> np.ndarray:
    if len(treatments) != len(cluster_ids):
        raise NonBinaryTreatment(
            f"expected {len(cluster_ids)} treatments, got {len(treatments)}"
        )
    t = np.asarray(treatments)
    if t.dtype == object and any(v is None for v in t.tolist()):
        raise NonBinaryTreatment("treatment present for some clusters but not all")
    bad = ~np.isin(t, (0, 1))
    if bad.any():
        i = int(bad.argmax())
        raise NonBinaryTreatment(
            f"cluster {cluster_ids[i]!r}: treatment {t.tolist()[i]!r} not in {{0, 1}}"
        )
    return _frozen(t.astype(np.int64))


def build_dataset(
    cluster_ids: Sequence[str],
    n_total,
    X,
    treatment=None,
    outcomes=None,
    offsets=None,
) -> Dataset:
    """Validate cluster columns and assemble a Dataset sorted by cluster_id.

    ``n_total`` holds one integer per cluster and ``X`` one row of k
    covariates per cluster. ``treatment`` (0/1 per cluster) is optional.
    ``outcomes`` and ``offsets`` give the sampled outcomes in CSR form, the
    units of the i-th cluster being ``outcomes[offsets[i]:offsets[i + 1]]``;
    leave both out for a clusters-only table. Raises a ``DataError`` subclass
    naming the cluster for any invalid value.
    """
    ids = tuple(cluster_ids)
    m = len(ids)
    if m < 4 or m % 2 != 0:
        raise OddClusterCount(f"need an even cluster count >= 4, got {m}")
    repeat = _first_repeat(ids)
    if repeat is not None:
        raise DataError(f"duplicate cluster_id {ids[repeat]!r}")
    try:
        x = np.array(X, dtype=float)
    except ValueError as exc:
        raise RaggedCovariates(f"covariates do not form one row per cluster: {exc}") from None
    if x.ndim != 2 or x.shape[0] != m:
        raise RaggedCovariates(f"covariates must have shape (clusters, k), got {x.shape}")
    n = np.array(n_total)
    if n.shape != (m,) or not np.issubdtype(n.dtype, np.integer):
        raise DataError(f"n_total must hold one integer per cluster, got {n.dtype} {n.shape}")
    t = None if treatment is None else _treatment_column(treatment, ids)
    if (outcomes is None) != (offsets is None):
        raise DataError("outcomes and offsets come together")

    # ids already in order, as a simulated trial's are, need no sort
    permuted = not all(map(operator.lt, ids, ids[1:]))
    if permuted:
        order = np.array(sorted(range(m), key=ids.__getitem__), dtype=np.intp)
        ids = tuple(ids[i] for i in order)
        x, n = x[order], n[order]
        t = None if t is None else _frozen(t[order])

    bad = n < 1
    if bad.any():
        raise DataError(f"cluster {ids[int(bad.argmax())]!r}: n_total must be positive")
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        i = int(bad.argmax())
        value = next(v for v in x[i].tolist() if not math.isfinite(v))
        raise DataError(f"cluster {ids[i]!r}: covariate {value!r} is not finite")

    y = starts = counts = ybar = None
    if outcomes is not None:
        y, starts = _csr_columns(outcomes, offsets, m)
        if permuted:
            y, starts = _gather_clusters(y, starts, order)
        counts = np.diff(starts)
        empty = counts == 0
        if empty.any():
            raise EmptyCluster(f"cluster {ids[int(empty.argmax())]!r} has no sampled units")
        over = counts > n
        if over.any():
            i = int(over.argmax())
            raise SampleExceedsSize(
                f"cluster {ids[i]!r}: {counts[i]} sampled units exceed n_total={n[i]}"
            )
        bad = ~np.isfinite(y)
        if bad.any():
            k = int(bad.argmax())
            i = int(np.searchsorted(starts, k, side="right")) - 1
            raise NonFiniteOutcome(f"cluster {ids[i]!r}: outcome {float(y[k])!r}")
        ybar = _cluster_sums(y, starts, ids) / counts

    return Dataset(
        cluster_ids=ids,
        n_total=_frozen(n.astype(np.int64)),
        X=_frozen(x),
        treatment=t,
        outcomes=None if y is None else _frozen(y),
        offsets=None if starts is None else _frozen(starts),
        n_sampled=None if counts is None else _frozen(counts),
        ybar=None if ybar is None else _frozen(ybar),
    )


def _csr_columns(outcomes, offsets, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``outcomes`` as a flat float array and ``offsets`` as int64, checking
    that the offsets rise from 0 to the outcome count in m + 1 entries."""
    y = np.array(outcomes, dtype=float)
    starts = np.array(offsets)
    if (
        y.ndim != 1
        or starts.shape != (m + 1,)
        or not np.issubdtype(starts.dtype, np.integer)
        or starts[0] != 0
        or starts[-1] != len(y)
        or (np.diff(starts) < 0).any()
    ):
        raise DataError(f"offsets must rise from 0 to the outcome count in {m + 1} entries")
    return y, starts.astype(np.int64)


def _cluster_sums(y: np.ndarray, offsets: np.ndarray, ids: Sequence[str]) -> np.ndarray:
    """math.fsum of each cluster's outcomes: the exactly rounded sum, whatever
    the unit order, bit for bit. Raises ``DataError`` naming the first
    cluster, in id order, whose ``math.fsum`` overflows.

    :func:`_certified_sums` rounds every cluster's sum in one array pass and
    proves, cluster by cluster, that the result is the float nearest the
    exact sum, which is what ``math.fsum`` returns. Only the clusters it
    cannot prove (a zero sum, a tie its error terms do not settle, a huge
    dynamic range or an absolute sum that may overflow inside ``math.fsum``)
    are summed by ``math.fsum``, in id order, so overflow is reported as
    before.
    """
    sums, proven = _certified_sums(y, offsets)
    for g in np.flatnonzero(~proven).tolist():
        try:
            sums[g] = math.fsum(y[offsets[g] : offsets[g + 1]].tolist())
        except OverflowError:
            raise DataError(f"cluster {ids[g]!r}: the sum of its outcomes overflows") from None
    return sums


# a cluster whose absolute sum reaches this may overflow inside math.fsum,
# which then raises; below it, fsum's partial sums stay far from overflow
_FSUM_SAFE = 2.0**1000


def _certified_sums(y: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's sum of the CSR outcomes ``y`` (no empty cluster) in one
    array pass, and a mask of the clusters where it is proven to be the
    correctly rounded (ties to even) nonzero sum, which ``math.fsum`` returns.

    With Q = [0, add.accumulate(y)], TwoSum (Knuth; Ogita, Rump & Oishi 2005)
    gives the exact error err_i = Q_i + y_i - Q_{i+1} of every step, so
    cluster [a, b) sums exactly to (Q_b - Q_a) + (err_a + ... + err_{b-1}).
    TwoSum splits Q_b - Q_a into h + e0, and h + lo into r + t, where lo is
    e0 plus the ``np.add.reduceat`` sum of the cluster's errors. The exact
    sum is h + lo + (the rounding error of lo), and r = fl(h + lo) is proven
    where that rounding error is zero, or where it and t together stay
    below half the gap from r to its nearer neighbouring float.
    """
    a, b = offsets[:-1], offsets[1:]
    counts = np.diff(offsets)
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.empty(len(y) + 1)
        q[0] = 0.0
        # accumulate is documented as the left-to-right loop from 0, so
        # Q_{i+1} = fl(Q_i + y_i), the sum TwoSum needs
        np.add.accumulate(y, out=q[1:])
        _, err = _two_sum(q[:-1], y, q[1:])
        h, e0 = _two_sum(q[b], -q[a])
        lo = e0 + np.add.reduceat(err, a)
        r, t = _two_sum(h, lo)
        size = np.abs(e0) + np.add.reduceat(np.abs(err, out=err), a)
        absy = np.abs(y)
        # Every y_i, Q_i, err_i and e0 is a multiple of g, the spacing of
        # floats at the smallest nonzero |y_i|. A sum of such terms whose
        # absolute values total below 2^53 g has exact partial sums, in any
        # order: there lo is exact and r is the rounded sum, even at a tie.
        g = math.ulp(float(absy.min(initial=np.inf, where=absy > 0)))
        exact = size < 2.0**53 * g
        # Otherwise lo sums c + 1 terms for a cluster of c units, so its
        # rounding error is at most gamma_c * size, gamma_c = cu / (1 - cu)
        # with u = 2^-53 (Higham, Accuracy and Stability, 2002, eq. 4.4).
        # The factor 2 covers the rounding of the bound itself: a nonzero
        # error is at least 2^-1074, so an underflowing bound loses nothing.
        cu = counts * 2.0**-53
        bound = 2.0 * (cu / (1.0 - cu)) * size
        half_gap = 0.5 * np.minimum(np.nextafter(r, np.inf) - r, r - np.nextafter(r, -np.inf))
        proven = (
            (exact | (np.abs(t) + bound < half_gap))
            & (r != 0.0)  # fsum decides the sign of a zero sum
            & np.isfinite(r)  # hence also h, lo and the cluster's prefix sums
            & (np.add.reduceat(absy, a) < _FSUM_SAFE)
        )
    return r, proven


def _two_sum(
    x: np.ndarray, y: np.ndarray, s: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with s = fl(x + y), computed unless given, and x + y = s + e
    exactly, where nothing overflows (Knuth, TAOCP vol. 2)."""
    if s is None:
        s = x + y
    z = s - x
    e = s - z
    np.subtract(x, e, out=e)
    np.subtract(y, z, out=z)
    e += z
    return s, e


def _first_repeat(values: Sequence) -> int | None:
    """Index of the first value equal to an earlier one, or None."""
    if len(set(values)) == len(values):
        return None
    seen = set()
    for i, value in enumerate(values):
        if value in seen:
            return i
        seen.add(value)
    return None


def _gather_clusters(y: np.ndarray, offsets: np.ndarray, order: np.ndarray):
    """The CSR outcomes with clusters taken in ``order``; returns (y, offsets)."""
    counts = np.diff(offsets)[order]
    new = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(counts, out=new[1:])
    index = np.repeat(offsets[:-1][order] - new[:-1], counts) + np.arange(new[-1])
    return y[index], new


def _read_csv(source, kind: str) -> tuple[list[str], dict[str, list[str]], np.ndarray]:
    """Header, columns and the physical line each data row starts on, of a
    CSV (path or open text stream).

    One leading byte order mark is dropped and blank rows are skipped.
    Raises ``DataError`` for a file that is not UTF-8, a malformed CSV, a
    repeated column name or a row whose field count differs from the
    header's.
    """
    lines = None
    if isinstance(source, (str, Path)):
        try:
            with open(source, newline="", encoding="utf-8") as fh:
                text = fh.read().removeprefix(_BOM)
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{kind} {str(source)!r} is not UTF-8: {exc.reason} at byte {exc.start}"
            ) from None
    else:
        # keep the stream's own line breaks for csv.reader
        lines = source.readlines()
        if lines:
            lines[0] = lines[0].removeprefix(_BOM)
        text = "".join(lines)
    table = _split_csv(text, kind)
    if table is None:
        # a StringIO with newline="" breaks lines as a file opened with it does
        table = _reader_csv(io.StringIO(text, newline="") if lines is None else lines, kind)
    return table


def _split_csv(text: str, kind: str):
    """``_read_csv``'s table from one split of ``text``, or None for a text
    holding a quote, a NUL, a carriage return outside CRLF or a line longer
    than ``csv.field_size_limit()``, which only ``csv.reader`` reads right."""
    text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\0" in text:
        return None
    head, _, body = text.partition("\n")
    if body and not body.endswith("\n"):
        body += "\n"
    # in UTF-8 the bytes of "\n" and "," stand for nothing else
    raw = np.frombuffer(body.encode("utf-8"), np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts  # bytes, at least the characters
    limit = csv.field_size_limit()
    if len(head) > limit or (len(ends) and lengths.max() > limit):
        return None
    header = head.split(",") if head else []
    kept = lengths > 0
    row_lines = np.flatnonzero(kept) + 2
    commas = np.flatnonzero(raw == ord(","))
    widths = np.searchsorted(commas, ends[kept]) - np.searchsorted(commas, starts[kept]) + 1
    _check_shape(kind, header, widths, row_lines)
    if len(row_lines) < len(ends):
        body = "\n".join(filter(None, body.split("\n")))
    fields = body.rstrip("\n").replace("\n", ",").split(",") if len(row_lines) else []
    width = len(header)
    return header, {name: fields[j::width] for j, name in enumerate(header)}, row_lines


def _reader_csv(lines, kind: str):
    """``_read_csv``'s table from ``csv.reader`` over an iterable of lines."""
    reader = csv.reader(lines)
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
    row_lines = np.array(starts, dtype=np.int64)
    _check_shape(kind, header, np.fromiter(map(len, rows), np.int64, len(rows)), row_lines)
    columns = zip(*rows) if rows else [()] * len(header)
    return header, {name: list(col) for name, col in zip(header, columns)}, row_lines


def _check_shape(kind: str, header: list[str], widths: np.ndarray, lines: np.ndarray) -> None:
    """Reject a repeated column name, then the first row whose field count
    ``widths`` differs from the header's."""
    if len(set(header)) != len(header):
        raise DataError(f"{kind} header repeats a column: {header}")
    bad = widths != len(header)
    if bad.any():
        i = int(bad.argmax())
        raise DataError(
            f"{kind} line {lines[i]}: {widths[i]} fields where the header has {len(header)}"
        )


def _parse_column(
    texts: Sequence[str], parse: Callable, dtype, error: Callable[[int, str], Exception]
) -> np.ndarray:
    """One CSV column through ``parse``; ``error(i, text)`` is raised for the
    first field, the i-th, that does not parse or does not fit ``dtype``."""
    try:
        return np.fromiter(map(parse, texts), dtype=dtype, count=len(texts))
    except (ValueError, OverflowError, KeyError):
        for i, text in enumerate(texts):
            try:
                np.array(parse(text), dtype=dtype)
            except (ValueError, OverflowError, KeyError):
                raise error(i, text) from None
        raise


def _unit_columns(source):
    """A units CSV's ``cluster_id`` and ``unit_id`` columns, its outcomes as
    floats and the physical line each row starts on."""
    header, cols, lines = _read_csv(source, "units CSV")
    required = {"cluster_id", "unit_id", "outcome"}
    if not required.issubset(header):
        raise DataError(f"units CSV header must contain {sorted(required)}, got {header}")
    outcome = _parse_column(
        cols["outcome"],
        float,
        float,
        lambda i, text: DataError(f"units CSV line {lines[i]}: bad outcome {text!r}"),
    )
    bad = ~np.isfinite(outcome)
    if bad.any():
        i = int(bad.argmax())
        raise NonFiniteOutcome(f"units CSV line {lines[i]}: outcome {float(outcome[i])!r}")
    return cols["cluster_id"], cols["unit_id"], outcome, lines


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


def read_clusters(source) -> Dataset:
    """Parse a clusters CSV into a clusters-only Dataset (no outcomes).

    Every ``cluster_id`` must be unique, every ``n_total`` a positive
    integer, every covariate finite and every ``treatment``, when the column
    is present, 0 or 1. These are checked here, before the cluster count, so
    an error names the CSV line.
    """
    header, cols, lines = _read_csv(source, "clusters CSV")
    if "cluster_id" not in header or "n_total" not in header:
        raise DataError(f"clusters CSV header must contain cluster_id and n_total, got {header}")
    xcols = _covariate_columns(header)
    known = {"cluster_id", "n_total", "treatment", *xcols}
    extra = [c for c in header if c not in known]
    if extra:
        raise DataError(f"unrecognized clusters CSV columns: {extra}")
    ids = cols["cluster_id"]
    i = _first_repeat(ids)
    if i is not None:
        raise DataError(f"clusters CSV line {lines[i]}: duplicate cluster_id {ids[i]!r}")
    n_total = _parse_column(
        cols["n_total"],
        int,
        np.int64,
        lambda i, text: DataError(f"clusters CSV line {lines[i]}: bad n_total {text!r}"),
    )
    bad = n_total < 1
    if bad.any():
        i = int(bad.argmax())
        raise DataError(
            f"clusters CSV line {lines[i]}: cluster {ids[i]!r}: n_total must be positive"
        )
    x = np.empty((len(ids), len(xcols)))
    for j, col in enumerate(xcols):
        x[:, j] = _parse_column(
            cols[col],
            float,
            float,
            lambda i, text: RaggedCovariates(
                f"clusters CSV line {lines[i]}: bad covariate value {text!r}"
            ),
        )
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        i = int(bad.argmax())
        value = next(v for v in x[i].tolist() if not math.isfinite(v))
        raise DataError(
            f"clusters CSV line {lines[i]}: cluster {ids[i]!r}: covariate {value!r} is not finite"
        )
    treatment = None
    if "treatment" in header:
        treatment = _parse_column(
            cols["treatment"],
            lambda text: {"0": 0, "1": 1}[text.strip()],
            np.int64,
            lambda i, text: NonBinaryTreatment(
                f"clusters CSV line {lines[i]}: treatment {text.strip()!r} not in {{0, 1}}"
            ),
        )
    return build_dataset(ids, n_total, x, treatment)


def load_dataset(units_source, clusters_source) -> Dataset:
    """Load and validate a dataset from a units CSV and a clusters CSV.

    Sources may be file paths or open text streams. Every unit row must
    reference a cluster present in the clusters table, and no (cluster_id,
    unit_id) may repeat; sampled outcomes are kept in input order.
    """
    cluster_col, unit_col, outcome, lines = _unit_columns(units_source)
    clusters = read_clusters(clusters_source)
    index_of = {cid: i for i, cid in enumerate(clusters.cluster_ids)}
    try:
        codes = np.fromiter(map(index_of.__getitem__, cluster_col), np.intp, len(cluster_col))
    except KeyError as exc:
        i = cluster_col.index(exc.args[0])
        raise UnknownCluster(
            f"units CSV line {lines[i]}: unit {unit_col[i]!r} references unknown "
            f"cluster {cluster_col[i]!r}"
        ) from None
    keys = list(zip(cluster_col, unit_col))
    i = _first_repeat(keys)
    if i is not None:
        raise DuplicateUnit(f"units CSV line {lines[i]}: duplicate unit {keys[i]!r}")
    offsets = np.zeros(clusters.n_clusters + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes, minlength=clusters.n_clusters), out=offsets[1:])
    outcomes = outcome[np.argsort(codes, kind="stable")]
    return build_dataset(
        clusters.cluster_ids, clusters.n_total, clusters.X, clusters.treatment, outcomes, offsets
    )


def write_dataset(dataset: Dataset, units_path, clusters_path) -> None:
    """Write a dataset back to the two CSV schemas.

    Unit ids are synthesized as u1, u2, ... within each cluster. Floats are
    written with ``repr`` so reloading reproduces them bit for bit.
    """
    if dataset.outcomes is None:
        raise DataError("write_dataset needs sampled outcomes; use write_clusters")
    counts = dataset.n_sampled
    cluster_of_unit = np.repeat(np.array(dataset.cluster_ids, dtype=object), counts)
    unit_number = np.arange(1, len(dataset.outcomes) + 1) - np.repeat(dataset.offsets[:-1], counts)
    with open(units_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["cluster_id", "unit_id", "outcome"])
        w.writerows(
            zip(
                cluster_of_unit.tolist(),
                map("u{}".format, unit_number.tolist()),
                map(repr, dataset.outcomes.tolist()),
            )
        )
    write_clusters(dataset, clusters_path)


def write_clusters(dataset: Dataset, clusters_path) -> None:
    """Write a dataset's cluster columns to the clusters CSV schema."""
    k = dataset.covariate_dim
    header = ["cluster_id", "n_total"] + [f"x{i}" for i in range(1, k + 1)]
    columns = [dataset.cluster_ids, dataset.n_total.tolist()]
    columns += [map(repr, col) for col in dataset.X.T.tolist()]
    if dataset.treatment is not None:
        header.append("treatment")
        columns.append(dataset.treatment.tolist())
    with open(clusters_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*columns))


def _json_record(record) -> dict:
    """``dataclasses.asdict`` of a result record in JSON types, at any depth:
    a tuple becomes a list and a non-finite float ``None``, since JSON has
    no NaN or infinity and ``null`` marks a value that is undefined, such as
    the standard error of a degenerate test."""
    return asdict(record, dict_factory=lambda items: {k: _json_value(v) for k, v in items})


def _json_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return list(value) if isinstance(value, tuple) else value


def _check_count(value, name: str, minimum: int) -> None:
    """Raises ``ValueError`` unless argument ``name`` is an integer >= ``minimum``."""
    whole = isinstance(value, (int, np.integer))
    if not (whole and value >= minimum):
        need = f"at least {minimum}" if whole else f"an integer of at least {minimum}"
        raise ValueError(f"{name} must be {need}, got {value!r}")
