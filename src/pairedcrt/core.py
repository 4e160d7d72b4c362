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

A CSV is read in pieces of about ``_CHUNK_CHARS`` characters that end at
line breaks, and one leading UTF-8 byte order mark is dropped. A piece with
no double quote, no NUL, no carriage return outside a CRLF line break and no
line longer than ``csv.field_size_limit()`` (the package's own files, which
``csv.writer`` ends with CRLF, and most exports) is split once into
columns. From the first piece that is not, such as one with a quoted field,
the rest of the text goes through ``csv.reader``. The input alone decides,
and both paths give the same columns, line numbers and errors.

A units CSV is never held whole: of each row :func:`load_dataset` keeps its
outcome, a cluster code and a hash of its (cluster_id, unit_id), and the
field strings die with their piece, so loading traces about twice the
file's size. Errors are raised only once the whole text has been read, so
they are those, with the lines, that a whole-file read would give.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import operator
import re
from dataclasses import asdict, dataclass, replace
from itertools import chain
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

#: Characters of CSV text parsed at a time. A chunk's field strings take
#: several times its text and die with it, so they stay in the CPU's
#: caches, and a units CSV is never held whole: of each row only its
#: outcome, cluster code and key hash (24 bytes) are kept.
_CHUNK_CHARS = 1 << 16

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
    CSV (path or open text stream): the chunks of :func:`_csv_chunks`,
    joined, with the errors it raises."""
    chunks = _csv_chunks(source, kind)
    header = next(chunks)
    columns = [[] for _ in header]
    lines = [np.zeros(0, dtype=np.int64)]
    for cols, row_lines in chunks:
        for column, col in zip(columns, cols):
            column.extend(col)
        lines.append(row_lines)
    return header, dict(zip(header, columns)), np.concatenate(lines)


def _csv_chunks(source, kind: str):
    """Reads a CSV (path or open text stream) in chunks of about
    ``_CHUNK_CHARS`` characters. Yields its header, a list of names, then
    for each chunk of data rows a list of columns of field strings, in
    header order, and an array of the physical line each row starts on.

    One leading byte order mark is dropped and blank rows are skipped. A
    ``DataError`` is raised for a file that is not UTF-8, a malformed CSV, a
    repeated column name and then the first row whose field count differs
    from the header's, in that order of precedence, and only once the whole
    text has been read, so the error is the one a whole-file read finds
    first. No chunk is yielded after a repeated name or such a row.
    """
    batches = _row_batches(source, kind)
    header = next(batches)
    yield header
    bad = None
    if len(set(header)) != len(header):
        bad = DataError(f"{kind} header repeats a column: {header}")
    for widths, lines, columns in batches:
        if bad is not None:
            continue  # only a decoding or CSV error can still come first
        wrong = widths != len(header)
        if wrong.any():
            i = int(wrong.argmax())
            bad = DataError(
                f"{kind} line {lines[i]}: {widths[i]} fields where the header has {len(header)}"
            )
        else:
            yield columns, lines
    if bad is not None:
        raise bad


def _row_batches(source, kind: str):
    """The rows of a CSV, a batch per piece of :func:`_text_chunks`: yields
    the header, then per batch each row's field count, the physical line it
    starts on and the columns, which hold the rows' fields in order when
    every row has the header's width.

    A piece is split into columns at once, as long as every piece before it
    was; the first one that ``_split_rows`` declines and all later ones go
    through ``csv.reader``. Both give the same rows, line numbers and errors.
    """
    limit = csv.field_size_limit()
    pieces = _text_chunks(source, kind)
    header, line = None, 0  # physical lines before the piece
    for text, own_lines in pieces:
        split = _split_rows(text, limit)
        if split is None:
            yield from _reader_batches(chain([(text, own_lines)], pieces), kind, header, line)
            return
        starts, widths, fields, count = split
        lines = starts + (line + 1)
        if header is None:
            # the first line is the header, or an empty one when blank
            header = fields[: widths[0]] if len(starts) and starts[0] == 0 else []
            if header:
                fields, widths, lines = fields[len(header) :], widths[1:], lines[1:]
            yield header
        line += count
        yield widths, lines, [fields[j :: len(header)] for j in range(len(header))]


def _split_rows(text: str, limit: int):
    """The non-blank rows of ``text``, whole lines, from one split: (the
    index of the line each starts on, their field counts, all their fields
    in one list, the number of lines), or None for a text holding a quote, a
    NUL, a carriage return outside CRLF or a line longer than ``limit``,
    which only ``csv.reader`` reads right."""
    text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\0" in text:
        return None
    if text and not text.endswith("\n"):
        text += "\n"
    # in UTF-8 the bytes of "\n" and "," stand for nothing else
    raw = np.frombuffer(text.encode("utf-8"), np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts  # bytes, at least the characters
    if len(ends) and lengths.max() > limit:
        return None
    kept = lengths > 0
    commas = np.flatnonzero(raw == ord(","))
    widths = np.searchsorted(commas, ends[kept]) - np.searchsorted(commas, starts[kept]) + 1
    if not kept.all():
        text = "\n".join(filter(None, text.split("\n")))
    fields = text.rstrip("\n").replace("\n", ",").split(",") if kept.any() else []
    return np.flatnonzero(kept), widths, fields, len(ends)


def _reader_batches(pieces, kind: str, header, line: int):
    """``_row_batches``'s output from ``csv.reader`` over the lines of
    ``pieces``, which start after physical line ``line``; the header is read
    and yielded first when ``header`` is None."""
    begun = 0  # pieces the reader has taken lines from

    def lines():
        nonlocal begun
        for text, own_lines in pieces:
            begun += 1
            yield from io.StringIO(text, newline="") if own_lines is None else own_lines

    def batch(rows: list, starts: list):
        columns = list(zip(*rows)) if rows else [()] * len(header)
        widths = np.fromiter(map(len, rows), np.int64, len(rows))
        return widths, np.array(starts, dtype=np.int64) + line, columns

    reader = csv.reader(lines())
    try:
        if header is None:
            header = next(reader, [])
            yield header
        rows, starts, batched = [], [], begun
        start = reader.line_num + 1
        for row in reader:
            if begun != batched:
                yield batch(rows, starts)
                rows, starts, batched = [], [], begun
            if row:
                rows.append(row)
                starts.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:
        for _ in pieces:
            pass  # a byte that is not UTF-8, further on, comes first
        raise DataError(f"{kind} line {reader.line_num + line}: {exc}") from None
    yield batch(rows, starts)


def _text_chunks(source, kind: str):
    """The text of a CSV in pieces of about ``_CHUNK_CHARS`` characters,
    each ending at a line break but the last, with one leading byte order
    mark dropped. Yields (text, lines): the lines ``csv.reader`` is to read,
    a stream's own, or None for a file's, which are those of
    ``io.StringIO(text, newline="")``.

    A path is read as UTF-8; a byte that is not raises ``DataError`` naming
    its offset in the file. A stream is read as an iterable of lines.
    """
    if not isinstance(source, (str, Path)):
        lines, size, fresh = [], 0, True
        for line in source:
            if fresh:
                line, fresh = line.removeprefix(_BOM), False
            lines.append(line)
            size += len(line)
            if size >= _CHUNK_CHARS:
                yield "".join(lines), lines
                lines, size = [], 0
        yield "".join(lines), lines
        return
    decoder = codecs.getincrementaldecoder("utf-8")()
    parts, done, fresh = [], 0, True
    with open(source, "rb") as fh:
        while True:
            block = fh.read(_CHUNK_CHARS)
            try:
                text = decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                at = done - len(decoder.getstate()[0]) + exc.start
                raise DataError(
                    f"{kind} {str(source)!r} is not UTF-8: {exc.reason} at byte {at}"
                ) from None
            done += len(block)
            if fresh and text:
                text, fresh = text.removeprefix(_BOM), False
            cut = text.rfind("\n") + 1
            if cut:
                parts.append(text[:cut])
                yield "".join(parts), None
                parts = [text[cut:]]
            else:
                parts.append(text)
            if not block:
                break
    yield "".join(parts), None


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


def _unit_chunks(source):
    """A units CSV (path or open text stream) in the chunks of
    :func:`_csv_chunks`: yields each chunk's ``cluster_id`` and ``unit_id``
    fields, its outcomes as floats and the physical line each row starts on.

    After the errors of ``_csv_chunks``, raises ``DataError`` for a header
    without the three columns, then for the first outcome that is not a
    number, then ``NonFiniteOutcome`` for the first one that is not finite,
    once the whole text has been read. No chunk is yielded after an error.
    """
    chunks = _csv_chunks(source, "units CSV")
    header = next(chunks)
    required = ("cluster_id", "unit_id", "outcome")
    error = None  # the first one found, raised once the text is read
    if not set(required).issubset(header):
        error = DataError(f"units CSV header must contain {sorted(required)}, got {header}")
    else:
        at = [header.index(name) for name in required]
    for columns, lines in chunks:
        if error is not None and not isinstance(error, NonFiniteOutcome):
            continue  # no later row can bring an error that comes first
        ids, units, texts = (columns[j] for j in at)
        try:
            outcome = _parse_column(
                texts,
                float,
                float,
                lambda i, text: DataError(f"units CSV line {lines[i]}: bad outcome {text!r}"),
            )
        except DataError as exc:
            error = exc
            continue
        bad = ~np.isfinite(outcome)
        if error is None and bad.any():
            i = int(bad.argmax())
            error = NonFiniteOutcome(f"units CSV line {lines[i]}: outcome {float(outcome[i])!r}")
        if error is None:
            yield ids, units, outcome, lines
    if error is not None:
        raise error


def _unit_columns(source):
    """Reads a units CSV with :func:`_unit_chunks`, keeping of each row only
    its outcome, a code for its cluster_id and a hash of its (cluster_id,
    unit_id). Returns these three arrays and the cluster_ids in code order.

    The arrays grow by half as chunks come in, in place where the allocator
    can, so no field string outlives its chunk.
    """
    outcome = np.empty(0)
    codes = np.empty(0, dtype=np.intp)
    keys = np.empty(0, dtype=np.int64)
    code_of = {}
    n = 0
    for ids, units, y, _ in _unit_chunks(source):
        for cid in set(ids).difference(code_of):
            code_of[cid] = len(code_of)
        m = n + len(y)
        if m > len(outcome):
            for column in (outcome, codes, keys):
                column.resize(max(m, len(column) * 3 // 2), refcheck=False)
        outcome[n:m] = y
        codes[n:m] = np.fromiter(map(code_of.__getitem__, ids), np.intp, len(ids))
        keys[n:m] = np.fromiter(map(hash, zip(ids, units)), np.int64, len(ids))
        n = m
    for column in (outcome, codes, keys):
        column.resize(n, refcheck=False)
    return outcome, codes, keys, list(code_of)


def _unit_rows(reread, rows: np.ndarray) -> list[tuple[str, str, int]]:
    """(cluster_id, unit_id, line) of each of ``rows``, row indices in
    increasing order, read again from the units CSV ``reread()``."""
    found, n = [], 0
    for ids, units, _, lines in _unit_chunks(reread()):
        for r in (rows[(rows >= n) & (rows < n + len(lines))] - n).tolist():
            found.append((ids[r], units[r], int(lines[r])))
        n += len(lines)
    return found


def _replayable(source):
    """A function giving ``source`` from where it stands now, each time it is
    called: a path as it is, a seekable stream sought back, and the lines of
    any other stream, read once, as a list."""
    if isinstance(source, (str, Path)):
        return lambda: source
    if source.seekable():
        try:
            start = source.tell()
        except OSError:  # a file iterated with next() cannot tell where it is
            pass
        else:

            def again():
                source.seek(start)
                return source

            return again
    lines = source.readlines()
    return lambda: lines


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
    unit_id) may repeat; sampled outcomes are kept in input order. The units
    CSV is read in chunks (a stream that cannot seek is read whole first),
    and any error in it comes before one in the clusters CSV, then an
    unknown cluster, then a repeated unit.
    """
    units = _replayable(units_source)
    outcome, codes, keys, ids = _unit_columns(units())
    clusters = read_clusters(clusters_source)
    index_of = {cid: i for i, cid in enumerate(clusters.cluster_ids)}
    codes = np.array([index_of.get(cid, -1) for cid in ids], dtype=np.intp)[codes]
    if (codes < 0).any():
        [(cid, unit, line)] = _unit_rows(units, np.flatnonzero(codes < 0)[:1])
        raise UnknownCluster(
            f"units CSV line {line}: unit {unit!r} references unknown cluster {cid!r}"
        )
    # Rows whose key hashes another row's are read again and compared
    # exactly, so a collision of hashes never rejects distinct units.
    ranked = np.sort(keys)
    repeats = ranked[1:][ranked[1:] == ranked[:-1]]
    if len(repeats):
        found = _unit_rows(units, np.flatnonzero(np.isin(keys, repeats)))
        i = _first_repeat([(cid, unit) for cid, unit, _ in found])
        if i is not None:
            cid, unit, line = found[i]
            raise DuplicateUnit(f"units CSV line {line}: duplicate unit {(cid, unit)!r}")
    del keys, ranked  # freed before build_dataset's own temporaries
    offsets = np.zeros(clusters.n_clusters + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes, minlength=clusters.n_clusters), out=offsets[1:])
    outcomes = outcome[np.argsort(codes, kind="stable")]
    del outcome, codes
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


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, a bool not counting."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(value, name: str, minimum: int) -> None:
    """Raises ``ValueError`` unless argument ``name`` is an integer >= ``minimum``."""
    whole = _is_integer(value)
    if not (whole and value >= minimum):
        need = f"at least {minimum}" if whole else f"an integer of at least {minimum}"
        raise ValueError(f"{name} must be {need}, got {value!r}")
