"""The columnar ``Dataset``, CSV ingestion and CSV output, and the JSON
form of result records (:func:`_json_record`).

A trial consists of 2G clusters. A :class:`Dataset` holds one column per
cluster-level quantity, every column in ``cluster_id`` order:

* ``cluster_ids``: the ids, sorted by string comparison;
* ``n_total``: each cluster's full size N_g (int);
* ``X``: the (2G, k) baseline covariates (float);
* ``treatment``: 0/1 per cluster (int), or ``None`` before assignment;
* ``n_sampled`` (|S_g|) and ``ybar`` (the sampled mean, ``math.fsum`` of the
  cluster's outcomes over their count), computed once by
  :func:`build_dataset` from the sampled outcomes the caller gives in CSR
  form, or ``None`` for a clusters-only table.

These are all that the paper's estimator, its variance estimator and the
randomization test read; no unit outcome is kept.

The cluster sums are ``math.fsum``'s bit for bit, the exactly rounded sum
(ties to even), whatever the order of units or clusters, but come from one
array pass: prefix sums of all outcomes, the exact error of each prefix step
(TwoSum) and a per-cluster proof that the rounded result is the nearest
float to the exact sum. Only a cluster the proof does not cover (a zero sum,
a tie the error terms do not pin down, extreme dynamic range or an absolute
sum near overflow) calls ``math.fsum``.

Matching, estimation, inference and the randomization test read these
columns directly. :func:`build_dataset` is the one constructor: it sorts by
``cluster_id`` and validates every column, so downstream code relies on id
order (matching tie-breaks, design serialization) and on finite values.

Input schemas (UTF-8 files, comma-delimited, ``.`` decimal point):

* units CSV: header ``cluster_id,unit_id,outcome``
* clusters CSV: header ``cluster_id,n_total,x1,...,xk[,treatment]``
  with ``treatment`` in {0, 1} when present.

Every CSV source is a file path (``str`` or ``os.PathLike``); any other
source raises ``ValueError``. Blank lines are skipped; any other row must
have as many fields as the header. Every data fault raises ``DataError``,
whose message names the cluster or the physical line on which the offending
row starts, counting the header as line 1, blank lines and the line breaks
inside quoted fields.

A CSV is read in pieces of about ``_CHUNK_CHARS`` characters that end at
line breaks, and one leading UTF-8 byte order mark is dropped. A piece with
no double quote, no NUL, no carriage return outside a CRLF line break and no
line longer than ``csv.field_size_limit()`` (the package's own files, which
``csv.writer`` ends with CRLF, and most exports) is scanned once, as UTF-8
bytes, for commas and line feeds. From the first piece that is not, such as
one with a quoted field, the rest of the text goes through ``csv.reader``,
whose fields are encoded into one buffer. Either way a piece keeps its bytes
and a (rows, width) table of the offsets where each field begins and ends
(:class:`_Fields`). The input alone decides the path, and both give the same
fields, line numbers and errors.

A field becomes a string only when its column is asked for, each column in
one decode and one split; every field of a clusters or design CSV does. Of a
units CSV, :func:`load_dataset` decodes the outcomes, whose ``float`` is the
one Python call per row, and one cluster_id per run of rows whose id has the
same bytes (one per cluster in ``csv.writer``'s files, which are grouped by
cluster). Unit ids stay bytes. Of each row it keeps the outcome, a cluster
code and a 64-bit hash of the code and the unit_id's bytes; rows whose
hashes collide are read again and compared exactly. The units CSV is never
held whole, and loading traces about 1.5 times the file's size. Errors are
raised only once the whole text has been read, so they are those, with the
lines, that a whole-file read would give.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import operator
import os
import re
from dataclasses import asdict, dataclass, replace
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import DataError

_COVARIATE_COL = re.compile(r"^x(\d+)$")

_BOM = "\ufeff"

#: The masks keeping the low 0 to 8 bytes of a 64-bit word.
_LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)

#: Characters of CSV text parsed at a time. A piece's bytes, field offsets
#: and strings take several times its text and die with it, so they stay in
#: the CPU's caches, and a units CSV is never held whole: of each row only
#: its outcome, cluster code and key hash (24 bytes) are kept.
_CHUNK_CHARS = 1 << 16

@dataclass(frozen=True)
class Dataset:
    """A validated trial of 2G clusters as read-only columns in cluster_id order:
    ``cluster_ids``, ``n_total``, ``X``, ``treatment``, ``n_sampled`` and
    ``ybar``, one value or row per cluster, and no unit outcome.

    Build it with :func:`build_dataset`. The arrays cannot be written to; ``==``
    on two datasets compares arrays and raises, so compare columns instead.
    """

    cluster_ids: tuple[str, ...]
    n_total: np.ndarray
    X: np.ndarray
    treatment: np.ndarray | None
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


def _treatment_column(treatments, cluster_ids: Sequence[str], order=slice(None)) -> np.ndarray:
    """The 0/1 treatment column, ``treatments`` taken in ``order``."""
    if len(treatments) != len(cluster_ids):
        raise DataError(f"expected {len(cluster_ids)} treatments, got {len(treatments)}")
    t = np.asarray(treatments)[order]
    if t.dtype == object and any(v is None for v in t.tolist()):
        raise DataError("treatment present for some clusters but not all")
    bad = ~np.isin(t, (0, 1))
    if bad.any():
        i = int(bad.argmax())
        raise DataError(
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

    Every cluster_id is a ``str``. ``n_total`` holds one integer per cluster
    and ``X`` one row of k covariates per cluster. ``treatment`` (0/1 per
    cluster) is optional. ``outcomes`` and ``offsets`` give the sampled
    outcomes in CSR form, the units of the i-th cluster being
    ``outcomes[offsets[i]:offsets[i + 1]]``; they are summed, in input
    order, into ``n_sampled`` and ``ybar`` and not kept. Leave both out for
    a clusters-only table. Raises ``DataError`` for any invalid value,
    naming the first faulty cluster in cluster_id order.
    """
    ids = tuple(cluster_ids)
    m = len(ids)
    if m < 4 or m % 2 != 0:
        raise DataError(f"need an even cluster count >= 4, got {m}")
    try:
        "".join(ids)  # one pass in C, a TypeError at any id that is not a str
    except TypeError:
        cid = next(cid for cid in ids if not isinstance(cid, str))
        raise DataError(f"cluster_id {cid!r} is not a string") from None
    repeat = _first_repeat(ids)
    if repeat is not None:
        raise DataError(f"duplicate cluster_id {ids[repeat]!r}")
    try:
        x = np.array(X, dtype=float)
    except ValueError as exc:
        raise DataError(f"covariates do not form one row per cluster: {exc}") from None
    if x.ndim != 2 or x.shape[0] != m:
        raise DataError(f"covariates must have shape (clusters, k), got {x.shape}")
    n = np.array(n_total)
    if n.shape != (m,) or not np.issubdtype(n.dtype, np.integer):
        raise DataError(f"n_total must hold one integer per cluster, got {n.dtype} {n.shape}")

    # ids already in order, as a simulated trial's are, need no sort
    in_order = all(map(operator.lt, ids, ids[1:]))
    order = np.arange(m) if in_order else np.array(sorted(range(m), key=ids.__getitem__))
    sorted_ids = ids if in_order else tuple(ids[i] for i in order)
    x, n = x[order], n[order]
    t = None if treatment is None else _treatment_column(treatment, sorted_ids, order)
    if (outcomes is None) != (offsets is None):
        raise DataError("outcomes and offsets come together")

    bad = n < 1
    if bad.any():
        raise DataError(f"cluster {sorted_ids[int(bad.argmax())]!r}: n_total must be positive")
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        i = int(bad.argmax())
        value = next(v for v in x[i].tolist() if not math.isfinite(v))
        raise DataError(f"cluster {sorted_ids[i]!r}: covariate {value!r} is not finite")

    counts = ybar = None
    if outcomes is not None:
        counts, ybar = _sampled_means(outcomes, offsets, ids, order, n)

    return Dataset(
        cluster_ids=sorted_ids,
        n_total=_frozen(n.astype(np.int64)),
        X=_frozen(x),
        treatment=t,
        n_sampled=None if counts is None else _frozen(counts),
        ybar=None if ybar is None else _frozen(ybar),
    )


def _sampled_means(
    outcomes,
    offsets,
    ids: Sequence[str],
    order: np.ndarray,
    n_total: np.ndarray,
    workspace: _Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``n_sampled`` and ``ybar`` of the CSR outcomes of the clusters
    ``ids``, in cluster_id order: ``order`` lists the clusters' input
    positions in that order, and ``n_total`` their sizes in it. Raises
    ``DataError`` for malformed offsets, then an empty cluster, one with more
    sampled units than its size, a non-finite outcome and an overflowing
    sum, naming the first faulty cluster in cluster_id order.

    Each cluster is summed where it lies in the CSR and the results are
    then taken in id order. ``workspace`` holds the unit-length temporaries
    of the sums (see :func:`_certified_sums`); neither result views it.
    """
    y, starts = _csr_columns(outcomes, offsets, len(ids))
    counts = np.diff(starts)[order]
    empty = counts == 0
    if empty.any():
        raise DataError(f"cluster {ids[order[empty.argmax()]]!r} has no sampled units")
    over = counts > n_total
    if over.any():
        i = int(over.argmax())
        raise DataError(
            f"cluster {ids[order[i]]!r}: {counts[i]} sampled units exceed n_total={n_total[i]}"
        )
    bad = ~np.isfinite(y)
    if bad.any():
        g = order[np.logical_or.reduceat(bad, starts[:-1])[order].argmax()]
        value = next(v for v in y[starts[g] : starts[g + 1]].tolist() if not math.isfinite(v))
        raise DataError(f"cluster {ids[g]!r}: outcome {value!r}")
    return counts, _cluster_sums(y, starts, ids, workspace)[order] / counts


def _csr_columns(outcomes, offsets, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``outcomes`` as a flat float array and ``offsets`` as int64, checking
    that the offsets rise from 0 to the outcome count in m + 1 entries."""
    y = np.asarray(outcomes, dtype=float)  # only read, so not copied
    starts = np.asarray(offsets)
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


def _cluster_sums(
    y: np.ndarray, offsets: np.ndarray, ids: Sequence[str], workspace: _Workspace | None = None
) -> np.ndarray:
    """math.fsum of each cluster's outcomes, the clusters in CSR order and
    ``ids`` their cluster_ids: the exactly rounded sum, whatever the order of
    units or clusters, bit for bit. Raises ``DataError`` naming the first
    cluster, in cluster_id order, whose ``math.fsum`` overflows.
    ``workspace`` is passed to :func:`_certified_sums`.

    :func:`_certified_sums` rounds every cluster's sum in one array pass and
    proves, cluster by cluster, that the result is the float nearest the
    exact sum, which is what ``math.fsum`` returns. Only the clusters it
    cannot prove (a zero sum, a tie its error terms do not settle, a huge
    dynamic range or an absolute sum that may overflow inside ``math.fsum``)
    are summed by ``math.fsum``, in cluster_id order, so the first to
    overflow is the first in that order.
    """
    sums, proven = _certified_sums(y, offsets, workspace)
    for g in sorted(np.flatnonzero(~proven).tolist(), key=ids.__getitem__):
        try:
            sums[g] = math.fsum(y[offsets[g] : offsets[g + 1]].tolist())
        except OverflowError:
            raise DataError(f"cluster {ids[g]!r}: the sum of its outcomes overflows") from None
    return sums


# a cluster whose absolute sum reaches this may overflow inside math.fsum,
# which then raises; below it, fsum's partial sums stay far from overflow
_FSUM_SAFE = 2.0**1000


class _Workspace:
    """Float buffers that a caller keeps across calls, so that repeated work
    on arrays of up to the same length reuses memory instead of faulting in
    fresh pages. Each named buffer hands out a view of exactly the length
    asked, so no caller sees a stale tail, and is replaced when asked for
    more than it holds. A buffer is made a quarter longer than asked, so
    lengths that vary a little, as a Monte Carlo study's trials do, share
    one buffer; pages never written are never faulted in, so the spare
    costs a one-shot caller nothing. Its memory is freed with the
    workspace."""

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def floats(self, name: str, size: int) -> np.ndarray:
        """A float buffer of ``size`` elements, its contents undefined."""
        buf = self._buffers.get(name)
        if buf is None or len(buf) < size:
            self._buffers.pop(name, None)  # freed before its successor is made
            buf = self._buffers[name] = np.empty(size + size // 4)
        return buf[:size]


def _certified_sums(
    y: np.ndarray, offsets: np.ndarray, workspace: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's sum of the CSR outcomes ``y`` (no empty cluster) in one
    array pass, and a mask of the clusters where it is proven to be the
    correctly rounded (ties to even) nonzero sum, which ``math.fsum`` returns.
    Both results are fresh arrays of the cluster count.

    Its three unit-length temporaries, the prefix sums Q, the TwoSum error
    terms and a scratch buffer that later holds |y|, come from ``workspace``,
    which a caller summing many datasets keeps across calls; without one
    they are allocated afresh. ``y`` must not view those three buffers.

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
    if workspace is None:
        workspace = _Workspace()
    q = workspace.floats("prefix", len(y) + 1)
    scratch = workspace.floats("scratch", len(y))
    with np.errstate(over="ignore", invalid="ignore"):
        q[0] = 0.0
        # accumulate is documented as the left-to-right loop from 0, so
        # Q_{i+1} = fl(Q_i + y_i), the sum TwoSum needs
        np.add.accumulate(y, out=q[1:])
        _, err = _two_sum(q[:-1], y, q[1:], scratch, workspace.floats("error", len(y)))
        h, e0 = _two_sum(q[b], -q[a])
        lo = e0 + np.add.reduceat(err, a)
        r, t = _two_sum(h, lo)
        size = np.abs(e0) + np.add.reduceat(np.abs(err, out=err), a)
        absy = np.abs(y, out=scratch)  # TwoSum's step terms there are dead
        # Every y_i, Q_i, err_i and e0 is a multiple of g, the spacing of
        # floats at the smallest nonzero |y_i| of the whole dataset. g must
        # be global: the prefix sums Q_a and the errors err_i include every
        # earlier cluster's outcomes, so they are multiples of the global g
        # only, not of a spacing taken from one cluster's outcomes. A sum of
        # such terms whose absolute values total below 2^53 g has exact
        # partial sums, in any order: there lo is exact and r is the rounded
        # sum, even at a tie.
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
    x: np.ndarray,
    y: np.ndarray,
    s: np.ndarray | None = None,
    z: np.ndarray | None = None,
    e: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with s = fl(x + y), computed unless given, and x + y = s + e
    exactly, where nothing overflows (Knuth, TAOCP vol. 2). ``z`` and ``e``,
    when given, are buffers of the inputs' shape for the temporary step term
    and the error, which is written into ``e``."""
    if s is None:
        s = x + y
    z = np.subtract(s, x, out=z)
    e = np.subtract(s, z, out=e)
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


class _Fields:
    """CSV fields of a piece of rows as UTF-8 bytes: field i is
    ``buf[start[i]:end[i]]``, and ``buf[end[i]]`` is the byte that ends it.
    ``start`` and ``end`` hold one column, (rows,), or a table, (rows,
    width). Seven more bytes follow the last field's end byte, so any 8
    bytes from within a field can be read as one word. Strings are made
    only when asked for."""

    __slots__ = ("buf", "start", "end")

    def __init__(self, buf: np.ndarray, start: np.ndarray, end: np.ndarray):
        self.buf, self.start, self.end = buf, start, end

    def column(self, j: int) -> "_Fields":
        return _Fields(self.buf, self.start[:, j], self.end[:, j])

    def strings(self, rows: np.ndarray | None = None) -> list[str]:
        """The fields, or those of ``rows``, row after row, as strings: their
        bytes are gathered with a line feed after each, then decoded and
        split once. Every field is gathered through a mask over the bytes
        they span, some rows' fields through an index of each byte."""
        start, end = (self.start, self.end) if rows is None else (self.start[rows], self.end[rows])
        start, end = start.ravel(), end.ravel()
        size = end - start + 1  # each field and the byte that ends it
        if rows is None and len(start):
            # runs of bytes between the fields, left out, and of the fields
            runs = np.empty(2 * len(start), dtype=np.intp)
            runs[0::2] = start
            runs[2::2] -= end[:-1] + 1
            runs[1::2] = size
            kept = np.zeros(len(runs), dtype=bool)
            kept[1::2] = True
            data = self.buf[: end[-1] + 1][np.repeat(kept, runs)]
        else:
            at = np.zeros(len(start) + 1, dtype=np.intp)
            np.cumsum(size, out=at[1:])
            data = self.buf[np.repeat(start - at[:-1], size) + np.arange(at[-1])]
        data[np.cumsum(size) - 1] = ord("\n")
        fields = data.tobytes().decode("utf-8").split("\n")
        if len(fields) != len(start) + 1:  # a line break inside a quoted field
            return [_decode(self.buf[a:b]) for a, b in zip(start.tolist(), end.tolist())]
        fields.pop()
        return fields


def _decode(data: np.ndarray) -> str:
    return data.tobytes().decode("utf-8")


def _read_csv(source, kind: str) -> tuple[list[str], dict[str, list[str]], np.ndarray]:
    """Header, columns and the physical line each data row starts on, of the
    CSV file at path ``source``: the chunks of :func:`_csv_chunks`, joined,
    with the errors it raises."""
    chunks = _csv_chunks(source, kind)
    header = next(chunks)
    columns = [[] for _ in header]
    lines = [np.zeros(0, dtype=np.int64)]
    for table, row_lines in chunks:
        fields = table.strings()
        for j, column in enumerate(columns):
            column.extend(fields[j :: len(header)])
        lines.append(row_lines)
    return header, dict(zip(header, columns)), np.concatenate(lines)


def _csv_chunks(source, kind: str):
    """Reads the CSV file at path ``source`` in chunks of about
    ``_CHUNK_CHARS`` characters. Yields its header, a list of names, then
    for each chunk of data rows a table of their :class:`_Fields`, in
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
    for widths, lines, buf, begins, ends in batches:
        if bad is not None:
            continue  # only a decoding or CSV error can still come first
        wrong = widths != len(header)
        if wrong.any():
            i = int(wrong.argmax())
            bad = DataError(
                f"{kind} line {lines[i]}: {widths[i]} fields where the header has {len(header)}"
            )
        else:
            shape = (len(lines), len(header))
            yield _Fields(buf, begins.reshape(shape), ends.reshape(shape)), lines
    if bad is not None:
        raise bad


def _row_batches(source, kind: str):
    """The rows of a CSV, a batch per piece of :func:`_text_chunks`: yields
    the header, then per batch each row's field count, the physical line it
    starts on, a UTF-8 buffer and the offsets in it where each field begins
    and ends, row after row.

    A piece is split by :func:`_field_offsets`, as long as every piece
    before it was; the first one it declines and all later ones go through
    ``csv.reader``. Both give the same rows, line numbers and errors.
    """
    limit = csv.field_size_limit()
    pieces = _text_chunks(source, kind)
    header, line = None, 0  # physical lines before the piece
    for text in pieces:
        split = _field_offsets(text, limit)
        if split is None:
            yield from _reader_batches(chain([text], pieces), kind, header, line)
            return
        buf, starts, widths, begins, ends, count = split
        lines = starts + (line + 1)
        if header is None:
            # the first line is the header, or an empty one when blank
            header = []
            if len(starts) and starts[0] == 0:
                w = widths[0]
                header = _decode(buf[: ends[w - 1]]).split(",")
                widths, lines, begins, ends = widths[1:], lines[1:], begins[w:], ends[w:]
            yield header
        line += count
        yield widths, lines, buf, begins, ends


def _field_offsets(text: str, limit: int):
    """The non-blank rows of ``text``, whole lines, from one scan of its
    UTF-8 bytes for commas and line feeds: (the bytes, the index of the line
    each row starts on, their field counts, the offsets where each field
    begins and of the byte that ends it, a comma, a line feed or the
    carriage return of a CRLF, row after row, the number of lines), or None
    for a text holding a quote, a NUL, a carriage return outside CRLF or a
    line longer than ``limit``, which only ``csv.reader`` reads right."""
    if '"' in text or "\0" in text or text.endswith("\r"):
        return None
    if text and not text.endswith("\n"):
        text += "\n"
    # in UTF-8 the bytes of "\n", "\r" and "," stand for nothing else
    buf = np.frombuffer(text.encode("utf-8") + bytes(7), np.uint8)
    ends = np.flatnonzero((buf == ord("\n")) | (buf == ord(",")))
    begins = np.zeros_like(ends)
    begins[1:] = ends[:-1] + 1
    breaks = np.flatnonzero(buf[ends] == ord("\n"))  # the index in ends of each line's end
    line_ends = ends[breaks]
    line_starts = np.zeros_like(line_ends)
    line_starts[1:] = line_ends[:-1] + 1
    returns = np.count_nonzero(buf == ord("\r"))
    if returns:
        crlf = buf[line_ends - 1] == ord("\r")
        if np.count_nonzero(crlf) != returns:
            return None
        line_ends -= crlf
        ends[breaks] = line_ends  # a CRLF line's last field ends at its CR
    if (line_ends - line_starts).max(initial=0) > limit:  # bytes, at least the characters
        return None
    kept = line_ends > line_starts
    if not kept.all():  # a blank line holds no field
        blank = breaks[~kept]
        begins, ends = np.delete(begins, blank), np.delete(ends, blank)
        breaks = breaks[kept] - np.searchsorted(blank, breaks[kept])
    widths = np.diff(breaks, prepend=-1)
    return buf, np.flatnonzero(kept), widths, begins, ends, len(line_ends)


def _reader_batches(pieces, kind: str, header, line: int):
    """``_row_batches``'s output from ``csv.reader`` over the lines of
    ``pieces``, which start after physical line ``line``; the header is read
    and yielded first when ``header`` is None. A batch's fields are encoded
    into one buffer, each followed by a line feed."""
    begun = 0  # pieces the reader has taken lines from

    def lines():
        nonlocal begun
        for text in pieces:
            begun += 1
            yield from io.StringIO(text, newline="")

    def batch(rows: list, starts: list):
        widths = np.fromiter(map(len, rows), np.intp, len(rows))
        fields = list(chain.from_iterable(rows))
        text = "\n".join(fields) + "\n"
        buf = text.encode("utf-8")
        size = np.fromiter(map(len, fields), np.intp, len(fields))
        if len(buf) != len(text):  # not all ASCII: count each field's bytes
            size = np.fromiter((len(f.encode("utf-8")) for f in fields), np.intp, len(fields))
        ends = np.cumsum(size + 1) - 1
        lines = np.array(starts, dtype=np.int64) + line
        return widths, lines, np.frombuffer(buf + bytes(7), np.uint8), ends - size, ends

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
    """The text of the CSV file at path ``source`` in pieces of about
    ``_CHUNK_CHARS`` characters, each ending at a line feed but the last,
    with one leading byte order mark dropped.

    The file is read as UTF-8; a byte that is not raises ``DataError``
    naming its offset in the file. A source that is not a file path raises
    ``ValueError`` before anything is read.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    parts, done, fresh = [], 0, True
    with open(_file_path(source, kind), "rb") as fh:
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
                yield "".join(parts)
                parts = [text[cut:]]
            else:
                parts.append(text)
            if not block:
                break
    yield "".join(parts)


def _file_path(source, kind: str):
    """``source``, a file path (``str`` or ``os.PathLike``); any other source
    raises ``ValueError``."""
    if not isinstance(source, (str, os.PathLike)):
        raise ValueError(
            f"{kind} source must be a file path (str or os.PathLike), "
            f"got {type(source).__name__}"
        )
    return source


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
    """The units CSV file at path ``source`` in the chunks of
    :func:`_csv_chunks`: yields each chunk's ``cluster_id`` and ``unit_id``
    columns (:class:`_Fields`), its outcomes as floats and the physical
    line each row starts on.

    After the errors of ``_csv_chunks``, raises ``DataError`` for a header
    without the three columns, then for the first outcome that is not a
    number, then for the first one that is not finite, once the whole text
    has been read. No chunk is yielded after an error.
    """
    chunks = _csv_chunks(source, "units CSV")
    header = next(chunks)
    required = ("cluster_id", "unit_id", "outcome")
    error = None  # the first one found, raised once the text is read
    settled = False  # whether no later row can bring an error that comes first
    if not set(required).issubset(header):
        error = DataError(f"units CSV header must contain {sorted(required)}, got {header}")
        settled = True
    else:
        at = [header.index(name) for name in required]
    for table, lines in chunks:
        if settled:
            continue
        ids, units, texts = (table.column(j) for j in at)
        try:
            outcome = _parse_column(
                texts.strings(),
                float,
                float,
                lambda i, text: DataError(f"units CSV line {lines[i]}: bad outcome {text!r}"),
            )
        except DataError as exc:
            error, settled = exc, True
            continue
        bad = ~np.isfinite(outcome)
        if error is None and bad.any():
            i = int(bad.argmax())
            # a later outcome that is not a number still comes first
            error = DataError(f"units CSV line {lines[i]}: outcome {float(outcome[i])!r}")
        if error is None:
            yield ids, units, outcome, lines
    if error is not None:
        raise error


def _unit_columns(source):
    """Reads the units CSV file at path ``source`` with :func:`_unit_chunks`,
    keeping of each row only its outcome, a code for its cluster_id and a
    hash of its (cluster_id, unit_id). Returns these three arrays and the
    cluster_ids in code order.

    No field string but one cluster_id per run of rows is made. The arrays
    are allocated once, at :func:`_line_count` rows, which no file exceeds.
    """
    code_of = {}
    size = _line_count(source)
    columns = [np.empty(size), np.empty(size, dtype=np.intp), np.empty(size, dtype=np.int64)]
    n = 0
    for ids, units, y, _ in _unit_chunks(source):
        codes = _cluster_codes(ids, code_of)
        m = n + len(y)
        for column, piece in zip(columns, (y, codes, _unit_keys(codes, units))):
            column[n:m] = piece
        n = m
    return *(column[:n] for column in columns), list(code_of)


def _line_count(source) -> int:
    """One more than the line breaks (LF, CR or CRLF) of the units CSV file
    at path ``source``, so at least its number of rows. Each block counts
    its LFs and CRs less its CRLFs; a CRLF split across two blocks counts
    twice, which keeps the bound."""
    count = 1
    with open(_file_path(source, "units CSV"), "rb") as fh:
        for block in iter(lambda: fh.read(_CHUNK_CHARS), b""):
            data = np.frombuffer(block, np.uint8)
            lf, cr = data == ord("\n"), data == ord("\r")
            count += np.count_nonzero(lf | cr) - np.count_nonzero(cr[:-1] & lf[1:])
    return int(count)


def _cluster_codes(ids: _Fields, code_of: dict[str, int]) -> np.ndarray:
    """The code of each row's cluster_id in ``code_of``, which gains a code
    for each new one: one lookup per run of rows with equal id bytes."""
    length = ids.end - ids.start
    # a row starts a run unless its id has the previous row's bytes
    same = length[1:] == length[:-1]
    for rows, word in _field_words(ids):
        differ = (rows[1:] == rows[:-1] + 1) & (word[1:] != word[:-1])
        same[rows[1:][differ] - 1] = False
    runs = np.flatnonzero(np.concatenate(([len(length) > 0], ~same)))
    names = ids.strings(runs)
    codes = np.fromiter((code_of.setdefault(n, len(code_of)) for n in names), np.intp, len(names))
    return np.repeat(codes, np.diff(runs, append=len(length)))


def _unit_keys(codes: np.ndarray, units: _Fields) -> np.ndarray:
    """A 64-bit hash of each row's (cluster code, unit_id bytes): a
    polynomial in the byte count, the bytes' 8-byte words and the code,
    modulo 2^64."""
    base = np.uint64(0x9E3779B97F4A7C15)  # odd, so each step is one-to-one
    key = (units.end - units.start).astype(np.uint64)
    for rows, word in _field_words(units):
        key[rows] = key[rows] * base + word
    return (key * base + codes.astype(np.uint64)).view(np.int64)


def _field_words(column: _Fields):
    """The fields of ``column`` as little-endian 64-bit words, zero past
    the field's end: yields, for k = 0, 1, ..., the rows whose field is
    longer than 8k bytes (every row for k = 0), in order, and their k-th
    word."""
    words = np.ndarray((len(column.buf) - 7,), "<u8", column.buf, 0, (1,))
    rows, start, left = np.arange(len(column.start)), column.start, column.end - column.start
    while True:
        yield rows, words[start] & _LOW_BYTES[np.minimum(left, 8)]
        more = left > 8
        if not more.any():
            return
        rows, start, left = rows[more], start[more] + 8, left[more] - 8


def _unit_rows(source, rows: np.ndarray) -> list[tuple[str, str, int]]:
    """(cluster_id, unit_id, line) of each of ``rows``, row indices in
    increasing order, read again from the units CSV file at path ``source``."""
    found, n = [], 0
    for ids, units, _, lines in _unit_chunks(source):
        mine = rows[(rows >= n) & (rows < n + len(lines))] - n
        found += zip(ids.strings(mine), units.strings(mine), lines[mine].tolist())
        n += len(lines)
    return found


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
    """Parse the clusters CSV file at path ``source`` (``str`` or
    ``os.PathLike``; any other source raises ``ValueError``) into a
    clusters-only Dataset (no outcomes).

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
            lambda i, text: DataError(
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
        texts = list(map(str.strip, cols["treatment"]))
        odd = set(texts).difference(("0", "1"))
        if odd:
            i = int(np.fromiter(map(odd.__contains__, texts), bool, len(texts)).argmax())
            raise DataError(
                f"clusters CSV line {lines[i]}: treatment {texts[i]!r} not in {{0, 1}}"
            )
        treatment = np.fromiter(map("1".__eq__, texts), np.int64, len(texts))
    return build_dataset(ids, n_total, x, treatment)


def load_dataset(units_source, clusters_source) -> Dataset:
    """Load and validate a dataset from a units CSV and a clusters CSV.

    Both sources are file paths (``str`` or ``os.PathLike``); any other
    source raises ``ValueError``. Every unit row must reference a cluster
    present in the clusters table, and no (cluster_id, unit_id) may repeat.
    The Dataset keeps each cluster's ``n_sampled`` and ``ybar``, not its
    unit outcomes. The units CSV is read in chunks, and any error in it
    comes before one in the clusters CSV, then an unknown cluster, then a
    repeated unit, each a ``DataError``.
    """
    _file_path(clusters_source, "clusters CSV")  # before the units are read
    outcome, codes, keys, ids = _unit_columns(units_source)
    clusters = read_clusters(clusters_source)
    index_of = {cid: i for i, cid in enumerate(clusters.cluster_ids)}
    codes = np.array([index_of.get(cid, -1) for cid in ids], dtype=np.intp)[codes]
    if (codes < 0).any():
        [(cid, unit, line)] = _unit_rows(units_source, np.flatnonzero(codes < 0)[:1])
        raise DataError(
            f"units CSV line {line}: unit {unit!r} references unknown cluster {cid!r}"
        )
    # Rows whose key hashes another row's are read again and compared
    # exactly, so a collision of hashes never rejects distinct units.
    ranked = np.sort(keys)
    repeats = ranked[1:][ranked[1:] == ranked[:-1]]
    if len(repeats):
        found = _unit_rows(units_source, np.flatnonzero(np.isin(keys, repeats)))
        i = _first_repeat([(cid, unit) for cid, unit, _ in found])
        if i is not None:
            cid, unit, line = found[i]
            raise DataError(f"units CSV line {line}: duplicate unit {(cid, unit)!r}")
    del keys, ranked  # freed before build_dataset's own temporaries
    offsets = np.zeros(clusters.n_clusters + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes, minlength=clusters.n_clusters), out=offsets[1:])
    outcomes = outcome[np.argsort(codes, kind="stable")]
    del outcome, codes
    return build_dataset(
        clusters.cluster_ids, clusters.n_total, clusters.X, clusters.treatment, outcomes, offsets
    )


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
    return _is_integer_type(type(value))


def _is_integer_type(kind: type) -> bool:
    """Whether ``kind`` is Python's or a numpy integer type, bool not counting."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _check_count(value, name: str, minimum: int) -> None:
    """Raises ``ValueError`` unless argument ``name`` is an integer >= ``minimum``."""
    whole = _is_integer(value)
    if not (whole and value >= minimum):
        need = f"at least {minimum}" if whole else f"an integer of at least {minimum}"
        raise ValueError(f"{name} must be {need}, got {value!r}")
