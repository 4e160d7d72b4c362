"""Pairing clusters on baseline covariates, and match-quality diagnostics.

Every function here takes a :class:`~pairedcrt.core.Dataset`, whose rows are
in cluster_id order with finite covariates, so row order is the tie-break
order. The match mode (one of ``MATCH_MODES``) decides the features of a
design: ``sorted_x`` matches on the first covariate x1, ``nn_x`` on every
covariate and ``nn_xn`` on the covariates plus cluster size. The same
features serve matching, pair ordering and the diagnostics, and a design
carries its mode, in memory and in its CSV.

``pair_sorted_scalar`` sorts clusters by x1 and pairs adjacent ones, which
is optimal in one dimension. ``pair_greedy_nn`` z-scores the features and
repeatedly pairs the lowest-id unmatched cluster with its nearest unmatched
neighbor. Both return their pairs unordered; ``match_clusters`` runs the
mode's matcher and orders the pairs.

``order_pairs_for_variance`` rearranges the pairs so that consecutive pairs
are close in the mode's z-scored features; the cross-pair products in the
variance estimator and in ``imbalance_report`` assume this. It marks the
design it returns as in variance order, and this module alone decides the
order the analysis uses: a marked design as it is, any other ordered
first (``_in_variance_order``). With one feature the ordering is, unless
rounding ties decide it, a sort of the pair midpoints. Otherwise it, like
greedy pairing, is a nearest-neighbor walk of two operations: ``take(i)``
(a pair's seed, or the path's first pair) and ``take_nearest()``, the
untaken row nearest to the row taken last. That scan starts from the row's
links to its nearest untaken rows in a sort on the first feature, steps
outward and stops once the first-feature gap alone exceeds the best
distance found, which is exact (``_AxisScan``). From 8 features on, or once
the scans exceed their one budget of rows (the first feature does not
prune: few distinct values, or much of the spread in other features), one
distance row per step answers instead (``_Unvisited``). On features close
to one-dimensional a step examines a few rows; the worst case is one
distance row per step, O(G^2 * k) time for G pairs with k features. Memory
is O(G * k) throughout.
``imbalance_report`` computes the within-pair and cross-pair discrepancy
sums that quantify how well a design approximates ideal matching; all of
them should shrink toward zero as the sample grows. Pair ordering, the
diagnostics and ``write_design`` reject a design that does not pair every
cluster of the dataset.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, _is_integer_type, _parse_column, _read_csv
from .errors import DataError

MATCH_MODES = ("sorted_x", "nn_x", "nn_xn")

# rows the axis scans may examine beyond their budget, and rows examined per
# query answered before the scan hands over to _Unvisited
_SCAN_SLACK = 32
_SCAN_BUDGET = 8


@dataclass(frozen=True)
class MatchedDesign:
    """G pairs of cluster indices, encoded as a permutation of 0..2G-1.

    Pair j consists of the clusters at positions (2j, 2j+1) of
    ``permutation``. ``mode``, one of ``MATCH_MODES``, names the features
    the pairs were matched on, which pair ordering and the diagnostics use.
    A ``permutation`` that is not a bijection on 0..2G-1 raises
    ``DataError``, an unknown mode ``ValueError``.

    The pairs may come in any order. A design that
    :func:`order_pairs_for_variance` returned (so one from
    :func:`match_clusters` or ``generate_trial``) is marked as being in
    variance order, and the analysis takes its order as it is; it puts any
    other design, such as one built here or read from CSV, in variance
    order first. The mark is no field: equality, hash and repr ignore it,
    and ``dataclasses.replace`` returns an unmarked design.
    """

    permutation: tuple[int, ...]
    mode: str

    # set only by _ordered_design, on an instance; not a dataclass field
    _variance_ordered = False

    def __post_init__(self):
        if not _is_index_permutation(self.permutation):
            raise DataError("permutation is not a bijection on 0..2G-1")
        _check_match_mode(self.mode)

    @property
    def pair_count(self) -> int:
        """G, half the length of ``permutation``."""
        return len(self.permutation) // 2

    @property
    def matched_on_size(self) -> bool:
        """Whether cluster size was a matching feature (mode ``nn_xn``)."""
        return self.mode == "nn_xn"

    def pairs(self) -> list[tuple[int, int]]:
        p = self.permutation
        return [(p[2 * j], p[2 * j + 1]) for j in range(self.pair_count)]


def _is_index_permutation(entries: tuple) -> bool:
    """Whether ``entries``, of even length n, are integers (each type as
    ``core._is_integer`` has it: not a float or bool, though one may equal
    an index) that sort to 0..n-1."""
    n = len(entries)
    if n % 2 or not all(map(_is_integer_type, set(map(type, entries)))):
        return False
    try:
        values = np.fromiter(entries, np.int64, n)
    except OverflowError:  # beyond int64, so not an index
        return False
    return bool((np.sort(values) == np.arange(n)).all())


@dataclass(frozen=True)
class ImbalanceReport:
    """Match-quality discrepancy sums for a design.

    ``pair_discrepancies`` maps (r, ell) to the mean over pairs of
    N_second^ell * |feature difference|^r over the design mode's raw
    features, ell running over 0..2 when size is one of them (mode
    ``nn_xn``) and fixed at 0 otherwise. The size weight attaches to the second-listed pair
    member; ``pair_discrepancies_symmetrized`` averages both orientations.
    ``popo_discrepancies`` maps (k, l) member selectors to the analogous
    squared-distance sums between consecutive pairs. ``fourth_moment_sums``
    gives the unweighted within-pair sums for powers 1..4.
    """

    matched_on_size: bool
    pair_discrepancies: dict[tuple[int, int], float]
    pair_discrepancies_symmetrized: dict[tuple[int, int], float]
    popo_discrepancies: dict[tuple[int, int], float]
    fourth_moment_sums: dict[int, float]

    def to_json_dict(self) -> dict:
        return {
            "matched_on_size": self.matched_on_size,
            "pair_discrepancies": {f"({r},{l})": v for (r, l), v in self.pair_discrepancies.items()},
            "pair_discrepancies_symmetrized": {
                f"({r},{l})": v for (r, l), v in self.pair_discrepancies_symmetrized.items()
            },
            "popo_discrepancies": {f"({k},{l})": v for (k, l), v in self.popo_discrepancies.items()},
            "fourth_moment_sums": {str(r): v for r, v in self.fourth_moment_sums.items()},
        }


class _Unvisited:
    """The rows of a point set not yet taken, with the two operations of the
    nearest-neighbor walks: ``take(i)`` and ``take_nearest()``.

    Rows keep the caller's tie-break order, so ``argmin``'s first-index rule
    breaks distance ties by that order. ``take_nearest`` answers for the row
    taken last, z, read from the points as given, and computes one distance
    row, sqrt(sum((z_j - z)^2)) over the feature axis, per call: memory is
    O(n*k). A taken row's first coordinate becomes +inf in the working copy,
    and the rows are compacted once half of them are taken.

    The walks query ``_AxisScan``, whose scan along the first feature stops
    exactly, at the first row whose first-feature gap alone exceeds the best
    distance. This class answers in its place from 8 features on and, for
    the rest of a walk, once the scans have examined more than
    ``_SCAN_BUDGET`` rows per query (after ``_SCAN_SLACK`` rows of slack).
    """

    def __init__(self, points: np.ndarray):
        n, k = points.shape
        # numpy sums fewer than 8 terms left to right in either memory layout,
        # and reduces column-major rows far faster; from 8 features on it sums
        # row-major rows pairwise, as the n x n x k distance tensors did.
        self._layout = "F" if k < 8 else "C"
        self._query_rows = points  # uncompacted: row i is the query once taken
        self._points = np.array(points, dtype=float, order=self._layout)
        self._index = np.arange(n)  # tie-break position of each stored row
        self._live = np.ones(n, dtype=bool)
        self._last = -1  # the row taken last
        self.count = n

    def take(self, i: int) -> int:
        """Take row ``i``."""
        return self._take_at(int(self._index.searchsorted(i)))

    def take_nearest(self) -> int:
        """Take the untaken row nearest to the row taken last; ties go to the
        first."""
        dist = _distance_row(self._points, self._query_rows[self._last])
        return self._take_at(int(dist.argmin()))

    def _take_at(self, pos: int) -> int:
        i = self._last = int(self._index[pos])
        self._live[pos] = False
        self._points[pos, 0] = np.inf
        self.count -= 1
        if 0 < 2 * self.count < len(self._index):
            self._points = np.asarray(self._points[self._live], order=self._layout)
            self._index = self._index[self._live]
            self._live = np.ones(self.count, dtype=bool)
        return i


class _AxisScan:
    """``_Unvisited``'s two operations, ``take(i)`` and ``take_nearest()``,
    answered by a scan along the first feature (Friedman, Baskett & Shustek,
    IEEE Trans. Computers, 1975).

    Rows sit in a sort on the first feature; the untaken ones form a doubly
    linked list over that order. ``take_nearest`` answers for the row taken
    last, q. Taking a row leaves its own links alone, so they still point to
    its nearest untaken rows on either side of the sort, and the scan starts
    from them. It steps outward on both sides, nearest first-feature gap
    first, and computes each row's distance as numpy does: d = z_j - q, d * d
    summed left to right, then the square root, with q read verbatim from
    the scan's own lists. A side stops once sqrt(d0 * d0) of its next row
    exceeds the best distance so far. That is exact: d0 is monotone along
    the sort, and a rounded sum of non-negative terms is never below one of
    its terms, so every row further out is strictly farther. The comparison
    is strict, so an equally near row with a lower index further out is
    still seen, and ties go to the lower index.

    The scan's work is bounded by what it observes. From 8 features on,
    where numpy sums pairwise, not left to right, ``_Unvisited`` answers
    from the start. Otherwise a scan runs until it stops exactly, and once
    the rows examined exceed ``_SCAN_BUDGET`` per query answered (after
    ``_SCAN_SLACK`` rows of slack), the untaken rows go to ``_Unvisited``
    for the rest of the walk; where the first feature does not prune, that
    happens after the first query.
    """

    def __init__(self, points: np.ndarray):
        n, k = points.shape
        self._points = points
        self._taken: list[int] = []  # in the order taken
        if k >= 8:
            self._hand_over()
            return
        order = np.argsort(points[:, 0])  # ties need no order: the scan compares rows
        # positions 1..n in sorted order, between always-untaken ends 0 and n + 1
        ends = np.zeros((k, 1))
        ends[0] = math.inf
        self._x, *self._rest = np.hstack((-ends, points[order].T, ends)).tolist()
        self._row = [n, *order.tolist(), n]
        pos = np.empty(n, dtype=np.intp)
        pos[order] = np.arange(1, n + 1)
        self._pos = pos.tolist()
        self._next = [*range(1, n + 2), n + 1]
        self._prev = [0, *range(n + 1)]
        self._credit = _SCAN_SLACK  # rows left to examine beyond the budget

    def take(self, i: int) -> int:
        """Take row ``i``."""
        return self._unlink(self._pos[i])

    def take_nearest(self) -> int:
        """Take the untaken row nearest to the row taken last; ties go to the
        first."""
        x, rest, row, nxt, prv = self._x, self._rest, self._row, self._next, self._prev
        # the row taken last keeps its links, to its nearest untaken rows on
        # either side, and its coordinates, which are the query's
        p0 = self._pos[self._taken[-1]]
        q0, l, r = x[p0], prv[p0], nxt[p0]
        dl, dr = x[l] - q0, x[r] - q0
        sl, sr = dl * dl, dr * dr
        gl, gr = math.sqrt(sl), math.sqrt(sr)
        best, best_pos, examined = math.inf, 0, 0
        while True:
            if gl <= gr:
                if gl > best:
                    break
                p, s = l, sl
                l = prv[l]
                dl = x[l] - q0
                sl = dl * dl
                gl = math.sqrt(sl)
            else:
                if gr > best:
                    break
                p, s = r, sr
                r = nxt[r]
                dr = x[r] - q0
                sr = dr * dr
                gr = math.sqrt(sr)
            for column in rest:
                d = column[p] - column[p0]
                s += d * d
            dist = math.sqrt(s)
            if dist < best or (dist == best and row[p] < row[best_pos]):
                best, best_pos = dist, p
            examined += 1
        i = self._unlink(best_pos)
        self._credit += _SCAN_BUDGET - examined
        if self._credit < 0:
            self._hand_over()
        return i

    def _unlink(self, p: int) -> int:
        nxt, prv = self._next, self._prev
        a, b = prv[p], nxt[p]
        nxt[a], prv[b] = b, a
        i = self._row[p]
        self._taken.append(i)
        return i

    def _hand_over(self) -> None:
        rows = _Unvisited(self._points)
        for i in self._taken:
            rows.take(i)
        # from here on _Unvisited answers every call; the scan's lists go
        vars(self).clear()
        self.take, self.take_nearest = rows.take, rows.take_nearest


def _distance_row(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sqrt(sum((z_j - q)^2)) over the feature axis, one entry per row."""
    d = points - q
    d *= d
    dist = d.sum(axis=1)
    return np.sqrt(dist, out=dist)


def zscore(features: np.ndarray) -> np.ndarray:
    """Center each column and scale by its std; zero-variance columns are
    centered but not scaled.

    Raises ``DataError`` naming the column when its mean or std overflows,
    which finite values near the float limit can make happen.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mu = features.mean(axis=0)
        sd = features.std(axis=0)
    bad = ~(np.isfinite(mu) & np.isfinite(sd))
    if bad.any():
        j = int(np.argmax(bad))
        raise DataError(
            f"matching feature column {j}: mean or standard deviation overflows; "
            "rescale the feature"
        )
    sd = np.where(sd > 0, sd, 1.0)
    return (features - mu) / sd


def _features(dataset: Dataset, mode: str) -> np.ndarray:
    """The raw (not z-scored) features of a match mode: x1 for ``sorted_x``,
    the covariates for ``nn_x``, and the covariates plus n_total for ``nn_xn``."""
    if mode == "nn_xn":
        return np.column_stack((dataset.X, dataset.n_total))
    if dataset.covariate_dim == 0:
        raise DataError(f"{mode} matching needs covariate x1, and the clusters have no covariates")
    return dataset.X[:, :1] if mode == "sorted_x" else dataset.X


def pair_sorted_scalar(dataset: Dataset) -> MatchedDesign:
    """Sort clusters by covariate x1 and pair adjacent ones (mode ``sorted_x``).

    Ties are broken by cluster_id. In one dimension this pairing minimizes
    the total within-pair distance over all perfect matchings.
    """
    order = np.argsort(_features(dataset, "sorted_x")[:, 0], kind="stable")
    return MatchedDesign(tuple(order.tolist()), "sorted_x")


def pair_greedy_nn(dataset: Dataset, mode: str = "nn_x") -> MatchedDesign:
    """Greedy nearest-neighbor pairing on z-scored features, in mode
    ``nn_x`` (the covariates) or ``nn_xn`` (the covariates and size).

    Repeatedly takes the unmatched cluster with the smallest cluster_id and
    pairs it with its nearest unmatched neighbor in Euclidean distance
    (ties again broken by cluster_id). The pairs come in the order they were
    formed, not in variance order; :func:`match_clusters` orders them.
    """
    if mode not in ("nn_x", "nn_xn"):
        raise ValueError(f"greedy matching runs in mode 'nn_x' or 'nn_xn', not {mode!r}")
    z = zscore(_features(dataset, mode))
    unmatched = _AxisScan(z)
    matched = bytearray(len(z))
    perm: list[int] = []
    seed = 0  # no cluster before this one is unmatched
    for _ in range(dataset.n_pairs):
        while matched[seed]:
            seed += 1
        unmatched.take(seed)
        mate = unmatched.take_nearest()
        matched[seed] = matched[mate] = 1
        perm.extend((seed, mate))
    return MatchedDesign(tuple(perm), mode)


def _check_match_mode(match_mode) -> None:
    """Raises ``ValueError`` unless ``match_mode`` is one of ``MATCH_MODES``."""
    if match_mode not in MATCH_MODES:
        raise ValueError(f"unknown match mode {match_mode!r}; choose from {MATCH_MODES}")


def match_clusters(dataset: Dataset, match_mode: str) -> MatchedDesign:
    """Pair clusters in the given match mode and order the pairs for variance;
    the design returned is marked as in variance order (see
    :class:`MatchedDesign`)."""
    _check_match_mode(match_mode)
    if match_mode == "sorted_x":
        design = pair_sorted_scalar(dataset)
    else:
        design = pair_greedy_nn(dataset, match_mode)
    return order_pairs_for_variance(design, dataset)


def _check_covers(permutation, cluster_count: int) -> None:
    """Raise ``DataError`` unless ``permutation`` pairs all ``cluster_count`` clusters."""
    if len(permutation) != cluster_count:
        raise DataError(
            f"the design covers {len(permutation)} clusters but the data has {cluster_count}"
        )


def order_pairs_for_variance(design: MatchedDesign, dataset: Dataset) -> MatchedDesign:
    """Reorder pairs so consecutive pairs are close in the design mode's
    z-scored features.

    Pairs are visited along a greedy nearest-neighbor path through their
    feature midpoints, starting from the pair whose midpoint is
    lexicographically smallest. Ties go to the pair with the smallest
    member cluster_id. Member order within each pair is preserved, and the
    order returned does not depend on the order of the pairs given or of
    the members within them. It is computed for every design, marked or
    not, and the design returned is marked as in variance order. A design
    that does not cover ``dataset`` raises ``DataError``.
    """
    _check_covers(design.permutation, dataset.n_clusters)
    z = zscore(_features(dataset, design.mode))
    perm = np.asarray(design.permutation)
    # rows are in cluster_id order, so a pair's smallest id is its smallest row
    pair_order = np.argsort(np.minimum(perm[0::2], perm[1::2]))
    first, second = perm[0::2][pair_order], perm[1::2][pair_order]
    mid = 0.5 * (z[first] + z[second])  # (G, k), in tie-break order

    path = _sorted_path(mid[:, 0]) if mid.shape[1] == 1 else None
    if path is None:
        # lexsort is stable and its last key is the primary one
        unvisited = _AxisScan(mid)
        path = [unvisited.take(int(np.lexsort(mid.T[::-1])[0]))]
        for _ in range(design.pair_count - 1):
            path.append(unvisited.take_nearest())

    new_perm = np.column_stack((first[path], second[path])).ravel()
    return _ordered_design(tuple(new_perm.tolist()), design.mode)


def _ordered_design(permutation, mode: str) -> MatchedDesign:
    """``MatchedDesign(permutation, mode)``, marked as in variance order, so
    that :func:`_in_variance_order` takes its pairs in the order given."""
    design = MatchedDesign(permutation, mode)
    object.__setattr__(design, "_variance_ordered", True)
    return design


def _in_variance_order(design: MatchedDesign, dataset: Dataset) -> MatchedDesign:
    """``design`` when it is marked as in variance order, otherwise
    :func:`order_pairs_for_variance` of it on ``dataset``: the one place the
    analysis decides the pair order its cross-pair sums use."""
    return design if design._variance_ordered else order_pairs_for_variance(design, dataset)


def _sorted_path(mid: np.ndarray) -> np.ndarray | None:
    """The nearest-neighbor path through one-column midpoints, given in
    tie-break order, as their stable sort; None where rounding decides it.

    From the smallest midpoint on, every unvisited midpoint lies at or above
    the current one, so the nearest is the next in sorted order, and equal
    midpoints come in tie-break order. The path differs only where a larger
    midpoint is, in the rounded distance sqrt(d * d), as near as the next
    one; then the walk must run.
    """
    order = np.argsort(mid, kind="stable")
    v = mid[order]
    g = len(v)
    starts = np.append(np.flatnonzero(v[1:] != v[:-1]) + 1, g)  # of each later value
    after = starts[np.searchsorted(starts, np.arange(1, g), side="right")]  # next value's start
    step, skip = v[1:] - v[:-1], v[np.minimum(after, g - 1)] - v[:-1]
    if np.any((after < g) & (np.sqrt(skip * skip) == np.sqrt(step * step))):
        return None
    return order


def imbalance_report(design: MatchedDesign, dataset: Dataset) -> ImbalanceReport:
    """Compute all within-pair and cross-pair discrepancy sums for a design
    that covers ``dataset``; one that does not raises ``DataError``.

    The cross-pair sums run over consecutive pairs in variance order, so a
    design not marked as in that order is ordered first, and the report
    does not depend on the order of its pairs. Member order still counts:
    the size weight attaches to the second member.
    """
    _check_covers(design.permutation, dataset.n_clusters)
    design = _in_variance_order(design, dataset)
    perm = np.asarray(design.permutation)
    g = design.pair_count
    w = _features(dataset, design.mode)
    sizes = dataset.n_total.astype(float)

    first = perm[0::2]
    second = perm[1::2]
    gaps = np.linalg.norm(w[second] - w[first], axis=1)

    ells = (0, 1, 2) if design.matched_on_size else (0,)
    pair_disc: dict[tuple[int, int], float] = {}
    pair_disc_sym: dict[tuple[int, int], float] = {}
    for r in (1, 2):
        for ell in ells:
            weight = sizes[second] ** ell
            weight_sym = 0.5 * (sizes[second] ** ell + sizes[first] ** ell)
            pair_disc[(r, ell)] = float(np.mean(weight * gaps**r))
            pair_disc_sym[(r, ell)] = float(np.mean(weight_sym * gaps**r))

    fourth = {r: float(np.mean(gaps**r)) for r in (1, 2, 3, 4)}

    # cross-pair sums over consecutive pairs (quads of 4 positions); the
    # member selectors follow the variance estimator's index pattern:
    # k picks from the first pair of a quad, l from the second.
    popo: dict[tuple[int, int], float] = {}
    quad_end = 4 * (g // 2)
    for k in (2, 3):
        for l in (0, 1):
            a = perm[3 - k : quad_end : 4]
            b = perm[3 - l : quad_end : 4]
            sq = np.linalg.norm(w[a] - w[b], axis=1) ** 2
            if design.matched_on_size:
                sq = sizes[a] ** 2 * sq
            popo[(k, l)] = float(sq.sum() / g)

    return ImbalanceReport(
        matched_on_size=design.matched_on_size,
        pair_discrepancies=pair_disc,
        pair_discrepancies_symmetrized=pair_disc_sym,
        popo_discrepancies=popo,
        fourth_moment_sums=fourth,
    )


def write_design(design: MatchedDesign, dataset: Dataset, path) -> None:
    """Serialize a design as CSV rows ``pair_index,position,cluster_id,mode``;
    a design that does not cover ``dataset`` raises ``DataError``."""
    _check_covers(design.permutation, dataset.n_clusters)
    ids = dataset.cluster_ids
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["pair_index", "position", "cluster_id", "mode"])
        slots = enumerate(design.permutation)
        w.writerows((slot // 2, slot % 2, ids[i], design.mode) for slot, i in slots)


def read_design(source, dataset: Dataset) -> MatchedDesign:
    """Load the design CSV file at path ``source`` (``str`` or
    ``os.PathLike``; any other source raises ``ValueError``) and resolve its
    cluster_ids against ``dataset``.

    The match mode comes from the ``mode`` column, which must hold one of
    ``MATCH_MODES``, the same on every row. The design must pair every
    cluster of ``dataset``; a design that covers only some of them raises
    ``DataError``, as does any malformed row, naming its line, and then a
    file without the ``mode`` column.
    """
    header, cols, lines = _read_csv(source, "design CSV")
    required = {"pair_index", "position", "cluster_id"}
    if not required.issubset(header):
        raise DataError(f"design CSV header must contain {sorted(required)}")
    modes = cols.get("mode", ())
    if len(set(modes)) > 1 or not set(modes).issubset(MATCH_MODES):
        # the first row whose mode is unknown or differs from the first row's
        first = modes[0]
        i = 0
        if first in MATCH_MODES:
            i = int(np.fromiter(map(first.__ne__, modes), bool, len(modes)).argmax())
        if modes[i] not in MATCH_MODES:
            raise DataError(f"design CSV line {lines[i]}: unknown mode {modes[i]!r}")
        raise DataError(
            f"design CSV line {lines[i]}: mode {modes[i]!r} where earlier rows have {first!r}"
        )

    def ints(name: str) -> np.ndarray:
        return _parse_column(
            cols[name],
            int,
            np.int64,
            lambda i, text: DataError(f"design CSV line {lines[i]}: bad {name} {text!r}"),
        )

    pair, pos = ints("pair_index"), ints("position")
    index_of = {cid: i for i, cid in enumerate(dataset.cluster_ids)}
    cids = cols["cluster_id"]
    cluster = np.fromiter((index_of.get(cid, -1) for cid in cids), np.intp, len(cids))
    bad = ((pos != 0) & (pos != 1)) | (cluster < 0)
    if bad.any():
        i = int(bad.argmax())
        if pos[i] not in (0, 1):
            raise DataError(f"design CSV line {lines[i]}: position {pos[i]} not in {{0, 1}}")
        raise DataError(f"design CSV line {lines[i]}: unknown cluster {cids[i]!r}")
    g = len(lines) // 2
    if len(lines) % 2 or ((pair < 0) | (pair >= g)).any():
        raise DataError("design CSV does not describe complete pairs 0..G-1")
    slot = 2 * pair + pos  # 2G values in 0..2G-1: complete unless one repeats
    repeated = np.ones(len(slot), dtype=bool)
    repeated[np.unique(slot, return_index=True)[1]] = False
    if repeated.any():
        i = int(repeated.argmax())
        raise DataError(
            f"design CSV line {lines[i]}: duplicate slot pair={pair[i]} position={pos[i]}"
        )
    if 2 * g != dataset.n_clusters:
        raise DataError(
            f"design CSV pairs {2 * g} clusters but the data has {dataset.n_clusters} clusters"
        )
    if not modes:
        raise DataError(f"design CSV has no mode column naming the match mode, one of {MATCH_MODES}")
    perm = np.empty(len(slot), dtype=np.intp)
    perm[slot] = cluster
    return MatchedDesign(tuple(perm.tolist()), modes[0])
