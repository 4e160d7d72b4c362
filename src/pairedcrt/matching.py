"""Pairing clusters on baseline covariates, and match-quality diagnostics.

Two matchers are provided. ``pair_sorted_scalar`` sorts clusters by a scalar
key and pairs adjacent ones, which is optimal in one dimension.
``pair_greedy_nn`` z-scores the feature vectors (covariates, plus cluster
size when requested) and repeatedly pairs the lowest-id unmatched cluster
with its nearest unmatched neighbor.

``order_pairs_for_variance`` rearranges the pairs so that consecutive pairs
are close in feature space; the cross-pair products in the variance
estimator assume this. Both greedy walks compute one distance row per step,
so for G pairs with k features they take O(G^2 * k) time and O(G * k)
memory. ``imbalance_report`` computes the within-pair and
cross-pair discrepancy sums that quantify how well a design approximates
ideal matching; all of them should shrink toward zero as the sample grows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, NonScalarKey, OddClusterCount

# A "cluster-like" item needs .cluster_id, .n_total, .covariates; both
# ClusterRecord and ClusterSummary qualify.
FeatureSelector = Callable[[object], Sequence[float]]


@dataclass(frozen=True)
class MatchedDesign:
    """G pairs of cluster indices, encoded as a permutation of 0..2G-1.

    Pair j consists of the clusters at positions (2j, 2j+1) of
    ``permutation``. ``matched_on_size`` records whether cluster size was a
    matching feature, which controls which discrepancy family the
    diagnostics report. ``scores`` holds the per-cluster feature matrix the
    design was built from (used to order pairs); it is dropped when a design
    is serialized and recomputed on reload.
    """

    permutation: tuple[int, ...]
    pair_count: int
    matched_on_size: bool
    scores: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        n = 2 * self.pair_count
        if len(self.permutation) != n or sorted(self.permutation) != list(range(n)):
            raise DataError("permutation is not a bijection on 0..2G-1")

    def pairs(self) -> list[tuple[int, int]]:
        p = self.permutation
        return [(p[2 * j], p[2 * j + 1]) for j in range(self.pair_count)]


@dataclass(frozen=True)
class ImbalanceReport:
    """Match-quality discrepancy sums for a design.

    ``pair_discrepancies`` maps (r, ell) to the mean over pairs of
    N_second^ell * |feature difference|^r, with the feature vector being the
    covariates alone (ell fixed at 0) or covariates plus size, per
    ``matched_on_size``. The size weight attaches to the second-listed pair
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


def _require_even(items: Sequence) -> int:
    n = len(items)
    if n < 4 or n % 2 != 0:
        raise OddClusterCount(f"matching needs an even cluster count >= 4, got {n}")
    return n


def _require_finite(features: np.ndarray, items: Sequence) -> None:
    bad = ~np.isfinite(features).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(
            f"cluster {items[i].cluster_id!r}: matching features {features[i].tolist()} "
            "are not all finite"
        )


class _Unvisited:
    """The rows of a point set not yet taken, for nearest-point queries.

    Rows keep the caller's tie-break order, so ``argmin``'s first-index rule
    breaks distance ties by that order. ``take_nearest`` computes one
    distance row, sqrt(sum((z_j - z)^2)) over the feature axis, per call:
    memory is O(n*k). A taken row's first coordinate becomes +inf, and the
    rows are compacted once half of them are taken.
    """

    def __init__(self, points: np.ndarray):
        n, k = points.shape
        # numpy sums fewer than 8 terms left to right in either memory layout,
        # and reduces column-major rows far faster; from 8 features on it sums
        # row-major rows pairwise, as the n x n x k distance tensors did.
        self._layout = "F" if k < 8 else "C"
        self._points = np.array(points, dtype=float, order=self._layout)
        self._index = np.arange(n)  # tie-break position of each stored row
        self._live = np.ones(n, dtype=bool)
        self.count = n

    def take(self, i: int) -> int:
        """Take row ``i``."""
        return self._take_at(int(self._index.searchsorted(i)))

    def take_first(self) -> int:
        """Take the untaken row that comes first in tie-break order."""
        return self._take_at(int(self._live.argmax()))

    def take_nearest(self, point: np.ndarray) -> int:
        """Take the untaken row nearest to ``point``; ties go to the first."""
        d = self._points - point
        d *= d
        dist = d.sum(axis=1)
        np.sqrt(dist, out=dist)
        return self._take_at(int(dist.argmin()))

    def _take_at(self, pos: int) -> int:
        i = int(self._index[pos])
        self._live[pos] = False
        self._points[pos, 0] = np.inf
        self.count -= 1
        if 0 < 2 * self.count < len(self._index):
            self._points = np.asarray(self._points[self._live], order=self._layout)
            self._index = self._index[self._live]
            self._live = np.ones(self.count, dtype=bool)
        return i


def zscore(features: np.ndarray) -> np.ndarray:
    """Center each column and scale by its std; zero-variance columns are
    centered but not scaled."""
    mu = features.mean(axis=0)
    sd = features.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return (features - mu) / sd


def feature_matrix(items: Sequence, include_size: bool) -> np.ndarray:
    """Raw (not z-scored) feature matrix: covariates, plus n_total if asked."""
    x = np.array([item.covariates for item in items], dtype=float)
    if x.ndim == 1:
        x = x.reshape(len(items), -1)
    if include_size:
        n = np.array([item.n_total for item in items], dtype=float).reshape(-1, 1)
        x = np.hstack([x, n])
    return x


def pair_sorted_scalar(items: Sequence, key: Callable | int = 0) -> MatchedDesign:
    """Sort clusters by a scalar key and pair adjacent ones.

    ``key`` is either a covariate index or a callable mapping an item to a
    scalar. Ties are broken by cluster_id. In one dimension this pairing
    minimizes the total within-pair distance over all perfect matchings.
    Raises ``DataError`` naming the cluster if a key value is NaN or infinite.
    """
    n = _require_even(items)
    if callable(key):
        values = [key(item) for item in items]
    else:
        values = [item.covariates[key] for item in items]
    scalars = []
    for item, v in zip(items, values):
        arr = np.asarray(v, dtype=float)
        if arr.ndim != 0 and arr.size != 1:
            raise NonScalarKey(f"cluster {item.cluster_id!r}: key value {v!r} is not a scalar")
        scalars.append(float(arr))
    scores = np.array(scalars, dtype=float).reshape(-1, 1)
    _require_finite(scores, items)
    order = sorted(range(n), key=lambda i: (scalars[i], items[i].cluster_id))
    return MatchedDesign(
        permutation=tuple(order), pair_count=n // 2, matched_on_size=False, scores=scores
    )


def pair_greedy_nn(
    items: Sequence,
    features: FeatureSelector | None = None,
    include_size: bool = False,
) -> MatchedDesign:
    """Greedy nearest-neighbor pairing on z-scored features.

    Repeatedly takes the unmatched cluster with the smallest cluster_id and
    pairs it with its nearest unmatched neighbor in Euclidean distance
    (ties again broken by cluster_id). Raises ``DataError`` naming the
    cluster if a feature is NaN or infinite.
    """
    n = _require_even(items)
    if features is not None:
        raw = np.array([features(item) for item in items], dtype=float)
        if raw.ndim == 1:
            raw = raw.reshape(n, -1)
        if include_size:
            sizes = np.array([item.n_total for item in items], dtype=float).reshape(-1, 1)
            raw = np.hstack([raw, sizes])
    else:
        raw = feature_matrix(items, include_size)
    _require_finite(raw, items)
    z = zscore(raw)

    # items arrive in cluster_id order downstream of load, but don't rely on it
    id_order = np.array(sorted(range(n), key=lambda i: items[i].cluster_id))
    points = z[id_order]
    unmatched = _Unvisited(points)
    perm: list[int] = []
    while unmatched.count:
        seed = unmatched.take_first()
        best = unmatched.take_nearest(points[seed])
        perm.extend((int(id_order[seed]), int(id_order[best])))
    return MatchedDesign(
        permutation=tuple(perm), pair_count=n // 2, matched_on_size=include_size, scores=z
    )


def _design_scores(design: MatchedDesign, items: Sequence) -> np.ndarray:
    if design.scores is not None:
        return np.asarray(design.scores, dtype=float)
    raw = feature_matrix(items, design.matched_on_size)
    _require_finite(raw, items)
    return zscore(raw)


def order_pairs_for_variance(design: MatchedDesign, items: Sequence) -> MatchedDesign:
    """Reorder pairs so consecutive pairs are close in feature space.

    Pairs are visited along a greedy nearest-neighbor path through their
    feature midpoints, starting from the pair whose midpoint is
    lexicographically smallest. Ties go to the pair with the smallest
    member cluster_id. With a scalar feature this reduces to sorting pairs
    by their within-pair mean key. Member order within each pair is
    preserved.
    """
    scores = _design_scores(design, items)
    perm = np.asarray(design.permutation)
    g = design.pair_count
    tiebreak = [
        min(items[perm[2 * j]].cluster_id, items[perm[2 * j + 1]].cluster_id) for j in range(g)
    ]
    pair_order = np.array(sorted(range(g), key=tiebreak.__getitem__))
    first, second = perm[0::2][pair_order], perm[1::2][pair_order]
    mid = 0.5 * (scores[first] + scores[second])  # (G, m), in tie-break order

    # lexsort is stable and its last key is the primary one
    start = int(np.lexsort(mid.T[::-1])[0])
    unvisited = _Unvisited(mid)
    path = [unvisited.take(start)]
    for _ in range(g - 1):
        path.append(unvisited.take_nearest(mid[path[-1]]))

    new_perm = np.column_stack((first[path], second[path])).ravel()
    return MatchedDesign(
        permutation=tuple(new_perm.tolist()),
        pair_count=g,
        matched_on_size=design.matched_on_size,
        scores=design.scores,
    )


def imbalance_report(design: MatchedDesign, items: Sequence) -> ImbalanceReport:
    """Compute all within-pair and cross-pair discrepancy sums for a design."""
    perm = np.asarray(design.permutation)
    g = design.pair_count
    w = feature_matrix(items, design.matched_on_size)
    sizes = np.array([item.n_total for item in items], dtype=float)

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
    n_quads = g // 2
    for k in (2, 3):
        for l in (0, 1):
            a = perm[[4 * j + (3 - k) for j in range(n_quads)]]
            b = perm[[4 * j + (3 - l) for j in range(n_quads)]]
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


def write_design(design: MatchedDesign, items: Sequence, path) -> None:
    """Serialize a design as CSV rows ``pair_index,position,cluster_id``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["pair_index", "position", "cluster_id"])
        for j, (a, b) in enumerate(design.pairs()):
            w.writerow([j, 0, items[a].cluster_id])
            w.writerow([j, 1, items[b].cluster_id])


def read_design(source, items: Sequence, matched_on_size: bool = False) -> MatchedDesign:
    """Load a design CSV and resolve cluster_ids against ``items``.

    The CSV does not record which features the design was matched on, so
    ``matched_on_size`` must be supplied by the caller when it matters
    (diagnostics and pair ordering).
    """
    index_of = {item.cluster_id: i for i, item in enumerate(items)}
    if isinstance(source, (str, Path)):
        fh = open(source, newline="", encoding="utf-8")
        close = True
    else:
        fh, close = source, False
    try:
        reader = csv.DictReader(fh)
        required = {"pair_index", "position", "cluster_id"}
        if not required.issubset(reader.fieldnames or []):
            raise DataError(f"design CSV header must contain {sorted(required)}")
        slots: dict[tuple[int, int], int] = {}
        for row in reader:
            j = int(row["pair_index"])
            pos = int(row["position"])
            cid = row["cluster_id"]
            if pos not in (0, 1):
                raise DataError(f"design CSV: position {pos} not in {{0, 1}}")
            if cid not in index_of:
                raise DataError(f"design CSV references unknown cluster {cid!r}")
            if (j, pos) in slots:
                raise DataError(f"design CSV: duplicate slot pair={j} position={pos}")
            slots[(j, pos)] = index_of[cid]
    finally:
        if close:
            fh.close()
    g = len(slots) // 2
    if len(slots) != 2 * g or set(slots) != {(j, p) for j in range(g) for p in (0, 1)}:
        raise DataError("design CSV does not describe complete pairs 0..G-1")
    perm = []
    for j in range(g):
        perm.extend((slots[(j, 0)], slots[(j, 1)]))
    return MatchedDesign(permutation=tuple(perm), pair_count=g, matched_on_size=matched_on_size)
