"""Independent recomputation of the outputs the benchmark checks.

Everything here reads the raw CSV rows with the ``csv`` module and computes
with plain numpy. It imports nothing from ``pairedcrt``, and it is written in
a different form from the package: the variance kernel works per pair on
(treated, control) members, and exact enumeration builds swap patterns
directly rather than treatment matrices.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

#: Floor below which v2 counts as degenerate, and the zero-numerator and
#: comparison slacks, as documented for the randomization test.
V2_FLOOR = 1e-12
ZERO_NUMERATOR = 1e-10
COMPARE_SLACK = 1e-12


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own result."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(name: str, got, want, rtol: float = 1e-9, atol: float = 1e-12) -> None:
    expect(got is not None, f"{name}: missing")
    expect(
        math.isclose(got, want, rel_tol=rtol, abs_tol=atol),
        f"{name}: program {got!r}, reference {want!r}",
    )


def read_columns(path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {col: [r[i] for r in body] for i, col in enumerate(header)}


@dataclass(frozen=True)
class Clusters:
    ids: list[str]
    n: np.ndarray
    x: np.ndarray  # (2G, k)
    treatment: np.ndarray | None

    def index(self) -> dict[str, int]:
        return {cid: i for i, cid in enumerate(self.ids)}


def read_clusters(path) -> Clusters:
    cols = read_columns(path)
    xcols = sorted((c for c in cols if c.startswith("x")), key=lambda c: int(c[1:]))
    return Clusters(
        ids=cols["cluster_id"],
        n=np.array(cols["n_total"], dtype=float),
        x=np.array([cols[c] for c in xcols], dtype=float).T,
        treatment=np.array(cols["treatment"], dtype=int) if "treatment" in cols else None,
    )


def unit_means(path, ids: list[str]) -> np.ndarray:
    """Mean sampled outcome of each cluster in ``ids`` order."""
    cols = read_columns(path)
    position = {cid: i for i, cid in enumerate(ids)}
    owner = np.array([position[c] for c in cols["cluster_id"]])
    y = np.array(cols["outcome"], dtype=float)
    return np.bincount(owner, weights=y, minlength=len(ids)) / np.bincount(
        owner, minlength=len(ids)
    )


def read_pairs(path, clusters: Clusters) -> np.ndarray:
    """Design CSV as a (G, 2) array of cluster positions, in pair order.

    Checks that the rows form pairs 0..G-1 with positions 0 and 1 and that
    every cluster appears exactly once.
    """
    cols = read_columns(path)
    index = clusters.index()
    g = len(cols["cluster_id"]) // 2
    pairs = np.full((g, 2), -1)
    for j, pos, cid in zip(cols["pair_index"], cols["position"], cols["cluster_id"]):
        expect(cid in index, f"design names unknown cluster {cid!r}")
        j, pos = int(j), int(pos)
        expect(0 <= j < g and pos in (0, 1), f"design slot ({j}, {pos}) out of range")
        expect(pairs[j, pos] == -1, f"design slot ({j}, {pos}) used twice")
        pairs[j, pos] = index[cid]
    expect(
        sorted(pairs.ravel().tolist()) == list(range(len(clusters.ids))),
        "design does not pair every cluster exactly once",
    )
    return pairs


def zscore(features: np.ndarray) -> np.ndarray:
    sd = features.std(axis=0)
    return (features - features.mean(axis=0)) / np.where(sd > 0, sd, 1.0)


def match_features(clusters: Clusters, on_size: bool) -> np.ndarray:
    return np.column_stack([clusters.x, clusters.n]) if on_size else clusters.x


def mean_pair_distance(z: np.ndarray, pairs: np.ndarray) -> float:
    return float(np.linalg.norm(z[pairs[:, 0]] - z[pairs[:, 1]], axis=1).mean())


def random_pairing(count: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(count).reshape(-1, 2)


def imbalance(clusters: Clusters, pairs: np.ndarray, on_size: bool) -> dict:
    """The discrepancy sums of the ``match`` report, keyed as in its JSON.

    Pair sums average N_b^ell |w_b - w_a|^r over pairs (a, b), with w the raw
    features; cross-pair sums take, within each run of two consecutive pairs
    (a, b), (c, d), the squared distance from one member of the first pair to
    one of the second, weighted by that first member's N^2 when matched on
    size, and divide by G.
    """
    w = match_features(clusters, on_size)
    n = clusters.n
    a, b = pairs[:, 0], pairs[:, 1]
    gap = np.linalg.norm(w[b] - w[a], axis=1)
    out = {"pair_discrepancies": {}, "pair_discrepancies_symmetrized": {}}
    for r in (1, 2):
        for ell in (0, 1, 2) if on_size else (0,):
            key = f"({r},{ell})"
            out["pair_discrepancies"][key] = float(np.mean(n[b] ** ell * gap**r))
            sym = 0.5 * (n[a] ** ell + n[b] ** ell)
            out["pair_discrepancies_symmetrized"][key] = float(np.mean(sym * gap**r))
    out["fourth_moment_sums"] = {str(r): float(np.mean(gap**r)) for r in (1, 2, 3, 4)}
    quads = pairs[: 2 * (len(pairs) // 2)].reshape(-1, 4)
    out["popo_discrepancies"] = {}
    for k, lead in ((2, quads[:, 1]), (3, quads[:, 0])):
        for l, follow in ((0, quads[:, 3]), (1, quads[:, 2])):
            sq = np.linalg.norm(w[lead] - w[follow], axis=1) ** 2
            if on_size:
                sq = n[lead] ** 2 * sq
            out["popo_discrepancies"][f"({k},{l})"] = float(sq.sum() / len(pairs))
    return out


@dataclass(frozen=True)
class PairData:
    """Per-pair sizes and outcomes, oriented (treated, control) as observed."""

    nt: np.ndarray
    nc: np.ndarray
    yt: np.ndarray
    yc: np.ndarray

    @property
    def pairs(self) -> int:
        return len(self.nt)


def pair_data(clusters: Clusters, ybar: np.ndarray, pairs: np.ndarray) -> PairData:
    d = clusters.treatment
    expect(d is not None, "clusters CSV has no treatment column")
    expect(bool(np.all(d[pairs].sum(axis=1) == 1)), "a pair does not have exactly one treated")
    first_treated = d[pairs[:, 0]] == 1
    t = np.where(first_treated, pairs[:, 0], pairs[:, 1])
    c = np.where(first_treated, pairs[:, 1], pairs[:, 0])
    return PairData(nt=clusters.n[t], nc=clusters.n[c], yt=ybar[t], yc=ybar[c])


def studentized(p: PairData, swaps: np.ndarray, delta0: float):
    """delta, tau2, lambda2, v2 and T for each row of ``swaps`` (B, G).

    A swap exchanges the arms of a pair. The hypothesized effect is removed
    from the clusters treated as observed, so it travels with them.
    """
    s = swaps.astype(bool)
    yt = p.yt - delta0
    n_t, n_c = np.where(s, p.nc, p.nt), np.where(s, p.nt, p.nc)
    y_t, y_c = np.where(s, p.yc, yt), np.where(s, yt, p.yc)
    mu1 = (n_t * y_t).sum(axis=1) / n_t.sum(axis=1)
    mu0 = (n_c * y_c).sum(axis=1) / n_c.sum(axis=1)
    nbar = (p.nt.sum() + p.nc.sum()) / (2 * p.pairs)
    signed = (n_t * (y_t - mu1[:, None]) - n_c * (y_c - mu0[:, None])) / nbar
    tau2 = (signed**2).mean(axis=1)
    half = p.pairs // 2
    lambda2 = (2.0 / p.pairs) * (signed[:, 0 : 2 * half : 2] * signed[:, 1 : 2 * half : 2]).sum(
        axis=1
    )
    v2 = tau2 - 0.5 * lambda2
    num = math.sqrt(p.pairs) * np.abs(mu1 - mu0)
    ok = v2 > V2_FLOOR
    t = np.where(num <= ZERO_NUMERATOR, 0.0, np.inf)
    t[ok] = num[ok] / np.sqrt(v2[ok])
    return mu1, mu0, tau2, lambda2, v2, t


def analysis(p: PairData, alpha: float, delta0: float) -> dict:
    """What ``analyze`` reports, from the pairs in the design CSV's order."""
    mu1, mu0, tau2, lambda2, v2, _ = (
        float(v[0]) for v in studentized(p, np.zeros((1, p.pairs)), 0.0)
    )
    delta = mu1 - mu0
    out = {
        "mu1": mu1,
        "mu0": mu0,
        "delta_hat": delta,
        "n1": float(p.nt.sum()),
        "n0": float(p.nc.sum()),
        "tau2": tau2,
        "lambda2": lambda2,
        "delta_hat_equal": float(p.yt.mean() - p.yc.mean()),
    }
    if v2 <= V2_FLOOR:
        return {**out, "v2": V2_FLOOR, "degenerate": True}
    se = math.sqrt(v2 / p.pairs)
    q = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    z = (delta - delta0) / se
    return {
        **out,
        "v2": v2,
        "se": se,
        "z": z,
        "p_value": math.erfc(abs(z) / math.sqrt(2.0)),
        "ci_low": delta - q * se,
        "ci_high": delta + q * se,
        "degenerate": False,
    }


def t_observed(p: PairData, delta0: float) -> float:
    return float(studentized(p, np.zeros((1, p.pairs)), delta0)[-1][0])


def exact_count(p: PairData, delta0: float, chunk: int = 1 << 14) -> int:
    """Swap patterns, of all 2^G, whose statistic reaches the observed one."""
    g = p.pairs
    threshold = t_observed(p, delta0) - COMPARE_SLACK
    shifts = np.arange(g)
    count = 0
    for start in range(0, 1 << g, chunk):
        codes = np.arange(start, min(start + chunk, 1 << g))
        swaps = (codes[:, None] >> shifts) & 1
        count += int(np.count_nonzero(studentized(p, swaps, delta0)[-1] >= threshold))
    return count


def size_heterogeneous_delta() -> float:
    """Closed-form size-weighted effect of the ``size_heterogeneous`` preset.

    That DGP has X ~ U(0, 1), N equal to 10 or 50 with equal odds, and arm
    means 1 + 2X (control) and 1.5 + 2X + 0.04N (treated), so the effect is
    d_alpha + d_beta E[X] + d_theta E[N^2] / E[N].
    """
    en = 0.5 * 10 + 0.5 * 50
    en2 = 0.5 * 10**2 + 0.5 * 50**2
    return (1.5 - 1.0) + (2.0 - 2.0) * 0.5 + (0.04 - 0.0) * en2 / en
