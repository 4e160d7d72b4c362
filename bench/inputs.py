"""Seeded generator for the benchmark's trial inputs.

A trial has 2G clusters. Each has one baseline covariate ``x1 ~ U(0, 1)`` and
a size N of 10 or 50, with exactly G clusters of each size in random order,
so every seed gives the same number of unit rows. Every unit of a cluster is
sampled. Both potential outcomes of every unit are drawn before assignment:

    Y(0) = 1 + 2 x1 + gamma_g + eps,    Y(1) = Y(0) + 0.5 + 0.04 N_g,

with ``gamma_g ~ N(0, 1)`` per cluster and ``eps ~ N(0, 1)`` per unit. The
size-weighted effect of the trial is therefore known exactly,
``sum_g N_g (0.5 + 0.04 N_g) / sum_g N_g``. The units CSV holds Y(1) for the
clusters that the ``assign`` command treated and Y(0) for the others, so it
can only be written once the treatment is known.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

SIZES = (10, 50)


@dataclass(frozen=True)
class Trial:
    """One generated trial: clusters in id order, units cluster-major."""

    ids: list[str]
    x: np.ndarray  # (2G,) covariate
    n: np.ndarray  # (2G,) cluster sizes
    y0: np.ndarray  # (sum n,) control potential outcome per unit
    unit_effect: np.ndarray  # (2G,) Y(1) - Y(0) for every unit of a cluster

    @property
    def effect(self) -> float:
        """The size-weighted average effect over all units of the trial."""
        return float((self.n * self.unit_effect).sum() / self.n.sum())


def draw_trial(seed: int, pairs: int) -> Trial:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    m = 2 * pairs
    x = rng.uniform(0.0, 1.0, m)
    n = rng.permutation(np.repeat(np.array(SIZES), pairs))
    gamma = rng.normal(0.0, 1.0, m)
    eps = rng.normal(0.0, 1.0, int(n.sum()))
    y0 = np.repeat(1.0 + 2.0 * x + gamma, n) + eps
    return Trial(
        ids=[f"c{i:05d}" for i in range(1, m + 1)],
        x=x,
        n=n,
        y0=y0,
        unit_effect=0.5 + 0.04 * n,
    )


def write_clusters(trial: Trial, path) -> None:
    """Clusters CSV without treatment, as the ``match`` command reads it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["cluster_id", "n_total", "x1"])
        for cid, n, x in zip(trial.ids, trial.n.tolist(), trial.x.tolist()):
            w.writerow([cid, n, repr(x)])


def write_units(trial: Trial, treated: np.ndarray, path) -> None:
    """Units CSV with the outcome each unit shows under ``treated`` (0/1 per cluster)."""
    y = trial.y0 + np.repeat(treated * trial.unit_effect, trial.n)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["cluster_id", "unit_id", "outcome"])
        start = 0
        for cid, size in zip(trial.ids, trial.n.tolist()):
            w.writerows(
                [cid, f"u{i}", repr(v)]
                for i, v in enumerate(y[start : start + size].tolist(), start=1)
            )
            start += size
