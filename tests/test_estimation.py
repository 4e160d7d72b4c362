
import numpy as np
import pytest

from helpers import (
    identity_design,
    make_dataset,
    random_dataset,
    strict_json,
    with_outcomes,
    wls_oracle,
    write_dataset,
)
from pairedcrt import cli
from pairedcrt.core import build_dataset
from pairedcrt.errors import DataError
from pairedcrt.estimation import estimate_size_weighted
from pairedcrt.matching import write_design


def hand_dataset():
    # treated arm: sizes 2 and 2 with means 1 and 3 -> weighted mean 2
    # control arm: sizes 4 and 8 with means 2 and 4 -> weighted mean 10/3
    return make_dataset(
        sizes=[2, 4, 2, 8],
        treatments=[1, 0, 1, 0],
        outcomes=[(0.0, 2.0), (1.0, 3.0), (2.0, 4.0), (3.0, 5.0)],
    )


class TestSizeWeighted:
    def test_hand_example(self):
        est = estimate_size_weighted(hand_dataset())
        assert est.mu1 == pytest.approx(2.0)
        assert est.mu0 == pytest.approx(10.0 / 3.0)
        assert est.delta_hat == pytest.approx(2.0 - 10.0 / 3.0)
        assert est.n1 == pytest.approx(4.0)
        assert est.n0 == pytest.approx(12.0)
        assert est.estimand == "size_weighted"

    def test_weights_use_full_size_not_sample_size(self):
        # same sampled means, very different n_total: weights must follow n_total
        ds = make_dataset(
            sizes=[100, 1, 1, 100],
            treatments=[1, 0, 1, 0],
            outcomes=[(5.0,), (1.0,), (0.0,), (3.0,)],
        )
        est = estimate_size_weighted(ds)
        assert est.mu1 == pytest.approx((100 * 5.0 + 1 * 0.0) / 101)
        assert est.mu0 == pytest.approx((1 * 1.0 + 100 * 3.0) / 101)

    def test_requires_treatments(self):
        ds = make_dataset(sizes=[1, 1, 1, 1], ybars=[1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DataError, match="^estimation requires a treatment for every cluster$"):
            estimate_size_weighted(ds)

    def test_requires_outcomes(self):
        clusters_only = build_dataset("abcd", [1, 1, 1, 1], [[0.0]] * 4, [1, 0, 1, 0])
        with pytest.raises(DataError, match="sampled outcomes"):
            estimate_size_weighted(clusters_only)

    def test_empty_arm_rejected(self):
        ds = make_dataset(
            sizes=[1, 1, 1, 1], ybars=[1.0, 2.0, 3.0, 4.0], treatments=[1, 1, 1, 1]
        )
        with pytest.raises(DataError, match="^a treatment arm is empty$"):
            estimate_size_weighted(ds)


def delta_hat_equal(ds, tmp_path, capsys):
    """``analyze``'s equal-weighted estimate for a dataset paired in index order."""
    units, clusters, design = (tmp_path / name for name in ("u.csv", "c.csv", "d.csv"))
    write_dataset(ds, units, clusters)
    write_design(identity_design(ds.n_pairs), ds, design)
    argv = ["analyze", "--units", str(units), "--clusters", str(clusters), "--design", str(design)]
    assert cli.main(argv) == 0
    return strict_json(capsys.readouterr().out)["delta_hat_equal"]


class TestEqualWeighted:
    def test_hand_example(self, tmp_path, capsys):
        got = delta_hat_equal(hand_dataset(), tmp_path, capsys)
        assert got == pytest.approx((1.0 + 3.0) / 2 - (2.0 + 4.0) / 2)

    def test_differs_from_size_weighted_when_sizes_vary(self, tmp_path, capsys):
        s = hand_dataset()
        assert delta_hat_equal(s, tmp_path, capsys) != pytest.approx(
            estimate_size_weighted(s).delta_hat
        )


class TestInvariances:
    def test_shift_and_scale(self, rng):
        ds = random_dataset(rng, pairs=4)
        base = estimate_size_weighted(ds).delta_hat
        shifted = with_outcomes(ds, lambda y, _: y + 5.0)
        scaled = with_outcomes(ds, lambda y, _: 3.0 * y)
        assert estimate_size_weighted(shifted).delta_hat == pytest.approx(base, abs=1e-12)
        assert estimate_size_weighted(scaled).delta_hat == pytest.approx(3.0 * base, abs=1e-12)

    def test_label_swap_negates(self, rng):
        ds = random_dataset(rng, pairs=4)
        flipped = ds.with_treatments(1 - ds.treatment)
        assert estimate_size_weighted(flipped).delta_hat == pytest.approx(
            -estimate_size_weighted(ds).delta_hat
        )


class TestWlsEquivalence:
    def test_matches_size_weighted_on_random_data(self, rng):
        for _ in range(20):
            ds = random_dataset(rng, pairs=int(rng.integers(2, 7)))
            sw = estimate_size_weighted(ds).delta_hat
            assert abs(wls_oracle(ds) - sw) < 1e-10

    def test_one_arm_raises(self):
        ds = make_dataset(
            sizes=[1, 1, 1, 1], ybars=[1.0, 2.0, 3.0, 4.0], treatments=[0, 0, 0, 0]
        )
        with pytest.raises(DataError, match="^all clusters are in one arm$"):
            wls_oracle(ds)
