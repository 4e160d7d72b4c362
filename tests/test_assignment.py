import numpy as np
import pytest

from helpers import identity_design
from pairedcrt.assignment import assign_within_pairs
from pairedcrt.matching import MatchedDesign


class TestAssignWithinPairs:
    def test_exactly_one_treated_per_pair(self):
        design = MatchedDesign(permutation=(3, 0, 2, 5, 1, 4), mode="nn_x")
        t = assign_within_pairs(design, seed=7)
        assert t.shape == (6,)
        assert set(np.unique(t)) <= {0, 1}
        for a, b in design.pairs():
            assert t[a] + t[b] == 1

    def test_deterministic_in_seed(self):
        design = identity_design(10)
        a = assign_within_pairs(design, seed=123)
        b = assign_within_pairs(design, seed=123)
        c = assign_within_pairs(design, seed=124)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_first_member_treated_half_the_time(self):
        design = identity_design(1000)
        perm = np.asarray(design.permutation)
        total = 0
        draws = 0
        for seed in range(10_000):
            t = assign_within_pairs(design, seed)
            total += int(t[perm[0::2]].sum())
            draws += design.pair_count
        frac = total / draws
        assert 0.49 < frac < 0.51

    def test_adjacent_pairs_uncorrelated(self):
        design = identity_design(500)
        perm = np.asarray(design.permutation)
        first = []
        for seed in range(2000):
            t = assign_within_pairs(design, seed)
            first.append(t[perm[0::2]])
        first = np.asarray(first, dtype=float)
        lead = first[:, :-1].ravel()
        lag = first[:, 1:].ravel()
        rho = np.corrcoef(lead, lag)[0, 1]
        assert abs(rho) < 0.02

    def test_seed_rule(self):
        # a Philox key: a Python or numpy integer in [0, 2**64), nothing else
        design = identity_design(10)
        for seed in (7.9, -1, 2**64, "7", None, True, False, np.True_):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                assign_within_pairs(design, seed)
        top = assign_within_pairs(design, 2**64 - 1)
        assert np.array_equal(top, assign_within_pairs(design, np.uint64(2**64 - 1)))
        assert np.array_equal(assign_within_pairs(design, np.int32(7)), assign_within_pairs(design, 7))
