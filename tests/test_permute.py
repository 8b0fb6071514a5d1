"""Unit and property tests for the relabeling machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PermutationError
from repro.graph.permute import (
    apply_to_edges,
    check_permutation,
    identity_permutation,
    invert_permutation,
    is_permutation,
    random_permutation,
    sort_order_to_relabeling,
)

permutations = st.integers(min_value=0, max_value=200).map(
    lambda n: np.random.default_rng(n).permutation(n).astype(np.int64)
)


class TestBasics:
    def test_identity(self):
        assert identity_permutation(4).tolist() == [0, 1, 2, 3]

    def test_identity_empty(self):
        assert identity_permutation(0).shape == (0,)

    def test_identity_negative(self):
        with pytest.raises(PermutationError):
            identity_permutation(-1)

    def test_random_is_permutation(self):
        assert is_permutation(random_permutation(50, seed=3), 50)

    def test_random_deterministic(self):
        a = random_permutation(64, seed=9)
        b = random_permutation(64, seed=9)
        assert np.array_equal(a, b)

    def test_random_seeds_differ(self):
        assert not np.array_equal(
            random_permutation(64, seed=1), random_permutation(64, seed=2)
        )


class TestIsPermutation:
    def test_accepts_valid(self):
        assert is_permutation(np.array([2, 0, 1]))

    def test_rejects_duplicates(self):
        assert not is_permutation(np.array([0, 0, 2]))

    def test_rejects_out_of_range(self):
        assert not is_permutation(np.array([0, 1, 3]))

    def test_rejects_negative(self):
        assert not is_permutation(np.array([-1, 0, 1]))

    def test_rejects_wrong_length(self):
        assert not is_permutation(np.array([0, 1]), 3)

    def test_rejects_2d(self):
        assert not is_permutation(np.array([[0, 1]]))

    def test_empty_is_valid(self):
        assert is_permutation(np.array([], dtype=np.int64))

    def test_check_raises(self):
        with pytest.raises(PermutationError):
            check_permutation(np.array([0, 0]))

    def test_check_returns_int64(self):
        out = check_permutation(np.array([1.0, 0.0]))
        assert out.dtype == np.int64


class TestInvertCompose:
    def test_invert_hand_case(self):
        # old 0 -> new 2, old 1 -> new 0, old 2 -> new 1
        inv = invert_permutation(np.array([2, 0, 1]))
        assert inv.tolist() == [1, 2, 0]

    @given(permutations)
    @settings(max_examples=30, deadline=None)
    def test_invert_roundtrip(self, perm):
        inv = invert_permutation(perm)
        assert np.array_equal(inv[perm], identity_permutation(perm.shape[0]))

    @given(permutations)
    @settings(max_examples=30, deadline=None)
    def test_double_invert_identity(self, perm):
        assert np.array_equal(invert_permutation(invert_permutation(perm)), perm)


class TestApplication:
    def test_apply_to_edges(self):
        relabeling = np.array([2, 0, 1])
        src, dst = apply_to_edges(relabeling, np.array([0, 1]), np.array([1, 2]))
        assert src.tolist() == [2, 0]
        assert dst.tolist() == [0, 1]


class TestSortOrder:
    def test_order_to_relabeling(self):
        # order lists old IDs: old 2 first (new 0), old 0 second (new 1)...
        relabeling = sort_order_to_relabeling(np.array([2, 0, 1]))
        assert relabeling.tolist() == [1, 2, 0]

    def test_identity_order(self):
        assert sort_order_to_relabeling(np.array([0, 1, 2])).tolist() == [0, 1, 2]

    def test_rejects_non_permutation(self):
        with pytest.raises(PermutationError, match="^relabeling array is not a permutation$"):
            sort_order_to_relabeling(np.array([0, 0, 1]))
