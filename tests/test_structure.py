import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import REFERENCE_GAIN_UNSTRUCTURED, ZEROS_A
from structlqr import SparsityMask, check_membership, off_pattern, on_pattern


class TestMask:
    def test_entries_must_be_binary(self):
        with pytest.raises(ValueError):
            SparsityMask(np.full((2, 2), 0.5))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            SparsityMask(np.zeros((2, 3)))

    def test_nnz_and_complement(self, mask_a):
        assert mask_a.nnz == 29
        assert np.array_equal(mask_a.complement, 1.0 - mask_a.indicator)
        assert int(mask_a.complement.sum()) == 7

    def test_out_of_range_zero_position(self):
        with pytest.raises(ValueError):
            SparsityMask.from_zero_positions(2, 2, [(2, 0)])

    def test_fractional_zero_position_names_it(self):
        with pytest.raises(ValueError, match=r"^zero position \(0\.5, 1\) must "
                           r"be two integers in \[0, 2\) x \[0, 2\)$"):
            SparsityMask.from_zero_positions(2, 2, [(0.5, 1)])


class TestOffPattern:
    def test_first_agent_row_pattern(self):
        mask = SparsityMask(np.array([[0, 0, 1, 1, 1, 0]], dtype=float))
        row = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        assert np.array_equal(off_pattern(row, mask),
                              np.array([[1.0, 2.0, 0.0, 0.0, 0.0, 6.0]]))

    def test_all_ones_mask_gives_exact_zero(self):
        mask = SparsityMask.all_ones(3, 4)
        K = np.arange(12.0).reshape(3, 4) + 1.0
        assert np.array_equal(off_pattern(K, mask), np.zeros((3, 4)))

    def test_random_gain_supported_on_complement(self, mask_a):
        rng = np.random.default_rng(5)
        K = rng.standard_normal((6, 6))
        off = off_pattern(K, mask_a)
        support = {(int(i), int(j)) for i, j in np.argwhere(off != 0.0)}
        assert support == set(ZEROS_A)

    def test_dimension_mismatch(self, mask_a):
        with pytest.raises(ValueError):
            off_pattern(np.zeros((5, 6)), mask_a)


class TestMembership:
    def test_zero_matrix_member_of_any_mask(self, mask_a):
        assert check_membership(np.zeros((6, 6)), mask_a) == 0.0

    def test_unstructured_gain_violates_with_seven_positions(self, mask_a):
        assert check_membership(REFERENCE_GAIN_UNSTRUCTURED,
                                mask_a) == pytest.approx(2.9234)
        off = off_pattern(REFERENCE_GAIN_UNSTRUCTURED, mask_a)
        assert {(int(i), int(j)) for i, j in np.argwhere(off != 0.0)} \
            == set(ZEROS_A)

    def test_tolerance(self, mask_a):
        # no tolerance: the smallest off-mask entry is the violation
        K = 1e-9 * (1.0 - mask_a.indicator)
        assert check_membership(K, mask_a) == 1e-9


_gains = arrays(np.float64, (4, 5),
                elements=st.floats(-1e6, 1e6, allow_nan=False))
_masks = arrays(np.int_, (4, 5), elements=st.integers(0, 1)).filter(
    lambda a: a.sum() >= 1)


@settings(max_examples=60, deadline=None)
@given(K=_gains, ind=_masks)
def test_projection_idempotent(K, ind):
    mask = SparsityMask(ind.astype(float))
    once = off_pattern(K, mask)
    assert np.array_equal(off_pattern(once, mask), once)


@settings(max_examples=60, deadline=None)
@given(K=_gains, ind=_masks)
def test_decomposition_identity(K, ind):
    mask = SparsityMask(ind.astype(float))
    assert np.array_equal(on_pattern(K, mask) + off_pattern(K, mask), K)
