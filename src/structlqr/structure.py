"""Sparsity patterns on feedback gains and the Hadamard-mask constraint."""

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .system import (_as_floats, _as_matrix, _as_pair, _check_at_least,
                     _check_instance, _freeze, _is_index)


@dataclass(frozen=True)
class SparsityMask:
    """0/1 indicator of the allowed nonzero entries of an m-by-n gain."""

    indicator: np.ndarray

    def __post_init__(self):
        ind = _as_matrix(self.indicator, name="mask")
        if not np.all((ind == 0.0) | (ind == 1.0)):
            raise ValueError("mask entries must be exactly 0 or 1")
        if np.sum(ind) < 1:
            raise ValueError("mask must allow at least one entry; an all-zero "
                             "gain structure is degenerate")
        object.__setattr__(self, "indicator", _freeze(ind))

    @property
    def shape(self) -> Tuple[int, int]:
        return self.indicator.shape

    @property
    def nnz(self) -> int:
        """Number of allowed (free) gain entries."""
        return int(np.sum(self.indicator))

    @property
    def complement(self) -> np.ndarray:
        return 1.0 - self.indicator

    @classmethod
    def all_ones(cls, num_inputs: int, num_states: int) -> "SparsityMask":
        return cls.from_zero_positions(num_inputs, num_states, ())

    @classmethod
    def from_zero_positions(cls, num_inputs: int, num_states: int,
                            zeros: Sequence[Tuple[int, int]]) -> "SparsityMask":
        """Build a mask from 0-indexed (row, col) positions forced to zero."""
        _check_at_least("num_inputs", num_inputs, 1)
        _check_at_least("num_states", num_states, 1)
        try:
            positions = iter(zeros)
        except TypeError:
            raise ValueError(f"zeros must be (row, col) positions, got "
                             f"{zeros!r}") from None
        ind = np.ones((num_inputs, num_states))
        for pos in positions:
            i, j, text = _as_pair(pos)
            if not (_is_index(i, num_inputs) and _is_index(j, num_states)):
                raise ValueError(
                    f"zero position {text} must be two integers in "
                    f"[0, {num_inputs}) x [0, {num_states})")
            ind[i, j] = 0.0
        return cls(ind)


def off_pattern(gain, mask: SparsityMask) -> np.ndarray:
    """Component of the gain outside the allowed pattern, the gain less its
    on_pattern part; this is the structure-violating part and a projection."""
    return gain - on_pattern(gain, mask)


def on_pattern(gain, mask: SparsityMask) -> np.ndarray:
    """Component of the gain on the allowed pattern (Hadamard with the mask)."""
    _check_instance("mask", mask, SparsityMask)
    gain = _as_floats(gain, "gain")
    if gain.shape != mask.shape:
        raise ValueError(f"gain shape {gain.shape} != mask shape {mask.shape}")
    return gain * mask.indicator


def check_membership(gain, mask: SparsityMask) -> float:
    """Largest |gain| entry at a disallowed position; 0.0 means the gain
    satisfies the structure exactly."""
    return float(np.abs(off_pattern(gain, mask)).max())


def _check_on_mask(name: str, gain, mask: SparsityMask) -> None:
    """Reject a gain with a nonzero entry off the mask, naming the largest
    one and its 0-based (row, column) index."""
    off = off_pattern(gain, mask)
    i, j = np.unravel_index(np.argmax(np.abs(off)), off.shape)
    if off[i, j] != 0.0:
        raise ValueError(f"{name} must be zero off the mask, got "
                         f"{float(off[i, j])!r} at ({i}, {j})")
