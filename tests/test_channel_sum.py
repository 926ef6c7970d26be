"""``ops._channel_sum`` gives NumPy's own per-channel sums, bit for bit.

Batch norm's statistics and gradients go through it, so checkpoints stay
bitwise only while these bits hold; a NumPy upgrade that changes either
``einsum``'s or ``sum``'s order fails here first.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmfuse.autodiff import ops


def magnitudes(rng, shape):
    """Values whose magnitudes span e^-20 to e^20, so any reordering shows in the last bits."""
    return rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 5000),
    channels=st.integers(1, 70),
    four_d=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=5000, channels=1, four_d=False, seed=0)  # one channel: NumPy sums pairwise
@example(rows=4096, channels=1, four_d=True, seed=1)
@example(rows=8192, channels=16, four_d=True, seed=2)  # the stem's (32, 16, 16, 16) output
def test_matches_numpy_sum_bitwise(rows, channels, four_d, seed):
    rng = np.random.default_rng(seed)
    if four_d:  # (N, H, W, C) with N * H * W close to rows
        side = max(1, int(np.sqrt(rows / 8)))
        shape = (max(1, rows // (side * side)), side, side, channels)
    else:
        shape = (rows, channels)
    a, b = magnitudes(rng, shape), magnitudes(rng, shape)
    axes = tuple(range(len(shape) - 1))
    assert np.array_equal(ops._channel_sum(a), a.sum(axis=axes))
    assert np.array_equal(ops._channel_sum(a, b), (a * b).sum(axis=axes))
    assert np.array_equal(ops._channel_sum(a, a), (a * a).sum(axis=axes))


def test_other_layouts_keep_numpy_sum(rng):
    """A transposed view sums along a contiguous axis, pairwise; the helper must not reorder it."""
    a = magnitudes(rng, (3, 4096)).T
    b = magnitudes(rng, (4096, 3))
    assert np.array_equal(ops._channel_sum(a), a.sum(axis=0))
    assert np.array_equal(ops._channel_sum(a, b), (a * b).sum(axis=0))
    assert np.array_equal(ops._channel_sum(b, a), (b * a).sum(axis=0))


def test_empty_inputs(rng):
    assert np.array_equal(ops._channel_sum(np.zeros((0, 3))), np.zeros(3))
    assert ops._channel_sum(np.zeros((2, 4, 4, 0)), np.zeros((2, 4, 4, 0))).shape == (0,)
