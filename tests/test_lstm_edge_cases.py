"""The length-ranked LSTM recurrence at the desk shape, over orders and ties of lengths.

``lstm_sequence`` ranks the batch by length and walks prefixes of that
ranking; these cases check that the ranking never shows: values bitwise the
per-gate reference's, gradients within 1e-12, each output row its own input
row's, and ``no_grad`` scoring bitwise the taped one.
"""

import numpy as np
import pytest

from mmfuse.autodiff import Tensor, no_grad, ops
from test_lstm_sequence import _grads, reference_lstm

N, T, E, H = 32, 9, 16, 32

LENGTHS = {
    "descending": np.linspace(T, 1, N).round().astype(int),
    "ascending": np.linspace(1, T, N).round().astype(int),
    "all_equal": np.full(N, T),
    "tied": np.resize([3, 7, 7, 9, 3, 1, 9, 7], N),
    "some_zero": np.resize([0, 5, 9, 0, 2, 0, 8, 4], N),
    "all_zero": np.zeros(N, dtype=int),
    "one_example": np.array([6]),
}


def arrays(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal((n, T, E)),
        rng.standard_normal((E, 4 * H)) * 0.3,
        rng.standard_normal((H, 4 * H)) * 0.3,
        rng.standard_normal(4 * H) * 0.1,
    ]


@pytest.mark.parametrize("case", sorted(LENGTHS))
def test_ranked_recurrence_matches_reference(case):
    lengths = LENGTHS[case]
    n = len(lengths)
    inputs = arrays(n)
    probe = Tensor(np.random.default_rng(1).standard_normal((n, H)))

    out, grads = _grads(lambda *a: ops.lstm_sequence(*a, lengths), inputs, probe)
    ref_out, ref_grads = _grads(lambda *a: reference_lstm(*a, lengths), inputs, probe)
    assert np.array_equal(out, ref_out)
    for name, g, ref in zip(("x", "W", "U", "b"), grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12, err_msg=name)

    for row in range(n):  # row r is example r's state, read alone
        alone = ops.lstm_sequence(inputs[0][row : row + 1], *inputs[1:], lengths[row : row + 1])
        np.testing.assert_allclose(out[row], alone.data[0], rtol=0, atol=1e-12)
    assert np.array_equal(out[lengths == 0], np.zeros(((lengths == 0).sum(), H)))

    with no_grad():
        scored = ops.lstm_sequence(*(Tensor(a) for a in inputs), lengths)
    assert np.array_equal(scored.data, out)
