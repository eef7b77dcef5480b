import numpy as np
import pytest

from tdual.linops import kron_stack


def _draw(rng, shape, kind):
    x = rng.normal(size=shape)
    return x + 1j * rng.normal(size=shape) if kind == "complex" else x


@pytest.mark.parametrize("kinds", [("real", "real"), ("complex", "real"),
                                   ("real", "complex"), ("complex", "complex")])
@pytest.mark.parametrize("shapes", [((3, 3), (2, 2)), ((2, 4), (3, 1)), ((1, 1), (4, 4))])
def test_kron_stack_is_np_kron_on_matrices(kinds, shapes):
    rng = np.random.default_rng(7)
    A, B = (_draw(rng, s, k) for s, k in zip(shapes, kinds))
    got, want = kron_stack(A, B), np.kron(A, B)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_kron_stack_broadcasts_leading_axes(kind):
    rng = np.random.default_rng(8)
    q, r, n, k = 3, 4, 2, 3
    A, B = _draw(rng, (q, 1, n, n), kind), _draw(rng, (1, r, k, k), "complex")
    got = kron_stack(A, B)
    assert got.shape == (q, r, n * k, n * k)
    for i in range(q):
        for j in range(r):
            assert np.array_equal(got[i, j], np.kron(A[i, 0], B[0, j]))
    # a 2-D factor broadcasts against a stack, as the fibre identity does
    eye = np.eye(k)
    assert np.array_equal(kron_stack(A, eye)[:, 0], np.stack([np.kron(a, eye) for a in A[:, 0]]))
    assert np.array_equal(kron_stack(eye, B)[0], np.stack([np.kron(eye, b) for b in B[0]]))
