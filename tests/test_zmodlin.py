import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdual import zmodlin
from tdual.zmodlin import (
    cohomology_of,
    inv_mod,
    kernel_mod,
    module_quotient,
    smith_form,
    solve_mod,
    xgcd,
)


def brute_kernel(A, m):
    """All solutions of A x = 0 mod m by enumeration (oracle)."""
    rows, cols = A.shape
    sols = set()
    for v in itertools.product(range(m), repeat=cols):
        x = np.array(v, dtype=np.int64)
        if rows == 0 or not ((A @ x) % m).any():
            sols.add(v)
    return sols


def span_of(cols, m, dim):
    """Subgroup of (Z/m)^dim generated by the given columns (oracle)."""
    vs = {(0,) * dim}
    frontier = [tuple(int(x) % m for x in c) for c in cols.T] if cols.size else []
    changed = True
    while changed:
        changed = False
        for f in frontier:
            for v in list(vs):
                nv = tuple((a + b) % m for a, b in zip(v, f))
                if nv not in vs:
                    vs.add(nv)
                    changed = True
    return vs


@given(st.integers(2, 12), st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_smith_form_properties(m, rows, cols, data):
    A = np.array(
        [[data.draw(st.integers(0, m - 1)) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )
    sf = smith_form(A, m)
    assert np.array_equal((sf.u @ A @ sf.v) % m, sf.d % m)
    assert np.array_equal((sf.u @ sf.uinv) % m, np.eye(rows, dtype=np.int64) % m)
    assert solve_mod(sf.v, np.eye(cols, dtype=np.int64), m) is not None
    off = sf.d.copy()
    for i in range(min(rows, cols)):
        off[i, i] = 0
    assert not off.any()
    from math import gcd
    chain = [gcd(x, m) for x in sf.diag]
    for a, b in zip(chain, chain[1:]):
        assert b % a == 0


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_solve_and_kernel_against_enumeration(m):
    rng = np.random.default_rng(m)
    for _ in range(25):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A = rng.integers(0, m, size=(rows, cols)).astype(np.int64)
        x0 = rng.integers(0, m, size=cols).astype(np.int64)
        b = (A @ x0) % m
        x = solve_mod(A, b, m)
        assert x is not None and np.array_equal((A @ x) % m, b)
        K = kernel_mod(A, m)
        assert span_of(K, m, cols) == brute_kernel(A, m)


def test_unsolvable_detected():
    # 2x = 1 mod 4 has no solution
    assert solve_mod(np.array([[2]]), np.array([1]), 4) is None


def test_inv_mod():
    assert inv_mod(3, 4) == 3
    with pytest.raises(ValueError):
        inv_mod(2, 4)
    g, x, y = xgcd(12, 18)
    assert g == 6 and 12 * x + 18 * y == 6


def test_module_quotient_examples():
    # <2> / <8> in Z/12 is cyclic of order 2
    f, reps = module_quotient(np.array([[2]]), np.array([[8]]), 12)
    assert f == [2]
    # (Z/4)^2 / 0
    f, _ = module_quotient(np.eye(2, dtype=np.int64), np.zeros((2, 0), np.int64), 4)
    assert f == [4, 4]
    # (Z/6) / <3> = Z/3
    f, _ = module_quotient(np.array([[1]]), np.array([[3]]), 6)
    assert f == [3]


def test_module_quotient_orders_match_enumeration():
    rng = np.random.default_rng(5)
    for m in (2, 4, 6):
        for _ in range(10):
            dim = int(rng.integers(1, 3))
            gens = rng.integers(0, m, size=(dim, int(rng.integers(1, 3)))).astype(np.int64)
            gspan = span_of(gens, m, dim)
            # relations: random multiples of the generators (stay in the span)
            coeff = rng.integers(0, m, size=(gens.shape[1], 2)).astype(np.int64)
            rels = (gens @ coeff) % m
            rspan = span_of(rels, m, dim)
            factors, _ = module_quotient(gens, rels, m)
            order = 1
            for x in factors:
                order *= x
            assert order == len(gspan) // len(rspan)


def test_multi_column_solve_equals_column_solves():
    rng = np.random.default_rng(7)
    for m in (6, 8, 12):
        A = rng.integers(0, m, size=(6, 5)).astype(np.int64)
        B = (A @ rng.integers(0, m, size=(5, 4))) % m
        X = solve_mod(A, B, m)
        cols = [solve_mod(A, B[:, j], m) for j in range(4)]
        assert X.shape == (5, 4)
        assert np.array_equal(X, np.stack(cols, axis=1))
        assert np.array_equal((A @ X) % m, B)


def test_multi_column_solve_fails_on_one_bad_column():
    A = np.array([[2, 0], [0, 4]], dtype=np.int64)
    B = np.array([[2, 4, 0], [4, 0, 2]], dtype=np.int64)   # column 2: 4y = 2 mod 8
    assert solve_mod(A, B[:, :2], 8) is not None
    assert solve_mod(A, B[:, 2], 8) is None
    assert solve_mod(A, B, 8) is None


def test_multi_column_solve_with_no_columns():
    A = np.array([[1, 2, 3], [0, 2, 4]], dtype=np.int64)
    X = solve_mod(A, np.zeros((2, 0), dtype=np.int64), 6)
    assert X.shape == (3, 0)
    with pytest.raises(ValueError):
        solve_mod(A, np.zeros((3, 1), dtype=np.int64), 6)


def test_cohomology_of_factors_each_matrix_once(monkeypatch):
    # one Smith form for ker(d_k), one for the generators (coordinates of
    # all relations and the syzygies), one for the relation matrix
    rng = np.random.default_rng(11)
    m = 12
    d_k = rng.integers(0, m, size=(6, 9)).astype(np.int64)
    K = kernel_mod(d_k, m)
    d_prev = (K @ rng.integers(0, m, size=(K.shape[1], 12))) % m
    expected = module_quotient(K, d_prev, m)
    calls = []
    real = zmodlin.smith_form

    def counted(A, mod):
        calls.append(np.shape(A))
        return real(A, mod)

    monkeypatch.setattr(zmodlin, "smith_form", counted)
    factors, reps = cohomology_of(d_k, d_prev, m)
    assert len(calls) <= 3, calls
    assert factors == expected[0] and np.array_equal(reps, expected[1])
