import itertools
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import find, given, settings, strategies as st

from tdual import zmodlin
from tdual.cech import Nerve, TwistCocycle
from tdual.groupcoh import GroupCochainSpace, d_group_matrix, total_matrix
from tdual.lca import FiniteLcaGroup, QuotientGroup, Subgroup
from tdual.zmodlin import (
    Complex,
    inv_mod,
    module_quotient,
    smith_form,
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


def dense(sf):
    """The rows x cols D of a Smith form, from its kept diagonal."""
    D = np.zeros(sf.shape, dtype=np.int64)
    np.fill_diagonal(D, sf.d)
    return D


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
    eye = np.eye(rows, dtype=np.int64)
    U = sf.carry(eye)
    UAV = (U @ A @ sf.v) % m
    assert np.array_equal(UAV, dense(sf) % m)
    assert np.array_equal((U @ sf.uncarry(eye)) % m, eye % m)
    assert smith_form(sf.v, m).solve(np.eye(cols, dtype=np.int64))[1].all()
    off = UAV.copy()
    for i in range(min(rows, cols)):
        off[i, i] = 0
    assert not off.any()
    from math import gcd
    chain = [gcd(x, m) for x in sf.d.tolist()]
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
        X, ok = smith_form(A, m).solve(b[:, None])
        assert ok.all() and np.array_equal((A @ X[:, 0]) % m, b)
        K = smith_form(A, m).kernel()
        assert span_of(K, m, cols) == brute_kernel(A, m)


def test_unsolvable_detected():
    # 2x = 1 mod 4 has no solution
    X, ok = smith_form(np.array([[2]]), 4).solve(np.array([[1]]))
    assert not ok.any()


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
        X, ok = smith_form(A, m).solve(B)
        cols = [smith_form(A, m).solve(B[:, j:j + 1])[0][:, 0] for j in range(4)]
        assert ok.all() and X.shape == (5, 4)
        assert np.array_equal(X, np.stack(cols, axis=1))
        assert np.array_equal((A @ X) % m, B)


def test_multi_column_solve_fails_on_one_bad_column():
    A = np.array([[2, 0], [0, 4]], dtype=np.int64)
    B = np.array([[2, 4, 0], [4, 0, 2]], dtype=np.int64)   # column 2: 4y = 2 mod 8
    X, ok = smith_form(A, 8).solve(B)
    assert ok.tolist() == [True, True, False]
    assert np.array_equal((A @ X[:, :2]) % 8, B[:, :2])
    assert not smith_form(A, 8).solve(B[:, 2:])[1].any()


def test_multi_column_solve_with_no_columns():
    A = np.array([[1, 2, 3], [0, 2, 4]], dtype=np.int64)
    X, ok = smith_form(A, 6).solve(np.zeros((2, 0), dtype=np.int64))
    assert X.shape == (3, 0) and ok.shape == (0,)
    with pytest.raises(ValueError):
        smith_form(A, 6).solve(np.zeros((3, 1), dtype=np.int64))


def cohomology_at_1(d_k, d_prev, m):
    """H^1 of the complex d_prev, d_k over Z/m: factors and representative columns."""
    factors, reps = Complex(m, {0: d_prev, 1: d_k}.__getitem__, lambda p, flat: flat).cohomology(1)
    return factors, np.stack(reps, axis=1) if reps else np.zeros((d_k.shape[1], 0), np.int64)


def test_cohomology_of_factors_each_matrix_once(monkeypatch):
    # one Smith form for ker(d_k), one for the generators (coordinates of
    # all relations and the syzygies), one for the relation matrix
    rng = np.random.default_rng(11)
    m = 12
    d_k = rng.integers(0, m, size=(6, 9)).astype(np.int64)
    K = smith_form(d_k, m).kernel()
    d_prev = (K @ rng.integers(0, m, size=(K.shape[1], 12))) % m
    expected = module_quotient(K, d_prev, m)
    calls = []
    real = zmodlin.smith_form

    def counted(A, mod, **kw):
        calls.append((np.shape(A), kw))
        return real(A, mod, **kw)

    monkeypatch.setattr(zmodlin, "smith_form", counted)
    factors, reps = cohomology_at_1(d_k, d_prev, m)
    assert len(calls) <= 3, calls
    # the kernel reads only V, the one transform a Smith form tracks
    assert calls[0][0] == d_k.shape and calls[0][1] == {}
    assert factors == expected[0] and np.array_equal(reps, expected[1])


def test_solvers_carry_the_right_hand_side_not_u(monkeypatch):
    # Z4/<2> on the circle: the total differential from degree 2 to 3 is the
    # 480 x 120 matrix the coboundary solver factors; neither SmithForm.solve nor
    # module_quotient's first factorisation may build its 480 x 480 U: each
    # replays the row operations on the right-hand side
    G = FiniteLcaGroup([4])
    q = QuotientGroup(G, Subgroup(G, [G.element([2])]))
    nerve = Nerve.circle()
    A = total_matrix(nerve, G, q, 4, TwistCocycle.trivial(nerve, q), 2)
    assert A.shape == (480, 120)
    B = (A @ np.random.default_rng(2).integers(0, 4, size=(120, 5))) % 4
    calls, carried = [], []
    real, carry = zmodlin.smith_form, zmodlin.SmithForm.carry

    def spy(M, mod, **kw):
        calls.append((np.shape(M), kw))
        return real(M, mod, **kw)

    def carry_spy(sf, C):
        carried.append(np.shape(C))
        return carry(sf, C)

    monkeypatch.setattr(zmodlin, "smith_form", spy)
    monkeypatch.setattr(zmodlin.SmithForm, "carry", carry_spy)
    u_bytes = 480 * 480 * 8
    for rhs in (B, B[:, :1]):
        tracemalloc.start()
        try:
            X, ok = zmodlin.smith_form(A, 4).solve(rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok.all() and np.array_equal((A @ X) % 4, rhs)
        assert peak < u_bytes, peak
    module_quotient(A, B, 4)
    assert calls[:3] == [((480, 120), {})] * 3
    assert carried[:3] == [(480, 5), (480, 1), (480, 5)]


@pytest.mark.parametrize("m", [4, 12])
def test_smith_form_solves_each_column_alone(m):
    # A's last row is zero, so a target with a unit there has no solution
    rng = np.random.default_rng(m)
    A = rng.integers(0, m, size=(9, 6)).astype(np.int64)
    A[-1] = 0
    bad = np.zeros(9, dtype=np.int64)
    bad[-1] = 1
    good = (A @ rng.integers(0, m, size=6)) % m
    B = np.stack([bad, good], axis=1)
    X, ok = smith_form(A, m).solve(B)
    assert ok.tolist() == [False, True]
    x_good = X[:, 1]
    alone, ok_alone = smith_form(A, m).solve(good[:, None])
    assert ok_alone.all()
    assert x_good.dtype == alone.dtype and np.array_equal(x_good, alone[:, 0])
    assert np.array_equal((A @ x_good) % m, good)


def reference_smith(A, m):
    """The Smith reduction one entry at a time, as (D, U, V, U^-1).

    Each nonzero entry below (right of) the pivot is cleared by its own
    elementary operation, on full rows (columns) of D and of every
    transform; smith_form must perform the same operations in batches.
    """
    D = np.asarray(A, dtype=np.int64) % m
    rows, cols = D.shape
    U, Uinv = np.eye(rows, dtype=np.int64), np.eye(rows, dtype=np.int64)
    V = np.eye(cols, dtype=np.int64)

    def add_row(i, j, q):
        D[i] = (D[i] + q * D[j]) % m
        U[i] = (U[i] + q * U[j]) % m
        Uinv[:, j] = (Uinv[:, j] - q * Uinv[:, i]) % m

    def add_col(j, i, q):
        D[:, j] = (D[:, j] + q * D[:, i]) % m
        V[:, j] = (V[:, j] + q * V[:, i]) % m

    def row_block(i, j, a, b, c, d):
        for M in (D, U):
            ri, rj = M[i].copy(), M[j].copy()
            M[i], M[j] = (a * ri + b * rj) % m, (c * ri + d * rj) % m
        ci, cj = Uinv[:, i].copy(), Uinv[:, j].copy()
        Uinv[:, i], Uinv[:, j] = (d * ci - c * cj) % m, (-b * ci + a * cj) % m

    def col_block(i, j, a, b, c, d):
        for M in (D, V):
            ci, cj = M[:, i].copy(), M[:, j].copy()
            M[:, i], M[:, j] = (a * ci + b * cj) % m, (c * ci + d * cj) % m

    def clear_pivot(k):
        while True:
            for i in range(k + 1, rows):
                b, a = int(D[i, k]), int(D[k, k])
                if b == 0:
                    continue
                if a != 0 and b % a == 0:
                    add_row(i, k, -(b // a))
                else:
                    g, x, y = xgcd(a, b)
                    row_block(k, i, x, y, -(b // g), a // g)
            for j in range(k + 1, cols):
                b, a = int(D[k, j]), int(D[k, k])
                if b == 0:
                    continue
                if a != 0 and b % a == 0:
                    add_col(j, k, -(b // a))
                else:
                    g, x, y = xgcd(a, b)
                    col_block(k, j, x, y, -(b // g), a // g)
            if not np.any(D[k + 1:, k]) and not np.any(D[k, k + 1:]):
                return

    for k in range(min(rows, cols)):
        nz = np.argwhere(D[k:, k:] != 0)
        if nz.size == 0:
            break
        best, best_g = None, m + 1
        for di, dj in nz:
            g = gcd(int(D[di + k, dj + k]), m)
            if g < best_g:
                best_g, best = g, (int(di) + k, int(dj) + k)
        D[[k, best[0]]] = D[[best[0], k]]
        U[[k, best[0]]] = U[[best[0], k]]
        Uinv[:, [k, best[0]]] = Uinv[:, [best[0], k]]
        D[:, [k, best[1]]] = D[:, [best[1], k]]
        V[:, [k, best[1]]] = V[:, [best[1], k]]
        clear_pivot(k)
        while True:
            gk = gcd(int(D[k, k]), m)
            bad = np.argwhere(D[k + 1:, k + 1:] % gk != 0)
            if bad.size == 0:
                break
            add_row(k, int(bad[0][0]) + k + 1, 1)
            clear_pivot(k)
    return D, U, V, Uinv


KINDS = ["dense", "sparse", "row-heavy", "column-heavy"]


def random_matrix(rng, kind):
    m = int(rng.integers(2, 65))
    rows, cols = int(rng.integers(1, 41)), int(rng.integers(1, 41))
    if kind == "row-heavy":
        rows, cols = max(rows, cols), min(rows, cols)
    elif kind == "column-heavy":
        rows, cols = min(rows, cols), max(rows, cols)
    A = rng.integers(0, m, size=(rows, cols))
    if kind == "sparse":
        A *= rng.random((rows, cols)) < 0.02
    return A, m


@pytest.mark.parametrize("kind", KINDS)
def test_smith_form_matches_reference_bit_for_bit(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    # the carried blocks draw from their own stream, so the matrices stay put
    block_rng = np.random.default_rng([KINDS.index(kind), 1])
    moduli = set()
    for _ in range(12):
        A, m = random_matrix(rng, kind)
        moduli.add(m)
        ref = dict(zip(("d", "u", "v", "uinv"), reference_smith(A, m)))
        eye = np.eye(A.shape[0], dtype=np.int64)
        for v in (True, False):
            sf = smith_form(A, m, v=v)
            assert np.array_equal(dense(sf), ref["d"])
            # the recorded row operations replay to U and undo to U^-1,
            # whether V is tracked or not
            assert np.array_equal(sf.carry(eye), ref["u"]), (A, m)
            assert np.array_equal(sf.uncarry(eye), ref["uinv"]), (A, m)
            if v:
                assert np.array_equal(sf.v, ref["v"]), (A, m)
            else:
                assert sf.v is None
        # a carried rows x k block comes out as U @ B
        sf = smith_form(A, m)
        for k in (0, 1, 3):
            B = block_rng.integers(0, m, size=(A.shape[0], k))
            assert np.array_equal(sf.carry(B), (ref["u"] @ B) % m), (A, m, B)
    assert any(all(m % p for p in range(2, m)) for m in moduli)   # a prime
    assert any(any(m % p == 0 for p in range(2, m)) for m in moduli)   # a composite


def exact_product(X, Y):
    """X @ Y in Python integers, one nonzero entry of X at a time."""
    out = np.zeros((X.shape[0], Y.shape[1]), dtype=object)
    Y = Y.astype(object)
    for i, k in zip(*np.nonzero(X)):
        out[i] += int(X[i, k]) * Y[k]
    return out


@pytest.mark.parametrize("m", [2 ** 27, 2 ** 27 - 1])
def test_smith_form_exact_at_the_largest_loadable_modulus(m):
    # 2^27 is the largest modulus the loader accepts at cap 512; 2^27 - 1 is
    # not a power of two, so an int64 wrap-around would show in the residues
    rng = np.random.default_rng(27)
    A = m - rng.integers(1, 2 ** 10, size=(512, 4))
    # a chain of pivots 3^16, 3^15, ..., 1: sixteen xgcd blocks in one column
    A[0, 0] = 3 ** 16
    A[1:17, 0] = [2 * 3 ** e for e in range(15, -1, -1)]
    sf = smith_form(A, m)
    eye = np.eye(512, dtype=np.int64)
    U = sf.carry(eye)
    assert not ((exact_product(exact_product(U, A), sf.v) - dense(sf)) % m).any()
    assert not ((exact_product(U, sf.uncarry(eye)) - eye) % m).any()
    assert sf.d.tolist() == [1, 1, 1, 1]
    # the solver carries B through the row operations instead of forming U
    X0 = rng.integers(0, m, size=(4, 3))
    B = (exact_product(A, X0) % m).astype(np.int64)
    carried = sf.carry(B)
    assert np.array_equal(carried, (exact_product(U, B) % m).astype(np.int64))
    X, ok = smith_form(A, m).solve(B)
    assert ok.all() and not ((exact_product(A, X) - B) % m).any()


def reference_solve(sf: zmodlin.SmithForm, U: np.ndarray, B: np.ndarray):
    """Solutions X of A X = B mod m from A's Smith form and its full U, or None.

    B is (rows, k) and reduced mod m; the result is (cols, k), one solution
    per column, and None as soon as one column has no solution.
    """
    m = sf.m
    rows, cols = sf.shape
    C = (U @ B) % m
    Y = np.zeros((cols, B.shape[1]), dtype=np.int64)
    k = min(rows, cols)
    for i in range(rows):
        di = int(sf.d[i]) if i < k else 0
        g = gcd(di, m)
        if np.any(C[i] % g):
            return None
        if i < k and di % m != 0:
            Y[i] = (C[i] // g * inv_mod(di // g, m // g)) % (m // g)
    return (sf.v @ Y) % m


def reference_kernel(sf: zmodlin.SmithForm) -> np.ndarray:
    """Generators (columns) of the kernel of A mod m from A's Smith form."""
    m = sf.m
    rows, cols = sf.shape
    k = min(rows, cols)
    gens = []
    for j in range(cols):
        dj = int(sf.d[j]) if j < k else 0
        mult = m // gcd(dj, m)
        if mult % m != 0:
            gens.append((sf.v[:, j] * mult) % m)
    if not gens:
        return np.zeros((cols, 0), dtype=np.int64)
    return np.stack(gens, axis=1)


def reference_module_quotient(gens, rels, m):
    """module_quotient with the full U and U^-1: reference_solve on U @ rels."""
    n, t = gens.shape
    if t == 0:
        return [], np.zeros((n, 0), dtype=np.int64)
    sf = smith_form(gens, m)
    coords = reference_solve(sf, sf.carry(np.eye(n, dtype=np.int64)),
                             np.asarray(rels, dtype=np.int64) % m)
    R = np.concatenate([coords, reference_kernel(sf)], axis=1)
    if R.shape[1] == 0:
        R = np.zeros((t, 1), dtype=np.int64)
    sf = smith_form(R, m, v=False)
    k = min(R.shape)
    new_gens = (gens @ sf.uncarry(np.eye(t, dtype=np.int64))) % m
    factors, reps = [], []
    for i in range(t):
        di = int(sf.d[i]) if i < k else 0
        f = gcd(di, m)
        if f > 1:
            factors.append(f)
            reps.append(new_gens[:, i])
    reps_arr = np.stack(reps, axis=1) if reps else np.zeros((n, 0), dtype=np.int64)
    return factors, reps_arr


@pytest.mark.parametrize("kind", KINDS)
def test_solvers_match_the_u_tracking_reference(kind):
    rng = np.random.default_rng([KINDS.index(kind), 2])
    solvable = set()
    for _ in range(12):
        A, m = random_matrix(rng, kind)
        rows, cols = A.shape
        # two columns in the image of A, two drawn at random (often not)
        B = np.concatenate([(A @ rng.integers(0, m, size=(cols, 2))) % m,
                            rng.integers(0, m, size=(rows, 2))], axis=1)
        sf = smith_form(A, m)
        U = sf.carry(np.eye(rows, dtype=np.int64))
        for rhs in (B, B[:, :2], B[:, 2:3], B[:, :0]):
            want = reference_solve(sf, U, rhs)
            got, ok = smith_form(A, m).solve(rhs)
            solvable.add(want is not None)
            assert ok.all() == (want is not None), (A, m, rhs)
            assert want is None or np.array_equal(got, want), (A, m, rhs)
        rels = (A @ rng.integers(0, m, size=(cols, 3))) % m
        f, reps = module_quotient(A, rels, m)
        f_ref, reps_ref = reference_module_quotient(A, rels, m)
        assert f == f_ref and np.array_equal(reps, reps_ref), (A, m)
        K = reference_kernel(smith_form(A, m))
        assert np.array_equal(smith_form(A, m).kernel(), K)
        d_prev = (K @ rng.integers(0, m, size=(K.shape[1], 3))) % m
        f, reps = cohomology_at_1(A, d_prev, m)
        f_ref, reps_ref = reference_module_quotient(K, d_prev, m)
        assert f == f_ref and np.array_equal(reps, reps_ref), (A, m)
    assert solvable == {True, False}


class _FullSide:
    """smith_form's row side with every update written in full.

    Each rank-1 update rewrites the whole trailing block of its rows, and
    the column side carries V through the strided view V.T.  Together with
    full_update_pivot and full_update_smith_form it is the reference that
    smith_form's skipped writes must match bit for bit.
    """

    def __init__(self, D, T, Tinv, m):
        self.D, self.T, self.Tinv, self.m = D, T, Tinv, m

    def swap(self, i, j):
        if i == j:
            return
        self.D[[i, j]] = self.D[[j, i]]
        if self.T is not None:
            self.T[[i, j]] = self.T[[j, i]]
        if self.Tinv is not None:
            self.Tinv[:, [i, j]] = self.Tinv[:, [j, i]]

    def add(self, k, dst, src, q):
        m, D, T, Tinv = self.m, self.D, self.T, self.Tinv
        q = np.asarray(q, dtype=np.int64)
        D[dst, k:] = (D[dst, k:] + q[:, None] * D[src, k:]) % m
        if T is not None:
            T[dst] = (T[dst] + q[:, None] * T[src]) % m
        if Tinv is not None:
            Tinv[:, src] = (Tinv[:, src] - Tinv[:, dst] @ q) % m

    def block(self, k, i, x, y, c, d):
        m, D, T, Tinv = self.m, self.D, self.T, self.Tinv
        B = np.array([[x, y], [c, d]], dtype=np.int64)
        D[[k, i], k:] = (B @ D[[k, i], k:]) % m
        if T is not None:
            T[[k, i]] = (B @ T[[k, i]]) % m
        if Tinv is not None:
            Binv = np.array([[d, -y], [-c, x]], dtype=np.int64)
            Tinv[:, [k, i]] = (Tinv[:, [k, i]] @ Binv) % m

    def clear(self, k):
        D = self.D
        rows = np.flatnonzero(D[k + 1:, k]) + k + 1
        b = D[rows, k]
        pos = 0
        while pos < rows.size:
            a = int(D[k, k])
            bad = np.flatnonzero(b[pos:] % a)
            end = pos + int(bad[0]) if bad.size else rows.size
            if end > pos:
                self.add(k, rows[pos:end], k, -(b[pos:end] // a))
            if end < rows.size:
                bb = int(b[end])
                g, x, y = xgcd(a, bb)
                self.block(k, int(rows[end]), x, y, -(bb // g), a // g)
            pos = end + 1


def full_update_pivot(S, m):
    """First least-gcd entry of S in row-major order, from the gcds of its nonzeros."""
    h = 1
    while True:
        ri, ci = np.nonzero(S[:h])
        if ri.size:
            g = np.gcd(S[ri, ci], m)
            best = int(np.argmin(g))
            if g[best] == 1 or h >= S.shape[0]:
                return int(ri[best]), int(ci[best])
        elif h >= S.shape[0]:
            return None
        h *= 2


def full_update_smith_form(A, m, *, u=None, v=True):
    """(D, U @ u or None, V or None, U^-1), every transform updated in full."""
    D = np.asarray(A, dtype=np.int64) % m
    rows, cols = D.shape
    U = None if u is None else np.array(u, dtype=np.int64) % m
    Uinv = np.eye(rows, dtype=np.int64)
    V = np.eye(cols, dtype=np.int64) if v else None
    row = _FullSide(D, U, Uinv, m)
    col = _FullSide(D.T, None if V is None else V.T, None, m)

    def clear_pivot(k):
        while True:
            row.clear(k)
            col.clear(k)
            if not np.any(D[k + 1:, k]):
                return

    for k in range(min(rows, cols)):
        best = full_update_pivot(D[k:, k:], m)
        if best is None:
            break
        row.swap(k, best[0] + k)
        col.swap(k, best[1] + k)
        clear_pivot(k)
        while True:
            gk = gcd(int(D[k, k]), m)
            if gk == 1:
                break
            bad = np.flatnonzero((D[k + 1:, k + 1:] % gk).any(axis=1))
            if not bad.size:
                break
            row.add(k, [k], int(bad[0]) + k + 1, [1])
            clear_pivot(k)

    return D, U, V, Uinv


def assert_same_smith(A, m, u=None, v=True):
    """smith_form against the reference; u is a rows x k block both carry.

    U^-1 is compared as the identity uncarried, which comes out reduced
    mod m even where the reference's identity was never touched (m = 1).
    """
    got = smith_form(A, m, v=v)
    d, U, V, Uinv = full_update_smith_form(A, m, u=u, v=v)
    eye = np.eye(np.shape(A)[0], dtype=np.int64)
    pairs = [("d", dense(got), d), ("v", got.v, V), ("uinv", got.uncarry(eye), Uinv % m)]
    if u is not None:
        pairs.append(("u", got.carry(u), U))
    for name, a, b in pairs:
        assert (a is None) == (b is None), name
        assert a is None or (a.dtype == b.dtype and np.array_equal(a, b)), (A, m, name)


# 2^27 is the largest modulus the loader accepts at cap 512: (m-1)^2 * 512 < 2^63
SMITH_MODULI = [1, 2, 4, 6, 8, 9, 12, 30, 97, 2 ** 27]


@st.composite
def smith_inputs(draw):
    m = draw(st.sampled_from(SMITH_MODULI))
    shape = draw(st.sampled_from(["empty-rows", "empty-cols", "wide", "tall", "square",
                                  "tall-sparse"]))
    a, b = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rows, cols = {"empty-rows": (0, a), "empty-cols": (a, 0), "wide": (min(a, b), max(a, b)),
                  "tall": (max(a, b), min(a, b)), "square": (a, a), "tall-sparse": (0, b)}[shape]
    if shape == "tall-sparse":
        # up to 40 rows of +-1: the doubling pivot windows pass several heights
        rows, kind = draw(st.integers(13, 40)), "sparse-units"
    else:
        kind = draw(st.sampled_from(["uniform", "sparse-units", "no-unit"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        A = rng.integers(0, m, size=(rows, cols))
    elif kind == "sparse-units":
        A = rng.choice([-1, 0, 0, 0, 1], size=(rows, cols))
    else:
        # multiples of a proper divisor of m (none for m = 1 or a prime)
        p = next((p for p in range(2, m) if m % p == 0), m)
        A = p * rng.integers(0, max(m // p, 1), size=(rows, cols))
    u = draw(st.sampled_from([None, "eye", "block"]))
    U = {None: None, "eye": np.eye(rows, dtype=np.int64),
         "block": rng.integers(0, m, size=(rows, 3))}[u]
    return A, m, U, draw(st.booleans())


@given(smith_inputs())
@settings(max_examples=300, deadline=None)
def test_smith_form_matches_full_update_reference(case):
    A, m, U, v = case
    assert_same_smith(A, m, u=U, v=v)


def test_smith_inputs_reach_a_column_side_block(monkeypatch):
    # a column-side xgcd block is the one operation that refills column k
    # below the pivot; the sweep above must reach it
    hits = []
    block = zmodlin._Side.block

    def spy(side, *args):
        if side.log is None:          # the column side records nothing
            hits.append(args)
        return block(side, *args)

    def takes_a_column_block(case):
        hits.clear()
        smith_form(case[0], case[1])
        return bool(hits)

    monkeypatch.setattr(zmodlin._Side, "block", spy)
    A, m, U, v = find(smith_inputs(), takes_a_column_block,
                      settings=settings(database=None, max_examples=2000))
    assert_same_smith(A, m, u=U, v=v)


def ladder_matrices():
    """The two largest matrices the cohomology ladder factors over Z/4."""
    G = FiniteLcaGroup([4])
    q = QuotientGroup(G, Subgroup(G, [G.element([2])]))
    nerve = Nerve.circle()
    # the circle's total differential from degree 2 to 3
    A = total_matrix(nerve, G, q, 4, TwistCocycle.trivial(nerve, q), 2)
    # the point's arity-3 group differential, the heaviest pivot search
    A3 = d_group_matrix(GroupCochainSpace(G, q, 4, 3))
    assert A.shape == (480, 120) and A3.shape == (512, 128)
    return A, A3


def test_smith_form_matches_full_update_reference_on_ladder_matrix():
    A, A3 = ladder_matrices()
    B = (A @ np.random.default_rng(3).integers(0, 4, size=(120, 2))) % 4
    for kw in ({}, {"u": B}, {"v": False}, {"u": np.eye(480, dtype=np.int64)}):
        assert_same_smith(A, 4, **kw)
    assert_same_smith(A.T, 4, v=False)
    B3 = (A3 @ np.random.default_rng(4).integers(0, 4, size=(128, 2))) % 4
    for kw in ({"u": B3}, {"u": np.eye(512, dtype=np.int64)}):
        assert_same_smith(A3, 4, **kw)


def test_recorded_row_operations_take_at_most_half_of_d():
    # the record replaces a rows x rows U; it must stay well below even D
    for A in ladder_matrices():
        sf = smith_form(A, 4)
        recorded = sf.steps.nbytes + sf.dst.nbytes + sf.mult.nbytes
        d_bytes = A.shape[0] * A.shape[1] * 8   # the dense int64 D
        assert recorded <= d_bytes // 2, (A.shape, recorded, d_bytes)
