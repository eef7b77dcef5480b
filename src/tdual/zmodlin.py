"""Exact linear algebra over Z/m: Smith form, solving, kernels, quotients.

Matrices are 2-d numpy int64 arrays with entries reduced mod m.  All
transformations are integer-elementary, hence invertible mod m, so every
result is exact.  m may be any modulus >= 1 (not necessarily prime).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def inv_mod(a: int, m: int) -> int:
    g, x, _ = xgcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible mod {m}")
    return x % m


@dataclass
class SmithForm:
    """U @ A @ V = D mod m, with U, V invertible mod m and D diagonal.

    The diagonal divides along the chain gcd(d[0], m) | gcd(d[1], m) | ...
    uinv is the mod-m inverse of u.
    """

    d: np.ndarray
    u: np.ndarray
    v: np.ndarray
    uinv: np.ndarray
    m: int

    @property
    def diag(self) -> list[int]:
        k = min(self.d.shape)
        return [int(self.d[i, i]) for i in range(k)]


class _Worker:
    """Mutable state for the Smith reduction; tracks U, U^-1 and V."""

    def __init__(self, A: np.ndarray, m: int):
        self.m = m
        self.D = np.asarray(A, dtype=np.int64) % m
        rows, cols = self.D.shape
        self.U = np.eye(rows, dtype=np.int64)
        self.Uinv = np.eye(rows, dtype=np.int64)
        self.V = np.eye(cols, dtype=np.int64)

    def swap_rows(self, i, j):
        if i == j:
            return
        self.D[[i, j], :] = self.D[[j, i], :]
        self.U[[i, j], :] = self.U[[j, i], :]
        self.Uinv[:, [i, j]] = self.Uinv[:, [j, i]]

    def swap_cols(self, i, j):
        if i == j:
            return
        self.D[:, [i, j]] = self.D[:, [j, i]]
        self.V[:, [i, j]] = self.V[:, [j, i]]

    def add_row(self, i, j, q):
        # row_i += q * row_j
        m = self.m
        self.D[i, :] = (self.D[i, :] + q * self.D[j, :]) % m
        self.U[i, :] = (self.U[i, :] + q * self.U[j, :]) % m
        self.Uinv[:, j] = (self.Uinv[:, j] - q * self.Uinv[:, i]) % m

    def add_col(self, j, i, q):
        # col_j += q * col_i
        m = self.m
        self.D[:, j] = (self.D[:, j] + q * self.D[:, i]) % m
        self.V[:, j] = (self.V[:, j] + q * self.V[:, i]) % m

    def row_block(self, i, j, a, b, c, d):
        # [row_i; row_j] <- [[a,b],[c,d]] @ [row_i; row_j], det(block) == 1
        m = self.m
        ri, rj = self.D[i, :].copy(), self.D[j, :].copy()
        self.D[i, :], self.D[j, :] = (a * ri + b * rj) % m, (c * ri + d * rj) % m
        ri, rj = self.U[i, :].copy(), self.U[j, :].copy()
        self.U[i, :], self.U[j, :] = (a * ri + b * rj) % m, (c * ri + d * rj) % m
        ci, cj = self.Uinv[:, i].copy(), self.Uinv[:, j].copy()
        self.Uinv[:, i], self.Uinv[:, j] = (d * ci - c * cj) % m, (-b * ci + a * cj) % m

    def col_block(self, i, j, a, b, c, d):
        # [col_i, col_j] <- [col_i, col_j] @ [[a,c],[b,d]] with det == 1:
        # col_i <- a*col_i + b*col_j, col_j <- c*col_i + d*col_j
        m = self.m
        ci, cj = self.D[:, i].copy(), self.D[:, j].copy()
        self.D[:, i], self.D[:, j] = (a * ci + b * cj) % m, (c * ci + d * cj) % m
        ci, cj = self.V[:, i].copy(), self.V[:, j].copy()
        self.V[:, i], self.V[:, j] = (a * ci + b * cj) % m, (c * ci + d * cj) % m


def smith_form(A: np.ndarray, m: int) -> SmithForm:
    """Smith normal form of A over Z/m with full transformation data."""
    w = _Worker(A, m)
    D = w.D
    rows, cols = D.shape

    def clear_pivot(k: int) -> None:
        # make D[k,k] the only nonzero entry in its row and column
        while True:
            for i in range(k + 1, rows):
                b = int(D[i, k])
                if b == 0:
                    continue
                a = int(D[k, k])
                if a != 0 and b % a == 0:
                    w.add_row(i, k, -(b // a))
                else:
                    g, x, y = xgcd(a, b)
                    w.row_block(k, i, x, y, -(b // g), a // g)
            for j in range(k + 1, cols):
                b = int(D[k, j])
                if b == 0:
                    continue
                a = int(D[k, k])
                if a != 0 and b % a == 0:
                    w.add_col(j, k, -(b // a))
                else:
                    g, x, y = xgcd(a, b)
                    w.col_block(k, j, x, y, -(b // g), a // g)
            if not np.any(D[k + 1:, k]) and not np.any(D[k, k + 1:]):
                return

    for k in range(min(rows, cols)):
        sub = D[k:, k:]
        nz = np.argwhere(sub != 0)
        if nz.size == 0:
            break
        best, best_g = None, m + 1
        for (di, dj) in nz:
            g = gcd(int(sub[di, dj]), m)
            if g < best_g:
                best_g, best = g, (int(di) + k, int(dj) + k)
                if g == 1:
                    break
        w.swap_rows(k, best[0])
        w.swap_cols(k, best[1])
        clear_pivot(k)
        # divisibility: gcd(D[k,k], m) must divide all remaining entries
        while True:
            gk = gcd(int(D[k, k]), m)
            rest = D[k + 1:, k + 1:]
            if not rest.size:
                break
            bad = np.argwhere(rest % gk != 0)
            if bad.size == 0:
                break
            i = int(bad[0][0]) + k + 1
            w.add_row(k, i, 1)
            clear_pivot(k)

    return SmithForm(d=D, u=w.U, v=w.V, uinv=w.Uinv, m=m)


def _solve(sf: SmithForm, B: np.ndarray) -> Optional[np.ndarray]:
    """Solutions X of A X = B mod m from A's Smith form, or None.

    B is (rows, k) and reduced mod m; the result is (cols, k), one solution
    per column, and None as soon as one column has no solution.
    """
    m = sf.m
    rows, cols = sf.d.shape
    C = (sf.u @ B) % m
    Y = np.zeros((cols, B.shape[1]), dtype=np.int64)
    k = min(rows, cols)
    for i in range(rows):
        di = int(sf.d[i, i]) if i < k else 0
        g = gcd(di, m)
        if np.any(C[i] % g):
            return None
        if i < k and di % m != 0:
            Y[i] = (C[i] // g * inv_mod(di // g, m // g)) % (m // g)
    return (sf.v @ Y) % m


def _kernel(sf: SmithForm) -> np.ndarray:
    """Generators (columns) of the kernel of A mod m from A's Smith form."""
    m = sf.m
    rows, cols = sf.d.shape
    k = min(rows, cols)
    gens = []
    for j in range(cols):
        dj = int(sf.d[j, j]) if j < k else 0
        mult = m // gcd(dj, m)
        if mult % m != 0:
            gens.append((sf.v[:, j] * mult) % m)
    if not gens:
        return np.zeros((cols, 0), dtype=np.int64)
    return np.stack(gens, axis=1)


def solve_mod(A: np.ndarray, b: np.ndarray, m: int) -> Optional[np.ndarray]:
    """One solution x of A x = b mod m, or None if the system is unsolvable.

    b is one right-hand side (rows,) or k of them as columns (rows, k); the
    result has the matching shape (cols,) or (cols, k), and is None if any
    column is unsolvable.  A is factored once for all columns.
    """
    A = np.asarray(A, dtype=np.int64) % m
    b = np.asarray(b, dtype=np.int64) % m
    if b.ndim not in (1, 2) or b.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, b is {b.shape}")
    X = _solve(smith_form(A, m), b if b.ndim == 2 else b[:, None])
    if X is None:
        return None
    return X if b.ndim == 2 else X[:, 0]


def kernel_mod(A: np.ndarray, m: int) -> np.ndarray:
    """Generators (columns) of {x : A x = 0 mod m} as a subgroup of (Z/m)^cols."""
    A = np.asarray(A, dtype=np.int64) % m
    rows, cols = A.shape
    if rows == 0 or m == 1:
        return np.eye(cols, dtype=np.int64)
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    return _kernel(smith_form(A, m))


def module_quotient(
    gens: np.ndarray, rels: np.ndarray, m: int
) -> tuple[list[int], np.ndarray]:
    """Invariant factors and representatives of span(gens)/span(rels) in (Z/m)^n.

    gens is n x t, rels is n x s with every relation column lying in the span
    of gens mod m.  Returns (factors, reps): the nontrivial invariant factors
    in ascending divisibility order and matching representative columns.
    gens is factored once: its Smith form gives both the coordinates of the
    relations and the syzygies among the generators.
    """
    n, t = gens.shape
    if t == 0:
        return [], np.zeros((n, 0), dtype=np.int64)
    sf = smith_form(gens, m)
    coords = _solve(sf, np.asarray(rels, dtype=np.int64) % m)
    if coords is None:
        raise ValueError("relation outside the span of the generators")
    R = np.concatenate([coords, _kernel(sf)], axis=1)
    if R.shape[1] == 0:
        R = np.zeros((t, 1), dtype=np.int64)
    sf = smith_form(R, m)
    k = min(R.shape)
    new_gens = (gens @ sf.uinv) % m
    factors, reps = [], []
    for i in range(t):
        di = int(sf.d[i, i]) if i < k else 0
        f = gcd(di, m)
        if f > 1:
            factors.append(f)
            reps.append(new_gens[:, i])
    reps_arr = np.stack(reps, axis=1) if reps else np.zeros((n, 0), dtype=np.int64)
    return factors, reps_arr


def cohomology_of(
    d_k: np.ndarray, d_prev: Optional[np.ndarray], m: int
) -> tuple[list[int], np.ndarray]:
    """Invariant factors and representatives of ker(d_k) / im(d_prev) over Z/m.

    d_prev is None at degree 0, where the image is zero.  Representatives
    are columns in the source coordinates of d_k.
    """
    if d_prev is None:
        d_prev = np.zeros((d_k.shape[1], 0), dtype=np.int64)
    return module_quotient(kernel_mod(d_k, m), d_prev, m)
