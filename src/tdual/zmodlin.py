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
    uinv is the mod-m inverse of U.  u holds U @ B mod m for the rows x k
    block B that smith_form carried; u, uinv and v are None when smith_form
    was told not to track them.
    """

    d: np.ndarray
    u: Optional[np.ndarray]
    v: Optional[np.ndarray]
    uinv: Optional[np.ndarray]
    m: int

    @property
    def diag(self) -> list[int]:
        k = min(self.d.shape)
        return [int(self.d[i, i]) for i in range(k)]


class _Side:
    """Row operations on D with the transform T they build and its inverse.

    Column operations are the row operations of the transposes: the column
    side holds the view D.T and a C-contiguous V.T, with no inverse.  Only
    the trailing block D[k:, k:] is updated at step k: rows and columns
    before k hold just their pivot, and every operation of step k leaves
    them unchanged.
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
        # rows dst += q * row src, as one rank-1 update; q lies in (-m, m).
        # Columns past the last nonzero of row src are left as they are:
        # D is reduced mod m already, so the update would rewrite them
        # unchanged.  After a row clear, the column side's source is zero
        # past column k, and only column k is written.
        m, D, T, Tinv = self.m, self.D, self.T, self.Tinv
        q = np.asarray(q, dtype=np.int64)
        nz = D[src, k:].nonzero()[0]
        if nz.size:
            end = k + int(nz[-1]) + 1
            D[dst, k:end] = (D[dst, k:end] + q[:, None] * D[src, k:end]) % m
        if T is not None:
            T[dst] = (T[dst] + q[:, None] * T[src]) % m
        if Tinv is not None:
            # sums len(dst) < rows products below (m-1)^2, which the
            # loader's bound (m-1)^2 * cap < 2^63 keeps inside int64
            Tinv[:, src] = (Tinv[:, src] - Tinv[:, dst] @ q) % m

    def block(self, k, i, x, y, c, d):
        # [row_k; row_i] <- [[x, y], [c, d]] @ [row_k; row_i], det == 1
        m, D, T, Tinv = self.m, self.D, self.T, self.Tinv
        B = np.array([[x, y], [c, d]], dtype=np.int64)
        D[[k, i], k:] = (B @ D[[k, i], k:]) % m
        if T is not None:
            T[[k, i]] = (B @ T[[k, i]]) % m
        if Tinv is not None:
            Binv = np.array([[d, -y], [-c, x]], dtype=np.int64)
            Tinv[:, [k, i]] = (Tinv[:, [k, i]] @ Binv) % m

    def clear(self, k):
        """Clear D[k+1:, k] against the pivot D[k, k], in row order.

        Each maximal run of entries the pivot divides is one rank-1 update;
        an entry it does not divide takes an xgcd 2x2 block, after which
        the scan resumes with the new pivot.
        """
        D = self.D
        rows = D[k + 1:, k].nonzero()[0] + (k + 1)
        b = D[rows, k]
        pos = 0
        while pos < rows.size:
            a = int(D[k, k])   # nonzero: the pivot, or the gcd a block left
            bad = (b[pos:] % a).nonzero()[0] if a > 1 else ()
            end = pos + int(bad[0]) if len(bad) else rows.size
            if end > pos:
                self.add(k, rows[pos:end], k, -(b[pos:end] // a))
            if end < rows.size:
                bb = int(b[end])
                g, x, y = xgcd(a, bb)
                self.block(k, int(rows[end]), x, y, -(bb // g), a // g)
            pos = end + 1


def _pivot(S: np.ndarray, m: int) -> Optional[tuple[int, int]]:
    """Position of the first entry of S, in row-major order, of least gcd with m.

    None if S is zero.  A zero has gcd m, more than any nonzero entry below
    m has, so one gcd over a window finds its least nonzero entry.  Windows
    of leading rows, doubling in height, are searched first: a unit found
    in one is the answer, as no later row comes before it.
    """
    rows, cols = S.shape
    h = 1
    while True:
        g = np.gcd(S[:h], m)
        best = int(g.argmin())
        least = g.flat[best]
        if least == m:                 # the window is zero
            if h >= rows:
                return None
        elif least == 1 or h >= rows:
            return divmod(best, cols)
        h *= 2


def smith_form(A: np.ndarray, m: int, *, u: Optional[np.ndarray] = None,
               uinv: bool = True, v: bool = True) -> SmithForm:
    """Smith normal form of A over Z/m with the transforms asked for.

    u is a rows x k block B or None: the row operations act on B, so the
    form's u is U @ B mod m, bit for bit, and no rows x rows U is built
    (B = identity gives U itself).  Pivots and operations do not depend on
    which transforms are tracked.
    """
    D = np.asarray(A, dtype=np.int64) % m
    rows, cols = D.shape
    U = None if u is None else np.array(u, dtype=np.int64) % m
    Uinv = np.eye(rows, dtype=np.int64) if uinv else None
    Vt = np.eye(cols, dtype=np.int64) if v else None
    row = _Side(D, U, Uinv, m)
    col = _Side(D.T, Vt, None, m)

    def clear_pivot(k: int) -> None:
        # make D[k,k] the only nonzero entry in its row and column; col.clear
        # leaves row k clear, but a column block may refill column k
        while True:
            row.clear(k)
            col.clear(k)
            if not D[k + 1:, k].any():
                return

    for k in range(min(rows, cols)):
        best = _pivot(D[k:, k:], m)
        if best is None:
            break
        row.swap(k, best[0] + k)
        col.swap(k, best[1] + k)
        clear_pivot(k)
        # divisibility: gcd(D[k,k], m) must divide all remaining entries
        while True:
            gk = gcd(int(D[k, k]), m)
            if gk == 1:
                break
            bad = np.flatnonzero((D[k + 1:, k + 1:] % gk).any(axis=1))
            if not bad.size:
                break
            row.add(k, [k], int(bad[0]) + k + 1, [1])
            clear_pivot(k)

    return SmithForm(d=D, u=U, v=None if Vt is None else Vt.T, uinv=Uinv, m=m)


def _diagonal(d: np.ndarray, n: int) -> np.ndarray:
    """The diagonal of d, padded with zeros to length n."""
    diag = np.diagonal(d)
    return np.concatenate([diag, np.zeros(n - diag.size, dtype=np.int64)])


def _solve(sf: SmithForm) -> tuple[np.ndarray, np.ndarray]:
    """Solutions X of A X = B mod m from the Smith form that carried B.

    sf.u holds C = U @ B, B being (rows, k).  Returns (X, ok): X is
    (cols, k), and ok[j] says whether column j of B is solvable, in which
    case X[:, j] solves it.  Each column is solved on its own.
    """
    m, C = sf.m, sf.u
    rows, cols = sf.d.shape
    d = _diagonal(sf.d, rows)
    g = np.gcd(d, m)
    ok = ~np.any(C % g[:, None], axis=0)
    piv = np.flatnonzero(d[:cols])   # entries of d are reduced mod m
    gp, mg = g[piv], m // g[piv]
    inv = [inv_mod(int(x), int(y)) for x, y in zip(d[piv] // gp, mg)]
    Y = np.zeros((cols, C.shape[1]), dtype=np.int64)
    Y[piv] = (C[piv] // gp[:, None] * np.array(inv, dtype=np.int64)[:, None]) % mg[:, None]
    return (sf.v @ Y) % m, ok


def _kernel(sf: SmithForm) -> np.ndarray:
    """Generators (columns) of the kernel of A mod m from A's Smith form."""
    m = sf.m
    mult = m // np.gcd(_diagonal(sf.d, sf.d.shape[1]), m)
    keep = np.flatnonzero(mult % m)
    return (sf.v[:, keep] * mult[keep]) % m


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
    X, ok = _solve(smith_form(A, m, u=b if b.ndim == 2 else b[:, None], uinv=False))
    if not ok.all():
        return None
    return X if b.ndim == 2 else X[:, 0]


def solve_columns(A: np.ndarray, B: np.ndarray, m: int) -> list[Optional[np.ndarray]]:
    """A solution x_j of A x_j = B[:, j] mod m for each column j, or None for it.

    A is factored once.  The row operations act on each column alone, so
    each x_j is bit for bit solve_mod(A, B[:, j], m), and an unsolvable
    column leaves the others' solutions as they are.
    """
    A = np.asarray(A, dtype=np.int64) % m
    B = np.asarray(B, dtype=np.int64) % m
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, B is {B.shape}")
    X, ok = _solve(smith_form(A, m, u=B, uinv=False))
    return [X[:, j] if ok[j] else None for j in range(B.shape[1])]


def kernel_mod(A: np.ndarray, m: int) -> np.ndarray:
    """Generators (columns) of {x : A x = 0 mod m} as a subgroup of (Z/m)^cols."""
    A = np.asarray(A, dtype=np.int64) % m
    rows, cols = A.shape
    if rows == 0 or m == 1:
        return np.eye(cols, dtype=np.int64)
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    return _kernel(smith_form(A, m, uinv=False))


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
    sf = smith_form(gens, m, u=rels, uinv=False)
    coords, ok = _solve(sf)
    if not ok.all():
        raise ValueError("relation outside the span of the generators")
    R = np.concatenate([coords, _kernel(sf)], axis=1)
    if R.shape[1] == 0:
        R = np.zeros((t, 1), dtype=np.int64)
    sf = smith_form(R, m, v=False)
    f = np.gcd(_diagonal(sf.d, t), m)
    keep = np.flatnonzero(f > 1)
    return [int(x) for x in f[keep]], (gens @ sf.uinv[:, keep]) % m


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
