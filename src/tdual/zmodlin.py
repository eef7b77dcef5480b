"""Exact linear algebra over Z/m: Smith form, solving, kernels, quotients.

Matrices are 2-d numpy int64 arrays with entries reduced mod m.  All
transformations are integer-elementary, hence invertible mod m, so every
result is exact.  m may be any modulus >= 1 (not necessarily prime).
Complex is the one place a cochain complex's differentials become its
cohomology and coboundary solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Optional

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


_SWAP, _ADD, _BLOCK = 0, 1, 2


@dataclass
class SmithForm:
    """U @ A @ V = D mod m, with U, V invertible mod m and D diagonal.

    Of D only its diagonal d is kept, reduced mod m, along the chain
    gcd(d[0], m) | gcd(d[1], m) | ...  Of U only steps, dst and mult are
    kept, smith_form's row operations in order, which carry replays on a
    block and uncarry undoes.  Each row of steps is one operation:
    (_SWAP, i, j), (_ADD, src, a, b) for rows dst[a:b] += mult[a:b] * row
    src, or (_BLOCK, k, i, x, y, c, d) for [row k; row i] <- [[x, y],
    [c, d]] @ [row k; row i].  v is None when smith_form was told not to
    track it.
    """

    shape: tuple[int, int]
    d: np.ndarray       # (min(shape),) int64
    v: Optional[np.ndarray]
    m: int
    steps: np.ndarray   # (operations, 7) int64, unused slots 0
    dst: np.ndarray
    mult: np.ndarray

    def carry(self, B: np.ndarray) -> np.ndarray:
        """U @ B mod m for a rows x k block B, bit for bit."""
        return self._replay(B, inverse=False)

    def uncarry(self, B: np.ndarray) -> np.ndarray:
        """U^-1 @ B mod m: each row operation undone, last first."""
        return self._replay(B, inverse=True)

    def _replay(self, B: np.ndarray, inverse: bool) -> np.ndarray:
        m, dst = self.m, self.dst
        C = np.asarray(B, dtype=np.int64) % m
        if C.ndim != 2 or C.shape[0] != self.shape[0]:
            raise ValueError(f"shape mismatch: A is {self.shape}, B is {C.shape}")
        # a swap is its own inverse, an add's subtracts (src is never among
        # its dst), and a block's is the adjugate, as its determinant is 1
        steps, mult = (self.steps[::-1], -self.mult) if inverse else (self.steps, self.mult)
        # an _ADD step reads (src, a, b) from the slots named i, j, x
        for kind, i, j, x, y, c, d in steps.tolist():
            if kind == _SWAP:
                row = C[i].copy()
                C[i] = C[j]
                C[j] = row
            elif kind == _ADD:
                rows = dst[j:x]
                C[rows] = (C[rows] + mult[j:x, None] * C[i]) % m
            else:
                pair = [[d, -y], [-c, x]] if inverse else [[x, y], [c, d]]
                C[[i, j]] = (np.array(pair, dtype=np.int64) @ C[[i, j]]) % m
        return C

    def solve(self, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solutions X of A X = B mod m, B being (rows, k).

        Returns (X, ok): X is (cols, k), and ok[j] says whether column j of
        B is solvable, in which case X[:, j] solves it.  Each column is
        solved on its own.  Needs v.
        """
        m, C, d = self.m, self.carry(B), self.d
        g = np.gcd(np.pad(d, (0, self.shape[0] - d.size)), m)
        ok = ~np.any(C % g[:, None], axis=0)
        piv = np.flatnonzero(d)   # entries of d are reduced mod m
        gp, mg = g[piv], m // g[piv]
        inv = [inv_mod(int(x), int(y)) for x, y in zip(d[piv] // gp, mg)]
        Y = np.zeros((self.shape[1], C.shape[1]), dtype=np.int64)
        Y[piv] = (C[piv] // gp[:, None] * np.array(inv, dtype=np.int64)[:, None]) % mg[:, None]
        return (self.v @ Y) % m, ok

    def kernel(self) -> np.ndarray:
        """Generators (columns) of the kernel of A mod m.  Needs v."""
        m, cols = self.m, self.shape[1]
        if m == 1:
            return np.eye(cols, dtype=np.int64)
        mult = m // np.gcd(np.pad(self.d, (0, cols - self.d.size)), m)
        keep = np.flatnonzero(mult % m)
        return (self.v[:, keep] * mult[keep]) % m


class _RowLog:
    """The row operations of one factorisation, in the layout of SmithForm."""

    def __init__(self):
        self.steps, self.dst, self.mult, self.size = [], [], [], 0

    def swap(self, i, j):
        self.steps.append((_SWAP, i, j, 0, 0, 0, 0))

    def add(self, dst, src, q):
        a = self.size
        self.size += len(dst)
        self.steps.append((_ADD, src, a, self.size, 0, 0, 0))
        self.dst.append(dst)
        self.mult.append(q)

    def block(self, k, i, x, y, c, d):
        self.steps.append((_BLOCK, k, i, x, y, c, d))

    def pack(self) -> dict:
        def flat(parts):
            return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        return {"steps": np.array(self.steps, dtype=np.int64).reshape(-1, 7),
                "dst": flat(self.dst), "mult": flat(self.mult)}


class _Side:
    """Row operations on D with the transform T they build.

    Column operations are the row operations of the transposes: the column
    side holds the view D.T and a C-contiguous V.T.  The row side builds no
    T: it records its operations in log.  Only the trailing block D[k:, k:]
    is updated at step k: rows and columns before k hold just their pivot,
    and every operation of step k leaves them unchanged.
    """

    def __init__(self, D, T, m, log=None):
        self.D, self.T, self.m, self.log = D, T, m, log

    def swap(self, k, j):
        if k == j:
            return
        # row copies; columns of D before k are zero in both rows
        for M in (self.D[:, k:], self.T):
            if M is not None:
                row = M[k].copy()
                M[k] = M[j]
                M[j] = row
        if self.log is not None:
            self.log.swap(k, j)

    def extent(self, k, src):
        """One past the last nonzero column of D[src, k:], or k if none."""
        nz = self.D[src, k:].nonzero()[0]
        return k + int(nz[-1]) + 1 if nz.size else k

    def add(self, k, dst, src, q, end):
        # rows dst += q * row src, as one rank-1 update; q lies in (-m, m).
        # end is extent(k, src): columns past it are left as they are, as D
        # is reduced mod m already and the update would rewrite them
        # unchanged.  After a row clear, the column side's source is zero
        # past column k, and only column k is written.
        m, D, T = self.m, self.D, self.T
        q = np.asarray(q, dtype=np.int64)
        if end > k:
            D[dst, k:end] = (D[dst, k:end] + q[:, None] * D[src, k:end]) % m
        if T is not None:
            T[dst] = (T[dst] + q[:, None] * T[src]) % m
        if self.log is not None:
            self.log.add(np.asarray(dst, dtype=np.int64), src, q)

    def block(self, k, i, x, y, c, d):
        # [row_k; row_i] <- [[x, y], [c, d]] @ [row_k; row_i], det == 1
        m, D, T = self.m, self.D, self.T
        B = np.array([[x, y], [c, d]], dtype=np.int64)
        D[[k, i], k:] = (B @ D[[k, i], k:]) % m
        if T is not None:
            T[[k, i]] = (B @ T[[k, i]]) % m
        if self.log is not None:
            self.log.block(k, i, x, y, c, d)

    def clear(self, k) -> bool:
        """Clear D[k+1:, k] against the pivot D[k, k], in row order.

        Each maximal run of entries the pivot divides is one rank-1 update;
        an entry it does not divide takes an xgcd 2x2 block, after which
        the scan resumes with the new pivot.  Says whether a block was taken.
        """
        D = self.D
        rows = D[k + 1:, k].nonzero()[0] + (k + 1)
        if not rows.size:
            return False
        b = D[rows, k]
        last = self.extent(k, k)   # row k changes only in a block
        pos, blocked = 0, False
        while pos < rows.size:
            a = int(D[k, k])   # nonzero: the pivot, or the gcd a block left
            bad = (b[pos:] % a).nonzero()[0] if a > 1 else ()
            end = pos + int(bad[0]) if len(bad) else rows.size
            if end > pos:
                self.add(k, rows[pos:end], k, -(b[pos:end] // a), last)
            if end < rows.size:
                bb = int(b[end])
                g, x, y = xgcd(a, bb)
                self.block(k, int(rows[end]), x, y, -(bb // g), a // g)
                last, blocked = self.extent(k, k), True
            pos = end + 1
        return blocked


def _pivot(S: np.ndarray, m: int) -> Optional[tuple[int, int]]:
    """Position of the first entry of S, in row-major order, of least gcd with m.

    None if S is zero.  A zero has gcd m, more than any nonzero entry below
    m has, so one gcd over a block of rows finds its least nonzero entry.
    Blocks of rows, doubling in height, are searched in order, each once: a
    unit found by then is the answer, as no later row comes before it, and
    a later block must hold a smaller gcd to win.
    """
    rows, cols = S.shape
    lo, hi = 0, 1
    least, best = m, None
    while True:
        g = np.gcd(S[lo:hi], m)
        i = int(g.argmin())
        if g.flat[i] < least:
            least, best = g.flat[i], lo * cols + i
        if least == 1 or hi >= rows:
            return None if best is None else divmod(best, cols)
        lo, hi = hi, 2 * hi


def smith_form(A: np.ndarray, m: int, *, v: bool = True) -> SmithForm:
    """Smith normal form of A over Z/m, with V unless v is False.

    The row operations are recorded, not applied to a rows x rows U:
    SmithForm.carry gives U @ B and SmithForm.uncarry U^-1 @ B for any
    block B.  Pivots and operations do not depend on whether V is tracked.
    """
    D = np.asarray(A, dtype=np.int64) % m
    rows, cols = D.shape
    Vt = np.eye(cols, dtype=np.int64) if v else None
    log = _RowLog()
    row = _Side(D, None, m, log)
    col = _Side(D.T, Vt, m)

    def clear_pivot(k: int) -> None:
        # make D[k,k] the only nonzero entry in its row and column; col.clear
        # leaves row k clear, and only a column block can refill column k
        while True:
            row.clear(k)
            if not col.clear(k) or not D[k + 1:, k].any():
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
            src = int(bad[0]) + k + 1
            row.add(k, [k], src, [1], row.extent(k, src))
            clear_pivot(k)

    return SmithForm(shape=(rows, cols), d=np.diagonal(D).copy(),
                     v=None if Vt is None else Vt.T, m=m, **log.pack())


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
    coords, ok = sf.solve(rels)
    if not ok.all():
        raise ValueError("relation outside the span of the generators")
    R = np.concatenate([coords, sf.kernel()], axis=1)
    if R.shape[1] == 0:
        R = np.zeros((t, 1), dtype=np.int64)
    sf = smith_form(R, m, v=False)
    f = np.gcd(np.pad(sf.d, (0, t - sf.d.size)), m)
    keep = np.flatnonzero(f > 1)
    return [int(x) for x in f[keep]], (gens @ sf.uncarry(np.eye(t, dtype=np.int64)[:, keep])) % m


class Complex:
    """One cochain complex over Z/m, with its differentials and their Smith forms.

    d(p) builds the matrix of the differential from degree p to p+1, and
    cochain(p, flat) makes a degree-p cochain of flat coordinates (axes
    after the first are batch axes).  matrix(p) and smith(p) are made on
    first use and kept in memo, as p -> [matrix(p), its Smith form or
    None]: data only, so a memo kept by a twist cocycle holds no reference
    back to it.  smith calls smith_form by name, so patching it reaches
    every complex; factors, cohomology and solve share one form per matrix.
    """

    def __init__(self, m: int, d: Callable[[int], np.ndarray],
                 cochain: Callable[[int, np.ndarray], object], memo: Optional[dict] = None):
        self.m, self._d, self.cochain = m, d, cochain
        self._memo = {} if memo is None else memo

    def matrix(self, p: int) -> np.ndarray:
        """The differential from degree p to p+1, built on first use."""
        if p not in self._memo:
            self._memo[p] = [self._d(p), None]
        return self._memo[p][0]

    def smith(self, p: int) -> SmithForm:
        """Smith form of matrix(p), with V, made on first use."""
        A = self.matrix(p)
        entry = self._memo[p]
        if entry[1] is None:
            entry[1] = smith_form(A, self.m)
        return entry[1]

    def cohomology(self, p: int):
        """Invariant factors and representative cochains of H^p.

        A differential without rows, or any at m = 1, has all of its source
        as kernel, which needs no Smith form.
        """
        if p < 0:
            raise ValueError("degree must be >= 0")
        A = self.matrix(p)
        rows, cols = A.shape
        if cols == 0:
            return [], []
        K = np.eye(cols, dtype=np.int64) if rows == 0 or self.m == 1 else self.smith(p).kernel()
        B = self.matrix(p - 1) if p > 0 else np.zeros((cols, 0), dtype=np.int64)
        factors, reps = module_quotient(K, B, self.m)
        return factors, [self.cochain(p, reps[:, i]) for i in range(reps.shape[1])]

    def factors(self, p: int) -> list[int]:
        """Invariant factors of H^p from the Smith diagonals of matrix(p-1) and matrix(p).

        Precondition (a ValueError names it if Z/m summands run out): the complex
        lifts to Z with d^2 = 0 over Z, as each here does, its terms +-1 on permuted
        indices.  By universal coefficients each column of matrix(p) gives Z/gcd(d_j, m),
        Z/m past the diagonal; each of matrix(p-1)'s gcd(d_j, m) < m turns a Z/m into it.
        """
        def diagonal(q):   # gcd(d_j, m) along matrix(q)'s Smith diagonal, m for a zero
            return [gcd(int(x), m) for x in self.smith(q).d] if self.matrix(q).size else []
        m, cols = self.m, self.matrix(p).shape[1]
        if cols == 0 or m == 1:
            return []
        orders = diagonal(p)
        tops = cols - len(orders) + orders.count(m)   # the Z/m summands
        turned = [x for x in (diagonal(p - 1) if p > 0 else []) if x < m]
        if len(turned) > tops:
            raise ValueError(f"H^{p}: the complex does not lift to Z with d^2 = 0 over Z")
        small = [x for x in orders + turned if 1 < x < m]
        for i, j in combinations(range(len(small)), 2):
            small[i], small[j] = gcd(small[i], small[j]), lcm(small[i], small[j])
        return [x for x in small if x > 1] + [m] * (tops - len(turned))

    def solve(self, p: int, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(X, ok) with matrix(p) X = B in each column ok marks, each column solved alone."""
        return self.smith(p).solve(B)

    def solve_coboundary(self, target):
        """A degree-(p-1) cochain x with d(x) = target, or None.

        x certifies that two cocycles differing by target are cohomologous.
        At p = 0 the only coboundary is zero, witnessed by the empty degree
        -1 cochain.
        """
        p = target.degree
        if p == 0:
            return self.cochain(-1, np.zeros(0, dtype=np.int64)) if target.is_zero() else None
        b = target.flatten()
        X, ok = self.solve(p - 1, b if b.ndim == 2 else b[:, None])
        return self.cochain(p - 1, X if b.ndim == 2 else X[:, 0]) if ok.all() else None
