"""The finite crossed product G x C(G/N, M_d) and its Fourier-transform dual.

Elements are matrix-valued functions on G x G/N with the convolution

    (f1 x f2)(g, z) = int_G f1(h, z) . [mu(h,z)^-1 f2(g-h, z+hN) mu(h,z)] dh

and involution f*(g, z) = mu(g,z)^-1 f(-g, z+gN)^* mu(g,z).  Haar weights:
G/N carries total mass 1, N counting measure, G the product weight; dual
weights follow from Fourier inversion.  The transform T conjugates the
mu-twisted Fourier kernel by the extension Lambda of the regular
representation and lands in matrix functions on the dual quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidTripleError, check_dim
from .linops import adjoint
from .triples import DualityContext, TripleLocalData

HOLONOMY_TOL = 1e-9   # Gram eigenvalue above which a loop's defect counts
LIFT_TOL = 1e-6       # lift dependence of the transform, relative to max(1, |f|_inf)


@dataclass(frozen=True)
class HaarWeights:
    """Per-point weights for the six groups in play (exact rationals)."""

    w_G: Fraction
    w_quot: Fraction
    w_N: Fraction
    w_dual: Fraction

    @staticmethod
    def for_context(ctx: DualityContext) -> "HaarWeights":
        q = ctx.quotient.order
        n = ctx.N.order
        return HaarWeights(
            w_G=Fraction(1, q),
            w_quot=Fraction(1, q),
            w_N=Fraction(1),
            w_dual=Fraction(1, n),
        )


class CrossedContext:
    """Index tables for one (G, N, d) crossed-product instance, built once.

    Group elements, characters (the dual being identified coordinate-wise),
    cosets and dual-quotient points are positions in the DualityContext
    tables: those of G.elements(), quotient.reps() and dual_quotient.reps().

      add[g, h], neg[g], sub[g, h]  positions of g + h, -g and g - h
      coset[g]                      position of g + N among reps
      shift[g, z]                   position of z + gN (coset addition)
      lift[z]                       position of sigma(z)
      perp                          positions of N-perp, ascending
      phases[chi, g]                exp(2 pi i <chi, g>), from G.pairing_table()
      quot[c, a, z]                 phases at (c - a, sigma(z)), c and a in N-perp
      dft, dft_inv                  Fourier transform L^2(G/N) -> L^2(dual of G/N),
                                    rows over N-perp, and its inverse

    A mu table is an (n, q, d, d) array on the same positions, as a vertex's
    entry of TripleLocalData.mu.
    """

    def __init__(self, ctx: DualityContext, d: int):
        self.ctx = ctx
        self.d = d
        self.weights = HaarWeights.for_context(ctx)
        self.n, self.q = ctx.shift.shape
        self.add = ctx.G.add_table()
        self.neg, self.sub, self.coset = ctx.neg, ctx.sub, ctx.coset
        self.shift, self.lift, self.phases = ctx.shift, ctx.lift, ctx.phases
        self.perp = ctx.Nperp.positions
        self.quot = self.phases[self.sub[np.ix_(self.perp, self.perp)][..., None], self.lift]
        F = self.phases[np.ix_(self.perp, self.lift)]
        self.dft, self.dft_inv = float(self.weights.w_quot) * F, adjoint(F)
        for shared in (self.quot, self.dft, self.dft_inv):   # read by every call
            shared.setflags(write=False)

    def lam(self, chi) -> np.ndarray:
        """Lambda(chi) = DFT . <chi, -sigma(_)> . DFT^-1, unitary on L^2(G/N^).

        chi is a character position, or an array of them (a stack of Lambdas).
        """
        diag = self.phases[chi][..., self.lift].conj()
        return (self.dft * diag[..., None, :]) @ self.dft_inv


def _fibre(L: np.ndarray, d: int) -> np.ndarray:
    """L tensor the identity on C^d, as np.kron forms it, over a stack of L."""
    q = L.shape[-1]
    return (L[..., :, None, :, None] * np.eye(d)[:, None, :]).reshape(
        *L.shape[:-2], q * d, q * d)


class ConvolutionElement:
    """A matrix-valued function on G x G/N, stored as (|G|, q, d, d).

    Leading axes before those four, if any, hold a batch of elements:
    convolve, involute, represent, operator_norm and t_transform act on
    each element of a batch alike (the crossed checks stack their trials).
    """

    def __init__(self, cc: CrossedContext, values: np.ndarray):
        self.cc = cc
        values = np.asarray(values, dtype=complex)
        expected = (cc.n, cc.q, cc.d, cc.d)
        if values.shape[-4:] != expected:
            raise ValueError(f"value table has shape {values.shape}, want {expected}")
        self.values = values

    @staticmethod
    def zero(cc: CrossedContext) -> "ConvolutionElement":
        return ConvolutionElement(cc, np.zeros((cc.n, cc.q, cc.d, cc.d), complex))

    @staticmethod
    def unit(cc: CrossedContext) -> "ConvolutionElement":
        """Point mass at g = 0 with matrix I / w_G: the convolution unit."""
        vals = np.zeros((cc.n, cc.q, cc.d, cc.d), complex)
        vals[0] = (1.0 / float(cc.weights.w_G)) * np.eye(cc.d)     # position 0 is g = 0
        return ConvolutionElement(cc, vals)

    @staticmethod
    def random(cc: CrossedContext, rng: np.random.Generator) -> "ConvolutionElement":
        shape = (cc.n, cc.q, cc.d, cc.d)
        return ConvolutionElement(cc, rng.normal(size=shape) + 1j * rng.normal(size=shape))

    def __add__(self, o: "ConvolutionElement") -> "ConvolutionElement":
        return ConvolutionElement(self.cc, self.values + o.values)

    def __sub__(self, o: "ConvolutionElement") -> "ConvolutionElement":
        return ConvolutionElement(self.cc, self.values - o.values)

    def scaled(self, a: complex) -> "ConvolutionElement":
        return ConvolutionElement(self.cc, a * self.values)

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))


def convolve(f1: ConvolutionElement, f2: ConvolutionElement,
             mu: np.ndarray) -> ConvolutionElement:
    cc = f1.cc
    left = f1.values @ adjoint(mu)                                  # at (h, z)
    # f2(g-h, z+hN) mu(h, z) at (g, h, z)
    right = f2.values[..., cc.sub[:, :, None], cc.shift[None], :, :] @ mu
    prod = left[..., None, :, :, :, :] @ right
    return ConvolutionElement(cc, float(cc.weights.w_G) * prod.sum(axis=-4))


def involute(f: ConvolutionElement, mu: np.ndarray) -> ConvolutionElement:
    cc = f.cc
    back = f.values[..., cc.neg[:, None], cc.shift, :, :]           # f(-g, z+gN)
    return ConvolutionElement(cc, adjoint(mu) @ adjoint(back) @ mu)


def represent(f: ConvolutionElement, mu: np.ndarray) -> np.ndarray:
    """The matrix of f x _ on L^2(G x G/N) tensor C^d, one per element of f's batch.

    (f x F)(g, z) = int_G mu(-g,z)^-1( f(h, z - gN) ) F(g-h, z) dh.
    """
    cc = f.cc
    Um = mu[cc.neg]                                                 # mu(-g, z)
    # block (g, z) -> (p, z) at p = g - h: f(g - p, z - gN) conjugated by Um
    F = f.values[..., cc.sub[:, :, None], cc.shift[cc.neg][:, None, :], :, :]
    blocks = adjoint(Um)[:, None] @ F @ Um[:, None]                 # at (g, p, z)
    out = float(cc.weights.w_G) * np.einsum("...gpzij,zy->...gzipyj", blocks,
                                            np.eye(cc.q))
    dim = cc.n * cc.q * cc.d
    return out.reshape(*f.values.shape[:-4], dim, dim)


def operator_norm(f: ConvolutionElement, mu: np.ndarray) -> float | np.ndarray:
    """The operator norm of f, a float, or an array of them over f's batch."""
    return np.linalg.norm(represent(f, mu), 2, axis=(-2, -1))


def _mu_twisted(f: ConvolutionElement, mu: np.ndarray) -> np.ndarray:
    """The table fm(g, z) = f(g, z) mu(g, z)^-1 that the transform integrates."""
    return f.values @ adjoint(mu)


def conjugated_kernel(cc: CrossedContext, fm: np.ndarray, chi) -> np.ndarray:
    """(Lambda(chi) x 1) K(chi) (Lambda(chi)^-1 x 1) at a character position chi.

    K(chi)[a, c] = int fm(g, z) <chi + c, g> <c - a, z> d(g, z), with a, c
    running over N-perp and fm = _mu_twisted(f, mu).  Axes of fm before the
    last four are a batch: each element goes through the same matrix
    products as it would alone.  chi may also be an array of positions whose
    shape broadcasts against that batch.
    """
    q, d = cc.q, cc.d
    batch = np.broadcast_shapes(np.shape(chi), fm.shape[:-4])
    w = float(cc.weights.w_G * cc.weights.w_quot)
    char = w * cc.phases[cc.add[np.asarray(chi)[..., None], cc.perp]]       # (c, g)
    # each step rebinds K, so at most two kernel-sized arrays are alive at once
    K = cc.quot @ (char @ fm.reshape(*fm.shape[:-4], cc.n, q * d * d)).reshape(
        *batch, q, q, d * d)
    K = np.moveaxis(K.reshape(*batch, q, q, d, d), -4, -2).reshape(    # (a, i, c, j)
        *batch, q * d, q * d)
    L = _fibre(cc.lam(chi), d)
    K = L @ K
    return K @ adjoint(L)


def t_periodicity_residual(f: ConvolutionElement, mu: np.ndarray) -> float:
    """Largest change of the conjugated kernel when a lift chi of z^ moves to
    chi + beta, over every z^ and every nonzero beta in N-perp.

    Every character is one such chi + beta, so this is one kernel per
    character, each against the kernel at its coset's canonical lift.
    """
    cc = f.cc
    ctx = cc.ctx
    K = conjugated_kernel(cc, _mu_twisted(f, mu), np.arange(cc.n))
    return float(np.max(np.abs(K - K[ctx.lift_hat[ctx.coset_hat]])))


def _check_lift(f: ConvolutionElement, mu: np.ndarray) -> None:
    """Raise if the transform of f depends on the character lift.

    The defect is linear in f and reads mu only through f mu^-1, so one
    random element detects a fault in the kernel almost surely."""
    if t_periodicity_residual(f, mu) > LIFT_TOL * max(1.0, f.norm_inf()):
        raise InvalidTripleError("transform output depends on the character lift")


def t_transform(f: ConvolutionElement, mu: np.ndarray) -> np.ndarray:
    """The dual section as one (..., q^, q d, q d) array on the positions of
    dual_quotient.reps(), leading axes being f's batch.

    T(z^) = (Lambda(chi) x 1) K(chi) (Lambda(chi)^-1 x 1) at the canonical
    lift chi of z^.  It does not depend on the lift, for any mu table
    (t_periodicity_residual measures it; mu_is_cocycle validates mu itself).
    The stack is filled one z^ at a time.
    """
    cc = f.cc
    fm = _mu_twisted(f, mu)
    lifts = cc.ctx.lift_hat
    out = np.empty((*fm.shape[:-4], len(lifts), cc.q * cc.d, cc.q * cc.d), complex)
    for izh, chi in enumerate(lifts):
        out[..., izh, :, :] = conjugated_kernel(cc, fm, chi)
    return out


def t_linearized(cc: CrossedContext, mu: np.ndarray) -> np.ndarray:
    """The transform as one big matrix on flattened coordinates (for rank checks).

    Column (g, z, i, j) is the image of the unit element at that point.  The
    unit elements at one g are zero off g, so each g-block of q d^2 columns
    is one transform of a batch of q d^2 elements.
    """
    block = cc.q * cc.d * cc.d
    n_src, n_dst = cc.n * block, len(cc.ctx.lift_hat) * (cc.q * cc.d) ** 2
    check_dim(max(n_src, n_dst))
    A = np.empty((n_dst, n_src), complex)
    units = np.eye(block, dtype=complex).reshape(block, cc.q, cc.d, cc.d)
    for g in range(cc.n):
        vals = np.zeros((block, cc.n, cc.q, cc.d, cc.d), complex)
        vals[:, g] = units
        T = t_transform(ConvolutionElement(cc, vals), mu)
        A[:, g * block:(g + 1) * block] = T.reshape(block, n_dst).T
    return A


def fourier_roundtrip_residual(ctx: DualityContext, seed: int = 0) -> float:
    """Gate test for the weights: inversion on G and on G/N must be exact."""
    rng = np.random.default_rng(seed)
    w = HaarWeights.for_context(ctx)
    cc = CrossedContext(ctx, 1)
    # on G against the full dual
    f = rng.normal(size=ctx.G.order) + 1j * rng.normal(size=ctx.G.order)
    fhat = float(w.w_G) * (cc.phases @ f)
    back = float(w.w_dual) * (adjoint(cc.phases) @ fhat)
    res = float(np.max(np.abs(back - f)))
    # Weil: sum over G = quotient-sum of N-sums
    total = float(w.w_G) * f.sum()
    n_pos = cc.ctx.N.positions
    weil = float(w.w_quot) * float(w.w_N) * f[cc.add[np.ix_(cc.lift, n_pos)]].sum()
    res = max(res, abs(total - weil))
    # on G/N against N-perp
    F = cc.dft
    Fi = cc.dft_inv
    res = max(res, float(np.max(np.abs(Fi @ F - np.eye(cc.q)))))
    L = cc.lam(1 % cc.n)
    res = max(res, float(np.max(np.abs(adjoint(L) @ L - np.eye(cc.q)))))
    return res


def mu_is_cocycle(cc: CrossedContext, mu: np.ndarray) -> float:
    """Residual of the exact cocycle law mu(g+h, z) = mu(g, z+hN) mu(h, z)."""
    lhs = mu[cc.add[:, :, None], np.arange(cc.q)]                   # at (g, h, z)
    rhs = mu[:, cc.shift] @ mu
    return float(np.max(np.abs(lhs - rhs)))


def trivial_mu(cc: CrossedContext) -> np.ndarray:
    return np.tile(np.eye(cc.d, dtype=complex), (cc.n, cc.q, 1, 1))


def verify_point_theorem(ctx: DualityContext, d: int, mu: np.ndarray,
                         trials: int = 4, seed: int = 0) -> dict:
    """Residuals for the crossed-product isomorphism over a single chart.

    Checks, on random elements: T is multiplicative, *-preserving and
    norm-preserving; T intertwines the dual action with conjugation by
    Lambda; T is injective (full rank on a spanning set); zero maps to 0.
    Every trial's elements are drawn first (f1, f2, then k, trial by trial)
    and all trials go through each transform as one batch.
    """
    cc = CrossedContext(ctx, d)
    rng = np.random.default_rng(seed)
    rep = {"mu_cocycle": mu_is_cocycle(cc, mu)}
    draws = [(ConvolutionElement.random(cc, rng).values,
              ConvolutionElement.random(cc, rng).values,
              int(rng.integers(0, ctx.Gd.order))) for _ in range(trials)]
    v1, v2, ks = (np.stack(slot) for slot in zip(*draws))
    f1, f2 = ConvolutionElement(cc, v1), ConvolutionElement(cc, v2)
    _check_lift(ConvolutionElement(cc, v1[0]), mu)
    T1 = t_transform(f1, mu)
    T12 = t_transform(convolve(f1, f2, mu), mu)
    rep["homomorphism"] = float(np.max(np.abs(T12 - T1 @ t_transform(f2, mu))))
    Tstar = t_transform(involute(f1, mu), mu)
    rep["star_compatibility"] = float(np.max(np.abs(Tstar - adjoint(T1))))
    lhs = operator_norm(f1, mu)
    rhs = np.max(np.linalg.norm(T1, 2, axis=(-2, -1)), axis=-1)
    rep["norm_preservation"] = float(np.max(np.abs(lhs - rhs)))
    # equivariance under the dual action: T(chi f)(z^) = L^-1 T(f)(z^ + chi) L
    fchi = ConvolutionElement(cc, v1 * cc.phases[ks][:, :, None, None, None])
    Tchi = t_transform(fchi, mu)
    L = _fibre(cc.lam(ks), d)[:, None]
    want = adjoint(L) @ T1[np.arange(trials)[:, None], ctx.shift_hat[ks]] @ L
    rep["equivariance"] = float(np.max(np.abs(Tchi - want)))
    # injectivity: numerical rank of the linearised transform
    A = t_linearized(cc, mu)
    src = cc.n * cc.q * cc.d * cc.d
    sv = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    rep["injective_rank_deficit"] = float(src - rank)
    # zero element maps to zero
    rep["zero_to_zero"] = float(np.max(np.abs(t_transform(ConvolutionElement.zero(cc), mu))))
    return rep


def _transport(cc: CrossedContext, t: TripleLocalData, e: tuple, f: np.ndarray,
               forward: bool = True) -> np.ndarray:
    """f_a -> f_b along e = (a, b), f_b(g, z) = zeta_ab(z)^-1 f_a(g, g_ab + z) zeta_ab(z),
    or back from f_b to f_a.  The coset axis of f is its third from last, so
    f may be a value table, a batch of them or a stack of fibre tables."""
    Z = t.zeta[e]
    s = cc.ctx.quotient.add_table()[t.g.labels[e]]                 # g_ab + z
    if forward:
        return adjoint(Z) @ f[..., s, :, :] @ Z
    return (Z @ f @ adjoint(Z))[..., np.argsort(s), :, :]


def section_family(t: TripleLocalData, cc: CrossedContext, f0: np.ndarray) -> dict:
    """The compatible family {f_i}, f_b(g,z) = zeta_ab(z)^-1(f_a(g, g_ab+z)), from
    root values f0: a value table at vertex 0, or a batch of them.

    The root value is spread through a spanning tree.  An edge off the tree
    closes a loop and holds only when the root value is fixed by the loop's
    monodromy, so the root value is first projected onto the null space of
    the defect map f_0 -> (f_b - T_ab f_a) over those edges.  The monodromy
    acts on G/N and the fibre with g a spectator, so the map is built once,
    on one (q, d, d) slice, for the whole batch.  Without holonomy it is zero
    (all eigenvalues of its Gram matrix under HOLONOMY_TOL) and f0 is kept
    as is.
    """
    nerve = t.nerve
    root = nerve.vertices[0][0]
    tree = []                      # (edge, known vertex, new vertex), in discovery order
    seen, todo = {root}, [root]
    while todo:
        v = todo.pop()
        for e in nerve.edges:
            a, b = e
            other = b if a == v else (a if b == v else None)
            if other is None or other in seen:
                continue
            tree.append((e, v, other))
            seen.add(other)
            todo.append(other)
    in_tree = {e for e, _, _ in tree}
    loops = [e for e in nerve.edges if e not in in_tree]

    def spread(f0: np.ndarray) -> dict:
        fam = {root: f0}
        for e, v, other in tree:
            fam[other] = _transport(cc, t, e, fam[v], forward=(v == e[0]))
        return fam

    if loops:
        dim = cc.q * cc.d * cc.d
        basis = spread(np.eye(dim, dtype=complex).reshape(dim, cc.q, cc.d, cc.d))
        gram = np.zeros((dim, dim), complex)
        for e in loops:
            D = (_transport(cc, t, e, basis[e[0]]) - basis[e[1]]).reshape(dim, dim)
            gram += D.conj() @ D.T
        vals, vecs = np.linalg.eigh(gram)
        R = vecs[:, vals > HOLONOMY_TOL]            # spans the defect's row space
        flat = f0.reshape(*f0.shape[:-3], dim)
        f0 = (flat - (flat @ R.conj()) @ R.T).reshape(f0.shape)
    return {v: ConvolutionElement(cc, f) for v, f in spread(f0).items()}


def verify_gluing(t: TripleLocalData, t_hat: TripleLocalData,
                  trials: int = 10, seed: int = 0) -> dict:
    """Chart-wise transforms of a global section glue through the dual data.

    For every edge:  T_b f_b(z^) = W^-1 T_a f_a(g^_ab + z^) W  with
    W = (DFT x 1) zeta^_ab(z^) (DFT^-1 x 1).  One random root value is
    drawn per trial, and all trials' families go through as one batch.
    """
    ctx = t.ctx
    cc = CrossedContext(ctx, t.fiber_dim)
    rng = np.random.default_rng(seed)
    kron_dft = np.kron(cc.dft, np.eye(cc.d))
    kron_dft_inv = np.kron(cc.dft_inv, np.eye(cc.d))
    fam = section_family(t, cc, np.stack(
        [ConvolutionElement.random(cc, rng).values for _ in range(trials)]))
    # family relation on every edge (also the non-tree ones)
    res_family = 0.0
    for e in t.nerve.edges:
        want = _transport(cc, t, e, fam[e[0]].values)
        res_family = max(res_family, float(np.max(np.abs(fam[e[1]].values - want))))
    for i in fam:
        _check_lift(ConvolutionElement(cc, fam[i].values[0]), t.mu[i])
    T = {i: t_transform(fam[i], t.mu[i]) for i in fam}
    res_glue = 0.0
    for (a, b) in t.nerve.edges:
        # W stacked over z^, and the positions of g^_ab + z^
        W = kron_dft @ t_hat.zeta[(a, b)] @ kron_dft_inv
        moved = ctx.dual_quotient.add_table()[t_hat.g.labels[(a, b)]]
        want = adjoint(W) @ T[a][:, moved] @ W
        res_glue = max(res_glue, float(np.max(np.abs(T[b] - want))))
    return {"section_family": res_family, "section_transition": res_glue,
            "edges": len(t.nerve.edges)}
