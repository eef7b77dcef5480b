"""The finite crossed product G x C(G/N, M_d) and its Fourier-transform dual.

Elements are matrix-valued functions on G x G/N with the convolution

    (f1 x f2)(g, z) = int_G f1(h, z) . [mu(h,z)^-1 f2(g-h, z+hN) mu(h,z)] dh

and involution f*(g, z) = mu(g,z)^-1 f(-g, z+gN)^* mu(g,z).  The transform T
conjugates the mu-twisted Fourier kernel by the extension Lambda of the
regular representation and lands in matrix functions on the dual quotient.

An element, like a mu table (a vertex's entry of TripleLocalData.mu), is a
plain complex (n, q, d, d) array on the positions of G.elements() and
quotient.reps(); d is read from its last axis, and leading axes hold a batch
that every operation treats element by element.  Characters and
dual-quotient points are positions in the DualityContext's tables; the Haar
weights, kernel phases, Fourier transform on G/N and Lambda are the
context's haar, quot, dft, dft_inv and lam, built once per context.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidTripleError, check_dim, check_entries
from .linops import adjoint, kron_stack
from .triples import DualityContext, TripleLocalData

HOLONOMY_TOL = 1e-9   # Gram eigenvalue above which a loop's defect counts
LIFT_TOL = 1e-6       # lift dependence of the transform, relative to max(1, |f|_inf)


def _draw(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """A random complex table: real parts drawn first, then imaginary ones."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def convolve(ctx: DualityContext, f1: np.ndarray, f2: np.ndarray,
             mu: np.ndarray) -> np.ndarray:
    left = f1 @ adjoint(mu)                                         # at (h, z)
    # f2(g-h, z+hN) mu(h, z) at (g, h, z)
    right = f2[..., ctx.sub[:, :, None], ctx.shift[None], :, :] @ mu
    prod = left[..., None, :, :, :, :] @ right
    return float(ctx.haar.w_G) * prod.sum(axis=-4)


def involute(ctx: DualityContext, f: np.ndarray, mu: np.ndarray) -> np.ndarray:
    back = f[..., ctx.neg[:, None], ctx.shift, :, :]                # f(-g, z+gN)
    return adjoint(mu) @ adjoint(back) @ mu


def represent(ctx: DualityContext, f: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The matrix of f x _ on L^2(G x G/N) tensor C^d, one per element of f's batch.

    (f x F)(g, z) = int_G mu(-g,z)^-1( f(h, z - gN) ) F(g-h, z) dh.
    """
    n, q = ctx.shift.shape
    Um = mu[ctx.neg]                                                # mu(-g, z)
    # block (g, z) -> (p, z) at p = g - h: f(g - p, z - gN) conjugated by Um
    F = f[..., ctx.sub[:, :, None], ctx.shift[ctx.neg][:, None, :], :, :]
    blocks = adjoint(Um)[:, None] @ F @ Um[:, None]                 # at (g, p, z)
    out = float(ctx.haar.w_G) * np.einsum("...gpzij,zy->...gzipyj", blocks, np.eye(q))
    dim = n * q * f.shape[-1]
    return out.reshape(*f.shape[:-4], dim, dim)


def operator_norm(ctx: DualityContext, f: np.ndarray, mu: np.ndarray) -> float | np.ndarray:
    """The operator norm of f, a float, or an array of them over f's batch."""
    return np.linalg.norm(represent(ctx, f, mu), 2, axis=(-2, -1))


def conjugated_kernel(ctx: DualityContext, fm: np.ndarray, chi) -> np.ndarray:
    """(Lambda(chi) x 1) K(chi) (Lambda(chi)^-1 x 1) at a character position chi.

    K(chi)[a, c] = int fm(g, z) <chi + c, g> <c - a, z> d(g, z), with a, c
    running over N-perp and fm(g, z) = f(g, z) mu(g, z)^-1.  Axes of fm
    before the last four are a batch: each element goes through the same
    matrix products as it would alone.  chi may also be an array of
    positions whose shape broadcasts against that batch.
    """
    n, q = ctx.shift.shape
    d = fm.shape[-1]
    batch = np.broadcast_shapes(np.shape(chi), fm.shape[:-4])
    w = float(ctx.haar.w_G * ctx.haar.w_quot)
    char = w * ctx.phases[ctx.G.add_table()[np.asarray(chi)[..., None], ctx.Nperp.positions]]
    # each step rebinds K, so at most two kernel-sized arrays are alive at once
    K = ctx.quot @ (char @ fm.reshape(*fm.shape[:-4], n, q * d * d)).reshape(
        *batch, q, q, d * d)
    K = np.moveaxis(K.reshape(*batch, q, q, d, d), -4, -2).reshape(    # (a, i, c, j)
        *batch, q * d, q * d)
    L = kron_stack(ctx.lam(chi), np.eye(d))
    K = L @ K
    return K @ adjoint(L)


def t_periodicity_residual(ctx: DualityContext, f: np.ndarray, mu: np.ndarray) -> float:
    """Largest change of the conjugated kernel when a lift chi of z^ moves to
    chi + beta, over every z^ and every nonzero beta in N-perp.

    Every character is one such chi + beta, so this is one kernel per
    character, each against the kernel at its coset's canonical lift.
    """
    K = conjugated_kernel(ctx, f @ adjoint(mu), np.arange(ctx.G.order))
    return float(np.max(np.abs(K - K[ctx.lift_hat[ctx.coset_hat]])))


def _check_lift(ctx: DualityContext, f: np.ndarray, mu: np.ndarray) -> None:
    """Raise if the transform of f depends on the character lift.

    The defect is linear in f and reads mu only through f mu^-1, so one
    random element detects a fault in the kernel almost surely."""
    if t_periodicity_residual(ctx, f, mu) > LIFT_TOL * max(1.0, float(np.max(np.abs(f)))):
        raise InvalidTripleError("transform output depends on the character lift")


def t_transform(ctx: DualityContext, f: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The dual section as one (..., q^, q d, q d) array on the positions of
    dual_quotient.reps(), leading axes being f's batch.

    T(z^) = (Lambda(chi) x 1) K(chi) (Lambda(chi)^-1 x 1) at the canonical
    lift chi of z^.  It does not depend on the lift, for any mu table
    (t_periodicity_residual measures it; mu_is_cocycle validates mu itself).
    """
    fm = f @ adjoint(mu)
    return conjugated_kernel(ctx, fm[..., None, :, :, :, :], ctx.lift_hat)


def t_linearized(ctx: DualityContext, mu: np.ndarray) -> np.ndarray:
    """The transform as one big matrix on flattened coordinates (for rank checks).

    Column (g, z, i, j) is the image of the unit element at that point.  The
    unit elements at one g are zero off g, so each g-block of q d^2 columns
    is one transform of a batch of q d^2 elements.
    """
    n, q = ctx.shift.shape
    d = mu.shape[-1]
    block = q * d * d
    n_src, n_dst = n * block, len(ctx.lift_hat) * (q * d) ** 2
    check_dim(max(n_src, n_dst))
    A = np.empty((n_dst, n_src), complex)
    units = np.eye(block, dtype=complex).reshape(block, q, d, d)
    for g in range(n):
        vals = np.zeros((block, n, q, d, d), complex)
        vals[:, g] = units
        T = t_transform(ctx, vals, mu)
        A[:, g * block:(g + 1) * block] = T.reshape(block, n_dst).T
    return A


def fourier_roundtrip_residual(ctx: DualityContext, seed: int = 0) -> float:
    """Gate test for the weights: inversion on G and on G/N must be exact."""
    rng = np.random.default_rng(seed)
    w, q = ctx.haar, ctx.quotient.order
    # on G against the full dual
    f = rng.normal(size=ctx.G.order) + 1j * rng.normal(size=ctx.G.order)
    fhat = float(w.w_G) * (ctx.phases @ f)
    back = float(w.w_dual) * (adjoint(ctx.phases) @ fhat)
    res = float(np.max(np.abs(back - f)))
    # Weil: sum over G = quotient-sum of N-sums
    total = float(w.w_G) * f.sum()
    weil = float(w.w_quot) * float(w.w_N) * f[
        ctx.G.add_table()[np.ix_(ctx.lift, ctx.N.positions)]].sum()
    res = max(res, abs(total - weil))
    # on G/N against N-perp
    res = max(res, float(np.max(np.abs(ctx.dft_inv @ ctx.dft - np.eye(q)))))
    L = ctx.lam(1 % ctx.G.order)
    res = max(res, float(np.max(np.abs(adjoint(L) @ L - np.eye(q)))))
    return res


def mu_is_cocycle(ctx: DualityContext, mu: np.ndarray) -> float:
    """Residual of the exact cocycle law mu(g+h, z) = mu(g, z+hN) mu(h, z)."""
    lhs = mu[ctx.G.add_table()[:, :, None], np.arange(ctx.quotient.order)]   # at (g, h, z)
    rhs = mu[:, ctx.shift] @ mu
    return float(np.max(np.abs(lhs - rhs)))


def verify_point_theorem(ctx: DualityContext, d: int, mu: np.ndarray,
                         trials: int = 4, seed: int = 0) -> dict:
    """Residuals for the crossed-product isomorphism over a single chart.

    Checks, on random elements: T is multiplicative, *-preserving and
    norm-preserving; T intertwines the dual action with conjugation by
    Lambda; T is injective (full rank on a spanning set); zero maps to 0.
    Every trial's elements are drawn first (f1, f2, then k, trial by trial)
    and all trials go through each transform as one batch.  A mu that is not
    an (n, q, d, d) table raises ValueError.
    """
    shape = (*ctx.shift.shape, d, d)
    if np.shape(mu) != shape:
        raise ValueError(f"mu table has shape {np.shape(mu)}, want {shape}")
    rng = np.random.default_rng(seed)
    rep = {"mu_cocycle": mu_is_cocycle(ctx, mu)}
    draws = [(_draw(rng, shape), _draw(rng, shape), int(rng.integers(0, ctx.Gd.order)))
             for _ in range(trials)]
    f1, f2, ks = (np.stack(slot) for slot in zip(*draws))
    _check_lift(ctx, f1[0], mu)
    T1 = t_transform(ctx, f1, mu)
    T12 = t_transform(ctx, convolve(ctx, f1, f2, mu), mu)
    rep["homomorphism"] = float(np.max(np.abs(T12 - T1 @ t_transform(ctx, f2, mu))))
    Tstar = t_transform(ctx, involute(ctx, f1, mu), mu)
    rep["star_compatibility"] = float(np.max(np.abs(Tstar - adjoint(T1))))
    lhs = operator_norm(ctx, f1, mu)
    rhs = np.max(np.linalg.norm(T1, 2, axis=(-2, -1)), axis=-1)
    rep["norm_preservation"] = float(np.max(np.abs(lhs - rhs)))
    # equivariance under the dual action: T(chi f)(z^) = L^-1 T(f)(z^ + chi) L
    Tchi = t_transform(ctx, f1 * ctx.phases[ks][:, :, None, None, None], mu)
    L = kron_stack(ctx.lam(ks), np.eye(d))[:, None]
    want = adjoint(L) @ T1[np.arange(trials)[:, None], ctx.shift_hat[ks]] @ L
    rep["equivariance"] = float(np.max(np.abs(Tchi - want)))
    # injectivity: numerical rank of the linearised transform
    A = t_linearized(ctx, mu)
    sv = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    rep["injective_rank_deficit"] = float(A.shape[1] - rank)
    # zero element maps to zero
    rep["zero_to_zero"] = float(np.max(np.abs(t_transform(ctx, np.zeros(shape, complex), mu))))
    return rep


def _transport(t: TripleLocalData, e: tuple, f: np.ndarray,
               forward: bool = True) -> np.ndarray:
    """f_a -> f_b along e = (a, b), f_b(g, z) = zeta_ab(z)^-1 f_a(g, g_ab + z) zeta_ab(z),
    or back from f_b to f_a.  The coset axis of f is its third from last, so
    f may be a value table, a batch of them or a stack of fibre tables."""
    Z = t.zeta[e]
    s = t.ctx.quotient.add_table()[t.g.labels[e]]                  # g_ab + z
    if forward:
        return adjoint(Z) @ f[..., s, :, :] @ Z
    return (Z @ f @ adjoint(Z))[..., np.argsort(s), :, :]


def section_family(t: TripleLocalData, f0: np.ndarray) -> dict:
    """The compatible family {f_i}, f_b(g,z) = zeta_ab(z)^-1(f_a(g, g_ab+z)), from
    root values f0: a value table at vertex 0, or a batch of them.

    The root value is spread through a spanning forest: the first vertex of
    each connected component takes it, so a family exists on a disconnected
    nerve too.  An edge off the forest closes a loop and holds only when the root value is fixed by the loop's
    monodromy, so the root value is first projected onto the null space of
    the defect map f_0 -> (f_b - T_ab f_a) over those edges.  The monodromy
    acts on G/N and the fibre with g a spectator, so the map is built once,
    on one (q, d, d) slice, for the whole batch.  Without holonomy it is zero
    (all eigenvalues of its Gram matrix under HOLONOMY_TOL) and f0 is kept
    as is.  The Gram matrix's side q d^2 is refused over the matrix cap
    first, loops or not, as preflight refuses it from counts.
    """
    nerve = t.nerve
    dim = math.prod(f0.shape[-3:])                                  # q d^2
    check_dim(dim)
    roots, tree = [], []           # tree: (edge, known vertex, new vertex), in discovery order
    seen: set = set()
    for (root,) in nerve.vertices:
        if root in seen:
            continue
        roots.append(root)
        seen.add(root)
        todo = [root]
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
        fam = dict.fromkeys(roots, f0)
        for e, v, other in tree:
            fam[other] = _transport(t, e, fam[v], forward=(v == e[0]))
        return fam

    if loops:
        basis = spread(np.eye(dim, dtype=complex).reshape(dim, *f0.shape[-3:]))
        gram = np.zeros((dim, dim), complex)
        for e in loops:
            D = (_transport(t, e, basis[e[0]]) - basis[e[1]]).reshape(dim, dim)
            gram += D.conj() @ D.T
        vals, vecs = np.linalg.eigh(gram)
        R = vecs[:, vals > HOLONOMY_TOL]            # spans the defect's row space
        flat = f0.reshape(*f0.shape[:-3], dim)
        f0 = (flat - (flat @ R.conj()) @ R.T).reshape(f0.shape)
    return spread(f0)


def verify_gluing(t: TripleLocalData, t_hat: TripleLocalData,
                  trials: int = 10, seed: int = 0) -> dict:
    """Chart-wise transforms of a global section glue through the dual data.

    For every edge:  T_b f_b(z^) = W^-1 T_a f_a(g^_ab + z^) W  with
    W = (DFT x 1) zeta^_ab(z^) (DFT^-1 x 1).  One random root value is
    drawn per trial, and all trials' families go through as one batch: a
    batch of trials |G| q d^2 entries per vertex, refused over the square
    of the matrix cap before any is drawn.
    """
    ctx, d = t.ctx, t.fiber_dim
    shape = (*ctx.shift.shape, d, d)
    check_entries("trial batch size", trials * math.prod(shape))
    rng = np.random.default_rng(seed)
    kron_dft = kron_stack(ctx.dft, np.eye(d))
    kron_dft_inv = kron_stack(ctx.dft_inv, np.eye(d))
    fam = section_family(t, np.stack([_draw(rng, shape) for _ in range(trials)]))
    # family relation on every edge (also the non-tree ones)
    res_family = 0.0
    for e in t.nerve.edges:
        want = _transport(t, e, fam[e[0]])
        res_family = max(res_family, float(np.max(np.abs(fam[e[1]] - want))))
    for i in fam:
        _check_lift(ctx, fam[i][0], t.mu[i])
    T = {i: t_transform(ctx, fam[i], t.mu[i]) for i in fam}
    res_glue = 0.0
    for (a, b) in t.nerve.edges:
        # W stacked over z^, and the positions of g^_ab + z^
        W = kron_dft @ t_hat.zeta[(a, b)] @ kron_dft_inv
        moved = ctx.dual_quotient.add_table()[t_hat.g.labels[(a, b)]]
        want = adjoint(W) @ T[a][:, moved] @ W
        res_glue = max(res_glue, float(np.max(np.abs(T[b] - want))))
    return {"section_family": res_family, "section_transition": res_glue,
            "edges": len(t.nerve.edges)}
