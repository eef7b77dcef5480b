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

from .errors import InvalidTripleError
from .lca import GroupElement, QZ
from .linops import adjoint, operator_matrix, unit_phase
from .triples import DualityContext, TripleLocalData


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
    """Index bookkeeping for one (G, N, d) crossed-product instance."""

    def __init__(self, ctx: DualityContext, d: int):
        self.ctx = ctx
        self.d = d
        self.weights = HaarWeights.for_context(ctx)
        self.elems = ctx.G.elements()
        self.reps = ctx.quotient.reps()
        self.nperp = ctx.Nperp.elements()
        self.n = len(self.elems)
        self.q = len(self.reps)
        self.gi = {g: i for i, g in enumerate(self.elems)}
        self.zi = {z: i for i, z in enumerate(self.reps)}
        self.bi = {b: i for i, b in enumerate(self.nperp)}
        self._dft = None
        self._dft_inv = None

    # pairing of a dual-quotient character (given by an N-perp element)
    # with a point of G/N, via the section lift; exact
    def quot_pair(self, beta: GroupElement, z: GroupElement) -> QZ:
        return self.ctx.pair(beta, self.ctx.sigma(z))

    def dft(self) -> np.ndarray:
        """Fourier transform L^2(G/N) -> L^2(dual of G/N), rows over N-perp."""
        if self._dft is None:
            w = float(self.weights.w_quot)
            F = np.zeros((self.q, self.q), dtype=complex)
            for ib, b in enumerate(self.nperp):
                for iz, z in enumerate(self.reps):
                    F[ib, iz] = w * unit_phase(self.quot_pair(b, z))
            self._dft = F
            self._dft_inv = np.zeros((self.q, self.q), dtype=complex)
            for iz, z in enumerate(self.reps):
                for ib, b in enumerate(self.nperp):
                    self._dft_inv[iz, ib] = unit_phase(-self.quot_pair(b, z))
        return self._dft

    def dft_inv(self) -> np.ndarray:
        self.dft()
        return self._dft_inv

    def lam(self, chi: GroupElement) -> np.ndarray:
        """Lambda(chi) = DFT . <chi, -sigma(_)> . DFT^-1, unitary on L^2(G/N^)."""
        diag = np.array([
            unit_phase(-self.ctx.pair(chi, self.ctx.sigma(z))) for z in self.reps
        ])
        return self.dft() @ np.diag(diag) @ self.dft_inv()


class ConvolutionElement:
    """A matrix-valued function on G x G/N, stored as (|G|, q, d, d)."""

    def __init__(self, cc: CrossedContext, values: np.ndarray):
        self.cc = cc
        values = np.asarray(values, dtype=complex)
        expected = (cc.n, cc.q, cc.d, cc.d)
        if values.shape != expected:
            raise ValueError(f"value table has shape {values.shape}, want {expected}")
        self.values = values

    @staticmethod
    def zero(cc: CrossedContext) -> "ConvolutionElement":
        return ConvolutionElement(cc, np.zeros((cc.n, cc.q, cc.d, cc.d), complex))

    @staticmethod
    def unit(cc: CrossedContext) -> "ConvolutionElement":
        """Point mass at g = 0 with matrix I / w_G: the convolution unit."""
        vals = np.zeros((cc.n, cc.q, cc.d, cc.d), complex)
        scale = 1.0 / float(cc.weights.w_G)
        i0 = cc.gi[cc.ctx.G.zero()]
        for iz in range(cc.q):
            vals[i0, iz] = scale * np.eye(cc.d)
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


def convolve(f1: ConvolutionElement, f2: ConvolutionElement, mu: dict) -> ConvolutionElement:
    cc = f1.cc
    ctx, q = cc.ctx, cc.ctx.quotient
    G = ctx.G
    wG = float(cc.weights.w_G)
    out = np.zeros_like(f1.values)
    for ig, g in enumerate(cc.elems):
        for iz, z in enumerate(cc.reps):
            acc = np.zeros((cc.d, cc.d), complex)
            for ih, h in enumerate(cc.elems):
                U = mu[(h, z)]
                zh = q.add(z, q.rep(h))
                acc += f1.values[ih, iz] @ (
                    adjoint(U) @ f2.values[cc.gi[G.sub(g, h)], cc.zi[zh]] @ U
                )
            out[ig, iz] = wG * acc
    return ConvolutionElement(cc, out)


def involute(f: ConvolutionElement, mu: dict) -> ConvolutionElement:
    cc = f.cc
    ctx, q = cc.ctx, cc.ctx.quotient
    G = ctx.G
    out = np.zeros_like(f.values)
    for ig, g in enumerate(cc.elems):
        for iz, z in enumerate(cc.reps):
            U = mu[(g, z)]
            zg = q.add(z, q.rep(g))
            out[ig, iz] = adjoint(U) @ adjoint(f.values[cc.gi[G.neg(g)], cc.zi[zg]]) @ U
    return ConvolutionElement(cc, out)


def represent(f: ConvolutionElement, mu: dict) -> np.ndarray:
    """The matrix of f x _ on L^2(G x G/N) tensor C^d.

    (f x F)(g, z) = int_G mu(-g,z)^-1( f(h, z - gN) ) F(g-h, z) dh.
    """
    cc = f.cc
    ctx, q = cc.ctx, cc.ctx.quotient
    G = ctx.G
    wG = float(cc.weights.w_G)
    n, nq, d = cc.n, cc.q, cc.d
    dim = n * nq * d
    out = np.zeros((dim, dim), complex)
    for ig, g in enumerate(cc.elems):
        for iz, z in enumerate(cc.reps):
            Um = mu[(G.neg(g), z)]
            zshift = cc.zi[q.sub_(z, q.rep(g))]
            for ih, h in enumerate(cc.elems):
                blk = wG * adjoint(Um) @ f.values[ih, zshift] @ Um
                igp = cc.gi[G.sub(g, h)]
                r0 = (ig * nq + iz) * d
                c0 = (igp * nq + iz) * d
                out[r0:r0 + d, c0:c0 + d] += blk
    return out


def operator_norm(f: ConvolutionElement, mu: dict) -> float:
    return float(np.linalg.norm(represent(f, mu), 2))


def _mu_twisted(f: ConvolutionElement, mu: dict) -> np.ndarray:
    """The table fm(g, z) = f(g, z) mu(g, z)^-1 that the transform integrates."""
    cc = f.cc
    fm = np.zeros_like(f.values)
    for ig, g in enumerate(cc.elems):
        for iz, z in enumerate(cc.reps):
            fm[ig, iz] = f.values[ig, iz] @ adjoint(mu[(g, z)])
    return fm


def conjugated_kernel(cc: CrossedContext, fm: np.ndarray,
                      chi: GroupElement) -> np.ndarray:
    """(Lambda(chi) x 1) K(chi) (Lambda(chi)^-1 x 1) at a character lift chi.

    K(chi)[a, c] = int fm(g, z) <chi + c, g> <c - a, z> d(g, z), with a, c
    running over N-perp and fm = _mu_twisted(f, mu).
    """
    ctx = cc.ctx
    Gd = ctx.Gd
    w = float(cc.weights.w_G * cc.weights.w_quot)
    d = cc.d
    K = np.zeros((cc.q * d, cc.q * d), complex)
    for ia, alpha in enumerate(cc.nperp):
        for ic, gamma in enumerate(cc.nperp):
            chi_c = Gd.add(chi, gamma)
            diff = Gd.sub(gamma, alpha)
            acc = np.zeros((d, d), complex)
            for ig, g in enumerate(cc.elems):
                ph_g = unit_phase(ctx.pair(chi_c, g))
                for iz, z in enumerate(cc.reps):
                    ph = ph_g * unit_phase(cc.quot_pair(diff, z))
                    acc += ph * fm[ig, iz]
            K[ia * d:(ia + 1) * d, ic * d:(ic + 1) * d] = w * acc
    L = np.kron(cc.lam(chi), np.eye(d))
    return L @ K @ adjoint(L)


def t_periodicity_residual(f: ConvolutionElement, mu: dict) -> float:
    """Deviation of the conjugated kernel under N-perp shifts of the lift."""
    cc = f.cc
    ctx = cc.ctx
    fm = _mu_twisted(f, mu)
    res = 0.0
    betas = [b for b in cc.nperp if b != ctx.Gd.zero()] or [ctx.Gd.zero()]
    for zhat in ctx.dual_quotient.reps():
        chi = ctx.sigma_hat(zhat)
        base = conjugated_kernel(cc, fm, chi)
        moved = conjugated_kernel(cc, fm, ctx.Gd.add(chi, betas[0]))
        res = max(res, float(np.max(np.abs(base - moved))))
    return res


def t_transform(f: ConvolutionElement, mu: dict,
                check_tol: float = 1e-6) -> dict:
    """The dual section z^ -> Lambda-conjugated Fourier kernel, one matrix per z^.

    output:  T(z^) = (Lambda(chi) x 1) K(chi) (Lambda(chi)^-1 x 1) at the
    canonical lift chi of z^.  Independence of the lift is re-verified per
    point as an internal consistency assertion (it holds for any mu table;
    use mu_is_cocycle to validate mu itself).
    """
    cc = f.cc
    ctx = cc.ctx
    fm = _mu_twisted(f, mu)
    out = {}
    scale = max(1.0, f.norm_inf())
    betas = [b for b in cc.nperp if b != ctx.Gd.zero()]
    for zhat in ctx.dual_quotient.reps():
        chi = ctx.sigma_hat(zhat)
        K = conjugated_kernel(cc, fm, chi)
        if betas and check_tol is not None:
            K2 = conjugated_kernel(cc, fm, ctx.Gd.add(chi, betas[0]))
            if float(np.max(np.abs(K - K2))) > check_tol * scale:
                raise InvalidTripleError(
                    "transform output depends on the character lift")
        out[zhat] = K
    return out


def t_linearized(cc: CrossedContext, mu: dict) -> np.ndarray:
    """The transform as one big matrix on flattened coordinates (for rank checks)."""
    zhats = cc.ctx.dual_quotient.reps()

    def apply(batch: np.ndarray) -> np.ndarray:
        # the transform itself is not batched: one call per column
        cols = []
        for vals in batch.T:
            f = ConvolutionElement(cc, vals.reshape(cc.n, cc.q, cc.d, cc.d))
            T = t_transform(f, mu, check_tol=None)
            cols.append(np.concatenate([T[zhat].reshape(-1) for zhat in zhats]))
        return np.stack(cols, axis=1)

    return operator_matrix(apply, cc.n * cc.q * cc.d * cc.d,
                           len(zhats) * (cc.q * cc.d) ** 2, complex)


def fourier_roundtrip_residual(ctx: DualityContext, seed: int = 0) -> float:
    """Gate test for the weights: inversion on G and on G/N must be exact."""
    rng = np.random.default_rng(seed)
    w = HaarWeights.for_context(ctx)
    res = 0.0
    # on G against the full dual
    f = rng.normal(size=ctx.G.order) + 1j * rng.normal(size=ctx.G.order)
    elems = ctx.G.elements()
    duals = ctx.Gd.elements()
    fhat = np.array([
        float(w.w_G) * sum(unit_phase(ctx.pair(chi, g)) * f[i]
                           for i, g in enumerate(elems))
        for chi in duals
    ])
    back = np.array([
        float(w.w_dual) * sum(unit_phase(-ctx.pair(chi, g)) * fhat[j]
                              for j, chi in enumerate(duals))
        for g in elems
    ])
    res = max(res, float(np.max(np.abs(back - f))))
    # Weil: sum over G = quotient-sum of N-sums
    total = float(w.w_G) * f.sum()
    weil = float(w.w_quot) * sum(
        float(w.w_N) * sum(
            f[ctx.G.index(ctx.G.add(ctx.sigma(z), nn))] for nn in ctx.N.elements()
        )
        for z in ctx.quotient.reps()
    )
    res = max(res, abs(total - weil))
    # on G/N against N-perp
    cc = CrossedContext(ctx, 1)
    F = cc.dft()
    Fi = cc.dft_inv()
    res = max(res, float(np.max(np.abs(Fi @ F - np.eye(cc.q)))))
    res = max(res, float(np.max(np.abs(adjoint(cc.lam(duals[1 % len(duals)]))
                                       @ cc.lam(duals[1 % len(duals)]) - np.eye(cc.q)))))
    return res


def s_reindex_matrix(ctx: DualityContext) -> np.ndarray:
    """The reshuffle L^2(N) x L^2(G/N) -> L^2(G), (Sf)(g) = f(g - sigma(gN), gN)."""
    G, q = ctx.G, ctx.quotient
    nn = ctx.N.elements()
    reps = q.reps()
    ni = {x: i for i, x in enumerate(nn)}
    S = np.zeros((G.order, len(nn) * len(reps)), complex)
    for ig, g in enumerate(G.elements()):
        z = q.rep(g)
        n_part = G.sub(g, ctx.sigma(z))
        S[ig, ni[n_part] * len(reps) + reps.index(z)] = 1.0
    return S


def mu_is_cocycle(cc: CrossedContext, mu: dict) -> float:
    """Residual of the exact cocycle law mu(g+h, z) = mu(g, z+hN) mu(h, z)."""
    ctx, q = cc.ctx, cc.ctx.quotient
    G = ctx.G
    res = 0.0
    for g in cc.elems:
        for h in cc.elems:
            for z in cc.reps:
                lhs = mu[(G.add(g, h), z)]
                rhs = mu[(g, q.add(z, q.rep(h)))] @ mu[(h, z)]
                res = max(res, float(np.max(np.abs(lhs - rhs))))
    return res


def trivial_mu(cc: CrossedContext) -> dict:
    eye = np.eye(cc.d, dtype=complex)
    return {(g, z): eye for g in cc.elems for z in cc.reps}


def verify_point_theorem(ctx: DualityContext, d: int, mu: dict,
                         trials: int = 4, seed: int = 0) -> dict:
    """Residuals for the crossed-product isomorphism over a single chart.

    Checks, on random elements: T is multiplicative, *-preserving and
    norm-preserving; T intertwines the dual action with conjugation by
    Lambda; T is injective (full rank on a spanning set); zero maps to 0.
    """
    cc = CrossedContext(ctx, d)
    rng = np.random.default_rng(seed)
    rep = {"mu_cocycle": mu_is_cocycle(cc, mu)}
    dq = ctx.dual_quotient
    hom = star = normres = equiv = 0.0
    for _ in range(trials):
        f1 = ConvolutionElement.random(cc, rng)
        f2 = ConvolutionElement.random(cc, rng)
        T1 = t_transform(f1, mu)
        T2 = t_transform(f2, mu)
        T12 = t_transform(convolve(f1, f2, mu), mu)
        for zhat in dq.reps():
            hom = max(hom, float(np.max(np.abs(T12[zhat] - T1[zhat] @ T2[zhat]))))
        Tstar = t_transform(involute(f1, mu), mu)
        for zhat in dq.reps():
            star = max(star, float(np.max(np.abs(Tstar[zhat] - adjoint(T1[zhat])))))
        lhs = operator_norm(f1, mu)
        rhs = max(float(np.linalg.norm(T1[zhat], 2)) for zhat in dq.reps())
        normres = max(normres, abs(lhs - rhs))
        # equivariance under the dual action
        chi = ctx.Gd.elements()[int(rng.integers(0, ctx.Gd.order))]
        phases = np.array([unit_phase(ctx.pair(chi, g)) for g in cc.elems])
        fchi = ConvolutionElement(cc, f1.values * phases[:, None, None, None])
        Tchi = t_transform(fchi, mu)
        L = np.kron(cc.lam(chi), np.eye(d))
        for zhat in dq.reps():
            moved = dq.add(zhat, dq.rep(chi))
            want = adjoint(L) @ T1[moved] @ L
            equiv = max(equiv, float(np.max(np.abs(Tchi[zhat] - want))))
    rep["homomorphism"] = hom
    rep["star_compatibility"] = star
    rep["norm_preservation"] = normres
    rep["equivariance"] = equiv
    # injectivity: numerical rank of the linearised transform
    A = t_linearized(cc, mu)
    src = cc.n * cc.q * cc.d * cc.d
    sv = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    rep["injective_rank_deficit"] = float(src - rank)
    # zero element maps to zero
    Tz = t_transform(ConvolutionElement.zero(cc), mu)
    rep["zero_to_zero"] = max(float(np.max(np.abs(M))) for M in Tz.values())
    return rep


def section_family(t: TripleLocalData, cc: CrossedContext,
                   rng: np.random.Generator) -> dict:
    """A random compatible family {f_i}: f_b(g,z) = zeta_ab(z)^-1(f_a(g, g_ab+z)).

    Built by spreading a random element at vertex 0 through a spanning
    tree; scalar Cech defects cancel in the conjugation, so the family is
    consistent on every edge.
    """
    ctx, q = t.ctx, t.ctx.quotient
    G = ctx.G
    nerve = t.nerve
    fam = {nerve.vertices[0][0]: ConvolutionElement.random(cc, rng)}
    todo = [nerve.vertices[0][0]]
    seen = {nerve.vertices[0][0]}
    while todo:
        v = todo.pop()
        for e in nerve.edges:
            a, b = e
            other = b if a == v else (a if b == v else None)
            if other is None or other in seen:
                continue
            gab = t.g.edge_values[e]
            vals = np.zeros_like(fam[v].values)
            if a == v:
                # know f_a, want f_b(g, z) = zeta(z)^-1 f_a(g, g_ab+z) zeta(z)
                for ig, g in enumerate(cc.elems):
                    for iz, z in enumerate(cc.reps):
                        Z = t.zeta[e][z]
                        vals[ig, iz] = adjoint(Z) \
                            @ fam[v].values[ig, cc.zi[q.add(gab, z)]] @ Z
            else:
                # know f_b, want f_a(g, z') with z' = g_ab + z
                for ig, g in enumerate(cc.elems):
                    for iz, zp in enumerate(cc.reps):
                        z = q.sub_(zp, gab)
                        Z = t.zeta[e][z]
                        vals[ig, iz] = Z @ fam[v].values[ig, cc.zi[z]] @ adjoint(Z)
            fam[other] = ConvolutionElement(cc, vals)
            seen.add(other)
            todo.append(other)
    return fam


def verify_gluing(t: TripleLocalData, t_hat: TripleLocalData,
                  trials: int = 10, seed: int = 0) -> dict:
    """Chart-wise transforms of a global section glue through the dual data.

    For every edge:  T_b f_b(z^) = W^-1 T_a f_a(g^_ab + z^) W  with
    W = (DFT x 1) zeta^_ab(z^) (DFT^-1 x 1).
    """
    ctx = t.ctx
    q, dq = ctx.quotient, ctx.dual_quotient
    cc = CrossedContext(ctx, t.fiber_dim)
    rng = np.random.default_rng(seed)
    kron_dft = np.kron(cc.dft(), np.eye(cc.d))
    kron_dft_inv = np.kron(cc.dft_inv(), np.eye(cc.d))
    res_family = 0.0
    res_glue = 0.0
    for _ in range(trials):
        fam = section_family(t, cc, rng)
        # family relation on every edge (also the non-tree ones)
        for e in t.nerve.edges:
            a, b = e
            gab = t.g.edge_values[e]
            for ig, g in enumerate(cc.elems):
                for iz, z in enumerate(cc.reps):
                    Z = t.zeta[e][z]
                    want = adjoint(Z) @ fam[a].values[ig, cc.zi[q.add(gab, z)]] @ Z
                    res_family = max(res_family, float(np.max(np.abs(
                        fam[b].values[ig, iz] - want))))
        T = {i: t_transform(fam[i], t.mu[i]) for i in fam}
        for e in t.nerve.edges:
            a, b = e
            ghat_ab = t_hat.g.edge_values[e]
            for zhat in dq.reps():
                W = kron_dft @ t_hat.zeta[e][zhat] @ kron_dft_inv
                want = adjoint(W) @ T[a][dq.add(ghat_ab, zhat)] @ W
                res_glue = max(res_glue, float(np.max(np.abs(T[b][zhat] - want))))
    return {"section_family": res_family, "section_transition": res_glue,
            "edges": len(t.nerve.edges)}
