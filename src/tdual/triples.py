"""Local data of dynamical triples and the duality transform on it.

A triple over a nerve consists of a quotient-valued edge twist g, unitary
edge maps zeta on G/N, and unitary vertex maps mu on G x G/N obeying

    mu_b(g, z) ~ zeta_ab(z + gN)^-1  mu_a(g, g_ab + z)  zeta_ab(z)     (edges)
    mu_i(g + h, z) ~ mu_i(g, z + hN) mu_i(h, z)                        (vertices)

up to scalars ("~").  The scalar defects assemble into a mixed 2-cocycle
(psi, phi, omega); when omega is a group-cohomology boundary the triple
can be dualised, producing data of the same shape over the dual group.
All scalar phases are snapped to exact m-th roots of unity; all operator
identities are checked in complex double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .cech import Nerve, TwistCocycle
from .errors import InvalidTripleError
from .groupcoh import (
    GroupCochain,
    GroupCochainSpace,
    TotalCochain,
    d_group,
    d_group_matrix,
    solve_total_coboundary,
    total_differential,
)
from .lca import (
    QZ,
    FiniteLcaGroup,
    GroupElement,
    QuotientGroup,
    Section,
    Subgroup,
    annihilator,
    dual_group,
    make_section,
    pairing,
    solve_character,
)
from .linops import (
    adjoint,
    block_diag,
    perm_matrix,
    scalar_deviation,
    scalar_part,
    scalar_stack,
    snap_phase,
    unit_phase,
)
from .zmodlin import solve_mod

TAU_S = 1e-6   # scalarness / snapping tolerance
TAU_U = 1e-9   # operator identity tolerance


class DualityContext:
    """Groups, quotients, annihilators and sections shared by one run.

    Holds (G, N, G/N) together with the dual side (G^, N-perp, G^/N-perp)
    and the two sections sigma, sigma_hat.  dual() swaps the two sides;
    applying it twice returns to identical data, which is what makes the
    double-dual comparison exact.
    """

    def __init__(self, G: FiniteLcaGroup, N: Subgroup, m: Optional[int] = None,
                 sigma: Optional[Section] = None, sigma_hat: Optional[Section] = None):
        self.G = G
        self.N = N
        self.quotient = QuotientGroup(G, N)
        self.Gd = dual_group(G)
        self.Nperp = annihilator(G, N)
        self.dual_quotient = QuotientGroup(self.Gd, self.Nperp)
        self.sigma = sigma if sigma is not None else make_section(
            G, N, "least", quotient=self.quotient)
        self.sigma_hat = sigma_hat if sigma_hat is not None else make_section(
            self.Gd, self.Nperp, "least", quotient=self.dual_quotient)
        self.m = int(m) if m is not None else G.exponent
        if self.m % G.exponent != 0:
            raise ValueError(
                f"modulus {self.m} must be a multiple of the exponent {G.exponent}")
        self._dual: Optional[DualityContext] = None

    def pair(self, chi: GroupElement, g: GroupElement) -> QZ:
        return pairing(self.G, chi, g)

    # Integer index tables, built on first use.  Positions are those of
    # G.elements(), quotient.reps() and dual_quotient.reps(); characters
    # share G's positions and tables, the dual being identified coordinate-wise.

    @cached_property
    def phases(self) -> np.ndarray:
        """phases[chi, g] = exp(2 pi i <chi, g>), read off G.pairing_table()."""
        return np.exp(2j * np.pi * self.G.pairing_table() / self.G.exponent)

    @cached_property
    def neg(self) -> np.ndarray:
        """neg[g] = position of -g (zero sits at position 0)."""
        return np.argmax(self.G.add_table() == 0, axis=1)

    @cached_property
    def sub(self) -> np.ndarray:
        """sub[g, h] = position of g - h."""
        return self.G.add_table()[:, self.neg]

    @cached_property
    def coset(self) -> np.ndarray:
        """coset[g] = position of g + N among quotient.reps()."""
        return np.array([self.quotient.index(g) for g in self.G.elements()])

    @cached_property
    def coset_hat(self) -> np.ndarray:
        """coset_hat[chi] = position of chi + N-perp among dual_quotient.reps()."""
        return np.array([self.dual_quotient.index(c) for c in self.Gd.elements()])

    @cached_property
    def shift(self) -> np.ndarray:
        """shift[g, z] = position of z + gN (coset addition)."""
        return self.coset[self.G.add_table()[:, self.lift]]

    @cached_property
    def shift_hat(self) -> np.ndarray:
        """shift_hat[chi, z^] = position of z^ + chi N-perp."""
        return self.coset_hat[self.G.add_table()[:, self.lift_hat]]

    @cached_property
    def lift(self) -> np.ndarray:
        """lift[z] = position of sigma(z)."""
        return np.array([self.G.index(self.sigma(z)) for z in self.quotient.reps()])

    @cached_property
    def lift_hat(self) -> np.ndarray:
        """lift_hat[z^] = position of sigma_hat(z^)."""
        return np.array([self.Gd.index(self.sigma_hat(z))
                         for z in self.dual_quotient.reps()])

    def qz_phase(self, k: int) -> complex:
        return unit_phase(QZ.of(k, self.m))

    def dual(self) -> "DualityContext":
        if self._dual is None:
            d = object.__new__(DualityContext)
            d.G = self.Gd
            d.N = self.Nperp
            d.quotient = self.dual_quotient
            d.Gd = dual_group(self.Gd)
            biperp = annihilator(self.Gd, self.Nperp)
            if biperp != self.N:
                raise AssertionError("double annihilator differs from N")
            d.Nperp = self.N
            d.dual_quotient = self.quotient
            d.sigma = self.sigma_hat
            d.sigma_hat = self.sigma
            d.m = self.m
            d._dual = self
            self._dual = d
        return self._dual

    def __repr__(self) -> str:
        return f"DualityContext(G={self.G}, |N|={self.N.order}, m={self.m})"


@dataclass
class TripleLocalData:
    """Per-chart data (g, zeta, mu) of a dynamical triple on a nerve.

    zeta maps each sorted edge to {z-rep -> U(dim)}; mu maps each vertex
    to {(g, z-rep) -> U(dim)}.  legs records the tensor factorisation of
    the fiber (duals prepend an L^2(G/N)-leg).  gauge keeps the chart
    unitaries of generated fixtures, used to build exterior perturbations.
    """

    nerve: Nerve
    ctx: DualityContext
    legs: tuple[int, ...]
    g: TwistCocycle
    zeta: dict
    mu: dict
    tau_s: float = TAU_S
    tau_u: float = TAU_U
    gauge: Optional[dict] = None

    @property
    def fiber_dim(self) -> int:
        n = 1
        for l in self.legs:
            n *= l
        return n

    def copy_with_mu(self, mu: dict) -> "TripleLocalData":
        return TripleLocalData(self.nerve, self.ctx, self.legs, self.g,
                               self.zeta, mu, self.tau_s, self.tau_u, self.gauge)


@dataclass
class TotalTwoCocycle:
    """Snapped scalar data (psi, phi, omega) of a triple, as Z/m tables."""

    nerve: Nerve
    ctx: DualityContext
    g: TwistCocycle
    psi: dict   # 2-simplex -> (q,) ints
    phi: dict   # edge -> (n, q) ints
    omega: dict  # vertex -> (n, n, q) ints

    def to_total_cochain(self) -> TotalCochain:
        ctx = self.ctx
        t = TotalCochain(self.nerve, ctx.G, ctx.quotient, ctx.m, 2)
        for s, v in self.psi.items():
            t.blocks[(2, 0)].values[s] = v.copy()
        for e, v in self.phi.items():
            t.blocks[(1, 1)].values[e] = v.reshape(-1).copy()
        for i, v in self.omega.items():
            t.blocks[(0, 2)].values[(i,)] = v.reshape(-1).copy()
        return t

    def omega_is_zero(self) -> bool:
        return all(not v.any() for v in self.omega.values())


# ---------------------------------------------------------------------------
# fixtures

def trivial_triple(nerve: Nerve, ctx: DualityContext, d: int = 1) -> TripleLocalData:
    """The fully trivial triple: zero twist, identity zeta and mu."""
    q = ctx.quotient
    eye = np.eye(d, dtype=complex)
    g = TwistCocycle.trivial(nerve, q)
    zeta = {e: {z: eye.copy() for z in q.reps()} for e in nerve.edges}
    mu = {
        v[0]: {(gg, z): eye.copy() for gg in ctx.G.elements() for z in q.reps()}
        for v in nerve.vertices
    }
    gauge = {v[0]: {z: eye.copy() for z in q.reps()} for v in nerve.vertices}
    return TripleLocalData(nerve, ctx, (d,), g, zeta, mu, gauge=gauge)


def _random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    qmat, r = np.linalg.qr(z)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def build_random_triple(nerve: Nerve, ctx: DualityContext, d: int, seed: int,
                        twist: Optional[TwistCocycle] = None) -> TripleLocalData:
    """A seeded dualisable triple with all laws holding by construction.

    The data is a chart-gauge conjugate of an exactly multiplicative model
    cocycle, perturbed by exact m-th-root scalar phases, so every scalar
    defect snaps exactly and omega is a boundary by construction.
    """
    rng = np.random.default_rng(seed)
    G, q, m = ctx.G, ctx.quotient, ctx.m
    n_elems = G.elements()
    reps = q.reps()

    # twist: supplied class representative plus a random coboundary
    r_vals = {v[0]: reps[int(rng.integers(0, len(reps)))] for v in nerve.vertices}
    cob = TwistCocycle.coboundary(nerve, q, r_vals)
    vals = {}
    for e in nerve.edges:
        base = twist.edge_values[e] if twist is not None else q.zero()
        vals[e] = q.add(base, cob.edge_values[e])
    g = TwistCocycle(nerve, q, vals)

    # chart gauges and the exactly multiplicative model cocycle
    gauge = {v[0]: {z: _random_unitary(rng, d) for z in reps} for v in nerve.vertices}

    def rand_char() -> GroupElement:
        return G.element(tuple(int(rng.integers(0, f)) for f in G.factors))

    chars = [rand_char() for _ in range(d)]
    chi0 = rand_char()
    beta0 = rand_char()
    sigma = ctx.sigma

    def model(gg: GroupElement, z: GroupElement) -> np.ndarray:
        # diag of characters times the exact scalar cocycle built from the
        # section defect n(g, z) = g + sigma(z) - sigma(z + gN) in N
        diag = np.array([unit_phase(ctx.pair(c, gg)) for c in chars], dtype=complex)
        defect = G.sub(G.add(gg, sigma(z)), sigma(q.add(z, q.rep(gg))))
        s = unit_phase(ctx.pair(chi0, gg) + ctx.pair(beta0, defect))
        return s * np.diag(diag)

    # scalar perturbations: nu on vertices (g, z), s on edges (z)
    nu = {
        v[0]: {(gg, z): int(rng.integers(0, m)) if gg != G.zero() else 0
               for gg in n_elems for z in reps}
        for v in nerve.vertices
    }
    s_edge = {e: {z: int(rng.integers(0, m)) for z in reps} for e in nerve.edges}

    mu = {}
    for v in nerve.vertices:
        i = v[0]
        w = gauge[i]
        tab = {}
        for gg in n_elems:
            for z in reps:
                zg = q.add(z, q.rep(gg))
                tab[(gg, z)] = (ctx.qz_phase(nu[i][(gg, z)])
                                * adjoint(w[zg]) @ model(gg, z) @ w[z])
        mu[i] = tab
    zeta = {}
    for e in nerve.edges:
        a, b = e
        gab = g.edge_values[e]
        tab = {}
        for z in reps:
            tab[z] = (ctx.qz_phase(s_edge[e][z])
                      * adjoint(gauge[a][q.add(gab, z)]) @ gauge[b][z])
        zeta[e] = tab
    return TripleLocalData(nerve, ctx, (d,), g, zeta, mu, gauge=gauge)


def mu_table(ctx: DualityContext, mu: dict) -> np.ndarray:
    """A vertex's mu(g, z) as an (n, q, d, d) array, on the positions of
    G.elements() and quotient.reps()."""
    reps = ctx.quotient.reps()
    return np.array([[mu[(gg, z)] for z in reps] for gg in ctx.G.elements()],
                    dtype=complex)


def _tables(t: TripleLocalData) -> tuple[dict, dict]:
    """zeta as (q, d, d) per edge and mu_table per vertex."""
    reps = t.ctx.quotient.reps()
    Z = {e: np.stack([tab[z] for z in reps]) for e, tab in t.zeta.items()}
    return Z, {i: mu_table(t.ctx, tab) for i, tab in t.mu.items()}


def validate_triple(t: TripleLocalData) -> dict:
    """Largest residuals of the structural laws (unitarity, both cocycle laws)."""
    ctx = t.ctx
    shift, add = ctx.shift, ctx.G.add_table()
    Z, Mu = _tables(t)
    eye = np.eye(t.fiber_dim)
    uni = max(float(np.max(np.abs(adjoint(U) @ U - eye)))
              for U in (*Z.values(), *Mu.values()))
    decker = 0.0
    for (a, b), Ze in Z.items():
        moved = shift[ctx.G.index(t.g.edge_values[(a, b)])]
        decker = max(decker, scalar_deviation(
            adjoint(Ze[shift]) @ Mu[a][:, moved] @ Ze @ adjoint(Mu[b])))
    cocyc = max(scalar_deviation(M[g][shift] @ M @ adjoint(M[add[g]]))
                for M in Mu.values() for g in range(len(add)))
    mu0 = max(scalar_deviation(M[0]) for M in Mu.values())    # G.elements()[0] is 0
    return {"unitarity": uni, "edge_law": decker, "vertex_law": cocyc,
            "mu_at_zero_scalar": mu0}


# ---------------------------------------------------------------------------
# extraction of the scalar 2-cocycle

def _snap_stack(mats: np.ndarray, m: int, tol: float) -> np.ndarray:
    """k with mats[idx] = exp(2 pi i k/m) I, tested for the whole stack at once.

    The test repeats the float operations of scalar_part and snap_phase
    (np.hypot is Python's complex abs), so it flags exactly the entries they
    reject; those go through them in C order, and the first one raises."""
    s, dev = scalar_stack(mats)
    k = np.rint(np.angle(s) / (2 * np.pi) * m).astype(np.int64) % m
    gap = s - np.exp(1j * (2 * np.pi * k / m))
    ok = ((dev <= tol) & (np.abs(np.hypot(s.real, s.imag) - 1.0) <= tol)
          & (np.hypot(gap.real, gap.imag) <= tol))
    for idx in zip(*np.nonzero(~ok)):
        k[idx] = snap_phase(scalar_part(mats[idx], tol), m, tol)
    return k


def extract_total_cocycle(t: TripleLocalData) -> TotalTwoCocycle:
    """Snap the scalar defects (psi, phi, omega) and check they form a cocycle.

    Each defect is a batched product over the context's index tables."""
    ctx = t.ctx
    G, m = ctx.G, ctx.m
    shift, add = ctx.shift, G.add_table()
    Z, Mu = _tables(t)

    def snap(mats: np.ndarray) -> np.ndarray:
        return _snap_stack(mats, m, t.tau_s)

    psi = {}
    for s in t.nerve.simplices(2):
        a, b, c = s
        moved = shift[G.index(t.g.edge_values[(b, c)])]
        psi[s] = snap(adjoint(Z[(a, c)]) @ Z[(a, b)][moved] @ Z[(b, c)])

    phi = {}
    for e in t.nerve.edges:
        a, b = e
        moved = shift[G.index(t.g.edge_values[e])]
        phi[e] = snap(Mu[b] @ adjoint(Z[e]) @ adjoint(Mu[a][:, moved]) @ Z[e][shift])

    omega = {}
    hs = np.arange(len(add))[:, None]
    for i, M in Mu.items():
        # one slab per g keeps every temporary at the size of M
        omega[i] = np.stack([snap(M[g] @ adjoint(M[add[g]]) @ M[hs, shift[g]])
                             for g in range(len(add))])

    out = TotalTwoCocycle(t.nerve, ctx, t.g, psi, phi, omega)
    closure = total_differential(out.to_total_cochain(), t.g)
    if not closure.is_zero():
        raise InvalidTripleError("extracted (psi, phi, omega) is not a total cocycle")
    return out


# ---------------------------------------------------------------------------
# dualisability and normalisation

def is_dualisable(c: TotalTwoCocycle) -> Optional[dict]:
    """Solve d(nu_i) = omega_i per vertex over Z/m; None when unsolvable.

    All vertices are solved together: one column of right-hand sides each.
    """
    ctx = c.ctx
    sp1 = GroupCochainSpace(ctx.G, ctx.quotient, ctx.m, 1)
    A = d_group_matrix(sp1)
    B = np.stack([om.reshape(-1) for om in c.omega.values()], axis=1)
    X = solve_mod(A, B, ctx.m)
    if X is None:
        return None
    return {i: X[:, j].reshape(sp1.shape()) for j, i in enumerate(c.omega)}


def normalize(t: TripleLocalData, nu: dict,
              c: Optional[TotalTwoCocycle] = None) -> TripleLocalData:
    """Replace mu_i by mu_i * nu_i^-1 so that the extracted omega vanishes.

    c is t's total cocycle if the caller has already extracted it.
    """
    ctx = t.ctx
    G, q, m = ctx.G, ctx.quotient, ctx.m
    sp1 = GroupCochainSpace(G, q, m, 1)
    if c is None:
        c = extract_total_cocycle(t)
    for i, om in c.omega.items():
        dnu = d_group(GroupCochain(sp1, nu[i]))
        if not np.array_equal(dnu.values % m, om % m):
            raise InvalidTripleError(f"nu does not solve d(nu) = omega at vertex {i}")
    mu = {}
    for i, tab in t.mu.items():
        new = {}
        for (gg, z), U in tab.items():
            k = int(nu[i][G.index(gg), q.index(z)])
            new[(gg, z)] = U * ctx.qz_phase(-k)
        mu[i] = new
    return t.copy_with_mu(mu)


def make_dualisable(t: TripleLocalData,
                    c: Optional[TotalTwoCocycle] = None) -> TripleLocalData:
    """Convenience: extract, solve for nu and normalise (omega becomes 0).

    c is t's total cocycle if the caller has already extracted it.
    """
    if c is None:
        c = extract_total_cocycle(t)
    if c.omega_is_zero():
        return t
    nu = is_dualisable(c)
    if nu is None:
        raise InvalidTripleError("triple is not dualisable: omega is not a boundary")
    return normalize(t, nu, c)


# ---------------------------------------------------------------------------
# the duality transform

def dual_base_cocycle(t: TripleLocalData, c: Optional[TotalTwoCocycle] = None) -> TwistCocycle:
    """Edge cocycle g^ of the dual bundle: <g^_ab, n> = -phi_ab(n, z) on N."""
    ctx = t.ctx
    G, q, m = ctx.G, ctx.quotient, ctx.m
    if c is None:
        c = extract_total_cocycle(t)
    if not c.omega_is_zero():
        raise InvalidTripleError("dual base cocycle needs omega = 0 (normalise first)")
    dq = ctx.dual_quotient
    vals = {}
    for e in t.nerve.edges:
        tab = c.phi[e]
        for nn in ctx.N.elements():
            col = tab[G.index(nn), :]
            if np.any(col != col[0]):
                raise InvalidTripleError(
                    f"phi({nn}, .) is not constant on the fiber over edge {e}")
        values = {nn: QZ.of(-int(tab[G.index(nn), 0]), m) for nn in ctx.N.generators}
        chi = solve_character(G, ctx.N, values)
        vals[e] = dq.rep(chi)
    ghat = TwistCocycle(t.nerve, dq, vals)
    # re-pairing consistency on all of N, all fiber points
    for e in t.nerve.edges:
        for nn in ctx.N.elements():
            want = QZ.of(-int(c.phi[e][G.index(nn), 0]), m)
            if ctx.pair(ghat.edge_values[e], nn) != want:
                raise InvalidTripleError(f"dual cocycle pairing mismatch on {e}")
    return ghat


def dual_transitions(t: TripleLocalData, c: TotalTwoCocycle,
                     ghat: TwistCocycle) -> dict:
    """Unitary transitions of the dual pair on the enlarged fiber L^2(G/N) x fiber.

    zeta^_ab(z^) = kappa-phase(-g_ab, g^_ab + z^) . translation(-g_ab)
                   . blockdiag_x zeta_ab(-x) . diag_x phi_ab(-sigma(x), 0)^-1
    """
    ctx = t.ctx
    G, q, m = ctx.G, ctx.quotient, ctx.m
    reps = q.reps()
    nq = len(reps)
    d = t.fiber_dim
    idx = {z: i for i, z in enumerate(reps)}
    eye_d = np.eye(d, dtype=complex)
    out = {}
    for e in t.nerve.edges:
        gab = t.g.edge_values[e]
        P = perm_matrix(nq, lambda j: idx[q.sub_(reps[j], gab)])
        B = block_diag([t.zeta[e][q.neg(x)] for x in reps])
        # phi_ab(-sigma(x), 0) as m-th roots; column 0 is the zero coset
        d2 = np.exp(2j * np.pi * c.phi[e][ctx.neg[ctx.lift], 0] / m)
        right = np.kron(P, eye_d) @ B @ np.kron(np.diag(d2.conj()), eye_d)
        # d1[z^, x] = <sigma^(g^_ab + z^), sigma(x + g_ab) - sigma(x)>
        arg = ctx.lift_hat[ctx.shift_hat[ctx.Gd.index(ghat.edge_values[e])]]
        step = ctx.sub[ctx.lift[ctx.shift[G.index(gab)]], ctx.lift]
        d1 = np.repeat(ctx.phases[arg[:, None], step], d, axis=1)
        out[e] = {zhat: d1[k][:, None] * right
                  for k, zhat in enumerate(ctx.dual_quotient.reps())}
    return out


def dual_decker(ctx: DualityContext, legs: tuple[int, ...]) -> dict:
    """mu^(chi, z^) = diag_x <chi, -sigma(x)> tensor identity; vertex independent."""
    diags = np.repeat(ctx.phases[:, ctx.lift].conj(), int(np.prod(legs)), axis=1)
    mats = diags[:, :, None] * np.eye(diags.shape[1])
    return {(chi, zhat): mats[i] for i, chi in enumerate(ctx.Gd.elements())
            for zhat in ctx.dual_quotient.reps()}


def dual_phi_closed_form(ctx: DualityContext, gab: GroupElement,
                         ghat_ab: GroupElement, chi: GroupElement,
                         zhat: GroupElement) -> QZ:
    """phi^_ab(chi, z^)^-1 = <s(z^+g^+chiNp) - chi - s(z^+g^), -sigma(g_ab)>."""
    dq = ctx.dual_quotient
    sigma, sigma_hat = ctx.sigma, ctx.sigma_hat
    base = dq.add(zhat, ghat_ab)
    lift_shift = sigma_hat(dq.add(base, dq.rep(chi)))
    lhs = ctx.Gd.sub(ctx.Gd.sub(lift_shift, chi), sigma_hat(base))
    inv = pairing(ctx.G, lhs, ctx.G.neg(sigma(gab)))
    return -inv


def dualize(t: TripleLocalData, c: Optional[TotalTwoCocycle] = None,
            verify: bool = True) -> TripleLocalData:
    """The dual triple over (G^, N-perp) with fiber L^2(G/N) x old fiber.

    With verify on, the projective dual Cech law and the dual decker law
    (against its closed-form scalar defect) are asserted within tau_u.
    """
    if c is None:
        c = extract_total_cocycle(t)
    ghat = dual_base_cocycle(t, c)
    zeta_hat = dual_transitions(t, c, ghat)
    ctx_d = t.ctx.dual()
    mu_hat_tab = dual_decker(t.ctx, t.legs)
    mu_hat = {v[0]: mu_hat_tab for v in t.nerve.vertices}
    legs = (t.ctx.quotient.order,) + t.legs
    out = TripleLocalData(t.nerve, ctx_d, legs, ghat, zeta_hat, mu_hat,
                          t.tau_s, t.tau_u, gauge=None)
    if verify:
        rep = dual_law_report(t, out)
        if rep["dual_cech_law"] > t.tau_u:
            raise InvalidTripleError(
                f"dual transitions violate the twisted cocycle law "
                f"({rep['dual_cech_law']:.3e} > {t.tau_u:g})")
        if rep["dual_decker_law"] > t.tau_u:
            raise InvalidTripleError(
                f"dual decker defect deviates from its closed form "
                f"({rep['dual_decker_law']:.3e} > {t.tau_u:g})")
    return out


def dual_law_report(t: TripleLocalData, t_hat: TripleLocalData,
                    c_hat: Optional[TotalTwoCocycle] = None) -> dict:
    """Residuals of the dual-side laws, plus the closed-form check for phi^."""
    ctx = t.ctx
    Gd, dq, shift = ctx.Gd, ctx.dual_quotient, t_hat.ctx.shift
    Zh, Muh = _tables(t_hat)
    res_cech = 0.0
    for a, b, c in t.nerve.simplices(2):
        moved = shift[Gd.index(t_hat.g.edge_values[(b, c)])]
        mats = adjoint(Zh[(a, c)]) @ Zh[(a, b)][moved] @ Zh[(b, c)]
        res_cech = max(res_cech, scalar_deviation(mats))
    res_decker = 0.0
    res_phi_form = 0.0
    for (a, b), Ze in Zh.items():
        gab, ghat_ab = t.g.edge_values[(a, b)], t_hat.g.edge_values[(a, b)]
        lhs = adjoint(Ze[shift]) @ Muh[a][:, shift[Gd.index(ghat_ab)]] @ Ze
        phase = np.empty(shift.shape, dtype=complex)
        for ichi, chi in enumerate(Gd.elements()):
            for iz, zhat in enumerate(dq.reps()):
                want = dual_phi_closed_form(ctx, gab, ghat_ab, chi, zhat)
                phase[ichi, iz] = unit_phase(-want)
                if c_hat is not None and QZ.of(int(c_hat.phi[(a, b)][ichi, iz]),
                                               ctx.m) != want:
                    res_phi_form = 1.0
        rhs = Muh[b] * phase[:, :, None, None]
        res_decker = max(res_decker, float(np.max(np.abs(lhs - rhs))))
    # periodicity of mu^ in chi by N-perp: defect is the diagonal <nperp, -sigma(_)>
    res_periodic = 0.0
    M = Muh[t.nerve.vertices[0][0]]
    for nperp in ctx.Nperp.elements():
        want = np.diag(np.repeat(ctx.phases[Gd.index(nperp), ctx.lift].conj(),
                                 t.fiber_dim))
        got = M[Gd.add_table()[:, Gd.index(nperp)]] @ adjoint(M)
        res_periodic = max(res_periodic, float(np.max(np.abs(got - want))))
    return {
        "dual_cech_law": res_cech,
        "dual_decker_law": res_decker,
        "dual_phi_closed_form": res_phi_form,
        "dual_mu_periodicity": res_periodic,
    }


# ---------------------------------------------------------------------------
# certificates and the involution

def cocycle_certificate(c1: TotalTwoCocycle, c2: TotalTwoCocycle) -> Optional[TotalCochain]:
    """A degree-1 total cochain x with d_tot(x) = c2 - c1, or None."""
    ctx = c1.ctx
    target = c2.to_total_cochain() - c1.to_total_cochain()
    return solve_total_coboundary(c1.nerve, ctx.G, ctx.quotient, ctx.m, c1.g, target)


def involution_report(t: TripleLocalData, c: TotalTwoCocycle,
                      t_hat: TripleLocalData, c_hat: TotalTwoCocycle) -> dict:
    """verify_involution from a normalised t, its dual t_hat and their cocycles.

    Dualises t_hat again; checks the base cocycle returns exactly and certifies
    the double dual's scalar cocycle against c by an exactly re-checked coboundary."""
    report = dual_law_report(t, t_hat, c_hat)
    report["dual_omega_zero"] = 0.0 if c_hat.omega_is_zero() else 1.0
    t_dd = dualize(t_hat, c_hat)
    c_dd = extract_total_cocycle(t_dd)
    same_base = all(
        t_dd.g.edge_values[e] == t.g.edge_values[e] for e in t.nerve.edges
    )
    report["double_dual_base_equals_original"] = 0.0 if same_base else 1.0
    cert = cocycle_certificate(c, c_dd)
    report["double_dual_class_certificate"] = 0.0 if cert is not None else 1.0
    if cert is not None:
        # re-check the certificate exactly
        target = c_dd.to_total_cochain() - c.to_total_cochain()
        back = total_differential(cert, t.g)
        report["certificate_residual"] = 0.0 if (back - target).is_zero() else 1.0
        report["certificate"] = cert
    return report


def verify_involution(t: TripleLocalData) -> dict:
    """Dualise twice; check the base cocycle returns exactly and the scalar
    cocycle classes agree via an explicit coboundary certificate."""
    t = make_dualisable(t)
    c = extract_total_cocycle(t)
    t_hat = dualize(t, c)
    return involution_report(t, c, t_hat, extract_total_cocycle(t_hat))


# ---------------------------------------------------------------------------
# the Poincare phase and its checks

def kappa_phase(ctx: DualityContext, z: GroupElement, zhat: GroupElement,
                sigma: Optional[Section] = None,
                sigma_hat: Optional[Section] = None) -> np.ndarray:
    """Diagonal of <sigma^(z^), sigma(x - z) - sigma(x)> over x in G/N."""
    q = ctx.quotient
    sg = ctx.lift if sigma is None else np.array([ctx.G.index(sigma(x)) for x in q.reps()])
    sh = sigma_hat if sigma_hat is not None else ctx.sigma_hat
    x_minus_z = ctx.shift[ctx.neg[ctx.lift[q.index(z)]]]
    return ctx.phases[ctx.Gd.index(sh(zhat)), ctx.sub[sg[x_minus_z], sg]]


def kappa_hat_phase(ctx: DualityContext, z: GroupElement, zhat: GroupElement) -> np.ndarray:
    """Diagonal of <sigma^(y - z^) - sigma^(y), sigma(z)> over y in G^/N-perp."""
    lh = ctx.lift_hat
    y_minus_zhat = ctx.shift_hat[ctx.neg[lh[ctx.dual_quotient.index(zhat)]]]
    return ctx.phases[ctx.sub[lh[y_minus_zhat], lh], ctx.lift[ctx.quotient.index(z)]]


def poincare_check(ctx: DualityContext, seed: int = 0) -> dict:
    """Three checks on the Poincare phase kappa.

    (a) changing sigma^ only multiplies kappa by a fiberwise constant;
    (b) kappa tensor kappa-hat is implemented by an explicit unitary word
        in translations and pairing diagonals;
    (c) the product of the two transition families is exactly the Cech
        coboundary of <s^_a(..), s_c(_)>, in Q/Z.
    """
    q, dq = ctx.quotient, ctx.dual_quotient
    G, Gd = ctx.G, ctx.Gd
    sigma, sigma_hat = ctx.sigma, ctx.sigma_hat
    sigma2 = make_section(G, ctx.N, "random", seed=seed + 1, quotient=q)
    sigma_hat2 = make_section(Gd, ctx.Nperp, "random", seed=seed + 2, quotient=dq)

    # (a) sigma^-independence: ratio constant along the fiber, exactly
    res_a = 0.0
    for z in q.reps():
        for zhat in dq.reps():
            vals = [
                ctx.pair(Gd.sub(sigma_hat(zhat), sigma_hat2(zhat)),
                         G.sub(sigma(q.sub_(x, z)), sigma(x)))
                for x in q.reps()
            ]
            if any(v != vals[0] for v in vals):
                res_a = 1.0

    # (b) unitary implementation of kappa tensor kappa-hat
    nq, nd = len(q.reps()), len(dq.reps())
    qidx = {x: i for i, x in enumerate(q.reps())}
    didx = {y: i for i, y in enumerate(dq.reps())}
    mvals = ctx.phases[np.ix_(ctx.lift_hat, ctx.lift)].T
    M = np.diag(mvals.reshape(-1))           # multiplication by <s^(y), s(x)>
    res_b = 0.0
    for z in q.reps():
        for zhat in dq.reps():
            lam = np.kron(
                perm_matrix(nq, lambda j: qidx[q.add(q.reps()[j], z)]),
                np.eye(nd, dtype=complex))
            lam_hat = np.kron(
                np.eye(nq, dtype=complex),
                perm_matrix(nd, lambda j: didx[dq.add(dq.reps()[j], zhat)]))
            W = lam_hat @ lam @ M.conj() @ adjoint(lam_hat) @ M \
                @ adjoint(lam) @ lam_hat @ M @ adjoint(lam_hat) @ M.conj()
            target = np.kron(np.diag(kappa_phase(ctx, z, zhat)),
                             np.eye(nd, dtype=complex)) \
                @ np.kron(np.eye(nq, dtype=complex),
                          np.diag(kappa_hat_phase(ctx, z, zhat)))
            res_b = max(res_b, scalar_deviation(adjoint(target) @ W))

    # (c) [Q]+[R] = 0: nu_cd . nu-perp_ab = delta(<s^_a(..), s_c(_)>) exactly
    res_c = 0.0
    s_c, s_d = sigma, sigma2
    sh_a, sh_b = sigma_hat, sigma_hat2
    for z in q.reps():
        n_cd = G.sub(s_d(z), s_c(z))
        if n_cd not in ctx.N:
            res_c = 1.0
            continue
        for zhat in dq.reps():
            nperp_ab = Gd.sub(sh_b(zhat), sh_a(zhat))
            if nperp_ab not in ctx.Nperp:
                res_c = 1.0
                continue
            lhs = ctx.pair(sh_a(zhat), n_cd) + ctx.pair(nperp_ab, s_d(z))
            rhs = ctx.pair(sh_b(zhat), s_d(z)) - ctx.pair(sh_a(zhat), s_c(z))
            if lhs != rhs:
                res_c = 1.0
    return {"sigma_hat_independence": res_a,
            "kappa_unitary_word": res_b,
            "q_plus_r_coboundary": res_c}


# ---------------------------------------------------------------------------
# the local topologicalisation map

def build_kappa_top(t: TripleLocalData, t_hat: TripleLocalData) -> tuple[dict, dict]:
    """Per-vertex unitaries kappa_i(z, z^) and their gluing report.

    kappa_i(z, z^) = (kappa-phase(z, z^) tensor 1) mu_i(-sigma(_), z)^-1
                     (translation-by-z tensor 1),
    glued by  kappa_a(g_ab + z, g^_ab + z^) zeta^_ab(z^) kappa_b(z, z^)^-1
            = alpha^-1 (1 tensor zeta_ab(z))  with
    alpha_ab(z, z^) = <s^(g^_ab + z^) - s^(z^), sigma(z)> . (z^-independent).
    """
    ctx = t.ctx
    q, dq = ctx.quotient, ctx.dual_quotient
    G = ctx.G
    reps = q.reps()
    nq = len(reps)
    d = t.fiber_dim
    idx = {z: i for i, z in enumerate(reps)}
    eye_d = np.eye(d, dtype=complex)
    sigma = ctx.sigma

    kappa = {}
    for v in t.nerve.vertices:
        i = v[0]
        tab = {}
        for z in reps:
            Pz = np.kron(perm_matrix(nq, lambda j: idx[q.add(reps[j], z)]), eye_d)
            Bi = block_diag([t.mu[i][(G.neg(sigma(x)), z)] for x in reps])
            for zhat in dq.reps():
                D = np.kron(np.diag(kappa_phase(ctx, z, zhat)), eye_d)
                tab[(z, zhat)] = D @ adjoint(Bi) @ Pz
        kappa[i] = tab

    res_glue = 0.0
    res_alpha = 0.0
    eye_q = np.eye(nq, dtype=complex)
    for e in t.nerve.edges:
        a, b = e
        gab = t.g.edge_values[e]
        ghat_ab = t_hat.g.edge_values[e]
        alphas = np.zeros((nq, len(dq.reps())), dtype=complex)
        for iz, z in enumerate(reps):
            for izh, zhat in enumerate(dq.reps()):
                lhs = kappa[a][(q.add(gab, z), dq.add(ghat_ab, zhat))] \
                    @ t_hat.zeta[e][zhat] @ adjoint(kappa[b][(z, zhat)])
                target = np.kron(eye_q, t.zeta[e][z])
                M = lhs @ adjoint(target)
                res_glue = max(res_glue, scalar_deviation(M))
                s = complex(np.trace(M)) / M.shape[0]
                alphas[iz, izh] = 1.0 / s          # alpha = inverse defect
        # alpha factorisation against beta(z, z^) = <s^(g^_ab + z^) - s^(z^), sigma(z)>,
        # with the z^-independent part fitted at z^ = 0 (column 0)
        moved = ctx.lift_hat[ctx.shift_hat[ctx.Gd.index(ghat_ab)]]
        beta = ctx.phases[ctx.sub[moved, ctx.lift_hat]][:, ctx.lift].T
        const = alphas[:, :1] / beta[:, :1]
        res_alpha = max(res_alpha, float(np.max(np.abs(alphas - beta * const))))
    return kappa, {"kappa_top_gluing": res_glue, "alpha_factorisation": res_alpha}


# ---------------------------------------------------------------------------
# exterior equivalence

def exterior_perturbation(t: TripleLocalData, seed: int = 0) -> TripleLocalData:
    """An exterior-equivalent triple: mu_i -> mu_i c_i with a valid c-family.

    The family is built from a constant unitary transported through the
    fixture's chart gauges, so the compatibility and cocycle conditions
    hold by construction.  Requires a generated fixture (gauge present).
    """
    if t.gauge is None:
        raise InvalidTripleError("exterior perturbation needs fixture gauge data")
    ctx = t.ctx
    G, q = ctx.G, ctx.quotient
    rng = np.random.default_rng(seed)
    V = _random_unitary(rng, t.fiber_dim)
    vfam = {
        i: {z: adjoint(w[z]) @ V @ w[z] for z in q.reps()}
        for i, w in t.gauge.items()
    }
    mu = {}
    for i, tab in t.mu.items():
        new = {}
        for (gg, z), U in tab.items():
            zg = q.add(z, q.rep(gg))
            c_i = adjoint(U) @ vfam[i][zg] @ U @ adjoint(vfam[i][z])
            new[(gg, z)] = U @ c_i
        mu[i] = new
    return t.copy_with_mu(mu)


def exterior_family_residuals(t: TripleLocalData, t2: TripleLocalData) -> dict:
    """Residuals of the compatibility laws for c_i = mu_i^-1 mu'_i."""
    ctx = t.ctx
    shift, add = ctx.shift, ctx.G.add_table()
    Z, Mu = _tables(t)
    Mu2 = _tables(t2)[1]
    C = {i: adjoint(M) @ Mu2[i] for i, M in Mu.items()}
    res_e1 = 0.0
    for (a, b), Ze in Z.items():
        moved = shift[ctx.G.index(t.g.edge_values[(a, b)])]
        rhs = Ze @ C[b] @ adjoint(Ze)
        res_e1 = max(res_e1, float(np.max(np.abs(C[a][:, moved] - rhs))))
    hs = np.arange(len(add))[:, None]
    res_e2 = max(float(np.max(np.abs(
        C[i][add[:, g]] - adjoint(M[g]) @ C[i][hs, shift[g]] @ M[g] @ C[i][g])))
        for i, M in Mu.items() for g in range(len(add)))
    return {"exterior_e1": res_e1, "exterior_e2": res_e2}


def relift(t: TripleLocalData, seed: int = 0) -> TripleLocalData:
    """Multiply zeta and mu by fresh random m-th-root scalars.

    The underlying projective triple is unchanged; the extracted scalar
    cocycle moves by an exact coboundary.
    """
    ctx = t.ctx
    rng = np.random.default_rng(seed)
    m = ctx.m
    zeta = {}
    for e, tab in t.zeta.items():
        zeta[e] = {z: U * ctx.qz_phase(int(rng.integers(0, m)))
                   for z, U in tab.items()}
    mu = {}
    for i, tab in t.mu.items():
        new = {}
        for (gg, z), U in tab.items():
            k = int(rng.integers(0, m)) if gg != ctx.G.zero() else 0
            new[(gg, z)] = U * ctx.qz_phase(k)
        mu[i] = new
    return TripleLocalData(t.nerve, ctx, t.legs, t.g, zeta, mu,
                           t.tau_s, t.tau_u, t.gauge)
