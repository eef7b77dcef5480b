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

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .cech import Nerve, TwistCocycle, r_conjugate_twist
from .errors import InvalidTripleError
from .groupcoh import (
    GroupCochain,
    GroupCochainSpace,
    TotalCochain,
    d_group,
    group_complex,
    solve_total_coboundary,
    total_differential,
)
from .lca import (
    FiniteLcaGroup,
    QuotientGroup,
    Section,
    Subgroup,
    annihilator,
    dual_group,
    make_section,
)
from .linops import (
    adjoint,
    block_diag,
    perm_matrix,
    scalar_deviation,
    scalar_part,
    scalar_stack,
    snap_phase,
)
from .zmodlin import Complex

TAU_S = 1e-6   # scalarness / snapping tolerance
TAU_U = 1e-9   # operator identity tolerance


class DualityContext:
    """Groups, quotients, annihilators and sections shared by one run.

    Holds (G, N, G/N) together with the dual side (G^, N-perp, G^/N-perp)
    and the two sections sigma, sigma_hat.  dual() swaps the two sides;
    applying it twice returns to identical data, which is what makes the
    double-dual comparison exact.  A dual holds its origin; the origin
    holds its dual weakly, so neither waits for the cyclic collector.
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
        self._dual = lambda: None   # the dual, or None until it is made

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
        return self.G.neg_table()

    @cached_property
    def sub(self) -> np.ndarray:
        """sub[g, h] = position of g - h."""
        return self.G.add_table()[:, self.neg]

    @cached_property
    def group_complex(self) -> Complex:
        """G's complex on Fun(G/N, Z/m); normalising and the point-nerve check share it."""
        return group_complex(self.G, self.quotient, self.m)

    @property
    def coset(self) -> np.ndarray:
        """coset[g] = position of g + N among quotient.reps()."""
        return self.quotient.coset

    @property
    def coset_hat(self) -> np.ndarray:
        """coset_hat[chi] = position of chi + N-perp among dual_quotient.reps()."""
        return self.dual_quotient.coset

    @cached_property
    def shift(self) -> np.ndarray:
        """shift[g, z] = position of z + gN (coset addition)."""
        return self.quotient.add_table()[self.coset]

    @cached_property
    def shift_hat(self) -> np.ndarray:
        """shift_hat[chi, z^] = position of z^ + chi N-perp."""
        return self.dual_quotient.add_table()[self.coset_hat]

    @property
    def lift(self) -> np.ndarray:
        """lift[z] = position of sigma(z)."""
        return self.sigma.lift

    @property
    def lift_hat(self) -> np.ndarray:
        """lift_hat[z^] = position of sigma_hat(z^)."""
        return self.sigma_hat.lift

    def qz_phases(self, k) -> np.ndarray:
        """exp(2 pi i k/m) for each entry of the integer array k, formed as
        linops.unit_phase forms it from the reduced fraction num/den of k/m
        (from k/m unreduced, or times 1/m, the last bit can differ)."""
        num = np.asarray(k, dtype=np.int64) % self.m
        g = np.gcd(num, self.m)
        return np.exp(1j * (2 * np.pi * (num // g) / (self.m // g)))

    def dual(self) -> "DualityContext":
        d = self._dual()
        if d is None:
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
            d._dual = lambda: self          # a dual holds its origin,
            self._dual = weakref.ref(d)     # which holds it weakly
        return d

    def __repr__(self) -> str:
        return f"DualityContext(G={self.G}, |N|={self.N.order}, m={self.m})"


@dataclass
class TripleLocalData:
    """Per-chart data (g, zeta, mu) of a dynamical triple on a nerve.

    zeta maps each sorted edge to a (q, dim, dim) array of unitaries and mu
    maps each vertex to an (n, q, dim, dim) array, on the positions of
    ctx.G.elements() and ctx.quotient.reps(); position 0 is the zero element.
    legs records the tensor factorisation of the fiber (duals prepend an
    L^2(G/N)-leg).  gauge keeps the (q, dim, dim) chart unitaries of generated
    fixtures per vertex, used to build exterior perturbations.
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
    n, nq = ctx.shift.shape
    eye = np.eye(d, dtype=complex)
    g = TwistCocycle.trivial(nerve, ctx.quotient)
    zeta = {e: np.tile(eye, (nq, 1, 1)) for e in nerve.edges}
    mu = {v[0]: np.tile(eye, (n, nq, 1, 1)) for v in nerve.vertices}
    gauge = {v[0]: np.tile(eye, (nq, 1, 1)) for v in nerve.vertices}
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
    n, nq = ctx.shift.shape
    shift, lift, qadd, qneg = ctx.shift, ctx.lift, q.add_table(), q.neg_table()

    # twist: supplied class representative plus a random coboundary
    minus_r = {v[0]: qneg[int(rng.integers(0, nq))] for v in nerve.vertices}
    g = r_conjugate_twist(twist or TwistCocycle.trivial(nerve, q), minus_r)

    # chart gauges and the exactly multiplicative model cocycle
    gauge = {v[0]: np.array([_random_unitary(rng, d) for _ in range(nq)])
             for v in nerve.vertices}

    def rand_char() -> int:
        return int(G.flat([int(rng.integers(0, f)) for f in G.factors]))

    chars = [rand_char() for _ in range(d)]
    chi0 = rand_char()
    beta0 = rand_char()
    # <chi, g> as k/m, and the section defect n(g, z) = g + sigma(z) - sigma(z + gN) in N
    pair = G.pairing_table() * (m // G.exponent)
    defect = ctx.sub[G.add_table()[:, lift], lift[shift]]
    diags = ctx.qz_phases(pair[chars].T)
    scalar = ctx.qz_phases(pair[chi0][:, None] + pair[beta0][defect])
    model = scalar[:, :, None, None] * np.array([np.diag(row) for row in diags])[:, None]

    # scalar perturbations: nu on vertices (g, z), zero at g = 0; s on edges (z)
    mu = {}
    for i, w in gauge.items():
        nu = [[int(rng.integers(0, m)) if gg else 0 for _ in range(nq)] for gg in range(n)]
        mu[i] = ctx.qz_phases(nu)[:, :, None, None] * adjoint(w[shift]) @ model @ w
    zeta = {}
    for (a, b) in nerve.edges:
        s_edge = ctx.qz_phases([int(rng.integers(0, m)) for _ in range(nq)])
        moved = qadd[g.labels[(a, b)]]
        zeta[(a, b)] = s_edge[:, None, None] * adjoint(gauge[a][moved]) @ gauge[b]
    return TripleLocalData(nerve, ctx, (d,), g, zeta, mu, gauge=gauge)


def validate_triple(t: TripleLocalData) -> dict:
    """Largest residuals of the structural laws (unitarity, both cocycle laws)."""
    ctx = t.ctx
    shift, add, qadd = ctx.shift, ctx.G.add_table(), ctx.quotient.add_table()
    Z, Mu = t.zeta, t.mu
    eye = np.eye(t.fiber_dim)
    uni = max(float(np.max(np.abs(adjoint(U) @ U - eye)))
              for U in (*Z.values(), *Mu.values()))
    decker = 0.0
    for (a, b), Ze in Z.items():
        moved = qadd[t.g.labels[(a, b)]]
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
    m = ctx.m
    shift, add, qadd = ctx.shift, ctx.G.add_table(), ctx.quotient.add_table()
    Z, Mu = t.zeta, t.mu

    def snap(mats: np.ndarray) -> np.ndarray:
        return _snap_stack(mats, m, t.tau_s)

    psi = {}
    for s in t.nerve.simplices(2):
        a, b, c = s
        moved = qadd[t.g.labels[(b, c)]]
        psi[s] = snap(adjoint(Z[(a, c)]) @ Z[(a, b)][moved] @ Z[(b, c)])

    phi = {}
    for e in t.nerve.edges:
        a, b = e
        moved = qadd[t.g.labels[e]]
        phi[e] = snap(Mu[b] @ adjoint(Z[e]) @ adjoint(Mu[a][:, moved]) @ Z[e][shift])

    # omega at (g, h, z) for all g at once: |G|^2 q d^2 entries, bounded by
    # cap d^2 where normalising is capped (|G|^2 q <= TDUAL_MAX_DIM, in the CLI)
    hs = np.arange(len(add))[:, None]
    omega = {i: snap(M[:, None] @ adjoint(M[add]) @ M[hs, shift[:, None, :]])
             for i, M in Mu.items()}

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
    B = np.stack([om.reshape(-1) for om in c.omega.values()], axis=1)
    X, ok = ctx.group_complex.solve(1, B)
    if not ok.all():
        return None
    return {i: X[:, j].reshape(ctx.G.order, -1) for j, i in enumerate(c.omega)}


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
    dnu = d_group(GroupCochain(sp1, np.stack([nu[i] for i in c.omega], axis=-1))).values
    for j, (i, om) in enumerate(c.omega.items()):
        if not np.array_equal(dnu[..., j], om % m):
            raise InvalidTripleError(f"nu does not solve d(nu) = omega at vertex {i}")
    mu = {i: M * ctx.qz_phases(-nu[i])[:, :, None, None] for i, M in t.mu.items()}
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

def dual_base_cocycle(t: TripleLocalData, c: TotalTwoCocycle) -> TwistCocycle:
    """Edge cocycle g^ of the dual bundle: <g^_ab, n> = -phi_ab(n, z) on N.

    phi_ab(n, z) must be constant in z.  g^_ab is found by one search of the
    pairing table: the characters with <chi, n> = -phi_ab(n, 0) on all of N
    form one N-perp coset, which is g^_ab.  Finding none means -phi_ab is
    not a character of N.
    """
    ctx = t.ctx
    G, m = ctx.G, ctx.m
    if not c.omega_is_zero():
        raise InvalidTripleError("dual base cocycle needs omega = 0 (normalise first)")
    npos = ctx.N.positions
    pair = G.pairing_table()[:, npos] * (m // G.exponent)              # <chi, n> as k/m
    labels = {}
    for e in t.nerve.edges:
        tab = c.phi[e][npos]
        bad = np.flatnonzero(np.any(tab != tab[:, :1], axis=1))
        if bad.size:
            raise InvalidTripleError(
                f"phi({G.elements()[npos[bad[0]]]}, .) is not constant "
                f"on the fiber over edge {e}")
        hits = np.flatnonzero(np.all((pair + tab[:, 0]) % m == 0, axis=1))
        if not hits.size:
            raise InvalidTripleError(f"-phi on edge {e} is not a character of N")
        labels[e] = ctx.coset_hat[hits[0]]
    return TwistCocycle.from_labels(t.nerve, ctx.dual_quotient, labels)


def dual_transitions(t: TripleLocalData, c: TotalTwoCocycle,
                     ghat: TwistCocycle) -> dict:
    """Unitary transitions of the dual pair on the enlarged fiber L^2(G/N) x fiber.

    zeta^_ab(z^) = kappa-phase(-g_ab, g^_ab + z^) . translation(-g_ab)
                   . blockdiag_x zeta_ab(-x) . diag_x phi_ab(-sigma(x), 0)^-1
    """
    ctx = t.ctx
    nq, d = ctx.quotient.order, t.fiber_dim
    eye_d = np.eye(d, dtype=complex)
    neg_x = ctx.quotient.neg_table()
    out = {}
    for e in t.nerve.edges:
        ig = ctx.lift[t.g.labels[e]]                                # in the g_ab coset
        P = perm_matrix(nq, ctx.shift[ctx.neg[ig]].__getitem__)     # x -> x - g_ab
        B = block_diag(t.zeta[e][neg_x])
        # phi_ab(-sigma(x), 0) as m-th roots; column 0 is the zero coset
        d2 = np.exp(2j * np.pi * c.phi[e][ctx.neg[ctx.lift], 0] / ctx.m)
        right = np.kron(P, eye_d) @ B @ np.kron(np.diag(d2.conj()), eye_d)
        # d1[z^, x] = <sigma^(g^_ab + z^), sigma(x + g_ab) - sigma(x)>
        arg = ctx.lift_hat[ctx.dual_quotient.add_table()[ghat.labels[e]]]
        step = ctx.sub[ctx.lift[ctx.shift[ig]], ctx.lift]
        d1 = np.repeat(ctx.phases[arg[:, None], step], d, axis=1)
        out[e] = d1[:, :, None] * right
    return out


def dual_decker(ctx: DualityContext, legs: tuple[int, ...]) -> np.ndarray:
    """mu^(chi, z^) = diag_x <chi, -sigma(x)> tensor identity, as an (n, q^, D, D)
    table; vertex independent and constant in z^."""
    diags = np.repeat(ctx.phases[:, ctx.lift].conj(), int(np.prod(legs)), axis=1)
    mats = diags[:, :, None] * np.eye(diags.shape[1])
    return np.repeat(mats[:, None], ctx.dual_quotient.order, axis=1)


def dual_phi_closed_form(ctx: DualityContext, gab: int, ghat_ab: int) -> np.ndarray:
    """phi^_ab(chi, z^) as an (n, q^) Z/m table, from its inverse
    <s^(z^+g^+chiNp) - chi - s^(z^+g^), -sigma(g_ab)>; gab and ghat_ab are
    the positions of g_ab in quotient.reps() and of g^_ab in dual_quotient.reps()."""
    base = ctx.dual_quotient.add_table()[ghat_ab]                      # z^ + g^
    chi = np.arange(ctx.Gd.order)[:, None]
    lhs = ctx.sub[ctx.sub[ctx.lift_hat[ctx.shift_hat[:, base]], chi], ctx.lift_hat[base]]
    inv = ctx.G.pairing_table()[lhs, ctx.neg[ctx.lift[gab]]]
    return -inv * (ctx.m // ctx.G.exponent) % ctx.m


def dualize(t: TripleLocalData, c: Optional[TotalTwoCocycle] = None) -> TripleLocalData:
    """The dual triple over (G^, N-perp) with fiber L^2(G/N) x old fiber.

    The projective dual Cech law and the dual decker law (against its
    closed-form scalar defect) are asserted within tau_u.
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
    Gd, shift, dqadd = ctx.Gd, t_hat.ctx.shift, ctx.dual_quotient.add_table()
    Zh, Muh = t_hat.zeta, t_hat.mu
    res_cech = 0.0
    for a, b, c in t.nerve.simplices(2):
        moved = dqadd[t_hat.g.labels[(b, c)]]
        mats = adjoint(Zh[(a, c)]) @ Zh[(a, b)][moved] @ Zh[(b, c)]
        res_cech = max(res_cech, scalar_deviation(mats))
    res_decker = 0.0
    res_phi_form = 0.0
    for (a, b), Ze in Zh.items():
        ighat = t_hat.g.labels[(a, b)]
        lhs = adjoint(Ze[shift]) @ Muh[a][:, dqadd[ighat]] @ Ze
        want = dual_phi_closed_form(ctx, t.g.labels[(a, b)], ighat)
        if c_hat is not None and np.any(c_hat.phi[(a, b)] % ctx.m != want):
            res_phi_form = 1.0
        rhs = Muh[b] * ctx.qz_phases(-want)[:, :, None, None]
        res_decker = max(res_decker, float(np.max(np.abs(lhs - rhs))))
    # periodicity of mu^ in chi by N-perp: defect is the diagonal <nperp, -sigma(_)>
    res_periodic = 0.0
    M = Muh[t.nerve.vertices[0][0]]
    for nperp in ctx.Nperp.positions:
        want = np.diag(np.repeat(ctx.phases[nperp, ctx.lift].conj(), t.fiber_dim))
        got = M[Gd.add_table()[:, nperp]] @ adjoint(M)
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


def involution_report(t: TripleLocalData, c: TotalTwoCocycle, c_hat: TotalTwoCocycle,
                      t_dd: TripleLocalData, c_dd: TotalTwoCocycle,
                      cert: Optional[TotalCochain]) -> dict:
    """The involution checks on a normalised t with cocycle c, its dual's cocycle
    c_hat, its double dual t_dd with cocycle c_dd, and cert, a cochain with
    d_tot(cert) = c_dd - c (None if there is none).

    Checks the base cocycle returns exactly and re-checks the certificate
    exactly.  The dual-side laws of (t, t_hat) are dual_law_report's."""
    report = {"dual_omega_zero": 0.0 if c_hat.omega_is_zero() else 1.0}
    same_base = t_dd.g.labels == t.g.labels
    report["double_dual_base_equals_original"] = 0.0 if same_base else 1.0
    report["double_dual_class_certificate"] = 0.0 if cert is not None else 1.0
    if cert is not None:
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
    c_hat = extract_total_cocycle(t_hat)
    t_dd = dualize(t_hat, c_hat)
    c_dd = extract_total_cocycle(t_dd)
    return {**dual_law_report(t, t_hat, c_hat),
            **involution_report(t, c, c_hat, t_dd, c_dd, cocycle_certificate(c, c_dd))}


# ---------------------------------------------------------------------------
# the Poincare phase and its checks

def kappa_phase(ctx: DualityContext) -> np.ndarray:
    """kappa[z, z^, x] = <sigma^(z^), sigma(x - z) - sigma(x)>, a (q, q^, q) table."""
    lift = ctx.lift
    step = ctx.sub[lift[ctx.shift[ctx.neg[lift]]], lift]              # [z, x]
    return ctx.phases[ctx.lift_hat[:, None], step[:, None, :]]


def kappa_hat_phase(ctx: DualityContext) -> np.ndarray:
    """kappa^[z, z^, y] = <sigma^(y - z^) - sigma^(y), sigma(z)>, a (q, q^, q^) table."""
    lh = ctx.lift_hat
    step = ctx.sub[lh[ctx.shift_hat[ctx.neg[lh]]], lh]                # [z^, y]
    return ctx.phases[step[None], ctx.lift[:, None, None]]


def _translation(ctx: DualityContext, iz: int, d: int) -> np.ndarray:
    """Translation by the z-th coset on L^2(G/N), tensor the identity on C^d."""
    nq = ctx.quotient.order
    return np.kron(perm_matrix(nq, ctx.shift[ctx.lift[iz]].__getitem__),
                   np.eye(d, dtype=complex))


def poincare_check(ctx: DualityContext, seed: int = 0) -> dict:
    """Three checks on the Poincare phase kappa.

    (a) changing sigma^ only multiplies kappa by a fiberwise constant;
    (b) kappa tensor kappa-hat is implemented by an explicit unitary word
        in translations and pairing diagonals;
    (c) the product of the two transition families is exactly the Cech
        coboundary of <s^_a(..), s_c(_)>, in Q/Z.
    """
    q, dq = ctx.quotient, ctx.dual_quotient
    G, sub, P = ctx.G, ctx.sub, ctx.G.pairing_table()
    lift, lift_hat = ctx.lift, ctx.lift_hat
    lift2 = make_section(G, ctx.N, "random", seed=seed + 1, quotient=q).lift
    lift_hat2 = make_section(ctx.Gd, ctx.Nperp, "random", seed=seed + 2, quotient=dq).lift

    # (a) sigma^-independence: <s^(z^) - s^2(z^), s(x - z) - s(x)> constant in x
    step = sub[lift[ctx.shift[ctx.neg[lift]]], lift]                  # [z, x]
    vals = P[sub[lift_hat, lift_hat2][None, :, None], step[:, None, :]]
    res_a = float(np.any(vals != vals[..., :1]))

    # (b) unitary implementation of kappa tensor kappa-hat
    nq, nd = q.order, dq.order
    kap, kap_hat = kappa_phase(ctx), kappa_hat_phase(ctx)
    mvals = ctx.phases[np.ix_(ctx.lift_hat, ctx.lift)].T
    M = np.diag(mvals.reshape(-1))           # multiplication by <s^(y), s(x)>
    res_b = 0.0
    for iz in range(nq):
        lam = _translation(ctx, iz, nd)
        for izh in range(nd):
            lam_hat = np.kron(
                np.eye(nq, dtype=complex),
                perm_matrix(nd, ctx.shift_hat[ctx.lift_hat[izh]].__getitem__))
            W = lam_hat @ lam @ M.conj() @ adjoint(lam_hat) @ M \
                @ adjoint(lam) @ lam_hat @ M @ adjoint(lam_hat) @ M.conj()
            target = np.kron(np.diag(kap[iz, izh]), np.eye(nd, dtype=complex)) \
                @ np.kron(np.eye(nq, dtype=complex), np.diag(kap_hat[iz, izh]))
            res_b = max(res_b, scalar_deviation(adjoint(target) @ W))

    # (c) [Q]+[R] = 0: nu_cd . nu-perp_ab = delta(<s^_a(..), s_c(_)>) exactly,
    # with s_c, s_d = sigma, sigma2 and s^_a, s^_b = sigma^, sigma^2
    n_cd = sub[lift2, lift]                                           # [z]
    nperp_ab = sub[lift_hat2, lift_hat]                               # [z^]
    lhs = P[lift_hat[:, None], n_cd] + P[nperp_ab[:, None], lift2]
    rhs = P[lift_hat2[:, None], lift2] - P[lift_hat[:, None], lift]
    ok = ((ctx.coset[n_cd] == ctx.coset[0])
          & (ctx.coset_hat[nperp_ab] == ctx.coset_hat[0])[:, None]
          & ((lhs - rhs) % G.exponent == 0))
    res_c = float(not ok.all())
    return {"sigma_hat_independence": res_a,
            "kappa_unitary_word": res_b,
            "q_plus_r_coboundary": res_c}


# ---------------------------------------------------------------------------
# the local topologicalisation map

def build_kappa_top(t: TripleLocalData, t_hat: TripleLocalData) -> tuple[dict, dict]:
    """Per-vertex unitaries kappa_i(z, z^), as (q, q^, D, D) tables, and their
    gluing report.

    kappa_i(z, z^) = (kappa-phase(z, z^) tensor 1) mu_i(-sigma(_), z)^-1
                     (translation-by-z tensor 1),
    glued by  kappa_a(g_ab + z, g^_ab + z^) zeta^_ab(z^) kappa_b(z, z^)^-1
            = alpha^-1 (1 tensor zeta_ab(z))  with
    alpha_ab(z, z^) = <s^(g^_ab + z^) - s^(z^), sigma(z)> . (z^-independent).
    """
    ctx = t.ctx
    nq, nd, d = ctx.quotient.order, ctx.dual_quotient.order, t.fiber_dim
    eye_d = np.eye(d, dtype=complex)
    kap = kappa_phase(ctx)
    P = [_translation(ctx, iz, d) for iz in range(nq)]
    D = [[np.kron(np.diag(kap[iz, izh]), eye_d) for izh in range(nd)] for iz in range(nq)]
    kappa = {}
    for v in t.nerve.vertices:
        M = t.mu[v[0]][ctx.neg[ctx.lift]]                             # mu_i(-sigma(x), z)
        B = [adjoint(block_diag(M[:, iz])) for iz in range(nq)]
        kappa[v[0]] = np.array([[D[iz][izh] @ B[iz] @ P[iz] for izh in range(nd)]
                                for iz in range(nq)])

    res_glue = 0.0
    res_alpha = 0.0
    eye_q = np.eye(nq, dtype=complex)
    for e in t.nerve.edges:
        a, b = e
        ig = ctx.lift[t.g.labels[e]]                                # in the g_ab coset
        igh = ctx.lift_hat[t_hat.g.labels[e]]                       # in the g^_ab coset
        alphas = np.zeros((nq, nd), dtype=complex)
        for iz in range(nq):
            target = np.kron(eye_q, t.zeta[e][iz])
            for izh in range(nd):
                lhs = kappa[a][ctx.shift[ig, iz], ctx.shift_hat[igh, izh]] \
                    @ t_hat.zeta[e][izh] @ adjoint(kappa[b][iz, izh])
                M = lhs @ adjoint(target)
                res_glue = max(res_glue, scalar_deviation(M))
                s = complex(np.trace(M)) / M.shape[0]
                alphas[iz, izh] = 1.0 / s          # alpha = inverse defect
        # alpha factorisation against beta(z, z^) = <s^(g^_ab + z^) - s^(z^), sigma(z)>,
        # with the z^-independent part fitted at z^ = 0 (column 0)
        moved = ctx.lift_hat[ctx.shift_hat[igh]]
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
    rng = np.random.default_rng(seed)
    V = _random_unitary(rng, t.fiber_dim)
    mu = {}
    for i, M in t.mu.items():
        w = t.gauge[i]
        vfam = adjoint(w) @ V @ w
        c_i = adjoint(M) @ vfam[t.ctx.shift] @ M @ adjoint(vfam)
        mu[i] = M @ c_i
    return t.copy_with_mu(mu)


def exterior_family_residuals(t: TripleLocalData, t2: TripleLocalData) -> dict:
    """Residuals of the compatibility laws for c_i = mu_i^-1 mu'_i."""
    ctx = t.ctx
    shift, add, qadd = ctx.shift, ctx.G.add_table(), ctx.quotient.add_table()
    C = {i: adjoint(M) @ t2.mu[i] for i, M in t.mu.items()}
    res_e1 = 0.0
    for (a, b), Ze in t.zeta.items():
        moved = qadd[t.g.labels[(a, b)]]
        rhs = Ze @ C[b] @ adjoint(Ze)
        res_e1 = max(res_e1, float(np.max(np.abs(C[a][:, moved] - rhs))))
    hs = np.arange(len(add))[:, None]
    res_e2 = max(float(np.max(np.abs(
        C[i][add[:, g]] - adjoint(M[g]) @ C[i][hs, shift[g]] @ M[g] @ C[i][g])))
        for i, M in t.mu.items() for g in range(len(add)))
    return {"exterior_e1": res_e1, "exterior_e2": res_e2}


def relift(t: TripleLocalData, seed: int = 0) -> TripleLocalData:
    """Multiply zeta and mu by fresh random m-th-root scalars (none on mu(0, _)).

    The underlying projective triple is unchanged; the extracted scalar
    cocycle moves by an exact coboundary.
    """
    ctx = t.ctx
    rng = np.random.default_rng(seed)
    m, (n, nq) = ctx.m, ctx.shift.shape
    zeta = {e: Z * ctx.qz_phases([int(rng.integers(0, m)) for _ in range(nq)])[:, None, None]
            for e, Z in t.zeta.items()}
    mu = {i: M * ctx.qz_phases([[int(rng.integers(0, m)) if g else 0 for _ in range(nq)]
                                for g in range(n)])[:, :, None, None]
          for i, M in t.mu.items()}
    return TripleLocalData(t.nerve, ctx, t.legs, t.g, zeta, mu,
                           t.tau_s, t.tau_u, t.gauge)
