import tracemalloc

import numpy as np
import pytest

from tdual import crossed
from tdual.cech import Nerve, TwistCocycle
from tdual.crossed import (
    conjugated_kernel,
    convolve,
    fourier_roundtrip_residual,
    involute,
    mu_is_cocycle,
    operator_norm,
    represent,
    section_family,
    t_linearized,
    t_periodicity_residual,
    t_transform,
    verify_gluing,
    verify_point_theorem,
)
from tdual.errors import InvalidTripleError, ResourceCapError
from tdual.lca import FiniteLcaGroup, Subgroup, pairing
from tdual.linops import adjoint, kron_stack, unit_phase
from tdual.triples import (
    DualityContext,
    HaarWeights,
    build_random_triple,
    dualize,
    extract_total_cocycle,
    make_dualisable,
    trivial_mu,
)


def ctx_for(factors, gens):
    G = FiniteLcaGroup(factors)
    N = Subgroup(G, [G.element(g) for g in gens])
    return DualityContext(G, N)


def _zero(ctx, d):
    return np.zeros((*ctx.shift.shape, d, d), complex)


def _random(ctx, d, rng):
    """A random element: real parts drawn first, then imaginary ones."""
    shape = (*ctx.shift.shape, d, d)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.fixture(scope="module")
def z4ctx():
    return ctx_for([4], [[2]])


@pytest.fixture(scope="module")
def z4mu(z4ctx):
    t = make_dualisable(build_random_triple(Nerve.circle(), z4ctx, d=2, seed=5))
    return t.mu[0]


class TestWeights:
    @pytest.mark.parametrize("factors,gens",
                             [([2], []), ([4], [[2]]), ([6], [[3]]), ([2, 2], [[1, 1]])])
    def test_fourier_inversion_and_weil(self, factors, gens):
        assert fourier_roundtrip_residual(ctx_for(factors, gens), seed=3) < 1e-12

    def test_values(self, z4ctx):
        w = z4ctx.haar
        assert isinstance(w, HaarWeights)
        assert float(w.w_G) == 0.5 and float(w.w_quot) == 0.5
        assert float(w.w_N) == 1.0 and float(w.w_dual) == 0.5


class TestContextTables:
    """The crossed product's tables live on the DualityContext, built once."""

    CROSSED_TABLES = ("quot", "dft", "dft_inv")

    def test_tables_are_read_only(self, z4ctx):
        for name in self.CROSSED_TABLES:
            table = getattr(z4ctx, name)
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 1.0

    @pytest.mark.parametrize("factors,gens", [([4], [[2]]), ([6], [[3]]), ([2, 4], [[1, 2]])])
    def test_dual_tables_match_a_fresh_context(self, factors, gens):
        ctx = ctx_for(factors, gens)
        dual = ctx.dual()
        fresh = DualityContext(ctx.Gd, ctx.Nperp, m=ctx.m,
                               sigma=ctx.sigma_hat, sigma_hat=ctx.sigma)
        assert dual.haar == fresh.haar
        for name in self.CROSSED_TABLES:
            assert np.array_equal(getattr(dual, name), getattr(fresh, name)), name
        chis = np.arange(ctx.Gd.order)
        assert np.array_equal(dual.lam(chis), fresh.lam(chis))

    def test_all_run_builds_tables_once_per_context(self, monkeypatch):
        from functools import cached_property

        from tdual.cli import Workspace, load_scenario, run_checks
        built = {name: [] for name in ("quot", "dft")}
        for name in built:
            build = DualityContext.__dict__[name].func

            def counted(self, _build=build, _name=name):
                built[_name].append(id(self))
                return _build(self)
            prop = cached_property(counted)
            prop.__set_name__(DualityContext, name)
            monkeypatch.setattr(DualityContext, name, prop)
        ws = Workspace(load_scenario("z6_circle"))
        assert all(r["passed"] for r in run_checks(ws, "all"))
        # the point and gluing checks read the run's context; nothing else builds one
        assert built["quot"] == [id(ws.ctx)]
        assert built["dft"] == [id(ws.ctx)]


class TestConvolutionAlgebra:
    def test_unit(self, z4ctx):
        ctx = z4ctx
        rng = np.random.default_rng(0)
        f = _random(ctx, 2, rng)
        e = _zero(ctx, 2)
        e[0] = np.eye(2) / float(ctx.haar.w_G)                # I / w_G at g = 0
        mu = trivial_mu(ctx, 2)
        assert np.max(np.abs(convolve(ctx, e, f, mu) - f)) < 1e-12
        assert np.max(np.abs(convolve(ctx, f, e, mu) - f)) < 1e-12
        assert abs(operator_norm(ctx, e, mu) - 1.0) < 1e-12

    def test_zero_norm(self, z4ctx):
        assert operator_norm(z4ctx, _zero(z4ctx, 2), trivial_mu(z4ctx, 2)) == 0.0

    def test_associativity_and_representation(self, z4ctx, z4mu):
        ctx = z4ctx
        rng = np.random.default_rng(1)
        f1, f2, f3 = (_random(ctx, 2, rng) for _ in range(3))
        lhs = convolve(ctx, convolve(ctx, f1, f2, z4mu), f3, z4mu)
        rhs = convolve(ctx, f1, convolve(ctx, f2, f3, z4mu), z4mu)
        assert np.max(np.abs(lhs - rhs)) < 1e-9
        P = represent(ctx, convolve(ctx, f1, f2, z4mu), z4mu) \
            - represent(ctx, f1, z4mu) @ represent(ctx, f2, z4mu)
        assert np.max(np.abs(P)) < 1e-9

    def test_supported_at_zero_multiplies_pointwise(self, z4ctx, z4mu):
        ctx = z4ctx
        q = ctx.quotient.order
        rng = np.random.default_rng(2)
        i0 = z4ctx.G.index(z4ctx.G.zero())
        a = _zero(ctx, 2)
        b = _zero(ctx, 2)
        a[i0] = rng.normal(size=(q, 2, 2))
        b[i0] = rng.normal(size=(q, 2, 2))
        prod = convolve(ctx, a, b, z4mu)
        wG = float(ctx.haar.w_G)
        for iz in range(q):
            want = wG * a[i0, iz] @ b[i0, iz]
            assert np.max(np.abs(prod[i0, iz] - want)) < 1e-12
        mask = np.ones(ctx.G.order, dtype=bool)
        mask[i0] = False
        assert np.max(np.abs(prod[mask])) < 1e-12

    def test_involution_laws(self, z4ctx, z4mu):
        ctx = z4ctx
        rng = np.random.default_rng(3)
        f1, f2 = (_random(ctx, 2, rng) for _ in range(2))
        assert np.max(np.abs(involute(ctx, involute(ctx, f1, z4mu), z4mu) - f1)) < 1e-12
        anti = involute(ctx, convolve(ctx, f1, f2, z4mu), z4mu) \
            - convolve(ctx, involute(ctx, f2, z4mu), involute(ctx, f1, z4mu), z4mu)
        assert np.max(np.abs(anti)) < 1e-9
        r = np.max(np.abs(represent(ctx, involute(ctx, f1, z4mu), z4mu)
                          - adjoint(represent(ctx, f1, z4mu))))
        assert r < 1e-9

    def test_selfadjoint_pointmass_fixed(self, z4ctx):
        ctx = z4ctx
        H = np.array([[1.0, 1j], [-1j, 2.0]])
        f = _zero(ctx, 2)
        i0 = z4ctx.G.index(z4ctx.G.zero())
        for iz in range(ctx.quotient.order):
            f[i0, iz] = H
        assert np.max(np.abs(involute(ctx, f, trivial_mu(ctx, 2)) - f)) < 1e-12

    def test_cstar_identity(self, z4ctx, z4mu):
        ctx = z4ctx
        rng = np.random.default_rng(4)
        f = _random(ctx, 2, rng)
        lhs = operator_norm(ctx, convolve(ctx, involute(ctx, f, z4mu), f, z4mu), z4mu)
        rhs = operator_norm(ctx, f, z4mu) ** 2
        assert abs(lhs - rhs) < 1e-9


class TestTransform:
    def test_unit_maps_to_identity(self, z4ctx):
        # forced by multiplicativity plus the unit law
        ctx = z4ctx
        e = _zero(ctx, 1)
        e[0] = np.eye(1) / float(ctx.haar.w_G)                # the convolution unit
        T = t_transform(ctx, e, trivial_mu(ctx, 1))
        for M in T:
            assert np.max(np.abs(M - np.eye(M.shape[0]))) < 1e-10

    def test_linearity(self, z4ctx, z4mu):
        ctx = z4ctx
        rng = np.random.default_rng(5)
        f1, f2 = (_random(ctx, 2, rng) for _ in range(2))
        a, b = 1.3 - 0.2j, -0.7j
        T = t_transform(ctx, a * f1 + b * f2, z4mu)
        T1 = t_transform(ctx, f1, z4mu)
        T2 = t_transform(ctx, f2, z4mu)
        for izh in range(len(T)):
            assert np.max(np.abs(T[izh] - a * T1[izh] - b * T2[izh])) < 1e-10

    def test_z2_minimal_instance_bijective(self):
        # G = Z/2, N = 0: source dimension 4, target M_2 over a point
        ctx = ctx_for([2], [])
        assert len(ctx.dual_quotient.reps()) == 1
        A = t_linearized(ctx, trivial_mu(ctx, 1))
        assert A.shape == (4, 4)
        sv = np.linalg.svd(A, compute_uv=False)
        assert sv[-1] > 1e-12

    @pytest.mark.parametrize("factors,gens,d", [([4], [[2]], 2), ([8], [[2]], 2),
                                                ([6], [[3]], 2)])
    def test_injective_on_spanning_set(self, factors, gens, d):
        # representation dimension |G| |G/N| d stays within the stated bound
        ctx = ctx_for(factors, gens)
        assert ctx.G.order * ctx.quotient.order * d <= 96
        t = make_dualisable(build_random_triple(Nerve.point(), ctx, d=d, seed=21))
        A = t_linearized(ctx, t.mu[0])
        src = ctx.G.order * ctx.quotient.order * d * d
        sv = np.linalg.svd(A, compute_uv=False)
        assert int(np.sum(sv > 1e-9 * sv[0])) == src

    def test_linearized_matches_unit_vector_loop(self, z4ctx, z4mu):
        ctx = z4ctx
        zhats = z4ctx.dual_quotient.reps()
        shape = (*ctx.shift.shape, 2, 2)

        def transform(vals):
            T = t_transform(ctx, vals.reshape(shape), z4mu)
            return np.concatenate([T[izh].reshape(-1) for izh in range(len(zhats))])

        src = int(np.prod(shape))
        ref = np.stack([transform(e) for e in np.eye(src, dtype=complex)], axis=1)
        assert np.array_equal(t_linearized(ctx, z4mu), ref)

    def test_linearized_transform_respects_dim_cap(self, z4ctx, z4mu, monkeypatch):
        ctx = z4ctx
        monkeypatch.setenv("TDUAL_MAX_DIM", str(ctx.G.order * ctx.quotient.order * 2 ** 2 - 1))
        with pytest.raises(ResourceCapError):
            t_linearized(ctx, z4mu)

    @pytest.mark.parametrize("factors,gens,d", [([6], [[3]], 2), ([2, 4], [[1, 2]], 1)])
    def test_linearized_matches_whole_identity_batch(self, factors, gens, d):
        ctx = ctx_for(factors, gens)
        n, q = ctx.shift.shape
        mu = build_random_triple(Nerve.circle(), ctx, d=d, seed=7).mu[0]
        assert not np.allclose(mu, trivial_mu(ctx, d))
        # every unit vector through one transform, as one (n_src, n_src) batch
        src = n * q * d * d
        ident = np.eye(src, dtype=complex)
        ref = t_transform(ctx, ident.T.reshape(src, n, q, d, d), mu).reshape(src, -1).T
        assert np.array_equal(t_linearized(ctx, mu), ref)

    def test_linearized_refuses_before_allocating(self, monkeypatch):
        ctx = ctx_for([6], [[3]])
        n, q, d = ctx.G.order, ctx.quotient.order, 4
        src = n * q * d ** 2
        dst = len(ctx.lift_hat) * (q * d) ** 2
        monkeypatch.setenv("TDUAL_MAX_DIM", str(src - 1))

        def no_transform(*args):
            raise AssertionError("transform ran over the cap")
        monkeypatch.setattr(crossed, "t_transform", no_transform)
        mu = trivial_mu(ctx, d)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError):
                t_linearized(ctx, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < src * dst * 16 // 8     # far below the complex matrix

    def test_lift_independence_is_automatic(self, z4ctx):
        # conjugating the kernel by Lambda cancels the index shift under
        # N-perp translations of the lift for ANY mu table, so the output
        # is well defined on the dual quotient even for non-cocycles; the
        # cocycle law itself is what detects bad mu (see mu_is_cocycle)
        ctx = z4ctx
        rng = np.random.default_rng(6)
        bad = _zero(ctx, 1)
        for ig in range(ctx.G.order):
            for iz in range(ctx.quotient.order):
                ph = np.exp(2j * np.pi * rng.random())
                bad[ig, iz] = np.array([[ph]])
        bad[0, 0] = np.array([[1.0 + 0j]])
        assert mu_is_cocycle(ctx, bad) > 1e-6
        f = _random(ctx, 1, rng)
        assert t_periodicity_residual(ctx, f, bad) < 1e-9
        t_transform(ctx, f, bad)   # must not raise: output is lift independent

    def test_periodicity_holds_for_cocycles(self, z4ctx, z4mu):
        rng = np.random.default_rng(7)
        f = _random(z4ctx, 2, rng)
        assert t_periodicity_residual(z4ctx, f, z4mu) < 1e-9


GROUP_PAIRS = [([4], [[2]]), ([6], [[3]]), ([2, 2], [[1, 1]])]


def _identity_lam(self, chi):
    """Lambda replaced by the identity: the kernel then moves with the lift."""
    q = self.quotient.order
    return np.broadcast_to(np.eye(q, dtype=complex), np.shape(chi) + (q, q))


@pytest.mark.parametrize("factors,gens", GROUP_PAIRS + [([2, 4], [[1, 2]])])
def test_periodicity_residual_covers_every_beta(factors, gens, monkeypatch):
    ctx = ctx_for(factors, gens)
    Gd = ctx.Gd
    mu = make_dualisable(build_random_triple(Nerve.circle(), ctx, d=2, seed=5)).mu[0]
    f = _random(ctx, 2, np.random.default_rng(0))
    assert t_periodicity_residual(ctx, f, mu) < 1e-9
    # without Lambda the residual is the largest kernel move over every z^
    # and every nonzero beta in N-perp, one kernel call per pair here
    monkeypatch.setattr(DualityContext, "lam", _identity_lam)
    fm = f @ adjoint(mu)
    betas = [b for b in ctx.Nperp.elements() if b != Gd.zero()]
    moves = {b: 0.0 for b in betas}          # largest move over z^, per beta
    for zhat in ctx.dual_quotient.reps():
        chi = ctx.sigma_hat(zhat)
        base = conjugated_kernel(ctx, fm, Gd.index(chi))
        for beta in betas:
            moved = conjugated_kernel(ctx, fm, Gd.index(Gd.add(chi, beta)))
            moves[beta] = max(moves[beta], float(np.max(np.abs(moved - base))))
    res = t_periodicity_residual(ctx, f, mu)
    assert betas and min(moves.values()) > 1e-3
    assert abs(res - max(moves.values())) < 1e-12 * res
    if factors == [2, 4]:
        # here the largest move is not at the first nonzero beta
        assert moves[betas[0]] < res - 1e-3


class TestLiftCheck:
    """The lift check runs once per verification; a broken Lambda trips it."""

    def test_point_theorem_raises(self, monkeypatch):
        ctx = ctx_for([6], [[3]])
        mu = make_dualisable(build_random_triple(Nerve.circle(), ctx, d=2, seed=42)).mu[0]
        monkeypatch.setattr(DualityContext, "lam", _identity_lam)
        with pytest.raises(InvalidTripleError, match="character lift"):
            verify_point_theorem(ctx, 2, mu, trials=2, seed=1)

    def test_gluing_raises(self, monkeypatch):
        ctx = ctx_for([6], [[3]])
        t = make_dualisable(build_random_triple(Nerve.circle(), ctx, d=2, seed=42))
        th = dualize(t, extract_total_cocycle(t))
        monkeypatch.setattr(DualityContext, "lam", _identity_lam)
        with pytest.raises(InvalidTripleError, match="character lift"):
            verify_gluing(t, th, trials=2, seed=2)


class TestLambda:
    def test_extension_property(self, z4ctx):
        # Lambda restricted to N-perp is the regular representation
        ctx = z4ctx
        q = ctx.quotient.order
        nperp = ctx.Nperp.elements()
        bi = {b: i for i, b in enumerate(nperp)}
        for beta in ctx.Nperp.elements():
            L = ctx.lam(ctx.Gd.index(beta))
            P = np.zeros((q, q), complex)
            for j, b in enumerate(nperp):
                P[bi[ctx.Gd.add(b, beta)], j] = 1.0
            assert np.max(np.abs(L - P)) < 1e-12

    def test_homomorphism_and_unitary(self, z4ctx):
        ctx = z4ctx
        for chi1 in ctx.Gd.elements():
            L1 = ctx.lam(ctx.Gd.index(chi1))
            assert np.max(np.abs(adjoint(L1) @ L1 - np.eye(ctx.quotient.order))) < 1e-12
            for chi2 in ctx.Gd.elements():
                L12 = ctx.lam(ctx.Gd.index(ctx.Gd.add(chi1, chi2)))
                assert np.max(np.abs(L12 - L1 @ ctx.lam(ctx.Gd.index(chi2)))) < 1e-12

    def test_matches_dual_decker_diagonal(self, z4ctx):
        # Lambda is the DFT transport of the dual-decker phase for the
        # same shared section
        from tdual.triples import dual_decker
        tab = dual_decker(z4ctx, (1,))
        for ichi, chi in enumerate(z4ctx.Gd.elements()):
            D = tab[ichi, 0]
            want = z4ctx.dft @ D @ z4ctx.dft_inv
            assert np.max(np.abs(z4ctx.lam(ichi) - want)) < 1e-12


class TestPointTheorem:
    def test_minimal_z2(self):
        ctx = ctx_for([2], [])
        rep = verify_point_theorem(ctx, 1, trivial_mu(ctx, 1), trials=4, seed=0)
        assert all(v < 1e-8 for v in rep.values()), rep

    def test_z6_fixture_mu(self):
        ctx = ctx_for([6], [[3]])
        t = make_dualisable(build_random_triple(Nerve.circle(), ctx, d=2, seed=42))
        rep = verify_point_theorem(ctx, 2, t.mu[0], trials=3, seed=1)
        assert all(v < 1e-8 for v in rep.values()), rep


    def test_refuses_a_misshaped_mu(self):
        ctx = ctx_for([6], [[3]])
        mu = trivial_mu(ctx, 2)
        for bad in (mu[:, :, :1], mu[1:], trivial_mu(ctx, 1), mu[0]):
            with pytest.raises(ValueError, match="mu table has shape"):
                verify_point_theorem(ctx, 2, bad, trials=1)


class TestGluing:
    def test_circle_z6(self):
        ctx = ctx_for([6], [[3]])
        t = make_dualisable(build_random_triple(Nerve.circle(), ctx, d=2, seed=42))
        th = dualize(t, extract_total_cocycle(t))
        rep = verify_gluing(t, th, trials=10, seed=2)
        assert rep["section_family"] < 1e-9
        assert rep["section_transition"] < 1e-8
        assert rep["edges"] == 3

    def test_trivial_triple(self):
        from tdual.triples import trivial_triple
        ctx = ctx_for([4], [[2]])
        t = trivial_triple(Nerve.circle(), ctx, 1)
        th = dualize(t, extract_total_cocycle(t))
        rep = verify_gluing(t, th, trials=2, seed=3)
        assert rep["section_transition"] < 1e-10

    def test_twisted_circle_uses_holonomy_compatible_sections(self):
        # one edge labelled 1: the loop's monodromy moves G/N, so a family
        # spread from an arbitrary root value breaks on the closing edge
        ctx = ctx_for([6], [[3]])
        nerve = Nerve.circle()
        q = ctx.quotient
        labels = {e: q.zero() for e in nerve.edges}
        labels[(0, 1)] = q.rep(ctx.G.element([1]))
        twist = TwistCocycle(nerve, q, labels)
        t = make_dualisable(build_random_triple(nerve, ctx, d=1, seed=3, twist=twist))
        th = dualize(t, extract_total_cocycle(t))
        rep = verify_gluing(t, th, trials=4, seed=5)
        assert rep["section_family"] < 1e-9
        assert rep["section_transition"] < 1e-8
        root = _random(ctx, 1, np.random.default_rng(0))
        fam = section_family(t, root)
        assert min(float(np.max(np.abs(f))) for f in fam.values()) > 1e-3

    def test_single_vertex_reduces_to_point(self):
        ctx = ctx_for([4], [[2]])
        t = make_dualisable(build_random_triple(Nerve.point(), ctx, d=2, seed=9))
        th = dualize(t, extract_total_cocycle(t))
        rep = verify_gluing(t, th, trials=2, seed=4)
        assert rep["edges"] == 0 and rep["section_transition"] == 0.0
        prep = verify_point_theorem(ctx, 2, t.mu[0], trials=2, seed=5)
        assert all(v < 1e-8 for v in prep.values())

    def test_disconnected_nerve_glues_on_every_component(self):
        # vertex 0 has no edge: each component spreads its own root value
        # (a spanning tree from vertex 0 alone once left vertices 1 and 2
        # out of the family, and the closing-edge lookup raised KeyError)
        ctx = ctx_for([6], [[3]])
        nerve = Nerve(4, [[1, 2], [2, 3], [1, 3]])
        t = make_dualisable(build_random_triple(nerve, ctx, d=2, seed=8))
        th = dualize(t, extract_total_cocycle(t))
        rep = verify_gluing(t, th, trials=3, seed=2)
        assert rep["section_family"] < 1e-9
        assert rep["section_transition"] < 1e-8
        assert rep["edges"] == 3
        fam = section_family(t, _random(ctx, 2, np.random.default_rng(0)))
        assert sorted(fam) == [0, 1, 2, 3]

    def test_trial_batch_over_the_cap_squared_is_refused_before_any_draw(self, monkeypatch):
        ctx = ctx_for([6], [[3]])
        t = make_dualisable(build_random_triple(Nerve.circle(), ctx, d=2, seed=42))
        th = dualize(t, extract_total_cocycle(t))
        # a batch of trials |G| q d^2 = trials * 72 entries per vertex
        monkeypatch.setenv("TDUAL_MAX_DIM", "24")
        verify_gluing(t, th, trials=8, seed=2)                  # 576 = 24^2
        monkeypatch.setattr(np.random, "default_rng", None)     # no draw may start
        with pytest.raises(ResourceCapError,
                           match="trial batch size 648 exceeds cap 576"):
            verify_gluing(t, th, trials=9, seed=2)


# ---------------------------------------------------------------------------
# the table-based operations against per-element loops on the exact pairing

def _lists(ctx):
    """(G.elements(), quotient.reps(), N-perp elements, their inverse maps)."""
    elems, reps, nperp = ctx.G.elements(), ctx.quotient.reps(), ctx.Nperp.elements()
    return elems, reps, nperp, ctx.G.index, {z: i for i, z in enumerate(reps)}


def _keyed(ctx, mu):
    """A mu table as a dict keyed by (g, z) pairs."""
    elems, reps, _, _, _ = _lists(ctx)
    return {(g, z): mu[ig, iz] for ig, g in enumerate(elems)
            for iz, z in enumerate(reps)}


def _ref_dft(ctx):
    w = float(ctx.haar.w_quot)
    _, reps, nperp, _, _ = _lists(ctx)
    F = np.array([[w * unit_phase(pairing(ctx.G, b, ctx.sigma(z))) for z in reps]
                  for b in nperp])
    Fi = np.array([[unit_phase(-pairing(ctx.G, b, ctx.sigma(z))) for b in nperp]
                   for z in reps])
    return F, Fi


def _ref_lam(ctx, chi):
    F, Fi = _ref_dft(ctx)
    _, reps, _, _, _ = _lists(ctx)
    return F @ np.diag([unit_phase(-pairing(ctx.G, chi, ctx.sigma(z))) for z in reps]) @ Fi


def _ref_convolve(ctx, f1, f2, mu):
    G, q = ctx.G, ctx.quotient
    elems, reps, _, gi, zi = _lists(ctx)
    out = np.zeros_like(f1)
    for ig, g in enumerate(elems):
        for iz, z in enumerate(reps):
            for ih, h in enumerate(elems):
                U = mu[(h, z)]
                out[ig, iz] += f1[ih, iz] @ adjoint(U) @ f2[
                    gi(G.sub(g, h)), zi[q.add(z, q.rep(h))]] @ U
    return float(ctx.haar.w_G) * out


def _ref_involute(ctx, f, mu):
    G, q = ctx.G, ctx.quotient
    elems, reps, _, gi, zi = _lists(ctx)
    out = np.zeros_like(f)
    for ig, g in enumerate(elems):
        for iz, z in enumerate(reps):
            U = mu[(g, z)]
            back = f[gi(G.neg(g)), zi[q.add(z, q.rep(g))]]
            out[ig, iz] = adjoint(U) @ adjoint(back) @ U
    return out


def _ref_represent(ctx, f, mu):
    G, q = ctx.G, ctx.quotient
    n, nq, d = G.order, q.order, f.shape[-1]
    elems, reps, _, gi, zi = _lists(ctx)
    out = np.zeros((n * nq * d, n * nq * d), complex)
    for ig, g in enumerate(elems):
        for iz, z in enumerate(reps):
            Um = mu[(G.neg(g), z)]
            zs = zi[q.add(z, q.neg(g))]
            for ih, h in enumerate(elems):
                r0 = (ig * nq + iz) * d
                c0 = (gi(G.sub(g, h)) * nq + iz) * d
                out[r0:r0 + d, c0:c0 + d] += float(ctx.haar.w_G) \
                    * adjoint(Um) @ f[ih, zs] @ Um
    return out


def _ref_kernel(ctx, f, mu, chi):
    Gd, d, nq = ctx.Gd, f.shape[-1], ctx.quotient.order
    w = float(ctx.haar.w_G * ctx.haar.w_quot)
    elems, reps, nperp, _, _ = _lists(ctx)
    K = np.zeros((nq * d, nq * d), complex)
    for ia, a in enumerate(nperp):
        for ic, c in enumerate(nperp):
            for ig, g in enumerate(elems):
                for iz, z in enumerate(reps):
                    ph = unit_phase(pairing(ctx.G, Gd.add(chi, c), g)
                                    + pairing(ctx.G, Gd.sub(c, a), ctx.sigma(z)))
                    K[ia * d:(ia + 1) * d, ic * d:(ic + 1) * d] += \
                        w * ph * f[ig, iz] @ adjoint(mu[(g, z)])
    L = np.kron(_ref_lam(ctx, chi), np.eye(d))
    return L @ K @ adjoint(L)


def _ref_mu_cocycle(ctx, mu):
    G, q = ctx.G, ctx.quotient
    elems, reps, _, _, _ = _lists(ctx)
    return max(float(np.max(np.abs(mu[(G.add(g, h), z)]
                                   - mu[(g, q.add(z, q.rep(h)))] @ mu[(h, z)])))
               for g in elems for h in elems for z in reps)


@pytest.fixture(scope="module", params=[([4], [[2]]), ([2, 4], [[1, 2]])],
                ids=["z4", "z2xz4"])
def table_case(request):
    ctx = ctx_for(*request.param)
    t = make_dualisable(build_random_triple(Nerve.circle(), ctx, d=2, seed=5))
    return ctx, t.mu[0]


def test_dft_and_lam_match_pairing_loops(table_case):
    ctx, _ = table_case
    F, Fi = _ref_dft(ctx)
    assert np.max(np.abs(ctx.dft - F)) < 1e-12
    assert np.max(np.abs(ctx.dft_inv - Fi)) < 1e-12
    for ichi, chi in enumerate(ctx.Gd.elements()):
        assert np.max(np.abs(ctx.lam(ichi) - _ref_lam(ctx, chi))) < 1e-12


def test_algebra_matches_pairing_loops(table_case):
    ctx, mu = table_case
    keyed = _keyed(ctx, mu)
    rng = np.random.default_rng(11)
    f1, f2 = (_random(ctx, 2, rng) for _ in range(2))
    assert np.max(np.abs(convolve(ctx, f1, f2, mu)
                         - _ref_convolve(ctx, f1, f2, keyed))) < 1e-12
    assert np.max(np.abs(involute(ctx, f1, mu) - _ref_involute(ctx, f1, keyed))) < 1e-12
    assert np.max(np.abs(represent(ctx, f1, mu) - _ref_represent(ctx, f1, keyed))) < 1e-12
    assert abs(mu_is_cocycle(ctx, mu) - _ref_mu_cocycle(ctx, keyed)) < 1e-12
    bad = mu.copy()
    bad[1, 0] = 1j * mu[1, 0]
    assert abs(mu_is_cocycle(ctx, bad) - _ref_mu_cocycle(ctx, _keyed(ctx, bad))) < 1e-12


def test_conjugated_kernel_matches_pairing_loops(table_case):
    ctx, mu = table_case
    rng = np.random.default_rng(12)
    f1, f2 = (_random(ctx, 2, rng) for _ in range(2))
    fm1, fm2 = f1 @ adjoint(mu), f2 @ adjoint(mu)
    for ichi, chi in enumerate(ctx.Gd.elements()):
        K = conjugated_kernel(ctx, fm1, ichi)
        assert np.max(np.abs(K - _ref_kernel(ctx, f1, _keyed(ctx, mu), chi))) < 1e-12
        # a leading batch runs each element through the same products
        batch = conjugated_kernel(ctx, np.stack([fm1, fm2]), ichi)
        assert np.array_equal(batch[0], K)
        assert np.array_equal(batch[1], conjugated_kernel(ctx, fm2, ichi))


# ---------------------------------------------------------------------------
# the batched crossed checks against the per-trial loops they replaced

def _ref_verify_point_theorem(ctx, d, mu, trials=4, seed=0):
    """verify_point_theorem with one trial and one transform per step."""
    rng = np.random.default_rng(seed)
    rep = {"mu_cocycle": mu_is_cocycle(ctx, mu)}
    hom = star = normres = equiv = 0.0
    for trial in range(trials):
        f1 = _random(ctx, d, rng)
        f2 = _random(ctx, d, rng)
        if trial == 0:
            crossed._check_lift(ctx, f1, mu)
        T1 = t_transform(ctx, f1, mu)
        T2 = t_transform(ctx, f2, mu)
        T12 = t_transform(ctx, convolve(ctx, f1, f2, mu), mu)
        hom = max(hom, float(np.max(np.abs(T12 - T1 @ T2))))
        Tstar = t_transform(ctx, involute(ctx, f1, mu), mu)
        star = max(star, float(np.max(np.abs(Tstar - adjoint(T1)))))
        lhs = float(operator_norm(ctx, f1, mu))
        rhs = float(np.max(np.linalg.norm(T1, 2, axis=(-2, -1))))
        normres = max(normres, abs(lhs - rhs))
        k = int(rng.integers(0, ctx.Gd.order))
        Tchi = t_transform(ctx, f1 * ctx.phases[k][:, None, None, None], mu)
        L = kron_stack(ctx.lam(k), np.eye(d))
        want = adjoint(L) @ T1[ctx.shift_hat[k]] @ L
        equiv = max(equiv, float(np.max(np.abs(Tchi - want))))
    rep["homomorphism"] = hom
    rep["star_compatibility"] = star
    rep["norm_preservation"] = normres
    rep["equivariance"] = equiv
    A = t_linearized(ctx, mu)
    src = ctx.G.order * ctx.quotient.order * d * d
    sv = np.linalg.svd(A, compute_uv=False)
    rep["injective_rank_deficit"] = float(src - int(np.sum(sv > 1e-9 * sv[0])))
    rep["zero_to_zero"] = float(np.max(np.abs(t_transform(ctx, _zero(ctx, d), mu))))
    return rep


def _ref_section_family(t, rng):
    """section_family for one root value drawn here, projector rebuilt per call."""
    nerve = t.nerve
    root = nerve.vertices[0][0]
    tree = []
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

    def spread(f0):
        fam = {root: f0}
        for e, v, other in tree:
            fam[other] = crossed._transport(t, e, fam[v], forward=(v == e[0]))
        return fam

    q, d = t.ctx.quotient.order, t.fiber_dim
    f0 = _random(t.ctx, d, rng)
    if loops:
        dim = q * d * d
        basis = spread(np.eye(dim, dtype=complex).reshape(dim, q, d, d))
        gram = np.zeros((dim, dim), complex)
        for e in loops:
            D = (crossed._transport(t, e, basis[e[0]]) - basis[e[1]]).reshape(dim, dim)
            gram += D.conj() @ D.T
        vals, vecs = np.linalg.eigh(gram)
        R = vecs[:, vals > crossed.HOLONOMY_TOL]
        flat = f0.reshape(t.ctx.G.order, dim)
        f0 = (flat - (flat @ R.conj()) @ R.T).reshape(f0.shape)
    return spread(f0)


def _ref_verify_gluing(t, t_hat, trials=10, seed=0):
    """verify_gluing with one section family and one transform per trial."""
    ctx = t.ctx
    rng = np.random.default_rng(seed)
    kron_dft = np.kron(ctx.dft, np.eye(t.fiber_dim))
    kron_dft_inv = np.kron(ctx.dft_inv, np.eye(t.fiber_dim))
    glue = {e: (kron_dft @ t_hat.zeta[e] @ kron_dft_inv,
                ctx.dual_quotient.add_table()[t_hat.g.labels[e]])
            for e in t.nerve.edges}
    res_family = res_glue = 0.0
    for trial in range(trials):
        fam = _ref_section_family(t, rng)
        for e in t.nerve.edges:
            want = crossed._transport(t, e, fam[e[0]])
            res_family = max(res_family, float(np.max(np.abs(fam[e[1]] - want))))
        if trial == 0:
            for i in fam:
                crossed._check_lift(ctx, fam[i], t.mu[i])
        T = {i: t_transform(ctx, fam[i], t.mu[i]) for i in fam}
        for (a, b), (W, moved) in glue.items():
            want = adjoint(W) @ T[a][moved] @ W
            res_glue = max(res_glue, float(np.max(np.abs(T[b] - want))))
    return {"section_family": res_family, "section_transition": res_glue,
            "edges": len(t.nerve.edges)}


def _one_edge_twist(ctx, nerve):
    """Edge (0, 1) labelled by the coset of 1, the others 0: a loop with holonomy."""
    labels = {e: ctx.quotient.zero() for e in nerve.edges}
    labels[(0, 1)] = ctx.quotient.rep(ctx.G.element([1]))
    return TwistCocycle(nerve, ctx.quotient, labels)


# (factors, generators of N, nerve, d, twisted)
BATCH_CASES = {
    "z6_circle_d1": ([6], [[3]], "circle", 1, False),
    "z6_circle_d2": ([6], [[3]], "circle", 2, False),
    "z6_circle_d4": ([6], [[3]], "circle", 4, False),
    "z6_twisted_circle_d1": ([6], [[3]], "circle", 1, True),
    "z2xz2_sphere_d2": ([2, 2], [[1, 1]], "sphere", 2, False),
    "z4_sphere_d1": ([4], [[2]], "sphere", 1, False),
    "z4_point_d2": ([4], [[2]], "point", 2, False),
}


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_batched_crossed_checks_match_per_trial_loops(case):
    factors, gens, nerve_name, d, twisted = BATCH_CASES[case]
    ctx, nerve = ctx_for(factors, gens), getattr(Nerve, nerve_name)()
    twist = _one_edge_twist(ctx, nerve) if twisted else None
    t = make_dualisable(build_random_triple(nerve, ctx, d=d, seed=3, twist=twist))
    th = dualize(t, extract_total_cocycle(t))
    for trials, seed in ((1, 0), (5, 7)):
        assert verify_point_theorem(ctx, d, t.mu[0], trials, seed) \
            == _ref_verify_point_theorem(ctx, d, t.mu[0], trials, seed)
    for trials, seed in ((1, 1), (10, 8)):
        assert verify_gluing(t, th, trials, seed) == _ref_verify_gluing(t, th, trials, seed)


def test_batched_point_theorem_matches_per_trial_loop_on_trivial_mu():
    ctx = ctx_for([2], [])
    mu = trivial_mu(ctx, 1)
    assert verify_point_theorem(ctx, 1, mu, 4, 0) == _ref_verify_point_theorem(ctx, 1, mu, 4, 0)


def test_batched_section_family_matches_per_root_calls():
    ctx, nerve = ctx_for([6], [[3]]), Nerve.circle()
    t = make_dualisable(build_random_triple(nerve, ctx, d=2, seed=3,
                                            twist=_one_edge_twist(ctx, nerve)))
    rng = np.random.default_rng(4)
    roots = np.stack([_random(ctx, 2, rng) for _ in range(3)])
    fam = section_family(t, roots)
    rng = np.random.default_rng(4)
    for j in range(3):
        ref = _ref_section_family(t, rng)
        assert fam.keys() == ref.keys()
        for v, f in ref.items():
            assert np.array_equal(fam[v][j], f)


def test_batched_algebra_matches_single_elements(table_case):
    ctx, mu = table_case
    rng = np.random.default_rng(13)
    f1, f2 = (np.stack([_random(ctx, 2, rng) for _ in range(3)]) for _ in range(2))
    conv, inv = convolve(ctx, f1, f2, mu), involute(ctx, f1, mu)
    rep, norm = represent(ctx, f1, mu), operator_norm(ctx, f1, mu)
    assert conv.shape == f1.shape and rep.shape[0] == norm.shape[0] == 3
    for j in range(3):
        a, b = f1[j], f2[j]
        assert np.array_equal(conv[j], convolve(ctx, a, b, mu))
        assert np.array_equal(inv[j], involute(ctx, a, mu))
        assert np.array_equal(rep[j], represent(ctx, a, mu))
        assert norm[j] == operator_norm(ctx, a, mu)


def test_run_batches_crossed_trials(monkeypatch, tmp_path):
    from tdual.cli import main
    calls = {"conjugated_kernel": 0, "t_transform": 0, "_transport": 0, "eigh": 0}
    for owner, name in ((crossed, "conjugated_kernel"), (crossed, "t_transform"),
                        (crossed, "_transport"), (np.linalg, "eigh")):
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(owner, name, counted)
    assert main(["run", "z6_circle", "--seed", "3", "-o", str(tmp_path / "r.json")]) == 0
    # one trial per call: 66 kernels, 62 transforms, 80 transports, 10 eigh
    assert calls == {"conjugated_kernel": 19, "t_transform": 15, "_transport": 8,
                     "eigh": 1}
