import itertools
import re
import tracemalloc

import numpy as np
import pytest

from tdual.cech import Nerve, TwistCocycle
from tdual.cli import twist_from_json
from tdual.errors import InvalidTripleError
from tdual.groupcoh import GroupCochain, GroupCochainSpace, d_group, group_cohomology
from tdual.lca import (QZ, QZ_ZERO, FiniteLcaGroup, Subgroup, dual_group, make_section,
                       pairing)
from tdual.linops import adjoint, scalar_deviation, unit_phase
from tdual.triples import (
    DualityContext,
    TotalTwoCocycle,
    TripleLocalData,
    build_kappa_top,
    build_random_triple,
    cocycle_certificate,
    dual_base_cocycle,
    dual_decker,
    dual_transitions,
    dualize,
    dual_law_report,
    exterior_family_residuals,
    exterior_perturbation,
    extract_total_cocycle,
    is_dualisable,
    make_dualisable,
    normalize,
    poincare_check,
    relift,
    trivial_triple,
    validate_triple,
    verify_involution,
)
from tdual.zmodlin import smith_form

GROUP_PAIRS = [([4], [[2]]), ([6], [[3]]), ([2, 2], [[1, 1]])]


def ctx_for(factors, gens, **kw):
    G = FiniteLcaGroup(factors)
    N = Subgroup(G, [G.element(g) for g in gens])
    return DualityContext(G, N, **kw)


@pytest.fixture(scope="module")
def z6ctx():
    return ctx_for([6], [[3]])


@pytest.fixture(scope="module")
def z6fix(z6ctx):
    return make_dualisable(build_random_triple(Nerve.circle(), z6ctx, d=2, seed=42))


class TestFixtures:
    @pytest.mark.parametrize("factors,gens", GROUP_PAIRS)
    @pytest.mark.parametrize("nerve", [Nerve.circle(), Nerve.sphere()])
    def test_generated_triples_satisfy_laws(self, factors, gens, nerve):
        ctx = ctx_for(factors, gens)
        t = build_random_triple(nerve, ctx, d=2, seed=5)
        r = validate_triple(t)
        assert r["unitarity"] < 1e-12
        assert r["edge_law"] < 1e-9
        assert r["vertex_law"] < 1e-9
        assert r["mu_at_zero_scalar"] < 1e-12

    def test_determinism(self, z6ctx):
        a = build_random_triple(Nerve.circle(), z6ctx, d=2, seed=9)
        b = build_random_triple(Nerve.circle(), z6ctx, d=2, seed=9)
        for e in a.nerve.edges:
            assert np.array_equal(a.zeta[e], b.zeta[e])
        for i in a.mu:
            assert np.array_equal(a.mu[i], b.mu[i])

    def test_trivial_triple_gives_zero_cocycle(self, z6ctx):
        t = trivial_triple(Nerve.circle(), z6ctx, 1)
        c = extract_total_cocycle(t)
        assert c.omega_is_zero()
        assert all(not v.any() for v in c.phi.values())
        assert all(not v.any() for v in c.psi.values())

    def test_twist_class_is_respected(self, z6ctx):
        q = z6ctx.quotient
        nerve = Nerve.circle()
        base = {e: q.rep(z6ctx.G.element([1])) for e in nerve.edges}
        tw = TwistCocycle(nerve, q, base)
        t = build_random_triple(nerve, z6ctx, d=1, seed=3, twist=tw)
        # differs from the given representative only by a coboundary
        got = t.g
        diff = {}
        for e in nerve.edges:
            diff[e] = q.add(got.edge_values[e], q.neg(base[e]))
        # coboundary check: there are vertex values r with diff = delta r
        reps = q.reps()
        found = False
        for r0 in reps:
            for r1 in reps:
                for r2 in reps:
                    r = {0: r0, 1: r1, 2: r2}
                    if all(diff[(a, b)] == q.add(r[b], q.neg(r[a]))
                           for (a, b) in nerve.edges):
                        found = True
        assert found


class TestExtraction:
    def test_character_mu_gives_zero_phi_omega(self, z6ctx):
        # mu(g, z) = <chi0, g> I with identity transitions: phi = 0 on
        # zero-twist edges and omega = 0
        ctx = z6ctx
        nerve = Nerve.circle()
        t = trivial_triple(nerve, ctx, 1)
        chi0 = ctx.G.element([1])
        mu = {
            i: np.array([[np.array([[unit_phase(pairing(ctx.G, chi0, gg))]])
                          for _ in ctx.quotient.reps()] for gg in ctx.G.elements()])
            for i in t.mu
        }
        t2 = t.copy_with_mu(mu)
        c = extract_total_cocycle(t2)
        assert c.omega_is_zero()
        assert all(not v.any() for v in c.phi.values())

    def test_extraction_is_total_cocycle(self, z6fix):
        # closure is asserted inside extract; re-extract to exercise it
        c = extract_total_cocycle(z6fix)
        assert c.omega_is_zero()

    def test_non_scalar_input_rejected(self, z6ctx):
        t = trivial_triple(Nerve.circle(), z6ctx, 2)
        bad = t.mu[0].copy()
        bad[0, 0] = np.diag([1.0, 1j])   # not scalar, still unitary
        t2 = t.copy_with_mu({**t.mu, 0: bad})
        with pytest.raises(InvalidTripleError):
            extract_total_cocycle(t2)


class TestDualisable:
    def test_construct_then_solve_roundtrip(self, z6ctx):
        ctx = z6ctx
        sp1 = GroupCochainSpace(ctx.G, ctx.quotient, ctx.m, 1)
        rng = np.random.default_rng(4)
        nu0 = GroupCochain(sp1, rng.integers(0, ctx.m, size=sp1.shape()))
        om = d_group(nu0)
        t = trivial_triple(Nerve.circle(), ctx, 1)
        c = extract_total_cocycle(t)
        target = TotalTwoCocycle(t.nerve, ctx, t.g, c.psi,
                                 c.phi, {i: om.values.copy() for i in c.omega})
        nu = is_dualisable(target)
        assert nu is not None
        for i in nu:
            got = d_group(GroupCochain(sp1, nu[i]))
            assert np.array_equal(got.values, om.values)

    def test_nonboundary_omega_refused(self):
        # G = Z/2 acting on a point fiber: H^2(Z/2, Z/2) = Z/2, take the
        # nontrivial class; no nu can solve d nu = omega (oracle: enumerate)
        ctx = ctx_for([2], [[1]])   # N = G, so G/N is a point
        factors, reps = group_cohomology(ctx.G, ctx.quotient, 2, 2)
        assert factors == [2]
        om = reps[0].values
        pt = Nerve.point()
        t = trivial_triple(pt, ctx, 1)
        c = extract_total_cocycle(t)
        target = TotalTwoCocycle(pt, ctx, t.g, c.psi, c.phi, {0: om.copy()})
        assert is_dualisable(target) is None
        # independent enumeration over all nu tables
        sp1 = GroupCochainSpace(ctx.G, ctx.quotient, 2, 1)
        sols = []
        for bits in itertools.product(range(2), repeat=int(np.prod(sp1.shape()))):
            nu = GroupCochain(sp1, np.array(bits, dtype=np.int64).reshape(sp1.shape()))
            if np.array_equal(d_group(nu).values % 2, om % 2):
                sols.append(bits)
        assert not sols

    def test_normalize(self, z6ctx):
        t = build_random_triple(Nerve.circle(), z6ctx, d=2, seed=17)
        c = extract_total_cocycle(t)
        nu = is_dualisable(c)
        assert nu is not None
        tn = normalize(t, nu)
        cn = extract_total_cocycle(tn)
        assert cn.omega_is_zero()
        # psi untouched
        for s, v in c.psi.items():
            assert np.array_equal(v, cn.psi[s])
        # normalising again with nu = 0 changes nothing
        zero_nu = {i: np.zeros_like(nu[i]) for i in nu}
        tn2 = normalize(tn, zero_nu)
        cn2 = extract_total_cocycle(tn2)
        for e in t.nerve.edges:
            assert np.array_equal(cn.phi[e], cn2.phi[e])

    def test_normalize_rejects_wrong_nu(self, z6ctx):
        t = build_random_triple(Nerve.circle(), z6ctx, d=2, seed=18)
        c = extract_total_cocycle(t)
        nu = is_dualisable(c)
        bad = {i: (v + 1) % z6ctx.m for i, v in nu.items()}
        with pytest.raises(InvalidTripleError):
            normalize(t, bad)

    def test_normalize_checks_every_vertex_in_one_d_group_call(self, z6ctx, monkeypatch):
        # d(nu) is one gather over d_group_terms, one batch column per vertex
        t = build_random_triple(Nerve.circle(), z6ctx, d=2, seed=17)
        c = extract_total_cocycle(t)
        nu = is_dualisable(c)
        calls = []
        d = GroupCochainSpace.d

        def counted(space, x):
            calls.append((space.arity, x.shape))
            return d(space, x)
        monkeypatch.setattr(GroupCochainSpace, "d", counted)
        normalize(t, nu, c)
        assert calls == [(1, (z6ctx.G.order * z6ctx.quotient.order, len(c.omega)))]
        # a wrong nu at the second and third vertices names the second
        bad = dict(nu)
        verts = list(c.omega)
        for i in verts[1:]:
            bad[i] = (nu[i] + 1) % z6ctx.m
        with pytest.raises(InvalidTripleError, match=re.escape(f"at vertex {verts[1]}") + "$"):
            normalize(t, bad, c)


class TestDualData:
    def test_trivial_triple_dualises_trivially(self, z6ctx):
        t = trivial_triple(Nerve.circle(), z6ctx, 1)
        c = extract_total_cocycle(t)
        ghat = dual_base_cocycle(t, c)
        assert all(v == z6ctx.dual_quotient.zero()
                   for v in ghat.edge_values.values())
        th = dualize(t, c)
        for e in t.nerve.edges:
            for U in th.zeta[e]:
                assert np.max(np.abs(U - np.eye(U.shape[0]))) < 1e-12

    def test_dual_base_pairing_consistency(self, z6fix, z6ctx):
        c = extract_total_cocycle(z6fix)
        ghat = dual_base_cocycle(z6fix, c)
        G, m = z6ctx.G, z6ctx.m
        for e in z6fix.nerve.edges:
            for n in z6ctx.N.elements():
                for iz in range(z6ctx.quotient.order):
                    want = QZ.of(-int(c.phi[e][G.index(n), iz]), m)
                    assert pairing(G, ghat.edge_values[e], n) == want

    def test_dual_base_needs_normalisation(self, z6ctx):
        t = build_random_triple(Nerve.circle(), z6ctx, d=2, seed=19)
        c = extract_total_cocycle(t)
        if not c.omega_is_zero():
            with pytest.raises(InvalidTripleError):
                dual_base_cocycle(t, c)

    @pytest.mark.parametrize("factors,gens", GROUP_PAIRS)
    def test_dual_laws_on_fixtures(self, factors, gens):
        ctx = ctx_for(factors, gens)
        nerve = Nerve.sphere() if factors != [6] else Nerve.circle()
        t = make_dualisable(build_random_triple(nerve, ctx, d=2, seed=23))
        c = extract_total_cocycle(t)
        th = dualize(t, c)
        ch = extract_total_cocycle(th)
        assert ch.omega_is_zero()
        rep = dual_law_report(t, th, ch)
        assert rep["dual_cech_law"] < 1e-9
        assert rep["dual_decker_law"] < 1e-9
        assert rep["dual_phi_closed_form"] == 0.0
        assert rep["dual_mu_periodicity"] < 1e-9

    def test_dual_decker_identity_at_zero(self, z6ctx):
        tab = dual_decker(z6ctx, (2,))
        for U in tab[0]:                 # chi = 0 sits at position 0
            assert np.max(np.abs(U - np.eye(U.shape[0]))) < 1e-12

    def test_dual_data_section_independent_up_to_coboundary(self, z6ctx):
        from tdual.lca import make_section
        t = make_dualisable(build_random_triple(Nerve.circle(), z6ctx, d=2, seed=31))
        G, N = z6ctx.G, z6ctx.N
        sigma2 = make_section(G, N, "random", seed=5, quotient=z6ctx.quotient)
        sigma_hat2 = make_section(z6ctx.Gd, z6ctx.Nperp, "random", seed=6,
                                  quotient=z6ctx.dual_quotient)
        ctx2 = DualityContext(G, N, m=z6ctx.m, sigma=sigma2, sigma_hat=sigma_hat2)
        # the same twist labels, on ctx2's own quotient
        g2 = TwistCocycle.from_labels(t.nerve, ctx2.quotient, t.g.labels)
        t2 = TripleLocalData(t.nerve, ctx2, t.legs, g2, t.zeta, t.mu)
        c1 = extract_total_cocycle(t)
        c2 = extract_total_cocycle(t2)
        th1 = dualize(t, c1)
        th2 = dualize(t2, c2)
        # same dual twist regardless of sections
        for e in t.nerve.edges:
            assert th1.g.edge_values[e] == th2.g.edge_values[e]
        ch1 = extract_total_cocycle(th1)
        ch2 = extract_total_cocycle(th2)
        cert = cocycle_certificate(ch1, ch2)
        assert cert is not None


class TestInvolution:
    @pytest.mark.parametrize("factors,gens", GROUP_PAIRS)
    def test_involution_small(self, factors, gens):
        ctx = ctx_for(factors, gens)
        t = build_random_triple(Nerve.circle(), ctx, d=1, seed=2)
        rep = verify_involution(t)
        assert rep["double_dual_base_equals_original"] == 0.0
        assert rep["double_dual_class_certificate"] == 0.0
        assert rep["certificate_residual"] == 0.0
        assert rep["dual_omega_zero"] == 0.0

    def test_involution_trivial(self, z6ctx):
        rep = verify_involution(trivial_triple(Nerve.circle(), z6ctx, 1))
        assert rep["double_dual_base_equals_original"] == 0.0
        assert rep["double_dual_class_certificate"] == 0.0

    def test_contexts_go_without_the_cyclic_collector(self):
        # the dual holds its origin and the origin holds its dual weakly, so
        # both go with the last outside reference, group complex memos too
        import gc
        import weakref
        gc.disable()
        try:
            ctx = ctx_for([6], [[3]])
            assert ctx.dual().dual() is ctx
            d = ctx.dual()
            assert d.dual() is ctx and ctx.dual() is d
            d.group_complex.cohomology(1)
            ctx.group_complex.cohomology(1)
            refs = [weakref.ref(ctx), weakref.ref(d)]
            del ctx
            assert refs[0]() is not None and refs[0]().dual() is d
            del d
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


class TestPoincare:
    @pytest.mark.parametrize("factors,gens", GROUP_PAIRS)
    def test_three_pairs(self, factors, gens):
        rep = poincare_check(ctx_for(factors, gens), seed=1)
        assert rep["sigma_hat_independence"] == 0.0
        assert rep["kappa_unitary_word"] < 1e-9
        assert rep["q_plus_r_coboundary"] == 0.0

    def test_vacuous_when_n_is_g(self):
        rep = poincare_check(ctx_for([4], [[1]]), seed=2)
        assert all(v == 0.0 for v in rep.values())

    def test_unitary_word_is_built_one_pair_at_a_time(self):
        # the poincare command has no matrix cap; its words are |G| x |G|,
        # so a stack over the 64 (z, z^) pairs of Z8 x Z8 / <(1, 1)> would
        # hold at least 64 * 64^2 * 16 bytes = 4.2 MB
        ctx = ctx_for([8, 8], [[1, 1]])
        assert ctx.quotient.order == ctx.dual_quotient.order == 8
        poincare_check(ctx, seed=3)         # builds the context's tables
        tracemalloc.start()
        try:
            rep = poincare_check(ctx, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["kappa_unitary_word"] < 1e-9
        assert peak < 2 * 2 ** 20


class TestKappaTop:
    def test_trivial(self, z6ctx):
        t = trivial_triple(Nerve.circle(), z6ctx, 1)
        c = extract_total_cocycle(t)
        th = dualize(t, c)
        kappa, rep = build_kappa_top(t, th)
        assert rep["kappa_top_gluing"] < 1e-12
        assert rep["alpha_factorisation"] < 1e-12
        # kappa of the trivial triple is the plain translation operator
        q = z6ctx.quotient
        z = q.reps()[1]
        got = kappa[0][1, 0]
        nq = q.order
        P = np.zeros((nq, nq), complex)
        for j, x in enumerate(q.reps()):
            P[q.reps().index(q.add(x, z)), j] = 1.0
        assert np.max(np.abs(got - P)) < 1e-12

    @pytest.mark.parametrize("factors,gens", GROUP_PAIRS)
    def test_fixtures(self, factors, gens):
        ctx = ctx_for(factors, gens)
        t = make_dualisable(build_random_triple(Nerve.circle(), ctx, d=2, seed=13))
        c = extract_total_cocycle(t)
        th = dualize(t, c)
        _, rep = build_kappa_top(t, th)
        assert rep["kappa_top_gluing"] < 1e-9
        assert rep["alpha_factorisation"] < 1e-9


class TestExteriorEquivalence:
    def test_family_laws_and_exact_invariance(self, z6fix):
        tp = exterior_perturbation(z6fix, seed=3)
        er = exterior_family_residuals(z6fix, tp)
        assert er["exterior_e1"] < 1e-12
        assert er["exterior_e2"] < 1e-12
        # with the transported lifts the scalar cocycle is unchanged exactly
        c1 = extract_total_cocycle(z6fix)
        c2 = extract_total_cocycle(tp)
        for e in z6fix.nerve.edges:
            assert np.array_equal(c1.phi[e], c2.phi[e])
        for i in c1.omega:
            assert np.array_equal(c1.omega[i], c2.omega[i])

    def test_relift_moves_by_exact_coboundary(self, z6fix):
        c1 = extract_total_cocycle(z6fix)
        t2 = relift(exterior_perturbation(z6fix, seed=4), seed=5)
        c2 = extract_total_cocycle(t2)
        cert = cocycle_certificate(c1, c2)
        assert cert is not None

    def test_requires_gauge(self, z6fix):
        bare = TripleLocalData(z6fix.nerve, z6fix.ctx, z6fix.legs, z6fix.g,
                               z6fix.zeta, z6fix.mu)
        with pytest.raises(InvalidTripleError):
            exterior_perturbation(bare, seed=1)


class TestTwistOwnership:
    """A triple refuses a twist built on another nerve or quotient object,
    even one with the same labels: the twist's total complex and its term
    memos are keyed to the objects it was built on."""

    def test_same_labels_on_own_objects_are_accepted(self, z6ctx):
        t = build_random_triple(Nerve.circle(), z6ctx, d=1, seed=3)
        own = TwistCocycle.from_labels(t.nerve, z6ctx.quotient, t.g.labels)
        assert TripleLocalData(t.nerve, z6ctx, t.legs, own, t.zeta, t.mu).g is own

    def test_refuses_a_twist_on_another_nerve(self, z6ctx):
        t = build_random_triple(Nerve.circle(), z6ctx, d=1, seed=3)
        other = TwistCocycle.from_labels(Nerve.circle(), z6ctx.quotient, t.g.labels)
        with pytest.raises(ValueError, match="own nerve and quotient"):
            TripleLocalData(t.nerve, z6ctx, t.legs, other, t.zeta, t.mu)
        with pytest.raises(ValueError, match="own nerve and quotient"):
            build_random_triple(Nerve.circle(), z6ctx, d=1, seed=3, twist=other)

    def test_refuses_a_twist_on_another_quotient(self, z6ctx):
        t = build_random_triple(Nerve.circle(), z6ctx, d=1, seed=3)
        ctx2 = DualityContext(z6ctx.G, z6ctx.N)
        assert ctx2.quotient is not z6ctx.quotient
        with pytest.raises(ValueError, match="own nerve and quotient"):
            TripleLocalData(t.nerve, ctx2, t.legs, t.g, t.zeta, t.mu)
        with pytest.raises(ValueError, match="own nerve and quotient"):
            build_random_triple(t.nerve, ctx2, d=1, seed=3, twist=t.g)


def test_certificate_refuses_distinct_classes():
    # shifting a cocycle by a nonzero cohomology class must defeat the
    # certificate solver (negative control for "cohomologous" decisions)
    ctx = ctx_for([2], [[1]])       # N = G, point fiber, m = 2
    pt = Nerve.point()
    t = trivial_triple(pt, ctx, 1)
    c1 = extract_total_cocycle(t)
    factors, reps = group_cohomology(ctx.G, ctx.quotient, 2, 2)
    assert factors == [2]
    shifted = TotalTwoCocycle(
        pt, ctx, t.g, c1.psi, c1.phi,
        {0: (c1.omega[0] + reps[0].values) % 2})
    assert cocycle_certificate(c1, shifted) is None
    # sanity: shifting by a boundary instead is certified
    rng = np.random.default_rng(0)
    sp1 = GroupCochainSpace(ctx.G, ctx.quotient, 2, 1)
    bnd = d_group(GroupCochain(sp1, rng.integers(0, 2, size=sp1.shape())))
    cob = TotalTwoCocycle(
        pt, ctx, t.g, c1.psi, c1.phi,
        {0: (c1.omega[0] + bnd.values) % 2})
    assert cocycle_certificate(c1, cob) is not None


def test_twist_from_json_keys_every_edge_exactly_once():
    ctx, nerve = ctx_for([6], [[3]]), Nerve.circle()
    q = ctx.quotient
    good = {"0,1": [1], "0,2": [5], "1,2": [4]}
    want = TwistCocycle(nerve, q, {(0, 1): q.reps()[1], (0, 2): q.reps()[2],
                                   (1, 2): q.reps()[1]})
    assert twist_from_json(nerve, q, good).labels == want.labels
    for bad, message in [({"0,1": [1], "0,2": [2]}, "missing twist value"),
                         (dict(good, **{"00,1": [1]}), "repeats the edge"),
                         (dict(good, **{"1,0": [1]}), "non-edges"),
                         (dict(good, **{"0,1": [1, 0]}), "coordinates")]:
        with pytest.raises(ValueError, match=message):
            twist_from_json(nerve, q, bad)


def test_qz_phases_match_unit_phase_bit_for_bit():
    # unit_phase(QZ.of(k, m)) is the entry-by-entry reference; every k in
    # [-m, 2m) up to m = 120, and sampled k at large moduli
    G = FiniteLcaGroup([])
    for m in [*range(1, 121), 999983, 2 ** 27, 60000000]:
        ctx = DualityContext(G, Subgroup(G, []), m=m)
        k = (np.arange(-m, 2 * m) if m <= 120
             else np.random.default_rng(m).integers(-2 ** 40, 2 ** 40, 500))
        want = np.array([unit_phase(QZ.of(int(x), m)) for x in k])
        assert np.array_equal(ctx.qz_phases(k).view(np.int64), want.view(np.int64)), m
    assert ctx.qz_phases([[1, 2, 3], [4, 5, 6]]).shape == (2, 3)


# ---------------------------------------------------------------------------
# integer Poincare and dual-base checks against the exact Q/Z loops they replaced

EQUIV_PAIRS = GROUP_PAIRS + [([2, 4], [[1, 2]]), ([4], [[1]]), ([3], [])]


def _ref_poincare_ac(ctx, seed, make=make_section):
    """poincare_check's (a) and (c) flags as per-element loops over the pairing."""
    q, dq = ctx.quotient, ctx.dual_quotient
    G, Gd = ctx.G, ctx.Gd
    sigma, sigma_hat = ctx.sigma, ctx.sigma_hat
    sigma2 = make(G, ctx.N, "random", seed=seed + 1, quotient=q)
    sigma_hat2 = make(Gd, ctx.Nperp, "random", seed=seed + 2, quotient=dq)

    # (a) sigma^-independence: ratio constant along the fiber, exactly
    res_a = 0.0
    for z in q.reps():
        for zhat in dq.reps():
            vals = [
                pairing(G, Gd.sub(sigma_hat(zhat), sigma_hat2(zhat)),
                        G.sub(sigma(q.add(x, q.neg(z))), sigma(x)))
                for x in q.reps()
            ]
            if any(v != vals[0] for v in vals):
                res_a = 1.0

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
            lhs = pairing(G, sh_a(zhat), n_cd) + pairing(G, nperp_ab, s_d(z))
            rhs = pairing(G, sh_b(zhat), s_d(z)) - pairing(G, sh_a(zhat), s_c(z))
            if lhs != rhs:
                res_c = 1.0
    return res_a, res_c


def _off_coset_section(*args, **kw):
    """A random section moved off its coset at every nonzero representative
    (None when the subgroup is the whole group)."""
    sec = make_section(*args, **kw)
    G, sub = args[0], args[1]
    off = next((g for g in G.elements() if g not in sub), None)
    if off is not None:
        sec.lift[1:] = G.add_table()[sec.lift[1:], G.index(off)]
    return sec


@pytest.mark.parametrize("factors,gens", EQUIV_PAIRS)
@pytest.mark.parametrize("seed", [0, 1, 4, 9])
def test_poincare_integer_checks_match_pairing_loops(factors, gens, seed):
    ctx = ctx_for(factors, gens)
    rep = poincare_check(ctx, seed=seed)
    got = (rep["sigma_hat_independence"], rep["q_plus_r_coboundary"])
    assert got == _ref_poincare_ac(ctx, seed) == (0.0, 0.0)


def test_poincare_integer_checks_match_pairing_loops_off_coset(monkeypatch):
    import tdual.triples as triples_mod
    ctxs = [ctx_for(factors, gens) for factors, gens in EQUIV_PAIRS]
    # only the second sections, drawn inside poincare_check, leave their cosets
    monkeypatch.setattr(triples_mod, "make_section", _off_coset_section)
    flags = []
    for ctx in ctxs:
        for seed in (0, 1, 4):
            rep = poincare_check(ctx, seed=seed)
            got = (rep["sigma_hat_independence"], rep["q_plus_r_coboundary"])
            assert got == _ref_poincare_ac(ctx, seed, make=_off_coset_section)
            flags.append(got)
    # the broken sections do trip both checks somewhere
    assert any(a == 1.0 for a, _ in flags) and any(c == 1.0 for _, c in flags)


def solve_character(G, N, values):
    """A chi in the dual with <chi, n> = values[n] for all n in N.

    values must be a homomorphism N -> Q/Z; the result is unique modulo the
    annihilator of N.  Solved as an integer linear system mod the exponent.
    """
    m = G.exponent
    gens = list(N.generators)
    if not gens:
        return dual_group(G).zero()
    r = len(G.factors)
    A = np.zeros((len(gens), r), dtype=np.int64)
    b = np.zeros(len(gens), dtype=np.int64)
    for j, n in enumerate(gens):
        for i, (ni, f) in enumerate(zip(n.coords, G.factors)):
            A[j, i] = (ni * (m // f)) % m
        v = values.get(n)
        if v is None:
            raise ValueError(f"no value given for generator {n}")
        b[j] = v.num * (m // v.den) % m
    X, ok = smith_form(A, m).solve(b[:, None])
    if not ok.all():
        raise ValueError("values do not extend to a character (not a homomorphism?)")
    chi = dual_group(G).element(tuple(int(c) for c in X[:, 0]))
    # full postcondition check over all of N
    for n in N.elements():
        expect = _hom_value(G, N, values, n)
        if pairing(G, chi, n) != expect:
            raise ValueError("values are not a homomorphism on N")
    return chi


def _hom_value(G, N, values, n):
    """Extend generator values additively to n; n must be reachable."""
    if n in values:
        return values[n]
    seen = {G.zero(): QZ_ZERO}
    frontier = [(G.zero(), QZ_ZERO)]
    while frontier:
        x, vx = frontier.pop()
        if x == n:
            return vx
        for g in N.generators:
            y = G.add(x, g)
            if y not in seen:
                vy = vx + values[g]
                seen[y] = vy
                frontier.append((y, vy))
    raise ValueError(f"{n} is not in the subgroup")


def _ref_dual_base_cocycle(t, c):
    """dual_base_cocycle as Smith-form character solving plus a re-pairing loop."""
    ctx = t.ctx
    G, q, m = ctx.G, ctx.quotient, ctx.m
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
            if pairing(G, ghat.edge_values[e], nn) != want:
                raise InvalidTripleError(f"dual cocycle pairing mismatch on {e}")
    return ghat


@pytest.mark.parametrize("factors,gens", EQUIV_PAIRS)
@pytest.mark.parametrize("nerve", [Nerve.circle(), Nerve.sphere()], ids=["circle", "sphere"])
def test_dual_base_search_matches_character_solving(factors, gens, nerve):
    ctx = ctx_for(factors, gens, m=2 * FiniteLcaGroup(factors).exponent)
    for seed in (1, 6, 8):
        t = make_dualisable(build_random_triple(nerve, ctx, d=1, seed=seed))
        c = extract_total_cocycle(t)
        got = dual_base_cocycle(t, c).edge_values
        assert got == _ref_dual_base_cocycle(t, c).edge_values


@pytest.mark.parametrize("corrupt", ["not_a_homomorphism", "nonzero_at_zero", "not_constant"])
def test_dual_base_refuses_phi_that_is_no_character(corrupt):
    # Z4, N = {0, 2}, m = 4: <chi, 2> is 0 or 1/2, never 3/4
    ctx = ctx_for([4], [[2]])
    t = make_dualisable(build_random_triple(Nerve.circle(), ctx, d=1, seed=3))
    c = extract_total_cocycle(t)
    e = t.nerve.edges[0]
    phi = c.phi[e].copy()
    if corrupt == "not_a_homomorphism":
        phi[ctx.G.index(ctx.G.element([2]))] = 1          # asks <chi, 2> = -1/4
    elif corrupt == "nonzero_at_zero":
        phi[0] = 1                                        # asks <chi, 0> = -1/4
    else:
        phi[ctx.G.index(ctx.G.element([2])), 1] += 2
    bad = TotalTwoCocycle(c.nerve, c.ctx, c.g, c.psi, {**c.phi, e: phi}, c.omega)
    with pytest.raises(InvalidTripleError):
        dual_base_cocycle(t, bad)


# ---------------------------------------------------------------------------
# batched extraction against the per-matrix loop it replaced

def _keyed(t):
    """zeta and mu as dicts keyed by quotient reps and (g, z) pairs."""
    elems, reps = t.ctx.G.elements(), t.ctx.quotient.reps()
    zeta = {e: dict(zip(reps, Z)) for e, Z in t.zeta.items()}
    mu = {i: {(gg, z): M[ig, iz] for ig, gg in enumerate(elems) for iz, z in enumerate(reps)}
          for i, M in t.mu.items()}
    return zeta, mu


def reference_extract(t):
    """(psi, phi, omega) by one scalar_part + snap_phase per matrix, in loop order."""
    from tdual.linops import adjoint, scalar_part, snap_phase
    ctx = t.ctx
    G, q, m = ctx.G, ctx.quotient, ctx.m
    reps, elems = q.reps(), G.elements()
    n, nq = len(elems), len(reps)
    zeta, mu = _keyed(t)

    def snap(Mat):
        return snap_phase(scalar_part(Mat, t.tau_s), m, t.tau_s)

    psi = {}
    for s in t.nerve.simplices(2):
        a, b, c = s
        gbc = t.g.edge_values[(b, c)]
        row = np.zeros(nq, dtype=np.int64)
        for iz, z in enumerate(reps):
            Mat = adjoint(zeta[(a, c)][z]) @ zeta[(a, b)][q.add(gbc, z)] \
                @ zeta[(b, c)][z]
            row[iz] = snap(Mat)
        psi[s] = row
    phi = {}
    for e in t.nerve.edges:
        a, b = e
        gab = t.g.edge_values[e]
        tab = np.zeros((n, nq), dtype=np.int64)
        for ig, gg in enumerate(elems):
            ggN = q.rep(gg)
            for iz, z in enumerate(reps):
                Mat = mu[b][(gg, z)] @ adjoint(zeta[e][z]) \
                    @ adjoint(mu[a][(gg, q.add(gab, z))]) @ zeta[e][q.add(z, ggN)]
                tab[ig, iz] = snap(Mat)
        phi[e] = tab
    omega = {}
    for v in t.nerve.vertices:
        i = v[0]
        tab = np.zeros((n, n, nq), dtype=np.int64)
        for ig, gg in enumerate(elems):
            ggN = q.rep(gg)
            for ih, hh in enumerate(elems):
                for iz, z in enumerate(reps):
                    Mat = mu[i][(gg, z)] @ adjoint(mu[i][(G.add(gg, hh), z)]) \
                        @ mu[i][(hh, q.add(z, ggN))]
                    tab[ig, ih, iz] = snap(Mat)
        omega[i] = tab
    return psi, phi, omega


def _circle_twist(ctx, nerve, label):
    """Edge (0, 1) labelled by the coset of label, on the triple's own circle."""
    q = ctx.quotient
    vals = {e: q.zero() for e in nerve.edges}
    vals[(0, 1)] = q.rep(ctx.G.element(label))
    return TwistCocycle(nerve, q, vals)


# (factors, generators of N, nerve, twist label on edge (0, 1) or None)
EXTRACTION_CASES = {
    "z6_twisted_circle": ([6], [[3]], "circle", [1]),
    "z4_sphere": ([4], [[2]], "sphere", None),
    "z2xz2_circle": ([2, 2], [[1, 1]], "circle", None),
    "z2xz4_point": ([2, 4], [[1, 2]], "point", None),
}


def _extraction_fixture(case, d):
    factors, gens, nerve_name, label = EXTRACTION_CASES[case]
    ctx, nerve = ctx_for(factors, gens), getattr(Nerve, nerve_name)()
    twist = _circle_twist(ctx, nerve, label) if label is not None else None
    return build_random_triple(nerve, ctx, d=d, seed=17, twist=twist)


def _assert_same_extraction(t):
    c = extract_total_cocycle(t)
    psi, phi, omega = reference_extract(t)
    for got, want in ((c.psi, psi), (c.phi, phi), (c.omega, omega)):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == want[key].dtype
            assert np.array_equal(got[key], want[key]), key
    return c


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(EXTRACTION_CASES))
def test_batched_extraction_matches_reference(case, d):
    t = _extraction_fixture(case, d)
    c = _assert_same_extraction(t)
    tn = make_dualisable(t, c)
    cn = _assert_same_extraction(tn)
    th = dualize(tn, cn)
    ch = _assert_same_extraction(th)
    _assert_same_extraction(dualize(th, ch))


def _reference_error(t):
    with pytest.raises(InvalidTripleError) as ref:
        reference_extract(t)
    return str(ref.value)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("case", sorted(EXTRACTION_CASES))
def test_batched_extraction_fails_like_reference(case, d):
    t = _extraction_fixture(case, d)
    i = t.nerve.vertices[-1][0]
    cells = t.mu[i].shape[:2]
    mid = np.unravel_index(cells[0] * cells[1] // 2, cells)
    m = t.ctx.m

    non_scalar = t.mu[i].copy()
    non_scalar[-1, -1] = np.diag(np.exp(2j * np.pi * np.arange(d) / (d + 1)))
    off_root = t.mu[i].copy()
    off_root[mid] = off_root[mid] \
        * np.exp(1j * np.pi / m ** 2)
    for mu_i, kind in ((non_scalar, "not scalar"), (off_root, "does not snap")):
        bad = t.copy_with_mu({**t.mu, i: mu_i})
        want = _reference_error(bad)
        assert kind in want
        with pytest.raises(InvalidTripleError) as got:
            extract_total_cocycle(bad)
        assert str(got.value) == want


def _per_g_omega(t):
    """omega snapped one g-slab at a time, the layout extraction had before it
    stacked every g."""
    from tdual.linops import adjoint
    from tdual.triples import _snap_stack
    ctx = t.ctx
    shift, add = ctx.shift, ctx.G.add_table()
    hs = np.arange(len(add))[:, None]
    return {i: np.stack([_snap_stack(M[g] @ adjoint(M[add[g]]) @ M[hs, shift[g]],
                                     ctx.m, t.tau_s) for g in range(len(add))])
            for i, M in t.mu.items()}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("case", sorted(EXTRACTION_CASES))
def test_stacked_omega_matches_per_g_slabs(case, d):
    t = _extraction_fixture(case, d)
    c = extract_total_cocycle(t)
    tn = make_dualisable(t, c)
    cn = extract_total_cocycle(tn)
    th = dualize(tn, cn)
    for tri, cc in ((t, c), (tn, cn), (th, extract_total_cocycle(th))):
        want = _per_g_omega(tri)
        assert cc.omega.keys() == want.keys()
        for i, om in want.items():
            assert cc.omega[i].dtype == om.dtype and np.array_equal(cc.omega[i], om), i


def test_extraction_rejects_a_perturbed_omega_entry(z6fix, monkeypatch):
    import tdual.triples as triples
    snap = triples._snap_stack
    perturbed = []

    def off_by_one(mats, m, tol):
        k = snap(mats, m, tol)
        if mats.ndim == 5 and not perturbed:    # the first vertex's omega, at (g, h, z)
            k[1, 2, 0] = (k[1, 2, 0] + 1) % m
            perturbed.append(mats.shape)
        return k
    extract_total_cocycle(z6fix)
    monkeypatch.setattr(triples, "_snap_stack", off_by_one)
    with pytest.raises(InvalidTripleError, match="not a total cocycle"):
        extract_total_cocycle(z6fix)
    assert perturbed == [(6, 6, 3, 2, 2)]


# ---------------------------------------------------------------------------
# the stacked operator products against the per-coset loops they replaced:
# each stacked form must agree bit for bit

def _ref_perm(size, image):
    """Matrix sending basis vector e_j to e_{image[j]}."""
    P = np.zeros((size, size), dtype=complex)
    for j in range(size):
        P[image[j], j] = 1.0
    return P


def _ref_block_diag(blocks):
    d, n = blocks[0].shape[0], len(blocks)
    out = np.zeros((n * d, n * d), dtype=complex)
    for i, b in enumerate(blocks):
        out[i * d:(i + 1) * d, i * d:(i + 1) * d] = b
    return out


def _ref_translation(ctx, iz, d):
    return np.kron(_ref_perm(ctx.quotient.order, ctx.shift[ctx.lift[iz]]),
                   np.eye(d, dtype=complex))


def _ref_dual_transitions(t, c, ghat):
    ctx = t.ctx
    nq, d = ctx.quotient.order, t.fiber_dim
    eye_d = np.eye(d, dtype=complex)
    neg_x = ctx.quotient.neg_table()
    out = {}
    for e in t.nerve.edges:
        ig = ctx.lift[t.g.labels[e]]
        P = _ref_perm(nq, ctx.shift[ctx.neg[ig]])
        B = _ref_block_diag(t.zeta[e][neg_x])
        d2 = np.exp(2j * np.pi * c.phi[e][ctx.neg[ctx.lift], 0] / ctx.m)
        right = np.kron(P, eye_d) @ B @ np.kron(np.diag(d2.conj()), eye_d)
        arg = ctx.lift_hat[ctx.dual_quotient.add_table()[ghat.labels[e]]]
        step = ctx.sub[ctx.lift[ctx.shift[ig]], ctx.lift]
        d1 = np.repeat(ctx.phases[arg[:, None], step], d, axis=1)
        out[e] = d1[:, :, None] * right
    return out


def _ref_kappa_top(t, t_hat):
    from tdual.triples import kappa_phase
    ctx = t.ctx
    nq, nd, d = ctx.quotient.order, ctx.dual_quotient.order, t.fiber_dim
    eye_d = np.eye(d, dtype=complex)
    kap = kappa_phase(ctx)
    P = [_ref_translation(ctx, iz, d) for iz in range(nq)]
    D = [[np.kron(np.diag(kap[iz, izh]), eye_d) for izh in range(nd)] for iz in range(nq)]
    kappa = {}
    for v in t.nerve.vertices:
        M = t.mu[v[0]][ctx.neg[ctx.lift]]
        B = [adjoint(_ref_block_diag(M[:, iz])) for iz in range(nq)]
        kappa[v[0]] = np.array([[D[iz][izh] @ B[iz] @ P[iz] for izh in range(nd)]
                                for iz in range(nq)])
    res_glue = res_alpha = 0.0
    eye_q = np.eye(nq, dtype=complex)
    for e in t.nerve.edges:
        a, b = e
        ig = ctx.lift[t.g.labels[e]]
        igh = ctx.lift_hat[t_hat.g.labels[e]]
        alphas = np.zeros((nq, nd), dtype=complex)
        for iz in range(nq):
            target = np.kron(eye_q, t.zeta[e][iz])
            for izh in range(nd):
                lhs = kappa[a][ctx.shift[ig, iz], ctx.shift_hat[igh, izh]] \
                    @ t_hat.zeta[e][izh] @ adjoint(kappa[b][iz, izh])
                M = lhs @ adjoint(target)
                res_glue = max(res_glue, scalar_deviation(M))
                s = complex(np.trace(M)) / M.shape[0]
                alphas[iz, izh] = 1.0 / s
        moved = ctx.lift_hat[ctx.shift_hat[igh]]
        beta = ctx.phases[ctx.sub[moved, ctx.lift_hat]][:, ctx.lift].T
        const = alphas[:, :1] / beta[:, :1]
        res_alpha = max(res_alpha, float(np.max(np.abs(alphas - beta * const))))
    return kappa, {"kappa_top_gluing": res_glue, "alpha_factorisation": res_alpha}


def _ref_vertex_law(t):
    shift, add = t.ctx.shift, t.ctx.G.add_table()
    return max(scalar_deviation(M[g][shift] @ M @ adjoint(M[add[g]]))
               for M in t.mu.values() for g in range(len(add)))


def _ref_exterior_e2(t, t2):
    shift, add = t.ctx.shift, t.ctx.G.add_table()
    C = {i: adjoint(M) @ t2.mu[i] for i, M in t.mu.items()}
    hs = np.arange(len(add))[:, None]
    return max(float(np.max(np.abs(
        C[i][add[:, g]] - adjoint(M[g]) @ C[i][hs, shift[g]] @ M[g] @ C[i][g])))
        for i, M in t.mu.items() for g in range(len(add)))


def _ref_mu_periodicity(t, t_hat):
    ctx = t.ctx
    M = t_hat.mu[t.nerve.vertices[0][0]]
    res = 0.0
    for nperp in ctx.Nperp.positions:
        want = np.diag(np.repeat(ctx.phases[nperp, ctx.lift].conj(), t.fiber_dim))
        got = M[ctx.Gd.add_table()[:, nperp]] @ adjoint(M)
        res = max(res, float(np.max(np.abs(got - want))))
    return res


# (factors, generators of N, nerve, twist label on edge (0, 1) or None)
STACK_CASES = {
    "z6_twisted_circle": ([6], [[3]], "circle", [1]),
    "z2xz4_circle": ([2, 4], [[1, 2]], "circle", None),
    "z2xz2_sphere": ([2, 2], [[1, 1]], "sphere", None),
}


# at seeds 4 and 9, dividing alpha = 1/s with numpy's complex division
# instead of Python's moves alpha_factorisation in its last bit
@pytest.mark.parametrize("seed", [4, 9])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_operator_products_match_per_coset_loops(case, d, seed):
    factors, gens, nerve_name, label = STACK_CASES[case]
    ctx, nerve = ctx_for(factors, gens), getattr(Nerve, nerve_name)()
    twist = _circle_twist(ctx, nerve, label) if label is not None else None
    t = build_random_triple(nerve, ctx, d=d, seed=seed, twist=twist)
    tn = make_dualisable(t)
    cn = extract_total_cocycle(tn)
    ghat = dual_base_cocycle(tn, cn)
    th = dualize(tn, cn)

    zeta_hat, want = dual_transitions(tn, cn, ghat), _ref_dual_transitions(tn, cn, ghat)
    assert zeta_hat.keys() == want.keys()
    for e in want:
        assert np.array_equal(zeta_hat[e], want[e]), e
    kappa, krep = build_kappa_top(tn, th)
    ref_kappa, ref_krep = _ref_kappa_top(tn, th)
    for i in ref_kappa:
        assert np.array_equal(kappa[i], ref_kappa[i]), i
    for key in ("kappa_top_gluing", "alpha_factorisation"):
        assert np.array_equal(krep[key], ref_krep[key]), key
    assert np.array_equal(validate_triple(t)["vertex_law"], _ref_vertex_law(t))
    tp = exterior_perturbation(tn, seed=5)
    assert np.array_equal(exterior_family_residuals(tn, tp)["exterior_e2"],
                          _ref_exterior_e2(tn, tp))
    assert np.array_equal(dual_law_report(tn, th)["dual_mu_periodicity"],
                          _ref_mu_periodicity(tn, th))
