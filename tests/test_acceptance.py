"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.  Budgets are wall-clock seconds."""

import itertools
import time
from math import gcd

import numpy as np
import pytest

from tdual.cech import (
    GModule,
    Nerve,
    TwistCocycle,
    TwistedCochain,
    cohomology,
    delta_g,
    delta_matrix,
)
from tdual.groupcoh import (
    GroupCochain,
    GroupCochainSpace,
    TotalCochain,
    d_group,
    group_cohomology,
    total_differential,
)
from tdual.lca import FiniteLcaGroup, QuotientGroup, Subgroup
from tdual.triples import (
    DualityContext,
    build_kappa_top,
    build_random_triple,
    cocycle_certificate,
    dualize,
    dual_law_report,
    exterior_family_residuals,
    exterior_perturbation,
    extract_total_cocycle,
    make_dualisable,
    poincare_check,
    relift,
    trivial_mu,
    verify_involution,
)
from tdual.crossed import (
    verify_gluing,
    verify_point_theorem,
)

GROUP_PAIRS = {
    "Z4": ([4], [[2]]),
    "Z6": ([6], [[3]]),
    "Z2xZ2": ([2, 2], [[1, 1]]),
}


def ctx_for(name):
    factors, gens = GROUP_PAIRS[name]
    G = FiniteLcaGroup(factors)
    return DualityContext(G, Subgroup(G, [G.element(g) for g in gens]))


def report(criterion, passed, detail=""):
    line = f"CRITERION {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


# -------------------------------------------------------------------------
# shared fixture pool for criteria 3, 7, 8

SEEDS = list(range(20))


def fixture_params(seed):
    names = list(GROUP_PAIRS)
    name = names[seed % 3]
    nerve = Nerve.sphere() if (name != "Z6" and seed % 2 == 0) else Nerve.circle()
    d = 2 if seed % 4 in (0, 1) else 1
    return name, nerve, d


@pytest.fixture(scope="module")
def fixture_pool():
    pool = []
    for seed in SEEDS:
        name, nerve, d = fixture_params(seed)
        ctx = ctx_for(name)
        t = make_dualisable(build_random_triple(nerve, ctx, d=d, seed=seed))
        c = extract_total_cocycle(t)
        th = dualize(t, c)
        pool.append((seed, name, t, c, th))
    return pool


# -------------------------------------------------------------------------

def test_criterion_1_complex_laws():
    start = time.perf_counter()
    ok = True
    rng = np.random.default_rng(0)

    small_nerves = [Nerve.point(), Nerve(2, [[0, 1]]), Nerve.circle(), Nerve.sphere()]
    small_groups = [([4], [[2]]), ([6], [[3]]), ([8], [[4]]), ([2, 2], [[1, 1]])]
    # exhaustive (matrix-level) on the small pool: the composed
    # differential matrices vanish identically
    for nerve in small_nerves:
        for factors, gens in small_groups:
            G = FiniteLcaGroup(factors)
            N = Subgroup(G, [G.element(g) for g in gens])
            q = QuotientGroup(G, N)
            m = G.exponent
            r = {v[0]: q.reps()[int(rng.integers(0, q.order))]
                 for v in nerve.vertices}
            g = TwistCocycle.coboundary(nerve, q, r)
            M = GModule.functions_on_quotient(m, q)
            for k in range(nerve.dimension + 1):
                A = delta_matrix(nerve, M, g, k)
                B = delta_matrix(nerve, M, g, k + 1)
                if B.size and A.size and ((B @ A) % m).any():
                    ok = False
            # group differential: exhaustive at low arity via matrices
            from tdual.groupcoh import d_group_matrix
            sp0 = GroupCochainSpace(G, q, m, 0)
            sp1 = GroupCochainSpace(G, q, m, 1)
            if ((d_group_matrix(sp1) @ d_group_matrix(sp0)) % m).any():
                ok = False
            # arity-2 input and the total complex: random tables, exact law
            # (degree-2 totals drive arity-4 tables, so cap the group size)
            if G.order <= 6:
                sp2 = GroupCochainSpace(G, q, m, 2)
                f2 = GroupCochain(sp2, rng.integers(0, m, size=sp2.shape()))
                if not d_group(d_group(f2)).is_zero():
                    ok = False
            for p in range(3 if G.order <= 6 else 2):
                t = TotalCochain(nerve, G, q, m, p)
                for kl, blk in t.blocks.items():
                    for s in nerve.simplices(kl[0]):
                        blk.values[s] = rng.integers(0, m, size=blk.module.size)
                if not total_differential(total_differential(t, g), g).is_zero():
                    ok = False

    # 100 randomised larger instances
    big_nerves = [
        Nerve(5, [[0, 1, 2], [0, 2, 3], [0, 3, 4], [1, 2, 4], [2, 3, 4]]),
        Nerve(5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [1, 3]]),
        Nerve.sphere(),
    ]
    big_groups = [([9], [[3]]), ([12], [[4]]), ([8], [[2]]), ([6], [[2]]),
                  ([2, 4], [[1, 2]])]
    for trial in range(100):
        nerve = big_nerves[trial % len(big_nerves)]
        factors, gens = big_groups[trial % len(big_groups)]
        G = FiniteLcaGroup(factors)
        N = Subgroup(G, [G.element(g) for g in gens])
        q = QuotientGroup(G, N)
        m = G.exponent
        r = {v[0]: q.reps()[int(rng.integers(0, q.order))] for v in nerve.vertices}
        g = TwistCocycle.coboundary(nerve, q, r)
        M = GModule.functions_on_quotient(m, q)
        deg = int(rng.integers(0, nerve.dimension + 1))
        c = TwistedCochain(
            nerve, M, deg,
            {s: rng.integers(0, m, size=M.size) for s in nerve.simplices(deg)})
        if not delta_g(delta_g(c, g), g).is_zero():
            ok = False
        arity = int(rng.integers(0, 2))
        sp = GroupCochainSpace(G, q, m, arity)
        f = GroupCochain(sp, rng.integers(0, m, size=sp.shape()))
        if not d_group(d_group(f)).is_zero():
            ok = False
        p = int(rng.integers(0, 2))
        t = TotalCochain(nerve, G, q, m, p)
        for kl, blk in t.blocks.items():
            for s in nerve.simplices(kl[0]):
                blk.values[s] = rng.integers(0, m, size=blk.module.size)
        if not total_differential(total_differential(t, g), g).is_zero():
            ok = False

    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 10.0, f"runtime {elapsed:.1f}s < 10s")


def brute_cohomology_order(nerve, m, k):
    """Independent rank oracle: enumerate kernels and images over Z/m."""
    triv = GModule.trivial(m)
    G = FiniteLcaGroup([2])
    q = QuotientGroup(G, Subgroup(G, [G.element([1])]))
    g = TwistCocycle.trivial(nerve, q)
    A = delta_matrix(nerve, triv, g, k)
    n_k = len(nerve.simplices(k))
    ker = 0
    for v in itertools.product(range(m), repeat=n_k):
        x = np.array(v, dtype=np.int64)
        if A.shape[0] == 0 or not ((A @ x) % m).any():
            ker += 1
    if k == 0:
        return ker
    B = delta_matrix(nerve, triv, g, k - 1)
    images = set()
    for v in itertools.product(range(m), repeat=B.shape[1]):
        images.add(tuple(((B @ np.array(v, dtype=np.int64)) % m).tolist()))
    return ker // len(images)


def test_criterion_2_cohomology_oracles():
    start = time.perf_counter()
    ok = True
    G2 = FiniteLcaGroup([2])
    q2 = QuotientGroup(G2, Subgroup(G2, [G2.element([1])]))
    for nerve in (Nerve.circle(), Nerve.sphere()):
        g = TwistCocycle.trivial(nerve, q2)
        for m in (2, 4, 6):
            triv = GModule.trivial(m)
            for k in range(nerve.dimension + 1):
                if m ** len(nerve.simplices(k)) > 300000:
                    continue
                if k > 0 and m ** len(nerve.simplices(k - 1)) > 300000:
                    continue
                factors, _ = cohomology(nerve, triv, g, k)
                order = 1
                for f in factors:
                    order *= f
                if order != brute_cohomology_order(nerve, m, k):
                    ok = False
    for n in range(2, 7):
        for m in range(2, 7):
            G = FiniteLcaGroup([n])
            for k in (1, 2):
                factors, _ = group_cohomology(G, None, m, k)
                expected = [] if gcd(n, m) == 1 else [gcd(n, m)]
                if factors != expected:
                    ok = False
    elapsed = time.perf_counter() - start
    report(2, ok and elapsed < 30.0, f"runtime {elapsed:.1f}s < 30s")


def test_criterion_3_duality_engine(fixture_pool):
    start = time.perf_counter()
    ok = True
    assert len(fixture_pool) >= 20
    for seed, name, t, c, th in fixture_pool:
        # exact dual Cech base law on every 2-simplex
        dq = t.ctx.dual_quotient
        for (a, b, cc_) in t.nerve.simplices(2):
            if th.g.edge_values[(a, cc_)] != dq.add(th.g.edge_values[(a, b)],
                                                    th.g.edge_values[(b, cc_)]):
                ok = False
        rep = dual_law_report(t, th, extract_total_cocycle(th))
        if rep["dual_cech_law"] >= 1e-9 or rep["dual_decker_law"] >= 1e-9:
            ok = False
        inv = verify_involution(t)
        if inv["double_dual_base_equals_original"] != 0.0:
            ok = False
        if inv["double_dual_class_certificate"] != 0.0:
            ok = False
        if inv.get("certificate_residual", 1.0) != 0.0:
            ok = False
    elapsed = time.perf_counter() - start
    report(3, ok and elapsed < 120.0,
           f"{len(fixture_pool)} fixtures, runtime {elapsed:.1f}s < 120s")


def test_criterion_4_poincare():
    start = time.perf_counter()
    ok = True
    for name in GROUP_PAIRS:
        rep = poincare_check(ctx_for(name), seed=3)
        if rep["q_plus_r_coboundary"] != 0.0:
            ok = False
        if rep["kappa_unitary_word"] >= 1e-9:
            ok = False
        if rep["sigma_hat_independence"] != 0.0:
            ok = False
    elapsed = time.perf_counter() - start
    report(4, ok and elapsed < 10.0, f"runtime {elapsed:.1f}s < 10s")


def test_criterion_5_crossed_point():
    start = time.perf_counter()
    ok = True
    # minimal instance: Z/2, N = 0, trivial cocycle
    G2 = FiniteLcaGroup([2])
    ctx2 = DualityContext(G2, Subgroup(G2, []))
    rep = verify_point_theorem(ctx2, 1, trivial_mu(ctx2, 1),
                               trials=4, seed=1)
    if not all(v < 1e-8 for v in rep.values()):
        ok = False
    # fixture-derived cocycle for (Z/6, <3>, d = 2)
    ctx6 = ctx_for("Z6")
    t6 = make_dualisable(build_random_triple(Nerve.circle(), ctx6, d=2, seed=42))
    rep6 = verify_point_theorem(ctx6, 2, t6.mu[0], trials=4, seed=2)
    if not all(v < 1e-8 for v in rep6.values()):
        ok = False
    if rep6["injective_rank_deficit"] != 0.0 or rep["injective_rank_deficit"] != 0.0:
        ok = False
    elapsed = time.perf_counter() - start
    report(5, ok and elapsed < 60.0, f"runtime {elapsed:.1f}s < 60s")


def test_criterion_6_gluing():
    start = time.perf_counter()
    ok = True
    ctx6 = ctx_for("Z6")
    t = make_dualisable(build_random_triple(Nerve.circle(), ctx6, d=2, seed=42))
    th = dualize(t, extract_total_cocycle(t))
    rep = verify_gluing(t, th, trials=10, seed=3)
    if rep["section_transition"] >= 1e-8 or rep["section_family"] >= 1e-8:
        ok = False
    # degenerate single-vertex nerve reproduces the point criterion
    tp = make_dualisable(build_random_triple(Nerve.point(), ctx6, d=2, seed=43))
    thp = dualize(tp, extract_total_cocycle(tp))
    repp = verify_gluing(tp, thp, trials=2, seed=4)
    if repp["edges"] != 0:
        ok = False
    point = verify_point_theorem(ctx6, 2, tp.mu[0], trials=2, seed=5)
    if not all(v < 1e-8 for v in point.values()):
        ok = False
    elapsed = time.perf_counter() - start
    report(6, ok and elapsed < 60.0, f"runtime {elapsed:.1f}s < 60s")


def test_criterion_7_kappa_top(fixture_pool):
    start = time.perf_counter()
    ok = True
    for seed, name, t, c, th in fixture_pool:
        _, rep = build_kappa_top(t, th)
        if rep["kappa_top_gluing"] >= 1e-9 or rep["alpha_factorisation"] >= 1e-9:
            ok = False
    elapsed = time.perf_counter() - start
    report(7, ok, f"{len(fixture_pool)} fixtures, runtime {elapsed:.1f}s")


def test_criterion_8_exterior_equivalence(fixture_pool):
    start = time.perf_counter()
    ok = True
    used = 0
    for seed, name, t, c, th in fixture_pool[:10]:
        tp = exterior_perturbation(t, seed=seed + 100)
        er = exterior_family_residuals(t, tp)
        if max(er.values()) >= 1e-9:
            ok = False
        cp = extract_total_cocycle(relift(tp, seed=seed + 200))
        if cocycle_certificate(c, cp) is None:
            ok = False
        used += 1
    elapsed = time.perf_counter() - start
    report(8, ok and used == 10, f"{used} perturbed fixtures, runtime {elapsed:.1f}s")
