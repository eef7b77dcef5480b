import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdual.cech import GModule, Nerve, TwistCocycle, TwistedCochain, delta_g, delta_matrix
from tdual.errors import ResourceCapError
from tdual.groupcoh import (
    MAX_TOTAL_ARITY,
    GroupCochain,
    GroupCochainSpace,
    TotalCochain,
    d_group,
    d_group_matrix,
    group_cohomology,
    solve_total_coboundary,
    total_cohomology,
    total_differential,
    total_dimension,
    total_matrix,
)
from tdual.lca import FiniteLcaGroup, QuotientGroup, Subgroup

from test_cech import _ref_delta_g


def make_ctx(factors, gens):
    G = FiniteLcaGroup(factors)
    N = Subgroup(G, [G.element(g) for g in gens])
    return G, N, QuotientGroup(G, N)


def hom_count(n, m):
    """Oracle: |Hom(Z/n, Z/m)| by direct enumeration."""
    return sum(1 for a in range(m) if (a * n) % m == 0)


def test_arity0_differential_formula():
    # (df)(g)(z) = f(z + gN) - f(z); trivial action gives df = 0
    G, N, q = make_ctx([4], [[2]])
    sp = GroupCochainSpace(G, q, 8, 0)
    f = GroupCochain(sp, np.array([1, 5]))
    df = d_group(f)
    one = G.index(G.element([1]))
    assert df.values[one].tolist() == [4, 4]
    two = G.index(G.element([2]))
    assert df.values[two].tolist() == [0, 0]
    sp0 = GroupCochainSpace(G, None, 8, 0)
    f0 = GroupCochain(sp0, np.array([5]))
    assert d_group(f0).is_zero()


@pytest.mark.parametrize("quot", [None, "proper"])
@pytest.mark.parametrize("arity", [0, 1, 2])
def test_d_squared_zero(quot, arity):
    G, N, q = make_ctx([4], [[2]])
    quotient = q if quot == "proper" else None
    sp = GroupCochainSpace(G, quotient, 8, arity)
    rng = np.random.default_rng(arity + (0 if quot is None else 10))
    f = GroupCochain(sp, rng.integers(0, 8, size=sp.shape()))
    assert d_group(d_group(f)).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_cyclic_cohomology_closed_form(n, m):
    # H^k(Z/n, Z/m trivial) = Z/gcd(n, m) for k = 1, 2
    G = FiniteLcaGroup([n])
    for k in (1, 2):
        factors, reps = group_cohomology(G, None, m, k)
        expected = [] if gcd(n, m) == 1 else [gcd(n, m)]
        assert factors == expected, (n, m, k)
        # representatives are cocycles and not boundaries
        for rep in reps:
            assert d_group(rep).is_zero()


@pytest.mark.parametrize("n,m", [(2, 2), (2, 4), (3, 6)])
def test_h2_nonzero_examples(n, m):
    G = FiniteLcaGroup([n])
    factors, _ = group_cohomology(G, None, m, 2)
    assert factors == [gcd(n, m)]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("m", [2, 4, 6])
def test_h1_matches_hom_enumeration(n, m):
    G = FiniteLcaGroup([n])
    factors, _ = group_cohomology(G, None, m, 1)
    order = 1
    for f in factors:
        order *= f
    assert order == hom_count(n, m)


def rand_total(nerve, G, q, m, p, rng):
    t = TotalCochain(nerve, G, q, m, p)
    for kl, blk in t.blocks.items():
        for s in nerve.simplices(kl[0]):
            blk.values[s] = rng.integers(0, m, size=blk.module.size)
    return t


@pytest.mark.parametrize("p", [0, 1, 2])
def test_total_differential_squares_to_zero(p):
    G, N, q = make_ctx([4], [[2]])
    nerve = Nerve.circle()
    rng = np.random.default_rng(p)
    r = {v[0]: q.reps()[int(rng.integers(0, q.order))] for v in nerve.vertices}
    g = TwistCocycle.coboundary(nerve, q, r)
    t = rand_total(nerve, G, q, 8, p, rng)
    assert total_differential(total_differential(t, g), g).is_zero()


def test_zero_maps_to_zero():
    G, N, q = make_ctx([4], [[2]])
    nerve = Nerve.circle()
    g = TwistCocycle.trivial(nerve, q)
    t = TotalCochain(nerve, G, q, 8, 1)
    assert total_differential(t, g).is_zero()


def test_bicomplex_squares_commute():
    G, N, q = make_ctx([4], [[2]])
    nerve = Nerve.circle()
    rng = np.random.default_rng(3)
    r = {v[0]: q.reps()[int(rng.integers(0, 2))] for v in nerve.vertices}
    g = TwistCocycle.coboundary(nerve, q, r)

    def dstar(c, l):
        spl = GroupCochainSpace(G, q, 8, l)
        spl1 = GroupCochainSpace(G, q, 8, l + 1)
        out = TwistedCochain(c.nerve, spl1.as_gmodule(), c.degree)
        for s, v in c.values.items():
            out.values[s] = d_group(GroupCochain(spl, v.reshape(spl.shape()))).flatten()
        return out

    for (k, l) in [(0, 1), (1, 0), (0, 2), (1, 1)]:
        sp = GroupCochainSpace(G, q, 8, l)
        c = TwistedCochain(
            nerve, sp.as_gmodule(), k,
            {s: rng.integers(0, 8, size=sp.size) for s in nerve.simplices(k)})
        lhs = delta_g(dstar(c, l), g)
        rhs = dstar(delta_g(c, g), l)
        assert (lhs - rhs).is_zero(), (k, l)


@pytest.mark.parametrize("factors,gens", [([4], [[2]]), ([2, 2], [[1, 1]])])
def test_point_nerve_total_equals_group_cohomology(factors, gens):
    G, N, q = make_ctx(factors, gens)
    pt = Nerve.point()
    g = TwistCocycle.trivial(pt, q)
    m = 2 * G.exponent
    for p in (0, 1, 2):
        ft, _ = total_cohomology(pt, G, q, m, g, p)
        fg, _ = group_cohomology(G, q, m, p)
        assert ft == fg, p


def test_edgeless_nerve_total():
    # no overlaps and the trivial group: one copy of the coefficients per
    # vertex in degree 0, nothing above
    G = FiniteLcaGroup([])
    q = QuotientGroup(G, Subgroup(G, []))
    nerve = Nerve(3, [])
    g = TwistCocycle.trivial(nerve, q)
    assert total_cohomology(nerve, G, q, 4, g, 0)[0] == [4, 4, 4]
    assert total_cohomology(nerve, G, q, 4, g, 1)[0] == []
    assert total_cohomology(nerve, G, q, 4, g, 2)[0] == []


def test_edgeless_nerve_total_with_symmetry():
    # no overlaps but a nontrivial group: the group direction survives,
    # one copy of H^p(G, M) per vertex
    G = FiniteLcaGroup([2])
    N = Subgroup(G, [G.element([1])])   # N = G, so G/N is trivial
    q = QuotientGroup(G, N)
    nerve = Nerve(3, [])
    g = TwistCocycle.trivial(nerve, q)
    assert total_cohomology(nerve, G, q, 2, g, 0)[0] == [2, 2, 2]
    assert total_cohomology(nerve, G, q, 2, g, 1)[0] == [2, 2, 2]


def test_resource_cap(monkeypatch):
    monkeypatch.setenv("TDUAL_MAX_DIM", "10")
    G, N, q = make_ctx([4], [[2]])
    with pytest.raises(ResourceCapError):
        nerve = Nerve.circle()
        total_cohomology(nerve, G, q, 8, TwistCocycle.trivial(nerve, q), 2)


def test_solve_total_coboundary_roundtrip():
    G, N, q = make_ctx([4], [[2]])
    nerve = Nerve.circle()
    rng = np.random.default_rng(9)
    r = {v[0]: q.reps()[int(rng.integers(0, 2))] for v in nerve.vertices}
    g = TwistCocycle.coboundary(nerve, q, r)
    x = rand_total(nerve, G, q, 4, 1, rng)
    target = total_differential(x, g)
    sol = solve_total_coboundary(nerve, G, q, 4, g, target)
    assert sol is not None
    assert (total_differential(sol, g) - target).is_zero()


def test_solve_total_coboundary_degree_zero():
    # the only degree-0 coboundary is zero, witnessed by the empty degree -1 cochain
    G, N, q = make_ctx([4], [[2]])
    nerve = Nerve.circle()
    g = TwistCocycle.trivial(nerve, q)
    zero = TotalCochain(nerve, G, q, 4, 0)
    sol = solve_total_coboundary(nerve, G, q, 4, g, zero)
    assert sol is not None and sol.degree == -1
    assert (total_differential(sol, g) - zero).is_zero()
    nonzero = rand_total(nerve, G, q, 4, 0, np.random.default_rng(3))
    assert not nonzero.is_zero()
    assert solve_total_coboundary(nerve, G, q, 4, g, nonzero) is None


def unit_vector_matrix(apply, n_src):
    """Reference assembly: the single-cochain operator on each e_j alone."""
    return np.stack([apply(e) for e in np.eye(n_src, dtype=np.int64)], axis=1)


@pytest.mark.parametrize("quot", [None, "proper"])
@pytest.mark.parametrize("arity", [0, 1, 2])
def test_d_group_matrix_matches_unit_vector_loop(quot, arity):
    G, N, q = make_ctx([2, 2], [[1, 1]])
    sp = GroupCochainSpace(G, q if quot == "proper" else None, 4, arity)
    ref = unit_vector_matrix(
        lambda e: d_group(GroupCochain(sp, e.reshape(sp.shape()))).flatten(), sp.size)
    assert np.array_equal(d_group_matrix(sp), ref)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_total_matrix_matches_unit_vector_loop(p):
    G, N, q = make_ctx([4], [[2]])
    nerve = Nerve.circle()
    g = TwistCocycle(nerve, q, {(0, 1): q.reps()[1], (0, 2): q.zero(), (1, 2): q.zero()})
    ref = unit_vector_matrix(
        lambda e: total_differential(
            TotalCochain.from_flat(nerve, G, q, 4, p, e), g).flatten(),
        total_dimension(nerve, G, q, 4, p))
    assert np.array_equal(total_matrix(nerve, G, q, 4, g, p), ref)


def test_batched_total_differential_matches_columns():
    G, N, q = make_ctx([2, 2], [[1, 1]])
    nerve = Nerve.sphere()
    g = TwistCocycle.trivial(nerve, q)
    rng = np.random.default_rng(4)
    flat = rng.integers(0, 2, size=(total_dimension(nerve, G, q, 2, 1), 3))
    batch = total_differential(TotalCochain.from_flat(nerve, G, q, 2, 1, flat), g)
    for j in range(3):
        one = total_differential(TotalCochain.from_flat(nerve, G, q, 2, 1, flat[:, j]), g)
        assert np.array_equal(batch.flatten()[:, j], one.flatten())


def test_group_cochain_checks_leading_axes():
    G, N, q = make_ctx([4], [[2]])
    sp = GroupCochainSpace(G, q, 8, 1)          # table shape (4, 2)
    for bad in [(4, 3), (2, 4), (8,), (4,)]:
        with pytest.raises(ValueError):
            GroupCochain(sp, np.zeros(bad, dtype=np.int64))
    f = GroupCochain(sp, np.ones((4, 2, 5), dtype=np.int64))   # a batch of five
    assert f.flatten().shape == (8, 5)


def per_simplex_total_differential(t, g):
    """d_tot with one d_group call per simplex: the reference for the batched one."""
    p = t.degree
    sign = -((-1) ** p)
    out: dict = {}

    def collect(kl, c):
        out[kl] = out[kl] + c if kl in out else c

    for (k, l), blk in t.blocks.items():
        collect((k + 1, l), delta_g(blk, g))
        if l + 1 <= MAX_TOTAL_ARITY:
            sp = t.space(l)
            vals = {s: sign * d_group(GroupCochain.from_flat(sp, v)).flatten()
                    for s, v in blk.values.items()}
            collect((k, l + 1),
                    TwistedCochain(t.nerve, t.space(l + 1).as_gmodule(), k, vals))
    return TotalCochain(t.nerve, t.G, t.quotient, t.m, p + 1, out)


FIVE = Nerve(5, [[0, 1, 2], [0, 2, 3], [0, 3, 4], [1, 2, 4], [2, 3, 4]])


def _twist(nerve, q, rng):
    if nerve.simplices(2):
        r = {v[0]: q.reps()[int(rng.integers(0, q.order))] for v in nerve.vertices}
        return TwistCocycle.coboundary(nerve, q, r)
    # on the circle every edge labelling is a cocycle: a twist of nonzero class
    return TwistCocycle(nerve, q, {e: q.reps()[int(rng.integers(0, q.order))]
                                   for e in nerve.edges})


# degree 3 leaves blocks without simplices: (2, 1) and (3, 0) on the circle,
# (3, 0) on the sphere and on the five-vertex nerve; the point's blocks hold
# one simplex each
@pytest.mark.parametrize("nerve", [Nerve.point(), Nerve.circle(), Nerve.sphere(), FIVE],
                         ids=["point", "circle", "sphere", "five"])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["unbatched", "batched"])
def test_total_differential_matches_per_simplex_reference(nerve, p, batch):
    G, N, q = make_ctx([4], [[2]])
    rng = np.random.default_rng(10 * p + len(batch))
    g = _twist(nerve, q, rng)
    flat = rng.integers(0, 8, size=(total_dimension(nerve, G, q, 8, p),) + batch)
    t = TotalCochain.from_flat(nerve, G, q, 8, p, flat)
    got, want = total_differential(t, g), per_simplex_total_differential(t, g)
    assert got.blocks.keys() == want.blocks.keys()
    for kl, blk in want.blocks.items():
        assert got.blocks[kl].values.keys() == blk.values.keys()
        for s, v in blk.values.items():
            assert np.array_equal(got.blocks[kl].values[s], v), (kl, s)
    assert np.array_equal(got.flatten(), want.flatten())


def test_total_differential_calls_d_group_once_per_block(monkeypatch):
    import tdual.groupcoh as groupcoh
    calls = []
    fn = groupcoh.d_group

    def counted(f):
        calls.append(f.values.shape)
        return fn(f)
    monkeypatch.setattr(groupcoh, "d_group", counted)
    G, N, q = make_ctx([4], [[2]])
    nerve = Nerve.circle()
    t = rand_total(nerve, G, q, 8, 2, np.random.default_rng(1))
    total_differential(t, TwistCocycle.trivial(nerve, q))
    # blocks (1, 1) and (0, 2) have simplices; (2, 0) has none, so no call
    assert sorted(calls) == [(4, 2, 3), (4, 4, 2, 3)]


def _ref_d_group(f):
    """d_group entry by entry from the formula, one table at a time."""
    sp = f.space
    G, m, l = sp.G, sp.m, sp.arity
    add, act = G.add_table(), sp.fiber.act
    out = np.zeros((G.order,) * (l + 1) + (sp.q,), dtype=np.int64)
    for tup in np.ndindex(*(G.order,) * (l + 1)):
        acc = (-1) ** (l + 1) * f.values[tup[:-1]]
        for i in range(1, l + 1):
            acc = acc + (-1) ** i * f.values[
                tup[:i - 1] + (add[tup[i - 1], tup[i]],) + tup[i + 1:]]
        out[tup] = (acc + f.values[tup[1:]][act[sp.coset[tup[0]]]]) % m
    return out


@pytest.mark.parametrize("arity", [0, 1, 2])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["unbatched", "batched"])
def test_d_group_of_zero_skips_the_tuple_loop(arity, batch, monkeypatch):
    import tdual.groupcoh as groupcoh
    G, N, q = make_ctx([6], [[3]])
    sp = GroupCochainSpace(G, q, 6, arity)

    def no_loop(*args, **kw):
        raise AssertionError("d_group looped over a zero cochain")
    monkeypatch.setattr(groupcoh.itertools, "product", no_loop)
    df = d_group(GroupCochain(sp, np.zeros(sp.shape() + batch, dtype=np.int64)))
    assert df.space.arity == arity + 1
    assert df.values.shape == (6,) * (arity + 1) + (q.order,) + batch
    assert df.values.dtype == np.int64 and df.is_zero()


@pytest.mark.parametrize("arity", [0, 1, 2])
def test_d_group_of_nonzero_matches_formula(arity):
    G, N, q = make_ctx([6], [[3]])
    sp = GroupCochainSpace(G, q, 6, arity)
    rng = np.random.default_rng(arity)
    # one batch column zero, one a point mass, one random: the batch is not zero
    vals = np.zeros(sp.shape() + (3,), dtype=np.int64)
    vals[(1,) * arity + (2, 1)] = 5
    vals[..., 2] = rng.integers(0, 6, size=sp.shape())
    got = d_group(GroupCochain(sp, vals)).values
    for j in range(3):
        want = _ref_d_group(GroupCochain(sp, vals[..., j]))
        assert np.array_equal(got[..., j], want)
        assert np.array_equal(d_group(GroupCochain(sp, vals[..., j])).values, want)
    assert got[..., 1].any() and not got[..., 0].any()


# the bench's seven (G, N), then N = 0 and N = G
SWEEP_GROUPS = [([4], [[2]]), ([6], [[3]]), ([8], [[4]]), ([9], [[3]]), ([12], [[4]]),
                ([2, 2], [[1, 1]]), ([2, 4], [[1, 2]]), ([6], []), ([2, 2], [[1, 0], [0, 1]])]
SWEEP_NERVES = [Nerve.point(), Nerve.circle(), Nerve.sphere(), FIVE]
SWEEP_CAP = 512


def _sweep_setting(data):
    factors, gens = data.draw(st.sampled_from(SWEEP_GROUPS))
    G, N, q = make_ctx(factors, gens)
    nerve = data.draw(st.sampled_from(SWEEP_NERVES))
    g = _twist(nerve, q, np.random.default_rng(data.draw(st.integers(0, 2 ** 16))))
    return G, q, G.exponent, nerve, g


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_d_group_matrix_matches_unit_vector_loop_sweep(data):
    G, q, m, _, _ = _sweep_setting(data)
    quotient = data.draw(st.sampled_from([q, None]))
    arity = data.draw(st.integers(0, 3))
    while arity and G.order ** (arity + 1) * q.order > SWEEP_CAP:
        arity -= 1
    sp = GroupCochainSpace(G, quotient, m, arity)
    ref = unit_vector_matrix(
        lambda e: d_group(GroupCochain(sp, e.reshape(sp.shape()))).flatten(), sp.size)
    assert np.array_equal(d_group_matrix(sp), ref)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_delta_matrix_matches_unit_vector_loop_sweep(data):
    G, q, m, nerve, g = _sweep_setting(data)
    module = data.draw(st.sampled_from([
        GModule.trivial(m), GModule.functions_on_quotient(m, q),
        GroupCochainSpace(G, q, m, 1).as_gmodule()]))
    for k in range(nerve.dimension + 1):
        n_src, n_dst = (len(nerve.simplices(j)) * module.size for j in (k, k + 1))
        if max(n_src, n_dst) > SWEEP_CAP:
            break
        ref = unit_vector_matrix(
            lambda e: _ref_delta_g(TwistedCochain.from_flat(nerve, module, k, e), g).flatten(),
            n_src)
        assert np.array_equal(delta_matrix(nerve, module, g, k), ref), k


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_delta_g_matches_reference_loop_sweep(data):
    G, q, m, nerve, g = _sweep_setting(data)
    module = data.draw(st.sampled_from([
        GModule.trivial(m), GModule.functions_on_quotient(m, q),
        GroupCochainSpace(G, q, m, 1).as_gmodule()]))
    batch = data.draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    for k in range(nerve.dimension + 1):
        c = TwistedCochain(nerve, module, k,
                           {s: rng.integers(0, m, size=(module.size,) + batch)
                            for s in nerve.simplices(k)})
        got, want = delta_g(c, g), _ref_delta_g(c, g)
        assert got.degree == want.degree == k + 1 and got.values.keys() == want.values.keys()
        for s, v in want.values.items():
            assert got.values[s].shape == v.shape and np.array_equal(got.values[s], v), (k, s)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_total_matrix_matches_unit_vector_loop_sweep(data):
    G, q, m, nerve, g = _sweep_setting(data)
    for p in range(3):
        n_src, n_dst = (total_dimension(nerve, G, q, m, d) for d in (p, p + 1))
        if max(n_src, n_dst) > SWEEP_CAP:
            break
        ref = unit_vector_matrix(
            lambda e: total_differential(
                TotalCochain.from_flat(nerve, G, q, m, p, e), g).flatten(), n_src)
        assert np.array_equal(total_matrix(nerve, G, q, m, g, p), ref), p


def test_d_group_matrix_peak_memory_is_its_output(monkeypatch):
    # Z12/<6> arity 2 is 10368 x 864: the index arrays and the scatter add
    # under a tenth to the matrix, where the identity batch took twice it
    monkeypatch.setenv("TDUAL_MAX_DIM", "10368")
    G, N, q = make_ctx([12], [[6]])
    sp = GroupCochainSpace(G, q, 12, 2)
    G.add_table(), sp.fiber.act              # tables the group caches
    tracemalloc.start()
    try:
        A = d_group_matrix(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.shape == (10368, 864)
    assert peak <= 1.1 * A.nbytes, (peak, A.nbytes)


def test_matrix_builders_refuse_over_cap_before_allocating(monkeypatch):
    monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
    G, N, q = make_ctx([12], [[6]])
    sp = GroupCochainSpace(G, q, 12, 2)                 # 10368 x 864
    module = GroupCochainSpace(G, q, 12, 2).as_gmodule()
    nerve = Nerve.circle()
    g = TwistCocycle.trivial(nerve, q)
    G.add_table(), q.add_table()
    builders = [lambda: d_group_matrix(sp),
                lambda: delta_matrix(nerve, module, g, 0),            # 2592 x 2592
                lambda: total_matrix(nerve, G, q, 12, g, 2)]          # 33696 x 2808
    for build in builders:
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak


# ---------------------------------------------------------------------------
# one factorisation of each total matrix per live twist cocycle

def _spy_smith_forms(monkeypatch):
    """Record every matrix smith_form is asked to factor, reduced mod m."""
    from tdual import zmodlin
    seen = []
    real = zmodlin.smith_form

    def spy(A, m, **kw):
        seen.append(np.asarray(A, dtype=np.int64) % m)
        return real(A, m, **kw)
    monkeypatch.setattr(zmodlin, "smith_form", spy)
    return seen


def _times_factored(seen, A):
    return sum(1 for M in seen if M.shape == A.shape and np.array_equal(M, A))


# (group, N generators, nerve, degree, circle twist labels) of ladder total rungs
TOTAL_RUNGS = [([4], [[2]], "circle", 1, None), ([6], [[3]], "circle", 1, [1, 0, 0]),
               ([2, 2], [[1, 1]], "sphere", 1, None)]


def _rung_twist(nerve, q, labels):
    if labels is None:
        return TwistCocycle.trivial(nerve, q)
    return TwistCocycle(nerve, q, {e: q.reps()[i] for e, i in zip(nerve.edges, labels)})


def _rung(nerve, G, q, m, g, p, x0):
    """A ladder total rung: cohomology at p, then a certificate for d_tot(x0)."""
    factors, reps = total_cohomology(nerve, G, q, m, g, p)
    target = total_differential(TotalCochain.from_flat(nerve, G, q, m, p, x0), g)
    return factors, reps, solve_total_coboundary(nerve, G, q, m, g, target)


@pytest.mark.parametrize("factors,gens,nerve_name,p,labels", TOTAL_RUNGS)
def test_total_rung_factors_its_matrix_once(factors, gens, nerve_name, p, labels,
                                            monkeypatch):
    G, N, q = make_ctx(factors, gens)
    m = G.exponent
    nerve = getattr(Nerve, nerve_name)()
    x0 = np.random.default_rng(p).integers(0, m, size=total_dimension(nerve, G, q, m, p))
    # fresh cocycle objects share nothing: the parent's two factorisations
    fresh = [_rung_twist(nerve, q, labels) for _ in range(2)]
    want_factors, want_reps = total_cohomology(nerve, G, q, m, fresh[0], p)
    target = total_differential(TotalCochain.from_flat(nerve, G, q, m, p, x0), fresh[1])
    want_x = solve_total_coboundary(nerve, G, q, m, fresh[1], target)
    seen = _spy_smith_forms(monkeypatch)
    g = _rung_twist(nerve, q, labels)
    got_factors, got_reps, got_x = _rung(nerve, G, q, m, g, p, x0)
    A = total_matrix(nerve, G, q, m, g, p)
    assert _times_factored(seen, A) == 1
    assert got_factors == want_factors and len(got_reps) == len(want_reps)
    for a, b in zip(got_reps, want_reps):
        assert np.array_equal(a.flatten(), b.flatten())
    assert want_x is not None and np.array_equal(got_x.flatten(), want_x.flatten())
    assert (total_differential(got_x, g) - target).is_zero()


def test_factorisations_go_with_their_cocycle():
    # g keeps matrices and Smith forms only, never a closure back to g, so g
    # goes with its last reference, without the cyclic collector
    import gc
    import weakref
    from tdual.zmodlin import SmithForm
    G, N, q = make_ctx([4], [[2]])
    nerve = Nerve.circle()
    g = TwistCocycle.trivial(nerve, q)
    total_cohomology(nerve, G, q, 4, g, 1)
    assert sorted(g.totals) == [4] and sorted(g.totals[4]) == [0, 1]
    for A, sf in g.totals[4].values():
        assert type(A) is np.ndarray and (sf is None or type(sf) is SmithForm)
    assert g.totals[4][1][1] is not None
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_another_complex_neither_reads_nor_fills_the_memo(monkeypatch):
    # a second cocycle with equal labels is another object with its own memo
    G, N, q = make_ctx([4], [[2]])
    nerve = Nerve.circle()
    g = TwistCocycle.trivial(nerve, q)
    want = total_cohomology(nerve, G, q, 4, g, 1)
    A = total_matrix(nerve, G, q, 4, g, 1)
    entry = {p: tuple(v) for p, v in g.totals[4].items()}
    other = TwistCocycle.trivial(nerve, q)
    assert other.labels == g.labels
    seen = _spy_smith_forms(monkeypatch)
    got = total_cohomology(nerve, G, q, 4, other, 1)
    assert _times_factored(seen, A) == 1                         # not read
    assert g.totals[4].keys() == entry.keys()                    # not filled
    assert all(a is b for p, v in g.totals[4].items() for a, b in zip(v, entry[p]))
    assert sorted(other.totals[4]) == [0, 1]
    assert got[0] == want[0]
    for a, b in zip(got[1], want[1]):
        assert np.array_equal(a.flatten(), b.flatten())


def test_total_complex_refuses_another_nerve_or_quotient():
    # an equal nerve, or an equal quotient, that is not g's own object
    G, N, q = make_ctx([4], [[2]])
    nerve = Nerve.circle()
    g = TwistCocycle.trivial(nerve, q)
    target = TotalCochain(nerve, G, q, 4, 1)
    for args in ((Nerve(nerve.vertex_count, nerve.edges), G, q), (nerve, G, QuotientGroup(G, N)),
                 (nerve, FiniteLcaGroup([4]), q)):
        with pytest.raises(ValueError, match="own nerve and quotient"):
            total_cohomology(*args, 4, g, 1)
        with pytest.raises(ValueError, match="own nerve and quotient"):
            solve_total_coboundary(*args, 4, g, target)
    assert g.totals == {}


def test_cochain_family_builds_each_act_table_once(monkeypatch):
    # a degree-2 circle cochain, d_tot once and twice: one table per arity
    import tdual.groupcoh as groupcoh
    built = []

    class Spy(GModule):
        def __init__(self, m, act):
            built.append(act.shape[1])
            super().__init__(m, act)
    monkeypatch.setattr(groupcoh, "GModule", Spy)
    G, N, q = make_ctx([4], [[2]])
    nerve = Nerve.circle()
    g = TwistCocycle.trivial(nerve, q)
    flat = np.random.default_rng(5).integers(0, 4, size=total_dimension(nerve, G, q, 4, 2))
    t = TotalCochain.from_flat(nerve, G, q, 4, 2, flat)
    assert sorted(built) == [2, 8, 32]
    once = total_differential(t, g)
    assert sorted(built) == [2, 8, 32, 128]
    assert total_differential(once, g).is_zero()
    assert sorted(built) == [2, 8, 32, 128]
