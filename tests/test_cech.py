import itertools
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdual.cech import (
    GModule,
    Nerve,
    TwistCocycle,
    TwistedCochain,
    cohomology,
    delta_g,
    delta_matrix,
    r_conjugate_twist,
    r_sharp,
)
from tdual.groupcoh import GroupCochainSpace
from tdual.lca import FiniteLcaGroup, QuotientGroup, Subgroup


def make_ctx(factors, gens):
    G = FiniteLcaGroup(factors)
    N = Subgroup(G, [G.element(g) for g in gens])
    return G, N, QuotientGroup(G, N)


def brute_cohomology_order(nerve, m, k):
    """Oracle: |H^k| for plain Z/m coefficients by enumerating cochains."""
    triv = GModule.trivial(m)
    G, N, q = make_ctx([2], [[1]])
    g = TwistCocycle.trivial(nerve, q)
    A = delta_matrix(nerve, triv, g, k)
    n_k = len(nerve.simplices(k))
    ker = 0
    for v in itertools.product(range(m), repeat=n_k):
        x = np.array(v, dtype=np.int64)
        if A.shape[0] == 0 or not ((A @ x) % m).any():
            ker += 1
    if k == 0:
        im = 1
    else:
        B = delta_matrix(nerve, triv, g, k - 1)
        images = set()
        for v in itertools.product(range(m), repeat=B.shape[1]):
            images.add(tuple(((B @ np.array(v, dtype=np.int64)) % m).tolist()))
        im = len(images)
    return ker // im


class TestNerve:
    def test_face_closure(self):
        n = Nerve(4, [[0, 1, 2]])
        assert (0, 1) in n.edges and (1, 2) in n.edges and (0, 2) in n.edges
        assert (3,) in n.vertices
        assert n.dimension == 2

    def test_bad_vertex(self):
        with pytest.raises(ValueError):
            Nerve(2, [[0, 5]])

    def test_standard_nerves(self):
        assert len(Nerve.circle().edges) == 3
        assert len(Nerve.sphere().simplices(2)) == 4
        assert Nerve.point().dimension == 0


def _closure_reference(vertex_count, simplices):
    """{k: sorted k-simplices} of the nerve the given simplices span, closed
    under faces one face at a time from a pending set."""
    by_dim = {0: {(v,) for v in range(vertex_count)}}
    pending = set()
    for s in simplices:
        t = tuple(sorted(set(int(v) for v in s)))
        if not t:
            continue
        if t[0] < 0 or t[-1] >= vertex_count:
            raise ValueError(f"simplex {t} references a vertex outside the nerve")
        pending.add(t)
    while pending:
        t = pending.pop()
        k = len(t) - 1
        if t in by_dim.setdefault(k, set()):
            continue
        by_dim[k].add(t)
        if k > 0:
            for j in range(len(t)):
                pending.add(t[:j] + t[j + 1:])
    return {k: tuple(sorted(v)) for k, v in by_dim.items() if v}


def _faces(nerve):
    assert nerve.simplices(nerve.dimension + 1) == ()
    return {k: nerve.simplices(k) for k in range(nerve.dimension + 1)}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(0, n - 1), max_size=7), max_size=5))),
    st.data())
def test_nerve_faces_match_the_closure_reference(nerve, data):
    # inner lists repeat vertices and may be empty; some simplices come again,
    # reversed, so the given set holds duplicates
    n, simplices = nerve
    if simplices:
        again = data.draw(st.lists(st.sampled_from(simplices), max_size=3))
        simplices = simplices + [s[::-1] for s in again]
    assert _faces(Nerve(n, simplices)) == _closure_reference(n, simplices)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(-2, n + 1), max_size=4), max_size=4))))
def test_nerve_refuses_the_first_bad_simplex_as_the_reference(nerve):
    n, simplices = nerve
    try:
        expected = _closure_reference(n, simplices)
    except ValueError as exc:
        with pytest.raises(ValueError) as ei:
            Nerve(n, simplices)
        assert str(ei.value) == str(exc)
    else:
        assert _faces(Nerve(n, simplices)) == expected


REPORTS = pathlib.Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("report", sorted(p.name for p in REPORTS.glob("*_report.json")))
def test_golden_scenario_nerves_match_the_closure_reference(report):
    nerve = json.loads((REPORTS / report).read_text(encoding="utf-8"))["scenario"]["nerve"]
    assert _faces(Nerve(nerve["vertices"], nerve["simplices"])) == _closure_reference(
        nerve["vertices"], nerve["simplices"])


class TestGModule:
    def test_action_laws(self):
        # automorphisms, zero acts as identity, additivity
        G, N, q = make_ctx([6], [[3]])
        M = GModule.functions_on_quotient(6, q)
        import numpy as np
        rng = np.random.default_rng(0)
        v = rng.integers(0, 6, size=M.size)
        assert np.array_equal(v[M.act[q.index(q.zero())]], v)
        for x in q.reps():
            for y in q.reps():
                pxy = M.act[q.index(q.add(x, y))]
                px, py = M.act[q.index(x)], M.act[q.index(y)]
                assert np.array_equal(v[pxy], v[px][py])
                w = rng.integers(0, 6, size=M.size)
                assert np.array_equal(((v + w) % 6)[px], (v[px] + w[px]) % 6)


class TestTwist:
    def test_cocycle_law_enforced(self):
        G, N, q = make_ctx([4], [[0]])
        n = Nerve(3, [[0, 1, 2]])
        vals = {e: q.zero() for e in n.edges}
        vals[(0, 1)] = q.rep(G.element([1]))
        with pytest.raises(ValueError):
            TwistCocycle(n, q, vals)

    @pytest.mark.parametrize("case", ["missing_edge", "non_edge", "cocycle_law"])
    def test_from_labels_raises_the_constructors_errors(self, case):
        G, N, q = make_ctx([4], [[0]])
        n = Nerve(3, [[0, 1, 2]])
        labels = dict.fromkeys(n.edges, 0)
        if case == "missing_edge":
            del labels[(1, 2)]
        elif case == "non_edge":
            labels[(1, 0)] = 0
        else:
            labels[(0, 1)] = 1
        with pytest.raises(ValueError) as want:
            TwistCocycle(n, q, {e: q.reps()[x] for e, x in labels.items()})
        with pytest.raises(ValueError) as got:
            TwistCocycle.from_labels(n, q, labels)
        assert str(got.value) == str(want.value)

    def test_from_labels_matches_the_constructor(self):
        G, N, q = make_ctx([6], [[3]])
        n = Nerve.circle()
        labels = {(0, 1): 1, (0, 2): 2, (1, 2): 0}
        g = TwistCocycle.from_labels(n, q, labels)
        assert g.labels == labels
        assert TwistCocycle(n, q, g.edge_values).labels == labels

    def test_coboundary_valid_on_sphere(self):
        G, N, q = make_ctx([6], [[3]])
        n = Nerve.sphere()
        r = {i: q.rep(G.element([i])) for i in range(4)}
        g = TwistCocycle.coboundary(n, q, r)
        for (a, b, c) in n.simplices(2):
            assert g.edge_values[(a, c)] == q.add(g.edge_values[(a, b)],
                                                  g.edge_values[(b, c)])


def test_delta_on_worked_example():
    # 0-cochain (1,0,0) on the circle, Z/4 coefficients, trivial twist
    n = Nerve.circle()
    G, N, q = make_ctx([4], [[0]])
    M = GModule.trivial(4)
    g = TwistCocycle.trivial(n, q)
    c = TwistedCochain(n, M, 0, {(0,): np.array([1])})
    dc = delta_g(c, g)
    assert dc.values[(0, 1)].tolist() == [3]
    assert dc.values[(0, 2)].tolist() == [3]
    assert dc.values[(1, 2)].tolist() == [0]


def test_delta_constant_cochain_is_zero():
    n = Nerve.circle()
    G, N, q = make_ctx([4], [[0]])
    M = GModule.trivial(4)
    g = TwistCocycle.trivial(n, q)
    c = TwistedCochain(n, M, 0, {s: np.array([3]) for s in n.vertices})
    assert delta_g(c, g).is_zero()


def test_degree_above_dimension_is_zero_cochain():
    n = Nerve.circle()
    G, N, q = make_ctx([4], [[2]])
    M = GModule.functions_on_quotient(4, q)
    g = TwistCocycle.trivial(n, q)
    c = TwistedCochain(n, M, 1, {s: np.arange(M.size) for s in n.edges})
    up = delta_g(c, g)
    assert up.degree == 2 and up.is_zero() and not up.values


def test_a_value_on_a_non_simplex_is_refused():
    # flatten reads simplices only: such a value would be lost without a word
    M = GModule.trivial(4)
    with pytest.raises(KeyError):
        TwistedCochain(Nerve.circle(), M, 0, {(7,): [1]})
    c = TwistedCochain(Nerve.circle(), M, 0)
    for key in ((9,), (0, 1)):
        with pytest.raises(KeyError):
            c.values[key] = [1]
    assert list(c.values) == list(Nerve.circle().vertices) and c.is_zero()


def test_assigned_values_are_reduced_mod_m():
    c = TwistedCochain(Nerve.circle(), GModule.trivial(4), 0, {(2,): [9]})
    c.values[(0,)] = [4]
    c.values[(1,)] = [-1]
    assert c.flatten().tolist() == [0, 3, 1]
    c.values[(1,)] = [8]
    c.values[(2,)] = [-4]
    assert c.is_zero()


def test_values_are_views_of_the_flat_array():
    G, N, q = make_ctx([4], [[2]])
    M = GModule.functions_on_quotient(4, q)
    given = {s: np.arange(M.size) + 1 for s in Nerve.circle().vertices}
    c = TwistedCochain(Nerve.circle(), M, 0, given)
    for s in c.values:
        assert np.shares_memory(c.flatten(), c.values[s])
    given[(0,)][:] = 0          # the constructor copied its input
    c.values[(1,)][0] = 3       # a view writes the cochain
    assert c.flatten().tolist() == [1, 2, 3, 2, 1, 2]


@pytest.mark.parametrize("factors,gens", [([4], [[2]]), ([6], [[3]]), ([2, 2], [[1, 1]])])
@pytest.mark.parametrize("nerve", [Nerve.circle(), Nerve.sphere(), Nerve(2, [[0, 1]])])
def test_d2_zero_randomised(factors, gens, nerve):
    G, N, q = make_ctx(factors, gens)
    m = G.exponent
    M = GModule.functions_on_quotient(m, q)
    rng = np.random.default_rng(hash((tuple(factors), nerve.vertex_count)) % 2**31)
    r = {v[0]: q.reps()[int(rng.integers(0, q.order))] for v in nerve.vertices}
    g = TwistCocycle.coboundary(nerve, q, r)
    for deg in range(nerve.dimension + 1):
        c = TwistedCochain(
            nerve, M, deg,
            {s: rng.integers(0, m, size=M.size) for s in nerve.simplices(deg)})
        assert delta_g(delta_g(c, g), g).is_zero()


@pytest.mark.parametrize("m", [2, 4, 6])
def test_circle_cohomology_closed_form(m):
    n = Nerve.circle()
    _, _, q = make_ctx([2], [[1]])
    triv = GModule.trivial(m)
    g = TwistCocycle.trivial(n, q)
    assert cohomology(n, triv, g, 0)[0] == [m]
    assert cohomology(n, triv, g, 1)[0] == [m]
    assert cohomology(n, triv, g, 2)[0] == []


@pytest.mark.parametrize("m", [2, 4, 6])
def test_sphere_cohomology_closed_form(m):
    n = Nerve.sphere()
    _, _, q = make_ctx([2], [[1]])
    triv = GModule.trivial(m)
    g = TwistCocycle.trivial(n, q)
    assert cohomology(n, triv, g, 0)[0] == [m]
    assert cohomology(n, triv, g, 1)[0] == []
    assert cohomology(n, triv, g, 2)[0] == [m]


@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("nerve", [Nerve.circle(), Nerve.sphere(), Nerve(3, [[0, 1, 2]])])
def test_cohomology_matches_enumeration_oracle(m, nerve):
    _, _, q = make_ctx([2], [[1]])
    triv = GModule.trivial(m)
    g = TwistCocycle.trivial(nerve, q)
    for k in range(nerve.dimension + 1):
        if m ** len(nerve.simplices(k)) > 200000:
            continue
        if k > 0 and m ** len(nerve.simplices(k - 1)) > 200000:
            continue
        factors, _ = cohomology(nerve, triv, g, k)
        order = 1
        for f in factors:
            order *= f
        assert order == brute_cohomology_order(nerve, m, k), (m, k)


def test_point_nerve_invariants():
    n = Nerve.point()
    G, N, q = make_ctx([6], [[3]])
    M = GModule.functions_on_quotient(6, q)
    g = TwistCocycle.trivial(n, q)
    f0, reps0 = cohomology(n, M, g, 0)
    assert f0 == [6, 6, 6]          # all of Fun(Z/3, Z/6): no differentials
    assert cohomology(n, M, g, 1)[0] == []


def test_representatives_are_cocycles():
    n = Nerve.circle()
    G, N, q = make_ctx([6], [[3]])
    M = GModule.functions_on_quotient(6, q)
    r = {0: q.rep(G.element([1])), 1: q.rep(G.element([4])), 2: q.zero()}
    g = TwistCocycle.coboundary(n, q, r)
    for k in (0, 1):
        factors, reps = cohomology(n, M, g, k)
        for rep in reps:
            assert delta_g(rep, g).is_zero()


class TestRSharp:
    def setup_method(self):
        self.nerve = Nerve.circle()
        self.G, self.N, self.q = make_ctx([6], [[3]])
        self.M = GModule.functions_on_quotient(6, self.q)
        self.rng = np.random.default_rng(12)
        r0 = {v[0]: self.q.reps()[int(self.rng.integers(0, 3))]
              for v in self.nerve.vertices}
        self.g = TwistCocycle.coboundary(self.nerve, self.q, r0)

    def rand_cochain(self, deg):
        return TwistedCochain(
            self.nerve, self.M, deg,
            {s: self.rng.integers(0, 6, size=self.M.size)
             for s in self.nerve.simplices(deg)})

    def test_zero_r_is_identity(self):
        r = {v[0]: self.q.index(self.q.zero()) for v in self.nerve.vertices}
        c = self.rand_cochain(1)
        assert (r_sharp(c, r) - c).is_zero()

    def test_chain_map_and_inverse(self):
        r = {v[0]: int(self.rng.integers(0, 3)) for v in self.nerve.vertices}
        gp = r_conjugate_twist(self.g, r)
        for deg in (0, 1):
            c = self.rand_cochain(deg)
            lhs = delta_g(r_sharp(c, r), self.g)
            rhs = r_sharp(delta_g(c, gp), r)
            assert (lhs - rhs).is_zero()
            rneg = {v: self.q.index(self.q.neg(self.q.reps()[x])) for v, x in r.items()}
            assert (r_sharp(r_sharp(c, r), rneg) - c).is_zero()

    def test_cohomologous_twists_isomorphic_groups(self):
        r = {0: self.q.index(self.G.element([2])), 1: self.q.index(self.q.zero()),
             2: self.q.index(self.G.element([4]))}
        gp = r_conjugate_twist(self.g, r)
        for k in (0, 1):
            assert cohomology(self.nerve, self.M, self.g, k)[0] == \
                cohomology(self.nerve, self.M, gp, k)[0]


def _ref_delta_g(c, g):
    """delta_g simplex by simplex, face by face: the reference for the gather.

    Trailing axes of the values are batch axes and pass through.
    """
    nerve, module, k = c.nerve, c.module, c.degree
    m = module.m
    out = {}
    for s in nerve.simplices(k + 1):
        acc = 0
        # plain alternating sum over faces
        for j in range(len(s)):
            face = s[:j] + s[j + 1:]
            acc = (acc + (-1) ** j * c.values[face]) % m
        # twist term on the leading face, acted by the last edge label
        lead = s[:-1]
        shifted = c.values[lead][module.act[g.labels[s[-2:]]]]
        acc = (acc + (-1) ** k * (c.values[lead] - shifted)) % m
        out[s] = acc
    return TwistedCochain(nerve, module, k + 1, out)


def unit_vector_matrix(apply, n_src):
    """Reference assembly: the single-cochain operator on each e_j alone."""
    return np.stack([apply(e) for e in np.eye(n_src, dtype=np.int64)], axis=1)


@pytest.mark.parametrize("case", ["twisted_circle", "sphere_table_module"])
def test_delta_matrix_matches_unit_vector_loop(case):
    if case == "twisted_circle":
        G, N, q = make_ctx([6], [[3]])
        nerve = Nerve.circle()
        module = GModule.functions_on_quotient(6, q)
        g = TwistCocycle(nerve, q, {(0, 1): q.reps()[1], (0, 2): q.reps()[2],
                                    (1, 2): q.zero()})
    else:
        G, N, q = make_ctx([4], [[2]])
        nerve = Nerve.sphere()
        module = GroupCochainSpace(G, q, 4, 1).as_gmodule()
        g = TwistCocycle.coboundary(nerve, q, {0: q.reps()[1], 1: q.zero(),
                                               2: q.reps()[1], 3: q.zero()})
    for k in range(nerve.dimension + 1):
        ref = unit_vector_matrix(
            lambda e: _ref_delta_g(TwistedCochain.from_flat(nerve, module, k, e), g).flatten(),
            len(nerve.simplices(k)) * module.size)
        A = delta_matrix(nerve, module, g, k)
        assert A.shape == ref.shape and np.array_equal(A, ref), k


# ---------------------------------------------------------------------------
# covering-nerve oracle: Fun(G/N, Z/m) coefficients twisted by g give the
# Z/m cohomology of the G/N-sheeted cover the twist defines (Hatcher 3.H)

def covering_nerve(g: TwistCocycle) -> Nerve:
    """The cover of g's nerve: vertex (v, z) is v*q + z, and simplex s at
    sheet z lifts to (s_0, z) and (s_i, z + g_{s_0 s_i})."""
    nerve, q = g.nerve, g.quotient.order
    add = g.quotient.add_table()
    lifts = [[s[0] * q + z] + [v * q + int(add[z, g.labels[(s[0], v)]]) for v in s[1:]]
             for k in range(1, nerve.dimension + 1) for s in nerve.simplices(k)
             for z in range(q)]
    return Nerve(nerve.vertex_count * q, lifts)


COVER_GROUPS = [([4], [[2]]), ([6], [[3]]), ([6], [[2]]), ([2, 2], [[1, 1]]),
                ([2, 4], [[0, 2]]), ([4], []), ([2, 2], [])]
# circle, square and wedge of two circles carry free labels; disk and sphere
# have 2-simplices, whose cocycle law the coboundary twists keep
COVER_NERVES = {"circle": Nerve.circle(),
                "square": Nerve(4, [[0, 1], [1, 2], [2, 3], [0, 3]]),
                "wedge": Nerve(5, [[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]]),
                "disk": Nerve(4, [[0, 1, 2], [0, 2, 3]]),
                "sphere": Nerve.sphere()}


def test_twisted_cohomology_matches_the_covering_nerve():
    rng = np.random.default_rng(24)
    seen_holonomy = 0
    for factors, gens in COVER_GROUPS:
        G, _, q = make_ctx(factors, gens)
        m, reps = G.exponent, q.reps()
        module = GModule.functions_on_quotient(m, q)
        for name, nerve in COVER_NERVES.items():
            twists = [TwistCocycle.trivial(nerve, q)]
            for _ in range(3):
                if nerve.dimension == 1:
                    twists.append(TwistCocycle(nerve, q, {e: reps[int(rng.integers(q.order))]
                                                          for e in nerve.edges}))
                else:
                    twists.append(TwistCocycle.coboundary(
                        nerve, q, {v[0]: reps[int(rng.integers(q.order))]
                                   for v in nerve.vertices}))
            untwisted = None
            for g in twists:
                cover = covering_nerve(g)
                flat = TwistCocycle.trivial(cover, q)
                got = [cohomology(nerve, module, g, k)[0] for k in range(nerve.dimension + 1)]
                want = [cohomology(cover, GModule.trivial(m), flat, k)[0]
                        for k in range(nerve.dimension + 1)]
                assert got == want, (factors, gens, name, g.labels)
                untwisted = untwisted or got          # the trivial twist comes first
                seen_holonomy += got != untwisted
    # twists whose groups differ from the trivial twist's: the oracle sees the labels
    assert seen_holonomy > 0
