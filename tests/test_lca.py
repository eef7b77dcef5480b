import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tdual.lca import (
    QZ,
    FiniteLcaGroup,
    GroupElement,
    QuotientGroup,
    Subgroup,
    annihilator,
    dual_group,
    make_section,
    pairing,
)


def qz(n, d):
    return QZ.of(n, d)


class TestQZ:
    def test_normalisation(self):
        assert qz(5, 4) == qz(1, 4)
        assert qz(-1, 4) == qz(3, 4)
        assert qz(2, 4) == qz(1, 2)
        assert qz(0, 7) == QZ(0, 1)

    def test_arithmetic(self):
        assert qz(1, 4) + qz(1, 4) == qz(1, 2)
        assert qz(1, 6) - qz(1, 3) == qz(5, 6)
        assert -qz(1, 6) == qz(5, 6)


@pytest.mark.parametrize("factors", [[], [4], [2, 6]])
def test_add_table_matches_add(factors):
    G = FiniteLcaGroup(factors)
    T = G.add_table()
    assert T.shape == (G.order, G.order)
    for i, a in enumerate(G.elements()):
        for j, b in enumerate(G.elements()):
            assert G.elements()[T[i, j]] == G.add(a, b)
    assert G.add_table() is T   # built once per group


def test_pairing_examples():
    G = FiniteLcaGroup([4])
    assert pairing(G, G.element([1]), G.element([1])) == qz(1, 4)
    assert pairing(G, G.element([0]), G.element([3])) == QZ(0, 1)
    G6 = FiniteLcaGroup([6])
    assert pairing(G6, G6.element([2]), G6.element([3])) == QZ(0, 1)


def test_pairing_shape_mismatch():
    G = FiniteLcaGroup([4])
    H = FiniteLcaGroup([2, 2])
    with pytest.raises(ValueError):
        pairing(G, H.element([1, 0]), G.element([1]))


@pytest.mark.parametrize("factors", [[4], [6], [2, 2], [8, 8], [2, 4], [2, 2, 3]])
def test_pairing_bilinear_exhaustive(factors):
    # every triple, checked on the integer table; the table equals the exact
    # Q/Z pairing on every pair, so pairing() is bilinear on every triple too
    G = FiniteLcaGroup(factors)
    Gd = dual_group(G)
    P = G.pairing_table()
    e = G.exponent
    assert np.array_equal(P[Gd.add_table()], (P[:, None, :] + P[None, :, :]) % e)
    assert np.array_equal(P[:, G.add_table()], (P[:, :, None] + P[:, None, :]) % e)
    for i, chi in enumerate(Gd.elements()):
        for j, g in enumerate(G.elements()):
            assert pairing(G, chi, g) == QZ.of(int(P[i, j]), e)
    assert G.pairing_table() is P   # built once per group


def brute_annihilator(G, N):
    """Oracle: definition applied to every character."""
    Gd = dual_group(G)
    return {
        chi for chi in Gd.elements()
        if all(pairing(G, chi, n).is_zero() for n in N.elements())
    }


@pytest.mark.parametrize(
    "factors,gens",
    [([6], [[3]]), ([6], [[2]]), ([4], [[2]]), ([2, 2], [[1, 1]]),
     ([4, 2], [[2, 0], [0, 1]]), ([12], [[4]])],
)
def test_annihilator(factors, gens):
    G = FiniteLcaGroup(factors)
    N = Subgroup(G, [G.element(g) for g in gens])
    nperp = annihilator(G, N)
    assert set(nperp.elements()) == brute_annihilator(G, N)
    assert N.order * nperp.order == G.order


def test_annihilator_edge_cases():
    G = FiniteLcaGroup([6])
    zero = Subgroup(G, [])
    assert annihilator(G, zero).order == 6
    full = Subgroup(G, [G.element([1])])
    assert annihilator(G, full).order == 1
    # the worked example: <3> in Z/6 annihilated by <2>
    N = Subgroup(G, [G.element([3])])
    assert set(e.coords for e in annihilator(G, N).elements()) == {(0,), (2,), (4,)}


@pytest.mark.parametrize(
    "factors,gens",
    [([6], [[3]]), ([4], [[2]]), ([2, 2], [[1, 1]]), ([12], [[4]])],
)
def test_double_annihilator(factors, gens):
    G = FiniteLcaGroup(factors)
    N = Subgroup(G, [G.element(g) for g in gens])
    nperp = annihilator(G, N)
    biperp = annihilator(dual_group(G), nperp)
    assert set(biperp.elements()) == set(N.elements())


class TestSection:
    def test_least_policy(self):
        G = FiniteLcaGroup([4])
        N = Subgroup(G, [G.element([2])])
        s = make_section(G, N)
        assert s(G.element([0])) == G.element([0])
        assert s(G.element([1])) == G.element([1])
        d = s.defect(G.element([1]), G.element([1]))
        assert d in N and d.coords == (2,)

    def test_zero_normalisation_every_policy(self):
        G = FiniteLcaGroup([6])
        N = Subgroup(G, [G.element([3])])
        for policy, seed in (("least", 0), ("random", 1), ("random", 2)):
            s = make_section(G, N, policy, seed=seed)
            assert s(G.element([0])) == G.element([0])
            q = QuotientGroup(G, N)
            for x in q.reps():
                for y in q.reps():
                    assert s.defect(x, y) in N

    def test_full_subgroup(self):
        G = FiniteLcaGroup([4])
        N = Subgroup(G, [G.element([1])])
        s = make_section(G, N)
        for x in QuotientGroup(G, N).reps():
            assert s(x) == G.element([0])
            assert s.defect(x, x) == G.element([0])


def brute_character_solutions(G, N, values):
    """Oracle: all chi in the dual with the prescribed restriction."""
    Gd = dual_group(G)
    out = set()
    for chi in Gd.elements():
        if all(pairing(G, chi, n) == values[n] for n in values):
            out.add(chi)
    return out


class TestSolveCharacter:
    def test_z6_worked_example(self):
        # the characters with <chi, 3> = 1/2 on <3> in Z/6 are exactly 1 + N-perp
        G = FiniteLcaGroup([6])
        N = Subgroup(G, [G.element([3])])
        sols = brute_character_solutions(G, N, {G.element([3]): qz(1, 2)})
        assert {c.coords for c in sols} == {(1,), (3,), (5,)}
        nperp = annihilator(G, N)
        Gd = dual_group(G)
        assert sols == {Gd.add(Gd.element([1]), w) for w in nperp.elements()}


@pytest.mark.parametrize("factors,gens", [([6], [[3]]), ([4, 2], [[2, 0]]),
                                          ([2, 2], [[1, 1]]), ([2, 4], [[1, 2]])])
def test_restrictions_to_n_are_annihilator_cosets(factors, gens):
    # the characters restricting to N as chi does are exactly chi + N-perp
    G = FiniteLcaGroup(factors)
    N = Subgroup(G, [G.element(g) for g in gens])
    nperp = annihilator(G, N).elements()
    Gd = dual_group(G)
    for chi in Gd.elements():
        values = {n: pairing(G, chi, n) for n in N.elements()}
        assert brute_character_solutions(G, N, values) == {Gd.add(chi, w) for w in nperp}


def _annihilator_by_pairing(G, N):
    """annihilator with membership tested by one exact Q/Z pairing per
    character and generator (the reference for the pairing-table lookup)."""
    Gd = dual_group(G)
    members = [
        chi
        for chi in Gd.elements()
        if all(pairing(G, chi, n).is_zero() for n in N.generators)
    ]
    gens = []
    span = {Gd.zero()}
    for chi in members:
        if chi in span:
            continue
        gens.append(chi)
        span = set(Subgroup(Gd, gens).elements())
        if len(span) == len(members):
            break
    return Subgroup(Gd, gens)


@given(st.sampled_from([[6], [12], [2, 2], [2, 4], [4, 4], [2, 2, 2], [2, 6]]), st.data())
@settings(max_examples=40, deadline=None)
def test_annihilator_generators_match_pairing_loop(factors, data):
    G = FiniteLcaGroup(factors)
    count = data.draw(st.integers(0, 2))
    gens = [G.element([data.draw(st.integers(0, f - 1)) for f in factors])
            for _ in range(count)]
    N = Subgroup(G, gens)
    assert annihilator(G, N).generators == _annihilator_by_pairing(G, N).generators


def test_element_refuses_extra_coordinates():
    # coordinates beyond the factor count are an error, not dropped
    G = FiniteLcaGroup([2, 4])
    with pytest.raises(ValueError):
        G.element((0, 0, 9))
    with pytest.raises(ValueError):
        G.element((1,))
    assert G.element((3, 9)) == G.element((1, 1))


def test_group_order_cap():
    with pytest.raises(ValueError):
        FiniteLcaGroup([4096, 2])


@given(st.sampled_from([[4], [6], [2, 2], [3, 3]]), st.data())
@settings(max_examples=25, deadline=None)
def test_quotient_reps_are_closed(factors, data):
    G = FiniteLcaGroup(factors)
    gens = [G.element([data.draw(st.integers(0, f - 1)) for f in factors])]
    N = Subgroup(G, gens)
    q = QuotientGroup(G, N)
    assert q.order * N.order == G.order
    for x in q.reps():
        for y in q.reps():
            assert q.add(x, y) in q.reps()
            assert q.rep(G.add(x, y)) == q.add(x, y)


def _oracle(G, gens):
    """N, the least representative of each coset and N-perp, by GroupElement
    arithmetic: a breadth-first closure, sorted cosets and pairing loops."""
    N, frontier = {G.zero()}, [G.zero()]
    while frontier:
        x = frontier.pop(0)
        for g in gens:
            y = G.add(x, g)
            if y not in N:
                N.add(y)
                frontier.append(y)
    N = sorted(N, key=lambda e: e.coords)
    least = [sorted((G.add(x, n) for n in N), key=lambda e: e.coords)[0]
             for x in G.elements()]
    reps = sorted(set(least), key=lambda e: e.coords)
    nperp = [chi for chi in dual_group(G).elements()
             if all(pairing(G, chi, n).is_zero() for n in N)]
    return N, reps, [reps.index(r) for r in least], nperp


@st.composite
def _subgroups(draw):
    """(factors, generator coordinates): factors need not be invariant factors;
    generators may repeat, be zero, or (with the unit vectors) span G."""
    factors = draw(st.lists(st.integers(2, 6), max_size=3).filter(lambda f: np.prod(f) <= 72))
    coords = st.tuples(*(st.integers(0, f - 1) for f in factors)).map(list)
    gens = draw(st.lists(coords, max_size=3))
    if draw(st.booleans()):
        gens += [[int(i == j) for j in range(len(factors))] for i in range(len(factors))]
    return factors, gens


@given(_subgroups())
@example(([], []))
@example(([4, 6], []))
@example(([6, 4], [[1, 0], [0, 1]]))
@example(([2, 3, 4], [[0, 0, 0], [1, 2, 3], [1, 2, 3]]))
@settings(max_examples=60, deadline=None)
def test_array_layer_matches_element_oracle(case):
    factors, gens = case
    G = FiniteLcaGroup(factors)
    N = Subgroup(G, [G.element(g) for g in gens])
    n_want, reps_want, coset_want, nperp_want = _oracle(G, N.generators)
    assert list(N.elements()) == n_want and N.order == len(n_want)
    q = QuotientGroup(G, N)
    assert list(q.reps()) == reps_want and q.order == len(reps_want)
    assert q.coset.tolist() == coset_want
    assert [G.index(r) for r in q.reps()] == q.lift.tolist()
    nperp = annihilator(G, N)
    assert list(nperp.elements()) == nperp_want
    neg, add, qadd = G.neg_table(), G.add_table(), q.add_table()
    for i, x in enumerate(G.elements()):
        assert G.index(x) == i and G.elements()[neg[i]] == G.neg(x)
        assert [G.elements()[k] for k in add[i]] == [G.add(x, y) for y in G.elements()]
    assert [[q.index(q.add(a, b)) for b in q.reps()] for a in q.reps()] == qadd.tolist()
    for policy, seed in (("least", 0), ("random", 3)):
        s = make_section(G, N, policy, seed=seed, quotient=q)
        assert s(G.zero()) == G.zero()
        assert [q.rep(s(r)) for r in q.reps()] == list(q.reps())


def test_index_refuses_foreign_elements():
    G = FiniteLcaGroup([2, 4])
    for coords in ((2, 0), (0, 4), (1,), (0, 0, 0)):
        with pytest.raises(KeyError):
            G.index(GroupElement(coords))
