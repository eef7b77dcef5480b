import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdual.lca import (
    QZ,
    FiniteLcaGroup,
    QuotientGroup,
    Subgroup,
    annihilator,
    canonical_isos,
    dual_group,
    make_section,
    pairing,
    solve_character,
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
        assert qz(1, 6).scaled(3) == qz(1, 2)

    def test_to_index(self):
        assert qz(1, 2).to_index(6) == 3
        with pytest.raises(ValueError):
            qz(1, 4).to_index(6)


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


def test_canonical_isos():
    G = FiniteLcaGroup([6])
    N = Subgroup(G, [G.element([3])])
    to_char, from_char = canonical_isos(G, N)
    # dual quotient has order |N| = 2 and maps onto distinct characters of N
    assert len(to_char) == 2
    assert len(set(to_char.values())) == 2
    nelems = N.elements()
    nperp = annihilator(G, N)
    dq = QuotientGroup(dual_group(G), nperp)
    # pairing compatibility: image of zhat evaluated on n is <lift, n>
    for zhat, table in to_char.items():
        for i, n1 in enumerate(nelems):
            assert table[i] == pairing(G, zhat, n1)
    # group homomorphism: table of a sum is the pointwise sum
    for z1 in dq.reps():
        for z2 in dq.reps():
            s = dq.add(z1, z2)
            assert to_char[s] == tuple(a + b for a, b
                                       in zip(to_char[z1], to_char[z2]))
    # quotient characters biject with the annihilator
    assert len(from_char) == nperp.order
    assert set(from_char.values()) == set(nperp.elements())
    # N = 0: the quotient-side iso is the identity on the full dual
    z = Subgroup(G, [])
    _, from0 = canonical_isos(G, z)
    assert len(from0) == 6


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
        G = FiniteLcaGroup([6])
        N = Subgroup(G, [G.element([3])])
        values = {G.element([3]): qz(1, 2)}
        chi = solve_character(G, N, values)
        sols = brute_character_solutions(G, N, values)
        assert chi in sols
        assert {c.coords for c in sols} == {(1,), (3,), (5,)}
        # solutions form one coset of the annihilator
        nperp = annihilator(G, N)
        Gd = dual_group(G)
        assert sols == {Gd.add(chi, w) for w in nperp.elements()}

    def test_trivial_character(self):
        G = FiniteLcaGroup([6])
        N = Subgroup(G, [G.element([3])])
        chi = solve_character(G, N, {G.element([3]): QZ(0, 1)})
        assert chi in annihilator(G, N)

    def test_non_homomorphism_rejected(self):
        G = FiniteLcaGroup([4])
        N = Subgroup(G, [G.element([2])])
        with pytest.raises(ValueError):
            solve_character(G, N, {G.element([2]): qz(1, 4)})

    @pytest.mark.parametrize("factors,gens", [([6], [[3]]), ([4, 2], [[2, 0]]),
                                              ([2, 2], [[1, 1]])])
    def test_roundtrip_every_character(self, factors, gens):
        # induce values from each character, re-solve, compare cosets
        G = FiniteLcaGroup(factors)
        N = Subgroup(G, [G.element(g) for g in gens])
        nperp = set(annihilator(G, N).elements())
        Gd = dual_group(G)
        for chi in Gd.elements():
            values = {n: pairing(G, chi, n) for n in N.generators}
            got = solve_character(G, N, values)
            assert Gd.sub(got, chi) in nperp


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
