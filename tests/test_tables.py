"""The integer tables below the API against their GroupElement definitions.

Quotient add tables, coset tables, the translation module's act table and
the twist's coset positions each have a definition in terms of group
elements; these tests check the tables against those definitions, and
check that the differentials and matrix builders never hash a group
element once their inputs are built.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdual import cech, groupcoh
from tdual.cech import GModule, Nerve, TwistCocycle, TwistedCochain
from tdual.lca import FiniteLcaGroup, GroupElement, QuotientGroup, Subgroup

# the bench's groups (perfbench/workloads.py GROUPS), then trivial N and N = G
GROUPS = [
    ([4], [[2]]), ([6], [[3]]), ([8], [[4]]), ([9], [[3]]), ([12], [[4]]),
    ([2, 2], [[1, 1]]), ([2, 4], [[1, 2]]),
    ([6], [[0]]), ([2, 4], [[0, 0]]),
    ([6], [[1]]), ([2, 4], [[1, 0], [0, 1]]),
]
IDS = [f"{f}/{g}" for f, g in GROUPS]


def quotient(factors, gens) -> QuotientGroup:
    G = FiniteLcaGroup(factors)
    return QuotientGroup(G, Subgroup(G, [G.element(c) for c in gens]))


@pytest.mark.parametrize("factors,gens", GROUPS, ids=IDS)
def test_quotient_tables_match_group_elements(factors, gens):
    q = quotient(factors, gens)
    G, reps = q.parent, q.reps()
    for x in G.elements():
        assert q.coset[G.index(x)] == q.index(x)
    want = [[q.index(q.add(a, b)) for b in reps] for a in reps]
    assert np.array_equal(q.add_table(), want)
    assert q.add_table() is q.add_table()       # built once per quotient


@pytest.mark.parametrize("factors,gens", GROUPS, ids=IDS)
def test_module_act_table_matches_translation(factors, gens):
    q = quotient(factors, gens)
    M = GModule.functions_on_quotient(q.parent.exponent, q)
    assert M.act.shape == (q.order, q.order)
    for x in q.parent.elements():
        want = [q.index(q.add(z, x)) for z in q.reps()]
        assert M.act[q.index(x)].tolist() == want


SPHERE = Nerve.sphere()


@pytest.mark.parametrize("factors,gens", GROUPS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_twist_accepts_exactly_the_group_element_law(factors, gens, data):
    q = quotient(factors, gens)
    reps = q.reps()
    # a vertex coboundary plus sparse offsets, so both outcomes are drawn
    label = st.integers(0, q.order - 1)
    r = data.draw(st.lists(label, min_size=4, max_size=4))
    offsets = data.draw(st.lists(st.one_of(st.just(0), label), min_size=6, max_size=6))
    vals = {(i, j): q.add(q.sub_(reps[r[j]], reps[r[i]]), reps[k])
            for (i, j), k in zip(SPHERE.edges, offsets)}
    law = all(vals[(a, c)] == q.add(vals[(a, b)], vals[(b, c)])
              for a, b, c in SPHERE.simplices(2))
    try:
        g = TwistCocycle(SPHERE, q, vals)
    except ValueError:
        assert not law
    else:
        assert law
        assert g.edge_values == vals
        assert g.labels == {e: q.index(v) for e, v in vals.items()}


def test_trivial_module_ignores_any_twist():
    # Z/m coefficients with the identity action: every twist term vanishes, so
    # delta_g is the plain alternating sum of faces, whatever the labels
    q = quotient([6], [[3]])
    reps = q.reps()
    g = TwistCocycle.coboundary(SPHERE, q, {0: reps[0], 1: reps[1], 2: reps[2], 3: reps[1]})
    assert set(g.labels.values()) > {0}
    triv = GModule.trivial(6)
    for k in range(SPHERE.dimension):
        src, dst = SPHERE.simplices(k), SPHERE.simplices(k + 1)
        plain = np.zeros((len(dst), len(src)), dtype=np.int64)
        for row, s in enumerate(dst):
            for j in range(len(s)):
                plain[row, src.index(s[:j] + s[j + 1:])] += (-1) ** j
        assert np.array_equal(cech.delta_matrix(SPHERE, triv, g, k), plain % 6), k


def _inputs(factors, gens, nerve, labels):
    """Groups, twist, module and random cochains, with every table built."""
    q = quotient(factors, gens)
    G, m, reps = q.parent, q.parent.exponent, q.reps()
    G.add_table()
    if nerve.simplices(2):
        g = TwistCocycle.coboundary(nerve, q, {v[0]: reps[x]
                                               for v, x in zip(nerve.vertices, labels)})
    else:
        g = TwistCocycle(nerve, q, {e: reps[x] for e, x in zip(nerve.edges, labels)})
    assert any(g.labels.values())
    rng = np.random.default_rng(5)
    module = groupcoh.GroupCochainSpace(G, q, m, 1).as_gmodule()
    c = TwistedCochain(nerve, module, 0, {s: rng.integers(0, m, size=module.size)
                                         for s in nerve.vertices})
    sp = groupcoh.GroupCochainSpace(G, q, m, 1)
    f = groupcoh.GroupCochain(sp, rng.integers(0, m, size=sp.shape()))
    t = groupcoh.TotalCochain.from_flat(
        nerve, G, q, m, 1,
        rng.integers(0, m, size=groupcoh.total_dimension(nerve, G, q, m, 1)))
    return G, q, m, g, module, c, sp, f, t


@pytest.mark.parametrize("factors,gens,nerve,labels", [
    ([6], [[3]], Nerve.circle(), [1, 2, 1]),
    ([2, 2], [[1, 1]], SPHERE, [0, 1, 1, 0]),
], ids=["Z6-circle", "Z2xZ2-sphere"])
def test_differentials_hash_no_group_element(monkeypatch, factors, gens, nerve, labels):
    G, q, m, g, module, c, sp, f, t = _inputs(factors, gens, nerve, labels)

    def refuse(self):
        raise AssertionError(f"hashed the group element {self!r}")
    monkeypatch.setattr(GroupElement, "__hash__", refuse)
    cech.delta_g(cech.delta_g(c, g), g)
    groupcoh.d_group(groupcoh.d_group(f))
    groupcoh.total_differential(groupcoh.total_differential(t, g), g)
    cech.delta_matrix(nerve, module, g, 0)
    groupcoh.d_group_matrix(sp)
    groupcoh.total_matrix(nerve, G, q, m, g, 1)
    cech.cohomology(nerve, module, g, 1)
    groupcoh.total_cohomology(nerve, G, q, m, g, 1)
