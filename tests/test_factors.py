"""Complex.factors: invariant factors of H^p from the Smith diagonals of
d_{p-1} and d_p, by universal coefficients.

Two references: Complex.cohomology(p)[0], which reaches the factors through
the kernel and module_quotient, and an oracle that uses no zmodlin at all.
The oracle diagonalises each differential over Z, lifted from a large
modulus, by Python-int elimination, then applies
H^p(C (x) Z/m) = H^p(C) (x) Z/m + Tor(H^{p+1}(C), Z/m)
and merges cyclic orders into invariant factors prime by prime.  It catches
a defect that both zmodlin routes would share through smith_form's diagonal.
"""

import itertools
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdual.cech import GModule, Nerve, TwistCocycle, cech_complex, delta_matrix
from tdual.groupcoh import (
    GroupCochainSpace,
    d_group_matrix,
    group_complex,
    total_complex,
    total_dimension,
    total_matrix,
)
from tdual.lca import FiniteLcaGroup, QuotientGroup, Subgroup
from tdual.zmodlin import Complex

GROUPS = [([4], [[2]]), ([6], [[3]]), ([8], [[4]]), ([2, 2], [[1, 1]]), ([2, 4], [[1, 2]])]
NERVES = {"point": Nerve.point, "circle": Nerve.circle, "sphere": Nerve.sphere,
          "triangle": lambda: Nerve(3, [[0, 1, 2]])}
# the untwisted and twisted Cech complexes of check_cech, the point-nerve
# group complex and the scenario's total complex
KINDS = ("cech_untwisted", "cech", "group", "total")
# the twist: zero, a coboundary, or the circle with holonomy
TWISTS = ("trivial", "coboundary", "holonomy")
# the largest degree dimension a case may reach; the matrix cap is 512
MAX_DIM = 256


class Case:
    """One complex: matrix(m, p) builds d_p at modulus m with the builder its
    complex uses, and complex(m) makes a fresh Complex, sharing no memo."""

    def __init__(self, kind, group, nerve_name, twist, labels):
        self.kind, self.name = kind, f"{kind}-{group[0]}-{nerve_name}-{twist}"
        G = self.G = FiniteLcaGroup(group[0])
        q = self.q = QuotientGroup(G, Subgroup(G, [G.element(c) for c in group[1]]))
        nerve = self.nerve = NERVES[nerve_name]()
        if twist == "coboundary":
            reps = q.reps()
            self.labels = TwistCocycle.coboundary(
                nerve, q, {v: reps[labels[v] % q.order] for v in range(nerve.vertex_count)}).labels
        elif twist == "holonomy":
            assert nerve_name == "circle"
            self.labels = {e: labels[i] % q.order for i, e in enumerate(nerve.edges)}
        else:
            self.labels = dict.fromkeys(nerve.edges, 0)

    def twist(self) -> TwistCocycle:
        return TwistCocycle.from_labels(self.nerve, self.q, self.labels)

    def module(self, m):
        if self.kind == "cech_untwisted":
            return GModule.trivial(m)
        return GModule.functions_on_quotient(m, self.q)

    def dimension(self, p: int) -> int:
        if self.kind == "group":
            return self.G.order ** p * self.q.order
        if self.kind == "total":
            return total_dimension(self.nerve, self.G, self.q, 1, p)
        return len(self.nerve.simplices(p)) * self.module(1).size

    def matrix(self, m: int, p: int) -> np.ndarray:
        if self.kind == "group":
            return d_group_matrix(GroupCochainSpace(self.G, self.q, m, p))
        if self.kind == "total":
            return total_matrix(self.nerve, self.G, self.q, m, self.twist(), p)
        g = self.twist() if self.kind == "cech" else TwistCocycle.trivial(self.nerve, self.q)
        return delta_matrix(self.nerve, self.module(m), g, p)

    def complex(self, m: int) -> Complex:
        if self.kind == "group":
            return group_complex(self.G, self.q, m)
        if self.kind == "total":
            return total_complex(self.twist(), m)
        g = self.twist() if self.kind == "cech" else TwistCocycle.trivial(self.nerve, self.q)
        return cech_complex(self.nerve, self.module(m), g)


@st.composite
def cases(draw):
    """(case, modulus, degree) over every kind, group, nerve and twist, p <= 2."""
    kind = draw(st.sampled_from(KINDS))
    nerve_name = draw(st.sampled_from(sorted(NERVES)))
    twists = TWISTS if nerve_name == "circle" else TWISTS[:2]
    twist = draw(st.sampled_from(twists)) if kind in ("cech", "total") else "trivial"
    labels = draw(st.lists(st.integers(0, 7), min_size=4, max_size=4))
    case = Case(kind, draw(st.sampled_from(GROUPS)), nerve_name, twist, labels)
    p = draw(st.sampled_from([p for p in (0, 1, 2)
                              if max(case.dimension(k) for k in (p, p + 1)) <= MAX_DIM]))
    m = case.G.exponent * draw(st.sampled_from((1, 2, 3)))
    return case, m, p


@given(cases())
@settings(max_examples=200, deadline=None)
def test_factors_match_cohomology(drawn):
    case, m, p = drawn
    assert case.complex(m).factors(p) == case.complex(m).cohomology(p)[0], (case.name, m, p)


def test_cases_reach_every_kind_nerve_twist_and_degree():
    seen = set()
    for kind, group, nerve_name, twist in itertools.product(KINDS, GROUPS, NERVES, TWISTS):
        if twist == "holonomy" and nerve_name != "circle":
            continue
        case = Case(kind, group, nerve_name, twist, [1, 2, 3, 0])
        for p in (0, 1, 2):
            if max(case.dimension(k) for k in (p, p + 1)) <= MAX_DIM:
                seen.add((kind, nerve_name, twist, p))
    for kind, nerve_name in itertools.product(KINDS, NERVES):
        assert (kind, nerve_name, "trivial", 0) in seen
    assert {("total", "circle", "holonomy", p) for p in (0, 1)} <= seen
    assert {("cech", "sphere", "coboundary", p) for p in (0, 1, 2)} <= seen
    assert {("group", "point", "trivial", 2), ("cech_untwisted", "sphere", "trivial", 2)} <= seen


# ---------------------------------------------------------------------------
# the oracle: no zmodlin

LIFT = 1 << 20   # entries are sums of a few +-1, so this modulus lifts them to Z


def int_diagonal(A) -> list[int]:
    """The nonzero entries, made positive, of a diagonal form of the integer
    matrix A, by elementary row and column operations on Python ints."""
    M = [[int(x) for x in row] for row in A]
    out = []
    while True:
        nz = [(abs(v), i, j) for i, row in enumerate(M) for j, v in enumerate(row) if v]
        if not nz:
            return out
        _, i, j = min(nz)
        a, clear = M[i][j], True
        for k, row in enumerate(M):
            if k != i and row[j]:
                q = row[j] // a
                M[k] = [x - q * y for x, y in zip(row, M[i])]
                clear = clear and not M[k][j]
        for l in range(len(M[i])):
            if l != j and M[i][l]:
                q = M[i][l] // a
                for row in M:
                    row[l] -= q * row[j]
                clear = clear and not M[i][l]
        if clear:   # row i and column j hold only the pivot
            out.append(abs(a))
            del M[i]
            for row in M:
                del row[j]


def invariant_factors(orders: list[int]) -> list[int]:
    """Invariant factors, ascending and above 1, of the sum of Z/n over orders:
    the k-th largest takes the k-th largest power of each prime."""
    primes = [r for r in range(2, max(orders, default=1) + 1)
              if all(r % s for s in range(2, r))]
    out = {}
    for r in primes:
        powers = sorted((r ** _valuation(n, r) for n in orders), reverse=True)
        for k, x in enumerate(powers):
            out[k] = out.get(k, 1) * x
    return sorted(x for x in out.values() if x > 1)


def _valuation(n: int, r: int) -> int:
    v = 0
    while n % r == 0:
        n, v = n // r, v + 1
    return v


def uct_factors(n_p: int, prev: list[int], cur: list[int], m: int) -> list[int]:
    """H^p over Z/m from the integral diagonals of d_{p-1} and d_p: the free
    part and the torsion of H^p(C), tensored with Z/m, plus Tor(H^{p+1}(C), Z/m)."""
    free = n_p - len(prev) - len(cur)
    return invariant_factors([m] * free + [gcd(e, m) for e in prev + cur])


def lifted(case: Case, p: int) -> np.ndarray:
    A = case.matrix(LIFT, p)
    return np.where(A > LIFT // 2, A - LIFT, A)


ORACLE_CASES = [
    ("cech_untwisted", ([6], [[3]]), "sphere", "trivial"),
    ("cech_untwisted", ([4], [[2]]), "triangle", "trivial"),
    ("cech", ([6], [[3]]), "circle", "holonomy"),
    ("cech", ([4], [[2]]), "circle", "holonomy"),
    ("cech", ([8], [[4]]), "circle", "holonomy"),
    ("cech", ([2, 4], [[1, 2]]), "circle", "holonomy"),
    ("cech", ([2, 2], [[1, 1]]), "sphere", "coboundary"),
    ("cech", ([6], [[3]]), "triangle", "coboundary"),
    ("cech", ([4], [[2]]), "sphere", "trivial"),
    ("group", ([4], [[2]]), "point", "trivial"),
    ("group", ([6], [[3]]), "point", "trivial"),
    ("group", ([2, 2], [[1, 1]]), "point", "trivial"),
    ("group", ([8], [[4]]), "point", "trivial"),
    ("group", ([2, 4], [[1, 2]]), "point", "trivial"),
    ("total", ([4], [[2]]), "point", "trivial"),
    ("total", ([4], [[2]]), "circle", "holonomy"),
    ("total", ([6], [[3]]), "circle", "holonomy"),
    ("total", ([6], [[3]]), "circle", "coboundary"),
    ("total", ([2, 2], [[1, 1]]), "circle", "trivial"),
    ("total", ([2, 2], [[1, 1]]), "triangle", "coboundary"),
    ("total", ([4], [[2]]), "triangle", "trivial"),
    ("total", ([2, 2], [[1, 1]]), "sphere", "trivial"),
]
ORACLE_MAX_DIM = 160


def test_factors_match_the_integer_oracle_at_three_moduli():
    checked = set()
    for kind, group, nerve_name, twist in ORACLE_CASES:
        case = Case(kind, group, nerve_name, twist, [1, 2, 3, 0])
        e = case.G.exponent
        diag = {}
        for p in (0, 1, 2):
            if max(case.dimension(k) for k in (p, p + 1)) > ORACLE_MAX_DIM:
                break
            lift = lifted(case, p)
            if p > 0:
                assert not (lift @ lifted(case, p - 1)).any(), case.name   # d^2 = 0 over Z
            diag[p] = int_diagonal(lift)
            for m in (e, 2 * e, 3 * e):
                assert np.array_equal(lift % m, case.matrix(m, p)), (case.name, m, p)
                want = uct_factors(lift.shape[1], diag.get(p - 1, []), diag[p], m)
                assert case.complex(m).factors(p) == want, (case.name, m, p)
            checked.add(case.name)
    assert len(checked) >= 20


def test_the_oracle_on_known_groups():
    assert invariant_factors([2, 3]) == [6]
    assert invariant_factors([4, 2, 1, 4]) == [2, 4, 4]
    assert int_diagonal([[2, 0], [0, 3]]) in ([1, 6], [6, 1], [2, 3], [3, 2])
    assert uct_factors(1, [], [4], 8) == [4]          # H^1(Z/4; Z/8) = Tor(Z/4, Z/8)
    assert uct_factors(1, [4], [], 8) == [4]          # H^2(Z/4; Z/8) = Z/4 (x) Z/8
    assert uct_factors(2, [], [], 6) == [6, 6]


# ---------------------------------------------------------------------------
# the precondition

def test_factors_refuse_a_complex_without_an_integer_lift():
    # d_1 d_0 = 1 over Z: degree 1 has no Z/m left for d_0's unit pivot
    c = Complex(4, {0: np.array([[1]]), 1: np.array([[1]])}.__getitem__, lambda p, flat: flat)
    with pytest.raises(ValueError, match=r"does not lift to Z with d\^2 = 0 over Z"):
        c.factors(1)


@pytest.mark.parametrize("m", [1, 5])
def test_factors_shortcuts_match_cohomology(m):
    # a differential without rows, a degree without cochains, and m = 1
    mats = {0: np.ones((2, 1), dtype=np.int64), 1: np.zeros((0, 2), dtype=np.int64),
            2: np.zeros((0, 0), dtype=np.int64)}
    for p in (0, 1, 2):
        c = Complex(m, mats.__getitem__, lambda p, flat: flat)
        assert c.factors(p) == c.cohomology(p)[0], p
