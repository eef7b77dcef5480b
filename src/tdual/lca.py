"""Finite abelian groups with duals, annihilators, pairings and sections.

Groups are given in invariant-factor form; the dual group is identified
with the group itself coordinate-wise, via the pairing
<chi, g> = sum_i chi_i * g_i / f_i mod 1.  All values of the pairing are
exact elements of Q/Z.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

MAX_GROUP_ORDER = 4096


@dataclass(frozen=True)
class QZ:
    """An element of Q/Z as a reduced fraction in [0, 1)."""

    num: int
    den: int

    @staticmethod
    def of(num: int, den: int) -> "QZ":
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        num %= den
        g = gcd(num, den)
        if num == 0:
            return QZ(0, 1)
        return QZ(num // g, den // g)

    def __add__(self, other: "QZ") -> "QZ":
        return QZ.of(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "QZ") -> "QZ":
        return QZ.of(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "QZ":
        return QZ.of(-self.num, self.den)

    def scaled(self, k: int) -> "QZ":
        return QZ.of(self.num * k, self.den)

    def is_zero(self) -> bool:
        return self.num == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def to_index(self, m: int) -> int:
        """The k with self == k/m; requires den | m."""
        if m % self.den != 0:
            raise ValueError(f"{self} has no denominator dividing {m}")
        return (self.num * (m // self.den)) % m

    def __repr__(self) -> str:
        return f"{self.num}/{self.den}"


QZ_ZERO = QZ(0, 1)


@dataclass(frozen=True)
class GroupElement:
    """Element of a product of cyclic groups, coordinates reduced."""

    coords: tuple[int, ...]

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self) -> str:
        return f"({','.join(str(c) for c in self.coords)})"


class FiniteLcaGroup:
    """Product of cyclic groups Z/f_1 x ... x Z/f_r with f_i >= 2."""

    def __init__(self, invariant_factors: Sequence[int]):
        factors = tuple(int(f) for f in invariant_factors)
        if any(f < 2 for f in factors):
            raise ValueError(f"invariant factors must be >= 2, got {factors}")
        self.factors = factors
        self.exponent = lcm(*factors) if factors else 1
        self.order = 1
        for f in factors:
            self.order *= f
        if self.order > MAX_GROUP_ORDER:
            raise ValueError(f"group order {self.order} exceeds cap {MAX_GROUP_ORDER}")
        self._elements = tuple(
            GroupElement(c) for c in itertools.product(*(range(f) for f in factors))
        )
        self._index = {e: i for i, e in enumerate(self._elements)}
        self._add_table: Optional[np.ndarray] = None
        self._pairing_table: Optional[np.ndarray] = None

    def element(self, coords: Iterable[int]) -> GroupElement:
        coords = tuple(coords)
        if len(coords) != len(self.factors):
            raise ValueError("wrong coordinate count")
        return GroupElement(tuple(int(c) % f for c, f in zip(coords, self.factors)))

    def zero(self) -> GroupElement:
        return GroupElement((0,) * len(self.factors))

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return GroupElement(
            tuple((x + y) % f for x, y, f in zip(a.coords, b.coords, self.factors))
        )

    def neg(self, a: GroupElement) -> GroupElement:
        return GroupElement(tuple((-x) % f for x, f in zip(a.coords, self.factors)))

    def sub(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.add(a, self.neg(b))

    def elements(self) -> tuple[GroupElement, ...]:
        return self._elements

    def index(self, a: GroupElement) -> int:
        return self._index[a]

    def add_table(self) -> np.ndarray:
        """T[i, j] = index(e_i + e_j) over elements(); built once per group."""
        if self._add_table is None:
            elems = self._elements
            self._add_table = np.array(
                [[self._index[self.add(a, b)] for b in elems] for a in elems],
                dtype=np.int64)
        return self._add_table

    def pairing_table(self) -> np.ndarray:
        """P[i, j] = exponent * <e_i, e_j> mod exponent over elements(); built once.

        The dual is identified with the group coordinate-wise, so rows index
        characters; <chi, g> = P / exponent exactly.
        """
        if self._pairing_table is None:
            self._pairing_table = self.pairing_columns(self._elements)
        return self._pairing_table

    def pairing_columns(self, elems: Sequence[GroupElement]) -> np.ndarray:
        """The columns of pairing_table() at elems, built without the table."""
        r = len(self.factors)
        rows = np.array([e.coords for e in self._elements], dtype=np.int64).reshape(self.order, r)
        cols = np.array([e.coords for e in elems], dtype=np.int64).reshape(len(elems), r)
        weights = np.array([self.exponent // f for f in self.factors], dtype=np.int64)
        return (rows * weights) @ cols.T % self.exponent

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteLcaGroup) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return " x ".join(f"Z/{f}" for f in self.factors)


def dual_group(G: FiniteLcaGroup) -> FiniteLcaGroup:
    """The character group, identified with G coordinate-wise."""
    return FiniteLcaGroup(G.factors)


def pairing(G: FiniteLcaGroup, chi: GroupElement, g: GroupElement) -> QZ:
    """<chi, g> for chi in the dual of G (same factor shape) and g in G."""
    if len(chi.coords) != len(G.factors) or len(g.coords) != len(G.factors):
        raise ValueError(
            f"shape mismatch: group has {len(G.factors)} factors, "
            f"elements have {len(chi.coords)} and {len(g.coords)}"
        )
    total = QZ_ZERO
    for a, b, f in zip(chi.coords, g.coords, G.factors):
        total = total + QZ.of(a * b, f)
    return total


class Subgroup:
    """Subgroup given by generators, canonicalised by enumeration."""

    def __init__(self, parent: FiniteLcaGroup, generators: Sequence[GroupElement]):
        self.parent = parent
        self.generators = tuple(parent.element(g.coords) for g in generators)
        elems = {parent.zero()}
        frontier = [parent.zero()]
        while frontier:
            x = frontier.pop()
            for g in self.generators:
                y = parent.add(x, g)
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
        self._elements = tuple(sorted(elems, key=lambda e: e.coords))
        self._set = frozenset(self._elements)
        self.order = len(self._elements)

    def elements(self) -> tuple[GroupElement, ...]:
        return self._elements

    def __contains__(self, x: GroupElement) -> bool:
        return x in self._set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self._set == other._set
        )

    def __hash__(self) -> int:
        return hash((self.parent, self._set))

    def __repr__(self) -> str:
        gens = ", ".join(repr(g) for g in self.generators)
        return f"<{gens}> in {self.parent}"


class QuotientGroup:
    """G/N with canonical (lexicographically least) coset representatives.

    coset[i] is the position in reps() of the coset of G.elements()[i].
    """

    def __init__(self, parent: FiniteLcaGroup, sub: Subgroup):
        if sub.parent != parent:
            raise ValueError("subgroup belongs to a different group")
        self.parent = parent
        self.sub = sub
        rep_of: dict[GroupElement, GroupElement] = {}
        reps = []
        for x in parent.elements():
            if x in rep_of:
                continue
            coset = sorted(
                (parent.add(x, n) for n in sub.elements()), key=lambda e: e.coords
            )
            r = coset[0]
            reps.append(r)
            for y in coset:
                rep_of[y] = r
        self._reps = tuple(sorted(reps, key=lambda e: e.coords))
        self._rep_of = rep_of
        self._index = {r: i for i, r in enumerate(self._reps)}
        self.order = len(self._reps)
        self.coset = np.array([self._index[rep_of[x]] for x in parent.elements()],
                              dtype=np.int64)
        self._add_table: Optional[np.ndarray] = None

    def rep(self, x: GroupElement) -> GroupElement:
        return self._rep_of[x]

    def reps(self) -> tuple[GroupElement, ...]:
        return self._reps

    def index(self, x: GroupElement) -> int:
        return self._index[self._rep_of[x]]

    def zero(self) -> GroupElement:
        return self._rep_of[self.parent.zero()]

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self._rep_of[self.parent.add(a, b)]

    def neg(self, a: GroupElement) -> GroupElement:
        return self._rep_of[self.parent.neg(a)]

    def sub_(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self._rep_of[self.parent.sub(a, b)]

    def add_table(self) -> np.ndarray:
        """T[i, j] = index(reps()[i] + reps()[j]); built once, from G.add_table()."""
        if self._add_table is None:
            lifts = [self.parent.index(r) for r in self._reps]
            self._add_table = self.coset[self.parent.add_table()[np.ix_(lifts, lifts)]]
        return self._add_table

    def __repr__(self) -> str:
        return f"({self.parent})/{self.sub!r}"


class Section:
    """A set-theoretic section of G -> G/N with sigma(0) = 0."""

    def __init__(self, quotient: QuotientGroup, table: Mapping[GroupElement, GroupElement]):
        self.quotient = quotient
        self.table = dict(table)
        q = quotient
        z = q.zero()
        if self.table[z] != q.parent.zero():
            raise ValueError("sections must send the zero coset to 0")
        for r in q.reps():
            if q.rep(self.table[r]) != r:
                raise ValueError(f"table value for {r} lies in a different coset")

    def __call__(self, x: GroupElement) -> GroupElement:
        return self.table[self.quotient.rep(x)]

    def defect(self, x: GroupElement, y: GroupElement) -> GroupElement:
        """sigma(x+y) - sigma(x) - sigma(y), always an element of N."""
        q = self.quotient
        G = q.parent
        return G.sub(self(q.add(x, y)), G.add(self(x), self(y)))


def make_section(
    G: FiniteLcaGroup,
    N: Subgroup,
    policy: str = "least",
    seed: int = 0,
    quotient: Optional[QuotientGroup] = None,
) -> Section:
    """Section of G -> G/N.  Policies: "least" (canonical rep), "random"."""
    q = quotient if quotient is not None else QuotientGroup(G, N)
    table: dict[GroupElement, GroupElement] = {}
    if policy == "least":
        for r in q.reps():
            table[r] = r
    elif policy == "random":
        rng = np.random.default_rng(seed)
        for r in q.reps():
            coset = sorted((G.add(r, n) for n in N.elements()), key=lambda e: e.coords)
            table[r] = coset[int(rng.integers(0, len(coset)))]
    else:
        raise ValueError(f"unknown section policy {policy!r}")
    table[q.zero()] = G.zero()
    return Section(q, table)


def annihilator(G: FiniteLcaGroup, N: Subgroup) -> Subgroup:
    """N-perp: all characters of G vanishing on N (brute force over the dual).

    A character vanishes on N when its pairing-table row is zero at the
    positions of N's generators (rows index characters, as G.elements()).
    """
    Gd = dual_group(G)
    at_gens = G.pairing_columns(N.generators)
    members = [chi for chi, hit in zip(Gd.elements(), at_gens.any(axis=1)) if not hit]
    # thin the member list to a small generating set, in enumeration order
    gens: list[GroupElement] = []
    span = {Gd.zero()}
    for chi in members:
        if chi in span:
            continue
        gens.append(chi)
        span = set(Subgroup(Gd, gens).elements())
        if len(span) == len(members):
            break
    return Subgroup(Gd, gens)
