"""Finite abelian groups with duals, annihilators, pairings and sections.

Groups are given in invariant-factor form; the dual group is identified
with the group itself coordinate-wise, via the pairing
<chi, g> = sum_i chi_i * g_i / f_i mod 1.  All values of the pairing are
exact elements of Q/Z.

An element is a position 0 .. |G| - 1, the C order of its coordinates
(G.coords).  Subgroups, quotients and sections are integer arrays over
positions; GroupElement is built only at the API boundary, and no |G|^2
table exists until add_table() is called.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence

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

    def is_zero(self) -> bool:
        return self.num == 0

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
    """Product of cyclic groups Z/f_1 x ... x Z/f_r with f_i >= 2.

    coords[i] are the coordinates of the element at position i, in C order
    (that of itertools.product), so sorting by coordinates is sorting by
    position; flat() maps coordinates back to positions.
    """

    def __init__(self, invariant_factors: Sequence[int]):
        factors = tuple(int(f) for f in invariant_factors)
        if any(f < 2 for f in factors):
            raise ValueError(f"invariant factors must be >= 2, got {factors}")
        self.factors = factors
        self.exponent = lcm(*factors) if factors else 1
        self.order = prod(factors)
        if self.order > MAX_GROUP_ORDER:
            raise ValueError(f"group order {self.order} exceeds cap {MAX_GROUP_ORDER}")
        self.strides = tuple(prod(factors[i + 1:]) for i in range(len(factors)))
        self.coords = (np.arange(self.order)[:, None] // np.array(self.strides, dtype=np.int64)
                       % np.array(factors, dtype=np.int64))
        self._elements: Optional[tuple[GroupElement, ...]] = None
        self._add_table: Optional[np.ndarray] = None
        self._pairing_table: Optional[np.ndarray] = None

    def flat(self, coords) -> np.ndarray:
        """Positions of the rows of coords, reduced mod the factors."""
        return (np.asarray(coords) % np.array(self.factors, dtype=np.int64)
                @ np.array(self.strides, dtype=np.int64))

    def rows(self, rows: Iterable[Iterable[int]]) -> np.ndarray:
        """Coordinate rows (scenario lists, GroupElements) as a (k, rank) int64
        array, reduced mod the factors in Python ints first: any integer is exact."""
        rows = [tuple(r) for r in rows]
        if any(len(r) != len(self.factors) for r in rows):
            raise ValueError("wrong coordinate count")
        return np.array([[int(c) % f for c, f in zip(r, self.factors)] for r in rows],
                        dtype=np.int64).reshape(len(rows), len(self.factors))

    def element(self, coords: Iterable[int]) -> GroupElement:
        return GroupElement(tuple(self.rows([coords])[0].tolist()))

    def element_at(self, i: int) -> GroupElement:
        return GroupElement(tuple(self.coords[i].tolist()))

    def zero(self) -> GroupElement:
        return GroupElement((0,) * len(self.factors))

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.element(x + y for x, y in zip(a.coords, b.coords))

    def neg(self, a: GroupElement) -> GroupElement:
        return self.element(-x for x in a.coords)

    def sub(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.add(a, self.neg(b))

    def elements(self) -> tuple[GroupElement, ...]:
        if self._elements is None:
            self._elements = tuple(GroupElement(tuple(c)) for c in self.coords.tolist())
        return self._elements

    def index(self, a: GroupElement) -> int:
        c = a.coords
        if len(c) != len(self.factors) or not all(0 <= x < f for x, f in zip(c, self.factors)):
            raise KeyError(a)
        return sum(x * s for x, s in zip(c, self.strides))

    def sums(self, coords: np.ndarray) -> np.ndarray:
        """S[i, j] = flat(coords[i] + coords[j]), one coordinate at a time."""
        S = np.zeros((len(coords),) * 2, dtype=np.int64)
        for c, f, s in zip(coords.T, self.factors, self.strides):
            t = np.add.outer(c, c)
            S += np.multiply(np.remainder(t, f, out=t), s, out=t)
        return S

    def add_table(self) -> np.ndarray:
        """T[i, j] = position of e_i + e_j; built once per group."""
        if self._add_table is None:
            self._add_table = self.sums(self.coords)
        return self._add_table

    def neg_table(self) -> np.ndarray:
        """neg[i] = position of -e_i."""
        return self.flat(-self.coords)

    def pairing_table(self) -> np.ndarray:
        """P[i, j] = exponent * <e_i, e_j> mod exponent over elements(); built once.

        The dual is identified with the group coordinate-wise, so rows index
        characters; <chi, g> = P / exponent exactly.
        """
        if self._pairing_table is None:
            self._pairing_table = self.pairing_columns(np.arange(self.order))
        return self._pairing_table

    def pairing_columns(self, positions) -> np.ndarray:
        """The columns of pairing_table() at positions, built without the table."""
        weights = np.array([self.exponent // f for f in self.factors], dtype=np.int64)
        return (self.coords * weights) @ self.coords[positions].T % self.exponent

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
    """Subgroup generated by coordinate rows, kept reduced in gens (generators
    builds them as GroupElements); least[i] is the least position in e_i + N,
    so N sits at the positions where least is 0."""

    def __init__(self, parent: FiniteLcaGroup, generators: Iterable[Iterable[int]]):
        self.parent = parent
        self.gens = parent.rows(generators)
        least = np.arange(parent.order)
        for g in self.gens:
            # least over i + <g>: windows of 1, 2, 4, ... multiples of g
            shift = parent.flat(parent.coords + g)
            for _ in range((parent.exponent - 1).bit_length()):
                least = np.minimum(least, least[shift])
                shift = shift[shift]
        self.least = least
        self.positions = np.flatnonzero(least == 0)
        self.order = len(self.positions)

    @property
    def generators(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(tuple(g)) for g in self.gens.tolist())

    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(map(self.parent.element_at, self.positions))

    def __contains__(self, x: GroupElement) -> bool:
        return x in self.elements()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.parent == other.parent
                and np.array_equal(self.positions, other.positions))

    def __hash__(self) -> int:
        return hash((self.parent, self.positions.tobytes()))

    def __repr__(self) -> str:
        gens = ", ".join(repr(g) for g in self.generators)
        return f"<{gens}> in {self.parent}"


class QuotientGroup:
    """G/N with canonical (least) coset representatives: lift[z] is the position
    in G of reps()[z], and coset[i] the position in reps() of e_i + N.
    tables keeps groupcoh's group cochain tables per arity: arrays, term lists
    and modules on them, none referring back."""

    def __init__(self, parent: FiniteLcaGroup, sub: Subgroup):
        if sub.parent != parent:
            raise ValueError("subgroup belongs to a different group")
        self.parent = parent
        self.sub = sub
        self.lift, self.coset = np.unique(sub.least, return_inverse=True)
        self.order = len(self.lift)
        self.tables: dict = {}
        self._reps: Optional[tuple[GroupElement, ...]] = None
        self._add_table: Optional[np.ndarray] = None

    def rep(self, x: GroupElement) -> GroupElement:
        return self.parent.element_at(self.lift[self.index(x)])

    def reps(self) -> tuple[GroupElement, ...]:
        if self._reps is None:
            self._reps = tuple(map(self.parent.element_at, self.lift))
        return self._reps

    def index(self, x: GroupElement) -> int:
        return int(self.coset[self.parent.index(x)])

    def zero(self) -> GroupElement:
        return self.parent.zero()

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.rep(self.parent.add(a, b))

    def neg(self, a: GroupElement) -> GroupElement:
        return self.rep(self.parent.neg(a))

    def add_table(self) -> np.ndarray:
        """T[i, j] = index(reps()[i] + reps()[j]); built once, from the reps' coordinates."""
        if self._add_table is None:
            self._add_table = self.coset[self.parent.sums(self.parent.coords[self.lift])]
        return self._add_table

    def neg_table(self) -> np.ndarray:
        """neg[z] = index(-reps()[z])."""
        return self.coset[self.parent.flat(-self.parent.coords[self.lift])]

    def __repr__(self) -> str:
        return f"({self.parent})/{self.sub!r}"


class Section:
    """A set-theoretic section of G -> G/N with sigma(0) = 0; lift[z] is the
    position in G of its value at the coset reps()[z]."""

    def __init__(self, quotient: QuotientGroup, lift: Sequence[int]):
        self.quotient = q = quotient
        self.lift = np.array(lift, dtype=np.int64)
        if self.lift[0] != 0:
            raise ValueError("sections must send the zero coset to 0")
        bad = np.flatnonzero(q.coset[self.lift] != np.arange(q.order))
        if len(bad):
            raise ValueError(f"table value for {q.reps()[bad[0]]} lies in a different coset")

    def __call__(self, x: GroupElement) -> GroupElement:
        return self.quotient.parent.element_at(self.lift[self.quotient.index(x)])

    def defect(self, x: GroupElement, y: GroupElement) -> GroupElement:
        """sigma(x+y) - sigma(x) - sigma(y), always an element of N."""
        q, G = self.quotient, self.quotient.parent
        return G.sub(self(q.add(x, y)), G.add(self(x), self(y)))


def make_section(G: FiniteLcaGroup, N: Subgroup, policy: str = "least", seed: int = 0,
                 quotient: Optional[QuotientGroup] = None) -> Section:
    """Section of G -> G/N.  Policies: "least" (canonical rep), "random"."""
    q = quotient if quotient is not None else QuotientGroup(G, N)
    if policy == "least":
        lift = q.lift
    elif policy == "random":
        # row z: the positions of the coset z, ascending; one draw per coset
        rng = np.random.default_rng(seed)
        cosets = np.argsort(q.coset, kind="stable").reshape(q.order, N.order)
        lift = np.array([row[int(rng.integers(0, N.order))] for row in cosets])
        lift[0] = 0
    else:
        raise ValueError(f"unknown section policy {policy!r}")
    return Section(q, lift)


def annihilator(G: FiniteLcaGroup, N: Subgroup) -> Subgroup:
    """N-perp: all characters of G vanishing on N (brute force over the dual).

    A character vanishes on N when its pairing-table row is zero at the
    positions of N's generators (rows index characters, as G.elements()).
    """
    Gd = dual_group(G)
    members = np.flatnonzero(~G.pairing_columns(G.flat(N.gens)).any(axis=1))
    # thin the member list to a small generating set, in enumeration order
    gens: list[np.ndarray] = []
    span = np.arange(Gd.order) == 0
    for chi in members:
        if span[chi]:
            continue
        gens.append(Gd.coords[chi])
        span = Subgroup(Gd, gens).least == 0
        if span.sum() == len(members):
            break
    return Subgroup(Gd, gens)
