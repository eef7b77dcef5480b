"""Group cohomology of finite G and the mixed Cech/group double complex.

Group cochains of arity l are dense tables G^l -> M.  The differential is

    d f(g_1,...,g_{l+1}) = (-1)^(l+1) f(g_1,...,g_l)
                          + sum_i (-1)^i f(g_1,..,g_i+g_{i+1},..,g_{l+1})
                          + g_1 . f(g_2,...,g_{l+1})

with the translation action of g_1 on M.  The total complex couples this
to the twisted Cech differential with sign:  d_tot = delta_g - (-1)^p d*.

Each differential is one list of (row0, (sign, source index) terms) blocks,
which cech.terms_matrix scatters into its matrix and cech.apply_terms gathers
along; the quotient keeps d_group_terms per arity, the twist total_terms per
(m, p), and the nerve each degree's block layout.  The tuple loop d_group
reads the formula, as the terms' reference.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional

import numpy as np

from .cech import (GModule, Nerve, TwistCocycle, TwistedCochain, _wrap, apply_terms,
                   delta_terms, terms_matrix)
from .errors import check_entries
from .lca import FiniteLcaGroup, QuotientGroup
from .zmodlin import Complex

MAX_ARITY = 4          # dense tables G^l -> M exist up to this arity
MAX_TOTAL_ARITY = 3    # total-complex blocks keep l <= 3


class GroupCochainSpace:
    """Tables G^l -> Fun(G/N, Z/m), flattened to (Z/m)^(|G|^l * q).

    Plain Z/m with trivial action is Fun(G/G, Z/m).  fiber is the
    coefficient module of one table entry; translations act on the G/N slot
    only, g as fiber.act[coset[g]].  The act table and d_group_terms depend
    on quotient and arity only, so quotient.tables keeps them, and the
    module on the act table per modulus.
    """

    def __init__(self, G: FiniteLcaGroup, quotient: QuotientGroup, m: int, arity: int):
        if arity < 0 or arity > MAX_ARITY:
            raise ValueError(f"arity {arity} outside supported range 0..{MAX_ARITY}")
        self.G = G
        self.quotient = quotient
        self.m = int(m)
        self.arity = arity
        self.n = G.order
        self.q = quotient.order
        self.size = self.n ** arity * self.q
        self.coset = quotient.coset
        self._tables = quotient.tables.setdefault(arity, {})

    @property
    def fiber(self) -> GModule:
        """Fun(G/N, Z/m), the coefficient module of one table entry."""
        return GModule.functions_on_quotient(self.m, self.quotient)

    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.arity + (self.q,)

    def as_gmodule(self) -> GModule:
        """The whole table as a Cech coefficient module: fiber.act per entry.

        One per quotient, arity and modulus, kept in quotient.tables.
        """
        modules = self._tables.setdefault("modules", {})
        if self.m not in modules:
            act = self._tables.get("act")
            if act is None:
                starts = np.arange(0, self.size, self.q, dtype=np.int64)
                act = self._tables["act"] = (
                    starts[:, None] + self.fiber.act[:, None, :]).reshape(self.q, self.size)
            modules[self.m] = GModule(self.m, act)
        return modules[self.m]

    def terms(self) -> list[tuple[int, np.ndarray]]:
        """d_group_terms(self), built on first use."""
        if "terms" not in self._tables:
            self._tables["terms"] = d_group_terms(self)
        return self._tables["terms"]

    def d(self, x: np.ndarray) -> np.ndarray:
        """d_group of the flat tables x, gathered along terms() (apply_terms).

        Axes of x after the first are batch axes and pass through.
        """
        return apply_terms(self.size * self.n, self.m, [(0, self.terms())], x)


@dataclass
class GroupCochain:
    """Arity-l cochain as a dense table, values flattened per z slot.

    Axes of values after the table's own are batch axes: a batch of
    cochains that every operation acts on alike.
    """

    space: GroupCochainSpace
    values: np.ndarray  # shape (n,)*arity + (q,), then any batch axes

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int64) % self.space.m
        shape = self.space.shape()
        if self.values.shape[:len(shape)] != shape:
            raise ValueError(
                f"table shape {self.values.shape} != expected {shape}"
            )

    def flatten(self) -> np.ndarray:
        """Table entries along the first axis, batch axes kept."""
        return self.values.reshape((-1,) + self.values.shape[self.space.arity + 1:])

    @staticmethod
    def from_flat(space: GroupCochainSpace, flat: np.ndarray) -> "GroupCochain":
        """Inverse of flatten; axes of flat after the first are batch axes."""
        flat = np.asarray(flat)
        return GroupCochain(space, flat.reshape(space.shape() + flat.shape[1:]))

    def is_zero(self) -> bool:
        return not self.values.any()


def d_group(f: GroupCochain) -> GroupCochain:
    """Group-cohomology differential, arity l -> l+1, one tuple at a time.

    The appliers and the matrices read d_group_terms; this loop reads the
    formula, so the report checks the terms against it.  Axes of f.values
    after the table's are batch axes and pass through.  A zero cochain maps
    to zero without the tuple loop.
    """
    sp = f.space
    G, m, l = sp.G, sp.m, sp.arity
    out_sp = GroupCochainSpace(G, sp.quotient, m, l + 1)
    n = G.order
    add, act, coset = G.add_table(), sp.fiber.act, sp.coset
    out = np.zeros(out_sp.shape() + f.values.shape[l + 1:], dtype=np.int64)
    if f.is_zero():
        return GroupCochain(out_sp, out)
    sign_last = (-1) ** (l + 1)
    for tup in itertools.product(range(n), repeat=l + 1):
        acc = (sign_last * f.values[tup[:-1]]) % m
        for i in range(1, l + 1):
            merged = tup[:i - 1] + (int(add[tup[i - 1], tup[i]]),) + tup[i + 1:]
            acc = (acc + (-1) ** i * f.values[merged]) % m
        acc = (acc + f.values[tup[1:]][act[coset[tup[0]]]]) % m
        out[tup] = acc
    return GroupCochain(out_sp, out)


def d_group_terms(space: GroupCochainSpace) -> list[tuple[int, np.ndarray]]:
    """d_group from arity l to l+1 as (sign, source index) terms.

    Each source array runs over the flat output coordinates
    (g_1, ..., g_{l+1}, z) in row-major order and names the flat source
    coordinate whose value enters that entry with that sign: the last
    argument dropped, each adjacent pair merged by add_table(), and the
    first argument dropped with z moved by fiber.act[coset[g_1]].  Each is
    one broadcast sum over the output axes.
    """
    l, n, q = space.arity, space.n, space.q
    add = space.G.add_table()
    terms = [((-1) ** (l + 1), np.repeat(np.arange(n ** l * q).reshape(-1, q), n, 0).ravel())]
    for i in range(1, l + 1):
        # axes (g_1..g_{i-1}), g_i, g_{i+1}, (g_{i+2}..g_{l+1}, z)
        tail = n ** (l - i) * q
        before = np.arange(n ** (i - 1))[:, None, None, None] * (n * tail)
        terms.append(((-1) ** i, (before + add[:, :, None] * tail + np.arange(tail)).ravel()))
    moved = space.fiber.act[space.coset]
    terms.append((1, (np.arange(n ** l)[:, None] * q + moved[:, None, :]).ravel()))
    return terms


def d_group_matrix(space: GroupCochainSpace) -> np.ndarray:
    """Matrix of d_group from arity l to l+1 on flattened coordinates."""
    return terms_matrix(space.size * space.n, space.size, space.m, lambda: [(0, space.terms())])


class TotalCochain:
    """Degree-p element of the mixed complex: one block per bidegree (k, l).

    It is one int64 array, block by block in _bidegrees order, then any batch
    axes.  Block (k, l), a Cech k-cochain of arity-l group cochains, is a
    TwistedCochain over a view of its slice, built when blocks is first read:
    writing its values writes t.  The constructor makes the zero cochain.
    """

    def __init__(self, nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup, m: int,
                 degree: int):
        dim = total_dimension(nerve, G, quotient, m, degree)
        self._init(nerve, G, quotient, m, degree, np.zeros(dim, dtype=np.int64))

    def _init(self, nerve, G, quotient, m, degree, flat: np.ndarray):
        self.nerve, self.G, self.quotient, self.m, self.degree = nerve, G, quotient, m, degree
        self._flat = flat
        self._blocks = None
        return self

    @property
    def blocks(self) -> Mapping[tuple[int, int], TwistedCochain]:
        """The blocks by bidegree, each a write-through view of its slice."""
        if self._blocks is None:
            G, quotient, m, flat = self.G, self.quotient, self.m, self._flat
            offsets, _ = _layout(self.nerve, G, quotient, self.degree)
            self._blocks = MappingProxyType({
                (k, l): _wrap(self.nerve, GroupCochainSpace(G, quotient, m, l).as_gmodule(), k,
                              flat[start:end])
                for (k, l), (start, end) in offsets.items()})
        return self._blocks

    def is_zero(self) -> bool:
        return not self._flat.any()

    def flatten(self) -> np.ndarray:
        """The cochain's array: the blocks' arrays stacked along the first axis."""
        return self._flat

    def __sub__(self, other: "TotalCochain") -> "TotalCochain":
        return TotalCochain.from_flat(self.nerve, self.G, self.quotient, self.m, self.degree,
                                      self._flat - other._flat)

    @staticmethod
    def from_flat(nerve, G, quotient, m, degree, flat: np.ndarray) -> "TotalCochain":
        """Inverse of flatten; axes of flat after the first are batch axes."""
        return TotalCochain.__new__(TotalCochain)._init(
            nerve, G, quotient, m, degree, np.asarray(flat, dtype=np.int64) % m)


def _bidegrees(p: int) -> list[tuple[int, int]]:
    """The blocks (k, l) of degree p, in flat order: Cech degree k descending."""
    return [(k, p - k) for k in range(p, -1, -1) if p - k <= MAX_TOTAL_ARITY]


def _block_offsets(nerve: Nerve, n: int, q: int, p: int) -> tuple[dict, int]:
    """The slice (start, end) of each block (k, l) of degree p, in _bidegrees
    order, and the dimension, for |G| = n and |G/N| = q."""
    offsets, dim = {}, 0
    for k, l in _bidegrees(p):
        start, dim = dim, dim + len(nerve.simplices(k)) * n ** l * q
        offsets[(k, l)] = (start, dim)
    return offsets, dim


def _layout(nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup,
            p: int) -> tuple[dict, int]:
    """_block_offsets, computed once per nerve, |G|, |G/N| and p: nerve.layouts keeps it."""
    key = (G.order, quotient.order, p)
    if key not in nerve.layouts:
        nerve.layouts[key] = _block_offsets(nerve, *key)
    return nerve.layouts[key]


def total_dimension(nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup,
                    m: int, p: int) -> int:
    return _layout(nerve, G, quotient, p)[1]


def total_terms(nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup,
                m: int, g: TwistCocycle, p: int) -> list[tuple[int, list]]:
    """d_tot from degree p to p+1 as (row0, terms) blocks on flat coordinates.

    Source block (k, l) enters block (k+1, l) through delta_g's terms, and
    block (k, l+1) through -(-1)^p times d_group's, once per k-simplex;
    blocks without simplices give none.  On g's own nerve, quotient and G
    they are built once and kept in g.terms[(m, p)].
    """
    memo = g.terms if _is_own(nerve, G, quotient, g) else {}
    if (m, p) in memo:
        return memo[(m, p)]
    src, _ = _layout(nerve, G, quotient, p)
    dst, _ = _layout(nerve, G, quotient, p + 1)
    sign = -((-1) ** p)
    blocks = []
    for (k, l), (off, end) in src.items():
        if end == off:
            continue
        sp = GroupCochainSpace(G, quotient, m, l)
        row0, row1 = dst[(k + 1, l)]
        if row1 > row0:
            blocks.append((row0, [(s, off + i) for s, i in
                                  delta_terms(nerve, sp.as_gmodule(), g, k)]))
        if l + 1 <= MAX_TOTAL_ARITY:
            starts = np.arange(off, end, sp.size)[:, None]
            blocks.append((dst[(k, l + 1)][0], [(sign * s, (starts + i).ravel())
                                                for s, i in sp.terms()]))
    memo[(m, p)] = blocks
    return blocks


def total_differential(t: TotalCochain, g: TwistCocycle) -> TotalCochain:
    """d_tot = delta_g - (-1)^p d*, gathered along total_terms (apply_terms).

    Axes of the block values after the first are batch axes and pass through.
    A degree p+1 of more values per cochain than the square of the matrix
    cap is refused.
    """
    nerve, G, quotient, m, p = t.nerve, t.G, t.quotient, t.m, t.degree
    dim = total_dimension(nerve, G, quotient, m, p + 1)
    check_entries("total cochain size", dim)
    flat = apply_terms(dim, m, total_terms(nerve, G, quotient, m, g, p), t.flatten())
    return TotalCochain.__new__(TotalCochain)._init(nerve, G, quotient, m, p + 1, flat)


def total_matrix(nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup,
                 m: int, g: TwistCocycle, p: int) -> np.ndarray:
    """Matrix of the total differential from degree p to p+1: total_terms scattered."""
    n_src, n_dst = (total_dimension(nerve, G, quotient, m, d) for d in (p, p + 1))
    return terms_matrix(n_dst, n_src, m, lambda: total_terms(nerve, G, quotient, m, g, p))


def total_complex(g: TwistCocycle, m: int) -> Complex:
    """The total complex on g's nerve and quotient, twisted by g; memo is g.totals[m].

    Its matrices come from total_matrix by name, as group_complex's from d_group_matrix.
    """
    nerve, quotient, G = g.nerve, g.quotient, g.quotient.parent
    return Complex(m, lambda p: total_matrix(nerve, G, quotient, m, g, p),
                   lambda p, flat: TotalCochain.from_flat(nerve, G, quotient, m, p, flat),
                   g.totals.setdefault(m, {}))


def group_complex(G: FiniteLcaGroup, quotient: QuotientGroup, m: int) -> Complex:
    """The group complex of G with the table module: d_group_matrix, unsigned."""
    return Complex(m, lambda p: d_group_matrix(GroupCochainSpace(G, quotient, m, p)),
                   lambda p, flat: GroupCochain.from_flat(
                       GroupCochainSpace(G, quotient, m, p), flat))


def _is_own(nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup, g: TwistCocycle) -> bool:
    """Whether nerve, quotient and G are g's own objects."""
    return nerve is g.nerve and quotient is g.quotient and G is quotient.parent


def _own(nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup, m: int,
         g: TwistCocycle) -> Complex:
    """total_complex(g, m), once nerve, quotient and G are g's own objects."""
    if not _is_own(nerve, G, quotient, g):
        raise ValueError("a twist's total complex lies on the twist's own nerve and quotient")
    return total_complex(g, m)


def total_cohomology(nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup,
                     m: int, g: TwistCocycle, p: int):
    """Invariant factors and representatives of the total cohomology at p."""
    return _own(nerve, G, quotient, m, g).cohomology(p)


def solve_total_coboundary(nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup, m: int,
                           g: TwistCocycle, target: TotalCochain) -> Optional[TotalCochain]:
    """A degree-(p-1) cochain with d_tot(x) = target, or None (Complex.solve_coboundary)."""
    return _own(nerve, G, quotient, m, g).solve_coboundary(target)


def group_cohomology(G: FiniteLcaGroup, quotient: QuotientGroup, m: int, k: int):
    """Invariant factors and representatives of H^k(G, M) for the table module."""
    return group_complex(G, quotient, m).cohomology(k)
