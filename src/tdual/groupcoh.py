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
(m, p).  The tuple loop d_group reads the formula, as the terms' reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional

import numpy as np

from .cech import GModule, Nerve, TwistCocycle, _wrap, apply_terms, delta_terms, terms_matrix
from .lca import FiniteLcaGroup, QuotientGroup
from .zmodlin import Complex

MAX_ARITY = 4          # dense tables G^l -> M exist up to this arity
MAX_TOTAL_ARITY = 3    # total-complex blocks keep l <= 3


class GroupCochainSpace:
    """Tables G^l -> Fun(G/N, Z/m), flattened to (Z/m)^(|G|^l * q).

    With quotient None the coefficients are plain Z/m with trivial action.
    fiber is the coefficient module of one table entry; translations act
    on the G/N slot only, g as fiber.act[coset[g]].  The act table and
    d_group_terms depend on quotient and arity only, so quotient.tables keeps them.
    """

    def __init__(self, G: FiniteLcaGroup, quotient: Optional[QuotientGroup],
                 m: int, arity: int):
        if arity < 0 or arity > MAX_ARITY:
            raise ValueError(f"arity {arity} outside supported range 0..{MAX_ARITY}")
        self.G = G
        self.quotient = quotient
        self.m = int(m)
        self.arity = arity
        self.n = G.order
        self.q = quotient.order if quotient is not None else 1
        self.size = self.n ** arity * self.q
        if quotient is None:
            self.fiber, self.coset = GModule.trivial(self.m), np.zeros(self.n, dtype=np.int64)
        else:
            self.fiber = GModule.functions_on_quotient(self.m, quotient)
            self.coset = quotient.coset
        self._tables = {} if quotient is None else quotient.tables.setdefault(arity, {})

    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.arity + (self.q,)

    def as_gmodule(self) -> GModule:
        """The whole table as a Cech coefficient module: fiber.act per entry."""
        act = self._tables.get("act")
        if act is None:
            blocks = self.size // self.q
            offsets = np.repeat(np.arange(blocks, dtype=np.int64) * self.q, self.q)
            act = self._tables["act"] = offsets + np.tile(self.fiber.act, blocks)
        return GModule(self.m, act)

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
    first argument dropped with z moved by fiber.act[coset[g_1]].
    """
    l, shape = space.arity, space.shape()
    idx = np.indices((space.n,) * (l + 1) + (space.q,)).reshape(l + 2, -1)
    g, z = list(idx[:-1]), idx[-1]
    add = space.G.add_table()
    terms = [((-1) ** (l + 1), np.ravel_multi_index(g[:l] + [z], shape))]
    for i in range(1, l + 1):
        merged = g[:i - 1] + [add[g[i - 1], g[i]]] + g[i + 1:]
        terms.append(((-1) ** i, np.ravel_multi_index(merged + [z], shape)))
    moved = space.fiber.act[space.coset[g[0]], z]
    terms.append((1, np.ravel_multi_index(g[1:] + [moved], shape)))
    return terms


def d_group_matrix(space: GroupCochainSpace) -> np.ndarray:
    """Matrix of d_group from arity l to l+1 on flattened coordinates."""
    return terms_matrix(space.size * space.n, space.size, space.m, lambda: [(0, space.terms())])


class TotalCochain:
    """Degree-p element of the mixed complex: one block per bidegree (k, l).

    It is one int64 array, block by block in _bidegrees order, then any batch
    axes.  Block (k, l), a Cech k-cochain of arity-l group cochains, is a
    TwistedCochain over a view of its slice: writing its values writes t.
    The constructor copies the blocks it is given; the rest are zero.
    """

    def __init__(self, nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup, m: int,
                 degree: int, blocks: Optional[dict] = None):
        blocks = blocks or {}
        batch = next((blk.flatten().shape[1:] for blk in blocks.values()), ())
        dim = total_dimension(nerve, G, quotient, m, degree)
        self._init(nerve, G, quotient, m, degree, np.zeros((dim,) + batch, dtype=np.int64))
        for kl, blk in blocks.items():
            self.blocks[kl].flatten()[...] = blk.flatten() % m

    def _init(self, nerve, G, quotient, m, degree, flat: np.ndarray):
        self.nerve, self.G, self.quotient, self.m, self.degree = nerve, G, quotient, m, degree
        self._flat = flat
        offsets, dim = _block_offsets(nerve, G, quotient, degree)
        ends = list(offsets.values())[1:] + [dim]
        self.blocks = MappingProxyType({
            (k, l): _wrap(nerve, GroupCochainSpace(G, quotient, m, l).as_gmodule(), k,
                          flat[off:end])
            for ((k, l), off), end in zip(offsets.items(), ends)})
        return self

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


def _block_offsets(nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup,
                  p: int) -> tuple[dict, int]:
    """Flat offset of each block (k, l) of degree p, in _bidegrees order, and the dimension."""
    offsets, dim = {}, 0
    for k, l in _bidegrees(p):
        offsets[(k, l)] = dim
        dim += len(nerve.simplices(k)) * (G.order ** l) * quotient.order
    return offsets, dim


def total_dimension(nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup,
                    m: int, p: int) -> int:
    return _block_offsets(nerve, G, quotient, p)[1]


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
    src_off, _ = _block_offsets(nerve, G, quotient, p)
    dst_off, _ = _block_offsets(nerve, G, quotient, p + 1)
    sign = -((-1) ** p)
    blocks = []
    for (k, l), off in src_off.items():
        if not nerve.simplices(k):
            continue
        sp = GroupCochainSpace(G, quotient, m, l)
        if nerve.simplices(k + 1):
            blocks.append((dst_off[(k + 1, l)], [(s, off + src) for s, src in
                                                 delta_terms(nerve, sp.as_gmodule(), g, k)]))
        if l + 1 <= MAX_TOTAL_ARITY:
            starts = off + sp.size * np.arange(len(nerve.simplices(k)))[:, None]
            blocks.append((dst_off[(k, l + 1)], [(sign * s, (starts + src).ravel())
                                                 for s, src in sp.terms()]))
    memo[(m, p)] = blocks
    return blocks


def total_differential(t: TotalCochain, g: TwistCocycle) -> TotalCochain:
    """d_tot = delta_g - (-1)^p d*, gathered along total_terms (apply_terms).

    Axes of the block values after the first are batch axes and pass through.
    """
    nerve, G, quotient, m, p = t.nerve, t.G, t.quotient, t.m, t.degree
    flat = apply_terms(total_dimension(nerve, G, quotient, m, p + 1), m,
                       total_terms(nerve, G, quotient, m, g, p), t.flatten())
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


def group_complex(G: FiniteLcaGroup, quotient: Optional[QuotientGroup], m: int) -> Complex:
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


def group_cohomology(G: FiniteLcaGroup, quotient: Optional[QuotientGroup],
                     m: int, k: int):
    """Invariant factors and representatives of H^k(G, M) for the table module."""
    return group_complex(G, quotient, m).cohomology(k)
