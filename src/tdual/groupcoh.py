"""Group cohomology of finite G and the mixed Cech/group double complex.

Group cochains of arity l are dense tables G^l -> M.  The differential is

    d f(g_1,...,g_{l+1}) = (-1)^(l+1) f(g_1,...,g_l)
                          + sum_i (-1)^i f(g_1,..,g_i+g_{i+1},..,g_{l+1})
                          + g_1 . f(g_2,...,g_{l+1})

with the translation action of g_1 on M.  The total complex couples this
to the twisted Cech differential with sign:  d_tot = delta_g - (-1)^p d*.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cech import (GModule, Nerve, TwistCocycle, TwistedCochain, delta_g, delta_terms,
                   terms_matrix)
from .lca import FiniteLcaGroup, QuotientGroup
from .zmodlin import Complex

MAX_ARITY = 4          # dense tables G^l -> M exist up to this arity
MAX_TOTAL_ARITY = 3    # total-complex blocks keep l <= 3


class GroupCochainSpace:
    """Tables G^l -> Fun(G/N, Z/m), flattened to (Z/m)^(|G|^l * q).

    With quotient None the coefficients are plain Z/m with trivial action.
    fiber is the coefficient module of one table entry; translations act
    on the G/N slot only, g as fiber.act[coset[g]].
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
        self._module: Optional[GModule] = None
        self._terms: Optional[list] = None

    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.arity + (self.q,)

    def as_gmodule(self) -> GModule:
        """The whole table as a Cech coefficient module: fiber.act per entry.

        Built on the first call and kept by the space.
        """
        if self._module is None:
            blocks = self.size // self.q
            offsets = np.repeat(np.arange(blocks, dtype=np.int64) * self.q, self.q)
            self._module = GModule(self.m, offsets + np.tile(self.fiber.act, blocks))
        return self._module

    def d(self, x: np.ndarray, sign: int = 1) -> np.ndarray:
        """sign * d_group of the flat tables x, as sum(s * x[src]) over d_group_terms.

        Axes of x after the first are batch axes and pass through; the sum
        is reduced mod m once.  The terms are built on the first call and
        kept by the space, as the module is.
        """
        if self._terms is None:
            self._terms = d_group_terms(self)
        return sum(sign * s * x[src] for s, src in self._terms) % self.m


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
    out_sp = GroupCochainSpace(space.G, space.quotient, space.m, space.arity + 1)
    return terms_matrix(out_sp.size, space.size, space.m,
                        lambda: [(0, d_group_terms(space))])


@dataclass
class TotalCochain:
    """Degree-p element of the mixed complex: one block per bidegree (k, l).

    Block (k, l) is a twisted Cech k-cochain valued in arity-l group
    cochains, stored as a TwistedCochain over the matching tensor module.
    Block values may carry trailing batch axes; blocks left out are filled
    with single (unbatched) zero cochains.  spaces holds one
    GroupCochainSpace per arity, shared by the cochains made from this one.
    """

    nerve: Nerve
    G: FiniteLcaGroup
    quotient: QuotientGroup
    m: int
    degree: int
    blocks: dict = field(default_factory=dict)  # (k, l) -> TwistedCochain
    spaces: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        full = {}
        for k, l in _bidegrees(self.degree):
            blk = self.blocks.get((k, l))
            if blk is None:
                blk = TwistedCochain(self.nerve, self.space(l).as_gmodule(), k)
            full[(k, l)] = blk
        self.blocks = full

    def space(self, l: int) -> GroupCochainSpace:
        return _space(self.spaces, self.G, self.quotient, self.m, l)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.blocks.values())

    def flatten(self) -> np.ndarray:
        """Blocks stacked along the first axis; blocks without simplices add nothing."""
        parts = [self.blocks[(k, l)].flatten() for k, l in _bidegrees(self.degree)
                 if self.nerve.simplices(k)]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def __sub__(self, other: "TotalCochain") -> "TotalCochain":
        blocks = {kl: blk - other.blocks[kl] for kl, blk in self.blocks.items()}
        return TotalCochain(self.nerve, self.G, self.quotient, self.m, self.degree,
                            blocks, self.spaces)

    @staticmethod
    def from_flat(nerve, G, quotient, m, degree, flat: np.ndarray) -> "TotalCochain":
        """Inverse of flatten; axes of flat after the first are batch axes."""
        offsets, dim = _block_offsets(nerve, G, quotient, degree)
        ends = list(offsets.values())[1:] + [dim]
        blocks, spaces = {}, {}
        for ((k, l), off), end in zip(offsets.items(), ends):
            module = _space(spaces, G, quotient, m, l).as_gmodule()
            blocks[(k, l)] = TwistedCochain.from_flat(nerve, module, k, flat[off:end])
        return TotalCochain(nerve, G, quotient, m, degree, blocks, spaces)


def _bidegrees(p: int) -> list[tuple[int, int]]:
    """The blocks (k, l) of degree p, in flat order: Cech degree k descending."""
    return [(k, p - k) for k in range(p, -1, -1) if p - k <= MAX_TOTAL_ARITY]


def _space(spaces: dict, G: FiniteLcaGroup, quotient: QuotientGroup, m: int,
           l: int) -> GroupCochainSpace:
    """spaces[l], made on first use."""
    if l not in spaces:
        spaces[l] = GroupCochainSpace(G, quotient, m, l)
    return spaces[l]


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


def total_differential(t: TotalCochain, g: TwistCocycle) -> TotalCochain:
    """d_tot = delta_g - (-1)^p d*, collected by bidegree in degree p+1.

    Both directions gather along their term arrays: delta_g along
    delta_terms, d* along each space's d_group_terms.  Axes of the block
    values after the first are batch axes and pass through.
    """
    p = t.degree
    sign = -((-1) ** p)
    out: dict = {}

    def collect(kl, c: TwistedCochain) -> None:
        out[kl] = out[kl] + c if kl in out else c

    for (k, l), blk in t.blocks.items():
        # Cech direction
        collect((k + 1, l), delta_g(blk, g))
        # group direction: the block's simplices as one trailing batch axis
        # of a single gather; a block without simplices needs none
        if l + 1 <= MAX_TOTAL_ARITY:
            vals = {}
            if blk.values:
                dg = t.space(l).d(np.stack(list(blk.values.values()), axis=-1), sign)
                vals = dict(zip(blk.values, np.moveaxis(dg, -1, 0)))
            collect((k, l + 1),
                    TwistedCochain(t.nerve, t.space(l + 1).as_gmodule(), k, vals))
    return TotalCochain(t.nerve, t.G, t.quotient, t.m, p + 1, out, t.spaces)


def total_matrix(nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup,
                 m: int, g: TwistCocycle, p: int) -> np.ndarray:
    """Matrix of the total differential from degree p to p+1.

    Source block (k, l) enters block (k+1, l) through delta_g's terms, and
    block (k, l+1) through -(-1)^p times d_group's, once per k-simplex.
    """
    src_off, n_src = _block_offsets(nerve, G, quotient, p)
    dst_off, n_dst = _block_offsets(nerve, G, quotient, p + 1)
    sign = -((-1) ** p)

    def blocks():
        for (k, l), off in src_off.items():
            sp = GroupCochainSpace(G, quotient, m, l)
            yield dst_off[(k + 1, l)], [(s, off + src) for s, src in
                                        delta_terms(nerve, sp.as_gmodule(), g, k)]
            if l + 1 <= MAX_TOTAL_ARITY:
                starts = off + sp.size * np.arange(len(nerve.simplices(k)))[:, None]
                yield dst_off[(k, l + 1)], [(sign * s, (starts + src).ravel())
                                            for s, src in d_group_terms(sp)]
    return terms_matrix(n_dst, n_src, m, blocks)


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
    space = functools.partial(_space, {}, G, quotient, m)
    return Complex(m, lambda p: d_group_matrix(space(p)),
                   lambda p, flat: GroupCochain.from_flat(space(p), flat))


def _own(nerve: Nerve, G: FiniteLcaGroup, quotient: QuotientGroup, m: int,
         g: TwistCocycle) -> Complex:
    """total_complex(g, m), once nerve, quotient and G are g's own objects."""
    if nerve is not g.nerve or quotient is not g.quotient or G is not quotient.parent:
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
