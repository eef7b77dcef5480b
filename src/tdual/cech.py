"""Finite nerves, twisted Cech cochain complexes and exact cohomology.

A cochain of degree k assigns a coefficient-module element to every
(sorted) k-simplex of the nerve.  The differential is twisted by a
quotient-valued edge cocycle g:

    delta_g(phi) = delta(phi) + g*(phi),
    (g*phi)_{i0..in} = (-1)^(n-1) (phi_{i0..i(n-1)} - phi_{i0..i(n-1)} . g_{i(n-1) in})

where . is the right translation action on the module.  Cohomology is
computed exactly over Z/m by zmodlin.Complex.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Optional

import numpy as np

from .errors import check_dim
from .lca import MAX_GROUP_ORDER, GroupElement, QuotientGroup
from .zmodlin import Complex

Simplex = tuple[int, ...]


class Nerve:
    """Finite simplicial set of chart intersections, closed under faces."""

    def __init__(self, vertex_count: int, simplices: Iterable[Sequence[int]]):
        if vertex_count < 1:
            raise ValueError("a nerve needs at least one vertex")
        self.vertex_count = vertex_count
        given = set()
        for s in simplices:
            t = tuple(sorted(set(int(v) for v in s)))
            if t and (t[0] < 0 or t[-1] >= vertex_count):
                raise ValueError(f"simplex {t} references a vertex outside the nerve")
            given.add(t)
        # the k-simplices are the (k+1)-vertex subsets of the given simplices
        self._simplices = {0: tuple((v,) for v in range(vertex_count))}
        for k in range(1, max(map(len, given), default=1)):
            self._simplices[k] = tuple(sorted(
                {f for t in given if len(t) > k for f in itertools.combinations(t, k + 1)}))
        self._positions: dict[int, dict[Simplex, int]] = {}
        self.dimension = max(self._simplices)

    def simplices(self, k: int) -> tuple[Simplex, ...]:
        return self._simplices.get(k, ())

    def positions(self, k: int) -> dict[Simplex, int]:
        """The index of each k-simplex in simplices(k), built on first use."""
        if k not in self._positions:
            self._positions[k] = {s: i for i, s in enumerate(self.simplices(k))}
        return self._positions[k]

    @property
    def vertices(self) -> tuple[Simplex, ...]:
        return self.simplices(0)

    @property
    def edges(self) -> tuple[Simplex, ...]:
        return self.simplices(1)

    @staticmethod
    def point() -> "Nerve":
        return Nerve(1, [])

    @staticmethod
    def circle() -> "Nerve":
        """Three charts on a circle: all pairwise overlaps, no triple one."""
        return Nerve(3, [[0, 1], [0, 2], [1, 2]])

    @staticmethod
    def sphere() -> "Nerve":
        """Boundary of the tetrahedron: a simplicial 2-sphere."""
        return Nerve(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])

    def __repr__(self) -> str:
        counts = {k: len(v) for k, v in self._simplices.items()}
        return f"Nerve(vertices={self.vertex_count}, simplices={counts})"


class GModule:
    """Coefficients (Z/m)^size with a translation action by quotient positions.

    act[x] is the permutation p with (v . x)[i] = v[p[i]], for x a position
    in quotient.reps(); for Fun(G/N, Z/m), p[z] = position of z + x.
    """

    def __init__(self, m: int, act: np.ndarray):
        self.m = int(m)
        self.act = act
        self.size = act.shape[1]

    @staticmethod
    def trivial(m: int) -> "GModule":
        """Z/m with every coset acting as the identity, for any quotient."""
        return GModule(m, np.broadcast_to(np.zeros(1, dtype=np.int64), (MAX_GROUP_ORDER, 1)))

    @staticmethod
    def functions_on_quotient(m: int, quotient: QuotientGroup) -> "GModule":
        """Fun(G/N, Z/m) with (v . x)(z) = v(z + x)."""
        return GModule(m, quotient.add_table())


class TwistCocycle:
    """Edge labels in G/N with g_ik = g_ij + g_jk on every 2-simplex.

    labels[e] is the position of g_e in quotient.reps(), as from_labels takes
    it; the constructor takes group elements, and edge_values gives them back.
    The labels never change, so totals keeps total_complex's memo per modulus
    and terms the total differential's term blocks per (modulus, degree).
    """

    def __init__(self, nerve: Nerve, quotient: QuotientGroup,
                 edge_values: Mapping[Simplex, GroupElement]):
        self._init(nerve, quotient, {e: quotient.index(x) for e, x in edge_values.items()})

    @classmethod
    def from_labels(cls, nerve: Nerve, quotient: QuotientGroup,
                    labels: Mapping[Simplex, int]) -> "TwistCocycle":
        """The twist with labels[e] on each edge e, checked as the constructor checks."""
        return cls.__new__(cls)._init(nerve, quotient, labels)

    def _init(self, nerve: Nerve, quotient: QuotientGroup, labels: Mapping[Simplex, int]):
        self.nerve = nerve
        self.quotient = quotient
        self.totals: dict = {}
        self.terms: dict = {}
        for e in nerve.edges:
            if e not in labels:
                raise ValueError(f"missing twist value for edge {e}")
        extra = set(labels) - set(nerve.edges)
        if extra:
            raise ValueError(f"twist labels on non-edges: {sorted(extra)}")
        self.labels = lab = {e: int(labels[e]) for e in nerve.edges}
        for (a, b, c) in nerve.simplices(2):
            lhs, rhs = lab[(a, c)], quotient.add_table()[lab[(a, b)], lab[(b, c)]]
            if lhs != rhs:
                reps = quotient.reps()
                raise ValueError(
                    f"twist violates the cocycle law on ({a},{b},{c}): "
                    f"g_ac={reps[lhs]}, g_ab+g_bc={reps[rhs]}"
                )
        return self

    @property
    def edge_values(self) -> dict[Simplex, GroupElement]:
        """The label of each edge as its coset representative."""
        reps = self.quotient.reps()
        return {e: reps[i] for e, i in self.labels.items()}

    @staticmethod
    def trivial(nerve: Nerve, quotient: QuotientGroup) -> "TwistCocycle":
        return TwistCocycle.from_labels(nerve, quotient, dict.fromkeys(nerve.edges, 0))

    @staticmethod
    def coboundary(nerve: Nerve, quotient: QuotientGroup,
                   vertex_values: Mapping[int, GroupElement]) -> "TwistCocycle":
        """g_ij = r_j - r_i; always a valid twist."""
        neg = quotient.neg_table()
        minus_r = {i: neg[quotient.index(x)] for i, x in vertex_values.items()}
        return r_conjugate_twist(TwistCocycle.trivial(nerve, quotient), minus_r)


class TwistedCochain:
    """Degree-k cochain: one module element per sorted k-simplex.

    It is one int64 array, simplex by simplex in nerve order, then any batch
    axes: a batch of cochains that every operation acts on alike.
    """

    def __init__(self, nerve: Nerve, module: GModule, degree: int,
                 values: Optional[Mapping] = None):
        values = values or {}
        batch = np.shape(next(iter(values.values()), ()))[1:]
        n = len(nerve.simplices(degree)) * module.size
        self._init(nerve, module, degree, np.zeros((n,) + batch, dtype=np.int64))
        for s, v in values.items():
            self.values[s] = v

    def _init(self, nerve: Nerve, module: GModule, degree: int, flat: np.ndarray):
        self.nerve, self.module, self.degree, self._flat = nerve, module, degree, flat
        self.values = _SimplexValues(nerve.positions(degree), module.size, module.m, flat)
        return self

    def is_zero(self) -> bool:
        return not self._flat.any()

    def __sub__(self, other: "TwistedCochain") -> "TwistedCochain":
        return TwistedCochain.from_flat(self.nerve, self.module, self.degree,
                                        self._flat - other._flat)

    def flatten(self) -> np.ndarray:
        """The cochain's array: values stacked simplex by simplex along the first axis."""
        return self._flat

    @staticmethod
    def from_flat(nerve: Nerve, module: GModule, degree: int,
                  flat: np.ndarray) -> "TwistedCochain":
        """Inverse of flatten; axes of flat after the first are batch axes."""
        return _wrap(nerve, module, degree, np.asarray(flat, dtype=np.int64) % module.m)


def _wrap(nerve: Nerve, module: GModule, degree: int, flat: np.ndarray) -> TwistedCochain:
    """The cochain whose array is flat itself, its entries already reduced mod m."""
    return TwistedCochain.__new__(TwistedCochain)._init(nerve, module, degree, flat)


class _SimplexValues(Mapping):
    """A cochain's values by simplex, each a view of its slice of the array.

    Assigning values[s] = v writes v mod m into the slice; a key that is not
    a simplex of the cochain's degree raises KeyError.
    """

    def __init__(self, positions: dict, size: int, m: int, flat: np.ndarray):
        self._pos, self._size, self._m, self._flat = positions, size, m, flat

    def __getitem__(self, s: Simplex) -> np.ndarray:
        i = self._pos[s]
        return self._flat[i * self._size:(i + 1) * self._size]

    def __setitem__(self, s: Simplex, v) -> None:
        self[s][...] = np.asarray(v, dtype=np.int64) % self._m

    def __iter__(self):
        return iter(self._pos)

    def __len__(self) -> int:
        return len(self._pos)


def delta_g(c: TwistedCochain, g: TwistCocycle) -> TwistedCochain:
    """Twisted Cech differential; returns a cochain of degree k+1.

    Gathers the flat cochain along delta_terms, so the applier and
    delta_matrix read one encoding.  Trailing axes of the values are batch
    axes and pass through unchanged.
    """
    n_dst = len(c.nerve.simplices(c.degree + 1)) * c.module.size
    out = apply_terms(n_dst, c.module.m, [(0, delta_terms(c.nerve, c.module, g, c.degree))],
                      c.flatten())
    return _wrap(c.nerve, c.module, c.degree + 1, out)


def delta_terms(nerve: Nerve, module: GModule, g: TwistCocycle,
                k: int) -> list[tuple[int, np.ndarray]]:
    """delta_g from degree k to k+1 as (sign, source index) terms.

    Each source array runs over the flat output coordinates (s, i), for s
    a (k+1)-simplex and i a module slot, and names the flat source
    coordinate whose value enters entry (s, i) with that sign: face j of s
    in slot i for j <= k, and the last face s[:-1] in slot act[x][i] for x
    the label of s's last edge.  The twist term's untwisted half cancels
    the alternating sum's last face, which leaves k + 2 terms.
    """
    sz, pos = module.size, nerve.positions(k)
    top = nerve.simplices(k + 1)
    faces = np.array([[pos[s[:j] + s[j + 1:]] for j in range(k + 2)] for s in top],
                     dtype=np.int64).reshape(len(top), k + 2) * sz
    labels = np.array([g.labels[s[-2:]] for s in top], dtype=np.int64)
    slots = np.arange(sz)
    terms = [((-1) ** j, (faces[:, j, None] + slots).ravel()) for j in range(k + 1)]
    terms.append(((-1) ** (k + 1), (faces[:, k + 1, None] + module.act[labels]).ravel()))
    return terms


def terms_matrix(n_dst: int, n_src: int, m: int,
                 blocks: Callable[[], Iterable[tuple[int, list]]]) -> np.ndarray:
    """The n_dst x n_src matrix over Z/m of the (row0, terms) blocks() yields.

    terms are (sign, src) pairs as delta_terms gives them: sign is added at
    (row0 + r, src[r]) for every r.  blocks() runs after check_dim passes.
    """
    check_dim(max(n_src, n_dst))
    A = np.zeros((n_dst, n_src), dtype=np.int64)
    for row0, terms in blocks():
        for sign, src in terms:
            A[np.arange(row0, row0 + src.size), src] += sign
    A %= m
    return A


def apply_terms(n_dst: int, m: int, blocks: Iterable[tuple[int, list]],
                x: np.ndarray) -> np.ndarray:
    """terms_matrix(n_dst, len(x), m, lambda: blocks) @ x mod m, as one gather.

    Axes of x after the first are batch axes and pass through.
    """
    out = np.zeros((n_dst,) + np.shape(x)[1:], dtype=np.int64)
    for row0, terms in blocks:
        for sign, src in terms:
            out[row0:row0 + src.size] += sign * x[src]
    return out % m


def delta_matrix(nerve: Nerve, module: GModule, g: TwistCocycle, k: int) -> np.ndarray:
    """Matrix of delta_g from degree k to k+1 on flattened coordinates."""
    sz = module.size
    n_src, n_dst = len(nerve.simplices(k)) * sz, len(nerve.simplices(k + 1)) * sz
    return terms_matrix(n_dst, n_src, module.m,
                        lambda: [(0, delta_terms(nerve, module, g, k))])


def cech_complex(nerve: Nerve, module: GModule, g: TwistCocycle) -> Complex:
    """The twisted Cech complex of nerve with coefficients in module: delta_matrix."""
    return Complex(module.m, lambda k: delta_matrix(nerve, module, g, k),
                   lambda k, flat: TwistedCochain.from_flat(nerve, module, k, flat))


def cohomology(nerve: Nerve, module: GModule, g: TwistCocycle, k: int):
    """Invariant factors and representative cocycles of H^k(nerve, module, g)."""
    return cech_complex(nerve, module, g).cohomology(k)


def r_sharp(c: TwistedCochain, r: Mapping[int, int]) -> TwistedCochain:
    """(r# phi)_s = phi_s . r_{last vertex of s}, with r_i a quotient position.

    Intertwines the differentials: delta_g(r# c) = r#(delta_g' c) for
    g'_ij = r_i + g_ij - r_j (see r_conjugate_twist).
    """
    sz, simplices = c.module.size, c.nerve.simplices(c.degree)
    src = np.arange(len(simplices))[:, None] * sz + c.module.act[[r[s[-1]] for s in simplices]]
    return _wrap(c.nerve, c.module, c.degree, c.flatten()[src.ravel()])


def r_conjugate_twist(g: TwistCocycle, r: Mapping[int, int]) -> TwistCocycle:
    """The twist g'_ij = r_i + g_ij - r_j matched to r_sharp (r_i quotient positions)."""
    q = g.quotient
    add, neg = q.add_table(), q.neg_table()
    return TwistCocycle.from_labels(g.nerve, q, {(i, j): add[add[r[i], x], neg[r[j]]]
                                                 for (i, j), x in g.labels.items()})
