"""JSON round-trips for triple fixtures, scalar cocycles and algebra elements.

Matrices are stored row-major as [re, im] pairs; exact phases as "k/m"
fraction strings; group elements as coordinate lists.
"""

from __future__ import annotations

from fractions import Fraction
import numpy as np

from .cech import Nerve, TwistCocycle
from .crossed import ConvolutionElement, CrossedContext
from .groupcoh import TotalCochain
from .lca import FiniteLcaGroup, GroupElement, QuotientGroup, Subgroup
from .triples import DualityContext, TotalTwoCocycle, TripleLocalData


def matrix_to_json(M: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(M)]


def matrix_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(a, b) for (a, b) in row] for row in rows])


def _elem_key(e: GroupElement) -> str:
    return ",".join(str(c) for c in e.coords)


def _elem_from_key(G: FiniteLcaGroup, key: str) -> GroupElement:
    return G.element(int(c) for c in key.split(","))


def context_to_json(ctx: DualityContext) -> dict:
    return {
        "factors": list(ctx.G.factors),
        "N": [list(g.coords) for g in ctx.N.generators],
        "modulus": ctx.m,
    }


def context_from_json(data: dict) -> DualityContext:
    G = FiniteLcaGroup(data["factors"])
    N = Subgroup(G, [G.element(c) for c in data["N"]])
    return DualityContext(G, N, m=data.get("modulus"))


def twist_from_json(nerve: Nerve, quotient: QuotientGroup, data: dict) -> TwistCocycle:
    """The twist data gives as {"a,b": coordinates}, keying each edge exactly once."""
    G, labels = quotient.parent, {}
    for key, coords in data.items():
        e = tuple(int(x) for x in key.split(","))
        if e in labels:
            raise ValueError(f"twist key {key!r} repeats the edge {e}")
        if len(coords) != len(G.factors):
            raise ValueError(f"twist value {key!r} needs {len(G.factors)} coordinates")
        labels[e] = quotient.coset[G.flat(coords)]
    return TwistCocycle.from_labels(nerve, quotient, labels)


def triple_to_json(t: TripleLocalData) -> dict:
    nerve_simplices = [list(s) for k in range(t.nerve.dimension + 1)
                       for s in t.nerve.simplices(k)]
    elems, reps = t.ctx.G.elements(), t.ctx.quotient.reps()
    return {
        "context": context_to_json(t.ctx),
        "nerve": {"vertices": t.nerve.vertex_count, "simplices": nerve_simplices},
        "legs": list(t.legs),
        "twist": {f"{e[0]},{e[1]}": list(v.coords)
                  for e, v in t.g.edge_values.items()},
        "zeta": {
            f"{e[0]},{e[1]}": {_elem_key(z): matrix_to_json(U)
                               for z, U in zip(reps, Z)}
            for e, Z in t.zeta.items()
        },
        "mu": {
            str(i): {f"{_elem_key(g)}|{_elem_key(z)}": matrix_to_json(M[ig, iz])
                     for ig, g in enumerate(elems) for iz, z in enumerate(reps)}
            for i, M in t.mu.items()
        },
    }


def _table(entries: dict, shape: tuple, position, dim: int, where: str) -> np.ndarray:
    """An array of dim x dim matrices that fills every position of shape exactly once."""
    out = np.zeros(shape + (dim, dim), complex)
    seen = np.zeros(shape, dtype=bool)
    for key, rows in entries.items():
        p = position(key)
        M = matrix_from_json(rows)
        if M.shape != (dim, dim):
            raise ValueError(f"{where}: entry {key!r} is {M.shape}, want ({dim}, {dim})")
        if seen[p]:
            raise ValueError(f"{where}: entry {key!r} repeats a position")
        seen[p] = True
        out[p] = M
    if not seen.all():
        raise ValueError(f"{where}: {int((~seen).sum())} of {seen.size} entries missing")
    return out


def triple_from_json(data: dict) -> TripleLocalData:
    """The triple a triple_to_json dict describes; a zeta or mu table that does
    not cover every position exactly once with legs-dim matrices is refused."""
    ctx = context_from_json(data["context"])
    nerve = Nerve(data["nerve"]["vertices"], data["nerve"]["simplices"])
    G, q = ctx.G, ctx.quotient
    legs = tuple(data["legs"])
    dim = int(np.prod(legs))
    g = twist_from_json(nerve, q, data["twist"])

    def coset(key: str) -> int:
        return q.index(_elem_from_key(G, key))

    def cell(key: str) -> tuple[int, int]:
        gk, zk = key.split("|")
        return G.index(_elem_from_key(G, gk)), coset(zk)

    zeta = {}
    for key, tab in data["zeta"].items():
        a, b = (int(x) for x in key.split(","))
        zeta[(a, b)] = _table(tab, (q.order,), coset, dim, f"zeta on edge {key}")
    mu = {int(ik): _table(tab, (G.order, q.order), cell, dim, f"mu at vertex {ik}")
          for ik, tab in data["mu"].items()}
    return TripleLocalData(nerve, ctx, legs, g, zeta, mu)


def _frac(k: int, m: int) -> str:
    f = Fraction(int(k) % m, m)
    return f"{f.numerator}/{f.denominator}"


def cocycle_to_json(c: TotalTwoCocycle) -> dict:
    m = c.ctx.m
    return {
        "modulus": m,
        "psi": {",".join(map(str, s)): [_frac(k, m) for k in v]
                for s, v in c.psi.items()},
        "phi": {f"{e[0]},{e[1]}": [[_frac(k, m) for k in row] for row in v]
                for e, v in c.phi.items()},
        "omega": {str(i): np.vectorize(_frac)(v, m).tolist()
                  for i, v in c.omega.items()},
    }


def element_to_json(f: ConvolutionElement) -> dict:
    ctx = f.cc.ctx
    return {
        "context": context_to_json(ctx),
        "fiber_dim": f.cc.d,
        "values": {
            f"{_elem_key(g)}|{_elem_key(z)}": matrix_to_json(f.values[ig, iz])
            for ig, g in enumerate(ctx.G.elements())
            for iz, z in enumerate(ctx.quotient.reps())
        },
    }


def element_from_json(data: dict) -> ConvolutionElement:
    ctx = context_from_json(data["context"])
    cc = CrossedContext(ctx, data["fiber_dim"])
    vals = np.zeros((cc.n, cc.q, cc.d, cc.d), complex)
    for key, M in data["values"].items():
        gk, zk = key.split("|")
        vals[ctx.G.index(_elem_from_key(ctx.G, gk)),
             ctx.quotient.index(_elem_from_key(ctx.G, zk))] = matrix_from_json(M)
    return ConvolutionElement(cc, vals)


def total_cochain_to_json(t: TotalCochain) -> dict:
    """Certificate chains: per bidegree, per simplex, fraction strings."""
    m = t.m
    out = {"degree": t.degree, "modulus": m, "blocks": {}}
    for (k, l), blk in sorted(t.blocks.items()):
        entries = {}
        for s, v in blk.values.items():
            entries[",".join(map(str, s))] = [_frac(int(x), m) for x in v]
        out["blocks"][f"{k},{l}"] = entries
    return out
