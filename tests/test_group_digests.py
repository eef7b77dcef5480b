"""SHA-256 of what the group layer gives for a fixed set of groups and subgroups.

For each case one digest covers: the positions of N in G.elements(), the
coordinates of the quotient's representatives, the coset array, the
annihilator's generators, the dual quotient's coset array, and the values
of the "least" section and of the "random" section at seeds 0, 1 and 7
(as positions in G.elements()).  Any change to how lca builds subgroups,
quotients, annihilators or sections must give the same integers.

Print the table afresh with  python tests/test_group_digests.py
"""

import hashlib

import numpy as np

from tdual.lca import FiniteLcaGroup, QuotientGroup, Subgroup, annihilator, dual_group, make_section

CASES = {
    "Z6/<3>": ([6], [[3]]),
    "Z6/0": ([6], []),
    "Z6/Z6": ([6], [[1]]),
    "Z2xZ2/<(1,1)>": ([2, 2], [[1, 1]]),
    "Z4xZ2/<(2,0),(0,1)>": ([4, 2], [[2, 0], [0, 1]]),
    "Z2xZ4xZ8/<(1,2,4),(0,2,0)>": ([2, 4, 8], [[1, 2, 4], [0, 2, 0]]),
    "Z2xZ6xZ6/<(1,3,0),(0,2,2),(0,0,3)>": ([2, 6, 6], [[1, 3, 0], [0, 2, 2], [0, 0, 3]]),
    "Z64xZ64/<(8,8)>": ([64, 64], [[8, 8]]),
    "Z4096/0": ([4096], []),
    "Z4096/<1>": ([4096], [[1]]),
    "trivial": ([], []),
}


def group_layer(factors, gens):
    """The integer outputs of the group layer for G = prod Z/f and N = <gens>."""
    G = FiniteLcaGroup(factors)
    N = Subgroup(G, [G.element(g) for g in gens])
    q = QuotientGroup(G, N)
    nperp = annihilator(G, N)
    out = {
        "N": [G.index(n) for n in N.elements()],
        "reps": [r.coords for r in q.reps()],
        "coset": q.coset,
        "nperp_gens": [g.coords for g in nperp.generators],
        "dual_coset": QuotientGroup(dual_group(G), nperp).coset,
    }
    for policy, seed in (("least", 0), ("random", 0), ("random", 1), ("random", 7)):
        sec = make_section(G, N, policy, seed=seed, quotient=q)
        out[f"{policy}/{seed}"] = [G.index(sec(r)) for r in q.reps()]
    return out


def digest(parts):
    h = hashlib.sha256()
    for key, value in parts.items():
        a = np.asarray(value, dtype=np.int64)
        h.update(f"{key}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


DIGESTS = {
    'Z6/<3>': '60d649517e4af1c8215574a6da679fb3b5b499bb351fabf25c40fe751b749a8b',
    'Z6/0': '1ddee283af56500d3bb8166034aada162ee9836bf1f14ffd4facc07aac365a2c',
    'Z6/Z6': 'affbc071bbac35b76724c786b6da1eb03a18291019e0354766bb6271082904ed',
    'Z2xZ2/<(1,1)>': 'a3e104b9656a59e464faa008d14a35fe0764f7b59f9c1782d7340a5ea3357c04',
    'Z4xZ2/<(2,0),(0,1)>': 'f7d2dcba81e27dcc3e52163419d6a6efb82ae42521d058f78348edefc38106e4',
    'Z2xZ4xZ8/<(1,2,4),(0,2,0)>': 'f198c43c7ed77d97470ed849f9c23d880355fb18cadf614ceb7255babf67cd5d',
    'Z2xZ6xZ6/<(1,3,0),(0,2,2),(0,0,3)>': '7ba3a9e92d951d3aa10b70471998bdadd1f5636d07407b0e9772e0cd3a2b3e95',
    'Z64xZ64/<(8,8)>': '9876a09818917974032e44af3db898e4600f63a54dfccfd71ad1b18c42d3a6fb',
    'Z4096/0': 'ee4c53416b0a984ff178ac5c55c0f811e489623002951dba17c67a02cdd39b82',
    'Z4096/<1>': '482282b517c304b9294e5fec6b7a96d010bfd7f025b5acf6047da9708cdbedc4',
    'trivial': 'dd71bd01f128d0895465be389ae529e52acdbbc2cfad6a91a3d5db3ca4c489ab',
}


def test_group_layer_digests():
    got = {name: digest(group_layer(*case)) for name, case in CASES.items()}
    assert got == DIGESTS


if __name__ == "__main__":
    for name, case in CASES.items():
        print(f"    {name!r}: {digest(group_layer(*case))!r},")
