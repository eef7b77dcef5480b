"""SHA-256 of every integer differential the cohomology ladder builds, and of its outputs.

The rungs are those of the cohomology_ladder bench workload, twist labels
included, plus one sphere with a nontrivial twist.  For each rung the
matrices of its own kind, and the total matrices its coboundary solve
uses, are built at every degree from 0 to p+1 whose sides fit the default
cap.  The digests were recorded with the identity-batch assembly, so any
change to how the matrices are built must give the same integers.

The ladder's outputs are pinned the same way: for each of its rungs, the
invariant factors, representatives and coboundary certificate it gives
over two cycles at seeds 7 and 11, with the inputs the workload draws.
Any change to the exact layer must give the same integers.

Print both tables afresh with  python tests/test_matrix_digests.py
"""

import hashlib

import numpy as np

from tdual.cech import Nerve, TwistCocycle, cohomology, delta_matrix
from tdual.errors import DEFAULT_MAX_DIM
from tdual.groupcoh import (
    GroupCochainSpace,
    TotalCochain,
    d_group_matrix,
    group_cohomology,
    solve_total_coboundary,
    total_cohomology,
    total_differential,
    total_dimension,
    total_matrix,
)
from tdual.lca import FiniteLcaGroup, QuotientGroup, Subgroup

GROUPS = {
    "Z4": ([4], [[2]]),
    "Z6": ([6], [[3]]),
    "Z8": ([8], [[4]]),
    "Z9": ([9], [[3]]),
    "Z2xZ2": ([2, 2], [[1, 1]]),
    "Z2xZ4": ([2, 4], [[1, 2]]),
}

NERVES = {
    "point": (1, []),
    "circle": (3, [[0, 1], [0, 2], [1, 2]]),
    "sphere": (4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    "five": (5, [[0, 1, 2], [0, 2, 3], [0, 3, 4], [1, 2, 4], [2, 3, 4]]),
}

# (kind, group, nerve, degree, module arity for cech, twist labels): the
# ladder's rungs, then a sphere twisted by a nonzero vertex coboundary
LADDER_RUNGS = 19
RUNGS = [
    ("total", "Z4", "circle", 0, None, None),
    ("total", "Z4", "circle", 1, None, None),
    ("total", "Z4", "circle", 2, None, None),
    ("total", "Z4", "sphere", 1, None, None),
    ("total", "Z6", "circle", 1, None, [1, 0, 0]),
    ("total", "Z4", "five", 1, None, None),
    ("total", "Z2xZ2", "five", 1, None, None),
    ("total", "Z6", "circle", 1, None, None),
    ("group", "Z4", "point", 3, None, None),
    ("group", "Z4", "point", 2, None, None),
    ("group", "Z6", "point", 1, None, None),
    ("group", "Z8", "point", 1, None, None),
    ("group", "Z9", "point", 1, None, None),
    ("group", "Z2xZ4", "point", 1, None, None),
    ("cech", "Z6", "circle", 1, 0, [1, 0, 0]),
    ("cech", "Z8", "sphere", 1, 0, None),
    ("cech", "Z4", "five", 1, 1, None),
    ("cech", "Z2xZ2", "five", 1, 1, None),
    ("cech", "Z9", "circle", 1, 1, None),
    ("cech", "Z4", "sphere", 1, 1, [1, 0, 1, 1]),
    ("total", "Z4", "sphere", 1, None, [1, 0, 1, 1]),
]


def build_group(name):
    factors, gens = GROUPS[name]
    G = FiniteLcaGroup(factors)
    return G, QuotientGroup(G, Subgroup(G, [G.element(c) for c in gens])), G.exponent


def build_twist(nerve, q, labels):
    """Circle labels are edge values; elsewhere a vertex coboundary."""
    reps = q.reps()
    if len(labels) == len(nerve.edges) and nerve.simplices(2) == ():
        return TwistCocycle(nerve, q, {e: reps[i] for e, i in zip(nerve.edges, labels)})
    return TwistCocycle.coboundary(
        nerve, q, {v[0]: reps[i] for v, i in zip(nerve.vertices, labels)})


def ladder_matrices():
    """(key, sides, builder) for each distinct matrix the rungs build."""
    seen = {}
    for kind, gname, nname, p, arity, labels in RUNGS:
        G, q, m = build_group(gname)
        nerve = Nerve(*NERVES[nname])
        tag = f"{gname}/{nname}" + ("" if labels is None else f"/t{labels}")
        g = build_twist(nerve, q, labels or [0] * len(nerve.edges))
        for d in range(p + 2):
            seen[f"total/{tag}/d{d}"] = (
                (total_dimension(nerve, G, q, m, d), total_dimension(nerve, G, q, m, d + 1)),
                lambda nerve=nerve, G=G, q=q, m=m, g=g, d=d: total_matrix(nerve, G, q, m, g, d))
            if kind == "group":
                sp = GroupCochainSpace(G, q, m, d)
                seen[f"group/{gname}/a{d}"] = (
                    (sp.size, sp.size * G.order), lambda sp=sp: d_group_matrix(sp))
            elif kind == "cech":
                module = GroupCochainSpace(G, q, m, arity).as_gmodule()
                seen[f"cech/{tag}/a{arity}/d{d}"] = (
                    tuple(len(nerve.simplices(k)) * module.size for k in (d, d + 1)),
                    lambda nerve=nerve, module=module, g=g, d=d:
                        delta_matrix(nerve, module, g, d))
    return {key: build for key, (sides, build) in seen.items()
            if max(sides) <= DEFAULT_MAX_DIM}


def digest(A):
    h = hashlib.sha256(repr(A.shape).encode())
    h.update(np.ascontiguousarray(A, dtype=np.int64).tobytes())
    return h.hexdigest()


DIGESTS = {
    'total/Z4/circle/d0': '5a58aacf89c4e4363372b4b92a29546b0bd18f9375f2642129d019bb26104e13',
    'total/Z4/circle/d1': '397d14ed0844eeaae8cf4b849037675c8484d567cd4bb3813512407aeae1d6a3',
    'total/Z4/circle/d2': 'f92f0b83ddaaa6770c7a0acb43159615c191b9b26201883440bf530749404c7b',
    'total/Z4/circle/d3': 'f6ea39f9e950750fee9ac834f329298092f59d4ad6eab10a79b882f7464a1c96',
    'total/Z4/sphere/d0': 'd0f28940fedb29f16a16a25cc462461dc66a3da9811c3ed9ee6aac998f30ffd8',
    'total/Z4/sphere/d1': '8575135335e73e6267ef641b687a07ea0d2b71b4038b88a21ab2fa12bedd92f2',
    'total/Z6/circle/t[1, 0, 0]/d0': 'ada3ea19d077c3a892af83cccb4a77245b5d8c480c306ce7eaaed4ed34de8115',
    'total/Z6/circle/t[1, 0, 0]/d1': '25284e69776bbfe524763f5b097a9f3c15eca9811ada6a603d35d7ecdd04e500',
    'total/Z4/five/d0': 'c576e9b7f0935ccc7e4475f984104b43207a1aea6237c65d35fd2e66c36e9b88',
    'total/Z4/five/d1': '5baaa24ae1e7e88713d9bdfdbb85a26bcccadf3cc369ad94d124ae3996f62afc',
    'total/Z2xZ2/five/d0': 'e3d8037f777f7c7184d8148715a98bd6cf71e75337c0485342c853cbc547c4ec',
    'total/Z2xZ2/five/d1': 'c99a1cbb568f71d5bed65022023203e05432c1b4f765b1055b7d8bc854bccbcb',
    'total/Z6/circle/d0': 'eaa2b8034e2cc0141be84d210f6ad21fe5c63b2d57ccbf628106e197d966597e',
    'total/Z6/circle/d1': 'ea507cdb8c17acf9b3863b1b8f440022414fb151f9a893c1b48d2b8f8dcf491b',
    'total/Z4/point/d0': '636ad4e75a4890eeff1339e44954a77146d48d071d8e3c01adfb1f373b11060b',
    'group/Z4/a0': '953f5daad275ce67b2c314672a8bb83d685ebbca9f5dd3a7f235050f3709ecfc',
    'total/Z4/point/d1': 'a2fd0efc28dd03d3fbd65c48fcd644faf1b664390849ac0dffcbe936154b4cf6',
    'group/Z4/a1': 'a2fd0efc28dd03d3fbd65c48fcd644faf1b664390849ac0dffcbe936154b4cf6',
    'total/Z4/point/d2': '6ef5a006cfd69d8a97f4d7a8962f595082ebfc2068dfdc8aa2db09032e39fec2',
    'group/Z4/a2': '54bddd73fb1c34610c72386e93e0b386862a4d386d763b579028e9f42518bdd1',
    'total/Z4/point/d3': '5ea9383d2b0541cfab54041945272bcbde43d6b16f6a9f2395d9e2d33073c06b',
    'group/Z4/a3': '8de186c3922d3455930f93117855a9ef7f305707218175104574b1ac677b4c2c',
    'total/Z4/point/d4': '9d37e282dff85f7c8fffc4daf3461561337a4a9da281111f2dbf927b7a99db77',
    'total/Z6/point/d0': 'cf5f205e2ebf4ab4f264b1ca0abc13fd42ef21585711a87ab80922620353beab',
    'group/Z6/a0': '0025646e28a5e3a6508a5650c4668eeb0dfcf12b06ce4e602ea81c56b785d51b',
    'total/Z6/point/d1': '52dd799dd4ee86feb517b3bbb8440ca739db378f64ee09f739b1c5bcbe06870a',
    'group/Z6/a1': '52dd799dd4ee86feb517b3bbb8440ca739db378f64ee09f739b1c5bcbe06870a',
    'total/Z8/point/d0': 'e182fe572b9e4aa135eddf811d317572034135f78b92d18cb6738dd7f3df5805',
    'group/Z8/a0': 'ed50020da3fa30e086e3076f9b4d6f29b934a8f5528820358fde9eedb3798304',
    'total/Z8/point/d1': '10bbc55e1a7396023e6912ffd9b8c76a71d204cb8849082a520125dea4475dd7',
    'group/Z8/a1': '10bbc55e1a7396023e6912ffd9b8c76a71d204cb8849082a520125dea4475dd7',
    'total/Z9/point/d0': 'c9374b6af2dd13ca365f61e16de35786a8f74088fd2ed3b6a456806066dbc412',
    'group/Z9/a0': 'a256de89af76251248b15b45aad9b3f3dbaea7e32b35e8504c9c472213df190c',
    'total/Z9/point/d1': '178230f08d5af7da3f1fd1124f0674d30fc5c19788c46c2d2802eeecbd7244b8',
    'group/Z9/a1': '178230f08d5af7da3f1fd1124f0674d30fc5c19788c46c2d2802eeecbd7244b8',
    'total/Z2xZ4/point/d0': '61b74ff551880705641fbb5fecf211461f3bfd31b2c4a7c7f67466570a9e4bda',
    'group/Z2xZ4/a0': '40359cb8e0f908661a231c67545a966529ac94032dc15e1b72ef2d9923645d03',
    'total/Z2xZ4/point/d1': '1d5bdc5bd4f73e5cebcdf2b67342219928c9e6046dc96d345aa529885bca1e65',
    'group/Z2xZ4/a1': '1d5bdc5bd4f73e5cebcdf2b67342219928c9e6046dc96d345aa529885bca1e65',
    'cech/Z6/circle/t[1, 0, 0]/a0/d0': 'c3c92c5c6ffa1638cf5d6e8120bf2fa14546bf238bf491821df7f8dd77935cb5',
    'cech/Z6/circle/t[1, 0, 0]/a0/d1': 'a4ec9dcd84a7525e0201b6548cdb092df04ef894e6bc3b900ca6f8eaba978da2',
    'cech/Z6/circle/t[1, 0, 0]/a0/d2': '9d37e282dff85f7c8fffc4daf3461561337a4a9da281111f2dbf927b7a99db77',
    'total/Z8/sphere/d0': 'd97a89a8a4f722f068d880ef2b9ad09385a4452cb2819451d51b69d0c3bef948',
    'cech/Z8/sphere/a0/d0': 'f328b441a10c127967c39b85fb1c61c9c909398d07e6d9bd1840f69c2d64acb4',
    'cech/Z8/sphere/a0/d1': '836b51d7c7d483e9abbe9cf17f0c74381e42d809a402f427131da30b22d74488',
    'cech/Z8/sphere/a0/d2': '1c641cc6ff8522459adadd1a140177c798b1cd98dd7c87fb88f1753e669c60a5',
    'cech/Z4/five/a1/d0': '81c5b4c95bd8bedecae9f311db727de6a9705159955fb01b40df568e085a4f3e',
    'cech/Z4/five/a1/d1': '53efe9c146c31d550699fca2abd63f137563160f0a7c1270841265bedd5d1597',
    'cech/Z4/five/a1/d2': 'd28e1688806156211fa896ac0f1f6e5035d8d6ed028a1303a782beaf56222dd9',
    'cech/Z2xZ2/five/a1/d0': '1ce8fa7a6da4d8775d82eb0d4299301d35a5d066c925c4a7f8d006572dce553d',
    'cech/Z2xZ2/five/a1/d1': '0937b49075844561c8237056f3f96b341998150a8912d1f5a2ec333108a4d6b7',
    'cech/Z2xZ2/five/a1/d2': 'd28e1688806156211fa896ac0f1f6e5035d8d6ed028a1303a782beaf56222dd9',
    'total/Z9/circle/d0': 'f11dac5ea3b89881914ea348e61b0ec0221c1702ce09c1b662f6bc0acc59e8f4',
    'cech/Z9/circle/a1/d0': '371c595aeb76aca9030499361ba65ce8d9bdd89d0d6620a7138e20e6d90abbed',
    'cech/Z9/circle/a1/d1': '4bb7625c1450468f629c009cec857fedfb3e10bb77f305ac85258b561249fdba',
    'cech/Z9/circle/a1/d2': '9d37e282dff85f7c8fffc4daf3461561337a4a9da281111f2dbf927b7a99db77',
    'total/Z4/sphere/t[1, 0, 1, 1]/d0': 'fb060a2ae1ff66b0ce1fbb7f886754c071a930edb97470ab4eb4d1270d543b4e',
    'cech/Z4/sphere/t[1, 0, 1, 1]/a1/d0': '59a7108b38a805491bf55f0ebf2df809c18c24965d52caec8869a94ed673b4a5',
    'total/Z4/sphere/t[1, 0, 1, 1]/d1': '872d419149982cb67e5081893ce9411dc295cea479eae3858fb41eddf8345ec4',
    'cech/Z4/sphere/t[1, 0, 1, 1]/a1/d1': '97e0472dd62910413f04f4ddcb58eded018219f487a173f17d4f5ba9cb38ab34',
    'cech/Z4/sphere/t[1, 0, 1, 1]/a1/d2': 'a8200e5a980d73776ac23e9578091b129121519e43fd5356f9c8f7c6ce153d0f',
}


def test_ladder_matrix_digests(monkeypatch):
    monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
    built = ladder_matrices()
    assert sorted(built) == sorted(DIGESTS)
    for key, build in built.items():
        A = build()
        assert A.dtype == np.int64, key
        assert digest(A) == DIGESTS[key], key


def ladder_ops(seed, cycle):
    """(rung key, call) per ladder rung, in the workload's order and with its inputs.

    As the cohomology_ladder workload: the order is a permutation drawn from
    (seed, cycle, 1); each rung then draws a degree-ps cochain x0 from
    (seed, cycle, 4), ps being the largest degree <= p whose solve matrix
    fits the cap; the call returns the rung's cohomology and the
    certificate x solving d_tot(x) = d_tot(x0).
    """
    order = np.random.default_rng([seed, cycle, 1]).permutation(LADDER_RUNGS)
    rng = np.random.default_rng([seed, cycle, 4])
    ops = []
    for kind, gname, nname, p, arity, labels in (RUNGS[i] for i in order):
        G, q, m = build_group(gname)
        nerve = Nerve(*NERVES[nname])
        ps = p
        while ps > 0 and max(total_dimension(nerve, G, q, m, d)
                             for d in (ps, ps + 1)) > DEFAULT_MAX_DIM:
            ps -= 1
        x0 = rng.integers(0, m, size=total_dimension(nerve, G, q, m, ps))
        key = f"{kind}/{gname}/{nname}/p{p}" + ("" if arity is None else f"/a{arity}")
        key += "" if labels is None else "/twisted"

        def call(kind=kind, G=G, q=q, m=m, nerve=nerve, p=p, ps=ps, arity=arity,
                 labels=labels, x0=x0):
            g = build_twist(nerve, q, labels or [0] * len(nerve.edges))
            if kind == "total":
                factors, reps = total_cohomology(nerve, G, q, m, g, p)
            elif kind == "group":
                factors, reps = group_cohomology(G, q, m, p)
            else:
                module = GroupCochainSpace(G, q, m, arity).as_gmodule()
                factors, reps = cohomology(nerve, module, g, p)
            target = total_differential(TotalCochain.from_flat(nerve, G, q, m, ps, x0), g)
            return factors, reps, solve_total_coboundary(nerve, G, q, m, g, target)
        ops.append((key, call))
    return ops


def ladder_output_digests():
    """SHA-256 per rung of its factors, reps and certificate, over every op."""
    hashes = {}
    for seed in (7, 11):
        for cycle in range(2):
            for key, call in ladder_ops(seed, cycle):
                factors, reps, x = call()
                h = hashes.setdefault(key, hashlib.sha256())
                h.update(repr(factors).encode())
                for rep in reps:
                    h.update(np.ascontiguousarray(rep.flatten(), dtype=np.int64).tobytes())
                h.update(b"None" if x is None else
                         np.ascontiguousarray(x.flatten(), dtype=np.int64).tobytes())
    return {key: h.hexdigest() for key, h in hashes.items()}


OUTPUT_DIGESTS = {
    'cech/Z2xZ2/five/p1/a1': '63b9dae67f46dd611e314f5f6c9a5081cd51071077b40b94f56ecf047d14abae',
    'cech/Z4/five/p1/a1': '3de0a4d43646926d94a82b6cba97a8f44db7d5c61377f2f99cc924b5b29851c6',
    'cech/Z6/circle/p1/a0/twisted': '912c80e846ff98d4ab38ffbce445f987c76e618a60ffe05e0f6fb622174b47fb',
    'cech/Z8/sphere/p1/a0': '0ac7b4a75943591a77618586107c5dc1723a8eb569dd4bc839d197ec6ccf158d',
    'group/Z2xZ4/point/p1': '080c5a2b59a74cf6e949c072bc6988e2da0dc439c4b022420d516ee36e152432',
    'group/Z4/point/p2': 'da74cabdca701357e2fbe88de971be7941bae9495eb3aab66f0c1f1a938c1a8f',
    'group/Z4/point/p3': 'b411ba80caafe7e1ccc5bb9c57dbcc27ae681d012d28c8f315902af68ac0fa6a',
    'group/Z6/point/p1': '46d217ecd271e58f3c5c6f897615bf652d8498e7b54433eda48988b74266001b',
    'group/Z8/point/p1': 'fd5293c9295db8a7f388edeffa56ed91d8c5eef156b4fd76bf16143e0b09ee60',
    'group/Z9/point/p1': 'eff25b4003a51ccbf494e9415f150b97a1501269e32df9d4a6142500377011b8',
    'total/Z2xZ2/five/p1': 'f8486a5d4ebca663bcce180b9b37ca8c44ce8ec081474b8fdc070d7e494a88c0',
    'total/Z4/circle/p0': 'c8be5e632051cb34eaf1607f5658c29ca75ca2de8dfe40b7ebb261ee20034f63',
    'total/Z4/circle/p1': '772692181e7adc47c6964db61b4346e7d41e028ec23aa996fca70d0ba51d1e2e',
    'total/Z4/circle/p2': 'b0ba7fccbb5f0452b5830e626d9a10fb6199306f96a4ef7b804620af0b1f6af0',
    'total/Z4/five/p1': '7dfeac39e66f4090104afbef10a831bdadb5940a4e5508894d166b6dc27b9d32',
    'total/Z4/sphere/p1': '510ed792b4fd0e6f6fdeca1045ba8b9ea10e0ab5fbee4684c4e675db666d6073',
    'total/Z6/circle/p1': '35e2edfef9a7754c1ee31eed8214348024ffc8da59e77425153fe7091034fa9b',
    'total/Z6/circle/p1/twisted': '79eb385b472292c896b71c0a3447c133f18fbcf1e399ef1eba1344a4911f0e92',
'cech/Z9/circle/p1/a1': '2864bc88a3935e1223116194fa4322e5717cac9d0d599e5b99d0e00f25e6ebed',
}


def test_ladder_output_digests(monkeypatch):
    monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
    assert ladder_output_digests() == OUTPUT_DIGESTS


if __name__ == "__main__":
    for key, build in ladder_matrices().items():
        print(f"    {key!r}: {digest(build())!r},")
    print()
    for key, value in sorted(ladder_output_digests().items()):
        print(f"    {key!r}: {value!r},")
