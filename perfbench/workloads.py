"""The three workloads: seeded inputs, one timed call per op, and the oracle.

Every workload is a fixed list of op kinds ("rungs").  A cycle runs each
rung once, in an order drawn from the workload seed; runs end on a cycle
boundary, so every run times the same mix of ops.  Inputs are plain data
(factors, nerve names, integer arrays, run seeds); each op builds its own
tdual objects inside the timed call, so no tdual state is shared between
ops.  Checks run after the timed call and never count toward its time.
"""

from __future__ import annotations

import hashlib
import json
import os
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from hostspeed import Sampler
from tdual import cech, cli, groupcoh, triples
from tdual.errors import max_matrix_dim
from tdual.lca import FiniteLcaGroup, QuotientGroup, Subgroup

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

# (invariant factors, generators of N)
GROUPS = {
    "Z4": ([4], [[2]]),
    "Z6": ([6], [[3]]),
    "Z8": ([8], [[4]]),
    "Z9": ([9], [[3]]),
    "Z12": ([12], [[4]]),
    "Z2xZ2": ([2, 2], [[1, 1]]),
    "Z2xZ4": ([2, 4], [[1, 2]]),
}

NERVES = {
    "point": (1, []),
    "circle": (3, [[0, 1], [0, 2], [1, 2]]),
    "sphere": (4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    # the 5-vertex nerve of acceptance criterion 1
    "five": (5, [[0, 1, 2], [0, 2, 3], [0, 3, 4], [1, 2, 4], [2, 3, 4]]),
}


def build_group(name: str):
    factors, gens = GROUPS[name]
    G = FiniteLcaGroup(factors)
    q = QuotientGroup(G, Subgroup(G, [G.element(c) for c in gens]))
    return G, q, G.exponent


def build_nerve(name: str) -> cech.Nerve:
    return cech.Nerve(*NERVES[name])


def group_orders(name: str) -> tuple[int, int, int]:
    """(|G|, |G/N|, modulus) of a named group."""
    G, q, m = build_group(name)
    return G.order, q.order, m


def total_dim(group: str, nerve: str, p: int) -> int:
    G, q, m = build_group(group)
    return groupcoh.total_dimension(build_nerve(nerve), G, q, m, p)


def build_twist(nerve: cech.Nerve, q: QuotientGroup, labels: list[int]):
    """Circle labels are arbitrary edge values; elsewhere a vertex coboundary."""
    reps = q.reps()
    if len(labels) == len(nerve.edges) and nerve.simplices(2) == ():
        return cech.TwistCocycle(nerve, q, {e: reps[i] for e, i in zip(nerve.edges, labels)})
    return cech.TwistCocycle.coboundary(
        nerve, q, {v[0]: reps[i] for v, i in zip(nerve.vertices, labels)})


def digest(values: np.ndarray) -> str:
    flat = np.ascontiguousarray(np.asarray(values, dtype=np.int64).reshape(-1))
    return hashlib.sha256(flat.tobytes()).hexdigest()[:8]


@dataclass
class Outcome:
    """The oracle's verdict on one op."""

    ok: bool
    known_defect: bool = False
    golden: bool = False        # a recorded golden was compared
    problems: list = field(default_factory=list)


@dataclass
class Op:
    key: str                     # rung name, stable across seeds
    call: Callable[[], object]   # the timed region
    check: Callable[[object], Outcome]


class Workload:
    """Fixed rungs plus per-cycle inputs; subclasses define both."""

    name = ""
    # cycles per timed run; None fills --seconds instead
    cycles = None

    def __init__(self, seed: int, workdir: str, goldens: dict):
        self.seed = seed
        self.workdir = workdir
        self.goldens = goldens.get(self.name, {})
        self.rungs = self.make_rungs()

    def make_rungs(self) -> list:
        raise NotImplementedError

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def order(self, c: int) -> list:
        rng = np.random.default_rng([self.seed, c, 1])
        return [self.rungs[i] for i in rng.permutation(len(self.rungs))]

    def golden_note(self) -> str:
        return "goldens: recorded for every rung"


def run_cycles(wl: Workload, budget: float, cycles=None,
               tracer=None, between=None) -> tuple[Sampler, list]:
    """Closed loop over whole cycles: a fixed count of them or, with cycles
    None, until another cycle would overrun budget.

    budget counts timed seconds only.  between(), if given, runs after each
    op's check.  Returns the Sampler holding the op times and, per op,
    (rung key, Outcome).  An op that raises is a failed op.
    """
    times, outcomes = Sampler(), []
    c = 0
    try:
        while True:
            for op in wl.cycle(c):
                if tracer is not None:
                    tracer.begin_op(len(times.raw))
                times.start()
                try:
                    result, error = op.call(), None
                except Exception:
                    result, error = None, traceback.format_exc(limit=3)
                times.stop()
                if tracer is not None:
                    tracer.end_op()
                if error is None:
                    try:
                        outcome = op.check(result)
                    except Exception:
                        outcome = Outcome(False, problems=[traceback.format_exc(limit=3)])
                else:
                    outcome = Outcome(False, problems=[error])
                outcomes.append((op.key, outcome))
                if between is not None:
                    between()
            c += 1
            spent = sum(times.raw)
            if c == cycles or (cycles is None and spent + spent / c > budget):
                return times, outcomes
    finally:
        times.close()


# ---------------------------------------------------------------------------
# scenario_all: `tdual run` end to end

CIRCLE = {"vertices": 3, "simplices": [[0, 1], [0, 2], [1, 2]]}
SPHERE = {"vertices": 4, "simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}

# name -> (scenario or bundled name, expected exit code, checks hit by a known defect)
SCENARIOS = {
    "z6_circle": ("z6_circle", 0, ()),
    "z6_circle_d4": ({"groups": {"factors": [6], "N": [[3]]}, "nerve": CIRCLE,
                      "twist": {"0,1": [1], "0,2": [2], "1,2": [1]},
                      "fiber_dim": 4, "command": "all"}, 0, ()),
    "z2xz2_sphere_d2": ({"groups": {"factors": [2, 2], "N": [[1, 1]]}, "nerve": SPHERE,
                         "fiber_dim": 2, "command": "all"}, 0, ()),
    "z4_sphere_d1": ({"groups": {"factors": [4], "N": [[2]]}, "nerve": SPHERE,
                      "fiber_dim": 1, "command": "all"}, 0, ()),
    # crossed.section_family ignores the twist's holonomy: false glue FAILs
    "z6_circle_twist_d1": ({"groups": {"factors": [6], "N": [[3]]}, "nerve": CIRCLE,
                            "twist": {"0,1": [1]}, "fiber_dim": 1, "command": "all"},
                           0, ("glue.section_family", "glue.section_transition")),
    # over the matrix cap: the correct outcome is a refusal, exit 3
    "z8_circle_overcap_d2": ({"groups": {"factors": [8], "N": [[4]]}, "nerve": CIRCLE,
                              "fiber_dim": 2, "command": "all"}, 3, ()),
}

CERTIFICATE_CHECKS = ("involution.class_certificate",
                      "dualize.exterior_class_certificate")


def report_projection(report: dict, defect_checks: tuple) -> dict:
    """The seed-independent part of a report: what goldens pin."""
    checks = []
    for r in report["checks"]:
        item = {"name": r["name"]}
        if r["name"] not in defect_checks:
            item["passed"] = r["passed"]
        for key in ("factors", "capped_degrees", "edges"):
            if key in r:
                item[key] = r[key]
        checks.append(item)
    out = {"command": report["command"], "derived": report["derived"], "checks": checks}
    if not defect_checks:
        out["all_passed"] = report["all_passed"]
    return out


def cochain_from_json(data: dict, nerve, G, q) -> groupcoh.TotalCochain:
    m = data["modulus"]
    t = groupcoh.TotalCochain(nerve, G, q, m, data["degree"])
    for kl, entries in data["blocks"].items():
        blk = t.blocks[tuple(int(x) for x in kl.split(","))]
        for skey, vals in entries.items():
            s = tuple(int(x) for x in skey.split(","))
            blk.values[s] = np.array(
                [int(Fraction(v) * m) % m for v in vals], dtype=np.int64)
    return t


def certificate_targets(scenario: dict, seed: int) -> tuple:
    """Recompute what each certificate must map to under d_tot.

    Follows the recipes of the involution and dualize checks: the double
    dual's cocycle minus the original, and a relifted exterior
    perturbation's cocycle minus the original.
    """
    ws = cli.Workspace(scenario, seed=seed)
    tn, cn = ws.normalized(), ws.cocycle()
    c_dd = triples.extract_total_cocycle(triples.dualize(ws.dual(), ws.dual_cocycle()))
    tp = triples.exterior_perturbation(tn, seed + 7)
    cp = triples.extract_total_cocycle(triples.relift(tp, seed + 8))
    base = cn.to_total_cochain()
    targets = {
        "involution.class_certificate": c_dd.to_total_cochain() - base,
        "dualize.exterior_class_certificate": cp.to_total_cochain() - base,
    }
    return ws, targets


class ScenarioAll(Workload):
    name = "scenario_all"
    # Always 12 ops: at least 11, so op_s.tail exists, and a fixed count, so
    # op_s.tail is the same rank (the second-fastest op) however fast ops run.
    cycles = 2

    def make_rungs(self):
        paths = {}
        for key, (sc, _, _) in SCENARIOS.items():
            if isinstance(sc, str):
                paths[key] = sc
            else:
                path = os.path.join(self.workdir, key + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(sc, fh)
                paths[key] = path
        self.paths = paths
        return list(SCENARIOS)

    def cycle(self, c):
        keys = self.order(c)
        seeds = np.random.default_rng([self.seed, c, 2]).integers(0, 2**31, len(keys))
        return [self._op(k, int(s), c, i) for i, (k, s) in enumerate(zip(keys, seeds))]

    def _op(self, key, run_seed, c, i):
        out = os.path.join(self.workdir, f"report-{c}-{i}.json")
        argv = ["run", self.paths[key], "--seed", str(run_seed), "-o", out]

        def call():
            return cli.main(argv)

        def check(rc):
            return self._check(key, run_seed, rc, out)
        return Op(key, call, check)

    def _check(self, key, run_seed, rc, out) -> Outcome:
        _, expected_rc, defect_checks = SCENARIOS[key]
        gold = self.goldens.get(key)
        problems = []
        if expected_rc == 3:
            ok = rc == 3 and not os.path.exists(out)
            return Outcome(ok, problems=[] if ok else [f"exit {rc}, want 3"])
        if not os.path.exists(out):
            return Outcome(False, problems=[f"exit {rc} and no report"])
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        os.unlink(out)
        failing = sorted(r["name"] for r in report["checks"] if not r["passed"])
        if report["seed"] != run_seed:
            problems.append("report seed differs from the requested seed")
        if gold is not None:
            proj = report_projection(report, defect_checks)
            if proj != gold["projection"]:
                problems.append("canonical output differs from the golden: "
                                + ", ".join(_diff_keys(proj, gold["projection"])))
        problems += self._recheck_certificates(key, run_seed, report)
        known = bool(failing) and set(failing) <= set(defect_checks) and rc == 1
        if failing and not known:
            problems.append(f"failing checks {failing}")
        if rc != (1 if failing else 0):
            problems.append(f"exit {rc} does not match the report")
        ok = not problems and rc == expected_rc
        return Outcome(ok, known_defect=known and not problems,
                       golden=gold is not None, problems=problems)

    def _recheck_certificates(self, key, run_seed, report) -> list:
        certs = {r["name"]: r.get("certificate") for r in report["checks"]
                 if r["name"] in CERTIFICATE_CHECKS}
        if not certs:
            return ["no certificate in the report"]
        scenario = cli.load_scenario(self.paths[key])
        ws, targets = certificate_targets(scenario, run_seed)
        problems = []
        for name, cert in certs.items():
            if cert is None:
                problems.append(f"{name}: no certificate")
                continue
            x = cochain_from_json(cert, ws.nerve, ws.ctx.G, ws.ctx.quotient)
            back = groupcoh.total_differential(x, ws.normalized().g)
            if not (back - targets[name]).is_zero():
                problems.append(f"{name}: d_tot(certificate) != target")
        return problems


def _diff_keys(a: dict, b: dict) -> list:
    keys = sorted(set(a) | set(b))
    diff = [k for k in keys if a.get(k) != b.get(k)]
    if "checks" in diff:
        na = {c["name"]: c for c in a.get("checks", [])}
        nb = {c["name"]: c for c in b.get("checks", [])}
        diff += [n for n in sorted(set(na) | set(nb)) if na.get(n) != nb.get(n)]
    return diff


# ---------------------------------------------------------------------------
# complex_laws: apply one differential twice, no Smith form, no floats

def complex_rungs() -> list[dict]:
    """d_group on tables up to ~7000 entries, delta_g, and the total differential.

    Sizes are bounded by the output of the second application: |G|^(l+2)*q
    for d_group, and the summed group-direction tables for d_tot.
    """
    cap = 7000
    rungs = []
    for gname in GROUPS:
        n, q, _ = group_orders(gname)
        for l0 in range(3):
            if n ** (l0 + 2) * q <= cap:
                rungs.append({"kind": "d_group", "group": gname, "arity": l0})
    for gi, gname in enumerate(GROUPS):
        for nname in ("circle", "sphere", "five"):
            rungs.append({"kind": "delta_g", "group": gname, "nerve": nname,
                          "module_arity": gi % 2, "degree": 0})
    counts = {k: _simplex_counts(k) for k in NERVES}
    for gname in GROUPS:
        n, q, _ = group_orders(gname)
        for nname in NERVES:
            best = None
            for p in range(3):
                cost = sum(_dtot_cells(counts[nname], n, q, d) for d in (p, p + 1))
                if cost <= cap:
                    best = p
            if best is not None:
                rungs.append({"kind": "total_differential", "group": gname,
                              "nerve": nname, "degree": best})
    for r in rungs:
        r["key"] = "/".join(str(r[k]) for k in
                            ("kind", "group", "nerve", "arity", "module_arity", "degree")
                            if k in r)
    return rungs


def _simplex_counts(nerve_name: str) -> list[int]:
    nerve = build_nerve(nerve_name)
    return [len(nerve.simplices(k)) for k in range(nerve.dimension + 1)]


def _dtot_cells(counts, n, q, p) -> int:
    """Group-direction output cells of d_tot on a degree-p cochain."""
    cells = 0
    for k in range(min(p, len(counts) - 1) + 1):
        l = p - k
        if l + 1 <= groupcoh.MAX_TOTAL_ARITY:
            cells += counts[k] * n ** (l + 1) * q
    return cells


class ComplexLaws(Workload):
    name = "complex_laws"

    def make_rungs(self):
        self.counts = {k: _simplex_counts(k) for k in NERVES}
        rungs = complex_rungs()
        # one input per rung and seed, reused by every cycle
        rng = np.random.default_rng([self.seed, 0, 3])
        self.inputs = {}
        for r in rungs:
            n, q, m = group_orders(r["group"])
            if r["kind"] == "d_group":
                size = n ** r["arity"] * q
                twist = None
            elif r["kind"] == "delta_g":
                size = self.counts[r["nerve"]][0] * n ** r["module_arity"] * q
                twist = self._twist_labels(rng, r["nerve"], q)
            else:
                size = total_dim(r["group"], r["nerve"], r["degree"])
                twist = self._twist_labels(rng, r["nerve"], q)
            self.inputs[r["key"]] = (rng.integers(0, m, size=size), twist)
        seed_gold = self.goldens.get("digests", {}).get(str(self.seed))
        self.rung_digests = None
        if seed_gold is not None and self.goldens.get("rungs") == [r["key"] for r in rungs]:
            self.rung_digests = dict(zip(self.goldens["rungs"], seed_gold.split()))
        return rungs

    def _twist_labels(self, rng, nerve_name, q):
        counts = self.counts[nerve_name]
        if nerve_name == "circle":
            return [int(x) for x in rng.integers(0, q, size=counts[1])]
        return [int(x) for x in rng.integers(0, q, size=counts[0])]

    def golden_note(self):
        if self.rung_digests is None:
            return (f"goldens: none recorded for seed {self.seed}; "
                    "checking d(d(f)) = 0 only")
        return "goldens: d(f) digests recorded for this seed"

    def cycle(self, c):
        return [self._op(r) for r in self.order(c)]

    def _op(self, rung):
        values, twist = self.inputs[rung["key"]]
        kind = rung["kind"]

        def call():
            G, q, m = build_group(rung["group"])
            if kind == "d_group":
                sp = groupcoh.GroupCochainSpace(G, q, m, rung["arity"])
                f = groupcoh.GroupCochain(sp, values.reshape(sp.shape()))
                once = groupcoh.d_group(f)
                return once.values, groupcoh.d_group(once).is_zero()
            nerve = build_nerve(rung["nerve"])
            g = build_twist(nerve, q, twist)
            if kind == "delta_g":
                module = groupcoh.GroupCochainSpace(G, q, m, rung["module_arity"]).as_gmodule()
                f = cech.TwistedCochain.from_flat(nerve, module, rung["degree"], values)
                once = cech.delta_g(f, g)
                return once.flatten(), cech.delta_g(once, g).is_zero()
            t = groupcoh.TotalCochain.from_flat(nerve, G, q, m, rung["degree"], values)
            once = groupcoh.total_differential(t, g)
            return once.flatten(), groupcoh.total_differential(once, g).is_zero()

        def check(result):
            once, d2_zero = result
            problems = [] if d2_zero else ["d(d(f)) != 0"]
            golden = self.rung_digests is not None
            if golden and digest(once) != self.rung_digests[rung["key"]]:
                problems.append("d(f) differs from the golden digest")
            return Outcome(not problems, golden=golden, problems=problems)
        return Op(rung["key"], call, check)


# ---------------------------------------------------------------------------
# cohomology_ladder: kernels, quotients and the certificate solver over Z/m

# (kind, group, nerve, degree, module arity for cech, circle twist labels)
# Besides the two rungs at the cap, seven rungs of 0.4-0.9 s (on the
# recording machine) keep the eleventh-slowest op of a run inside that
# group whether a run fits three, four or five cycles, so op_s.tail stays on
# comparable ops.
LADDER = [
    ("total", "Z4", "circle", 0, None, None),
    ("total", "Z4", "circle", 1, None, None),
    ("total", "Z4", "circle", 2, None, None),      # 480 x 120 matrix
    ("total", "Z4", "sphere", 1, None, None),
    ("total", "Z6", "circle", 1, None, [1, 0, 0]),
    ("total", "Z4", "five", 1, None, None),
    ("total", "Z2xZ2", "five", 1, None, None),
    ("total", "Z6", "circle", 1, None, None),
    ("group", "Z4", "point", 3, None, None),       # 512 x 128 matrix
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
]


class CohomologyLadder(Workload):
    name = "cohomology_ladder"
    # Always 57 ops, so op_s.tail is always rank 11 from the top: the fifth
    # slowest of the 0.4-0.9 s group below the cap rungs.
    cycles = 3

    def make_rungs(self):
        rungs = []
        for kind, gname, nname, p, arity, labels in LADDER:
            key = f"{kind}/{gname}/{nname}/p{p}" + ("" if arity is None else f"/a{arity}")
            if labels is not None:
                key += "/twisted"
            rungs.append({"kind": kind, "group": gname, "nerve": nname, "degree": p,
                          "module_arity": arity, "twist": labels, "key": key})
        cap = max_matrix_dim()
        for r in rungs:
            # the solver's matrix maps degree ps to ps+1; keep it under the cap
            ps = r["degree"]
            while ps > 0 and max(total_dim(r["group"], r["nerve"], d)
                                 for d in (ps, ps + 1)) > cap:
                ps -= 1
            r["solve_degree"] = ps
            r["x0_size"] = total_dim(r["group"], r["nerve"], ps)
            r["modulus"] = group_orders(r["group"])[2]
        return rungs

    def cycle(self, c):
        rng = np.random.default_rng([self.seed, c, 4])
        ops = []
        for r in self.order(c):
            ops.append(self._op(r, rng.integers(0, r["modulus"], size=r["x0_size"])))
        return ops

    def _op(self, rung, x0_flat):
        kind, p, ps = rung["kind"], rung["degree"], rung["solve_degree"]

        def setting():
            G, q, m = build_group(rung["group"])
            nerve = build_nerve(rung["nerve"])
            labels = rung["twist"] or [0] * len(nerve.edges)
            return G, q, m, nerve, build_twist(nerve, q, labels)

        def call():
            G, q, m, nerve, g = setting()
            if kind == "total":
                factors, reps = groupcoh.total_cohomology(nerve, G, q, m, g, p)
            elif kind == "group":
                factors, reps = groupcoh.group_cohomology(G, q, m, p)
            else:
                module = groupcoh.GroupCochainSpace(G, q, m, rung["module_arity"]).as_gmodule()
                factors, reps = cech.cohomology(nerve, module, g, p)
            x0 = groupcoh.TotalCochain.from_flat(nerve, G, q, m, ps, x0_flat)
            target = groupcoh.total_differential(x0, g)
            x = groupcoh.solve_total_coboundary(nerve, G, q, m, g, target)
            return factors, reps, target, x

        def check(result):
            factors, reps, target, x = result
            problems = []
            gold = self.goldens.get(rung["key"])
            if gold is not None and factors != gold:
                problems.append(f"factors {factors} != golden {gold}")
            if len(reps) != len(factors):
                problems.append("representative count differs from factor count")
            _, _, _, nerve, g = setting()
            for rep in reps:
                if kind == "total":
                    closed = groupcoh.total_differential(rep, g).is_zero()
                elif kind == "group":
                    closed = groupcoh.d_group(rep).is_zero()
                else:
                    closed = cech.delta_g(rep, g).is_zero()
                if not closed:
                    problems.append("a representative is not a cocycle")
                    break
            if x is None:
                problems.append("no certificate for a coboundary target")
            elif not (groupcoh.total_differential(x, g) - target).is_zero():
                problems.append("d_tot(x) != target")
            return Outcome(not problems, golden=gold is not None, problems=problems)
        return Op(rung["key"], call, check)


WORKLOADS = {w.name: w for w in (ScenarioAll, ComplexLaws, CohomologyLadder)}


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)
