"""Scenario runner: declarative JSON in, verification report out.

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed scenario,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
import time
from importlib import resources
from typing import Callable, Optional

import numpy as np

from . import cech, crossed, groupcoh, lca, serialize, triples
from .errors import InvalidTripleError, ResourceCapError, check_dim, max_matrix_dim


class ScenarioError(ValueError):
    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


def _schema():
    with resources.files("tdual").joinpath("scenario_schema.json").open() as fh:
        return json.load(fh)


def load_scenario(path: str) -> dict:
    """Parse and validate a scenario file; bare names resolve to bundled ones."""
    if os.sep not in path and not os.path.exists(path):
        bundled = resources.files("tdual").joinpath(
            "scenarios", path if path.endswith(".json") else path + ".json")
        if bundled.is_file():
            raw = bundled.read_text()
        else:
            raise ScenarioError(f"no such scenario file or bundled name: {path}")
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ScenarioError(str(exc)) from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc

    import jsonschema
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(data), key=lambda e: e.json_path)
    if errors:
        e = errors[0]
        raise ScenarioError(e.message, e.json_path)

    factors = data["groups"]["factors"]
    if math.prod(factors) > lca.MAX_GROUP_ORDER:
        raise ResourceCapError(f"$.groups.factors: group order {math.prod(factors)} "
                               f"exceeds cap {lca.MAX_GROUP_ORDER}")
    for i, gen in enumerate(data["groups"]["N"]):
        if len(gen) != len(factors):
            raise ScenarioError(
                f"generator has {len(gen)} coordinates, group has {len(factors)}",
                f"$.groups.N[{i}]")
    nverts = data["nerve"]["vertices"]
    edges = set()
    for i, s in enumerate(data["nerve"]["simplices"]):
        if any(v >= nverts for v in s):
            raise ScenarioError("vertex index out of range", f"$.nerve.simplices[{i}]")
        edges.update(itertools.combinations(sorted(set(s)), 2))
    for key, coords in data.get("twist", {}).items():
        a, b = sorted(int(x) for x in key.split(","))
        if key != f"{a},{b}" or (a, b) not in edges:
            raise ScenarioError("twist key must name an edge of the nerve as 'a,b' "
                                "with a < b", f"$.twist['{key}']")
        if len(coords) != len(factors):
            raise ScenarioError("twist value has wrong coordinate count",
                                f"$.twist['{key}']")
    if "modulus" in data:
        exponent = math.lcm(*factors)
        if data["modulus"] % exponent != 0:
            raise ScenarioError(
                f"modulus must be a multiple of the group exponent {exponent}",
                "$.modulus")
        # Z/m matrix products sum up to max_matrix_dim() terms below (m-1)^2
        # in int64; a larger modulus would overflow them silently
        cap = max_matrix_dim()
        if (data["modulus"] - 1) ** 2 * cap >= 2 ** 63:
            raise ScenarioError(
                f"modulus too large for exact int64 algebra at matrix cap {cap}: "
                f"need (modulus-1)^2 * {cap} < 2^63",
                "$.modulus")
    return data


class Workspace:
    """Derived objects for one scenario, built lazily and shared by checks.

    Each pipeline stage is built once, from the stages before it:
    fixture -> fixture_cocycle -> normalized -> cocycle -> dual -> dual_cocycle
    -> dual_laws, then double_dual -> double_dual_cocycle, and exterior ->
    exterior_cocycle.  The scenario factors and both class certificates
    read groupcoh.total_complex(fixture().g, m), the total complex twisted
    by the fixture's twist g; g keeps its matrices and Smith forms, so
    they share one factorisation of total_matrix(1).
    """

    def __init__(self, scenario: dict, seed: Optional[int] = None,
                 tolerance_scale: float = 1.0):
        self.scenario = scenario
        self.seed = seed if seed is not None else scenario.get("seed", 0)
        self.d = scenario.get("fiber_dim", 1)
        self.trials = scenario.get("trials", 10)
        self.ctx = serialize.context_from_json(
            {**scenario["groups"], "modulus": scenario.get("modulus")})
        self.nerve = cech.Nerve(scenario["nerve"]["vertices"],
                                scenario["nerve"]["simplices"])
        # an edge the scenario does not key carries the zero coset
        zero = [0] * len(self.ctx.G.factors)
        tw = {**{f"{a},{b}": zero for a, b in self.nerve.edges}, **scenario.get("twist", {})}
        try:
            self.twist = serialize.twist_from_json(self.nerve, self.ctx.quotient, tw)
        except ValueError as exc:
            raise ScenarioError(str(exc), "$.twist") from exc
        tols = scenario.get("tolerances", {})
        self.tau_s = tols.get("snap", triples.TAU_S) * tolerance_scale
        # adjacent m-th roots of unity are 2 sin(pi/m) apart: a snap window
        # that wide can hold two of them and certifies no phase
        half_chord = math.sin(math.pi / self.ctx.m)
        if self.tau_s >= half_chord:
            raise ScenarioError(
                f"snap tolerance {self.tau_s:g} (after --tolerance-scale) must be "
                f"below sin(pi/m) = {half_chord:.3g}, half the chord between "
                f"adjacent roots of unity of order m = {self.ctx.m}",
                "$.tolerances.snap")
        self.tau_u = tols.get("operator", triples.TAU_U) * tolerance_scale
        self.tau_pipe = tols.get("pipeline", 1e-8) * tolerance_scale
        self._cache: dict = {}

    def _get(self, key: str, builder: Callable):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def fixture(self) -> triples.TripleLocalData:
        def build():
            t = triples.build_random_triple(
                self.nerve, self.ctx, self.d, self.seed, twist=self.twist)
            t.tau_s, t.tau_u = self.tau_s, self.tau_u
            return t
        return self._get("fixture", build)

    def fixture_cocycle(self) -> triples.TotalTwoCocycle:
        return self._get("fixture_cocycle",
                         lambda: triples.extract_total_cocycle(self.fixture()))

    def normalized(self) -> triples.TripleLocalData:
        return self._get("normalized", lambda: triples.make_dualisable(
            self.fixture(), self.fixture_cocycle()))

    def cocycle(self) -> triples.TotalTwoCocycle:
        return self._get("cocycle",
                         lambda: triples.extract_total_cocycle(self.normalized()))

    def dual(self) -> triples.TripleLocalData:
        return self._get("dual",
                         lambda: triples.dualize(self.normalized(), self.cocycle()))

    def dual_cocycle(self) -> triples.TotalTwoCocycle:
        return self._get("dual_cocycle",
                         lambda: triples.extract_total_cocycle(self.dual()))

    def dual_laws(self) -> dict:
        return self._get("dual_laws", lambda: triples.dual_law_report(
            self.normalized(), self.dual(), self.dual_cocycle()))

    def double_dual(self) -> triples.TripleLocalData:
        return self._get("double_dual",
                         lambda: triples.dualize(self.dual(), self.dual_cocycle()))

    def double_dual_cocycle(self) -> triples.TotalTwoCocycle:
        return self._get("double_dual_cocycle",
                         lambda: triples.extract_total_cocycle(self.double_dual()))

    def exterior(self) -> Optional[triples.TripleLocalData]:
        """An exterior perturbation of the normalised triple; None when the
        fixture has no chart gauges to build one from."""
        return self._get("exterior", lambda: None if self.fixture().gauge is None
                         else triples.exterior_perturbation(self.normalized(),
                                                            self.seed + 7))

    def exterior_cocycle(self) -> triples.TotalTwoCocycle:
        return self._get("exterior_cocycle", lambda: triples.extract_total_cocycle(
            triples.relift(self.exterior(), self.seed + 8)))

    def certificates(self) -> dict:
        """Degree-1 total cochains x with d_tot(x) = c' - c, None where none exists.

        c is the normalised cocycle; c' is the double dual's ("involution") and,
        with an exterior perturbation, the relifted perturbation's ("exterior").
        The targets are solved as columns of one Complex.solve against the
        factorisation of total_matrix(1) that the scenario factors use, each
        column on its own.
        """
        def build():
            ctx = self.ctx
            base = self.cocycle().to_total_cochain()
            others = {"involution": self.double_dual_cocycle()}
            if self.exterior() is not None:
                others["exterior"] = self.exterior_cocycle()
            B = np.stack([(c.to_total_cochain() - base).flatten()
                          for c in others.values()], axis=1)
            total = groupcoh.total_complex(self.fixture().g, ctx.m)
            X, ok = total.solve(1, B)
            return {name: total.cochain(1, X[:, j]) if ok[j] else None
                    for j, name in enumerate(others)}
        return self._get("certificates", build)

    def derived_summary(self) -> dict:
        ctx = self.ctx
        q = ctx.quotient.order
        return {
            "group": repr(ctx.G),
            "group_order": ctx.G.order,
            "exponent": ctx.G.exponent,
            "modulus": ctx.m,
            "N_generators": [list(g.coords) for g in ctx.N.generators],
            "N_order": ctx.N.order,
            "quotient_order": q,
            "annihilator_generators": [list(g.coords) for g in ctx.Nperp.generators],
            "annihilator_order": ctx.Nperp.order,
            "dual_quotient_order": ctx.dual_quotient.order,
            "fiber_dim": self.d,
            "dual_fiber_dim": q * self.d,
            "double_dual_fiber_dim": ctx.dual_quotient.order * q * self.d,
            "crossed_rep_dim": ctx.G.order * q * self.d,
            "nerve": {
                "vertices": self.nerve.vertex_count,
                "edges": len(self.nerve.edges),
                "two_simplices": len(self.nerve.simplices(2)),
            },
            "matrix_dim_cap": max_matrix_dim(),
        }


def _result(name: str, residual: float, tolerance: float, **extra) -> dict:
    out = {"name": name, "residual": float(residual), "tolerance": float(tolerance),
           "passed": bool(residual <= tolerance)}
    out.update(extra)
    return out


def _exact(name: str, ok: bool, **extra) -> dict:
    return _result(name, 0.0 if ok else 1.0, 0.0, **extra)


# --------------------------------------------------------------------------
# checks; each takes a Workspace and returns a list of result dicts

def check_cech(ws: Workspace) -> list[dict]:
    out = []
    rng = np.random.default_rng(ws.seed + 101)
    ctx, nerve = ws.ctx, ws.nerve
    mod = cech.GModule.functions_on_quotient(ctx.m, ctx.quotient)
    ok = True
    for deg in range(nerve.dimension + 1):
        c = cech.TwistedCochain(
            nerve, mod, deg,
            {s: rng.integers(0, ctx.m, size=mod.size) for s in nerve.simplices(deg)})
        if not cech.delta_g(cech.delta_g(c, ws.twist), ws.twist).is_zero():
            ok = False
    out.append(_exact("cech.d2_zero", ok))

    # one complex per coefficient module: degree k reuses degree k-1's matrix
    untwisted = cech.cech_complex(nerve, cech.GModule.trivial(ctx.m),
                                  cech.TwistCocycle.trivial(nerve, ctx.quotient))
    factors = {str(k): untwisted.cohomology(k)[0] for k in range(nerve.dimension + 1)}
    out.append(_exact("cech.untwisted_factors", True, factors=factors))

    twisted = cech.cech_complex(nerve, mod, ws.twist)
    tw_factors = {str(k): twisted.cohomology(k)[0] for k in range(min(nerve.dimension, 1) + 1)}
    out.append(_exact("cech.twisted_factors", True, factors=tw_factors))

    r = {v[0]: int(rng.integers(0, ctx.quotient.order)) for v in nerve.vertices}
    rneg = dict(zip(r, ctx.quotient.neg_table()[list(r.values())]))
    gp = cech.r_conjugate_twist(ws.twist, r)
    ok = True
    for deg in range(nerve.dimension):
        c = cech.TwistedCochain(
            nerve, mod, deg,
            {s: rng.integers(0, ctx.m, size=mod.size) for s in nerve.simplices(deg)})
        lhs = cech.delta_g(cech.r_sharp(c, r), ws.twist)
        rhs = cech.r_sharp(cech.delta_g(c, gp), r)
        if not (lhs - rhs).is_zero():
            ok = False
        if not (cech.r_sharp(cech.r_sharp(c, r), rneg) - c).is_zero():
            ok = False
    out.append(_exact("cech.r_sharp_chain_map", ok))
    return out


def _n_factors(ctx: triples.DualityContext) -> list[int]:
    """Invariant factors of N, from how many of its elements each prime power
    kills: #N[p^k] / #N[p^(k-1)] = p^t, where p^k divides t of the factors.

    Counting on the add table keeps the oracle off the Smith form it checks."""
    add, e = ctx.G.add_table(), ctx.G.exponent
    n = ctx.N.positions
    killed, kx = [len(n)], np.zeros_like(n)            # killed[k] = #N[k]
    for _ in range(e):
        kx = add[kx, n]                                # positions of k x, x in N
        killed.append(int(np.count_nonzero(kx == 0)))
    factors = [1] * len(n)                             # largest first
    for p in [p for p in range(2, e + 1) if e % p == 0 and all(p % r for r in range(2, p))]:
        pk = p
        while e % pk == 0:
            t = round(math.log(killed[pk] // killed[pk // p], p))
            factors[:t] = [f * p for f in factors[:t]]
            pk *= p
    return sorted(f for f in factors if f > 1)


def _shapiro_factors(ctx: triples.DualityContext) -> dict[int, list[int]]:
    """H^p(G, Fun(G/N, Z/m)) for p = 0, 1, 2, from Shapiro's lemma: it is
    H^p(N, Z/m), which for N = sum_i Z/n_i (invariant factors) is Z/m, then
    sum_i Z/(n_i, m), then that plus Z/(n_i, n_j, m) = Z/(n_i, m) for i < j."""
    m = ctx.m
    h1 = [f for f in (math.gcd(x, m) for x in _n_factors(ctx)) if f > 1]
    h2 = sorted(h1 + [f for i, f in enumerate(h1) for _ in h1[i + 1:]])
    return {0: [m], 1: h1, 2: h2}


def check_total(ws: Workspace) -> list[dict]:
    out = []
    ctx, nerve = ws.ctx, ws.nerve
    rng = np.random.default_rng(ws.seed + 202)
    ok_d2 = True
    sp = groupcoh.GroupCochainSpace(ctx.G, ctx.quotient, ctx.m, 1)
    f = groupcoh.GroupCochain(sp, rng.integers(0, ctx.m, size=sp.shape()))
    if not groupcoh.d_group(groupcoh.d_group(f)).is_zero():
        ok_d2 = False
    out.append(_exact("total.group_d2_zero", ok_d2))

    ok_t2 = True
    for p in (0, 1, 2):
        t = groupcoh.TotalCochain(nerve, ctx.G, ctx.quotient, ctx.m, p)
        for kl, blk in t.blocks.items():
            for s in nerve.simplices(kl[0]):
                blk.values[s] = rng.integers(0, ctx.m, size=blk.module.size)
        if not groupcoh.total_differential(
                groupcoh.total_differential(t, ws.twist), ws.twist).is_zero():
            ok_t2 = False
    out.append(_exact("total.d2_zero", ok_t2))

    pt = cech.Nerve.point()
    gp = cech.TwistCocycle.trivial(pt, ctx.quotient)
    ok_pt = True
    pt_factors = {}
    skipped = []
    cap = max_matrix_dim()
    shapiro = _shapiro_factors(ctx)
    group = ctx.group_complex   # cohomology(p) reads matrix(p-1): the cap skips top degrees only
    for p in (0, 1, 2):
        if (ctx.G.order ** (p + 1)) * ctx.quotient.order > cap:
            skipped.append(p)
            continue
        # over a point d_tot is d_group with the sign total_differential puts on
        # Cech degree 0; equal matrices up to sign give equal groups, so the
        # factors come from the group complex that normalising solves against
        A = groupcoh.total_matrix(pt, ctx.G, ctx.quotient, ctx.m, gp, p)
        if not np.array_equal(A, -((-1) ** p) * group.matrix(p) % ctx.m):
            ok_pt = False
        # the matrices come from index arrays, not from total_differential:
        # the applier must map a random cochain as A does
        x = rng.integers(0, ctx.m, size=A.shape[1])
        image = groupcoh.total_differential(
            groupcoh.TotalCochain.from_flat(pt, ctx.G, ctx.quotient, ctx.m, p, x), gp)
        if not np.array_equal(image.flatten(), A @ x % ctx.m):
            ok_pt = False
        pt_factors[str(p)], _ = group.cohomology(p)
        if pt_factors[str(p)] != shapiro[p]:
            ok_pt = False
    out.append(_exact("total.point_nerve_matches_group_cohomology", ok_pt,
                      factors=pt_factors, capped_degrees=skipped))

    factors = {}
    capped = False
    for p in (0, 1):
        try:
            # the fixture's twist is the scenario's plus a seeded coboundary dr;
            # r# is an isomorphism of the two total complexes, so the factors
            # agree, and the certificates reuse this twist's factorisations
            factors[str(p)], _ = groupcoh.total_complex(ws.fixture().g, ctx.m).cohomology(p)
        except ResourceCapError:
            capped = True
    out.append(_exact("total.scenario_factors", True, factors=factors,
                      capped_degrees=capped))

    # extraction raises InvalidTripleError unless (psi, phi, omega) is closed
    ws.cocycle()
    out.append(_exact("total.triple_cocycle_closure", True))
    return out


def check_dualize(ws: Workspace) -> list[dict]:
    out = []
    t = ws.fixture()
    v = triples.validate_triple(t)
    out.append(_result("dualize.fixture_laws", max(v.values()), ws.tau_u, detail=v))
    # normalising raises InvalidTripleError unless omega is a boundary
    tn = ws.normalized()
    out.append(_exact("dualize.omega_is_boundary", True))
    cn = ws.cocycle()
    out.append(_exact("dualize.normalized_omega_zero", cn.omega_is_zero()))
    th = ws.dual()
    rep = ws.dual_laws()
    out.append(_result("dualize.dual_cech_law", rep["dual_cech_law"], ws.tau_u))
    out.append(_result("dualize.dual_decker_law", rep["dual_decker_law"], ws.tau_u))
    out.append(_exact("dualize.dual_phi_closed_form",
                      rep["dual_phi_closed_form"] == 0.0))
    out.append(_result("dualize.dual_mu_periodicity",
                       rep["dual_mu_periodicity"], ws.tau_u))
    _, krep = triples.build_kappa_top(tn, th)
    out.append(_result("dualize.kappa_top_gluing", krep["kappa_top_gluing"], ws.tau_u))
    out.append(_result("dualize.alpha_factorisation", krep["alpha_factorisation"],
                       ws.tau_u))
    tp = ws.exterior()
    if tp is not None:
        er = triples.exterior_family_residuals(tn, tp)
        out.append(_result("dualize.exterior_family_laws",
                           max(er.values()), ws.tau_u))
        cert = ws.certificates()["exterior"]
        out.append(_exact(
            "dualize.exterior_class_certificate", cert is not None,
            certificate=serialize.total_cochain_to_json(cert) if cert is not None else None))
    return out


def check_involution(ws: Workspace) -> list[dict]:
    laws = ws.dual_laws()
    rep = triples.involution_report(ws.normalized(), ws.cocycle(), ws.dual_cocycle(),
                                    ws.double_dual(), ws.double_dual_cocycle(),
                                    ws.certificates()["involution"])
    cert_json = (serialize.total_cochain_to_json(rep["certificate"])
                 if "certificate" in rep else None)
    out = [
        _result("involution.dual_cech_law", laws["dual_cech_law"], ws.tau_u),
        _result("involution.dual_decker_law", laws["dual_decker_law"], ws.tau_u),
        _exact("involution.dual_omega_zero", rep["dual_omega_zero"] == 0.0),
        _exact("involution.double_dual_base_equals_original",
               rep["double_dual_base_equals_original"] == 0.0),
        _exact("involution.class_certificate",
               rep["double_dual_class_certificate"] == 0.0,
               certificate=cert_json),
    ]
    if "certificate_residual" in rep:
        out.append(_exact("involution.certificate_exact",
                          rep["certificate_residual"] == 0.0))
    return out


def check_poincare(ws: Workspace) -> list[dict]:
    rep = triples.poincare_check(ws.ctx, seed=ws.seed + 11)
    return [
        _exact("poincare.sigma_hat_independence",
               rep["sigma_hat_independence"] == 0.0),
        _result("poincare.kappa_unitary_word", rep["kappa_unitary_word"], ws.tau_u),
        _exact("poincare.q_plus_r_coboundary", rep["q_plus_r_coboundary"] == 0.0),
    ]


def check_crossed_point(ws: Workspace) -> list[dict]:
    out = []
    res = crossed.fourier_roundtrip_residual(ws.ctx, seed=ws.seed + 3)
    out.append(_result("crossed.fourier_inversion", res, 1e-12))
    tn = ws.normalized()
    i0 = ws.nerve.vertices[0][0]
    rep = crossed.verify_point_theorem(ws.ctx, tn.fiber_dim, tn.mu[i0],
                                       trials=min(ws.trials, 5), seed=ws.seed + 4)
    out.append(_result("crossed.mu_cocycle", rep["mu_cocycle"], ws.tau_u))
    out.append(_result("crossed.homomorphism", rep["homomorphism"], ws.tau_pipe))
    out.append(_result("crossed.star_compatibility", rep["star_compatibility"],
                       ws.tau_pipe))
    out.append(_result("crossed.norm_preservation", rep["norm_preservation"],
                       ws.tau_pipe))
    out.append(_result("crossed.equivariance", rep["equivariance"], ws.tau_pipe))
    out.append(_exact("crossed.t_injective", rep["injective_rank_deficit"] == 0.0))
    out.append(_result("crossed.zero_to_zero", rep["zero_to_zero"], 1e-12))
    return out


def check_crossed_glue(ws: Workspace) -> list[dict]:
    rep = crossed.verify_gluing(ws.normalized(), ws.dual(),
                                trials=ws.trials, seed=ws.seed + 5)
    return [
        _result("glue.section_family", rep["section_family"], ws.tau_u),
        _result("glue.section_transition", rep["section_transition"], ws.tau_pipe,
                edges=rep["edges"]),
    ]


COMMANDS = {
    "cohomology": (check_cech,),
    "total-cohomology": (check_total,),
    "dualize": (check_dualize,),
    "involution": (check_involution,),
    "poincare": (check_poincare,),
    "crossed-point": (check_crossed_point,),
    "crossed-glue": (check_crossed_glue,),
}
COMMANDS["all"] = tuple(fn for fns in COMMANDS.values() for fn in fns)

CHECK_DESCRIPTIONS = {
    "cohomology": [
        "twisted differential squares to zero on random cochains (exact)",
        "untwisted nerve cohomology invariant factors over Z/m",
        "twisted cohomology factors for the scenario twist",
        "the comparison map for twist changes is a chain isomorphism",
    ],
    "total-cohomology": [
        "group differential squares to zero (exact)",
        "total differential squares to zero (exact)",
        "point nerve: total differential is the signed group differential (exact)",
        "scenario-nerve total factors at low degree (cap permitting)",
        "the extracted triple cocycle is closed under the total differential",
    ],
    "dualize": [
        "fixture satisfies the triple laws up to scalars",
        "the vertex 2-cocycle is a group coboundary (dualisable)",
        "dual transitions satisfy the twisted cocycle law projectively",
        "dual decker law holds with the predicted scalar defect",
        "local topologicalisation unitaries glue through the dual data",
        "exterior-equivalent data yields a cohomologous scalar cocycle",
    ],
    "involution": [
        "dualising twice returns the base cocycle exactly",
        "double-dual scalar cocycle is cohomologous via an exact certificate",
    ],
    "poincare": [
        "the kappa phase class does not depend on the dual section",
        "kappa tensor dual-kappa is implemented by an explicit unitary word",
        "the two tautological-bundle transition families are a coboundary",
    ],
    "crossed-point": [
        "Haar weights give exact Fourier inversion and the Weil identity",
        "the transform is a *-isomorphism onto dual matrix functions",
        "the transform intertwines the dual action",
    ],
    "crossed-glue": [
        "chart transforms of a global section glue through the dual transitions",
    ],
}


def certifies(command: str) -> bool:
    """Whether the command runs a check that solves for a class certificate."""
    return any(f.__name__ in ("check_dualize", "check_involution")
               for f in COMMANDS[command])


def normalizes(command: str) -> bool:
    """Whether the command runs a check that builds Workspace.normalized()."""
    return any(f.__name__ not in ("check_cech", "check_poincare")
               for f in COMMANDS[command])


def certificate_dim(ws: Workspace) -> int:
    """Larger side of the degree-1 -> 2 total matrix the class certificates solve against."""
    return max(groupcoh.total_dimension(ws.nerve, ws.ctx.G, ws.ctx.quotient, ws.ctx.m, p)
               for p in (1, 2))


def dualisability_dim(ws: Workspace) -> int:
    """Rows of the arity-1 -> 2 group differential that normalising solves against."""
    return ws.ctx.G.order ** 2 * ws.ctx.quotient.order


def run_checks(ws: Workspace, command: str, only: Optional[str] = None) -> list[dict]:
    fns = COMMANDS[command]
    # refuse an over-cap certificate or dualisability matrix before any check
    # does work
    if certifies(command):
        check_dim(certificate_dim(ws))
    if normalizes(command):
        check_dim(dualisability_dim(ws))

    def guarded(f: Callable) -> list[dict]:
        # a law violation inside a check is a falsifying instance: FAIL,
        # not a crash (resource-cap errors still propagate to exit 3)
        group = f.__name__.removeprefix("check_").replace("_", "-")
        try:
            return f(ws)
        except InvalidTripleError as exc:
            return [_result(f"{group}.invalid_triple", 1.0, 0.0, error=str(exc))]

    results: list[dict] = []
    for f in fns:
        results.extend(guarded(f))
    if only is not None:
        results = [r for r in results if r["name"] == only]
        if not results:
            raise ScenarioError(f"no check named {only!r} in command {command}")
    return sorted(results, key=lambda r: r["name"])


def build_report(ws: Workspace, command: str, results: list[dict],
                 elapsed: float) -> dict:
    return {
        "scenario": ws.scenario,
        "command": command,
        "seed": ws.seed,
        "derived": ws.derived_summary(),
        "checks": results,
        "all_passed": all(r["passed"] for r in results),
        "timings": {"total_s": round(elapsed, 3)},
    }


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_text(report: dict) -> str:
    lines = [f"command: {report['command']}   seed: {report['seed']}"]
    d = report["derived"]
    lines.append(
        f"group {d['group']} (order {d['group_order']}), |N|={d['N_order']}, "
        f"|G/N|={d['quotient_order']}, modulus {d['modulus']}")
    for r in report["checks"]:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(f"{status}  {r['name']}  residual={r['residual']:.3e}"
                     f"  tol={r['tolerance']:.1e}")
    lines.append("ALL PASS" if report["all_passed"] else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    ws = Workspace(scenario, seed=args.seed, tolerance_scale=args.tolerance_scale)
    start = time.perf_counter()
    results = run_checks(ws, scenario["command"], only=args.check)
    elapsed = time.perf_counter() - start
    report = build_report(ws, scenario["command"], results, elapsed)
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = format_text(report)
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0 if report["all_passed"] else 1


def cmd_explain(args) -> int:
    scenario = load_scenario(args.scenario)
    ws = Workspace(scenario)
    d = ws.derived_summary()
    print(f"command: {scenario['command']}")
    print(f"group: {d['group']} of order {d['group_order']}, exponent "
          f"{d['exponent']}, modulus {d['modulus']}")
    print(f"subgroup N: order {d['N_order']}, generators {d['N_generators']}")
    print(f"annihilator: order {d['annihilator_order']}, generators "
          f"{d['annihilator_generators']}")
    print(f"quotient G/N: order {d['quotient_order']}; dual quotient: order "
          f"{d['dual_quotient_order']}")
    print(f"nerve: {d['nerve']['vertices']} vertices, {d['nerve']['edges']} edges, "
          f"{d['nerve']['two_simplices']} two-simplices")
    if d["nerve"]["edges"] == 0:
        print("warning: the nerve has no overlaps; every positive-degree "
              "cohomology group on it is zero")
    print(f"fiber dims: primal {d['fiber_dim']}, dual {d['dual_fiber_dim']}, "
          f"double dual {d['double_dual_fiber_dim']}")
    print(f"crossed-product representation dimension: {d['crossed_rep_dim']}")
    print(f"matrix dimension cap: {d['matrix_dim_cap']} (env TDUAL_MAX_DIM)")
    cmd = scenario["command"]
    cap = d["matrix_dim_cap"]
    # the matrices run_checks refuses up front, in its order
    for what, n, refused, warning in (
            ("certificate", certificate_dim(ws), certifies(cmd),
             "the class certificates exceed the cap"),
            ("dualisability", dualisability_dim(ws), normalizes(cmd),
             "normalising the triple exceeds the cap")):
        print(f"{what} matrix dimension {n} (cap {cap})")
        if n > cap and refused:
            print(f"warning: {warning}; run would exit 3 before any check")
    cmds = [cmd] if cmd != "all" else list(CHECK_DESCRIPTIONS)
    for c in cmds:
        print(f"checks [{c}]:")
        for line in CHECK_DESCRIPTIONS[c]:
            print(f"  - {line}")
    return 0


def _seed(text: str) -> int:
    """--seed: an integer >= 0, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _scale(text: str) -> float:
    """--tolerance-scale: a finite number > 0."""
    x = float(text)     # argparse turns a ValueError into exit 2 too
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return x


def main(argv: Optional[list[str]] = None) -> int:
    """The tdual command; a malformed scenario exits 2 and a resource cap 3."""
    parser = argparse.ArgumentParser(
        prog="tdual",
        description="Verification engine for duality identities of finite "
                    "dynamical triples.")
    sub = parser.add_subparsers(dest="mode", required=True)

    p_run = sub.add_parser("run", help="run a scenario and emit a report")
    p_run.add_argument("scenario", help="path to a scenario JSON (or bundled name)")
    p_run.add_argument("-o", "--output", help="write the report to this path")
    p_run.add_argument("--seed", type=_seed, default=None,
                       help="override the scenario seed (an integer >= 0)")
    p_run.add_argument("--tolerance-scale", type=_scale, default=1.0,
                       help="multiply every tolerance by this finite number > 0")
    p_run.add_argument("--format", choices=("json", "text"), default="json")
    p_run.add_argument("--check", default=None,
                       help="run only the check with this exact name")
    p_run.set_defaults(fn=cmd_run)

    p_exp = sub.add_parser("explain", help="describe a scenario without running it")
    p_exp.add_argument("scenario")
    p_exp.set_defaults(fn=cmd_explain)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
