"""Scenario runner: declarative JSON in, verification report out.

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed scenario, bad
TDUAL_MAX_DIM or unusable -o path, 3 resource cap exceeded (refused by
preflight, from counts, before anything is built).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction
from importlib import resources
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import cech, crossed, groupcoh, lca, triples
from .errors import InvalidTripleError, ResourceCapError, UsageError, max_matrix_dim, over_cap
from .zmodlin import xgcd


class ScenarioError(ValueError):
    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


@functools.cache
def _validator():
    """The scenario schema's compiled validator, built on first use and kept."""
    import jsonschema
    with resources.files("tdual").joinpath("scenario_schema.json").open() as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


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

    errors = sorted(_validator().iter_errors(data), key=lambda e: e.json_path)
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
    tops = []
    for i, s in enumerate(data["nerve"]["simplices"]):
        if any(v >= nverts for v in s):
            raise ScenarioError("vertex index out of range", f"$.nerve.simplices[{i}]")
        tops.append(set(s))
    for key, coords in data.get("twist", {}).items():
        a, b = sorted(int(x) for x in key.split(","))
        if key != f"{a},{b}" or a == b or not any({a, b} <= s for s in tops):
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


def validate_twist(scenario: dict) -> None:
    """Refuse a twist that breaks g_ac = g_ab + g_bc in G/N on a 2-simplex
    with the ScenarioError Workspace raises, without building the nerve, so
    that cmd_run can ask before preflight and this exit 2 wins over an exit 3.

    Only a 2-simplex through a keyed edge can break it (an edge the twist
    does not key carries 0); they are tried in sorted order, as the nerve
    lists them, so the same 2-simplex is named.
    """
    twist = {tuple(int(x) for x in key.split(",")): v
             for key, v in scenario.get("twist", {}).items()}
    tops = [set(s) for s in scenario["nerve"]["simplices"]]
    triangles = sorted({tuple(sorted((a, b, c))) for a, b in twist for s in tops
                        if {a, b} <= s for c in s - {a, b}})
    if not triangles:
        return
    groups = scenario["groups"]
    G = lca.FiniteLcaGroup(groups["factors"])
    quotient = lca.QuotientGroup(G, lca.Subgroup(G, [G.element(c) for c in groups["N"]]))
    zero = [0] * len(G.factors)
    for a, b, c in triangles:
        ac, ab, bc = (twist.get(e, zero) for e in ((a, c), (a, b), (b, c)))
        lhs, rhs = quotient.coset[G.flat([ac, np.add(ab, bc)])]
        if lhs != rhs:
            reps = [G.element_at(quotient.lift[x]) for x in (lhs, rhs)]
            raise ScenarioError(f"twist violates the cocycle law on ({a},{b},{c}): "
                                f"g_ac={reps[0]}, g_ab+g_bc={reps[1]}", "$.twist")


def snap_tolerance(scenario: dict, tolerance_scale: float = 1.0) -> float:
    """tau_s, the scenario's snap tolerance times tolerance_scale.

    Adjacent m-th roots of unity are 2 sin(pi/m) apart: a snap window that
    wide can hold two of them and certifies no phase, so a tau_s of sin(pi/m)
    or more is a ScenarioError.  It needs only m, so cmd_run asks before
    preflight, and this exit 2 wins over a cap's exit 3.
    """
    m = scenario.get("modulus", math.lcm(*scenario["groups"]["factors"]))
    tau_s = scenario.get("tolerances", {}).get("snap", triples.TAU_S) * tolerance_scale
    half_chord = math.sin(math.pi / m)
    if tau_s >= half_chord:
        raise ScenarioError(
            f"snap tolerance {tau_s:g} (after --tolerance-scale) must be "
            f"below sin(pi/m) = {half_chord:.3g}, half the chord between "
            f"adjacent roots of unity of order m = {m}",
            "$.tolerances.snap")
    return tau_s


def twist_from_json(nerve: cech.Nerve, quotient: lca.QuotientGroup,
                    data: dict) -> cech.TwistCocycle:
    """The twist data gives as {"a,b": coordinates}, keying each edge exactly once."""
    G, labels = quotient.parent, {}
    for key, coords in data.items():
        e = tuple(int(x) for x in key.split(","))
        if e in labels:
            raise ValueError(f"twist key {key!r} repeats the edge {e}")
        if len(coords) != len(G.factors):
            raise ValueError(f"twist value {key!r} needs {len(G.factors)} coordinates")
        labels[e] = quotient.coset[G.flat(coords)]
    return cech.TwistCocycle.from_labels(nerve, quotient, labels)


def _frac(k: int, m: int) -> str:
    f = Fraction(int(k) % m, m)
    return f"{f.numerator}/{f.denominator}"


def total_cochain_to_json(t: groupcoh.TotalCochain) -> dict:
    """Certificate chains: per bidegree, per simplex, fraction strings."""
    m = t.m
    out = {"degree": t.degree, "modulus": m, "blocks": {}}
    for (k, l), blk in sorted(t.blocks.items()):
        entries = {}
        for s, v in blk.values.items():
            entries[",".join(map(str, s))] = [_frac(int(x), m) for x in v]
        out["blocks"][f"{k},{l}"] = entries
    return out


class Workspace:
    """Derived objects for one scenario, built lazily and shared by checks.

    Each pipeline stage is built once, from the stages before it:
    fixture -> fixture_cocycle -> normalized -> cocycle -> dual -> dual_cocycle
    -> dual_laws, then double_dual -> double_dual_cocycle, and exterior ->
    exterior_cocycle; dual_laws adds the phi^ check to the laws dualize kept
    on the dual.  The scenario factors and both class certificates read
    groupcoh.total_complex(fixture().g, m), the total complex twisted by the
    fixture's twist g, and share the one factorisation of total_matrix(1) it keeps.
    """

    def __init__(self, scenario: dict, seed: Optional[int] = None,
                 tolerance_scale: float = 1.0):
        self.scenario = scenario
        self.seed = seed if seed is not None else scenario.get("seed", 0)
        self.d = scenario.get("fiber_dim", 1)
        self.trials = scenario.get("trials", 10)
        G = lca.FiniteLcaGroup(scenario["groups"]["factors"])
        N = lca.Subgroup(G, [G.element(c) for c in scenario["groups"]["N"]])
        self.ctx = triples.DualityContext(G, N, m=scenario.get("modulus"))
        self.nerve = cech.Nerve(scenario["nerve"]["vertices"],
                                scenario["nerve"]["simplices"])
        # an edge the scenario does not key carries the zero coset
        zero = [0] * len(self.ctx.G.factors)
        tw = {**{f"{a},{b}": zero for a, b in self.nerve.edges}, **scenario.get("twist", {})}
        try:
            self.twist = twist_from_json(self.nerve, self.ctx.quotient, tw)
        except ValueError as exc:
            raise ScenarioError(str(exc), "$.twist") from exc
        tols = scenario.get("tolerances", {})
        self.tau_s = snap_tolerance(scenario, tolerance_scale)
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
        return self._get("dual_laws", lambda: {
            **self.dual().laws, "dual_phi_closed_form": triples.phi_hat_residual(
                self.normalized(), self.dual(), self.dual_cocycle())})

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
        c = cech.TwistedCochain.from_flat(
            nerve, mod, deg, rng.integers(0, ctx.m, size=len(nerve.simplices(deg)) * mod.size))
        if not cech.delta_g(cech.delta_g(c, ws.twist), ws.twist).is_zero():
            ok = False
    out.append(_exact("cech.d2_zero", ok))

    # one complex per coefficient module: degree k reuses degree k-1's matrix
    untwisted = cech.cech_complex(nerve, cech.GModule.trivial(ctx.m),
                                  cech.TwistCocycle.trivial(nerve, ctx.quotient))
    factors = {str(k): untwisted.factors(k) for k in range(nerve.dimension + 1)}
    out.append(_exact("cech.untwisted_factors", True, factors=factors))

    twisted = cech.cech_complex(nerve, mod, ws.twist)
    tw_factors = {str(k): twisted.factors(k) for k in range(min(nerve.dimension, 1) + 1)}
    out.append(_exact("cech.twisted_factors", True, factors=tw_factors))

    r = {v[0]: int(rng.integers(0, ctx.quotient.order)) for v in nerve.vertices}
    rneg = dict(zip(r, ctx.quotient.neg_table()[list(r.values())]))
    gp = cech.r_conjugate_twist(ws.twist, r)
    ok = True
    for deg in range(nerve.dimension):
        c = cech.TwistedCochain.from_flat(
            nerve, mod, deg, rng.integers(0, ctx.m, size=len(nerve.simplices(deg)) * mod.size))
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
    # d_group as the runs apply it: gathered along each space's terms
    sp1, sp2 = (groupcoh.GroupCochainSpace(ctx.G, ctx.quotient, ctx.m, l) for l in (1, 2))
    f = rng.integers(0, ctx.m, size=sp1.shape()).reshape(-1)
    out.append(_exact("total.group_d2_zero", not sp2.d(sp1.d(f)).any()))

    ok_t2 = True
    for p in (0, 1, 2):
        dim = groupcoh.total_dimension(nerve, ctx.G, ctx.quotient, ctx.m, p)
        t = groupcoh.TotalCochain.from_flat(nerve, ctx.G, ctx.quotient, ctx.m, p,
                                            rng.integers(0, ctx.m, size=dim))
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
    group = ctx.group_complex   # factors(p) reads matrix(p-1): the cap skips top degrees only
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
        # A, the group matrix and total_differential all read d_group_terms;
        # the tuple loop d_group reads the formula, so both A and the applier
        # must map a random cochain as it does
        x = rng.integers(0, ctx.m, size=A.shape[1])
        sp = groupcoh.GroupCochainSpace(ctx.G, ctx.quotient, ctx.m, p)
        loop = groupcoh.d_group(groupcoh.GroupCochain.from_flat(sp, x)).flatten()
        want = -((-1) ** p) * loop % ctx.m
        image = groupcoh.total_differential(
            groupcoh.TotalCochain.from_flat(pt, ctx.G, ctx.quotient, ctx.m, p, x), gp)
        if not (np.array_equal(A @ x % ctx.m, want) and np.array_equal(image.flatten(), want)):
            ok_pt = False
        pt_factors[str(p)] = group.factors(p)
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
            factors[str(p)] = groupcoh.total_complex(ws.fixture().g, ctx.m).factors(p)
        except ResourceCapError:
            capped = True
    out.append(_exact("total.scenario_factors", True, factors=factors,
                      capped_degrees=capped))

    # extraction raises InvalidTripleError unless (psi, phi, omega) is closed;
    # a failing row keeps the rows above in the report
    try:
        ws.cocycle()
        out.append(_exact("total.triple_cocycle_closure", True))
    except InvalidTripleError as exc:
        out.append(_exact("total.triple_cocycle_closure", False, error=str(exc)))
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
            certificate=total_cochain_to_json(cert) if cert is not None else None))
    return out


def check_involution(ws: Workspace) -> list[dict]:
    laws = ws.dual_laws()
    rep = triples.involution_report(ws.normalized(), ws.cocycle(), ws.dual_cocycle(),
                                    ws.double_dual(), ws.double_dual_cocycle(),
                                    ws.certificates()["involution"])
    cert_json = (total_cochain_to_json(rep["certificate"])
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


def runs(command: str, check: str) -> bool:
    """Whether the command runs the check of that name."""
    return any(f.__name__ == check for f in COMMANDS[command])


def _face_counts(nerve: dict, limit: int) -> tuple[list[int], bool]:
    """(f, exact): f[k] is the number of k-simplices of the scenario's nerve,
    closed under faces, for k = 0 up to its dimension.

    A simplex that alone has (k+1)-vertex faces gives f[k] as a binomial.
    Otherwise the faces are enumerated, and that stops once the count passes
    limit: f[k] is then a lower bound above limit, and exact is False.
    """
    tops = {tuple(sorted(set(s))) for s in nerve["simplices"]}
    f, exact = [nerve["vertices"]], True
    for k in range(1, max(map(len, tops), default=1)):
        have = [s for s in tops if len(s) > k]
        count = max(math.comb(len(s), k + 1) for s in have)
        if len(have) > 1:
            faces: set = set()
            for s in have if count <= limit else ():
                faces.update(itertools.combinations(s, k + 1))
                if len(faces) > limit:
                    break
            count = max(count, len(faces))
            exact = exact and count <= limit
        f.append(count)
    return f, exact


def _quotient_order(factors: list[int], gens: list[list[int]]) -> int:
    """|G/N| for N generated by gens in G = Z/f_1 x ... x Z/f_r, from small
    integer arithmetic alone.

    G/N is Z^r over the lattice that the f_i e_i and the generators span,
    and its order is the product of the pivots of a triangular basis of it.
    Column i starts its pivot from f_i e_i and folds each generator into it
    with an extended gcd, which leaves the generator 0 in column i.  The
    f_j e_j of the later columns stay in the lattice, so entries there
    reduce mod f_j and stay small.
    """
    rows = [[x % f for x, f in zip(g, factors)] for g in gens]
    order = 1
    for i, f in enumerate(factors):
        pivot = [0] * i + [f] + [0] * (len(factors) - i - 1)
        for row in rows:
            if row[i]:
                g, s, t = xgcd(pivot[i], row[i])
                a, c = pivot[i] // g, row[i] // g
                combined = [s * x + t * y for x, y in zip(pivot, row)]     # g in column i
                row[:] = [(c * x - a * y) % m for x, y, m in zip(pivot, row, factors)]
                pivot = [v if j <= i else v % m
                         for j, (v, m) in enumerate(zip(combined, factors))]
        order *= pivot[i]
    return order


class Bound(NamedTuple):
    """One size a run checks against a cap, as preflight predicts it."""
    name: str       # what tdual explain calls it; it says so when size is a lower bound
    size: int
    cap: int
    applies: bool   # the command's run meets it outside a try that catches it
    error: str      # the run's ResourceCapError message over the cap
    warning: str    # what tdual explain says then


def preflight(scenario: dict, command: str, refuse: bool = True) -> list[Bound]:
    """Every size a run of command checks against the cap, from counts alone.

    The counts are |G|, q = |G/N| (from N's generators, _quotient_order),
    the nerve's face counts, fiber_dim d and trials; nothing that grows
    with them is built.  The bounds are the certificate and dualisability
    matrices, the |G| q d^2 side of the linearised transform
    check_crossed_point ranks, the trials |G| q d^2 entries
    check_crossed_glue draws per vertex, against the square of the cap, and
    the Cech matrices: the first side over the cap, in the order check_cech
    meets them, else the largest.  With refuse, the first bound that applies
    and is over its cap raises its ResourceCapError: cmd_run calls it before
    a nerve or a context is built, and run_checks before any check runs.
    """
    cap = max_matrix_dim()
    factors = scenario["groups"]["factors"]
    n, q = math.prod(factors), _quotient_order(factors, scenario["groups"]["N"])
    side = n * q * scenario.get("fiber_dim", 1) ** 2
    counts, exact = _face_counts(scenario["nerve"], cap)
    dim, f = len(counts) - 1, counts + [0, 0, 0]
    certificate = max(sum(f[k] * n ** (p - k) * q for k in range(p + 1)) for p in (1, 2))
    cech_sides = ([max(f[k], f[k + 1]) for k in range(dim + 1)]
                  + [q * max(f[k], f[k + 1]) for k in range(min(dim, 1) + 1)])
    cech_side = next((x for x in cech_sides if x > cap), max(cech_sides))

    def matrix(name, size, is_exact, applies, warning):
        what = "matrix dimension" if is_exact else "matrix dimension at least"
        return Bound(f"{name} {what}", size, cap, applies, over_cap(what, size, cap), warning)

    batch = scenario.get("trials", 10) * side
    bounds = [
        matrix("certificate", certificate, exact, certifies(command),
               "the class certificates exceed the cap"),
        matrix("dualisability", n * n * q, True, normalizes(command),
               "normalising the triple exceeds the cap"),
        matrix("crossed-point", side, True, runs(command, "check_crossed_point"),
               "the linearised crossed-product transform exceeds the cap"),
        Bound("crossed-glue trial batch size", batch, cap * cap,
              runs(command, "check_crossed_glue"),
              over_cap("trial batch size", batch, cap * cap, "TDUAL_MAX_DIM squared"),
              "the crossed-glue trial batch exceeds the cap squared"),
        matrix("Cech", cech_side, exact, runs(command, "check_cech"),
               "the Cech matrices exceed the cap"),
    ]
    over = next((b for b in bounds if b.applies and b.size > b.cap), None)
    if refuse and over is not None:
        raise ResourceCapError(over.error)
    return bounds


def run_checks(ws: Workspace, command: str, only: Optional[str] = None) -> list[dict]:
    fns = COMMANDS[command]
    # refuse every over-cap size before any check does work: a check that
    # fails before its cap would otherwise decide whether the run meets it
    preflight(ws.scenario, command)

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
    if args.output:     # refuse a path that cannot take the report before any check runs
        directory = os.path.dirname(os.path.abspath(args.output))
        if os.path.isdir(args.output):
            raise UsageError(f"{args.output} is a directory")
        if not os.path.isdir(directory):
            raise UsageError(f"no directory {directory} for {args.output}")
    scenario = load_scenario(args.scenario)
    # Workspace's exit-2 refusals win over a cap's exit 3, so they come first
    validate_twist(scenario)
    snap_tolerance(scenario, args.tolerance_scale)
    preflight(scenario, scenario["command"])
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
        try:
            _atomic_write(args.output, text)
        except OSError as exc:
            raise UsageError(str(exc)) from exc
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
    for b in preflight(scenario, cmd, refuse=False):
        print(f"{b.name} {b.size} (cap {b.cap})")
        if b.applies and b.size > b.cap:
            print(f"warning: {b.warning}; run would exit 3 before any check")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """tdual's argument parser, built on first use and kept for the process."""
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

    p_exp = sub.add_parser("explain", help="describe a scenario without running it")
    p_exp.add_argument("scenario")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """The tdual command; bad input (scenario, TDUAL_MAX_DIM, -o) exits 2, a cap 3."""
    args = _parser().parse_args(argv)
    # the module's names at call time, so a patched cmd_run is the one called
    fn = {"run": cmd_run, "explain": cmd_explain}[args.mode]
    try:
        max_matrix_dim()        # a bad TDUAL_MAX_DIM is refused before any work
        return fn(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
