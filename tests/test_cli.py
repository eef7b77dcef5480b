import json
import os
import subprocess
import sys
import time
import traceback
import tracemalloc

import numpy as np
import pytest

from tdual import cech, groupcoh, lca, triples, zmodlin
from tdual.cli import (
    COMMANDS,
    ScenarioError,
    Workspace,
    check_total,
    load_scenario,
    main,
    normalizes,
    run_checks,
)

Z6 = {
    "groups": {"factors": [6], "N": [[3]]},
    "nerve": {"vertices": 3, "simplices": [[0, 1], [0, 2], [1, 2]]},
    "fiber_dim": 1,
    "seed": 1,
    "command": "poincare",
}


# Z8/<4> on a circle at d = 2: its degree-1 -> 2 total matrix is 864 wide
Z8_OVERCAP = {
    "groups": {"factors": [8], "N": [[4]]},
    "nerve": {"vertices": 3, "simplices": [[0, 1], [0, 2], [1, 2]]},
    "fiber_dim": 2,
    "command": "all",
}
OVERCAP_MESSAGE = "matrix dimension 864 exceeds cap 512 (TDUAL_MAX_DIM)"

# Z32/<16> on a circle: normalising solves against the |G|^2 |G/N| = 16384-row
# arity-1 -> 2 group differential; check_total skips its own over-cap
# matrices, so without the up-front check the run reaches that one only
# after the d^2 checks, seconds later
Z32_OVERCAP = {
    "groups": {"factors": [32], "N": [[16]]},
    "nerve": {"vertices": 3, "simplices": [[0, 1], [0, 2], [1, 2]]},
    "command": "total-cohomology",
}

# Z64xZ64/<(8, 8)> on a circle: 4096 elements, so a |G| x |G| int64 table
# alone is 134 MB; the run must refuse its certificate matrices without one
Z64XZ64_OVERCAP = {
    "groups": {"factors": [64, 64], "N": [[8, 8]]},
    "nerve": {"vertices": 3, "simplices": [[0, 1], [0, 2], [1, 2]]},
    "command": "all",
}

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "z6_circle_report.json")
# a non-cyclic group on a nerve with 2-simplices, at the scenario's default seed
Z2XZ2_SPHERE = {
    "groups": {"factors": [2, 2], "N": [[1, 1]]},
    "nerve": {"vertices": 4, "simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]},
    "fiber_dim": 2,
    "command": "all",
}
Z2XZ2_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "z2xz2_sphere_report.json")
# Z6/<3> on the circle with holonomy 1 + 0 - 0 = 1 in G/N round the loop
Z6_HOLONOMY = dict(Z6, twist={"0,1": [1]}, command="all")


def write_scenario(tmp_path, data, name="s.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


class TestValidation:
    def test_bundled_name_resolves(self):
        sc = load_scenario("z6_circle")
        assert sc["command"] == "all"

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("no_such_scenario")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ScenarioError):
            load_scenario(str(p))

    def test_unknown_command(self, tmp_path):
        bad = dict(Z6, command="frobnicate")
        with pytest.raises(ScenarioError) as ei:
            load_scenario(write_scenario(tmp_path, bad))
        assert "command" in str(ei.value)

    def test_twist_on_missing_edge_reports_path(self, tmp_path):
        bad = dict(Z6)
        bad["twist"] = {"0,1": [1], "1,2": [0], "0,2": [0]}
        bad["nerve"] = {"vertices": 3, "simplices": [[0, 1]]}
        with pytest.raises(ScenarioError) as ei:
            load_scenario(write_scenario(tmp_path, bad))
        assert "$.twist" in str(ei.value)

    def test_generator_shape_checked(self, tmp_path):
        bad = dict(Z6, groups={"factors": [6], "N": [[3, 1]]})
        with pytest.raises(ScenarioError) as ei:
            load_scenario(write_scenario(tmp_path, bad))
        assert "$.groups.N[0]" in str(ei.value)

    def test_modulus_multiple_of_exponent(self, tmp_path):
        bad = dict(Z6, modulus=4)
        with pytest.raises(ScenarioError) as ei:
            load_scenario(write_scenario(tmp_path, bad))
        assert "$.modulus" in str(ei.value)

    def test_modulus_overflowing_int64_refused(self, tmp_path, capsys):
        # (m-1)^2 * 512 >= 2^63: Z/m products would overflow int64 silently
        bad = dict(Z6, modulus=6000000000)
        assert main(["run", write_scenario(tmp_path, bad)]) == 2
        assert "$.modulus" in capsys.readouterr().err

    def test_snap_tolerance_wider_than_root_spacing_refused(self, tmp_path, capsys):
        # sin(pi/m) = 5.2e-8 at m = 6e7: the default snap window of 1e-6
        # holds about 19 roots of unity, so a snap would certify nothing
        bad = dict(Z6, modulus=60000000)
        assert main(["run", write_scenario(tmp_path, bad)]) == 2
        assert "$.tolerances.snap" in capsys.readouterr().err

    def test_modulus_bound_edge(self, tmp_path):
        z2 = dict(Z6, groups={"factors": [2], "N": [[1]]})
        assert load_scenario(write_scenario(tmp_path, dict(z2, modulus=2 ** 27)))
        with pytest.raises(ScenarioError) as ei:
            load_scenario(write_scenario(tmp_path, dict(z2, modulus=2 ** 27 + 2)))
        assert "$.modulus" in str(ei.value)

    def test_small_modulus_still_loads(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, dict(Z6, modulus=12)))
        assert sc["modulus"] == 12

    def test_twist_cocycle_law_validated(self, tmp_path):
        bad = {
            "groups": {"factors": [6], "N": [[3]]},
            "nerve": {"vertices": 3, "simplices": [[0, 1, 2]]},
            "twist": {"0,1": [1], "1,2": [0], "0,2": [0]},
            "command": "cohomology",
        }
        path = write_scenario(tmp_path, bad)
        sc = load_scenario(path)   # schema-valid
        with pytest.raises(ScenarioError):
            Workspace(sc)

    @pytest.mark.parametrize("twist", [{"1,0": [1]}, {"0,1": [1], "1,0": [2]}])
    def test_reversed_twist_key_refused(self, tmp_path, capsys, twist):
        # keys name an edge as "a,b" with a < b; a reversed key was once
        # dropped without a word, leaving its edge's label at 0
        path = write_scenario(tmp_path, dict(Z6, twist=twist, command="cohomology"))
        assert main(["run", path]) == 2
        assert "$.twist['1,0']" in capsys.readouterr().err


class TestExitCodes:
    def test_pass_run(self, tmp_path, capsys):
        rc = main(["run", write_scenario(tmp_path, Z6), "--format", "text"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ALL PASS" in out

    def test_malformed_is_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[]")
        assert main(["run", str(p)]) == 2

    def test_failing_tolerance_is_1(self, tmp_path, capsys):
        sc = dict(Z6, command="dualize", fiber_dim=2)
        rc = main(["run", write_scenario(tmp_path, sc),
                   "--tolerance-scale", "1e-20", "--format", "text"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_resource_cap_is_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TDUAL_MAX_DIM", "4")
        sc = dict(Z6, command="dualize")
        rc = main(["run", write_scenario(tmp_path, sc)])
        assert rc == 3

    def test_explain_bad_scenario_is_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        assert main(["explain", str(p)]) == 2

    @pytest.mark.parametrize("mode", ["run", "explain"])
    def test_group_order_over_cap_is_3(self, tmp_path, capsys, mode):
        # 64 * 128 = 8192 elements, over lca.MAX_GROUP_ORDER: refused by
        # load_scenario before any group is built
        sc = dict(Z6, groups={"factors": [64, 128], "N": [[32, 64]]})
        assert main([mode, write_scenario(tmp_path, sc)]) == 3
        err = capsys.readouterr().err
        assert "$.groups.factors: group order 8192 exceeds cap 4096" in err

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--tolerance-scale", "0"),
                                            ("--tolerance-scale", "-1"),
                                            ("--tolerance-scale", "nan"),
                                            ("--tolerance-scale", "inf")])
    def test_flag_out_of_range_is_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as ei:
            main(["run", "z6_circle", flag, value])
        assert ei.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    def test_overcap_certificate_refused_before_any_check(self, tmp_path, monkeypatch,
                                                          capsys):
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        sc = write_scenario(tmp_path, Z8_OVERCAP)
        load_scenario(sc)       # imports the schema validator outside the clock
        out = str(tmp_path / "r.json")
        start = time.perf_counter()
        rc = main(["run", sc, "-o", out])
        elapsed = time.perf_counter() - start
        assert rc == 3
        assert OVERCAP_MESSAGE in capsys.readouterr().err
        assert not os.path.exists(out)
        assert elapsed < 0.1

    def test_overcap_dualisability_refused_before_any_check(self, tmp_path, monkeypatch,
                                                            capsys):
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        sc = write_scenario(tmp_path, Z32_OVERCAP)
        load_scenario(sc)       # imports the schema validator outside the clock
        out = str(tmp_path / "r.json")
        start = time.perf_counter()
        rc = main(["run", sc, "-o", out])
        elapsed = time.perf_counter() - start
        assert rc == 3
        assert "matrix dimension 16384 exceeds cap 512 (TDUAL_MAX_DIM)" in capsys.readouterr().err
        assert not os.path.exists(out)
        assert elapsed < 0.5

    def test_overcap_large_group_refused_without_a_group_square_table(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        sc = write_scenario(tmp_path, Z64XZ64_OVERCAP)
        load_scenario(sc)       # imports the schema validator outside the peak
        out = str(tmp_path / "r.json")
        # the group layer works on positions; GroupElements are built only at
        # the API boundary (scenario values, subgroup generators)
        built = []
        init = lca.GroupElement.__init__

        def counting_init(self, *args, **kw):
            built.append(1)
            init(self, *args, **kw)

        monkeypatch.setattr(lca.GroupElement, "__init__", counting_init)
        tracemalloc.start()
        try:
            rc = main(["run", sc, "-o", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 3
        assert "exceeds cap 512 (TDUAL_MAX_DIM)" in capsys.readouterr().err
        assert not os.path.exists(out)
        assert peak < 32 * 2 ** 20, peak
        assert len(built) <= 16, len(built)

    def test_commands_that_normalise(self):
        assert {c for c in COMMANDS if normalizes(c)} == {
            "total-cohomology", "dualize", "involution", "crossed-point",
            "crossed-glue", "all"}

    def test_overcap_certificate_spares_total_cohomology(self, tmp_path, monkeypatch):
        # total-cohomology solves no certificate and catches its own caps
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        sc = write_scenario(tmp_path, dict(Z8_OVERCAP, command="total-cohomology"))
        out = str(tmp_path / "r.json")
        assert main(["run", sc, "-o", out]) == 0
        assert json.load(open(out))["all_passed"] is True


class TestReports:
    def test_deterministic_reports(self, tmp_path):
        sc = write_scenario(tmp_path, dict(Z6, command="dualize", fiber_dim=2))
        o1, o2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["run", sc, "-o", o1]) == 0
        assert main(["run", sc, "-o", o2]) == 0
        a = json.load(open(o1))
        b = json.load(open(o2))
        a.pop("timings")
        b.pop("timings")
        assert a == b

    def test_bundled_report_matches_golden(self, tmp_path, monkeypatch):
        # integer outputs of z6_circle pinned across refactors; floats and
        # timings are left out (see tests/data/z6_circle_report.json)
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        out = str(tmp_path / "r.json")
        assert main(["run", "z6_circle", "-o", out]) == 0
        report = json.load(open(out))
        report.pop("timings")
        for check in report["checks"]:
            check.pop("residual")
            check.pop("detail", None)
        with open(GOLDEN, encoding="utf-8") as fh:
            assert report == json.load(fh)

    def test_noncyclic_sphere_report_matches_golden(self, tmp_path, monkeypatch):
        # integer outputs of Z2xZ2/<(1,1)> on the sphere, pinned like z6_circle's
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        out = str(tmp_path / "r.json")
        assert main(["run", write_scenario(tmp_path, Z2XZ2_SPHERE), "-o", out]) == 0
        report = json.load(open(out))
        report.pop("timings")
        for check in report["checks"]:
            check.pop("residual")
            check.pop("detail", None)
        with open(Z2XZ2_GOLDEN, encoding="utf-8") as fh:
            assert report == json.load(fh)

    def test_twist_with_holonomy_report_factors(self, tmp_path, monkeypatch):
        # both goldens have twists with trivial holonomy; this one goes once
        # round G/N = Z3 on the circle, so the twisted Cech groups keep only
        # the constants (the trivial twist gives [6, 6, 6] in both degrees)
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        out = str(tmp_path / "r.json")
        assert main(["run", write_scenario(tmp_path, Z6_HOLONOMY), "-o", out]) == 0
        checks = {c["name"]: c for c in json.load(open(out))["checks"]}
        assert checks["cech.twisted_factors"]["factors"] == {"0": [6], "1": [6]}
        assert checks["total.scenario_factors"]["factors"] == {"0": [6], "1": [2, 6]}

    def test_seed_flag_overrides(self, tmp_path):
        sc = write_scenario(tmp_path, dict(Z6, command="dualize", fiber_dim=1))
        o1 = str(tmp_path / "r1.json")
        assert main(["run", sc, "-o", o1, "--seed", "77"]) == 0
        assert json.load(open(o1))["seed"] == 77

    def test_single_check_filter(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, Z6)
        rc = main(["run", sc, "--check", "poincare.q_plus_r_coboundary"])
        out = capsys.readouterr().out
        rep = json.loads(out)
        assert rc == 0
        assert [c["name"] for c in rep["checks"]] == ["poincare.q_plus_r_coboundary"]

    def test_unknown_check_rejected(self, tmp_path):
        sc = write_scenario(tmp_path, Z6)
        assert main(["run", sc, "--check", "nope"]) == 2

    def test_report_written_atomically(self, tmp_path):
        sc = write_scenario(tmp_path, Z6)
        out = str(tmp_path / "out" )
        os.mkdir(out)
        dest = os.path.join(out, "rep.json")
        assert main(["run", sc, "-o", dest]) == 0
        assert os.path.exists(dest)
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")]

    def test_report_echoes_scenario_and_derived(self, tmp_path, capsys):
        sc_dict = dict(Z6)
        rc = main(["run", write_scenario(tmp_path, sc_dict)])
        rep = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert rep["scenario"]["groups"] == sc_dict["groups"]
        assert rep["derived"]["annihilator_order"] == 3
        assert rep["derived"]["quotient_order"] == 3
        assert rep["all_passed"] is True


class TestExplain:
    def test_explain_z6(self, capsys):
        assert main(["explain", "z6_circle"]) == 0
        out = capsys.readouterr().out
        assert "annihilator: order 3" in out
        assert "dual quotient: order 2" in out

    def test_explain_warns_on_edgeless_nerve(self, tmp_path, capsys):
        sc = dict(Z6)
        sc["nerve"] = {"vertices": 2, "simplices": []}
        assert main(["explain", write_scenario(tmp_path, sc)]) == 0
        assert "no overlaps" in capsys.readouterr().out

    def test_explain_matches_run_dimensions(self, tmp_path, capsys):
        # shared code path: derived summary identical in both modes
        sc = write_scenario(tmp_path, Z6)
        main(["explain", sc])
        explain_out = capsys.readouterr().out
        main(["run", sc])
        rep = json.loads(capsys.readouterr().out)
        d = rep["derived"]
        assert f"order {d['annihilator_order']}" in explain_out
        assert str(d["crossed_rep_dim"]) in explain_out

    def test_explain_shows_certificate_dimension(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        # circle: 3 |G|^2 |G/N| + 3 |G| |G/N| at degree 2; Z6/<3> gives 378
        assert main(["explain", write_scenario(tmp_path, dict(Z6, command="all"))]) == 0
        out = capsys.readouterr().out
        assert "certificate matrix dimension 378 (cap 512)" in out
        assert "exit 3" not in out
        assert main(["explain", write_scenario(tmp_path, Z8_OVERCAP)]) == 0
        out = capsys.readouterr().out
        assert "certificate matrix dimension 864 (cap 512)" in out
        assert "run would exit 3" in out

    def test_explain_warns_on_overcap_dualisability(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        # Z6/<3>: |G|^2 |G/N| = 108, under the cap
        assert main(["explain", write_scenario(tmp_path, dict(Z6, command="all"))]) == 0
        out = capsys.readouterr().out
        assert "dualisability matrix dimension 108 (cap 512)" in out
        assert "exit 3" not in out
        # Z32/<16>: total-cohomology normalises but solves no certificate
        sc = write_scenario(tmp_path, Z32_OVERCAP)
        assert main(["explain", sc]) == 0
        out = capsys.readouterr().out
        assert "dualisability matrix dimension 16384 (cap 512)" in out
        assert out.count("run would exit 3") == 1
        assert "warning: normalising the triple exceeds the cap" in out
        assert main(["run", sc, "-o", str(tmp_path / "r.json")]) == 3
        # poincare builds no normalised triple: no warning
        assert main(["explain", write_scenario(tmp_path, dict(Z32_OVERCAP,
                                                              command="poincare"))]) == 0
        assert "exit 3" not in capsys.readouterr().out


class TestStages:
    def test_run_extracts_each_triple_once(self, monkeypatch, tmp_path):
        calls = {"extract_total_cocycle": 0, "dualize": 0}
        for name in calls:
            fn = getattr(triples, name)

            def counted(*args, _fn=fn, _name=name, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(triples, name, counted)
        assert main(["run", "z6_circle", "-o", str(tmp_path / "r.json")]) == 0
        # fixture, normalised, dual, double dual and the exterior relift
        assert calls == {"extract_total_cocycle": 5, "dualize": 2}

    def test_run_factors_each_point_nerve_degree_once(self, monkeypatch, tmp_path):
        calls = []
        fn = zmodlin.smith_form

        def counted(*args, **kw):
            calls.append(1)
            return fn(*args, **kw)
        # every complex factors through zmodlin.Complex.smith
        monkeypatch.setattr(zmodlin, "smith_form", counted)
        assert main(["run", "z6_circle", "--seed", "3", "-o", str(tmp_path / "r.json")]) == 0
        # 31 when the point-nerve check also factored the group-cohomology side,
        # 25 when each class certificate factored the certificate matrix itself,
        # 24 when the scenario factors factored total_matrix(1) apart from them,
        # 23 when normalising factored the arity-1 group matrix apart from the
        # point-nerve check
        assert len(calls) == 22

    def test_run_batches_d_group_and_assembles_each_total_matrix_once(
            self, monkeypatch, tmp_path):
        d_group_calls, assembled = [], []
        d_group, total_matrix = groupcoh.d_group, groupcoh.total_matrix

        def counted_d_group(f):
            d_group_calls.append(1)
            return d_group(f)

        def counted_total_matrix(nerve, G, quotient, m, g, p):
            assembled.append((nerve.vertex_count, p))
            return total_matrix(nerve, G, quotient, m, g, p)
        monkeypatch.setattr(groupcoh, "d_group", counted_d_group)
        monkeypatch.setattr(groupcoh, "total_matrix", counted_total_matrix)
        assert main(["run", "z6_circle", "--seed", "3", "-o", str(tmp_path / "r.json")]) == 0
        # 97 with one d_group call per simplex in total_differential
        assert len(d_group_calls) <= 40
        # the circle's two degrees once each (scenario factors and both
        # certificates share them), then the point nerve's under the cap
        assert sorted(assembled) == [(1, 0), (1, 1), (3, 0), (3, 1)]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_shared_certificates_match_solving_each_alone(self, seed):
        ws = Workspace(load_scenario("z6_circle"), seed=seed)
        certs = ws.certificates()
        want = {
            "involution": triples.cocycle_certificate(ws.cocycle(), ws.double_dual_cocycle()),
            "exterior": triples.cocycle_certificate(ws.cocycle(), ws.exterior_cocycle()),
        }
        assert certs.keys() == want.keys()
        for name, cert in want.items():
            assert cert is not None
            assert np.array_equal(certs[name].flatten(), cert.flatten()), name

    @pytest.mark.parametrize("scenario", [
        "z6_circle",
        dict(Z6, twist={"0,1": [1], "0,2": [0], "1,2": [0]}),
        dict(Z2XZ2_SPHERE, fiber_dim=1),
    ], ids=["z6_circle", "z6_twisted", "z2xz2_sphere"])
    def test_scenario_factors_do_not_depend_on_the_twist_representative(self, scenario):
        # the stage matrices carry the fixture's twist, the scenario's plus a
        # seeded coboundary; r# makes the two total complexes isomorphic
        ws = Workspace(scenario if isinstance(scenario, dict) else load_scenario(scenario))
        assert ws.fixture().g.labels != ws.twist.labels
        got = next(r for r in check_total(ws) if r["name"] == "total.scenario_factors")
        ctx = ws.ctx
        for p in (0, 1):
            want, _ = groupcoh.total_cohomology(ws.nerve, ctx.G, ctx.quotient, ctx.m,
                                                ws.twist, p)
            assert got["factors"][str(p)] == want

    def test_all_run_checks_dual_laws_three_times(self, monkeypatch, tmp_path):
        calls = []
        fn = triples.dual_law_report

        def counted(*args, **kw):
            calls.append(1)
            return fn(*args, **kw)
        monkeypatch.setattr(triples, "dual_law_report", counted)
        assert main(["run", "z6_circle", "-o", str(tmp_path / "r.json")]) == 0
        # inside both dualize calls, and once for check_dualize and check_involution
        assert len(calls) == 3

    def test_verify_involution_matches_workspace_report(self):
        ws = Workspace(load_scenario("z6_circle"))
        want = triples.verify_involution(ws.fixture())
        got = {**ws.dual_laws(),
               **triples.involution_report(ws.normalized(), ws.cocycle(), ws.dual_cocycle(),
                                           ws.double_dual(), ws.double_dual_cocycle(),
                                           ws.certificates()["involution"])}
        assert got.keys() == want.keys()
        for key in want:
            if key == "certificate":
                assert np.array_equal(got[key].flatten(), want[key].flatten())
            else:
                assert got[key] == want[key], key


POINT_NERVE = "total.point_nerve_matches_group_cohomology"


def _point_nerve_row(factors, gens):
    ws = Workspace({"groups": {"factors": factors, "N": gens},
                    "nerve": {"vertices": 3, "simplices": [[0, 1], [0, 2], [1, 2]]},
                    "seed": 3, "command": "total-cohomology"})
    return next(r for r in check_total(ws) if r["name"] == POINT_NERVE), ws.ctx


@pytest.mark.parametrize("factors,gens", [([6], [[3]]), ([2, 4], [[1, 2]]),
                                          ([4], [[2]]), ([2, 2], [[1, 1]])])
def test_point_nerve_check_passes_with_group_factors(factors, gens):
    row, ctx = _point_nerve_row(factors, gens)
    assert row["passed"]
    for p, f in row["factors"].items():
        assert f == groupcoh.group_cohomology(ctx.G, ctx.quotient, ctx.m, int(p))[0]


def test_point_nerve_check_catches_a_negated_total_differential(monkeypatch):
    honest, _ = _point_nerve_row([6], [[3]])
    fn = groupcoh.total_differential

    def negated(t, g):
        out = fn(t, g)
        blocks = {kl: cech.TwistedCochain(b.nerve, b.module, b.degree,
                                          {s: -v for s, v in b.values.items()})
                  for kl, b in out.blocks.items()}
        return groupcoh.TotalCochain(out.nerve, out.G, out.quotient, out.m,
                                     out.degree, blocks)
    monkeypatch.setattr(groupcoh, "total_differential", negated)
    row, _ = _point_nerve_row([6], [[3]])
    assert not row["passed"]
    # negation keeps every cohomology group, so comparing factors would accept it
    assert row["factors"] == honest["factors"]


def test_point_nerve_check_catches_an_identity_quotient_action(monkeypatch):
    # both matrices the check compares come from d_group, so a d_group whose
    # action does nothing (d^2 = 0 still holds) is caught only by the Shapiro
    # closed form: Z6/<3> then has H^1 = [6, 6, 6], where the right answer is [2]
    def identity_action(m, quotient):
        return cech.GModule(m, np.tile(np.arange(quotient.order), (quotient.order, 1)))
    monkeypatch.setattr(cech.GModule, "functions_on_quotient", staticmethod(identity_action))
    ws = Workspace({"groups": {"factors": [6], "N": [[3]]},
                    "nerve": {"vertices": 3, "simplices": [[0, 1], [0, 2], [1, 2]]},
                    "seed": 3, "command": "total-cohomology"})
    # cocycle extraction's closure check would raise before the report is built
    monkeypatch.setattr(ws, "cocycle", lambda: None)
    row = next(r for r in check_total(ws) if r["name"] == POINT_NERVE)
    assert row["factors"]["1"] == [6, 6, 6]
    assert not row["passed"]


def test_run_checks_builds_no_qz_and_group_elements_only_in_annihilator(monkeypatch):
    # below the report a run works on positions: the only elements built are
    # the N-perp generators the dual context finds with lca.annihilator
    ws = Workspace(load_scenario("z6_circle"), seed=3)
    built = []
    for cls in (lca.GroupElement, lca.QZ):
        def spy(self, *args, _init=cls.__init__, **kw):
            in_annihilator = any(f.f_code is lca.annihilator.__code__
                                 for f, _ in traceback.walk_stack(None))
            built.append((type(self).__name__, in_annihilator))
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", spy)
    assert all(r["passed"] for r in run_checks(ws, "all"))
    assert built, "the spy saw no construction at all"
    assert [b for b in built if b != ("GroupElement", True)] == []


@pytest.mark.parametrize("user_value,want", [(None, "1"), ("2", "2")])
def test_import_defaults_blas_to_one_thread_unless_set(user_value, want):
    # a fresh interpreter: this one has imported numpy and tdual already
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    out = subprocess.run(
        [sys.executable, "-c", "import tdual, os; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == want
