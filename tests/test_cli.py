import json
import math
import os
import subprocess
import sys
import time
import traceback
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdual import cech, cli, crossed, groupcoh, lca, triples, zmodlin
from tdual.errors import ResourceCapError
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

from test_groupcoh import _spy_smith_forms

def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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

    @pytest.mark.parametrize("mode", ["run", "explain"])
    @pytest.mark.parametrize("value", ["abc", "1e3", "-3", "0"])
    def test_bad_max_dim_is_2(self, monkeypatch, capsys, mode, value):
        # TDUAL_MAX_DIM is an integer >= 1; anything else is refused before
        # the scenario is read, with one line naming the variable
        monkeypatch.setenv("TDUAL_MAX_DIM", value)
        assert main([mode, "z6_circle"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "TDUAL_MAX_DIM" in err and repr(value) in err

    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    def test_unusable_output_is_2_before_any_check(self, tmp_path, monkeypatch, capsys,
                                                   where):
        out = {"missing_directory": tmp_path / "no" / "r.json", "directory": tmp_path}[where]

        def no_checks(*args, **kwargs):
            raise AssertionError("a check ran")
        monkeypatch.setattr(cli, "run_checks", no_checks)
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", "z6_circle", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_failed_report_write_is_2(self, tmp_path, monkeypatch, capsys):
        def refuse(path, text):
            raise PermissionError(13, "Permission denied", path)
        monkeypatch.setattr(cli, "_atomic_write", refuse)
        out = str(tmp_path / "r.json")
        assert main(["run", write_scenario(tmp_path, Z6), "-o", out]) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: [Errno 13] Permission denied: '{out}'\n"

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
        assert _read_json(out)["all_passed"] is True


class TestReports:
    def test_deterministic_reports(self, tmp_path):
        sc = write_scenario(tmp_path, dict(Z6, command="dualize", fiber_dim=2))
        o1, o2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["run", sc, "-o", o1]) == 0
        assert main(["run", sc, "-o", o2]) == 0
        a = _read_json(o1)
        b = _read_json(o2)
        a.pop("timings")
        b.pop("timings")
        assert a == b

    def test_bundled_report_matches_golden(self, tmp_path, monkeypatch):
        # integer outputs of z6_circle pinned across refactors; floats and
        # timings are left out (see tests/data/z6_circle_report.json)
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        out = str(tmp_path / "r.json")
        assert main(["run", "z6_circle", "-o", out]) == 0
        report = _read_json(out)
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
        report = _read_json(out)
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
        checks = {c["name"]: c for c in _read_json(out)["checks"]}
        assert checks["cech.twisted_factors"]["factors"] == {"0": [6], "1": [6]}
        assert checks["total.scenario_factors"]["factors"] == {"0": [6], "1": [2, 6]}

    def test_seed_flag_overrides(self, tmp_path):
        sc = write_scenario(tmp_path, dict(Z6, command="dualize", fiber_dim=1))
        o1 = str(tmp_path / "r1.json")
        assert main(["run", sc, "-o", o1, "--seed", "77"]) == 0
        assert _read_json(o1)["seed"] == 77

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

    def test_all_run_checks_dual_laws_twice(self, monkeypatch, tmp_path):
        calls = []
        fn = triples.dual_law_report

        def counted(*args, **kw):
            calls.append(1)
            return fn(*args, **kw)
        monkeypatch.setattr(triples, "dual_law_report", counted)
        assert main(["run", "z6_circle", "-o", str(tmp_path / "r.json")]) == 0
        # once inside each dualize, which keeps the residuals with the dual
        # (3 when check_dualize and check_involution measured the
        # (normalised, dual) pair again)
        assert len(calls) == 2

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
        # point-nerve check,
        # 22 when every factor row also ran the kernel and module_quotient
        assert len(calls) == 6

    @pytest.mark.parametrize("scenario", ["z6_circle", Z2XZ2_SPHERE],
                             ids=["z6_circle", "z2xz2_sphere"])
    def test_run_factors_each_matrix_once_without_kernel_or_quotient(
            self, scenario, monkeypatch, tmp_path):
        seen = _spy_smith_forms(monkeypatch)
        calls = {"module_quotient": 0, "kernel": 0}
        quotient, kernel = zmodlin.module_quotient, zmodlin.SmithForm.kernel

        def counted_quotient(*args, **kw):
            calls["module_quotient"] += 1
            return quotient(*args, **kw)

        def counted_kernel(sf):
            calls["kernel"] += 1
            return kernel(sf)
        monkeypatch.setattr(zmodlin, "module_quotient", counted_quotient)
        monkeypatch.setattr(zmodlin.SmithForm, "kernel", counted_kernel)
        path = scenario if isinstance(scenario, str) else write_scenario(tmp_path, scenario)
        assert main(["run", path, "--seed", "3", "-o", str(tmp_path / "r.json")]) == 0
        # the factor rows read Smith diagonals, which solve shares
        assert calls == {"module_quotient": 0, "kernel": 0}
        assert seen
        for i, A in enumerate(seen):
            assert not any(B.shape == A.shape and np.array_equal(A, B) for B in seen[:i])

    def test_run_batches_d_group_and_assembles_each_total_matrix_once(
            self, monkeypatch, tmp_path):
        d_group_calls, assembled, terms_built = [], [], []
        d_group, total_matrix = groupcoh.d_group, groupcoh.total_matrix
        d_group_terms = groupcoh.d_group_terms

        def counted_d_group(f):
            d_group_calls.append(1)
            return d_group(f)

        def counted_terms(space):
            # the quotient itself, not its id: it stays alive, so no key aliases
            terms_built.append((space.quotient, space.m, space.arity))
            return d_group_terms(space)

        def counted_total_matrix(nerve, G, quotient, m, g, p):
            assembled.append((nerve.vertex_count, p))
            return total_matrix(nerve, G, quotient, m, g, p)
        monkeypatch.setattr(groupcoh, "d_group", counted_d_group)
        monkeypatch.setattr(groupcoh, "total_matrix", counted_total_matrix)
        monkeypatch.setattr(groupcoh, "d_group_terms", counted_terms)
        assert main(["run", "z6_circle", "--seed", "3", "-o", str(tmp_path / "r.json")]) == 0
        # the tuple loop runs only as the point-nerve check's reference, at
        # p = 0 and 1 (p = 2 is over the cap); 97 with one call per simplex in
        # total_differential, 26 with one per block
        assert len(d_group_calls) == 2
        # the circle's two degrees once each (scenario factors and both
        # certificates share them), then the point nerve's under the cap
        assert sorted(assembled) == [(1, 0), (1, 1), (3, 0), (3, 1)]
        # each quotient keeps d_group_terms per arity for every space on it:
        # 5 builds, against 32 when each cochain family built its own
        keys = [(id(q), m, arity) for q, m, arity in terms_built]
        assert len(set(keys)) == len(keys) and len(keys) <= 10

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
        return groupcoh.TotalCochain.from_flat(out.nerve, out.G, out.quotient, out.m,
                                               out.degree, -out.flatten())
    monkeypatch.setattr(groupcoh, "total_differential", negated)
    row, _ = _point_nerve_row([6], [[3]])
    assert not row["passed"]
    # negation keeps every cohomology group, so comparing factors would accept it
    assert row["factors"] == honest["factors"]


def test_certificate_json_round_trips_through_block_values():
    # the recipe of perfbench's cochain_from_json: each entry of the JSON
    # certificate assigned into a fresh cochain's block values, which write
    # through to the cochain's one array
    G = lca.FiniteLcaGroup([6])
    q = lca.QuotientGroup(G, lca.Subgroup(G, [G.element([3])]))
    nerve, m = cech.Nerve.circle(), 6
    g = cech.TwistCocycle.from_labels(nerve, q, {(0, 1): 1, (0, 2): 2, (1, 2): 1})
    x0 = np.random.default_rng(0).integers(0, m, size=groupcoh.total_dimension(nerve, G, q, m, 1))
    target = groupcoh.total_differential(
        groupcoh.TotalCochain.from_flat(nerve, G, q, m, 1, x0), g)
    cert = groupcoh.solve_total_coboundary(nerve, G, q, m, g, target)
    data = json.loads(json.dumps(cli.total_cochain_to_json(cert)))
    t = groupcoh.TotalCochain(nerve, G, q, data["modulus"], data["degree"])
    for kl, entries in data["blocks"].items():
        blk = t.blocks[tuple(int(x) for x in kl.split(","))]
        for skey, vals in entries.items():
            s = tuple(int(x) for x in skey.split(","))
            blk.values[s] = np.array([int(Fraction(v) * m) % m for v in vals], dtype=np.int64)
    assert not t.is_zero()
    assert np.array_equal(t.flatten(), cert.flatten())
    assert np.array_equal(groupcoh.total_differential(t, g).flatten(), target.flatten())


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


def test_point_nerve_check_reaches_the_report_when_extraction_fails(monkeypatch, tmp_path):
    # d_group_terms with the action left out of its last term (moved = z):
    # the point-nerve check, which compares the terms with the tuple loop,
    # must fail in the report, beside the closure row that extraction fails
    terms = groupcoh.d_group_terms

    def unmoved(space):
        out = terms(space)
        idx = np.indices((space.n,) * (space.arity + 1) + (space.q,))
        out[-1] = (1, np.ravel_multi_index(list(idx[1:].reshape(space.arity + 1, -1)),
                                           space.shape()))
        return out
    monkeypatch.setattr(groupcoh, "d_group_terms", unmoved)
    out = tmp_path / "r.json"
    assert main(["run", "z6_circle", "--seed", "3", "-o", str(out)]) == 1
    checks = {c["name"]: c for c in _read_json(out)["checks"]}
    assert "total.invalid_triple" not in checks
    assert not checks[POINT_NERVE]["passed"]
    closure = checks["total.triple_cocycle_closure"]
    assert not closure["passed"] and "is not a total cocycle" in closure["error"]


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


def test_import_builds_neither_the_parser_nor_the_schema_validator():
    # both are built on the first main or load_scenario call and kept, so
    # importing the engine costs neither
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, tdual.cli as c; print(c._parser.cache_info().currsize,"
            " c._validator.cache_info().currsize, 'jsonschema' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["0", "0", "False"]


class TestCachedParser:
    def test_second_call_reads_its_own_flags_and_reaches_a_patched_cmd_run(
            self, tmp_path, monkeypatch, capsys):
        sc = write_scenario(tmp_path, Z6)
        assert main(["run", sc, "--check", "poincare.q_plus_r_coboundary",
                     "--format", "text"]) == 0
        assert "PASS  poincare.q_plus_r_coboundary" in capsys.readouterr().out
        parser = cli._parser()
        # neither --check nor --format carries over to the next call
        assert main(["run", sc]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in report["checks"]] == [
            "poincare.kappa_unitary_word", "poincare.q_plus_r_coboundary",
            "poincare.sigma_hat_independence"]
        assert cli._parser() is parser
        seen = []
        monkeypatch.setattr(cli, "cmd_run", lambda args: seen.append(args.scenario) or 7)
        assert main(["run", sc]) == 7
        assert seen == [sc]


def _spy_builds(monkeypatch):
    built = []
    for cls in (cech.Nerve, triples.DualityContext):
        def spy(self, *args, _init=cls.__init__, **kw):
            built.append(type(self).__name__)
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", spy)
    return built


class TestPreflight:
    def test_overcap_run_builds_no_nerve_and_no_context(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        built = _spy_builds(monkeypatch)
        assert main(["run", write_scenario(tmp_path, Z8_OVERCAP)]) == 3
        assert capsys.readouterr().err == f"resource cap: {OVERCAP_MESSAGE}\n"
        assert built == []
        assert main(["run", write_scenario(tmp_path, dict(Z6, command="all"))]) == 0
        assert built.count("Nerve") == 2      # the scenario's and check_total's point

    @pytest.mark.parametrize("flaw,args", [
        ({"tolerances": {"snap": 0.5}}, []),
        ({}, ["--tolerance-scale", "1e6"]),
        ({"nerve": {"vertices": 3, "simplices": [[0, 1, 2]]}, "twist": {"0,1": [1]}}, []),
    ])
    def test_malformed_scenario_over_the_cap_is_2_as_before(self, tmp_path, monkeypatch,
                                                            capsys, flaw, args):
        # Workspace refuses a snap tolerance of sin(pi/m) or more and a twist
        # that breaks the cocycle law with exit 2; cmd_run asks both before
        # preflight, so the run does not turn them into a cap's exit 3
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        sc = dict(Z8_OVERCAP, **flaw)
        assert main(["run", write_scenario(tmp_path, sc)] + args) == 2
        err = capsys.readouterr().err
        with pytest.raises(ScenarioError) as ei:
            Workspace(sc, tolerance_scale=float(args[1]) if args else 1.0)
        assert err == f"scenario error: {ei.value}\n"

    @pytest.mark.parametrize("scenario", [Z6, Z8_OVERCAP, Z32_OVERCAP, Z2XZ2_SPHERE,
                                          dict(Z6_HOLONOMY, fiber_dim=3, trials=4)])
    def test_sizes_match_the_built_workspace(self, scenario, monkeypatch):
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        ws = Workspace(scenario)
        sizes = {b.name: b.size for b in cli.preflight(scenario, "all", refuse=False)}
        side = ws.ctx.G.order * ws.ctx.quotient.order * ws.d ** 2
        faces = [len(ws.nerve.simplices(k)) for k in range(ws.nerve.dimension + 2)]
        assert sizes == {
            "certificate matrix dimension": max(groupcoh.total_dimension(
                ws.nerve, ws.ctx.G, ws.ctx.quotient, ws.ctx.m, p) for p in (1, 2)),
            "dualisability matrix dimension": ws.ctx.G.order ** 2 * ws.ctx.quotient.order,
            "crossed-point matrix dimension": side,
            "crossed-glue trial batch size": ws.trials * side,
            "Cech matrix dimension": max(faces) * ws.ctx.quotient.order,
        }

    @pytest.mark.parametrize("command,refused", [
        ("crossed-point", "matrix dimension 3200 exceeds cap 64"),
        ("crossed-glue", "trial batch size 32000 exceeds cap 4096"),
        ("all", "matrix dimension 3200 exceeds cap 64"),
        ("dualize", None)])
    def test_run_checks_refuses_the_crossed_sizes_before_any_check(
            self, monkeypatch, command, refused):
        # the transform side |G| q d^2 and the glue batch trials |G| q d^2
        # are refused up front, so a check that fails before them cannot
        # decide whether a run meets them
        monkeypatch.setenv("TDUAL_MAX_DIM", "64")
        sc = {"groups": {"factors": [2], "N": [[1]]}, "nerve": Z6["nerve"],
              "fiber_dim": 40, "command": command}
        ws = Workspace(sc)

        def no_checks(*args, **kwargs):
            raise AssertionError("a check ran")
        monkeypatch.setattr(triples, "build_random_triple", no_checks)
        monkeypatch.setattr(crossed, "fourier_roundtrip_residual", no_checks)
        monkeypatch.setattr(cech, "delta_g", no_checks)
        if refused is None:
            with pytest.raises(AssertionError, match="a check ran"):
                run_checks(ws, command)
            return
        with pytest.raises(ResourceCapError) as ei:
            run_checks(ws, command)
        assert str(ei.value).startswith(refused)
        with pytest.raises(ResourceCapError) as pe:
            cli.preflight(sc, command)
        assert str(pe.value) == str(ei.value)

    def test_face_counts_stop_past_the_limit(self):
        # two 40-vertex simplices on 41 vertices: C(40, 20) faces each, far
        # too many to list; the counts stop just past the limit
        nerve = {"vertices": 41, "simplices": [list(range(40)), list(range(1, 41))]}
        start = time.perf_counter()
        counts, exact = cli._face_counts(nerve, 100)
        assert time.perf_counter() - start < 0.1
        assert not exact
        # C(40, 2) edges: a lower bound, as the union has 819
        assert counts[:2] == [41, 780]
        # 40 + 40 - 1 faces on 39 vertices and 2 on 40 are listed, and exact
        assert all(c > 100 for c in counts[2:38]) and counts[38:] == [79, 2]
        # one simplex: every count is a binomial, and exact
        counts, exact = cli._face_counts({"vertices": 17, "simplices": [range(17)]}, 100)
        assert exact and counts == [math.comb(17, k + 1) for k in range(17)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda v: st.tuples(
        st.just(v), st.lists(st.lists(st.integers(0, v - 1), max_size=5), max_size=4))),
        st.integers(1, 40))
    def test_face_counts_match_the_nerve(self, nerve, limit):
        vertices, simplices = nerve
        counts, exact = cli._face_counts({"vertices": vertices, "simplices": simplices}, limit)
        built = cech.Nerve(vertices, simplices)
        truth = [len(built.simplices(k)) for k in range(built.dimension + 1)]
        assert len(counts) == len(truth)
        if exact:
            assert counts == truth
        assert all(c == t or limit < c <= t for c, t in zip(counts, truth))

    def test_explain_prints_the_crossed_sizes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TDUAL_MAX_DIM", raising=False)
        # Z6/<3> at d = 1: |G| q d^2 = 18, and 10 trials of it
        assert main(["explain", write_scenario(tmp_path, dict(Z6, command="all"))]) == 0
        out = capsys.readouterr().out
        assert "crossed-point matrix dimension 18 (cap 512)" in out
        assert "crossed-glue trial batch size 180 (cap 262144)" in out
        assert "Cech matrix dimension 9 (cap 512)" in out
        sc = write_scenario(tmp_path, dict(Z6, command="crossed-point", fiber_dim=6))
        assert main(["explain", sc]) == 0
        out = capsys.readouterr().out
        assert "crossed-point matrix dimension 648 (cap 512)" in out
        assert out.count("run would exit 3") == 1
        assert ("warning: the linearised crossed-product transform exceeds the cap; "
                "run would exit 3") in out
        assert main(["run", sc]) == 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 12), min_size=1, max_size=3).filter(
    lambda f: math.prod(f) <= lca.MAX_GROUP_ORDER).flatmap(lambda f: st.tuples(
        st.just(f), st.lists(st.lists(st.integers(-30, 30), min_size=len(f),
                                      max_size=len(f)), max_size=4))))
def test_quotient_order_matches_the_subgroup(group):
    # preflight's |G/N| by lattice pivots, against lca.Subgroup's listing
    factors, gens = group
    G = lca.FiniteLcaGroup(factors)
    N = lca.Subgroup(G, [G.element(c) for c in gens])
    assert cli._quotient_order(factors, gens) == G.order // N.order
